"""Nonlinear least-squares estimation of the aging models.

One driver, ``_fit``, fits every model: it checks the series, builds the
start and the box, minimizes, and reports timescales in seconds.  What sets
a model apart (parameter names, minimum points, default start, box,
residual/Jacobian pair, final step) is its row of the ``_MODELS`` table.
The fit is damped (Levenberg-style) least squares on analytic Jacobians,
with the timescales in log space so they stay positive and the steps are
well scaled.  Only trial steps that lower the residual sum of squares are
accepted, so the result never has a higher rss than its start; box bounds
are enforced by projecting trial points.  The 3x3 or 4x4 trial systems go
to LAPACK's ``gesv`` gufunc under ``np.linalg.solve``'s error state, and the
standard errors' J.T @ J to the ``inv`` gufunc under the same state: the same
routines on the same bytes, without the wrappers' per-call checks.

``grid_search_oracle`` provides an independent brute-force check: it
evaluates the model on an explicit parameter grid and returns the grid
minimizer, sharing only the model formula with the iterative fitter.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import InsufficientDataError, ParameterError, ValidationError
from .ensemble import FLAG_OK, ChipDataset, aggregate_series
from .model import AgingParams, TwoLogParams

__all__ = [
    "FitOptions",
    "FitResult",
    "ChipFitResult",
    "fit_single_log",
    "fit_two_log",
    "fit_chip",
    "grid_search_oracle",
    "parameter_histogram",
]

_LOG_TAU_LO = math.log(1e2)
_LOG_TAU_HI = math.log(1e8)


@dataclass(frozen=True)
class FitOptions:
    """Fit configuration: model choice, box bounds, stopping rules.

    ``init`` takes natural-unit parameters: (a, tau_s) or (a, tau_s, b)
    for the single-log model, (a_int, tau_int_s, a_ext, tau_ext_s) for the
    two-log model.  ``fix_b`` pins the single-log offset (chip-wide shared
    b fits); the two-log model, which has no b, refuses it.
    """

    model: str = "single-log"
    a_bounds: tuple[float, float] = (0.0, 1.0)
    log_tau_bounds: tuple[float, float] = (_LOG_TAU_LO, _LOG_TAU_HI)
    b_bounds: tuple[float, float] = (1e-6, 10.0)
    max_iterations: int = 200
    step_tolerance: float = 1e-10
    residual_tolerance: float = 1e-12
    init: tuple[float, ...] | None = None
    fix_b: float | None = None

    def __post_init__(self):
        if self.model not in ("single-log", "two-log"):
            raise ValidationError(f"unknown model {self.model!r}")
        if self.fix_b is not None and self.model != "single-log":
            raise ValidationError("fix_b applies to the single-log model only")
        n = self.max_iterations
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValidationError("max_iterations must be an integer >= 1")
        for tol in (self.step_tolerance, self.residual_tolerance):
            if not (math.isfinite(tol) and tol > 0):
                raise ValidationError("tolerances must be finite and > 0")
        for lo, hi in (self.a_bounds, self.log_tau_bounds, self.b_bounds):
            if not lo < hi:
                raise ValidationError("bounds must satisfy lo < hi")
        if self.init is not None and not all(map(math.isfinite, self.init)):
            raise ValidationError(f"init values must be finite, got {tuple(self.init)}")


@dataclass(frozen=True)
class FitResult:
    """Recovered parameters with uncertainties and convergence diagnostics.

    ``stop_reason`` names the exit the fitter took: ``"step_tol"`` or
    ``"rss_tol"`` (a tolerance was met), ``"no_descent"`` (no step at any
    damping lowered the rss: a stationary point, or one pinned at a bound)
    or ``"max_iter"``.  ``converged`` is False exactly for ``"max_iter"``.
    Results not made by the fitter may leave it None.
    """

    params: AgingParams | TwoLogParams
    stderr: dict[str, float]
    rss: float
    converged: bool
    n_points: int
    iterations: int
    at_bounds: tuple[str, ...] = ()
    messages: tuple[str, ...] = ()
    degenerate_timescales: bool = False
    stop_reason: str | None = None


@dataclass(frozen=True)
class ChipFitResult:
    """Per-junction fits plus the average-curve fit for one chip."""

    per_junction: dict[int, FitResult]
    average: FitResult
    r0_ohm: dict[int, float]
    average_r0_ohm: float
    skipped: dict[int, str]
    aggregate: list[tuple[float, float, float, int]]   # the average fit's aggregate_series


def _check_series(series, min_points: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("series must be a sequence of (t_s, ratio) pairs")
    if arr.shape[0] < min_points:
        raise InsufficientDataError(
            f"need >= {min_points} points, got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError("series contains non-finite values")
    t, y = arr[:, 0], arr[:, 1]
    if (t < 0).any():
        raise ValidationError("series times must be >= 0")
    return t, y


def _weights(w, n: int) -> np.ndarray | None:
    """Square-root weights, or None for an unweighted fit (no multiply)."""
    if w is None:
        return None
    w = np.asarray(w, dtype=float)
    if w.shape != (n,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive, finite, one per point")
    return np.sqrt(w)


# --- model residuals and analytic Jacobians (in log-tau parameterization) ---
#
# Each model is split in two: ``*_resid(x, ...) -> (r, cache)`` for every
# trial point and ``*_jac(cache, sw, out) -> out`` filling a preallocated
# Jacobian, called only for accepted points.  ``sw`` is None when unweighted.

def _single_log_resid(x, t, y, sw, b_fixed=None):
    if b_fixed is None:
        a, lt, b = x.tolist()
    else:
        (a, lt), b = x.tolist(), b_fixed
    t_tau = t / math.exp(lt)
    u = t_tau + b
    log_u = np.log(u)
    r = a * log_u
    r += 1.0
    r -= y
    if sw is not None:
        r *= sw
    return r, (a, t_tau, u, log_u)


def _single_log_jac(cache, sw, out):
    a, t_tau, u, log_u = cache
    out[:, 0] = log_u
    out[:, 1] = -a * t_tau / u
    if out.shape[1] == 3:
        out[:, 2] = a / u
    if sw is not None:
        out *= sw[:, None]
    return out


def _two_log_resid(x, t, y, sw):
    ai, lti, ae, lte = x.tolist()
    ti = t / math.exp(lti)
    te = t / math.exp(lte)
    ui = 1.0 + ti
    ue = 1.0 + te
    log_ui = np.log(ui)
    log_ue = np.log(ue)
    r = ai * log_ui
    r += 1.0
    r += ae * log_ue
    r -= y
    if sw is not None:
        r *= sw
    return r, (ai, ti, ui, log_ui, ae, te, ue, log_ue)


def _two_log_jac(cache, sw, out):
    ai, ti, ui, log_ui, ae, te, ue, log_ue = cache
    out[:, 0] = log_ui
    out[:, 1] = -ai * ti / ui
    out[:, 2] = log_ue
    out[:, 3] = -ae * te / ue
    if sw is not None:
        out *= sw[:, None]
    return out


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# The error state np.linalg sets around its LAPACK calls; as a decorator it
# applies per call, thread-safely.
_linalg_errstate = np.errstate(call=_raise_singular, invalid="call", over="ignore",
                               divide="ignore", under="ignore")


@_linalg_errstate
def _solve(a, b):
    """``np.linalg.solve(a, b)`` for a float64 (p, p) ``a`` and (p,) ``b``:
    the same LAPACK call under the same error state, bit-identical, and a
    singular ``a`` raises ``LinAlgError`` likewise."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


@_linalg_errstate
def _inv(a):
    """``np.linalg.inv(a)`` for a float64 (p, p) ``a``, likewise."""
    return _umath_linalg.inv(a, signature="d->d")


def _lm_minimize(resid, jac, x0, lo, hi, opts: FitOptions):
    """Damped least squares over a box; accepts only rss-decreasing steps.

    ``resid(x) -> (r, cache)`` is called for every trial point and
    ``jac(cache) -> J`` only for accepted ones.  Returns ``(x, r, J, rss,
    iterations, stop_reason)``; ``stop_reason`` names the exit that fired:
    ``"step_tol"`` or ``"rss_tol"`` (tolerance met), ``"no_descent"`` (no
    downhill step at any damping: stationary, or pinned at a bound) or
    ``"max_iter"``.
    """
    # Same values as np.clip, signed zeros included, at a third of the cost.
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    r, cache = resid(x)
    J = jac(cache)
    rss = float(r @ r)
    lam = 1e-3
    # D is diag(d): zeros off the diagonal, d written through a view of it.
    p = x.size
    D = np.zeros((p, p))
    d = D.reshape(-1)[:: p + 1]
    for iterations in range(1, opts.max_iterations + 1):
        neg_g = -(J.T @ r)
        JtJ = J.T @ J
        d[:] = JtJ.diagonal()
        d[d <= 0] = 1.0
        while lam < 1e15:
            try:
                dx = _solve(JtJ + lam * D, neg_g)
            except LinAlgError:
                lam *= 5.0
                continue
            x_trial = np.minimum(np.maximum(x + dx, lo), hi)
            step = x_trial - x
            if not np.count_nonzero(step):
                lam *= 5.0
                continue
            r_trial, cache = resid(x_trial)
            rss_trial = float(r_trial @ r_trial)
            if rss_trial < rss:
                break
            lam *= 5.0
        else:
            return x, r, J, rss, iterations, "no_descent"
        # math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D v.
        rel_step = math.sqrt(step.dot(step)) / max(math.sqrt(x_trial.dot(x_trial)), 1.0)
        improvement = rss - rss_trial
        x, r, rss = x_trial, r_trial, rss_trial
        J = jac(cache)
        lam = max(lam / 3.0, 1e-14)
        if rel_step < opts.step_tolerance:
            return x, r, J, rss, iterations, "step_tol"
        if improvement <= opts.residual_tolerance * max(rss, 1e-300):
            return x, r, J, rss, iterations, "rss_tol"
    return x, r, J, rss, iterations, "max_iter"


def _stderr_and_bounds(x, J, rss, n, lo, hi, names):
    p = len(x)
    try:
        cov = _inv(J.T @ J) * (rss / (n - p) if n > p else float("nan"))
        sig = np.sqrt(np.maximum(cov.diagonal(), 0.0)).tolist()
    except LinAlgError:
        sig = [float("nan")] * p
    at = tuple(name for name, v, v_lo, v_hi in zip(names, x.tolist(), lo.tolist(), hi.tolist())
               if math.isclose(v, v_lo, rel_tol=0, abs_tol=1e-12)
               or math.isclose(v, v_hi, rel_tol=0, abs_tol=1e-12))
    return dict(zip(names, sig)), at


_SINGLE_KEYS = ("a", "tau_s", "b")
_TWO_KEYS = ("a_int", "tau_int_s", "a_ext", "tau_ext_s")
_CHANNEL_SWAP = dict(zip(_TWO_KEYS, _TWO_KEYS[2:] + _TWO_KEYS[:2]))


def _two_log_finish(v, stderr, at, msgs):
    if v[1] < v[3]:
        # Canonical channel order: the label exchange symmetry is resolved
        # by making the internal channel the slow one.
        v = v[2:] + v[:2]
        stderr = {name: stderr[_CHANNEL_SWAP[name]] for name in _TWO_KEYS}
        at = tuple(sorted(_CHANNEL_SWAP[name] for name in at))
    degenerate = max(v[1], v[3]) < 2.0 * min(v[1], v[3])
    if degenerate:
        msgs.append("recovered timescales within a factor of 2; channel split is "
                    "practically unidentifiable")
    return TwoLogParams(*v), stderr, at, degenerate


# The two-log start: ``_START_NODES`` ln tau nodes spanning the box, and every
# pair of them with tau_int > tau_ext.  ``_PAIR_TAKE`` picks each pair's
# (g_int, g_ext, g_int, c_int, c_ext, c_int, g_ie) out of the moment matrix
# [basis | z].T @ [basis | z]: g the Gram entries of the nodes' basis
# columns, c (in the last column) their products with z.
_START_NODES = 41
_START_STEPS = np.linspace(0.0, 1.0, _START_NODES)
_PAIR_EXT, _PAIR_INT = np.triu_indices(_START_NODES, 1)
_PAIR_Z = np.full_like(_PAIR_INT, _START_NODES)
_PAIR_TAKE = np.ravel_multi_index(np.transpose([  # (row, column) of each entry taken
    (_PAIR_INT, _PAIR_INT), (_PAIR_EXT, _PAIR_EXT), (_PAIR_INT, _PAIR_INT),
    (_PAIR_INT, _PAIR_Z), (_PAIR_EXT, _PAIR_Z), (_PAIR_INT, _PAIR_Z),
    (_PAIR_INT, _PAIR_EXT),
], (1, 0, 2)), (_START_NODES + 1,) * 2)


def _two_log_start(t, y, tpos, sw, opts: FitOptions):
    """A natural-unit two-log start: the node pair, with amplitudes in the
    box, of least rss.

    For fixed timescales the model is linear in (a_int, a_ext) (the separable
    structure of Golub & Pereyra 1973), so each pair's amplitudes solve a
    2-variable bounded least-squares problem in closed form: the
    unconstrained minimizer if it lies in the box, else the best point of an
    edge, at that edge's clipped 1-D minimizer.  A convex problem's minimizer
    lies on an edge of a bound that the unconstrained one violates, so two
    candidates per pair cover it: one amplitude clipped from the
    unconstrained minimizer and the other at its clipped 1-D minimizer, for
    each amplitude in turn (both are the unconstrained minimizer when it is
    feasible).  Candidates are ranked by rss from the normal equations; ties
    go to the first in row-major order of the (row, pair) layout below.
    """
    lo, hi = opts.log_tau_bounds
    bz = np.empty((t.size, _START_NODES + 1))
    basis = bz[:, :-1]
    np.multiply.outer(t, np.exp(_START_STEPS * (lo - hi) - lo), out=basis)
    np.log1p(basis, out=basis)
    np.subtract(y, 1.0, out=bz[:, -1])
    if sw is not None:
        bz *= sw[:, None]
    m = (bz.T @ bz).take(_PAIR_TAKE)
    # Row 0 clips a_int from the unconstrained minimizer and gives a_ext its
    # clipped 1-D minimizer; row 1 does the reverse.  "own" is the amplitude
    # clipped first, "oth" the other one.
    g_own, g_oth, c_own, c_oth, g_ie = m[:2], m[1:3], m[3:5], m[4:6], m[6]
    a_lo, a_hi = opts.a_bounds
    # fmax/fmin send the NaN of a singular system to a bound, inside the box.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        own = (c_own * g_oth - c_oth * g_ie) / (g_own * g_oth - g_ie * g_ie)
        own = np.fmin(np.fmax(own, a_lo), a_hi)
        r = c_oth - own * g_ie
        oth = np.fmin(np.fmax(r / g_oth, a_lo), a_hi)
        rss = own * (own * g_own - 2.0 * c_own) + oth * (oth * g_oth - 2.0 * r)  # - z.z
    row, pair = divmod(int(rss.argmin()), _PAIR_INT.size)
    a_int, a_ext = (own[0, pair], oth[0, pair]) if row == 0 else (oth[1, pair], own[1, pair])
    ln_tau_int, ln_tau_ext = lo + (hi - lo) * _START_STEPS[[_PAIR_INT[pair], _PAIR_EXT[pair]]]
    return float(a_int), math.exp(ln_tau_int), float(a_ext), math.exp(ln_tau_ext)


def _single_log_guess(t, y, tpos, sw, opts):
    a = (y.max() - y.min()) / math.log(tpos.max() / tpos.min())   # rise per e-fold
    return a, tpos.min(), 1.0


# What sets each model's fit apart; ``_fit`` does the rest.  Timescales sit
# in the odd slots of ``names`` and are fitted in ln tau.  ``box`` names each
# slot's FitOptions bounds; ``guess(t, y, positive times, square-root weights,
# opts)`` gives a natural-unit start; ``finish`` returns (params, stderr,
# at_bounds, degenerate).  With ``start_from_average``, ``fit_chip`` starts
# each junction's fit from the chip-average fit's parameters, read by
# ``names``.  Two-log keeps its global grid start: from the average, its
# junction fits took twice the LM iterations.
_Model = namedtuple("_Model", "names box min_points init_lengths guess resid jac finish "
                              "start_from_average")
_MODELS = {
    "single-log": _Model(
        _SINGLE_KEYS, ("a_bounds", "log_tau_bounds", "b_bounds"), 4, (2, 3),
        _single_log_guess, _single_log_resid, _single_log_jac,
        lambda v, stderr, at, msgs: (AgingParams(*v), stderr, at, False), True,
    ),
    "two-log": _Model(
        _TWO_KEYS, ("a_bounds", "log_tau_bounds") * 2, 6, (4,),
        _two_log_start, _two_log_resid, _two_log_jac, _two_log_finish, False,
    ),
}


def _rj(model: str, x, t, y, sw, **kw):
    """Residuals and a fresh Jacobian of ``model`` at ``x``."""
    m, x = _MODELS[model], np.asarray(x, dtype=float)
    r, cache = m.resid(x, t, y, sw, **kw)
    return r, m.jac(cache, sw, np.empty((t.size, x.size)))


_single_log_rj, _two_log_rj = partial(_rj, "single-log"), partial(_rj, "two-log")


def _fit(model: str, series, opts: FitOptions | None, weights) -> FitResult:
    """Fit ``model``, a ``_MODELS`` key, whatever ``opts.model`` says."""
    m = _MODELS[model]
    opts = opts or FitOptions(model=model)
    t, y = _check_series(series, m.min_points)
    tpos = t[t > 0]
    if tpos.size == 0:
        raise InsufficientDataError("series needs at least one positive time")
    t_min, t_max = tpos.min(), tpos.max()
    if t_max <= t_min:
        raise InsufficientDataError("series time span is zero")
    msgs = []
    if t_max / t_min < 10.0:
        msgs.append("time span below one decade; timescale is weakly constrained")
        warnings.warn(msgs[0], stacklevel=3)  # names the fit function's caller
    sw = _weights(weights, t.size)

    fixed_b = opts.fix_b
    if fixed_b is not None and "b" not in m.names:
        raise ValidationError(f"fix_b does not apply to the {model} model")
    if fixed_b is not None and not opts.b_bounds[0] <= fixed_b <= opts.b_bounds[1]:
        raise ParameterError("fix_b outside b bounds")
    start = opts.init or ()
    if opts.init is not None and len(start) not in m.init_lengths:
        raise ValidationError(f"{model} init takes {' or '.join(map(str, m.init_lengths))} "
                              f"values, got {len(start)}")
    if len(start) < len(m.names):
        start = (*start, *m.guess(t, y, tpos, sw, opts)[len(start):])

    names, box, resid_kw = m.names, m.box, {}
    if fixed_b is not None:  # b, the last slot, leaves the fit for the residuals
        names, box, start, resid_kw = names[:-1], box[:-1], start[:-1], {"b_fixed": fixed_b}
    lo = np.asarray([getattr(opts, field)[0] for field in box])
    hi = np.asarray([getattr(opts, field)[1] for field in box])
    x0 = [v if k % 2 == 0 else math.log(max(v, 1e-300)) for k, v in enumerate(start)]
    resid = partial(m.resid, t=t, y=y, sw=sw, **resid_kw)
    jac = partial(m.jac, sw=sw, out=np.empty((t.size, len(x0))))
    x, r, J, rss, iters, stop = _lm_minimize(resid, jac, x0, lo, hi, opts)

    stderr, at = _stderr_and_bounds(x, J, rss, t.size, lo, hi, names)
    values = x.tolist()
    # Report timescales in seconds: delta method through the exp reparameterization.
    for k in range(1, len(values), 2):
        values[k] = math.exp(values[k])
        stderr[names[k]] = values[k] * stderr[names[k]]
    if fixed_b is not None:
        values.append(float(fixed_b))
        stderr["b"] = 0.0
        msgs.append("b fixed by caller")
    params, stderr, at, degenerate = m.finish(values, stderr, at, msgs)
    return FitResult(
        params=params, stderr=stderr, rss=rss, converged=stop != "max_iter",
        n_points=int(t.size), iterations=iters, at_bounds=at, messages=tuple(msgs),
        degenerate_timescales=degenerate, stop_reason=stop,
    )


def fit_single_log(series, opts: FitOptions | None = None, weights=None) -> FitResult:
    """Fit ``1 + a ln(t/tau + b)`` to a fractional-resistance series.

    Parameters
    ----------
    series : array_like, shape (n, 2)
        Rows of (t_s, R/R0); n >= 4, times >= 0, values finite.
    opts : FitOptions, optional
        Bounds, stopping rules, explicit initialization, fixed b.
    weights : array_like, optional
        Per-point weights applied to squared residuals.

    Returns
    -------
    FitResult
        Parameters (tau reported in seconds, optimized internally in ln
        tau), per-parameter standard errors from the linearized covariance
        scaled by rss/(n - p), rss, and convergence diagnostics.  On
        non-convergence the best point so far is returned with
        ``converged=False``.
    """
    return _fit("single-log", series, opts, weights)


def fit_two_log(series, opts: FitOptions | None = None, weights=None) -> FitResult:
    """Fit the two-channel model; channels are reported with tau_int >= tau_ext.

    Requires >= 6 points.  Near-degenerate solutions (timescales within a
    factor of 2) are flagged ``degenerate_timescales`` since the channel
    split is then practically unidentifiable.
    """
    return _fit("two-log", series, opts, weights)


def fit_chip(
    ds: ChipDataset,
    opts: FitOptions | None = None,
    r0_override: Mapping[int, float] | None = None,
    share_b: bool = False,
    window_s: float = 600.0,
) -> ChipFitResult:
    """Fit every junction and the chip-average curve.

    Each junction is normalized by its earliest usable resistance (or by
    ``r0_override[junction_id]``, which must be finite and > 0); the average curve is the per-time mean
    resistance normalized by its earliest value.  Open and excluded records
    are dropped; junctions failing the prechecks are reported in
    ``skipped`` rather than aborting the chip.  With ``share_b`` the
    average-curve offset is refit into every junction as a fixed b; it
    applies to the single-log model only (``ValidationError`` otherwise).

    The average curve is fitted first.  Junctions scatter around it (their
    aging amplitude is set mainly by fabrication), so each single-log
    junction fit starts from the average fit's (a, tau_s, b), passed as
    ``FitOptions.init``; two-log junction fits keep their global grid start.
    An ``opts.init`` of the caller's own is used for every fit instead.
    """
    opts = opts or FitOptions()
    for j, r0 in (r0_override or {}).items():
        if not (math.isfinite(r0) and r0 > 0):
            raise ValidationError(f"r0_override[{j}] must be finite and > 0, got {r0}")
    if share_b and opts.model != "single-log":
        raise ValidationError(f"share_b applies to the single-log model only, not {opts.model}")
    model = _MODELS[opts.model]
    min_pts = model.min_points
    # The public names, looked up per call, so that wrapping them sees every fit.
    fit_fun = fit_single_log if opts.model == "single-log" else fit_two_log

    agg = aggregate_series(ds, window_s=window_s)
    if len(agg) < min_pts:
        raise InsufficientDataError(
            f"average curve has {len(agg)} time points; need >= {min_pts}"
        )
    avg_r0 = agg[0][1]
    avg_series = [(t, m / avg_r0) for t, m, _, _ in agg]
    average = fit_fun(avg_series, opts)

    per_opts = replace(opts, fix_b=average.params.b) if share_b else opts
    if model.start_from_average and opts.init is None:
        per_opts = replace(per_opts, init=tuple(getattr(average.params, name)
                                                for name in model.names))

    per_junction: dict[int, FitResult] = {}
    r0s: dict[int, float] = {}
    skipped: dict[int, str] = {}
    ok = ds.flag == FLAG_OK
    for j, lo, hi in ds.junction_rows():
        t, r = ds.t_s[lo:hi][ok[lo:hi]], ds.r_ohm[lo:hi][ok[lo:hi]]
        n_times = t.size and 1 + np.count_nonzero(t[1:] != t[:-1])   # t is sorted
        if n_times < min_pts:
            skipped[j] = f"fewer than {min_pts} usable time points"
            continue
        r0 = r0_override[j] if r0_override and j in r0_override else float(r[0])
        series = np.column_stack((t, r / r0))
        try:
            per_junction[j] = fit_fun(series, per_opts)
            r0s[j] = r0
        except (InsufficientDataError, ValidationError) as exc:
            skipped[j] = str(exc)
    return ChipFitResult(
        per_junction=per_junction, average=average,
        r0_ohm=r0s, average_r0_ohm=avg_r0, skipped=skipped, aggregate=agg,
    )


_GRID_NODE_LIMIT = int(1e8)


def grid_search_oracle(series, grid: Mapping[str, Sequence[float]]):
    """Exhaustive model evaluation on an explicit parameter grid.

    ``grid`` maps parameter names to candidate values: keys (a, tau_s, b)
    select the single-log model, (a_int, tau_int_s, a_ext, tau_ext_s) the
    two-log model.  Returns ``(best_params_dict, best_rss)`` for the global
    grid minimizer.  Intended as an independent brute-force check on the
    iterative fitter; refuses grids above 1e8 nodes.
    """
    keys = tuple(sorted(grid.keys()))
    if keys == tuple(sorted(_SINGLE_KEYS)):
        names, model = _SINGLE_KEYS, "single"
    elif keys == tuple(sorted(_TWO_KEYS)):
        names, model = _TWO_KEYS, "two"
    else:
        raise ValidationError(
            f"grid keys {keys} match neither the single-log nor the two-log model"
        )
    t, y = _check_series(series, 1)
    axes = [np.asarray(grid[name], dtype=float) for name in names]
    if any(ax.ndim != 1 or ax.size < 1 for ax in axes):
        raise ValidationError("each grid axis needs at least one value")
    n_nodes = int(np.prod([ax.size for ax in axes]))
    if n_nodes > _GRID_NODE_LIMIT:
        raise ValidationError(
            f"grid has {n_nodes} nodes (> {_GRID_NODE_LIMIT}); coarsen the axes or "
            "restrict the ranges"
        )

    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    best_rss = np.inf
    best_idx = 0
    chunk = max(1, int(2e7) // max(t.size, 1))
    for start in range(0, n_nodes, chunk):
        sl = slice(start, min(start + chunk, n_nodes))
        if model == "single":
            a, tau, b = flat[0][sl], flat[1][sl], flat[2][sl]
            f = 1.0 + a[:, None] * np.log(t[None, :] / tau[:, None] + b[:, None])
        else:
            ai, ti, ae, te = (flat[k][sl] for k in range(4))
            f = (
                1.0
                + ai[:, None] * np.log1p(t[None, :] / ti[:, None])
                + ae[:, None] * np.log1p(t[None, :] / te[:, None])
            )
        rss = np.sum((f - y[None, :]) ** 2, axis=1)
        k = int(np.argmin(rss))
        if rss[k] < best_rss:
            best_rss = float(rss[k])
            best_idx = start + k
    best = {name: float(flat[k][best_idx]) for k, name in enumerate(names)}
    return best, best_rss


_HIST_GETTERS = {
    "a": lambda p: p.a,
    "tau": lambda p: p.tau_s,
    "log_tau": lambda p: math.log(p.tau_s),
    "b": lambda p: p.b,
}


def parameter_histogram(results: Sequence[FitResult], field: str, n_bins: int):
    """Histogram one recovered parameter across fit results.

    ``field`` is one of a, tau, log_tau, b; log_tau bins are uniform in
    ln(tau).  Returns ``(counts, edges)`` as numpy arrays (np.histogram
    convention); total counts equal the number of results.
    """
    if field not in _HIST_GETTERS:
        raise ValidationError(f"unknown histogram field {field!r}; "
                              f"choose from {tuple(_HIST_GETTERS)}")
    if not results:
        raise InsufficientDataError("need at least one fit result")
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    if not all(isinstance(res.params, AgingParams) for res in results):
        raise ValidationError("parameter histograms expect single-log fit results")
    arr = np.asarray([_HIST_GETTERS[field](res.params) for res in results])
    vmin, vmax = float(arr.min()), float(arr.max())
    # Values too close for n_bins + 1 distinct edges (equal ones included).
    if not (np.diff(np.linspace(vmin, vmax, n_bins + 1)) > 0).all():
        vmin, vmax = vmin - 0.5, vmax + 0.5
    counts, edges = np.histogram(arr, bins=n_bins, range=(vmin, vmax))
    return counts, edges
