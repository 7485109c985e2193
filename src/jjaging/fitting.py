"""Nonlinear least-squares estimation of the aging models.

One driver, ``_fit``, fits every model: it checks the series, builds the
start and the box, minimizes, and reports timescales in seconds.  What sets
a model apart (parameter names, minimum points, default start, box,
residual/Jacobian pair, final step) is its row of the ``_MODELS`` table.
The fit is damped (Levenberg-style) least squares on analytic Jacobians,
with the timescales in log space so they stay positive and the steps are
well scaled.  Only trial steps that lower the residual sum of squares are
accepted, so the result never has a higher rss than its start; box bounds
are enforced by projecting trial points, and a timescale that the gradient
pins on its bound is held out of the step (see ``_lm_minimize``).

The two-log model is linear in its two amplitudes, so its fit is separable
(variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10:413, 1973):
the loop runs over the two ln tau only, and at every trial point the
amplitudes are solved on ``_A_BOUNDS`` in closed form (``_pair_candidates``,
the same solve that ranks the grid start's node pairs).  Its Jacobian is the
exact derivative of that projected residual.  Once the loop stops, the
four-parameter Jacobian at the final (a, tau) gives the standard errors.

The 2x2 and 3x3 trial systems go to LAPACK's ``gesv`` gufunc under
``np.linalg.solve``'s error state, entered once per LM run, and the
standard errors' J.T @ J to the ``inv`` gufunc under the same state: the
same routines on the same bytes, without the wrappers' per-call checks.
Each LM iteration is kept as lean, bit for bit: the gradient, J.T J and
the rss are ``ndarray.dot`` calls (the BLAS routines of ``@`` without the
matmul dispatch), the damped matrix is written into one buffer per run,
and a trial point is projected onto the box and passed to the residual as
Python floats (``_project``), with the ndarray x and its step built only
for an accepted point.

``fit_chip`` makes one fit per junction, so each fit's work around its LM
iterations is kept small, and every result stays bit-identical: the series
check takes both columns' extremes in two reductions, which also show
whether every value is finite; the least positive time is searched for
only when a check or the start needs it; the standard errors and
``at_bounds`` are taken in Python floats; and ``fit_chip`` slices a chip's
usable rows once, passing each junction a Fortran-ordered view with
contiguous columns.

``grid_search_oracle`` provides an independent brute-force check: it
evaluates the model on an explicit parameter grid and returns the grid
minimizer, sharing only the model formula with the iterative fitter.
"""

from __future__ import annotations

import contextlib
import math
from bisect import bisect_left, bisect_right
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
]

# The exits of ``_lm_minimize``, the values of ``FitResult.stop_reason``: a
# fit converged unless it stopped on the last one.
STOP_REASONS = ("step_tol", "rss_tol", "no_descent", "max_iter")
_STEP_TOL, _RSS_TOL, _NO_DESCENT, _MAX_ITER = STOP_REASONS

# The box of every fit, (lo, hi) per parameter kind with timescales in ln
# tau, and its stopping rules, all read at call time.
_A_BOUNDS = (0.0, 1.0)
_LOG_TAU_BOUNDS = (math.log(1e2), math.log(1e8))
_B_BOUNDS = (1e-6, 10.0)
_MAX_ITERATIONS = 200
_STEP_TOLERANCE = 1e-10
_RESIDUAL_TOLERANCE = 1e-12

# The caveat of a fit whose positive times span less than a decade, given
# only as a ``FitResult.messages`` entry.
_SHORT_SPAN = "time span below one decade; timescale is weakly constrained"


@dataclass(frozen=True)
class FitOptions:
    """Fit configuration: model choice, start, fixed b.

    ``init`` takes natural-unit parameters: (a, tau_s) or (a, tau_s, b)
    for the single-log model, (tau_int_s, tau_ext_s) for the two-log model,
    whose amplitudes are solved at every trial point and so take no start.
    ``fix_b`` pins the single-log offset (chip-wide shared b fits); the
    two-log model, which has no b, refuses it.
    """

    model: str = "single-log"
    init: tuple[float, ...] | None = None
    fix_b: float | None = None

    def __post_init__(self):
        if self.model not in ("single-log", "two-log"):
            raise ValidationError(f"unknown model {self.model!r}")
        if self.fix_b is not None and self.model != "single-log":
            raise ValidationError("fix_b applies to the single-log model only")
        if self.init is not None and not all(map(math.isfinite, self.init)):
            raise ValidationError(f"init values must be finite, got {tuple(self.init)}")


@dataclass(frozen=True)
class FitResult:
    """Recovered parameters with uncertainties and convergence diagnostics.

    ``stop_reason`` names the exit the fitter took: ``"step_tol"`` or
    ``"rss_tol"`` (a tolerance was met), ``"no_descent"`` (no step at any
    damping lowered the rss: a stationary point, or one pinned at a bound)
    or ``"max_iter"``.  ``converged`` is False exactly for ``"max_iter"``.
    A timescale that the gradient pins on its ln tau bound is held there
    while the other parameters converge, so such a fit stops on a tolerance
    with the timescale in ``at_bounds``; a fit pinned on an amplitude or b
    bound may still run to ``"max_iter"``.  Results not made by the fitter
    may leave it None.
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


def _check_series(series, min_points: int):
    """The series' columns t and y, each contiguous, and their extremes
    ``((t_min, y_min), (t_max, y_max))`` as Python floats.

    A column with a NaN has a NaN minimum and maximum, and one with an
    infinity an infinite extreme, so the values are all finite exactly when
    the four extremes are.  A C-ordered (n, 2) array is copied once into
    contiguous columns; a Fortran-ordered one, as ``fit_chip`` passes, is
    not copied.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("series must be a sequence of (t_s, ratio) pairs")
    if arr.shape[0] < min_points:
        raise InsufficientDataError(
            f"need >= {min_points} points, got {arr.shape[0]}"
        )
    lows, highs = np.minimum.reduce(arr).tolist(), np.maximum.reduce(arr).tolist()
    if not all(map(math.isfinite, lows + highs)):
        raise ValidationError("series contains non-finite values")
    if lows[0] < 0:
        raise ValidationError("series times must be >= 0")
    if arr.strides[0] != arr.itemsize:
        arr = np.ascontiguousarray(arr.T).T
    return arr[:, 0], arr[:, 1], (lows, highs)


# --- model residuals and analytic Jacobians (in log-tau parameterization) ---
#
# Each model is split in two: ``*_resid(x, ...) -> (r, cache)`` for every
# trial point, given as a sequence of Python floats, and ``*_jac(cache, out)
# -> out`` filling a preallocated Jacobian, called only for accepted points.

def _single_log_resid(x, t, y, b_fixed=None):
    if b_fixed is None:
        a, lt, b = x
    else:
        (a, lt), b = x, b_fixed
    t_tau = t / math.exp(lt)
    u = t_tau + b
    log_u = np.log(u)
    r = a * log_u
    r += 1.0
    r -= y
    return r, (a, t_tau, u, log_u)


def _single_log_jac(cache, out):
    a, t_tau, u, log_u = cache
    out[:, 0] = log_u
    col = np.multiply(t_tau, -a, out=out[:, 1])   # -a * t_tau / u, in place
    np.divide(col, u, out=col)
    if out.shape[1] == 3:
        np.divide(a, u, out=out[:, 2])
    return out


def _two_log_resid(x, t, y):
    ai, lti, ae, lte = x
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
    return r, (ai, ti, ui, log_ui, ae, te, ue, log_ue)


def _two_log_jac(cache, out):
    ai, ti, ui, log_ui, ae, te, ue, log_ue = cache
    out[:, 0] = log_ui
    out[:, 1] = -ai * ti / ui
    out[:, 2] = log_ue
    out[:, 3] = -ae * te / ue
    return out


def _two_log_vp_resid(x, t, y):
    """The separable two-log residual at x = (ln tau_int, ln tau_ext): the
    residual at the least-rss amplitudes inside ``_A_BOUNDS``
    (``_pair_candidates``).  Its arithmetic is ``_two_log_resid``'s at
    those amplitudes."""
    lti, lte = x
    ti = t / math.exp(lti)
    te = t / math.exp(lte)
    ui = 1.0 + ti
    ue = 1.0 + te
    bz = np.empty((3, t.size))   # rows: the bases L_int, L_ext and z = y - 1
    log_ui = np.log(ui, out=bz[0])
    log_ue = np.log(ue, out=bz[1])
    np.subtract(y, 1.0, out=bz[2])
    g_ii, g_ie, c_i, _, g_ee, c_e = (bz[:2] @ bz.T).ravel().tolist()
    moments = g_ii, g_ee, g_ie, c_i, c_e
    if g_ii * g_ee - g_ie * g_ie > 0.0:
        cands = _pair_candidates(*moments, *_A_BOUNDS, fmin=min, fmax=max)
    else:
        cands = _singular_pair_candidates(*map(np.float64, moments), *_A_BOUNDS)
    (rss0, ai, ae), (rss1, ai1, ae1) = cands
    if rss1 < rss0:
        ai, ae = ai1, ae1
    ai, ae = float(ai), float(ae)
    r = ai * log_ui
    r += 1.0
    r += ae * log_ue
    r -= y
    return r, (ai, ae, ti, ui, te, ue, bz, (g_ii, g_ee, g_ie), r)


def _two_log_vp_jac(cache, out):
    """The exact Jacobian of ``_two_log_vp_resid`` (Golub & Pereyra 1973).

    With D_k = dL_k/d ln tau_k = -t_k/u_k, A_F the bases of the amplitudes
    strictly inside the box (the free ones; one on a bound is a constant
    there), G_F = A_F.T A_F and P the projector off their span, column k is
    P (a_k D_k) - A_F G_F^-1 e_k (D_k . r), the second term for a free k
    only.  H below is G_F^-1, padded with zeros for the amplitudes on a
    bound.  G_F is regular: a singular system puts an amplitude on a bound
    (``_pair_candidates``)."""
    ai, ae, ti, ui, te, ue, bz, (g_ii, g_ee, g_ie), r = cache
    a_lo, a_hi = _A_BOUNDS
    out[:, 0] = -ai * ti / ui
    out[:, 1] = -ae * te / ue
    free_i, free_e = a_lo < ai < a_hi, a_lo < ae < a_hi
    if free_i and free_e:
        det = g_ii * g_ee - g_ie * g_ie
        h_ii, h_ie, h_ee = g_ee / det, -g_ie / det, g_ii / det
    elif free_i or free_e:
        h_ii, h_ie, h_ee = (1.0 / g_ii, 0.0, 0.0) if free_i else (0.0, 0.0, 1.0 / g_ee)
    else:
        return out
    basis = bz[:2]
    (w_ii, w_ie), (w_ei, w_ee) = (basis @ out).tolist()
    if free_i:
        w_ii -= float((ti / ui) @ r)
    if free_e:
        w_ee -= float((te / ue) @ r)
    out -= basis.T @ np.array([[h_ii * w_ii + h_ie * w_ei, h_ii * w_ie + h_ie * w_ee],
                               [h_ie * w_ii + h_ee * w_ei, h_ie * w_ie + h_ee * w_ee]])
    return out


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# The error state np.linalg sets around its LAPACK calls; as a decorator it
# applies per call, thread-safely.
_linalg_errstate = np.errstate(call=_raise_singular, invalid="call", over="ignore",
                               divide="ignore", under="ignore")


def _solve(a, b):
    """``np.linalg.solve(a, b)`` for a float64 (p, p) ``a`` and (p,) ``b``:
    the same LAPACK call, bit-identical (float64 inputs select the gufunc's
    ``dd->d`` loop without a ``signature``).  The caller holds
    ``_linalg_errstate``, under which a singular ``a`` raises ``LinAlgError``
    likewise; ``_lm_minimize`` enters it once per run, not once per solve."""
    return _umath_linalg.solve1(a, b)


@_linalg_errstate
def _inv(a):
    """``np.linalg.inv(a)`` for a float64 (p, p) ``a``, likewise."""
    return _umath_linalg.inv(a, signature="d->d")


def _project(xs, dxs, lo, hi):
    """The trial point x + dx on the box ``[lo, hi]`` as a list of Python
    floats, and whether it differs from x; all four are float sequences.

    The values are ``np.minimum(np.maximum(x + dx, lo), hi)``'s: a bound
    replaces a value that is not strictly inside it and not NaN, so a tie
    gives the bound (-0.0 against a 0.0 bound gives 0.0).  For an x inside
    the finite box, or NaN, "differs" is ``np.count_nonzero(x_trial - x) >
    0``: a difference of finite floats is zero only when they are equal.
    """
    trial = []
    moved = False
    for x_k, dx_k, lo_k, hi_k in zip(xs, dxs, lo, hi):
        v = x_k + dx_k
        if not v > lo_k and v == v:
            v = lo_k
        if not v < hi_k and v == v:
            v = hi_k
        moved = moved or v != x_k
        trial.append(v)
    return trial, moved


@_linalg_errstate
def _lm_minimize(resid, jac, x0, lo, hi, timescales):
    """Damped least squares over a box; accepts only rss-decreasing steps.

    ``resid(x) -> (r, cache)`` is called for every trial point, given as a
    list of Python floats, and ``jac(cache) -> J`` only for accepted ones.
    Returns ``(x, r, J, rss, iterations, stop_reason)``; ``stop_reason``
    names the exit that fired: ``"step_tol"`` or ``"rss_tol"`` (tolerance
    met), ``"no_descent"`` (no downhill step at any damping: stationary, or
    pinned at a bound) or ``"max_iter"``, after ``_MAX_ITERATIONS``
    iterations.

    Trial points are projected onto the box ``[lo, hi]``.  A timescale (a
    ``timescales`` slot, in ln tau) that sits exactly on its box edge while
    the descent direction -g points out of the box is held for the
    iteration: its step is zero and the damped normal equations are solved
    over the other parameters only (Bertsekas' projected Newton step with a
    binding set, SIAM J. Control Optim. 20:221, 1982).  Without the hold
    such a fit solved, iteration after iteration, for a step that the
    projection threw away, and ran to ``max_iter``.  An iteration that holds
    nothing runs the full system; amplitude and b bounds are never held.

    A trial point is projected onto the box, and tested for a move, in
    Python floats with numpy's rules (``_project``); the ndarray x and its
    step are built only for an accepted point.  The gradient, J.T J and the
    rss are ``ndarray.dot`` calls, the BLAS routines of ``@`` without the
    matmul dispatch, and JtJ + lam D is written into one buffer per run.

    The whole run holds ``_solve``'s error state, ``_linalg_errstate``,
    entered once rather than around each solve.  ``resid``, ``jac`` and the
    loop's own arithmetic run under it too; on resistance ratios in the box
    they raise no floating-point error, so only the solves meet the state.
    """
    # Same values as np.clip, signed zeros included, at a third of the cost.
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    # The box and x as Python floats (xs is refreshed with each accepted
    # step), and the bounds of the timescale slots: an x with no value among
    # ``edges`` holds nothing, found without a numpy call.
    lo_s, hi_s, xs = lo.tolist(), hi.tolist(), x.tolist()
    r, cache = resid(xs)
    J = jac(cache)
    rss = float(r.dot(r))
    lam = 1e-3
    # D is diag(d): zeros off the diagonal, d written through a view of it.
    # A takes JtJ + lam D for each solve of the full system.
    p = x.size
    D = np.zeros((p, p))
    d = D.reshape(-1)[:: p + 1]
    A = np.empty((p, p))
    edges = {bound for k in timescales for bound in (lo_s[k], hi_s[k])}
    for iterations in range(1, _MAX_ITERATIONS + 1):
        Jt = J.T
        neg_g = -Jt.dot(r)
        JtJ = Jt.dot(J)
        # d is diag(JtJ) with its entries <= 0 set to 1.0; a NaN stays NaN.
        d[:] = [1.0 if v <= 0 else v for v in JtJ.diagonal().tolist()]
        # Hold a timescale that sits on its box edge while -g points out of
        # the box; the others take the step of their own damped system.
        held = () if edges.isdisjoint(xs) else [
            k for k in timescales
            if (xs[k] == lo_s[k] and neg_g[k] < 0.0) or (xs[k] == hi_s[k] and neg_g[k] > 0.0)]
        if held:
            free = [k for k in range(p) if k not in held]
            sub = np.ix_(free, free)
            JtJ_f, D_f, neg_g_f = JtJ[sub], D[sub], neg_g[free]
            dx = np.zeros(p)
        while lam < 1e15:
            try:
                if held:
                    dx[free] = _solve(JtJ_f + lam * D_f, neg_g_f)
                else:
                    np.multiply(lam, D, out=A)
                    dx = _solve(np.add(JtJ, A, out=A), neg_g)
            except LinAlgError:
                lam *= 5.0
                continue
            trial, moved = _project(xs, dx.tolist(), lo_s, hi_s)
            if not moved:
                lam *= 5.0
                continue
            r_trial, cache = resid(trial)
            rss_trial = float(r_trial.dot(r_trial))
            if rss_trial < rss:
                break
            lam *= 5.0
        else:
            return x, r, J, rss, iterations, _NO_DESCENT
        x_trial = np.array(trial)
        step = x_trial - x
        # math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D v.
        rel_step = math.sqrt(step.dot(step)) / max(math.sqrt(x_trial.dot(x_trial)), 1.0)
        improvement = rss - rss_trial
        x, xs, r, rss = x_trial, trial, r_trial, rss_trial
        J = jac(cache)
        lam = max(lam / 3.0, 1e-14)
        if rel_step < _STEP_TOLERANCE:
            return x, r, J, rss, iterations, _STEP_TOL
        if improvement <= _RESIDUAL_TOLERANCE * max(rss, 1e-300):
            return x, r, J, rss, iterations, _RSS_TOL
    return x, r, J, rss, iterations, _MAX_ITER


def _stderr_and_bounds(x, J, rss, n, lo, hi, names):
    """Standard errors by name and the names of the parameters on a bound of
    the box; ``x``, ``lo`` and ``hi`` are sequences of floats."""
    p = len(x)
    scale = rss / (n - p) if n > p else float("nan")
    try:
        var = _inv(J.T @ J).diagonal().tolist()
    except LinAlgError:
        # Zero columns of J (the tau of an amplitude at 0, say) make J.T @ J
        # singular: their errors are NaN, the others' come from the rest.
        live = J.any(axis=0)
        J_live, var = J[:, live], np.full(p, math.nan)
        with contextlib.suppress(LinAlgError):
            var[live] = _inv(J_live.T @ J_live).diagonal()
        var = var.tolist()
    # np.sqrt(np.maximum(var * scale, 0.0)) in Python floats: a NaN stays
    # NaN and -0.0 becomes 0.0, as np.maximum returns 0.0 on a tie.  For the
    # box's finite bounds the distance tests equal math.isclose(v, bound,
    # rel_tol=0, abs_tol=1e-12).
    sig = [math.sqrt(0.0 if w <= 0.0 else w) for w in [v * scale for v in var]]
    at = tuple(name for name, v, v_lo, v_hi in zip(names, x, lo, hi)
               if abs(v - v_lo) <= 1e-12 or abs(v - v_hi) <= 1e-12)
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
# (g_int, g_ext, g_ie, c_int, c_ext) out of the moment matrix
# [basis | z].T @ [basis | z]: g the Gram entries of the nodes' basis
# columns, c (in the last column) their products with z.
_START_NODES = 41
_START_STEPS = np.linspace(0.0, 1.0, _START_NODES)
_PAIR_EXT, _PAIR_INT = np.triu_indices(_START_NODES, 1)
_PAIR_Z = np.full_like(_PAIR_INT, _START_NODES)
_PAIR_TAKE = np.ravel_multi_index(np.transpose([  # (row, column) of each entry taken
    (_PAIR_INT, _PAIR_INT), (_PAIR_EXT, _PAIR_EXT), (_PAIR_INT, _PAIR_EXT),
    (_PAIR_INT, _PAIR_Z), (_PAIR_EXT, _PAIR_Z),
], (1, 0, 2)), (_START_NODES + 1,) * 2)


def _pair_candidates(g_int, g_ext, g_ie, c_int, c_ext, a_lo, a_hi, fmin=np.fmin, fmax=np.fmax):
    """The two candidate amplitude pairs of each timescale pair, one of
    which is the pair's least-rss (a_int, a_ext) inside [a_lo, a_hi].

    The arguments are moments of the pair's bases L = ln(1 + t/tau) and of
    z = y - 1: Gram entries g and products c with z.  For fixed timescales
    the model is linear in (a_int, a_ext) (the separable structure of Golub
    & Pereyra 1973), so the amplitudes solve a 2-variable bounded
    least-squares problem in closed form: the unconstrained minimizer if it
    lies in the box, else the best point of an edge, at that edge's clipped
    1-D minimizer.  A convex problem's minimizer lies on an edge of a bound
    that the unconstrained one violates, so two candidates cover it: one
    amplitude clipped from the unconstrained minimizer and the other at its
    clipped 1-D minimizer, a_int clipped first in candidate 0 and a_ext in
    candidate 1 (both are the unconstrained minimizer when it is feasible).
    Returns ``((rss, a_int, a_ext), (rss, a_int, a_ext))``, rss from the
    normal equations less z.z; the best is the one of least rss, candidate
    0 on a tie.

    Moments as numpy arrays over pairs (or numpy scalars) are taken under
    ``np.errstate`` (``_singular_pair_candidates``); fmax/fmin then send the
    NaN of a singular system to a bound, inside the box.  Python floats with
    the builtin ``min``/``max`` give the same values at a quarter of the
    cost of numpy scalars, where no NaN can arise: for a Gram determinant
    g_int g_ext - g_ie^2 > 0.
    """
    out = []
    for k, (g_own, g_oth, c_own, c_oth) in enumerate(((g_int, g_ext, c_int, c_ext),
                                                      (g_ext, g_int, c_ext, c_int))):
        own = (c_own * g_oth - c_oth * g_ie) / (g_own * g_oth - g_ie * g_ie)
        own = fmin(fmax(own, a_lo), a_hi)
        r = c_oth - own * g_ie
        oth = fmin(fmax(r / g_oth, a_lo), a_hi)
        rss = own * (own * g_own - 2.0 * c_own) + oth * (oth * g_oth - 2.0 * r)
        out.append((rss, own, oth) if k == 0 else (rss, oth, own))
    return out


# The candidates of a possibly singular system, under the error state that
# lets fmax/fmin take its NaN.
_singular_pair_candidates = np.errstate(divide="ignore", invalid="ignore", over="ignore")(
    _pair_candidates)


def _two_log_start(t, y):
    """A natural-unit two-log start: the node pair, with amplitudes in the
    box, of least rss (``_pair_candidates``); ties go to candidate 0, then
    to the first pair."""
    lo, hi = _LOG_TAU_BOUNDS
    bz = np.empty((t.size, _START_NODES + 1))
    basis = bz[:, :-1]
    np.multiply.outer(t, np.exp(_START_STEPS * (lo - hi) - lo), out=basis)
    np.log1p(basis, out=basis)
    np.subtract(y, 1.0, out=bz[:, -1])
    (rss0, ai0, ae0), (rss1, ai1, ae1) = _singular_pair_candidates(
        *(bz.T @ bz).take(_PAIR_TAKE), *_A_BOUNDS)
    row, pair = divmod(int(np.argmin((rss0, rss1))), _PAIR_INT.size)
    a_int, a_ext = (ai0[pair], ae0[pair]) if row == 0 else (ai1[pair], ae1[pair])
    ln_tau_int, ln_tau_ext = lo + (hi - lo) * _START_STEPS[[_PAIR_INT[pair], _PAIR_EXT[pair]]]
    return float(a_int), math.exp(ln_tau_int), float(a_ext), math.exp(ln_tau_ext)


def _single_log_guess(t, y, span):
    y_min, y_max, t_lo, t_hi = span
    a = (y_max - y_min) / math.log(t_hi / t_lo)   # rise per e-fold
    return a, t_lo, 1.0


def _two_log_guess(t, y, span):
    return _two_log_start(t, y)[1::2]


def _two_log_expand(x, t, y):
    """The separable fit's end point x = (ln tau_int, ln tau_ext) as the
    four-parameter model's (a_int, ln tau_int, a_ext, ln tau_ext), with that
    model's Jacobian there, names and box: the standard errors and bounds
    are those of the full model."""
    ai, ae = _two_log_vp_resid(x.tolist(), t, y)[1][:2]
    x = np.array([ai, x[0], ae, x[1]])
    return x, _two_log_rj(x, t, y)[1], _TWO_KEYS, (_A_BOUNDS, _LOG_TAU_BOUNDS) * 2


# What sets each model's fit apart; ``_fit`` does the rest.  ``names`` are
# the fitted parameters, ``box()`` gives each one's (lo, hi) bounds, and the
# ``timescales`` slots are fitted in ln tau.  ``guess(t, y, (y_min, y_max,
# t_lo, t_hi))``, with t_lo and t_hi the least and greatest positive times,
# gives a natural-unit start.  A separable model fits its
# timescales only and solves its amplitudes inside the residual; its
# ``expand(x, t, y)`` gives the full (x, J, names, box) at the end,
# with the timescales in the odd slots.  ``finish`` returns (params, stderr,
# at_bounds, degenerate).  With ``start_from_average``, ``fit_chip`` starts
# each junction's fit from the chip-average fit's parameters, read by
# ``names``.  Two-log keeps its global grid start: from the average, its
# junction fits took twice the LM iterations.
_Model = namedtuple("_Model", "names box timescales min_points init_lengths guess resid jac "
                              "expand finish start_from_average")
_MODELS = {
    "single-log": _Model(
        _SINGLE_KEYS, lambda: (_A_BOUNDS, _LOG_TAU_BOUNDS, _B_BOUNDS), (1,), 4, (2, 3),
        _single_log_guess, _single_log_resid, _single_log_jac, None,
        lambda v, stderr, at, msgs: (AgingParams(*v), stderr, at, False), True,
    ),
    "two-log": _Model(
        _TWO_KEYS[1::2], lambda: (_LOG_TAU_BOUNDS,) * 2, (0, 1), 6, (2,),
        _two_log_guess, _two_log_vp_resid, _two_log_vp_jac, _two_log_expand,
        _two_log_finish, False,
    ),
}


def _least_positive(t, t_max):
    """The least positive value of ``t`` (>= 0, with t_max > 0 its greatest)."""
    return np.minimum.reduce(t, where=t > 0.0, initial=t_max).item()


@np.errstate(over="ignore")
def _sum_of_squares(z):
    return float(z @ z)


def _rj(resid, jac, x, t, y, **kw):
    """Residuals and a fresh Jacobian of a model at ``x``."""
    x = np.asarray(x, dtype=float)
    r, cache = resid(x.tolist(), t, y, **kw)
    return r, jac(cache, np.empty((t.size, x.size)))


_single_log_rj = partial(_rj, _single_log_resid, _single_log_jac)
_two_log_rj = partial(_rj, _two_log_resid, _two_log_jac)
_two_log_vp_rj = partial(_rj, _two_log_vp_resid, _two_log_vp_jac)


def _fit(model: str, series, opts: FitOptions | None) -> FitResult:
    """Fit ``model``, a ``_MODELS`` key, whatever ``opts.model`` says."""
    m = _MODELS[model]
    t, y, ((t_min, y_min), (t_max, y_max)) = _check_series(series, m.min_points)
    # The positive times span [t_lo, t_max]; times are >= 0, so there is one
    # exactly when t_max > 0.  Every positive time is >= t_lo, so a second
    # time a decade or more below t_max shows the span wide enough, and t_lo
    # (None then) is found only if the start needs it.
    if t_max <= 0.0:
        raise InsufficientDataError("series needs at least one positive time")
    if t_min > 0.0:
        t_lo = t_min
    elif (t_1 := t[1].item()) > 0.0 and t_max / t_1 >= 10.0:
        t_lo = None
    else:
        t_lo = _least_positive(t, t_max)
    msgs = []
    if t_lo is not None:
        if t_max <= t_lo:
            raise InsufficientDataError("series time span is zero")
        if t_max / t_lo < 10.0:
            msgs.append(_SHORT_SPAN)

    init, fixed_b = (opts.init, opts.fix_b) if opts is not None else (None, None)
    if fixed_b is not None and "b" not in m.names:
        raise ValidationError(f"fix_b does not apply to the {model} model")
    if fixed_b is not None and not _B_BOUNDS[0] <= fixed_b <= _B_BOUNDS[1]:
        raise ParameterError("fix_b outside b bounds")
    start = init or ()
    if init is not None and len(start) not in m.init_lengths:
        raise ValidationError(f"{model} init takes {' or '.join(map(str, m.init_lengths))} "
                              f"values, got {len(start)}")
    # Both models are flat at 1 with zero amplitudes, where the rss is
    # sum((y - 1)^2); elsewhere in the box it differs by a bounded model
    # term.  n (max|y| + 1)^2 bounds that sum, which is taken only when the
    # bound is large.
    y_abs = max(-y_min, y_max) + 1.0
    if y_abs * y_abs * t.size >= 1e300 and not math.isfinite(_sum_of_squares(y - 1.0)):
        raise ValidationError("series residual sum of squares is not finite: "
                              "its ratios are too large")
    if len(start) < len(m.names):
        t_lo = _least_positive(t, t_max) if t_lo is None else t_lo
        start = (*start, *m.guess(t, y, (y_min, y_max, t_lo, t_max))[len(start):])

    names, box, resid_kw = m.names, m.box(), {}
    if fixed_b is not None:  # b, the last slot, leaves the fit for the residuals
        names, box, start, resid_kw = names[:-1], box[:-1], start[:-1], {"b_fixed": fixed_b}
    lo, hi = zip(*box)   # box: a (lo, hi) pair per parameter
    x0 = list(start)
    for k in m.timescales:
        x0[k] = math.log(max(x0[k], 1e-300))
    resid = partial(m.resid, t=t, y=y, **resid_kw)
    jac = partial(m.jac, out=np.empty((t.size, len(x0))))
    x, r, J, rss, iters, stop = _lm_minimize(resid, jac, x0, np.array(lo), np.array(hi),
                                             m.timescales)
    if m.expand is not None:  # the amplitudes were solved inside the residuals
        x, J, names, box = m.expand(x, t, y)
        lo, hi = zip(*box)

    values = x.tolist()
    stderr, at = _stderr_and_bounds(values, J, rss, t.size, lo, hi, names)
    # Report timescales (the odd slots) in seconds: delta method through the
    # exp reparameterization.
    for k in range(1, len(values), 2):
        values[k] = math.exp(values[k])
        stderr[names[k]] = values[k] * stderr[names[k]]
    if fixed_b is not None:
        values.append(float(fixed_b))
        stderr["b"] = 0.0
        msgs.append("b fixed by caller")
    params, stderr, at, degenerate = m.finish(values, stderr, at, msgs)
    return FitResult(
        params=params, stderr=stderr, rss=rss, converged=stop != _MAX_ITER,
        n_points=int(t.size), iterations=iters, at_bounds=at, messages=tuple(msgs),
        degenerate_timescales=degenerate, stop_reason=stop,
    )


def fit_single_log(series, opts: FitOptions | None = None) -> FitResult:
    """Fit ``1 + a ln(t/tau + b)`` to a fractional-resistance series.

    Parameters
    ----------
    series : array_like, shape (n, 2)
        Rows of (t_s, R/R0); n >= 4, times >= 0, values finite.
    opts : FitOptions, optional
        Explicit initialization, fixed b.

    Returns
    -------
    FitResult
        Parameters (tau reported in seconds, optimized internally in ln
        tau), per-parameter standard errors from the linearized covariance
        scaled by rss/(n - p), rss, and convergence diagnostics.  On
        non-convergence the best point so far is returned with
        ``converged=False``.
    """
    return _fit("single-log", series, opts)


def fit_two_log(series, opts: FitOptions | None = None) -> FitResult:
    """Fit the two-channel model; channels are reported with tau_int >= tau_ext.

    The fit is separable: Levenberg-Marquardt runs over (ln tau_int,
    ln tau_ext), with the amplitudes of least rss inside ``_A_BOUNDS`` solved
    at every trial point, so ``FitOptions.init`` takes the two timescales
    only.  Requires >= 6 points.  Near-degenerate solutions (timescales within a
    factor of 2) are flagged ``degenerate_timescales`` since the channel
    split is then practically unidentifiable.
    """
    return _fit("two-log", series, opts)


def fit_chip(
    ds: ChipDataset,
    opts: FitOptions | None = None,
    share_b: bool = False,
    window_s: float = 600.0,
) -> ChipFitResult:
    """Fit every junction and the chip-average curve.

    Each junction is normalized by its earliest usable resistance; the
    average curve is the per-time mean
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
    # The usable rows, sliced once per chip.  Junction j's are rows
    # [first, stop) of ``usable``, whose row 0 holds the times and row 1 each
    # resistance over its junction's first one; its fit gets the
    # Fortran-ordered (n, 2) view usable[:, first:stop].T, whose columns are
    # contiguous.
    ok = ds.flag == FLAG_OK
    t, r = ds.t_s[ok], ds.r_ohm[ok]
    rows = ds.junction_rows()
    sizes = np.add.reduceat(ok, [lo for _, lo, _ in rows], dtype=np.intp)
    stops = np.cumsum(sizes)
    firsts = stops - sizes
    usable = np.empty((2, t.size))
    usable[0] = t
    np.divide(r, r[np.repeat(firsts, sizes)], out=usable[1])
    # A junction's distinct times are its rows less those whose time repeats
    # the one before (t is sorted within a junction).
    repeats = (np.flatnonzero(t[1:] == t[:-1]) + 1).tolist()
    for (j, _, _), a, b in zip(rows, firsts.tolist(), stops.tolist()):
        n_times = b - a and b - a - (bisect_left(repeats, b) - bisect_right(repeats, a))
        if n_times < min_pts:
            skipped[j] = f"fewer than {min_pts} usable time points"
            continue
        try:
            per_junction[j] = fit_fun(usable[:, a:b].T, per_opts)
            r0s[j] = float(r[a])
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
    t, y, _ = _check_series(series, 1)
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
