"""Reference fitting kernel and drivers: the original residual+Jacobian
models, Levenberg-Marquardt loop and per-model fit functions, kept as a test
oracle.

``jjaging.fitting`` splits each model into a residual pass and a Jacobian
pass (the Jacobian is built only for accepted steps) and trims the numpy
calls of each trial.  This module keeps the original versions, which build
residuals and Jacobian together on every trial, so that tests can require
equal fits from the two.  ``reference_lm_minimize`` has the package kernel's
signature: patched over ``jjaging.fitting._lm_minimize``, it runs a whole
``fit_single_log``/``fit_two_log``/``fit_chip`` on the original code.  The
original loop carries one later rule, restated here with numpy masks rather
than the package's Python-float test: a ln tau parameter on its bound, with
the gradient pointing into the box, is held out of the iteration's step.

The package fits the two-log model separably, over its two ln tau only.
``_two_log_vp_rj`` restates that model: the amplitudes from both
closed-form candidates under numpy's rules (the package takes Python floats
where no NaN can arise) and the Golub-Pereyra Jacobian built with masks
and an adjugate inverse (the package branches on which amplitudes are
free).  The original four-parameter model stays here for
``reference_fit_two_log``, now a second oracle rather than an equal.

``jjaging.fitting`` runs both models through one driver, ``_fit``, with a
per-model table.  ``reference_fit_single_log`` and ``reference_fit_two_log``
are the two separate fit functions it replaced, unchanged but for their
names and for calling the package kernel as ``fitting._lm_minimize``; their
``_span_warning`` is the original one, which names the caller of the fit
function two frames up.  Their series check and standard-error step are the
original ``_check_series`` and ``_stderr_and_bounds`` (``np.linalg.inv``,
``np.diag``, one ``math.isclose`` test per parameter), kept here so that a
change to the package's versions shows as a mismatch.  The standard-error
step also restates the package's rule for a singular J.T @ J: a parameter
whose column of J is all zero gets NaN, and the others come from the system
without those columns.

The box and the stopping rules are this module's own copy of the
package's: ``A_BOUNDS``, ``LOG_TAU_BOUNDS`` and ``B_BOUNDS`` (timescales in
ln tau), ``MAX_ITERATIONS``, ``STEP_TOLERANCE`` and ``RESIDUAL_TOLERANCE``,
read at call time, so that a test can patch them together with the
package's.
"""

import math
import warnings
from functools import partial

import numpy as np

from jjaging import fitting
from jjaging.errors import InsufficientDataError, ParameterError, ValidationError
from jjaging.fitting import (
    FitOptions,
    FitResult,
    _single_log_jac,
    _single_log_resid,
    _two_log_jac,
    _two_log_resid,
)
from jjaging.model import AgingParams, TwoLogParams

A_BOUNDS = (0.0, 1.0)
LOG_TAU_BOUNDS = (math.log(100.0), math.log(1e8))
B_BOUNDS = (1e-6, 10.0)
MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-10
RESIDUAL_TOLERANCE = 1e-12


def _check_series(series, min_points: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("series must be a sequence of (t_s, ratio) pairs")
    if arr.shape[0] < min_points:
        raise InsufficientDataError(
            f"need >= {min_points} points, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("series contains non-finite values")
    t, y = arr[:, 0], arr[:, 1]
    if np.any(t < 0):
        raise ValidationError("series times must be >= 0")
    return t, y


def _stderr_and_bounds(x, J, rss, n, lo, hi, names):
    p = len(x)
    stderr = {}
    scale = rss / (n - p) if n > p else float("nan")
    sig = np.full(p, float("nan"))
    try:
        sig = np.sqrt(np.maximum(np.diag(np.linalg.inv(J.T @ J) * scale), 0.0))
    except np.linalg.LinAlgError:
        # Only the parameters whose column of J is all zero lose their
        # error, unless the system without those columns is singular too.
        keep = np.any(J != 0, axis=0)
        if keep.any() and not keep.all():
            Jk = J[:, keep]
            try:
                sig[keep] = np.sqrt(np.maximum(np.diag(np.linalg.inv(Jk.T @ Jk) * scale), 0.0))
            except np.linalg.LinAlgError:
                pass
    at = []
    for k, name in enumerate(names):
        stderr[name] = float(sig[k])
        if math.isclose(x[k], lo[k], rel_tol=0, abs_tol=1e-12) or math.isclose(
            x[k], hi[k], rel_tol=0, abs_tol=1e-12
        ):
            at.append(name)
    return stderr, tuple(at)


def _single_log_rj(x, t, y, sw, b_fixed=None):
    if b_fixed is None:
        a, lt, b = x
    else:
        (a, lt), b = x, b_fixed
    tau = math.exp(lt)
    u = t / tau + b
    log_u = np.log(u)
    r = (1.0 + a * log_u - y) * sw
    cols = [log_u * sw, (-a * (t / tau) / u) * sw]
    if b_fixed is None:
        cols.append((a / u) * sw)
    return r, np.column_stack(cols)


def _two_log_rj(x, t, y, sw):
    ai, lti, ae, lte = x
    taui, taue = math.exp(lti), math.exp(lte)
    ui = 1.0 + t / taui
    ue = 1.0 + t / taue
    r = (1.0 + ai * np.log(ui) + ae * np.log(ue) - y) * sw
    J = np.column_stack(
        [
            np.log(ui) * sw,
            (-ai * (t / taui) / ui) * sw,
            np.log(ue) * sw,
            (-ae * (t / taue) / ue) * sw,
        ]
    )
    return r, J


def _two_log_candidates(moments, a_lo, a_hi):
    """Both closed-form candidates of the bounded 2-amplitude least squares,
    as numpy scalars under numpy's rules: a_int clipped from the
    unconstrained minimizer and a_ext at its clipped 1-D minimizer, then the
    reverse.  Returns rows of (rss - z.z, a_int, a_ext)."""
    g_ii, g_ee, g_ie, c_i, c_e = (np.float64(v) for v in moments)
    rows = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for first in (0, 1):
            g1, g2, c1, c2 = (g_ii, g_ee, c_i, c_e) if first == 0 else (g_ee, g_ii, c_e, c_i)
            a1 = np.fmin(np.fmax((c1 * g2 - c2 * g_ie) / (g1 * g2 - g_ie * g_ie), a_lo), a_hi)
            rest = c2 - a1 * g_ie
            a2 = np.fmin(np.fmax(rest / g2, a_lo), a_hi)
            rss = a1 * (a1 * g1 - 2.0 * c1) + a2 * (a2 * g2 - 2.0 * rest)
            rows.append((rss, a1, a2) if first == 0 else (rss, a2, a1))
    return rows


def _two_log_vp_rj(x, t, y, sw):
    """The separable two-log model at x = (ln tau_int, ln tau_ext): the
    residual at the least-rss amplitudes in the box, and the Golub-Pereyra
    Jacobian over the amplitudes strictly inside it, built with masks."""
    lti, lte = x
    a_bounds = A_BOUNDS
    taui, taue = math.exp(lti), math.exp(lte)
    ui = 1.0 + t / taui
    ue = 1.0 + t / taue
    A = np.stack([np.log(ui), np.log(ue), y - 1.0])
    M = A[:2] @ A.T
    rows = _two_log_candidates((M[0, 0], M[1, 1], M[0, 1], M[0, 2], M[1, 2]), *a_bounds)
    _, ai, ae = min(rows, key=lambda row: row[0])   # the first of equal rss
    a = np.array([float(ai), float(ae)])
    r = (1.0 + a[0] * A[0] + a[1] * A[1] - y) * sw
    J = np.column_stack([-a[0] * (t / taui) / ui, -a[1] * (t / taue) / ue]) * sw[:, None]
    free = (a > a_bounds[0]) & (a < a_bounds[1])
    G = M[:, :2]
    # G restricted to the free amplitudes, inverted by its adjugate and padded
    # with zeros: W's rows of amplitudes on a bound then drop out.
    H = np.zeros((2, 2))
    if free.all():
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[0, 1]
        H = np.array([[G[1, 1], -G[0, 1]], [-G[0, 1], G[0, 0]]]) / det
    elif free.any():
        H[free, free] = 1.0 / G[free, free]
    if H.any():
        W = A[:2] @ J
        minus_D = np.stack([t / taui / ui, t / taue / ue])
        for k in np.flatnonzero(free):
            W[k, k] -= minus_D[k] @ r
        J = J - A[:2].T @ (H[:, :, None] * W[None]).sum(axis=1)
    return r, J


def _lm_minimize(fun, x0, lo, hi, timescales):
    """Damped least squares over a box; accepts only rss-decreasing steps.

    Each iteration holds the parameters of ``timescales`` that lie on a
    bound of the box with the gradient pointing into it (so that the
    steepest-descent direction leaves the box): their step is zero, and the
    damped system is solved for the other parameters alone.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, J = fun(x)
    rss = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    may_hold = np.isin(np.arange(x.size), timescales)
    for iterations in range(1, MAX_ITERATIONS + 1):
        g = J.T @ r
        JtJ = J.T @ J
        d = np.diag(JtJ).copy()
        d[d <= 0] = 1.0
        held = may_hold & (((x == lo) & (g > 0)) | ((x == hi) & (g < 0)))
        free = np.flatnonzero(~held)
        accepted = False
        rel_step = np.inf
        improvement = np.inf
        while lam < 1e15:
            try:
                dx = np.zeros_like(x)
                dx[free] = np.linalg.solve((JtJ + lam * np.diag(d))[np.ix_(free, free)],
                                           -g[free])
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            x_trial = np.clip(x + dx, lo, hi)
            step = x_trial - x
            if not np.any(step != 0.0):
                lam *= 5.0
                continue
            r_trial, J_trial = fun(x_trial)
            rss_trial = float(r_trial @ r_trial)
            if rss_trial < rss:
                rel_step = float(
                    np.linalg.norm(step) / max(np.linalg.norm(x_trial), 1.0)
                )
                improvement = rss - rss_trial
                x, r, J, rss = x_trial, r_trial, J_trial, rss_trial
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 5.0
        if not accepted:
            # No downhill step at any damping: stationary (or pinned at bounds).
            converged = True
            break
        if rel_step < STEP_TOLERANCE or improvement <= RESIDUAL_TOLERANCE * max(rss, 1e-300):
            converged = True
            break
    return x, r, J, rss, converged, iterations


# Each package model: the original model and the slots of its ln tau values.
_REFERENCE_MODELS = {
    fitting._single_log_resid: (_single_log_rj, [1]),
    fitting._two_log_resid: (_two_log_rj, [1, 3]),
    fitting._two_log_vp_resid: (_two_log_vp_rj, [0, 1]),
}


def reference_lm_minimize(resid, jac, x0, lo, hi, timescales):
    """The original kernel on the original model, called like the package's.

    ``resid`` is the package's ``functools.partial`` over a model's residual
    function; its bound data select the original model, whose ln tau slots
    come from this module's table (``timescales`` is not read).  The
    original models take square-root weights and ran unweighted fits with
    all-ones weights, which is what is passed here.  The original kernel does not tell its
    exits apart, so the stop reason is ``"max_iter"`` when it did not
    converge and ``None`` otherwise.
    """
    kw = dict(resid.keywords, sw=np.ones_like(resid.keywords["t"]))
    model, own_timescales = _REFERENCE_MODELS[resid.func]
    x, r, J, rss, converged, iterations = _lm_minimize(
        lambda x: model(x, **kw), x0, lo, hi, own_timescales
    )
    return x, r, J, rss, iterations, None if converged else "max_iter"


def _span_warning(t: np.ndarray) -> list[str]:
    tpos = t[t > 0]
    if tpos.size == 0:
        raise InsufficientDataError("series needs at least one positive time")
    if tpos.max() <= tpos.min():
        raise InsufficientDataError("series time span is zero")
    if tpos.max() / tpos.min() < 10.0:
        msg = "time span below one decade; timescale is weakly constrained"
        warnings.warn(msg, stacklevel=3)
        return [msg]
    return []


def reference_fit_single_log(series, opts: FitOptions | None = None) -> FitResult:
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
    opts = opts or FitOptions()
    t, y = _check_series(series, 4)
    msgs = _span_warning(t)

    fixed_b = opts.fix_b
    if fixed_b is not None and not B_BOUNDS[0] <= fixed_b <= B_BOUNDS[1]:
        raise ParameterError("fix_b outside b bounds")

    tpos = t[t > 0]
    if opts.init is not None:
        a0, tau0 = opts.init[0], opts.init[1]
        b0 = opts.init[2] if len(opts.init) > 2 and fixed_b is None else 1.0
    else:
        a0 = (y.max() - y.min()) / math.log(tpos.max() / tpos.min())
        tau0 = tpos.min()
        b0 = 1.0

    lo = [A_BOUNDS[0], LOG_TAU_BOUNDS[0]]
    hi = [A_BOUNDS[1], LOG_TAU_BOUNDS[1]]
    x0 = [a0, math.log(max(tau0, 1e-300))]
    names = ["a", "tau_s"]
    if fixed_b is None:
        lo.append(B_BOUNDS[0])
        hi.append(B_BOUNDS[1])
        x0.append(b0)
        names.append("b")
    lo, hi = np.asarray(lo), np.asarray(hi)

    resid = partial(_single_log_resid, t=t, y=y, b_fixed=fixed_b)
    jac = partial(_single_log_jac, out=np.empty((t.size, len(x0))))
    x, r, J, rss, iters, stop = fitting._lm_minimize(resid, jac, x0, lo, hi, (1,))

    stderr, at = _stderr_and_bounds(x, J, rss, t.size, lo, hi, names)
    # Report tau in seconds: delta method through the exp reparameterization.
    tau = math.exp(x[1])
    stderr["tau_s"] = tau * stderr["tau_s"]
    b = float(x[2]) if fixed_b is None else float(fixed_b)
    params = AgingParams(a=float(x[0]), tau_s=tau, b=b, r0_ohm=1.0)
    if fixed_b is not None:
        stderr["b"] = 0.0
        msgs = msgs + ["b fixed by caller"]
    return FitResult(
        params=params, stderr=stderr, rss=rss, converged=stop != "max_iter",
        n_points=int(t.size), iterations=iters, at_bounds=at, messages=tuple(msgs),
        stop_reason=stop,
    )


def reference_fit_two_log(series, opts: FitOptions | None = None) -> FitResult:
    """Fit the two-channel model; channels are reported with tau_int >= tau_ext.

    Requires >= 6 points.  Near-degenerate solutions (timescales within a
    factor of 2) are flagged ``degenerate_timescales`` since the channel
    split is then practically unidentifiable.
    """
    opts = opts or FitOptions(model="two-log")
    t, y = _check_series(series, 6)
    msgs = _span_warning(t)

    tpos = t[t > 0]
    if opts.init is not None:
        ai0, ti0, ae0, te0 = opts.init
    else:
        a_total = (y.max() - y.min()) / math.log(tpos.max() / tpos.min())
        ai0 = ae0 = a_total / 2.0
        ti0 = tpos.max() / 10.0
        te0 = tpos.min()

    lo = np.asarray(
        [A_BOUNDS[0], LOG_TAU_BOUNDS[0]] * 2
    )
    hi = np.asarray(
        [A_BOUNDS[1], LOG_TAU_BOUNDS[1]] * 2
    )
    x0 = [ai0, math.log(max(ti0, 1e-300)), ae0, math.log(max(te0, 1e-300))]

    resid = partial(_two_log_resid, t=t, y=y)
    jac = partial(_two_log_jac, out=np.empty((t.size, 4)))
    x, r, J, rss, iters, stop = fitting._lm_minimize(resid, jac, x0, lo, hi, (1, 3))

    names = ["a_int", "tau_int_s", "a_ext", "tau_ext_s"]
    stderr, at = _stderr_and_bounds(x, J, rss, t.size, lo, hi, names)
    taui, taue = math.exp(x[1]), math.exp(x[3])
    stderr["tau_int_s"] = taui * stderr["tau_int_s"]
    stderr["tau_ext_s"] = taue * stderr["tau_ext_s"]
    ai, ae = float(x[0]), float(x[2])

    if taui < taue:
        # Canonical channel order: the label exchange symmetry is resolved
        # by making the internal channel the slow one.
        ai, ae, taui, taue = ae, ai, taue, taui
        stderr = {
            "a_int": stderr["a_ext"], "tau_int_s": stderr["tau_ext_s"],
            "a_ext": stderr["a_int"], "tau_ext_s": stderr["tau_int_s"],
        }
        swap = {"a_int": "a_ext", "a_ext": "a_int",
                "tau_int_s": "tau_ext_s", "tau_ext_s": "tau_int_s"}
        at = tuple(sorted(swap[n] for n in at))

    degenerate = max(taui, taue) < 2.0 * min(taui, taue)
    if degenerate:
        msgs.append("recovered timescales within a factor of 2; channel split is "
                    "practically unidentifiable")
    params = TwoLogParams(a_int=ai, tau_int_s=taui, a_ext=ae, tau_ext_s=taue, r0_ohm=1.0)
    return FitResult(
        params=params, stderr=stderr, rss=rss, converged=stop != "max_iter",
        n_points=int(t.size), iterations=iters, at_bounds=at,
        messages=tuple(msgs), degenerate_timescales=degenerate, stop_reason=stop,
    )
