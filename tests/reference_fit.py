"""Reference fitting kernel and drivers: the original residual+Jacobian
models, Levenberg-Marquardt loop and per-model fit functions, kept as a test
oracle.

``jjaging.fitting`` splits each model into a residual pass and a Jacobian
pass (the Jacobian is built only for accepted steps) and trims the numpy
calls of each trial.  This module keeps the original versions, which build
residuals and Jacobian together on every trial, so that tests can require
equal fits from the two.  ``reference_lm_minimize`` has the package kernel's
signature: patched over ``jjaging.fitting._lm_minimize``, it runs a whole
``fit_single_log``/``fit_two_log``/``fit_chip`` on the original code.

``jjaging.fitting`` runs both models through one driver, ``_fit``, with a
per-model table.  ``reference_fit_single_log`` and ``reference_fit_two_log``
are the two separate fit functions it replaced, unchanged but for their
names and for calling the package kernel as ``fitting._lm_minimize``; their
``_span_warning`` is the original one, which names the caller of the fit
function two frames up.
"""

import math
import warnings
from functools import partial

import numpy as np

from jjaging import fitting
from jjaging.errors import InsufficientDataError, ParameterError
from jjaging.fitting import (
    FitOptions,
    FitResult,
    _check_series,
    _single_log_jac,
    _single_log_resid,
    _stderr_and_bounds,
    _two_log_jac,
    _two_log_resid,
    _weights,
)
from jjaging.model import AgingParams, TwoLogParams


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


def _lm_minimize(fun, x0, lo, hi, opts):
    """Damped least squares over a box; accepts only rss-decreasing steps."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, J = fun(x)
    rss = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        g = J.T @ r
        JtJ = J.T @ J
        d = np.diag(JtJ).copy()
        d[d <= 0] = 1.0
        accepted = False
        rel_step = np.inf
        improvement = np.inf
        while lam < 1e15:
            try:
                dx = np.linalg.solve(JtJ + lam * np.diag(d), -g)
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
        if rel_step < opts.step_tolerance or improvement <= opts.residual_tolerance * max(rss, 1e-300):
            converged = True
            break
    return x, r, J, rss, converged, iterations


_REFERENCE_MODELS = {
    fitting._single_log_resid: _single_log_rj,
    fitting._two_log_resid: _two_log_rj,
}


def reference_lm_minimize(resid, jac, x0, lo, hi, opts):
    """The original kernel on the original model, called like the package's.

    ``resid`` is the package's ``functools.partial`` over a model's residual
    function; its bound data select the original model.  Unweighted fits ran
    with all-ones weights originally, which is what is passed here.  The
    original kernel does not tell its exits apart, so the stop reason is
    ``"max_iter"`` when it did not converge and ``None`` otherwise.
    """
    kw = dict(resid.keywords)
    if kw["sw"] is None:
        kw["sw"] = np.ones_like(kw["t"])
    model = _REFERENCE_MODELS[resid.func]
    x, r, J, rss, converged, iterations = _lm_minimize(
        lambda x: model(x, **kw), x0, lo, hi, opts
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


def reference_fit_single_log(series, opts: FitOptions | None = None, weights=None) -> FitResult:
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
    opts = opts or FitOptions()
    t, y = _check_series(series, 4)
    msgs = _span_warning(t)
    sw = _weights(weights, t.size)

    fixed_b = opts.fix_b
    if fixed_b is not None and not opts.b_bounds[0] <= fixed_b <= opts.b_bounds[1]:
        raise ParameterError("fix_b outside b bounds")

    tpos = t[t > 0]
    if opts.init is not None:
        a0, tau0 = opts.init[0], opts.init[1]
        b0 = opts.init[2] if len(opts.init) > 2 and fixed_b is None else 1.0
    else:
        a0 = (y.max() - y.min()) / math.log(tpos.max() / tpos.min())
        tau0 = tpos.min()
        b0 = 1.0

    lo = [opts.a_bounds[0], opts.log_tau_bounds[0]]
    hi = [opts.a_bounds[1], opts.log_tau_bounds[1]]
    x0 = [a0, math.log(max(tau0, 1e-300))]
    names = ["a", "tau_s"]
    if fixed_b is None:
        lo.append(opts.b_bounds[0])
        hi.append(opts.b_bounds[1])
        x0.append(b0)
        names.append("b")
    lo, hi = np.asarray(lo), np.asarray(hi)

    resid = partial(_single_log_resid, t=t, y=y, sw=sw, b_fixed=fixed_b)
    jac = partial(_single_log_jac, sw=sw, out=np.empty((t.size, len(x0))))
    x, r, J, rss, iters, stop = fitting._lm_minimize(resid, jac, x0, lo, hi, opts)

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


def reference_fit_two_log(series, opts: FitOptions | None = None, weights=None) -> FitResult:
    """Fit the two-channel model; channels are reported with tau_int >= tau_ext.

    Requires >= 6 points.  Near-degenerate solutions (timescales within a
    factor of 2) are flagged ``degenerate_timescales`` since the channel
    split is then practically unidentifiable.
    """
    opts = opts or FitOptions(model="two-log")
    t, y = _check_series(series, 6)
    msgs = _span_warning(t)
    sw = _weights(weights, t.size)

    tpos = t[t > 0]
    if opts.init is not None:
        ai0, ti0, ae0, te0 = opts.init
    else:
        a_total = (y.max() - y.min()) / math.log(tpos.max() / tpos.min())
        ai0 = ae0 = a_total / 2.0
        ti0 = tpos.max() / 10.0
        te0 = tpos.min()

    lo = np.asarray(
        [opts.a_bounds[0], opts.log_tau_bounds[0]] * 2
    )
    hi = np.asarray(
        [opts.a_bounds[1], opts.log_tau_bounds[1]] * 2
    )
    x0 = [ai0, math.log(max(ti0, 1e-300)), ae0, math.log(max(te0, 1e-300))]

    resid = partial(_two_log_resid, t=t, y=y, sw=sw)
    jac = partial(_two_log_jac, sw=sw, out=np.empty((t.size, 4)))
    x, r, J, rss, iters, stop = fitting._lm_minimize(resid, jac, x0, lo, hi, opts)

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
