"""Reference fitting kernel: the original residual+Jacobian models and
Levenberg-Marquardt loop, kept as a test oracle.

``jjaging.fitting`` splits each model into a residual pass and a Jacobian
pass (the Jacobian is built only for accepted steps) and trims the numpy
calls of each trial.  This module keeps the original versions, which build
residuals and Jacobian together on every trial, so that tests can require
equal fits from the two.  ``reference_lm_minimize`` has the package kernel's
signature: patched over ``jjaging.fitting._lm_minimize``, it runs a whole
``fit_single_log``/``fit_two_log``/``fit_chip`` on the original code.
"""

import math

import numpy as np

from jjaging import fitting


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
