"""Reference stepper: the explicit fixed-step integrator, kept as a test oracle.

The trajectory engine maps a whole segment by the exact solution of the
relaxation equation, ``jjaging.trajectory._segment``.  This module keeps the
forward-Euler loop that the package once used, so that tests can check the
exact map against it within the loop's first-order error; it shares no code
with the package.
"""

import math


def _bound_y(a: float, tau: float, b: float, t: float) -> float:
    return a * math.log(t / tau + b)


def reference_advance(
    y_env: float,
    t_a: float,
    t_b: float,
    a: float,
    tau: float,
    b: float,
    relax_s: float,
    dt_s: float,
) -> float:
    """March y_env from t_a to t_b under one environment.

    The bound-curve increment is applied exactly per substep; the pull
    toward the bound uses forward Euler.  Substeps never exceed dt_s.
    """
    span = t_b - t_a
    if span <= 0:
        return y_env
    n = max(1, math.ceil(span / dt_s - 1e-12))
    h = span / n
    t = t_a
    yb_lo = _bound_y(a, tau, b, t)
    for _ in range(n):
        t_next = t + h
        yb_hi = _bound_y(a, tau, b, t_next)
        y_env = y_env + (yb_hi - yb_lo) + h * (yb_lo - y_env) / relax_s
        t, yb_lo = t_next, yb_hi
    return y_env
