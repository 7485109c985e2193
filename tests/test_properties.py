"""Property-based checks on model invariants and fitter consistency."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jjaging import (
    AgingParams,
    ChipDataset,
    ChipSpec,
    ParameterError,
    TwoLogParams,
    aggregate_series,
    critical_current_from_resistance,
    draw_chip,
    effective_tau,
    eval_single_log,
    eval_two_log,
    fit_single_log,
    qubit_frequency_shift,
)
from jjaging.ensemble import FLAGS
from jjaging.trajectory import _segment
from reference_stepper import reference_advance

amps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)
pos_amps = st.floats(min_value=1e-3, max_value=1.0)
taus = st.floats(min_value=1e2, max_value=1e8)
offsets = st.floats(min_value=1e-3, max_value=10.0)
times = st.floats(min_value=0.0, max_value=1e8)


@example(a=0.001, tau=100.0, b=0.001, t1=70.0, t2=math.nextafter(70.0, math.inf))
@given(a=pos_amps, tau=taus, b=offsets, t1=times, t2=times)
def test_single_log_strictly_increasing(a, tau, b, t1, t2):
    p = AgingParams(a=a, tau_s=tau, b=b)
    lo, hi = sorted((t1, t2))
    v_lo, v_hi = eval_single_log(p, lo), eval_single_log(p, hi)
    assert v_hi >= v_lo
    # Strictly larger only where the increment a (ln u_hi - ln u_lo) exceeds
    # what rounding can hide: per value up to an ulp of the log and half an
    # ulp each of the product (a <= 1) and of the sum 1 + a ln u.
    ln_lo, ln_hi = math.log(lo / tau + b), math.log(hi / tau + b)
    resolution = 4 * max(math.ulp(v_lo), math.ulp(v_hi), math.ulp(ln_lo), math.ulp(ln_hi))
    if a * (ln_hi - ln_lo) > resolution:
        assert v_hi > v_lo


@given(tau=taus, b=offsets, t=times)
def test_single_log_constant_for_zero_amplitude(tau, b, t):
    p = AgingParams(a=0.0, tau_s=tau, b=b)
    assert eval_single_log(p, t) == eval_single_log(p, 0.0)


@given(a=pos_amps, tau=taus, t=times)
def test_two_log_degenerates_to_single_log(a, tau, t):
    two = TwoLogParams(a_int=a, tau_int_s=tau, a_ext=0.0, tau_ext_s=1e3)
    one = AgingParams(a=a, tau_s=tau, b=1.0)
    assert eval_two_log(two, t) == pytest.approx(eval_single_log(one, t), rel=1e-12)


@given(ai=amps, ae=amps, ti=taus, te=taus)
def test_effective_tau_between_channel_timescales(ai, ae, ti, te):
    if ai + ae == 0:
        return
    p = TwoLogParams(a_int=ai, tau_int_s=ti, a_ext=ae, tau_ext_s=te)
    teff = effective_tau(p)
    lo, hi = sorted((ti, te))
    assert lo * (1 - 1e-9) <= teff <= hi * (1 + 1e-9)


@given(r=st.floats(min_value=10.0, max_value=1e6))
def test_critical_current_product_constant(r):
    assert critical_current_from_resistance(r) * r == pytest.approx(
        critical_current_from_resistance(1e4) * 1e4, rel=1e-12
    )


@given(x=st.floats(min_value=-0.9, max_value=10.0))
def test_frequency_shift_sign_opposes_resistance_change(x):
    shift = qubit_frequency_shift(x)
    if x > 1e-12:
        assert shift < 0
    elif x < -1e-12:
        assert shift > 0
    else:
        assert abs(shift) < 1e-11


def one_time_chip(values, flags=None):
    """A dataset of one row per junction, all at t = 0."""
    flags = [0] * len(values) if flags is None else flags
    n = len(values)
    return ChipDataset(range(n), [0.0] * n, values, env=[0] * n, flag=flags, chip_id="c")


@given(
    values=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=30),
)
def test_aggregate_cv_nonnegative_and_scale_invariant(values):
    [(_, _, cv, n)] = aggregate_series(one_time_chip(values))
    assert cv >= 0 and n == len(values)
    [(_, _, scaled, _)] = aggregate_series(one_time_chip([7.5 * v for v in values]))
    assert scaled == pytest.approx(cv, rel=1e-9, abs=1e-12)


@given(
    values=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=15),
    excluded=st.lists(st.floats(min_value=1.0, max_value=1e6), max_size=5),
    n_open=st.integers(0, 5),
)
def test_aggregate_cv_ignores_open_and_excluded_rows(values, excluded, n_open):
    flags = [0] * len(values) + [FLAGS.index("excluded")] * len(excluded) \
        + [FLAGS.index("open")] * n_open
    padded = one_time_chip(list(values) + list(excluded) + [math.nan] * n_open, flags)
    assert aggregate_series(padded) == aggregate_series(one_time_chip(values))


# ChipSpec takes any finite ln tau spread; a drawn ln tau above ln(max
# float) used to escape from math.exp as an OverflowError.
@example(log_tau_mean=math.log(1.2e4), log_tau_sd=1000.0, seed=1)
@example(log_tau_mean=800.0, log_tau_sd=0.0, seed=1)
@settings(max_examples=50, deadline=None)
@given(log_tau_mean=st.floats(800.0, 1e300), log_tau_sd=st.floats(0.0, 10.0),
       seed=st.integers(0, 2**64))
def test_drawn_tau_that_overflows_is_a_parameter_error(log_tau_mean, log_tau_sd, seed):
    spec = ChipSpec(r0_mean_ohm=20_000.0, r0_cv=0.05, a_mean=0.2, log_tau_mean=log_tau_mean,
                    log_tau_sd=log_tau_sd)
    with pytest.raises(ParameterError, match=r"drawn tau_s = exp\(.+\) s overflows a float"):
        draw_chip(spec, seed)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=0.5),
    log_tau=st.floats(min_value=math.log(1e3), max_value=math.log(1e6)),
    b=st.floats(min_value=0.5, max_value=2.0),
)
def test_fit_round_trip_inside_bounds(a, log_tau, b):
    # Noiseless generator anywhere inside the box comes back with tau > 0
    # and a faithful curve.
    p = AgingParams(a=a, tau_s=math.exp(log_tau), b=b)
    t = np.logspace(2.5, 7, 30)
    series = np.column_stack([t, eval_single_log(p, t)])
    res = fit_single_log(series)
    assert res.params.tau_s > 0
    fit_curve = eval_single_log(res.params, t)
    np.testing.assert_allclose(fit_curve, series[:, 1], atol=5e-4)


@settings(max_examples=15, deadline=None)
@given(
    y0=st.floats(min_value=0.0, max_value=1.0),
    y1=st.floats(min_value=0.0, max_value=1.0),
    steps=st.integers(min_value=1, max_value=40),
)
def test_relaxation_contracts_state_pairs(y0, y1, steps):
    # Two states mapped through the same ambient segments never move apart.
    a, tau = 0.21, 1.2e4
    dt, relax = 600.0, 3 * 86400.0
    t = 5 * 86400.0
    gap = abs(y1 - y0)
    for _ in range(steps):
        y0 = _segment(y0, t, t + dt, a, tau, 1.0, relax)
        y1 = _segment(y1, t, t + dt, a, tau, 1.0, relax)
        t += dt
        new_gap = abs(y1 - y0)
        assert new_gap <= gap + 1e-15
        gap = new_gap


@settings(max_examples=60, deadline=None)
@given(
    y0=st.floats(min_value=-0.5, max_value=1.5),
    a=st.floats(min_value=0.0, max_value=0.5),
    tau=st.floats(min_value=1e3, max_value=1e6),
    b=st.floats(min_value=0.5, max_value=2.0),
    tau_scale=st.floats(min_value=0.5, max_value=2.0),
    t_a=st.floats(min_value=0.0, max_value=30 * 86400.0),
    span=st.floats(min_value=0.0, max_value=60 * 86400.0),
    dt=st.floats(min_value=60.0, max_value=3600.0),
    relax_steps=st.floats(min_value=1.0, max_value=1e4),
)
def test_propagate_matches_reference_stepper(y0, a, tau, b, tau_scale, t_a, span, dt,
                                             relax_steps):
    # The exact segment map against the forward-Euler loop it replaced: per
    # segment the Euler gap factor (1 - x)^n, x = h/T <= 1, trails exp(-n x)
    # by at most x/2, so the two differ by no more than |gap0| * dt / relax.
    relax = dt * relax_steps
    got = _segment(y0, t_a, t_a + span, a, tau * tau_scale, b, relax)
    want = reference_advance(y0, t_a, t_a + span, a, tau * tau_scale, b, relax, dt)
    gap0 = y0 - a * math.log(t_a / (tau * tau_scale) + b)
    assert abs(got - want) <= abs(gap0) * dt / relax + 1e-11


@pytest.mark.parametrize("span_days, relax_days", [(1.0, 3.0), (2.0, 0.5), (10.0, 3.0)])
def test_reference_stepper_error_is_first_order(span_days, relax_days):
    # Halving the stepper's dt about halves its distance to the exact map.
    a, tau, b, t_a = 0.21, 1.2e4, 1.0, 5 * 86400.0
    relax, t_b = relax_days * 86400.0, t_a + span_days * 86400.0
    y0 = a * math.log(t_a / tau + b) + 0.1
    exact = _segment(y0, t_a, t_b, a, tau, b, relax)
    d600, d300 = (abs(exact - reference_advance(y0, t_a, t_b, a, tau, b, relax, dt))
                  for dt in (600.0, 300.0))
    assert d300 / d600 == pytest.approx(0.5, rel=0.01)


@settings(max_examples=100, deadline=None)
@given(
    y0=st.floats(min_value=-0.5, max_value=1.5),
    a=st.floats(min_value=0.0, max_value=0.5),
    tau=st.floats(min_value=1e3, max_value=1e6),
    b=st.floats(min_value=0.5, max_value=2.0),
    t_a=st.floats(min_value=0.0, max_value=30 * 86400.0),
    span=st.floats(min_value=0.0, max_value=60 * 86400.0),
    split=st.floats(min_value=0.0, max_value=1.0),
    relax=st.floats(min_value=1.0, max_value=1e7),
)
def test_propagate_composes_exactly(y0, a, tau, b, t_a, span, split, relax):
    # t_a -> t_m -> t_b lands where t_a -> t_b does, wherever t_m falls.
    t_b = t_a + span
    t_m = min(t_a + split * span, t_b)
    direct = _segment(y0, t_a, t_b, a, tau, b, relax)
    two = _segment(_segment(y0, t_a, t_m, a, tau, b, relax), t_m, t_b, a, tau, b, relax)
    assert 1.0 + two == pytest.approx(1.0 + direct, rel=1e-12)
