"""The fitting kernel and driver against the originals in ``reference_fit``,
the kernel's stop reasons, and the fit inputs the package refuses."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jjaging import (
    AgingParams,
    FitOptions,
    ParameterError,
    ValidationError,
    chip_preset,
    draw_chip,
    eval_single_log,
    fit_chip,
    fit_single_log,
    fit_two_log,
    simulate_chip,
)
from jjaging import fitting
from jjaging.fitting import _single_log_rj, _two_log_rj
from jjaging.presets import PRESET_NAMES

import reference_fit
from reference_fit import (
    reference_fit_single_log,
    reference_fit_two_log,
    reference_lm_minimize,
)

DAY = 86400.0
FIT_MODES = {
    "single-log": (FitOptions(), False),
    "shared-b": (FitOptions(), True),
    "two-log": (FitOptions(model="two-log"), False),
}
# Every FitResult field the original kernel determines (stop_reason is new).
FIELDS = ("params", "stderr", "rss", "converged", "n_points", "iterations",
          "at_bounds", "messages", "degenerate_timescales")


def fields(res):
    # repr compares every float exactly, signed zeros included, and treats
    # nan standard errors as equal.
    return repr(tuple(getattr(res, name) for name in FIELDS))


def on_reference(fn, *args, **kwargs):
    with mock.patch.object(fitting, "_lm_minimize", reference_lm_minimize):
        return fn(*args, **kwargs)


@pytest.mark.parametrize("mode", sorted(FIT_MODES))
@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_fit_chip_equals_reference(preset, seed, mode):
    p = chip_preset(preset)
    ds = simulate_chip(draw_chip(p.spec, seed), p.schedule, [],
                       np.arange(0.0, 84 * DAY + 1.0, 2 * DAY), p.sim, seed)
    opts, share_b = FIT_MODES[mode]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = fit_chip(ds, opts, share_b=share_b)
        ref = on_reference(fit_chip, ds, opts, share_b=share_b)
    assert fields(new.average) == fields(ref.average)
    assert sorted(new.per_junction) == sorted(ref.per_junction)
    for j, res in new.per_junction.items():
        assert fields(res) == fields(ref.per_junction[j]), j
    assert (new.r0_ohm, new.average_r0_ohm, new.skipped) == (
        ref.r0_ohm, ref.average_r0_ohm, ref.skipped)


def test_reference_cases_cover_open_junctions_and_nonconvergence():
    p = chip_preset("chip6")
    ds = simulate_chip(draw_chip(p.spec, 2), p.schedule, [],
                       np.arange(0.0, 84 * DAY + 1.0, 2 * DAY), p.sim, 2)
    assert np.isnan(ds.r_ohm).any()
    stops = set()
    for preset in PRESET_NAMES:
        p = chip_preset(preset)
        ds = simulate_chip(draw_chip(p.spec, 9), p.schedule, [],
                           np.arange(0.0, 84 * DAY + 1.0, 2 * DAY), p.sim, 9)
        res = fit_chip(ds, FitOptions(model="two-log"))
        stops |= {r.stop_reason for r in res.per_junction.values()}
    assert "max_iter" in stops and len(stops) >= 2


@st.composite
def fit_cases(draw):
    model = draw(st.sampled_from(["single-log", "two-log"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 40))
    t_lo = draw(st.floats(10.0, 1e4))
    t = np.geomspace(t_lo, t_lo * 10 ** draw(st.floats(0.5, 4.5)), n)
    if draw(st.booleans()):
        t[0] = 0.0
    if model == "single-log":
        a, tau, b = draw(st.floats(0.0, 0.6)), 10 ** draw(st.floats(2.0, 7.0)), draw(
            st.floats(0.05, 5.0))
        y = 1.0 + a * np.log(t / tau + b)
    else:
        ai, ae = draw(st.floats(0.0, 0.4)), draw(st.floats(0.0, 0.4))
        ti, te = 10 ** draw(st.floats(2.0, 7.0)), 10 ** draw(st.floats(2.0, 7.0))
        y = 1.0 + ai * np.log1p(t / ti) + ae * np.log1p(t / te)
    y = y * (1.0 + draw(st.sampled_from([0.0, 1e-3, 2e-2])) * rng.standard_normal(n))
    weights = rng.uniform(0.1, 10.0, n) if draw(st.booleans()) else None
    kw = {
        "model": model,
        "a_bounds": (0.0, draw(st.sampled_from([1.0, 0.5, 0.05]))),
        "max_iterations": draw(st.sampled_from([1, 3, 200])),
    }
    if model == "single-log" and draw(st.booleans()):
        kw["fix_b"] = draw(st.floats(0.1, 5.0))
    if draw(st.booleans()):
        amp, scale = st.floats(0.0, 0.5), st.floats(2.0, 7.0).map(lambda e: 10 ** e)
        if model == "single-log":
            kw["init"] = (draw(amp), draw(scale), draw(st.floats(0.1, 5.0)))
        else:
            kw["init"] = (draw(amp), draw(scale), draw(amp), draw(scale))
    return np.column_stack([t, y]), FitOptions(**kw), weights


FITS = {
    "single-log": (fit_single_log, reference_fit_single_log),
    "two-log": (fit_two_log, reference_fit_two_log),
}


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the name of the exception it raised, and the
    (category, text, file) of each warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = fn(*args, **kwargs)
        except Exception as exc:  # the reference must fail the same way
            res = type(exc).__name__
    return res, [(w.category, str(w.message), w.filename) for w in caught]


def text(res, how):
    return res if isinstance(res, str) else how(res)


@settings(max_examples=150, deadline=None)
@given(case=fit_cases())
def test_fits_equal_reference(case):
    series, opts, weights = case
    fn, reference_fn = FITS[opts.model]
    new, new_warnings = outcome(fn, series, opts, weights=weights)
    ref, _ = outcome(on_reference, fn, series, opts, weights=weights)
    assert text(new, fields) == text(ref, fields)
    # The separate per-model drivers that ``_fit`` replaced: every field,
    # stop_reason and stderr key order included, and the same warnings,
    # naming the same file.
    old, old_warnings = outcome(reference_fn, series, opts, weights=weights)
    assert text(new, repr) == text(old, repr)
    assert new_warnings == old_warnings


def test_model_evaluators_equal_reference():
    rng = np.random.default_rng(5)
    t = np.logspace(2, 7, 33)
    y = 1.0 + 0.2 * np.log(t / 1e4 + 1.0)
    w = rng.uniform(0.1, 10.0, t.size)
    for _ in range(50):
        x3 = np.array([rng.uniform(0, 1), rng.uniform(4.6, 18.4), rng.uniform(1e-6, 10)])
        x4 = np.array([rng.uniform(0, 1), rng.uniform(4.6, 18.4),
                       rng.uniform(0, 1), rng.uniform(4.6, 18.4)])
        for sw, ref_sw in ((None, np.ones_like(t)), (np.sqrt(w), np.sqrt(w))):
            pairs = [
                (_single_log_rj(x3, t, y, sw), reference_fit._single_log_rj(x3, t, y, ref_sw)),
                (_single_log_rj(x3[:2], t, y, sw, b_fixed=0.7),
                 reference_fit._single_log_rj(x3[:2], t, y, ref_sw, b_fixed=0.7)),
                (_two_log_rj(x4, t, y, sw), reference_fit._two_log_rj(x4, t, y, ref_sw)),
            ]
            for (r, J), (r_ref, J_ref) in pairs:
                assert r.tobytes() == r_ref.tobytes()
                assert J.shape == J_ref.shape and J.tobytes() == J_ref.tobytes()


# --- stop reasons ---

T = np.logspace(3, 6.5, 25)
EXACT = np.column_stack([T, eval_single_log(AgingParams(a=0.3, tau_s=1e4, b=1.0), T)])
NOISY = np.column_stack(
    [T, EXACT[:, 1] * (1.0 + 2e-3 * np.random.default_rng(1).standard_normal(T.size))]
)


@pytest.mark.parametrize("opts, reason", [
    (FitOptions(), "step_tol"),
    (FitOptions(step_tolerance=1.0), "step_tol"),
    (FitOptions(step_tolerance=1e-300, residual_tolerance=1e-2), "rss_tol"),
    # The best a (0.3) lies outside the box: the fit ends pinned at the bound.
    (FitOptions(a_bounds=(0.0, 0.05)), "no_descent"),
    (FitOptions(max_iterations=1), "max_iter"),
])
def test_stop_reason_names_the_exit(opts, reason):
    res = fit_single_log(NOISY if reason == "rss_tol" else EXACT, opts)
    assert res.stop_reason == reason
    assert res.converged == (reason != "max_iter")
    if reason == "no_descent":
        assert "a" in res.at_bounds and res.params.a == 0.05
    if reason == "max_iter":
        assert res.iterations == 1


def test_two_log_stop_reason():
    res = fit_two_log(NOISY)
    assert res.stop_reason in ("step_tol", "rss_tol", "no_descent") and res.converged
    res = fit_two_log(NOISY, FitOptions(model="two-log", max_iterations=2))
    assert (res.stop_reason, res.converged, res.iterations) == ("max_iter", False, 2)


# --- refused inputs ---

@pytest.mark.parametrize("kw", [
    {"step_tolerance": math.nan}, {"residual_tolerance": math.nan},
    {"step_tolerance": math.inf}, {"residual_tolerance": -1.0},
    {"max_iterations": 2.5}, {"max_iterations": True}, {"max_iterations": 0},
])
def test_fit_options_reject_bad_numbers(kw):
    with pytest.raises(ValidationError):
        FitOptions(**kw)


@pytest.mark.parametrize("fn, init", [
    (fit_single_log, ()),
    (fit_single_log, (0.1,)),
    (fit_single_log, (0.1, 1e4, 1.0, 0.5)),
    (fit_two_log, (0.1, 1e4)),
    (fit_two_log, (0.1, 1e4, 0.1)),
    (fit_two_log, (0.1, 1e4, 0.1, 1e3, 1.0)),
])
def test_init_length_must_fit_the_model(fn, init):
    with pytest.raises(ValidationError, match="init takes"):
        fn(EXACT, FitOptions(init=init))


def test_fix_b_is_refused_by_a_model_without_b():
    with pytest.raises(ValidationError, match="fix_b"):
        FitOptions(model="two-log", fix_b=1.0)
    with pytest.raises(ValidationError, match="fix_b"):
        fit_two_log(EXACT, FitOptions(fix_b=1.0))
    with pytest.raises(ParameterError, match="fix_b outside b bounds"):
        fit_single_log(EXACT, FitOptions(fix_b=20.0))


def test_fit_options_accept_numpy_integer_iterations():
    assert fit_single_log(EXACT, FitOptions(max_iterations=np.int64(3))).iterations <= 3


@pytest.mark.parametrize("r0", [-100.0, 0.0, math.nan, math.inf])
def test_fit_chip_rejects_bad_r0_override(r0):
    p = chip_preset("chip1")
    ds = simulate_chip(draw_chip(p.spec, 1), p.schedule, [],
                       np.arange(0.0, 56 * DAY + 1.0, 2 * DAY), p.sim, 1)
    with pytest.raises(ValidationError, match="r0_override"):
        fit_chip(ds, r0_override={0: r0})
    assert fit_chip(ds, r0_override={0: float(ds.r_ohm[0])}).per_junction[0].converged


def test_fit_chip_refuses_share_b_for_two_log():
    p = chip_preset("chip1")
    ds = simulate_chip(draw_chip(p.spec, 1), p.schedule, [],
                       np.arange(0.0, 56 * DAY + 1.0, 2 * DAY), p.sim, 1)
    with pytest.raises(ValidationError, match="share_b"):
        fit_chip(ds, FitOptions(model="two-log"), share_b=True)
