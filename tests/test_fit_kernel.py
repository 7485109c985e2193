"""The fitting kernel and driver against the originals in ``reference_fit``,
the kernel's stop reasons, and the fit inputs the package refuses."""

import contextlib
import math
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jjaging import (
    AgingParams,
    AnnealEvent,
    ChipDataset,
    FitOptions,
    ParameterError,
    ValidationError,
    VoltageAnneal,
    chip_preset,
    draw_chip,
    eval_single_log,
    fit_chip,
    fit_single_log,
    fit_two_log,
    simulate_chip,
)
from jjaging import fitting
from jjaging.ensemble import ENV_LABELS
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


@contextlib.contextmanager
def fit_rules(**values):
    """Fits under other box and stopping constants, in the package and in
    ``reference_fit`` alike: ``fit_rules(A_BOUNDS=(0.0, 0.05),
    MAX_ITERATIONS=3)`` sets ``fitting._A_BOUNDS`` and
    ``reference_fit.A_BOUNDS``, and so on."""
    with contextlib.ExitStack() as stack:
        for name, value in values.items():
            stack.enter_context(mock.patch.object(fitting, f"_{name}", value))
            stack.enter_context(mock.patch.object(reference_fit, name, value))
        yield


def preset_chip(preset, seed):
    p = chip_preset(preset)
    return simulate_chip(draw_chip(p.spec, seed), p.schedule, [],
                         np.arange(0.0, 84 * DAY + 1.0, 2 * DAY), p.sim, seed)


def annealed_chip(seed):
    """chip2 to day 60 with a day-56 voltage anneal on junctions 0-7: the
    jump pins their single-log fits at a = 1, where they run to max_iter."""
    p = chip_preset("chip2")
    event = AnnealEvent(56 * DAY, VoltageAnneal(), junction_ids=tuple(range(8)))
    return simulate_chip(draw_chip(p.spec, seed), p.schedule, [event],
                         np.arange(0.0, 60 * DAY + 1.0, 2 * DAY), p.sim, seed)


@pytest.mark.parametrize("mode", sorted(FIT_MODES))
@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_fit_chip_equals_reference(preset, seed, mode):
    assert_chip_fit_equals_reference(preset_chip(preset, seed), mode)


@pytest.mark.parametrize("mode", sorted(FIT_MODES))
def test_fit_chip_equals_reference_across_an_anneal(mode):
    assert_chip_fit_equals_reference(annealed_chip(2), mode)


def assert_chip_fit_equals_reference(ds, mode):
    opts, share_b = FIT_MODES[mode]
    new = fit_chip(ds, opts, share_b=share_b)
    ref = on_reference(fit_chip, ds, opts, share_b=share_b)
    assert fields(new.average) == fields(ref.average)
    assert sorted(new.per_junction) == sorted(ref.per_junction)
    for j, res in new.per_junction.items():
        assert fields(res) == fields(ref.per_junction[j]), j
    assert (new.r0_ohm, new.average_r0_ohm, new.skipped) == (
        ref.r0_ohm, ref.average_r0_ohm, ref.skipped)


@pytest.mark.parametrize("chip", [f"{preset}-{seed}" for preset in PRESET_NAMES for seed in (2, 9)])
def test_separable_two_log_is_no_worse_than_the_four_parameter_fit(chip):
    """The old four-parameter two-log driver, from the same grid start, as a
    second oracle: every fit that converges under both ends at an rss no
    higher than the old one's, to 1e-6 relative."""
    preset, seed = chip.split("-")
    opts = FitOptions(model="two-log")
    _, calls = recorded_fit_chip(preset_chip(preset, int(seed)), opts, False)
    compared = 0
    for series, _, fit in calls:
        t, y = np.asarray(series).T
        start = fitting._two_log_start(t, y)
        old = reference_fit_two_log(series, replace(opts, init=start))
        if fit.converged and old.converged:
            assert fit.rss <= old.rss * (1 + 1e-6)
            compared += 1
    assert compared >= len(calls) // 2


def hand_built_chip(chip_id, r0, curves, t):
    """A glovebox chip whose junction k reads ``r0[k] * curves[k]`` at times ``t``."""
    n = len(r0) * t.size
    return ChipDataset(np.repeat(np.arange(len(r0)), t.size), np.tile(t, len(r0)),
                       (np.asarray(r0)[:, None] * np.asarray(curves)).ravel(),
                       [ENV_LABELS.index("glovebox")] * n, [0] * n, chip_id)


def deaging_chip():
    # Falling junctions: the chip-average single-log fit ends at a = 0.
    t = np.arange(0.0, 30 * DAY + 1.0, DAY)
    return hand_built_chip("deage", [22_000.0, 23_000.0, 24_000.0],
                           [1.0 - 0.001 * np.log1p(t / 1e4)] * 3, t)


def three_decade_chip():
    # Junction timescales from 1e3 s to 1e6 s, with 0.1% noise.
    t = np.concatenate([[0.0], np.geomspace(60.0, 84 * DAY, 48)])
    taus = np.geomspace(1e3, 1e6, 7)
    noise = 1.0 + 1e-3 * np.random.default_rng(4).standard_normal((taus.size, t.size))
    curves = (1.0 + 0.02 * np.log(t / taus[:, None] + 1.0)) * noise
    return hand_built_chip("decades", np.linspace(20_000.0, 26_000.0, taus.size), curves, t)


WARM_START_CHIPS = {
    **{f"{preset}-{seed}": partial(preset_chip, preset, seed)
       for preset in PRESET_NAMES for seed in (2, 9)},
    "deaging": deaging_chip,
    "three-decades": three_decade_chip,
}


def recorded_fit_chip(ds, opts, share_b):
    """``fit_chip``'s result and the (series, opts, result) of every fit it
    made through the public fit functions, in call order."""
    calls = []

    def recording(fn):
        def fit(series, opts=None):
            res = fn(series, opts)
            calls.append((series, opts, res))
            return res
        return fit

    with mock.patch.object(fitting, "fit_single_log", recording(fit_single_log)), \
            mock.patch.object(fitting, "fit_two_log", recording(fit_two_log)):
        res = fit_chip(ds, opts, share_b=share_b)
    return res, calls


@pytest.mark.parametrize("mode", sorted(FIT_MODES))
@pytest.mark.parametrize("chip", sorted(WARM_START_CHIPS))
def test_junction_fits_from_the_average_are_no_worse(chip, mode):
    """Single-log junction fits start from the chip-average fit: each ends
    with the same convergence and bounds as a fit from its own guess, an rss
    no higher (to 1e-9 relative), and no more iterations in all.  Two-log
    junction fits keep their own start."""
    ds = WARM_START_CHIPS[chip]()
    opts, share_b = FIT_MODES[mode]
    res, calls = recorded_fit_chip(ds, opts, share_b)
    assert calls[0][2] is res.average
    assert [c[2] for c in calls[1:]] == list(res.per_junction.values())
    avg = res.average.params
    if opts.model == "two-log":
        for series, per_opts, fit in calls[1:]:
            assert per_opts is opts
            assert fields(fit) == fields(fit_two_log(series))
        return
    own_opts = replace(opts, fix_b=avg.b) if share_b else opts
    iterations = own_iterations = 0
    for series, per_opts, fit in calls[1:]:
        assert per_opts == replace(own_opts, init=(avg.a, avg.tau_s, avg.b))
        own = reference_fit_single_log(series, own_opts)
        assert (fit.converged, fit.at_bounds) == (own.converged, own.at_bounds)
        assert fit.rss <= own.rss * (1 + 1e-9)
        iterations += fit.iterations
        own_iterations += own.iterations
    assert iterations <= own_iterations


def test_a_callers_init_starts_every_junction_fit():
    init = (0.1, 1e4, 1.0)
    res, calls = recorded_fit_chip(preset_chip("chip1", 2), FitOptions(init=init), False)
    assert [c[1].init for c in calls] == [init] * (1 + len(res.per_junction))


def test_reference_cases_cover_open_junctions_and_nonconvergence():
    assert np.isnan(preset_chip("chip6", 2).r_ohm).any()
    stops = set()
    for share_b in (False, True):
        res = fit_chip(annealed_chip(2), FitOptions(), share_b=share_b)
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
    kw = {"model": model}
    rules = {"A_BOUNDS": (0.0, draw(st.sampled_from([1.0, 0.5, 0.05]))),
             "MAX_ITERATIONS": draw(st.sampled_from([1, 3, 200]))}
    if model == "single-log" and draw(st.booleans()):
        kw["fix_b"] = draw(st.floats(0.1, 5.0))
    if draw(st.booleans()):
        amp, scale = st.floats(0.0, 0.5), st.floats(2.0, 7.0).map(lambda e: 10 ** e)
        if model == "single-log":
            kw["init"] = (draw(amp), draw(scale), draw(st.floats(0.1, 5.0)))
        else:
            kw["init"] = (draw(scale), draw(scale))
    return np.column_stack([t, y]), FitOptions(**kw), rules


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
    series, opts, rules = case
    with fit_rules(**rules):
        check_fit_equals_reference(series, opts)


def check_fit_equals_reference(series, opts):
    fn, reference_fn = FITS[opts.model]
    new, new_warnings = outcome(fn, series, opts)
    ref, _ = outcome(on_reference, fn, series, opts)
    assert text(new, fields) == text(ref, fields)
    # The separate per-model drivers that ``_fit`` replaced: every field,
    # stop_reason and stderr key order included, and the same warnings,
    # naming the same file.  The old two-log driver fits all four parameters
    # (test_separable_two_log_is_no_worse_than_the_four_parameter_fit), so
    # only its warnings are compared; it is handed the package's grid start.
    if opts.model == "two-log":
        t, y = reference_fit._check_series(series, 6)
        opts = replace(opts, init=fitting._two_log_start(t, y))
    old, old_warnings = outcome(reference_fn, series, opts)
    if opts.model == "single-log":
        assert text(new, repr) == text(old, repr)
    assert new_warnings == old_warnings


_J = np.random.default_rng(5).standard_normal((12, 4))


@pytest.mark.parametrize("J, nan", [
    (_J, ()),
    (_J * [1, 0, 1, 1], (1,)),
    (_J * [0, 1, 1, 0], (0, 3)),
    (np.zeros((12, 4)), (0, 1, 2, 3)),
    # Without its zero column the system is still singular.
    (np.column_stack([_J[:, 0], 2 * _J[:, 0], _J[:, 2], 0 * _J[:, 3]]), (0, 1, 2, 3)),
], ids=["full-rank", "one-zero-column", "two-zero-columns", "all-zero", "rank-deficient"])
def test_stderr_is_nan_only_for_zero_columns(J, nan):
    names = ("a_int", "tau_int_s", "a_ext", "tau_ext_s")
    x, lo, hi = np.full(4, 0.5), np.zeros(4), np.ones(4)
    stderr, _ = fitting._stderr_and_bounds(x, J, 0.3, 12, lo, hi, names)
    assert repr(stderr) == repr(reference_fit._stderr_and_bounds(x, J, 0.3, 12, lo, hi, names)[0])
    assert tuple(k for k, name in enumerate(names) if math.isnan(stderr[name])) == nan
    assert all(stderr[name] > 0 for k, name in enumerate(names) if k not in nan)


def test_model_evaluators_equal_reference():
    rng = np.random.default_rng(5)
    t = np.logspace(2, 7, 33)
    y = 1.0 + 0.2 * np.log(t / 1e4 + 1.0)
    ones = np.ones_like(t)   # the original models' unweighted square-root weights
    for _ in range(50):
        x3 = np.array([rng.uniform(0, 1), rng.uniform(4.6, 18.4), rng.uniform(1e-6, 10)])
        x4 = np.array([rng.uniform(0, 1), rng.uniform(4.6, 18.4),
                       rng.uniform(0, 1), rng.uniform(4.6, 18.4)])
        pairs = [
            (_single_log_rj(x3, t, y), reference_fit._single_log_rj(x3, t, y, ones)),
            (_single_log_rj(x3[:2], t, y, b_fixed=0.7),
             reference_fit._single_log_rj(x3[:2], t, y, ones, b_fixed=0.7)),
            (_two_log_rj(x4, t, y), reference_fit._two_log_rj(x4, t, y, ones)),
        ]
        for (r, J), (r_ref, J_ref) in pairs:
            assert r.tobytes() == r_ref.tobytes()
            assert J.shape == J_ref.shape and J.tobytes() == J_ref.tobytes()


def test_residuals_take_floats_or_an_ndarray():
    # The kernel passes each trial point as a list of Python floats; the
    # models give the same bytes for the ndarray of those floats, directly
    # and through _rj.
    rng = np.random.default_rng(11)
    t = np.concatenate([[0.0], np.logspace(2, 7, 32)])
    y = 1.0 + 0.2 * np.log(t / 1e4 + 1.0) * (1.0 + 1e-3 * rng.standard_normal(t.size))
    rows = [(m, kw) for m in fitting._MODELS.values()
            for kw in ([{}, {"b_fixed": 0.7}] if "b" in m.names else [{}])]
    for _ in range(30):
        for m, kw in rows:
            box = m.box()[:len(m.names) - len(kw)]
            xs = [rng.uniform(lo, hi) for lo, hi in box]
            outs = []
            for x in (xs, np.array(xs)):
                r, cache = m.resid(x, t, y, **kw)
                J = m.jac(cache, np.empty((t.size, len(xs))))
                outs.append((r.tobytes(), J.tobytes()))
                r, J = fitting._rj(m.resid, m.jac, x, t, y, **kw)
                outs.append((r.tobytes(), J.tobytes()))
            assert outs.count(outs[0]) == len(outs)


# --- the kernel's trial point in Python floats ---

def numpy_projection(xs, dxs, lo, hi):
    """The trial point as the kernel's array code made it, and whether it moved."""
    x = np.array(xs)
    x_trial = np.minimum(np.maximum(x + np.array(dxs), lo), hi)
    return x_trial.tolist(), bool(np.count_nonzero(x_trial - x))


def assert_projection_is_numpys(xs, dxs, lo, hi):
    trial, moved = fitting._project(xs, dxs, lo, hi)
    want, want_moved = numpy_projection(xs, dxs, lo, hi)
    assert moved is want_moved
    assert len(trial) == len(want)
    for v, w in zip(trial, want):
        assert type(v) is float
        # Equal values with equal signs (signed zeros), or both NaN.
        assert (math.isnan(v) and math.isnan(w)) or (
            v == w and math.copysign(1.0, v) == math.copysign(1.0, w)), (v, w)


LN_TAU = (math.log(1e2), math.log(1e8))
SINGLE_BOX = ([0.0, LN_TAU[0], 1e-6], [1.0, LN_TAU[1], 10.0])
ONE_ULP = math.nextafter(0.5, 1.0) - 0.5


@pytest.mark.parametrize("xs, dxs, lo, hi", [
    # ties at each bound, from inside and from outside the box
    ([0.5, 10.0, 5.0], [0.5, LN_TAU[1] - 10.0, -5.0 + 1e-6], *SINGLE_BOX),
    ([0.5, 10.0, 5.0], [-0.5, LN_TAU[0] - 10.0, 5.0], *SINGLE_BOX),
    ([0.0, LN_TAU[0], 1e-6], [-1.0, -3.0, -1.0], *SINGLE_BOX),
    ([1.0, LN_TAU[1], 10.0], [2.0, 3.0, 1.0], *SINGLE_BOX),
    # -0.0 and +0.0 against a 0.0 bound, below and above
    ([-0.0, 10.0], [-0.0, 0.0], [0.0, LN_TAU[0]], [1.0, LN_TAU[1]]),
    ([0.0, 10.0], [-0.0, 0.0], [0.0, LN_TAU[0]], [1.0, LN_TAU[1]]),
    ([-0.0, -0.0], [-0.0, 0.0], [-1.0, -1.0], [0.0, 0.0]),
    ([-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.0, 1.0]),
    ([-0.5, 0.5], [0.5, -0.5], [-0.0, -1.0], [1.0, -0.0]),
    # NaN and infinite steps
    ([0.5, 10.0, 5.0], [math.nan, 0.0, 0.0], *SINGLE_BOX),
    ([0.5, 10.0, 5.0], [math.inf, -math.inf, 0.0], *SINGLE_BOX),
    ([0.5, 10.0, 5.0], [-math.inf, math.inf, math.nan], *SINGLE_BOX),
    ([math.nan, 10.0, 5.0], [0.0, 0.0, 0.0], *SINGLE_BOX),
    # a move of one ulp, up and down, and none at all
    ([0.5, 10.0, 5.0], [ONE_ULP, 0.0, 0.0], *SINGLE_BOX),
    ([0.5, 10.0, 5.0], [0.0, 0.0, -math.ulp(5.0)], *SINGLE_BOX),
    ([0.5, 10.0, 5.0], [0.0, 0.0, -math.ulp(5.0) / 2], *SINGLE_BOX),
    ([0.5, 10.0, 5.0], [0.0, 0.0, 0.0], *SINGLE_BOX),
    ([0.5, 10.0], [-0.0, -0.0], [0.0, LN_TAU[0]], [1.0, LN_TAU[1]]),
    ([1.0, LN_TAU[1], 10.0], [1e-300, 5e-324, 0.0], *SINGLE_BOX),
], ids=["tie-upper", "tie-lower", "past-lower", "past-upper", "neg-zero-lower",
        "pos-zero-lower", "neg-zero-upper", "neg-zero-bound", "to-neg-zero-bound", "nan-step",
        "inf-steps", "inf-nan-steps", "nan-x", "one-ulp-up", "one-ulp-down", "half-ulp-rounds-back", "zero-step",
        "neg-zero-step", "clipped-to-x"])
def test_float_projection_is_numpys(xs, dxs, lo, hi):
    assert_projection_is_numpys(xs, dxs, lo, hi)


SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324])


@st.composite
def projection_cases(draw):
    p = draw(st.integers(1, 4))
    lo, hi, xs, dxs = [], [], [], []
    for _ in range(p):
        a, b = sorted(draw(st.lists(st.sampled_from([0.0, -0.0, 1e-6, 1.0, *LN_TAU]) |
                                    st.floats(-20.0, 20.0), min_size=2, max_size=2)))
        lo.append(a)
        hi.append(b)
        x = draw(st.sampled_from([a, b, math.nan]) | (st.floats(a, b) if a < b else st.nothing()))
        xs.append(x)
        step = draw(SPECIAL | st.floats(allow_nan=False, allow_infinity=False) |
                    st.sampled_from([a - x, b - x]) |
                    st.integers(-3, 3).map(lambda k: k * math.ulp(x if x == x else 1.0)))
        dxs.append(step)
    return xs, dxs, lo, hi


@settings(max_examples=400, deadline=None)
@given(case=projection_cases())
def test_float_projection_is_numpys_on_drawn_boxes(case):
    assert_projection_is_numpys(*case)


# --- stop reasons ---

T = np.logspace(3, 6.5, 25)
EXACT = np.column_stack([T, eval_single_log(AgingParams(a=0.3, tau_s=1e4, b=1.0), T)])
NOISY = np.column_stack(
    [T, EXACT[:, 1] * (1.0 + 2e-3 * np.random.default_rng(1).standard_normal(T.size))]
)


# ``opts``: the fit constants each case sets (``fit_rules``).
@pytest.mark.parametrize("opts, reason", [
    ({}, "step_tol"),
    ({"STEP_TOLERANCE": 1.0}, "step_tol"),
    ({"STEP_TOLERANCE": 1e-300, "RESIDUAL_TOLERANCE": 1e-2}, "rss_tol"),
    # The best a (0.3) lies outside the box: the fit ends pinned at the bound.
    ({"A_BOUNDS": (0.0, 0.05)}, "no_descent"),
    ({"MAX_ITERATIONS": 1}, "max_iter"),
])
def test_stop_reason_names_the_exit(opts, reason):
    series = NOISY if reason == "rss_tol" else EXACT
    with fit_rules(**opts):
        res = fit_single_log(series)
        assert fields(res) == fields(on_reference(fit_single_log, series))
    assert res.stop_reason == reason
    assert res.converged == (reason != "max_iter")
    if reason == "no_descent":
        assert "a" in res.at_bounds and res.params.a == 0.05
    if reason == "max_iter":
        assert res.iterations == 1


# Data whose timescale the window cannot resolve: the fit ends on the lower
# ln tau bound (100 s), with -g pointing out of the box.  The projection-only
# kernel kept solving for the step the box threw away and ran to
# max_iterations, ending at these rss.  In the third, a drift linear over the
# window pins tau_int on its upper bound (1e8 s), as in the chip-average
# two-log fits of some chip2 data; the four-parameter two-log fit took 87
# iterations to the rss given.
DAYS = np.arange(0.0, 85 * DAY, 2 * DAY)
PINNED = [
    (fit_single_log, 1 + 0.05 * np.log(DAYS / 30 + 0.5), "tau_s", 100.0, 1.0772821666491452e-3),
    (fit_two_log, 1 + 0.1 * np.log1p(DAYS / 3e5) + 0.05 * np.log1p(DAYS / 20), "tau_ext_s",
     100.0, 1.8052801534224477e-6),
    (fit_two_log, 1 + 0.05 * np.log1p(DAYS / 3e4) + 1e-9 * DAYS, "tau_int_s",
     1e8, 3.37667358166483e-09),
]


@pytest.mark.parametrize("fn, y, held, bound, projected_rss", PINNED,
                         ids=["single-log", "two-log", "two-log-upper"])
def test_a_timescale_on_its_bound_is_held(fn, y, held, bound, projected_rss):
    res = fn(np.column_stack([DAYS, y]))
    assert fields(res) == fields(on_reference(fn, np.column_stack([DAYS, y])))
    assert res.converged and res.iterations <= 20
    assert held in res.at_bounds and getattr(res.params, held) == pytest.approx(bound)
    assert res.rss <= projected_rss


def test_two_log_stop_reason():
    res = fit_two_log(NOISY)
    assert res.stop_reason in ("step_tol", "rss_tol", "no_descent") and res.converged
    with fit_rules(MAX_ITERATIONS=2):
        res = fit_two_log(NOISY)
        assert fields(res) == fields(on_reference(fit_two_log, NOISY))
    assert (res.stop_reason, res.converged, res.iterations) == ("max_iter", False, 2)


# --- refused inputs ---

@pytest.mark.parametrize("kw", [
    {"init": (math.nan, 1e4)}, {"init": (0.1, math.inf)}, {"init": (0.1, 1e4, -math.inf)},
    {"init": (0.1, 1e4, math.nan)}, {"init": (math.inf,)},
    {"model": "two-log", "init": (math.nan, 1e3)}, {"model": "two-log", "init": (1e4, math.inf)},
])
def test_fit_options_reject_bad_numbers(kw):
    with pytest.raises(ValidationError, match="init values must be finite"):
        FitOptions(**kw)


@pytest.mark.parametrize("fn, init", [
    (fit_single_log, ()),
    (fit_single_log, (0.1,)),
    (fit_single_log, (0.1, 1e4, 1.0, 0.5)),
    (fit_two_log, (1e4,)),
    (fit_two_log, (1e4, 1e3, 0.1)),
    (fit_two_log, (0.1, 1e4, 0.1, 1e3)),
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


def test_fit_chip_refuses_share_b_for_two_log():
    p = chip_preset("chip1")
    ds = simulate_chip(draw_chip(p.spec, 1), p.schedule, [],
                       np.arange(0.0, 56 * DAY + 1.0, 2 * DAY), p.sim, 1)
    with pytest.raises(ValidationError, match="share_b"):
        fit_chip(ds, FitOptions(model="two-log"), share_b=True)
