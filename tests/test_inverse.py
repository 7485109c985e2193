"""Acceptance in reverse: the fit reads the source paper's findings back
from simulated data (ROADMAP item 24).

``tests/test_acceptance.py`` checks that the simulator reproduces the
paper's patterns; this module checks that fitting recovers them.  Each
claim is one test:

1. Fabrication sets the amplitude: chips of one fabrication, each stored
   in one environment, give the same average-curve amplitude in ambient
   air, the nitrogen glovebox and high vacuum.
2. Storage sets the speed: each junction's timescale reads back, so the
   order ambient < glovebox < vacuum does too.
3. The speed changes at a swap (strict xfail, ROADMAP item 23).
4. The thermal table reads back (strict xfail, ROADMAP item 22).
5. No anneal takes a junction below R0: ``anneal`` reports the smallest
   R/R0 at or above 1 with the floor, and below 1 without it.
6. ``anneal`` agrees with ``simulate``: its first step's mean change is the
   one ``simulate_chip`` gives through the same events.  This is the first
   half of the claim; its second, equal records, waits on ROADMAP item 26b.

The fabrication: 16 junctions with a 0.15 +- 0.015, b 1 +- 0.05, a spread
of 0.3 in ln tau around the environment's configured timescale, r0 22.8
kOhm +- 5% and measurement noise 0.003, sampled daily for 14, 28 and 56
days, seeds 1-8, one independent chip per environment and seed.  The
single-log curve 1 + a ln(t/tau + b), divided by its value at t = 0, is
1 + a' ln(t/s + 1) with s = b tau, which is the timescale that reads back.
Each tolerance is set from the spread measured over those 72 chips, with
the margin stated beside it.  Claims 5 and 6 run each preset's own chip to
day 56, sampled every 2 days, and then ``anneal --preset``.
"""

import contextlib
import functools
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from jjaging import (
    AMBIENT,
    DAY_S,
    GLOVEBOX,
    VACUUM,
    ChipSpec,
    SimConfig,
    StorageSchedule,
    chip_preset,
    cli,
    draw_chip,
    fit_chip,
    load_events,
    save_measurements,
    simulate_chip,
)
from jjaging.ensemble import FLAG_OK
from jjaging.presets import PRESET_NAMES
from jjaging.trajectory import DEFAULT_ENV_TAU_S

ENVS = (AMBIENT, GLOVEBOX, VACUUM)   # slowest aging last
SEEDS = range(1, 9)
WINDOWS_DAYS = (14, 28, 56)
A_MEAN = 0.15


def fabrication(env):
    return ChipSpec(r0_mean_ohm=22_800.0, r0_cv=0.05, a_mean=A_MEAN, a_sd=0.015,
                    log_tau_mean=math.log(DEFAULT_ENV_TAU_S[env]), log_tau_sd=0.3,
                    b_mean=1.0, b_sd=0.05, n_junctions=16, noise_sigma=0.003)


@functools.cache
def stored_chip(env, seed, days):
    """(drawn chip, its fit) for one chip stored ``days`` in ``env``."""
    s = 10 * seed + ENVS.index(env)
    chip = draw_chip(fabrication(env), s)
    samples = np.arange(0.0, days * DAY_S + 1.0, DAY_S)
    ds = simulate_chip(chip, StorageSchedule.single(env), [], samples, SimConfig(), s)
    res = fit_chip(ds)
    assert res.average.converged and not res.skipped
    assert all(r.converged for r in res.per_junction.values())
    return chip, res


def ln_s(params):
    return math.log(params.b * params.tau_s)


@pytest.mark.parametrize("days", WINDOWS_DAYS)
def test_claim1_fabrication_sets_the_amplitude(days):
    for env in ENVS:
        for seed in SEEDS:
            chip, res = stored_chip(env, seed, days)
            a = np.array([p.a for p, _ in chip.junctions])
            r0 = np.array([p.r0_ohm for p, _ in chip.junctions])
            a_avg = res.average.params.a
            # Measured over seeds 1-8: |a_avg - 0.15| <= 0.0078 (a chip's
            # 16 draws scatter its mean by about 0.004); the tolerance is
            # 1.5x that.
            assert abs(a_avg - A_MEAN) <= 0.012, (env, seed, a_avg)
            # The average curve reads its junctions' r0-weighted mean a:
            # measured |difference| <= 0.0020; tolerance 2x.
            assert abs(a_avg - (a * r0).sum() / r0.sum()) <= 0.004, (env, seed, a_avg)
            # Each junction's own a: the median relative error is
            # 0.3-1.7%; tolerance 3%.
            errors = [res.per_junction[j].params.a / p.a - 1.0
                      for j, (p, _) in enumerate(chip.junctions)]
            assert np.median(np.abs(errors)) <= 0.03, (env, seed)


@pytest.mark.parametrize("days", WINDOWS_DAYS)
def test_claim2_storage_sets_the_speed(days):
    for seed in SEEDS:
        medians = []
        for env in ENVS:
            chip, res = stored_chip(env, seed, days)
            fitted = [ln_s(res.per_junction[j].params) for j in range(len(chip.junctions))]
            errors = [f - ln_s(p) for f, (p, _) in zip(fitted, chip.junctions)]
            # The median ln s error per chip is -0.034 to +0.040, and its
            # interquartile range 0.023-0.126; tolerances 0.06 and 0.2.
            assert abs(np.median(errors)) <= 0.06, (env, seed)
            q1, q3 = np.percentile(errors, [25, 75])
            assert q3 - q1 <= 0.2, (env, seed)
            medians.append(np.median(fitted))
        # The configured ln tau gaps are 1.28 (ambient to glovebox) and 0.47
        # (glovebox to vacuum); the chips' median ln s keep the order, with
        # at least 0.25 between neighbours at every seed and window.
        assert medians == sorted(medians) and min(np.diff(medians)) >= 0.1, (seed, medians)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def simulate_and_fit_with_schedule(tmp_path, preset, schedule_text, days, sample_days):
    """Simulate ``preset`` through ``schedule_text`` and fit it knowing the
    schedule; returns the report."""
    schedule, data, report = (tmp_path / n for n in ("s.txt", "d.csv", "r.json"))
    schedule.write_text(schedule_text)
    code, err = run_cli("simulate", "--preset", preset, "--schedule", schedule, "--target-days",
                        days, "--sample-days", sample_days, "--seed", 1, "--out", data)
    assert code == 0, err
    code, err = run_cli("fit", data, "--schedule", schedule, "--out", report)
    assert code == 0, err
    return json.loads(report.read_text())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 23: fit has one timescale per chip, not one per storage environment"))
def test_claim3_the_speed_changes_at_a_swap(tmp_path):
    # chip3 swaps ambient and glovebox every 4 days; item 23's gate is each
    # fitted ratio within 5% of the configured one.
    report = simulate_and_fit_with_schedule(
        tmp_path, "chip3", "0,ambient\n4,glovebox\n8,ambient\n12,glovebox\n", 28, 0.5)
    s_env = report["average"]["env_timescale_s"]
    want = DEFAULT_ENV_TAU_S[AMBIENT] / DEFAULT_ENV_TAU_S[GLOVEBOX]
    assert s_env["ambient"] / s_env["glovebox"] == pytest.approx(want, rel=0.05)


THERMAL_TABLE = {   # event day: (temperature, environment, configured step)
    30: (200, "glovebox", -0.05), 36: (250, "glovebox", -0.12),
    42: (200, "ambient", +0.06), 48: (250, "ambient", -0.06),
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 22: fit does not read the thermal steps of a schedule"))
def test_claim4_the_thermal_table_reads_back(tmp_path):
    # Item 22's gate: each fitted step within 0.5 percentage points.
    events = "".join(f"event,{day},thermal,temp_c={temp},env={env},hold_min=10\n"
                     for day, (temp, env, _) in THERMAL_TABLE.items())
    report = simulate_and_fit_with_schedule(tmp_path, "chip2", "0,glovebox\n" + events, 54, 0.5)
    steps = report["average"]["thermal_steps"]
    for (day, (_, _, step)), fitted in zip(THERMAL_TABLE.items(), steps):
        assert abs(fitted - step) <= 0.005, day


def preset_chip(preset, seed, noise=True):
    """``preset``'s drawn chip and its dataset to day 56, sampled every 2 days."""
    p = chip_preset(preset)
    chip = draw_chip(p.spec if noise else replace(p.spec, noise_sigma=0.0), seed)
    samples = np.arange(0.0, 56 * DAY_S + 1.0, 2 * DAY_S)
    return chip, simulate_chip(chip, p.schedule, [], samples, p.sim, seed)


def anneal_steps(tmp_path, preset, ds, events_text, seed, *flags):
    """The steps file of ``anneal --preset`` on ``ds`` through ``events_text``."""
    data, events, out = (tmp_path / n for n in ("d.csv", "e.txt", "a.csv"))
    save_measurements(ds, data)
    events.write_text(events_text)
    code, err = run_cli("anneal", data, "--events", events, "--preset", preset, "--seed", seed,
                        "--out", out, *flags)
    assert code == 0, err
    return json.loads(out.with_suffix(".steps.json").read_text())


OVEN_WEEK = "".join(f"event,{day},thermal,temp_c=250,env=glovebox,hold_min=10\n"
                    for day in range(57, 65))


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_claim5_no_anneal_goes_below_r0(tmp_path, preset):
    # Eight 250 C glovebox steps, each -12%, on days 57-64.  Measured at
    # seeds 1-3, with and without noise: the smallest R/R0 is at least
    # 1.0000007 with the floor, and 0.37-0.77 without it.
    for seed in (1, 2, 3):
        for noise in (True, False):
            _, ds = preset_chip(preset, seed, noise)
            floored = anneal_steps(tmp_path, preset, ds, OVEN_WEEK, seed)
            assert floored["floor_at_r0"] and floored["min_r_over_r0"] >= 1.0, (seed, noise)
            free = anneal_steps(tmp_path, preset, ds, OVEN_WEEK, seed, "--no-floor")
            assert not free["floor_at_r0"] and free["min_r_over_r0"] < 1.0, (seed, noise)


GATE_STEPS = ("event,61,thermal,temp_c=200,env=glovebox,hold_min=10\n"
              "event,62,thermal,temp_c=250,env=glovebox,hold_min=10\n"
              "event,63,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1\n")


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_claim6_anneal_agrees_with_simulate(tmp_path, preset):
    # Noise-free chips, so that the step is not hidden by the noise of the
    # row it starts from.  simulate_chip runs the same events; its step is
    # the mean of R(day 61 + 10 min) / R(day 56) - 1 over the junctions.
    p = chip_preset(preset)
    (tmp_path / "steps.txt").write_text(GATE_STEPS)
    events = load_events(tmp_path / "steps.txt")
    for seed in range(1, 11):
        chip, ds = preset_chip(preset, seed, noise=False)
        got = anneal_steps(tmp_path, preset, ds, GATE_STEPS, seed)["steps"][0]
        full = simulate_chip(chip, p.schedule, events, [56 * DAY_S, 61 * DAY_S + 600.0], p.sim,
                             seed)
        r = full.r_ohm.reshape(-1, 2)[(full.flag == FLAG_OK).reshape(-1, 2).all(axis=1)]
        want = float(np.mean(r[:, 1] / r[:, 0] - 1.0))
        # Measured over seeds 1-10: |got - want| <= 0.023 percentage points
        # (chip5), against 0.054-0.162 pp before waits were aged in the
        # CSV's last environment; tolerance 1.5x, 0.035 pp.
        assert abs(got["mean_fractional_change"] - want) <= 3.5e-4, (seed, got, want)
