"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked "oracle" were computed with high-precision
arithmetic or frozen from pre-build brute-force sweeps.
"""

import json
import math

import numpy as np
import pytest

from jjaging import (
    AMBIENT,
    GLOVEBOX,
    VACUUM,
    AgingParams,
    AnnealEvent,
    ChipSpec,
    SimConfig,
    StorageSchedule,
    TwoLogParams,
    VoltageAnneal,
    aggregate_series,
    apply_voltage_anneal,
    draw_chip,
    effective_tau,
    eval_single_log,
    eval_two_log,
    fit_single_log,
    grid_search_oracle,
    load_measurements,
    simulate_chip,
    simulate_trajectory,
    TrajectoryState,
)
from jjaging.cli import main
from jjaging.fitting import _single_log_rj, _two_log_rj

DAY = 86400.0

CHIP1 = AgingParams(a=0.21, tau_s=1.2e4, b=1.01, r0_ohm=22_800.0)
CHIP2 = AgingParams(a=0.15, tau_s=4.3e4, b=1.06, r0_ohm=24_300.0)


def report(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_c01_single_environment_matches_closed_form():
    """Trajectory under one environment tracks the log law within 0.5%."""
    samples = np.arange(0.0, 56 * DAY + 1, 0.5 * DAY)
    got = simulate_trajectory(StorageSchedule.single(AMBIENT), [], SimConfig(),
                              AgingParams(a=0.21, tau_s=1.2e4, r0_ohm=CHIP1.r0_ohm), samples)
    want = CHIP1.r0_ohm * eval_single_log(CHIP1, samples)
    rel = np.abs(got / want - 1.0)
    assert rel.max() <= 5e-3
    report(1, f"max deviation {rel.max():.2e} over 56 days at dt=600 s (tol 5e-3)")


def test_c02_reference_parameter_round_trip():
    """Noiseless refits recover the reference parameters to 1e-4; noisy
    averages land within +-0.02 on the amplitude in >=90% of trials."""
    t = np.logspace(3, math.log10(56 * DAY), 40)
    for p in (CHIP1, CHIP2):
        series = np.column_stack([t, eval_single_log(AgingParams(p.a, p.tau_s, p.b), t)])
        res = fit_single_log(series)
        assert res.converged
        assert abs(res.params.a / p.a - 1) < 1e-4
        assert abs(res.params.tau_s / p.tau_s - 1) < 1e-4
        assert abs(res.params.b / p.b - 1) < 1e-4

    hits = {CHIP1.a: 0, CHIP2.a: 0}
    for p in (CHIP1, CHIP2):
        frac = eval_single_log(AgingParams(p.a, p.tau_s, p.b), t)
        for trial in range(100):
            rng = np.random.default_rng(10_000 + trial)
            curves = frac[None, :] * (1 + 0.005 * rng.standard_normal((16, t.size)))
            avg = curves.mean(axis=0)
            res = fit_single_log(np.column_stack([t, avg / avg[0] * frac[0]]))
            if abs(res.params.a - p.a) <= 0.02:
                hits[p.a] += 1
    assert hits[CHIP1.a] >= 90 and hits[CHIP2.a] >= 90
    report(2, f"noiseless round trip < 1e-4; noisy amplitude hits "
              f"{hits[CHIP1.a]}/100 and {hits[CHIP2.a]}/100 (need >= 90)")


def test_c03_natural_log_cross_consistency():
    """56-day extrapolations agree with the anneal-implied resistances."""
    implied2 = 7.6 / 0.181 * 1e3  # ~42.0 kohm
    implied1 = 7.4 / 0.142 * 1e3  # ~52.1 kohm
    got2 = float(eval_single_log(CHIP2, 56 * DAY)) * CHIP2.r0_ohm
    got1 = float(eval_single_log(CHIP1, 56 * DAY)) * CHIP1.r0_ohm
    assert abs(got2 / implied2 - 1) <= 0.02
    assert abs(got1 / implied1 - 1) <= 0.02
    report(3, f"implied-resistance ratios {got2 / implied2:.4f} and "
              f"{got1 / implied1:.4f} (tol 2%)")


def test_c04_effective_timescale_validation():
    """A single-log fit of the two-channel curve recovers the weighted
    geometric-mean timescale within +-30% (pre-build sweep saw ~0.94x)."""
    gen = TwoLogParams(a_int=0.10, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
    teff = effective_tau(gen)
    assert teff == pytest.approx(21034.646966619958, rel=1e-12)  # oracle
    t = np.logspace(3, math.log10(5e6), 40)
    series = np.column_stack([t, eval_two_log(gen, t)])
    res = fit_single_log(series)
    ratio = res.params.tau_s / teff
    assert abs(ratio - 1) <= 0.30
    report(4, f"single-log tau / effective tau = {ratio:.3f} (tol 30%)")


def _swap_schedule():
    return StorageSchedule(segments=(
        (0.0, AMBIENT), (4 * DAY, GLOVEBOX), (8 * DAY, AMBIENT), (12 * DAY, GLOVEBOX),
    ))


def test_c05_alternating_schedule_pattern():
    """Alternating storage: bracketed by the bound curves, deaging after the
    day-4 swap, and <= 2% net drift over 40 days after the final swap."""
    samples = np.arange(0.0, 52 * DAY + 1, 0.25 * DAY)
    y = simulate_trajectory(_swap_schedule(), [], SimConfig(), AgingParams(0.05, 1.2e4),
                            samples) - 1.0

    amb = eval_single_log(AgingParams(0.05, 1.2e4, 1.0), samples) - 1.0
    gb = eval_single_log(AgingParams(0.05, 4.3e4, 1.0), samples) - 1.0
    eps = 1e-9
    assert np.all(y >= gb - eps) and np.all(y <= amb + eps)

    i4 = int(np.searchsorted(samples, 4 * DAY))
    first_incr = np.diff(y[i4:i4 + 5])
    assert np.all(first_incr < 0)

    i12 = int(np.searchsorted(samples, 12 * DAY))
    drift = (1 + y[-1]) / (1 + y[i12]) - 1
    assert abs(drift) <= 0.02
    report(5, f"bracketed (eps {eps}); deaging increments "
              f"{first_incr[0]:.2e}..; 40-day net drift {drift * 100:+.2f}% (tol 2%)")


def test_c06_vacuum_exit_relaxation():
    """Leaving high vacuum reaches within 10% of the glovebox bound in < 1 day."""
    sched = StorageSchedule(segments=((0.0, VACUUM), (7 * DAY, GLOVEBOX)))
    samples = np.arange(7 * DAY, 8.5 * DAY, 0.02 * DAY)
    y = simulate_trajectory(sched, [], SimConfig(), AgingParams(0.12, 6.9e4), samples) - 1.0
    gb = eval_single_log(AgingParams(0.12, 4.3e4, 1.0), samples) - 1.0
    rel = np.abs(y - gb) / gb
    hit = samples[rel <= 0.10]
    assert hit.size > 0
    t_hit = (hit[0] - 7 * DAY) / DAY
    assert t_hit < 1.0
    report(6, f"within 10% of the glovebox bound {t_hit:.2f} days after the swap")


def test_c07_voltage_anneal_response():
    """Configured jumps applied exactly; bystander junctions undisturbed;
    post-anneal drift refits to the installed timescale within 2x."""
    # exact jumps at the operation level
    for mean in (0.142, 0.181):
        cfg = SimConfig(voltage_jump_mean=mean, voltage_jump_sd=0.0)
        state = TrajectoryState(t_s=56 * DAY, y_env=1.0)
        out = apply_voltage_anneal(
            state, AnnealEvent(t_s=56 * DAY, kind=VoltageAnneal()), cfg, rng_seed=0
        )
        jump = (1 + out.y) / (1 + state.y) - 1
        assert jump == pytest.approx(mean, abs=1e-12)

    # chip level: anneal half of a 16-junction chip at day 56
    cfg = SimConfig(voltage_jump_mean=0.142, voltage_jump_sd=0.0,
                    voltage_drift_a=0.05, voltage_drift_tau_s=5.0e4)
    spec = ChipSpec(r0_mean_ohm=22_800.0, r0_cv=0.0, a_mean=0.21,
                    log_tau_mean=math.log(1.2e4), b_mean=1.0, noise_sigma=0.0)
    chip = draw_chip(spec, seed=0)
    ev = [AnnealEvent(t_s=56 * DAY, kind=VoltageAnneal(), junction_ids=tuple(range(8)))]
    session = 90 * 60.0
    samples = [56 * DAY - session, 56 * DAY - 60.0, 56 * DAY, 56 * DAY + session]
    ds = simulate_chip(chip, StorageSchedule.single(AMBIENT), ev, samples, cfg, seed=0)
    r = ds.r_ohm.reshape(len(chip), len(samples))
    worst_bystander = float(np.abs(r[8:, -1] / r[8:, 0] - 1).max())
    assert worst_bystander <= 0.004
    np.testing.assert_allclose(r[:8, 2] / r[:8, 1] - 1, 0.142, rtol=0, atol=1e-4)

    # drift refit on noiseless post-anneal samples
    offsets = np.logspace(math.log10(600), math.log10(6 * DAY), 30)
    samples = [56 * DAY] + [56 * DAY + dt for dt in offsets]
    traj = simulate_trajectory(
        StorageSchedule.single(AMBIENT),
        [AnnealEvent(t_s=56 * DAY, kind=VoltageAnneal())],
        cfg, AgingParams(a=0.21, tau_s=1.2e4, r0_ohm=22_800.0), samples,
    )
    series = [(t - 56 * DAY, r / traj[0]) for t, r in zip(samples[1:], traj[1:])]
    res = fit_single_log(series)
    ratio = res.params.tau_s / 5.0e4
    assert 0.5 <= ratio <= 2.0
    report(7, f"jumps exact; bystander change {worst_bystander * 100:.3f}% "
              f"(tol 0.4%); drift tau ratio {ratio:.2f} (tol 2x)")


OVEN_SEQUENCE = (
    "event,85.0,thermal,temp_c=200,env=glovebox,hold_min=10\n"
    "event,85.2,thermal,temp_c=250,env=glovebox,hold_min=10\n"
    "event,85.4,thermal,temp_c=200,env=ambient,hold_min=40\n"
    "event,85.6,thermal,temp_c=250,env=ambient,hold_min=10\n"
    "event,85.8,thermal,temp_c=200,env=ambient,hold_min=10\n"
)


def test_c08_thermal_sequence_pattern(tmp_path):
    """Five-step oven sequence: signs (-,-,+,-,+), step 5 smaller than step 3,
    and the initial-resistance floor holds throughout."""
    data = tmp_path / "aged.csv"
    assert main(["simulate", "--preset", "chip4", "--target-days", "85",
                 "--seed", "3", "--out", str(data)]) == 0
    events = tmp_path / "steps.txt"
    events.write_text(OVEN_SEQUENCE)
    out = tmp_path / "annealed.csv"
    assert main(["anneal", str(data), "--events", str(events), "--preset", "chip4",
                 "--out", str(out)]) == 0
    info = json.loads(out.with_suffix(".steps.json").read_text())
    changes = [s["mean_fractional_change"] for s in info["steps"]]
    signs = [math.copysign(1, c) for c in changes]
    assert signs == [-1, -1, +1, -1, +1]
    assert changes[4] < changes[2]
    assert info["min_r_over_r0"] >= 1.0 - 1e-12
    report(8, f"signs {['-' if s < 0 else '+' for s in signs]}, "
              f"step5 {changes[4] * 100:.3f}% < step3 {changes[2] * 100:.3f}%, "
              f"min R/R0 {info['min_r_over_r0']:.4f} >= 1")


def test_c09_fitter_integrity():
    """Analytic Jacobians match central differences to 1e-6; the fitter never
    loses to the grid oracle on a grid containing its initializer."""
    rng = np.random.default_rng(99)
    t = np.logspace(3, 6.5, 25)
    y1 = eval_single_log(AgingParams(CHIP1.a, CHIP1.tau_s, CHIP1.b), t)
    y2 = eval_two_log(TwoLogParams(0.1, 3.9e4, 0.11, 1.2e4), t)

    def check(fun, x):
        r0, J_an = fun(x)
        for k in range(len(x)):
            h = 1e-6 * max(abs(x[k]), 1.0)
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (fun(xp)[0] - fun(xm)[0]) / (2 * h)
            np.testing.assert_allclose(J_an[:, k], fd, rtol=1e-6, atol=1e-9)

    for _ in range(100):
        check(lambda x: _single_log_rj(x, t, y1),
              np.array([rng.uniform(0.05, 0.9), rng.uniform(math.log(5e2), math.log(5e6)),
                        rng.uniform(0.3, 5.0)]))
        check(lambda x: _two_log_rj(x, t, y2),
              np.array([rng.uniform(0.05, 0.9), rng.uniform(math.log(5e2), math.log(5e6)),
                        rng.uniform(0.05, 0.9), rng.uniform(math.log(5e2), math.log(5e6))]))

    ts = np.logspace(3, math.log10(56 * DAY), 40)
    series = np.column_stack([ts, eval_single_log(AgingParams(CHIP1.a, CHIP1.tau_s, CHIP1.b), ts)])
    res = fit_single_log(series)
    a0 = (series[:, 1].max() - series[:, 1].min()) / math.log(ts.max() / ts.min())
    grid = {
        "a": np.unique(np.append(np.linspace(0, 1, 40), a0)),
        "tau_s": np.unique(np.append(np.logspace(2, 8, 40), ts.min())),
        "b": np.unique(np.append(np.linspace(0.05, 10, 15), 1.0)),
    }
    _, grid_rss = grid_search_oracle(series, grid)
    assert res.rss <= grid_rss + 1e-12
    report(9, f"Jacobians match at 100 interior points x 2 models; fit rss "
              f"{res.rss:.2e} <= grid best {grid_rss:.2e}")


def test_c10_determinism_and_io(tmp_path):
    """Same config + seed -> byte-identical outputs; file round trips lossless."""
    o1, o2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for o in (o1, o2):
        assert main(["simulate", "--preset", "chip2", "--target-days", "30",
                     "--seed", "17", "--out", str(o)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert (o1.with_suffix(".summary.json").read_bytes()
            == o2.with_suffix(".summary.json").read_bytes())

    ds = load_measurements(o1)
    from jjaging import save_measurements

    copy = tmp_path / "copy.csv"
    save_measurements(ds, copy)
    back = load_measurements(copy)
    assert back.chip_id == ds.chip_id
    for name in ("junction_id", "t_s", "r_ohm", "env", "flag"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))

    rep1, rep2 = tmp_path / "rep1.json", tmp_path / "rep2.json"
    for rep in (rep1, rep2):
        assert main(["fit", str(o1), "--out", str(rep)]) in (0, 3)
    assert rep1.read_bytes() == rep2.read_bytes()
    from jjaging import read_report, write_report

    back = read_report(rep1)
    rewritten = tmp_path / "rep3.json"
    write_report(back, rewritten)
    assert rewritten.read_bytes() == rep1.read_bytes()
    report(10, "byte-identical CSV/summary/report for repeated runs; "
               "load/write round trips lossless")


def test_c11_cv_trends():
    """Heterogeneous ambient ensemble: CV rises ~5% -> ~7%; homogeneous
    glovebox ensemble stays flat within one point (100-trial medians)."""
    cfg = SimConfig()
    samples = np.arange(0.0, 56 * DAY + 1, 2 * DAY)
    het = ChipSpec(r0_mean_ohm=22_800.0, r0_cv=0.048, a_mean=0.21, a_sd=0.015,
                   log_tau_mean=math.log(1.2e4), log_tau_sd=0.3, b_mean=1.01,
                   noise_sigma=0.003)
    first, last = [], []
    for trial in range(100):
        chip = draw_chip(het, seed=5000 + trial)
        ds = simulate_chip(chip, StorageSchedule.single(AMBIENT), [], samples,
                           cfg, seed=5000 + trial)
        agg = aggregate_series(ds)
        first.append(agg[0][2])
        last.append(agg[-1][2])
    cv0, cv1 = float(np.median(first)), float(np.median(last))
    assert abs(cv0 - 0.05) <= 0.02
    assert abs(cv1 - 0.07) <= 0.02
    assert cv1 > cv0

    cfg_gb = SimConfig(env_tau_s=dict(cfg.env_tau_s))
    hom = ChipSpec(r0_mean_ohm=24_300.0, r0_cv=0.059, a_mean=0.15, a_sd=0.0,
                   log_tau_mean=math.log(4.3e4), log_tau_sd=0.0, b_mean=1.0,
                   noise_sigma=0.003)
    spreads = []
    for trial in range(100):
        chip = draw_chip(hom, seed=6000 + trial)
        ds = simulate_chip(chip, StorageSchedule.single(GLOVEBOX), [], samples,
                           cfg_gb, seed=6000 + trial)
        agg = aggregate_series(ds)
        cvs = np.array([cv for _, _, cv, _ in agg])
        spreads.append(np.abs(cvs - cvs[0]).max())
    flat_dev = float(np.median(spreads))
    assert flat_dev <= 0.01
    report(11, f"heterogeneous CV {cv0 * 100:.2f}% -> {cv1 * 100:.2f}% "
               f"(targets ~5/~7 +-2); homogeneous max drift {flat_dev * 100:.2f} pts (tol 1)")
