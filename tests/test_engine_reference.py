"""The CLI's ``anneal`` and ``predict`` against the loops they replaced.

Both commands run the one trajectory engine.  ``reference_anneal`` keeps the
per-step advance / apply / advance loop over every junction, and
``reference_resume_trajectory`` the segment loop ``predict`` used; both
advance their states by ``reference_trajectory``'s own restatement of the
segment map, so no state map is shared with the engine.  The engine
evaluates a sample with numpy's log and exp and splits a junction's time
only at the events that target it, so resistances may differ from the loops
in the last bits: they are compared to 4 ulps, and the step means and the
smallest R/R0 to 1e-15 absolute (the values are of order 1).
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jjaging import (
    StorageSchedule,
    chip_preset,
    draw_chip,
    eval_single_log,
    load_events,
    load_measurements,
    save_measurements,
    simulate_chip,
)
from jjaging.cli import main
from jjaging.ensemble import FLAG_OK
from jjaging.model import Environment
from reference_anneal import reference_anneal
from reference_trajectory import reference_resume_trajectory

DAY = 86400.0
ULPS = 4
ABS_TOL = 1e-15
LAST_DAY = 30
PRESETS = ("chip1", "chip3", "chip5", "chip6")


def ulp_distance(a, b) -> int:
    """Largest distance in units in the last place between two arrays of
    positive floats."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    return int(np.abs(a.view(np.int64) - b.view(np.int64)).max(initial=0))


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """A 30-day dataset per preset, sampled every 2 days: its CSV path."""
    root = tmp_path_factory.mktemp("engine")
    samples = np.arange(0.0, LAST_DAY * DAY + 1.0, 2 * DAY)
    paths = {}
    for name in PRESETS:
        p = chip_preset(name)
        ds = simulate_chip(draw_chip(p.spec, 5), p.schedule, [], samples, p.sim, 5)
        paths[name] = root / f"{name}.csv"
        save_measurements(ds, paths[name])
    return root, paths


def run_anneal(root, data, name, lines, seed, no_floor, code=0):
    events = root / "events.txt"
    events.write_text("".join(lines))
    out = root / "annealed.csv"
    out.unlink(missing_ok=True)
    argv = ["anneal", str(data), "--events", str(events), "--preset", name,
            "--seed", str(seed), "--out", str(out)]
    assert main(argv + ["--no-floor"] * no_floor) == code
    if code:
        assert not out.exists()
        return None
    steps = json.loads(out.with_suffix(".steps.json").read_text())
    return load_events(events), load_measurements(out), steps


def check_against_reference(data, name, events, out_ds, steps, seed, no_floor):
    """The appended rows and the step summary agree with the reference loop."""
    ds = load_measurements(data)
    cfg = chip_preset(name).sim
    if no_floor:
        cfg = replace(cfg, floor_at_r0=False)
    new_j, new_t, new_r, changes, min_ratio = reference_anneal(ds, events, cfg, seed)
    # The output keeps the input's rows and sorts by (junction, time); every
    # appended row comes after the input's last one.
    want = sorted(zip(new_j, new_t, new_r))
    appended = out_ds.t_s > ds.t_s.max()
    assert len(out_ds) - appended.sum() == len(ds)
    got_j, got_t = out_ds.junction_id[appended], out_ds.t_s[appended]
    assert got_j.tolist() == [j for j, _, _ in want]
    assert got_t.tolist() == [t for _, t, _ in want]
    assert ulp_distance(out_ds.r_ohm[appended], [r for _, _, r in want]) <= ULPS
    assert len(steps["steps"]) == len(events)
    for step, ch in zip(steps["steps"], changes):
        assert abs(step["mean_fractional_change"] - float(np.mean(ch))) <= ABS_TOL
    assert abs(steps["min_r_over_r0"] - min_ratio) <= ABS_TOL
    return new_t, new_r


@st.composite
def step_lists(draw):
    """Event lines of 0-5 placeable steps after the last row (day 30):
    voltage and thermal steps, holds of 0 and of whole eighths of a day (so
    that a step can start exactly when the previous one records), subsets
    of junctions, and back-to-back steps."""
    lines = []
    t_meas = float(LAST_DAY)
    for _ in range(draw(st.integers(0, 5))):
        gap = draw(st.sampled_from([0, 0, 1, 2, 5, 12])) / 8
        t = t_meas + gap
        subset = draw(st.one_of(st.none(), st.lists(st.integers(0, 15), min_size=1,
                                                    max_size=6, unique=True)))
        tail = "" if subset is None else ",junctions=" + "+".join(map(str, subset))
        if draw(st.booleans()):
            hold = 0.0
            lines.append(f"event,{t!r},voltage{tail}\n")
        else:
            temp, env = draw(st.sampled_from([(200, "glovebox"), (250, "glovebox"),
                                              (200, "ambient"), (250, "ambient")]))
            hold = draw(st.sampled_from([0, 10, 180, 720]))
            lines.append(f"event,{t!r},thermal,temp_c={temp},env={env},hold_min={hold}{tail}\n")
        if t + hold / 1440 == t_meas or (gap == 0 and t * 8 % 1):
            # Recording at the previous record's time is refused, and a start
            # at a record time off the eighths grid would not parse back to
            # exactly that time: start an eighth of a day later.
            lines[-1] = lines[-1].replace(f"event,{t!r},", f"event,{t + 0.125!r},", 1)
            t += 0.125
        t_meas = t + hold / 1440
    return lines


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(PRESETS), lines=step_lists(), seed=st.integers(0, 2**31),
       no_floor=st.booleans())
def test_anneal_equals_reference_loop(datasets, name, lines, seed, no_floor):
    root, paths = datasets
    ds = load_measurements(paths[name])
    usable = set(ds.junction_id[ds.flag == FLAG_OK].tolist())
    (root / "events.txt").write_text("".join(lines))
    subsets = [ev.junction_ids for ev in load_events(root / "events.txt")]
    if any(ids is not None and not usable.intersection(ids) for ids in subsets):
        # A step that names only open junctions anneals nothing: refused.
        assert run_anneal(root, paths[name], name, lines, seed, no_floor, code=2) is None
        return
    events, out_ds, steps = run_anneal(root, paths[name], name, lines, seed, no_floor)
    check_against_reference(paths[name], name, events, out_ds, steps, seed, no_floor)


def test_step_recording_when_the_next_starts_is_not_annealed_by_it(datasets):
    # Step 1 records at exactly day 31 (30.5 d + 720 min), the time step 2
    # starts: its record comes before step 2's oven, as in the reference.
    root, paths = datasets
    lines = ["event,30.5,thermal,temp_c=200,env=glovebox,hold_min=720\n",
             "event,31,thermal,temp_c=250,env=glovebox,hold_min=10\n"]
    events, out_ds, steps = run_anneal(root, paths["chip3"], "chip3", lines, 1, False)
    assert events[0].t_s + events[0].kind.hold_min * 60.0 == events[1].t_s
    new_t, new_r = check_against_reference(paths["chip3"], "chip3", events, out_ds,
                                           steps, 1, False)
    at_31 = out_ds.t_s == 31 * DAY
    assert at_31.sum() == 16
    want = np.array(new_r)[np.array(new_t) == 31 * DAY]
    assert ulp_distance(out_ds.r_ohm[at_31], want) <= ULPS


ENVS = ("ambient", "glovebox", "vacuum")


@st.composite
def predictions(draw):
    """A preset, a 1-4 segment future schedule with vacuum, and the days to
    predict from and to."""
    n_seg = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0, 7.0, 20.0]),
                         min_size=n_seg - 1, max_size=n_seg - 1))
    starts = np.cumsum([0.0] + gaps).tolist()
    envs = [draw(st.sampled_from(ENVS)) for _ in starts]
    from_days = draw(st.one_of(st.sampled_from(starts), st.floats(0.0, 60.0)))
    target_days = from_days + draw(st.one_of(st.floats(1e-3, 40.0), st.just(1.0)))
    return draw(st.sampled_from(PRESETS)), list(zip(starts, envs)), from_days, target_days


@settings(max_examples=100, deadline=None)
@given(case=predictions())
def test_predict_equals_reference_resume(tmp_path_factory, case):
    name, segments, from_days, target_days = case
    root = tmp_path_factory.mktemp("predict")
    sched = root / "future.schedule"
    sched.write_text("".join(f"{s!r},{env}\n" for s, env in segments))
    out = root / "pred.json"
    assert main(["predict", "--preset", name, "--schedule", str(sched),
                 "--from-days", repr(from_days), "--target-days", repr(target_days),
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text())["r_predicted_ohm"]

    schedule = StorageSchedule(segments=tuple(
        (s * DAY, Environment.from_kind(env)) for s, env in segments))
    k = max(i for i, (s, _) in enumerate(segments) if s <= from_days)
    if k and segments[k - 1][1] == "vacuum" and segments[k][1] != "vacuum":
        # The reference resumes a vacuum exit with the gas-to-gas relaxation
        # time; the engine's continuation is checked against a full
        # simulation in test_trajectory.TestResume.
        return
    p = chip_preset(name)
    params, cfg = p.aging, p.sim
    tau_scale = params.tau_s / cfg.env_tau_s[p.home_env.kind]
    t_from = from_days * DAY
    y_end = reference_resume_trajectory(float(eval_single_log(params, t_from)) - 1.0,
                                        t_from, schedule, cfg, target_days * DAY, params,
                                        tau_scale)
    assert ulp_distance(got, params.r0_ohm * (1.0 + y_end)) <= ULPS

