"""``simulate_trajectory`` against the per-sample walk in ``reference_trajectory``.

The package evaluates each storage piece as one numpy expression from the
piece's start; the reference advances from action to action with
``math.log``.  The two round differently, so values are compared to a
relative 1e-14 (about 45 ulps; the largest difference seen over 3,000
cases was a few ulps).  The package returns one resistance per sample, the
reference (t, R) pairs at the sample times; an input one refuses the other
must refuse with the same exception type.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jjaging import (
    AMBIENT,
    GLOVEBOX,
    VACUUM,
    AgingParams,
    AnnealEvent,
    ConfigurationError,
    SimConfig,
    StorageSchedule,
    ThermalAnneal,
    VoltageAnneal,
    simulate_trajectory,
)
from reference_trajectory import reference_simulate_trajectory

DAY = 86400.0
REL_TOL = 1e-14
ENVS = (AMBIENT, GLOVEBOX, VACUUM)
# Oven steps with a configured response, and one without, which is refused.
OVENS = [(200.0, GLOVEBOX), (250.0, GLOVEBOX), (200.0, AMBIENT), (250.0, AMBIENT)]
UNKNOWN_OVEN = (300.0, VACUUM)


@st.composite
def cases(draw):
    """Arguments of one call: 1-4 segment schedules (vacuum included),
    relaxation times down to 300 s, voltage and thermal events, and
    nondecreasing samples that repeat, start at 0 and hit swap and event
    times.  A few cases carry an input the functions must refuse."""
    n_seg = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(0.01, 20.0), min_size=n_seg - 1, max_size=n_seg - 1))
    starts = np.cumsum([0.0] + gaps) * DAY
    envs = [draw(st.sampled_from(ENVS)) for _ in range(n_seg)]
    schedule = StorageSchedule(segments=tuple(zip(starts.tolist(), envs)))
    horizon = float(starts[-1]) + draw(st.floats(0.0, 30.0)) * DAY

    times = st.one_of(st.sampled_from(starts.tolist()), st.floats(0.0, horizon), st.just(0.0))
    events = []
    for t in sorted(draw(st.lists(times, max_size=4))):
        if draw(st.booleans()):
            kind = VoltageAnneal()
        else:
            temp, env = draw(st.sampled_from(OVENS * 4 + [UNKNOWN_OVEN]))
            kind = ThermalAnneal(temp_c=temp, env=env)
        events.append(AnnealEvent(t_s=t, kind=kind))
    pool = st.one_of(times, st.sampled_from([ev.t_s for ev in events] or [0.0]))
    grid = np.linspace(0.0, horizon, draw(st.integers(0, 200))).tolist()
    samples = sorted(draw(st.lists(pool, max_size=40)) + grid)
    if samples and draw(st.booleans()):
        samples += samples[-draw(st.integers(1, len(samples))):]   # repeats
        samples.sort()

    cfg = SimConfig(
        relax_gas_to_gas_s=draw(st.floats(300.0, 5 * DAY)),
        relax_vacuum_to_gas_s=draw(st.floats(300.0, DAY)),
        voltage_jump_sd=draw(st.sampled_from([0.0, 0.02])),
        floor_at_r0=draw(st.booleans()),
    )
    # The junction's timescale in the first environment: the configured one,
    # or 0.5 to 2 times it.
    tau_first = cfg.env_tau_s[envs[0]]
    tau_s = draw(st.one_of(st.just(tau_first), st.floats(0.5, 2.0).map(tau_first.__mul__)))
    b = draw(st.one_of(st.just(1.0), st.floats(0.01, 2.0)))
    params = AgingParams(a=draw(st.floats(0.0, 0.5)), tau_s=tau_s, b=b,
                         r0_ohm=draw(st.floats(1.0, 1e5)))
    kwargs = dict(schedule=schedule, events=events, cfg=cfg, params=params,
                  sample_t_s=samples, seed=draw(st.integers(0, 2**32)))

    refusal = draw(st.sampled_from([None] * 12 + ["unsorted", "decreasing", "nan", "seed",
                                                  "tau_s"]))
    if refusal == "unsorted" and len(events) >= 2 and events[0].t_s != events[-1].t_s:
        kwargs["events"] = events[::-1]
    elif refusal == "decreasing" and len(samples) >= 2 and samples[0] != samples[-1]:
        kwargs["sample_t_s"] = samples[::-1]
    elif refusal == "nan":
        kwargs["sample_t_s"] = samples + [draw(st.sampled_from([math.nan, math.inf, -1.0]))]
    elif refusal == "seed":
        kwargs["seed"] = draw(st.sampled_from([-1, 0.5, True]))
    elif refusal == "tau_s":
        # A timescale that scales the first environment's to 0.
        kwargs["params"] = AgingParams(a=params.a, tau_s=5e-324, b=params.b,
                                       r0_ohm=params.r0_ohm)
    return kwargs


def run(fn, kwargs):
    try:
        return fn(**kwargs)
    except Exception as exc:   # compared by type below
        return exc


def max_rel_diff(kwargs) -> float:
    """Largest |R / R_ref - 1| of one case, after checking that sample
    counts and refusals agree; 0.0 for a refused case or one without
    samples."""
    got = run(simulate_trajectory, kwargs)
    want = run(reference_simulate_trajectory, kwargs)
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        return 0.0
    assert not isinstance(got, Exception), got
    assert got.shape == (len(want),)
    assert [t for t, _ in want] == [float(t) for t in kwargs["sample_t_s"]]
    if not want:
        return 0.0
    r_ref = np.array([r for _, r in want])
    return float(np.max(np.abs(got / r_ref - 1.0)))


@settings(max_examples=300, deadline=None)
@given(kwargs=cases())
def test_equals_reference_walk(kwargs):
    assert max_rel_diff(kwargs) <= REL_TOL


def test_single_environment_piece_is_the_reference_to_an_ulp():
    # One piece on its bound: the only difference left is numpy's log
    # against math.log.
    samples = np.arange(0.0, 365 * DAY + 1.0, DAY)
    kwargs = dict(schedule=StorageSchedule.single(AMBIENT), events=[],
                  cfg=SimConfig(), params=AgingParams(a=0.2, tau_s=1.2 * 1.2e4, b=1.03,
                                                      r0_ohm=22_800.0),
                  sample_t_s=samples)
    assert max_rel_diff(kwargs) <= 2.3e-16


def test_breakpoints_after_the_last_sample_are_still_applied():
    # An oven step with no configured response is refused even when no
    # sample follows it, as in the reference.
    kwargs = dict(schedule=StorageSchedule.single(AMBIENT),
                  events=[AnnealEvent(t_s=5 * DAY, kind=ThermalAnneal(*UNKNOWN_OVEN))],
                  cfg=SimConfig(), params=AgingParams(a=0.21, tau_s=1.2e4),
                  sample_t_s=[0.0, DAY])
    for fn in (simulate_trajectory, reference_simulate_trajectory):
        with pytest.raises(ConfigurationError):
            fn(**kwargs)
