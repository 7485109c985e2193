"""The pre-assembled seed entropy against numpy's own spawn-key SeedSequence.

``trajectory._spawn_entropy`` rebuilds the word array that
``SeedSequence(entropy=seed, spawn_key=key)`` hashes, which is a numpy
implementation detail; these tests hold it to the installed numpy.
"""

import contextlib
import io
import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from jjaging import (
    AMBIENT,
    GLOVEBOX,
    AnnealEvent,
    ChipSpec,
    SimConfig,
    StorageSchedule,
    ThermalAnneal,
    VoltageAnneal,
    cli,
    draw_chip,
    load_events,
    save_measurements,
    simulate_chip,
    trajectory,
)
from jjaging.ensemble import _junction_events, _junction_seed
from jjaging.trajectory import _event_seed, _spawn_entropy

DAY = 86400.0

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]),
    st.integers(0, 2**200),
)
# Seed types a caller may pass; a value that does not fit one is skipped.
SEED_TYPES = st.sampled_from([int, np.int64, np.uint64])
KEYS = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 2**40)),
    st.tuples(st.integers(0, 2**40)),
)


def _typed(seed: int, kind):
    if kind is np.int64:
        assume(seed < 2**63)
    elif kind is np.uint64:
        assume(seed < 2**64)
    return kind(seed)


def _spawn_key_seed(seed, *key) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, kind=SEED_TYPES, key=KEYS)
def test_entropy_gives_the_spawn_key_state(seed, kind, key):
    seed = _typed(seed, kind)
    ours = np.random.SeedSequence(_spawn_entropy(seed, *key))
    numpys = np.random.SeedSequence(entropy=seed, spawn_key=key)
    assert np.array_equal(ours.generate_state(4, np.uint64),
                          numpys.generate_state(4, np.uint64))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, kind=SEED_TYPES, j=st.integers(0, 2**40))
def test_seed_helpers_equal_the_spawn_key_form(seed, kind, j):
    seed = _typed(seed, kind)
    assert _junction_seed(seed, j) == _spawn_key_seed(seed, 0, j)
    assert _event_seed(seed, j) == _spawn_key_seed(seed, j)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, kind=SEED_TYPES, n_j=st.integers(1, 5), n_s=st.integers(1, 12))
def test_noise_rows_equal_spawn_key_streams(seed, kind, n_j, n_s):
    """simulate_chip's noise row j is default_rng(<spawn-key seed (1, j)>):
    a noisy chip equals the noise-free one times (1 + sigma z), exactly."""
    seed = _typed(seed, kind)
    base = dict(r0_mean_ohm=1.0e4, r0_cv=0.05, a_mean=0.2, a_sd=0.01,
                log_tau_mean=math.log(1.2e4), log_tau_sd=0.2, n_junctions=n_j)
    sigma = 0.01
    samples = np.arange(n_s) * DAY
    sched, cfg = StorageSchedule.single(AMBIENT), SimConfig()
    quiet = simulate_chip(draw_chip(ChipSpec(**base, noise_sigma=0.0), seed), sched, [],
                          samples, cfg, seed)
    noisy = simulate_chip(draw_chip(ChipSpec(**base, noise_sigma=sigma), seed), sched, [],
                          samples, cfg, seed)
    z = np.array([np.random.default_rng(_spawn_key_seed(seed, 1, j)).standard_normal(n_s)
                  for j in range(n_j)])
    expect = quiet.r_ohm * (1.0 + sigma * z.ravel())
    assert np.array_equal(noisy.r_ohm, expect)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, kind=SEED_TYPES)
def test_no_anneal_stream_is_a_noise_stream(seed, kind):
    """Junction j's voltage draws (spawn key (0, j), then the event's index
    i) and its measurement noise (spawn key (1, j)) are distinct streams."""
    seed = _typed(seed, kind)
    noise = {_spawn_key_seed(seed, 1, j) for j in range(16)}
    anneal = {_event_seed(_junction_seed(seed, j), i) for j in range(16) for i in range(4)}
    assert len(anneal) == 64 and not noise & anneal


def test_junction_events_select_and_seed_as_one_rule():
    """The one rule ``simulate`` and ``anneal`` share: the events that name
    junction j (or none), and j's anneal seed only if one of them draws."""
    events = [AnnealEvent(5 * DAY, ThermalAnneal(200.0, GLOVEBOX)),
              AnnealEvent(6 * DAY, VoltageAnneal(), junction_ids=(0, 2)),
              AnnealEvent(7 * DAY, ThermalAnneal(250.0, GLOVEBOX), junction_ids=(1, 2))]
    assert [_junction_events(events, 9, j) for j in range(4)] == [
        ([0, 1], _junction_seed(9, 0)), ([0, 2], 0), ([0, 1, 2], _junction_seed(9, 2)),
        ([0], 0)]
    assert _junction_events([], 9, 0) == ([], 0)


EVENTS = ("event,5,voltage,n_pulses=30\n"
          "event,6,thermal,temp_c=200,env=glovebox,hold_min=10,junctions=1+2\n"
          "event,7,voltage,n_pulses=30,junctions=0+2\n")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**63))
def test_anneal_draws_what_simulate_draws(seed, tmp_path_factory):
    """``anneal`` and ``simulate`` seed junction j's draw for the i-th event
    that touches it alike, so both apply each voltage step with one seed."""
    spec = ChipSpec(r0_mean_ohm=1.0e4, r0_cv=0.05, a_mean=0.2, a_sd=0.01,
                    log_tau_mean=math.log(1.2e4), log_tau_sd=0.2, n_junctions=4)
    chip, sched, cfg = draw_chip(spec, seed), StorageSchedule.single(AMBIENT), SimConfig()
    path = tmp_path_factory.mktemp("anneal") / "events.txt"
    path.write_text(EVENTS)
    seeds = {"simulate": [], "anneal": []}

    def recording(name):
        def apply(state, ev, cfg, rng_seed):
            seeds[name].append(rng_seed)
            return real(state, ev, cfg, rng_seed)
        return mock.patch.object(trajectory, "apply_voltage_anneal", apply)

    real = trajectory.apply_voltage_anneal
    with recording("simulate"):
        simulate_chip(chip, sched, load_events(path), np.arange(9) * DAY, cfg, seed)
    data = path.with_name("data.csv")
    save_measurements(simulate_chip(chip, sched, [], np.arange(5) * DAY, cfg, seed), data)
    with recording("anneal"), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["anneal", str(data), "--events", str(path), "--seed", str(seed),
                         "--out", str(data.with_name("out.csv"))]) == 0
    assert len(seeds["simulate"]) == 6 and seeds["anneal"] == seeds["simulate"]
