"""Reference trajectory: the per-sample action-stream walk, kept as a test oracle.

``jjaging.trajectory.simulate_trajectory`` evaluates all samples of a
storage piece (the stretch between two schedule swaps or anneal events) as
one numpy expression.  This module keeps the loop it replaced, which sorts
swaps, events and samples into one stream and advances the state from each
action to the next with ``math.log``, so that tests can compare the two.
It uses only the package's public API and takes no state map from it: the
segment map and the event seed are restated here.

``reference_resume_trajectory`` is the segment loop that ``predict`` used
before it ran the trajectory engine from the fitted state.  It always
resumes with the gas-to-gas relaxation time, so it agrees with ``predict``
only when the segment in force at the start was not entered from vacuum.
"""

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from jjaging.errors import ConfigurationError, ParameterError, ValidationError
from jjaging.model import AgingParams
from jjaging.trajectory import (
    AnnealEvent,
    SimConfig,
    StorageSchedule,
    TrajectoryState,
    VoltageAnneal,
    apply_thermal_anneal,
    apply_voltage_anneal,
)


def _segment(y_env, t_a, t_b, a, tau, b, relax_s):
    span = t_b - t_a
    if span <= 0:
        return y_env
    gap = y_env - a * math.log(t_a / tau + b)
    return a * math.log(t_b / tau + b) + gap * math.exp(-span / relax_s)


def _tau(env, cfg, tau_scale):
    if env not in cfg.env_tau_s:
        raise ConfigurationError(f"no timescale configured for environment {env.value!r}")
    return cfg.env_tau_s[env] * tau_scale


def _tau_scale(params, schedule, cfg):
    """``params.tau_s`` is the timescale in the schedule's first environment."""
    for _, env in schedule.segments:
        _tau(env, cfg, 1.0)
    scale = params.tau_s / cfg.env_tau_s[schedule.segments[0][1]]
    if not (math.isfinite(scale) and scale > 0):
        raise ParameterError("tau_s must scale the first environment's timescale by a "
                             "finite factor > 0")
    return scale


def _event_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def reference_simulate_trajectory(
    schedule: StorageSchedule,
    events: Sequence[AnnealEvent],
    cfg: SimConfig,
    params: AgingParams,
    sample_t_s: Sequence[float],
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Simulate one junction through a storage schedule with anneal events,
    one action at a time; returns a list of (t_s, R_ohm)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    samples = [float(t) for t in sample_t_s]
    if not all(math.isfinite(t) and t >= 0 for t in samples):
        raise ValidationError("sample times must be finite and >= 0")
    if any(b < a for a, b in zip(samples, samples[1:])):
        raise ValidationError("sample times must be nondecreasing")
    ev_times = [ev.t_s for ev in events]
    if any(b < a for a, b in zip(ev_times, ev_times[1:])):
        raise ValidationError("events must be sorted by time")

    tau_scale = _tau_scale(params, schedule, cfg)
    taus = {env: _tau(env, cfg, tau_scale) for _, env in schedule.segments}

    # Action stream ordered by (time, kind): segment swaps, then events,
    # then sample emissions.
    actions: list[tuple[float, int, object]] = []
    for start, env in schedule.segments[1:]:
        actions.append((start, 0, env))
    for k, ev in enumerate(events):
        actions.append((ev.t_s, 1, (k, ev)))
    for t in samples:
        actions.append((t, 2, None))
    actions.sort(key=lambda item: (item[0], item[1]))

    a, b, r0_ohm = params.a, params.b, params.r0_ohm
    anneal = TrajectoryState(y_env=a * math.log(b))
    t, y_env = 0.0, anneal.y_env
    env = schedule.segments[0][1]
    tau = taus[env]
    relax = cfg.relax_gas_to_gas_s
    out: list[tuple[float, float]] = []

    for t_act, kind, payload in actions:
        if t_act > t:
            y_env = _segment(y_env, t, t_act, a, tau, b, relax)
            t = t_act
        if kind == 0:
            relax = cfg.relax_time_s(env, payload)
            env = payload
            tau = taus[env]
        elif kind == 1:
            k, ev = payload
            state = replace(anneal, t_s=t, y_env=y_env)
            if isinstance(ev.kind, VoltageAnneal):
                anneal = apply_voltage_anneal(state, ev, cfg, _event_seed(seed, k))
            else:
                anneal = apply_thermal_anneal(state, ev, cfg)
        else:
            gain = anneal.anneal_gain * anneal.drift_factor(t)
            out.append((t, r0_ohm * (1.0 + y_env) * gain))
    return out


def reference_resume_trajectory(
    y_start: float,
    t_start_s: float,
    schedule: StorageSchedule,
    cfg: SimConfig,
    t_end_s: float,
    params: AgingParams,
    tau_scale: float,
) -> float:
    """Advance fractional aging from (t_start, y_start) to t_end, no events,
    on the bound curves of ``params``' amplitude and offset with every
    environment's timescale times ``tau_scale``."""
    if t_end_s < t_start_s:
        raise ValidationError("t_end_s must be >= t_start_s")
    a, b = params.a, params.b
    t, y_env = t_start_s, y_start
    env = schedule.segments[0][1]
    for start, seg_env in schedule.segments:   # the segment in force at t_start_s
        if t_start_s >= start:
            env = seg_env
    relax = cfg.relax_gas_to_gas_s
    for start, nxt in schedule.segments:
        if start <= t_start_s or start >= t_end_s:
            continue
        y_env = _segment(y_env, t, start, a, _tau(env, cfg, tau_scale), b, relax)
        t = start
        relax = cfg.relax_time_s(env, nxt)
        env = nxt
    return _segment(y_env, t, t_end_s, a, _tau(env, cfg, tau_scale), b, relax)
