"""Single-junction resistance trajectories through storage schedules and anneals.

A junction in a fixed environment follows that environment's *bound curve*,
the single-log aging law with the environment's timescale.  When the storage
environment changes, the junction does not jump onto the new bound; it
relaxes toward it first-order:

    dy/dt = y_bound'(t) + (y_bound(t) - y) / T_relax

where ``y = R/R0 - 1`` and ``y_bound`` is the active environment's bound
curve evaluated at wall time (its clock is never restarted at a swap).
Because an environment swap changes which bound curve is active, the target
value steps at the swap, which is what produces the observed transients:
moving from lab air into a nitrogen glovebox puts the target *below* the
current state and the resistance transiently decreases (deaging); leaving
high vacuum puts the target above and the state is pulled up quickly.

Discrete anneal events live in a separate multiplicative channel stacked on
top of the relaxation state, so a voltage-annealed junction keeps its new
resistance instead of relaxing back: the anneal changes the junction's
internal configuration rather than accelerating the environmental aging.

Each storage segment is mapped by the exact solution of that linear
equation: the gap to the bound, ``e = y - y_bound``, obeys ``de/dt = -e /
T_relax``, so a whole segment is

    y(t_b) = y_bound(t_b) + (y(t_a) - y_bound(t_a)) * exp(-(t_b - t_a) / T_relax)

in O(1), with no step size.  Splitting a segment at any time gives the same
result, so a trajectory does not depend on where samples and events fall,
and a junction on its bound (gap exactly 0.0) reproduces the closed form
bit for bit.  Relaxation times only need to be finite and > 0: the gap
decays monotonically for any of them.

A junction's own bound curves come from its ``AgingParams``, the one
representation of a junction's aging law: fabrication sets the amplitude
``a``, the offset ``b`` and ``r0``, and storage sets the speed.  ``tau_s``
is the timescale in the schedule's first environment; its ratio to that
environment's configured timescale scales every environment's, so a
junction that ages 20% slower than nominal there does so everywhere.

One engine, ``_run_from``, advances a junction from a start state.  It cuts
the sample times into *storage pieces* at the breakpoints, the schedule
swaps and anneal events.  Within a piece the environment and the anneal
channel are fixed, so all its samples come from one numpy expression of the
map above, taken from the piece's start ``s``:

    y(t) = a ln(t / tau + b) + gap * exp(-(t - s) / T_relax)

times the anneal gain and post-anneal drift.  Only the states at the
breakpoints are advanced, by the same scalar map.  ``simulate_trajectory``
starts it at t = 0 on the bound, where the gap is exactly 0.0, so its first
piece is the closed form; a junction with no breakpoints (one segment, no
events) is that one closed-form piece, which ``simulate_trajectory``
evaluates itself.  Callers pass a start (t, y), the schedule and the
junction's events, and only the engine builds breakpoints from them: the
CLI's ``predict`` starts from a fitted state and ``anneal`` from each
junction's last measured state.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, ParameterError, ValidationError
from .model import GLOVEBOX, AgingParams, EnvironmentKind

__all__ = [
    "StorageSchedule",
    "VoltageAnneal",
    "ThermalAnneal",
    "AnnealEvent",
    "SimConfig",
    "TrajectoryState",
    "simulate_trajectory",
    "apply_voltage_anneal",
    "apply_thermal_anneal",
    "DAY_S",
]

DAY_S = 86_400.0


@dataclass(frozen=True)
class StorageSchedule:
    """Piecewise storage timeline: ordered (start time, environment) segments."""

    segments: tuple[tuple[float, EnvironmentKind], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("schedule needs at least one segment")
        starts = [s for s, _ in self.segments]
        if not all(math.isfinite(s) for s in starts):
            raise ValidationError("segment start times must be finite")
        if starts[0] != 0.0:
            raise ValidationError("first schedule segment must start at t = 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValidationError("segment start times must be strictly increasing")
        for _, env in self.segments:
            if not isinstance(env, EnvironmentKind):
                raise ValidationError(f"segment environment must be an EnvironmentKind, "
                                      f"got {env!r}")

    @classmethod
    def single(cls, env: EnvironmentKind) -> "StorageSchedule":
        return cls(segments=((0.0, env),))


@dataclass(frozen=True)
class VoltageAnneal:
    """Alternating-bias pulse train applied at the probe station.

    The fields describe the train and are validated, but the simulation does
    not read them: the jump and the post-anneal drift come from
    ``SimConfig``'s ``voltage_*`` fields, so two trains that differ only
    here give the same trajectory.
    """

    n_pulses: int = 30
    amplitude_v: float = 0.9
    pulse_duration_s: float = 1.0

    def __post_init__(self):
        n = self.n_pulses
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n <= 0:
            raise ValidationError(f"n_pulses must be an integer > 0, got {n!r}")
        for v in (self.amplitude_v, self.pulse_duration_s):
            if not (math.isfinite(v) and v > 0):
                raise ValidationError("pulse amplitude and duration must be finite and > 0")


@dataclass(frozen=True)
class ThermalAnneal:
    """One oven step: peak temperature, oven atmosphere, post-step wait.

    ``temp_c`` and ``env`` pick the step from ``SimConfig.thermal_response``.
    ``hold_min`` only sets when the CLI's ``anneal`` records the resistance
    after the step; ``simulate_trajectory`` (and so ``simulate``) applies
    the step at the event's ``t_s`` and does not read it.
    """

    temp_c: float
    env: EnvironmentKind = GLOVEBOX
    hold_min: float = 10.0

    def __post_init__(self):
        if not isinstance(self.env, EnvironmentKind):
            raise ValidationError(f"oven environment must be an EnvironmentKind, "
                                  f"got {self.env!r}")
        if not math.isfinite(self.temp_c):
            raise ValidationError(f"temp_c must be finite, got {self.temp_c}")
        if not (math.isfinite(self.hold_min) and self.hold_min >= 0):
            raise ValidationError(f"hold_min must be finite and >= 0, got {self.hold_min}")


@dataclass(frozen=True)
class AnnealEvent:
    """A discrete anneal at time ``t_s``.

    ``junction_ids`` restricts a chip-level event to a subset of junctions
    (None means all junctions).
    """

    t_s: float
    kind: VoltageAnneal | ThermalAnneal
    junction_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t_s) and self.t_s >= 0):
            raise ValidationError(f"event time must be finite and >= 0, got {self.t_s}")
        if not isinstance(self.kind, (VoltageAnneal, ThermalAnneal)):
            raise ValidationError(f"unknown anneal kind: {self.kind!r}")


# Qualitative sign/magnitude defaults for oven steps; the nitrogen ovens
# decrease resistance at both temperatures, ambient air increases it at
# 200 C and gives a smaller decrease than nitrogen at 250 C.
DEFAULT_THERMAL_RESPONSE: dict[tuple[float, EnvironmentKind], float] = {
    (200.0, EnvironmentKind.NITROGEN_GLOVEBOX): -0.05,
    (250.0, EnvironmentKind.NITROGEN_GLOVEBOX): -0.12,
    (200.0, EnvironmentKind.AMBIENT): +0.06,
    (250.0, EnvironmentKind.AMBIENT): -0.06,
}

DEFAULT_ENV_TAU_S: dict[EnvironmentKind, float] = {
    EnvironmentKind.AMBIENT: 1.2e4,
    EnvironmentKind.NITROGEN_GLOVEBOX: 4.3e4,
    EnvironmentKind.HIGH_VACUUM: 6.9e4,
}


@dataclass(frozen=True)
class SimConfig:
    """Kinetics and response configuration for trajectory simulation."""

    env_tau_s: Mapping[EnvironmentKind, float] = field(
        default_factory=lambda: dict(DEFAULT_ENV_TAU_S)
    )
    relax_gas_to_gas_s: float = 3.0 * DAY_S
    relax_vacuum_to_gas_s: float = 0.5 * DAY_S
    thermal_response: Mapping[tuple[float, EnvironmentKind], float] = field(
        default_factory=lambda: dict(DEFAULT_THERMAL_RESPONSE)
    )
    voltage_jump_mean: float = 0.16
    voltage_jump_sd: float = 0.02
    voltage_drift_a: float = 0.05
    voltage_drift_tau_s: float = 5.0e4
    floor_at_r0: bool = True

    def __post_init__(self):
        for name in ("voltage_jump_mean", "voltage_jump_sd", "voltage_drift_a"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v}")
        for kind, tau in self.env_tau_s.items():
            if not isinstance(kind, EnvironmentKind):
                raise ParameterError(f"env tau key {kind!r} is not an EnvironmentKind")
            if not (math.isfinite(tau) and tau > 0):
                raise ParameterError(f"env tau for {kind.value!r} must be finite and > 0, "
                                     f"got {tau}")
        for name in ("relax_gas_to_gas_s", "relax_vacuum_to_gas_s", "voltage_drift_tau_s"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {v}")
        if self.voltage_jump_sd < 0 or self.voltage_drift_a < 0:
            raise ParameterError("voltage response parameters must be >= 0")
        if not isinstance(self.floor_at_r0, bool):
            raise ParameterError(f"floor_at_r0 must be a bool, got {self.floor_at_r0!r}")
        for key, step in self.thermal_response.items():
            temp, env = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if not isinstance(env, EnvironmentKind):
                raise ParameterError(f"thermal response key {key!r} is not a "
                                     f"(temperature, EnvironmentKind) pair")
            if not (isinstance(temp, numbers.Real) and math.isfinite(temp)):
                raise ParameterError(f"thermal response temperature {temp!r} C in "
                                     f"{env.value!r} is not a finite number")
            if not (math.isfinite(step) and step > -1.0):
                raise ParameterError(f"thermal response for {temp} C in {env.value!r} "
                                     f"must be finite and > -1")

    def relax_time_s(self, old: EnvironmentKind, new: EnvironmentKind) -> float:
        """Relaxation time for the transition class old -> new."""
        if old is EnvironmentKind.HIGH_VACUUM and new is not EnvironmentKind.HIGH_VACUUM:
            return self.relax_vacuum_to_gas_s
        return self.relax_gas_to_gas_s


@dataclass(frozen=True)
class TrajectoryState:
    """Junction state at time ``t_s``.

    ``y_env`` is the environment-relaxation component of the fractional
    aging; voltage/thermal anneals contribute through ``anneal_gain`` and
    the optional ``post_anneal`` drift.  ``y`` exposes the observable total
    R/R0 - 1 at the state's own time.
    """

    t_s: float = 0.0
    y_env: float = 0.0
    anneal_gain: float = 1.0
    post_anneal: AgingParams | None = None
    post_anneal_t0_s: float = 0.0

    def __post_init__(self):
        for name in ("t_s", "anneal_gain", "post_anneal_t0_s"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.anneal_gain > 0:
            raise ParameterError(f"anneal_gain must be > 0, got {self.anneal_gain}")
        _check_y_env(self.y_env)

    def drift_factor(self, t_s: float | None = None) -> float:
        """Multiplicative post-anneal drift factor at time ``t_s``."""
        if self.post_anneal is None:
            return 1.0
        dt = max((self.t_s if t_s is None else t_s) - self.post_anneal_t0_s, 0.0)
        p = self.post_anneal
        return 1.0 + p.a * math.log(dt / p.tau_s + p.b)

    @property
    def y(self) -> float:
        """Observable fractional aging R/R0 - 1 at the state's time."""
        return (1.0 + self.y_env) * self.anneal_gain * self.drift_factor() - 1.0


def _check_y_env(y_env: float) -> None:
    if not -1.0 <= y_env < math.inf:
        raise ParameterError(f"fractional aging cannot go below -1 or be non-finite, got {y_env}")


# The anneal channel at rest: gain 1.0 and no post-anneal drift.
_AT_REST = TrajectoryState()


def _segment(
    y_env: float, t_a: float, t_b: float, a: float, tau: float, b: float, relax_s: float
) -> float:
    """Map y_env from t_a to t_b under one environment, exactly.

    The gap to the bound curve ``a ln(t / tau + b)`` decays by
    ``exp(-(t_b - t_a) / relax_s)``.
    """
    span = t_b - t_a
    if span <= 0:
        return y_env
    gap = y_env - a * math.log(t_a / tau + b)
    return a * math.log(t_b / tau + b) + gap * math.exp(-span / relax_s)


def _tau(env: EnvironmentKind, cfg: SimConfig, tau_scale: float) -> float:
    if env not in cfg.env_tau_s:
        raise ConfigurationError(f"no timescale configured for environment {env.value!r}")
    return cfg.env_tau_s[env] * tau_scale


def _tau_scale(params: AgingParams, home: EnvironmentKind, cfg: SimConfig) -> float:
    """``params.tau_s``, the junction's timescale in ``home``, over the
    configured one there: the factor on every environment's timescale."""
    scale = params.tau_s / _tau(home, cfg, 1.0)
    if not 0.0 < scale < math.inf:
        raise ParameterError(f"tau_s = {params.tau_s!r} s scales the {home.value!r} "
                             f"timescale by {scale!r}, not by a finite factor > 0")
    return scale


def apply_voltage_anneal(
    state: TrajectoryState, ev: AnnealEvent, cfg: SimConfig, rng_seed: int
) -> TrajectoryState:
    """Apply an alternating-bias anneal: multiplicative jump plus fresh drift.

    The jump fraction is drawn from the configured response distribution
    (deterministic for sd = 0).  Any drift from a previous anneal is frozen
    into the gain and a new drift with origin ``ev.t_s`` is installed; the
    drift parameters are in fractional units (reference resistance 1).
    """
    if not isinstance(ev.kind, VoltageAnneal):
        raise TypeError("apply_voltage_anneal requires a voltage event")
    rng = np.random.default_rng(rng_seed)
    jump = cfg.voltage_jump_mean + cfg.voltage_jump_sd * float(rng.standard_normal())
    if jump <= -1.0:
        raise ParameterError(f"drawn voltage response {jump} would zero the resistance")
    gain = state.anneal_gain * state.drift_factor(ev.t_s) * (1.0 + jump)
    drift = AgingParams(a=cfg.voltage_drift_a, tau_s=cfg.voltage_drift_tau_s, b=1.0, r0_ohm=1.0)
    return replace(
        state,
        anneal_gain=gain,
        post_anneal=drift,
        post_anneal_t0_s=ev.t_s,
    )


def apply_thermal_anneal(
    state: TrajectoryState, ev: AnnealEvent, cfg: SimConfig
) -> TrajectoryState:
    """Apply one oven step from the configured response table.

    With ``floor_at_r0`` set the observable resistance is clamped at its
    initial-time value: annealing can relax the junction toward its
    as-fabricated state but not below it.  A state whose resistance is zero
    (``y_env = -1``) cannot be lifted to the floor: ``ParameterError``.
    """
    if not isinstance(ev.kind, ThermalAnneal):
        raise TypeError("apply_thermal_anneal requires a thermal event")
    key = (ev.kind.temp_c, ev.kind.env)
    if key not in cfg.thermal_response:
        raise ConfigurationError(
            f"no thermal response configured for {ev.kind.temp_c} C in {ev.kind.env.value!r}"
        )
    step = cfg.thermal_response[key]
    gain = state.anneal_gain * (1.0 + step)
    drift = state.drift_factor(ev.t_s)
    if cfg.floor_at_r0:
        total = (1.0 + state.y_env) * gain * drift
        if total < 1.0:
            base = (1.0 + state.y_env) * drift
            if base == 0.0:
                raise ParameterError(f"the R0 floor cannot raise a zero resistance "
                                     f"(y_env = {state.y_env!r}, drift factor = {drift!r})")
            gain = 1.0 / base
    return replace(state, anneal_gain=gain)


def _check_seed(seed) -> None:
    """Seeds feed ``np.random.SeedSequence``, which takes only integers >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


def _spawn_entropy(seed, *key) -> np.ndarray:
    """The entropy pool input of ``SeedSequence(entropy=seed, spawn_key=key)``.

    numpy splits the seed into 32-bit words, low word first (zero is the
    single word 0), pads them with zeros to the pool size of 4 words when
    a spawn key is given, and appends the words of each key element.
    ``SeedSequence(_spawn_entropy(seed, *key))`` hashes that same word
    array, so it generates the same state as the spawn-key form at a
    fraction of its construction cost.  ``tests/test_seed_entropy.py``
    checks this against the installed numpy.
    """
    words = _words(int(seed))
    if key and len(words) < 4:
        words += [0] * (4 - len(words))
    for k in key:
        words += _words(int(k))
    return np.array(words, dtype=np.uint32)


def _words(n: int) -> list[int]:
    """32-bit words of an integer >= 0, low word first; [0] for zero."""
    words = []
    while n:
        words.append(n & 0xFFFF_FFFF)
        n >>= 32
    return words or [0]


def _event_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(_spawn_entropy(seed, index))
    return int(ss.generate_state(1)[0])


def _piece(
    t: np.ndarray,
    r0_ohm: float,
    s: float,
    y_env: float,
    a: float,
    tau: float,
    b: float,
    relax_s: float,
    anneal: TrajectoryState,
) -> np.ndarray:
    """Resistances at sample times ``t`` >= s of one storage piece.

    The piece starts from ``y_env`` at time ``s`` and runs under one
    environment and one anneal channel, so every sample is ``_segment``'s
    map from s written over an array:
    ``y = a ln(t/tau + b) + gap exp(-(t - s)/relax)``.  A piece on its bound
    (gap exactly 0.0) skips the relaxation term, which adds exactly 0.0.
    """
    y = a * np.log(t / tau + b)
    gap = y_env - a * math.log(s / tau + b)
    if gap:
        y += gap * np.exp((s - t) / relax_s)
    # r0 * (1 + y) * gain, formed in place; an inert anneal channel (gain
    # exactly 1.0, no drift) skips the multiplication, which would be exact.
    y += 1.0
    y *= r0_ohm
    gain = anneal.anneal_gain
    p = anneal.post_anneal
    if p is not None:
        gain = gain * (1.0 + p.a * np.log((t - anneal.post_anneal_t0_s) / p.tau_s + p.b))
    elif gain == 1.0:
        return y
    y *= gain
    return y


def _check_sample_times(t: np.ndarray) -> None:
    """Refuse 1-D sample times that are not finite, >= 0 and nondecreasing.

    Times in order need only their ends checked: every comparison with a
    NaN is False, so a NaN anywhere fails the pairwise test, as do -inf
    first and +inf last.  Only times that fail it pay for the two full
    checks, which pick the message.
    """
    if not t.size or (t[0] >= 0 and t[-1] < math.inf and (t[1:] >= t[:-1]).all()):
        return
    # A NaN makes min and max NaN, so it fails this check too.
    if not (t.min() >= 0 and t.max() < math.inf):
        raise ValidationError("sample times must be finite and >= 0")
    raise ValidationError("sample times must be nondecreasing")


def _in_force(schedule: StorageSchedule, cfg: SimConfig, t_s: float):
    """The environment and relaxation time in force at ``t_s``, and the
    schedule swaps after it.  The segment in force is the last one starting
    at or before ``t_s`` (the first for t_s < 0 and NaN); its relaxation time
    is set by the swap into it, and is gas-to-gas for the first segment."""
    k = bisect_right(schedule.segments, t_s, key=lambda seg: seg[0]) - 1 if t_s >= 0.0 else 0
    env = schedule.segments[k][1]
    relax = cfg.relax_time_s(schedule.segments[k - 1][1], env) if k else cfg.relax_gas_to_gas_s
    return env, relax, schedule.segments[k + 1:]


def _run_from(t0: float, y0: float, schedule: StorageSchedule, events: Sequence[AnnealEvent],
              seed: int, t: np.ndarray, params: AgingParams, tau_scale: float, cfg: SimConfig,
              cuts=None) -> np.ndarray:
    """Resistances at sample times ``t`` of a junction at ``y_env = y0`` at
    ``t0``, in the segment of ``schedule`` in force then and at rest in the
    anneal channel, that then meets the later swaps and ``events``.

    ``events`` are sorted and none is before ``t0``; event k's voltage draw
    is seeded by ``_event_seed(seed, k)``.  Swaps and events are applied in
    time order, swaps first at equal times, also after the last sample.  A
    sample at a breakpoint's time comes after it, unless ``cuts`` is given:
    ``cuts[i]`` is the index of the first (nondecreasing) sample after
    breakpoint i.  This is the only code that maps a state across
    breakpoints; with none, its one piece is what ``simulate_trajectory``
    evaluates for a breakpoint-free junction.  The bound curves are
    ``params``' amplitude and offset with each environment's timescale times
    ``tau_scale``; ``params.tau_s`` is not read.
    """
    _check_y_env(y0)
    env, relax_s, breaks = _in_force(schedule, cfg, t0)
    if events:
        breaks = sorted(
            [*breaks, *((ev.t_s, (k, ev)) for k, ev in enumerate(events))],
            key=lambda bp: (bp[0], isinstance(bp[1], tuple)),
        )
    if cuts is None:
        cuts = np.searchsorted(t, [bp[0] for bp in breaks]).tolist()
    a, b, r0_ohm = params.a, params.b, params.r0_ohm
    tau = _tau(env, cfg, tau_scale)
    s, y_env = t0, y0
    # ``anneal`` carries the anneal channel; it is rebuilt only when an
    # event is applied.
    anneal = _AT_REST
    pieces = []
    lo = 0
    for (t_bp, payload), stop in zip(breaks, cuts):
        if stop > lo:
            pieces.append(_piece(t[lo:stop], r0_ohm, s, y_env, a, tau, b, relax_s, anneal))
            lo = stop
        y_env = _segment(y_env, s, t_bp, a, tau, b, relax_s)
        s = t_bp
        if isinstance(payload, EnvironmentKind):
            relax_s = cfg.relax_time_s(env, payload)
            env = payload
            tau = _tau(env, cfg, tau_scale)
        else:
            k, ev = payload
            state = replace(anneal, t_s=s, y_env=y_env)
            if isinstance(ev.kind, VoltageAnneal):
                anneal = apply_voltage_anneal(state, ev, cfg, _event_seed(seed, k))
            else:
                anneal = apply_thermal_anneal(state, ev, cfg)
    pieces.append(_piece(t[lo:], r0_ohm, s, y_env, a, tau, b, relax_s, anneal))
    # One piece that covers every sample is returned as _piece built it.
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def simulate_trajectory(
    schedule: StorageSchedule,
    events: Sequence[AnnealEvent],
    cfg: SimConfig,
    params: AgingParams,
    sample_t_s: Sequence[float],
    seed: int = 0,
) -> np.ndarray:
    """Simulate one junction through a storage schedule with anneal events.

    Schedule swaps and events are breakpoints, ordered by time and, at equal
    times, swaps before events; samples at a breakpoint's time come after
    it.  The breakpoints cut the sample times into storage pieces, which
    ``_run_from`` evaluates from the t = 0 state.  A junction with no
    breakpoints (one segment and no events) is one closed-form piece from
    t = 0, evaluated by ``_piece`` directly, after the same checks; its
    bytes are those the engine gives.

    Parameters
    ----------
    schedule : StorageSchedule
        Environment timeline starting at t = 0.
    events : sequence of AnnealEvent
        Sorted by time; applied atomically at their timestamps (before any
        sample at the same instant).  Every event is applied, also those
        after the last sample.
    cfg : SimConfig
        Environment timescales, relaxation times and anneal responses.
    params : AgingParams
        The junction's bound curve: amplitude ``a``, early-time offset ``b``
        and initial-time resistance ``r0_ohm`` (output resistances are
        r0 * (1 + y)).  ``tau_s`` is its timescale in the schedule's first
        environment; the ratio to that environment's configured timescale
        scales every environment's, and must be finite and > 0.
    sample_t_s : sequence of float
        Nondecreasing times at which to record the resistance.
    seed : int
        Drives the voltage-anneal response draws (an integer >= 0); identical
        inputs and seed give bit-identical trajectories.

    Returns
    -------
    numpy.ndarray
        float64 resistances in ohm, one per entry of ``sample_t_s``.
    """
    _check_seed(seed)
    t = np.asarray(sample_t_s, dtype=float)
    if t.ndim != 1:
        raise ValidationError("sample times must be a 1-D sequence")
    _check_sample_times(t)
    ev_times = [ev.t_s for ev in events]
    if any(b < a for a, b in zip(ev_times, ev_times[1:])):
        raise ValidationError("events must be sorted by time")

    # An environment without a timescale is refused before any event runs.
    for _, env in schedule.segments:
        _tau(env, cfg, 1.0)
    tau_scale = _tau_scale(params, schedule.segments[0][1], cfg)
    # A junction with early-time offset b starts on its bound, slightly
    # pre-aged: y(0) = a ln(b).
    y0 = params.a * math.log(params.b)
    _check_y_env(y0)
    if len(schedule.segments) == 1 and not events:
        # No breakpoints: one piece from t = 0, under the one segment's
        # timescale, holds every sample, as _run_from would evaluate it.
        return _piece(t, params.r0_ohm, 0.0, y0, params.a, _tau(env, cfg, tau_scale), params.b,
                      cfg.relax_gas_to_gas_s, _AT_REST)
    return _run_from(0.0, y0, schedule, events, seed, t, params, tau_scale, cfg)
