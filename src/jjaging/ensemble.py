"""Chip-level Monte Carlo: junction-to-junction variability and aggregates.

A test chip carries 16 nominally identical junctions.  Device-to-device
spread enters through the initial resistance (normal, truncated positive),
the aging amplitude and early-time offset (normal, truncated positive), and
the aging timescale (log-normal: normal in ln tau, matching the asymmetric
timescale histograms seen across a chip).  Timescale heterogeneity is
carried as a per-junction scale factor applied to every environment, i.e.
it is attributed to the environment-coupled channel, which is what makes
the resistance spread grow under ambient storage.

Fabrication failures are modeled as open junctions (Bernoulli per
junction): they report no resistance and are excluded from aggregates.

A ``ChipDataset`` holds one chip's measurements as numpy columns and names
its chip once, by a single ``chip_id`` string.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, ValidationError
from .model import AgingParams, EnvironmentKind
from .trajectory import (
    DAY_S,
    AnnealEvent,
    SimConfig,
    StorageSchedule,
    VoltageAnneal,
    _check_sample_times,
    _check_seed,
    _spawn_entropy,
    _tau,
    simulate_trajectory,
)

__all__ = [
    "OPEN_RESISTANCE_THRESHOLD_OHM",
    "FLAGS",
    "ENV_LABELS",
    "ChipSpec",
    "MeasurementRecord",
    "ChipDataset",
    "DrawnChip",
    "draw_chip",
    "simulate_chip",
    "aggregate_series",
]

# Ingestion rule for real data: resistances above this (or non-finite ones)
# are treated as open junctions.
OPEN_RESISTANCE_THRESHOLD_OHM = 1.0e6
# Most junctions a chip may hold, and the widest ``lo-hi`` range an event line
# may name; far above any chip, it keeps a typo from expanding into billions
# of junctions or ids.
MAX_JUNCTION_RANGE = 2**16

FLAGS = ("ok", "open", "excluded")
FLAG_OK, FLAG_OPEN = FLAGS.index("ok"), FLAGS.index("open")
# Environment labels a dataset row can carry, in code order.
ENV_LABELS = tuple(kind.value for kind in EnvironmentKind) + ("unknown",)
_ENV_CODE = {label: code for code, label in enumerate(ENV_LABELS)}
_FLAG_CODE = {label: code for code, label in enumerate(FLAGS)}


@dataclass(frozen=True)
class ChipSpec:
    """Statistical description of one chip's junction population."""

    r0_mean_ohm: float
    r0_cv: float
    a_mean: float
    a_sd: float = 0.0
    log_tau_mean: float = math.log(1.2e4)
    log_tau_sd: float = 0.0
    b_mean: float = 1.0
    b_sd: float = 0.0
    n_junctions: int = 16
    open_prob: float = 0.0
    noise_sigma: float = 0.003

    def __post_init__(self):
        n = self.n_junctions
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"n_junctions must be an integer >= 1, got {n!r}")
        if n > MAX_JUNCTION_RANGE:
            raise ValidationError(f"n_junctions must be <= {MAX_JUNCTION_RANGE}, got {n}")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.r0_mean_ohm <= 0:
            raise ParameterError("r0_mean_ohm must be > 0")
        if self.a_mean < 0 or self.b_mean <= 0:
            raise ParameterError("a_mean must be >= 0 and b_mean > 0")
        for name in ("r0_cv", "a_sd", "log_tau_sd", "b_sd", "noise_sigma"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if not 0.0 <= self.open_prob < 1.0:
            raise ParameterError("open_prob must be in [0, 1)")


@dataclass(frozen=True)
class MeasurementRecord:
    """One row of ``ChipDataset.records``: a timestamped resistance
    measurement of one junction."""

    chip_id: str
    junction_id: int
    t_s: float
    r_ohm: float | None
    env_label: str = "unknown"
    flag: str = "ok"

    def __post_init__(self):
        if self.flag not in FLAGS:
            raise ValidationError(f"unknown flag {self.flag!r}")
        if self.flag != "open":
            if self.r_ohm is None or not (np.isfinite(self.r_ohm) and self.r_ohm > 0):
                raise ValidationError(
                    f"junction {self.junction_id} at t={self.t_s}: resistance must be "
                    "finite and > 0 unless flagged open"
                )


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Indices where a new value begins in a sorted 1-D array."""
    if not sorted_values.size:
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))


class ChipDataset:
    """Measurements of one chip as read-only numpy columns.

    Columns, one entry per row: ``junction_id`` (int64), ``t_s`` (float64),
    ``r_ohm`` (float64, NaN where a row has no resistance), ``env`` and
    ``flag`` (int8 codes into ``ENV_LABELS`` and ``FLAGS``).  ``chip_id`` is
    one string naming the chip every row belongs to.  Rows are sorted once,
    stably, by (junction_id, t_s) and validated once: times finite, codes
    known, and a finite resistance > 0 on every row not flagged open.
    """

    __slots__ = ("junction_id", "t_s", "r_ohm", "env", "flag", "chip_id")

    def __init__(
        self,
        junction_id,
        t_s,
        r_ohm,
        env,
        flag,
        chip_id: str,
    ):
        if not isinstance(chip_id, str):
            raise ValidationError(f"chip_id must be one string, got {chip_id!r}")
        cols = {
            "junction_id": np.asarray(junction_id, dtype=np.int64),
            "t_s": np.asarray(t_s, dtype=float),
            "r_ohm": np.asarray(r_ohm, dtype=float),
            "env": np.asarray(env, dtype=np.int8),
            "flag": np.asarray(flag, dtype=np.int8),
        }
        n = cols["t_s"].size
        if any(c.shape != (n,) for c in cols.values()):
            raise ValidationError("dataset columns must be 1-D and of equal length")
        t, r, f, e = cols["t_s"], cols["r_ohm"], cols["flag"], cols["env"]
        if not np.isfinite(t).all():
            raise ValidationError("measurement times must be finite")
        if ((f < 0) | (f >= len(FLAGS))).any():
            raise ValidationError("unknown flag code")
        if ((e < 0) | (e >= len(ENV_LABELS))).any():
            raise ValidationError("unknown environment code")
        bad = np.flatnonzero((f != FLAG_OPEN) & ~(np.isfinite(r) & (r > 0)))
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"junction {cols['junction_id'][i]} at t={t[i]}: resistance must be "
                "finite and > 0 unless flagged open"
            )
        order = np.lexsort((t, cols["junction_id"]))
        for name, col in cols.items():
            col = col[order]
            col.flags.writeable = False
            setattr(self, name, col)
        self.chip_id = chip_id

    @property
    def records(self) -> tuple[MeasurementRecord, ...]:
        """The rows as MeasurementRecords, built anew on every access.

        A read-only view kept for the benchmark, which reads it; it and
        ``MeasurementRecord`` go with ROADMAP item 1.
        """
        return tuple(map(
            MeasurementRecord,
            [self.chip_id] * len(self),
            self.junction_id.tolist(),
            self.t_s.tolist(),
            [None if math.isnan(r) else r for r in self.r_ohm.tolist()],
            [ENV_LABELS[e] for e in self.env.tolist()],
            [FLAGS[f] for f in self.flag.tolist()],
        ))

    def __len__(self) -> int:
        return self.t_s.size

    def __repr__(self) -> str:
        return f"ChipDataset({len(self)} rows, junctions {self.junction_ids()})"

    def junction_ids(self) -> list[int]:
        return self.junction_id[_run_starts(self.junction_id)].tolist()

    def junction_rows(self) -> list[tuple[int, int, int]]:
        """(junction_id, start, stop): each junction's row range, by id."""
        starts = _run_starts(self.junction_id)
        stops = np.append(starts[1:], len(self))
        return list(zip(self.junction_id[starts].tolist(), starts.tolist(), stops.tolist()))


@dataclass(frozen=True)
class DrawnChip:
    """Per-junction aging parameters plus open flags realized from a ChipSpec."""

    junctions: tuple[tuple[AgingParams, bool], ...]
    spec: ChipSpec

    def __iter__(self):
        return iter(self.junctions)

    def __len__(self):
        return len(self.junctions)


def _truncated_normal(z, mean: float, sd: float) -> float:
    """Normal draw redrawn until positive, taking values from the iterator
    ``z`` of standard normals; degenerate sd returns the mean and takes
    none."""
    if sd == 0.0:
        return mean
    for _ in range(10_000):
        v = mean + sd * next(z)
        if v > 0:
            return v
    raise ParameterError(
        f"truncated normal(mean={mean}, sd={sd}) failed to produce a positive draw"
    )


def _normals(rng: np.random.Generator, k: int):
    """The next standard normals of ``rng``: ``k`` drawn as one block, then
    one scalar draw each.  A Generator fills a block element by element
    from its bit stream, exactly as successive scalar draws take it, so the
    values and the state after them are those of scalar draws."""
    yield from rng.standard_normal(k).tolist()
    while True:
        yield float(rng.standard_normal())


def draw_chip(spec: ChipSpec, seed: int) -> DrawnChip:
    """Realize per-junction parameters from the chip population.

    Draw order per junction is fixed (r0, a, ln tau, b, open) so results are
    reproducible for a given seed (an integer >= 0).  With all spreads zero
    every junction equals the population means.

    Each junction takes its normals as one block of as many values as it
    draws without a redraw (one per nonzero spread, and ln tau always), and
    uses them in the draw order; a truncated draw that is redrawn past the
    block takes scalar draws, and the open flag is drawn last.  This is the
    same stream, value for value, as one scalar draw at a time.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    r0_sd = spec.r0_cv * spec.r0_mean_ohm
    # The ``sd == 0.0`` tests of _truncated_normal: r0's sd is a product and
    # can underflow to 0.0 while r0_cv is not.
    k = 1 + (r0_sd != 0.0) + (spec.a_sd != 0.0) + (spec.b_sd != 0.0)
    junctions = []
    for _ in range(spec.n_junctions):
        z = _normals(rng, k)
        r0 = _truncated_normal(z, spec.r0_mean_ohm, r0_sd)
        a = _truncated_normal(z, spec.a_mean, spec.a_sd)
        log_tau = spec.log_tau_mean + spec.log_tau_sd * next(z)
        try:
            tau = math.exp(log_tau)
        except OverflowError:
            raise ParameterError(
                f"drawn tau_s = exp({log_tau:g}) s overflows a float; lower log_tau_mean "
                "or log_tau_sd"
            ) from None
        b = _truncated_normal(z, spec.b_mean, spec.b_sd)
        # rng.random() is a Python float, so the open flag is a bool.
        junctions.append((AgingParams(a, tau, b, r0), rng.random() < spec.open_prob))
    return DrawnChip(junctions=tuple(junctions), spec=spec)


def _junction_seed(seed: int, junction_id: int) -> int:
    """Junction ``junction_id``'s anneal seed: the first word of
    ``SeedSequence(entropy=seed, spawn_key=(0, junction_id))``.  Its
    voltage draw for the i-th event that touches it is seeded by
    ``_event_seed(_junction_seed(seed, j), i)``; its measurement noise comes
    from spawn key (1, junction_id).  The sequence is built from the same
    entropy words through ``_spawn_entropy``, so the seed is the same as the
    spawn-key form gives."""
    ss = np.random.SeedSequence(_spawn_entropy(seed, 0, junction_id))
    return int(ss.generate_state(1)[0])


def _junction_events(events, seed: int, j: int) -> tuple[list[int], int]:
    """The indices in ``events`` of those that touch junction ``j``, and the
    seed of its anneal draws: ``_junction_seed(seed, j)`` if one of them is
    a voltage anneal (the only kind that draws), else 0."""
    ks = [k for k, ev in enumerate(events) if ev.junction_ids is None or j in ev.junction_ids]
    draws = any(isinstance(events[k].kind, VoltageAnneal) for k in ks)
    return ks, _junction_seed(seed, j) if draws else 0


def _id_runs(ids) -> str:
    """Sorted distinct junction ids as runs: ``0-2+5``."""
    ids = sorted(set(ids))
    cuts = [k for k in range(1, len(ids)) if ids[k] != ids[k - 1] + 1]
    return "+".join(str(ids[a]) if b - a == 1 else f"{ids[a]}-{ids[b - 1]}"
                    for a, b in zip([0, *cuts], [*cuts, len(ids)]))


def _check_event_junctions(events: Sequence[AnnealEvent], ids) -> None:
    """Refuse an event naming a junction not in ``ids``: it would do nothing there."""
    for ev in events:
        absent = [j for j in ev.junction_ids or () if j not in ids]
        if absent:
            raise ValidationError(f"event at day {ev.t_s / DAY_S:g} names junctions the chip "
                                  f"does not have: {_id_runs(absent)}")


def _stack(row: np.ndarray, n: int) -> np.ndarray:
    """``n`` copies of ``row`` as the rows of a new array: ``np.tile(row, (n,
    1))`` without its Python-level reshaping."""
    out = np.empty((n, row.size), row.dtype)
    out[:] = row
    return out


def simulate_chip(
    chip: DrawnChip,
    schedule: StorageSchedule,
    events: Sequence[AnnealEvent],
    sample_t_s: Sequence[float],
    cfg: SimConfig,
    seed: int,
    chip_id: str = "chip",
) -> ChipDataset:
    """Simulate every junction of a drawn chip through a shared schedule.

    Each junction's drawn ``AgingParams`` go to ``simulate_trajectory`` as
    they are: its timescale is interpreted in the first segment's
    environment and carried to the others as a common scale factor.  Records
    get independent multiplicative measurement noise (1 + eta), eta normal
    with sd ``chip.spec.noise_sigma``; open junctions yield flag="open" rows
    with no resistance.  Events carrying ``junction_ids`` apply only to
    those junctions, which the chip must have.  Sample times must be
    strictly increasing, finite and >= 0, for every chip, also one whose
    junctions are all open, so every dataset returned can be saved and
    loaded back; ``seed`` must be an integer >= 0.  Each junction that is
    not open takes one ``simulate_trajectory`` call.
    """
    _check_seed(seed)
    _check_event_junctions(events, range(len(chip)))
    # Every segment's timescale is checked here too, for a chip whose
    # junctions are all open.
    for _, env in schedule.segments:
        _tau(env, cfg, 1.0)
    samples = np.asarray(sample_t_s, dtype=float)
    if samples.ndim != 1:
        raise ValidationError("sample times must be a 1-D sequence")
    # A dataset holds one row per (junction, time); so does its CSV.
    if (samples[1:] <= samples[:-1]).any():
        raise ValidationError("sample times must be strictly increasing")
    # Checked here too, not only by simulate_trajectory, which an open
    # junction never reaches.
    _check_sample_times(samples)
    n_j, n_s = len(chip), samples.size

    # Rows of a junctions x samples array; open junctions keep NaN.
    r = np.full((n_j, n_s), np.nan)
    z = np.zeros((n_j, n_s))
    is_open = np.zeros(n_j, dtype=bool)
    # Row j is _spawn_entropy(seed, 1, j): junction j's noise stream is
    # default_rng(w), w the first word that SeedSequence(row j) generates
    # (the one-word array seeds the same stream as the int would).
    noise_entropy = _stack(_spawn_entropy(seed, 1, 0), n_j)
    noise_entropy[:, -1] = np.arange(n_j)
    for j, (params, open_j) in enumerate(chip.junctions):
        if open_j:
            is_open[j] = True
            continue
        ev_j, anneal_seed = [], 0
        if events:
            ks, anneal_seed = _junction_events(events, seed, j)
            ev_j = [events[k] for k in ks]
        r[j] = simulate_trajectory(schedule, ev_j, cfg, params, samples, seed=anneal_seed)
        ss = np.random.SeedSequence(noise_entropy[j])
        z[j] = np.random.default_rng(ss.generate_state(1)).standard_normal(n_s)
    r *= 1.0 + chip.spec.noise_sigma * z

    starts = [start for start, _ in schedule.segments]
    seg_env = np.array([_ENV_CODE[env.value] for _, env in schedule.segments], np.int8)
    env = seg_env[np.searchsorted(starts, samples, side="right") - 1]
    return ChipDataset(
        junction_id=np.repeat(np.arange(n_j), n_s),
        t_s=_stack(samples, n_j).ravel(),
        r_ohm=r.ravel(),
        env=_stack(env, n_j).ravel(),
        flag=np.repeat(np.where(is_open, FLAG_OPEN, FLAG_OK), n_s),
        chip_id=chip_id,
    )


def aggregate_series(
    ds: ChipDataset, window_s: float = 600.0
) -> list[tuple[float, float, float, int]]:
    """Per-time aggregates (t_s, mean R, CV, n_used) over usable records.

    Records are grouped by sample time: times within ``window_s`` of a
    group's first time belong to that group (``window_s`` finite, >= 0).
    Groups with a single usable record report CV = nan with n_used = 1.

    The anchor loop visits only the first row of each run of equal times:
    ``ti - anchor`` is the same for every row of a run, so a run never
    splits and the group starts equal those of a loop over every row.

    Groups of equal size are reduced together as the rows of one 2-D block;
    numpy reduces each row along the fast axis exactly as it reduces a 1-D
    slice.  The mean and the ddof=1 standard deviation are the reductions
    that ``np.mean`` and ``np.std`` run (sum, divide, subtract the mean,
    square, sum, divide, sqrt), in their order, so the values equal
    per-group ``np.mean``/``np.std`` bit for bit.
    """
    if not (math.isfinite(window_s) and window_s >= 0):
        raise ValidationError(f"window_s must be finite and >= 0, got {window_s}")
    ok = ds.flag == FLAG_OK
    if not ok.any():
        raise InsufficientDataError("dataset has no usable records")
    order = np.argsort(ds.t_s[ok], kind="stable")
    t, rs = ds.t_s[ok][order], ds.r_ohm[ok][order]
    runs = _run_starts(t)
    starts, anchor = [], None
    for i, ti in zip(runs.tolist(), t[runs].tolist()):
        if anchor is None or ti - anchor > window_s:
            starts.append(i)
            anchor = ti
    lo = np.array(starts)
    size = np.diff(lo, append=t.size)
    t_mean, r_mean, cv = (np.full(lo.size, np.nan) for _ in range(3))
    for g in sorted(set(size.tolist())):
        sel = size == g
        rows = lo[sel, None] + np.arange(g)
        block = rs[rows]
        t_mean[sel] = np.add.reduce(t[rows], axis=1) / g
        mean = np.add.reduce(block, axis=1) / g
        r_mean[sel] = mean
        if g >= 2:
            dev = block - mean[:, None]
            np.square(dev, out=dev)
            cv[sel] = np.sqrt(np.add.reduce(dev, axis=1) / (g - 1)) / mean
    return list(zip(t_mean.tolist(), r_mean.tolist(), cv.tolist(), size.tolist()))
