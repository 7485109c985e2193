"""Reference chip pipeline: the scalar-draw ``draw_chip`` and the
per-record ``simulate_chip`` and ``aggregate_series``, kept as a test
oracle.

``jjaging.ensemble`` draws each junction's normals as one block, and fills
and groups numpy columns.  This module keeps the original versions, which
take one scalar draw at a time, build one ``Row`` per measurement and group
lists of rows, so that tests can require equal outputs from the two.  It
uses only the package's public API.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

from jjaging.ensemble import ChipSpec, DrawnChip
from jjaging.errors import InsufficientDataError, ParameterError, ValidationError
from jjaging.model import AgingParams
from jjaging.trajectory import (
    AnnealEvent,
    SimConfig,
    StorageSchedule,
    simulate_trajectory,
)


def _environment_at(schedule: StorageSchedule, t: float):
    """The environment of the last segment starting at or before ``t``, by a
    linear scan; the first segment's before t = 0."""
    env = schedule.segments[0][1]
    for start, seg_env in schedule.segments:
        if t >= start:
            env = seg_env
    return env


class Row(NamedTuple):
    """One measurement, in the order of a dataset's columns."""

    chip_id: str
    junction_id: int
    t_s: float
    r_ohm: float | None
    env_label: str
    flag: str


def _truncated_normal(rng: np.random.Generator, mean: float, sd: float) -> float:
    """Normal draw redrawn until positive; degenerate sd returns the mean."""
    if sd == 0.0:
        return mean
    for _ in range(10_000):
        v = mean + sd * float(rng.standard_normal())
        if v > 0:
            return v
    raise ParameterError(
        f"truncated normal(mean={mean}, sd={sd}) failed to produce a positive draw"
    )


def reference_draw_chip(spec: ChipSpec, seed: int) -> DrawnChip:
    """Realize per-junction parameters from the chip population, one scalar
    draw at a time, in the fixed order r0, a, ln tau, b, open."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    junctions = []
    for _ in range(spec.n_junctions):
        r0 = _truncated_normal(rng, spec.r0_mean_ohm, spec.r0_cv * spec.r0_mean_ohm)
        a = spec.a_mean if spec.a_sd == 0 else _truncated_normal(rng, spec.a_mean, spec.a_sd)
        tau = math.exp(spec.log_tau_mean + spec.log_tau_sd * float(rng.standard_normal()))
        b = _truncated_normal(rng, spec.b_mean, spec.b_sd)
        is_open = bool(rng.random() < spec.open_prob)
        junctions.append((AgingParams(a=a, tau_s=tau, b=b, r0_ohm=r0), is_open))
    return DrawnChip(junctions=tuple(junctions), spec=spec)


def _junction_seed(seed: int, junction_id: int, stream: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, junction_id))
    return int(ss.generate_state(1)[0])


def reference_simulate_chip(
    chip: DrawnChip,
    schedule: StorageSchedule,
    events: Sequence[AnnealEvent],
    sample_t_s: Sequence[float],
    cfg: SimConfig,
    seed: int,
    chip_id: str = "chip",
) -> list[Row]:
    """Simulate every junction of a drawn chip through a shared schedule.

    The drawn per-junction timescale is interpreted in the first segment's
    environment and carried to the others as a common scale factor.  Records
    get independent multiplicative measurement noise (1 + eta), eta normal
    with sd ``chip.spec.noise_sigma``; open junctions yield flag="open" rows
    with no resistance.  Events carrying ``junction_ids`` apply only to
    those junctions.  Rows come junction by junction, each in sample
    order.
    """
    home_kind = schedule.segments[0][1].kind
    if home_kind not in cfg.env_tau_s:
        raise ValidationError(f"config lacks a timescale for {home_kind.value!r}")
    noise_sigma = chip.spec.noise_sigma

    rows: list[Row] = []
    for j, (params, is_open) in enumerate(chip.junctions):
        if is_open:
            for t in sample_t_s:
                rows.append(
                    Row(
                        chip_id=chip_id, junction_id=j, t_s=float(t), r_ohm=None,
                        env_label=_environment_at(schedule, float(t)).kind.value,
                        flag="open",
                    )
                )
            continue
        ev_j = [ev for ev in events if ev.junction_ids is None or j in ev.junction_ids]
        traj = simulate_trajectory(
            schedule, ev_j, cfg, params, sample_t_s, seed=_junction_seed(seed, j, 0),
        )
        noise_rng = np.random.default_rng(_junction_seed(seed, j, 1))
        eta = noise_sigma * noise_rng.standard_normal(len(traj))
        for t, r, e in zip(sample_t_s, traj, eta):
            t = float(t)
            rows.append(
                Row(
                    chip_id=chip_id, junction_id=j, t_s=t, r_ohm=r * (1.0 + e),
                    env_label=_environment_at(schedule, t).kind.value, flag="ok",
                )
            )
    return rows


def reference_aggregate_series(
    rows: Sequence[Row], window_s: float = 600.0
) -> list[tuple[float, float, float, int]]:
    """Per-time aggregates (t_s, mean R, CV, n_used) over usable rows.

    Rows are grouped by sample time: times within ``window_s`` of a
    group's first time belong to that group.  Groups with a single usable
    row report CV = nan with n_used = 1.  Rows of equal time are reduced in
    the order given, which for a dataset is (junction_id, t_s) order.
    """
    usable = [r for r in rows if r.flag == "ok"]
    if not usable:
        raise InsufficientDataError("dataset has no usable records")
    usable.sort(key=lambda r: r.t_s)
    groups: list[list[Row]] = []
    anchor = None
    for rec in usable:
        if anchor is None or rec.t_s - anchor > window_s:
            groups.append([rec])
            anchor = rec.t_s
        else:
            groups[-1].append(rec)
    out = []
    for grp in groups:
        rs = np.asarray([r.r_ohm for r in grp])
        t = float(np.mean([r.t_s for r in grp]))
        mean = float(np.mean(rs))
        cv = float(np.std(rs, ddof=1) / mean) if len(rs) >= 2 else float("nan")
        out.append((t, mean, cv, len(rs)))
    return out
