"""Reference chip pipeline: the per-record ``simulate_chip`` and
``aggregate_series``, kept as a test oracle.

``jjaging.ensemble`` fills and groups numpy columns.  This module keeps the
original versions, which build one ``MeasurementRecord`` per row and group
lists of records, so that tests can require equal outputs from the two.  It
uses only the package's public API.
"""

from typing import Sequence

import numpy as np

from jjaging.ensemble import ChipDataset, DrawnChip, MeasurementRecord
from jjaging.errors import InsufficientDataError, ValidationError
from jjaging.trajectory import (
    AnnealEvent,
    JunctionProfile,
    SimConfig,
    StorageSchedule,
    simulate_trajectory,
)


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
) -> ChipDataset:
    """Simulate every junction of a drawn chip through a shared schedule.

    The drawn per-junction timescale is interpreted in the first segment's
    environment and carried to the others as a common scale factor.  Records
    get independent multiplicative measurement noise (1 + eta), eta normal
    with sd ``chip.spec.noise_sigma``; open junctions yield flag="open" rows
    with no resistance.  Events carrying ``junction_ids`` apply only to
    those junctions.
    """
    home_kind = schedule.segments[0][1].kind
    if home_kind not in cfg.env_tau_s:
        raise ValidationError(f"config lacks a timescale for {home_kind.value!r}")
    tau_home = cfg.env_tau_s[home_kind]
    noise_sigma = chip.spec.noise_sigma

    records: list[MeasurementRecord] = []
    for j, (params, is_open) in enumerate(chip.junctions):
        if is_open:
            for t in sample_t_s:
                records.append(
                    MeasurementRecord(
                        chip_id=chip_id, junction_id=j, t_s=float(t), r_ohm=None,
                        env_label=schedule.environment_at(float(t)).kind.value,
                        flag="open",
                    )
                )
            continue
        profile = JunctionProfile(a=params.a, b=params.b, tau_scale=params.tau_s / tau_home)
        ev_j = [ev for ev in events if ev.junction_ids is None or j in ev.junction_ids]
        traj = simulate_trajectory(
            schedule, ev_j, cfg, params.r0_ohm, sample_t_s,
            seed=_junction_seed(seed, j, 0), profile=profile,
        )
        noise_rng = np.random.default_rng(_junction_seed(seed, j, 1))
        eta = noise_sigma * noise_rng.standard_normal(len(traj))
        for (t, r), e in zip(traj, eta):
            records.append(
                MeasurementRecord(
                    chip_id=chip_id, junction_id=j, t_s=t, r_ohm=r * (1.0 + e),
                    env_label=schedule.environment_at(t).kind.value, flag="ok",
                )
            )
    return ChipDataset(records=tuple(records), spec=chip.spec, schedule=schedule)


def reference_aggregate_series(
    ds: ChipDataset, window_s: float = 600.0
) -> list[tuple[float, float, float, int]]:
    """Per-time aggregates (t_s, mean R, CV, n_used) over usable records.

    Records are grouped by sample time: times within ``window_s`` of a
    group's first time belong to that group.  Groups with a single usable
    record report CV = nan with n_used = 1.
    """
    usable = [r for r in ds.records if r.flag == "ok"]
    if not usable:
        raise InsufficientDataError("dataset has no usable records")
    usable.sort(key=lambda r: r.t_s)
    groups: list[list[MeasurementRecord]] = []
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
