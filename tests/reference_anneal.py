"""Reference anneal: the per-junction, per-step state loop, kept as a test oracle.

The CLI's ``anneal`` runs each junction through the one trajectory engine
(``jjaging.trajectory._run_from``) with the events that target it.  This
module keeps the loop it replaced: for every step and every junction it
calls ``propagate`` to the event, applies the event if it targets the
junction, and calls ``propagate`` again to the step's record, keeping the
states in a dict.  It uses only the package's public API; the per-junction
event seed is restated here in its spawn-key form.
"""

import math

import numpy as np

from jjaging import (
    AMBIENT,
    JunctionProfile,
    ThermalAnneal,
    TrajectoryState,
    apply_thermal_anneal,
    apply_voltage_anneal,
    propagate,
)
from jjaging.ensemble import FLAGS
from jjaging.model import EnvironmentKind

FLAG_OK = FLAGS.index("ok")


def _junction_seed(seed: int, junction_id: int, stream: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, junction_id))
    return int(ss.generate_state(1)[0])


def reference_anneal(ds, events, cfg, seed: int):
    """The records ``anneal`` appends and its step summary.

    ``events`` must be placeable (each starts at or after the previous
    record).  Returns ``(new_j, new_t, new_r, changes, min_r_over_r0)``:
    the appended rows in step-major order, each step's per-junction
    fractional changes, and the smallest R/R0 over the sequence.
    """
    tau_amb = cfg.env_tau_s[EnvironmentKind.AMBIENT]
    ok = ds.flag == FLAG_OK
    junctions = {}
    for j, lo, hi in ds.junction_rows():
        rows = lo + np.flatnonzero(ok[lo:hi])
        if not rows.size:
            continue
        r0 = float(ds.r_ohm[rows[0]])
        t_last, r_last = float(ds.t_s[rows[-1]]), float(ds.r_ohm[rows[-1]])
        y0 = r_last / r0 - 1.0
        a_eff = (
            max(y0, 0.0) / math.log(t_last / tau_amb + 1.0) if t_last > 0 else 0.0
        )
        junctions[j] = {
            "r0": r0,
            "curve": JunctionProfile(a=a_eff, b=1.0),
            "state": TrajectoryState(t_s=t_last, y_env=y0),
            "last_r": r_last,
        }

    new_j: list[int] = []
    new_t: list[float] = []
    new_r: list[float] = []
    step_changes = []
    min_r_over_r0 = min(
        info["last_r"] / info["r0"] for info in junctions.values()
    )
    for k, ev in enumerate(events):
        hold_s = ev.kind.hold_min * 60.0 if isinstance(ev.kind, ThermalAnneal) else 0.0
        t_meas = ev.t_s + hold_s
        changes = []
        for j, info in junctions.items():
            state = propagate(info["state"], ev.t_s, AMBIENT, cfg.relax_gas_to_gas_s,
                              info["curve"], cfg)
            if ev.junction_ids is None or j in ev.junction_ids:
                if isinstance(ev.kind, ThermalAnneal):
                    state = apply_thermal_anneal(state, ev, cfg)
                else:
                    state = apply_voltage_anneal(state, ev, cfg, _junction_seed(seed, j, k))
            state = propagate(state, t_meas, AMBIENT, cfg.relax_gas_to_gas_s, info["curve"], cfg)
            r_now = info["r0"] * (1.0 + state.y)
            changes.append(r_now / info["last_r"] - 1.0)
            min_r_over_r0 = min(min_r_over_r0, r_now / info["r0"])
            info["state"] = state
            info["last_r"] = r_now
            new_j.append(j)
            new_t.append(t_meas)
            new_r.append(r_now)
        step_changes.append(changes)
    return new_j, new_t, new_r, step_changes, min_r_over_r0
