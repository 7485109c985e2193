"""Reference anneal: the per-junction, per-step state loop, kept as a test oracle.

The CLI's ``anneal`` runs each junction through the one trajectory engine
(``jjaging.trajectory._run_from``) with the events that target it.  This
module keeps the loop it replaced: for every step and every junction it
advances the state to the event, applies the event if it targets the
junction, and advances it again to the step's record, keeping the states in
a dict.  It uses only the package's public API and takes no state map from
it: the segment map is ``reference_trajectory``'s restatement, and the
per-junction event seed is restated here in its spawn-key form.
"""

import math
from dataclasses import replace

import numpy as np

from jjaging import (
    ThermalAnneal,
    TrajectoryState,
    apply_thermal_anneal,
    apply_voltage_anneal,
)
from jjaging.ensemble import FLAGS
from jjaging.model import EnvironmentKind
from reference_trajectory import _segment

FLAG_OK = FLAGS.index("ok")


def _spawn_key_seed(entropy: int, *key) -> int:
    return int(np.random.SeedSequence(entropy=entropy, spawn_key=key).generate_state(1)[0])


def _voltage_seed(seed: int, junction_id: int, i: int) -> int:
    """The draw seed of the i-th event that touches a junction (counting
    every event that does): ``simulate``'s rule, spawn key (0, j) for the
    junction and then (i,) for the event."""
    return _spawn_key_seed(_spawn_key_seed(seed, 0, junction_id), i)


def _advance(state, t_to, a_eff, tau_amb, relax_s):
    """``state`` carried to ``t_to`` in ambient storage on the junction's
    curve ``a_eff ln(t / tau_amb + 1)``; the anneal channel is unchanged."""
    y_env = _segment(state.y_env, state.t_s, t_to, a_eff, tau_amb, 1.0, relax_s)
    return replace(state, t_s=t_to, y_env=y_env)


def reference_anneal(ds, events, cfg, seed: int):
    """The records ``anneal`` appends and its step summary.

    ``events`` must be placeable (each starts at or after the previous
    record).  Returns ``(new_j, new_t, new_r, changes, min_r_over_r0)``:
    the appended rows in step-major order, each step's fractional changes
    of the junctions its event touches, and the smallest R/R0 over the
    sequence.
    """
    tau_amb = cfg.env_tau_s[EnvironmentKind.AMBIENT]
    relax = cfg.relax_gas_to_gas_s
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
            "a_eff": a_eff,
            "state": TrajectoryState(t_s=t_last, y_env=y0),
            "last_r": r_last,
            "touched": 0,
        }

    new_j: list[int] = []
    new_t: list[float] = []
    new_r: list[float] = []
    step_changes = []
    min_r_over_r0 = min(
        info["last_r"] / info["r0"] for info in junctions.values()
    )
    for ev in events:
        hold_s = ev.kind.hold_min * 60.0 if isinstance(ev.kind, ThermalAnneal) else 0.0
        t_meas = ev.t_s + hold_s
        changes = []
        for j, info in junctions.items():
            state = _advance(info["state"], ev.t_s, info["a_eff"], tau_amb, relax)
            touched = ev.junction_ids is None or j in ev.junction_ids
            if touched:
                if isinstance(ev.kind, ThermalAnneal):
                    state = apply_thermal_anneal(state, ev, cfg)
                else:
                    state = apply_voltage_anneal(state, ev, cfg,
                                                 _voltage_seed(seed, j, info["touched"]))
                info["touched"] += 1
            state = _advance(state, t_meas, info["a_eff"], tau_amb, relax)
            r_now = info["r0"] * (1.0 + state.y)
            if touched:
                changes.append(r_now / info["last_r"] - 1.0)
            min_r_over_r0 = min(min_r_over_r0, r_now / info["r0"])
            info["state"] = state
            info["last_r"] = r_now
            new_j.append(j)
            new_t.append(t_meas)
            new_r.append(r_now)
        step_changes.append(changes)
    return new_j, new_t, new_r, step_changes, min_r_over_r0
