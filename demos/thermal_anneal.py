"""Thermal annealing: oven steps in nitrogen vs ambient air, and the floor.

Oven steps in a nitrogen atmosphere decrease junction resistance at both
200 C and 250 C (more at 250 C).  In ambient air, 200 C *increases* the
resistance while 250 C decreases it, by less than the nitrogen step.  No
sequence of steps can push the resistance below its as-fabricated value:
the initial resistance acts as a floor on the tuning range.

Run: python demos/thermal_anneal.py
"""

from jjaging import (
    AMBIENT,
    GLOVEBOX,
    AnnealEvent,
    SimConfig,
    ThermalAnneal,
    TrajectoryState,
    apply_thermal_anneal,
)

DAY = 86400.0

STEPS = [
    (200.0, GLOVEBOX, 10.0),
    (250.0, GLOVEBOX, 10.0),
    (200.0, AMBIENT, 40.0),
    (250.0, AMBIENT, 10.0),
    (200.0, AMBIENT, 10.0),
]


def main():
    cfg = SimConfig()
    state = TrajectoryState(t_s=85 * DAY, y_env=0.32)
    print("=== Five-step oven sequence on a junction aged to R/R0 = 1.32 ===")
    print(f"{'step':>4} {'T (C)':>6} {'oven':>9} {'R/R0 before':>12} {'R/R0 after':>11} {'change':>8}")
    for k, (temp, env, hold) in enumerate(STEPS, start=1):
        before = 1 + state.y
        ev = AnnealEvent(t_s=state.t_s, kind=ThermalAnneal(temp_c=temp, env=env, hold_min=hold))
        state = apply_thermal_anneal(state, ev, cfg)
        after = 1 + state.y
        print(f"{k:>4} {temp:>6.0f} {env.value:>9} {before:>12.4f} {after:>11.4f} "
              f"{(after / before - 1) * 100:>+7.2f}%")
    print(f"\nfinal R/R0 = {1 + state.y:.4f} (floor at 1.0 was "
          f"{'not needed' if 1 + state.y > 1.0 else 'engaged'})")

    print("\n=== The floor engages on a barely-aged junction ===")
    fresh = TrajectoryState(t_s=2 * DAY, y_env=0.05)
    ev = AnnealEvent(t_s=2 * DAY, kind=ThermalAnneal(temp_c=250.0, env=GLOVEBOX))
    clamped = apply_thermal_anneal(fresh, ev, cfg)
    print(f"R/R0 = {1 + fresh.y:.3f}, nitrogen 250 C step would give "
          f"{(1 + fresh.y) * 0.88:.3f} -> clamped to {1 + clamped.y:.3f}")


if __name__ == "__main__":
    main()
