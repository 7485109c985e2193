"""Environment-swap dynamics: deaging, bounds, and the vacuum exit.

A junction moved between storage environments relaxes first-order toward the bound
curve of wherever it currently sits.  Moving from lab air into a nitrogen
glovebox after a few days puts the glovebox bound *below* the current
state, so the resistance transiently decreases (deaging) before
flattening; the trajectory always stays between the glovebox and ambient
bound curves.  Leaving high vacuum relaxes much faster (fraction of a
day) than gas-to-gas swaps (days).

Run: python demos/environment_swaps.py
"""

import pathlib

import numpy as np

from jjaging import (
    AMBIENT,
    GLOVEBOX,
    VACUUM,
    AgingParams,
    SimConfig,
    StorageSchedule,
    eval_single_log,
    export_plot_data,
    simulate_trajectory,
)

DAY = 86400.0
OUT = pathlib.Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    cfg = SimConfig()
    # A junction whose timescale is the configured one in its first environment.
    junction = AgingParams(a=0.05, tau_s=cfg.env_tau_s[AMBIENT])

    print("=== Alternating ambient/glovebox storage (swaps at days 4, 8, 12) ===")
    sched = StorageSchedule(segments=(
        (0.0, AMBIENT), (4 * DAY, GLOVEBOX), (8 * DAY, AMBIENT), (12 * DAY, GLOVEBOX),
    ))
    samples = np.arange(0, 52 * DAY + 1, 0.25 * DAY)
    y = simulate_trajectory(sched, [], cfg, junction, samples) - 1

    i4 = int(np.searchsorted(samples, 4 * DAY))
    print(f"fractional aging at the day-4 swap: {y[i4]:.4f}")
    print(f"first post-swap increments: {np.diff(y[i4:i4 + 4])}")
    print("  -> negative: the junction deages after moving into the glovebox")

    i12 = int(np.searchsorted(samples, 12 * DAY))
    drift = (1 + y[-1]) / (1 + y[i12]) - 1
    print(f"net drift over the 40 days after the final swap: {drift * 100:+.2f}%")

    amb = eval_single_log(AgingParams(junction.a, 1.2e4, 1.0), samples) - 1
    gb = eval_single_log(AgingParams(junction.a, 4.3e4, 1.0), samples) - 1
    print(f"bracketing check: min(y - lower bound) = {(y - gb).min():.2e}, "
          f"max(y - upper bound) = {(y - amb).max():.2e}")

    print("\n=== Vacuum exit at day 7 ===")
    sched5 = StorageSchedule(segments=((0.0, VACUUM), (7 * DAY, GLOVEBOX)))
    samples5 = np.arange(0, 10 * DAY, 0.02 * DAY)
    junction5 = AgingParams(a=0.12, tau_s=cfg.env_tau_s[VACUUM])
    y5 = simulate_trajectory(sched5, [], cfg, junction5, samples5) - 1
    gb5 = eval_single_log(AgingParams(0.12, 4.3e4, 1.0), samples5) - 1
    post = samples5 >= 7 * DAY
    rel = np.abs(y5[post] - gb5[post]) / gb5[post]
    t_hit = (samples5[post][rel <= 0.10][0] - 7 * DAY) / DAY
    print(f"the trajectory reaches within 10% of the glovebox bound "
          f"{t_hit:.2f} days after leaving vacuum")

    path = OUT / "environment_swaps.csv"
    export_plot_data({
        "alternating": list(zip(samples, 1 + y)),
        "ambient_bound": list(zip(samples, 1 + amb)),
        "glovebox_bound": list(zip(samples, 1 + gb)),
        "vacuum_exit": list(zip(samples5, 1 + y5)),
    }, path)
    print(f"\nwrote tidy plot data to {path}")


if __name__ == "__main__":
    main()
