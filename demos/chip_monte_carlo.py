"""Chip-scale Monte Carlo: junction variability, open junctions, CV trends.

Each 16-junction chip is drawn from a population (initial resistance,
aging amplitude, log-normal timescale, early-time offset, open-junction
probability), simulated through its storage schedule, and aggregated.
Heterogeneous aging makes the chip's resistance CV grow under ambient
storage; a homogeneous glovebox chip keeps its spread flat.

Run: python demos/chip_monte_carlo.py
"""

import csv
import pathlib

import numpy as np

from jjaging import (
    aggregate_series,
    chip_preset,
    draw_chip,
    fit_chip,
    simulate_chip,
)

DAY = 86400.0
OUT = pathlib.Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    print("=== Drawing and simulating a chip1-like ensemble (seed 7) ===")
    p = chip_preset("chip1")
    chip = draw_chip(p.spec, seed=7)
    r0s = [prm.r0_ohm for prm, _ in chip]
    print(f"drawn R0: mean {np.mean(r0s) / 1e3:.1f} kohm, "
          f"CV {np.std(r0s, ddof=1) / np.mean(r0s) * 100:.1f}%")

    samples = np.concatenate([[600.0, 3600.0, 6 * 3600.0], np.arange(DAY, 57 * DAY, 2 * DAY)])
    ds = simulate_chip(chip, p.schedule, [], samples, p.sim, seed=7, chip_id="demo1")
    agg = aggregate_series(ds)

    # single chips fluctuate; the growing spread shows up in the median trend
    starts, ends = [], []
    for seed in range(25):
        c = draw_chip(p.spec, seed=seed)
        d = simulate_chip(c, p.schedule, [], samples, p.sim, seed=seed)
        a = aggregate_series(d)
        starts.append(a[0][2])
        ends.append(a[-1][2])
    print(f"resistance CV over 25 chips (median): "
          f"{np.median(starts) * 100:.1f}% at the start -> "
          f"{np.median(ends) * 100:.1f}% at day 56")

    print("\n=== Per-junction fits and parameter histograms ===")
    out = fit_chip(ds)
    results = list(out.per_junction.values())
    print(f"fitted {len(results)} junctions; average curve: "
          f"a={out.average.params.a:.3f}, tau={out.average.params.tau_s:.3g} s, "
          f"b={out.average.params.b:.3f}")
    fitted = {
        "a": [r.params.a for r in results],
        "log_tau": [np.log(r.params.tau_s) for r in results],
        "b": [r.params.b for r in results],
    }
    for field, values in fitted.items():
        counts, edges = np.histogram(values, bins=6)
        print(f"  {field:8s} histogram: counts {[int(c) for c in counts]} over "
              f"[{edges[0]:.3g}, {edges[-1]:.3g}]")

    print("\n=== Open junctions (chip6-like, low yield) ===")
    p6 = chip_preset("chip6")
    chip6 = draw_chip(p6.spec, seed=3)
    n_open = sum(1 for _, is_open in chip6 if is_open)
    print(f"{n_open} of {len(chip6)} junctions drawn open; "
          "they carry flag=open and are excluded from aggregates")

    series = {"cv_chip1_like": [(t, cv) for t, _, cv, n in agg if n >= 2]}
    path = OUT / "chip_monte_carlo.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["series_id", "t_days", "value"])
        for sid, points in series.items():
            w.writerows((sid, float(t) / DAY, float(v)) for t, v in points)
    print(f"\nwrote tidy plot data to {path}")


if __name__ == "__main__":
    main()
