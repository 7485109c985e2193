"""Logarithmic aging curves under different storage environments.

Junction resistance drifts up roughly logarithmically after fabrication:
R(t)/R0 = 1 + a*ln(t/tau + b).  The amplitude a is set by fabrication,
the timescale tau by the storage environment (lab air ages ~3-4x faster
than a nitrogen glovebox, ~5x faster than high vacuum).

The two-channel decomposition splits the drift into an intrinsic part and
an environment-coupled part; over a limited time window it is well
approximated by a single log with the amplitude-weighted geometric-mean
timescale.

Run: python demos/aging_curves.py
"""

import csv
import pathlib

import numpy as np

from jjaging import (
    TwoLogParams,
    chip_preset,
    effective_tau,
    eval_single_log,
    eval_two_log,
)

DAY = 86400.0
OUT = pathlib.Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    t = np.logspace(np.log10(600), np.log10(85 * DAY), 200)

    print("=== Aging curves for the shipped chip presets ===")
    series = {}
    for name in ("chip1", "chip2", "chip5", "chip6"):
        p = chip_preset(name)
        ratio = eval_single_log(p.aging, t)
        series[name] = list(zip(t, ratio))
        print(
            f"{name:6s} ({p.home_env.value:8s}): a={p.aging.a:.2f} "
            f"tau={p.aging.tau_s:.2g} s -> R/R0 at 56 d = "
            f"{float(eval_single_log(p.aging, 56 * DAY)):.3f}"
        )

    print("\n=== Two-channel model vs its single-log approximation ===")
    two = TwoLogParams(a_int=0.10, tau_int_s=3.9e4, a_ext=0.11, tau_ext_s=1.2e4)
    teff = effective_tau(two)
    print(f"channel timescales: {two.tau_int_s:.3g} s (intrinsic), "
          f"{two.tau_ext_s:.3g} s (environment-coupled)")
    print(f"effective single-log timescale (weighted geometric mean): {teff:.4g} s")
    approx = 1 + (two.a_int + two.a_ext) * np.log(t / teff + 1)
    exact = eval_two_log(two, t)
    worst = np.abs(approx / exact - 1).max()
    series["two_channel"] = list(zip(t, exact))
    series["effective_single"] = list(zip(t, approx))
    print(f"worst-case mismatch of the approximation over the window: {worst * 100:.2f}%")

    path = OUT / "aging_curves.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["series_id", "t_days", "value"])
        for sid, points in series.items():
            w.writerows((sid, float(t) / DAY, float(v)) for t, v in points)
    print(f"\nwrote tidy plot data to {path}")


if __name__ == "__main__":
    main()
