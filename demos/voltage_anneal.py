"""Alternating-bias voltage annealing: resistance jump plus renewed drift.

A pulse train (+-0.9 V, 1 s pulses) applied at the probe station raises
the junction resistance by an approximately fixed fraction (14-18% for
the reference chips), after which the resistance drifts upward again on a
fresh logarithmic curve with its own timescale.  Junctions on the same
chip that are not pulsed are unaffected.

Run: python demos/voltage_anneal.py
"""

import pathlib

import numpy as np

from jjaging import (
    AnnealEvent,
    VoltageAnneal,
    chip_preset,
    export_plot_data,
    fit_single_log,
    simulate_trajectory,
)

DAY = 86400.0
OUT = pathlib.Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    series = {}
    print("=== Voltage anneal at day 56, then 6 days of post-anneal drift ===")
    for name in ("chip1", "chip2"):
        p = chip_preset(name)
        cfg = p.sim
        ev = [AnnealEvent(t_s=56 * DAY, kind=VoltageAnneal(n_pulses=30, amplitude_v=0.9))]
        # events apply before same-time samples, so the 56-day sample is
        # already post-jump; keep a pre-jump sample one minute earlier
        samples = np.concatenate([
            np.linspace(50 * DAY, 56 * DAY - 60.0, 13),
            [56 * DAY],
            56 * DAY + np.logspace(np.log10(600), np.log10(6 * DAY), 40),
        ])
        rs = simulate_trajectory(p.schedule, ev, cfg, p.aging.r0_ohm, samples, seed=1)
        jump = rs[13] / rs[12] - 1
        print(f"{name}: R just before = {rs[12] / 1e3:.1f} kohm, jump = {jump * 100:+.1f}% "
              f"(configured mean {cfg.voltage_jump_mean * 100:.1f}%)")

        # refit the post-anneal drift with its own time origin
        drift = [(t - 56 * DAY, r / rs[13]) for t, r in zip(samples[14:], rs[14:])]
        res = fit_single_log(drift)
        print(f"  post-anneal drift refit: tau = {res.params.tau_s:.3g} s "
              f"(installed {cfg.voltage_drift_tau_s:.3g} s)")
        series[name] = list(zip(samples, rs / rs[0]))

    path = OUT / "voltage_anneal.csv"
    export_plot_data(series, path)
    print(f"\nwrote tidy plot data to {path}")


if __name__ == "__main__":
    main()
