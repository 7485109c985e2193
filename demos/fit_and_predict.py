"""End-to-end pipeline: simulate -> CSV -> fit -> predict drift at cooldown.

Ties the pieces together the way an operator would: generate (or measure)
a resistance log, fit the aging law, then predict the resistance, the
critical current, and the fractional qubit-frequency shift at a future
cooldown date.  Also shows why small barrier changes matter: the
resistance is exponentially sensitive to the effective barrier.

Run: python demos/fit_and_predict.py
"""

import math
import pathlib
import tempfile

from jjaging import critical_current_from_resistance, qubit_frequency_shift
from jjaging.cli import main as cli

DAY = 86400.0
EV = 1.602176634e-19
HBAR_JS = 1.054571817e-34


def main():
    # The work files live only as long as the run.
    with tempfile.TemporaryDirectory(prefix="jjaging_demo_") as tmp:
        work = pathlib.Path(tmp)
        data = work / "chip2.csv"
        report = work / "report.json"
        pred = work / "prediction.json"

        print("=== 1. Simulate a glovebox-stored chip for 56 days ===")
        cli(["simulate", "--preset", "chip2", "--target-days", "56",
             "--seed", "42", "--out", str(data)])

        print("\n=== 2. Fit the measurement log ===")
        cli(["fit", str(data), "--model", "single-log", "--out", str(report)])

        print("\n=== 3. Predict one week past the last measurement ===")
        cli(["predict", "--report", str(report), "--target-days", "63",
             "--delta-uev", "180", "--out", str(pred)])

    print("\n=== 4. Barrier sensitivity: why storage matters ===")
    # Tunneling through a rectangular barrier gives R ~ exp(2 kappa d) with
    # kappa = sqrt(2 m U) / hbar, so R2/R1 = exp(2 (kappa2 d2 - kappa1 d1)).
    u = 2.0 * EV
    m = 9.1093837015e-31
    d1, d2 = 1.0e-9, 1.0e-9 + 0.3e-10
    kappa = math.sqrt(2.0 * m * u) / HBAR_JS
    ratio = math.exp(2.0 * (kappa * d2 - kappa * d1))
    print(f"kappa = {kappa:.3g} 1/m; a 0.3 angstrom thickness change "
          f"multiplies R by {ratio:.2f}")

    print("\n=== 5. Resistance -> critical current -> frequency shift ===")
    for r in (8_000.0, 24_300.0, 41_600.0):
        ic = critical_current_from_resistance(r, gap_delta_J=180e-6 * EV)
        print(f"R = {r / 1e3:5.1f} kohm -> I_c = {ic * 1e9:6.2f} nA")
    dr = 0.21
    print(f"a {dr * 100:.0f}% resistance rise shifts the qubit frequency by "
          f"{qubit_frequency_shift(dr) * 100:.2f}%")


if __name__ == "__main__":
    main()
