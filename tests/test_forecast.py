"""Forecast-error matrix: ``fit`` then ``predict --report`` against the
simulator's own truth.

Each cell simulates one preset chip noise-free, with every spread zero and
no open junctions, so the chip average is the drift the model was given.
It samples daily over a fit window of 14 or 28 days whose first sample is
at day 0, 0.5 or 2, fits that window through ``cli.main`` (single-log or
two-log), predicts day 84 from the report, and compares the predicted
dR/R with the simulated chip average's, from the last fitted day to day 84.

A cell passes when the two agree within ``TOLERANCE`` (relative).  Cells
that miss today are marked ``xfail(strict=True)`` with the ROADMAP item
that should fix them, so the change that fixes a cell must flip its mark:

- item 5: chips with storage swaps (chip3, chip4, chip5).  ``fit`` fits one
  curve across the swaps, which the model cannot represent.
- item 3: two-log fits whose first sample comes after day 0.  The two-log
  model is pinned to 1 at t = 0 and has no offset, while ``fit_chip``
  normalizes each series by its first sample.

``predict`` exits 0 in every cell, also after a fit that did not converge
(exit 3); ROADMAP item 9 is to settle what it should do then.
"""

import contextlib
import functools
import io
import itertools
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jjaging import (
    ChipDataset,
    aggregate_series,
    chip_preset,
    draw_chip,
    save_measurements,
    simulate_chip,
)
from jjaging.cli import main
from jjaging.presets import PRESET_NAMES

DAY = 86400.0
TARGET_DAY = 84.0
TOLERANCE = 1e-3
SWAP_CHIPS = ("chip3", "chip4", "chip5")

# A 14-day window from day 2 spans less than one decade of time; the fitter
# warns, as it should, and the cell still runs.
pytestmark = pytest.mark.filterwarnings("ignore:time span below one decade:UserWarning")

CELLS = list(itertools.product(PRESET_NAMES, (14, 28), (0.0, 0.5, 2.0),
                               ("single-log", "two-log")))


def _marks(preset, window, first, model):
    if preset in SWAP_CHIPS:
        return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 5: fit ignores the storage swaps"))]
    if model == "two-log" and first > 0:
        return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 3: the two-log model is pinned to 1 at t = 0, "
            "not at the first sample"))]
    return []


def _id(preset, window, first, model):
    return f"{preset}-{window}d-from{first:g}-{model}"


@functools.cache
def run_cell(preset, window, first, model):
    """(fit exit code, predict exit code, predicted dR/R, simulated dR/R)."""
    p = chip_preset(preset)
    spec = replace(p.spec, r0_cv=0.0, a_sd=0.0, log_tau_sd=0.0, b_sd=0.0,
                   noise_sigma=0.0, open_prob=0.0, n_junctions=2)
    days = np.append(first + np.arange(window + 1.0), TARGET_DAY)
    ds = simulate_chip(draw_chip(spec, 0), p.schedule, [], days * DAY, p.sim, 0,
                       chip_id=preset)
    agg = aggregate_series(ds)
    simulated = agg[-1][1] / agg[-2][1] - 1.0
    fit = ds.t_s < TARGET_DAY * DAY
    with tempfile.TemporaryDirectory() as tmp:
        data, report, pred = (Path(tmp) / name for name in ("d.csv", "r.json", "p.json"))
        save_measurements(ChipDataset(ds.junction_id[fit], ds.t_s[fit], ds.r_ohm[fit],
                                      ds.env[fit], ds.flag[fit], preset), data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            fit_code = main(["fit", str(data), "--model", model, "--out", str(report)])
            predict_code = main(["predict", "--report", str(report),
                                 "--target-days", f"{TARGET_DAY:g}", "--out", str(pred)])
        predicted = json.loads(pred.read_text())["dr_over_r"] if predict_code == 0 else None
    return fit_code, predict_code, predicted, simulated


@pytest.mark.parametrize("cell", CELLS, ids=[_id(*c) for c in CELLS])
def test_predict_exits_0(cell):
    fit_code, predict_code, _, _ = run_cell(*cell)
    assert fit_code in (0, 3)
    assert predict_code == 0


@pytest.mark.parametrize("cell", [pytest.param(c, id=_id(*c), marks=_marks(*c))
                                  for c in CELLS])
def test_forecast_error(cell):
    _, _, predicted, simulated = run_cell(*cell)
    assert predicted / simulated - 1.0 == pytest.approx(0.0, abs=TOLERANCE)
