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

The anneal cells run chip1, chip2 and chip6 the same way, with a voltage
anneal (its jump without spread) on junction 0 in the middle of a 14- or
28-day window from day 0 or 2, and a single-log fit.  All are strict
xfails for ROADMAP item 16: ``fit`` does not know the event, and
``predict`` forecasts the chip from one curve that no junction follows.

The thermal cells run chip1, chip2 and chip6 with one oven step on every
junction on day 7, inside a 14- or 28-day window from day 0, and a
single-log fit: 250 C in the glovebox (-12%) or 200 C in ambient air
(+6%).  All are strict xfails for ROADMAP item 22: ``fit`` fits one curve
through the step, so the forecast misses by tens of percent.
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
    AMBIENT,
    GLOVEBOX,
    AnnealEvent,
    ChipDataset,
    ThermalAnneal,
    VoltageAnneal,
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
# The oven steps of the thermal cells, by the label in their ids.
THERMAL_STEPS = {"thermal250-glovebox": ThermalAnneal(250.0, GLOVEBOX),
                 "thermal200-ambient": ThermalAnneal(200.0, AMBIENT)}

# A 14-day window from day 2 spans less than one decade of time; the fitter
# warns, as it should, and the cell still runs.
pytestmark = pytest.mark.filterwarnings("ignore:time span below one decade:UserWarning")

CELLS = list(itertools.product(PRESET_NAMES, (14, 28), (0.0, 0.5, 2.0),
                               ("single-log", "two-log")))
CELLS += [(*c, "single-log", "anneal")   # the voltage anneal cells
          for c in itertools.product(("chip1", "chip2", "chip6"), (14, 28), (0.0, 2.0))]
CELLS += [(preset, window, 0.0, "single-log", step)   # the thermal cells
          for preset, window, step in itertools.product(("chip1", "chip2", "chip6"), (14, 28),
                                                        THERMAL_STEPS)]


def _marks(preset, window, first, model, event=""):
    if event == "anneal":
        return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 16: fit and predict do not know the anneal event"))]
    if event:
        return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 22: fit fits one curve through the oven step"))]
    if preset in SWAP_CHIPS:
        return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 5: fit ignores the storage swaps"))]
    if model == "two-log" and first > 0:
        return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 3: the two-log model is pinned to 1 at t = 0, "
            "not at the first sample"))]
    return []


def _id(preset, window, first, model, event=""):
    return f"{preset}-{window}d-from{first:g}-{model}" + (f"-{event}" if event else "")


@functools.cache
def run_cell(preset, window, first, model, event=""):
    """(fit exit code, predict exit code, predicted dR/R, simulated dR/R).

    With ``event`` "anneal", a voltage anneal whose jump has no spread hits
    junction 0 half a day after the window's midpoint; with a key of
    ``THERMAL_STEPS``, that oven step hits every junction on day 7."""
    p = chip_preset(preset)
    spec = replace(p.spec, r0_cv=0.0, a_sd=0.0, log_tau_sd=0.0, b_sd=0.0,
                   noise_sigma=0.0, open_prob=0.0, n_junctions=2)
    sim, events = p.sim, []
    if event == "anneal":
        sim = replace(p.sim, voltage_jump_sd=0.0)
        events = [AnnealEvent((first + window / 2 + 0.5) * DAY, VoltageAnneal(),
                              junction_ids=(0,))]
    elif event:
        events = [AnnealEvent(7 * DAY, THERMAL_STEPS[event])]
    days = np.append(first + np.arange(window + 1.0), TARGET_DAY)
    ds = simulate_chip(draw_chip(spec, 0), p.schedule, events, days * DAY, sim, 0,
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
