"""The columnar chip pipeline against the per-record reference, and the
dataset's column contract."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jjaging import (
    AnnealEvent,
    ChipDataset,
    ChipSpec,
    GLOVEBOX,
    MeasurementRecord,
    ParameterError,
    ThermalAnneal,
    ValidationError,
    VoltageAnneal,
    aggregate_series,
    build_fit_report,
    chip_preset,
    draw_chip,
    fit_chip,
    load_measurements,
    save_measurements,
    simulate_chip,
)
from jjaging.presets import PRESET_NAMES

from reference_chip import reference_aggregate_series, reference_simulate_chip

DAY = 86400.0

EVENT_SETS = {
    "none": (),
    # A voltage anneal on half the chip (two plans per chip) and a thermal
    # step on every junction; both land on sample times.
    "voltage+thermal": (
        AnnealEvent(t_s=20 * DAY, kind=VoltageAnneal(), junction_ids=tuple(range(8))),
        AnnealEvent(t_s=30 * DAY, kind=ThermalAnneal(temp_c=200.0, env=GLOVEBOX)),
    ),
}
# Daily samples and one off the daily grid.  (simulate_chip refuses a repeated
# time, which would give duplicate (junction_id, t_s) rows.)
SAMPLES = sorted([*np.arange(0.0, 40 * DAY + 1.0, DAY).tolist(), 7.5 * DAY])


def rows(ds):
    return [(r.chip_id, r.junction_id, r.t_s, r.r_ohm, r.env_label, r.flag)
            for r in ds.records]


def both(preset, seed, events):
    p = chip_preset(preset)
    chip = draw_chip(p.spec, seed)
    args = (chip, p.schedule, list(events), SAMPLES, p.sim, seed)
    return simulate_chip(*args, chip_id=preset), reference_simulate_chip(*args, chip_id=preset)


@pytest.mark.parametrize("events", sorted(EVENT_SETS))
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_simulate_chip_equals_reference(preset, seed, events):
    ds, ref = both(preset, seed, EVENT_SETS[events])
    assert rows(ds) == rows(ref)
    assert ds.spec is ref.spec and ds.schedule is ref.schedule
    # repr compares every float exactly and treats nan CVs as equal.
    assert repr(aggregate_series(ds)) == repr(reference_aggregate_series(ref))


def test_reference_cases_cover_open_junctions_and_event_subsets():
    ds, _ = both("chip6", 0, EVENT_SETS["voltage+thermal"])
    assert "open" in {r.flag for r in ds.records}
    assert any(math.isnan(r) for r in ds.r_ohm)
    # The day-20 voltage anneal raises junctions 0-7 only.
    jump = {j: ds.r_ohm[(ds.junction_id == j) & (ds.t_s == 20 * DAY)][0]
            / ds.r_ohm[(ds.junction_id == j) & (ds.t_s == 19 * DAY)][0]
            for j in (0, 1, 8, 9) if not math.isnan(ds.r_ohm[ds.junction_id == j][0])}
    assert any(j < 8 and v > 1.1 for j, v in jump.items())
    assert all(v < 1.05 for j, v in jump.items() if j >= 8)


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([0.0, 100.0, 599.0, 600.0, 601.0,
                                                      1200.0, 5000.0, 5600.5]),
                  st.floats(1.0, 1e5), st.sampled_from(["ok", "ok", "open", "excluded"])),
        min_size=1, max_size=40,
    ),
    window=st.sampled_from([0.0, 100.0, 600.0, 1000.0]),
)
def test_aggregate_series_equals_reference_on_random_groups(data, window):
    ds = ChipDataset(records=tuple(
        MeasurementRecord("c", j, t, None if flag == "open" else r, flag=flag)
        for j, t, r, flag in data
    ))
    if not any(flag == "ok" for *_, flag in data):
        return
    assert repr(aggregate_series(ds, window)) == repr(reference_aggregate_series(ds, window))


@pytest.mark.parametrize("window", [math.nan, math.inf, -5.0])
def test_aggregate_series_rejects_bad_window(window):
    # NaN used to merge every time into one group, -5 to split equal times.
    ds = ChipDataset(records=(MeasurementRecord("c", 0, 0.0, 10.0),
                              MeasurementRecord("c", 1, 0.0, 11.0)))
    with pytest.raises(ValidationError, match="window_s"):
        aggregate_series(ds, window)


def test_simulate_chip_rejects_repeated_sample_times():
    p = chip_preset("chip6")
    chip = draw_chip(p.spec, 0)
    with pytest.raises(ValidationError, match="strictly increasing"):
        simulate_chip(chip, p.schedule, [], [0.0, DAY, 10 * DAY, 10 * DAY, 11 * DAY],
                      p.sim, 0)
    # The per-record reference still writes the duplicate rows the CSV refuses.
    ref = reference_simulate_chip(chip, p.schedule, [], [0.0, DAY, DAY], p.sim, 0)
    assert len(ref.t_s) == 3 * len(chip)


@settings(max_examples=40, deadline=None)
@given(days=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.25, 10.0, 30.0, 56.0]),
                     min_size=1, max_size=8).map(sorted))
def test_simulate_chip_grids_round_trip_through_csv(days):
    """Every sorted grid simulate_chip accepts gives a CSV that loads back to
    the same rows; the grids it refuses repeat a time."""
    p = chip_preset("chip6")
    samples = [d * DAY for d in days]
    args = (draw_chip(p.spec, 5), p.schedule, [], samples, p.sim, 5)
    if any(b <= a for a, b in zip(samples, samples[1:])):
        with pytest.raises(ValidationError):
            simulate_chip(*args)
        return
    ds = simulate_chip(*args, chip_id="c6")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        save_measurements(ds, path)
        assert rows(load_measurements(path)) == rows(ds)


def test_csv_round_trip_is_byte_stable(tmp_path):
    p = chip_preset("chip6")
    ds = simulate_chip(draw_chip(p.spec, 3), p.schedule, list(EVENT_SETS["voltage+thermal"]),
                       np.arange(0.0, 40 * DAY + 1.0, DAY), p.sim, 3, chip_id="c6")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_measurements(ds, a)
    save_measurements(load_measurements(a), b)
    assert a.read_bytes() == b.read_bytes()
    assert rows(load_measurements(a)) == rows(ds)


def test_hot_path_builds_no_row_objects(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a MeasurementRecord was built")

    monkeypatch.setattr(MeasurementRecord, "__post_init__", refuse)
    p = chip_preset("chip6")
    chip = draw_chip(p.spec, 4)
    ds = simulate_chip(chip, p.schedule, list(EVENT_SETS["voltage+thermal"]),
                       np.arange(0.0, 40 * DAY + 1.0, 2 * DAY), p.sim, 4)
    aggregate_series(ds)
    fit = fit_chip(ds)
    save_measurements(ds, tmp_path / "d.csv")
    back = load_measurements(tmp_path / "d.csv")
    build_fit_report(back, fit_chip(back), "c", {})
    assert len(fit.per_junction) + len(fit.skipped) == len(ds.junction_ids())
    with pytest.raises(AssertionError, match="was built"):
        ds.records


class TestColumns:
    def _ds(self):
        return ChipDataset.from_columns(
            junction_id=[2, 0, 0, 1], t_s=[0.0, 5.0, 1.0, 0.0],
            r_ohm=[10.0, 11.0, 12.0, np.nan], env=[0, 0, 1, 3], flag=[0, 2, 0, 1],
            chip_id="c9",
        )

    def test_sorted_and_read_only(self):
        ds = self._ds()
        assert ds.junction_id.tolist() == [0, 0, 1, 2]
        assert ds.t_s.tolist() == [1.0, 5.0, 0.0, 0.0]
        assert ds.env.dtype == np.int8 and ds.flag.dtype == np.int8
        with pytest.raises(ValueError):
            ds.r_ohm[0] = 1.0

    def test_row_view(self):
        ds = self._ds()
        assert ds.records is ds.records
        assert ds.records[0] == MeasurementRecord("c9", 0, 1.0, 12.0, "glovebox", "ok")
        assert ds.records[2] == MeasurementRecord("c9", 1, 0.0, None, "unknown", "open")
        assert ds.for_junction(0) == list(ds.records[:2])
        assert ds.for_junction(7) == []
        assert ds.junction_ids() == [0, 1, 2]
        assert ds.junction_rows() == [(0, 0, 2), (1, 2, 3), (2, 3, 4)]
        assert len(ds) == 4

    def test_records_constructor_keeps_stable_order(self):
        recs = (MeasurementRecord("a", 1, 0.0, 5.0), MeasurementRecord("b", 0, 3.0, 6.0),
                MeasurementRecord("c", 0, 3.0, 7.0))
        ds = ChipDataset(records=recs)
        assert ds.records == (recs[1], recs[2], recs[0])
        assert ds.chip_id.tolist() == ["b", "c", "a"]

    @pytest.mark.parametrize("over", [
        {"r_ohm": [10.0, np.nan, 12.0, np.nan]},     # NaN on a non-open row
        {"r_ohm": [10.0, -1.0, 12.0, np.nan]},
        {"t_s": [0.0, np.inf, 1.0, 0.0]},
        {"flag": [0, 5, 0, 1]},
        {"env": [0, 9, 1, 3]},
        {"junction_id": [2, 0, 0]},
    ])
    def test_invalid_columns_rejected(self, over):
        cols = dict(junction_id=[2, 0, 0, 1], t_s=[0.0, 5.0, 1.0, 0.0],
                    r_ohm=[10.0, 11.0, 12.0, np.nan], env=[0, 0, 1, 3], flag=[0, 2, 0, 1])
        cols.update(over)
        with pytest.raises(ValidationError):
            ChipDataset.from_columns(**cols, chip_id="c")

    def test_unknown_env_label_rejected(self):
        with pytest.raises(ValidationError):
            ChipDataset(records=(MeasurementRecord("c", 0, 0.0, 1.0, env_label="mars"),))


FLOAT_FIELDS = ("r0_mean_ohm", "r0_cv", "a_mean", "a_sd", "log_tau_mean", "log_tau_sd",
                "b_mean", "b_sd", "open_prob", "noise_sigma")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_chip_spec_rejects_non_finite(name, bad):
    kwargs = dict(r0_mean_ohm=1e4, r0_cv=0.0, a_mean=0.2)
    kwargs[name] = bad
    with pytest.raises(ParameterError):
        ChipSpec(**kwargs)
