import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jjaging import (
    ChipDataset,
    IVSweep,
    InsufficientDataError,
    ParameterError,
    ParseError,
    ThermalAnneal,
    VoltageAnneal,
    export_plot_data,
    load_events,
    load_measurements,
    load_schedule,
    resistance_from_iv,
    save_measurements,
)
from jjaging.dataio import MAX_JUNCTION_RANGE, FitReport, read_report, write_report
from jjaging.ensemble import ENV_LABELS, FLAGS

DAY = 86400.0


class TestIV:
    def test_exact_line(self):
        i = np.linspace(-25e-9, 25e-9, 11)
        sweep = IVSweep(points=tuple(zip(i, 8000.0 * i)))
        assert resistance_from_iv(sweep) == pytest.approx(8000.0, rel=1e-12)

    def test_offset_absorbed_into_intercept(self):
        i = np.linspace(-25e-9, 25e-9, 11)
        sweep = IVSweep(points=tuple(zip(i, 8000.0 * i + 3e-6)))
        r, info = resistance_from_iv(sweep, full_output=True)
        assert r == pytest.approx(8000.0, rel=1e-10)
        assert info["offset_v"] == pytest.approx(3e-6, rel=1e-9)
        assert not info["suspect"]

    def test_noisy_sweep_within_half_percent(self):
        rng = np.random.default_rng(1)
        i = np.linspace(-25e-9, 25e-9, 11)
        v = 22_800.0 * i + 1e-6 * rng.standard_normal(11)
        sweep = IVSweep(points=tuple(zip(i, v)))
        assert resistance_from_iv(sweep) == pytest.approx(22_800.0, rel=5e-3)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        i = np.linspace(-25e-9, 25e-9, 9)
        v = 1.5e4 * i + 1e-6 * rng.standard_normal(9)
        pts = list(zip(i, v))
        r1 = resistance_from_iv(IVSweep(points=tuple(pts)))
        r2 = resistance_from_iv(IVSweep(points=tuple(reversed(pts))))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_degenerate_currents(self):
        sweep = IVSweep(points=((1e-9, 1e-5), (1e-9, 1.1e-5)))
        with pytest.raises(InsufficientDataError):
            resistance_from_iv(sweep)

    def test_negative_slope_flagged_suspect(self):
        i = np.linspace(-25e-9, 25e-9, 5)
        sweep = IVSweep(points=tuple(zip(i, -5e3 * i)))
        with pytest.warns(UserWarning, match="suspect"):
            r, info = resistance_from_iv(sweep, full_output=True)
        assert info["suspect"]

    def test_compliance_window(self):
        with pytest.raises(ParameterError):
            IVSweep(points=((-2e-6, -1.0), (2e-6, 1.0)))


def small_dataset():
    amb, glove = ENV_LABELS.index("ambient"), ENV_LABELS.index("glovebox")
    return ChipDataset(
        junction_id=[0, 0, 1, 2], t_s=[0.0, DAY, 0.0, 0.0],
        r_ohm=[10_000.0, 11_000.0, np.nan, 9_800.0], env=[amb, amb, amb, glove],
        flag=[FLAGS.index(f) for f in ("ok", "ok", "open", "excluded")], chip_id="c7",
    )


def columns(ds):
    return (ds.chip_id, ds.junction_id.tolist(), ds.t_s.tobytes(),
            ds.r_ohm.tobytes(), ds.env.tolist(), ds.flag.tolist())


class TestMeasurementCSV:
    def test_round_trip_lossless(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "m.csv"
        save_measurements(ds, path)
        back = load_measurements(path)
        assert columns(back) == columns(ds)

    def test_write_is_byte_stable(self, tmp_path):
        ds = small_dataset()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measurements(ds, p1)
        save_measurements(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n")
        ds = load_measurements(path)
        assert len(ds) == 0

    def test_huge_resistance_flagged_open(self, tmp_path):
        path = tmp_path / "open.csv"
        path.write_text(
            "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
            "c,0,0.0,2.5e6,ambient,ok\n"
            "c,1,0.0,inf,ambient,\n"
        )
        ds = load_measurements(path)
        assert ds.flag.tolist() == [FLAGS.index("open")] * 2
        assert np.isnan(ds.r_ohm).all()

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = tmp_path / "ooo.csv"
        path.write_text(
            "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
            "c,0,86400,11000,ambient,ok\n"
            "c,0,0,10000,ambient,ok\n"
        )
        ds = load_measurements(path)
        assert ds.t_s.tolist() == [0.0, 86400.0]

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
            "c,0,0.0,10000,ambient,ok\n"
            "c,xx,0.0,10000,ambient,ok\n"
            "c,1,0.0,10000,mars,ok\n"
        )
        with pytest.raises(ParseError) as err:
            load_measurements(path)
        assert err.value.lines == [3, 4]

    def test_non_finite_times_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
            "c,0,0.0,10000,ambient,ok\n"
            "c,0,nan,10000,ambient,ok\n"
            "c,1,inf,10000,ambient,ok\n"
            "c,1,-inf,10000,ambient,ok\n"
        )
        with pytest.raises(ParseError) as err:
            load_measurements(path)
        assert err.value.lines == [3, 4, 5]
        assert "finite" in str(err.value)

    def test_junction_id_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
            "c,99999999999999999999,0.0,10000,ambient,ok\n"
        )
        with pytest.raises(ParseError) as err:
            load_measurements(path)
        assert err.value.lines == [2]

    def test_duplicate_rows_name_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
            "c,0,86400,10000,ambient,ok\n"
            "c,1,86400,10000,ambient,ok\n"
            "c,0,0,9000,ambient,ok\n"
            "c,0,86400.0,11000,ambient,excluded\n"
        )
        with pytest.raises(ParseError) as err:
            load_measurements(path)
        assert err.value.lines == [2, 5]
        assert "line 5: duplicate of line 2" in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ParseError):
            load_measurements(path)

    def test_default_flag_ok(self, tmp_path):
        path = tmp_path / "flags.csv"
        path.write_text(
            "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n"
            "c,0,0.0,10000,ambient,\n"
        )
        ds = load_measurements(path)
        assert ds.flag.tolist() == [FLAGS.index("ok")]


class TestScheduleFile:
    def test_segments_and_events(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text(
            "# alternating storage\n"
            "0,ambient\n"
            "4,glovebox\n"
            "8,ambient\n"
            "event,56,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1,junctions=0-7\n"
            "event,85,thermal,temp_c=200,env=glovebox,hold_min=10\n"
        )
        sched, events = load_schedule(path)
        assert len(sched.segments) == 3
        assert sched.segments[1][0] == 4 * DAY
        assert sched.segments[1][1].kind.value == "glovebox"
        assert len(events) == 2
        v, t = events
        assert isinstance(v.kind, VoltageAnneal) and v.junction_ids == tuple(range(8))
        assert isinstance(t.kind, ThermalAnneal) and t.kind.temp_c == 200.0
        assert t.kind.hold_min == 10.0

    def test_events_only_file(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text(
            "event,85,thermal,temp_c=200,env=glovebox,hold_min=10\n"
            "event,85.1,thermal,temp_c=250,env=glovebox,hold_min=10\n"
        )
        events = load_events(path)
        assert [ev.kind.temp_c for ev in events] == [200.0, 250.0]
        with pytest.raises(ParseError):
            load_schedule(path)  # storage segments required here

    def test_junction_list_syntax(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("event,1,voltage,junctions=1+4+9\n")
        (ev,) = load_events(path)
        assert ev.junction_ids == (1, 4, 9)

    def test_inverted_junction_range_reported(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("event,1,voltage,junctions=0-3\nevent,2,voltage,junctions=5-2\n")
        with pytest.raises(ParseError) as err:
            load_events(path)
        assert err.value.lines == [2]

    def test_junction_range_wider_than_the_cap_reported(self, tmp_path):
        # Refused from its bounds alone: no list of 10**10 ids is built.
        path = tmp_path / "ev.txt"
        path.write_text("event,1,voltage,junctions=0-3\n"
                        "event,2,voltage,junctions=0-10000000000\n"
                        f"event,3,voltage,junctions=5-{5 + MAX_JUNCTION_RANGE}\n")
        with pytest.raises(ParseError) as err:
            load_events(path)
        assert err.value.lines == [2, 3]
        assert f"spans more than {MAX_JUNCTION_RANGE} ids" in str(err.value)

    def test_widest_allowed_junction_range(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text(f"event,1,voltage,junctions=7-{6 + MAX_JUNCTION_RANGE}\n")
        (ev,) = load_events(path)
        assert ev.junction_ids == tuple(range(7, 7 + MAX_JUNCTION_RANGE))

    def test_non_finite_times_reported(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0,ambient\nnan,glovebox\nevent,inf,voltage\n")
        with pytest.raises(ParseError):
            load_schedule(path)
        path.write_text("event,nan,voltage\n")
        with pytest.raises(ParseError) as err:
            load_events(path)
        assert err.value.lines == [1]

    def test_bad_lines_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,ambient\nevent,notatime,voltage\n4,atlantis\n")
        with pytest.raises(ParseError) as err:
            load_schedule(path)
        assert err.value.lines == [2, 3]


# Tokens of schedule-format lines, good ones and ones each parser step
# must refuse: non-finite and overflowing times, unknown kinds and
# environments, bad junction ranges and malformed key=value pairs.
TIMES = ["0", "4", "1.5", " 8 ", "-1", "nan", "inf", "-inf", "1e400", "1e306", "abc", "",
         "0x1", "1_0"]
ENVIRONMENTS = ["ambient", "glovebox", "vacuum", " Vacuum", "GLOVEBOX", "mars", "unknown", ""]
KINDS = ["voltage", "thermal", "Thermal", "laser", ""]
ARGUMENTS = [
    "junctions=0-7", "junctions=5-2", "junctions=0-10000000000", "junctions=1+4+9",
    "junctions=", "junctions=-3", "junctions=1-2-3", "junctions=a", "junctions=1+",
    f"junctions=7-{6 + MAX_JUNCTION_RANGE}", "n_pulses=30", "n_pulses=2.5", "n_pulses=0",
    "n_pulses=1e400", "amplitude_v=nan", "amplitude_v=-1", "pulse_duration_s=inf",
    "temp_c=200", "temp_c=nan", "temp_c=1e400", "env=glovebox", "env=mars", "hold_min=-1",
    "hold_min=inf", "k=v=w", "n_pulses=3=4", "novalue", "=", "a=b",
]
SCHEDULE_LINES = st.one_of(
    st.builds(lambda t, env: f"{t},{env}", st.sampled_from(TIMES), st.sampled_from(ENVIRONMENTS)),
    st.builds(lambda t, kind, args: ",".join(["event", t, kind, *args]),
              st.sampled_from(TIMES), st.sampled_from(KINDS),
              st.lists(st.sampled_from(ARGUMENTS), max_size=4)),
    st.sampled_from(["", "# note", "event", "event,1", ",", ",,", "0,ambient,extra",
                     "Event,1,voltage"]),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(SCHEDULE_LINES, max_size=8))
def test_schedule_parsers_return_or_raise_parse_error(tmp_path, lines):
    path = tmp_path / "fuzz.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for loader in (load_schedule, load_events):
        try:
            loader(path)
        except ParseError:
            pass


_HEADER = b"chip_id,junction_id,t_seconds,resistance_ohms,environment,flag"


@pytest.mark.parametrize("loader, content, line", [
    (load_measurements,
     _HEADER + b"\r\nc,0,0,10000,ambient,ok\r\nc,0,86400,1\xe9,ambient,ok\r\n", 3),
    (load_measurements, _HEADER + b"\n" + b"c,0,0,10000,ambient,ok\n" * 999 + b"c,\xc3", 1001),
    (load_schedule, b"# storage\r0,ambient\r4,glove\xffbox\r", 3),
    (load_events, b"event,1,voltage\n\nevent,2,thermal,temp_c=\xfe200\n", 3),
    (read_report, b'{\n  "chip_id": "c7",\n  "junction_ids": "\xff"\n}\n', 3),
], ids=["measurements", "measurements-past-first-chunk", "schedule", "events", "report"])
def test_non_utf8_file_raises_parse_error_naming_the_line(tmp_path, loader, content, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert err.value.lines == [line]
    assert f"line {line}: not valid UTF-8" in str(err.value)


_BOM = b"\xef\xbb\xbf"
_REPORT_JSON = (b'{"average": {"converged": true, "params": {"a": 0.21, "b": 1.01, '
                b'"kind": "single-log", "r0_ohm": 1.0, "tau_s": 12000.0}, "rss": 0.0}, '
                b'"average_r0_ohm": 10050.0, "chip_id": "c7", "cv_series": [], '
                b'"histograms": {}, "junction_ids": [0], "last_env": "ambient", '
                b'"last_t_s": 86400.0, "per_junction": {}, "provenance": {}, "r0_ohm": {}, '
                b'"schema_version": 1, "skipped": {}}\n')


def _dataset_columns(ds):
    return [ds.chip_id, *(getattr(ds, c).tolist() for c in ("junction_id", "t_s", "r_ohm",
                                                             "env", "flag"))]


@pytest.mark.parametrize("loader, content, view", [
    (load_measurements, _HEADER + b"\r\nc,1,86400,11000,ambient,ok\r\nc,0,0,1e4,glovebox\r\n",
     _dataset_columns),
    (load_schedule, b"0,ambient\n4,glovebox\nevent,5,voltage,n_pulses=3\n", lambda r: r),
    (load_events, b"event,1,thermal,temp_c=200,env=glovebox\n", lambda r: r),
    (read_report, _REPORT_JSON, lambda r: r),
], ids=["measurements", "schedule", "events", "report"])
def test_byte_order_mark_reads_like_the_file_without_it(tmp_path, loader, content, view):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(content)
    marked.write_bytes(_BOM + content)
    assert view(loader(marked)) == view(loader(plain))


def test_byte_order_mark_then_bad_byte_still_names_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(_BOM + b"0,ambient\n4,glove\xffbox\n")
    with pytest.raises(ParseError, match="line 2: not valid UTF-8") as err:
        load_schedule(path)
    assert err.value.lines == [2]


class TestReport:
    def _report(self):
        return FitReport(
            chip_id="c7",
            junction_ids=(0, 1, 2),
            per_junction={0: {"params": {"kind": "single-log", "a": 0.2, "tau_s": 1e4,
                                         "b": 1.0, "r0_ohm": 1.0},
                              "rss": 0.0, "converged": True}},
            average={"params": {"kind": "single-log", "a": 0.21, "tau_s": 1.2e4,
                                "b": 1.01, "r0_ohm": 1.0},
                     "rss": 1e-9, "converged": True},
            r0_ohm={0: 10_000.0},
            average_r0_ohm=10_050.0,
            cv_series=((0.0, 0.05, 3), (1.0, None, 1)),
            histograms={"a": {"counts": [1], "edges": [0.1, 0.3]}},
            skipped={1: "fewer than 4 usable time points"},
            provenance={"input_sha256": "ab" * 32, "tool_version": "0.1.0", "seed": 0,
                        "config_digest": "cd" * 8},
            last_t_s=56 * DAY,
            last_env="ambient",
        )

    def test_round_trip(self, tmp_path):
        rep = self._report()
        path = tmp_path / "report.json"
        write_report(rep, path)
        back = read_report(path)
        assert back == rep

    def test_byte_stable(self, tmp_path):
        rep = self._report()
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(rep, p1)
        write_report(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        json.loads(p1.read_text())  # strictly valid JSON, no NaN tokens

    def test_unknown_junction_rejected(self):
        rep = self._report()
        with pytest.raises(Exception):
            FitReport(**{**rep.__dict__, "per_junction": {9: {}}})


GOLDEN_CSV = """\
chip_id,junction_id,t_seconds,resistance_ohms,environment,flag
c7,0,0.0,10000.0,ambient,ok
c7,0,86400.0,11000.0,ambient,ok
c7,1,0.0,,ambient,open
c7,2,0.0,9800.0,glovebox,excluded
"""

GOLDEN_PLOT = """\
series_id,t_days,value
r,0.0,1.0
r,0.5,1.25
"""


class TestGoldenFiles:
    def test_measurement_csv_bytes(self, tmp_path):
        path = tmp_path / "golden.csv"
        save_measurements(small_dataset(), path)
        assert path.read_text() == GOLDEN_CSV

    def test_plot_data_bytes(self, tmp_path):
        path = tmp_path / "golden_plot.csv"
        export_plot_data({"r": [(0.0, 1.0), (0.5 * DAY, 1.25)]}, path)
        assert path.read_text() == GOLDEN_PLOT


class TestPlotExport:
    def test_three_point_series(self, tmp_path):
        path = tmp_path / "plot.csv"
        export_plot_data({"mean_r": [(0.0, 1.0), (DAY, 1.5), (2 * DAY, 1.8)]}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "series_id,t_days,value"
        assert len(lines) == 4
        assert lines[1].startswith("mean_r,0.0,")

    def test_deterministic_ordering(self, tmp_path):
        series = {"b": [(0.0, 2.0)], "a": [(0.0, 1.0)]}
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        export_plot_data(series, p1)
        export_plot_data(dict(reversed(series.items())), p2)
        assert p1.read_bytes() == p2.read_bytes()
