import ast
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jjaging import (
    GLOVEBOX,
    AgingParams,
    AnnealEvent,
    ChipDataset,
    ChipFitResult,
    EnvironmentKind,
    FitResult,
    ParseError,
    StorageSchedule,
    ThermalAnneal,
    TwoLogParams,
    ValidationError,
    VoltageAnneal,
    build_fit_report,
    load_events,
    load_measurements,
    load_schedule,
    save_measurements,
)
from jjaging.dataio import (
    MAX_JUNCTION_RANGE,
    MEASUREMENT_HEADER,
    FitReport,
    read_report,
    write_report,
)
from jjaging.ensemble import ENV_LABELS, FLAGS
from reference_dataio import reference_load_measurements
from reference_report import v1_report

DAY = 86400.0


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

    def test_empty_dataset_not_saved(self, tmp_path):
        # The chip id is written only on rows, so a header-only file names no chip.
        path = tmp_path / "empty.csv"
        empty = ChipDataset([], [], [], env=[], flag=[], chip_id="c7")
        with pytest.raises(ValidationError, match="cannot save chip 'c7' with no rows"):
            save_measurements(empty, path)
        assert not path.exists()

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

    @pytest.mark.parametrize("text, line", [
        ("c,0,0.0,10000,ambient,ok\nch\0ip,0,86400.0,10100,ambient,ok\n", 3),
        ("c,0,0.0,10000,ambient,ok\r\nc,1,0.0,1\0,ambient,ok\r\n", 3),
        ('c,0,0.0,10000,ambient,ok\r"c\n\0",1,0.0,1,ambient,ok\r', 4),
    ], ids=["plain", "crlf", "in-a-quoted-field"])
    def test_nul_refused_naming_its_line(self, tmp_path, text, line):
        # Python 3.10's csv.reader refuses a NUL and 3.11's reads it into the
        # field; the file is refused on both, and the reference agrees.
        path = tmp_path / "nul.csv"
        path.write_text(",".join(MEASUREMENT_HEADER) + "\n" + text, newline="")
        for loader in (load_measurements, reference_load_measurements):
            with pytest.raises(ParseError) as err:
                loader(path)
            assert str(err.value) == f"{path}: line {line}: line contains NUL"
            assert err.value.lines == [line]

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
        assert sched.segments[1][1] is GLOVEBOX
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

    def test_omitted_arguments_take_the_event_types_defaults(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("event,1,voltage\nevent,2,thermal,temp_c=200\n")
        v, t = load_events(path)
        assert v.kind == VoltageAnneal() and v.junction_ids is None
        assert t.kind == ThermalAnneal(temp_c=200.0) and t.kind.env == GLOVEBOX

    @pytest.mark.parametrize("args, key", [
        ("temp_c=250,env=glovebox,hold=30", "thermal argument 'hold'"),
        ("temp_c=250,n_pulses=3", "thermal argument 'n_pulses'"),
        ("temp_c=250,=30", "thermal argument ''"),
    ])
    def test_unknown_argument_refused_naming_the_line(self, tmp_path, args, key):
        # A misspelt argument used to be dropped, running the default step.
        path = tmp_path / "ev.txt"
        path.write_text(f"event,1,thermal,temp_c=200\nevent,2,thermal,{args}\n")
        with pytest.raises(ParseError, match=f"line 2: unknown {key}") as err:
            load_events(path)
        assert err.value.lines == [2]

    def test_missing_required_argument_refused(self, tmp_path):
        path = tmp_path / "ev.txt"
        path.write_text("event,2,thermal,env=ambient\n")
        with pytest.raises(ParseError, match="line 1: missing thermal argument 'temp_c'"):
            load_events(path)

    @pytest.mark.parametrize("args, key", [
        ("junctions=0-3,junctions=5", "junctions"),
        ("n_pulses=3,n_pulses=40", "n_pulses"),
        ("n_pulses=3, n_pulses =3", "n_pulses"),
    ])
    def test_repeated_argument_refused_naming_it(self, tmp_path, args, key):
        path = tmp_path / "ev.txt"
        path.write_text(f"event,1,voltage\nevent,2,voltage,{args}\n")
        with pytest.raises(ParseError, match=f"line 2: repeated argument '{key}'") as err:
            load_events(path)
        assert err.value.lines == [2]

    def test_malformed_pair_reported_once(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0,ambient\nevent,5,thermal,temp_c\n")
        with pytest.raises(ParseError) as err:
            load_schedule(path)
        assert err.value.lines == [2]
        assert str(err.value) == f"{path}: line 2: expected key=value, got 'temp_c'"

    def test_line_ends_are_only_cr_and_lf(self, tmp_path):
        # Vertical tab, form feed, \x1c-\x1e, NEL and the Unicode line and
        # paragraph separators do not end a line, so a comment holding one
        # stays a comment.
        path = tmp_path / "s.txt"
        path.write_text("0,ambient\n# a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029,mars\n"
                        "4,glovebox\n", encoding="utf-8")
        sched, events = load_schedule(path)
        assert [s for s, _ in sched.segments] == [0.0, 4 * DAY] and events == []


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


ENVS = st.sampled_from(list(EnvironmentKind))
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
# Each event kind's arguments, each present or left out (temp_c is required).
EVENT_ARGUMENTS = {
    VoltageAnneal: st.fixed_dictionaries({}, optional={
        "n_pulses": st.integers(1, 10**6), "amplitude_v": POSITIVE,
        "pulse_duration_s": POSITIVE}),
    ThermalAnneal: st.fixed_dictionaries({"temp_c": st.floats(-300.0, 1000.0)}, optional={
        "env": ENVS, "hold_min": st.floats(0.0, 1e4)}),
}
JUNCTION_CHUNKS = st.lists(st.one_of(
    st.integers(0, 500),
    st.tuples(st.integers(0, 500), st.integers(0, 40)).map(lambda c: (c[0], c[0] + c[1]))),
    min_size=1, max_size=4)
# Comments may hold any encodable character but \r and \n, including ones that
# str.splitlines would take for line ends.
COMMENTS = st.one_of(
    st.just(""),
    st.text(st.characters(blacklist_categories=["Cs"],
                         blacklist_characters="\r\n"), max_size=12).map("#{}".format),
    st.just("# \x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 event,1,laser"),
)


def _argument_text(value) -> str:
    return value.value if isinstance(value, EnvironmentKind) else repr(value)


@st.composite
def schedule_files(draw):
    """(lines, schedule, events, arguments): the file's lines, what it
    declares, and the (line index, part index) of every key=value argument."""
    starts = draw(st.lists(st.floats(1e-3, 1e4), max_size=4, unique_by=lambda d: d * DAY))
    segments = [(d, draw(ENVS)) for d in [0.0, *sorted(starts)]]
    records = [("segment", f"{d!r},{env.value}") for d, env in segments]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([VoltageAnneal, ThermalAnneal]))
        t_days = draw(st.floats(0.0, 1e4))
        args = draw(EVENT_ARGUMENTS[kind])
        texts = [f"{k}={_argument_text(v)}" for k, v in args.items()]
        junctions = draw(st.none() | JUNCTION_CHUNKS)
        ids = None
        if junctions is not None:
            texts.append("junctions=" + "+".join(
                str(c) if isinstance(c, int) else f"{c[0]}-{c[1]}" for c in junctions))
            ids = tuple(sorted({j for c in junctions for j in (
                [c] if isinstance(c, int) else range(c[0], c[1] + 1))}))
        texts = draw(st.permutations(texts))
        name = "voltage" if kind is VoltageAnneal else "thermal"
        event = AnnealEvent(t_s=t_days * DAY, kind=kind(**args), junction_ids=ids)
        records.insert(draw(st.integers(0, len(records))),
                       (event, ",".join(["event", repr(t_days), name, *texts])))
    lines, events, arguments = [], [], []
    for record, text in records:
        lines.extend(draw(st.lists(COMMENTS, max_size=2)))
        if record != "segment":
            events.append(record)
            arguments += [(len(lines), k) for k in range(3, len(text.split(",")))]
        lines.append(text)
    schedule = StorageSchedule(segments=tuple((d * DAY, env) for d, env in segments))
    return lines, schedule, sorted(events, key=lambda ev: ev.t_s), arguments


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=schedule_files(), eol=st.sampled_from(["\n", "\r\n", "\r"]),
       bom=st.sampled_from([b"", b"\xef\xbb\xbf"]), data=st.data())
def test_schedule_file_round_trip(tmp_path, file, eol, bom, data):
    lines, schedule, events, arguments = file
    path = tmp_path / "round.txt"
    path.write_bytes(bom + (eol.join(lines) + eol).encode("utf-8"))
    assert load_schedule(path) == (schedule, events)
    assert load_events(path) == events
    if arguments:
        # Renaming an argument, e.g. amplitude_v to amplitude_, names its line.
        i, k = data.draw(st.sampled_from(arguments))
        parts = lines[i].split(",")
        key, value = parts[k].split("=", 1)
        parts[k] = f"{key[:-1]}={value}"
        renamed = [*lines[:i], ",".join(parts), *lines[i + 1:]]
        path.write_bytes(bom + (eol.join(renamed) + eol).encode("utf-8"))
        with pytest.raises(ParseError, match=f"line {i + 1}: unknown") as err:
            load_schedule(path)
        assert err.value.lines == [i + 1]


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
# A report in the version 1 layout: with histograms, and no stop_reason.
_REPORT_JSON = (b'{"average": {"at_bounds": [], "converged": true, '
                b'"degenerate_timescales": false, "iterations": 7, "messages": [], '
                b'"n_points": 2, "params": {"a": 0.21, "b": 1.01, '
                b'"kind": "single-log", "r0_ohm": 1.0, "tau_s": 12000.0}, "rss": 0.0, '
                b'"stderr": {"a": 0.001, "b": 0.002, "tau_s": 150.0}}, '
                b'"average_r0_ohm": 10050.0, "chip_id": "c7", "cv_series": [], '
                b'"histograms": {}, "junction_ids": [0], "last_env": "ambient", '
                b'"last_t_s": 86400.0, "per_junction": {}, "provenance": {}, "r0_ohm": {}, '
                b'"schema_version": 1, "skipped": {}}\n')


@pytest.mark.parametrize("value, message", [
    (b"NaN", "invalid report JSON (NaN is not a JSON number)"),
    (b"Infinity", "invalid report JSON (Infinity is not a JSON number)"),
    (b"-Infinity", "invalid report JSON (-Infinity is not a JSON number)"),
    (b"1e400", "invalid report JSON (1e400 overflows a float)"),
    (b"1" + b"0" * 400, "invalid report JSON (100000000000000000000000... overflows a float)"),
])
def test_report_without_a_finite_number_is_refused(tmp_path, value, message):
    # Each used to be read, leaving a report that write_report then refused.
    path = tmp_path / "r.json"
    path.write_bytes(_REPORT_JSON.replace(b'"rss": 0.0', b'"rss": ' + value))
    with pytest.raises(ParseError) as err:
        read_report(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_report_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match="malformed report: not a JSON object"):
        read_report(path)


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
            per_junction={0: FitResult(AgingParams(a=0.2, tau_s=1e4, b=1.0),
                                       stderr={"a": 0.01, "b": 0.02, "tau_s": 300.0},
                                       rss=0.0, converged=True, n_points=2, iterations=4,
                                       stop_reason="step_tol"),
                          2: FitResult(TwoLogParams(a_int=0.0, tau_int_s=1e8, a_ext=0.1,
                                                    tau_ext_s=5e7),
                                       stderr={"a_ext": 0.5, "a_int": math.nan,
                                               "tau_ext_s": 1e6, "tau_int_s": math.nan},
                                       rss=1e-3, converged=False, n_points=9, iterations=200,
                                       at_bounds=("a_int", "tau_int_s"),
                                       messages=("J^T J is singular",),
                                       degenerate_timescales=True, stop_reason="max_iter")},
            average=FitResult(AgingParams(a=0.21, tau_s=1.2e4, b=1.01),
                              stderr={"a": 0.001, "b": 0.002, "tau_s": 150.0},
                              rss=1e-9, converged=True, n_points=2, iterations=7),
            r0_ohm={0: 10_000.0, 2: 9_800.0},
            average_r0_ohm=10_050.0,
            cv_series=((0.0, 0.05, 3), (1.0, None, 1)),
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

    def test_every_fit_field_round_trips(self, tmp_path):
        rep = self._report()
        path = tmp_path / "report.json"
        write_report(rep, path)
        back = read_report(path)
        for j, fit in [(None, rep.average), *rep.per_junction.items()]:
            got = back.average if j is None else back.per_junction[j]
            for name in (f.name for f in fields(FitResult)):
                want, have = getattr(fit, name), getattr(got, name)
                if name == "stderr":   # NaN compares as NaN
                    assert list(have) == list(want)
                    assert [str(v) for v in have.values()] == [str(v) for v in want.values()]
                else:
                    assert have == want, name

    def test_byte_stable(self, tmp_path):
        rep = self._report()
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(rep, p1)
        write_report(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        json.loads(p1.read_text())  # strictly valid JSON, no NaN tokens

    @pytest.mark.parametrize("fit, stop_reason, named", [
        ("average", "banana", "bad 'average.stop_reason' (ValueError: 'banana' is not one of"),
        ("0", "max_iter", "bad 'per_junction.0.stop_reason' ('max_iter' on a fit with "
                          "converged True)"),
        ("2", "no_descent", "bad 'per_junction.2.stop_reason' ('no_descent' on a fit with "
                            "converged False)"),
    ])
    def test_stop_reason_must_be_the_fitters_and_agree_with_converged(
            self, tmp_path, fit, stop_reason, named):
        d = self._report().to_dict()
        (d["average"] if fit == "average" else d["per_junction"][fit])["stop_reason"] = stop_reason
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ParseError, match="malformed report") as err:
            read_report(path)
        assert named in str(err.value)

    def test_unknown_junction_rejected(self):
        rep = self._report()
        with pytest.raises(Exception):
            FitReport(**{**rep.__dict__, "per_junction": {9: {}}})


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def fit_results(draw):
    """Fits of either model, with NaN and inf among the stderr values.  A fit
    with a stop reason converged unless it stopped on ``"max_iter"``, as the
    fitter makes them; one without (a version 1 fit) may have either."""
    if draw(st.booleans()):
        params = AgingParams(a=draw(_finite(0, 1)), tau_s=draw(_finite(1, 1e8)),
                             b=draw(_finite(0.1, 10)))
    else:
        params = TwoLogParams(a_int=draw(_finite(0, 1)), tau_int_s=draw(_finite(1, 1e8)),
                              a_ext=draw(_finite(0, 1)), tau_ext_s=draw(_finite(1, 1e8)))
    names = [f.name for f in fields(params) if f.name != "r0_ohm"]
    stop_reason = draw(st.sampled_from([None, "step_tol", "rss_tol", "no_descent", "max_iter"]))
    return FitResult(
        params=params,
        stderr={name: draw(st.floats()) for name in names},
        rss=draw(_finite(0, 1e3)),
        converged=draw(st.booleans()) if stop_reason is None else stop_reason != "max_iter",
        n_points=draw(st.integers(0, 10**4)),
        iterations=draw(st.integers(0, 500)),
        at_bounds=tuple(draw(st.lists(st.sampled_from(names), unique=True))),
        messages=tuple(draw(st.lists(st.text(max_size=12), max_size=2))),
        degenerate_timescales=draw(st.booleans()),
        stop_reason=stop_reason,
    )


@st.composite
def chip_fits(draw):
    """A ChipFitResult for ``small_dataset``'s junctions 0-2, each fitted or skipped."""
    fitted = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    per_junction = {j: draw(fit_results()) for j in range(3) if fitted[j]}
    return ChipFitResult(
        per_junction=per_junction, average=draw(fit_results()),
        r0_ohm={j: draw(_finite(1, 1e6)) for j in per_junction},
        average_r0_ohm=draw(_finite(1, 1e6)),
        skipped={j: draw(st.text(max_size=12)) for j in range(3) if not fitted[j]},
        aggregate=draw(st.lists(st.tuples(_finite(0, 1e8), _finite(1, 1e6),
                                          st.just(math.nan) | _finite(0, 1),
                                          st.integers(1, 16)), max_size=3)),
    )


def _as_read(fit: FitResult) -> FitResult:
    """A fit as a report gives it back: non-finite stderr as NaN.  (``math.nan``
    is what the reader stores, so dict equality holds by identity.)"""
    return replace(fit, stderr={
        k: v if math.isfinite(v) else math.nan for k, v in fit.stderr.items()})


def _typed_nodes(d: dict):
    """(container, key) of every value in a report's typed fields; histograms
    (version 1) and provenance are free-form."""
    stack = [(d, k) for k in d if k not in ("histograms", "provenance")]
    nodes = []
    while stack:
        parent, key = stack.pop()
        nodes.append((parent, key))
        value = parent[key]
        if isinstance(value, dict):
            stack.extend((value, k) for k in value)
        elif isinstance(value, list):
            stack.extend((value, i) for i in range(len(value)))
    return nodes


def _retyped(value) -> list:
    """Values of another JSON type than ``value``: a string goes in a list;
    anything else becomes its JSON text or, for a bool, int or float, one of
    the others, which Python compares equal to it.  A float becomes only a
    bool, since a number field takes an integer too."""
    if isinstance(value, str):
        return [[value]]
    if isinstance(value, bool):
        return [json.dumps(value), int(value), float(value)]
    if isinstance(value, int):
        return [json.dumps(value), float(value), bool(value)]
    if isinstance(value, float):
        return [json.dumps(value), bool(value)]
    return [json.dumps(value)]


def _records(d: dict) -> list[dict]:
    """The report's objects whose keys are fixed: the top level, each fit
    and each fit's params."""
    fits = [d["average"], *d["per_junction"].values()]
    return [d, *fits, *(f["params"] for f in fits)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chip_fit=chip_fits(), data=st.data())
def test_report_round_trip_and_malformed_reports(tmp_path, chip_fit, data):
    built = build_fit_report(small_dataset(), chip_fit, {"seed": 0})
    assert built.cv_series == tuple((t / DAY, None if math.isnan(cv) else cv, n)
                                    for t, _, cv, n in chip_fit.aggregate)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(built, p1)
    back = read_report(p1)
    write_report(back, p2)
    assert p2.read_bytes() == p1.read_bytes()
    assert back == replace(built, average=_as_read(built.average), per_junction={
        j: _as_read(f) for j, f in built.per_junction.items()})

    # The version 1 layout of the same report reads as it, without stop_reasons.
    d = v1_report(back) if data.draw(st.booleans()) else json.loads(p1.read_text())
    if d["schema_version"] == 1:
        (tmp_path / "v1.json").write_text(json.dumps(d))
        assert read_report(tmp_path / "v1.json") == replace(back, average=replace(
            back.average, stop_reason=None), per_junction={
            j: replace(f, stop_reason=None) for j, f in back.per_junction.items()})

    # One change of a JSON type in a typed field, or one key deleted or added.
    change = data.draw(st.sampled_from(["retype", "delete", "add"]))
    if change == "retype":
        parent, key = data.draw(st.sampled_from(_typed_nodes(d)))
        value = parent[key]
        parent[key] = data.draw(st.sampled_from(_retyped(value)))
    else:
        record = data.draw(st.sampled_from(_records(d)))
        if change == "delete":
            del record[data.draw(st.sampled_from(sorted(record)))]
        else:
            record["unknown"] = data.draw(st.sampled_from([None, 0, "x", [], {}]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    with pytest.raises(ParseError, match="malformed report"):
        read_report(bad)


GOLDEN_CSV = """\
chip_id,junction_id,t_seconds,resistance_ohms,environment,flag
c7,0,0.0,10000.0,ambient,ok
c7,0,86400.0,11000.0,ambient,ok
c7,1,0.0,,ambient,open
c7,2,0.0,9800.0,glovebox,excluded
"""

class TestGoldenFiles:
    def test_measurement_csv_bytes(self, tmp_path):
        path = tmp_path / "golden.csv"
        save_measurements(small_dataset(), path)
        assert path.read_text() == GOLDEN_CSV


SOURCES = Path(__file__).resolve().parents[1] / "src" / "jjaging"
# The only function that may open a file to read it.
READERS = {("dataio.py", "_read_text")}


def _reading_opens(path: Path):
    """(file, function, line) of each ``open(...)`` call in a source file whose
    mode is not a write or append mode, and of each read_text/read_bytes call."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            node.args[1] if len(node.args) > 1 else None)
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and any(c in mode.value for c in "wax")):
                    sites.append((path.name, func, node.lineno))
            elif getattr(node.func, "attr", None) in ("read_text", "read_bytes"):
                sites.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_every_file_is_read_through_read_text():
    sites = [site for path in sorted(SOURCES.glob("*.py")) for site in _reading_opens(path)]
    assert [s for s in sites if s[:2] not in READERS] == []
    assert {s[:2] for s in sites} == READERS   # the guard still sees the reader
