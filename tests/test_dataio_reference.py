"""The measurement CSV writer and reader against the row-at-a-time versions
in ``reference_dataio``: equal bytes, equal columns, equal error reports.

Three differences are intended and tested on their own: the reader's
one-chip-per-file rule (the differential reader tests use files with a
single chip id), the writer's quoting of a chip id that holds a bare
carriage return, which the reference writes bare and so splits the record,
and the writer's refusal of an empty dataset, which the reference writes as
a header-only file that names no chip.
"""

import csv
import io
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jjaging import (
    ChipDataset,
    ParseError,
    ValidationError,
    chip_preset,
    draw_chip,
    load_measurements,
    save_measurements,
    simulate_chip,
)
from jjaging import dataio
from jjaging.dataio import MEASUREMENT_HEADER
from jjaging.ensemble import ENV_LABELS, FLAGS
from reference_dataio import reference_load_measurements, reference_save_measurements

DAY = 86400.0
FLAG_OPEN = FLAGS.index("open")
SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# Chip ids the csv module has to quote or keep as they are.
AWKWARD_IDS = ["", "c7", "a,b", 'a,"b', 'say "hi"', "two\nlines", "cr\rid", "cr\r\nlf",
               " lead", "trail ", "Δchip-µ", "日本", "tab\tid"]
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=8)
CHIP_IDS = st.one_of(st.sampled_from(AWKWARD_IDS), TEXT)


@st.composite
def datasets(draw):
    """Datasets of one chip, open rows holding any resistance."""
    chip_id = draw(CHIP_IDS)
    n = draw(st.integers(0, 14))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cols = {k: [] for k in ("junction_id", "t_s", "r_ohm", "env", "flag")}
    for _ in range(n):
        flag = draw(st.integers(0, len(FLAGS) - 1))
        if flag == FLAG_OPEN:
            r = draw(st.one_of(st.just(math.nan), st.floats()))
        else:
            r = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        cols["junction_id"].append(draw(st.one_of(st.integers(0, 20),
                                                  st.integers(-2**63, 2**63 - 1))))
        cols["t_s"].append(draw(finite))
        cols["r_ohm"].append(r)
        cols["env"].append(draw(st.integers(0, len(ENV_LABELS) - 1)))
        cols["flag"].append(flag)
    return ChipDataset(**cols, chip_id=chip_id)


def columns(ds: ChipDataset):
    return (ds.junction_id.dtype, ds.junction_id.tolist(), ds.t_s.dtype, ds.t_s.tobytes(),
            ds.r_ohm.dtype, ds.r_ohm.tobytes(), ds.env.dtype, ds.env.tolist(),
            ds.flag.dtype, ds.flag.tolist(), ds.chip_id)


def outcome(loader, path):
    """Columns of a good file, or the message and lines of its ParseError."""
    try:
        return ("ok", columns(loader(path)))
    except ParseError as exc:
        return ("error", str(exc), exc.lines)


@SETTINGS
@given(ds=datasets())
def test_writer_bytes_equal_reference(tmp_path, ds):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    if not len(ds):
        # The reference writes a header-only file, which names no chip.
        with pytest.raises(ValidationError, match="with no rows"):
            save_measurements(ds, new)
        return
    save_measurements(ds, new)
    reference_save_measurements(ds, ref)
    if "\r" not in ds.chip_id:
        assert new.read_bytes() == ref.read_bytes()
        return
    # The intended difference: the reference writes an id with a bare
    # carriage return unquoted, so its records split when read.  Here every
    # record reads back as the fields the reference was asked to write.
    with open(new, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [MEASUREMENT_HEADER] + [
        [ds.chip_id, str(j), repr(t), "" if math.isnan(r) else repr(r), ENV_LABELS[e],
         FLAGS[f]]
        for j, t, r, e, f in zip(ds.junction_id.tolist(), ds.t_s.tolist(),
                                 ds.r_ohm.tolist(), ds.env.tolist(), ds.flag.tolist())
    ]


def test_writer_quotes_chip_ids_as_csv_does(tmp_path):
    path = tmp_path / "q.csv"
    save_measurements(ChipDataset([0], [0.0], [1.0], [0], [0], 'a,"b'), path)
    assert path.read_text().splitlines()[1] == '"a,""b",0,0.0,1.0,ambient,ok'


def test_chip_id_with_bare_carriage_return_is_quoted_and_reads_back(tmp_path):
    path = tmp_path / "cr.csv"
    ds = ChipDataset([0, 1], [0.0, 60.0], [1.0, 2.0], [0, 0], [0, 0], "a\rb")
    save_measurements(ds, path)
    assert path.read_bytes().split(b"\n")[1] == b'"a\rb",0,0.0,1.0,ambient,ok'
    assert columns(load_measurements(path)) == columns(ds)
    # The reference writer leaves the id bare, and the record splits on reading.
    reference_save_measurements(ds, path)
    with pytest.raises(ParseError, match="line 2: expected 5 or 6 fields, got 1"):
        load_measurements(path)


# --- reader ------------------------------------------------------------------

LABEL_SPELLINGS = {
    "env": [lambda s: s, str.upper, lambda s: f" {s.title()} ", lambda s: f"{s}\t"],
    "flag": [lambda s: s, str.upper, lambda s: f" {s.capitalize()}"],
}


@st.composite
def good_rows(draw, chip_id):
    """One well-formed row as a list of fields."""
    flag = draw(st.sampled_from(FLAGS))
    if flag == "open":
        r = draw(st.sampled_from(["", "1234.5", "2.5e6", "inf"]))
    else:
        r = repr(draw(st.floats(min_value=1e-3, max_value=1e6)))
    t = draw(st.floats(min_value=0.0, max_value=1e9))
    t_text = draw(st.sampled_from([repr(t), f"{t:g}", f" {t!r} ", repr(float(int(t)))]))
    j = draw(st.integers(0, 6))
    j_text = draw(st.sampled_from([str(j), f" {j}", f"+{j}", f"0{j}"]))
    env = draw(st.sampled_from(LABEL_SPELLINGS["env"]))(draw(st.sampled_from(ENV_LABELS)))
    spelled = draw(st.sampled_from(LABEL_SPELLINGS["flag"]))(flag)
    pad = draw(st.sampled_from(["", " ", "\t"]))
    row = [pad + chip_id + pad, j_text, t_text, r, env, spelled]
    if flag == "ok" and draw(st.booleans()):
        row = row[:5] if draw(st.booleans()) else row[:5] + [""]
    return row


# Field values that break one check each (and some that pass): (field, value).
FIELD_MUTATIONS = [
    (1, "xx"), (1, "1.5"), (1, ""), (1, " "), (1, "99999999999999999999"),
    (1, "-9223372036854775809"), (1, "9223372036854775807"), (1, "-9223372036854775808"),
    (2, "abc"), (2, "nan"), (2, "inf"), (2, "-inf"), (2, "-1"), (2, "-0.0"), (2, "1e400"),
    (2, ""), (3, ""), (3, "0"), (3, "-5"), (3, "2.5e6"), (3, "1e6"), (3, "nan"), (3, "inf"),
    (3, "-inf"), (3, "abc"), (3, " 12.5 "), (4, "mars"), (4, " AmBiEnT "), (4, ""),
    (5, "broken"), (5, " OPEN"), (5, "Ok"), (5, ""), (5, "open"),
    # Longer than the 24 characters a message quotes.
    (3, "1" * 24 + "x"), (4, "m" * 30), (5, "b" * 25),
]
BLANK_LINES = [[], [""], ["   "], [""] * 5, [" "] * 6, [""] * 3, ["", "\t"]]
# Weighted so that each row check fails in some examples.
MUTATION_KINDS = ["field"] * 4 + ["count", "blank", "duplicate", "five"]


@st.composite
def measurement_files(draw, mutate: bool):
    """CSV records after the header, each a field list, with one chip id
    throughout, and the line end that ``write_records`` ends them with.

    Files that end every record in \\n and hold no quote, blank line or row
    without six fields take the reader's ``str.split`` path; the others
    take its ``csv.reader`` path."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    chip_id = draw(CHIP_IDS).strip()
    records = draw(st.lists(good_rows(chip_id), max_size=10))
    if mutate:
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(MUTATION_KINDS))
            if kind == "blank" or not records:
                records.insert(draw(st.integers(0, len(records))),
                               list(draw(st.sampled_from(BLANK_LINES))))
                continue
            i = draw(st.integers(0, len(records) - 1))
            row = list(records[i])
            if kind == "field":
                field, value = draw(st.sampled_from(FIELD_MUTATIONS))
                row += [""] * (field + 1 - len(row))
                row[field] = value
            elif kind == "count":
                row = draw(st.sampled_from([row[:4], row[:1], row + ["x"], row * 2]))
            elif kind == "five":
                row = row[:5]
            else:
                src = records[draw(st.integers(0, len(records) - 1))]
                row[1:3] = src[1:3]
            records[i] = row
    return records, eol


def write_records(path, records, header=MEASUREMENT_HEADER, eol="\r\n"):
    buf = io.StringIO()
    # With "\r\n" ending records the csv module quotes a field holding a
    # bare carriage return, so such a chip id stays in one record.
    w = csv.writer(buf, lineterminator=eol)
    w.writerow(header)
    for rec in records:
        if rec and not any(f.strip() for f in rec):
            buf.write(",".join(rec) + "\n")   # a blank line as typed, unquoted
        else:
            w.writerow(rec)
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")


@SETTINGS
@given(file=measurement_files(mutate=False))
def test_reader_equals_reference_on_well_formed_files(tmp_path, file):
    path = tmp_path / "good.csv"
    records, eol = file
    write_records(path, records, eol=eol)
    assert outcome(load_measurements, path) == outcome(reference_load_measurements, path)


def test_reader_equals_reference_on_mutated_files(tmp_path):
    # Both of the reader's paths, str.split and csv.reader, must be hit.
    paths = Counter()
    split_fields = dataio._split_fields

    def spy(text):
        split = split_fields(text)
        paths["split" if split else "csv.reader"] += 1
        return split

    @settings(max_examples=300, deadline=None)
    @given(file=measurement_files(mutate=True))
    def check(file):
        path = tmp_path / "mutated.csv"
        records, eol = file
        write_records(path, records, eol=eol)
        assert outcome(load_measurements, path) == outcome(reference_load_measurements, path)

    with mock.patch.object(dataio, "_split_fields", spy):
        check()
    assert paths["split"] and paths["csv.reader"], paths


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("chip_id", AWKWARD_IDS)
def test_reader_equals_reference_on_awkward_chip_ids(tmp_path, chip_id, eol):
    # Every id through both line ends: with "\n" a plain id takes the
    # str.split path, and an id the csv module must quote the csv.reader one.
    path = tmp_path / "ids.csv"
    write_records(path, [[chip_id, "0", "0.0", "1.0", "ambient", "ok"],
                         [chip_id, "1", "60.0", "2.0", "ambient", "ok"]], eol=eol)
    assert outcome(load_measurements, path) == outcome(reference_load_measurements, path)


@pytest.mark.parametrize("text", [
    "",
    "a,b,c\n",
    " chip_id , junction_id,t_seconds,resistance_ohms,environment,flag\n",
    "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n",
    "chip_id,junction_id,t_seconds,resistance_ohms,environment,flag\n\n\n",
    'chip_id,junction_id,t_seconds,resistance_ohms,"environment,flag\nc,0,0.0,1.0,ambient\n',
])
def test_reader_equals_reference_on_headers(tmp_path, text):
    path = tmp_path / "h.csv"
    path.write_text(text)
    assert outcome(load_measurements, path) == outcome(reference_load_measurements, path)


def test_each_line_reports_only_its_first_failing_check(tmp_path):
    path = tmp_path / "bad.csv"
    write_records(path, [
        ["c", "x", "nan", "", "mars", "bogus"],    # parse beats everything after it
        ["c", "1", "-1", "", "mars", "bogus"],     # environment beats flag and time
        ["c", "2", "-1", "", "ambient", "bogus"],  # flag beats time
        ["c", "3", "-1", "", "ambient", "ok"],     # time beats the empty resistance
        ["c", "4", "0", "", "ambient", "ok"],
        ["c", "5", "0", "-3", "ambient", "ok"],
    ])
    with pytest.raises(ParseError) as err:
        load_measurements(path)
    assert err.value.lines == [2, 3, 4, 5, 6, 7]
    assert str(err.value) == (
        f"{path}: line 2: junction_id must be an integer and t_seconds a number; "
        "line 3: unknown environment 'mars'; line 4: unknown flag 'bogus'; "
        "line 5: t_seconds must be finite and >= 0; "
        "line 6: empty resistance only allowed for open rows; "
        "line 7: resistance must be > 0"
    )
    assert outcome(reference_load_measurements, path) == outcome(load_measurements, path)


# --- one chip per file --------------------------------------------------------


def test_mixed_chip_ids_name_the_first_other_line(tmp_path):
    path = tmp_path / "mixed.csv"
    rows = [["A", str(j), "0.0", "10000.0", "ambient", "ok"] for j in range(3)]
    rows += [["B", str(j), "3600.0", "13000.0", "ambient", "ok"] for j in range(3)]
    write_records(path, rows)
    with pytest.raises(ParseError) as err:
        load_measurements(path)
    assert err.value.lines == [5]
    assert "line 5: chip_id 'B' differs from 'A' on line 2" in str(err.value)
    # The reference reader has no such rule and reads the file as one chip.
    assert len(reference_load_measurements(path)) == 6


def test_mixed_chip_ids_reported_beside_row_problems(tmp_path):
    path = tmp_path / "mixed.csv"
    write_records(path, [["A", "x", "0", "1", "ambient", "ok"],
                         ["B", "0", "0", "1", "ambient", "ok"],
                         ["C", "1", "0", "1", "ambient", "ok"],
                         ["B", "2", "0", "1", "ambient", "ok"]])
    with pytest.raises(ParseError) as err:
        load_measurements(path)
    # The first valid row (line 3) sets the chip; line 4 is the first other one.
    assert err.value.lines == [2, 4]
    assert "line 4: chip_id 'C' differs from 'B' on line 3" in str(err.value)


def test_chip_ids_compare_after_stripping(tmp_path):
    path = tmp_path / "spaced.csv"
    write_records(path, [["A", "0", "0", "1", "ambient", "ok"],
                         [" A ", "0", "60", "1", "ambient", "ok"]])
    ds = load_measurements(path)
    assert ds.chip_id == "A" and len(ds) == 2


# --- round trips --------------------------------------------------------------


@st.composite
def loadable_datasets(draw):
    """Single-chip datasets that a load gives back unchanged: unique
    (junction, time) keys, times >= 0 and no id the loader would strip."""
    chip = draw(CHIP_IDS.filter(lambda s: s == s.strip()))
    keys = draw(st.lists(st.tuples(st.integers(0, 20), st.floats(0.0, 1e9)),
                         max_size=14, unique=True))
    flags = [draw(st.integers(0, len(FLAGS) - 1)) for _ in keys]
    r = [math.nan if f == FLAG_OPEN else draw(st.floats(1e-6, 1e6)) for f in flags]
    env = [draw(st.integers(0, len(ENV_LABELS) - 1)) for _ in keys]
    return ChipDataset([j for j, _ in keys], [t for _, t in keys], r, env,
                                    flags, chip)


@SETTINGS
@given(ds=loadable_datasets())
def test_save_load_save_is_byte_identical(tmp_path, ds):
    first, second = tmp_path / "1.csv", tmp_path / "2.csv"
    if not len(ds):
        # The chip id is written on every row, so a header-only file would name no chip.
        with pytest.raises(ValidationError, match="with no rows"):
            save_measurements(ds, first)
        return
    save_measurements(ds, first)
    back = load_measurements(first)
    assert columns(back) == columns(ds)
    save_measurements(back, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("preset", ["chip3", "chip6"])
def test_simulated_file_round_trips_byte_identical(tmp_path, preset):
    p = chip_preset(preset)
    samples = np.arange(0.0, 30 * DAY + 1.0, 2 * DAY)
    ds = simulate_chip(draw_chip(p.spec, 4), p.schedule, [], samples, p.sim, 4,
                       chip_id='lot "7", wafer 2')
    first, second = tmp_path / "1.csv", tmp_path / "2.csv"
    save_measurements(ds, first)
    save_measurements(load_measurements(first), second)
    assert second.read_bytes() == first.read_bytes()
