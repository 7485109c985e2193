"""File formats: measurement CSV, schedule files, fit reports.

All files are plain UTF-8 text, newline-terminated, and byte-stable for
identical inputs (no timestamps, sorted keys).  Times are stored in days at
the file surface and converted to seconds internally.  Every input file is
read and decoded once, by ``_read_text``.

Measurement CSV (header required)::

    chip_id,junction_id,t_seconds,resistance_ohms,environment,flag

with environment in {ambient, glovebox, vacuum, unknown} and flag optional
(ok, open, excluded; default ok).  The resistance field may be empty only
for open rows; resistances above 1 MOhm or non-finite are coerced to open.
Fields follow the ``csv`` module's quoting rules, and a file holds one chip.

Schedule file: one segment per line ``start_days,environment`` plus event
lines ``event,t_days,voltage,...`` / ``event,t_days,thermal,...`` with
``key=value`` arguments, e.g.::

    0,ambient
    4,glovebox
    event,56,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1,junctions=0-7
    event,85,thermal,temp_c=200,env=glovebox,hold_min=10

An argument sets the event type's field of that name (an omitted one keeps
its default); ``junctions`` lists ids and ``lo-hi`` ranges joined by ``+``.
Lines end at \\n, \\r\\n or \\r; ``#`` comments and blank lines are ignored.

A fit report is the JSON of a ``FitReport`` of ``FitResult``s, whose layout
only this module knows.  ``read_report`` refuses (ParseError) a report that
``to_dict`` does not give back, or whose ``schema_version`` is not 2; a
version 1 report is first upgraded to version 2 by ``_from_v1``.  Reports
and the CLI's other JSON files are written compact, on one line
(``_write_json``); a reader takes any whitespace, so the ``indent=2`` layout
of earlier version 2 reports reads to the same report, and the schema is
still version 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import repeat
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .errors import ParseError, ValidationError
from .ensemble import (
    _ENV_CODE,
    _FLAG_CODE,
    ENV_LABELS,
    FLAG_OK,
    FLAG_OPEN,
    FLAGS,
    MAX_JUNCTION_RANGE,
    OPEN_RESISTANCE_THRESHOLD_OHM,
    ChipDataset,
)
from .fitting import STOP_REASONS, FitResult, _MAX_ITER
from .model import AgingParams, EnvironmentKind, TwoLogParams
from .trajectory import (
    DAY_S,
    AnnealEvent,
    StorageSchedule,
    ThermalAnneal,
    VoltageAnneal,
)

__all__ = [
    "MEASUREMENT_HEADER",
    "load_measurements",
    "save_measurements",
    "load_schedule",
    "load_events",
    "FitReport",
    "build_fit_report",
    "write_report",
    "read_report",
]

TOOL_VERSION = "0.1.0"

MEASUREMENT_HEADER = [
    "chip_id",
    "junction_id",
    "t_seconds",
    "resistance_ohms",
    "environment",
    "flag",
]


def _read_text(path, digest=None) -> str:
    """The text of a UTF-8 file without a leading byte-order mark; an
    undecodable byte is a ParseError naming its line (counting \\n, \\r\\n and
    \\r line ends) and byte offset.  Every file the package reads comes here;
    its raw bytes update a ``hashlib`` object ``digest`` if one is given."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digest is not None:
        digest.update(data)
    try:
        # As utf-8-sig, but the error offsets count the byte-order mark.
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        bad = exc.start
        line = data[:bad].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise ParseError(f"{path}: line {line}: not valid UTF-8 "
                         f"(byte {data[bad]:#04x} at offset {bad})", lines=[line]) from None


def _json_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# How much of an input field a message echoes.
_ECHO_CHARS = 24


def _capped(text: str, form=str) -> str:
    """``form(text)`` of ``text`` cut to ``_ECHO_CHARS`` characters, with
    ``...`` if cut, so that a message does not echo a whole file (as a
    stray quote that swallows the rest of a CSV makes one field)."""
    return f"{form(text[:_ECHO_CHARS])}{'...' if len(text) > _ECHO_CHARS else ''}"


def _json_number(parse):
    """A ``json.loads`` number hook: ``parse(text)``, refusing a value that
    overflows a float."""
    def number(text: str):
        value = parse(text)
        try:
            if math.isfinite(value):
                return value
        except OverflowError:   # an int too large for a float
            pass
        raise ValueError(f"{_capped(text)} overflows a float")
    return number


_JSON_HOOKS = {"parse_constant": _json_constant, "parse_float": _json_number(float),
               "parse_int": _json_number(int)}


def _read_json(path, what: str):
    """A UTF-8 JSON file's value; malformed JSON is a ParseError naming the file.

    JSON has no NaN or infinity, so the ``NaN``/``Infinity`` tokens that
    Python's decoder takes, and numbers too large for a float, are malformed.
    """
    text = _read_text(path)
    try:
        return json.loads(text, **_JSON_HOOKS)
    except ValueError as exc:   # json.JSONDecodeError, or a refused number
        raise ParseError(f"{path}: invalid {what} JSON ({exc})") from None


def _problems_error(path, problems: Sequence[tuple[int, str]], named=()) -> ParseError:
    """One ParseError listing ``(line, message)`` problems in line order; its
    ``lines`` are theirs and the ``named`` ones, sorted and without repeats."""
    details = "; ".join(f"line {ln}: {msg}" for ln, msg in sorted(problems))
    return ParseError(f"{path}: {details}", lines=sorted({*named, *(ln for ln, _ in problems)}))


def _csv_prefix(chip_id) -> str:
    """A row's first field and its comma, quoted as the ``csv`` module writes it.

    The ``csv`` module quotes a field holding a character of the line
    terminator; with ``"\r\n"`` that covers a bare carriage return, which a
    reader would otherwise take for the end of the record.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((chip_id, 0))
    return buf.getvalue()[:-3]


# Row endings ",environment,flag\n", indexed by env code * len(FLAGS) + flag code.
_ROW_TAILS = [f",{e},{f}\n" for e in ENV_LABELS for f in FLAGS]


def save_measurements(ds: ChipDataset, path) -> None:
    """Write a dataset in the measurement CSV schema (open rows keep an empty
    resistance field).

    The file is built as one string and written once.  Floats are written by
    ``repr`` and junction ids by ``str``; the chip id is quoted once by the
    ``csv`` module, so the bytes equal a ``csv.writer``'s, except that a
    chip id holding a bare carriage return is quoted too, so that the file
    reads back.  An empty dataset is refused: the chip id is written on each
    row, so a file without rows cannot name its chip.
    """
    if not len(ds):
        raise ValidationError(f"cannot save chip {ds.chip_id!r} with no rows: the "
                              "measurement CSV names its chip only on a row")
    prefix = _csv_prefix(ds.chip_id)
    res = list(map(repr, ds.r_ohm.tolist()))
    for i in np.flatnonzero(np.isnan(ds.r_ohm)).tolist():
        res[i] = ""
    tails = (ds.env.astype(np.intp) * len(FLAGS) + ds.flag).tolist()
    rows = [f"{prefix}{j},{t!r},{r}{_ROW_TAILS[k]}" for j, t, r, k in zip(
        ds.junction_id.tolist(), ds.t_s.tolist(), res, tails)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(MEASUREMENT_HEADER) + "\n" + "".join(rows))


def _parse_column(conv, texts: Sequence[str], fill) -> tuple[list, list[int]]:
    """``conv`` over a column; entries it refuses become ``fill`` and their
    indices are returned beside the values."""
    try:
        return list(map(conv, texts)), []
    except ValueError:
        values, bad = [], []
        for i, s in enumerate(texts):
            try:
                values.append(conv(s))
            except ValueError:
                values.append(fill)
                bad.append(i)
        return values, bad


def _int64_column(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """int64 array of Python ints plus the mask of those beyond int64 (stored as 0)."""
    try:
        return np.array(values, dtype=np.int64), np.zeros(len(values), dtype=bool)
    except OverflowError:
        wide = np.array([not -2**63 <= v < 2**63 for v in values], dtype=bool)
        return np.array([0 if w else v for v, w in zip(values, wide.tolist())],
                        dtype=np.int64), wide


def _blank(row: Sequence[str]) -> bool:
    return not "".join(row).strip()


def _refuse_nul(path, text: str) -> None:
    """A NUL in ``text`` is a ParseError naming the line of the first
    (counting \\n, \\r\\n and \\r line ends), in the words of Python 3.10's
    ``csv.reader``; Python 3.11's reader takes a NUL into its field."""
    nul = text.find("\0")
    if nul >= 0:
        line = text[:nul].replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise ParseError(f"{path}: line {line}: line contains NUL", lines=[line])


def _split_fields(text: str):
    """``(header, columns, line numbers, [])`` of a CSV text that ``str.split``
    cuts as ``csv.reader`` does, else None.  Such a text has no quote and no
    carriage return, is no longer than ``csv.field_size_limit()`` (so no
    field is), ends in \\n, and has exactly five commas on every line: one
    record per line, six fields each, and no blank line to skip."""
    if ('"' in text or "\r" in text or len(text) > csv.field_size_limit()
            or not text.endswith("\n")):
        return None
    lines = text.split("\n")
    lines.pop()   # the empty string after the final \n
    if set(map(str.count, lines, repeat(","))) != {5}:
        return None
    flat = ",".join(lines).split(",")
    return flat[:6], [flat[6 + k::6] for k in range(6)], np.arange(2, len(lines) + 1), []


def _csv_fields(path, text: str):
    """``(header, columns, line numbers, problems)`` of a CSV text split by
    ``csv.reader``.  A record of neither 5 nor 6 fields is a problem unless
    it is blank, and is dropped; a 5-field record has no flag, which reads
    as "ok"."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:   # e.g. a field longer than csv.field_size_limit()
        line = reader.line_num
        raise ParseError(f"{path}: line {line}: {exc}", lines=[line]) from None
    if not rows:
        raise ParseError(f"{path}: empty file (header required)")
    header, rows = rows[0], rows[1:]
    problems: list[tuple[int, str]] = []
    lineno = np.arange(2, len(rows) + 2)
    n_fields = np.fromiter(map(len, rows), np.intp, len(rows))
    if (n_fields != 6).any():
        for i in np.flatnonzero((n_fields != 5) & (n_fields != 6)).tolist():
            if not _blank(rows[i]):
                problems.append((i + 2, f"expected 5 or 6 fields, got {len(rows[i])}"))
        keep = np.flatnonzero((n_fields == 5) | (n_fields == 6))
        lineno = lineno[keep]
        rows = [rows[i] if len(rows[i]) == 6 else [*rows[i], ""] for i in keep.tolist()]
    return header, list(zip(*rows)) if rows else [()] * 6, lineno, problems


def load_measurements(path, digest=None) -> ChipDataset:
    """Parse, validate, and sort a measurement CSV.

    Malformed rows are collected and raised together as a ParseError naming
    the offending 1-based line numbers (CSV records, counted from the header
    as line 1); a header-only file yields an empty dataset.  Times must be
    finite and >= 0, and no two rows may share (junction_id, t_seconds); a
    duplicate names both lines.  Resistances above the open threshold (or
    non-finite) are flagged open.  A file holds one chip: the first row whose
    chip_id differs from the first valid row's is reported.  A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped; a file that is
    not UTF-8 is refused, naming the line of its first undecodable byte, as
    is one holding a NUL, naming the line of the first, and one that
    ``csv.reader`` cannot split (a field longer than
    ``csv.field_size_limit()``), naming the line it stopped on.  Messages
    quote at most ``_ECHO_CHARS`` characters of a field.

    The fields are split by ``str.split`` when that cuts them as
    ``csv.reader`` would (``_split_fields``: the files ``save_measurements``
    writes for a plain chip id), and by ``csv.reader`` otherwise; either
    way the columns are then parsed and checked a column at a time, by the
    same code.  Each row reports only the first check it fails, in the
    order: field count; junction_id and t_seconds parse; junction_id within
    int64; environment; flag; t_seconds finite and >= 0; empty resistance
    only on open rows; resistance parse; resistance > 0.  A ``hashlib``
    object ``digest`` is updated with the raw bytes parsed.
    """
    text = _read_text(path, digest)
    _refuse_nul(path, text)
    header, columns, lineno, problems = _split_fields(text) or _csv_fields(path, text)
    if [h.strip() for h in header] != MEASUREMENT_HEADER:
        raise ParseError(
            f"{path}: bad header [{', '.join(_capped(h, repr) for h in header)}]; "
            f"expected {','.join(MEASUREMENT_HEADER)}",
            lines=[1],
        )
    m = len(lineno)
    chip_raw, j_raw, t_raw, r_raw, env_raw, flag_raw = columns

    junction, bad_j = _parse_column(int, j_raw, 0)
    t, bad_t = _parse_column(float, t_raw, 0.0)
    junction, wide = _int64_column(junction)
    t = np.array(t, dtype=float)
    unparsed = np.zeros(m, dtype=bool)
    unparsed[bad_j + bad_t] = True
    # Only a row whose junction_id fails to parse can be blank.
    blank = np.zeros(m, dtype=bool)
    blank[[i for i in bad_j if _blank([col[i] for col in columns])]] = True

    code_of = {s: _ENV_CODE.get(s.strip().lower(), -1) for s in set(env_raw)}
    env = np.fromiter(map(code_of.__getitem__, env_raw), np.int8, m)
    code_of = {s: _FLAG_CODE.get(s.strip().lower() or "ok", -1) for s in set(flag_raw)}
    flag = np.fromiter(map(code_of.__getitem__, flag_raw), np.int8, m)

    r, bad_r = _parse_column(float, r_raw, math.nan)
    r = np.array(r, dtype=float)
    empty, bad_res = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    for i in bad_r:
        (bad_res if r_raw[i].strip() else empty)[i] = True

    checks = (
        (unparsed, lambda i: "junction_id must be an integer and t_seconds a number"),
        (wide, lambda i: "junction_id out of range"),
        (env < 0, lambda i: f"unknown environment {_capped(env_raw[i].strip().lower(), repr)}"),
        (flag < 0, lambda i: f"unknown flag {_capped(flag_raw[i].strip().lower(), repr)}"),
        (~(np.isfinite(t) & (t >= 0)), lambda i: "t_seconds must be finite and >= 0"),
        (empty & (flag != FLAG_OPEN), lambda i: "empty resistance only allowed for open rows"),
        (bad_res, lambda i: f"bad resistance {_capped(r_raw[i].strip(), repr)}"),
        (np.isfinite(r) & (r <= 0), lambda i: "resistance must be > 0"),
    )
    first = np.full(m, len(checks))
    for k in reversed(range(len(checks))):
        first[checks[k][0]] = k
    first[blank] = -1
    for i in np.flatnonzero((first >= 0) & (first < len(checks))).tolist():
        problems.append((int(lineno[i]), checks[first[i]][1](i)))

    valid = np.flatnonzero(first == len(checks))
    names = {s: s.strip() for s in set(chip_raw)}
    chip_id = names[chip_raw[valid[0]]] if valid.size else ""
    own = {s: name == chip_id for s, name in names.items()}
    own = np.fromiter(map(own.__getitem__, chip_raw), bool, m)[valid]
    if not own.all():
        other = valid[~own][0]
        problems.append((int(lineno[other]),
                         f"chip_id {_capped(names[chip_raw[other]], repr)} differs "
                         f"from {_capped(chip_id, repr)} on line {int(lineno[valid[0]])}; "
                         "a measurement file holds one chip"))
        valid = valid[own]

    junction, t, linenos = junction[valid], t[valid], lineno[valid].tolist()
    # Stable sort by (junction_id, t): of two equal keys the later line follows.
    order = np.lexsort((t, junction))
    same = (junction[order][1:] == junction[order][:-1]) & (t[order][1:] == t[order][:-1])
    firsts = []   # the earlier line of each duplicate pair, which its message names
    for prev, cur in zip(order[:-1][same].tolist(), order[1:][same].tolist()):
        problems.append((linenos[cur], f"duplicate of line {linenos[prev]}: junction "
                                       f"{int(junction[cur])} at t_seconds {float(t[cur])!r}"))
        firsts.append(linenos[prev])
    if problems:
        raise _problems_error(path, problems, firsts)
    # Non-finite and above-threshold resistances read as open rows.
    r = r[valid]
    opened = ~np.isfinite(r) | (r > OPEN_RESISTANCE_THRESHOLD_OHM)
    return ChipDataset(
        junction, t, np.where(opened, math.nan, r), env[valid],
        np.where(opened, FLAG_OPEN, flag[valid]), chip_id,
    )


# Most sample times ``jjaging simulate`` makes; it refuses more before allocating.
MAX_SAMPLES = 2**16 + 1


def _parse_junctions(text: str) -> tuple[int, ...]:
    ids: list[int] = []
    for chunk in text.split("+"):
        if "-" in chunk:
            lo, hi = (int(x) for x in chunk.split("-", 1))
            if hi < lo:
                raise ValueError(f"inverted junction range {chunk.strip()!r}")
            if hi - lo >= MAX_JUNCTION_RANGE:
                raise ValueError(f"junction range {chunk.strip()!r} spans more than "
                                 f"{MAX_JUNCTION_RANGE} ids")
            ids.extend(range(lo, hi + 1))
        else:
            ids.append(int(chunk))
    return tuple(sorted(set(ids)))


def load_schedule(path) -> tuple[StorageSchedule, list[AnnealEvent]]:
    """Parse a schedule file into a StorageSchedule plus sorted anneal events.

    A leading UTF-8 byte-order mark is skipped."""
    return _parse_schedule_text(path, require_segments=True)


def load_events(path) -> list[AnnealEvent]:
    """Parse only the event lines of a schedule-format file (segments optional)."""
    return _parse_schedule_text(path, require_segments=False)[1]


# Event kinds by name, with their fields' declared types.  Each argument but
# ``junctions`` sets the field of that name, parsed by its type; an omitted one
# keeps its default.
_EVENT_KINDS = {name: (kind, get_type_hints(kind)) for name, kind in
                (("voltage", VoltageAnneal), ("thermal", ThermalAnneal))}
_ARGUMENT_TYPES = {int: int, float: float, EnvironmentKind: EnvironmentKind}


def _parse_event(line: str) -> AnnealEvent:
    """The event of ``event,t_days,kind,key=value,...``; ValueError names a fault."""
    parts = [p.strip() for p in line.split(",")]
    if len(parts) < 3:
        raise ValueError("event line needs at least a time and a kind")
    try:
        t_s = float(parts[1]) * DAY_S
    except ValueError:
        raise ValueError(f"bad event time {parts[1]!r}") from None
    kind_name = parts[2].lower()
    if kind_name not in _EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind_name!r}")
    kind, types = _EVENT_KINDS[kind_name]
    args: dict[str, str] = {}
    for part in parts[3:]:
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"expected key=value, got {part!r}")
        if key in args:
            raise ValueError(f"repeated argument {key!r}")
        if key != "junctions" and key not in types:
            raise ValueError(f"unknown {kind_name} argument {key!r}")
        args[key] = value.strip()
    missing = [f.name for f in fields(kind) if f.default is MISSING and f.name not in args]
    if missing:
        raise ValueError(f"missing {kind_name} argument {missing[0]!r}")
    try:
        junctions = _parse_junctions(args.pop("junctions")) if "junctions" in args else None
        values = {key: _ARGUMENT_TYPES[types[key]](v) for key, v in args.items()}
        return AnnealEvent(t_s=t_s, kind=kind(**values), junction_ids=junctions)
    except ValueError as exc:
        raise ValueError(f"bad event arguments: {exc}") from None


def _parse_segment(line: str) -> tuple[float, EnvironmentKind]:
    """The (start_s, environment) of a line ``start_days,environment``."""
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 2:
        raise ValueError("segment line must be start_days,environment")
    try:
        return float(parts[0]) * DAY_S, EnvironmentKind(parts[1].lower())
    except ValueError:
        raise ValueError(f"bad segment line {line!r}") from None


def _parse_schedule_text(path, require_segments: bool):
    segments: list[tuple[float, EnvironmentKind]] = []
    events: list[AnnealEvent] = []
    problems: list[tuple[int, str]] = []
    # Universal newlines: a line ends at \n, \r\n or \r, and nowhere else.
    for lineno, raw in enumerate(io.StringIO(_read_text(path), newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.split(",", 1)[0].strip().lower() == "event":
                events.append(_parse_event(line))
            else:
                segments.append(_parse_segment(line))
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise _problems_error(path, problems)
    events.sort(key=lambda ev: ev.t_s)
    if not segments:
        if require_segments:
            raise ParseError(f"{path}: schedule has no storage segments")
        return None, events
    try:
        schedule = StorageSchedule(segments=tuple(segments))
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}")
    return schedule, events


_PARAM_KINDS = {"single-log": AgingParams, "two-log": TwoLogParams}
_KIND_OF = {cls: kind for kind, cls in _PARAM_KINDS.items()}


def _fit_to_dict(res: FitResult) -> dict:
    return {
        "params": {"kind": _KIND_OF[type(res.params)], **vars(res.params)},
        "stderr": {k: _num(v) for k, v in sorted(res.stderr.items())},
        "rss": res.rss,
        "converged": res.converged,
        "n_points": res.n_points,
        "iterations": res.iterations,
        "at_bounds": list(res.at_bounds),
        "messages": list(res.messages),
        "degenerate_timescales": res.degenerate_timescales,
        "stop_reason": res.stop_reason,
    }


class _BadField(ValueError):
    """A report field that is missing or whose value its constructor refused."""


def _field(d: dict, key: str, decode, where: str = ""):
    """``decode(d[key])``; a missing key, or a value that ``decode`` refuses, is
    a ``_BadField`` naming the field by its dotted path ``where + key``."""
    name = where + key
    try:
        value = d[key]
    except KeyError:
        raise _BadField(f"missing {name!r}") from None
    try:
        return decode(value)
    except _BadField:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _BadField(f"bad {name!r} ({type(exc).__name__}: {exc})") from None


def _among(choices: tuple):
    """A decoder that passes a value of ``choices`` through and refuses others."""
    def decode(v):
        if v not in choices:
            raise ValueError(f"{v!r} is not one of {choices}")
        return v
    return decode


def _json(kind: str, *types):
    """A decoder for one JSON ``kind``, by the Python ``types`` that json.loads
    gives it: as True == 1 and 6 == 6.0, the write-back check cannot tell."""
    def decode(v):
        if type(v) not in types:
            raise ValueError(f"{v!r} is not a JSON {kind}")
        return float(v) if kind == "number" else v
    return decode


_boolean, _integer = _json("boolean", bool), _json("integer", int)
_number = _json("number", int, float)


def _params_from_dict(p: dict, where: str):
    kind = _field(p, "kind", _among(tuple(_PARAM_KINDS)), where)
    return _PARAM_KINDS[kind](**{k: _field(p, k, _number, where) for k in p if k != "kind"})


def _fit_from_dict(d: dict, where: str = "") -> FitResult:
    """The fit ``_fit_to_dict`` wrote; null stderr reads as NaN.  A bad field is
    a ``_BadField`` named from ``where``.  A ``stop_reason`` is one of the
    fitter's, or null, and a fit converged unless it stopped on ``"max_iter"``."""
    get = partial(_field, d, where=where)
    fit = FitResult(
        params=get("params", lambda p: _params_from_dict(p, f"{where}params.")),
        stderr=get("stderr", lambda s: {k: math.nan if v is None else _number(v)
                                        for k, v in s.items()}),
        rss=get("rss", _number), converged=get("converged", _boolean),
        n_points=get("n_points", _integer), iterations=get("iterations", _integer),
        at_bounds=get("at_bounds", lambda v: tuple(map(str, v))),
        messages=get("messages", lambda v: tuple(map(str, v))),
        degenerate_timescales=get("degenerate_timescales", _boolean),
        stop_reason=get("stop_reason",
                        lambda v: None if v is None else _among(STOP_REASONS)(v)),
    )
    if fit.stop_reason is not None and fit.converged != (fit.stop_reason != _MAX_ITER):
        raise _BadField(f"bad {where + 'stop_reason'!r} ({fit.stop_reason!r} on a fit with "
                        f"converged {fit.converged})")
    return fit


def _num(v):
    # JSON has no NaN/inf; store as null.
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return None
    return v


@dataclass(frozen=True)
class FitReport:
    """Structured fit output: per-junction and average fits plus aggregates.

    ``provenance`` carries the input digest, tool version, seed, and config
    digest so a report is reproducible from its inputs alone.
    """

    chip_id: str
    junction_ids: tuple[int, ...]
    per_junction: dict[int, FitResult]
    average: FitResult
    r0_ohm: dict[int, float]
    average_r0_ohm: float
    cv_series: tuple[tuple[float, float | None, int], ...]  # (t_days, cv, n_used)
    skipped: dict[int, str]
    provenance: dict
    last_t_s: float
    last_env: str
    schema_version: int = 2

    def __post_init__(self):
        missing = [j for j in self.per_junction if j not in self.junction_ids]
        if missing:
            raise ValidationError(
                f"report mentions junctions {missing} absent from the input dataset"
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "chip_id": self.chip_id,
            "junction_ids": list(self.junction_ids),
            "per_junction": {str(j): _fit_to_dict(f) for j, f in sorted(self.per_junction.items())},
            "average": _fit_to_dict(self.average),
            "r0_ohm": {str(j): self.r0_ohm[j] for j in sorted(self.r0_ohm)},
            "average_r0_ohm": self.average_r0_ohm,
            "cv_series": [[t, _num(cv), n] for t, cv, n in self.cv_series],
            "skipped": {str(j): msg for j, msg in sorted(self.skipped.items())},
            "provenance": self.provenance,
            "last_t_s": self.last_t_s,
            "last_env": self.last_env,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        """The report ``d`` encodes; a boolean, integer or number field takes
        only that JSON type (an integer is a number too), and a missing or
        refused field is a ValueError naming it."""
        get = partial(_field, d)
        get("schema_version", lambda v: _among((2,))(_integer(v)))
        return cls(
            chip_id=get("chip_id", str),
            junction_ids=get("junction_ids", lambda v: tuple(map(_integer, v))),
            per_junction=get("per_junction", lambda v: {
                int(j): _fit_from_dict(f, f"per_junction.{j}.") for j, f in v.items()}),
            average=get("average", lambda v: _fit_from_dict(v, "average.")),
            r0_ohm=get("r0_ohm", lambda v: {int(j): _number(r) for j, r in v.items()}),
            average_r0_ohm=get("average_r0_ohm", _number),
            cv_series=get("cv_series", lambda v: tuple(
                (_number(t), None if cv is None else _number(cv), _integer(n))
                for t, cv, n in v)),
            skipped=get("skipped", lambda v: {int(j): str(msg) for j, msg in v.items()}),
            provenance=get("provenance", lambda v: v),
            last_t_s=get("last_t_s", _number),
            last_env=get("last_env", _among(ENV_LABELS)),
        )


def build_fit_report(ds: ChipDataset, chip_fit, provenance: Mapping) -> FitReport:
    """Assemble a FitReport from a dataset and its ChipFitResult, whose
    aggregate rows give the CV series."""
    cv_series = tuple((t / DAY_S, None if math.isnan(cv) else cv, n)
                      for t, _, cv, n in chip_fit.aggregate)
    ok_rows = np.flatnonzero(ds.flag == FLAG_OK)
    last = ok_rows[np.argmax(ds.t_s[ok_rows])]   # first row at the latest time
    return FitReport(
        chip_id=ds.chip_id,
        junction_ids=tuple(ds.junction_ids()),
        per_junction=dict(chip_fit.per_junction),
        average=chip_fit.average,
        r0_ohm=dict(chip_fit.r0_ohm),
        average_r0_ohm=chip_fit.average_r0_ohm,
        cv_series=cv_series,
        skipped=dict(chip_fit.skipped),
        provenance=dict(provenance),
        last_t_s=float(ds.t_s[last]),
        last_env=ENV_LABELS[ds.env[last]],
    )


def _write_json(obj, path) -> None:
    """Write ``obj`` as the package's canonical JSON: one line of sorted keys
    without indentation (so that Python's C encoder writes it), then a
    newline, and no NaN or infinity (which JSON lacks).  Readers take any
    whitespace, so a file written with ``indent=2``, as before, reads alike."""
    text = json.dumps(obj, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_report(report: FitReport, path) -> None:
    """Serialize a report as canonical JSON (``_write_json``: one line, sorted
    keys, newline-terminated); byte-stable for identical inputs."""
    _write_json(report.to_dict(), path)


def _v1_fit(f, where: str):
    if isinstance(f, dict) and "stop_reason" in f:
        raise _BadField(f"unknown key {where + 'stop_reason'!r} in a version 1 report")
    return {**f, "stop_reason": None} if isinstance(f, dict) else f


def _from_v1(d: dict) -> dict:
    """The version 2 value of a version 1 report: v1 wrote ``histograms``,
    which v2 drops, and no fit ``stop_reason``, which reads as null.  Every
    other fault is left for ``from_dict`` and the write-back check."""
    _field(d, "histograms", lambda v: v)   # v1 requires it
    v2 = {k: v for k, v in d.items() if k != "histograms"} | {"schema_version": 2}
    if "average" in d:
        v2["average"] = _v1_fit(d["average"], "average.")
    if isinstance(d.get("per_junction"), dict):
        v2["per_junction"] = {j: _v1_fit(f, f"per_junction.{j}.")
                              for j, f in d["per_junction"].items()}
    return v2


def read_report(path) -> FitReport:
    """The report a file holds, a version 1 one upgraded by ``_from_v1``; a malformed
    one, or one that ``to_dict`` does not give back (a coerced JSON type, an unknown
    key), is a ParseError naming the file."""
    d = _read_json(path, "report")
    if not isinstance(d, dict):
        raise ParseError(f"{path}: malformed report: not a JSON object")
    try:
        if type(d.get("schema_version")) is int and d["schema_version"] == 1:
            d = _from_v1(d)
        report = FitReport.from_dict(d)
    except ValueError as exc:   # a bad field, named, or junctions absent from the dataset
        raise ParseError(f"{path}: malformed report: {exc}") from None
    encoded = report.to_dict()
    bad = [k for k in sorted(d) if k not in encoded or d[k] != encoded[k]]
    if bad:
        raise ParseError(f"{path}: malformed report: wrong JSON type or unknown key in {bad[0]!r}")
    return report
