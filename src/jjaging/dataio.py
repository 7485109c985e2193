"""File formats: measurement CSV, schedule files, fit reports, plot data.

All files are plain UTF-8 text, newline-terminated, and byte-stable for
identical inputs (no timestamps, sorted keys).  Times are stored in days at
the file surface and converted to seconds internally.

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

Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, ParseError, ValidationError
from .ensemble import (
    _ENV_CODE,
    _FLAG_CODE,
    ENV_LABELS,
    FLAG_OK,
    FLAG_OPEN,
    FLAGS,
    OPEN_RESISTANCE_THRESHOLD_OHM,
    ChipDataset,
)
from .model import AgingParams, Environment, TwoLogParams
from .trajectory import (
    DAY_S,
    AnnealEvent,
    StorageSchedule,
    ThermalAnneal,
    VoltageAnneal,
)

__all__ = [
    "IVSweep",
    "resistance_from_iv",
    "MEASUREMENT_HEADER",
    "load_measurements",
    "save_measurements",
    "load_schedule",
    "load_events",
    "FitReport",
    "build_fit_report",
    "write_report",
    "read_report",
    "export_plot_data",
    "sha256_of_file",
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


@dataclass(frozen=True)
class IVSweep:
    """A current-biased I-V sweep: (current_A, voltage_V) pairs."""

    points: tuple[tuple[float, float], ...]
    compliance_a: float = 1e-6

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValidationError("an I-V sweep needs at least 2 points")
        for i, v in self.points:
            if not (np.isfinite(i) and np.isfinite(v)):
                raise ValidationError("sweep points must be finite")
            if abs(i) > self.compliance_a:
                raise ParameterError(
                    f"current {i} A exceeds the compliance window +-{self.compliance_a} A"
                )


def resistance_from_iv(sweep: IVSweep, full_output: bool = False):
    """Junction resistance as the least-squares slope of V against I.

    The intercept absorbs any voltage offset and is reported as a
    diagnostic with ``full_output=True`` (together with a ``suspect`` flag
    for non-positive slopes).  Permutation of points and voltage offsets do
    not change the result.
    """
    pts = np.asarray(sweep.points, dtype=float)
    i, v = pts[:, 0], pts[:, 1]
    if np.unique(i).size < 2:
        raise InsufficientDataError("sweep needs at least 2 distinct currents")
    A = np.column_stack([i, np.ones_like(i)])
    (slope, offset), *_ = np.linalg.lstsq(A, v, rcond=None)
    suspect = slope <= 0
    if suspect:
        warnings.warn(f"non-positive I-V slope ({slope} ohm); flagged suspect", stacklevel=2)
    if full_output:
        return float(slope), {"offset_v": float(offset), "suspect": bool(suspect)}
    return float(slope)


def _not_utf8(path) -> ParseError:
    """The ParseError for a file that does not decode as UTF-8, naming the
    line (counting \\n, \\r\\n and \\r line ends) of its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        return ParseError(f"{path}: line {line}: not valid UTF-8 "
                          f"(byte {data[exc.start]:#04x} at offset {exc.start})", lines=[line])
    return ParseError(f"{path}: not valid UTF-8")


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
    reads back.
    """
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


def load_measurements(path) -> ChipDataset:
    """Parse, validate, and sort a measurement CSV.

    Malformed rows are collected and raised together as a ParseError naming
    the offending 1-based line numbers (CSV records, counted from the header
    as line 1); a header-only file yields an empty dataset.  Times must be
    finite and >= 0, and no two rows may share (junction_id, t_seconds); a
    duplicate names both lines.  Resistances above the open threshold (or
    non-finite) are flagged open.  A file holds one chip: the first row whose
    chip_id differs from the first valid row's is reported.  A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped; a file that is
    not UTF-8 is refused, naming the line of its first undecodable byte.

    The fields are split by ``csv.reader`` and then parsed and checked a
    column at a time.  Each row reports only the first check it fails, in
    the order: field count; junction_id and t_seconds parse; junction_id
    within int64; environment; flag; t_seconds finite and >= 0; empty
    resistance only on open rows; resistance parse; resistance > 0.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file (header required)")
            if [h.strip() for h in header] != MEASUREMENT_HEADER:
                raise ParseError(
                    f"{path}: bad header {header!r}; expected {','.join(MEASUREMENT_HEADER)}",
                    lines=[1],
                )
            rows = list(reader)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    problems: list[tuple[int, str]] = []
    lineno = np.arange(2, len(rows) + 2)
    n_fields = np.fromiter(map(len, rows), np.intp, len(rows))
    if (n_fields != 6).any():
        for i in np.flatnonzero((n_fields != 5) & (n_fields != 6)).tolist():
            if not _blank(rows[i]):
                problems.append((i + 2, f"expected 5 or 6 fields, got {len(rows[i])}"))
        keep = np.flatnonzero((n_fields == 5) | (n_fields == 6))
        lineno = lineno[keep]
        # A 5-field row has no flag, which reads as "ok".
        rows = [rows[i] if len(rows[i]) == 6 else [*rows[i], ""] for i in keep.tolist()]
    m = len(rows)
    chip_raw, j_raw, t_raw, r_raw, env_raw, flag_raw = zip(*rows) if rows else ((),) * 6

    junction, bad_j = _parse_column(int, j_raw, 0)
    t, bad_t = _parse_column(float, t_raw, 0.0)
    junction, wide = _int64_column(junction)
    t = np.array(t, dtype=float)
    unparsed = np.zeros(m, dtype=bool)
    unparsed[bad_j + bad_t] = True
    # Only a row whose junction_id fails to parse can be blank.
    blank = np.zeros(m, dtype=bool)
    blank[[i for i in bad_j if _blank(rows[i])]] = True

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
        (env < 0, lambda i: f"unknown environment {env_raw[i].strip().lower()!r}"),
        (flag < 0, lambda i: f"unknown flag {flag_raw[i].strip().lower()!r}"),
        (~(np.isfinite(t) & (t >= 0)), lambda i: "t_seconds must be finite and >= 0"),
        (empty & (flag != FLAG_OPEN), lambda i: "empty resistance only allowed for open rows"),
        (bad_res, lambda i: f"bad resistance {r_raw[i].strip()!r}"),
        (np.isfinite(r) & (r <= 0), lambda i: "resistance must be > 0"),
    )
    first = np.full(m, len(checks))
    for k in reversed(range(len(checks))):
        first[checks[k][0]] = k
    first[blank] = -1
    for i in np.flatnonzero((first >= 0) & (first < len(checks))).tolist():
        problems.append((int(lineno[i]), checks[first[i]][1](i)))
    lines = [ln for ln, _ in problems]

    valid = np.flatnonzero(first == len(checks))
    names = {s: s.strip() for s in set(chip_raw)}
    chip_id = names[chip_raw[valid[0]]] if valid.size else ""
    own = {s: name == chip_id for s, name in names.items()}
    own = np.fromiter(map(own.__getitem__, chip_raw), bool, m)[valid]
    if not own.all():
        other = valid[~own][0]
        problems.append((int(lineno[other]), f"chip_id {names[chip_raw[other]]!r} differs "
                         f"from {chip_id!r} on line {int(lineno[valid[0]])}; "
                         "a measurement file holds one chip"))
        lines.append(int(lineno[other]))
        valid = valid[own]

    junction, t, linenos = junction[valid], t[valid], lineno[valid].tolist()
    # Stable sort by (junction_id, t): of two equal keys the later line follows.
    order = np.lexsort((t, junction))
    same = (junction[order][1:] == junction[order][:-1]) & (t[order][1:] == t[order][:-1])
    for prev, cur in zip(order[:-1][same].tolist(), order[1:][same].tolist()):
        problems.append((linenos[cur], f"duplicate of line {linenos[prev]}: junction "
                                       f"{int(junction[cur])} at t_seconds {float(t[cur])!r}"))
        lines += [linenos[prev], linenos[cur]]
    if problems:
        problems.sort()
        details = "; ".join(f"line {ln}: {msg}" for ln, msg in problems)
        raise ParseError(f"{path}: {details}", lines=sorted(set(lines)))
    # Non-finite and above-threshold resistances read as open rows.
    r = r[valid]
    opened = ~np.isfinite(r) | (r > OPEN_RESISTANCE_THRESHOLD_OHM)
    return ChipDataset(
        junction, t, np.where(opened, math.nan, r), env[valid],
        np.where(opened, FLAG_OPEN, flag[valid]), chip_id,
    )


def _parse_kv(parts: Sequence[str], lineno: int, problems) -> dict[str, str]:
    kv = {}
    for part in parts:
        if "=" not in part:
            problems.append((lineno, f"expected key=value, got {part!r}"))
            return {}
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    return kv


# Widest ``lo-hi`` junction range an event line may name; far above any chip,
# it keeps a typo from expanding into billions of ids.
MAX_JUNCTION_RANGE = 2**16


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
    schedule, events = _parse_schedule_text(path, require_segments=True)
    return schedule, events


def load_events(path) -> list[AnnealEvent]:
    """Parse only the event lines of a schedule-format file (segments optional)."""
    _, events = _parse_schedule_text(path, require_segments=False)
    return events


def _parse_schedule_text(path, require_segments: bool):
    segments: list[tuple[float, Environment]] = []
    events: list[AnnealEvent] = []
    problems: list[tuple[int, str]] = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.readlines()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    for lineno, raw in enumerate(text, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0].lower() == "event":
            if len(parts) < 3:
                problems.append((lineno, "event line needs at least a time and a kind"))
                continue
            try:
                t_s = float(parts[1]) * DAY_S
            except ValueError:
                problems.append((lineno, f"bad event time {parts[1]!r}"))
                continue
            kind_name = parts[2].lower()
            kv = _parse_kv(parts[3:], lineno, problems)
            try:
                junctions = _parse_junctions(kv["junctions"]) if "junctions" in kv else None
                if kind_name == "voltage":
                    kind = VoltageAnneal(
                        n_pulses=int(kv.get("n_pulses", 30)),
                        amplitude_v=float(kv.get("amplitude_v", 0.9)),
                        pulse_duration_s=float(kv.get("pulse_duration_s", 1.0)),
                    )
                elif kind_name == "thermal":
                    kind = ThermalAnneal(
                        temp_c=float(kv["temp_c"]),
                        env=Environment.from_kind(kv.get("env", "glovebox")),
                        hold_min=float(kv.get("hold_min", 10.0)),
                    )
                else:
                    problems.append((lineno, f"unknown event kind {kind_name!r}"))
                    continue
                events.append(AnnealEvent(t_s=t_s, kind=kind, junction_ids=junctions))
            except (KeyError, ValueError, ValidationError) as exc:
                problems.append((lineno, f"bad event arguments: {exc}"))
        else:
            if len(parts) != 2:
                problems.append((lineno, "segment line must be start_days,environment"))
                continue
            try:
                start_s = float(parts[0]) * DAY_S
                env = Environment.from_kind(parts[1].lower())
            except ValueError:
                problems.append((lineno, f"bad segment line {line!r}"))
                continue
            segments.append((start_s, env))
    if problems:
        details = "; ".join(f"line {ln}: {msg}" for ln, msg in problems)
        raise ParseError(f"{path}: {details}", lines=[ln for ln, _ in problems])
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


def _params_to_dict(p) -> dict:
    if isinstance(p, AgingParams):
        return {"kind": "single-log", "a": p.a, "tau_s": p.tau_s, "b": p.b,
                "r0_ohm": p.r0_ohm}
    if isinstance(p, TwoLogParams):
        return {"kind": "two-log", "a_int": p.a_int, "tau_int_s": p.tau_int_s,
                "a_ext": p.a_ext, "tau_ext_s": p.tau_ext_s, "r0_ohm": p.r0_ohm}
    raise ValidationError(f"cannot serialize params of type {type(p)!r}")


def _fit_to_dict(res) -> dict:
    return {
        "params": _params_to_dict(res.params),
        "stderr": {k: _num(v) for k, v in sorted(res.stderr.items())},
        "rss": res.rss,
        "converged": res.converged,
        "n_points": res.n_points,
        "iterations": res.iterations,
        "at_bounds": list(res.at_bounds),
        "messages": list(res.messages),
        "degenerate_timescales": res.degenerate_timescales,
    }


def _num(v):
    # JSON has no NaN/inf; store as null.
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return None
    return v


@dataclass(frozen=True)
class FitReport:
    """Structured fit output: per-junction and average results plus aggregates.

    ``provenance`` carries the input digest, tool version, seed, and config
    digest so a report is reproducible from its inputs alone.
    """

    chip_id: str
    junction_ids: tuple[int, ...]
    per_junction: dict[int, dict]
    average: dict
    r0_ohm: dict[int, float]
    average_r0_ohm: float
    cv_series: tuple[tuple[float, float | None, int], ...]  # (t_days, cv, n_used)
    histograms: dict[str, dict]
    skipped: dict[int, str]
    provenance: dict
    last_t_s: float
    last_env: str
    schema_version: int = 1

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
            "per_junction": {str(j): self.per_junction[j] for j in sorted(self.per_junction)},
            "average": self.average,
            "r0_ohm": {str(j): self.r0_ohm[j] for j in sorted(self.r0_ohm)},
            "average_r0_ohm": self.average_r0_ohm,
            "cv_series": [[t, _num(cv), n] for t, cv, n in self.cv_series],
            "histograms": self.histograms,
            "skipped": {str(j): msg for j, msg in sorted(self.skipped.items())},
            "provenance": self.provenance,
            "last_t_s": self.last_t_s,
            "last_env": self.last_env,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        return cls(
            chip_id=d["chip_id"],
            junction_ids=tuple(d["junction_ids"]),
            per_junction={int(j): v for j, v in d["per_junction"].items()},
            average=d["average"],
            r0_ohm={int(j): v for j, v in d["r0_ohm"].items()},
            average_r0_ohm=d["average_r0_ohm"],
            cv_series=tuple((t, cv, n) for t, cv, n in d["cv_series"]),
            histograms=d["histograms"],
            skipped={int(j): msg for j, msg in d["skipped"].items()},
            provenance=d["provenance"],
            last_t_s=d["last_t_s"],
            last_env=d["last_env"],
            schema_version=d["schema_version"],
        )


def build_fit_report(
    ds: ChipDataset,
    chip_fit,
    provenance: Mapping,
    window_s: float = 600.0,
) -> FitReport:
    """Assemble a FitReport from a dataset and its ChipFitResult."""
    from .ensemble import aggregate_series
    from .fitting import parameter_histogram

    agg = aggregate_series(ds, window_s=window_s)
    cv_series = tuple(
        (t / DAY_S, (None if math.isnan(cv) else cv), n) for t, _, cv, n in agg
    )
    histograms = {}
    single = [r for r in chip_fit.per_junction.values()
              if isinstance(r.params, AgingParams)]
    if single:
        for field_name in ("a", "tau", "log_tau", "b"):
            counts, edges = parameter_histogram(single, field_name, n_bins=8)
            histograms[field_name] = {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
            }
    ok_rows = np.flatnonzero(ds.flag == FLAG_OK)
    last = ok_rows[np.argmax(ds.t_s[ok_rows])]   # first row at the latest time
    return FitReport(
        chip_id=ds.chip_id,
        junction_ids=tuple(ds.junction_ids()),
        per_junction={j: _fit_to_dict(res) for j, res in chip_fit.per_junction.items()},
        average=_fit_to_dict(chip_fit.average),
        r0_ohm=dict(chip_fit.r0_ohm),
        average_r0_ohm=chip_fit.average_r0_ohm,
        cv_series=cv_series,
        histograms=histograms,
        skipped=dict(chip_fit.skipped),
        provenance=dict(provenance),
        last_t_s=float(ds.t_s[last]),
        last_env=ENV_LABELS[ds.env[last]],
    )


def _write_json(obj, path) -> None:
    """Write ``obj`` as the package's canonical JSON: sorted keys, ``indent=2``,
    newline-terminated, and no NaN or infinity (which JSON lacks)."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_report(report: FitReport, path) -> None:
    """Serialize a report as canonical JSON (sorted keys, newline-terminated);
    byte-stable for identical inputs."""
    _write_json(report.to_dict(), path)


def read_report(path) -> FitReport:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid report JSON ({exc})")
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    try:
        return FitReport.from_dict(d)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: report missing field {exc}")


def export_plot_data(series: Mapping[str, Sequence], path) -> None:
    """Write tidy plot data: one row per point, columns series_id,t_days,value.

    ``series`` maps a series id to a sequence of (t_s, value) pairs.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["series_id", "t_days", "value"])
        for sid in sorted(series):
            for t_s, value in series[sid]:
                w.writerow([sid, repr(float(t_s) / DAY_S), repr(float(value))])


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
