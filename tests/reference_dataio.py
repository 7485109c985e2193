"""Reference measurement-CSV I/O: the row-at-a-time writer and reader, kept
as a test oracle.

``jjaging.dataio`` builds the file as one string and parses it a column at
a time.  This module keeps the original versions, a ``csv.writer`` over
rows and a per-row parse-and-check loop, so that tests can require equal
bytes, equal columns and equal error reports from the two.  It uses only
the package's public API.

One rule is deliberately not here: ``load_measurements`` refuses a file
whose rows carry more than one chip id, and this reader accepts it, naming
the dataset by its first valid row's id.
"""

import csv
import math

import numpy as np

from jjaging.dataio import MEASUREMENT_HEADER
from jjaging.ensemble import ENV_LABELS, FLAGS, OPEN_RESISTANCE_THRESHOLD_OHM, ChipDataset
from jjaging.errors import ParseError


def _quoted(field: str) -> str:
    """A field as the messages quote it: at most 24 characters, then ``...``."""
    return repr(field[:24]) + ("..." if len(field) > 24 else "")


def reference_save_measurements(ds: ChipDataset, path) -> None:
    """Write a dataset in the measurement CSV schema (open rows keep an empty
    resistance field)."""
    res = ["" if math.isnan(r) else repr(r) for r in ds.r_ohm.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(MEASUREMENT_HEADER)
        w.writerows(zip(
            [ds.chip_id] * len(ds),
            ds.junction_id.tolist(),
            map(repr, ds.t_s.tolist()),
            res,
            [ENV_LABELS[e] for e in ds.env.tolist()],
            [FLAGS[f] for f in ds.flag.tolist()],
        ))


def reference_load_measurements(path) -> ChipDataset:
    """Parse, validate, and sort a measurement CSV.

    Malformed rows are collected and raised together as a ParseError naming
    the offending 1-based line numbers; a header-only file yields an empty
    dataset.  Times must be finite and >= 0, and no two rows may share
    (junction_id, t_seconds); a duplicate names both lines.  Resistances
    above the open threshold (or non-finite) are flagged open.  A file
    holding a NUL is refused, naming the line of the first.
    """
    rows: list[tuple] = []   # (chip_id, junction_id, t_s, r_ohm, env code, flag code)
    linenos: list[int] = []
    problems: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        file_lines = fh.readlines()
        # A NUL is refused on every Python, in the words of 3.10's csv.reader,
        # naming the first line, as that reader splits lines, that holds one.
        for lineno, line in enumerate(file_lines, start=1):
            if "\0" in line:
                raise ParseError(f"{path}: line {lineno}: line contains NUL", lines=[lineno])
        reader = csv.reader(file_lines)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file (header required)")
        if [h.strip() for h in header] != MEASUREMENT_HEADER:
            raise ParseError(
                f"{path}: bad header [{', '.join(map(_quoted, header))}]; "
                f"expected {','.join(MEASUREMENT_HEADER)}",
                lines=[1],
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) not in (5, 6):
                problems.append((lineno, f"expected 5 or 6 fields, got {len(row)}"))
                continue
            chip_id = row[0].strip()
            try:
                junction_id = int(row[1])
                t_s = float(row[2])
            except ValueError:
                problems.append((lineno, "junction_id must be an integer and t_seconds a number"))
                continue
            if not -2**63 <= junction_id < 2**63:
                problems.append((lineno, "junction_id out of range"))
                continue
            raw_r = row[3].strip()
            env = row[4].strip().lower()
            flag = row[5].strip().lower() if len(row) == 6 and row[5].strip() else "ok"
            if env not in ENV_LABELS:
                problems.append((lineno, f"unknown environment {_quoted(env)}"))
                continue
            if flag not in FLAGS:
                problems.append((lineno, f"unknown flag {_quoted(flag)}"))
                continue
            if not (math.isfinite(t_s) and t_s >= 0):
                problems.append((lineno, "t_seconds must be finite and >= 0"))
                continue
            if raw_r == "":
                if flag != "open":
                    problems.append((lineno, "empty resistance only allowed for open rows"))
                    continue
                r_ohm = math.nan
            else:
                try:
                    r_ohm = float(raw_r)
                except ValueError:
                    problems.append((lineno, f"bad resistance {_quoted(raw_r)}"))
                    continue
                if not math.isfinite(r_ohm) or r_ohm > OPEN_RESISTANCE_THRESHOLD_OHM:
                    r_ohm, flag = math.nan, "open"
                elif r_ohm <= 0:
                    problems.append((lineno, "resistance must be > 0"))
                    continue
            rows.append((chip_id, junction_id, t_s, r_ohm,
                         ENV_LABELS.index(env), FLAGS.index(flag)))
            linenos.append(lineno)
    chip, junction, t, r, env, flag = zip(*rows) if rows else ((),) * 6
    junction, t = np.array(junction, dtype=np.int64), np.array(t, dtype=float)
    lines = [ln for ln, _ in problems]
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
    return ChipDataset(junction, t, r, env, flag, chip[0] if chip else "")
