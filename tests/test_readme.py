"""README's library tour runs, and gives the values its comments state; its
report section names exactly the keys a report and a fit are written with."""

import re
from pathlib import Path

import numpy as np

from jjaging import AgingParams, FitReport, FitResult
from jjaging.dataio import _fit_to_dict, _report_to_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def tour():
    """The source of README's one ``python`` block."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    return blocks[0]


def commented(source, fragment):
    """The code and the comment of the one line of ``source`` holding ``fragment``."""
    lines = [line for line in source.splitlines() if fragment in line]
    assert len(lines) == 1, fragment
    code, _, comment = lines[0].partition("#")
    return code.strip(), comment.strip()


def test_tour_runs_and_gives_the_commented_values():
    source = tour()
    ns = {}
    exec(compile(source, str(README), "exec"), ns)

    code, comment = commented(source, "eval_single_log(params, 56 * day)")
    assert comment.startswith("-> 2.2604 ")
    assert f"{eval(code, ns):.4f}" == "2.2604"

    code, comment = commented(source, "t_low = ")
    assert comment.startswith("-> 7.5 ")
    assert eval(code.partition("=")[2], ns) == 7.5

    _, comment = commented(source, "ic = ")
    assert comment.startswith("~35 nA ")
    assert round(ns["ic"] * 1e9) == 35

    _, comment = commented(source, "df = ")
    assert comment == "~ -9.1%"
    assert f"{ns['df'] * 100:.1f}" == "-9.1"

    # The rest of the tour: one resistance per sample, and a fit that
    # recovers the curve it was given.
    assert ns["r"].shape == ns["samples"].shape and ns["r"].dtype == np.float64
    assert abs(ns["fit"].params.a - 0.21) < 1e-6


def report_docs():
    """README's report field table (first cells) and its fit paragraph."""
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| field \| JSON type \|\n\|---\|---\|\n((?:\|.*\n)+)", text,
                      re.MULTILINE)
    paragraph = re.search(r"^A fit is an object with (.*?)\n\n", text, re.DOTALL | re.MULTILINE)
    return [row.split("|")[1] for row in table.group(1).splitlines()], paragraph.group(1)


FIT = FitResult(AgingParams(a=0.2, tau_s=1e4, b=1.0), {}, 0.0, True, 4, 1)


def test_report_field_table_names_every_report_key():
    report = FitReport("c", (0,), {0: FIT}, FIT, {0: 1e4}, 1e4, (), {}, 0.0, "ambient")
    cells, _ = report_docs()
    names = [name for cell in cells for name in re.findall(r"`([^`]+)`", cell)]
    assert sorted(names) == sorted(_report_to_dict(report))


def test_fit_paragraph_names_every_fit_key():
    _, paragraph = report_docs()
    # A field's own description, in parentheses, may name its parts.
    outside = re.sub(r"\([^()]*\)", "", paragraph)
    assert sorted(re.findall(r"`([^`]+)`", outside)) == sorted(_fit_to_dict(FIT))
