"""README's library tour runs, and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

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

    _, comment = commented(source, "ic = ")
    assert comment.startswith("~35 nA ")
    assert round(ns["ic"] * 1e9) == 35

    _, comment = commented(source, "df = ")
    assert comment == "~ -9.1%"
    assert f"{ns['df'] * 100:.1f}" == "-9.1"

    # The rest of the tour: one resistance per sample, and a fit that
    # recovers the curve it was given.
    assert ns["r"].shape == ns["samples"].shape and ns["r"].dtype == np.float64
    assert ns["state"].t_s == 6 * ns["day"]
    assert abs(ns["fit"].params.a - 0.21) < 1e-6
