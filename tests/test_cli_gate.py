"""The same-seed CLI gate (``tests/cli_gate.py``) runs, repeats itself, and
sees only the exit codes README documents."""

import json
import subprocess
import sys
from pathlib import Path

import cli_gate
from jjaging.presets import PRESET_NAMES

ROOT = Path(__file__).resolve().parents[1]


def gate(*args, **kwargs):
    return subprocess.run([sys.executable, cli_gate.__file__, *map(str, args)],
                          capture_output=True, text=True, timeout=300, **kwargs)


def test_seed_1_manifest_repeats_with_documented_exit_codes(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert gate(ROOT, "--seeds", "1", "--out", path).returncode == 0
    a, b = (json.loads(p.read_text()) for p in paths)
    assert a == b
    assert [e["argv"] for e in a["commands"]] == cli_gate.commands([1], PRESET_NAMES)
    assert len(a["commands"]) == 132
    for e in a["commands"]:
        # Exit 3 is fit non-convergence, with the report still written; every
        # other command here has valid inputs.
        assert e["exit"] in ((0, 3) if e["argv"][0] == "fit" else (0,)), e["argv"]
        assert e["files"], e["argv"]
        assert not any(arg.startswith("/") for arg in e["argv"]), e["argv"]

    same = gate("--compare", *paths)
    assert same.returncode == 0 and same.stdout.endswith("132 commands: identical\n")
    a["commands"][5]["stdout"] = "0" * 64
    paths[1].write_text(json.dumps(a))
    differ = gate("--compare", *paths)
    assert differ.returncode == 1
    assert differ.stdout.startswith(f"5: {' '.join(a['commands'][5]['argv'])}: stdout differ\n")


def test_compare_counts_exit_code_moves(tmp_path, capsys):
    def entry(argv, code, stdout="s"):
        return {"argv": argv.split(), "exit": code, "stdout": stdout, "stderr": "e",
                "files": {}}

    old = [entry("fit a.csv", 0), entry("fit b.csv", 0), entry("fit c.csv", 3),
           entry("anneal a.csv", 0), entry("predict --report r.json", 0)]
    new = [entry("fit a.csv", 3), entry("fit b.csv", 3), entry("fit c.csv", 0),
           entry("anneal a.csv", 0, stdout="t"), entry("predict --report r.json", 0)]
    paths = []
    for name, commands in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"python": "3", "numpy": "2", "commands": commands}))
    assert cli_gate.compare(*paths) == 1
    assert capsys.readouterr().out == (
        "0: fit a.csv: exit differ\n"
        "1: fit b.csv: exit differ\n"
        "2: fit c.csv: exit differ\n"
        "3: anneal a.csv: stdout differ\n"
        "anneal: 1 differ\n"
        "fit: 3 differ\n"
        "fit: 0 -> 3 x2\n"
        "fit: 3 -> 0 x1\n"
        "5 commands: differ\n")
    # Entries that differ only in their outputs move no exit code.
    paths[1].write_text(json.dumps({"python": "3", "numpy": "2",
                                    "commands": old[:3] + new[3:]}))
    assert cli_gate.compare(*paths) == 1
    assert capsys.readouterr().out == (
        "3: anneal a.csv: stdout differ\nanneal: 1 differ\n5 commands: differ\n")
