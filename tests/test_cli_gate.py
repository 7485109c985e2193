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
    assert len(a["commands"]) == 144
    for e in a["commands"]:
        # Exit 3 is fit non-convergence, with the report still written; every
        # other command here has valid inputs.
        assert e["exit"] in ((0, 3) if e["argv"][0] == "fit" else (0,)), e["argv"]
        assert e["files"], e["argv"]
        # Every command writes a JSON file: a summary, report, prediction or steps.
        assert [n for n in e["files"] if n.endswith(".json")] == list(e["values"]), e["argv"]
        assert e["values"], e["argv"]
        assert not any(arg.startswith("/") for arg in e["argv"]), e["argv"]

    same = gate("--compare", *paths)
    assert same.returncode == 0 and same.stdout.endswith("144 commands: identical\n")
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


def test_compare_tells_layout_from_value_changes(tmp_path, capsys):
    def entry(argv, files, values, stdout="s"):
        return {"argv": argv.split(), "exit": 0, "stdout": stdout, "stderr": "e",
                "files": files, "values": values}

    old = [entry("fit a.csv", {"r.json": "1"}, {"r.json": "v"}),
           entry("fit b.csv", {"r.json": "1"}, {"r.json": "v"}),
           entry("anneal a.csv", {"a.csv": "1", "a.steps.json": "1"}, {"a.steps.json": "v"}),
           entry("anneal b.csv", {"a.csv": "1", "a.steps.json": "1"}, {"a.steps.json": "v"}),
           entry("predict --report r.json", {"p.json": "1"}, {"p.json": "v"})]
    new = [entry("fit a.csv", {"r.json": "2"}, {"r.json": "v"}),      # layout only
           entry("fit b.csv", {"r.json": "2"}, {"r.json": "w"}),      # a value moved
           entry("anneal a.csv", {"a.csv": "1", "a.steps.json": "2"}, {"a.steps.json": "v"},
                 stdout="t"),                                          # and stdout
           entry("anneal b.csv", {"a.csv": "2", "a.steps.json": "2"},
                 {"a.steps.json": "v"}),                               # and the CSV
           entry("predict --report r.json", {"p.json": "2"}, {"p.json": "v"})]
    paths = []
    for name, commands in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"python": "3", "numpy": "2", "commands": commands}))
    assert cli_gate.compare(*paths) == 1
    assert capsys.readouterr().out == (
        "0: fit a.csv: files differ (layout only)\n"
        "1: fit b.csv: files, values differ\n"
        "2: anneal a.csv: stdout, files differ\n"
        "3: anneal b.csv: files differ\n"
        "4: predict --report r.json: files differ (layout only)\n"
        "anneal: 2 differ\n"
        "fit: 2 differ, 1 in layout only\n"
        "predict: 1 differ, 1 in layout only\n"
        "5 commands: differ\n")
    # A manifest without value digests, as the gate wrote before it kept
    # them, tells no layout change from a value change.
    for commands in (old, new):
        for e in commands:
            del e["values"]
    for path, commands in zip(paths, (old, new)):
        path.write_text(json.dumps({"python": "3", "numpy": "2", "commands": commands}))
    assert cli_gate.compare(*paths) == 1
    assert "layout only" not in capsys.readouterr().out
