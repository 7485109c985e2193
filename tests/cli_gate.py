#!/usr/bin/env python3
"""Same-seed CLI gate: run one tree's CLI over a fixed list of commands and
write a manifest of what each command gave, or compare two manifests.

    python tests/cli_gate.py TREE --out manifest.json [--seeds 1,7,123]
    python tests/cli_gate.py --compare A.json B.json

``TREE`` is a checkout of this repository.  A fresh interpreter, with only
``TREE/src`` on its ``PYTHONPATH``, runs every command in-process through
``jjaging.cli.main``, in a temporary directory.  For each of the six presets
and each seed the commands are:

- ``simulate`` with the preset's schedule, and with ``SWAP_SCHEDULE`` (swaps
  and anneal events);
- ``simulate --spec`` with a spec file of the preset's chip and home
  environment, whose ``sim`` section overrides the timescales
  (``spec_file``);
- ``fit`` single-log, ``--share-b``, ``--model two-log`` and ``--window-s
  3600`` on each CSV;
- ``predict --report`` on each report, and with ``FUTURE_SCHEDULE`` (swaps
  only, one on the target day) on the single-log report of the preset's CSV;
- ``anneal --events`` on each CSV, the ``--spec`` one included, which
  never leaves the preset's home environment;
- ``predict --preset``;
- a six-day ``simulate`` sampled daily, and ``fit`` on it, whose fits span
  less than a decade (the short-span warning).

That is 26 commands per preset and seed, 468 for the default seeds.

The manifest has one entry per command: its argv, its exit code, the sha256
of its stdout, of its stderr and of each file it wrote, and, for each
``.json`` file, the sha256 of its parsed value as ``json.dumps(value,
sort_keys=True)`` writes it, which no change of whitespace moves.  The
temporary directory's path reads ``<tmp>`` in all of them.  There are no
golden digests, because numpy's log may differ by ulps between builds:
compare manifests made on one machine.  ``--compare`` prints every entry
that differs, marking ``(layout only)`` one that differs only in the bytes
of JSON files whose values agree; then one line per command with its count
of differing entries and of those in layout only (``fit: 36 differ, 36 in
layout only``), then one line per command and exit-code move with its count
(``fit: 0 -> 3 x2``).  It exits 1 if any entry differs, in layout only too.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SEEDS = (1, 7, 123)
TMP = "<tmp>"
SWAP_SCHEDULE = (
    "0,ambient\n"
    "14,glovebox\n"
    "28,vacuum\n"
    "35,ambient\n"
    "event,21,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1,junctions=0-7\n"
    "event,42,thermal,temp_c=200,env=glovebox,hold_min=10\n"
)
FUTURE_SCHEDULE = (
    "0,ambient\n"
    "58,glovebox\n"
    "63,vacuum\n"
    "70,ambient\n"
)
ANNEAL_EVENTS = (
    "event,61,thermal,temp_c=200,env=glovebox,hold_min=10\n"
    "event,62,thermal,temp_c=250,env=glovebox,hold_min=10\n"
    "event,63,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1\n"
)
FITS = (("single", []), ("shared-b", ["--share-b"]), ("two-log", ["--model", "two-log"]),
        ("window", ["--window-s", "3600"]))


def commands(seeds, presets) -> list[list[str]]:
    """The argv of every command, in the order they run, with ``<tmp>`` for
    the work directory."""
    cmds = []
    for seed in map(str, seeds):
        for p in presets:
            base = f"{TMP}/{p}-{seed}"
            csvs = {"preset": f"{base}.csv", "swap": f"{base}-swap.csv"}
            common = ["--seed", seed, "--chip-id", p, "--out"]
            cmds.append(["simulate", "--preset", p, "--target-days", "56", *common,
                         csvs["preset"]])
            cmds.append(["simulate", "--preset", p, "--schedule", f"{TMP}/swap.schedule",
                         "--target-days", "60", *common, csvs["swap"]])
            cmds.append(["simulate", "--spec", f"{TMP}/{p}.spec.json", "--target-days", "56",
                         *common, f"{base}-spec.csv"])
            reports = []
            for tag, csv in csvs.items():
                for name, opts in FITS:
                    reports.append(f"{base}-{tag}-{name}.json")
                    cmds.append(["fit", csv, *opts, "--seed", seed, "--out", reports[-1]])
            for report in reports:
                cmds.append(["predict", "--report", report, "--target-days", "70",
                             "--out", report.replace(".json", "-pred.json")])
            cmds.append(["predict", "--report", reports[0], "--schedule",
                         f"{TMP}/future.schedule", "--target-days", "70",
                         "--out", f"{base}-preset-single-future-pred.json"])
            for tag, csv in (*csvs.items(), ("spec", f"{base}-spec.csv")):
                cmds.append(["anneal", csv, "--events", f"{TMP}/steps.txt", "--preset", p,
                             "--seed", seed, "--out", f"{base}-{tag}-annealed.csv"])
            cmds.append(["predict", "--preset", p, "--from-days", "56", "--target-days", "63",
                         "--out", f"{base}-preset-pred.json"])
            cmds.append(["simulate", "--preset", p, "--target-days", "6", "--sample-days", "1",
                         *common, f"{base}-short.csv"])
            cmds.append(["fit", f"{base}-short.csv", "--seed", seed, "--out",
                         f"{base}-short-single.json"])
    return cmds


def spec_file(preset) -> dict:
    """A spec file for ``simulate --spec``: the preset's chip and home
    environment, with every timescale doubled and a two-day gas-to-gas
    relaxation in its ``sim`` section."""
    return {
        "chip": dataclasses.asdict(preset.spec),
        "sim": {"env_tau_s": {kind.value: 2.0 * tau for kind, tau in preset.sim.env_tau_s.items()},
                "relax_gas_to_gas_s": 2 * 86400.0},
        "environment": preset.home_env.value,
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_here(seeds, out: Path) -> None:
    """Run the commands with the ``jjaging`` this interpreter imports."""
    import numpy as np

    from jjaging import cli, presets

    src = os.environ.get("PYTHONPATH", "")
    if not cli.__file__.startswith(src):
        raise SystemExit(f"imported {cli.__file__}, not the tree's {src}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "swap.schedule").write_text(SWAP_SCHEDULE)
        (work / "future.schedule").write_text(FUTURE_SCHEDULE)
        (work / "steps.txt").write_text(ANNEAL_EVENTS)
        for name in presets.PRESET_NAMES:
            spec = spec_file(presets.chip_preset(name))
            (work / f"{name}.spec.json").write_text(json.dumps(spec))

        def norm(data: bytes) -> bytes:
            return data.replace(tmp.encode(), TMP.encode())

        stamps = {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(tmp)}
        entries = []
        for argv in commands(seeds, presets.PRESET_NAMES):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([a.replace(TMP, tmp) for a in argv])
            files, values = {}, {}
            for entry in os.scandir(tmp):
                st = entry.stat()
                stamp = (st.st_mtime_ns, st.st_size)
                if stamps.get(entry.name) != stamp:
                    stamps[entry.name] = stamp
                    data = norm(Path(entry.path).read_bytes())
                    files[entry.name] = _sha(data)
                    if entry.name.endswith(".json"):
                        values[entry.name] = _sha(
                            json.dumps(json.loads(data), sort_keys=True).encode())
            entries.append({
                "argv": argv, "exit": code,
                "stdout": _sha(norm(stdout.getvalue().encode())),
                "stderr": _sha(norm(stderr.getvalue().encode())),
                "files": dict(sorted(files.items())),
                "values": dict(sorted(values.items())),
            })
    manifest = {"python": sys.version.split()[0], "numpy": np.__version__, "commands": entries}
    out.write_text(json.dumps(manifest, indent=1) + "\n")


def run_tree(tree: Path, seeds, out: Path) -> None:
    """Run the commands in a fresh interpreter that imports ``TREE/src``."""
    env = {**os.environ, "PYTHONPATH": str((tree / "src").resolve())}
    subprocess.run([sys.executable, __file__, "--run-here", "--seeds", ",".join(map(str, seeds)),
                    "--out", str(out)], env=env, check=True)


def layout_only(ea: dict, eb: dict) -> bool:
    """Whether two entries differ only in the bytes of JSON files whose parsed
    values agree."""
    others = [k for k in ea.keys() | eb.keys() if k != "files"]
    return ("values" in ea and all(ea.get(k) == eb.get(k) for k in others)
            and ea["files"].keys() == eb["files"].keys()
            and all(name in ea["values"] for name, sha in ea["files"].items()
                    if sha != eb["files"][name]))


def compare(a: Path, b: Path) -> int:
    """Print each command whose entry differs between two manifests; 1 if any."""
    ma, mb = (json.loads(p.read_text()) for p in (a, b))
    differ = 0
    for key in ("python", "numpy"):
        if ma[key] != mb[key]:
            print(f"{key}: {ma[key]} vs {mb[key]}")
    if len(ma["commands"]) != len(mb["commands"]):
        print(f"{len(ma['commands'])} vs {len(mb['commands'])} commands")
        differ = 1
    counts, layout, moves = Counter(), Counter(), Counter()
    for i, (ea, eb) in enumerate(zip(ma["commands"], mb["commands"])):
        if ea != eb:
            differ = 1
            fields = [k for k in ea if ea[k] != eb.get(k)]
            only = layout_only(ea, eb)
            print(f"{i}: {' '.join(ea['argv'])}: {', '.join(fields)} differ"
                  + (" (layout only)" if only else ""))
            counts[ea["argv"][0]] += 1
            layout[ea["argv"][0]] += only
            if ea["exit"] != eb["exit"]:
                moves[ea["argv"][0], ea["exit"], eb["exit"]] += 1
    for command, n in sorted(counts.items()):
        print(f"{command}: {n} differ" + (f", {layout[command]} in layout only"
                                          if layout[command] else ""))
    for (command, old, new), n in sorted(moves.items()):
        print(f"{command}: {old} -> {new} x{n}")
    print(f"{len(ma['commands'])} commands: " + ("differ" if differ else "identical"))
    return differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", type=Path, help="checkout whose src/ is run")
    ap.add_argument("--out", type=Path, help="manifest to write")
    ap.add_argument("--seeds", default=",".join(map(str, SEEDS)))
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--run-here", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.out is None or (args.tree is None and not args.run_here):
        ap.error("give TREE and --out, or --compare A B")
    if args.run_here:
        run_here(seeds, args.out)
    else:
        run_tree(args.tree, seeds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
