"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/test_smoke.py

Checks that each run exits 0, that its output checks pass, that its last
line reports every metric BENCHMARK.json declares with the declared unit,
that traced counts repeat exactly for one seed, and that the benchmark
refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.5"
EXACT_COUNTS = ("fitting.lm_iterations", "fitting.nonconverged", "trajectory.samples",
                "ensemble.records", "dataio.bytes_written", "dataio.bytes_read")


def run(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class SmokeTest(unittest.TestCase):
    def result(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return res

    def test_every_workload_reports_every_metric(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    res = self.result(w["name"], trace)
                    if not trace:
                        for m in BENCH["end_to_end"]:
                            self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_counts_repeat(self):
        first, second = (self.result("cli_pipeline", 1)["metrics"] for _ in range(2))
        for name in EXACT_COUNTS:
            self.assertGreater(first[name]["value"], 0, name)
            self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_refuses_to_run_without_package_sources(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("mc_ambient", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
