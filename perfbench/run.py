#!/usr/bin/env python3
"""Benchmark for the jjaging package: three seeded workloads, measured from outside.

    python3 perfbench/run.py                  # every workload, untraced, seed 1, 25 s
    python3 perfbench/run.py --workload fit_chips --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cli_pipeline --trace 1

Workloads (see ``workloads.py``):

- ``mc_ambient``: chip Monte Carlo (``trajectory``, ``ensemble``);
- ``fit_chips``: ``fit_chip`` over all six presets (``fitting``);
- ``cli_pipeline``: simulate -> fit -> predict -> anneal through
  ``jjaging.cli.main`` in-process (``cli``, ``dataio``, ``trajectory``).

Load model: one closed-loop client in one single-threaded process; each
operation starts when the previous one ends.  BLAS/OpenMP threads are pinned
to 1 here, in the runner's environment.  The package under test is imported
from ``src/`` beside this directory and is not modified.

Each workload is a fixed, seeded set of distinct operations.  A run makes
one warm-up pass over them and then timed passes until ``--seconds`` have
passed (at least three); every repeat must give the same output bytes as
the first.

A shared host changes speed by up to 2x for seconds at a time, for all code
alike.  So each run of an operation is timed against a fixed reference
kernel (``reference_kernel``, no jjaging code) run just before it, and an
operation's cost is the median of those ratios over its repeats, times the
kernel's time on a quiet host (``REF_KERNEL_S``): milliseconds of a host
running at that speed.  The uncorrected best-of-k wall time is printed
beside it.  ``ops_per_s`` is the number of operations over the sum of their
costs; ``op_p50_ms`` is the median cost, and ``op_tail_ms`` the mean cost
of the 10 costliest operations, which lie beyond the highest percentile
with 10 operations beyond it.  (A single percentile of a mix that clusters
by preset jumps between clusters from seed to seed; the mean beyond it does
not.)  The number of distinct operations is fixed by the workload, so the
percentile is too.  ``setup_s`` is the median wall time, over several fresh
interpreters, of importing jjaging and generating the workload's inputs.

``--trace 1`` wraps the public functions of every layer (``tracing.py``) and
alternates untraced and traced passes.  Per-layer metrics are medians over
traced passes; their counts repeat exactly for a given seed.
``trace.overhead_frac`` is one minus traced over untraced throughput, paired
pass by pass.

Every operation's output is checked (``workloads.py``); a failed check or an
exception counts as a failed operation.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record with the run environment goes to ``.perfbench/`` at the
repository root, beside the span file of a traced run.
"""

import os

PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("mc_ambient", "fit_chips", "cli_pipeline")
SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10
# Time of reference_kernel() on a quiet 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4): the 5th percentile of 1116 calls.  Costs are reported in
# milliseconds of a host running at that speed.
REF_KERNEL_S = 1.15e-3
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def reference_kernel() -> float:
    """Fixed work that shares no code with jjaging, in the package's own mix:
    a Python loop of float and math calls, then small numpy operations."""
    x = 0.0
    for i in range(1, 8000):
        x += math.log(i) * 0.5
    a = np.arange(64.0)
    for _ in range(80):
        a = np.sqrt(a * a + 1.0) - 0.5
    return x + float(a.sum())


def load_package():
    """Import jjaging from this checkout's src/, or stop with an error."""
    if not (SRC / "jjaging" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jjaging package under {SRC}")
    sys.path.insert(0, str(SRC))
    import jjaging

    if Path(jjaging.__file__).resolve().parent != (SRC / "jjaging").resolve():
        sys.exit(f"perfbench: imported jjaging from {jjaging.__file__}, not from {SRC}")


def environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "jjaging").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "pinned_threads": PINNED_THREADS,
        "machine": platform.machine(), "platform": platform.platform(),
    }


def time_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import jjaging and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs numbered operations of one workload, timing the package call and
    checking every output."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.fits = 0
        self.fits_nonconverged = 0

    def _fail(self, i: int, why: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i}: {why}")

    def op(self, i: int, traced: bool = False) -> tuple[float, float]:
        """Run operation i; return its time and that of the reference kernel
        run just before it."""
        self.attempted += 1
        t0 = time.perf_counter()
        reference_kernel()
        ref = time.perf_counter() - t0
        if traced:
            self.tracer.op_id = self.attempted
            self.tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            result = self.wl.execute(i)
        except Exception:
            error = traceback.format_exc(limit=4)
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        if error:
            self._fail(i, error)
            return elapsed, ref
        try:
            out = self.wl.inspect(i, result)
        except Exception:
            self._fail(i, "output check raised: " + traceback.format_exc(limit=4))
            return elapsed, ref
        first = self.digests.setdefault(i, out.digest)
        if first != out.digest:
            out.problems.append("output bytes differ from an earlier run of the same op")
        self.fits += out.fits
        self.fits_nonconverged += out.fits_nonconverged
        if out.problems:
            self._fail(i, "; ".join(out.problems))
        return elapsed, ref

    def run_pass(self, traced: bool = False) -> list[tuple[float, float]]:
        return [self.op(i, traced) for i in range(self.wl.n_ops)]

    def run_checks(self):
        for why in self.wl.run_checks():
            self._fail(-1, why)


def tail(costs: list[float]) -> tuple[float, float]:
    """Mean cost of the TAIL_BEYOND costliest operations, and the percentile
    beyond which they lie (the highest with TAIL_BEYOND samples beyond it)."""
    worst = sorted(costs)[-TAIL_BEYOND:]
    return 100.0 * (1.0 - len(worst) / len(costs)), statistics.fmean(worst)


def measure(runner: Runner, seconds: float) -> dict:
    runner.run_pass()                     # warm-up, checked but not timed
    passes = []
    t_end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
        passes.append(runner.run_pass())
    # A shared host changes speed for seconds at a time.  Timing each run of
    # an operation against the reference kernel run just before it cancels
    # that; the median over the repeats drops what is left.
    cost = [REF_KERNEL_S * statistics.median(t / r for t, r in reps) for reps in zip(*passes)]
    p, value = tail(cost)
    best = [min(t for t, _ in reps) for reps in zip(*passes)]
    return {
        "ops_per_s": len(cost) / sum(cost),
        "op_p50_ms": statistics.median(cost) * 1e3,
        "op_tail_ms": value * 1e3,
        "_timing": {"ops": len(cost), "passes": len(passes), "tail_percentile": p,
                    "host_speed": statistics.median(REF_KERNEL_S / r for ps in passes
                                                    for _, r in ps),
                    "wall_best_ops_per_s": len(best) / sum(best),
                    "wall_best_p50_ms": statistics.median(best) * 1e3},
    }


def relative_time(runs: list[tuple[float, float]]) -> float:
    """A pass's time in units of the reference kernel run before each op."""
    return sum(t / r for t, r in runs)


def measure_traced(runner: Runner, seconds: float) -> dict:
    import tracing

    runner.run_pass()                     # warm-up
    overhead, passes = [], []
    spans = runner.tracer.spans
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        # Alternate which pass of a pair runs first, so drift does not bias the pair.
        plain_first = len(passes) % 2 == 1
        if plain_first:
            plain = relative_time(runner.run_pass())
        lo = len(spans)
        traced = relative_time(runner.run_pass(traced=True))
        passes.append(tracing.layer_metrics(spans, lo, len(spans)))
        if not plain_first:
            plain = relative_time(runner.run_pass())
        overhead.append(1.0 - plain / traced)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_frac"] = statistics.median(overhead)
    metrics["_timing"] = {"traced_passes": len(passes)}
    return metrics


def run_workload(args) -> int:
    load_package()
    import tracing
    import workloads

    env = environment(args)
    setup_times = [] if args.trace else time_setup(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(wl, tracer)
        if args.trace:
            measured = measure_traced(runner, args.seconds)
        else:
            measured = measure(runner, args.seconds)
        runner.run_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        declared = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", env)
    else:
        measured["setup_s"] = statistics.median(setup_times)
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = list(END_TO_END)
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared}
    extra = {
        "failed_frac": runner.failed / runner.attempted,
        "fit_nonconverged_frac": (runner.fits_nonconverged / runner.fits
                                  if runner.fits else None),
        "fits": runner.fits,
        "fits_nonconverged": runner.fits_nonconverged,
        "setup_samples_s": setup_times,
        **{k[1:]: v for k, v in measured.items() if k.startswith("_")},
    }
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    nc = extra["fit_nonconverged_frac"]
    print(f"  {'failed_frac':<32} {extra['failed_frac']:>14.6g} fraction "
          f"({runner.failed} of {runner.attempted} ops)")
    print(f"  {'fit_nonconverged_frac':<32} "
          + (f"{nc:>14.6g} fraction ({runner.fits_nonconverged} of {runner.fits} fits)"
             if nc is not None else f"{'-':>14} (no fits in this workload)"))
    t = extra["timing"]
    if "ops" in t:
        print(f"  {t['ops']} distinct ops, {t['passes']} timed passes; op_tail_ms is the "
              f"mean beyond p{t['tail_percentile']:.4g}; host ran at {t['host_speed']:.3g} "
              f"of reference speed")
        print(f"  uncorrected best-of-{t['passes']} wall time: "
              f"{t['wall_best_ops_per_s']:.4g} ops/s, p50 {t['wall_best_p50_ms']:.4g} ms")
    print("checks: " + ("pass" if result["correct"] else "FAIL"))
    for why in runner.problems:
        print("  " + why.strip().replace("\n", "\n    "))
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, **result, "extra": extra, "problems": runner.problems},
                  fh, sort_keys=True, indent=2)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        load_package()
        import workloads

        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
