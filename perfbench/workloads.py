"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up that ``setup_s`` times), and then serves ``n_ops`` distinct
operations, numbered from 0:

- ``execute(i)`` is the timed call into the package;
- ``inspect(i, result)`` is untimed.  It checks the output against an
  oracle that does not share code with the path under test, and returns an
  ``Outcome`` holding a digest of the output bytes, so that repeats of an
  operation can be checked for identical output.

The op counts are sized so that one pass over them takes a few seconds, and
every workload has enough distinct operations for a tail percentile with 10
beyond it.

Every call into ``jjaging`` goes through a module attribute at call time
(``ensemble.draw_chip(...)``), so that the tracer's rebinding sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jjaging import cli, ensemble, fitting, presets

DAY_S = 86_400.0


@dataclass
class Outcome:
    digest: str
    problems: list[str] = field(default_factory=list)
    fits: int = 0
    fits_nonconverged: int = 0


def _sub_seed(seed: int, stream: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    return int(ss.generate_state(1)[0])


def _closed_form(r0, a, tau, b, t):
    """R(t) = r0 (1 + a ln(t/tau + b)), written out independently of jjaging.model."""
    return r0 * (1.0 + a * np.log(t / tau + b))


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class Workload:
    """Interface of a workload; ``run_checks`` holds checks over the whole run."""

    name: str
    n_ops: int

    def execute(self, i: int):
        raise NotImplementedError

    def inspect(self, i: int, result) -> Outcome:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        return []


class McAmbient(Workload):
    """Chip Monte Carlo: draw a chip1-spec chip, simulate 56 d of ambient
    storage sampled every 2 d, aggregate."""

    name = "mc_ambient"
    stream = 1
    n_ops = 48
    cv_targets = ((0.05, 0.02), (0.07, 0.02))  # (first sample, last sample)

    def __init__(self, seed: int, workdir: Path):
        p = presets.chip_preset("chip1")
        self.seed = seed
        self.spec = p.spec
        self.cfg = p.sim
        self.schedule = p.schedule
        self.samples = np.arange(0.0, 56 * DAY_S + 1.0, 2 * DAY_S)
        self.cv_first: dict[int, float] = {}
        self.cv_last: dict[int, float] = {}

    def execute(self, i: int):
        s = _sub_seed(self.seed, self.stream, i)
        chip = ensemble.draw_chip(self.spec, s)
        ds = ensemble.simulate_chip(chip, self.schedule, [], self.samples, self.cfg, s,
                                    chip_id=f"mc{i}")
        return chip, ds, ensemble.aggregate_series(ds)

    def inspect(self, i: int, result) -> Outcome:
        chip, ds, agg = result
        problems = []
        n_t = len(self.samples)
        recs = ds.records
        if len(recs) != len(chip) * n_t or any(r.flag != "ok" for r in recs):
            problems.append(f"expected {len(chip) * n_t} ok records, got {len(recs)}")
            return Outcome(_sha(repr(recs).encode()), problems)
        j = np.array([r.junction_id for r in recs])
        t = np.array([r.t_s for r in recs])
        r = np.array([r.r_ohm for r in recs])
        drawn = np.array([(p.r0_ohm, p.a, p.tau_s, p.b) for p, _ in chip.junctions])
        expect = _closed_form(*drawn[j].T, t)
        # A single-environment junction starting on its bound follows the
        # closed form; only the multiplicative noise separates them.
        dev = np.abs(r / expect - 1.0)
        limit = 6.0 * self.spec.noise_sigma
        if not np.array_equal(t, np.tile(self.samples, len(chip))) or dev.max() > limit:
            problems.append(f"record off the closed form by {dev.max():.3g} (limit {limit:.3g})")
        self.cv_first[i], self.cv_last[i] = agg[0][2], agg[-1][2]
        digest = _sha(j.tobytes(), t.tobytes(), r.tobytes(), repr(agg).encode())
        return Outcome(digest, problems)

    def run_checks(self) -> list[str]:
        """Chip-median CV at the first and last sample against the c11 targets."""
        problems = []
        for label, values, (target, tol) in (
            ("first", self.cv_first, self.cv_targets[0]),
            ("last", self.cv_last, self.cv_targets[1]),
        ):
            cv = float(np.median(list(values.values())))
            if abs(cv - target) > tol:
                problems.append(f"chip-median CV at the {label} sample {cv:.4f} "
                                f"outside {target} +- {tol}")
        return problems


_FIT_MODES = (
    ("single-log", False),
    ("single-log", True),   # share_b
    ("two-log", False),
)

# Fixed grid for the single-log oracle: a x tau x b.
_ORACLE_GRID = {
    "a": np.linspace(0.0, 0.4, 41),
    "tau_s": np.logspace(2.5, 6.5, 41),
    "b": np.linspace(0.6, 1.6, 21),
}


class FitChips(Workload):
    """Chip fitting: one ``fit_chip`` per op on 84-day data from all six
    presets, each through its own schedule; single-log, single-log with
    shared b, and two-log in equal parts."""

    name = "fit_chips"
    stream = 2
    chips_per_preset = 3
    n_ops = chips_per_preset * len(presets.PRESET_NAMES) * len(_FIT_MODES)

    def __init__(self, seed: int, workdir: Path):
        samples = np.arange(0.0, 84 * DAY_S + 1.0, 2 * DAY_S)
        self.datasets = []
        for k in range(self.chips_per_preset * len(presets.PRESET_NAMES)):
            name = presets.PRESET_NAMES[k % len(presets.PRESET_NAMES)]
            p = presets.chip_preset(name)
            s = _sub_seed(seed, self.stream, k)
            chip = ensemble.draw_chip(p.spec, s)
            self.datasets.append(
                ensemble.simulate_chip(chip, p.schedule, [], samples, p.sim, s,
                                       chip_id=f"{name}-{k}")
            )
        self._oracle_rss: dict[int, tuple] = {}

    def _slot(self, i: int):
        return i // len(_FIT_MODES), _FIT_MODES[i % len(_FIT_MODES)]

    def execute(self, i: int):
        d, (model, share_b) = self._slot(i)
        opts = fitting.FitOptions(model=model)
        return fitting.fit_chip(self.datasets[d], opts, share_b=share_b)

    def _average_series(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-time mean of usable resistances over its first value, computed
        here from the records (sample times are exact, 2 d apart)."""
        recs = [r for r in self.datasets[d].records if r.flag == "ok"]
        t = np.array([r.t_s for r in recs])
        r = np.array([r.r_ohm for r in recs])
        times = np.unique(t)
        means = np.array([r[t == u].mean() for u in times])
        return times, means / means[0]

    def _oracle(self, d: int):
        if d not in self._oracle_rss:
            t, y = self._average_series(d)
            # One b at a time: the same grid minimum, without the full grid's
            # temporaries in the measured process's peak RSS.
            series = np.column_stack([t, y])
            rss = min(fitting.grid_search_oracle(series, {**_ORACLE_GRID, "b": [b]})[1]
                      for b in _ORACLE_GRID["b"])
            self._oracle_rss[d] = (t, y, rss)
        return self._oracle_rss[d]

    def inspect(self, i: int, res) -> Outcome:
        d, (model, share_b) = self._slot(i)
        problems = []
        n_junctions = len(self.datasets[d].junction_ids())
        if len(res.per_junction) + len(res.skipped) != n_junctions:
            problems.append(f"{len(res.per_junction)} fits + {len(res.skipped)} skipped "
                            f"!= {n_junctions} junctions")
        if model == "single-log":
            t, y, oracle_rss = self._oracle(d)
            p = res.average.params
            rss = float(np.sum((1.0 + p.a * np.log(t / p.tau_s + p.b) - y) ** 2))
            if not rss <= oracle_rss:
                problems.append(f"average fit rss {rss:.6g} above the grid oracle's "
                                f"{oracle_rss:.6g}")
        fits = [res.average] + [res.per_junction[j] for j in sorted(res.per_junction)]
        text = repr([(f.params, f.rss, f.converged, f.iterations, f.stderr) for f in fits])
        text += repr(sorted(res.skipped.items()))
        return Outcome(_sha(text.encode()), problems, fits=len(fits),
                       fits_nonconverged=sum(not f.converged for f in fits))

class CliPipeline(Workload):
    """The operator's path for one preset, in-process through
    ``jjaging.cli.main``: simulate --schedule, fit, predict --report,
    anneal --events."""

    name = "cli_pipeline"
    stream = 3
    n_ops = 6 * len(presets.PRESET_NAMES)
    target_days = 60
    predict_days = 67
    sample_days = 2

    ANNEAL_EVENTS = (
        "event,61,thermal,temp_c=200,env=glovebox,hold_min=10\n"
        "event,62,thermal,temp_c=250,env=glovebox,hold_min=10\n"
        "event,63,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1\n"
    )
    VOLTAGE_EVENT = "event,56,voltage,n_pulses=30,amplitude_v=0.9,pulse_duration_s=1,junctions=0-7\n"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.events_path = self.dir / "anneal_events.txt"
        self.events_path.write_text(self.ANNEAL_EVENTS)
        self.schedule_paths = {}
        for name in presets.PRESET_NAMES:
            p = presets.chip_preset(name)
            lines = [f"{start / DAY_S:g},{env.kind.value}\n" for start, env in p.schedule.segments]
            if name in ("chip1", "chip2"):
                lines.append(self.VOLTAGE_EVENT)
            path = self.dir / f"{name}.schedule"
            path.write_text("".join(lines))
            self.schedule_paths[name] = path

    def _files(self):
        d = self.dir
        return {n: d / n for n in ("data.csv", "data.summary.json", "report.json",
                                   "pred.json", "annealed.csv", "annealed.steps.json")}

    def _argvs(self, i: int):
        name = presets.PRESET_NAMES[i % len(presets.PRESET_NAMES)]
        seed = str(_sub_seed(self.seed, self.stream, i) % 2**31)
        f = {k: str(v) for k, v in self._files().items()}
        return [
            ["simulate", "--preset", name, "--schedule", str(self.schedule_paths[name]),
             "--target-days", str(self.target_days), "--sample-days", str(self.sample_days),
             "--seed", seed, "--chip-id", name, "--out", f["data.csv"]],
            ["fit", f["data.csv"], "--seed", seed, "--out", f["report.json"]],
            ["predict", "--report", f["report.json"], "--target-days", str(self.predict_days),
             "--out", f["pred.json"]],
            ["anneal", f["data.csv"], "--events", str(self.events_path), "--preset", name,
             "--seed", seed, "--out", f["annealed.csv"]],
        ]

    def execute(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        codes = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in self._argvs(i):
                codes.append(cli.main(argv))
        return codes, out.getvalue(), err.getvalue()

    def inspect(self, i: int, result) -> Outcome:
        codes, stdout, stderr = result
        problems = []
        # Exit code 3 from fit is the documented "non-convergence, report
        # still written" outcome; it is counted as non-convergence below.
        if codes[0] != 0 or codes[1] not in (0, 3) or codes[2] != 0 or codes[3] != 0:
            problems.append(f"exit codes {codes}: {stderr.strip()[-300:]}")
        files = self._files()
        missing = [n for n, p in files.items() if not p.is_file()]
        if missing:
            problems.append(f"missing outputs {missing}")
        if problems:
            return Outcome(_sha(stdout.encode()), problems)
        blobs = {n: p.read_bytes() for n, p in files.items()}
        rows = blobs["data.csv"].count(b"\n") - 1
        expect_rows = 16 * (self.target_days // self.sample_days + 1)
        if rows != expect_rows:
            problems.append(f"data.csv has {rows} rows, expected {expect_rows}")
        report = json.loads(blobs["report.json"])
        avg = report["average"]["params"]
        pred = json.loads(blobs["pred.json"])
        expect = report["average_r0_ohm"] * (
            1.0 + avg["a"] * math.log(self.predict_days * DAY_S / avg["tau_s"] + avg["b"]))
        if not math.isclose(pred["r_predicted_ohm"], expect, rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"r_predicted_ohm {pred['r_predicted_ohm']!r} != closed form "
                            f"{expect!r}")
        fits = [report["average"]] + list(report["per_junction"].values())
        digest = _sha(stdout.encode(), *(blobs[n] for n in sorted(blobs)))
        return Outcome(digest, problems, fits=len(fits),
                       fits_nonconverged=sum(not f["converged"] for f in fits))

WORKLOADS = {w.name: w for w in (McAmbient, FitChips, CliPipeline)}
