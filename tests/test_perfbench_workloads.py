"""One operation of each benchmark workload, run and checked by the
workload's own oracle, and the benchmark's traced counts of one operation.

The workloads read the dataset API (``ds.records``, ``r.flag``,
``junction_ids()``) and the CLI; a change that breaks them would turn every
benchmark operation into a failure.  The tracer counts samples, records and
fits from spans of the public per-junction functions, so a kernel that
bypasses them would read 0, and it counts the anneal events applied from
calls of ``apply_voltage_anneal`` and ``apply_thermal_anneal``.  The full
benchmark smoke test, ``perfbench/test_smoke.py``, takes over a minute;
this takes seconds.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from jjaging import load_events, load_measurements, load_schedule  # noqa: E402
from jjaging.ensemble import FLAGS  # noqa: E402

FLAG_OPEN = FLAGS.index("open")


@pytest.mark.parametrize("name", ["mc_ambient", "fit_chips", "cli_pipeline"])
def test_first_operation_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=1, workdir=tmp_path)
    outcome = wl.inspect(0, wl.execute(0))
    assert outcome.problems == []
    assert outcome.digest == wl.inspect(0, wl.execute(0)).digest


def traced_op(name, workdir, op=0):
    """Run one operation of a workload under the tracer; return its result
    and the per-layer metrics of its spans."""
    wl = workloads.WORKLOADS[name](seed=1, workdir=workdir)
    tracer = tracing.Tracer()
    tracer.op_id = op
    tracer.install()
    try:
        result = wl.execute(op)
    finally:
        tracer.uninstall()
    return result, tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))


def test_traced_counts_of_mc_ambient_op(tmp_path):
    (_, ds, _), m = traced_op("mc_ambient", tmp_path)
    assert m["ensemble.records"] == len(ds) > 0
    assert m["trajectory.samples"] == int((ds.flag != FLAG_OPEN).sum())
    assert m["fitting.fits"] == 0


@pytest.mark.parametrize("op", [0, 2], ids=["single-log", "two-log"])
def test_traced_counts_of_fit_chips_op(op, tmp_path):
    res, m = traced_op("fit_chips", tmp_path, op)
    fits = [res.average, *res.per_junction.values()]
    assert m["fitting.fits"] == 1 + len(res.per_junction) > 1
    assert m["fitting.lm_iterations"] == sum(f.iterations for f in fits)
    assert m["fitting.nonconverged"] == sum(not f.converged for f in fits)


def test_traced_counts_of_cli_pipeline_op(tmp_path):
    (codes, _, _), m = traced_op("cli_pipeline", tmp_path)
    assert codes[0] == 0 and codes[1] in (0, 3)
    ds = load_measurements(tmp_path / "data.csv")
    report = json.loads((tmp_path / "report.json").read_text())
    assert m["ensemble.records"] == len(ds) > 0
    assert m["trajectory.samples"] == int((ds.flag != FLAG_OPEN).sum())
    # The average curve plus one fit per usable junction.
    assert m["fitting.fits"] == 1 + len(report["per_junction"])
    # Events go through the public apply functions: simulate's voltage
    # event on the junctions it names that are not open, and every anneal
    # step on every usable junction.
    (ev,) = load_schedule(tmp_path / "chip1.schedule")[1]
    not_open = set(ds.junction_id[ds.flag != FLAG_OPEN].tolist())
    steps = load_events(tmp_path / "anneal_events.txt")
    assert all(step.junction_ids is None for step in steps)
    assert m["trajectory.events_applied"] == (
        len(not_open & set(ev.junction_ids)) + len(steps) * len(not_open)) > 0
