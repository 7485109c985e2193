"""One operation of each benchmark workload, run and checked by the
workload's own oracle.

The workloads read the dataset API (``ds.records``, ``r.flag``,
``junction_ids()``) and the CLI; a change that breaks them would turn every
benchmark operation into a failure.  The full benchmark smoke test,
``perfbench/test_smoke.py``, takes over a minute; this takes seconds.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["mc_ambient", "fit_chips", "cli_pipeline"])
def test_first_operation_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=1, workdir=tmp_path)
    outcome = wl.inspect(0, wl.execute(0))
    assert outcome.problems == []
    assert outcome.digest == wl.inspect(0, wl.execute(0)).digest
