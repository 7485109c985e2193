"""Every script under demos/ runs to completion against the package sources.

Each script is copied into a temporary directory first, so the ``output/``
directory it writes next to itself lands there and not in the tree.  It
runs with ``TMPDIR`` pointed at a fresh directory, which it must leave
empty: a demo removes the scratch files it makes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
           "TMPDIR": str(scratch)}
    proc = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not any(scratch.iterdir()), sorted(p.name for p in scratch.iterdir())
