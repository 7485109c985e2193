"""The package spells its version once: ``dataio.TOOL_VERSION``."""

import re
from pathlib import Path

import jjaging
from jjaging.dataio import TOOL_VERSION

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_one_version_string():
    # A regex, not tomllib, which Python 3.10 lacks.
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.DOTALL | re.MULTILINE)
    assert re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project.group(1), re.MULTILINE) == [
        TOOL_VERSION]
    assert jjaging.__version__ is TOOL_VERSION
