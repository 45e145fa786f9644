"""Package metadata stays consistent with the importable package."""

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["version"] == repro.__version__
