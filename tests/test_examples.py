"""Example scripts stay runnable.

The fast examples run unconditionally; the slower end-to-end ones are
gated behind ``REPRO_EXAMPLES=1`` so the default suite stays quick.
Each script runs in-process via runpy with a temporary cwd.
"""

import os
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST = ["crossover_analysis.py"]
SLOW = [
    "quickstart.py",
    "power_trace_demo.py",
    "mixed_workload.py",
    "distributed_caps.py",
    "sparse_energy.py",
    "full_paper_study.py",
    "what_if_platforms.py",
]


def _run(script: str, tmp_path, monkeypatch, extra_env=None):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])
    for key, value in (extra_env or {}).items():
        monkeypatch.setenv(key, value)
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")


@pytest.mark.parametrize("script", FAST)
def test_fast_examples(script, tmp_path, monkeypatch, capsys):
    _run(script, tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


@pytest.mark.skipif(
    os.environ.get("REPRO_EXAMPLES") != "1",
    reason="slow example smoke tests; set REPRO_EXAMPLES=1 to run",
)
@pytest.mark.parametrize("script", SLOW)
def test_slow_examples(script, tmp_path, monkeypatch, capsys):
    env = {"REPRO_QUICK": "1"} if script == "full_paper_study.py" else {}
    _run(script, tmp_path, monkeypatch, env)
    out = capsys.readouterr().out
    assert len(out) > 200


def test_usage_debugging_section_runs(tmp_path, monkeypatch, capsys):
    """docs/usage.md §8 (Gantt, Chrome trace, DOT) runs as written on a
    lowered build."""
    from repro.algorithms import StrassenWinograd
    from repro.machine import haswell_e3_1225

    text = (Path(__file__).parent.parent / "docs" / "usage.md").read_text()
    section = text.split("## 8. Debugging schedules", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    machine = haswell_e3_1225()
    build = StrassenWinograd(machine).build(512, 4, execute=False)  # 65 tasks
    monkeypatch.chdir(tmp_path)
    exec(code, {"machine": machine, "build": build})
    out = capsys.readouterr().out
    assert out.count("core") >= 4  # one Gantt row per core
    assert f'digraph "{build.graph.name}"' in out and " -> t" in out
    assert (tmp_path / "trace.json").stat().st_size > 0
