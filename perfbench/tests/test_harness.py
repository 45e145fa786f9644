"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

from harness import (
    ROOT,
    Gate,
    diff_records,
    load_spec,
    percentile,
    result_line,
    valid_metric_name,
    valid_unit,
    Metric,
)

RUN = ROOT / "perfbench" / "run.py"


@pytest.mark.parametrize("name", ["wall_s", "a", "9x", "runtime.plan_s", "p-1", "x" * 64])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "ms%", None])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "MB"):
        assert valid_unit(unit)
    for unit in ("", "m s", "x" * 17):
        assert not valid_unit(unit)


def test_spec_names_units_and_bounds():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_spec_rejects_repeated_names(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["per_layer"].append(dict(spec["per_layer"][0]))
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="repeated"):
        load_spec(path)


def test_percentile_reports_samples_and_tail():
    p = percentile(range(1, 1001), 99)
    assert p.samples == 1000
    assert p.value == pytest.approx(990.01)
    assert p.beyond == 10
    assert "1000 samples" in p.describe() and "10 beyond" in p.describe()
    assert percentile([5.0], 99).value == 5.0
    assert percentile([1, 3], 50).value == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_digest_mismatch_is_reported_per_field():
    want = {"a/1/1": {"makespan_s": 1.0, "dram_j": 2.0}, "b/1/1": {"makespan_s": 3.0}}
    got = {"a/1/1": {"makespan_s": 1.0, "dram_j": 2.5}, "c/1/1": {"makespan_s": 3.0}}
    lines = diff_records(want, got, "cell")
    assert any("a/1/1" in l and "dram_j" in l and "2.5" in l for l in lines)
    assert any("b/1/1" in l and "missing" in l for l in lines)
    assert any("c/1/1" in l and "not in the expected" in l for l in lines)
    assert diff_records(want, want, "cell") == []


def test_gate_counts_failures_into_result_line():
    gate = Gate()
    gate.ops(10)
    gate.check(True, "fine")
    gate.check(False, "broken", 3)
    line = json.loads(result_line(gate, {"wall_s": Metric(1.5, "s", 4)}))
    assert line == {"correct": False, "attempted": 10, "failed": 3,
                    "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    assert gate.error_rate == pytest.approx(0.3)


def test_digest_mismatch_counts_as_failure():
    import workloads

    wl = workloads.make("netsim-25d-torus", seed=3, smoke=True)
    gate = Gate()
    wl.run_pass(gate, traced=False)
    assert gate.correct and gate.attempted == 2
    key = str(wl.ranks[0])
    wl.expected = {**wl.expected, key: {**wl.expected[key], "total_time_s": -1.0}}
    wl.run_pass(gate, traced=False)
    assert gate.failed == 1 and "total_time_s" in gate.problems[0]


def test_seed_fixes_inputs():
    import workloads

    a = workloads.make("service-mixed", seed=5, smoke=True)
    b = workloads.make("service-mixed", seed=5, smoke=True)
    c = workloads.make("service-mixed", seed=6, smoke=True)
    assert a.stream(0) == b.stream(0) != c.stream(0)
    assert a.stream(0) != a.stream(1)
    assert workloads.make("netsim-25d-torus", 7).ranks == workloads.make("netsim-25d-torus", 7).ranks


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["paper-grid-compiled", "executed-grid-fast",
                                      "netsim-25d-torus", "service-mixed"])
def test_smoke_workload(workload, trace):
    proc = _run(str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = load_spec()
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert " n=" in proc.stdout  # sample counts are printed with every metric


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("perfbench/run.py", "--workload", "service-mixed", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
