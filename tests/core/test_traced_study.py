"""Tracing must observe, never perturb: traced and untraced studies
produce bit-identical results, serially and in parallel, and the
recorded spans account for (essentially all of) the study wall time."""

import pytest

from repro.api import RunOptions, Study
from repro.observability.export import (
    events_to_spans,
    read_trace_json,
    validate_chrome_trace,
)

CFG = dict(sizes=(128, 256), threads=(1, 2), execute_max_n=128)


def _fields(m):
    """The floats that must match bit-for-bit between runs."""
    e = m.energy
    return (
        m.elapsed_s,
        e.package,
        e.pp0,
        e.dram,
        m.flops,
        m.bytes_dram,
        m.stats.busy_core_seconds,
        m.stats.task_count,
    )


def _assert_identical(a, b):
    assert set(a.runs) == set(b.runs)
    for key in a.runs:
        assert _fields(a.runs[key]) == _fields(b.runs[key]), key


@pytest.mark.parametrize("parallel", [None, 2], ids=["serial", "parallel2"])
def test_tracing_does_not_change_results(machine, parallel):
    plain = Study(machine, **CFG).run(RunOptions(parallel=parallel))
    traced = Study(machine, **CFG).run(
        RunOptions(parallel=parallel, trace=True)
    )
    _assert_identical(plain.result, traced.result)


def test_serial_and_parallel_traced_results_identical(machine):
    serial = Study(machine, **CFG).run(RunOptions(trace=True))
    par = Study(machine, **CFG).run(RunOptions(parallel=2, trace=True))
    _assert_identical(serial.result, par.result)


def test_parallel_trace_merges_every_cell_in_serial_order(machine):
    run = Study(machine, **CFG).run(RunOptions(parallel=2, trace=True))
    cells = run.tracer.find("cell")
    assert len(cells) == len(run.result.runs)
    # Merge order is the serial cell order, not completion order.
    merged_keys = [
        (sp.attrs["alg"], sp.attrs["n"], sp.attrs["threads"]) for sp in cells
    ]
    assert merged_keys == list(run.result.runs)
    # Worker groups are rebased end-to-end: no two cells overlap.
    for prev, cur in zip(cells, cells[1:]):
        assert cur.t_start >= prev.t_end - 1e-12


def test_parallel_cells_have_the_serial_child_spans(machine):
    """A worker lowers its cell inside the cell's own ``build`` span,
    exactly as the serial path does, so every cell has the same child
    spans either way (cost-only cells included)."""

    def children(run):
        return {
            (sp.attrs["alg"], sp.attrs["n"], sp.attrs["threads"]): [
                child.name for child in run.tracer.children(sp)
            ]
            for sp in run.tracer.find("cell")
        }

    serial = children(Study(machine, **CFG).run(RunOptions(trace=True)))
    par = children(Study(machine, **CFG).run(RunOptions(parallel=2, trace=True)))
    assert par == serial
    assert {tuple(names) for names in serial.values()} == {
        ("build", "simulate", "verify"),  # n=128: executed and verified
        ("build", "simulate"),  # n=256: cost-only
    }


def test_parallel_trace_absorbs_worker_metrics(machine):
    serial = Study(machine, **CFG).run(RunOptions(trace=True))
    par = Study(machine, **CFG).run(RunOptions(parallel=2, trace=True))
    s = serial.metrics
    p = par.metrics
    # Deterministic counters must agree regardless of process layout.
    for name in ("lowering.tasks", "engine.sweeps"):
        assert name in s and name in p, name
        assert p[name]["value"] == s[name]["value"], name


def test_exported_trace_is_schema_valid_and_attributed(machine, tmp_path):
    out = tmp_path / "study.json"
    run = Study(machine, **CFG).run(RunOptions(trace=out))
    data = read_trace_json(out)
    assert validate_chrome_trace(data) == []

    spans = events_to_spans(data)
    cells = [sp for sp in spans if sp.name == "cell"]
    assert len(cells) == len(run.result.runs)
    wall = data["otherData"]["meta"]["wall_s"]
    cell_sum = sum(sp.duration_s for sp in cells)
    # Acceptance bound is 1% on realistic study sizes; this reduced
    # matrix keeps a little slack against scheduler jitter in CI.
    assert cell_sum == pytest.approx(wall, rel=0.05)

    sim = [sp for sp in spans if sp.name == "simulate"]
    assert len(sim) == len(cells)  # every cell simulated under its span


def test_cell_spans_carry_metric_deltas(machine):
    run = Study(machine, sizes=(128,), threads=(1,), execute_max_n=0,
                verify=False).run(RunOptions(trace=True))
    cell = next(
        sp for sp in run.tracer.find("cell") if sp.attrs["alg"] == "openblas"
    )
    delta = cell.attrs["metrics"]
    assert delta.get("lowering.tasks", 0) > 0
    assert delta.get("engine.sweeps", 0) > 0
    assert cell.attrs["sim_elapsed_s"] == pytest.approx(
        run.result.measurement("openblas", 128, 1).elapsed_s
    )
