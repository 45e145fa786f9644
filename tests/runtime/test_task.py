"""The task-graph builder, and the structure and metrics of its
columnar conversion (``arena_of``), which every consumer reads."""

import numpy as np
import pytest

from repro.runtime.cost import TaskCost
from repro.runtime.seatplan import arena_of
from repro.runtime.task import TaskGraph
from repro.util.errors import SchedulingError, ValidationError


def chain(n=3):
    g = TaskGraph("chain")
    prev = None
    for i in range(n):
        prev = g.add(f"t{i}", TaskCost(flops=10), deps=[prev] if prev else [])
    return g


def diamond():
    g = TaskGraph("diamond")
    a = g.add("a", TaskCost(flops=1))
    b = g.add("b", TaskCost(flops=2), deps=[a])
    c = g.add("c", TaskCost(flops=3), deps=[a])
    d = g.add("d", TaskCost(flops=4), deps=[b, c])
    return g, (a, b, c, d)


def test_ids_are_dense_creation_order():
    g = chain(4)
    assert [t.tid for t in g] == [0, 1, 2, 3]


def test_forward_dependency_rejected():
    g = TaskGraph()
    with pytest.raises(SchedulingError):
        g.add("x", deps=[0])  # self/future reference


def test_deps_accept_task_objects():
    g = TaskGraph()
    a = g.add("a")
    b = g.add("b", deps=[a])
    assert b.deps == (a.tid,)


def test_successors_and_sources_sinks():
    g, (a, b, c, d) = diamond()
    arena = arena_of(g)
    assert arena.successors_lists()[a.tid] == [b.tid, c.tid]
    assert np.flatnonzero(arena.dep_counts == 0).tolist() == [a.tid]
    assert g.sinks() == [d]


def test_join():
    g, (_, b, c, _) = diamond()
    j = g.join("j", [b, c])
    assert j.cost.is_zero
    assert set(j.deps) == {b.tid, c.tid}
    assert arena_of(g).zero_cost().tolist() == [False] * 4 + [True]


def test_validate_ok():
    g, _ = diamond()
    arena_of(g).validate()  # must not raise


def test_topological_order_respects_deps():
    # Creation order is topological by construction: every dependency
    # precedes its task, so the arena's CSR points strictly backwards.
    g, _ = diamond()
    arena = arena_of(g)
    owner = np.repeat(np.arange(len(arena)), arena.dep_counts)
    assert np.all(arena.dep_indices < owner)


def test_total_cost():
    g, _ = diamond()
    assert float(arena_of(g).flops.sum()) == 10


def test_critical_path_diamond():
    g, _ = diamond()
    arena = arena_of(g)
    dur = arena.flops  # one second per flop
    # longest chain: a(1) -> c(3) -> d(4) = 8
    assert arena.critical_path_seconds(dur) == pytest.approx(8.0)
    assert arena.total_work_seconds(dur) == pytest.approx(10.0)
    assert arena.average_parallelism(dur) == pytest.approx(10.0 / 8.0)


def test_critical_path_chain_equals_total():
    arena = arena_of(chain(5))
    dur = np.ones(5)
    assert arena.critical_path_seconds(dur) == pytest.approx(5.0)
    assert arena.average_parallelism(dur) == pytest.approx(1.0)


def test_task_lookup():
    g = chain(2)
    assert g.task(1).name == "t1"
    with pytest.raises(ValidationError):
        g.task(99)


def test_counts_by_prefix():
    g = TaskGraph()
    g.add("pre/128")
    g.add("mul/64")
    g.add("mul/64x")
    assert arena_of(g).counts_by_prefix() == {"pre": 1, "mul": 2}


def test_empty_graph_metrics():
    g = TaskGraph()
    assert arena_of(g).critical_path_seconds(np.zeros(0)) == 0.0
    assert len(g) == 0


class TestDot:
    def test_dot_contains_nodes_and_edges(self):
        g = TaskGraph("dotted")
        a = g.add("work", TaskCost(flops=5))
        g.join("sync", [a])
        dot = arena_of(g).to_dot()
        assert dot.startswith('digraph "dotted"')
        assert 't0 [label="work\\n5 flop", shape=ellipse];' in dot
        assert "t0 -> t1;" in dot
        assert "diamond" in dot  # zero-cost join shape

    def test_dot_size_guard(self):
        g = TaskGraph()
        for i in range(12):
            g.add(f"t{i}", TaskCost(flops=1))
        with pytest.raises(ValidationError):
            arena_of(g).to_dot(max_tasks=10)


def test_task_graph_is_only_a_builder():
    # Consumers read the arena (``arena_of``); the object graph keeps
    # only what building one needs.
    public = {k for k in vars(TaskGraph) if not k.startswith("_")}
    assert public == {"add", "join", "sinks", "task"}
    assert {"__len__", "__iter__"} <= set(vars(TaskGraph))
