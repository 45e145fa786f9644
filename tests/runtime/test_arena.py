"""The columnar SoA/CSR task arena: conversion from the object builder,
vectorized metrics against a scalar oracle, validation, pickling, and
the scheduler bridge."""

import pickle

import numpy as np
import pytest

from repro.runtime.arena import (
    EXT_CREATOR,
    EXT_DEP,
    NO_CREATOR,
    NameInterner,
    TaskArena,
    TemplateBuilder,
)
from repro.runtime.cost import ZERO_COST, TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.seatplan import arena_of
from repro.runtime.task import TaskGraph
from repro.testing.generators import gen_graph_case
from repro.testing.oracle import compare_schedules
from repro.util.errors import SchedulingError, ValidationError


def _random_graph(seed):
    return gen_graph_case(seed, max_tasks=60).graph


# ---------------------------------------------------------------------------
# conversion from the object builder


class TestRoundTrip:
    def test_round_trip_preserves_every_field(self):
        g = _random_graph(7)
        arena = TaskArena.from_graph(g)
        assert len(arena) == len(g)
        assert arena.name == g.name
        names, created = arena.names_list(), arena.created_by_list()
        ptr, flat = arena.dep_indptr.tolist(), arena.dep_indices.tolist()
        for t in g:
            i = t.tid
            assert (names[i], tuple(flat[ptr[i] : ptr[i + 1]]),
                    bool(arena.untied[i]), created[i]) == (
                t.name, t.deps, t.untied, t.created_by
            )
            assert TaskCost(
                *(float(getattr(arena, f)[i]) for f in (
                    "flops", "efficiency", "bytes_l1", "bytes_l2",
                    "bytes_l3", "bytes_dram"))
            ) == t.cost

    def test_round_trip_carries_compute_closures(self):
        g = TaskGraph("with-compute")
        fn = lambda: None  # noqa: E731
        g.add("t0", TaskCost(flops=1.0), compute=fn)
        g.add("t1", TaskCost(flops=1.0), deps=[0])
        arena = TaskArena.from_graph(g)
        assert arena.kernels == [fn, None]
        # Kernels are process-local: a pickled clone is cost-only.
        assert pickle.loads(pickle.dumps(arena)).kernels is None
        assert TaskArena.from_graph(TaskGraph("bare")).kernels is None

    def test_successors_match_object_append_order(self):
        for seed in range(10):
            g = _random_graph(seed)
            want = [[] for _ in range(len(g))]
            for t in g:
                for d in t.deps:
                    want[d].append(t.tid)
            assert TaskArena.from_graph(g).successors_lists() == want, seed

    def test_structural_diff_detects_cost_skew(self):
        g = _random_graph(3)
        a = TaskArena.from_graph(g)
        g.tasks[0].cost = TaskCost(flops=g.tasks[0].cost.flops + 1.0)
        assert TaskArena.from_graph(g).structural_diff(a) != []


# ---------------------------------------------------------------------------
# vectorized metrics vs an independent scalar oracle


def _scalar_durations(sched, graph):
    """Per-task uncontended durations, one scalar call per task."""
    return [
        sched.uncontended_duration(t.cost.efficiency, (
            t.cost.flops, t.cost.bytes_l1, t.cost.bytes_l2,
            t.cost.bytes_l3, t.cost.bytes_dram))
        for t in graph
    ]


def _scalar_critical_path(graph, durs):
    """Longest dependency chain: one forward pass in creation order,
    which is topological by construction."""
    finish = [0.0] * len(graph)
    for t in graph:
        finish[t.tid] = max((finish[d] for d in t.deps), default=0.0) + durs[t.tid]
    return max(finish, default=0.0)


class TestMetrics:
    def _durations(self, machine, graph, arena):
        sched = Scheduler(machine, threads=1, execute=False)
        return _scalar_durations(sched, graph), arena.uncontended_durations(*sched.rate_key)

    def test_critical_path_exact(self):
        for seed in range(20):
            case = gen_graph_case(seed, max_tasks=60)
            arena = TaskArena.from_graph(case.graph)
            scalar, durs = self._durations(case.machine, case.graph, arena)
            assert _scalar_critical_path(case.graph, scalar) == (
                arena.critical_path_seconds(durs)
            ), seed

    def test_total_work_close(self):
        # np.sum pairs additions differently than Python sum: relative
        # tolerance, not bit equality, is the contract here.
        for seed in range(20):
            case = gen_graph_case(seed, max_tasks=60)
            arena = TaskArena.from_graph(case.graph)
            scalar, durs = self._durations(case.machine, case.graph, arena)
            assert sum(scalar) == pytest.approx(arena.total_work_seconds(durs), rel=1e-12), seed

    def test_average_parallelism_consistent(self):
        case = gen_graph_case(11, max_tasks=60)
        arena = TaskArena.from_graph(case.graph)
        scalar, durs = self._durations(case.machine, case.graph, arena)
        assert sum(scalar) / _scalar_critical_path(case.graph, scalar) == pytest.approx(
            arena.average_parallelism(durs), rel=1e-12
        )

    def test_uncontended_durations_match_scalar(self):
        case = gen_graph_case(5, max_tasks=60)
        arena = TaskArena.from_graph(case.graph)
        scalar, durs = self._durations(case.machine, case.graph, arena)
        assert durs.tolist() == scalar


# ---------------------------------------------------------------------------
# validation


def _rebuild(arena, dep_indices=None, name_ids=None):
    from repro.runtime.arena import _COST_FIELDS

    return TaskArena(
        arena.name,
        arena.names,
        arena.name_ids if name_ids is None else name_ids,
        {f: getattr(arena, f) for f in _COST_FIELDS},
        arena.untied,
        arena.created_by,
        arena.dep_indptr,
        arena.dep_indices if dep_indices is None else dep_indices,
    )


def _graph_with_deps():
    g = TaskGraph("deps")
    a = g.add("a", TaskCost(flops=1.0))
    b = g.add("b", TaskCost(flops=1.0), deps=[a])
    g.add("c", TaskCost(flops=1.0), deps=[a, b])
    return g


class TestValidate:
    def test_unresolved_sentinel_rejected(self):
        arena = TaskArena.from_graph(_graph_with_deps())
        bad = arena.dep_indices.copy()
        bad[0] = EXT_DEP
        with pytest.raises(SchedulingError, match="sentinel"):
            _rebuild(arena, dep_indices=bad).validate()

    def test_forward_dep_rejected(self):
        arena = TaskArena.from_graph(_graph_with_deps())
        bad = arena.dep_indices.copy()
        bad[0] = len(arena) - 1  # task 1 now "depends" on the last task
        with pytest.raises(SchedulingError, match="unknown/future"):
            _rebuild(arena, dep_indices=bad).validate()

    def test_name_id_range_rejected(self):
        arena = TaskArena.from_graph(_graph_with_deps())
        bad = arena.name_ids.copy()
        bad[0] = len(arena.names)  # one past the interned table
        with pytest.raises(ValidationError):
            _rebuild(arena, name_ids=bad).validate()

    def test_template_builder_rejects_unresolved_splice(self):
        tb = TemplateBuilder(NameInterner())
        tb.emit("dangling", ZERO_COST, (EXT_DEP,), created_by=EXT_CREATOR)
        with pytest.raises(ValidationError):
            tb.to_arena("bad")


# ---------------------------------------------------------------------------
# pickling


class TestPickle:
    def test_round_trip_and_cache_drop(self):
        case = gen_graph_case(4, max_tasks=60)
        arena = TaskArena.from_graph(case.graph)
        # Warm the lazy caches and a fastpath plan.
        arena.names_list()
        arena.successors_lists()
        Scheduler(case.machine, threads=1, execute=False, engine="fast").run(arena)
        state = arena.__getstate__()
        assert not any(k.startswith("_c_") for k in state)
        assert "_fastpath_plan" not in state
        clone = pickle.loads(pickle.dumps(arena))
        assert arena.structural_diff(clone) == []

    def test_pickled_arena_schedules_identically(self):
        case = gen_graph_case(9, max_tasks=60)
        arena = TaskArena.from_graph(case.graph)
        clone = pickle.loads(pickle.dumps(arena))
        s1 = Scheduler(
            case.machine, case.threads, case.policy, execute=False
        ).run(arena)
        s2 = Scheduler(
            case.machine, case.threads, case.policy, execute=False
        ).run(clone)
        assert compare_schedules(s1, s2) == []


# ---------------------------------------------------------------------------
# scheduler bridge


class TestSchedulerBridge:
    def test_fast_engine_consumes_arena_natively(self):
        for seed in range(15):
            case = gen_graph_case(seed, max_tasks=60)
            arena = TaskArena.from_graph(case.graph)
            fast_arena = Scheduler(
                case.machine,
                case.threads,
                case.policy,
                execute=False,
                engine="fast",
            ).run(arena)
            fast_obj = Scheduler(
                case.machine,
                case.threads,
                case.policy,
                execute=False,
                engine="fast",
            ).run(case.graph)
            assert compare_schedules(fast_arena, fast_obj) == [], seed

    def test_reference_engine_reads_arena_columns(self):
        case = gen_graph_case(6, max_tasks=40)
        arena = TaskArena.from_graph(case.graph)
        ref_arena = Scheduler(
            case.machine, case.threads, case.policy, execute=False,
            engine="reference",
        ).run(arena)
        ref_obj = Scheduler(
            case.machine, case.threads, case.policy, execute=False,
            engine="reference",
        ).run(case.graph)
        assert compare_schedules(ref_arena, ref_obj) == []

    def test_execute_on_arena_raises(self, machine):
        g = TaskGraph("g")
        g.add("t", TaskCost(flops=1.0))
        arena = TaskArena.from_graph(g)
        for engine in ("fast", "reference"):
            with pytest.raises(SchedulingError, match="cost-only"):
                Scheduler(machine, 1, execute=True, engine=engine).run(arena)

    def test_execute_on_closure_free_object_graph_runs(self, machine):
        # An object graph converts with a kernel table of None entries,
        # so execute=True runs it; a cost-only lowering still raises.
        from repro.algorithms import StrassenWinograd

        g = TaskGraph("g")
        g.add("t", TaskCost(flops=1.0))
        lowered = StrassenWinograd(machine).build(64, 1, execute=False).graph
        for engine in ("fast", "reference"):
            sched = Scheduler(machine, 1, execute=True, engine=engine)
            assert sched.run(g).makespan > 0
            with pytest.raises(SchedulingError, match="cost-only"):
                sched.run(lowered)


# ---------------------------------------------------------------------------
# metric caching: an object graph's metrics come from its one cached
# arena, whose level order is reused across duration vectors and rebuilt
# when the graph grows


class TestMetricsMemo:
    def test_memo_hits_across_fresh_bound_methods(self, machine):
        g = TaskGraph("memo")
        g.add("a", TaskCost(flops=1e6, efficiency=1.0))
        sched = Scheduler(machine, threads=1, execute=False)
        arena = arena_of(g)
        first = arena.critical_path_seconds(arena.uncontended_durations(*sched.rate_key))
        levels = arena._c_fwd_levels
        again = arena_of(g)
        assert again is arena
        assert again.critical_path_seconds(again.uncontended_durations(*sched.rate_key)) == first
        assert again._c_fwd_levels is levels  # served from the cache

    def test_add_invalidates(self, machine):
        g = TaskGraph("memo")
        a = g.add("a", TaskCost(flops=1e6, efficiency=1.0))
        arena = arena_of(g)
        assert arena.critical_path_seconds(np.full(1, 2.0)) == 2.0
        assert arena.total_work_seconds(np.full(1, 2.0)) == 2.0
        g.add("b", TaskCost(flops=1e6, efficiency=1.0), deps=[a])
        grown = arena_of(g)
        assert grown is not arena
        assert grown.critical_path_seconds(np.full(2, 2.0)) == 4.0
        assert grown.total_work_seconds(np.full(2, 2.0)) == 4.0

    def test_distinct_functions_get_distinct_entries(self):
        g = TaskGraph("memo")
        g.add("a", TaskCost(flops=1e6, efficiency=1.0))
        arena = arena_of(g)
        assert arena.critical_path_seconds(np.full(1, 1.0)) == 1.0
        assert arena.critical_path_seconds(np.full(1, 3.0)) == 3.0
