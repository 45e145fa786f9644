"""The templated lowering: stamped arenas pinned against the lowering
golden, template reuse, kernel tables and pickling.

``MatmulAlgorithm.build`` stamps memoized subtree templates into a
:class:`~repro.runtime.arena.TaskArena`.  ``TestBitIdentity`` pins every
branch (leaf, grain, odd-size peel, classic, BFS/DFS crossover, packing
on/off, blocked tiles) column by column against
``tests/golden/lowerings.json``, written from the object recursion the
templates replaced; regenerate it only with ``tools/golden.py --write``.
"""

import importlib.util
import math
import pathlib
import pickle

import pytest

from repro.algorithms.blocked import BlockedGemm
from repro.algorithms.caps import CapsStrassen
from repro.algorithms.strassen import StrassenWinograd
from repro.runtime.arena import _COST_FIELDS, TaskArena
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskGraph
from repro.testing.oracle import compare_schedules
from repro.util.errors import SchedulingError

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden_tool", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
_LOWERINGS = golden.load_lowering_golden()["cells"]


def _assert_golden(key, alg=None):
    """Lower the golden cell *key* (on *alg* when given, else a fresh
    instance) and diff every column digest against the golden."""
    if alg is None:
        build = golden.make_lowering(key)
    else:
        _, _, n, threads, execute = golden.LOWERING_CELLS[key]
        build = alg.build(n, threads, execute=execute)
    assert isinstance(build.graph, TaskArena)
    assert build.cost_only == (build.graph.kernels is None)
    got = {key: golden.lowering_digest(build)}
    assert golden.diff_lowerings({key: _LOWERINGS[key]}, got) == []


class TestBitIdentity:
    @pytest.mark.parametrize("n", [64, 100, 128, 256, 512])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_strassen_winograd(self, n, threads):
        _assert_golden(f"strassen/{n}/{threads}")

    def test_strassen_classic(self):
        _assert_golden("strassen-classic/256/2")

    def test_strassen_odd_peel(self):
        for key in ("strassen-peel/200/2", "strassen-peel/1000/4", "strassen-peel/261/2"):
            _assert_golden(key)

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_caps(self, n, threads):
        _assert_golden(f"caps/{n}/{threads}")

    def test_caps_no_pack(self):
        _assert_golden("caps-nopack/256/2")

    @pytest.mark.parametrize("cutoff_depth", [0, 1, 10])
    def test_caps_bfs_dfs_crossover(self, cutoff_depth):
        _assert_golden(f"caps-depth{cutoff_depth}/512/3")

    @pytest.mark.parametrize("n", [96, 512])
    def test_blocked(self, n):
        _assert_golden(f"openblas/{n}/4")

    def test_template_memo_reuse_stays_identical(self, machine):
        # The same instance lowers several cells; memoized subtree
        # templates must not leak state between problem sizes.
        alg = StrassenWinograd(machine)
        for key in ("strassen/512/3", "strassen/64/1", "strassen/256/3",
                    "strassen/100/1", "exec/strassen/100/2", "strassen/512/1"):
            _assert_golden(key, alg)


class TestTemplateCount:
    """A cold lowering builds O(depth) templates, never O(7^depth) rows
    through Python — the host-independent form of the old object/arena
    build-time ratio."""

    def test_strassen_4096(self, machine):
        alg = StrassenWinograd(machine)
        arena = alg.build(4096, 4, execute=False).graph
        depth = int(math.log2(4096 // alg.grain))
        assert len(alg._tpl_memo) <= depth + 1
        assert len(arena) == 2 * (7**depth - 1) // 6 + 7**depth

    def test_caps_4096(self, machine):
        alg = CapsStrassen(machine)
        alg.build(4096, 4, execute=False)
        depth = int(math.log2(4096 // alg.leaf_cutoff))
        assert len(alg._tpl_memo) <= depth + 1


class TestKernels:
    VARIANTS = [
        ("winograd", lambda m: StrassenWinograd(m), 256),
        ("classic", lambda m: StrassenWinograd(m, classic=True), 256),
        ("peel", lambda m: StrassenWinograd(m, odd_strategy="peel"), 261),
        ("padded", lambda m: StrassenWinograd(m), 100),
        ("caps-pack", lambda m: CapsStrassen(m), 256),
        ("caps-nopack", lambda m: CapsStrassen(m, pack=False), 256),
        ("caps-padded", lambda m: CapsStrassen(m), 96),
        ("caps-crossover", lambda m: CapsStrassen(m, cutoff_depth=1, dfs_grain=128), 512),
        ("blocked", lambda m: BlockedGemm(m), 96),
    ]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("policy", ["fifo", "lifo", "critical", "steal"])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("variant", [v[0] for v in VARIANTS])
    def test_executed_variants_verify(self, machine, variant, threads, policy, engine):
        # A closure on the wrong tid runs before its producer under some
        # policy and leaves C wrong.
        _, make, n = next(v for v in self.VARIANTS if v[0] == variant)
        build = make(machine).build(n, threads, execute=True)
        assert len(build.graph.kernels) == len(build.graph)
        Scheduler(machine, threads, policy, execute=True, engine=engine).run(build.graph)
        assert build.verify().ok

    def test_misaligned_kernel_table_raises(self, machine):
        from repro.util.errors import ValidationError

        class Short(StrassenWinograd):
            def _lower(self, n, threads, operands):
                arena = super()._lower(n, threads, operands)
                if operands is not None:
                    arena.kernels.pop()
                return arena

        with pytest.raises(ValidationError, match="kernels for"):
            Short(machine).build(256, 2, execute=True)

    def test_pickle_drops_kernels(self, machine):
        build = CapsStrassen(machine).build(128, 2, execute=True)
        clone = pickle.loads(pickle.dumps(build.graph))
        assert clone.kernels is None
        assert clone.structural_diff(build.graph) == []
        for engine in ("reference", "fast", "compiled"):
            with pytest.raises(SchedulingError, match="cost-only"):
                Scheduler(machine, 2, execute=True, engine=engine).run(clone)


def _object_form(arena):
    """*arena* re-added row by row through the ``TaskGraph`` builder."""
    g = TaskGraph(arena.name)
    names, created = arena.names_list(), arena.created_by_list()
    ptr, flat = arena.dep_indptr.tolist(), arena.dep_indices.tolist()
    costs = zip(*(getattr(arena, f).tolist() for f in _COST_FIELDS))
    for tid, cost in enumerate(costs):
        g.add(names[tid], TaskCost(*cost), deps=flat[ptr[tid] : ptr[tid + 1]],
              untied=bool(arena.untied[tid]), created_by=created[tid])
    return g


class TestScheduling:
    def test_fast_engine_identical_on_both_shapes(self, machine):
        # A lowering and the same rows added through the object builder
        # schedule identically.
        for alg in (StrassenWinograd(machine), CapsStrassen(machine)):
            for policy in ("fifo", "critical"):
                arena = alg.build(256, 3, execute=False).graph
                obj = _object_form(arena)
                fa = Scheduler(
                    machine, 3, policy, execute=False, engine="fast"
                ).run(arena)
                fo = Scheduler(
                    machine, 3, policy, execute=False, engine="fast"
                ).run(obj)
                assert compare_schedules(fa, fo) == [], (alg.name, policy)
                # The measured quantities are *exactly* equal, not just
                # violation-free: same floats in, same decisions out.
                assert fa.makespan == fo.makespan
                assert fa.stats.busy_core_seconds == fo.stats.busy_core_seconds


class TestCacheRouting:
    def test_cost_only_builds_route_to_arena(self, machine):
        from repro.algorithms.base import BuildCache

        cache = BuildCache()
        alg = StrassenWinograd(machine)
        build = alg.build_cached(256, 2, execute=False, cache=cache)
        assert isinstance(build.graph, TaskArena)
        assert build.graph.kernels is None
        # Shared instance on a repeat hit.
        again = alg.build_cached(256, 2, execute=False, cache=cache)
        assert again is build
        assert cache.stats()["hits"] == 1

    def test_executed_builds_are_arenas_with_kernels(self, machine):
        from repro.algorithms.base import BuildCache

        cache = BuildCache()
        alg = StrassenWinograd(machine)
        build = alg.build_cached(96, 2, execute=True, cache=cache)
        assert isinstance(build.graph, TaskArena)
        assert len(build.graph.kernels) == len(build.graph)
        schedule = Scheduler(machine, 2, execute=True).run(build.graph)
        assert schedule.makespan > 0
        assert build.verify().ok


class TestPickling:
    def test_algorithms_pickle_without_template_state(self, machine):
        for alg in (StrassenWinograd(machine), CapsStrassen(machine)):
            alg.build(256, 2, execute=False)  # warm the memo
            clone = pickle.loads(pickle.dumps(alg))
            assert clone._tpl_memo == {}
            a = clone.build(256, 2, execute=False).graph
            b = alg.build(256, 2, execute=False).graph
            assert a.structural_diff(b) == []

    def test_arena_build_survives_pickle(self, machine):
        alg = CapsStrassen(machine)
        build = alg.build(256, 2, execute=False)
        clone = pickle.loads(pickle.dumps(build))
        assert clone.graph.structural_diff(build.graph) == []
