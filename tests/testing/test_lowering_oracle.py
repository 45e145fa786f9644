"""The ``arena_lowering`` verify family: structural lowering invariants
hold on the real algorithms, forged flops and dropped dependencies are
caught, and an arena whose kernel table does not match its build mode
is flagged."""

import numpy as np

import repro.algorithms.registry as registry
from repro.algorithms.caps import CapsStrassen
from repro.algorithms.strassen import StrassenWinograd
from repro.machine.specs import haswell_e3_1225
from repro.runtime.arena import _COST_FIELDS, TaskArena
from repro.testing.generators import LoweringCase, gen_lowering_case
from repro.testing.invariants import check_lowering, lowering_shape


def _case(alg="strassen", n=128, threads=2, seed=0):
    return LoweringCase(
        seed=seed,
        machine=haswell_e3_1225(),
        algorithm=alg,
        n=n,
        threads=threads,
    )


def _forge(monkeypatch, base, edit):
    """Route ``make_algorithm`` to a *base* subclass whose lowered
    arenas pass through ``edit(columns) -> columns``."""

    class Forged(base):
        def _lower(self, n, threads, operands):
            arena = super()._lower(n, threads, operands)
            cols = {
                "cost_columns": {f: getattr(arena, f).copy() for f in _COST_FIELDS},
                "dep_indptr": arena.dep_indptr.copy(),
                "dep_indices": arena.dep_indices.copy(),
            }
            cols = edit(cols)
            return TaskArena(
                arena.name,
                arena.names,
                arena.name_ids,
                cols["cost_columns"],
                arena.untied,
                arena.created_by,
                cols["dep_indptr"],
                cols["dep_indices"],
                kernels=arena.kernels,
            )

    monkeypatch.setattr(
        registry, "make_algorithm", lambda name, machine, **kw: Forged(machine)
    )


def test_generator_is_seed_pinned():
    assert gen_lowering_case(42) == gen_lowering_case(42)
    cases = [gen_lowering_case(s) for s in range(60)]
    assert {c.algorithm for c in cases} == {"openblas", "strassen", "caps"}
    assert len({c.n for c in cases}) > 3


def test_clean_on_sampled_seeds():
    for seed in range(20):
        case = gen_lowering_case(seed)
        assert check_lowering(case) == [], case.describe()


def test_describe_mentions_cell():
    case = _case()
    assert "strassen" in case.describe()
    assert "n=128" in case.describe()


def test_closed_forms_cover_every_branch():
    m = haswell_e3_1225()
    algs = [
        StrassenWinograd(m),
        StrassenWinograd(m, classic=True),
        StrassenWinograd(m, odd_strategy="peel"),
        CapsStrassen(m),
        CapsStrassen(m, pack=False),
        CapsStrassen(m, cutoff_depth=0),
        CapsStrassen(m, cutoff_depth=1, pack=False),
        registry.make_algorithm("openblas", m),
    ]
    for alg in algs:
        for n in (48, 100, 261, 1024):
            for p in (1, 3):
                arena = alg.build(n, p, execute=False).graph
                tasks, edges = lowering_shape(alg, n, p)
                assert arena.counts_by_prefix() == tasks, (alg.name, n, p)
                assert len(arena.dep_indices) == edges, (alg.name, n, p)


def test_caps_flops_count_the_packing_rows():
    # 57 BFS nodes (1 + 7 + 49) at n=512, each with four pack rows and
    # one unpack row of 1.0 flop.
    alg = CapsStrassen(haswell_e3_1225())
    arena = alg.build(512, 3, execute=False).graph
    assert float(np.sum(arena.flops)) == alg.flop_count(512) + 285.0 == 185544989.0


def test_missing_arena_path_is_a_violation(monkeypatch):
    # An executed lowering without its kernel table must not reach the
    # scheduler (it would silently leave C empty).
    class NoKernels(StrassenWinograd):
        def _lower(self, n, threads, operands):
            arena = super()._lower(n, threads, operands)
            arena.kernels = None
            return arena

    monkeypatch.setattr(
        registry, "make_algorithm", lambda name, machine, **kw: NoKernels(machine)
    )
    violations = check_lowering(_case(n=256))
    assert [v.invariant for v in violations] == ["lowering.executed"]


def test_cost_only_build_with_kernels_is_a_violation(monkeypatch):
    # A cost-only lowering must be kernel-less: closures over operands
    # that were never allocated have nothing to compute into.
    class StrayKernels(StrassenWinograd):
        def build(self, n, threads, seed=0, execute=True):
            build = super().build(n, threads, seed=seed, execute=execute)
            build.graph.kernels = build.graph.kernels or [None] * len(build.graph)
            return build

    monkeypatch.setattr(
        registry, "make_algorithm", lambda name, machine, **kw: StrayKernels(machine)
    )
    violations = check_lowering(_case())
    assert [v.invariant for v in violations] == ["lowering.path"]


def test_forged_cost_skew_is_detected(monkeypatch):
    def forge(cols):
        cols["cost_columns"]["flops"][0] += 1.0  # one forged flop
        return cols

    _forge(monkeypatch, StrassenWinograd, forge)
    violations = check_lowering(_case(n=512))
    assert [v.invariant for v in violations] == ["lowering.flops"]


def test_dropped_dep_is_detected(monkeypatch):
    # Drop bfs-s2's dependency on bfs-s1 (the first one-dependency
    # row): tid order, the flop sum and the single sink all survive it.
    def forge(cols):
        ptr, idx = cols["dep_indptr"], cols["dep_indices"]
        row = int(np.flatnonzero(np.diff(ptr) == 1)[0])
        cols["dep_indices"] = np.delete(idx, ptr[row])
        cols["dep_indptr"] = np.concatenate([ptr[: row + 1], ptr[row + 1 :] - 1])
        return cols

    _forge(monkeypatch, CapsStrassen, forge)
    violations = check_lowering(_case(alg="caps", n=256))
    assert [v.invariant for v in violations] == ["lowering.counts"]


def test_harness_runs_and_counts_the_family():
    from repro.testing.harness import run_verify

    report = run_verify(cases=11, seed=0, max_tasks=12)
    assert report.checks.get("arena_lowering", 0) >= 2
    assert report.ok, report.summary()
