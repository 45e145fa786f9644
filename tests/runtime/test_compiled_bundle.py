"""The compiled engine's columnar plan bundle.

The bundle is the shared seat plan (:mod:`repro.runtime.seatplan`),
built from a :class:`TaskArena`'s columns with numpy (an object graph
is columnized first).  These tests pin its edge cases on the compiled
kernel against the fast kernel, which packs the same plan into tuples:
tasks whose demand has no service rate, creator affinity, every
ready-queue policy, graph growth, and a property over random arenas
that also covers the measurement.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import haswell_e3_1225
from repro.runtime.arena import COMPILED_PLAN_ATTR, TaskArena
from repro.runtime.seatplan import ARENA_ATTR, arena_of
from repro.runtime.cost import TaskCost
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskGraph
from repro.sim import Engine
from repro.util.errors import SchedulingError

from .test_compiledpath import assert_bit_identical, requires_cc
from .test_fastpath import POLICIES

pytestmark = requires_cc

MACHINE = haswell_e3_1225()


def _run(graph, policy="fifo", threads=2, engine="compiled", **surgery):
    sched = Scheduler(MACHINE, threads, policy, execute=False, engine=engine)
    for attr, value in surgery.items():
        setattr(sched, attr, value)  # the cost API validates rates > 0
    return sched.run(graph)


def _error(graph, engine, **kw):
    with pytest.raises(SchedulingError) as exc:
        _run(graph, engine=engine, **kw)
    return str(exc.value)


# ---------------------------------------------------------------------------
# demand without a service rate


def _zero_efficiency_arena():
    g = TaskGraph("eff0")
    g.add("ok", TaskCost(flops=1e6))
    g.add("stalled", TaskCost(flops=1e6, bytes_l1=1e3), deps=[0])
    arena = TaskArena.from_graph(g)
    arena.efficiency[1] = 0.0  # TaskCost itself rejects efficiency 0
    return arena


@pytest.mark.parametrize("policy", POLICIES)
def test_zero_efficiency_raises_fast_message(policy):
    arena = _zero_efficiency_arena()
    msg = _error(arena, "compiled", policy=policy)
    assert msg == _error(_zero_efficiency_arena(), "fast", policy=policy)
    assert msg == "task 'stalled' has demand in dim 0 but zero service rate"


@pytest.mark.parametrize("dim, attr", [(1, "_l1_bw"), (2, "_l2_bw")])
@pytest.mark.parametrize("as_arena", [False, True])
def test_zero_cache_bandwidth_raises_fast_message(dim, attr, as_arena):
    def graph():
        g = TaskGraph("nobw")
        g.add("a", TaskCost(flops=1e6))
        g.add("b", TaskCost(bytes_l1=1e3, bytes_l2=1e3, bytes_dram=1e3), deps=[0])
        return TaskArena.from_graph(g) if as_arena else g

    msg = _error(graph(), "compiled", **{attr: 0.0})
    assert msg == _error(graph(), "fast", **{attr: 0.0})
    assert msg == f"task 'b' has demand in dim {dim} but zero service rate"


def test_first_bad_dimension_is_reported():
    """Flops and L1 both lack a rate: dim 0 is named, as the reference
    kernel does."""
    def graph():
        g = TaskGraph("both")
        g.add("x", TaskCost(flops=1e6, bytes_l1=1e3))
        arena = TaskArena.from_graph(g)
        arena.efficiency[0] = 0.0
        return arena

    msg = _error(graph(), "compiled", _l1_bw=0.0)
    assert msg == _error(graph(), "fast", _l1_bw=0.0)
    assert "in dim 0" in msg


# ---------------------------------------------------------------------------
# creator affinity


def _affinity_graph():
    g = TaskGraph("affinity")
    root = g.add("root", TaskCost(flops=1e6, bytes_dram=1e4))
    for i in range(12):
        g.add(
            f"child{i}",
            TaskCost(flops=1e5 * (i + 1), bytes_l2=1e3, bytes_l3=5e2 * i),
            deps=[root],
            untied=i % 3 == 0,
            created_by=root if i % 2 else None,
        )
    g.add("join", TaskCost(), deps=list(range(1, 13)))
    return g


def test_affinity_flags_follow_created_by_and_untied():
    g = _affinity_graph()
    _run(g, threads=4)
    bundle = getattr(arena_of(g), COMPILED_PLAN_ATTR)
    tasks = g.tasks
    assert bundle.any_created
    assert bundle.created.tolist() == [
        -1 if t.created_by is None else t.created_by for t in tasks
    ]
    assert bundle.affinity.tolist() == [
        int(t.created_by is not None and not t.untied) for t in tasks
    ]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_affinity_bit_identical(policy, threads):
    g = _affinity_graph()
    fast = _run(g, policy, threads, engine="fast")
    comp = _run(g, policy, threads)
    assert_bit_identical(fast, comp)
    assert comp.stats.migrations == fast.stats.migrations
    assert comp.stats.steals == fast.stats.steals


# ---------------------------------------------------------------------------
# policies and caching


@pytest.mark.parametrize("policy", POLICIES)
def test_critical_priorities_cached_on_bundle(policy):
    g = _affinity_graph()
    arena = TaskArena.from_graph(g)
    first = _run(arena, policy, 3)
    bundle = getattr(arena, COMPILED_PLAN_ATTR)
    prio = bundle.crit_prio
    assert (prio is not None) == (policy == "critical")
    second = _run(arena, policy, 3)
    assert getattr(arena, COMPILED_PLAN_ATTR) is bundle
    assert bundle.crit_prio is prio
    assert_bit_identical(first, second)
    assert_bit_identical(_run(arena, policy, 3, engine="fast"), second)


def test_object_graph_growth_rebuilds_arena_and_bundle():
    g = _affinity_graph()
    _run(g, "critical", 2)
    arena = getattr(g, ARENA_ATTR)
    bundle = getattr(arena_of(g), COMPILED_PLAN_ATTR)
    assert len(arena) == len(g) and bundle.crit_prio is not None

    g.add("late", TaskCost(flops=5e7), deps=[len(g) - 1], created_by=0,
          untied=False)
    comp = _run(g, "critical", 2)
    assert getattr(g, ARENA_ATTR) is not arena
    assert len(getattr(g, ARENA_ATTR)) == len(g)
    grown = getattr(arena_of(g), COMPILED_PLAN_ATTR)
    assert grown is not bundle and len(grown.indeg0) == len(g)
    assert len(grown.crit_prio) == len(g)
    assert_bit_identical(_run(g, "critical", 2, engine="fast"), comp)
    assert comp.record_for(len(g) - 1).name == "late"


def test_machine_change_rebuilds_bundle():
    g = _affinity_graph()
    _run(g)
    bundle = getattr(arena_of(g), COMPILED_PLAN_ATTR)
    sched = Scheduler(MACHINE, 2, execute=False, engine="compiled")
    sched._l2_bw /= 2
    sched.run(g)
    rebuilt = getattr(arena_of(g), COMPILED_PLAN_ATTR)
    assert rebuilt is not bundle and rebuilt.key[2] == bundle.key[2] / 2


# ---------------------------------------------------------------------------
# property: compiled == fast on random arenas, measurement included


@st.composite
def arenas(draw):
    n = draw(st.integers(1, 30))
    g = TaskGraph("hyp")
    amount = st.one_of(st.just(0.0), st.just(1e-10), st.floats(1.0, 1e7))
    for i in range(n):
        deps = draw(st.lists(st.integers(0, i - 1), max_size=3, unique=True)) if i else []
        g.add(
            f"t{i % 4}",
            TaskCost(
                flops=draw(amount),
                efficiency=draw(st.floats(0.05, 1.0)),
                bytes_l1=draw(amount),
                bytes_l2=draw(amount),
                bytes_l3=draw(amount),
                bytes_dram=draw(amount),
            ),
            deps=sorted(deps),
            untied=draw(st.booleans()),
            created_by=draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None,
        )
    return TaskArena.from_graph(g)


def _measured(schedule, segments):
    m = Engine(MACHINE, max_trace_segments=segments).measure(schedule, "hyp")
    return (
        m.elapsed_s,
        m.energy,
        m.flops,
        m.bytes_dram,
        m.stats,
        [(s.t_start, s.t_end, dict(s.watts)) for s in m.trace.segments],
    )


@settings(max_examples=60, deadline=None)
@given(
    arena=arenas(),
    policy=st.sampled_from(POLICIES),
    threads=st.integers(1, 4),
    segments=st.sampled_from([2, 512]),
)
def test_compiled_equals_fast_on_random_arenas(arena, policy, threads, segments):
    fast = _run(arena, policy, threads, engine="fast")
    comp = _run(arena, policy, threads)
    assert_bit_identical(fast, comp)
    assert comp.interval_array.tobytes() == fast.interval_array.tobytes()
    assert _measured(comp, segments) == _measured(fast, segments)
