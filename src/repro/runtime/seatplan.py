"""Seat plans: every task's demand vector priced on one machine.

Both cost-driven event kernels (``fast`` in :mod:`repro.runtime.fastpath`
and ``compiled`` in :mod:`repro.runtime.compiledpath`) seat a dispatched
task from a precomputed plan instead of re-deriving rates from its cost
on every run.  This module is the one place that plan is derived: from a
:class:`~repro.runtime.arena.TaskArena`'s cost columns, by column
arithmetic, into a :class:`SeatPlan` of contiguous arrays (CSR seat
entries, successor CSR, per-task flags).  The compiled kernel reads the
arrays as they are; the fast kernel packs them into per-task tuples.

:func:`arena_of` is the one place a graph's shape is told apart: an
object :class:`~repro.runtime.task.TaskGraph` is columnized once (and
again after it grows), and every consumer downstream of
``Scheduler.run`` takes the arena only.

Each engine caches what it keeps on the arena under its own attribute
(:data:`~repro.runtime.arena.PLAN_ATTRS`), keyed by the machine
constants: a machine change rebuilds the plan, and a grown object graph
gets a fresh arena with no plan yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .arena import TaskArena
from .scheduler import _EPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scheduler import Scheduler
    from .task import TaskGraph

__all__ = ["SeatPlan", "arena_of", "build_seat_plan", "plan_for"]

#: Attribute under which an object graph caches its arena conversion.
ARENA_ATTR = "_seatplan_arena"


class SeatPlan:
    """Everything an event kernel reads for one ``(arena, machine)``, as
    contiguous arrays: the private-seat CSR over ``(dim, rate, dur,
    adj_dur, demand)`` entries, the shared-seat CSR over ``(dim, work)``
    entries, per-task flags, the successor CSR and the source tids."""

    __slots__ = (
        "key",            # (core_peak, l1_bw, l2_bw, l3_bw, dram_bw)
        "priv_ptr", "priv_dim", "priv_rate", "priv_dur", "priv_adj",
        "priv_dem",
        "shr_ptr", "shr_dim", "shr_work",
        "alive0", "affinity", "zeros", "created", "indeg0",
        "succ_ptr", "succ_idx",
        "seeds",
        "any_created",
        "total_entries",  # finite seat entries; bounds the interval count
        "crit_prio",      # float64 priorities or None (lazy)
    )


def _csr(valid: np.ndarray, *columns: np.ndarray):
    """Row-major CSR of the ``True`` cells of the ``(n, k)`` mask
    *valid*: ``(indptr, dims, *values)``, entries of each row in column
    order."""
    ptr = np.zeros(len(valid) + 1, dtype=np.int64)
    np.cumsum(valid.sum(axis=1), out=ptr[1:])
    dims = np.nonzero(valid)[1].astype(np.int64)
    return (ptr, dims, *(c[valid] for c in columns))


def build_seat_plan(arena: TaskArena, key: tuple) -> SeatPlan:
    """Price *arena*'s columns on the machine *key* with numpy.

    Per task and in dimension order: a private entry for each of
    flops/L1/L2 with demand above EPS and a positive service rate, with
    ``rate``, ``dur = d/rate`` and ``adj = dur - EPS/rate``; a shared
    entry for L3/DRAM demand above EPS.  ``alive0`` packs the entry
    count with the rare cases so dispatch branches once: ``> 0`` is the
    live entry count, ``0`` means all demands are sub-EPS (the task
    finishes at the next event), and ``-1 - dim`` names the first
    dimension with demand but no positive rate (the kernel raises at
    dispatch, as the reference does).  ``affinity`` is set when the
    task is tied AND has a creator (the reference's creator-affinity
    gate).  Every float is one IEEE-754 expression per element, so the
    plan is the same whichever kernel consumes it.
    """
    core_peak, l1_bw, l2_bw = key[:3]
    eps = _EPS
    n = len(arena)
    f, b1, b2 = arena.flops, arena.bytes_l1, arena.bytes_l2
    b3, bd = arena.bytes_l3, arena.bytes_dram
    with np.errstate(divide="ignore", invalid="ignore"):
        rate0 = arena.efficiency * core_peak
        dur0 = f / rate0
        adj0 = dur0 - eps / rate0
        dur1 = b1 / l1_bw
        adj1 = dur1 - (eps / l1_bw if l1_bw > 0.0 else 0.0)
        dur2 = b2 / l2_bw
        adj2 = dur2 - (eps / l2_bw if l2_bw > 0.0 else 0.0)
    demand = np.stack((f > eps, b1 > eps, b2 > eps), axis=1)
    # ``rate <= 0.0`` rather than ``not rate > 0.0``: a NaN rate seats.
    no_rate = np.stack(
        (rate0 <= 0.0, np.full(n, l1_bw <= 0.0), np.full(n, l2_bw <= 0.0)),
        axis=1,
    )
    bad = demand & no_rate
    priv = demand & ~no_rate
    shared = np.stack((b3 > eps, bd > eps), axis=1)

    sp = SeatPlan()
    sp.key, sp.crit_prio = key, None
    (sp.priv_ptr, sp.priv_dim, sp.priv_rate, sp.priv_dur, sp.priv_adj,
     sp.priv_dem) = _csr(
        priv,
        np.stack((rate0, np.full(n, l1_bw), np.full(n, l2_bw)), axis=1),
        np.stack((dur0, dur1, dur2), axis=1),
        np.stack((adj0, adj1, adj2), axis=1),
        np.stack((f, b1, b2), axis=1),
    )
    sp.shr_ptr, shr_dims, sp.shr_work = _csr(shared, np.stack((b3, bd), axis=1))
    sp.shr_dim = shr_dims + 3
    sp.alive0 = np.where(
        bad.any(axis=1),
        -1 - np.argmax(bad, axis=1),
        priv.sum(axis=1) + shared.sum(axis=1),
    ).astype(np.int64)
    has_creator = arena.created_by >= 0
    sp.created = np.where(has_creator, arena.created_by, -1)
    sp.any_created = bool(has_creator.any())
    sp.affinity = (has_creator & ~arena.untied).astype(np.uint8)
    sp.zeros = arena.zero_cost().astype(np.uint8)
    sp.indeg0 = np.ascontiguousarray(arena.dep_counts, dtype=np.int64)
    sp.seeds = np.flatnonzero(sp.indeg0 == 0).astype(np.int64)
    sp.total_entries = int(np.maximum(sp.alive0, 0).sum())
    sp.succ_ptr, sp.succ_idx = arena.successors_csr()
    return sp


def arena_of(graph: "TaskGraph | TaskArena") -> TaskArena:
    """*graph* as columns: itself when already an arena, else its
    ``TaskArena.from_graph`` conversion, cached on the graph and
    rebuilt when the graph has grown since.

    An object graph is always executable (a task without a closure has
    nothing to run), so its conversion carries a kernel table even when
    every entry is ``None``; only an arena lowered cost-only has none.
    """
    if isinstance(graph, TaskArena):
        return graph
    arena: TaskArena | None = getattr(graph, ARENA_ATTR, None)
    if arena is None or len(arena) != len(graph):
        arena = TaskArena.from_graph(graph)
        arena.kernels = arena.kernels or [None] * len(arena)
        setattr(graph, ARENA_ATTR, arena)
    return arena


def plan_for(
    sched: "Scheduler",
    arena: TaskArena,
    attr: str,
    derive: Callable[[SeatPlan], object] | None = None,
):
    """Fetch or build the plan an engine caches on *arena* under *attr*.

    The cached object (a :class:`SeatPlan`, or whatever *derive* makes
    of a freshly built one — it must carry ``key``) stays valid while
    *sched*'s machine constants match; otherwise it is rebuilt.
    """
    key = sched.rate_key
    plan = getattr(arena, attr, None)
    if plan is None or plan.key != key:
        plan = build_seat_plan(arena, key)
        if derive is not None:
            plan = derive(plan)
        setattr(arena, attr, plan)
    return plan

