"""Per-task energy attribution.

The engine's plane energies are integrals over time — correct, but
silent about *which work* burned the joules.  This module attributes the
dynamic energy to individual tasks from their cost vectors (each task's
flops and per-level bytes have fixed energy prices), apportions the
static/background energy by busy-time share, and aggregates by task-name
prefix.

For the paper's story this answers the question its power curves only
imply: in the Strassen family, how much of the energy goes to the seven
multiplies versus the "communication" (additions, packing)?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.specs import MachineSpec
from ..runtime.arena import TaskArena
from ..runtime.scheduler import Schedule
from ..util.errors import ValidationError
from ..util.tables import TextTable

__all__ = ["TaskEnergy", "attribute_energy", "attribution_table"]


@dataclass(frozen=True)
class TaskEnergy:
    """Energy attributed to one group of tasks."""

    prefix: str
    tasks: int
    busy_s: float
    dynamic_j: float  # flops + cache/DRAM traffic at their unit prices
    static_share_j: float  # background power apportioned by busy time

    @property
    def total_j(self) -> float:
        return self.dynamic_j + self.static_share_j


def _prefix(name: str) -> str:
    return name.split("/", 1)[0].split("[", 1)[0]


def attribute_energy(
    schedule: Schedule, arena: TaskArena, machine: MachineSpec
) -> dict[str, TaskEnergy]:
    """Attribute the run's energy to task-name prefixes of *arena* (an
    object graph's is ``seatplan.arena_of(graph)``).

    Dynamic energy is exact per task — its cost vector priced by the
    energy model (core-active power over its busy time, joules per flop
    and per byte at each level, DRAM plane included).  The machine's
    static package+DRAM power over the makespan is apportioned by each
    group's share of busy core-seconds.  Zero-cost joins are excluded
    (they hold no core and burn nothing).
    """
    em = machine.energy
    dvfs = machine.dvfs_factor
    flops, b1, b2, b3, bd = (
        getattr(arena, f).tolist()
        for f in ("flops", "bytes_l1", "bytes_l2", "bytes_l3", "bytes_dram")
    )
    acc: dict[str, dict] = {}
    total_busy = 0.0
    for record in schedule.records:
        if record.core < 0:
            continue
        tid = record.tid
        dynamic = dvfs * (
            em.core_active_w * record.duration
            + em.j_per_flop * flops[tid]
            + em.j_per_byte_l1 * b1[tid]
            + em.j_per_byte_l2 * b2[tid]
            + em.j_per_byte_l3 * b3[tid]
            + em.uncore_j_per_dram_byte * bd[tid]
        ) + em.dram_j_per_byte * bd[tid]
        slot = acc.setdefault(
            _prefix(record.name), {"tasks": 0, "busy": 0.0, "dynamic": 0.0}
        )
        slot["tasks"] += 1
        slot["busy"] += record.duration
        slot["dynamic"] += dynamic
        total_busy += record.duration
    if not acc:
        raise ValidationError("schedule has no core-occupying tasks to attribute")

    static_total = (
        em.package_static_w + em.dram_static_w
    ) * schedule.makespan
    out: dict[str, TaskEnergy] = {}
    for prefix, slot in acc.items():
        share = slot["busy"] / total_busy if total_busy else 0.0
        out[prefix] = TaskEnergy(
            prefix=prefix,
            tasks=slot["tasks"],
            busy_s=slot["busy"],
            dynamic_j=slot["dynamic"],
            static_share_j=static_total * share,
        )
    return out


def attribution_table(groups: dict[str, TaskEnergy]) -> TextTable:
    """Render an attribution as a table sorted by total energy."""
    if not groups:
        raise ValidationError("nothing to tabulate")
    table = TextTable(
        ["task group", "tasks", "busy (s)", "dynamic J", "static J", "total J", "share"],
        ndigits=4,
    )
    total = sum(g.total_j for g in groups.values()) or 1.0
    for g in sorted(groups.values(), key=lambda g: -g.total_j):
        table.add_row(
            g.prefix,
            g.tasks,
            g.busy_s,
            g.dynamic_j,
            g.static_share_j,
            g.total_j,
            f"{g.total_j / total:.1%}",
        )
    return table
