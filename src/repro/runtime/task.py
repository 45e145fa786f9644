"""Tasks and the task-graph builder.

A :class:`TaskGraph` is a growing DAG of :class:`Task` nodes, each
carrying a :class:`~repro.runtime.cost.TaskCost` and (optionally) a
``compute`` closure that performs the real numpy numerics when the run
executes.  It is the *builder* behind the OpenMP constructs
(:mod:`repro.runtime.openmp`), the LU and sparse lowerings, the random
graph generators and hand-built test graphs; the matmul lowerings stamp
a :class:`~repro.runtime.arena.TaskArena` directly.

Nothing reads a ``TaskGraph`` as a graph: every consumer (the event
engines, the invariants, energy attribution) takes its columnar
conversion, :func:`repro.runtime.seatplan.arena_of`, which carries the
structural checks and metrics (critical path, total work, DOT export).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..util.errors import SchedulingError, ValidationError
from .cost import ZERO_COST, TaskCost

__all__ = ["Task", "TaskGraph"]


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes
    ----------
    tid:
        Dense integer id assigned by the owning graph (creation order).
    name:
        Diagnostic label ("strassen/mul[3,1]", "blocked/tile(2,5)").
    cost:
        Resource demands; zero-cost tasks act as joins/barriers.
    deps:
        Ids of tasks that must complete first.
    compute:
        Optional zero-argument closure performing the real numerics.
        Executed in dependency order when the engine runs with
        ``execute=True``.
    untied:
        OpenMP ``untied`` semantics: the simulated scheduler may start
        the task on any core regardless of which core created it.  Tied
        tasks prefer their creator's core when it is free.
    created_by:
        tid of the task whose compute region spawned this one, if any
        (used for tied-task placement affinity).
    """

    tid: int
    name: str
    cost: TaskCost = ZERO_COST
    deps: tuple[int, ...] = ()
    compute: Callable[[], None] | None = None
    untied: bool = True
    created_by: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.tid}, {self.name!r})"


class TaskGraph:
    """A growing DAG of tasks.

    Dependencies must reference already-added tasks, which makes cycles
    impossible by construction.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.tasks: list[Task] = []

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def task(self, tid: int) -> Task:
        """Fetch a task by id."""
        if not (0 <= tid < len(self.tasks)):
            raise ValidationError(f"no task with id {tid}")
        return self.tasks[tid]

    def add(
        self,
        name: str,
        cost: TaskCost = ZERO_COST,
        deps: Iterable[int | Task] = (),
        compute: Callable[[], None] | None = None,
        untied: bool = True,
        created_by: int | Task | None = None,
    ) -> Task:
        """Append a task; *deps* may be ids or :class:`Task` objects."""
        tid = len(self.tasks)
        if deps:
            # List-comprehension (no generator frame) — this method is
            # the lowering hot path, called once per task.
            dep_ids = tuple(
                [d.tid if isinstance(d, Task) else int(d) for d in deps]
            )
            for d in dep_ids:
                if not (0 <= d < tid):
                    raise SchedulingError(
                        f"task {name!r} depends on unknown/future task id {d}"
                    )
        else:
            dep_ids = ()
        creator = created_by.tid if isinstance(created_by, Task) else created_by
        task = Task(tid, name, cost, dep_ids, compute, untied, creator)
        self.tasks.append(task)
        return task

    def join(self, name: str, deps: Iterable[int | Task]) -> Task:
        """Add a zero-cost synchronization node over *deps*."""
        return self.add(name, ZERO_COST, deps)

    def sinks(self) -> list[Task]:
        """Tasks nothing depends on."""
        has_successor = {d for t in self.tasks for d in t.deps}
        return [t for t in self.tasks if t.tid not in has_successor]
