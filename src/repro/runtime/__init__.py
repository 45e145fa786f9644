"""Simulated OpenMP-like task runtime.

Task costs, the columnar task graph every consumer reads
(:class:`TaskArena`), the object builder (:class:`TaskGraph`) behind an
OpenMP-flavoured construction API, and the discrete-event scheduler
with shared L3/DRAM bandwidth contention.
"""

from .arena import TaskArena
from .cost import ZERO_COST, TaskCost
from .rankevents import (
    NET_ENGINES,
    EventAggregate,
    EventStreamBuilder,
    RankEvent,
    RankEventProgram,
)
from .openmp import OpenMP, omp_num_threads
from .scheduler import (
    ActivityInterval,
    Schedule,
    SchedulePolicy,
    Scheduler,
    TaskRecord,
)
from .stats import RuntimeStats
from .task import Task, TaskGraph
from .timeline import CoreTimeline

__all__ = [
    "ActivityInterval",
    "CoreTimeline",
    "EventAggregate",
    "EventStreamBuilder",
    "NET_ENGINES",
    "OpenMP",
    "RankEvent",
    "RankEventProgram",
    "RuntimeStats",
    "Schedule",
    "SchedulePolicy",
    "Scheduler",
    "Task",
    "TaskArena",
    "TaskCost",
    "TaskGraph",
    "TaskRecord",
    "ZERO_COST",
    "omp_num_threads",
]
