"""Execution engine: schedule a task graph, account energy, emit traces.

The engine is the simulated analogue of the paper's instrumented test
driver (§V-C): it runs a workload (a lowered
:class:`~repro.runtime.arena.TaskArena`, or an object
:class:`~repro.runtime.task.TaskGraph`) at a given
thread count, integrates the energy model over the schedule's activity
intervals, deposits joules into the emulated RAPL MSRs (so a PAPI event
set wrapped around :meth:`Engine.run` observes the run exactly as the
paper's driver did), and returns a :class:`RunMeasurement`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.energy import Activity, PlaneEnergy
from ..machine.specs import MachineSpec

# Aliased: ``measure`` has a local ``trace`` (the PowerTrace).
from ..observability import trace as obtrace
from ..power.msr import MsrFile
from ..power.planes import Plane
from ..power.sampling import PowerSegment, PowerTrace
from ..runtime.scheduler import (
    Schedule,
    SchedulePolicy,
    Scheduler,
    SchedulerEngine,
)
from ..runtime.arena import TaskArena
from ..runtime.task import TaskGraph
from ..util.errors import ConfigurationError
from ..util.validation import require_positive
from .measurement import RunMeasurement

__all__ = ["ENGINE_VERSION", "Engine"]

#: Version of the simulation semantics (event kernels, energy model
#: integration, measurement assembly).  The content-addressed result
#: store (:mod:`repro.core.resultstore`) folds this into every cell
#: key, so bumping it orphans all cached results — do so whenever a
#: change makes previously simulated numbers non-reproducible.
ENGINE_VERSION = 1


class Engine:
    """Runs task graphs on a machine model with full energy accounting.

    Parameters
    ----------
    machine:
        Platform spec (topology, bandwidths, energy model).
    max_trace_segments:
        Power traces are coarsened to at most this many segments; the
        energy integral is preserved exactly, only the time resolution
        of the watts curve is reduced.  Keeps multi-hundred-thousand-task
        runs cheap to post-process.
    msr:
        Optional emulated MSR file; when given, every run deposits its
        plane energies so RAPL/PAPI readers observe them.
    engine:
        Scheduler event kernel (``"fast"``/``"reference"``/
        ``"compiled"``); ``None`` resolves via
        :func:`repro.runtime.scheduler.default_engine`.
    """

    def __init__(
        self,
        machine: MachineSpec,
        max_trace_segments: int = 512,
        msr: MsrFile | None = None,
        engine: SchedulerEngine | None = None,
    ):
        require_positive(max_trace_segments, "max_trace_segments")
        self.machine = machine
        self.max_trace_segments = max_trace_segments
        self.msr = msr
        self.engine = engine

    # ------------------------------------------------------------------

    def run(
        self,
        graph: TaskGraph | TaskArena,
        threads: int,
        policy: SchedulePolicy = "fifo",
        execute: bool = True,
        label: str | None = None,
    ) -> RunMeasurement:
        """Simulate *graph* with *threads* workers and measure it."""
        scheduler = Scheduler(
            self.machine, threads, policy, execute, engine=self.engine
        )
        schedule = scheduler.run(graph)
        return self.measure(schedule, label=label or graph.name)

    def measure(self, schedule: Schedule, label: str) -> RunMeasurement:
        """Convert a finished schedule into a measurement."""
        with obtrace.span(
            "measure", label=label, threads=schedule.threads
        ):
            return self._measure(schedule, label)

    def _measure(self, schedule: Schedule, label: str) -> RunMeasurement:
        with obtrace.span("measure.coarsen"):
            t_start, t_end, busy, flops, b1, b2, b3, bd = self._coarsen(schedule)
        with obtrace.span("measure.energy"):
            dt = t_end - t_start
            activity = (dt, busy * dt, flops, b1, b2, b3, bd)
            _require_nonnegative(activity)
            package, pp0, dram = self.machine.energy.plane_energies(
                *activity, self.machine.dvfs_factor
            )
            # Totals accumulate bucket by bucket in time order: the same
            # sequential float additions as summing per-bucket
            # PlaneEnergy objects.
            total_pkg = total_pp0 = total_dram = 0.0
            total_flops = total_bytes_dram = 0.0
            for e_pkg, e_pp0, e_dram, f, d in zip(
                package.tolist(), pp0.tolist(), dram.tolist(),
                flops.tolist(), bd.tolist(),
            ):
                total_pkg += e_pkg
                total_pp0 += e_pp0
                total_dram += e_dram
                total_flops += f
                total_bytes_dram += d
            total = PlaneEnergy(total_pkg, total_pp0, total_dram)
            live = dt > 0
            width = dt[live]
            segments = [
                PowerSegment(
                    s, e, {Plane.PACKAGE: w_pkg, Plane.PP0: w_pp0, Plane.DRAM: w_dram}
                )
                for s, e, w_pkg, w_pp0, w_dram in zip(
                    t_start[live].tolist(),
                    t_end[live].tolist(),
                    (package[live] / width).tolist(),
                    (pp0[live] / width).tolist(),
                    (dram[live] / width).tolist(),
                )
            ]

        if not segments:
            # Degenerate graph (all zero-cost tasks): represent it as an
            # infinitesimal idle blip so traces stay well-formed.
            segments = [
                PowerSegment(0.0, 0.0, {p: 0.0 for p in (Plane.PACKAGE, Plane.PP0, Plane.DRAM)})
            ]

        trace = PowerTrace(segments)
        if self.msr is not None:
            self.msr.deposit_energy(Plane.PACKAGE, total.package)
            self.msr.deposit_energy(Plane.PP0, total.pp0)
            self.msr.deposit_energy(Plane.DRAM, total.dram)

        measurement = RunMeasurement(
            label=label,
            threads=schedule.threads,
            elapsed_s=schedule.makespan,
            energy=total,
            trace=trace,
            flops=total_flops,
            bytes_dram=total_bytes_dram,
            stats=schedule.stats,
        )
        measurement.check_invariants(self.machine)
        return measurement

    def idle_measurement(self, duration_s: float, label: str = "idle") -> RunMeasurement:
        """Measure an idle machine for *duration_s* — the simulated
        analogue of the paper's 60 s quiesce sleep between tests."""
        require_positive(duration_s, "duration_s")
        energy = self.machine.energy.idle_energy(duration_s)
        idle_w = self.machine.energy.idle_power_w()
        trace = PowerTrace(
            [
                PowerSegment(
                    0.0,
                    duration_s,
                    {
                        Plane.PACKAGE: idle_w["PACKAGE"],
                        Plane.PP0: idle_w["PP0"],
                        Plane.DRAM: idle_w["DRAM"],
                    },
                )
            ]
        )
        if self.msr is not None:
            # Deposit all three planes, mirroring Engine.measure — a
            # PAPI reader wrapped around the quiesce sleep must see a
            # consistent idle baseline on PP0 too.
            self.msr.deposit_energy(Plane.PACKAGE, energy.package)
            self.msr.deposit_energy(Plane.PP0, energy.pp0)
            self.msr.deposit_energy(Plane.DRAM, energy.dram)
        from ..runtime.stats import RuntimeStats

        stats = RuntimeStats(
            makespan=duration_s,
            busy_core_seconds=0.0,
            threads=1,
            task_count=0,
            avg_parallelism=0.0,
            utilization=0.0,
            imbalance=1.0,
            migrations=0,
            steals=0,
        )
        return RunMeasurement(
            label=label,
            threads=1,
            elapsed_s=duration_s,
            energy=energy,
            trace=trace,
            flops=0.0,
            bytes_dram=0.0,
            stats=stats,
        )

    # ------------------------------------------------------------------

    def _coarsen(self, schedule: Schedule) -> tuple[np.ndarray, ...]:
        """Merge adjacent intervals into at most ``max_trace_segments``
        buckets, preserving every activity integral exactly.

        Returns one column per :data:`~repro.runtime.scheduler._INTERVAL_FIELDS`
        entry.  Reads the schedule's interval array and groups it
        vectorially: each bucket is closed by the first interval whose
        end reaches ``bucket_start + bucket_dt`` (greedy accumulation,
        same grouping as a scalar pass), located with a binary search
        over the monotone interval-end column; each bucket's activity
        sums are then single ``np.add.reduceat`` segments.  A ~300k
        interval Strassen schedule coarsens in milliseconds instead of
        a Python-loop second.
        """
        cols = schedule.interval_array
        n = len(cols)
        if n <= self.max_trace_segments:
            return tuple(cols[:, j] for j in range(8))
        makespan = schedule.makespan
        bucket_dt = makespan / self.max_trace_segments
        t_start = cols[:, 0]
        t_end = cols[:, 1]
        busy_secs = cols[:, 2] * (t_end - t_start)  # busy-core-seconds

        # Greedy bucket boundaries.  searchsorted gives the candidate
        # closing interval; the exact scalar condition
        # ``t_end - start >= bucket_dt`` is re-checked locally because
        # ``a - b >= c`` and ``a >= b + c`` can disagree by one ulp.
        starts = []  # first row index of each bucket
        i = 0
        while i < n:
            starts.append(i)
            start = t_start[i]
            j = int(np.searchsorted(t_end, start + bucket_dt, side="left"))
            if j < i:
                j = i
            while j > i and t_end[j - 1] - start >= bucket_dt:
                j -= 1
            while j < n - 1 and t_end[j] - start < bucket_dt:
                j += 1
            i = j + 1

        idx = np.array(starts, dtype=np.intp)
        ends = np.append(idx[1:] - 1, n - 1)  # last row of each bucket
        b_start = t_start[idx]
        b_end = t_end[ends]
        duration = b_end - b_start
        sums = [
            np.add.reduceat(col, idx)
            for col in (busy_secs, cols[:, 3], cols[:, 4], cols[:, 5], cols[:, 6], cols[:, 7])
        ]
        # Fractional after coarsening: the time-weighted mean busy
        # count preserves the busy-core-seconds integral exactly
        # (see ActivityInterval.busy_cores docs).
        avg_busy = np.divide(
            sums[0], duration, out=np.zeros_like(duration), where=duration > 0
        )
        return (b_start, b_end, avg_busy, *sums[1:])


def _require_nonnegative(activity: tuple[np.ndarray, ...]) -> None:
    """:class:`Activity`'s non-negativity validation over whole columns
    (``dt``, busy-core-seconds, flops, L1/L2/L3/DRAM bytes): the first
    offending interval is rebuilt as an :class:`Activity`, which raises
    the exact :class:`~repro.util.errors.ValidationError` the
    per-interval construction would have."""
    bad = activity[0] < 0
    for col in activity[1:]:
        bad |= col < 0
    if bad.any():
        row = int(np.argmax(bad))
        Activity(*(float(col[row]) for col in activity))
