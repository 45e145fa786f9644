"""The paper's execution matrix (§VI-A) as a reusable study driver.

"Our execution matrix includes all three algorithmic approaches using
randomly generated matrices of sizes {512, 1024, 2048, 4096}.  Each
algorithm is executed for each problem size using thread counts
{1, 2, 3, 4}.  This provides us with 48 final result sets."

:class:`EnergyPerformanceStudy` reproduces exactly that: for every
(algorithm, size, threads) triple it builds the task graph, simulates it
on the machine, records the :class:`RunMeasurement`, and optionally
verifies the numerics against numpy.  :class:`StudyResult` then exposes
the derived quantities the evaluation tabulates — slowdowns (Table II /
Fig. 3), average power (Table III / Figs. 4-6) and EP values/scaling
(Table IV / Fig. 7).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..algorithms.base import MatmulAlgorithm
from ..algorithms.registry import paper_algorithms
from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import registry as metrics_registry
from ..power.planes import Plane
from ..sim.engine import Engine
from ..sim.measurement import RunMeasurement
from ..util.errors import ConfigurationError, StudyCellError, ValidationError
from ..util.validation import require_nonempty, require_positive
from .ep import EPConvention, EPMeasurement
from .journal import StudyJournal, study_fingerprint
from .scaling import ScalingPoint, scaling_series

__all__ = [
    "StudyConfig",
    "StudyResult",
    "EnergyPerformanceStudy",
    "PAPER_SIZES",
    "PAPER_THREADS",
]

#: The paper's problem sizes and thread counts.
PAPER_SIZES: tuple[int, ...] = (512, 1024, 2048, 4096)
PAPER_THREADS: tuple[int, ...] = (1, 2, 3, 4)


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of one study run.

    Attributes
    ----------
    sizes / threads:
        The execution matrix (defaults: the paper's).
    seed:
        Operand RNG seed (same operands for every algorithm).
    execute_max_n:
        Real numpy numerics (and verification) run for sizes up to this
        bound; larger sizes simulate cost-only.  The simulated timings
        and energies are identical either way.
    verify:
        Check executed results against numpy within stability bounds.
    baseline:
        Algorithm name the slowdown tables normalise against.
    plane / convention:
        EP definition (paper: PACKAGE plane, power convention).
    """

    sizes: tuple[int, ...] = PAPER_SIZES
    threads: tuple[int, ...] = PAPER_THREADS
    seed: int = 2015
    execute_max_n: int = 1024
    verify: bool = True
    baseline: str = "openblas"
    plane: Plane = Plane.PACKAGE
    convention: EPConvention = "power"

    def __post_init__(self) -> None:
        require_nonempty(self.sizes, "sizes")
        require_nonempty(self.threads, "threads")
        for n in self.sizes:
            require_positive(n, "size")
        for p in self.threads:
            require_positive(p, "threads")


@dataclass
class StudyResult:
    """All measurements of one study plus the paper's derived metrics."""

    machine: MachineSpec
    config: StudyConfig
    algorithm_names: list[str]
    display_names: dict[str, str]
    runs: dict[tuple[str, int, int], RunMeasurement] = field(default_factory=dict)

    # ---- raw accessors -------------------------------------------------

    def measurement(self, alg: str, n: int, threads: int) -> RunMeasurement:
        key = (alg, n, threads)
        if key not in self.runs:
            raise ValidationError(f"no run recorded for {key}")
        return self.runs[key]

    def time_s(self, alg: str, n: int, threads: int) -> float:
        return self.measurement(alg, n, threads).elapsed_s

    def power_w(
        self, alg: str, n: int, threads: int, plane: Plane | None = None
    ) -> float:
        """Average watts on *plane* (default: the study's plane, the
        paper's PACKAGE; pass ``Plane.PP0`` for the cores-only plane the
        paper also records).

        Naming convention (normalized across the repo): accessors that
        return watts carry a ``_w`` suffix — ``power_w`` /
        ``avg_power_w`` / ``peak_power_w`` / ``min_power_w`` here, and
        ``RunMeasurement.avg_power_w`` / ``peak_power_w`` per run.
        """
        return self.measurement(alg, n, threads).avg_power_w(
            plane or self.config.plane
        )

    def pp0_fraction(self, alg: str, n: int, threads: int) -> float:
        """Share of package power drawn by the cores (PP0/PACKAGE) —
        high for compute-dense kernels, lower for bandwidth-bound ones
        whose uncore does the work."""
        meas = self.measurement(alg, n, threads)
        return meas.avg_power_w(Plane.PP0) / meas.avg_power_w(Plane.PACKAGE)

    def ep(self, alg: str, n: int, threads: int) -> float:
        """Eq. 1 under the study's convention."""
        return EPMeasurement(
            self.measurement(alg, n, threads),
            self.config.plane,
            self.config.convention,
        ).ep

    # ---- Table II / Fig. 3: slowdown ------------------------------------

    def slowdown(self, alg: str, n: int, threads: int) -> float:
        """T_alg / T_baseline at the same (n, threads)."""
        base = self.time_s(self.config.baseline, n, threads)
        return self.time_s(alg, n, threads) / base

    def avg_slowdown_by_size(self, alg: str) -> dict[int, float]:
        """Table II rows: mean over thread counts, per size."""
        return {
            n: sum(self.slowdown(alg, n, p) for p in self.config.threads)
            / len(self.config.threads)
            for n in self.config.sizes
        }

    def avg_slowdown(self, alg: str) -> float:
        """Table II 'Average' column: mean over all sizes and threads."""
        by_size = self.avg_slowdown_by_size(alg)
        return sum(by_size.values()) / len(by_size)

    # ---- Table III / Figs. 4-6: power ------------------------------------

    def avg_power_by_threads(self, alg: str) -> dict[int, float]:
        """Table III rows: mean watts over sizes, per thread count."""
        return {
            p: sum(self.power_w(alg, n, p) for n in self.config.sizes)
            / len(self.config.sizes)
            for p in self.config.threads
        }

    def avg_power_w(self, alg: str) -> float:
        """Table III 'Average' column (watts; canonical ``_w`` name)."""
        by_threads = self.avg_power_by_threads(alg)
        return sum(by_threads.values()) / len(by_threads)

    def power_curve(self, alg: str, n: int) -> list[tuple[int, float]]:
        """Figs. 4-6: watts vs threads for one size."""
        return [(p, self.power_w(alg, n, p)) for p in self.config.threads]

    def peak_power_w(self, alg: str) -> float:
        """Highest instantaneous watts over the whole matrix."""
        return max(
            self.measurement(alg, n, p).peak_power_w(self.config.plane)
            for n in self.config.sizes
            for p in self.config.threads
        )

    def min_power_w(self, alg: str) -> float:
        """Lowest per-run average watts over the matrix."""
        return min(
            self.power_w(alg, n, p)
            for n in self.config.sizes
            for p in self.config.threads
        )

    # ---- Table IV / Fig. 7: energy performance ----------------------------

    def avg_ep_by_size(self, alg: str) -> dict[int, float]:
        """Table IV rows: mean EP over threads, per size."""
        return {
            n: sum(self.ep(alg, n, p) for p in self.config.threads)
            / len(self.config.threads)
            for n in self.config.sizes
        }

    def avg_ep(self, alg: str) -> float:
        """Table IV 'Average' column."""
        by_size = self.avg_ep_by_size(alg)
        return sum(by_size.values()) / len(by_size)

    def scaling_curve(self, alg: str, n: int) -> list[ScalingPoint]:
        """Fig. 7: Eq. 5's S over the thread sweep for one size."""
        threads = sorted(self.config.threads)
        if threads[0] != 1:
            raise ValidationError("scaling curves need a 1-thread baseline run")
        eps = [self.ep(alg, n, p) for p in threads]
        return scaling_series(eps, threads)

    def speedup(self, alg: str, n: int, threads: int) -> float:
        """Conventional speedup T_1 / T_p (same algorithm)."""
        return self.time_s(alg, n, 1) / self.time_s(alg, n, threads)


class EnergyPerformanceStudy:
    """Runs the execution matrix and assembles a :class:`StudyResult`."""

    def __init__(
        self,
        machine: MachineSpec,
        algorithms: Sequence[MatmulAlgorithm] | None = None,
        config: StudyConfig = StudyConfig(),
        *,
        _engine: Engine | None = None,
    ):
        self.machine = machine
        self.algorithms = list(algorithms) if algorithms is not None else paper_algorithms(machine)
        if not self.algorithms:
            raise ConfigurationError("study needs at least one algorithm")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate algorithm names: {names}")
        if config.baseline not in names:
            raise ConfigurationError(
                f"baseline {config.baseline!r} is not among {names}"
            )
        self.config = config
        self.engine = _engine or Engine(machine)

    def run(self) -> StudyResult:
        """Execute the full matrix serially, in the paper's table order.

        Parallel, checkpointed and traced runs go through
        ``repro.api.Study.run(RunOptions(...))``.
        """
        return self._run()

    def _run(
        self,
        parallel: int | None = None,
        *,
        checkpoint: "str | Path | None" = None,
        resume: "str | Path | None" = None,
    ) -> StudyResult:
        """Internal entry point (used by :mod:`repro.api`).
        Instrumented: the whole matrix runs under a ``study.run`` span,
        each cell under a ``cell`` span (serial in-process; parallel via
        deterministic worker-trace merge).

        *parallel* ``None``/``0``/``1`` runs the cells serially (in the
        paper's table order); ``N > 1`` fans the independent
        (algorithm, size, threads) cells across a process pool of ``N``
        workers.  The result is identical to the serial run: cells are
        merged back in the serial iteration order regardless of
        completion order, and worker engines run without an MSR — the
        parent deposits every cell's plane energies into its own MSR
        afterwards, again in serial order, so a PAPI/RAPL reader
        wrapped around the run observes the same counter stream either
        way.

        *checkpoint* writes a completed-cell journal;
        *resume* additionally replays an existing journal's cells into
        the merge — in serial order, MSR deposits included — so a
        resumed run is bit-identical to an uninterrupted one.
        """
        result = StudyResult(
            machine=self.machine,
            config=self.config,
            algorithm_names=[a.name for a in self.algorithms],
            display_names={a.name: a.display_name for a in self.algorithms},
        )
        cells = [
            (alg, n, p)
            for alg in self.algorithms
            for n in self.config.sizes
            for p in self.config.threads
        ]
        journal = self._open_journal(checkpoint, resume)
        try:
            with trace.span(
                "study.run",
                sizes=list(self.config.sizes),
                threads=list(self.config.threads),
                algorithms=[a.name for a in self.algorithms],
                cells=len(cells),
                parallel=int(parallel or 0),
            ):
                if parallel is not None and parallel > 1 and len(cells) > 1:
                    self._run_parallel(result, cells, parallel, journal)
                else:
                    self._run_serial(result, cells, journal)
        finally:
            if journal is not None:
                journal.close()
        return result

    # ---- checkpoint/resume ---------------------------------------------

    def _fingerprint(self) -> str:
        """Digest of (machine, algorithms, config, kernel) — what must
        match for a journal's cells to be replayable into this run."""
        from dataclasses import asdict

        return study_fingerprint(
            self.machine.name,
            [a.name for a in self.algorithms],
            asdict(self.config),
            str(getattr(self.engine, "engine", None) or "default"),
        )

    def _journal_meta(self) -> dict:
        return {
            "machine": self.machine.name,
            "algorithms": [a.name for a in self.algorithms],
            "sizes": list(self.config.sizes),
            "threads": list(self.config.threads),
            "seed": self.config.seed,
        }

    def _open_journal(
        self, checkpoint: "str | Path | None", resume: "str | Path | None"
    ) -> StudyJournal | None:
        """Open the run's journal (``None`` when neither knob is set).

        ``resume`` alone replays and appends to the same file;
        ``checkpoint`` alone starts a fresh journal; both together seed
        a fresh journal at *checkpoint* from *resume*'s entries (the
        new file ends up complete, replayed cells included).
        """
        if checkpoint is None and resume is None:
            return None
        fingerprint = self._fingerprint()
        meta = self._journal_meta()
        if (
            checkpoint is not None
            and resume is not None
            and Path(checkpoint).resolve() != Path(resume).resolve()
        ):
            source = StudyJournal.open(resume, fingerprint, resume=True)
            source.close()
            journal = StudyJournal.open(
                checkpoint, fingerprint, resume=False, meta=meta
            )
            journal._entries.update(source._entries)
            journal.replayed = source.replayed
            return journal
        path = resume if resume is not None else checkpoint
        return StudyJournal.open(
            path, fingerprint, resume=resume is not None, meta=meta
        )

    def _run_serial(
        self,
        result: StudyResult,
        cells: list[tuple[MatmulAlgorithm, int, int]],
        journal: StudyJournal | None,
    ) -> None:
        """The serial (table-order) sweep, with optional journal replay.

        Replayed cells skip simulation but still deposit their plane
        energies into the engine's MSR — in the same serial order the
        uninterrupted run would — so a RAPL/PAPI reader wrapped around
        the run observes an identical counter stream.
        """
        msr = getattr(self.engine, "msr", None)
        for alg, n, p in cells:
            key = (alg.name, n, p)
            measurement = journal.get(key) if journal is not None else None
            if measurement is None:
                measurement = _run_cell(self._payload(self.engine, alg, n, p))
            elif msr is not None:
                _deposit(msr, measurement)
            result.runs[key] = measurement
            if journal is not None:
                journal.record(key, measurement)

    def _payload(
        self, engine: Engine, alg: MatmulAlgorithm, n: int, threads: int
    ) -> tuple:
        """The :func:`_run_cell` payload of one cell: its coordinates
        and settings only — whoever runs it lowers the cell itself."""
        return (
            engine,
            alg,
            n,
            threads,
            self.config.seed,
            n <= self.config.execute_max_n,
            self.config.verify,
        )

    def _run_parallel(
        self,
        result: StudyResult,
        cells: list[tuple[MatmulAlgorithm, int, int]],
        workers: int,
        journal: StudyJournal | None,
    ) -> None:
        """Fan *cells* over a process pool; merge deterministically.

        Workers receive only each cell's coordinates (see
        :meth:`_payload`) and lower it themselves through
        ``build_cached``, exactly as the serial path does: a templated
        lowering is O(depth) stamping (a fast-matmul DAG is seven
        stamped copies of the half-size one), so redoing it in the
        worker is cheaper than shipping its columns there.

        When tracing is enabled in the parent, each worker records its
        cell under a fresh in-process tracer and ships the exported
        spans (plus its per-cell metric deltas) back alongside the
        measurement.  The parent attaches worker traces in submission
        (= serial) order — never completion order — so the merged trace
        structure and metric totals are identical run to run, the same
        guarantee the measurements already have.

        With a *journal*, already-completed cells are not resubmitted;
        they re-enter the merge below from the journal, in serial order.
        """
        from concurrent.futures import ProcessPoolExecutor

        # Workers get an MSR-less copy of the engine: MSR deposits are
        # replayed by the parent (below) so the counter stream matches
        # the serial run, and emulated MSR files need not be picklable.
        worker_engine = copy.copy(self.engine)
        worker_engine.msr = None
        traced = trace.enabled()
        pending = [
            (alg, n, p)
            for alg, n, p in cells
            if journal is None or not journal.has((alg.name, n, p))
        ]
        outcomes: dict[tuple[str, int, int], tuple] = {}
        if pending:
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                futures = [
                    pool.submit(
                        _run_cell_worker,
                        self._payload(worker_engine, alg, n, p),
                        traced,
                    )
                    for alg, n, p in pending
                ]
                # Collect in submission (= serial) order; a slow early
                # cell simply makes later .result() calls return
                # instantly.  A crashing worker is re-raised with the
                # failing cell's coordinates instead of a bare pool
                # traceback.
                for (alg, n, p), future in zip(pending, futures):
                    try:
                        outcomes[(alg.name, n, p)] = future.result()
                    except StudyCellError:
                        raise
                    except Exception as exc:
                        raise StudyCellError(alg.name, n, p, exc) from exc
        tracer = trace.active()
        msr = getattr(self.engine, "msr", None)
        with trace.span("merge", cells=len(cells)):
            for alg, n, p in cells:
                key = (alg.name, n, p)
                outcome = outcomes.get(key)
                if outcome is not None:
                    measurement, _, metric_delta = outcome
                    if metric_delta:
                        metrics_registry().absorb(metric_delta)
                else:
                    measurement = journal.get(key)
                result.runs[key] = measurement
                if journal is not None:
                    journal.record(key, measurement)
                if msr is not None:
                    _deposit(msr, measurement)
        # Attach worker spans after the merge span closes so cells sit
        # at depth 1 under study.run, exactly like the serial path (the
        # default phase summary aggregates at max_depth=1).
        if tracer is not None:
            for alg, n, p in pending:
                outcome = outcomes.get((alg.name, n, p))
                if outcome is not None and outcome[1]:
                    tracer.attach(outcome[1])


def _deposit(msr, measurement: RunMeasurement) -> None:
    """Replay one cell's plane energies into *msr* (what ``engine.run``
    deposits when the cell is simulated in process)."""
    energy = measurement.energy
    msr.deposit_energy(Plane.PACKAGE, energy.package)
    msr.deposit_energy(Plane.PP0, energy.pp0)
    msr.deposit_energy(Plane.DRAM, energy.dram)


def _run_cell(payload) -> RunMeasurement:
    """Build, simulate and (optionally) verify one matrix cell.

    Module-level so the parallel driver can send it to worker
    processes; the serial path calls it in-process with the study's
    own engine (MSR deposits then happen inside ``engine.run``).

    When tracing is active (serial: the study's tracer; parallel: the
    worker-local tracer installed by :func:`_run_cell_worker`), the
    whole cell runs under a ``cell`` span whose attributes carry the
    cell coordinates and the per-cell metric deltas (cache hits/misses,
    tasks lowered, kernel sweeps, ...); the span itself records the
    cell's wall and CPU time.
    """
    engine, alg, n, threads, seed, execute, verify = payload
    with trace.span(
        "cell", alg=alg.name, n=n, threads=threads, execute=bool(execute)
    ) as cell_span:
        snap = metrics_registry().snapshot() if trace.enabled() else None
        with trace.span("build", alg=alg.name, n=n, threads=threads):
            build = alg.build_cached(n, threads, seed=seed, execute=execute)
        with trace.span("simulate", alg=alg.name, n=n, threads=threads):
            measurement = engine.run(
                build.graph,
                threads,
                execute=execute,
                label=f"{alg.name}[n={n},p={threads}]",
            )
        if execute and verify:
            with trace.span("verify", alg=alg.name, n=n):
                report = build.verify()
            if not report.ok:
                raise ValidationError(
                    f"{alg.display_name} n={n} p={threads}: numerical error "
                    f"{report.abs_error:.3e} exceeds bound {report.bound:.3e}"
                )
        if snap is not None:
            cell_span.set(
                sim_elapsed_s=measurement.elapsed_s,
                metrics=metrics_registry().delta_since(snap),
            )
    return measurement


def _run_cell_worker(payload, traced: bool):
    """Worker-pool wrapper around :func:`_run_cell`.

    Returns ``(measurement, spans, metric_delta)``: when the parent is
    tracing, the cell runs under a fresh worker-local tracer (never the
    tracer a ``fork`` start method may have copied in) and ships the
    exported spans and typed metric deltas back for the deterministic
    parent-side merge; otherwise both extras are ``None``.
    """
    if not traced:
        return _run_cell(payload), None, None
    reg = metrics_registry()
    snap = reg.snapshot()
    with trace.tracing() as tracer:
        measurement = _run_cell(payload)
    return measurement, tracer.export(), reg.export_delta(snap)
