"""Parallel study driver: bit-identical to the serial run.

``EnergyPerformanceStudy._run(N)`` (behind ``RunOptions(parallel=N)``)
fans the independent matrix cells over a process pool, but the merged
result must be exactly the serial run: same key order, same
measurements, and — because the parent replays every cell's plane
energies into its own MSR in serial order — the same RAPL counter
stream.  Workers get only each cell's coordinates and lower the cell
themselves, executed and cost-only cells alike.
"""

import pytest

from repro.algorithms.base import MatmulAlgorithm
from repro.api import RunOptions, Study
from repro.algorithms.registry import make_algorithm
from repro.core.study import EnergyPerformanceStudy, StudyConfig
from repro.power.msr import PLANE_MSR, MsrFile
from repro.power.planes import Plane
from repro.sim.engine import Engine
from repro.util.errors import StudyCellError


@pytest.fixture(scope="module")
def pair(machine):
    """(serial result + its MsrFile, parallel result + its MsrFile).

    n=128 cells execute and verify; n=256 cells are cost-only."""
    cfg = StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=128)

    def run(parallel):
        msr = MsrFile()
        study = EnergyPerformanceStudy(
            machine, config=cfg, _engine=Engine(machine, msr=msr)
        )
        return study._run(parallel), msr

    return run(None), run(2)


def test_same_cells_in_same_order(pair):
    (ser, _), (par, _) = pair
    assert list(ser.runs) == list(par.runs)


def test_measurements_identical(pair):
    """Worker processes redo the exact deterministic simulation, so
    every cell's timing and energy must match the serial run bit for
    bit (no tolerance)."""
    (ser, _), (par, _) = pair
    for key in ser.runs:
        a, b = ser.runs[key], par.runs[key]
        assert a.elapsed_s == b.elapsed_s, key
        assert a.energy.package == b.energy.package, key
        assert a.energy.pp0 == b.energy.pp0, key
        assert a.energy.dram == b.energy.dram, key


def test_msr_counter_stream_replayed(pair):
    """The parent deposits each cell's plane energies into its own MSR
    after the pool drains, in serial order — an external RAPL reader
    sees identical final counters either way."""
    (_, msr_ser), (_, msr_par) = pair
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert msr_ser.read(addr) == msr_par.read(addr), plane


def test_all_transports_bit_identical(machine):
    """serial == parallel under every deprecated transport value,
    measurements and MSR counter stream alike.  The knob is ignored:
    n=512 cells are cost-only and lowered inside the workers whatever
    it says."""
    cfg = dict(sizes=(128, 512), threads=(1, 2), execute_max_n=128)

    def run(parallel, transport=None):
        msr = MsrFile()
        opts = dict(engine=Engine(machine, msr=msr), parallel=parallel)
        if transport is None:
            options = RunOptions(**opts)
        else:
            with pytest.warns(DeprecationWarning, match="transport"):
                options = RunOptions(transport=transport, **opts)
        return Study(machine, **cfg).run(options).result, msr

    ser, msr_ser = run(None)
    others = [run(2, transport) for transport in (None, "shm", "pickle")]
    for res, msr in others:
        assert list(res.runs) == list(ser.runs)
        for key in ser.runs:
            a, b = ser.runs[key], res.runs[key]
            assert a.elapsed_s == b.elapsed_s, key
            assert a.energy.package == b.energy.package, key
            assert a.energy.pp0 == b.energy.pp0, key
            assert a.energy.dram == b.energy.dram, key
        for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
            addr = PLANE_MSR[plane]
            assert msr.read(addr) == msr_ser.read(addr), plane


class _CrashingAlg(MatmulAlgorithm):
    """Delegates to the blocked algorithm but blows up on one cell.

    Module-level so the fork-based process pool can ship it to workers.
    """

    name = "crasher"
    display_name = "Crasher"

    def __init__(self, machine, crash_cell=(128, 2)):
        super().__init__(machine)
        self.crash_cell = crash_cell
        self._inner = make_algorithm("openblas", machine)

    def flop_count(self, n):
        return self._inner.flop_count(n)

    def build(self, n, threads, seed=0, execute=True):
        if (n, threads) == self.crash_cell:
            raise RuntimeError("injected worker crash")
        return self._inner.build(n, threads, seed=seed, execute=execute)


def test_worker_crash_surfaces_cell_coordinates(machine):
    """A crashing worker must re-raise as StudyCellError carrying the
    failing cell's (algorithm, size, threads) — not a bare pool
    traceback."""
    cfg = StudyConfig(
        sizes=(64, 128),
        threads=(1, 2),
        execute_max_n=0,
        verify=False,
        baseline="crasher",
    )
    study = EnergyPerformanceStudy(machine, [_CrashingAlg(machine)], config=cfg)
    with pytest.raises(StudyCellError) as exc_info:
        study._run(2)
    err = exc_info.value
    assert (err.algorithm, err.size, err.threads) == ("crasher", 128, 2)
    assert "size=128" in str(err) and "threads=2" in str(err)
    assert "injected worker crash" in str(err)
    assert isinstance(err.__cause__, RuntimeError)


def test_worker_crash_message_names_first_failing_cell(machine):
    """The error names the failing cell even when it is the very first
    submitted — merge order is serial (table) order, deterministic
    regardless of pool completion timing."""
    cfg = StudyConfig(
        sizes=(64, 128),
        threads=(1, 2),
        execute_max_n=0,
        verify=False,
        baseline="crasher",
    )
    alg = _CrashingAlg(machine, crash_cell=(64, 1))  # the very first cell
    study = EnergyPerformanceStudy(machine, [alg], config=cfg)
    with pytest.raises(StudyCellError) as exc_info:
        study._run(2)
    assert (exc_info.value.size, exc_info.value.threads) == (64, 1)


def test_parallel_one_is_serial_path(machine):
    """parallel<=1 must not spin up a pool (and must still fill the
    matrix)."""
    cfg = StudyConfig(sizes=(128,), threads=(1, 2), execute_max_n=0)
    study = EnergyPerformanceStudy(machine, config=cfg)
    result = study._run(1)
    assert len(result.runs) == 3 * 1 * 2
