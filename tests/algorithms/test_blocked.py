"""Blocked DGEMM lowering (the OpenBLAS fixture)."""

import numpy as np
import pytest

from repro.algorithms.blocked import BlockedGemm
from repro.runtime.scheduler import Scheduler
from repro.util.errors import ConfigurationError


@pytest.fixture()
def alg(machine):
    return BlockedGemm(machine)


def test_flop_count(alg):
    assert alg.flop_count(512) == 2 * 512**3


def test_numerics_exact(machine, alg, engine):
    build = alg.build(96, threads=4)
    engine.run(build.graph, threads=4)
    assert np.allclose(build.c, build.a @ build.b)
    assert build.verify().ok


def test_graph_is_embarrassingly_parallel(alg):
    build = alg.build(256, threads=4, execute=False)
    assert len(build.graph.dep_indices) == 0


def test_tile_tasks_cover_output(alg):
    build = alg.build(200, threads=2, execute=False)
    total_flops = float(build.graph.flops.sum())
    assert total_flops == pytest.approx(alg.flop_count(200))


def test_cost_only_build_has_no_arrays(alg):
    build = alg.build(128, threads=1, execute=False)
    assert build.cost_only
    assert build.a is None and build.c is None
    with pytest.raises(Exception):
        build.verify()


def test_llc_resident_dram_traffic_is_cold_only(machine, alg):
    # 512^2: 6.3 MB working set fits the 8 MiB LLC (paper's near-linear case).
    assert alg.dram_traffic_bytes(512) == pytest.approx(3 * 512**2 * 8)


def test_spilling_dram_traffic_scales_with_n_cubed(machine, alg):
    t1024 = alg.dram_traffic_bytes(1024)
    t2048 = alg.dram_traffic_bytes(2048)
    assert t1024 > 3 * 1024**2 * 8  # more than cold load
    # n^3 streaming term dominates as n grows (8x per doubling, minus
    # the shrinking cold-load share).
    assert 5.0 < t2048 / t1024 <= 8.0


def test_near_linear_scaling(machine, alg, engine):
    """The paper: blocked DGEMM gives near-linear scaling on SMPs."""
    times = {}
    for p in (1, 2, 4):
        build = alg.build(512, threads=p, execute=False)
        times[p] = engine.run(build.graph, threads=p, execute=False).elapsed_s
    assert times[1] / times[2] == pytest.approx(2.0, rel=0.15)
    assert times[1] / times[4] == pytest.approx(4.0, rel=0.15)


def test_high_efficiency_throughput(machine, alg, engine):
    build = alg.build(512, threads=1, execute=False)
    meas = engine.run(build.graph, threads=1, execute=False)
    # Should sustain close to 0.92 of the 51.2 Gflop/s core peak.
    assert meas.gflops > 0.8 * 51.2


def test_memory_gate(machine):
    alg = BlockedGemm(machine)
    with pytest.raises(ConfigurationError):
        alg.build(20000, threads=1, execute=False)  # 3*20000^2*8 = 9.6 GB > 4 GB


def test_seed_controls_operands(machine, alg):
    b1 = alg.build(64, threads=1, seed=1)
    b2 = alg.build(64, threads=1, seed=1)
    b3 = alg.build(64, threads=1, seed=2)
    assert np.array_equal(b1.a, b2.a)
    assert not np.array_equal(b1.a, b3.a)


def test_registry_name(alg):
    assert alg.name == "openblas"
    assert alg.display_name == "OpenBLAS"
