"""Discrete-event network simulation of distributed schedules (§VIII).

The closed-form models in :mod:`repro.distributed.dmatmul` and the BSP
superstep simulator price communication on a flat alpha-beta network.
This module replaces that with an event-level simulation in the style
of the RIKEN hpl-ai ``simulate.py``: every rank is a single-ported
endpoint whose sends, receives, computes and barriers chain in program
order; messages pay per-hop latency on a configurable
:class:`~repro.distributed.network.Topology`; large sends switch from
the eager to the rendezvous protocol (an extra handshake latency and a
dependency on the receiver being ready); broadcasts may be chunked and
pipelined down rank chains.

The event stream is *lowered*, not interpreted: it becomes SoA columns
wrapped in a :class:`~repro.runtime.arena.TaskArena`
(:mod:`repro.runtime.rankevents`) and the simulation is one vectorized
earliest-finish sweep — which is what keeps P-sweeps to thousands of
ranks sub-second.  The per-rank object path (``engine="ranks"``) is the
differential baseline: bit-identical results, orders of magnitude
slower.

Every simulated schedule is validated against the Ballard–Demmel
communication lower bounds (Eq. 8, :mod:`repro.core.bounds`): the
busiest rank must move at least the bound's floor, with the Strassen
exponent for CAPS and the classical exponent for the SUMMA family.

Exactness contract: on a contention-free (``flat``) topology with the
default eager protocol, :func:`simulate_bsp` reproduces
:class:`~repro.distributed.bsp.BspSimulator` *bit-for-bit* — same
floats, not approximately.  The ``network_sim`` verify family enforces
this differential oracle in CI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.bounds import communication_floor_bytes, omega_for_algorithm
from ..observability import trace
from ..runtime.rankevents import (
    NET_ENGINES,
    EventStreamBuilder,
    RankEventProgram,
)
from ..util.errors import ConfigurationError, ValidationError
from ..util.validation import require_nonempty, require_positive
from .bsp import BspResult, Superstep, bsp_constants, idle_times, rank_energies
from .dmatmul import strassen_flops
from .network import ClusterSpec

__all__ = [
    "NET_ALGORITHMS",
    "NetworkConfig",
    "NetRunResult",
    "NetworkSweep",
    "NetworkSweepResult",
    "broadcast_events",
    "build_events",
    "simulate",
    "bsp_events",
    "simulate_bsp",
]

_WORD = 8

#: Event-simulated distributed algorithms.
NET_ALGORITHMS = ("summa", "summa25d", "summa15d", "caps-dist")

_PROTOCOLS = ("eager", "rendezvous", "auto")


@dataclass(frozen=True)
class NetworkConfig:
    """Knobs of one simulated schedule.

    Attributes
    ----------
    protocol:
        Send protocol: ``eager``, ``rendezvous``, or ``auto`` (pick by
        the interconnect's eager threshold).
    chunks:
        Broadcast pipelining: ``1`` lowers broadcasts as binomial
        trees; ``>1`` streams that many equal chunks down a rank chain
        (the hpl-ai pipelined shape).
    c:
        Replication factor for the 2.5D / 1.5D SUMMA variants.
    efficiency:
        Fraction of node peak the local compute phases achieve.
    leaf_cutoff:
        Strassen recursion cutoff for the CAPS flop count.
    """

    protocol: str = "auto"
    chunks: int = 1
    c: int = 1
    efficiency: float = 0.90
    leaf_cutoff: int = 64

    def __post_init__(self) -> None:
        if self.protocol not in _PROTOCOLS:
            raise ValidationError(
                f"unknown protocol {self.protocol!r}; expected one of {_PROTOCOLS}"
            )
        require_positive(self.chunks, "chunks")
        require_positive(self.c, "c")
        require_positive(self.efficiency, "efficiency")
        require_positive(self.leaf_cutoff, "leaf_cutoff")
        if self.efficiency > 1.0:
            raise ValidationError("efficiency must be <= 1.0")


@functools.lru_cache(maxsize=128)
def _bcast_template(g: int, chunks: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, destination) group positions of one broadcast from
    position 0, in emission order: a binomial tree when ``chunks == 1``,
    else ``chunks`` passes down the position chain."""
    if chunks > 1:
        return _pair_arrays([(i, i + 1) for _ in range(chunks) for i in range(g - 1)])
    pairs = []
    have = 1
    while have < g:
        pairs += [(i, i + have) for i in range(have) if i + have < g]
        have *= 2
    return _pair_arrays(pairs)


@functools.lru_cache(maxsize=128)
def _reduce_template(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Binomial reduction onto position 0 (the broadcast mirrored)."""
    have = 1
    while have * 2 < g:
        have *= 2
    pairs = []
    while have >= 1:
        pairs += [(i + have, i) for i in range(have) if i + have < g]
        have //= 2
    return _pair_arrays(pairs)


def _pair_arrays(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (sources, destinations) columns of a template (the
    template caches hand the same arrays to every caller)."""
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    arr.setflags(write=False)
    return arr[:, 0], arr[:, 1]


#: All-to-all within a group of 7 (CAPS): every ordered pair, row-major.
_ALL_TO_ALL7 = _pair_arrays([(a, z) for a in range(7) for z in range(7) if a != z])


class _Emitter:
    """Message/collective emission with topology-aware durations.

    A collective is a (source, destination) template over one group's
    positions, stamped across a ``(G, g)`` matrix of disjoint rank
    groups group by group — the emission order of a per-group loop —
    and appended as one batch: one vectorized hop count and one
    array-shaped price per batch instead of per message.
    """

    def __init__(
        self, builder: EventStreamBuilder, cluster: ClusterSpec, cfg: NetworkConfig
    ):
        self.b = builder
        self.net = cluster.interconnect
        self.topo = cluster.topology
        self.cfg = cfg

    def messages(self, src: np.ndarray, dst: np.ndarray, nbytes: float) -> None:
        """Point-to-point messages of *nbytes* each, in order."""
        hops = self.topo.hops(src, dst, self.b.ranks)
        rdv = self.net.is_rendezvous(nbytes, self.cfg.protocol)
        dur = self.net.message_times_s(nbytes, hops, rdv)
        self.b.messages(src, dst, nbytes, dur, rdv)

    def stamp(self, groups: np.ndarray, template, nbytes: float) -> None:
        """Apply a (sources, destinations) position *template* to every
        row of *groups*, row by row, as one batch."""
        si, di = template
        self.messages(groups[:, si].ravel(), groups[:, di].ravel(), nbytes)

    def bcast(self, groups: np.ndarray, nbytes: float) -> None:
        """Broadcast *nbytes* from column 0 to the rest of each row of
        *groups*.  Binomial tree when ``chunks == 1``; a chunked
        pipeline down the row otherwise."""
        chunks = self.cfg.chunks
        template = _bcast_template(groups.shape[1], chunks)
        self.stamp(groups, template, nbytes / chunks if chunks > 1 else nbytes)

    def reduce(self, groups: np.ndarray, nbytes: float) -> None:
        """Binomial reduction onto column 0 of each row of *groups*."""
        self.stamp(groups, _reduce_template(groups.shape[1]), nbytes)


def _rotate(groups: np.ndarray, k: int) -> np.ndarray:
    """Rotate each group so the step's owner (position *k*) becomes the
    bcast root."""
    return np.roll(groups, -k, axis=1)


def _fibers(ranks: int, c: int) -> np.ndarray:
    """The layer fibers of ``c`` stacked layers: row *i* holds position
    *i* of every layer, ``[l * (ranks // c) + i for l in range(c)]``."""
    return np.arange(ranks, dtype=np.int64).reshape(c, ranks // c).T


def _compute_rate(cluster: ClusterSpec, cfg: NetworkConfig) -> float:
    return cluster.node.machine_peak_flops * cfg.efficiency


def _check_feasible(cluster: ClusterSpec, n: int, ranks: int, words_per_rank: float) -> None:
    need = words_per_rank * _WORD
    have = cluster.node.dram.capacity_bytes
    if need > have:
        raise ConfigurationError(
            f"n={n} on {ranks} ranks needs {need / 2**30:.2f} GiB/rank, "
            f"node has {have / 2**30:.2f} GiB"
        )


def summa2d_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """Classical SUMMA on an s x s grid: s steps of one row broadcast,
    one column broadcast and one local panel multiply per rank."""
    s = math.isqrt(ranks)
    if s * s != ranks:
        raise ConfigurationError(f"summa needs a square rank count, got {ranks}")
    _check_feasible(cluster, n, ranks, 3.0 * float(n) ** 2 / ranks)
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    rate = _compute_rate(cluster, cfg)
    step_dur = (2.0 * float(n) ** 3 / ranks / s) / rate
    panel = (n / s) * (n / s) * _WORD
    grid = np.arange(ranks, dtype=np.int64).reshape(s, s)
    for k in range(s):
        em.bcast(_rotate(grid, k), panel)
        em.bcast(_rotate(grid.T, k), panel)
        b.computes(grid.ravel(), step_dur)
    return b.build(f"summa2d:n{n}:p{ranks}")


def summa25d_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """2.5D SUMMA (Solomonik & Demmel): ``c`` layers each run a 1/c
    slice of the SUMMA steps on their own p x p grid, after an initial
    operand replication over the layer fibers and before a final
    C-reduction back to layer 0."""
    c = cfg.c
    if ranks % c:
        raise ConfigurationError(f"summa25d: c={c} must divide ranks={ranks}")
    p2 = ranks // c
    p = math.isqrt(p2)
    if p * p != p2:
        raise ConfigurationError(
            f"summa25d: ranks/c = {p2} must be a perfect square"
        )
    if p % c:
        raise ConfigurationError(f"summa25d: c={c} must divide grid size p={p}")
    _check_feasible(cluster, n, ranks, c * 3.0 * float(n) ** 2 / ranks)
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    rate = _compute_rate(cluster, cfg)
    block = (n / p) * (n / p) * _WORD
    step_dur = (2.0 * (float(n) / p) ** 3) / rate
    fibers = _fibers(ranks, c)
    if c > 1:
        em.bcast(fibers, 2.0 * block)
    steps_per_layer = p // c
    grid = np.arange(p2, dtype=np.int64).reshape(p, p)
    for l in range(c):
        layer = l * p2 + grid
        for t in range(steps_per_layer):
            k = l * steps_per_layer + t
            em.bcast(_rotate(layer, k), block)
            em.bcast(_rotate(layer.T, k), block)
            b.computes(layer.ravel(), step_dur)
    if c > 1:
        em.reduce(fibers, block)
    return b.build(f"summa25d:n{n}:p{ranks}:c{c}")


def summa15d_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """1.5D SUMMA (PASSIONLab ``15d.cpp``): A block-rows stay put, B
    block-rows ring-shift by ``c`` positions; each of the ``c`` layers
    covers a 1/c slice of the ring, then partial C reduces over the
    layer fibers."""
    c = cfg.c
    if ranks % c:
        raise ConfigurationError(f"summa15d: c={c} must divide ranks={ranks}")
    p = ranks // c
    if p % c:
        raise ConfigurationError(
            f"summa15d: c^2={c * c} must divide ranks={ranks} (c | p)"
        )
    _check_feasible(cluster, n, ranks, (1.0 + 2.0 * c) * float(n) ** 2 / ranks)
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    rate = _compute_rate(cluster, cfg)
    block = (float(n) * n / p) * _WORD  # one B block-row (n/p x n)
    round_dur = (2.0 * float(n) ** 3 / p / p) / rate
    rounds = p // c
    ring = np.arange(p, dtype=np.int64)
    for l in range(c):
        base = l * p
        for t in range(rounds):
            b.computes(base + ring, round_dur)
            if t < rounds - 1:
                em.messages(base + ring, base + (ring + c) % p, block)
    if c > 1:
        em.reduce(_fibers(ranks, c), block)
    return b.build(f"summa15d:n{n}:p{ranks}:c{c}")


def caps_events(
    cluster: ClusterSpec, n: int, ranks: int, cfg: NetworkConfig
) -> RankEventProgram:
    """CAPS at its Eq. 8 volume: k = log7(P) BFS exchange steps (each
    rank swaps subproblems with the 6 other members of its stride
    group), then the local Strassen multiply."""
    k = 0
    q = ranks
    while q % 7 == 0:
        q //= 7
        k += 1
    if q != 1:
        raise ConfigurationError(f"caps-dist needs ranks = 7^k, got {ranks}")
    _check_feasible(
        cluster, n, ranks, 3.0 * float(n) ** 2 / ranks * (7.0 / 4.0) ** max(k, 1)
    )
    b = EventStreamBuilder(ranks)
    em = _Emitter(b, cluster, cfg)
    if k:
        floor = communication_floor_bytes(
            n, ranks, cluster.node_memory_words(), omega_for_algorithm("caps-dist")
        )
        per_partner = floor / k / 6.0
        everyone = np.arange(ranks, dtype=np.int64)
        for step in range(k):
            stride = 7**step
            # Stride groups [hi*7*stride + j*stride + lo for j in 0..6],
            # one row per (hi, lo) in loop order.
            groups = everyone.reshape(-1, 7, stride).transpose(0, 2, 1).reshape(-1, 7)
            em.stamp(groups, _ALL_TO_ALL7, per_partner)
    rate = _compute_rate(cluster, cfg)
    dur = strassen_flops(n, cfg.leaf_cutoff) / ranks / rate
    b.computes(np.arange(ranks, dtype=np.int64), dur)
    return b.build(f"caps:n{n}:p{ranks}")


def broadcast_events(
    cluster: ClusterSpec, ranks: int, nbytes: float, cfg: NetworkConfig | None = None
) -> RankEventProgram:
    """A standalone one-collective program: broadcast *nbytes* from rank
    0 to all.  Exists for the differential oracle — on a flat topology
    with the eager protocol its makespan equals the matching closed form
    in :mod:`repro.distributed.comm` (binomial ``broadcast`` when
    ``chunks == 1``, ``pipelined_broadcast`` otherwise) bit-for-bit."""
    require_positive(ranks, "ranks")
    b = EventStreamBuilder(ranks)
    _Emitter(b, cluster, cfg or NetworkConfig()).bcast(
        np.arange(ranks, dtype=np.int64)[None, :], nbytes
    )
    return b.build(f"bcast:p{ranks}")


_BUILDERS = {
    "summa": summa2d_events,
    "summa25d": summa25d_events,
    "summa15d": summa15d_events,
    "caps-dist": caps_events,
}


def build_events(
    cluster: ClusterSpec,
    algorithm: str,
    n: int,
    ranks: int,
    cfg: NetworkConfig | None = None,
) -> RankEventProgram:
    """Lower one (algorithm, n, ranks) schedule to a rank-event program."""
    require_positive(n, "n")
    cluster.validate_nodes(ranks)
    if algorithm not in _BUILDERS:
        raise ValidationError(
            f"unknown algorithm {algorithm!r}; expected one of {NET_ALGORITHMS}"
        )
    return _BUILDERS[algorithm](cluster, n, ranks, cfg or NetworkConfig())


@dataclass(frozen=True)
class NetRunResult:
    """One simulated schedule plus its Ballard–Demmel floor."""

    algorithm: str
    n: int
    ranks: int
    engine: str
    n_events: int
    total_time_s: float
    compute_s: np.ndarray  # per rank
    sent_bytes: np.ndarray  # per rank
    recv_bytes: np.ndarray  # per rank
    floor_bytes: float  # Eq. 8 per-rank floor (0 when ranks < 2)

    @property
    def max_comm_bytes(self) -> float:
        """Traffic of the busiest rank (sent + received)."""
        if not len(self.sent_bytes):
            return 0.0
        return float((self.sent_bytes + self.recv_bytes).max())

    @property
    def bound_margin(self) -> float:
        """How far above the Eq. 8 floor the busiest rank sits."""
        if self.floor_bytes <= 0.0:
            return math.inf
        return self.max_comm_bytes / self.floor_bytes

    @property
    def compute_time_s(self) -> float:
        """Compute time of the slowest rank."""
        return float(self.compute_s.max()) if len(self.compute_s) else 0.0

    def beats_bound(self, rel: float = 1e-9) -> bool:
        """True when the schedule (impossibly) moves less than Eq. 8
        allows — a modelling bug the ``network_sim`` family hunts."""
        return self.ranks > 1 and self.max_comm_bytes < self.floor_bytes * (1.0 - rel)


def simulate(
    cluster: ClusterSpec,
    algorithm: str,
    n: int,
    ranks: int,
    cfg: NetworkConfig | None = None,
    engine: str = "events",
) -> NetRunResult:
    """Build, sweep and reduce one schedule under *engine*.

    Traced as ``netsim.lower`` (attrs: ``events``) around the lowering
    and ``netsim.events`` around the sweep and reductions."""
    if engine not in NET_ENGINES:
        raise ValidationError(
            f"unknown net engine {engine!r}; expected one of {NET_ENGINES}"
        )
    cfg = cfg or NetworkConfig()
    with trace.span("netsim.lower") as span:
        prog = build_events(cluster, algorithm, n, ranks, cfg)
        span.set(events=prog.n_events)
    with trace.span("netsim.events", engine=engine):
        agg = prog.simulate(engine)
    floor = communication_floor_bytes(
        n, ranks, cluster.node_memory_words(), omega_for_algorithm(algorithm)
    )
    return NetRunResult(
        algorithm=algorithm,
        n=n,
        ranks=ranks,
        engine=engine,
        n_events=prog.n_events,
        total_time_s=agg.total_s,
        compute_s=agg.compute_s,
        sent_bytes=agg.sent_bytes,
        recv_bytes=agg.recv_bytes,
        floor_bytes=floor,
    )


# ---- BSP lowering (the differential-oracle bridge) ---------------------


def bsp_events(cluster: ClusterSpec, program: Sequence[Superstep]) -> RankEventProgram:
    """Lower a BSP superstep program to rank events.

    Per superstep: one compute event per rank, one SYNC barrier priced
    at ``g*h + L`` (identical arithmetic to
    :class:`~repro.distributed.bsp.BspSimulator`), and one zero-time
    receive marker per rank carrying its h-relation volume.  On any
    cluster this reproduces the closed-form BSP totals bit-for-bit —
    the barrier serializes the steps exactly like the closed form's
    running sum."""
    program = require_nonempty(list(program), "program")
    ranks = program[0].ranks
    for step in program:
        if step.ranks != ranks:
            raise ValidationError(
                f"superstep {step.name!r} has {step.ranks} ranks, expected {ranks}"
            )
    g, barrier_l = bsp_constants(cluster.interconnect, ranks)
    b = EventStreamBuilder(ranks)
    everyone = np.arange(ranks, dtype=np.int64)
    for step in program:
        b.computes(everyone, step.compute_s)
        h = max(step.h_bytes)
        b.barrier(g * h + barrier_l)
        b.mark_recvs(everyone, step.h_bytes)
    return b.build("bsp-events")


def simulate_bsp(
    cluster: ClusterSpec, program: Sequence[Superstep], engine: str = "events"
) -> BspResult:
    """Event-simulated BSP run; equals ``BspSimulator.run`` exactly."""
    prog = bsp_events(cluster, program)
    agg = prog.simulate(engine)
    total = agg.total_s
    comm_total = agg.sync_s
    compute = [float(x) for x in agg.compute_s]
    comm_bytes = [float(x) for x in agg.comm_bytes()]
    return BspResult(
        ranks=prog.ranks,
        total_time_s=total,
        compute_time_s=compute,
        comm_time_s=comm_total,
        idle_time_s=idle_times(total, comm_total, compute),
        rank_energy_j=rank_energies(cluster, total, compute, comm_bytes),
    )


# ---- sweep driver -------------------------------------------------------


@dataclass
class NetworkSweepResult:
    """P-sweep of one algorithm under the event simulator."""

    algorithm: str
    n: int
    rank_counts: list[int]
    results: list[NetRunResult]

    def time_curve(self) -> list[tuple[int, float]]:
        return [(r.ranks, r.total_time_s) for r in self.results]

    def margin_curve(self) -> list[tuple[int, float]]:
        return [(r.ranks, r.bound_margin) for r in self.results]

    def violations(self) -> list[NetRunResult]:
        """Schedules that beat their Eq. 8 floor (must be empty)."""
        return [r for r in self.results if r.beats_bound()]


class NetworkSweep:
    """Sweeps rank counts for one algorithm through the simulator."""

    def __init__(
        self,
        cluster: ClusterSpec,
        algorithm: str = "summa25d",
        cfg: NetworkConfig | None = None,
        engine: str = "events",
    ):
        if algorithm not in NET_ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {algorithm!r}; expected one of {NET_ALGORITHMS}"
            )
        if engine not in NET_ENGINES:
            raise ValidationError(
                f"unknown net engine {engine!r}; expected one of {NET_ENGINES}"
            )
        self.cluster = cluster
        self.algorithm = algorithm
        self.cfg = cfg or NetworkConfig()
        self.engine = engine

    def run(self, n: int, rank_counts: Sequence[int]) -> NetworkSweepResult:
        rank_counts = require_nonempty(list(rank_counts), "rank_counts")
        results = []
        with trace.span(
            "netsim.sweep",
            algorithm=self.algorithm,
            n=n,
            ranks=list(rank_counts),
            topology=self.cluster.topology.kind,
            engine=self.engine,
        ):
            for ranks in rank_counts:
                with trace.span(
                    "cell", alg=self.algorithm, n=n, nodes=ranks
                ):
                    results.append(
                        simulate(
                            self.cluster,
                            self.algorithm,
                            n,
                            ranks,
                            self.cfg,
                            self.engine,
                        )
                    )
        return NetworkSweepResult(
            algorithm=self.algorithm,
            n=n,
            rank_counts=list(rank_counts),
            results=results,
        )
