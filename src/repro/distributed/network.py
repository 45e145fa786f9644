"""Interconnect and cluster specifications (§VIII extension).

The paper's future work: "migrate the current implementation to a
distributed memory implementation using MPI.  Measuring the power
performance characteristics of a distributed memory platform shall take
into account the power associated with transmitting memory blocks
across the interconnect as well as local communication traffic."

These specs model exactly that: per-link latency/bandwidth (the classic
alpha-beta model) plus an interconnect *power plane* — static watts per
link and energy per byte transmitted — and a cluster of identical nodes
("we seek to utilize the same microarchitecture as utilized in this
test", so the default node is the Haswell spec).

The discrete-event simulator (:mod:`repro.distributed.netsim`) extends
the flat alpha-beta model with a :class:`Topology` (per-hop latency on
ring / 2-D torus / hypercube wirings) and an eager-vs-rendezvous send
protocol threshold, both carried here so every layer prices a message
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..machine.specs import MachineSpec, haswell_e3_1225
from ..util.errors import ValidationError
from ..util.units import GB
from ..util.validation import require_nonnegative, require_positive

__all__ = ["Topology", "TOPOLOGY_KINDS", "InterconnectSpec", "ClusterSpec"]

#: Supported wirings.  ``flat`` is the classic crossbar abstraction
#: (every pair one hop — the contention-free baseline the closed-form
#: alpha-beta model assumes); the others add distance.
TOPOLOGY_KINDS = ("flat", "ring", "torus2d", "hypercube")


def _torus_grid(ranks: int) -> tuple[int, int]:
    """Near-square factorization rows x cols = ranks (rows <= cols)."""
    rows = max(1, int(math.isqrt(ranks)))
    while ranks % rows:
        rows -= 1
    return rows, ranks // rows


@dataclass(frozen=True)
class Topology:
    """Rank-to-rank hop counts for a named wiring.

    ``flat`` is hop-distance 1 between any two distinct ranks, which is
    exactly the alpha-beta abstraction — the simulator and the closed
    forms agree bit-for-bit there.  The other kinds charge
    ``hop_latency_s`` per extra hop (see
    :meth:`InterconnectSpec.message_time_s`).
    """

    kind: str = "flat"

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValidationError(
                f"unknown topology {self.kind!r}; expected one of {TOPOLOGY_KINDS}"
            )

    @property
    def contention_free(self) -> bool:
        """True when every pair is one hop (the alpha-beta baseline)."""
        return self.kind == "flat"

    def hops(self, src, dst, ranks: int) -> np.ndarray:
        """Hop counts between *src* and *dst* rank arrays (vectorized).

        Distinct ranks are always at least one hop apart; a rank is
        zero hops from itself (self-messages are free and the event
        schedules never emit them).
        """
        require_positive(ranks, "ranks")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if np.any(src < 0) or np.any(dst < 0) or np.any(src >= ranks) or np.any(dst >= ranks):
            raise ValidationError(f"rank out of range for {ranks} ranks")
        if self.kind == "flat":
            d = np.ones_like(src)
        elif self.kind == "ring":
            a = np.abs(src - dst)
            d = np.minimum(a, ranks - a)
        elif self.kind == "torus2d":
            rows, cols = _torus_grid(ranks)
            r1, c1 = src // cols, src % cols
            r2, c2 = dst // cols, dst % cols
            dr = np.abs(r1 - r2)
            dc = np.abs(c1 - c2)
            d = np.minimum(dr, rows - dr) + np.minimum(dc, cols - dc)
        else:  # hypercube
            x = np.bitwise_xor(src, dst)
            d = np.zeros_like(x)
            while np.any(x):
                d += x & 1
                x >>= 1
        return np.where(src == dst, 0, np.maximum(d, 1))

    def hop_count(self, src: int, dst: int, ranks: int) -> int:
        """Scalar convenience over :meth:`hops`."""
        return int(self.hops(np.int64(src), np.int64(dst), ranks))


@dataclass(frozen=True)
class InterconnectSpec:
    """Alpha-beta network model plus its power coefficients.

    Attributes
    ----------
    latency_s:
        Per-message injection latency (alpha).
    bandwidth_bytes_per_s:
        Per-link bandwidth (1/beta).
    j_per_byte:
        Energy to move one byte across a link (NIC + switch).
    link_static_w:
        Idle power of one node's network port.
    hop_latency_s:
        Extra latency per hop beyond the first (switch traversal).
        Zero by default, so a multi-hop topology with the default spec
        still prices like the flat alpha-beta model.
    eager_threshold_bytes:
        Messages at or below this size use the eager protocol (one
        traversal); larger ones pay a rendezvous handshake (an extra
        latency term and a dependency on the receiver being ready).
        Infinite by default: everything eager, matching the closed
        forms.
    """

    latency_s: float = 1.5e-6
    bandwidth_bytes_per_s: float = 5.0 * GB
    j_per_byte: float = 1.0e-9
    link_static_w: float = 2.0
    hop_latency_s: float = 0.0
    eager_threshold_bytes: float = math.inf

    def __post_init__(self) -> None:
        require_nonnegative(self.latency_s, "latency_s")
        require_positive(self.bandwidth_bytes_per_s, "bandwidth_bytes_per_s")
        require_nonnegative(self.j_per_byte, "j_per_byte")
        require_nonnegative(self.link_static_w, "link_static_w")
        require_nonnegative(self.hop_latency_s, "hop_latency_s")
        require_nonnegative(self.eager_threshold_bytes, "eager_threshold_bytes")

    def transfer_time_s(self, nbytes: float, messages: int = 1) -> float:
        """Alpha-beta time for *nbytes* split over *messages* messages."""
        require_nonnegative(nbytes, "nbytes")
        require_positive(messages, "messages")
        return messages * self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def message_time_s(
        self, nbytes: float, hops: int = 1, rendezvous: bool = False
    ) -> float:
        """Wire time of one point-to-point message.

        At ``hops=1`` eager this is *bit-identical* to
        ``transfer_time_s(nbytes)`` — the differential oracle between
        the event simulator and the closed-form models relies on it.
        Rendezvous pays the latency twice (request + payload).  One
        element of :meth:`message_times_s`.
        """
        return float(self.message_times_s(nbytes, hops, rendezvous))

    def message_times_s(self, nbytes, hops=1, rendezvous=False) -> np.ndarray:
        """:meth:`message_time_s` over arrays (broadcast together): the
        same operations in the same order, so every element is
        bit-identical to the scalar price."""
        nbytes = np.asarray(nbytes, dtype=np.float64)
        hops = np.asarray(hops)
        if np.any(nbytes < 0):
            raise ValidationError(f"nbytes must be >= 0, got {float(nbytes.min())!r}")
        if not np.all(hops > 0):
            raise ValidationError(f"hops must be > 0, got {hops.min().item()!r}")
        lat = self.latency_s + (hops - 1) * self.hop_latency_s
        t = lat + nbytes / self.bandwidth_bytes_per_s
        return np.where(rendezvous, lat + t, t)

    def is_rendezvous(self, nbytes: float, protocol: str = "auto") -> bool:
        """Resolve the send protocol for a message of *nbytes*."""
        if protocol == "eager":
            return False
        if protocol == "rendezvous":
            return True
        if protocol != "auto":
            raise ValidationError(
                f"unknown protocol {protocol!r}; expected eager|rendezvous|auto"
            )
        return nbytes > self.eager_threshold_bytes

    def transfer_energy_j(self, nbytes: float) -> float:
        """Dynamic joules to move *nbytes* across one link."""
        require_nonnegative(nbytes, "nbytes")
        return nbytes * self.j_per_byte


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: identical nodes plus an interconnect."""

    node: MachineSpec = field(default_factory=haswell_e3_1225)
    interconnect: InterconnectSpec = InterconnectSpec()
    max_nodes: int = 4096
    topology: Topology = Topology()

    def __post_init__(self) -> None:
        require_positive(self.max_nodes, "max_nodes")

    def node_memory_words(self) -> float:
        """Local memory per node, in 8-byte words (the M of Eq. 8)."""
        return self.node.dram.capacity_bytes / 8.0

    def validate_nodes(self, nodes: int) -> int:
        require_positive(nodes, "nodes")
        if nodes > self.max_nodes:
            raise ValueError(f"cluster supports at most {self.max_nodes} nodes")
        return nodes
