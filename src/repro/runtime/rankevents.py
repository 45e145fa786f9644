"""Rank-level event streams lowered onto the SoA task arena.

The discrete-event network simulator (:mod:`repro.distributed.netsim`)
describes a distributed run as a stream of per-rank events — local
compute, point-to-point sends/receives, barriers — whose dependency
structure is a DAG: each rank's events chain in program order (a rank
is single-ported: one NIC transaction at a time), and every receive
additionally depends on the matching send.  Simulating the network is
then exactly the earliest-finish sweep the scheduler's arena already
vectorizes: ``finish = max(dep finishes) + duration``, one
``np.maximum.reduceat`` per dependency level.

Two engines share one event stream:

* ``events`` — the hot path.  The stream lives as SoA columns
  (kind/rank/peer/nbytes/duration + CSR deps), is wrapped in a real
  :class:`~repro.runtime.arena.TaskArena` (all six cost columns alias
  one shared zeros array), and is swept by ``TaskArena.finish_times``.
  No per-rank Python object is ever materialized.
* ``ranks`` — the reference path and differential-oracle baseline: the
  stream is exploded into per-rank lists of :class:`RankEvent` objects
  and swept by a scalar loop.  Same ``max``/add arithmetic, so the two
  engines agree *bit-for-bit* (asserted by the ``network_sim`` verify
  family), but it touches millions of Python objects at thousand-rank
  scale — which is why it is the baseline of the ``network_sim`` bench
  gate, not the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ValidationError
from ..util.validation import require_nonnegative, require_positive
from .arena import _COST_FIELDS, NO_CREATOR, TaskArena

__all__ = [
    "KIND_COMPUTE",
    "KIND_SEND",
    "KIND_RECV",
    "KIND_SYNC",
    "NET_ENGINES",
    "EventStreamBuilder",
    "RankEvent",
    "RankEventProgram",
    "EventAggregate",
]

#: Event kinds (also the arena task names, for trace/debug output).
KIND_COMPUTE = 0
KIND_SEND = 1
KIND_RECV = 2
KIND_SYNC = 3
_KIND_NAMES = ("compute", "send", "recv", "sync")

#: Simulation engines accepted by :meth:`RankEventProgram.simulate`.
NET_ENGINES = ("events", "ranks")


class EventStreamBuilder:
    """Appends rank events in program order, maintaining per-rank chains.

    Events are kept as SoA column chunks, one chunk per batch — the
    builder never creates an object per event.  ``_last[r]`` is the id
    of rank *r*'s most recent event; chaining every new event on it
    models the single-port serialization of a NIC.

    Every append goes through the batch methods (:meth:`messages`,
    :meth:`computes`, :meth:`mark_recvs`), which take a whole sequence
    in emission order and resolve each event's chain dependency as "the
    previous event on the same rank in this batch, else ``_last``" with
    one stable argsort by rank — so a rank may appear any number of
    times in one batch.  The scalar methods are one-element batches.  A
    batch is validated in full before anything is appended.
    """

    def __init__(self, ranks: int):
        require_positive(ranks, "ranks")
        self.ranks = ranks
        self._kind: list[np.ndarray] = []
        self._rank: list[np.ndarray] = []
        self._peer: list[np.ndarray] = []
        self._nbytes: list[np.ndarray] = []
        self._dur: list[np.ndarray] = []
        self._dep_flat: list[np.ndarray] = []
        self._dep_counts: list[np.ndarray] = []
        self._n = 0
        self._last = np.full(ranks, -1, dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    # _ranks and _values copy their input: the builder keeps the arrays
    # it is given, and a caller may reuse its own afterwards.

    def _ranks(self, ranks) -> np.ndarray:
        ranks = np.array(ranks, dtype=np.int64).ravel()
        if len(ranks) and (ranks.min() < 0 or ranks.max() >= self.ranks):
            bad = ranks[(ranks < 0) | (ranks >= self.ranks)][0]
            raise ValidationError(f"rank {bad} out of range for {self.ranks} ranks")
        return ranks

    @staticmethod
    def _values(values, m: int, name: str) -> np.ndarray:
        values = np.array(values, dtype=np.float64)
        if values.ndim and values.shape != (m,):
            raise ValidationError(f"{name}: {values.size} values for {m} events")
        values = np.broadcast_to(values, (m,))
        if np.any(values < 0):
            raise ValidationError(f"{name} must be >= 0, got {float(values[values < 0][0])!r}")
        return values

    def _chain(self, ranks: np.ndarray) -> np.ndarray:
        """Chain heads of a batch whose events sit on *ranks* (emission
        order): each event's previous event on its rank — earlier in the
        batch, else ``_last`` — or -1.  Advances ``_last`` past the
        batch."""
        m = len(ranks)
        order = np.argsort(ranks, kind="stable")
        by_rank = ranks[order]
        first = np.ones(m, dtype=bool)
        first[1:] = by_rank[1:] != by_rank[:-1]
        heads = np.empty(m, dtype=np.int64)
        heads[1:] = order[:-1] + self._n
        heads[first] = self._last[by_rank[first]]
        out = np.empty(m, dtype=np.int64)
        out[order] = heads
        final = np.ones(m, dtype=bool)
        final[:-1] = first[1:]
        self._last[by_rank[final]] = order[final] + self._n
        return out

    def _append(self, kind, rank, peer, nbytes, dur, deps: np.ndarray) -> np.ndarray:
        """Append one batch; *deps* holds each event's dependencies in
        order, one row per event, padded with -1."""
        m = len(rank)
        present = deps >= 0
        self._kind.append(np.broadcast_to(np.asarray(kind, dtype=np.int64), (m,)))
        self._rank.append(rank)
        self._peer.append(np.broadcast_to(np.asarray(peer, dtype=np.int64), (m,)))
        self._nbytes.append(np.broadcast_to(np.asarray(nbytes, dtype=np.float64), (m,)))
        self._dur.append(np.broadcast_to(np.asarray(dur, dtype=np.float64), (m,)))
        self._dep_flat.append(deps[present])
        self._dep_counts.append(present.sum(axis=1))
        ids = np.arange(self._n, self._n + m, dtype=np.int64)
        self._n += m
        return ids

    def _chained(self, kind: int, ranks, nbytes, seconds) -> np.ndarray:
        """One event per entry of *ranks*, each chained on its rank."""
        ranks = self._ranks(ranks)
        m = len(ranks)
        seconds = self._values(seconds, m, "seconds")
        nbytes = self._values(nbytes, m, "nbytes")
        if not m:
            return np.empty(0, dtype=np.int64)
        heads = self._chain(ranks)
        return self._append(kind, ranks, -1, nbytes, seconds, heads[:, None])

    def computes(self, ranks, seconds) -> np.ndarray:
        """Local work: one compute event per entry of *ranks*, each on
        its rank's chain, in the given order.  *seconds* is one duration
        per event or a scalar for all; returns the event ids."""
        return self._chained(KIND_COMPUTE, ranks, 0.0, seconds)

    def compute(self, rank: int, seconds: float) -> int:
        """Local work on *rank*'s chain."""
        return int(self.computes([rank], seconds)[0])

    def messages(self, src, dst, nbytes, durations, rendezvous=False):
        """A sequence of point-to-point messages, in the given order;
        returns ``(send_ids, recv_ids)``.

        Message *i* is a send on ``src[i]`` then a receive on ``dst[i]``
        (see :meth:`message`).  *nbytes*, *durations* and *rendezvous*
        are per message or scalars for all.
        """
        src = self._ranks(src)
        dst = self._ranks(dst)
        if len(src) != len(dst):
            raise ValidationError(f"{len(src)} sources for {len(dst)} destinations")
        m = len(src)
        nbytes = self._values(nbytes, m, "nbytes")
        durations = self._values(durations, m, "duration")
        if np.any(src == dst):
            raise ValidationError("self-message: src == dst")
        if not m:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rdv = np.broadcast_to(np.asarray(rendezvous, dtype=bool), (m,))
        on = np.column_stack((src, dst)).ravel()  # send on src, then recv on dst
        heads = self._chain(on).reshape(m, 2)
        sends = self._n + 2 * np.arange(m, dtype=np.int64)
        deps = np.empty((2 * m, 2), dtype=np.int64)
        deps[0::2, 0] = heads[:, 0]
        deps[0::2, 1] = np.where(rdv, heads[:, 1], -1)
        deps[1::2, 0] = heads[:, 1]
        deps[1::2, 1] = sends
        ids = self._append(
            np.tile(np.array([KIND_SEND, KIND_RECV], dtype=np.int64), m),
            on,
            np.column_stack((dst, src)).ravel(),
            np.repeat(nbytes, 2),
            np.column_stack((durations, np.zeros(m))).ravel(),
            deps,
        )
        return ids[0::2], ids[1::2]

    def message(
        self,
        src: int,
        dst: int,
        nbytes: float,
        duration: float,
        rendezvous: bool = False,
    ) -> tuple[int, int]:
        """One point-to-point message; returns ``(send_id, recv_id)``.

        The send occupies the sender's port for *duration* (the full
        wire time is charged there).  Under rendezvous the send also
        waits for the receiver's chain (the handshake).  The receive is
        a zero-duration arrival on the receiver's chain — it completes
        when both the wire and the receiver's previous operation have.
        """
        sends, recvs = self.messages([src], [dst], nbytes, duration, rendezvous)
        return int(sends[0]), int(recvs[0])

    def barrier(self, duration: float = 0.0) -> int:
        """Global join: one SYNC event depending on every rank's chain
        head, which then becomes every rank's new head.  *duration*
        models the barrier (or BSP comm-phase) cost."""
        require_nonnegative(duration, "duration")
        (eid,) = self._append(
            KIND_SYNC, np.zeros(1, dtype=np.int64), -1, 0.0, duration,
            self._last[None, :],
        )
        self._last[:] = eid
        return int(eid)

    def mark_recvs(self, ranks, nbytes) -> np.ndarray:
        """Zero-duration accounting events: charge ``nbytes[i]`` of
        received traffic to ``ranks[i]`` without advancing time (used
        by the BSP lowering, whose h-relation volume is priced inside
        the barrier)."""
        return self._chained(KIND_RECV, ranks, nbytes, 0.0)

    def mark_recv(self, rank: int, nbytes: float) -> int:
        """One :meth:`mark_recvs` event."""
        return int(self.mark_recvs([rank], nbytes)[0])

    def build(self, name: str = "rank-events") -> "RankEventProgram":
        """Freeze the stream into a :class:`RankEventProgram`."""
        n = len(self)

        def column(chunks: list[np.ndarray], dtype) -> np.ndarray:
            return np.concatenate(chunks, dtype=dtype) if chunks else np.empty(0, dtype)

        kind = column(self._kind, np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(column(self._dep_counts, np.int64), out=indptr[1:])
        zeros = np.zeros(n, dtype=np.float64)
        arena = TaskArena(
            name=name,
            names=_KIND_NAMES,
            name_ids=kind,
            cost_columns={f: zeros for f in _COST_FIELDS},
            untied=np.ones(n, dtype=bool),
            created_by=np.full(n, NO_CREATOR, dtype=np.int64),
            dep_indptr=indptr,
            dep_indices=column(self._dep_flat, np.int64),
        )
        return RankEventProgram(
            ranks=self.ranks,
            kind=kind,
            rank=column(self._rank, np.int64),
            peer=column(self._peer, np.int64),
            nbytes=column(self._nbytes, np.float64),
            durations=column(self._dur, np.float64),
            arena=arena,
        )


class RankEvent:
    """One event on the per-rank object path (the ``ranks`` engine)."""

    __slots__ = ("eid", "kind", "rank", "deps", "duration", "finish")

    def __init__(self, eid: int, kind: int, rank: int, deps: list[int], duration: float):
        self.eid = eid
        self.kind = kind
        self.rank = rank
        self.deps = deps
        self.duration = duration
        self.finish = 0.0


@dataclass(frozen=True)
class EventAggregate:
    """Per-rank reductions of one simulated event stream."""

    total_s: float
    compute_s: np.ndarray  # per rank
    sent_bytes: np.ndarray  # per rank
    recv_bytes: np.ndarray  # per rank
    sync_s: float  # chain-summed SYNC durations (BSP comm phases)

    def comm_bytes(self) -> np.ndarray:
        """Per-rank total traffic (sent + received)."""
        return self.sent_bytes + self.recv_bytes


@dataclass
class RankEventProgram:
    """A frozen event stream plus its arena lowering."""

    ranks: int
    kind: np.ndarray
    rank: np.ndarray
    peer: np.ndarray
    nbytes: np.ndarray
    durations: np.ndarray
    arena: TaskArena

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def n_events(self) -> int:
        return len(self.kind)

    def finish_times(self, engine: str = "events") -> np.ndarray:
        """Earliest-finish of every event under the chosen engine."""
        if engine == "events":
            return self.arena.finish_times(self.durations)
        if engine == "ranks":
            return self._finish_object_path()
        raise ValidationError(
            f"unknown net engine {engine!r}; expected one of {NET_ENGINES}"
        )

    def _finish_object_path(self) -> np.ndarray:
        """Reference sweep over per-rank Python event objects.

        Same arithmetic as the arena sweep (exact ``max``, one add per
        event), so the results are bit-identical — this is the
        differential baseline, deliberately object-at-a-time."""
        n = len(self)
        indptr = self.arena.dep_indptr
        indices = self.arena.dep_indices
        kind = self.kind
        rank = self.rank
        dur = self.durations
        per_rank: list[list[RankEvent]] = [[] for _ in range(self.ranks)]
        events: list[RankEvent] = []
        for i in range(n):
            ev = RankEvent(
                i,
                int(kind[i]),
                int(rank[i]),
                [int(d) for d in indices[indptr[i] : indptr[i + 1]]],
                float(dur[i]),
            )
            events.append(ev)
            if 0 <= ev.rank < self.ranks:
                per_rank[ev.rank].append(ev)
        finish = [0.0] * n
        for ev in events:
            f = 0.0
            for d in ev.deps:
                df = finish[d]
                if df > f:
                    f = df
            fin = f + ev.duration
            ev.finish = fin
            finish[ev.eid] = fin
        return np.asarray(finish, dtype=np.float64)

    def aggregate(self, finish: np.ndarray) -> EventAggregate:
        """Per-rank reductions, engine-independent.

        ``np.bincount`` accumulates weights sequentially in array
        order, which is emission order — the same addition sequence a
        scalar per-step loop performs, so these reductions are exact
        under both engines."""
        total = float(finish.max()) if len(finish) else 0.0
        is_compute = self.kind == KIND_COMPUTE
        is_send = self.kind == KIND_SEND
        is_recv = self.kind == KIND_RECV
        is_sync = self.kind == KIND_SYNC
        compute = np.bincount(
            self.rank[is_compute],
            weights=self.durations[is_compute],
            minlength=self.ranks,
        )
        sent = np.bincount(
            self.rank[is_send], weights=self.nbytes[is_send], minlength=self.ranks
        )
        recv = np.bincount(
            self.rank[is_recv], weights=self.nbytes[is_recv], minlength=self.ranks
        )
        sync_durs = self.durations[is_sync]
        sync_s = float(sync_durs.cumsum()[-1]) if len(sync_durs) else 0.0
        return EventAggregate(
            total_s=total,
            compute_s=compute,
            sent_bytes=sent,
            recv_bytes=recv,
            sync_s=sync_s,
        )

    def simulate(self, engine: str = "events") -> EventAggregate:
        """Sweep and reduce in one call."""
        return self.aggregate(self.finish_times(engine))
