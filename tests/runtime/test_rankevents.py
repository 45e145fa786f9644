"""Rank-event streams and the two network-simulation engines."""

import numpy as np
import pytest

from repro.runtime.rankevents import (
    KIND_COMPUTE,
    KIND_RECV,
    KIND_SEND,
    KIND_SYNC,
    NET_ENGINES,
    EventStreamBuilder,
)
from repro.util.errors import ValidationError


def small_program():
    """Two ranks, a message each way, a barrier, trailing compute."""
    b = EventStreamBuilder(2)
    b.compute(0, 1.0)
    b.compute(1, 3.0)
    b.message(0, 1, nbytes=64.0, duration=0.5)
    b.message(1, 0, nbytes=32.0, duration=0.25, rendezvous=True)
    b.barrier(duration=0.125)
    b.compute(0, 2.0)
    b.compute(1, 0.5)
    return b.build()


def test_compute_chains_serialize():
    b = EventStreamBuilder(2)
    first = b.compute(0, 1.0)
    second = b.compute(0, 2.0)
    other = b.compute(1, 5.0)
    finish = b.build().finish_times()
    assert finish[first] == 1.0
    assert finish[second] == 3.0  # chained, not concurrent
    assert finish[other] == 5.0  # independent rank


def test_eager_recv_waits_for_wire_and_receiver():
    b = EventStreamBuilder(2)
    b.compute(1, 10.0)  # receiver is busy
    send, recv = b.message(0, 1, nbytes=8.0, duration=0.5)
    finish = b.build().finish_times()
    assert finish[send] == 0.5  # eager send ignores the receiver
    assert finish[recv] == 10.0  # arrival waits for the receiver's chain


def test_rendezvous_send_waits_for_receiver():
    b = EventStreamBuilder(2)
    b.compute(1, 10.0)
    send, recv = b.message(0, 1, nbytes=8.0, duration=0.5, rendezvous=True)
    finish = b.build().finish_times()
    assert finish[send] == 10.5  # handshake: wire starts after the receiver
    assert finish[recv] == 10.5


def test_barrier_joins_every_rank():
    b = EventStreamBuilder(3)
    b.compute(0, 1.0)
    b.compute(1, 7.0)
    b.compute(2, 2.0)
    bar = b.barrier(duration=0.5)
    tails = [b.compute(r, 0.25) for r in range(3)]
    finish = b.build().finish_times()
    assert finish[bar] == 7.5
    assert all(finish[t] == 7.75 for t in tails)


def test_mark_recv_charges_bytes_without_time():
    b = EventStreamBuilder(1)
    b.compute(0, 1.0)
    b.mark_recv(0, 4096.0)
    prog = b.build()
    agg = prog.simulate()
    assert agg.total_s == 1.0  # accounting only, no time advance
    assert agg.recv_bytes[0] == 4096.0
    assert agg.sent_bytes[0] == 0.0


def test_engines_agree_bit_for_bit():
    prog = small_program()
    ev = prog.finish_times("events")
    rk = prog.finish_times("ranks")
    assert ev.tobytes() == rk.tobytes()
    a, b = prog.simulate("events"), prog.simulate("ranks")
    assert a.total_s == b.total_s
    assert a.compute_s.tobytes() == b.compute_s.tobytes()
    assert a.sent_bytes.tobytes() == b.sent_bytes.tobytes()
    assert a.recv_bytes.tobytes() == b.recv_bytes.tobytes()
    assert a.sync_s == b.sync_s


def test_aggregate_per_rank_reductions():
    prog = small_program()
    agg = prog.simulate()
    assert agg.compute_s.tolist() == [3.0, 3.5]
    assert agg.sent_bytes.tolist() == [64.0, 32.0]
    assert agg.recv_bytes.tolist() == [32.0, 64.0]
    assert agg.sync_s == 0.125
    assert agg.comm_bytes().tolist() == [96.0, 96.0]
    # Makespan: rank 1 computes 3.0, the rendezvous reply lands at
    # 3.25 on both ranks, the barrier adds 0.125, and rank 0's tail
    # compute adds 2.0.
    assert agg.total_s == 5.375


def test_program_counts_and_kinds():
    prog = small_program()
    assert len(prog) == prog.n_events == 9
    kinds = set(prog.kind.tolist())
    assert kinds == {KIND_COMPUTE, KIND_SEND, KIND_RECV, KIND_SYNC}
    assert prog.arena.dep_indptr[-1] == len(prog.arena.dep_indices)


def test_empty_stream_is_fine():
    prog = EventStreamBuilder(4).build()
    assert prog.n_events == 0
    agg = prog.simulate()
    assert agg.total_s == 0.0
    assert agg.compute_s.tolist() == [0.0] * 4


def test_builder_validation():
    with pytest.raises(Exception):
        EventStreamBuilder(0)
    b = EventStreamBuilder(2)
    with pytest.raises(ValidationError):
        b.compute(2, 1.0)  # rank out of range
    with pytest.raises(ValidationError):
        b.message(1, 1, 8.0, 0.1)  # self-message
    with pytest.raises(Exception):
        b.compute(0, -1.0)
    with pytest.raises(Exception):
        b.message(0, 1, -8.0, 0.1)


def test_unknown_engine_rejected():
    prog = small_program()
    assert set(NET_ENGINES) == {"events", "ranks"}
    with pytest.raises(ValidationError):
        prog.finish_times("threads")


# ---- batch emission vs a scalar per-message oracle ------------------------


class ScalarOracle:
    """The per-message builder the batch methods replace: plain lists,
    one ``_last`` lookup per event, appended strictly in order."""

    def __init__(self, ranks):
        self.ranks = ranks
        self.cols = {"kind": [], "rank": [], "peer": [], "nbytes": [], "dur": []}
        self.indptr = [0]
        self.indices = []
        self.last = [-1] * ranks

    def _emit(self, kind, rank, peer, nbytes, dur, deps):
        eid = len(self.cols["kind"])
        for key, value in zip(self.cols, (kind, rank, peer, nbytes, dur)):
            self.cols[key].append(value)
        self.indices.extend(deps)
        self.indptr.append(len(self.indices))
        return eid

    def _head(self, rank):
        return [self.last[rank]] if self.last[rank] >= 0 else []

    def chained(self, kind, rank, nbytes, dur):
        self.last[rank] = self._emit(kind, rank, -1, nbytes, dur, self._head(rank))

    def message(self, src, dst, nbytes, dur, rdv):
        deps = self._head(src) + (self._head(dst) if rdv else [])
        send = self._emit(KIND_SEND, src, dst, nbytes, dur, deps)
        self.last[src] = send
        self.last[dst] = self._emit(KIND_RECV, dst, src, nbytes, 0.0, self._head(dst) + [send])

    def barrier(self, dur):
        eid = self._emit(KIND_SYNC, 0, -1, 0.0, dur, [h for h in self.last if h >= 0])
        self.last = [eid] * self.ranks


def assert_stream_equals_oracle(prog, oracle):
    cols = oracle.cols
    assert prog.kind.dtype == prog.rank.dtype == prog.peer.dtype == np.int64
    assert prog.kind.tobytes() == np.asarray(cols["kind"], dtype=np.int64).tobytes()
    assert prog.rank.tobytes() == np.asarray(cols["rank"], dtype=np.int64).tobytes()
    assert prog.peer.tobytes() == np.asarray(cols["peer"], dtype=np.int64).tobytes()
    assert prog.nbytes.tobytes() == np.asarray(cols["nbytes"], dtype=np.float64).tobytes()
    assert prog.durations.tobytes() == np.asarray(cols["dur"], dtype=np.float64).tobytes()
    assert prog.arena.dep_indptr.tolist() == oracle.indptr
    assert prog.arena.dep_indices.tolist() == oracle.indices


def random_stream(seed, ranks):
    """Drive a batch builder and the oracle through the same random
    op sequence: batches with repeated ranks, mixed rendezvous, ranks on
    their first event, empty batches, barriers and receive markers."""
    rng = np.random.default_rng(seed)
    b = EventStreamBuilder(ranks)
    oracle = ScalarOracle(ranks)
    for _ in range(rng.integers(1, 12)):
        op = rng.choice(["messages", "computes", "mark_recvs", "barrier", "scalar"])
        m = int(rng.integers(0, 3 * ranks))  # 0: an empty batch
        if op == "messages":
            m = m if ranks > 1 else 0  # a lone rank has no peer
            src = rng.integers(0, ranks, m)
            dst = (src + rng.integers(1, max(ranks, 2), m)) % ranks
            nbytes = rng.choice([0.0, 8.0, 1e6], m)
            durs = rng.random(m)
            rdv = rng.random(m) < 0.5
            sends, recvs = b.messages(src, dst, nbytes, durs, rdv)
            assert recvs.tolist() == (sends + 1).tolist()
            for i in range(m):
                oracle.message(int(src[i]), int(dst[i]), nbytes[i], durs[i], bool(rdv[i]))
        elif op in ("computes", "mark_recvs"):
            ranks_ = rng.integers(0, ranks, m)
            values = rng.random(m)
            getattr(b, op)(ranks_, values)
            for r, v in zip(ranks_, values):
                if op == "computes":
                    oracle.chained(KIND_COMPUTE, int(r), 0.0, v)
                else:
                    oracle.chained(KIND_RECV, int(r), v, 0.0)
        elif op == "barrier":
            dur = float(rng.random())
            assert b.barrier(dur) == len(b) - 1
            oracle.barrier(dur)
        else:  # the scalar calls are one-element batches
            r = int(rng.integers(0, ranks))
            b.compute(r, 0.5)
            oracle.chained(KIND_COMPUTE, r, 0.0, 0.5)
            if ranks > 1:
                d = (r + 1) % ranks
                b.message(r, d, 16.0, 0.25, rendezvous=True)
                oracle.message(r, d, 16.0, 0.25, True)
            b.mark_recv(r, 32.0)
            oracle.chained(KIND_RECV, r, 32.0, 0.0)
        assert len(b) == len(oracle.cols["kind"])
    return b, oracle


@pytest.mark.parametrize("seed", range(40))
def test_batch_emission_matches_scalar_oracle(seed):
    ranks = 1 + seed % 7
    b, oracle = random_stream(seed, ranks)
    prog = b.build()
    assert_stream_equals_oracle(prog, oracle)
    assert prog.finish_times("events").tobytes() == prog.finish_times("ranks").tobytes()


def test_scalar_durations_broadcast_over_a_batch():
    b = EventStreamBuilder(3)
    ids = b.computes([2, 0, 2], 1.5)
    b.messages([0, 1], [1, 2], 64.0, 0.25)
    oracle = ScalarOracle(3)
    for r in (2, 0, 2):
        oracle.chained(KIND_COMPUTE, r, 0.0, 1.5)
    oracle.message(0, 1, 64.0, 0.25, False)
    oracle.message(1, 2, 64.0, 0.25, False)
    assert ids.tolist() == [0, 1, 2]
    assert_stream_equals_oracle(b.build(), oracle)


@pytest.mark.parametrize(
    "bad_batch",
    [
        lambda b: b.messages([0, 1, 2], [1, 2, 2], 8.0, 0.5),  # self-message
        lambda b: b.messages([0, 1], [1, 3], 8.0, 0.5),  # dst out of range
        lambda b: b.messages([0, -1], [1, 2], 8.0, 0.5),  # src out of range
        lambda b: b.messages([0, 1], [1, 2], [8.0, -8.0], 0.5),  # negative nbytes
        lambda b: b.messages([0, 1], [1, 2], 8.0, [0.5, -0.5]),  # negative duration
        lambda b: b.messages([0, 1], [1], 8.0, 0.5),  # length mismatch
        lambda b: b.computes([0, 3], 1.0),  # rank out of range
        lambda b: b.computes([0, 1], [1.0, -1.0]),  # negative duration
        lambda b: b.mark_recvs([1, 2], [4.0, -4.0]),  # negative nbytes
    ],
)
def test_invalid_batch_raises_and_appends_nothing(bad_batch):
    b, oracle = random_stream(3, 3)
    before = len(b)
    with pytest.raises(ValidationError):
        bad_batch(b)
    assert len(b) == before
    # The chains are untouched too: later events link as if the bad
    # batch had never been offered.
    b.messages([2, 0], [0, 1], 8.0, 0.5, True)
    oracle.message(2, 0, 8.0, 0.5, True)
    oracle.message(0, 1, 8.0, 0.5, True)
    assert_stream_equals_oracle(b.build(), oracle)


def test_batch_keeps_a_copy_of_its_inputs():
    ranks = np.array([0, 1])
    seconds = np.array([1.0, 2.0])
    b = EventStreamBuilder(2)
    b.computes(ranks, seconds)
    ranks[:] = 1
    seconds[:] = 9.0
    prog = b.build()
    assert prog.rank.tolist() == [0, 1]
    assert prog.durations.tolist() == [1.0, 2.0]
