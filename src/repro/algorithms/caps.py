"""Communication Avoiding Parallel Strassen — the paper's CAPS fixture
(§IV-C).

CAPS views the Strassen recursion as a tree walk that chooses, per
level, between:

* **BFS steps** (``depth < cutoff_depth``, the paper uses 4): the seven
  sub-problems proceed as *independent untied tasks* working out of
  private contiguous buffers.  The extra buffer memory buys reduced
  communication — modelled here as a higher *locality* factor (operand
  re-reads hit the LLC instead of the DRAM channel) and as fine-grained
  addition tasks with precise dependencies (S/T/U chains), so addition
  work overlaps multiplies instead of serializing per node;

* **DFS steps** (``depth >= cutoff_depth``): all workers cooperate on
  each of the seven sub-problems *in sequence*; the additions and the
  sub-tree stages are OpenMP work-shared loops (``parallel_for`` row
  chunks).

Algorithm 2 of the paper is the dispatch in
:meth:`CapsStrassen._arena_template` (and its kernel walk)::

    if DEPTH < CUTOFF_DEPTH: execute Strassen BFS
    else:                    execute Strassen DFS
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..linalg.dense import split_quadrants, working_set_bytes
from ..linalg.fastmm import (
    recursion_depth,
    winograd_factors,
    winograd_post,
    winograd_pre,
    winograd_product,
)
from ..machine.specs import MachineSpec
from ..runtime.arena import (
    EXT_DEP,
    NameInterner,
    SubtreeTemplate,
    TaskArena,
    TemplateBuilder,
)
from ..runtime.cost import ZERO_COST, TaskCost
from ..util.errors import ConfigurationError
from ..util.validation import next_power_of_two, require_fraction, require_positive
from .base import MatmulAlgorithm, stamp_padded
from .kernels import addition_cost, leaf_gemm_cost
from .traffic import streaming_traffic

__all__ = ["CapsStrassen"]

_WORD = 8


def _row_ranges(h: int, chunks: int) -> list[tuple[int, int]]:
    """Static work-sharing split of *h* rows into *chunks* ranges."""
    chunks = min(chunks, h)
    base, extra = divmod(h, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class CapsStrassen(MatmulAlgorithm):
    """CAPS: Strassen with BFS/DFS hybrid traversal.

    Parameters
    ----------
    machine:
        Target platform.
    cutoff_depth:
        Tree level at which traversal switches from BFS to DFS (the
        paper's empirically tuned 4).
    leaf_cutoff:
        Dense-solver cutover dimension (64, shared with Strassen).
    dfs_grain:
        In DFS mode, sub-trees at or below this dimension execute as one
        work-shared stage.
    leaf_efficiency:
        Dense leaf solver efficiency (same solver as Strassen's).
    add_locality / leaf_locality:
        LLC-residency probabilities; *higher* than Strassen's — this is
        the communication avoidance (Eq. 8's reduced bandwidth cost).
    pack:
        Emit the BFS buffer-packing tasks ("the BFS approach requires
        additional buffer memory", §IV-C): each BFS child whose factors
        are raw operand quadrants gets them copied into private
        contiguous buffers.  Packing costs time (streaming copies) but
        is what buys the high locality; disabling it models an
        idealized zero-copy CAPS (used by the ablation benchmarks).
    """

    name = "caps"
    display_name = "CAPS"

    #: BFS children needing packed operand blocks: child index -> the
    #: factors (0 = A, 1 = B) it packs (p1 = A11*B11 and p2 = A12*B21
    #: pack both; p3 packs its B22, p4 its A22; p5-p7 multiply
    #: already-contiguous S/T buffers).
    _PACKED_FACTORS = {0: (0, 1), 1: (0, 1), 2: (1,), 3: (0,)}

    def __init__(
        self,
        machine: MachineSpec,
        cutoff_depth: int = 4,
        leaf_cutoff: int = 64,
        dfs_grain: int = 256,
        leaf_efficiency: float = 0.38,
        add_locality: float = 0.97,
        leaf_locality: float = 0.45,
        pack: bool = True,
    ):
        super().__init__(machine)
        if cutoff_depth < 0:
            raise ConfigurationError(
                f"cutoff_depth must be >= 0, got {cutoff_depth}"
            )
        require_positive(leaf_cutoff, "leaf_cutoff")
        require_fraction(leaf_efficiency, "leaf_efficiency")
        self.cutoff_depth = cutoff_depth
        self.leaf_cutoff = leaf_cutoff
        self.dfs_grain = max(dfs_grain, leaf_cutoff)
        self.leaf_efficiency = leaf_efficiency
        self.add_locality = add_locality
        self.leaf_locality = leaf_locality
        self.pack = pack
        self._cost_memo: dict[int, TaskCost] = {}
        self._interner = NameInterner()
        self._tpl_memo: dict[tuple[int, int, int], SubtreeTemplate] = {}

    def __getstate__(self) -> dict:
        """Drop the per-process template cache (study workers rebuild
        locally — cheaper than pickling megabytes of arrays)."""
        state = dict(self.__dict__)
        state.pop("_tpl_memo", None)
        state.pop("_interner", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._interner = NameInterner()
        self._tpl_memo = {}

    # ---- structural properties ----------------------------------------

    def padded_n(self, n: int) -> int:
        require_positive(n, "n")
        return n if n <= self.leaf_cutoff else next_power_of_two(n)

    def flop_count(self, n: int) -> float:
        """Same operation count as Strassen-Winograd (the traversal
        order does not change the arithmetic)."""
        return self._flops(self.padded_n(n))

    def _flops(self, s: int) -> float:
        if s <= self.leaf_cutoff:
            return 2.0 * float(s) ** 3
        h = s // 2
        return 7.0 * self._flops(h) + 15.0 * float(h) ** 2

    def memory_footprint_bytes(self, n: int) -> float:
        """BFS steps replicate operand buffers per branch — the paper's
        "additional buffer memory" — so CAPS needs more memory than the
        classic task recursion at the same n."""
        m = self.padded_n(n)
        depth = recursion_depth(m, self.leaf_cutoff)
        bfs_levels = min(depth, self.cutoff_depth, 4)
        return working_set_bytes(m) + 15.0 * (m / 2) ** 2 * _WORD * (bfs_levels + 1)

    def _pack_cost(self, h: int, n_blocks: int) -> TaskCost:
        """Cost of copying *n_blocks* ``h x h`` operand blocks into
        contiguous private buffers (read + write per block)."""
        nbytes = 2.0 * n_blocks * h * h * _WORD
        stream = streaming_traffic(nbytes, self.machine, self.add_locality)
        return TaskCost(
            flops=1.0,  # negligible; keeps the task non-zero-cost
            efficiency=1.0,
            bytes_l1=stream.l1,
            bytes_l2=stream.l2,
            bytes_l3=stream.l3,
            bytes_dram=stream.dram,
        )

    def subtree_cost(self, s: int) -> TaskCost:
        """Aggregate cost of a sub-tree at dimension *s* with CAPS's
        locality factors."""
        if s in self._cost_memo:
            return self._cost_memo[s]
        if s <= self.leaf_cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
        else:
            h = s // 2
            pre = addition_cost(h, 8, self.machine, self.add_locality)
            post = addition_cost(h, 7, self.machine, self.add_locality)
            cost = pre + post + self.subtree_cost(h).scaled(7.0)
        self._cost_memo[s] = cost
        return cost

    # ---- lowering --------------------------------------------------------

    def _stability(self, n: int) -> tuple[str, int]:
        return "winograd", self.leaf_cutoff

    def _lower(self, n: int, threads: int, operands: tuple | None) -> TaskArena:
        """Stamp the BFS/DFS hybrid task graph."""
        m = self.padded_n(n)
        return stamp_padded(
            self._interner,
            f"caps[n={n}]",
            self._arena_template(m, 0, threads),
            n,
            m,
            operands,
            lambda a, b, c, out: self._kernels(a, b, c, m, 0, threads, out),
            addition_cost(n, 1, self.machine, self.add_locality),
        )

    def _arena_template(self, s: int, depth: int, threads: int) -> SubtreeTemplate:
        """Relocatable template of the subtree at *(s, depth)* —
        Algorithm 2's dispatch: a leaf, a BFS step while ``depth <
        cutoff_depth``, else a DFS step.

        Memoized by ``(s, min(depth, cutoff_depth), threads)``: beyond
        the BFS/DFS switch the structure depends only on *s*, and the
        DFS work-sharing chunk count depends on *threads*.
        :meth:`_kernels` walks the same emission order.
        """
        key = (s, min(depth, self.cutoff_depth), threads)
        tpl = self._tpl_memo.get(key)
        if tpl is not None:
            return tpl
        tb = TemplateBuilder(self._interner)
        if s <= self.leaf_cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            tb.emit(f"leaf/{s}", cost, (EXT_DEP,))
        elif depth < self.cutoff_depth:
            self._tpl_bfs(tb, s, depth, threads)
        else:
            self._tpl_dfs(tb, s, depth, threads)
        tpl = tb.finish()
        self._tpl_memo[key] = tpl
        return tpl

    def _tpl_parallel_for(self, tb, name, total_cost, deps, k) -> int:
        """Template twin of ``OpenMP.parallel_for`` (static schedule,
        *k* chunks, zero-cost join); returns the join's local id."""
        per_chunk = total_cost.scaled(1.0 / k)
        chunks = [tb.emit(f"{name}[{i}]", per_chunk, deps) for i in range(k)]
        return tb.emit(f"{name}/join", ZERO_COST, chunks)

    def _tpl_bfs(self, tb, s, depth, threads) -> None:
        h = s // 2
        one_add = addition_cost(h, 1, self.machine, self.add_locality)
        ext = (EXT_DEP,)
        ts1 = tb.emit(f"bfs-s1/{s}", one_add, ext)
        ts2 = tb.emit(f"bfs-s2/{s}", one_add, (ts1,))
        ts3 = tb.emit(f"bfs-s3/{s}", one_add, ext)
        ts4 = tb.emit(f"bfs-s4/{s}", one_add, (ts2,))
        tt1 = tb.emit(f"bfs-t1/{s}", one_add, ext)
        tt2 = tb.emit(f"bfs-t2/{s}", one_add, (tt1,))
        tt3 = tb.emit(f"bfs-t3/{s}", one_add, ext)
        tt4 = tb.emit(f"bfs-t4/{s}", one_add, (tt2,))
        dep_lists = [
            [EXT_DEP],
            [EXT_DEP],
            [ts4],
            [tt4],
            [ts1, tt1],
            [ts2, tt2],
            [ts3, tt3],
        ]
        if self.pack:
            for idx, factors in self._PACKED_FACTORS.items():
                pack_task = tb.emit(
                    f"bfs-pack{idx + 1}/{s}",
                    self._pack_cost(h, len(factors)),
                    dep_lists[idx],
                )
                dep_lists[idx] = [pack_task]
        child = self._arena_template(h, depth + 1, threads)
        kids = [tb.splice(child, ext=tuple(d)) for d in dep_lists]
        tb_u = addition_cost(h, 3, self.machine, self.add_locality)
        tu = tb.emit(f"bfs-u/{s}", tb_u, (kids[0], kids[4], kids[5], kids[6]))
        c_tasks = [
            tb.emit(f"bfs-c11/{s}", one_add, (kids[0], kids[1])),
            tb.emit(f"bfs-c12/{s}", one_add, (tu, kids[2])),
            tb.emit(f"bfs-c21/{s}", one_add, (tu, kids[3])),
            tb.emit(f"bfs-c22/{s}", one_add, (tu, kids[4])),
        ]
        if self.pack:
            tb.emit(f"bfs-unpack/{s}", self._pack_cost(h, 4), c_tasks)
        else:
            tb.emit(f"bfs-join/{s}", ZERO_COST, c_tasks)

    def _tpl_dfs(self, tb, s, depth, threads) -> None:
        h = s // 2
        if s <= self.dfs_grain:
            self._tpl_parallel_for(
                tb, f"dfs-grain/{s}", self.subtree_cost(s), (EXT_DEP,), threads
            )
            return
        prev = self._tpl_parallel_for(
            tb,
            f"dfs-pre/{s}",
            addition_cost(h, 8, self.machine, self.add_locality),
            (EXT_DEP,),
            threads,
        )
        child = self._arena_template(h, depth + 1, threads)
        for _ in range(7):
            prev = tb.splice(child, ext=(prev,))
        self._tpl_parallel_for(
            tb,
            f"dfs-post/{s}",
            addition_cost(h, 7, self.machine, self.add_locality),
            (prev,),
            threads,
        )

    # ---- kernels (executed builds) -------------------------------------

    def _kernels(self, av, bv, cw, s, depth, threads, out: list) -> None:
        """Append the closures computing ``cw = av @ bv`` for the
        subtree at *(s, depth)*, one per row of
        :meth:`_arena_template` in its emission order."""
        if s <= self.leaf_cutoff:

            def leaf():
                cw[:, :] = av @ bv

            out.append(leaf)
        elif depth < self.cutoff_depth:
            self._bfs_kernels(av, bv, cw, s, depth, threads, out)
        elif s <= self.dfs_grain:
            # One work-shared stage over the whole remaining sub-tree:
            # chunk 0 computes it, the other chunks and the join idle.
            def whole():
                cw[:, :] = winograd_product(av, bv, self.leaf_cutoff)

            out += [whole] + [None] * threads
        else:
            self._dfs_kernels(av, bv, cw, s, depth, threads, out)

    def _bfs_kernels(self, av, bv, cw, s, depth, threads, out: list) -> None:
        """s1..t4, the pack rows, seven children, u, c11..c22, then the
        unpack (or closure-less join) row."""
        h = s // 2
        a11, a12, a21, a22 = split_quadrants(av)
        b11, b12, b21, b22 = split_quadrants(bv)
        st = [np.empty((h, h)) for _ in range(8)]
        s1, s2, s3, s4, t1, t2, t3, t4 = st
        p = [np.empty((h, h)) for _ in range(7)]
        # Pre-addition chains: s1 -> s2 -> s4; s3; t1 -> t2 -> t4; t3.
        out += [
            lambda: np.add(a21, a22, out=s1),
            lambda: np.subtract(s1, a11, out=s2),
            lambda: np.subtract(a11, a21, out=s3),
            lambda: np.subtract(a12, s2, out=s4),
            lambda: np.subtract(b12, b11, out=t1),
            lambda: np.subtract(b22, t1, out=t2),
            lambda: np.subtract(b22, b12, out=t3),
            lambda: np.subtract(t2, b21, out=t4),
        ]
        operands = [list(pair) for pair in winograd_factors(av, bv, st)]
        if self.pack:
            # Copy raw operand quadrants into private contiguous buffers
            # before the affected children run (communication avoidance:
            # pay local copies, save channel traffic).
            for idx, factors in self._PACKED_FACTORS.items():
                pairs = [
                    (operands[idx][k], np.empty((h, h), dtype=np.float64))
                    for k in factors
                ]

                def pack(pairs=pairs):
                    for src, dst in pairs:
                        dst[:, :] = src

                out.append(pack)
                for k, (_, dst) in zip(factors, pairs):
                    operands[idx][k] = dst
        for (pa, pb), pc in zip(operands, p):
            self._kernels(pa, pb, pc, h, depth + 1, threads, out)
        u2, u3, u4 = [np.empty((h, h)) for _ in range(3)]

        def u():
            np.add(p[0], p[5], out=u2)
            np.add(u2, p[6], out=u3)
            np.add(u2, p[4], out=u4)

        # With packing the results land in private buffers first and the
        # unpack row redistributes them into C's layout.
        if self.pack:
            c_blocks = [np.empty((h, h)) for _ in range(4)]
        else:
            c_blocks = split_quadrants(cw)
        c11, c12, c21, c22 = c_blocks
        out += [
            u,
            lambda: np.add(p[0], p[1], out=c11),
            lambda: np.add(u4, p[2], out=c12),
            lambda: np.subtract(u3, p[3], out=c21),
            lambda: np.add(u3, p[4], out=c22),
        ]
        if not self.pack:
            out.append(None)
            return

        def unpack():
            for dst, src in zip(split_quadrants(cw), c_blocks):
                dst[:, :] = src

        out.append(unpack)

    def _dfs_kernels(self, av, bv, cw, s, depth, threads, out: list) -> None:
        """Work-shared pre chunks plus join, the seven children in
        sequence, work-shared post chunks plus join."""
        h = s // 2
        st = [np.empty((h, h)) for _ in range(8)]
        p = [np.empty((h, h)) for _ in range(7)]
        rows = [slice(r0, r1) for r0, r1 in _row_ranges(h, threads)]
        idle = [None] * (threads - len(rows) + 1)  # idle chunks + join
        out += [partial(winograd_pre, av, bv, st, r) for r in rows] + idle
        # Seven sub-problems in sequence, each fully work-shared inside.
        for (pa, pb), pc in zip(winograd_factors(av, bv, st), p):
            self._kernels(pa, pb, pc, h, depth + 1, threads, out)
        out += [partial(winograd_post, p, cw, r) for r in rows] + idle
