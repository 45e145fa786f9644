"""Task-parallel Strassen-Winograd — the paper's BOTS fixture (§IV-B).

Structure mirrors the Barcelona OpenMP Tasks Suite implementation the
paper modifies:

* recursion spawns one *untied task per multiply sub-problem*, seven per
  node ("for each of the seven sub-problems, a separate task is spawned");
* the additions of a node run *inside* the spawning task — modelled as
  one sequential ``pre`` task (operand combinations) and one ``post``
  task (output accumulation) per node.  This per-node serialization of
  the bandwidth-bound additions is precisely what limits BOTS Strassen's
  scaling;
* recursion reverts to a dense leaf solver at ``n <= 64`` ("we utilize
  this cutover value across all problem sizes and thread counts"), whose
  manually-unrolled kernel is distinctly less efficient than a packed
  BLAS microkernel;
* sub-trees at or below ``grain`` become single sequential tasks — the
  task-granularity floor every tasking runtime applies.

The default schedule is the Winograd variant (7 multiplies, 15 adds);
``classic=True`` lowers the paper's Eq. 7 classic Strassen (18 adds)
instead, used by the ablation benchmarks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..linalg.dense import split_quadrants, working_set_bytes
from ..linalg.fastmm import (
    classic_strassen_product,
    peel_borders,
    recursion_depth,
    winograd_factors,
    winograd_post,
    winograd_pre,
    winograd_product,
    winograd_product_peeled,
)
from ..machine.specs import MachineSpec
from ..runtime.arena import (
    EXT_CREATOR,
    EXT_DEP,
    NameInterner,
    SubtreeTemplate,
    TaskArena,
    TemplateBuilder,
)
from ..runtime.cost import TaskCost
from ..util.errors import ConfigurationError
from ..util.validation import (
    next_power_of_two,
    require_fraction,
    require_positive,
)
from .base import MatmulAlgorithm, stamp_padded
from .kernels import addition_cost, leaf_gemm_cost

__all__ = ["StrassenWinograd"]

_WORD = 8


class StrassenWinograd(MatmulAlgorithm):
    """BOTS-style recursive Strassen-Winograd multiplication.

    Parameters
    ----------
    machine:
        Target platform.
    cutoff:
        Leaf dimension at which recursion reverts to the dense solver
        (the paper's empirically tuned 64).
    grain:
        Sub-trees of this dimension or below become one sequential task.
    leaf_efficiency:
        Fraction of core peak the unrolled dense leaf solver sustains.
    add_locality / leaf_locality:
        Probability that addition/multiply operands are still LLC
        resident (see :func:`repro.algorithms.traffic.streaming_traffic`).
    classic:
        Lower classic Strassen (Eq. 7, 18 adds) instead of Winograd.
    odd_strategy:
        How non-power-of-two sizes are handled: ``"pad"`` (zero-pad to
        the next power of two — the default, and a no-op for the
        paper's sizes) or ``"peel"`` (dynamic peeling: odd levels strip
        the last row/column and restore them with GEMV/rank-1 border
        tasks, avoiding padding's memory blow-up).
    """

    name = "strassen"
    display_name = "Strassen"

    def __init__(
        self,
        machine: MachineSpec,
        cutoff: int = 64,
        grain: int = 128,
        leaf_efficiency: float = 0.38,
        add_locality: float = 0.93,
        leaf_locality: float = 0.44,
        classic: bool = False,
        odd_strategy: str = "pad",
    ):
        super().__init__(machine)
        require_positive(cutoff, "cutoff")
        require_positive(grain, "grain")
        require_fraction(leaf_efficiency, "leaf_efficiency")
        if odd_strategy not in ("pad", "peel"):
            raise ConfigurationError(
                f"odd_strategy must be 'pad' or 'peel', got {odd_strategy!r}"
            )
        if odd_strategy == "peel" and classic:
            raise ConfigurationError(
                "dynamic peeling is implemented for the Winograd variant only"
            )
        self.cutoff = cutoff
        self.grain = max(grain, cutoff)
        self.leaf_efficiency = leaf_efficiency
        self.add_locality = add_locality
        self.leaf_locality = leaf_locality
        self.classic = classic
        self.odd_strategy = odd_strategy
        self._cost_memo: dict[int, TaskCost] = {}
        self._interner = NameInterner()
        self._tpl_memo: dict[int, SubtreeTemplate] = {}

    def __getstate__(self) -> dict:
        """Templates are a per-process cache (megabytes of arrays at
        n=4096) — study workers rebuild them locally instead of paying
        pickle freight."""
        state = dict(self.__dict__)
        state.pop("_tpl_memo", None)
        state.pop("_interner", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._interner = NameInterner()
        self._tpl_memo = {}

    # ---- structural properties ----------------------------------------

    @property
    def pre_adds(self) -> int:
        """Additions before the 7 multiplies (8 Winograd / 10 classic)."""
        return 10 if self.classic else 8

    @property
    def post_adds(self) -> int:
        """Additions after the 7 multiplies (7 Winograd / 8 classic)."""
        return 8 if self.classic else 7

    @property
    def variant(self) -> str:
        return "strassen" if self.classic else "winograd"

    def padded_n(self, n: int) -> int:
        """Dimension the lowering actually operates on: the next power
        of two under the "pad" strategy (a no-op for the paper's
        sizes), or *n* itself under "peel"."""
        require_positive(n, "n")
        if self.odd_strategy == "peel":
            return n
        return n if n <= self.cutoff else next_power_of_two(n)

    def flop_count(self, n: int) -> float:
        """Recursive flop count: ``7 f(s/2) + n_adds (s/2)^2`` per level,
        classical ``2 s^3`` at the leaves."""
        return self._flops(self.padded_n(n))

    def _flops(self, s: int) -> float:
        if s <= self.cutoff:
            return 2.0 * float(s) ** 3
        if s % 2 == 1:  # peel strategy: border updates + even core
            m = float(s - 1)
            return self._flops(s - 1) + 6.0 * m**2
        h = s // 2
        return 7.0 * self._flops(h) + (self.pre_adds + self.post_adds) * float(h) ** 2

    def memory_footprint_bytes(self, n: int) -> float:
        """Operands plus live temporaries.

        Each node keeps ``pre_adds + 7`` half-size buffers alive; with
        the scheduler bounding live sub-trees, roughly three levels of
        temporaries coexist — enough that 8192^2 exceeds the paper's
        4 GB platform while 4096^2 fits (§VI-A).
        """
        m = self.padded_n(n)
        if self.odd_strategy == "peel":
            # Peeling never pads: count the halvings of the even cores
            # (odd levels just shed a row/column).
            depth, size = 0, m
            while size > self.cutoff:
                if size % 2:
                    size -= 1
                else:
                    size //= 2
                    depth += 1
        else:
            depth = recursion_depth(m, self.cutoff)
        buffers = self.pre_adds + 7
        live_levels = min(depth, 3)
        return working_set_bytes(m) + buffers * (m / 2) ** 2 * _WORD * live_levels

    # ---- cost aggregation ----------------------------------------------

    def subtree_cost(self, s: int) -> TaskCost:
        """Aggregate cost of a fully sequential sub-tree at dimension *s*
        (used for grain tasks and cost cross-checks)."""
        if s in self._cost_memo:
            return self._cost_memo[s]
        if s <= self.cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
        elif s % 2 == 1:  # peel strategy
            cost = self.subtree_cost(s - 1) + self._peel_cost(s - 1)
        else:
            h = s // 2
            pre = addition_cost(h, self.pre_adds, self.machine, self.add_locality)
            post = addition_cost(h, self.post_adds, self.machine, self.add_locality)
            child = self.subtree_cost(h)
            cost = pre + post + child.scaled(7.0)
        self._cost_memo[s] = cost
        return cost

    def _peel_cost(self, m: int) -> TaskCost:
        """Border restoration around an ``m x m`` even core: one rank-1
        update plus row/column GEMVs (~6 m^2 flops, streaming traffic
        over the core and the borders)."""
        from .traffic import streaming_traffic

        stream = streaming_traffic(5.0 * m * m * _WORD, self.machine, self.add_locality)
        return TaskCost(
            flops=6.0 * float(m) ** 2,
            efficiency=0.5,
            bytes_l1=stream.l1,
            bytes_l2=stream.l2,
            bytes_l3=stream.l3,
            bytes_dram=stream.dram,
        )

    # ---- lowering --------------------------------------------------------

    def _stability(self, n: int) -> tuple[str, int]:
        return self.variant, self.cutoff

    def _lower(self, n: int, threads: int, operands: tuple | None) -> TaskArena:
        """Stamp the BOTS-style task graph (pre -> 7 children -> post)."""
        m = self.padded_n(n)
        return stamp_padded(
            self._interner,
            f"{self.name}[n={n}]",
            self._arena_template(m),
            n,
            m,
            operands,
            lambda a, b, c, out: self._kernels(a, b, c, m, out),
            addition_cost(n, 1, self.machine, self.add_locality),
        )

    def _arena_template(self, s: int) -> SubtreeTemplate:
        """Relocatable template of the subtree at dimension *s*.

        Built once per recursion level and memoized: the template at
        *s* stamps seven copies of the template at ``s/2`` (array
        copies) plus the pre/post rows, so a full lowering costs
        ``O(depth)`` template builds instead of ``O(7^depth)`` Python
        task constructions.  :meth:`_kernels` walks the same emission
        order.
        """
        tpl = self._tpl_memo.get(s)
        if tpl is not None:
            return tpl
        tb = TemplateBuilder(self._interner)
        if s <= self.cutoff:
            cost = leaf_gemm_cost(
                s, self.machine, self.leaf_efficiency, self.leaf_locality
            )
            tb.emit(f"leaf/{s}", cost, (EXT_DEP,), created_by=EXT_CREATOR)
        elif s % 2 == 1 and s > self.grain:
            # Dynamic peeling: even core first, then the border task.
            core = tb.splice(
                self._arena_template(s - 1),
                ext=(EXT_DEP,),
                ext_creator=EXT_CREATOR,
            )
            tb.emit(
                f"peel/{s}", self._peel_cost(s - 1), (core,),
                created_by=EXT_CREATOR,
            )
        elif s <= self.grain:
            tb.emit(
                f"grain/{s}", self.subtree_cost(s), (EXT_DEP,),
                created_by=EXT_CREATOR,
            )
        else:
            h = s // 2
            child = self._arena_template(h)
            pre = tb.emit(
                f"pre/{s}",
                addition_cost(h, self.pre_adds, self.machine, self.add_locality),
                (EXT_DEP,),
                created_by=EXT_CREATOR,
            )
            kids = [tb.splice(child, ext=(pre,), ext_creator=pre) for _ in range(7)]
            tb.emit(
                f"post/{s}",
                addition_cost(h, self.post_adds, self.machine, self.add_locality),
                kids,
                created_by=EXT_CREATOR,
            )
        tpl = tb.finish()
        self._tpl_memo[s] = tpl
        return tpl

    def _kernels(
        self, av: np.ndarray, bv: np.ndarray, cw: np.ndarray, s: int, out: list
    ) -> None:
        """Append the closures computing ``cw = av @ bv`` at dimension
        *s*, one per row of :meth:`_arena_template` ``(s)`` in its
        emission order."""
        if s <= self.cutoff:

            def leaf():
                cw[:, :] = av @ bv

            out.append(leaf)
        elif s % 2 == 1 and s > self.grain:
            # Even core, then the GEMV/rank-1 border restoration.
            m = s - 1
            core = np.empty((m, m), dtype=np.float64)
            self._kernels(av[:m, :m], bv[:m, :m], core, m, out)
            out.append(lambda: peel_borders(av, bv, core, cw))
        elif s <= self.grain:
            if self.odd_strategy == "peel":
                product = winograd_product_peeled
            elif self.classic:
                product = classic_strassen_product
            else:
                product = winograd_product

            def grain():
                cw[:, :] = product(av, bv, self.cutoff)

            out.append(grain)
        else:
            node = _classic_node if self.classic else _winograd_node
            pre, pairs, post = node(av, bv, cw, s // 2)
            out.append(pre)
            for pa, pb, pc in pairs:
                self._kernels(pa, pb, pc, s // 2, out)
            out.append(post)


def _winograd_node(av, bv, cw, h):
    """Winograd node at half-size *h*: the pre closure (8 adds), the
    seven ``(A, B, C)`` child products and the post closure (7 adds)."""
    st = [np.empty((h, h)) for _ in range(8)]
    p = [np.empty((h, h)) for _ in range(7)]
    pairs = [(x, y, z) for (x, y), z in zip(winograd_factors(av, bv, st), p)]
    return partial(winograd_pre, av, bv, st), pairs, partial(winograd_post, p, cw)


def _classic_node(av, bv, cw, h):
    """Classic Strassen node (paper Eq. 7, corrected) at half-size *h*:
    the pre closure forming the seven left/right factors, the seven
    child products and the post closure (8 adds)."""
    a11, a12, a21, a22 = split_quadrants(av)
    b11, b12, b21, b22 = split_quadrants(bv)
    left = [np.empty((h, h)) for _ in range(7)]
    right = [np.empty((h, h)) for _ in range(7)]
    q = [np.empty((h, h)) for _ in range(7)]

    def pre():
        np.add(a11, a22, out=left[0])
        np.add(a21, a22, out=left[1])
        left[2][:, :] = a11
        left[3][:, :] = a22
        np.add(a11, a12, out=left[4])
        np.subtract(a21, a11, out=left[5])
        np.subtract(a12, a22, out=left[6])
        np.add(b11, b22, out=right[0])
        right[1][:, :] = b11
        np.subtract(b12, b22, out=right[2])
        np.subtract(b21, b11, out=right[3])
        right[4][:, :] = b22
        np.add(b11, b12, out=right[5])
        np.add(b21, b22, out=right[6])

    def post():
        cw[:h, :h] = q[0] + q[3] - q[4] + q[6]
        cw[:h, h:] = q[2] + q[4]
        cw[h:, :h] = q[1] + q[3]
        cw[h:, h:] = q[0] - q[1] + q[2] + q[5]

    return pre, list(zip(left, right, q)), post
