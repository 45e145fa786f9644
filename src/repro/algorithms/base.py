"""Common interface of the three matrix-multiplication algorithms.

Each algorithm (§IV: OpenBLAS-style blocked, Strassen-Winograd, CAPS)
*lowers* a problem instance to a :class:`~repro.runtime.arena.TaskArena`
through one lowering, :meth:`MatmulAlgorithm.build`: the arena's cost
columns drive the simulator, stamped from memoized subtree templates.
An executed build (``execute=True``) also allocates the operands and
fills ``arena.kernels``, one numpy closure (or ``None``) per tid, which
performs the real numerics so results can be verified against
``numpy.matmul``.  The kernel list comes from a closure-only walk in
the templates' emission order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..linalg.dense import pad_to_power_of_two, random_matrix, working_set_bytes
from ..linalg.verify import VerificationReport, verify_matmul
from ..machine.specs import MachineSpec
from ..observability import trace
from ..observability.metrics import counter, gauge
from ..runtime.arena import (
    NO_CREATOR,
    NameInterner,
    SubtreeTemplate,
    TaskArena,
    TemplateBuilder,
)
from ..runtime.cost import TaskCost
from ..util.errors import ConfigurationError, ValidationError
from ..util.validation import require_positive

__all__ = [
    "BuildCache",
    "BuildResult",
    "MatmulAlgorithm",
    "default_build_cache",
    "stamp_padded",
]

# Process-wide lowering metrics (see DESIGN.md §10).  Counters are
# always-on; the BuildCache pair mirrors its own hits/misses fields so
# traced study cells can attribute cache behaviour per cell.
_CACHE_HITS = counter("build_cache.hits", description="BuildCache lookups served from cache")
_CACHE_MISSES = counter("build_cache.misses", description="BuildCache lookups that had to lower")
_TASKS_LOWERED = counter("lowering.tasks", description="tasks emitted by graph lowerings")
_ARENA_BYTES = gauge("lowering.arena_bytes", unit="B", description="resident bytes of the last columnar arena lowering")


@dataclass
class BuildResult:
    """A lowered problem instance.

    Attributes
    ----------
    graph:
        The task graph to schedule, a columnar
        :class:`~repro.runtime.arena.TaskArena` whose ``kernels`` are
        set exactly when the build is executed.
    n:
        Problem dimension.
    a, b, c:
        Operands and output when built with ``execute=True``; ``None``
        in cost-only mode (used for the largest study sizes, where the
        simulator needs only the cost vectors).
    variant:
        Stability-bound variant for verification ("classical",
        "strassen", "winograd").
    cutoff:
        Recursion cutoff relevant to the stability bound.
    """

    graph: TaskArena
    n: int
    a: np.ndarray | None
    b: np.ndarray | None
    c: np.ndarray | None
    variant: str = "classical"
    cutoff: int = 64

    @property
    def cost_only(self) -> bool:
        """True when no real numerics are attached."""
        return self.c is None

    def verify(self) -> VerificationReport:
        """Check the computed product against numpy within the stability
        bound.  Only valid after the graph has been *executed* (run
        through the scheduler with ``execute=True``)."""
        if self.cost_only:
            raise ValidationError(
                "cannot verify a cost-only build (execute=False)"
            )
        return verify_matmul(self.a, self.b, self.c, self.variant, self.cutoff)


class BuildCache:
    """Process-wide LRU of lowered problem instances.

    Lowering is a measured hot path (a Strassen 512² lowering costs
    milliseconds, and the protocol driver re-lowers the *same* cell for
    every repetition), so identical builds are memoized.  The key is
    ``(algorithm instance, n, threads, seed, execute)`` — the instance
    stands in for (machine, algorithm, configuration), which it
    determines completely; entries keep a strong reference to the
    instance so the identity can never be recycled while cached.

    Sharing semantics
    -----------------
    * **Cost-only builds** (``execute=False``) are immutable: their
      arenas carry no kernels and no operand arrays, and
      scheduling one never mutates it.  The cache therefore returns the
      *same* :class:`BuildResult` to every caller — which is also what
      lets the fast engine's per-graph seat-plan cache amortize across
      protocol repetitions and study repeats.
    * **Executed builds** (``execute=True``) bind operand arrays into
      kernel closures and accumulate into ``C`` when run, so a stored
      instance would be corrupted by its first execution.  The cache
      *re-lowers* on every request instead: deterministic operand
      seeding makes each fresh build an exact clone, and mutating one
      build can never leak into the next.
    """

    def __init__(self, maxsize: int = 64):
        require_positive(maxsize, "maxsize")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple[object, BuildResult]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Hit/miss counters plus current occupancy (diagnostics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def get_or_build(
        self,
        alg: "MatmulAlgorithm",
        n: int,
        threads: int,
        seed: int = 0,
        execute: bool = True,
    ) -> BuildResult:
        """Return a build for *(alg, n, threads, seed, execute)*,
        reusing a cached cost-only lowering when one exists.

        The ``execute`` flag is part of the cache key *and* checked on
        the way out: an executed request must never be satisfied by a
        stored cost-only lowering (it has no operands or kernels, so
        running it would silently produce an empty C), and
        a cost-only request must never observe an executed build's
        mutable arrays.  Today executed builds are never stored at all,
        but the guard keeps the isolation boundary machine-checked if
        that ever changes.
        """
        if execute:
            # Never cached — see the class docstring.
            self.misses += 1
            _CACHE_MISSES.add()
            with trace.span(
                "lower", alg=alg.name, n=n, threads=threads, execute=True
            ):
                build = alg.build(n, threads, seed=seed, execute=True)
            if build.cost_only:
                raise ValidationError(
                    f"{alg.name}: build(execute=True) returned a cost-only "
                    f"lowering for (n={n}, threads={threads}, seed={seed})"
                )
            return build
        key = (id(alg), n, threads, seed, False)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is alg:
            cached = entry[1]
            if not cached.cost_only:
                # An executed build leaked into the cost-only slot —
                # drop it and re-lower rather than hand out a build
                # whose arrays another caller may be mutating.
                del self._entries[key]
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                _CACHE_HITS.add()
                return cached
        self.misses += 1
        _CACHE_MISSES.add()
        with trace.span(
            "lower", alg=alg.name, n=n, threads=threads, execute=False
        ):
            build = alg.build(n, threads, seed=seed, execute=False)
        self._entries[key] = (alg, build)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return build


#: Default process-wide cache used by :meth:`MatmulAlgorithm.build_cached`.
_DEFAULT_CACHE = BuildCache()


def default_build_cache() -> BuildCache:
    """The process-wide :class:`BuildCache` (one per worker process)."""
    return _DEFAULT_CACHE


class MatmulAlgorithm(ABC):
    """Base class: builds task graphs for ``C = A @ B`` on a machine."""

    #: short registry name, e.g. "openblas"
    name: str = "abstract"
    #: display name used in tables, e.g. "OpenBLAS"
    display_name: str = "Abstract"

    def __init__(self, machine: MachineSpec):
        self.machine = machine

    @abstractmethod
    def flop_count(self, n: int) -> float:
        """Flops the algorithm performs for an n x n multiply."""

    def build(
        self,
        n: int,
        threads: int,
        seed: int = 0,
        execute: bool = True,
    ) -> BuildResult:
        """Lower an n x n problem to a :class:`TaskArena`.

        ``threads`` informs work-sharing chunk counts (OpenMP static
        schedules depend on the team size).  ``execute=True`` also
        allocates the operands and fills ``arena.kernels`` with one
        closure (or ``None``) per tid; ``execute=False`` allocates
        nothing and leaves ``kernels`` unset.
        """
        require_positive(n, "n")
        require_positive(threads, "threads")
        self.check_memory(n)
        a = b = c = None
        if execute:
            a = random_matrix(n, seed=seed)
            b = random_matrix(n, seed=seed + 1)
            c = np.zeros((n, n), dtype=np.float64)
        arena = self._lower(n, threads, (a, b, c) if execute else None)
        if execute and (arena.kernels is None or len(arena.kernels) != len(arena)):
            raise ValidationError(
                f"{self.name}[n={n}]: {len(arena.kernels or ())} kernels "
                f"for {len(arena)} tasks"
            )
        _TASKS_LOWERED.add(len(arena))
        _ARENA_BYTES.set(arena.nbytes)
        variant, cutoff = self._stability(n)
        return BuildResult(arena, n, a, b, c, variant=variant, cutoff=cutoff)

    def _lower(
        self, n: int, threads: int, operands: tuple | None
    ) -> TaskArena:
        """Stamp the arena for an n x n problem; with *operands*
        ``(A, B, C)`` it must carry one kernel per tid."""
        raise NotImplementedError

    def _stability(self, n: int) -> tuple[str, int]:
        """``(variant, cutoff)`` of the verification stability bound."""
        raise NotImplementedError

    def build_cached(
        self,
        n: int,
        threads: int,
        seed: int = 0,
        execute: bool = True,
        cache: BuildCache | None = None,
    ) -> BuildResult:
        """Like :meth:`build`, but memoized through a :class:`BuildCache`
        (the process-wide default unless *cache* is given).

        Cost-only results are shared — treat them as immutable.
        Executed results are always freshly lowered (see
        :class:`BuildCache` for why) and safe to run and mutate.
        """
        if cache is None:
            cache = _DEFAULT_CACHE
        return cache.get_or_build(self, n, threads, seed=seed, execute=execute)

    def memory_footprint_bytes(self, n: int) -> float:
        """Resident bytes the algorithm needs (operands + temporaries).

        Subclasses with intermediate buffers override this; the study
        driver uses it to refuse problems that exceed DRAM capacity —
        the paper's "both Strassen-derived approaches require additional
        intermediate result buffers that prevent us from running
        problems larger than 4096x4096" (§VI-A).
        """
        return working_set_bytes(n, matrices=3)

    def check_memory(self, n: int) -> None:
        """Raise when the problem cannot fit in machine memory."""
        need = self.memory_footprint_bytes(n)
        if not self.machine.dram.fits(need):
            raise ConfigurationError(
                f"{self.display_name}: n={n} needs {need / 2**30:.2f} GiB but "
                f"machine has {self.machine.dram.capacity_bytes / 2**30:.2f} GiB"
            )


def stamp_padded(
    interner: NameInterner,
    name: str,
    tpl: SubtreeTemplate,
    n: int,
    m: int,
    operands: tuple | None,
    walk: Callable[[np.ndarray, np.ndarray, np.ndarray, list], None],
    unpad_cost: TaskCost,
) -> TaskArena:
    """Stamp a recursive lowering's root template *tpl* (dimension
    ``m >= n``) as the arena *name*.

    With *operands* ``(A, B, C)``, ``walk(A, B, C, kernels)`` appends
    the template's kernels in emission order; a padded build (``m > n``)
    walks zero-padded copies and gains one trailing ``unpad`` row that
    copies the valid ``n x n`` block of the product back into C.
    """
    tb = TemplateBuilder(interner)
    terminal = tb.splice(tpl, ext=(), ext_creator=NO_CREATOR)
    if operands is None:
        return tb.to_arena(name)
    a, b, c = operands
    kernels: list = []
    if m == n:
        walk(a, b, c, kernels)
        return tb.to_arena(name, kernels)
    ap, _ = pad_to_power_of_two(a)
    bp, _ = pad_to_power_of_two(b)
    cp = np.zeros((m, m), dtype=np.float64)
    walk(ap, bp, cp, kernels)

    def unpad():
        c[:, :] = cp[:n, :n]

    tb.emit("unpad", unpad_cost, (terminal,))
    kernels.append(unpad)
    return tb.to_arena(name, kernels)
