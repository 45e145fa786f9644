"""Per-layer spans recorded from outside the program.

The benchmark does not instrument ``src/``.  For the traced pass it
swaps each layer's public entry point for a wrapper that opens a span
(through the public :mod:`repro.observability.trace` API) around the
original call, and restores the original afterwards.  The program's own
spans are recorded alongside; accounting below looks only at the spans
named in :data:`LAYER_SPANS`.

``runtime.plan`` and ``runtime.sweep`` cannot be told apart from
outside one ``Scheduler.run`` call, so the wrapper runs the same
scheduler on the same graph a second time right after the first call.
The repeat finds the plan the first call cached, so it costs only the
sweep; the first call minus the repeat is plan building.  Repeats are
recorded under :data:`PROBE` and subtracted from the traced wall time.
Executed graphs may be swept twice because every compute closure
assigns its output block (none accumulates), so the repeat rewrites
the same values.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

#: Span name of the scheduler repeat (time outside the program's run).
PROBE = "runtime.sweep"

#: The benchmark's own span names, by layer.
LAYER_SPANS = (
    "algorithms.lower",
    "runtime.schedule",
    "runtime.assemble",
    "sim.measure",
    "linalg.verify",
    "core.report",
    "distributed.lower",
    "runtime.events_sweep",
    "runtime.events_aggregate",
    "resultstore.get",
    "resultstore.put",
    "service.compute",
    "service.ping",
    "service.request",
)

#: Which end-to-end metric on which workload each per-layer metric
#: should move (written down before measuring; printed with the table).
LAYER_MAP = {
    "algorithms.lower_s": "wall_s, peak_rss_mb on executed-grid-fast; ~0 on paper-grid-compiled",
    "algorithms.tasks": "wall_s, peak_rss_mb on executed-grid-fast",
    "runtime.plan_s": "wall_s on paper-grid-compiled",
    "runtime.sweep_s": "wall_s on executed-grid-fast; small share on paper-grid-compiled",
    "runtime.assemble_s": "wall_s on paper-grid-compiled",
    "runtime.intervals": "wall_s on paper-grid-compiled",
    "sim.measure_s": "wall_s on paper-grid-compiled",
    "sim.segments": "wall_s on paper-grid-compiled",
    "linalg.verify_s": "wall_s on executed-grid-fast",
    "core.report_s": "wall_s on both study workloads (negligible)",
    "distributed.lower_s": "wall_s on netsim-25d-torus",
    "distributed.events": "wall_s on netsim-25d-torus",
    "runtime.events_sweep_s": "wall_s on netsim-25d-torus",
    "runtime.events_aggregate_s": "wall_s on netsim-25d-torus",
    "resultstore.get_ms": "op_p50_ms, wall_s on service-mixed",
    "resultstore.put_ms": "op_p50_ms, wall_s on service-mixed",
    "resultstore.hit_ratio": "op_p50_ms, wall_s on service-mixed",
    "service.ping_ms": "op_p50_ms on service-mixed (protocol floor)",
    "service.compute_s": "op_p99_ms (printed, not gated) on service-mixed",
    "service.batches": "op_p99_ms (printed, not gated) on service-mixed",
    "service.cells_computed": "op_p99_ms (printed, not gated) on service-mixed",
    "service.cells_deduped": "op_p99_ms (printed, not gated) on service-mixed",
}


def _wrap(owner, attr: str, make, patches: list) -> None:
    original = owner.__dict__[attr]
    patches.append((owner, attr, original))
    setattr(owner, attr, make(original))


@contextlib.contextmanager
def patched(specs):
    """Install ``(owner, attr, make_wrapper)`` patches; undo them on exit."""
    patches: list = []
    try:
        for owner, attr, make in specs:
            _wrap(owner, attr, make, patches)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _timed(name: str, span, count=None):
    """Wrapper factory: a span named *name* around each call; *count*
    maps the call's result to a work-count attribute."""

    def make(original):
        def wrapper(*args, **kwargs):
            with span(name) as sp:
                out = original(*args, **kwargs)
                if count is not None:
                    sp.set(count=count(out))
                return out

        return wrapper

    return make


def study_layers(trace):
    """Patches for the study path (lower → plan/sweep → assemble →
    measure → verify).  ``core.report`` is spanned by the caller."""
    from repro.algorithms.base import BuildResult, MatmulAlgorithm
    from repro.runtime.scheduler import Schedule, Scheduler
    from repro.sim.engine import Engine

    span = trace.span

    def schedule(original):
        def wrapper(self, graph):
            with span("runtime.schedule"):
                out = original(self, graph)
            with span(PROBE):
                original(self, graph)
            return out

        return wrapper

    def assemble(prop):
        getter = prop.fget

        def fget(self):
            if self._raw_intervals is not None:
                return getter(self)
            with span("runtime.assemble") as sp:
                rows = getter(self)
                sp.set(count=len(rows))
            return rows

        return property(fget, doc=prop.__doc__)

    return [
        (MatmulAlgorithm, "build_cached",
         _timed("algorithms.lower", span, lambda b: len(b.graph))),
        (Scheduler, "run", schedule),
        (Schedule, "raw_intervals", assemble),
        (Engine, "measure", _timed("sim.measure", span, lambda m: len(m.trace))),
        (BuildResult, "verify", _timed("linalg.verify", span)),
    ]


def netsim_layers(trace):
    """Patches for the network path (lower → sweep → aggregate)."""
    from repro.distributed import netsim
    from repro.runtime.rankevents import RankEventProgram

    span = trace.span
    return [
        (netsim, "build_events",
         _timed("distributed.lower", span, lambda p: p.n_events)),
        (RankEventProgram, "finish_times", _timed("runtime.events_sweep", span)),
        (RankEventProgram, "aggregate", _timed("runtime.events_aggregate", span)),
    ]


class ThreadTracers:
    """One :class:`~repro.observability.trace.Tracer` per thread.

    The service answers on its event loop and computes in a worker
    thread; a tracer keeps a single nesting stack, so each thread gets
    its own and the spans are merged when the run ends.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.tracers: list = []

    def span(self, name: str, **attrs):
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            from repro.observability.trace import Tracer

            tracer = self._local.tracer = Tracer()
            with self._lock:
                self.tracers.append(tracer)
        return tracer.span(name, **attrs)

    def export(self) -> list[dict]:
        with self._lock:
            return [s for t in self.tracers for s in t.export()]


def service_layers(tracers: ThreadTracers):
    """Server-side patches (store lookups and writes, batch computes)."""
    from repro.core.resultstore import ResultStore
    from repro.service.executor import CellExecutor

    span = tracers.span
    return [
        (ResultStore, "get", _timed("resultstore.get", span)),
        (ResultStore, "put", _timed("resultstore.put", span)),
        (CellExecutor, "compute", _timed("service.compute", span, len)),
    ]


def client_layers(tracers: ThreadTracers):
    from repro.service.server import ServiceClient

    span = tracers.span
    return [
        (ServiceClient, "ping", _timed("service.ping", span)),
        (ServiceClient, "query", _timed("service.request", span)),
    ]


# ---- accounting -----------------------------------------------------------


@dataclass
class Ledger:
    """Self time and work counts per layer span name."""

    self_s: dict[str, float] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    durations: dict[str, list] = field(default_factory=dict)

    def get(self, name: str) -> float:
        return self.self_s.get(name, 0.0)


def account(spans: list[dict], names=LAYER_SPANS + (PROBE,)) -> Ledger:
    """Self time of every span named in *names*: its duration minus the
    durations of its nearest descendants that are also in *names*.

    *spans* are exported span dicts (``parent`` indexes the same list),
    as :meth:`Tracer.export` returns them.
    """
    names = set(names)
    ledger = Ledger()
    owner: list[int | None] = []  # nearest owned ancestor of each span
    for sp in spans:
        parent = sp.get("parent")
        if parent is None:
            owner.append(None)
        elif spans[parent]["name"] in names:
            owner.append(parent)
        else:
            owner.append(owner[parent])
    child_s = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp["name"] in names and owner[i] is not None and sp.get("t_end") is not None:
            child_s[owner[i]] += sp["t_end"] - sp["t_start"]
    for i, sp in enumerate(spans):
        name = sp["name"]
        if name not in names or sp.get("t_end") is None:
            continue
        dur = sp["t_end"] - sp["t_start"]
        ledger.total_s[name] = ledger.total_s.get(name, 0.0) + dur
        ledger.self_s[name] = ledger.self_s.get(name, 0.0) + dur - child_s[i]
        ledger.calls[name] = ledger.calls.get(name, 0) + 1
        ledger.durations.setdefault(name, []).append(dur)
        if "count" in sp.get("attrs", {}):
            ledger.counts[name] = ledger.counts.get(name, 0) + sp["attrs"]["count"]
    return ledger
