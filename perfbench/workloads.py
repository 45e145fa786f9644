"""The four workloads: inputs from the seed, one untraced or traced pass
through the public API, and the correctness checks on what came back.

Every pass returns a :class:`PassOut`; :mod:`run` turns passes into
metrics.  Correctness problems are counted on the :class:`~harness.Gate`
the pass is given, never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import ROOT, Gate, diff_records
from layers import (
    PROBE,
    ThreadTracers,
    account,
    client_layers,
    netsim_layers,
    patched,
    study_layers,
)

DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT = ROOT / ".bench_out"
PERF = time.perf_counter

#: Table III package watts quoted by the paper (threads 1-4).
PAPER_TABLE3 = {
    "openblas": (20.2, 30.9, 40.98, 49.13),
    "strassen": (21.1, 26.25, 30.4, 31.9),
    "caps": (17.7, 25.75, 30.175, 33.175),
}

def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


@dataclass
class PassOut:
    """What one pass measured and produced."""

    wall_s: float
    op_s: list[float]  # latency of each operation
    outputs: dict  # everything the traced pass must reproduce exactly
    peak_rss_mb: float = 0.0
    setup_s: float | None = None  # service: start until first ping
    spans: list[dict] = field(default_factory=list)
    traced_wall_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    coverage_gap: float = 0.0  # unattributed share of the traced wall
    engine: str = ""


def self_peak_rss_mb() -> float:
    return proc_peak_rss_mb(os.getpid())


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of *pid* in MB (0.0 where ``/proc`` is unavailable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _setup_probe(jit: bool) -> list[str]:
    """Command of a fresh process that imports the API (and loads the
    JIT kernel), timed by ``run.py`` as set-up."""
    cmd = [sys.executable, str(Path(__file__).parent / "setup_probe.py")]
    return cmd + (["--jit"] if jit else [])


def _cell_clock(stamps: list):
    """Wrapper factory recording when each operation starts."""

    def make(original):
        def wrapper(*args, **kwargs):
            stamps.append(PERF())
            return original(*args, **kwargs)

        return wrapper

    return make


def _op_latencies(starts: list[float], end: float) -> list[float]:
    edges = starts + [end]
    return [b - a for a, b in zip(edges, edges[1:])]


def _span_wall(spans: list[dict], root: str) -> float:
    for sp in spans:
        if sp["name"] == root and sp.get("t_end") is not None:
            return sp["t_end"] - sp["t_start"]
    return 0.0


# ---- study grids ---------------------------------------------------------


class StudyWorkload:
    """``repro.api.Study.run`` over a grid, rendered to Tables II-IV."""

    transport = "in-process"

    def __init__(self, name, seed, *, engine, sizes, execute_max_n, verify,
                 threads=(1, 2, 3, 4), paper_check=False):
        self.name = name
        self.seed = seed
        self.engine = engine
        self.sizes = tuple(sizes)
        self.threads = tuple(threads)
        self.execute_max_n = execute_max_n
        self.verify = verify
        self.paper_check = paper_check
        self.ops_per_pass = 3 * len(self.sizes) * len(self.threads)
        self.expected = load_digests()

    def setup_probe(self) -> list[str]:
        return _setup_probe(jit=self.engine == "compiled")

    def setup(self, gate: Gate) -> None:
        if self.engine == "compiled":
            from repro.api import available_engines
            from repro.runtime.compiledpath import warm_compile

            ok = warm_compile() and available_engines()["compiled"][0]
            gate.check(ok, "compiled engine unavailable: the JIT kernel did not load")

    def _study(self):
        from repro.api import Study

        return Study(
            seed=self.seed,
            sizes=self.sizes,
            threads=self.threads,
            execute_max_n=self.execute_max_n,
            verify=self.verify,
        )

    def run_pass(self, gate: Gate, traced: bool, index: int = 0) -> PassOut:
        from repro.algorithms.base import MatmulAlgorithm, default_build_cache
        from repro.api import RunOptions
        from repro.core import report
        from repro.observability import trace
        from repro.observability.metrics import registry

        # Each `repro study` invocation starts with cold build and plan
        # caches (plans are cached on the lowered graphs).
        default_build_cache().clear()
        fallbacks = registry().get("engine.compiled_fallbacks")
        before = fallbacks.value if fallbacks is not None else 0.0
        study = self._study()
        options = RunOptions(engine=self.engine)
        gate.ops(self.ops_per_pass)
        starts: list[float] = []
        out = PassOut(0.0, [], {})
        try:
            if traced:
                with trace.tracing() as tracer, patched(study_layers(trace)):
                    with trace.span("bench.pass"):
                        run = study.run(options)
                        with trace.span("core.report"):
                            tables = _render(report, run.result)
                out.spans = tracer.export()
            else:
                with patched([(MatmulAlgorithm, "build_cached", _cell_clock(starts))]):
                    t0 = PERF()
                    run = study.run(options)
                    t_study = PERF()
                    tables = _render(report, run.result)
                    out.wall_s = PERF() - t0
                out.op_s = _op_latencies(starts, t_study)
        except Exception as exc:  # a crashed pass fails all its cells
            gate.fail(f"{self.name}: pass raised {type(exc).__name__}: {exc}",
                      self.ops_per_pass)
            return out
        after = fallbacks.value if fallbacks is not None else 0.0
        out.engine = self.engine
        if after != before:
            out.engine = f"fast (fell back from {self.engine})"
            gate.fail(f"{self.name}: engine.compiled_fallbacks rose by "
                      f"{after - before:g}; the pass measured the fast engine",
                      self.ops_per_pass)
        cells = _study_cells(run.result)
        out.outputs = {"cells": cells, "tables": tables}
        grid = [f"{a}/{n}/{p}" for a in ("openblas", "strassen", "caps")
                for n in self.sizes for p in self.threads]
        digest = self.expected["study_cells"]
        for line in diff_records(
            {k: digest[k] for k in grid if k in digest}, cells, self.name
        ):
            gate.fail(line)
        if self.paper_check:
            err = paper_err_pct(run.result)
            out.outputs["paper_err_pct"] = err
            gate.check(err == self.expected["paper_err_pct"],
                       f"{self.name}: paper_err_pct {err!r} != committed "
                       f"{self.expected['paper_err_pct']!r}")
        out.peak_rss_mb = self_peak_rss_mb()
        if traced:
            _study_ledger(out)
        return out


def _render(report, result) -> list[str]:
    return [
        report.table2_slowdown(result).to_ascii(),
        report.table3_power(result).to_ascii(),
        report.table4_ep(result).to_ascii(),
    ]


def _study_cells(result) -> dict:
    return {
        f"{alg}/{n}/{p}": {
            "makespan_s": m.elapsed_s,
            "package_j": m.energy.package,
            "pp0_j": m.energy.pp0,
            "dram_j": m.energy.dram,
        }
        for (alg, n, p), m in result.runs.items()
    }


def paper_err_pct(result) -> float:
    """Mean absolute relative error (%) of simulated Table III watts
    against the paper's twelve values."""
    errs = []
    for alg, paper in PAPER_TABLE3.items():
        sim = result.avg_power_by_threads(alg)
        for p, want in zip((1, 2, 3, 4), paper):
            errs.append(abs(sim[p] - want) / want)
    return 100.0 * sum(errs) / len(errs)


def _study_ledger(out: PassOut) -> None:
    led = account(out.spans)
    probe = led.total_s.get(PROBE, 0.0)
    out.traced_wall_s = _span_wall(out.spans, "bench.pass") - probe
    schedule = led.total_s.get("runtime.schedule", 0.0)
    out.layers = {
        "algorithms.lower_s": led.get("algorithms.lower"),
        "algorithms.tasks": led.counts.get("algorithms.lower", 0),
        "runtime.plan_s": schedule - probe,
        "runtime.sweep_s": probe,
        "runtime.assemble_s": led.get("runtime.assemble"),
        "runtime.intervals": led.counts.get("runtime.assemble", 0),
        "sim.measure_s": led.get("sim.measure"),
        "sim.segments": led.counts.get("sim.measure", 0),
        "linalg.verify_s": led.get("linalg.verify"),
        "core.report_s": led.get("core.report"),
    }
    attributed = sum(
        led.get(n) for n in ("algorithms.lower", "runtime.schedule", "runtime.assemble",
                             "sim.measure", "linalg.verify", "core.report")
    )
    out.coverage_gap = 1.0 - attributed / out.traced_wall_s if out.traced_wall_s else 1.0


# ---- network sweep -------------------------------------------------------


class NetsimWorkload:
    """2.5D SUMMA on a 2-D torus, n=16384, swept over rank counts."""

    transport = "in-process"

    def __init__(self, name, seed, *, ranks=(32, 128, 512, 2048), n=16384):
        self.name = name
        self.seed = seed
        self.n = n
        # The seed orders the rank counts; each count is simulated
        # independently, so the order changes no result.
        self.ranks = list(ranks)
        random.Random(seed).shuffle(self.ranks)
        self.ops_per_pass = len(self.ranks)
        self.expected = load_digests()["netsim"]

    def setup_probe(self) -> list[str]:
        return _setup_probe(jit=False)

    def setup(self, gate: Gate) -> None:
        pass

    def run_pass(self, gate: Gate, traced: bool, index: int = 0) -> PassOut:
        from repro.api import ClusterSpec, NetworkConfig, NetworkSweep, Topology
        from repro.distributed import netsim
        from repro.observability import trace

        sweep = NetworkSweep(
            ClusterSpec(topology=Topology("torus2d")), "summa25d", NetworkConfig(c=2)
        )
        gate.ops(self.ops_per_pass)
        starts: list[float] = []
        out = PassOut(0.0, [], {}, engine=sweep.engine)
        try:
            if traced:
                with trace.tracing() as tracer, patched(netsim_layers(trace)):
                    with trace.span("bench.pass"):
                        result = sweep.run(self.n, self.ranks)
                out.spans = tracer.export()
            else:
                with patched([(netsim, "build_events", _cell_clock(starts))]):
                    t0 = PERF()
                    result = sweep.run(self.n, self.ranks)
                    out.wall_s = PERF() - t0
                out.op_s = _op_latencies(starts, t0 + out.wall_s)
        except Exception as exc:
            gate.fail(f"{self.name}: pass raised {type(exc).__name__}: {exc}",
                      self.ops_per_pass)
            return out
        got = {str(r.ranks): netsim_record(r) for r in result.results}
        out.outputs = got
        for r in result.results:
            gate.check(not r.beats_bound(),
                       f"{self.name}: P={r.ranks} beats its Eq. 8 floor")
        for line in diff_records(
            {str(p): self.expected[str(p)] for p in self.ranks if str(p) in self.expected},
            got, self.name,
        ):
            gate.fail(line)
        out.peak_rss_mb = self_peak_rss_mb()
        if traced:
            led = account(out.spans)
            out.traced_wall_s = _span_wall(out.spans, "bench.pass")
            out.layers = {
                "distributed.lower_s": led.get("distributed.lower"),
                "distributed.events": led.counts.get("distributed.lower", 0),
                "runtime.events_sweep_s": led.get("runtime.events_sweep"),
                "runtime.events_aggregate_s": led.get("runtime.events_aggregate"),
            }
            attributed = sum(
                led.get(n) for n in ("distributed.lower", "runtime.events_sweep",
                                     "runtime.events_aggregate")
            )
            out.coverage_gap = 1.0 - attributed / out.traced_wall_s
        return out


def _hash(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def netsim_record(r) -> dict:
    return {
        "total_time_s": r.total_time_s,
        "n_events": r.n_events,
        "max_comm_bytes": r.max_comm_bytes,
        "floor_bytes": r.floor_bytes,
        "compute_s": _hash(r.compute_s),
        "sent_bytes": _hash(r.sent_bytes),
        "recv_bytes": _hash(r.recv_bytes),
    }


# ---- study service -------------------------------------------------------


class ServiceWorkload:
    """``repro serve`` in its own process; 2 closed-loop connections."""

    transport = "unix socket, JSON lines"

    ALGORITHMS = ("openblas", "strassen", "caps")
    CONNECTIONS = 2  # <= nproc on the 2-core reference host
    PINGS = 200
    REQUEST_SEED = 2015  # operand seed of every cell (part of the store key)

    def __init__(self, name, seed, *, sizes=(256, 512, 1024), requests=1000):
        self.name = name
        self.seed = seed
        self.sizes = tuple(sizes)
        self.requests = requests
        self.ops_per_pass = requests
        self.universe = len(self.ALGORITHMS) * len(self.sizes) * 4
        self.expected = load_digests()["study_cells"]

    def setup(self, gate: Gate) -> None:
        OUT.mkdir(exist_ok=True)

    def stream(self, pass_index: int) -> list[dict]:
        """This pass's requests: one algorithm x one size x a random
        non-empty subset of threads 1-4, cost-only.  Each pass draws
        its own stream from (seed, pass index)."""
        rng = random.Random(f"{self.seed}/{pass_index}")
        out = []
        for _ in range(self.requests):
            threads = sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 4)))
            out.append({
                "algorithms": [rng.choice(self.ALGORITHMS)],
                "sizes": [rng.choice(self.sizes)],
                "threads": threads,
                "seed": self.REQUEST_SEED,
                "execute_max_n": 0,
            })
        return out

    def _start(self, sock: str, store: Path, spans_path: Path | None):
        if store.exists():
            shutil.rmtree(store)
        store.mkdir(parents=True)
        if spans_path is not None and spans_path.exists():
            spans_path.unlink()  # never read a previous server's spans
        args = ["serve", "--socket", sock, "--store", str(store), "--workers", "0"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).parent / "serve_traced.py"),
                   str(spans_path), *args]
        log = (OUT / "server.log").open("ab")
        try:
            return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=log)
        finally:
            log.close()

    def _connect(self, proc, sock: str, deadline: float):
        from repro.service.server import ServiceClient
        from repro.util.errors import ServiceError

        while PERF() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited with {proc.returncode} before ready")
            try:
                client = ServiceClient(sock, timeout=60.0)
            except ServiceError:
                time.sleep(0.005)
                continue
            client.ping()
            return client
        raise RuntimeError("server not ready within 60 s")

    def run_pass(self, gate: Gate, traced: bool, index: int = 0) -> PassOut:
        """One stream against a fresh server with an empty store; the
        traced pass of a pair replays the untraced pass's *index*."""
        requests = self.stream(index)
        gate.ops(len(requests))
        sock = str((OUT / "svc.sock").relative_to(ROOT))
        store = OUT / "store"
        spans_path = OUT / "server-spans.json" if traced else None
        tracers = ThreadTracers()
        out = PassOut(0.0, [], {}, engine="fast")
        t0 = PERF()
        proc = self._start(sock, store, spans_path)
        client = None
        try:
            client = self._connect(proc, sock, t0 + 60.0)
            out.setup_s = PERF() - t0
            with patched(client_layers(tracers) if traced else []):
                latencies, replies, errors = self._drive(requests, sock, tracers)
                out.wall_s = PERF() - t0 - out.setup_s
                if traced:
                    for _ in range(self.PINGS):
                        client.ping()
            stats = client.stats()
            out.peak_rss_mb = proc_peak_rss_mb(proc.pid)
        except Exception as exc:
            gate.fail(f"{self.name}: pass {index} failed: {type(exc).__name__}: {exc}",
                      len(requests))
            return PassOut(0.0, [], {})
        finally:
            _stop(proc, client)
        out.op_s = latencies
        for message in errors:
            gate.fail(f"{self.name}: {message}")
        bad = 0
        for req, reply in zip(requests, replies):
            problems = [] if reply is None else self._reply_problems(req, reply)
            if problems:
                bad += 1
                gate.fail("; ".join(problems))
        out.outputs = {"bad_replies": bad, "errors": len(errors)}
        gate.check(stats.get("service.cells_computed") == self.universe,
                   f"{self.name}: service.cells_computed="
                   f"{stats.get('service.cells_computed')}, expected {self.universe}")
        gate.check(stats.get("store.corrupt") == 0,
                   f"{self.name}: store.corrupt={stats.get('store.corrupt')}")
        if traced:
            self._ledger(out, stats, tracers, spans_path, gate)
        return out

    def _drive(self, requests, sock, tracers):
        """Closed loop: each connection sends its next request only after
        the previous reply arrived."""
        from repro.service.cells import StudyRequest
        from repro.service.server import ServiceClient

        latencies: list[float] = []
        replies: list = [None] * len(requests)
        errors: list[str] = []
        lock = threading.Lock()

        def connection(k: int) -> None:
            lat = []
            try:
                with ServiceClient(sock, timeout=60.0) as cl:
                    for i in range(k, len(requests), self.CONNECTIONS):
                        req = StudyRequest.from_dict(requests[i])
                        t = PERF()
                        replies[i] = cl.query(req)
                        lat.append(PERF() - t)
            except Exception as exc:
                with lock:
                    errors.append(f"connection {k}: {type(exc).__name__}: {exc}")
            with lock:
                latencies.extend(lat)

        threads = [threading.Thread(target=connection, args=(k,))
                   for k in range(self.CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=150.0)
            if t.is_alive():
                errors.append("connection still running after 150 s")
        missing = sum(1 for r in replies if r is None)
        if missing:
            errors.append(f"{missing} requests got no reply")
        return latencies, replies, errors

    def _reply_problems(self, req: dict, reply: dict) -> list[str]:
        want = [f"{a}/{n}/{p}" for a in req["algorithms"] for n in req["sizes"]
                for p in req["threads"]]
        cells = reply.get("cells", [])
        got = {
            f"{c['algorithm']}/{c['n']}/{c['threads']}": {
                "makespan_s": c["elapsed_s"],
                "package_j": c["energy_package_j"],
                "pp0_j": c["energy_pp0_j"],
                "dram_j": c["energy_dram_j"],
            }
            for c in cells
        }
        if sorted(got) != sorted(want) or len(cells) != len(want):
            return [f"{self.name}: reply cells {sorted(got)} != requested {want}"]
        return diff_records({k: self.expected[k] for k in want}, got, self.name)

    def _ledger(self, out, stats, tracers, spans_path, gate) -> None:
        try:
            server_spans = json.loads(spans_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            gate.fail(f"{self.name}: server spans unreadable: {exc}")
            server_spans = []
        client_spans = tracers.export()
        out.spans = client_spans + _reindex(server_spans, len(client_spans))
        led = account(out.spans)
        out.traced_wall_s = out.wall_s
        requested = stats.get("service.cells_requested", 0.0)
        pings = led.durations.get("service.ping", [0.0])
        mean_ms = lambda name: 1e3 * led.total_s.get(name, 0.0) / max(led.calls.get(name, 0), 1)
        out.layers = {
            "resultstore.get_ms": mean_ms("resultstore.get"),
            "resultstore.put_ms": mean_ms("resultstore.put"),
            "resultstore.hit_ratio": stats.get("store.hits", 0.0) / requested if requested else 0.0,
            "service.ping_ms": 1e3 * sorted(pings)[len(pings) // 2],
            "service.compute_s": led.total_s.get("service.compute", 0.0),
            "service.batches": led.calls.get("service.compute", 0),
            "service.cells_computed": stats.get("service.cells_computed", 0.0),
            "service.cells_deduped": stats.get("service.cells_deduped", 0.0),
        }
        gate.check(led.calls.get("service.compute", 0) == stats.get("service.batches"),
                   f"{self.name}: {led.calls.get('service.compute', 0)} compute spans "
                   f"but service.batches={stats.get('service.batches')}")
        # Closed loop: each connection is always inside a request, so its
        # request spans must cover the stream's wall time.
        per_conn: dict[int, float] = {}
        for t_idx, tracer in enumerate(tracers.tracers):
            busy = sum(sp.duration_s for sp in tracer.spans if sp.name == "service.request")
            if busy:
                per_conn[t_idx] = busy
        covered = min(per_conn.values()) if per_conn else 0.0
        out.coverage_gap = 1.0 - covered / out.wall_s if out.wall_s else 1.0


def _reindex(spans: list[dict], offset: int) -> list[dict]:
    return [
        {**sp, "parent": None if sp.get("parent") is None else sp["parent"] + offset}
        for sp in spans
    ]


def _stop(proc, client) -> None:
    """Shut the server down and wait for it; kill it if it hangs."""
    try:
        if client is not None:
            client.shutdown()
            client.close()
        elif proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30.0)
    except (OSError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait(timeout=30.0)


def make(name: str, seed: int, smoke: bool = False):
    """The workload called *name*; ``smoke`` shrinks it to seconds."""
    if name == "paper-grid-compiled":
        return StudyWorkload(name, seed, engine="compiled",
                             sizes=(512,) if smoke else (512, 1024, 2048, 4096),
                             threads=(1, 2) if smoke else (1, 2, 3, 4),
                             execute_max_n=0, verify=False, paper_check=not smoke)
    if name == "executed-grid-fast":
        return StudyWorkload(name, seed, engine="fast",
                             sizes=(512,) if smoke else (512, 1024),
                             threads=(1, 2) if smoke else (1, 2, 3, 4),
                             execute_max_n=1024, verify=True)
    if name == "netsim-25d-torus":
        return NetsimWorkload(name, seed, ranks=(32, 128) if smoke else (32, 128, 512, 2048))
    if name == "service-mixed":
        return ServiceWorkload(name, seed, sizes=(256,) if smoke else (256, 512, 1024),
                               requests=60 if smoke else 1000)
    raise KeyError(name)


WORKLOADS = ("paper-grid-compiled", "executed-grid-fast", "netsim-25d-torus",
             "service-mixed")
