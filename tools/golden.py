#!/usr/bin/env python
"""Golden end-to-end digests of the paper's 48-cell study grid.

Every "bit-identical" guarantee elsewhere in the suite is differential
(reference vs fast vs compiled, serial vs parallel, store vs fresh).
All of those sides share the lowerings, ``Engine._measure`` and the
energy model, so a change to a shared layer moves every side together
and passes every oracle.  This tool pins the *values* instead: for each
cell of the cost-only paper grid (openblas/strassen/caps x n in
{512, 1024, 2048, 4096} x threads 1-4) it records the makespan, the
package/PP0/DRAM joules, the Eq. 1 EP ratio, the power-trace segment
count and the Eq. 5 scaling value with its classification.

A second golden pins the matmul *lowerings* themselves: for every
branch of the three algorithms (leaf, grain, odd-size peel, classic,
BFS/DFS crossover, packing on/off, blocked tiles) and for executed
padded builds that carry the trailing ``unpad`` row, it records one
sha256 per structural column of the lowered arena: the task names
resolved per tid, the dependency CSR, ``created_by``, ``untied`` and
the raw bytes of each cost column.

A third golden pins the scalar ``reference`` engine, the differential
oracle the fast and compiled kernels are checked against: the 12
cost-only n=512 paper cells run through ``Study`` on ``reference``,
the records and interval-array bytes of CAPS and Strassen-Winograd
schedules (n in {256, 512}, threads 2 and 4, every policy), and one
executed padded build.

A fourth golden pins the study service's content addresses: one fixed
``StudyRequest`` (executed and cost-only cells of all three algorithms)
served in-process (``workers=0``), with each cell's ``cell_key`` and a
sha256 over its whole measurement (label, makespan, plane joules,
flops, DRAM bytes, runtime stats and every power segment).

A fifth golden pins the network simulator's event lowering: for the
four event-simulated algorithms on every topology under every send
protocol (and chunked broadcasts), one sha256 over the seven stream
columns (kind, rank, peer, nbytes, durations and the dependency CSR),
one over the swept finish times, and the makespan, event count and
per-rank reductions.  It runs under an interconnect with a per-hop
latency and a finite eager threshold, so topology and protocol both
reach the durations (the default spec prices every hop count alike).

  python tools/golden.py            # compare fast, compiled, lowerings, reference, store keys, netsim
  python tools/golden.py --write    # regenerate all five goldens

``--write`` is the only way to regenerate the committed files; every
golden diff must be justified in CHANGES.md.  Comparison is exact
(floats round-trip through JSON ``repr``) and a mismatch prints one
line per differing cell and field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: The committed golden digests.
GOLDEN = ROOT / "tests" / "golden" / "paper_grid.json"

#: The committed lowering digests.
LOWERING_GOLDEN = ROOT / "tests" / "golden" / "lowerings.json"

#: The committed reference-engine digests.
REFERENCE_GOLDEN = ROOT / "tests" / "golden" / "reference.json"

#: The committed service store-key digests.
STORE_KEYS_GOLDEN = ROOT / "tests" / "golden" / "store_keys.json"

#: The committed network-simulator digests.
NETSIM_GOLDEN = ROOT / "tests" / "golden" / "netsim.json"

#: Per-cell fields, in report order.
FIELDS = (
    "makespan_s",
    "package_j",
    "pp0_j",
    "dram_j",
    "ep",
    "segments",
    "s",
    "scaling",
)


def grid_cells(engine: str, sizes: tuple[int, ...] | None = None) -> dict[str, dict]:
    """Run the cost-only paper grid (or its *sizes* rows) on *engine*;
    one record per cell, keyed ``"alg/n/threads"``."""
    from repro.api import RunOptions, Study
    from repro.core.study import PAPER_SIZES, PAPER_THREADS

    study = Study(
        sizes=sizes or PAPER_SIZES, threads=PAPER_THREADS, execute_max_n=0, verify=False
    )
    result = study.run(RunOptions(engine=engine)).result
    cells: dict[str, dict] = {}
    for alg in result.algorithm_names:
        for n in result.config.sizes:
            curve = {pt.parallelism: pt for pt in result.scaling_curve(alg, n)}
            for p in result.config.threads:
                m = result.measurement(alg, n, p)
                cells[f"{alg}/{n}/{p}"] = {
                    "makespan_s": m.elapsed_s,
                    "package_j": m.energy.package,
                    "pp0_j": m.energy.pp0,
                    "dram_j": m.energy.dram,
                    "ep": result.ep(alg, n, p),
                    "segments": len(m.trace),
                    "s": curve[p].s,
                    "scaling": curve[p].scaling_class.value,
                }
    return cells


def diff_cells(expected: dict, actual: dict, label: str) -> list[str]:
    """One line per missing/extra cell and per differing field."""
    lines = []
    for key in expected:
        if key not in actual:
            lines.append(f"{label} {key}: missing from the run")
            continue
        for field in FIELDS:
            want = expected[key].get(field)
            got = actual[key].get(field)
            if want != got:
                lines.append(f"{label} {key} {field}: golden {want!r}, got {got!r}")
    for key in actual:
        if key not in expected:
            lines.append(f"{label} {key}: not in the golden")
    return lines


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


#: Lowering golden cells: key -> (algorithm, constructor kwargs, n,
#: threads, execute).  Every branch of the three lowerings appears at
#: least once; the executed cells include padded sizes (strassen n=100,
#: caps n=96) whose arena ends in the ``unpad`` row.
LOWERING_CELLS: dict[str, tuple[str, dict, int, int, bool]] = {
    **{f"strassen/{n}/{p}": ("strassen", {}, n, p, False)
       for n in (64, 100, 128, 256, 512) for p in (1, 3)},
    "strassen-classic/256/2": ("strassen", {"classic": True}, 256, 2, False),
    "strassen-peel/200/2": ("strassen", {"odd_strategy": "peel"}, 200, 2, False),
    "strassen-peel/1000/4": ("strassen", {"odd_strategy": "peel"}, 1000, 4, False),
    "strassen-peel/261/2": ("strassen", {"odd_strategy": "peel"}, 261, 2, False),
    **{f"caps/{n}/{p}": ("caps", {}, n, p, False)
       for n in (64, 128, 256, 512) for p in (1, 4)},
    "caps-nopack/256/2": ("caps", {"pack": False}, 256, 2, False),
    **{f"caps-depth{d}/512/3": ("caps", {"cutoff_depth": d}, 512, 3, False)
       for d in (0, 1, 10)},
    **{f"openblas/{n}/4": ("openblas", {}, n, 4, False) for n in (96, 512)},
    "exec/strassen/48/2": ("strassen", {}, 48, 2, True),
    "exec/strassen/100/2": ("strassen", {}, 100, 2, True),
    "exec/strassen/512/3": ("strassen", {}, 512, 3, True),
    "exec/strassen-classic/256/2": ("strassen", {"classic": True}, 256, 2, True),
    "exec/strassen-peel/261/2": ("strassen", {"odd_strategy": "peel"}, 261, 2, True),
    "exec/caps/96/2": ("caps", {}, 96, 2, True),
    "exec/caps/256/3": ("caps", {}, 256, 3, True),
    "exec/caps-nopack/256/3": ("caps", {"pack": False}, 256, 3, True),
    "exec/caps-depth0/512/3": ("caps", {"cutoff_depth": 0}, 512, 3, True),
    "exec/caps-depth1/512/2": ("caps", {"cutoff_depth": 1}, 512, 2, True),
    "exec/openblas/96/3": ("openblas", {}, 96, 3, True),
}

#: Per-lowering fields, in report order.
LOWERING_FIELDS = (
    "graph",
    "tasks",
    "variant",
    "cutoff",
    "names",
    "deps",
    "created_by",
    "untied",
    "flops",
    "efficiency",
    "bytes_l1",
    "bytes_l2",
    "bytes_l3",
    "bytes_dram",
)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def lowering_digest(build) -> dict:
    """One sha256 per structural column of *build*'s lowered arena."""
    import numpy as np

    arena = build.graph
    i64 = lambda a: np.ascontiguousarray(a, dtype="<i8").tobytes()  # noqa: E731
    rec = {
        "graph": arena.name,
        "tasks": len(arena),
        "variant": build.variant,
        "cutoff": build.cutoff,
        "names": _sha("\n".join(arena.names_list()).encode()),
        "deps": _sha(i64(arena.dep_indptr), b"|", i64(arena.dep_indices)),
        "created_by": _sha(i64(arena.created_by)),
        "untied": _sha(np.ascontiguousarray(arena.untied, dtype=np.uint8).tobytes()),
    }
    for field in LOWERING_FIELDS[8:]:
        rec[field] = _sha(np.ascontiguousarray(getattr(arena, field), dtype="<f8").tobytes())
    return rec


def make_lowering(key: str):
    """Lower the :data:`LOWERING_CELLS` entry *key* on a fresh instance."""
    from repro.algorithms.registry import make_algorithm
    from repro.machine import haswell_e3_1225

    name, kwargs, n, threads, execute = LOWERING_CELLS[key]
    alg = make_algorithm(name, haswell_e3_1225(), **kwargs)
    return alg.build(n, threads, execute=execute)


def lowering_cells() -> dict[str, dict]:
    """Lower every :data:`LOWERING_CELLS` entry; one digest per cell."""
    return {key: lowering_digest(make_lowering(key)) for key in LOWERING_CELLS}


def diff_lowerings(expected: dict, actual: dict) -> list[str]:
    """One line per missing/extra cell and per differing field."""
    lines = []
    for key in expected:
        if key not in actual:
            lines.append(f"lowering {key}: missing from the run")
            continue
        for field in LOWERING_FIELDS:
            want = expected[key].get(field)
            got = actual[key].get(field)
            if want != got:
                lines.append(f"lowering {key} {field}: golden {want!r}, got {got!r}")
    for key in actual:
        if key not in expected:
            lines.append(f"lowering {key}: not in the golden")
    return lines


def load_lowering_golden() -> dict:
    return json.loads(LOWERING_GOLDEN.read_text())


#: Reference schedule cells: key -> (algorithm, n, threads, policy,
#: execute).  The executed cell is padded (n=100 stamps the n=128 DAG
#: plus one ``unpad`` row), so its kernels run in reference order.
SCHEDULE_CELLS: dict[str, tuple[str, int, int, str, bool]] = {
    **{f"{alg}/{n}/{p}/{policy}": (alg, n, p, policy, False)
       for alg in ("caps", "strassen")
       for n in (256, 512)
       for p in (2, 4)
       for policy in ("fifo", "lifo", "critical", "steal")},
    "exec/strassen/100/2/fifo": ("strassen", 100, 2, "fifo", True),
}

#: Per-schedule fields, in report order.
SCHEDULE_FIELDS = ("makespan_s", "records", "intervals", "interval_bytes", "verified")


def schedule_digest(schedule) -> dict:
    """Makespan plus one sha256 over the task records (tid, name, core,
    start, end) and one over the raw ``interval_array`` bytes."""
    import numpy as np

    recs = schedule.records
    cols = [np.array([getattr(r, f) for r in recs], dtype=dt)
            for f, dt in (("tid", "<i8"), ("core", "<i8"), ("start", "<f8"), ("end", "<f8"))]
    arr = np.ascontiguousarray(schedule.interval_array, dtype="<f8")
    return {
        "makespan_s": schedule.makespan,
        "records": _sha("\n".join(r.name for r in recs).encode(),
                        *(b"|" + c.tobytes() for c in cols)),
        "intervals": len(arr),
        "interval_bytes": _sha(arr.tobytes()),
    }


def reference_schedules() -> dict[str, dict]:
    """Schedule every :data:`SCHEDULE_CELLS` entry on ``reference``."""
    from repro.algorithms.registry import make_algorithm
    from repro.machine import haswell_e3_1225
    from repro.runtime.scheduler import Scheduler

    machine = haswell_e3_1225()
    out: dict[str, dict] = {}
    for key, (name, n, threads, policy, execute) in SCHEDULE_CELLS.items():
        build = make_algorithm(name, machine).build(n, threads, execute=execute)
        sched = Scheduler(machine, threads, policy=policy, execute=execute,
                          engine="reference")
        rec = schedule_digest(sched.run(build.graph))
        rec["verified"] = bool(build.verify().ok) if execute else None
        out[key] = rec
    return out


def reference_cells() -> dict[str, dict]:
    """The reference golden: the n=512 paper cells plus the schedules."""
    return {"grid": grid_cells("reference", sizes=(512,)),
            "schedules": reference_schedules()}


def diff_reference(expected: dict, actual: dict) -> list[str]:
    """:func:`diff_cells` over the grid half, field-by-field over the
    schedule half."""
    lines = diff_cells(expected["grid"], actual["grid"], "reference")
    want, got = expected["schedules"], actual["schedules"]
    for key in want:
        if key not in got:
            lines.append(f"schedule {key}: missing from the run")
            continue
        for field in SCHEDULE_FIELDS:
            if want[key].get(field) != got[key].get(field):
                lines.append(f"schedule {key} {field}: golden "
                             f"{want[key].get(field)!r}, got {got[key].get(field)!r}")
    lines += [f"schedule {key}: not in the golden" for key in got if key not in want]
    return lines


def load_reference_golden() -> dict:
    return json.loads(REFERENCE_GOLDEN.read_text())


#: The request the store-key golden serves: n=64 cells execute and
#: verify, n=256 cells are cost-only.
STORE_REQUEST = {
    "algorithms": ("openblas", "strassen", "caps"),
    "sizes": (64, 256),
    "threads": (1, 2),
    "seed": 2015,
    "execute_max_n": 64,
}

#: Per-cell store-key fields, in report order.
STORE_KEY_FIELDS = ("key", "execute", "measurement")


def measurement_digest(m) -> str:
    """sha256 over every observable of one :class:`RunMeasurement`
    (floats through JSON ``repr``, so the digest is bit-exact)."""
    from dataclasses import asdict

    from repro.core.resultstore import canonical_json

    payload = {
        "label": m.label,
        "threads": m.threads,
        "elapsed_s": m.elapsed_s,
        "energy": [m.energy.package, m.energy.pp0, m.energy.dram],
        "flops": m.flops,
        "bytes_dram": m.bytes_dram,
        "stats": asdict(m.stats),
        "segments": [
            [seg.t_start, seg.t_end, {plane.value: w for plane, w in seg.watts.items()}]
            for seg in m.trace.segments
        ],
    }
    return _sha(canonical_json(payload).encode())


def store_key_cells(workers: int = 0) -> dict[str, dict]:
    """Serve :data:`STORE_REQUEST` from a service with no store (in
    process by default, or over a pool of *workers*); one record per
    cell, keyed ``"alg/n/threads"``."""
    import asyncio

    from repro.service import ServiceConfig, StudyRequest, StudyService

    async def serve():
        async with StudyService(config=ServiceConfig(workers=workers)) as svc:
            return await svc.query(StudyRequest(**STORE_REQUEST))

    return {
        f"{c.spec.algorithm}/{c.spec.n}/{c.spec.threads}": {
            "key": c.key,
            "execute": c.spec.execute,
            "measurement": measurement_digest(c.measurement),
        }
        for c in asyncio.run(serve()).cells
    }


def diff_store_keys(expected: dict, actual: dict) -> list[str]:
    """One line per missing/extra cell and per differing field."""
    lines = []
    for key in expected:
        if key not in actual:
            lines.append(f"store {key}: missing from the run")
            continue
        for field in STORE_KEY_FIELDS:
            want = expected[key].get(field)
            got = actual[key].get(field)
            if want != got:
                lines.append(f"store {key} {field}: golden {want!r}, got {got!r}")
    for key in actual:
        if key not in expected:
            lines.append(f"store {key}: not in the golden")
    return lines


def load_store_keys_golden() -> dict:
    return json.loads(STORE_KEYS_GOLDEN.read_text())


#: Network golden schedules: algorithm -> (n, ranks, c).  Sizes are
#: picked so that ``auto`` mixes protocols where a schedule has more
#: than one message size (summa25d: 51200-byte reductions stay eager,
#: 102400-byte replications go rendezvous) and chunking crosses the
#: 65536-byte threshold (summa: 131072-byte panels, 32768-byte chunks).
NETSIM_SCHEDULES: dict[str, tuple[int, int, int]] = {
    "summa": (1024, 64, 1),
    "summa25d": (640, 128, 2),
    "summa15d": (1024, 128, 2),
    "caps-dist": (1024, 343, 1),
}

#: Per-netsim-cell fields, in report order.
NETSIM_FIELDS = (
    "stream",
    "finish",
    "total_time_s",
    "n_events",
    "compute_s",
    "sent_bytes",
    "recv_bytes",
)


def netsim_interconnect():
    """The golden's interconnect: a per-hop latency and a finite eager
    threshold on top of the default alpha-beta spec."""
    from repro.distributed import InterconnectSpec

    return InterconnectSpec(hop_latency_s=5e-7, eager_threshold_bytes=65536)


def netsim_digest(prog) -> dict:
    """Stream-column and finish-time hashes plus the reductions of one
    :class:`~repro.runtime.rankevents.RankEventProgram`."""
    import numpy as np

    i64 = lambda a: np.ascontiguousarray(a, dtype="<i8").tobytes()  # noqa: E731
    f64 = lambda a: np.ascontiguousarray(a, dtype="<f8").tobytes()  # noqa: E731
    finish = prog.finish_times("events")
    agg = prog.aggregate(finish)
    return {
        "stream": _sha(i64(prog.kind), b"|", i64(prog.rank), b"|", i64(prog.peer),
                       b"|", f64(prog.nbytes), b"|", f64(prog.durations),
                       b"|", i64(prog.arena.dep_indptr), b"|",
                       i64(prog.arena.dep_indices)),
        "finish": _sha(f64(finish)),
        "total_time_s": agg.total_s,
        "n_events": prog.n_events,
        "compute_s": _sha(f64(agg.compute_s)),
        "sent_bytes": _sha(f64(agg.sent_bytes)),
        "recv_bytes": _sha(f64(agg.recv_bytes)),
    }


def netsim_programs():
    """Yield ``(key, thunk)`` for every network golden cell; the thunk
    lowers that cell's event program."""
    from repro.distributed import ClusterSpec, NetworkConfig, Topology, TOPOLOGY_KINDS
    from repro.distributed.bsp import caps_program
    from repro.distributed.netsim import broadcast_events, bsp_events, build_events

    spec = netsim_interconnect()
    for alg, (n, ranks, c) in NETSIM_SCHEDULES.items():
        for topo in TOPOLOGY_KINDS:
            cluster = ClusterSpec(interconnect=spec, topology=Topology(topo))
            variants = [(proto, 1) for proto in ("eager", "rendezvous", "auto")]
            for proto, chunks in variants + [("auto", 4)]:
                cfg = NetworkConfig(protocol=proto, chunks=chunks, c=c)
                key = f"{alg}/{topo}/{proto}" + (f"/chunks{chunks}" if chunks > 1 else "")
                yield key, (lambda cl=cluster, a=alg, n=n, r=ranks, cfg=cfg:
                            build_events(cl, a, n, r, cfg))
    # The perfbench netsim-25d-torus cell at its largest rank count.
    yield "perfbench/summa25d/torus2d/c2/2048", lambda: build_events(
        ClusterSpec(topology=Topology("torus2d")), "summa25d", 16384, 2048,
        NetworkConfig(c=2))
    torus = ClusterSpec(interconnect=spec, topology=Topology("torus2d"))
    yield "broadcast/torus2d/100", lambda: broadcast_events(torus, 100, 300000.0)
    yield "bsp/caps/49", lambda: bsp_events(
        torus, caps_program(torus, 1024, 49, imbalance=0.25))


def netsim_cells() -> dict[str, dict]:
    """Lower and sweep every network golden cell; one digest per cell."""
    return {key: netsim_digest(make()) for key, make in netsim_programs()}


def diff_netsim(expected: dict, actual: dict) -> list[str]:
    """One line per missing/extra cell and per differing field."""
    lines = []
    for key in expected:
        if key not in actual:
            lines.append(f"netsim {key}: missing from the run")
            continue
        for field in NETSIM_FIELDS:
            want = expected[key].get(field)
            got = actual[key].get(field)
            if want != got:
                lines.append(f"netsim {key} {field}: golden {want!r}, got {got!r}")
    for key in actual:
        if key not in expected:
            lines.append(f"netsim {key}: not in the golden")
    return lines


def load_netsim_golden() -> dict:
    return json.loads(NETSIM_GOLDEN.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the golden from the fast engine, after "
                    "checking that compiled agrees with it")
    args = ap.parse_args(argv)
    from repro.runtime.compiledpath import compiled_available

    engines = ["fast", "compiled"]
    ok, reason = compiled_available()
    if not ok:
        print(f"skipping compiled: {reason}")
        engines.remove("compiled")
    runs = {engine: grid_cells(engine) for engine in engines}

    if args.write:
        cells = runs["fast"]
        for engine, other in runs.items():
            lines = diff_cells(cells, other, engine)
            if lines:
                print("\n".join(lines))
                print(f"refusing to write: {engine} disagrees with fast")
                return 1
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        doc = {"grid": "paper, cost-only, haswell_e3_1225", "cells": cells}
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(cells)} cells to {GOLDEN.relative_to(ROOT)}")
        lowerings = lowering_cells()
        doc = {"machine": "haswell_e3_1225", "cells": lowerings}
        LOWERING_GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(lowerings)} lowerings to {LOWERING_GOLDEN.relative_to(ROOT)}")
        reference = reference_cells()
        doc = {"engine": "reference", "machine": "haswell_e3_1225", **reference}
        REFERENCE_GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(reference['grid'])} cells and "
              f"{len(reference['schedules'])} schedules to "
              f"{REFERENCE_GOLDEN.relative_to(ROOT)}")
        store_keys = store_key_cells()
        doc = {"machine": "haswell_e3_1225", "engine": "fast", "workers": 0,
               "request": STORE_REQUEST, "cells": store_keys}
        STORE_KEYS_GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(store_keys)} cells to {STORE_KEYS_GOLDEN.relative_to(ROOT)}")
        netsim = netsim_cells()
        spec = netsim_interconnect()
        doc = {"interconnect": {"hop_latency_s": spec.hop_latency_s,
                                "eager_threshold_bytes": spec.eager_threshold_bytes},
               "cells": netsim}
        NETSIM_GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(netsim)} cells to {NETSIM_GOLDEN.relative_to(ROOT)}")
        return 0

    golden = load_golden()["cells"]
    lines = [
        line
        for engine, cells in runs.items()
        for line in diff_cells(golden, cells, engine)
    ]
    lines += diff_lowerings(load_lowering_golden()["cells"], lowering_cells())
    lines += diff_reference(load_reference_golden(), reference_cells())
    lines += diff_store_keys(load_store_keys_golden()["cells"], store_key_cells())
    lines += diff_netsim(load_netsim_golden()["cells"], netsim_cells())
    print("\n".join(lines)
          or f"golden matches ({', '.join(runs)}, lowerings, reference, store keys, netsim)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
