#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with a per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid-compiled --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
and reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates an untraced and a traced pass on the same
inputs and reports the per-layer metrics; it also checks that both
passes produced identical results, that the layer self times account
for the traced wall time, and that the written Chrome trace passes
``tools/trace.py --validate``.  ``--workload all`` runs every workload
in this one process.  ``--smoke`` shrinks every workload to seconds.

Every output is checked (committed digests, Eq. 8 floors, numerical
verification, service counters).  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any check failed, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import gc
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed over this many fresh processes; the median is reported.
SETUP_SAMPLES = 5


def pin_environment() -> None:
    """One BLAS/OpenMP thread in every process, and the JIT cache and
    temporary files kept inside the checkout.  Must run before numpy is
    imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    build = ROOT / ".bench_build"
    os.environ["REPRO_JIT_CACHE"] = str(build / "repro-jit")
    os.environ["TMPDIR"] = str(build / "tmp")  # the C compiler's scratch files
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(path)
    sys.path.insert(0, str(SRC))


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (harness tests); digests still checked")
    return ap.parse_args(argv)


def time_setup(cmd: list[str]) -> float:
    """Seconds from spawning *cmd* until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe printed {line!r}, exit {proc.returncode}")
    return elapsed


def _budget(seconds: float):
    """Pass indices for a run of *seconds*: a pass starts only when one
    more, as long as the longest so far, still fits.  Every pass starts
    from a collected heap, so garbage left by the last one is not
    charged to the next."""
    t0 = time.perf_counter()
    longest = 0.0
    index = 0
    while index == 0 or time.perf_counter() - t0 + longest <= seconds:
        gc.collect()
        start = time.perf_counter()
        yield index
        longest = max(longest, time.perf_counter() - start)
        index += 1


def end_to_end(wl, args, gate, spec):
    from harness import Metric, median, percentile

    setups: list[float] = []
    wl.setup(gate)
    if hasattr(wl, "setup_probe"):
        for _ in range(SETUP_SAMPLES):
            try:
                setups.append(time_setup(wl.setup_probe()))
            except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
                gate.fail(f"{wl.name}: set-up probe failed: {exc}")
    passes = []
    for index in _budget(args.seconds):
        out = wl.run_pass(gate, traced=False, index=index)
        if out.wall_s <= 0.0:
            break  # the pass failed; the gate has counted it
        passes.append(out)
        if out.setup_s is not None:
            setups.append(out.setup_s)
    if not passes or not setups:
        return None, passes
    walls = [p.wall_s for p in passes]
    wall = median(walls)
    # The median operation of each pass, then the median pass: pooling
    # would interpolate between unlike operations (a 128-rank and a
    # 512-rank sweep).  The tail pools every pass, so that it rests on
    # as many samples beyond it as the run has.
    p50s = [median(p.op_s) * 1e3 for p in passes]
    p99 = percentile([1e3 * s for p in passes for s in p.op_s], 99)
    rss = [p.peak_rss_mb for p in passes]
    values = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "wall_s": Metric(wall, "s", len(walls),
                         f"median of {len(walls)} passes; {wl.ops_per_pass / wall:.4g} ops/s"),
        "op_p50_ms": Metric(median(p50s), "ms", len(p50s) * wl.ops_per_pass,
                            f"median over {len(p50s)} passes of each pass's p50"),
        "peak_rss_mb": Metric(median(rss), "MB", len(rss)),
        # Printed, not gated: on a shared 2-vCPU host the cold-request
        # tail moves with host load by more than any bound allows.
        "op_p99_ms": Metric(p99.value, "ms", p99.samples, p99.describe()),
    }
    return values, passes


def per_layer(wl, args, gate, spec):
    from harness import Metric, median

    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    wl.setup(gate)
    pairs = []
    for index in _budget(args.seconds):
        plain = wl.run_pass(gate, traced=False, index=index)
        gc.collect()
        traced = wl.run_pass(gate, traced=True, index=index)
        if plain.wall_s <= 0.0 or traced.traced_wall_s <= 0.0:
            break
        gate.check(plain.outputs == traced.outputs,
                   f"{wl.name}: traced pass results differ from the untraced pass")
        gate.check(traced.coverage_gap <= bound,
                   f"{wl.name}: layer self times leave {100 * traced.coverage_gap:.1f}% "
                   f"of the traced wall time unattributed (bound {100 * bound:.0f}%)")
        traced.layers["bench.trace_overhead_pct"] = (
            100.0 * (traced.traced_wall_s - plain.wall_s) / plain.wall_s)
        traced.layers["bench.unattributed_pct"] = 100.0 * traced.coverage_gap
        pairs.append((plain, traced))
    if not pairs:
        return None, []
    _write_trace(wl, args, pairs[-1][1], gate)
    values = {
        m["name"]: Metric(median([t.layers.get(m["name"], 0.0) for _, t in pairs]),
                          m["unit"], len(pairs))
        for m in spec["per_layer"]
    }
    return values, [p for pair in pairs for p in pair]


def _write_trace(wl, args, traced, gate) -> None:
    """Chrome trace of the traced pass, checked by ``tools/trace.py``."""
    from harness import provenance
    from repro.observability.export import write_trace_json
    from repro.runtime.compiledpath import compiled_cc

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{wl.name}-trace.json"
    write_trace_json(path, traced.spans, metrics={}, meta={
        "command": f"perfbench/run.py --workload {wl.name}",
        "parallel": 0,
        "wall_s": traced.traced_wall_s,
        **provenance(args.seed, {"engine": traced.engine, "transport": wl.transport,
                                 "cc": compiled_cc() or "absent"}),
    })
    tool = ROOT / "tools" / "trace.py"
    try:
        proc = subprocess.run([sys.executable, str(tool), str(path), "--validate"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        ok, detail = proc.returncode == 0, proc.stdout[-500:] + proc.stderr[-500:]
    except (OSError, subprocess.TimeoutExpired) as exc:
        ok, detail = False, str(exc)
    gate.check(ok, f"{wl.name}: {path.name} fails tools/trace.py --validate: {detail}")


def _in_spec_order(values: dict, entries: list[dict]) -> dict:
    out = {}
    for entry in entries:
        metric = values[entry["name"]]
        if metric.unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {metric.unit} != {entry['unit']}")
        out[entry["name"]] = metric
    return out


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    from harness import Gate, echo, format_table, load_spec, provenance, result_line

    args = parse_args(sys.argv[1:] if argv is None else argv, workloads.WORKLOADS)
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    pin_environment()
    from repro.runtime.compiledpath import compiled_cc

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    gate = Gate()
    combined = {}
    for name in names:
        wl = workloads.make(name, args.seed, smoke=args.smoke)
        measure = per_layer if args.trace else end_to_end
        values, passes = measure(wl, args, gate, spec)
        if values is None:
            gate.fail(f"{name}: no pass completed")
            continue
        used = {"engine": sorted({p.engine for p in passes}),
                "transport": wl.transport, "cc": compiled_cc() or "absent"}
        echo(f"provenance {name}: {provenance(args.seed, used)}")
        title = f"{name} ({'per-layer, traced' if args.trace else 'end-to-end'})"
        echo(format_table(title, values))
        if args.trace:
            from layers import LAYER_MAP

            for metric, target in LAYER_MAP.items():
                echo(f"    {metric} -> {target}")
        prefix = f"{name}." if args.workload == "all" else ""
        section = spec["per_layer"] if args.trace else spec["end_to_end"]
        combined.update({prefix + k: v for k, v in _in_spec_order(values, section).items()})
    echo(f"error_rate: {gate.failed}/{gate.attempted} = {gate.error_rate:.4g}")
    for problem in gate.problems:
        echo(f"FAIL: {problem}")
    if not combined:
        print("error: no workload produced metrics", file=sys.stderr)
        for problem in gate.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    echo(result_line(gate, combined))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
