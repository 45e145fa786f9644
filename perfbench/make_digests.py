#!/usr/bin/env python3
"""Regenerate ``digests.json``, the expected outputs the benchmark checks.

    python3 perfbench/make_digests.py            # compare, exit 1 on change
    python3 perfbench/make_digests.py --write    # rewrite the file

Study cells come from the ``fast`` engine, so the compiled workload is
also a cross-engine check.  The executed grid must reproduce the
cost-only cells exactly (numerics change no simulated number), which
this script asserts before writing.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from harness import diff_records  # noqa: E402
from workloads import DIGESTS, _study_cells, netsim_record, paper_err_pct  # noqa: E402


def generate() -> dict:
    from repro.api import (ClusterSpec, NetworkConfig, NetworkSweep, RunOptions,
                           Study, Topology)

    fast = RunOptions(engine="fast")
    paper = Study(execute_max_n=0, verify=False).run(fast).result
    small = Study(sizes=(256,), execute_max_n=0, verify=False).run(fast).result
    executed = Study(sizes=(512, 1024), execute_max_n=1024, verify=True).run(fast).result
    cells = {**_study_cells(small), **_study_cells(paper)}
    mismatch = diff_records(
        {k: cells[k] for k in _study_cells(executed)}, _study_cells(executed), "executed"
    )
    if mismatch:
        raise SystemExit("executed cells differ from cost-only cells:\n" + "\n".join(mismatch))
    sweep = NetworkSweep(ClusterSpec(topology=Topology("torus2d")), "summa25d",
                         NetworkConfig(c=2)).run(16384, [32, 128, 512, 2048])
    return {
        "generated_with": "engine=fast, cost-only cells; executed cells asserted equal",
        "paper_err_pct": paper_err_pct(paper),
        "study_cells": dict(sorted(cells.items())),
        "netsim": {str(r.ranks): netsim_record(r) for r in sweep.results},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    new = generate()
    if args.write:
        DIGESTS.write_text(json.dumps(new, indent=1) + "\n")
        print(f"wrote {DIGESTS}")
        return 0
    old = json.loads(DIGESTS.read_text())
    lines = diff_records(old["study_cells"], new["study_cells"], "cell")
    lines += diff_records(old["netsim"], new["netsim"], "netsim P=")
    if old["paper_err_pct"] != new["paper_err_pct"]:
        lines.append(f"paper_err_pct: {old['paper_err_pct']!r} -> {new['paper_err_pct']!r}")
    print("\n".join(lines) or "digests unchanged")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
