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

  python tools/golden.py            # compare fast and compiled
  python tools/golden.py --write    # regenerate the golden

``--write`` is the only way to regenerate the committed file; every
golden diff must be justified in CHANGES.md.  Comparison is exact
(floats round-trip through JSON ``repr``) and a mismatch prints one
line per differing cell and field.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: The committed golden digests.
GOLDEN = ROOT / "tests" / "golden" / "paper_grid.json"

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


def grid_cells(engine: str) -> dict[str, dict]:
    """Run the cost-only paper grid on *engine*; one record per cell,
    keyed ``"alg/n/threads"``."""
    from repro.api import RunOptions, Study
    from repro.core.study import PAPER_SIZES, PAPER_THREADS

    study = Study(
        sizes=PAPER_SIZES, threads=PAPER_THREADS, execute_max_n=0, verify=False
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
        return 0

    golden = load_golden()["cells"]
    lines = [
        line
        for engine, cells in runs.items()
        for line in diff_cells(golden, cells, engine)
    ]
    print("\n".join(lines) or f"golden matches ({', '.join(runs)})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
