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

  python tools/golden.py            # compare fast, compiled and lowerings
  python tools/golden.py --write    # regenerate both goldens

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
    """One sha256 per structural column of *build*'s lowered graph
    (object graphs are columnized first)."""
    import numpy as np

    from repro.runtime.arena import TaskArena

    arena = build.graph
    if not isinstance(arena, TaskArena):
        arena = TaskArena.from_graph(arena)
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
        return 0

    golden = load_golden()["cells"]
    lines = [
        line
        for engine, cells in runs.items()
        for line in diff_cells(golden, cells, engine)
    ]
    lines += diff_lowerings(load_lowering_golden()["cells"], lowering_cells())
    print("\n".join(lines) or f"golden matches ({', '.join(runs)}, lowerings)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
