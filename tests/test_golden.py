"""Golden end-to-end digests of the 48-cell cost-only paper grid.

The differential oracles (reference/fast/compiled, serial/parallel,
store/fresh) share ``Engine._measure``, the energy model and the
lowerings, so a change to one of those moves every side together.
This test pins the values themselves against
``tests/golden/paper_grid.json``: makespan, plane joules, EP, segment
count and the Eq. 5 scaling value and class of every cell, exactly.
A second golden, ``tests/golden/lowerings.json``, pins every matmul
lowering branch column by column (names, dependency CSR, creators,
untied flags, cost bytes), executed padded builds included.

Regenerate only with ``python tools/golden.py --write`` and justify the
diff in CHANGES.md.
"""

import importlib.util
import pathlib

import pytest

from repro.runtime.compiledpath import compiled_available

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden_tool", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("engine", ["fast", "compiled"])
def test_paper_grid_matches_golden(engine):
    if engine == "compiled" and not compiled_available()[0]:
        pytest.skip(f"compiled engine unavailable: {compiled_available()[1]}")
    expected = golden.load_golden()["cells"]
    assert len(expected) == 48
    lines = golden.diff_cells(expected, golden.grid_cells(engine), engine)
    assert not lines, "golden drift:\n" + "\n".join(lines)


def test_diff_names_cell_and_field():
    expected = {"caps/512/2": {"makespan_s": 1.0, "scaling": "ideal"}}
    actual = {
        "caps/512/2": {"makespan_s": 1.5, "scaling": "ideal"},
        "caps/512/3": {"makespan_s": 2.0},
    }
    lines = golden.diff_cells(expected, actual, "fast")
    assert lines == [
        "fast caps/512/2 makespan_s: golden 1.0, got 1.5",
        "fast caps/512/3: not in the golden",
    ]


def test_lowerings_match_golden():
    expected = golden.load_lowering_golden()["cells"]
    assert set(expected) == set(golden.LOWERING_CELLS)
    lines = golden.diff_lowerings(expected, golden.lowering_cells())
    assert not lines, "lowering drift:\n" + "\n".join(lines)


def test_lowering_golden_covers_padded_executed_builds():
    # n=100 and n=96 pad to 128: the padded stamping plus one unpad row.
    cells = golden.load_lowering_golden()["cells"]
    assert cells["exec/strassen/100/2"]["tasks"] == cells["strassen/100/1"]["tasks"] + 1
    assert cells["exec/caps/96/2"]["tasks"] == cells["caps/128/1"]["tasks"] + 1
    build = golden.make_lowering("exec/strassen/100/2")
    assert build.graph.names_list()[-1] == "unpad"


def test_lowering_diff_names_cell_and_field():
    expected = {"caps/64/1": {"tasks": 1, "deps": "aa"}}
    actual = {"caps/64/1": {"tasks": 1, "deps": "bb"}, "caps/64/4": {}}
    assert golden.diff_lowerings(expected, actual) == [
        "lowering caps/64/1 deps: golden 'aa', got 'bb'",
        "lowering caps/64/4: not in the golden",
    ]
