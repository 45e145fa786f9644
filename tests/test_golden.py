"""Golden end-to-end digests of the 48-cell cost-only paper grid.

The differential oracles (reference/fast/compiled, serial/parallel,
store/fresh) share ``Engine._measure``, the energy model and the
lowerings, so a change to one of those moves every side together.
This test pins the values themselves against
``tests/golden/paper_grid.json``: makespan, plane joules, EP, segment
count and the Eq. 5 scaling value and class of every cell, exactly.
A second golden, ``tests/golden/lowerings.json``, pins every matmul
lowering branch column by column (names, dependency CSR, creators,
untied flags, cost bytes), executed padded builds included.  A third,
``tests/golden/reference.json``, pins the scalar ``reference`` engine
itself: the n=512 paper cells, and the records and interval bytes of
CAPS and Strassen schedules under every policy.  The fast golden cannot
stand in for it, because the engines are not decision-for-decision
identical on every CAPS lowering (see ROADMAP item 2).  A fourth,
``tests/golden/store_keys.json``, pins the study service: each cell's
content address and a digest of its served measurement.  A fifth,
``tests/golden/netsim.json``, pins the network simulator's event
lowering: the stream columns, finish times and per-rank reductions of
every event-simulated algorithm on every topology and send protocol.

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


def test_reference_engine_matches_golden():
    expected = golden.load_reference_golden()
    assert len(expected["grid"]) == 12
    assert set(expected["schedules"]) == set(golden.SCHEDULE_CELLS)
    assert expected["schedules"]["exec/strassen/100/2/fifo"]["verified"] is True
    lines = golden.diff_reference(expected, golden.reference_cells())
    assert not lines, "reference drift:\n" + "\n".join(lines)


def test_reference_diff_names_schedule_and_field():
    expected = {"grid": {}, "schedules": {"caps/256/2/fifo": {"makespan_s": 1.0}}}
    actual = {"grid": {}, "schedules": {"caps/256/2/fifo": {"makespan_s": 2.0},
                                        "caps/256/4/fifo": {}}}
    assert golden.diff_reference(expected, actual) == [
        "schedule caps/256/2/fifo makespan_s: golden 1.0, got 2.0",
        "schedule caps/256/4/fifo: not in the golden",
    ]


@pytest.mark.parametrize("workers", [0, 2])
def test_store_keys_match_golden(workers):
    """The golden is written in process (``workers=0``); a pooled
    service must serve the same keys and the same measurements."""
    expected = golden.load_store_keys_golden()
    assert expected["request"]["sizes"] == list(golden.STORE_REQUEST["sizes"])
    assert len(expected["cells"]) == 12
    assert {c["execute"] for c in expected["cells"].values()} == {True, False}
    lines = golden.diff_store_keys(expected["cells"], golden.store_key_cells(workers))
    assert not lines, "store-key drift:\n" + "\n".join(lines)


def test_store_key_diff_names_cell_and_field():
    expected = {"caps/64/1": {"key": "k", "execute": True, "measurement": "aa"}}
    actual = {"caps/64/1": {"key": "k", "execute": True, "measurement": "bb"},
              "caps/64/2": {}}
    assert golden.diff_store_keys(expected, actual) == [
        "store caps/64/1 measurement: golden 'aa', got 'bb'",
        "store caps/64/2: not in the golden",
    ]


def test_netsim_matches_golden():
    expected = golden.load_netsim_golden()
    assert expected["interconnect"]["hop_latency_s"] > 0.0
    assert expected["cells"]["perfbench/summa25d/torus2d/c2/2048"]["n_events"] == 163840
    lines = golden.diff_netsim(expected["cells"], golden.netsim_cells())
    assert not lines, "netsim drift:\n" + "\n".join(lines)


def test_netsim_golden_covers_every_algorithm_topology_and_protocol():
    from repro.distributed import NET_ALGORITHMS, TOPOLOGY_KINDS

    cells = golden.load_netsim_golden()["cells"]
    for alg in NET_ALGORITHMS:
        for topo in TOPOLOGY_KINDS:
            for proto in ("eager", "rendezvous", "auto", "auto/chunks4"):
                assert f"{alg}/{topo}/{proto}" in cells
    # The spec's per-hop latency and eager threshold reach the durations.
    assert cells["summa25d/ring/auto"]["stream"] != cells["summa25d/flat/auto"]["stream"]
    assert cells["summa25d/flat/auto"]["stream"] not in {
        cells["summa25d/flat/eager"]["stream"],
        cells["summa25d/flat/rendezvous"]["stream"],
    }


def test_netsim_diff_names_cell_and_field():
    expected = {"summa/flat/eager": {"stream": "aa", "n_events": 3}}
    actual = {"summa/flat/eager": {"stream": "bb", "n_events": 3}, "summa/ring/eager": {}}
    assert golden.diff_netsim(expected, actual) == [
        "netsim summa/flat/eager stream: golden 'aa', got 'bb'",
        "netsim summa/ring/eager: not in the golden",
    ]
