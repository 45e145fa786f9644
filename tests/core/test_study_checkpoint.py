"""Study checkpoint/resume: crash-mid-sweep recovery, bit-identical.

The journal contract: ``checkpoint=`` writes a JSONL of completed cells
as the sweep runs; a run that died after K cells leaves a clean prefix
(plus at most one torn line); ``resume=`` replays the prefix and
simulates only the remainder — and the merged result is bit-identical
to an uninterrupted run, including the parent-side MSR counter stream.
"""

import json
import os

import pytest

from repro.core.journal import (
    ARENA_SCHEMA_VERSION,
    JOURNAL_VERSION,
    StudyJournal,
    study_fingerprint,
    validate_journal,
)
from repro.core.study import EnergyPerformanceStudy, StudyConfig
from repro.power.msr import PLANE_MSR, MsrFile
from repro.power.planes import Plane
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError, ValidationError

CFG = StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=128)


def _study(machine, msr=None, cfg=CFG):
    return EnergyPerformanceStudy(
        machine, config=cfg, _engine=Engine(machine, msr=msr)
    )


def _assert_identical(a, b):
    assert list(a.runs) == list(b.runs)
    for key in a.runs:
        x, y = a.runs[key], b.runs[key]
        assert x.elapsed_s == y.elapsed_s, key
        assert x.energy.package == y.energy.package, key
        assert x.energy.pp0 == y.energy.pp0, key
        assert x.energy.dram == y.energy.dram, key


def _truncate_after(path, cells, torn_tail=False):
    """Rewrite the journal as header + first *cells* entries, simulating
    a crash; optionally append a torn (half-written) line."""
    lines = path.read_text().splitlines(True)
    keep = lines[: 1 + cells]
    if torn_tail:
        keep.append(lines[1 + cells][: len(lines[1 + cells]) // 2])
    path.write_text("".join(keep))


def test_checkpoint_writes_versioned_journal(machine, tmp_path):
    journal = tmp_path / "study.jsonl"
    result = _study(machine)._run(None, checkpoint=journal)
    summary = validate_journal(journal)
    assert summary["version"] == JOURNAL_VERSION
    assert summary["arena_schema"] == 1
    assert summary["cells"] == len(result.runs) == 3 * 2 * 2
    header = json.loads(journal.read_text().splitlines()[0])
    assert header["kind"] == "repro-study-journal"
    assert header["machine"] == machine.name


@pytest.mark.parametrize("torn_tail", [False, True], ids=["clean", "torn"])
@pytest.mark.parametrize("kill_after", [3, 7])
def test_crash_mid_sweep_resume_is_bit_identical(
    machine, tmp_path, kill_after, torn_tail
):
    """Kill the journal after K cells (optionally mid-write), resume,
    and require the merged result and MSR stream to match an
    uninterrupted serial run exactly."""
    journal = tmp_path / "study.jsonl"
    msr_full = MsrFile()
    full = _study(machine, msr_full)._run(None)

    _study(machine)._run(None, checkpoint=journal)
    _truncate_after(journal, kill_after, torn_tail=torn_tail)

    msr_res = MsrFile()
    resumed = _study(machine, msr_res)._run(None, resume=journal)
    _assert_identical(full, resumed)
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert msr_full.read(addr) == msr_res.read(addr), plane
    # the resumed run appended the missing cells: journal is complete
    assert validate_journal(journal)["cells"] == len(full.runs)


def test_parallel_resume_is_bit_identical(machine, tmp_path):
    """Resume must compose with the process-pool driver: journaled
    cells are not resubmitted, and the merge is still serial-order."""
    journal = tmp_path / "study.jsonl"
    msr_full = MsrFile()
    full = _study(machine, msr_full)._run(None)
    _study(machine)._run(None, checkpoint=journal)
    _truncate_after(journal, 5)
    msr_res = MsrFile()
    resumed = _study(machine, msr_res)._run(2, resume=journal)
    _assert_identical(full, resumed)
    for plane in (Plane.PACKAGE, Plane.PP0, Plane.DRAM):
        addr = PLANE_MSR[plane]
        assert msr_full.read(addr) == msr_res.read(addr), plane


def test_resume_counts_cells_metric(machine, tmp_path):
    from repro.observability.metrics import registry

    journal = tmp_path / "study.jsonl"
    _study(machine)._run(None, checkpoint=journal)
    _truncate_after(journal, 4)
    snap = registry().snapshot()
    _study(machine)._run(None, resume=journal)
    delta = registry().delta_since(snap)
    assert delta.get("study.cells_resumed") == 4


def test_resume_from_missing_journal_starts_fresh(machine, tmp_path):
    """First run of a resumable sweep: --resume pointing at a journal
    that does not exist yet simply records everything."""
    journal = tmp_path / "study.jsonl"
    result = _study(machine)._run(None, resume=journal)
    assert validate_journal(journal)["cells"] == len(result.runs)


def test_resume_plus_checkpoint_writes_complete_copy(machine, tmp_path):
    """resume=A checkpoint=B replays A and writes B complete (replayed
    cells re-recorded in serial order)."""
    src = tmp_path / "a.jsonl"
    dst = tmp_path / "b.jsonl"
    full = _study(machine)._run(None, checkpoint=src)
    _truncate_after(src, 6)
    resumed = _study(machine)._run(None, resume=src, checkpoint=dst)
    _assert_identical(full, resumed)
    assert validate_journal(dst)["cells"] == len(full.runs)
    assert validate_journal(src)["cells"] == 6  # source untouched


def test_fingerprint_mismatch_rejected(machine, tmp_path):
    """A journal from a different study setup must refuse to resume."""
    journal = tmp_path / "study.jsonl"
    _study(machine)._run(None, checkpoint=journal)
    other_cfg = StudyConfig(sizes=(128, 256), threads=(1, 2), execute_max_n=128, seed=7)
    with pytest.raises(ConfigurationError, match="different study"):
        _study(machine, cfg=other_cfg)._run(None, resume=journal)


def test_corrupt_mid_file_entry_rejected(machine, tmp_path):
    """Corruption anywhere but the last line is not a torn tail and must
    fail loudly, not silently skip cells."""
    journal = tmp_path / "study.jsonl"
    _study(machine)._run(None, checkpoint=journal)
    lines = journal.read_text().splitlines(True)
    lines[3] = "NOT JSON\n"
    journal.write_text("".join(lines))
    with pytest.raises(ValidationError, match="corrupt journal entry"):
        _study(machine)._run(None, resume=journal)


def test_validate_journal_rejects_torn_tail(machine, tmp_path):
    """The strict post-run validator (CI) must not accept a torn tail —
    a cleanly closed journal always parses in full."""
    journal = tmp_path / "study.jsonl"
    _study(machine)._run(None, checkpoint=journal)
    _truncate_after(journal, 3, torn_tail=True)
    with pytest.raises(Exception):
        validate_journal(journal)


def test_journal_fsync_batches(machine, tmp_path, monkeypatch):
    """Records hit the disk at least every FLUSH_EVERY cells: after a
    simulated crash (no close), the file holds all full batches."""
    from repro.core import journal as journal_mod

    monkeypatch.setattr(journal_mod, "FLUSH_EVERY", 2)
    path = tmp_path / "study.jsonl"
    fp = study_fingerprint("m", ["a"], {"seed": 0}, "fast")
    j = StudyJournal.open(path, fp, resume=False)
    meas = _study(machine)._run(
        None, checkpoint=tmp_path / "tmp.jsonl"
    ).runs[("openblas", 128, 1)]
    for i in range(5):
        j.record(("a", i, 1), meas)
    # crash: no close(); only the fsynced batches are guaranteed, but
    # the buffered writes of full batches must be on disk already
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) - 1 >= 4  # two full batches of 2 (plus header)
    j.close()
    assert validate_journal(path)["cells"] == 5


def test_record_is_noop_for_persisted_cells(machine, tmp_path):
    path = tmp_path / "study.jsonl"
    fp = study_fingerprint("m", ["a"], {"seed": 0}, "fast")
    meas = _study(machine)._run(
        None, checkpoint=tmp_path / "tmp.jsonl"
    ).runs[("openblas", 128, 1)]
    with StudyJournal.open(path, fp, resume=False) as j:
        j.record(("a", 1, 1), meas)
        j.record(("a", 1, 1), meas)
    assert validate_journal(path)["cells"] == 1  # no duplicate line

    with StudyJournal.open(path, fp, resume=True) as j2:
        assert j2.replayed == 1
        j2.record(("a", 1, 1), meas)  # replayed cells are persisted too
    assert validate_journal(path)["cells"] == 1


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text(json.dumps({"kind": "something-else"}) + "\n")
    fp = study_fingerprint("m", ["a"], {}, "fast")
    with pytest.raises(ValidationError, match="not a study journal"):
        StudyJournal.open(path, fp, resume=True)


def test_fingerprint_covers_engine_and_config():
    base = study_fingerprint("m", ["a", "b"], {"seed": 0}, "fast")
    assert study_fingerprint("m", ["a", "b"], {"seed": 0}, "fast") == base
    assert study_fingerprint("m", ["a", "b"], {"seed": 1}, "fast") != base
    assert study_fingerprint("m", ["a", "b"], {"seed": 0}, "reference") != base
    assert study_fingerprint("m", ["a"], {"seed": 0}, "fast") != base
    assert study_fingerprint("other", ["a", "b"], {"seed": 0}, "fast") != base


def test_fingerprint_is_stable_across_releases():
    """The digest journals written by 1.2 carry: ``arena_schema`` stays
    1 in the header and the fingerprint, so they still resume."""
    assert ARENA_SCHEMA_VERSION == 1
    assert study_fingerprint("m", ["a", "b"], {"seed": 0}, "fast") == "f988b7a4d849da92"
