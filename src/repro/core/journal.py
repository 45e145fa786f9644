"""Durable completed-cell journal for huge study sweeps.

A million-cell platform sweep that dies at cell 999_000 should not
restart from zero.  :class:`StudyJournal` gives
:class:`~repro.core.study.EnergyPerformanceStudy` a crash-safe record
of every finished cell: one JSONL file whose first line is a versioned
header and whose remaining lines each carry one cell's coordinates plus
its pickled :class:`~repro.sim.measurement.RunMeasurement` (base64 —
pickling is the only encoding that round-trips the measurement's floats
and numpy arrays bit-for-bit, which the resume identity guarantee
requires).  Lines are appended in the study's serial (table) order and
``fsync``\\ ed every :data:`FLUSH_EVERY` cells, so after a crash the
file is a clean prefix of the run plus at most one torn trailing line,
which :meth:`StudyJournal.open` silently drops.

Resume replays journaled cells into the merge in serial order —
including the parent-side MSR energy deposits — so a resumed run is
bit-identical to an uninterrupted one (``tests/core/
test_study_checkpoint.py`` enforces this with fault injection).

The header pins three compatibility axes:

* ``version`` — :data:`JOURNAL_VERSION`, the schema of this very file;
* ``arena_schema`` — :data:`ARENA_SCHEMA_VERSION`, frozen at ``1``: the
  column-layout version of the retired shared-memory arena transport,
  kept in the header and the fingerprint so journals written by 1.2
  still resume and validate;
* ``fingerprint`` — a digest of (machine, algorithms, study config,
  event kernel); resuming under a different study setup would merge
  measurements from a different experiment, so a mismatch is a
  :class:`~repro.util.errors.ConfigurationError`, not a silent skip.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..observability.metrics import counter
from ..util.errors import ConfigurationError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.measurement import RunMeasurement

__all__ = [
    "ARENA_SCHEMA_VERSION",
    "JOURNAL_VERSION",
    "StudyJournal",
    "study_fingerprint",
    "validate_journal",
]

#: Schema version of the journal file itself.
JOURNAL_VERSION = 1

#: Header and fingerprint field ``arena_schema``.  Frozen: changing it
#: would orphan every existing journal (the fingerprint folds it in).
ARENA_SCHEMA_VERSION = 1

#: ``fsync`` after this many newly recorded cells (and on close).
FLUSH_EVERY = 8

_CELLS_RESUMED = counter(
    "study.cells_resumed",
    description="study cells replayed from a checkpoint journal",
)

#: One cell's journal key: (algorithm name, size, threads).
CellKey = tuple[str, int, int]


def study_fingerprint(
    machine_name: str,
    algorithm_names: tuple[str, ...] | list[str],
    config_fields: Mapping[str, object],
    engine_name: str,
) -> str:
    """Digest of everything that must match for journal entries to be
    replayable: the machine, the algorithm set, the study config and
    the event kernel.  Stable across processes and Python versions
    (canonical JSON, sha256)."""
    payload = {
        "machine": machine_name,
        "algorithms": list(algorithm_names),
        "config": {k: config_fields[k] for k in sorted(config_fields)},
        "engine": engine_name,
        "journal_version": JOURNAL_VERSION,
        "arena_schema": ARENA_SCHEMA_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _encode_measurement(measurement: "RunMeasurement") -> str:
    return base64.b64encode(
        pickle.dumps(measurement, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_measurement(payload: str) -> "RunMeasurement":
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


class StudyJournal:
    """Append-only JSONL of completed study cells.

    Open with :meth:`open`; the study driver then drives three calls:
    ``get(key)`` (``None`` unless the cell was journaled), ``record(key,
    measurement)`` after every merged cell, and ``close()`` in its
    ``finally``.  ``record`` of an already-persisted key is a no-op, so
    the driver can record unconditionally in serial merge order.
    """

    def __init__(self, path: "str | Path", fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.replayed = 0  #: entries loaded from an existing file
        self._entries: dict[CellKey, "RunMeasurement"] = {}
        self._persisted: set[CellKey] = set()
        self._file: io.TextIOWrapper | None = None
        self._since_sync = 0
        #: Byte length of the cleanly parsed prefix (see ``_load``).
        self._clean_bytes = 0

    # ---- construction --------------------------------------------------

    @classmethod
    def open(
        cls,
        path: "str | Path",
        fingerprint: str,
        *,
        resume: bool,
        meta: Mapping[str, object] | None = None,
    ) -> "StudyJournal":
        """Open *path* for the coming run.

        ``resume=True`` loads any existing entries (validating the
        header fingerprint) and appends new cells to the same file;
        ``resume=False`` truncates and starts a fresh journal.  A
        missing file under ``resume`` is not an error — the "resumed"
        run simply has nothing to replay.
        """
        journal = cls(path, fingerprint)
        existing = resume and journal.path.exists() and journal.path.stat().st_size > 0
        if existing:
            journal._load()
            # A torn tail was dropped from the parse; drop it from the
            # file too, or the first appended record would fuse with the
            # half-written line and corrupt the journal.
            if journal._clean_bytes < journal.path.stat().st_size:
                with journal.path.open("r+b") as fh:
                    fh.truncate(journal._clean_bytes)
            journal._file = journal.path.open("a", encoding="utf-8")
        else:
            journal._file = journal.path.open("w", encoding="utf-8")
            header = {
                "kind": "repro-study-journal",
                "version": JOURNAL_VERSION,
                "arena_schema": ARENA_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                **(dict(meta) if meta else {}),
            }
            journal._file.write(json.dumps(header, sort_keys=True) + "\n")
            journal._fsync()
        return journal

    def _load(self) -> None:
        """Parse an existing journal, tolerating one torn trailing line
        (the crash-mid-write case fsync-per-batch admits)."""
        with self.path.open("r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{self.path}: journal header is not valid JSON: {exc}"
            ) from None
        self._check_header(header)
        self._clean_bytes = len(lines[0].encode("utf-8")) + 1
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                self._clean_bytes += len(line.encode("utf-8")) + 1
                continue
            try:
                entry = json.loads(line)
                key: CellKey = (
                    str(entry["alg"]),
                    int(entry["n"]),
                    int(entry["threads"]),
                )
                measurement = _decode_measurement(entry["payload"])
            except Exception:
                if lineno == len(lines):
                    break  # torn tail from a crash mid-write: drop it
                raise ValidationError(
                    f"{self.path}:{lineno}: corrupt journal entry "
                    f"(not at end of file, so not a torn tail)"
                ) from None
            self._clean_bytes += len(line.encode("utf-8")) + 1
            self._entries[key] = measurement
            self._persisted.add(key)
        self.replayed = len(self._entries)

    def _check_header(self, header: Mapping[str, object]) -> None:
        if header.get("kind") != "repro-study-journal":
            raise ValidationError(
                f"{self.path}: not a study journal (kind={header.get('kind')!r})"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise ConfigurationError(
                f"{self.path}: journal version {header.get('version')!r} "
                f"does not match this build's v{JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ConfigurationError(
                f"{self.path}: journal was written by a different study "
                f"setup (fingerprint {header.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); resuming would merge measurements "
                f"from a different machine/config/engine"
            )

    # ---- replay --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def has(self, key: CellKey) -> bool:
        return key in self._entries

    def get(self, key: CellKey) -> "RunMeasurement | None":
        """The journaled measurement for *key*, counting the replay."""
        measurement = self._entries.get(key)
        if measurement is not None:
            _CELLS_RESUMED.add()
        return measurement

    # ---- recording -----------------------------------------------------

    def record(self, key: CellKey, measurement: "RunMeasurement") -> None:
        """Append one completed cell (no-op if already persisted here)."""
        if key in self._persisted or self._file is None:
            return
        line = json.dumps(
            {
                "alg": key[0],
                "n": key[1],
                "threads": key[2],
                "payload": _encode_measurement(measurement),
            }
        )
        self._file.write(line + "\n")
        self._entries[key] = measurement
        self._persisted.add(key)
        self._since_sync += 1
        if self._since_sync >= FLUSH_EVERY:
            self._fsync()

    def _fsync(self) -> None:
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if self._file is None:
            return
        self._fsync()
        self._file.close()
        self._file = None

    def __enter__(self) -> "StudyJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def validate_journal(path: "str | Path") -> dict:
    """Strictly validate a journal file; returns a summary dict.

    Unlike :meth:`StudyJournal.open`, this does *not* tolerate a torn
    tail — it is the post-run schema check (CI runs it after the
    interrupted-and-resumed smoke study), and a journal that was closed
    cleanly must parse in full: versioned header, unique cell keys,
    payloads that unpickle to measurements.
    """
    from ..sim.measurement import RunMeasurement

    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty journal")
    header = json.loads(lines[0])
    if header.get("kind") != "repro-study-journal":
        raise ValidationError(f"{path}: missing journal header")
    if header.get("version") != JOURNAL_VERSION:
        raise ValidationError(
            f"{path}: unsupported journal version {header.get('version')!r}"
        )
    for field in ("fingerprint", "arena_schema"):
        if field not in header:
            raise ValidationError(f"{path}: header missing {field!r}")
    keys: set[CellKey] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise ValidationError(f"{path}:{lineno}: blank journal line")
        entry = json.loads(line)
        for field in ("alg", "n", "threads", "payload"):
            if field not in entry:
                raise ValidationError(f"{path}:{lineno}: entry missing {field!r}")
        key = (str(entry["alg"]), int(entry["n"]), int(entry["threads"]))
        if key in keys:
            raise ValidationError(f"{path}:{lineno}: duplicate cell {key}")
        keys.add(key)
        measurement = _decode_measurement(entry["payload"])
        if not isinstance(measurement, RunMeasurement):
            raise ValidationError(
                f"{path}:{lineno}: payload is {type(measurement).__name__}, "
                f"not RunMeasurement"
            )
    return {
        "path": str(path),
        "version": header["version"],
        "fingerprint": header["fingerprint"],
        "arena_schema": header["arena_schema"],
        "cells": len(keys),
    }
