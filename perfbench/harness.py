"""Workload-independent pieces of the benchmark: statistics, names,
correctness accounting, digest comparison, provenance and the result
line.

Nothing here imports :mod:`repro`, so the harness tests run without the
package on the path and a directory holding only the benchmark can still
report why it cannot run.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def valid_metric_name(name: str) -> bool:
    """A letter or digit, then at most 63 of letters, digits, ``_.-``."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT_RE.fullmatch(unit) is not None


def load_spec(path: Path = SPEC_PATH) -> dict:
    """Read ``BENCHMARK.json`` and check the metric names and units it
    declares; raises ``ValueError`` on the first bad entry."""
    spec = json.loads(path.read_text())
    seen: set[str] = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            if not valid_metric_name(name) or name in seen:
                raise ValueError(f"{section}: bad or repeated name {name!r}")
            seen.add(name)
            if "unit" in entry and not valid_unit(entry["unit"]):
                raise ValueError(f"{section}: bad unit {entry['unit']!r} for {name}")
    return spec


# ---- statistics -----------------------------------------------------------


@dataclass(frozen=True)
class Percentile:
    """A percentile together with the evidence behind it."""

    q: float  # in (0, 100)
    value: float
    samples: int
    beyond: int  # samples strictly above ``value``

    def describe(self) -> str:
        return f"p{self.q:g} of {self.samples} samples ({self.beyond} beyond)"


def percentile(values, q: float) -> Percentile:
    """Linear-interpolated *q*-th percentile of *values* (numpy's default
    method), with the sample count and how many samples lie above it."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    value = data[lo] + (data[hi] - data[lo]) * (pos - lo)
    beyond = sum(1 for v in data if v > value)
    return Percentile(q, value, len(data), beyond)


def median(values) -> float:
    return percentile(values, 50.0).value


# ---- correctness accounting ----------------------------------------------


@dataclass
class Gate:
    """Counts attempted operations and failed ones.

    Operations are the workload's units (study cells, rank counts,
    service requests).  A failed correctness check on an operation
    fails that operation; a check on a whole pass (engine fallback,
    traced-vs-untraced identity, trace validation, span accounting)
    fails one operation of it.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, count: int) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 50:
            self.problems.append(message)

    def check(self, ok: bool, message: str, count: int = 1) -> bool:
        if not ok:
            self.fail(message, count)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def error_rate(self) -> float:
        return min(self.failed, self.attempted) / self.attempted if self.attempted else 1.0


def diff_records(expected: dict, got: dict, label: str) -> list[str]:
    """Readable per-field differences between two ``{key: {field: value}}``
    digests; one line per differing record, empty when they agree.

    Values compare exactly: the digests hold floats that round-trip
    through JSON bit for bit.
    """
    lines = []
    for key in sorted(set(expected) | set(got)):
        if key not in got:
            lines.append(f"{label} {key}: missing from output")
            continue
        if key not in expected:
            lines.append(f"{label} {key}: not in the expected digest")
            continue
        want, have = expected[key], got[key]
        fields = [
            f"{f}: expected {want.get(f)!r}, got {have.get(f)!r}"
            for f in sorted(set(want) | set(have))
            if want.get(f) != have.get(f)
        ]
        if fields:
            lines.append(f"{label} {key}: " + "; ".join(fields))
    return lines


# ---- provenance -----------------------------------------------------------


def _git_rev() -> str:
    head = ROOT / ".git"
    if not head.exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def src_line_count() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with path.open("rb") as fh:
            total += sum(1 for _ in fh)
    return total


def provenance(seed: int, extra: dict) -> dict:
    """Where and on what a result was measured."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "absent"
    return {
        "git_rev": _git_rev(),
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        **extra,
    }


# ---- output ---------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


def format_table(title: str, metrics: dict[str, Metric]) -> str:
    lines = [title]
    width = max((len(n) for n in metrics), default=0)
    for name, m in metrics.items():
        note = f"  {m.note}" if m.note else ""
        lines.append(
            f"  {name:<{width}}  {m.value:>14.6g} {m.unit:<6} n={m.samples}{note}"
        )
    return "\n".join(lines)


def result_line(gate: Gate, metrics: dict[str, Metric]) -> str:
    """The final stdout line: ``correct``/``attempted``/``failed``/``metrics``."""
    return json.dumps(
        {
            "correct": gate.correct,
            "attempted": max(gate.attempted, 1),
            "failed": min(gate.failed, max(gate.attempted, 1)),
            "metrics": {
                name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()
            },
        }
    )


def echo(*parts) -> None:
    print(*parts, flush=True)
