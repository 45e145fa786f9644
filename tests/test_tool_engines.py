"""Every tool that takes ``--engine`` must reach the scheduler with it.

A flag that parses but is silently dropped on the way to the scheduler
makes a run profile or measure a different engine than the one asked
for.  Each case runs the tool in-process with a non-default engine and
records what ``Scheduler.__init__`` actually received.
"""

import argparse
import pathlib
import runpy
import sys
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.runtime.compiledpath import compiled_available
from repro.runtime.scheduler import Scheduler

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

ENGINES = [
    "reference",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled_available()[0],
            reason=f"compiled engine unavailable: {compiled_available()[1]}",
        ),
    ),
]


@pytest.fixture()
def seen(monkeypatch):
    """Engines passed to ``Scheduler.__init__`` during the test."""
    engines = []
    original = Scheduler.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self.engine)

    monkeypatch.setattr(Scheduler, "__init__", init)
    return engines


def _run_tool(monkeypatch, script, *argv):
    monkeypatch.setattr(sys, "argv", [str(TOOLS / script), *argv])
    monkeypatch.setattr(sys, "path", list(sys.path))
    runpy.run_path(str(TOOLS / script), run_name="__main__")


def test_every_engine_flag_is_covered():
    """The cases below cover every surface with ``--engine``."""
    tools = sorted(
        p.name for p in TOOLS.glob("*.py")
        if "add_engine_arg" in p.read_text() or '"--engine"' in p.read_text()
    )
    assert tools == ["profile.py"]
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    commands = sorted(
        name for name, parser in sub.choices.items()
        if any("--engine" in a.option_strings for a in parser._actions)
    )
    assert commands == ["serve", "study"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("phase", ["sim", "study"])
def test_profile_tool(monkeypatch, capsys, seen, engine, phase):
    _run_tool(
        monkeypatch, "profile.py", "--phase", phase, "--engine", engine,
        "--alg", "openblas", "--n", "64", "--threads", "2", "--sizes", "64",
        "--top", "1",
    )
    assert seen and set(seen) == {engine}


@pytest.mark.parametrize("engine", ENGINES)
def test_repro_study(capsys, seen, engine):
    rc = main(["study", "--sizes", "64", "--threads", "1", "2",
               "--execute-max-n", "0", "--no-verify", "--engine", engine])
    assert rc == 0
    assert seen and set(seen) == {engine}


@pytest.mark.parametrize("engine", ENGINES)
def test_repro_serve(tmp_path, capsys, seen, engine):
    sock = tmp_path / "svc.sock"
    server = threading.Thread(
        target=main,
        args=(["serve", "--socket", str(sock), "--engine", engine],),
        daemon=True,
    )
    server.start()
    deadline = time.monotonic() + 10
    while not sock.exists():
        time.sleep(0.01)
        assert time.monotonic() < deadline
    query = ["query", "--socket", str(sock), "--algorithms", "caps",
             "--sizes", "64", "--threads", "1", "--execute-max-n", "0"]
    assert main(query) == 0
    assert main(["query", "--socket", str(sock), "--shutdown"]) == 0
    server.join(timeout=10)
    assert seen and set(seen) == {engine}
