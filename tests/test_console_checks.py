"""The table of ``scripts/console_checks.py``: a case passes through a
``hypident`` on PATH, a wrong expectation fails it, and no command line
is listed twice. The whole table runs outside the tests."""

import importlib.util
import os
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("console_checks", ROOT / "scripts" / "console_checks.py")
checks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checks)

(FAST,) = [case for case in checks.CASES if not callable(case) and case[0].startswith("verify --identity 1.3 ")]


@pytest.fixture
def shim(tmp_path, monkeypatch):
    """A ``hypident`` first on PATH that runs this tree's ``src``."""
    script = tmp_path / "hypident"
    script.write_text(f'#!/bin/sh\nPYTHONPATH={shlex.quote(str(ROOT / "src"))} '
                      f'exec {shlex.quote(sys.executable)} -m hypident.cli "$@"\n')
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")


@pytest.fixture
def hung(tmp_path, monkeypatch):
    """A ``hypident`` first on PATH that never ends on its own, and a timeout of half a second."""
    script = tmp_path / "hypident"
    script.write_text("#!/bin/sh\nexec sleep 60\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setattr(checks, "TIMEOUT", 0.5)


def test_a_hung_command_fails_its_own_check(hung, capsys):
    """A command line, and each of a check's commands whose reader closes
    stdout, is killed at its timeout and fails under its own label."""
    assert checks.main([FAST, checks.closed_readers]) == 1
    lines = capsys.readouterr().out.splitlines()
    labels = [line.removeprefix("FAILED hypident ") for line in lines[:3]]
    assert labels[0] == FAST[0] and all(label.endswith(", its reader gone") for label in labels[1:])
    assert lines[3] == "0/3 console checks passed"
    assert [line.split(": ", 1)[1] for line in lines[4:]] == ["timed out after 0.5 s; stderr ends ''"] * 3


def test_a_fast_case_passes(shim, capsys):
    assert checks.main([FAST]) == 0
    assert capsys.readouterr().out.splitlines() == [f"ok     hypident {FAST[0]}", "1/1 console checks passed"]


@pytest.mark.parametrize(
    "case, why",
    [
        ((FAST[0], 1, FAST[2]), "exit 0, expected 1;"),
        ((FAST[0], 0, checks.status("float_only_pass")), "expectation not met;"),
        ((FAST[0], 0, checks.stderr("points passed")), "expectation not met;"),
    ],
    ids=["exit-status", "json-status", "stderr-line"],
)
def test_a_wrong_expectation_fails_the_case(shim, capsys, case, why):
    assert checks.main([case, FAST]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"FAILED hypident {FAST[0]}", f"ok     hypident {FAST[0]}", "1/2 console checks passed"]
    assert lines[3].startswith(f"hypident {FAST[0]}: {why}")


def test_no_command_line_is_listed_twice():
    commands = [case[0] for case in checks.CASES if not callable(case)]
    assert len(commands) == len(set(commands))
