"""Every quick demo, and the shell walkthrough, runs cleanly against the checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_cli_walkthrough_runs_cleanly(tmp_path):
    # the script calls an installed `gemkit`; a shim first on PATH runs the
    # checkout's sources with this interpreter instead
    shim = tmp_path / "gemkit"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m gemkit "$@"\n')
    shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=str(ROOT / "src"),
    )
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "cli_walkthrough.sh")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "# Betti numbers of the full complex" in proc.stdout
