"""The scripts under scripts/ still run against the library's public API."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_build_fixtures_check_passes():
    done = run_script("build_fixtures.py", "--check")
    assert done.returncode == 0, done.stderr
    assert "up to date" in done.stdout


def test_worked_example_runs():
    done = run_script("worked_example.py")
    assert done.returncode == 0, done.stderr
    assert "PreCancerMatch" in done.stdout


def test_report_digest_matches_the_committed_one():
    done = run_script("report_digest.py", "--check")
    assert done.returncode == 0, done.stderr
    assert "match the committed digest" in done.stdout
