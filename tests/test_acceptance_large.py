"""`scripts/acceptance_large.py` answers `--help` and bad arguments without running a check."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "acceptance_large.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=60)


def test_help_prints_the_usage_and_runs_no_check():
    done = _run("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: acceptance_large.py [-h]\n")
    assert "Acceptance of the dim-10 verify" in done.stdout
    assert "verify10:" not in done.stdout


def test_an_unknown_argument_exits_2_before_any_check():
    done = _run("--fast")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "unrecognized arguments: --fast" in done.stderr
