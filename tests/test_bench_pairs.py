"""`scripts/bench_pairs.py` checks its arguments before it runs anything."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def _run(*extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
           "--workload", "corpus", "--first-seed", "1", "--description", "d",
           "--out", "unused.json", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--pairs", "0"], "--pairs must be at least 1"),
        (["--pairs", "4", "--claim", "corpus", "op_p50_s", "t"], "at least 10 pairs"),
        (["--claim", "corpsu", "op_p50_s", "t"], "claimed workload 'corpsu'"),
        (["--claim", "corpus", "op_p50", "t"], "claimed metric 'op_p50'"),
    ],
    ids=["no-pairs", "short-claim", "unknown-workload", "unknown-metric"],
)
def test_bad_arguments_exit_2(extra, message):
    done = _run(*extra)
    assert done.returncode == 2
    assert message in done.stderr


def test_quartiles_of_one_run():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.quartiles([0.25]) == {"q1": 0.25, "median": 0.25, "q3": 0.25}
