"""`scripts/ab_inprocess.py` runs two checkouts in one process and gates every op."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"


def _run(parent: Path, change: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
           "--workload", workload, "--rounds", "1"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def test_one_a_a_round_prints_both_sides_and_their_ratios():
    done = _run(ROOT, ROOT, "verify6")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "verify6: 1 rounds, 4 ops a side"
    for line, side in zip(lines[1:3], ("parent", "change")):
        assert re.match(rf"  {side} +p50 +\d+\.\d{{3}} ms  mean +\d+\.\d{{3}} ms  \(", line)
    assert re.fullmatch(r"  change / parent  p50 \d\.\d{3}  mean \d\.\d{3}", lines[3])
    # Then one line per op label, sorted: each side's p50 and their ratio.
    labels = [f"verify-{seed}" for seed in range(4)]
    assert len(lines) == 4 + len(labels)
    for line, label in zip(lines[4:], labels):
        assert re.fullmatch(
            rf"  {label}  parent p50 +\d+\.\d{{3}} ms  change p50 +\d+\.\d{{3}} ms"
            r"  change / parent \d\.\d{3}",
            line,
        ), line


def test_an_op_whose_output_changed_fails_the_run(tmp_path):
    """The gate is the checkout's own perfbench/expected.json, read and never written."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    expected = tmp_path / "perfbench" / "expected.json"
    pinned = json.loads(expected.read_text())
    pinned["reports"]["example1"]["sha256"] = "0" * 64
    expected.write_text(json.dumps(pinned))
    done = _run(ROOT, tmp_path, "corpus")
    assert done.returncode == 1
    assert "example1: report JSON changed" in done.stderr
    assert json.loads(expected.read_text()) == pinned


def test_an_unknown_workload_exits_2_naming_the_valid_ones():
    """The names come from BENCHMARK.json; no side is loaded for a bad one."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    done = _run(ROOT, ROOT, "nil99")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "unknown workload 'nil99'" in done.stderr
    assert f"(choose from {', '.join(w['name'] for w in declared)})" in done.stderr
