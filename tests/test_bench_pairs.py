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


def _module():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OP_P50 = {"name": "op_p50_s", "better": "lower", "bound": 0.25}
OPS_PER_S = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
SPEC = {"end_to_end": [OP_P50, OPS_PER_S]}


def _runs(values: list[float], per_s: float = 100.0) -> list[dict]:
    return [
        {"metrics": {"op_p50_s": {"value": v}, "ops_per_s": {"value": per_s}},
         "failed": 0, "attempted": 10}
        for v in values
    ]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([0.85, 0.86, 0.84, 0.85, 0.87, 0.85, 0.86, 0.84, 0.85, 0.86], "claim met"),
        # 8 wins in 10 pairs: not enough, however large the gap.
        ([0.80, 0.80, 0.80, 0.80, 0.80, 0.80, 0.80, 0.80, 1.10, 1.10], "claim not met"),
        # 10 wins, but the median gap (0.01) is inside the parent's quartiles.
        ([0.99, 1.01, 0.97, 1.00, 0.98, 0.99, 1.02, 0.96, 0.99, 1.00], "claim not met"),
    ],
    ids=["met", "too-few-wins", "gap-inside-iqr"],
)
def test_claim_verdict(change, verdict):
    module = _module()
    assert module.verdict(OP_P50, PARENT, change, claimed=True) == verdict
    summary = module.summarize(SPEC, {"parent": _runs(PARENT), "change": _runs(change)}, "op_p50_s")
    assert summary["op_p50_s"]["verdict"] == verdict
    assert summary["ops_per_s"]["verdict"] == "within bound"  # equal runs on both sides


@pytest.mark.parametrize(
    "metric, parent, change, verdict",
    [
        (OP_P50, PARENT, [1.2] * 10, "within bound"),
        (OP_P50, PARENT, [1.3] * 10, "worse than bound"),
        (OPS_PER_S, [100.0] * 10, [70.0] * 10, "worse than bound"),
        (OPS_PER_S, [100.0] * 10, [80.0] * 10, "within bound"),
        # The parent's quartiles span 0.5 of a median of 1.0, wider than the 0.25 bound.
        (OP_P50, [0.5, 0.75, 1.0, 1.25, 1.5], [1.3] * 5, "unresolved"),
        # ... unless every change run beats every parent run.
        (OP_P50, [0.5, 0.75, 1.0, 1.25, 1.5], [0.4] * 5, "within bound"),
    ],
    ids=["slower-within", "slower-past-bound", "fewer-ops-past-bound", "fewer-ops-within",
         "wide-parent", "wide-parent-all-better"],
)
def test_bound_verdict(metric, parent, change, verdict):
    assert _module().verdict(metric, parent, change, claimed=False) == verdict


def test_pair_ratios_are_recorded_beside_the_verdict():
    module = _module()
    parent = [1.0, 2.0, 1.0, 4.0, 1.0]
    change = [0.5, 1.0, 0.8, 2.0, 0.9]  # ratios 0.5, 0.5, 0.8, 0.5, 0.9
    assert module.pair_ratios(parent, change) == {"median": 0.5, "iqr": 0.3}
    assert module.pair_ratios([0.0, 1.0], [1.0, 1.0]) is None
    summary = module.summarize(SPEC, {"parent": _runs(parent, per_s=50.0),
                                      "change": _runs(change, per_s=100.0)})
    assert summary["op_p50_s"]["pair_ratio"] == {"median": 0.5, "iqr": 0.3}
    assert summary["ops_per_s"]["pair_ratio"] == {"median": 2.0, "iqr": 0.0}
    # The ratios do not enter the verdict.
    assert summary["op_p50_s"]["verdict"] == module.verdict(OP_P50, parent, change, claimed=False)
