"""Alternating parent/change pairs of the benchmark, summarized as BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload corpus --workload verify6 --pairs 10 \\
        --first-seed 71 --claim corpus op_p50_s "median at least 20% lower" \\
        --description "what the change does" --out BENCH_7.json \\
        --change-commit "the commit that adds this file"

Each checkout runs its own unchanged `perfbench/run.py --trace 0` for
the `run_seconds` that BENCHMARK.json fixes.  A claim needs at least 10
pairs, a workload among the `--workload` values and a metric among
BENCHMARK.json's end-to-end names; without one, a single pair will do.
Pair i uses seed first_seed + i on both sides; the parent runs first in
even pairs and the change first in odd pairs.  For every
end-to-end metric of BENCHMARK.json the file records each side's
quartiles (inclusive method) and raw runs, in how many pairs the
change was better (ties count for neither side), the median and
interquartile range of the per-pair ratios change/parent (the two runs
of a pair share the machine's drift, which the ratio cancels) and a
verdict; per workload it records attempted and failed ops.  The ratios
are recorded beside the verdict and do not enter it.

The claimed metric's verdict is "claim met" when the change won at
least 9 in 10 pairs and its median beats the parent's by more than the
parent's interquartile range, else "claim not met".  Every other metric
reads "within bound" when every change run beats every parent run, or
else when the change's median is worse than the parent's by at most
the metric's bound (a fraction of the parent's median); "unresolved"
when the parent's interquartile range exceeds that bound; and "worse
than bound" otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run; its last stdout line is the result JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_of(checkout: Path) -> str:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:  # statistics.quantiles needs two points
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = _quartiles(values)
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def pair_ratios(parent: list[float], change: list[float]) -> dict | None:
    """Median and IQR of change/parent over the pairs; None if a parent run reads 0."""
    if not all(parent):
        return None
    q1, median, q3 = _quartiles([c / p for p, c in zip(parent, change)])
    return {"median": round(median, 5), "iqr": round(q3 - q1, 5)}


def verdict(metric: dict, parent: list[float], change: list[float], claimed: bool) -> str:
    """The verdict on one metric of one workload; see the module docstring."""
    sign = 1 if metric["better"] == "lower" else -1
    p1, pmed, p3 = _quartiles(parent)
    gain = sign * (pmed - _quartiles(change)[1])  # > 0 when the change's median is better
    if claimed:
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        met = 10 * wins >= 9 * len(change) and gain > p3 - p1
        return "claim met" if met else "claim not met"
    if all(sign * (p - c) > 0 for p in parent for c in change):
        return "within bound"
    bound = metric["bound"] * abs(pmed)
    if p3 - p1 > bound:
        return "unresolved"
    return "within bound" if -gain <= bound else "worse than bound"


def summarize(spec: dict, runs: dict[str, list[dict]], claimed: str | None = None) -> dict:
    """Per-metric quartiles, raw runs, change wins and verdict, plus op counts.

    *claimed* names the metric claimed on this workload, if any.
    """
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(values["parent"], values["change"])
        )
        out[name] = {
            "verdict": verdict(metric, values["parent"], values["change"], name == claimed),
            "better": metric["better"],
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_wins": f"{wins}/{len(values['change'])}",
            "pair_ratio": pair_ratios(values["parent"], values["change"]),
            "parent_runs": [round(v, 5) for v in values["parent"]],
            "change_runs": [round(v, 5) for v in values["change"]],
        }
    for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted")):
        out[key] = {side: sum(r[field] for r in runs[side]) for side in runs}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "TARGET"))
    parser.add_argument("--description", required=True)
    parser.add_argument("--change-commit",
                        help="default: git rev-parse HEAD of --change; name it when the "
                             "change is not committed yet")
    parser.add_argument("--machine", default=f"{os.cpu_count()}-core {platform.machine()}")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.claim:
        workload, metric, _ = args.claim
        if args.pairs < 10:
            parser.error("a claim needs at least 10 pairs")
        if workload not in args.workload:
            parser.error(f"claimed workload {workload!r} is not among the --workload values")
        metrics = [m["name"] for m in spec["end_to_end"]]
        if metric not in metrics:
            parser.error(f"claimed metric {metric!r} is not an end-to-end metric: {metrics}")
    elif args.pairs < 1:
        parser.error("--pairs must be at least 1")

    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = {}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(checkouts[side], workload, seed, seconds)
                runs[side].append(result)
                op = result["metrics"]["op_p50_s"]["value"]
                print(f"{workload} pair {i} seed {seed} {side}: op_p50_s {op:.5f} "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
        claimed = args.claim[1] if args.claim and args.claim[0] == workload else None
        workloads[workload] = summarize(spec, runs, claimed)
        for name, entry in workloads[workload].items():
            if "verdict" in entry:
                ratio = entry["pair_ratio"] or {"median": float("nan"), "iqr": float("nan")}
                print(f"{workload} {name}: {entry['verdict']}; change/parent per pair "
                      f"median {ratio['median']:.3f}, IQR {ratio['iqr']:.3f}", flush=True)

    first, last = args.first_seed, args.first_seed + args.pairs - 1
    report = {
        "change": args.description,
        "parent_commit": commit_of(checkouts["parent"]),
        "change_commit": args.change_commit or commit_of(checkouts["change"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": args.machine,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": f"{args.pairs} pairs per workload, seeds {first}-{last} (one seed per "
                 "pair, same on both sides); parent ran first in even pairs, the change "
                 "first in odd pairs; each side ran from its own checkout",
    }
    if args.claim:
        workload, metric, target = args.claim
        report["claim"] = {"workload": workload, "metric": metric, "target": target}
    report["workloads"] = workloads
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
