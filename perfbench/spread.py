"""Run-to-run spread of the end-to-end metrics, the basis of their bounds.

    python3 perfbench/spread.py --workload nil8 --runs 10 [--first-seed 0]

Runs the benchmark command of BENCHMARK.json once per seed, one run at a
time, and prints for each end-to-end metric the median of the runs and
the spread (q3 - q1) / median, with q1 and q3 from
statistics.quantiles(values, n=4), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in args.workload:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            row = []
            for name in values:
                values[name].append(result["metrics"][name]["value"])
                row.append(f"{name}={values[name][-1]:.6g}")
            print(f"{workload} seed {seed}: {' '.join(row)}", flush=True)
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            print(f"{workload} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"spread {spread:.4f} (bound {metric['bound']}, "
                  f"{spread / metric['bound']:.2f} of it)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
