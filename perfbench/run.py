"""sympcoh benchmark: one workload per run, every op checked exactly.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs from a source checkout (it imports `src/sympcoh`, builds nothing) in
one process and one thread: a closed loop with a single client that
repeats whole cycles of the workload's ops (see workloads.py) until
--seconds have passed.  Prints each metric by name with its unit and
sample count, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, untraced.
--trace 1 reports its per-layer metrics: one untraced cycle (the
reference for the tracing overhead), then whole cycles under the
wrappers of tracing.py for the rest of --seconds; the spans go to
perfbench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11  # fresh processes timed per run; setup_s is their median


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes; one extra first probe warms caches."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


def measure(cycle, seconds: float, tracer=None):
    """Run whole cycles until *seconds* have passed.

    Returns (op seconds, op labels, {op index: failure message}).  An
    op's time covers the library calls only; its output check runs after.
    """
    times: list[float] = []
    labels: list[str] = []
    errors: dict[int, str] = {}
    start = perf_counter()
    while True:
        for op in cycle:
            t0 = perf_counter()
            try:
                output = tracer.run_op(len(times), op.run) if tracer else op.run()
            except Exception:  # a raising op is a failed op; keep measuring
                errors[len(times)] = f"{op.label} raised:\n{traceback.format_exc()}"
                times.append(perf_counter() - t0)
            else:
                times.append(perf_counter() - t0)
                problem = op.check(output)
                if problem is not None:
                    errors[len(times) - 1] = problem
            labels.append(op.label)
        if perf_counter() - start >= seconds:
            return times, labels, errors


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(args, cycle) -> tuple[dict, dict, list[str], int]:
    """End-to-end values, sample counts, failure messages, ops attempted."""
    setups = setup_seconds(args.workload, args.seed)
    times, _, errors = measure(cycle, args.seconds)
    ok_ops = len(times) - len(errors)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "ops_per_s": ok_ops / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setups), "op_p50_s": len(times), "ops_per_s": len(times),
              "peak_rss_mb": 1}
    found = tail(times)
    if found is None:
        print(f"op_tail_s: n/a ({len(times)} ops; needs at least 11)")
    else:
        print(f"op_tail_s: p{found[0]:.1f} = {found[1]:.6f} s (n={len(times)})")
    print(f"failed_ratio: {len(errors)}/{len(times)} = {len(errors) / len(times):.6g}")
    return values, counts, list(errors.values()), len(times)


def per_layer(args, cycle) -> tuple[dict, dict, list[str], int]:
    """Per-layer values from a traced run, as end_to_end returns them."""
    from tracing import Tracer

    start = perf_counter()
    plain, _, plain_errors = measure(cycle, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, labels, traced_errors = measure(
            cycle, args.seconds - (perf_counter() - start), tracer)
    finally:
        tracer.uninstall()  # raises if any wrapper is left behind

    ops = len(traced)
    totals, calls = tracer.self_times()
    for op_id, message in repeat_mismatches(tracer, labels).items():
        traced_errors.setdefault(op_id, message)
    errors = list(plain_errors.values()) + list(traced_errors.values())
    values: dict[str, float] = {}
    for name in set(totals) | set(calls):
        values[f"{name}.self_s"] = totals[name] / ops
        values[f"{name}.calls"] = calls[name] / ops
    for name, count in tracer.counters.items():
        values[name] = count / ops
    values["linalg.max_bits"] = tracer.max_bits
    coh = [label for label in tracer.memo_calls if label.startswith("SymplecticCohomology.")]
    memo_calls = sum(tracer.memo_calls[label] for label in coh)
    memo_hits = sum(tracer.memo_hits[label] for label in coh)
    values["cohomology.cache.hit_ratio"] = memo_hits / memo_calls if memo_calls else 0.0
    values["trace.op_p50_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    print(f"traced ops: {ops}, untraced ops: {len(plain)}, spans: {len(tracer.span_start)}")
    print(f"tracing overhead: traced op_p50 {statistics.median(traced):.6f} s vs "
          f"untraced {statistics.median(plain):.6f} s")
    for label in sorted(tracer.memo_calls):
        print(f"cache {label}: {tracer.memo_hits[label]}/{tracer.memo_calls[label]} hits")
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in totals.items():
        layers[name.partition(".")[0]] += seconds
    whole = sum(totals.values())
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"share of traced op time: {layer:11s} {100 * seconds / whole:5.1f}%")
    path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    counts = defaultdict(lambda: ops)
    return values, counts, errors, len(plain) + ops


def repeat_mismatches(tracer, labels: list[str]) -> dict[int, str]:
    """Ops on the same input must repeat every exact counter exactly."""
    signatures = tracer.op_signatures()
    first_of: dict[str, tuple] = {}
    errors = {}
    for op_id, label in enumerate(labels):
        first = first_of.setdefault(label, signatures[op_id])
        if first != signatures[op_id]:
            errors[op_id] = f"{label}: exact trace counters differ between repeats"
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sympcoh" / "__init__.py").is_file():
        die(f"no sympcoh sources under {SRC}; run from a sympcoh checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    import sympcoh
    import workloads

    if Path(sympcoh.__file__).resolve().parent != (SRC / "sympcoh").resolve():
        die(f"imported sympcoh from {sympcoh.__file__}, not from {SRC}")
    cycle = workloads.build(args.workload, args.seed)

    run = per_layer if args.trace else end_to_end
    values, counts, errors, attempted = run(args, cycle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name, 0.0)  # a layer never entered did no work
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={counts[name]})")
    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
