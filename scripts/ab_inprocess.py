"""Alternate whole benchmark cycles of two checkouts in one process.

    python3 scripts/ab_inprocess.py --parent ../parent --change . \\
        --workload verify6 --rounds 40 --seed 0

Fresh processes of two checkouts can differ by more than a change does
(two clones of one commit have read up to 22% apart on verify6 on a
2-core x86-64 VM), so this script runs both sides in one interpreter.  It loads each checkout's
`src/sympcoh` under its own package name (`sympcoh_parent`,
`sympcoh_change`) and executes that checkout's `perfbench/workloads.py`
with `sympcoh` bound to it, so each side's ops and gates are the
benchmark's own: a report must hash to its sha256 in
`perfbench/expected.json` (read, never written), a verify op must pass
with every recorded check name.  A failed or raising op ends the run
with exit status 1.

Each side first runs one untimed cycle, which builds its process-level
caches.  Round i then runs the whole cycle of `workloads.build(workload,
seed + i)` on both sides, the parent first in even rounds, and times
every op with `perf_counter`.  Prints each side's p50 and mean op time
and the change / parent ratio of each, then one line per op label (in
sorted order) with each side's p50 and their ratio, so an effect on one
model or verify seed shows beside the totals.

`--workload` must name a workload of the change checkout's
`BENCHMARK.json` (the parent's, when the change has none); any other
name exits 2 with the valid names, before either side is loaded.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")


def _exec(name: str, path: Path, **kwargs):
    """Import the module at *path* as *name*, registered in sys.modules first."""
    spec = importlib.util.spec_from_file_location(name, path, **kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # relative imports and dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def load_side(checkout: Path, side: str):
    """The checkout's workloads module, running its own `src/sympcoh` as `sympcoh_<side>`."""
    package = checkout / "src" / "sympcoh"
    sympcoh = _exec(
        f"sympcoh_{side}", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    saved = sys.modules.get("sympcoh")
    sys.modules["sympcoh"] = sympcoh  # what the workloads' `import sympcoh` binds
    try:
        return _exec(f"workloads_{side}", checkout / "perfbench" / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["sympcoh"]
        else:
            sys.modules["sympcoh"] = saved


def workload_names(checkouts: list[Path]) -> list[str]:
    """The workload names in the first of *checkouts* that has a BENCHMARK.json."""
    for checkout in checkouts:
        declared = checkout / "BENCHMARK.json"
        if declared.exists():
            return [w["name"] for w in json.loads(declared.read_text())["workloads"]]
    return []


def run_cycle(ops, times: dict[str, list[float]] | None) -> None:
    """Run every op once, appending its time to times[label]; exit 1 on a failed op."""
    for op in ops:
        t0 = perf_counter()
        output = op.run()
        elapsed = perf_counter() - t0
        problem = op.check(output)
        if problem is not None:
            sys.exit(f"ab_inprocess: {problem}")
        if times is not None:
            times.setdefault(op.label, []).append(elapsed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = workload_names([checkouts["change"], checkouts["parent"]])
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)})")

    workloads = {side: load_side(checkouts[side], side) for side in SIDES}
    for side in SIDES:
        run_cycle(workloads[side].build(args.workload, args.seed), None)
    times: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    for i in range(args.rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run_cycle(workloads[side].build(args.workload, args.seed + i), times[side])

    every = {side: [t for ts in times[side].values() for t in ts] for side in SIDES}
    stats = {
        side: (statistics.median(every[side]), statistics.fmean(every[side])) for side in SIDES
    }
    print(f"{args.workload}: {args.rounds} rounds, {len(every['parent'])} ops a side")
    for side in SIDES:
        p50, mean = stats[side]
        print(f"  {side:6}  p50 {p50 * 1e3:9.3f} ms  mean {mean * 1e3:9.3f} ms"
              f"  ({checkouts[side]})")
    p50_ratio = stats["change"][0] / stats["parent"][0]
    mean_ratio = stats["change"][1] / stats["parent"][1]
    print(f"  change / parent  p50 {p50_ratio:.3f}  mean {mean_ratio:.3f}")
    width = max(map(len, times["parent"]))
    for label in sorted(times["parent"]):
        parent, change = (statistics.median(times[side][label]) for side in SIDES)
        print(f"  {label:{width}}  parent p50 {parent * 1e3:9.3f} ms"
              f"  change p50 {change * 1e3:9.3f} ms  change / parent {change / parent:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
