"""Time one fresh process's set-up: import sympcoh and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken as its last line; run.py starts it several times
and reports the median as setup_s.  Interpreter start-up is not included.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # imports sympcoh

    workloads.build(workload, seed)
    print(perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
