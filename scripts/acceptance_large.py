"""Acceptance of the dim-10 verify and the dim-12 and dim-14 reports, outside tier-1.

    python3 scripts/acceptance_large.py

First runs `run_verify(seed=0, dims=(10,), count_per_dim=1,
include_corpus=False)`, one random structure on the dim-10 catalog
algebra, whose middle degree has 252 monomials (the Lefschetz
projectors are square there only on the Darboux model; on the
structure they act on one column), and checks the sha256 of its
`format_text()`.  It runs first, so
the process peak RSS printed after it is its own.

Then builds the full `sympcoh compute` report of nil12 (nil10 plus two
abelian directions paired by omega) and nil14 (nil12 plus two more), and
checks for each:

* the sha256 of the report JSON, recorded before the small-block fast
  paths of `linalg` (reduced inputs skip elimination, quotient solvers
  built on first use), so a change that alters any exact output fails;
* the Betti numbers against Kuenneth, H(g + R^2m) = H(g) (x) Lambda(R^2m),
  from nil10's row.

Each run's wall time is printed, so two checkouts can be compared in
alternating runs.  Exits 1 when any check fails.  pytest does not
collect this file: the dim-10 verify takes about 5 s and 31 MB, and
nil14 about 12 s and 100 MB, on a 2-core x86-64 VM.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sympcoh import parse_model_text, run_compute, run_verify  # noqa: E402

# sha256 of the seed-0 dim-10 verify text, recorded before its Lefschetz
# decomposition and coframe change became block products.
VERIFY10_SHA256 = "346455c192271cf4e40f592712542a1142cb89754ccfa9c9537d4ddab48fdc71"

NIL10_BETTI = [1, 7, 22, 42, 57, 62, 57, 42, 22, 7, 1]

NIL12 = """name = nil12
dim = 12
structure = 0,0,0,[1,2],[1,4]-[2,3],[1,5]+[3,4],0,0,0,0,0,0
omega = [1,6]+[3,5]+[2,4]+[7,8]+[9,10]+[11,12]
"""
NIL14 = """name = nil14
dim = 14
structure = 0,0,0,[1,2],[1,4]-[2,3],[1,5]+[3,4],0,0,0,0,0,0,0,0
omega = [1,6]+[3,5]+[2,4]+[7,8]+[9,10]+[11,12]+[13,14]
"""

MODELS = {
    # name: (model text, abelian directions added to nil10, report sha256)
    "nil12": (NIL12, 2, "daef6133bbc8275900a37ff4c3c33c96bed71f70f90ac3133a02d485dd6435b5"),
    "nil14": (NIL14, 4, "a9f44f34894b16c3b83e3a22a8ad5c151046e7b55fe24fda287759a400738078"),
}


def kunneth_betti(extra: int) -> list[int]:
    """nil10's Betti numbers convolved with those of the abelian R^extra."""
    out = [0] * (len(NIL10_BETTI) + extra)
    for i, b in enumerate(NIL10_BETTI):
        for j in range(extra + 1):
            out[i + j] += b * comb(extra, j)
    return out


def check(name: str) -> list[str]:
    """Build one report, print its wall time, and return what is wrong with it."""
    text, extra, want = MODELS[name]
    start = time.perf_counter()
    report = run_compute(parse_model_text(text)).to_json()
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(report.encode()).hexdigest()
    print(f"{name}: {elapsed:.2f} s, sha256 {digest}")
    problems = []
    if digest != want:
        problems.append(f"{name}: report sha256 {digest}, expected {want}")
    betti = json.loads(report)["betti"]
    if betti != kunneth_betti(extra):
        problems.append(f"{name}: Betti numbers {betti}, Kuenneth gives {kunneth_betti(extra)}")
    return problems


def check_verify10() -> list[str]:
    """Run the dim-10 verify, print its wall time and the peak RSS, and return what is wrong."""
    start = time.perf_counter()
    summary = run_verify(seed=0, dims=(10,), count_per_dim=1, include_corpus=False)
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256(summary.format_text().encode()).hexdigest()
    print(f"verify10: {elapsed:.2f} s, peak RSS {peak_mb:.1f} MB, sha256 {digest}")
    if digest != VERIFY10_SHA256:
        return [f"verify10: text sha256 {digest}, expected {VERIFY10_SHA256}"]
    return []


def main() -> int:
    problems = check_verify10() + [problem for name in MODELS for problem in check(name)]
    for problem in problems:
        print(problem, file=sys.stderr)
    print("ok" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
