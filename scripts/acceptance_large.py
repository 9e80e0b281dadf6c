"""Acceptance of the dim-10 verify and of large reports, outside tier-1.

    python3 scripts/acceptance_large.py

It takes no options: `--help` prints this text, and any argument exits 2
before a check runs.

First runs `run_verify(seed=0, dims=(10,), count_per_dim=1,
include_corpus=False)`, one random structure on the dim-10 catalog
algebra, whose middle degree has 252 monomials (the Lefschetz
projectors are square there only on the Darboux model; on the
structure they act on one column), and checks the sha256 of its
`format_text()`.

Then builds the full `sympcoh compute` report of four models:

* nil12 (nil10 plus two abelian directions paired by omega) and nil14
  (nil12 plus two more), in a nice basis, where d and omega are sparse
  index patterns;
* generic nil8 and generic nil10: the algebras and omegas of
  `perfbench/models/nil8.model` and `nil10.model` rewritten with
  `verify.transform_coframe` under a coframe change M with 1 on the
  diagonal and, row by row, each off-diagonal entry
  `rng.choice((-1, 1)) if rng.random() < 0.3 else 0` for
  `rng = random.Random(7)`.  Their d has 3,408 and 43,356 nonzeros
  (160 and 640 in the nice basis).  The texts are stored below as
  written out, so the inputs depend on neither the rng nor
  `transform_coframe`.

It checks for each:

* the sha256 of the report JSON, recorded at an earlier commit, so a
  change that alters any exact output fails;
* the Betti numbers: Kuenneth, H(g + R^2m) = H(g) (x) Lambda(R^2m), from
  nil10's row for nil12 and nil14, and the nice-basis models' rows for
  the generic ones;
* coframe invariance, for the generic ones: every JSON field of the
  report but `model` and the `representatives` lists (Betti numbers,
  cohomology and H^(r,s) dimensions, decomposition, HLC and dd^Lambda
  verdicts) equals that of the report of the nice-basis model it was
  rewritten from, read from `perfbench/models/`.  A mismatch names the
  field.

Each run's wall time is printed with the process peak RSS so far, so
two checkouts can be compared in alternating runs.  The verify runs
first, so its peak is its own; a later line shows a larger peak only
when that report, or what it left cached, needed more.  Exits 1 when
any check fails.  pytest does not collect this file.  On a 2-core x86-64 VM, the dim-10 verify takes
1.3-1.9 s and 33 MB; nil14, the largest nice-basis report, 3.1-4.8 s
and 88 MB; and generic nil10 12-15.5 s (eight runs each, alternating with
runs of the previous commit; this VM's speed drifts between runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sympcoh import load_model, parse_model_text, run_compute, run_verify  # noqa: E402

# sha256 of the seed-0 dim-10 verify text, recorded before its Lefschetz
# decomposition and coframe change became block products.
VERIFY10_SHA256 = "346455c192271cf4e40f592712542a1142cb89754ccfa9c9537d4ddab48fdc71"

NIL8_BETTI = [1, 5, 11, 15, 16, 15, 11, 5, 1]
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

GENERIC_NIL8 = (
    "name = generic_nil8\n"
    "dim = 8\n"
    "structure = -3*12-13+5/2*14+1/2*15+5/2*17-3/2*18+23-6*24-5*25+3*26-27-3/2*34-3/2*35"
    "+36+1/2*37-1/2*38+3*45-5/2*46-4*47+7/2*48-1/2*56-4*57+5/2*58+5/2*67-3/2*68+1/2*78,0,"
    "0,12+1/2*13-1/2*14-17+1/2*18-23+24+25-26+27+1/2*35-1/2*36-1/2*37+1/2*38-1/2*45"
    "+1/2*46+1/2*47-1/2*48+57-1/2*58-67+1/2*68-1/2*78,-1/2*14+23+24+28+1/2*34+37-1/2*45"
    "+1/2*46+1/2*47-48-78,4*12+3/2*13-7/2*14-1/2*15-7/2*17+2*18-23+8*24+6*25-4*26+2*27+28"
    "+2*34+2*35-3/2*36+38-4*45+7/2*46+5*47-5*48+1/2*56+5*57-3*58-7/2*67+2*68-2*78,0,12"
    "+1/2*13-1/2*14-17+1/2*18-23+24+25-26+27+1/2*35-1/2*36-1/2*37+1/2*38-1/2*45+1/2*46"
    "+1/2*47-1/2*48+57-1/2*58-67+1/2*68-1/2*78\n"
    "omega = -12-1/2*13-1/2*14-1/2*16+17+1/2*18-2*24-2*25+3*26-27-2*28-34-1/2*35+36"
    "-1/2*37-1/2*38-1/2*45-3/2*47+1/2*48+1/2*56-2*57-1/2*58+5/2*67-1/2*68+5/2*78\n"
)

GENERIC_NIL10 = (
    "name = generic_nil10\n"
    "dim = 10\n"
    "structure = -[1,2]+1/2*[1,3]+1/4*[1,4]+1/4*[1,5]-3/4*[1,7]-5/4*[1,8]-1/4*[1,9]"
    "-1/4*[1,10]+1/2*[2,3]-5/4*[2,4]+3/4*[2,5]-2*[2,6]-1/4*[2,7]+5/4*[2,8]+1/4*[2,9]"
    "+5/4*[2,10]+11/12*[3,4]-5/12*[3,5]+4/3*[3,6]-5/12*[3,7]-17/12*[3,8]-5/12*[3,9]"
    "-11/12*[3,10]-1/2*[4,5]+1/2*[4,6]+5/6*[4,7]+5/4*[4,8]+1/4*[4,9]+1/2*[5,6]-1/3*[5,7]"
    "-5/4*[5,8]-1/4*[5,9]-1/2*[5,10]+7/6*[6,7]+5/2*[6,8]+1/2*[6,9]+1/2*[6,10]+13/12*[7,8]"
    "+1/12*[7,9]+5/6*[7,10]+5/4*[8,10]+1/4*[9,10],-1/2*[1,2]+1/6*[1,3]-1/3*[1,4]"
    "+1/3*[1,5]-2/3*[1,6]-1/6*[1,8]+1/3*[1,9]+1/3*[1,10]-1/6*[2,3]-11/12*[2,4]+5/12*[2,5]"
    "-4/3*[2,6]-1/4*[2,7]+11/12*[2,8]+5/12*[2,9]+11/12*[2,10]+1/12*[3,4]-1/4*[3,5]"
    "+1/3*[3,6]+5/12*[3,7]+1/12*[3,8]+1/12*[3,9]-1/12*[3,10]-1/6*[4,5]+1/6*[4,6]"
    "+1/6*[4,7]+11/12*[4,8]-1/3*[4,9]+1/6*[5,6]+1/3*[5,7]-7/12*[5,8]+1/6*[5,9]-1/6*[5,10]"
    "-1/6*[6,7]+3/2*[6,8]-1/2*[6,9]+1/6*[6,10]+5/12*[7,8]+1/6*[7,9]+1/6*[7,10]+3/4*[8,9]"
    "+11/12*[8,10]-1/3*[9,10],-1/2*[1,2]+1/3*[1,3]+1/3*[1,4]+1/6*[1,5]+1/6*[1,6]"
    "-1/2*[1,7]-5/6*[1,8]-1/3*[1,9]-1/3*[1,10]+1/3*[2,3]-5/12*[2,4]+5/12*[2,5]-5/6*[2,6]"
    "-1/4*[2,7]+5/12*[2,8]-1/12*[2,9]+5/12*[2,10]+1/2*[3,4]-1/6*[3,5]+2/3*[3,6]-1/6*[3,7]"
    "-5/6*[3,8]-1/6*[3,9]-1/2*[3,10]-5/12*[4,5]+5/12*[4,6]+7/12*[4,7]+5/12*[4,8]"
    "+1/3*[4,9]+5/12*[5,6]-1/3*[5,7]-5/6*[5,8]-1/4*[5,9]-5/12*[5,10]+11/12*[6,7]"
    "+5/4*[6,8]+7/12*[6,9]+5/12*[6,10]+5/6*[7,8]+1/12*[7,9]+7/12*[7,10]-5/12*[8,9]"
    "+5/12*[8,10]+1/3*[9,10],-1/6*[1,3]-5/12*[1,4]-1/12*[1,5]-1/3*[1,6]+1/4*[1,7]"
    "+5/12*[1,8]+5/12*[1,9]+5/12*[1,10]-1/6*[2,3]-5/12*[2,4]-1/12*[2,5]-1/3*[2,6]"
    "+1/4*[2,7]+5/12*[2,8]+5/12*[2,9]+5/12*[2,10]-1/12*[3,4]-1/12*[3,5]-1/12*[3,7]"
    "+1/4*[3,8]-1/12*[3,9]+1/12*[3,10]+1/3*[4,5]-1/3*[4,6]-1/3*[4,7]+5/12*[4,8]"
    "-5/12*[4,9]-1/3*[5,6]+1/3*[5,7]+5/12*[5,8]+1/4*[5,9]+1/3*[5,10]-2/3*[6,7]-2/3*[6,9]"
    "-1/3*[6,10]-7/12*[7,8]-1/12*[7,9]-1/3*[7,10]+5/6*[8,9]+5/12*[8,10]-5/12*[9,10],[1,2]"
    "-1/2*[1,3]-1/2*[1,4]-1/2*[1,6]+[1,7]+3/2*[1,8]+1/2*[1,9]+1/2*[1,10]-5/6*[2,3]"
    "+7/6*[2,4]-2/3*[2,5]+11/6*[2,6]-7/6*[2,8]-1/6*[2,9]-7/6*[2,10]-5/4*[3,4]+5/12*[3,5]"
    "-5/3*[3,6]+13/12*[3,7]+25/12*[3,8]+3/4*[3,9]+5/4*[3,10]+5/12*[4,5]-5/12*[4,6]"
    "-11/12*[4,7]-7/6*[4,8]-1/2*[4,9]-5/12*[5,6]+2/3*[5,7]+13/12*[5,8]+5/12*[5,9]"
    "+5/12*[5,10]-19/12*[6,7]-9/4*[6,8]-11/12*[6,9]-5/12*[6,10]-11/12*[7,8]+1/12*[7,9]"
    "-11/12*[7,10]+1/3*[8,9]-7/6*[8,10]-1/2*[9,10],1/6*[1,3]+5/12*[1,4]+1/12*[1,5]"
    "+1/3*[1,6]-1/4*[1,7]-5/12*[1,8]-5/12*[1,9]-5/12*[1,10]+1/6*[2,3]+5/12*[2,4]"
    "+1/12*[2,5]+1/3*[2,6]-1/4*[2,7]-5/12*[2,8]-5/12*[2,9]-5/12*[2,10]+1/12*[3,4]"
    "+1/12*[3,5]+1/12*[3,7]-1/4*[3,8]+1/12*[3,9]-1/12*[3,10]-1/3*[4,5]+1/3*[4,6]"
    "+1/3*[4,7]-5/12*[4,8]+5/12*[4,9]+1/3*[5,6]-1/3*[5,7]-5/12*[5,8]-1/4*[5,9]-1/3*[5,10]"
    "+2/3*[6,7]+2/3*[6,9]+1/3*[6,10]+7/12*[7,8]+1/12*[7,9]+1/3*[7,10]-5/6*[8,9]"
    "-5/12*[8,10]+5/12*[9,10],0,1/2*[1,2]-1/6*[1,3]+1/12*[1,4]-1/12*[1,5]+1/6*[1,6]"
    "+1/4*[1,7]+5/12*[1,8]-1/12*[1,9]-1/12*[1,10]-1/6*[2,3]+5/6*[2,4]-1/3*[2,5]+7/6*[2,6]"
    "-5/6*[2,8]-1/3*[2,9]-5/6*[2,10]-5/12*[3,4]+1/4*[3,5]-2/3*[3,6]+1/4*[3,7]+7/12*[3,8]"
    "+1/4*[3,9]+5/12*[3,10]+1/12*[4,5]-1/12*[4,6]-1/4*[4,7]-5/6*[4,8]+1/12*[4,9]"
    "-1/12*[5,6]+5/12*[5,8]+1/12*[5,10]-1/4*[6,7]-5/4*[6,8]+1/12*[6,9]-1/12*[6,10]"
    "-1/4*[7,8]-1/4*[7,10]-5/12*[8,9]-5/6*[8,10]+1/12*[9,10],-1/2*[1,2]+1/6*[1,3]"
    "-1/12*[1,4]+1/12*[1,5]-1/6*[1,6]-1/4*[1,7]-5/12*[1,8]+1/12*[1,9]+1/12*[1,10]"
    "+1/6*[2,3]-5/6*[2,4]+1/3*[2,5]-7/6*[2,6]+5/6*[2,8]+1/3*[2,9]+5/6*[2,10]+5/12*[3,4]"
    "-1/4*[3,5]+2/3*[3,6]-1/4*[3,7]-7/12*[3,8]-1/4*[3,9]-5/12*[3,10]-1/12*[4,5]"
    "+1/12*[4,6]+1/4*[4,7]+5/6*[4,8]-1/12*[4,9]+1/12*[5,6]-5/12*[5,8]-1/12*[5,10]"
    "+1/4*[6,7]+5/4*[6,8]-1/12*[6,9]+1/12*[6,10]+1/4*[7,8]+1/4*[7,10]+5/12*[8,9]"
    "+5/6*[8,10]-1/12*[9,10],1/4*[1,4]-1/4*[1,5]+1/2*[1,6]-1/4*[1,7]-1/4*[1,8]-1/4*[1,9]"
    "-1/4*[1,10]+1/3*[2,3]+1/12*[2,4]-1/12*[2,5]+1/6*[2,6]+1/4*[2,7]-1/12*[2,8]"
    "-1/12*[2,9]-1/12*[2,10]+1/3*[3,4]+1/3*[3,6]-2/3*[3,7]-2/3*[3,8]-1/3*[3,9]-1/3*[3,10]"
    "+1/12*[4,5]-1/12*[4,6]+1/12*[4,7]-1/12*[4,8]+1/4*[4,9]-1/12*[5,6]-1/3*[5,7]"
    "+1/6*[5,8]-1/6*[5,9]+1/12*[5,10]+5/12*[6,7]-1/4*[6,8]+5/12*[6,9]-1/12*[6,10]"
    "-1/6*[7,8]-1/6*[7,9]+1/12*[7,10]-1/3*[8,9]-1/12*[8,10]+1/4*[9,10]\n"
    "omega = 1/2*[1,2]-1/4*[1,4]-1/4*[1,5]+3/4*[1,7]+3/4*[1,8]-1/4*[1,9]+1/4*[1,10]"
    "-2/3*[2,3]-1/6*[2,4]-1/3*[2,5]+1/6*[2,6]+1/6*[2,8]+1/6*[2,9]-1/3*[2,10]-1/6*[3,4]"
    "-1/3*[3,5]+1/6*[3,6]+2/3*[3,7]+1/2*[3,8]-1/6*[3,9]-1/2*[4,6]-5/6*[4,7]+1/3*[4,8]"
    "+1/6*[4,9]+1/3*[4,10]+1/3*[5,7]+1/6*[5,8]-2/3*[5,9]+1/6*[5,10]-7/6*[6,7]-1/3*[6,8]"
    "+1/3*[6,9]+1/6*[6,10]-1/3*[7,8]+1/6*[7,9]-5/6*[7,10]+1/6*[8,9]-1/2*[8,10]"
    "+1/3*[9,10]\n"
)


def kunneth_betti(extra: int) -> list[int]:
    """nil10's Betti numbers convolved with those of the abelian R^extra."""
    out = [0] * (len(NIL10_BETTI) + extra)
    for i, b in enumerate(NIL10_BETTI):
        for j in range(extra + 1):
            out[i + j] += b * comb(extra, j)
    return out


MODELS = {
    # name: (model text, Betti numbers, report sha256)
    "nil12": (NIL12, kunneth_betti(2),
              "daef6133bbc8275900a37ff4c3c33c96bed71f70f90ac3133a02d485dd6435b5"),
    "nil14": (NIL14, kunneth_betti(4),
              "a9f44f34894b16c3b83e3a22a8ad5c151046e7b55fe24fda287759a400738078"),
    "generic_nil8": (GENERIC_NIL8, NIL8_BETTI,
                     "de496368428fd5aad938d634465da3e3fb26b018426168bf74500c3855d212af"),
    "generic_nil10": (GENERIC_NIL10, NIL10_BETTI,
                      "fafafcc5e1487c27bff7b0e32aa30a0bd41093e25d1a736302ad8745513e7a71"),
}


# The nice-basis model each generic one was rewritten from.
NICE_MODELS = {
    "generic_nil8": ROOT / "perfbench" / "models" / "nil8.model",
    "generic_nil10": ROOT / "perfbench" / "models" / "nil10.model",
}


def invariant_fields(report: dict) -> dict[str, object]:
    """Each field of a report no change of coframe may alter, keyed by its path.

    That is every field but `model` and the `representatives` lists.
    """
    out: dict[str, object] = {}

    def walk(x, path: str) -> None:
        if isinstance(x, dict):
            for key, value in x.items():
                if key != "representatives" and f"{path}{key}" != "model":
                    walk(value, f"{path}{key}.")
        elif isinstance(x, list) and any(isinstance(v, (dict, list)) for v in x):
            for i, value in enumerate(x):
                walk(value, f"{path[:-1]}[{i}].")
        else:
            out[path[:-1]] = x

    walk(report, "")
    return out


def check_coframe(name: str, report: dict) -> list[str]:
    """Compare a generic report with its nice-basis model's, field by field."""
    path = NICE_MODELS[name]
    nice = invariant_fields(json.loads(run_compute(load_model(path)).to_json()))
    got = invariant_fields(report)
    problems = []
    for field in sorted(got.keys() | nice.keys()):
        if field not in got or field not in nice or got[field] != nice[field]:
            problems.append(
                f"{name}: field {field} is {got.get(field, '(missing)')!r}, "
                f"{path.name} gives {nice.get(field, '(missing)')!r}"
            )
    print(f"{name}: {len(nice)} invariant fields against {path.name}, {len(problems)} differ")
    return problems


def peak_mb() -> float:
    """The peak resident set size of this process so far, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check(name: str) -> list[str]:
    """Build one report, print its wall time and the peak RSS, and return what is wrong with it."""
    text, betti_want, want = MODELS[name]
    start = time.perf_counter()
    report = run_compute(parse_model_text(text)).to_json()
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(report.encode()).hexdigest()
    print(f"{name}: {elapsed:.2f} s, peak RSS {peak_mb():.1f} MB, sha256 {digest}")
    problems = []
    if digest != want:
        problems.append(f"{name}: report sha256 {digest}, expected {want}")
    data = json.loads(report)
    if data["betti"] != betti_want:
        problems.append(f"{name}: Betti numbers {data['betti']}, expected {betti_want}")
    if name in NICE_MODELS:
        problems += check_coframe(name, data)
    return problems


def check_verify10() -> list[str]:
    """Run the dim-10 verify, print its wall time and the peak RSS, and return what is wrong."""
    start = time.perf_counter()
    summary = run_verify(seed=0, dims=(10,), count_per_dim=1, include_corpus=False)
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(summary.format_text().encode()).hexdigest()
    print(f"verify10: {elapsed:.2f} s, peak RSS {peak_mb():.1f} MB, sha256 {digest}")
    if digest != VERIFY10_SHA256:
        return [f"verify10: text sha256 {digest}, expected {VERIFY10_SHA256}"]
    return []


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    problems = check_verify10() + [problem for name in MODELS for problem in check(name)]
    for problem in problems:
        print(problem, file=sys.stderr)
    print("ok" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
