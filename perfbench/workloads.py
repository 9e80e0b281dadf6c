"""The benchmark workloads: inputs from a seed, one op each, exact gates.

`build(name, seed)` returns one cycle of ops.  The benchmark repeats
whole cycles, so every run times the same multiset of inputs and the
seed only changes their order:

* corpus  -- the five built-in models in a seed-shuffled order;
* verify6 -- run_verify on verify seeds (S + i) mod 4, i = 0..3.

Every op's output is checked against `expected.json`, which was recorded
from the code the benchmark was introduced with: report JSON must hash
to the same sha256, and a verify op must pass and report at least the
check names recorded for its verify seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import sympcoh

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

VERIFY_POOL = 4  # verify seeds 0..3; one cycle runs each once


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_op(model, expected: dict) -> Op:
    """run_compute + to_json, gated on the sha256 of the JSON."""
    want = expected["reports"][model.name]["sha256"]

    def run():
        return sympcoh.run_compute(model).to_json()

    def check(text) -> str | None:
        return None if sha256(text) == want else f"{model.name}: report JSON changed"

    return Op(model.name, run, check)


def verify_op(verify_seed: int, expected: dict) -> Op:
    """run_verify on one random dim-6 structure, gated on ok and check names."""
    names = set(expected["verify6"][str(verify_seed)])

    def run():
        return sympcoh.run_verify(
            seed=verify_seed, dims=(6,), count_per_dim=1, include_corpus=False
        )

    def check(summary) -> str | None:
        if not summary.ok:
            return f"verify seed {verify_seed}: checks failed"
        missing = names - set(summary.results)
        if missing:
            return f"verify seed {verify_seed}: checks dropped: {sorted(missing)}"
        return None

    return Op(f"verify-{verify_seed}", run, check)


def build(name: str, seed: int) -> list[Op]:
    """One cycle of ops for workload *name* under benchmark seed *seed*."""
    expected = json.loads(EXPECTED.read_text())
    if name == "corpus":
        models = list(sympcoh.corpus())
        random.Random(seed).shuffle(models)
        return [report_op(model, expected) for model in models]
    if name == "verify6":
        return [verify_op((seed + i) % VERIFY_POOL, expected) for i in range(VERIFY_POOL)]
    raise ValueError(f"unknown workload {name!r}")
