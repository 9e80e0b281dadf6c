"""Record the exact outputs the benchmark gates on into expected.json.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known to be right (the one the
benchmark was introduced with): every later run of the benchmark counts
an op as failed when its output differs from what this file recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sympcoh  # noqa: E402
from workloads import EXPECTED, VERIFY_POOL, sha256  # noqa: E402

MODELS = Path(__file__).resolve().parent / "models"

# Known invariants of the larger models, asserted before their report
# hashes are recorded.  No workload runs these models yet (see README.md);
# their seed-commit outputs are kept for the workloads that will.
INVARIANTS = {
    "nil8": {
        "betti": [1, 5, 11, 15, 16, 15, 11, 5, 1],
        "hlc": False,
        "dd_lambda_lemma": False,
    },
    "derham10": {"betti": [1, 7, 22, 42, 57, 62, 57, 42, 22, 7, 1]},
}


def main() -> int:
    models = list(sympcoh.corpus())
    models += [sympcoh.load_model(MODELS / f"{name}.model") for name in INVARIANTS]
    reports = {}
    for model in models:
        report = sympcoh.run_compute(model)
        entry = {"sha256": sha256(report.to_json())}
        for key, want in INVARIANTS.get(model.name, {}).items():
            got = report.data[key]
            if key == "hlc":
                got = got["overall"]
            if got != want:
                raise SystemExit(f"{model.name}: {key} is {got}, expected {want}")
            entry[key] = want
        reports[model.name] = entry
        print(model.name, entry, flush=True)
    verify = {}
    for seed in range(VERIFY_POOL):
        summary = sympcoh.run_verify(
            seed=seed, dims=(6,), count_per_dim=1, include_corpus=False
        )
        if not summary.ok:
            raise SystemExit(f"verify seed {seed} failed:\n{summary.format_text()}")
        verify[str(seed)] = sorted(summary.results)
        print("verify", seed, len(verify[str(seed)]), "checks", flush=True)
    EXPECTED.write_text(json.dumps({"reports": reports, "verify6": verify}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
