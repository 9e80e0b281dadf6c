"""The benchmark's per-layer tracer still installs around the library.

`perfbench/tracing.py` wraps sympcoh's functions from the outside and
reads matrices through their dense `rows` view, so a storage change in
`linalg` could break the per-layer breakdown without failing any
library test.  This runs it once around a corpus report and once
around a small verify run, whose per-layer breakdown also times HLC and
the theorem checks.
"""

import importlib.util
from pathlib import Path

from sympcoh import SymplecticCohomology, corpus_model, run_compute, run_verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_one_corpus_report():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.run_op(0, lambda: run_compute(corpus_model("example1")).to_json())
    finally:
        tracer.uninstall()
    _, calls = tracer.self_times()
    assert calls["linalg.kernel"] >= 1
    assert calls["linalg.rref"] >= calls["linalg.kernel"]
    assert tracer.max_bits >= 1


def test_tracer_wraps_one_verify_run():
    originals = dict(vars(SymplecticCohomology))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.run_op(0, lambda: run_verify(
            seed=0, dims=(4,), count_per_dim=1, include_corpus=False
        ).format_text())
    finally:
        tracer.uninstall()
    assert dict(vars(SymplecticCohomology)) == originals
    _, calls = tracer.self_times()
    for span in ("verify.operator_suite", "cohomology.hlc", "cohomology.checks"):
        assert calls[span] >= 1, span
