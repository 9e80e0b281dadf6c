import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sympcoh.cli import EXIT_INCONSISTENT, EXIT_INPUT, EXIT_MATH, EXIT_OK, main
from sympcoh.errors import InternalInconsistencyError


def test_compute_corpus_text(capsys):
    assert main(["compute", "example1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "model example1" in out
    assert "hard Lefschetz: False" in out


def test_compute_json(capsys):
    assert main(["compute", "example2", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == [1, 2, 3, 4, 3, 2, 1]
    assert data["hlc"]["overall"] is True
    assert data["dd_lambda_lemma"] is True


def test_compute_degree_filter(capsys):
    assert main(["compute", "example1", "--json", "--degree", "3"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert all(entry["degree"] == 3 for entry in data["decompositions"])


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["compute", "torus6", "--json", "--out", str(target)]) == EXIT_OK
    data = json.loads(target.read_text())
    assert data["model"]["name"] == "torus6"
    assert capsys.readouterr().out == ""


def test_compute_model_file(tmp_path, capsys):
    path = tmp_path / "kt.model"
    path.write_text("structure = 0,0,0,12\nomega = 13+42\n")
    assert main(["compute", str(path), "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["model"]["name"] == "kt"
    assert data["properties"]["nilpotent"] is True
    assert data["hlc"]["overall"] is False


@pytest.mark.parametrize(
    "data, offset",
    [(b"\xff\xfe", 0), (b"structure = 0,0\nomega = 12\n\xff", 27), (b"\xef\xbb\xbf12\xfe", 5)],
)
def test_model_file_that_is_not_utf8_is_input_error(tmp_path, capsys, data, offset):
    path = tmp_path / "binary.model"
    path.write_bytes(data)
    assert main(["compute", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: model file {path} is not UTF-8: bad byte at offset {offset}\n"


def test_model_file_with_a_utf8_bom_is_read(tmp_path, capsys):
    path = tmp_path / "kt.model"
    path.write_bytes("structure = 0,0,0,12\nomega = 13+42\n".encode("utf-8-sig"))
    assert main(["compute", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["model"]["name"] == "kt"


def test_unknown_model_is_input_error(capsys):
    assert main(["compute", "nonexistent"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_bad_grammar_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.model"
    path.write_text("structure = 0,0,12+\n")
    assert main(["compute", str(path)]) == EXIT_INPUT


def test_jacobi_violation_is_math_error(tmp_path, capsys):
    path = tmp_path / "notjacobi.model"
    path.write_text("structure = 0,0,0,12,13,14+25\nomega = 16+25+34\n")
    assert main(["compute", str(path)]) == EXIT_MATH
    assert "validation error" in capsys.readouterr().err


def test_degenerate_omega_is_math_error(tmp_path, capsys):
    path = tmp_path / "degenerate.model"
    path.write_text("structure = 0,0,0,0\nomega = 12\n")
    assert main(["compute", str(path)]) == EXIT_MATH


def test_odd_dimension_is_math_error(tmp_path):
    path = tmp_path / "odd.model"
    path.write_text("structure = 0,0,0\nomega = 12\n")
    assert main(["compute", str(path)]) == EXIT_MATH


def test_internal_inconsistency_maps_to_exit_3(monkeypatch, capsys):
    def explode(model):
        raise InternalInconsistencyError("synthetic failure")

    monkeypatch.setattr("sympcoh.cli.run_compute", explode)
    assert main(["compute", "example1"]) == EXIT_INCONSISTENT
    assert "internal inconsistency" in capsys.readouterr().err


def test_corrupted_d_lambda_block_exits_3_naming_the_cohomology(monkeypatch, capsys):
    import sympcoh.report
    from sympcoh import GradedOperator, QMatrix

    original = sympcoh.report._structure_on

    def corrupted(g, model):
        s = original(g, model)
        rows = [list(row) for row in s.d_lambda_block(3).rows]
        rows[0][0] += 1
        s.dLambda_op = GradedOperator(s.dim, -1, {**s.dLambda_op.blocks, 3: QMatrix(rows)})
        return s

    monkeypatch.setattr(sympcoh.report, "_structure_on", corrupted)
    assert main(["compute", "example1"]) == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: H_(d+dLambda) in degree 3:")


def test_non_unimodular_report_exits_0_with_a_non_direct_h2(tmp_path, capsys):
    """aff(R) + R^2: [omega] = [e34] = -[e12 - e34], and e12 - e34 is closed and primitive."""
    path = tmp_path / "affr_r2.model"
    path.write_text("structure = 0,12,0,0\nomega = 12+34\n")
    assert main(["compute", str(path), "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["properties"]["unimodular"] is False
    (degree2,) = [entry for entry in data["decompositions"] if entry["degree"] == 2]
    assert degree2["direct"] is False and degree2["full"] is True


def test_corrupted_h2_decomposition_on_a_unimodular_structure_exits_3(monkeypatch, capsys):
    from sympcoh import DecompositionVerdict, SymplecticCohomology

    original = SymplecticCohomology.decomposition

    def corrupted(self, degree):
        verdict = original(self, degree)
        if degree != 2:
            return verdict
        return DecompositionVerdict(
            verdict.degree, verdict.summand_dims, verdict.sum_dim, False, verdict.full
        )

    monkeypatch.setattr(SymplecticCohomology, "decomposition", corrupted)
    assert main(["compute", "example1"]) == EXIT_INCONSISTENT
    assert capsys.readouterr().err.startswith("internal inconsistency: H^2 decomposition failed")


def test_verify_small_run(capsys):
    assert main(["verify", "--seed", "3", "--dim", "4", "--count", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "theorem_h2_full_direct" in out


# sha256 of the stdout of `sympcoh verify --seed 0`.
VERIFY_SEED0_SHA256 = "c1715012f35f5c14cdb3507ccb2d7b2864704a358c49063c1aa4e5cae2ecc931"


def test_verify_seed0_stdout_is_pinned(capsys):
    assert main(["verify", "--seed", "0"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_SEED0_SHA256


def test_verify_failure_exits_3(monkeypatch, capsys):
    from sympcoh.verify import CheckResult, VerifySummary

    def fake_verify(seed, dims, count_per_dim):
        failing = CheckResult("synthetic")
        failing.record(False, "broken on purpose")
        return VerifySummary(seed=seed, structures=["x"], results={"synthetic": failing})

    monkeypatch.setattr("sympcoh.cli.run_verify", fake_verify)
    assert main(["verify"]) == EXIT_INCONSISTENT
    assert "FAILURES DETECTED" in capsys.readouterr().out


def test_verify_rejects_odd_dim(capsys):
    assert main(["verify", "--dim", "5"]) == EXIT_INPUT


def test_verify_dims_come_from_the_catalog(monkeypatch, capsys):
    from sympcoh.verify import VerifySummary

    seen = []
    monkeypatch.setattr(
        "sympcoh.cli.run_verify",
        lambda seed, dims, count_per_dim: seen.append(dims) or VerifySummary(seed, [], {}),
    )
    assert main(["verify", "--dim", "10", "--count", "1"]) == EXIT_OK
    assert main(["verify"]) == EXIT_OK
    assert seen == [(10,), (4, 6)]
    assert main(["verify", "--dim", "12"]) == EXIT_INPUT
    assert "use one of 2, 4, 6, 8, 10" in capsys.readouterr().err


def test_corpus_list(capsys):
    assert main(["corpus", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("torus6", "example1", "example2", "example3", "example4"):
        assert name in out


@pytest.mark.parametrize("degree", ["-1", "7"])
def test_compute_degree_outside_the_dimension_is_input_error(degree, capsys):
    assert main(["compute", "example1", "--degree", degree]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --degree must lie in 0..6")
    assert captured.out == ""


def test_compute_degree_is_checked_before_the_report(monkeypatch, capsys):
    monkeypatch.setattr("sympcoh.cli.run_compute", lambda model: pytest.fail("built the report"))
    assert main(["compute", "example1", "--degree", "99"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --degree must lie in 0..6, got 99")


def test_compute_degree_bounds_are_inclusive(capsys):
    for degree in ("0", "6"):
        assert main(["compute", "example1", "--json", "--degree", degree]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert [entry["degree"] for entry in data["decompositions"]] == [int(degree)]


def test_verify_negative_count_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sympcoh.cli.run_verify", lambda **kwargs: pytest.fail("ran verify"))
    assert main(["verify", "--count", "-1"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --count must be non-negative")


def test_compute_out_into_missing_directory_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["compute", "torus6", "--json", "--out", str(target)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "example1", "--degree", "abc"], "argument --degree: invalid int value: 'abc'"),
        (["compute"], "the following arguments are required: model"),
        (["verify", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ],
)
def test_argument_errors_exit_with_the_input_code(argv, message, capsys):
    """Exit 2 is reserved for math validation errors; argparse's own code would collide."""
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sympcoh")
    assert f"error: {message}\n" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"], ["verify", "-h"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: sympcoh")


def test_argument_error_exit_status_of_the_process():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "sympcoh.cli", "verify", "--seed", "x"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_INPUT
    assert "invalid int value: 'x'" in done.stderr
