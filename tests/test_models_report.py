import hashlib
import json
from pathlib import Path

import pytest

from sympcoh import (
    ModelFile,
    ModelFileError,
    corpus,
    corpus_model,
    corpus_names,
    load_model,
    parse_model_text,
    run_compute,
)
from sympcoh.models import FLAG_COMPLETELY_SOLVABLE, FLAG_LATTICE
from sympcoh.report import CAVEAT_LATTICE_UNIMODULAR, CAVEAT_LOWER_BOUND


MODEL_TEXT = """\
# a comment
name = demo
dim = 6
structure = 0,0,0,12,14-23,15+34
omega = 16+35+24

flag = assert-lattice
form.psi = 136+125
"""


class TestModelFiles:
    def test_parse_full(self):
        model = parse_model_text(MODEL_TEXT)
        assert model.name == "demo"
        assert model.dim == 6
        assert model.structure == "0,0,0,12,14-23,15+34"
        assert model.omega == "16+35+24"
        assert model.flags == frozenset({"assert-lattice"})
        assert model.extra_forms == (("psi", "136+125"),)

    def test_missing_structure(self):
        with pytest.raises(ModelFileError):
            parse_model_text("name = x\n")

    def test_unknown_key(self):
        with pytest.raises(ModelFileError):
            parse_model_text("structure = 0,0\nshape = round\n")

    def test_unknown_flag(self):
        with pytest.raises(ModelFileError):
            parse_model_text("structure = 0,0\nflag = assert-anything\n")

    def test_duplicate_key(self):
        with pytest.raises(ModelFileError):
            parse_model_text("structure = 0,0\nstructure = 0,0\n")

    @pytest.mark.parametrize("value", ["\u0666", "0_6", "+6", "6.0", "--6"])
    def test_dim_is_ascii_digits_only(self, value):
        with pytest.raises(ModelFileError, match="line 2: dim must be an integer"):
            parse_model_text(f"structure = 0^6\ndim = {value}\n")

    @pytest.mark.parametrize("value", ["0", "-6"])
    def test_dim_must_be_positive(self, value):
        with pytest.raises(ModelFileError, match="dim must be positive"):
            parse_model_text(f"structure = 0^6\ndim = {value}\n")

    def test_bad_line(self):
        with pytest.raises(ModelFileError):
            parse_model_text("structure 0,0\n")

    def test_load_model_uses_stem_as_default_name(self, tmp_path):
        path = tmp_path / "flatland.model"
        path.write_text("structure = 0,0\nomega = 12\n")
        model = load_model(path)
        assert model.name == "flatland"


class TestCorpus:
    def test_names(self):
        assert corpus_names() == (
            "torus6",
            "example1",
            "example2",
            "example3",
            "example4",
        )

    def test_contents(self):
        by_name = {model.name: model for model in corpus()}
        assert by_name["torus6"].structure == "0^6"
        assert by_name["torus6"].omega == "14+25+36"
        assert by_name["example1"].structure == "0,0,0,12,14-23,15+34"
        assert by_name["example1"].omega == "16+35+24"
        assert by_name["example2"].structure == "-13,23,0,-56,46,0"
        assert by_name["example2"].omega == "12+36+45"
        assert by_name["example3"].structure == "-23,0,0,-46,56,0"
        assert by_name["example3"].omega == "12+36+45"
        assert FLAG_COMPLETELY_SOLVABLE in by_name["example3"].flags
        assert by_name["example4"].structure == "0,12-45,-13+46,0,15-24,-16+34"
        assert by_name["example4"].omega == "14+35+62"
        assert by_name["example4"].extra_forms == (("re_psi", "136+125+234-456"),)

    def test_unknown_corpus_model(self):
        from sympcoh import InputError

        with pytest.raises(InputError):
            corpus_model("example9")


@pytest.fixture(scope="module")
def report1():
    return run_compute(corpus_model("example1"))


@pytest.fixture(scope="module")
def report4():
    return run_compute(corpus_model("example4"))


class TestReports:
    def test_json_round_trip_byte_identical(self, report1):
        text = report1.to_json()
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2) + "\n" == text

    def test_deterministic(self):
        a = run_compute(corpus_model("example2")).to_json()
        b = run_compute(corpus_model("example2")).to_json()
        assert a == b

    def test_example1_content(self, report1):
        data = report1.to_json_dict()
        assert data["betti"] == [1, 3, 4, 4, 4, 3, 1]
        assert data["hlc"]["overall"] is False
        assert data["dd_lambda_lemma"] is False
        deg2 = next(e for e in data["decompositions"] if e["degree"] == 2)
        assert deg2["full"] and deg2["direct"]
        deg3 = next(e for e in data["decompositions"] if e["degree"] == 3)
        assert not deg3["full"] and not deg3["direct"]
        assert data["caveats"] == []

    def test_caveats(self):
        reports = {name: run_compute(corpus_model(name)) for name in corpus_names()}
        for name in ("torus6", "example1", "example3"):
            assert CAVEAT_LOWER_BOUND not in reports[name].data["caveats"], name
        for name in ("example2", "example4"):
            assert CAVEAT_LOWER_BOUND in reports[name].data["caveats"], name

    def test_example4_extra_form_checks(self, report4):
        checks = report4.data["extra_form_checks"]
        assert len(checks) == 1
        entry = checks[0]
        assert entry["name"] == "re_psi"
        assert entry["degree"] == 3
        assert entry["d_closed"] is True
        assert entry["primitive"] is True
        assert entry["class_in_h0s"] is True

    def test_example4_hlc_reported(self, report4):
        hlc = report4.data["hlc"]
        assert len(hlc["per_degree"]) == 4
        assert all(isinstance(item["isomorphism"], bool) for item in hlc["per_degree"])

    def test_degree_filter(self, report1):
        data = report1.to_json_dict(degree=2)
        assert all(e["degree"] == 2 for e in data["hrs"])
        assert all(e["degree"] == 2 for e in data["decompositions"])
        assert all(e["degree"] == 2 for e in data["cohomology"]["de_rham"])
        full = report1.to_json_dict()
        assert len(full["decompositions"]) == 7

    def test_text_report_mentions_key_facts(self, report1):
        text = report1.to_text()
        assert "betti: [1, 3, 4, 4, 4, 3, 1]" in text
        assert "hard Lefschetz: False" in text

    def test_rationals_serialize_as_strings(self, report1):
        reps3 = next(
            e for e in report1.data["cohomology"]["de_rham"] if e["degree"] == 3
        )["representatives"]
        assert "e146+1/2*e236+1/2*e345" in reps3

    def test_model_without_omega(self):
        model = ModelFile(name="bare", structure="0,0,0,12")
        report = run_compute(model)
        data = report.to_json_dict()
        assert data["betti"] == [1, 3, 4, 3, 1]
        assert data["hlc"] is None
        assert data["cohomology"]["d_lambda"] is None
        assert data["hrs"] is None

    def test_lattice_flag_on_non_unimodular_gets_caveat(self):
        model = ModelFile(
            name="bad-lattice",
            structure="12,0",
            omega="12",
            flags=frozenset({FLAG_LATTICE}),
        )
        report = run_compute(model)
        assert CAVEAT_LATTICE_UNIMODULAR in report.data["caveats"]
        assert CAVEAT_LOWER_BOUND in report.data["caveats"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = PERFBENCH / "expected.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_report_json_bytes_unchanged(name):
    want = json.loads(EXPECTED.read_text())["reports"][name]["sha256"]
    text = run_compute(corpus_model(name)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("name", ["nil8", "derham10"])
def test_larger_model_report_json_bytes_unchanged(name):
    want = json.loads(EXPECTED.read_text())["reports"][name]["sha256"]
    model = load_model(PERFBENCH / "models" / f"{name}.model")
    assert _sha256(run_compute(model).to_json()) == want


# Recorded from the dense-row elimination kernel, before sparse rows.
NIL10_SHA256 = "455ade6adc4bef6f98e3484905791e6f86fbdc2c36ef9fbc8c87fafc530a243d"


def test_nil10_acceptance():
    """Dimension-10 nilpotent model: invariants and exact report bytes."""
    text = run_compute(load_model(PERFBENCH / "models" / "nil10.model")).to_json()
    data = json.loads(text)
    assert data["betti"] == [1, 7, 22, 42, 57, 62, 57, 42, 22, 7, 1]
    # Not a torus, so no HLC (Benson-Gordon), and the dd^Lambda-lemma
    # agrees with HLC (Merkulov, Guillemin).
    assert data["hlc"]["overall"] is False
    assert data["dd_lambda_lemma"] is False
    full = [entry["degree"] for entry in data["decompositions"] if entry["full"]]
    assert full == [0, 1, 2, 8, 9, 10]
    assert _sha256(text) == NIL10_SHA256


# nil10 plus two abelian directions, paired by omega.
NIL12 = """name = nil12
dim = 12
structure = 0,0,0,[1,2],[1,4]-[2,3],[1,5]+[3,4],0,0,0,0,0,0
omega = [1,6]+[3,5]+[2,4]+[7,8]+[9,10]+[11,12]
"""
NIL12_SHA256 = "daef6133bbc8275900a37ff4c3c33c96bed71f70f90ac3133a02d485dd6435b5"


def test_nil12_acceptance():
    """Dimension-12 nilpotent model: Kuenneth Betti numbers, verdicts and report bytes."""
    text = run_compute(parse_model_text(NIL12)).to_json()
    data = json.loads(text)
    nil10 = [1, 7, 22, 42, 57, 62, 57, 42, 22, 7, 1]
    # H(g + R^2) = H(g) (x) Lambda(R^2): nil10's row convolved with (1, 2, 1).
    padded = [0, 0] + nil10 + [0, 0]
    assert data["betti"] == [padded[k + 2] + 2 * padded[k + 1] + padded[k] for k in range(13)]
    assert data["betti"] == [1, 9, 37, 93, 163, 218, 238, 218, 163, 93, 37, 9, 1]
    assert data["hlc"]["overall"] is False
    assert data["dd_lambda_lemma"] is False
    full = [entry["degree"] for entry in data["decompositions"] if entry["full"]]
    assert full == [0, 1, 2, 10, 11, 12]
    assert _sha256(text) == NIL12_SHA256


def test_run_compute_builds_the_algebra_once(monkeypatch):
    import sympcoh.report

    built = []
    original = sympcoh.report.build_lie_algebra
    monkeypatch.setattr(
        sympcoh.report, "build_lie_algebra", lambda s: built.append(s) or original(s)
    )
    run_compute(corpus_model("example1"))
    assert len(built) == 1

