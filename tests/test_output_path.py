"""The report's output path: integer rows to text, and the JSON writer.

`Report.to_json` writes its own JSON and the representatives are
rendered from integer rows by `exterior.render_row`; both must give the
bytes that the Form/Fraction route and `json.dumps(indent=2)` give.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sympcoh import Form, ModelFile, corpus, monomial_basis, render_form, run_compute
from sympcoh.cohomology import CohomologySpace, HrsGroup
from sympcoh.exterior import render_row
from sympcoh.linalg import _int_row
from sympcoh.report import Report


def oracle_render(a: Form, prefix: str = "e") -> str:
    """The Fraction-based renderer that `render_row` replaced, kept as the reference."""
    if a.is_zero():
        return "0"
    if a.degree == 0:
        return str(a.coeffs[()])
    parts = []
    for key, c in a.terms():
        if a.dim <= 9:
            mono = prefix + "".join(str(i) for i in key)
        else:
            mono = prefix + "[" + ",".join(str(i) for i in key) + "]"
        magnitude = abs(c)
        body = mono if magnitude == 1 else f"{magnitude}*{mono}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


coefficients = st.fractions(min_value=-60, max_value=60, max_denominator=12)


@st.composite
def forms(draw):
    dim = draw(st.integers(min_value=2, max_value=12))
    degree = draw(st.integers(min_value=0, max_value=dim))
    size = len(monomial_basis(dim, degree))
    entries = draw(st.dictionaries(st.integers(0, size - 1), coefficients, max_size=6))
    return Form.from_sparse(dim, degree, entries)


@settings(max_examples=300, deadline=None)
@given(forms(), st.sampled_from(["e", ""]))
def test_render_row_matches_the_fraction_renderer(form, prefix):
    row = _int_row(form.sparse_vector())
    want = oracle_render(form, prefix)
    assert render_row(form.dim, form.degree, row, prefix) == want
    assert render_form(form, prefix) == want


@pytest.mark.parametrize(
    "form",
    [
        Form.zero(6, 0),
        Form.zero(11, 3),
        Form.unit(4) * Fraction(-5, 3),
        Form.unit(12) * 7,
        Form(12, 2, {(1, 10): Fraction(-9, 6), (2, 3): Fraction(4, 6)}),
        Form(6, 3, {(1, 3, 6): -1, (2, 4, 5): Fraction(3, 2)}),
    ],
    ids=["zero-deg0", "zero-dim11", "constant", "int-constant-dim12", "dim12", "dim6"],
)
def test_render_row_edge_cases(form):
    for prefix in ("e", ""):
        assert render_form(form, prefix) == oracle_render(form, prefix)


# -- the JSON writer ---------------------------------------------------

special_text = st.sampled_from(
    ['"', "\\", '\\"', "\x00\x07\x1f\x7f", "\n\r\t\b\f", "é", "Λ ω", " ", "😀", ""]
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.text()
    | special_text
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5) | special_text, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=5) | special_text, json_values, max_size=5))
def test_json_writer_equals_json_dumps(value):
    assert Report(value).to_json() == json.dumps(value, indent=2) + "\n"


def test_json_writer_empty_containers():
    value = {"a": [], "b": {}, "c": [[], {}], "": [None, True, False, -(10**40)]}
    assert Report(value).to_json() == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [{"x": 1.5}, {"x": (1, 2)}, {"x": [{"y": 0.5}]}, {"x": {1: "a"}}],
    ids=["float", "tuple", "nested-float", "int-key"],
)
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        Report(value).to_json()


BARE = ModelFile(name="bare", structure="0,0,0,12,14-23,15+34")


@pytest.mark.parametrize("model", [*corpus(), BARE], ids=lambda m: m.name)
def test_report_json_equals_json_dumps_for_every_degree(model):
    report = run_compute(model)
    for degree in [None, *range(report.data["model"]["dim"] + 1)]:
        want = json.dumps(report.to_json_dict(degree), indent=2) + "\n"
        assert report.to_json(degree) == want


# -- representatives are read as rows ------------------------------------


def test_report_renders_without_representative_forms(monkeypatch):
    want = {model.name: run_compute(model).to_json() for model in corpus()}

    def refuse(self):
        raise AssertionError("representative Forms were built")

    monkeypatch.setattr(CohomologySpace, "representatives", property(refuse))
    monkeypatch.setattr(HrsGroup, "representatives", property(refuse))
    for model in corpus():
        assert run_compute(model).to_json() == want[model.name]


def test_hrs_representatives_are_the_forms_of_their_rows(corpus_engines):
    for coh in corpus_engines.values():
        dim = coh.s.dim
        for degree in range(dim + 1):
            space = coh.de_rham[degree]
            for r in range(degree // 2 + 1):
                group = coh.hrs_group(r, degree - 2 * r)
                assert group.representative_rows.nrows == group.dim
                if not group.dim:
                    assert group.representatives == ()
                    continue
                # Each representative is its class coordinates applied to
                # the de Rham representatives, summed as Forms.
                want = []
                for coords in group.classes.basis.rows:
                    total = Form.zero(dim, degree)
                    for c, rep in zip(coords, space.representatives):
                        total = total + rep * c
                    want.append(total)
                assert group.representatives == tuple(want)
                assert [render_form(rep) for rep in group.representatives] == [
                    render_row(dim, degree, row) for row in group.representative_rows.int_rows
                ]


def test_hrs_groups_zero_by_degree_have_no_representatives(example1):
    for r, s in [(-1, 2), (0, 7), (3, 1), (4, 0)]:
        group = example1.hrs_group(r, s)
        assert group.dim == 0 and group.representatives == ()
        assert group.representative_rows.nrows == 0
