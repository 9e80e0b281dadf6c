"""Input bounds and hostile text: MAX_DIM, dim < 2, fuzzed grammar, degree-0 forms.

Oversized or malformed text must fail with an InputError (exit 1) or a
MathValidationError (exit 2) before any monomial basis is built, so a
regression here cannot exhaust memory.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympcoh.exterior
from sympcoh import (
    MAX_DIM,
    Form,
    InputError,
    MathValidationError,
    ModelFileError,
    ParseError,
    build_lie_algebra,
    parse_form,
    parse_model_text,
    parse_structure_equations,
    render_form,
    run_compute,
)
from sympcoh.cli import EXIT_INPUT, main

fuzz = settings(deadline=None, max_examples=300)

# Every character the structure, form and model grammars use, plus a few
# that they do not.
ALPHABET = "0123456789^,()[]+-*/ =\n#.abcdefmnorstuwxyz_" + "²١\t"


@pytest.fixture
def no_large_bases(monkeypatch):
    """Building a monomial basis above MAX_DIM fails the test at once."""
    real = sympcoh.exterior.monomial_basis

    def guarded(dim, k):
        if dim > MAX_DIM:
            raise AssertionError(f"monomial basis built at dim {dim}")
        return real(dim, k)

    monkeypatch.setattr(sympcoh.exterior, "monomial_basis", guarded)
    sympcoh.exterior._positions.cache_clear()
    yield
    sympcoh.exterior._positions.cache_clear()


def test_max_dim_is_fourteen():
    assert MAX_DIM == 14
    assert parse_structure_equations("0^14").dim == 14


@pytest.mark.parametrize("text", ["0^15", "0^99", "0^14,12", "0^10,0^10", "0^" + "9" * 5000])
def test_oversized_structures_rejected(text, no_large_bases):
    with pytest.raises(ParseError):
        parse_structure_equations(text)


@pytest.mark.parametrize("count", ["15", "99999", "999999999"])
def test_run_length_count_rejected_before_expansion(count):
    """The bound fires at the count, before the syntax error that follows it.

    Without the check the parser would stop at the dangling '(' first, so
    no regression here can expand the count.
    """
    text = f"0^{count},("
    with pytest.raises(ParseError, match="MAX_DIM") as err:
        parse_structure_equations(text)
    assert err.value.position == 0


@pytest.mark.parametrize("dim", [15, 99, 10**9])
def test_oversized_given_dimensions_rejected(dim, no_large_bases):
    with pytest.raises(ParseError, match="MAX_DIM"):
        parse_structure_equations("0,0", dim)
    with pytest.raises(ParseError, match="MAX_DIM"):
        parse_form("[1,2]", dim)
    with pytest.raises(ModelFileError, match="MAX_DIM"):
        parse_model_text(f"structure = 0,0\ndim = {dim}\n")


@pytest.mark.parametrize("dim, degree", [(15, 1), (30, 15), (10**9, 2)])
def test_bare_forms_above_max_dim_rejected(dim, degree, no_large_bases):
    """`Form` checks the bound before it builds the C(dim, degree) basis."""
    with pytest.raises(ValueError, match="MAX_DIM"):
        Form(dim, degree, {tuple(range(1, degree + 1)): 1})
    with pytest.raises(ValueError, match="MAX_DIM"):
        Form.monomial(dim, range(1, degree + 1))


def test_one_max_dim_for_forms_and_text():
    import sympcoh.parsing

    assert sympcoh.exterior.MAX_DIM is sympcoh.parsing.MAX_DIM is MAX_DIM
    assert Form(MAX_DIM, 2, {(1, MAX_DIM): 1}).coeffs == {(1, MAX_DIM): 1}


@pytest.mark.parametrize("text", ["0", "0^0", "0^1"])
def test_dimension_below_two_rejected(text):
    with pytest.raises(ParseError, match="below 2"):
        parse_structure_equations(text)


@pytest.mark.parametrize("dim", [-1, 0, 1])
def test_form_dimension_below_two_rejected(dim):
    with pytest.raises(ParseError, match="below 2"):
        parse_form("1", dim)


def test_degree_above_dimension_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_form("111", 2)
    with pytest.raises(ParseError):
        parse_form("0", 2, degree=3)


def test_overlong_numbers_are_parse_errors():
    with pytest.raises(ParseError, match="too long"):
        parse_structure_equations("0,[1," + "9" * 5000 + "]")
    with pytest.raises(ParseError, match="too long"):
        parse_form("9" * 5000 + "*12", 4)


def test_oversized_model_rejected_before_any_basis(no_large_bases):
    for text in ("structure = 0^99\n", "structure = 0^99\nomega = [1,2]\n"):
        with pytest.raises(InputError):
            run_compute(parse_model_text(text))


@pytest.mark.parametrize("structure", ["0^99", "0^15", "0"])
def test_cli_compute_on_oversized_model_exits_1(structure, tmp_path, capsys):
    path = tmp_path / "big.model"
    path.write_text(f"structure = {structure}\nomega = [1,2]\n")
    assert main(["compute", str(path)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_cli_compute_on_oversized_dim_line_exits_1(tmp_path, capsys):
    path = tmp_path / "big.model"
    path.write_text("dim = 20\nstructure = 0,0\n")
    assert main(["compute", str(path)]) == EXIT_INPUT


# Digit runs are cut to five digits, so that a `0^j` count stays harmless
# to expand even if its bound regressed (the tests above pin the bound).
structure_texts = st.text(alphabet=ALPHABET, max_size=40).map(
    lambda text: re.sub(r"[0-9]{6,}", lambda run: run.group()[:5], text)
)


@fuzz
@given(structure_texts, st.sampled_from([None, 2, 4, 10, 15]))
def test_fuzzed_structure_text_raises_only_input_errors(text, dim):
    try:
        structure = parse_structure_equations(text, dim)
    except InputError:
        return
    assert 2 <= structure.dim <= MAX_DIM
    try:
        build_lie_algebra(structure)
    except MathValidationError:
        pass


@fuzz
@given(
    st.text(alphabet=ALPHABET, max_size=40),
    st.sampled_from([1, 2, 6, 12, 14, 15]),
    st.sampled_from([None, 0, 1, 2, 3]),
)
def test_fuzzed_form_text_raises_only_input_errors(text, dim, degree):
    try:
        form = parse_form(text, dim, degree)
    except InputError:
        return
    assert form.dim == dim
    if degree is not None:
        assert form.degree == degree or form.is_zero()


model_lines = st.lists(
    st.tuples(
        st.sampled_from(["name", "dim", "structure", "omega", "flag", "form.x", "form.", "bad"]),
        st.text(alphabet=ALPHABET, max_size=12),
    ),
    max_size=6,
)


@fuzz
@given(model_lines, st.text(alphabet=ALPHABET, max_size=30))
def test_fuzzed_model_text_raises_only_input_errors(lines, noise):
    text = "\n".join(f"{key} = {value}" for key, value in lines) + "\n" + noise
    try:
        model = parse_model_text(text)
    except InputError:
        return
    assert model.dim is None or 1 <= model.dim <= MAX_DIM


class TestDegreeZero:
    @pytest.mark.parametrize("text, value", [("5", 5), ("-3/7", Fraction(-3, 7)), ("1", 1)])
    def test_constants(self, text, value):
        assert parse_form(text, 6, degree=0) == Form.unit(6) * value

    def test_zero_constant(self):
        assert parse_form("0", 6, degree=0) == Form.zero(6, 0)

    @pytest.mark.parametrize("text", ["5*1", "3/0", "1/", "--1", "12+3", "[1]"])
    def test_malformed_constants(self, text):
        with pytest.raises(ParseError):
            parse_form(text, 6, degree=0)

    def test_reading_without_degree_zero_is_unchanged(self):
        assert parse_form("5", 9) == Form.monomial(9, (5,))
        with pytest.raises(ParseError):
            parse_form("5", 10)
        with pytest.raises(ParseError):
            parse_form("3/7", 6)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([6, 10, 12]),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    )
    def test_round_trip(self, dim, value):
        form = Form.unit(dim) * value
        assert parse_form(render_form(form, prefix=""), dim, degree=0) == form
