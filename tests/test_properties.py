"""Hypothesis property tests for the algebraic core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sympcoh import (
    Form,
    InternalInconsistencyError,
    QMatrix,
    Subspace,
    build_lie_algebra,
    image,
    kernel,
    monomial_basis,
    parse_form,
    parse_structure_equations,
    render_form,
    rref,
    subspace_intersect,
    subspace_sum,
    wedge,
)
from sympcoh.symplectic import SymplecticStructure

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def forms(dim, degrees):
    def build(degree, entries):
        basis = monomial_basis(dim, degree)
        coeffs = {basis[i % len(basis)]: c for i, c in entries}
        return Form(dim, degree, coeffs)

    return st.builds(
        build,
        st.sampled_from(degrees),
        st.lists(st.tuples(st.integers(min_value=0, max_value=30), small_fractions), max_size=4),
    )


def matrices(max_side=5):
    side = st.integers(min_value=1, max_value=max_side)
    return side.flatmap(
        lambda nrows: side.flatmap(
            lambda ncols: st.lists(
                st.lists(small_fractions, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            ).map(lambda rows: QMatrix(rows, ncols))
        )
    )


class TestWedgeLaws:
    @given(forms(5, (0, 1, 2, 3)), forms(5, (0, 1, 2, 3)))
    def test_graded_commutativity(self, a, b):
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert wedge(a, b) == wedge(b, a) * sign

    @given(forms(5, (0, 1, 2)), forms(5, (0, 1, 2)), forms(5, (0, 1)))
    def test_associativity(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @given(forms(5, (2,)), forms(5, (2,)), forms(5, (1, 3)))
    def test_left_linearity(self, a, b, c):
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)

    @given(forms(6, (0, 1, 2, 3)), small_fractions)
    def test_scalar_compatibility(self, a, t):
        lifted = Form.unit(6) * t
        assert wedge(lifted, a) == a * t


class TestLinalgLaws:
    @given(matrices())
    def test_rref_idempotent(self, m):
        reduced, _, rank = rref(m)
        again, _, rank2 = rref(reduced)
        assert again == reduced
        assert rank == rank2

    @given(matrices())
    def test_rank_nullity(self, m):
        _, _, rank = rref(m)
        assert kernel(m).dim + rank == m.ncols

    @given(matrices(), st.lists(small_fractions, min_size=5, max_size=5))
    def test_image_contains_products(self, m, coeffs):
        x = coeffs[: m.ncols] + [Fraction(0)] * max(0, m.ncols - len(coeffs))
        assert image(m).contains(m.apply(x[: m.ncols]))

    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(st.lists(small_fractions, min_size=5, max_size=5), max_size=3),
        st.lists(st.lists(small_fractions, min_size=5, max_size=5), max_size=3),
    )
    def test_modular_law(self, ambient, rows_a, rows_b):
        a = Subspace.from_vectors(5, rows_a)
        b = Subspace.from_vectors(5, rows_b)
        assert a.dim + b.dim == subspace_sum(a, b).dim + subspace_intersect(a, b).dim

    @given(
        st.lists(st.lists(small_fractions, min_size=4, max_size=4), max_size=4),
        st.permutations(range(4)),
    )
    def test_canonical_bases(self, rows, order):
        a = Subspace.from_vectors(4, rows)
        doubled = [[2 * x for x in row] for row in rows]
        shuffled = [rows[i] for i in order if i < len(rows)]
        assert Subspace.from_vectors(4, doubled + shuffled) == a


_EXAMPLE1 = build_lie_algebra(parse_structure_equations("0,0,0,12,14-23,15+34"))


class TestDerivationLaw:
    @given(forms(6, (0, 1, 2, 3)), forms(6, (0, 1, 2, 3)))
    def test_leibniz(self, a, b):
        sign = -1 if a.degree % 2 else 1
        assert _EXAMPLE1.d(wedge(a, b)) == wedge(_EXAMPLE1.d(a), b) + sign * wedge(
            a, _EXAMPLE1.d(b)
        )


class TestParserRoundTrip:
    @given(forms(6, (1, 2, 3)))
    def test_render_parse(self, form):
        rendered = render_form(form, prefix="")
        if form.is_zero():
            assert rendered == "0"
            return
        assert parse_form(rendered, 6) == form

    @given(st.data())
    @pytest.mark.parametrize("dim", [10, 12])
    def test_render_parse_with_bracket_indices(self, dim, data):
        form = data.draw(wide_forms(dim))
        rendered = render_form(form, prefix="")
        assert parse_form(rendered, dim, degree=form.degree) == form


@st.composite
def wide_forms(draw, dim):
    """Forms of degree 1..dim over any monomials of a dimension above 9."""
    degree = draw(st.integers(min_value=1, max_value=dim))
    keys = draw(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=dim), min_size=degree, max_size=degree),
            max_size=4,
        )
    )
    coeffs = draw(st.lists(small_fractions, min_size=len(keys), max_size=len(keys)))
    return Form(dim, degree, {tuple(sorted(key)): c for key, c in zip(keys, coeffs)})


class TestConventionGuards:
    def test_flipped_contraction_sign_fails_loudly(self):
        class FlippedLambda(SymplecticStructure):
            def lam(self, form):
                return -super().lam(form)

        g = build_lie_algebra(parse_structure_equations("0^6"))
        omega = parse_form("14+25+36", 6, degree=2)
        with pytest.raises(InternalInconsistencyError):
            FlippedLambda(g, omega)

    def test_corrupted_structure_constants_reported(self):
        from sympcoh import JacobiViolation

        with pytest.raises(JacobiViolation):
            build_lie_algebra(parse_structure_equations("0,0,0,12,13,14+25"))
