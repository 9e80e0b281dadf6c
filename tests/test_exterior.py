import random
from fractions import Fraction
from math import comb

import pytest

from sympcoh import (
    Bivector,
    DimMismatch,
    Form,
    GradedOperator,
    MixedDegree,
    contract,
    interior,
    monomial_basis,
    operator_matrix,
    render_form,
    top_coefficient,
    wedge,
)
from sympcoh.verify import random_form


def brute_force_top(terms, dim):
    """Independent oracle: top coefficient of a product of 2-forms.

    Expands the product over all choices of one monomial per factor and
    computes each permutation sign by counting inversion pairs.
    """
    total = Fraction(0)
    factors = [list(t.coeffs.items()) for t in terms]

    def walk(i, indices, coeff):
        nonlocal total
        if i == len(factors):
            if sorted(indices) != list(range(1, dim + 1)):
                return
            inversions = sum(
                1
                for a in range(len(indices))
                for b in range(a + 1, len(indices))
                if indices[a] > indices[b]
            )
            total += coeff * (-1) ** inversions
            return
        for key, c in factors[i]:
            if set(key) & set(indices):
                continue
            walk(i + 1, indices + list(key), coeff * c)

    walk(0, [], Fraction(1))
    return total


class TestMonomialBasis:
    def test_lex_dim4_degree2(self):
        assert monomial_basis(4, 2) == (
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        )

    def test_degree_zero_and_top(self):
        assert monomial_basis(5, 0) == ((),)
        assert monomial_basis(5, 5) == ((1, 2, 3, 4, 5),)

    def test_counts(self):
        for dim in range(1, 7):
            for k in range(dim + 1):
                assert len(monomial_basis(dim, k)) == comb(dim, k)


class TestWedge:
    def test_simple(self):
        e1 = Form.monomial(4, (1,))
        e2 = Form.monomial(4, (2,))
        assert wedge(e1, e2) == Form.monomial(4, (1, 2))
        assert wedge(e2, e1) == -Form.monomial(4, (1, 2))

    def test_four_index_sign(self):
        e13 = Form.monomial(4, (1, 3))
        e24 = Form.monomial(4, (2, 4))
        assert wedge(e13, e24) == -Form.monomial(4, (1, 2, 3, 4))

    def test_overlap_vanishes(self):
        a = Form.monomial(4, (1, 2))
        b = Form.monomial(4, (2, 3))
        assert wedge(a, b).is_zero()

    def test_graded_commutativity_seeded(self):
        rng = random.Random(5)
        for _ in range(30):
            dim = rng.choice((3, 4, 5, 6))
            ka, kb = rng.randint(0, dim), rng.randint(0, dim)
            a, b = random_form(dim, ka, rng), random_form(dim, kb, rng)
            sign = -1 if (ka * kb) % 2 else 1
            assert wedge(a, b) == wedge(b, a) * sign

    def test_associativity_and_bilinearity_seeded(self):
        rng = random.Random(6)
        for _ in range(20):
            dim = rng.choice((4, 5, 6))
            a = random_form(dim, rng.randint(0, 2), rng)
            b = random_form(dim, rng.randint(0, 2), rng)
            c = random_form(dim, rng.randint(0, 2), rng)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            if a.degree == b.degree:
                assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            wedge(Form.monomial(4, (1,)), Form.monomial(5, (1,)))


class TestFormBasics:
    def test_monomial_normalizes_order(self):
        assert Form.monomial(6, (6, 2)) == -Form.monomial(6, (2, 6))
        assert Form.monomial(6, (2, 2)).is_zero()

    def test_mixed_degree_raises(self):
        with pytest.raises(MixedDegree):
            Form.monomial(4, (1,)) + Form.monomial(4, (1, 2))

    def test_zero_absorbs_any_degree(self):
        zero = Form.zero(4, 0)
        a = Form.monomial(4, (1, 2))
        assert zero + a == a
        assert a - a == Form.zero(4, 2)
        assert (a - a) == zero

    def test_zero_forms_of_every_degree_hash_alike(self):
        zeros = {Form.zero(6, k) for k in range(7)}
        assert len({Form.zero(6, 0), Form.zero(6, 2)}) == 1
        assert zeros == {Form.zero(6, 3)}
        assert {Form.zero(6, 2): "zero"}[Form.zero(6, 0)] == "zero"
        assert Form.zero(4, 0) not in zeros
        a = Form.monomial(6, (2, 1), Fraction(1, 2))
        b = -Form(6, 2, {(1, 2): "1/2"})
        assert a == b and hash(a) == hash(b)
        assert len({a, Form.monomial(6, (1, 2)), Form.monomial(6, (1, 2, 3))}) == 3

    def test_vector_round_trip(self):
        form = Form(4, 2, {(1, 2): Fraction(3, 2), (2, 4): Fraction(-1)})
        back = Form.from_vector(4, 2, form.coeff_vector())
        assert back == form

    def test_render(self):
        omega = Form(6, 2, {(1, 6): 1, (3, 5): 1, (2, 4): 1})
        assert render_form(omega) == "e16+e24+e35"
        mixed = Form(6, 3, {(1, 3, 6): Fraction(-1), (2, 4, 5): Fraction(3, 2)})
        assert render_form(mixed) == "-e136+3/2*e245"
        assert render_form(Form.zero(6, 2)) == "0"
        assert render_form(Form.unit(6) * Fraction(-5, 3)) == "-5/3"
        wide = Form(12, 2, {(1, 10): 1})
        assert render_form(wide) == "e[1,10]"


class TestCoefficientBoundary:
    @pytest.mark.parametrize(
        "key, message",
        [
            ((0, 2), "bad monomial"),
            ((1, 5), "bad monomial"),
            ((2, 1), "bad monomial"),
            ((1, 1), "bad monomial"),
            ((1, 2, 3), "wrong degree"),
            ((1,), "wrong degree"),
        ],
    )
    def test_bad_keys_raise(self, key, message):
        with pytest.raises(ValueError, match=message):
            Form(4, 2, {key: 1})

    def test_loose_values_become_plain_fractions(self, loose_entry):
        value, exact = loose_entry
        stored = [
            Form(4, 2, {(1, 3): value}).coeffs[(1, 3)],
            Form.monomial(4, (1, 3), value).coeffs[(1, 3)],
            (Form.monomial(4, (1, 3)) * value).coeffs[(1, 3)],
            Bivector(4, {(1, 3): value}).coeffs[(1, 3)],
        ]
        for x in stored:
            assert x == exact
            assert type(x) is Fraction

    @pytest.mark.parametrize("zero", [0, False, "0/5", Fraction(0)])
    def test_zero_coefficients_dropped(self, zero):
        form = Form(4, 2, {(1, 2): zero, (3, 4): 1})
        assert list(form.coeffs) == [(3, 4)]
        assert Bivector(4, {(1, 2): zero}).coeffs == {}
        assert (Form.monomial(4, (1, 2)) * zero).is_zero()


class TestContraction:
    def test_low_degree_vanishes(self):
        xi = Bivector(4, {(1, 2): Fraction(1)})
        assert contract(xi, Form.monomial(4, (1,))).is_zero()
        assert contract(xi, Form.unit(4)).is_zero()

    def test_interior_signs(self):
        form = Form.monomial(4, (1, 2, 3))
        assert interior(1, form) == Form.monomial(4, (2, 3))
        assert interior(2, form) == -Form.monomial(4, (1, 3))
        assert interior(3, form) == Form.monomial(4, (1, 2))

    def test_two_form_full_pairing(self):
        # Direct-expansion oracle: iota_{di ^ dj} e^{kl} = -delta on
        # sorted pairs, so the contraction of a 2-form is the negated
        # coefficient pairing times the empty monomial.
        rng = random.Random(9)
        for _ in range(20):
            dim = 5
            alpha = random_form(dim, 2, rng)
            pairs = {
                (i, j): Fraction(rng.randint(-2, 2))
                for i in range(1, dim + 1)
                for j in range(i + 1, dim + 1)
            }
            xi = Bivector(dim, pairs)
            expected = -sum(
                (pairs.get(key, Fraction(0)) * c for key, c in alpha.coeffs.items()),
                Fraction(0),
            )
            assert contract(xi, alpha) == Form.unit(dim) * expected

    def test_bilinear_and_degree_drop(self):
        rng = random.Random(10)
        xi = Bivector(6, {(1, 4): 1, (2, 5): Fraction(1, 2)})
        for k in range(2, 7):
            a = random_form(6, k, rng)
            b = random_form(6, k, rng)
            left = contract(xi, a + b)
            assert left == contract(xi, a) + contract(xi, b)
            if not left.is_zero():
                assert left.degree == k - 2


class TestOperatorMatrix:
    def test_identity_map(self):
        m = operator_matrix(lambda f: f, 4, 2, 2)
        from sympcoh import QMatrix

        assert m == QMatrix.identity(6)

    def test_wedge_omega_block_shape(self):
        omega = Form(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
        m = operator_matrix(lambda f: wedge(omega, f), 6, 2, 4)
        assert m.shape == (comb(6, 4), comb(6, 2))

    def test_round_trip_seeded(self):
        rng = random.Random(12)
        omega = Form(6, 2, {(1, 6): 1, (3, 5): 1, (2, 4): 1})
        action = lambda f: wedge(omega, f)
        for k in range(0, 5):
            m = operator_matrix(action, 6, k, k + 2)
            v = random_form(6, k, rng)
            assert m.apply(v.coeff_vector()) == action(v).coeff_vector()


class TestTopCoefficient:
    def test_unit_top(self):
        assert top_coefficient(Form.monomial(6, tuple(range(1, 7)))) == 1
        assert top_coefficient(Form.zero(6, 0)) == 0

    def test_omega_cubed_by_expansion(self):
        omega = Form(6, 2, {(1, 6): 1, (3, 5): 1, (2, 4): 1})
        cubed = wedge(wedge(omega, omega), omega)
        oracle = brute_force_top([omega, omega, omega], 6)
        assert oracle == -6
        assert top_coefficient(cubed) == oracle

    def test_wrong_degree_raises(self):
        with pytest.raises(ValueError):
            top_coefficient(Form.monomial(6, (1, 2)))


class TestGradedOperator:
    def test_block_shapes_out_of_range(self):
        omega = Form(4, 2, {(1, 3): 1, (2, 4): 1})
        op = GradedOperator.materialize(4, +2, lambda f: wedge(omega, f))
        assert op.block(3).shape == (0, comb(4, 3))
        assert op.block(-1).shape == (comb(4, 1), 0)

    def test_apply_matches_action(self):
        rng = random.Random(2)
        omega = Form(4, 2, {(1, 3): 1, (2, 4): 1})
        op = GradedOperator.materialize(4, +2, lambda f: wedge(omega, f))
        for k in range(3):
            v = random_form(4, k, rng)
            assert op.apply(v) == wedge(omega, v)
