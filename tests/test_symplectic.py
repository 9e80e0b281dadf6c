import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from sympcoh import (
    Degenerate,
    DimMismatch,
    Form,
    InternalInconsistencyError,
    NotClosed,
    OddDimension,
    build_lie_algebra,
    corpus_model,
    corpus_names,
    lefschetz_coefficient,
    load_model,
    parse_form,
    parse_structure_equations,
    structure_from_model,
    validate_symplectic,
)
from sympcoh import symplectic
from sympcoh.exterior import monomial_basis, wedge_pairing
from sympcoh.linalg import combination
from sympcoh.verify import random_form, random_symplectic_structure


def structure(text, omega_text):
    g = build_lie_algebra(parse_structure_equations(text))
    return validate_symplectic(g, parse_form(omega_text, g.dim, degree=2))


@pytest.fixture(scope="module")
def ex1():
    return structure("0,0,0,12,14-23,15+34", "16+35+24")


@pytest.fixture(scope="module")
def darboux2():
    return structure("0,0", "12")


class TestValidation:
    def test_torus_valid(self):
        s = structure("0^6", "14+25+36")
        assert s.n == 3

    def test_example1_valid(self, ex1):
        assert ex1.n == 3
        assert ex1.volume_coeff == -6

    def test_degenerate(self):
        g = build_lie_algebra(parse_structure_equations("0^4"))
        with pytest.raises(Degenerate):
            validate_symplectic(g, parse_form("12", 4, degree=2))

    def test_not_closed(self):
        g = build_lie_algebra(parse_structure_equations("0,0,0,12,14-23,15+34"))
        with pytest.raises(NotClosed):
            validate_symplectic(g, parse_form("45+16+23", 6, degree=2))

    def test_odd_dimension(self):
        g = build_lie_algebra(parse_structure_equations("0,0,0"))
        with pytest.raises(OddDimension):
            validate_symplectic(g, parse_form("12", 3, degree=2))


class TestTriple:
    def test_L_of_unit_is_omega(self, ex1):
        assert ex1.L(Form.unit(6)) == ex1.omega

    def test_lambda_omega_is_n(self, ex1):
        assert ex1.lam(ex1.omega) == Form.unit(6) * 3

    def test_weight_on_degree_one(self, ex1):
        e1 = Form.monomial(6, (1,))
        assert ex1.h(e1) == e1 * 2  # n - k = 3 - 1

    def test_sl2_matrix_identities(self, ex1):
        for k in range(7):
            lam_next = ex1.Lambda_op.block(k + 2)
            l_here = ex1.L_op.block(k)
            l_prev = ex1.L_op.block(k - 2)
            lam_here = ex1.Lambda_op.block(k)
            commutator = lam_next @ l_here - l_prev @ lam_here
            assert commutator == ex1.h_block(k)

    def test_L_power_block_is_repeated_L(self, ex1):
        for k in range(7):
            for r in range((6 - k) // 2 + 1):
                block = ex1.L_power_block(r, k)
                for j, key in enumerate(monomial_basis(6, k)):
                    form = Form.monomial(6, key)
                    for _ in range(r):
                        form = ex1.L(form)
                    assert block.column(j) == form.coeff_vector()

    def test_dlambda_block_is_the_commutator_action(self, ex1):
        for k in range(7):
            for key in monomial_basis(6, k):
                m = Form.monomial(6, key)
                assert ex1.d_lambda(m) == ex1.g.d(ex1.lam(m)) - ex1.lam(ex1.g.d(m))


class TestStar:
    def test_dim2_by_hand(self, darboux2):
        e1, e2 = Form.monomial(2, (1,)), Form.monomial(2, (2,))
        assert darboux2.star(e1) == e1
        assert darboux2.star(e2) == e2
        assert darboux2.star(Form.unit(2)) == darboux2.omega
        assert darboux2.star(darboux2.omega) == Form.unit(2)

    def test_star_unit_is_liouville_volume(self, ex1):
        assert ex1.star(Form.unit(6)) == ex1.omega_top * Fraction(1, factorial(3))

    def test_involution_seeded(self, ex1):
        rng = random.Random(13)
        for k in range(7):
            form = random_form(6, k, rng)
            assert ex1.star(ex1.star(form)) == form

    def test_star_conjugates_L_to_lambda(self, ex1):
        rng = random.Random(14)
        for k in range(7):
            form = random_form(6, k, rng)
            assert ex1.star(ex1.L(ex1.star(form))) == ex1.lam(form)


class TestDLambda:
    def test_degree_zero_kills(self, ex1):
        assert ex1.d_lambda(Form.unit(6)).is_zero()

    def test_squares_to_zero(self, ex1):
        for k in range(7):
            block = ex1.d_lambda_block(k - 1) @ ex1.d_lambda_block(k)
            assert block.is_zero()

    def test_anticommutes_with_d(self, ex1):
        for k in range(7):
            left = ex1.d_block(k - 1) @ ex1.d_lambda_block(k)
            right = ex1.d_lambda_block(k + 1) @ ex1.d_block(k)
            assert (left + right).is_zero()

    def test_both_routes_agree(self, ex1):
        rng = random.Random(15)
        for k in range(7):
            form = random_form(6, k, rng)
            assert ex1.d_lambda(form) == ex1.d_lambda_star_route(form)


class TestLefschetzCoefficient:
    def test_value_half(self):
        assert lefschetz_coefficient(1, 0, 3, 3) == Fraction(1, 2)

    def test_value_one(self):
        assert lefschetz_coefficient(0, 0, 3, 1) == 1

    def test_parity_flips_sign(self):
        for ell in range(4):
            a = lefschetz_coefficient(1, ell, 3, 3)
            b = lefschetz_coefficient(1, ell + 1, 3, 3)
            assert (a > 0) != (b > 0)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            lefschetz_coefficient(0, 0, 3, 7)

    def test_every_valid_index_has_nonzero_denominators(self):
        """From r >= max(k - n, 0) on, every denominator factor is at least n - k + r + 1 >= 1."""
        for n in range(1, 10):
            for k in range(2 * n + 1):
                for r in range(max(k - n, 0), k + 1):
                    for ell in range(k + 1):
                        assert lefschetz_coefficient(r, ell, n, k) != 0


class TestLefschetzDecomposition:
    def test_primitive_input_is_fixed(self, ex1):
        beta = parse_form("136-234", 6, degree=3) * Fraction(1, 2)
        assert ex1.lam(beta).is_zero()
        parts = ex1.lefschetz_decompose(beta)
        assert parts.component(0) == beta
        assert parts.component(1).is_zero()

    def test_printed_e136(self, ex1):
        parts = ex1.lefschetz_decompose(Form.monomial(6, (1, 3, 6)))
        assert parts.component(0) == parse_form("1/2*136-1/2*234", 6)
        assert parts.component(1) == Form.monomial(6, (3,), Fraction(-1, 2))

    def test_omega_decomposes_to_unit(self, ex1):
        parts = ex1.lefschetz_decompose(ex1.omega)
        assert parts.component(0).is_zero()
        assert parts.component(1) == Form.unit(6)

    def test_reassembly_seeded_every_degree(self, ex1):
        rng = random.Random(16)
        for k in range(7):
            form = random_form(6, k, rng)
            parts = ex1.lefschetz_decompose(form)
            assert parts.reassemble(ex1) == form
            for r, component in parts.components.items():
                assert ex1.lam(component).is_zero()

    def test_formula_matches_projection_oracle(self, ex1):
        rng = random.Random(17)
        for k in range(7):
            form = random_form(6, k, rng)
            by_formula = ex1.lefschetz_decompose(form)
            by_solve = ex1.lefschetz_decompose_by_projection(form)
            assert by_formula.components == by_solve.components

    def test_decompose_leaves_the_projection_route_to_verify(self, ex1, monkeypatch):
        def projection(form):
            raise AssertionError("lefschetz_decompose ran the linear-solve route")

        monkeypatch.setattr(ex1, "lefschetz_decompose_by_projection", projection)
        form = Form.monomial(6, (1, 3, 6))
        assert ex1.lefschetz_decompose(form).reassemble(ex1) == form


    def test_a_wrong_projector_coefficient_fails_the_block_equations(self, ex1, monkeypatch):
        """Doubling a_{0,1} breaks the projectors of degrees 2 and 3.

        P_{k,0} exists for k <= n = 3 and has an L Lambda term from k = 2
        on.  e^12 is primitive for example1, so the wrong term never
        shows on the form itself; the block equations see it all the same.
        """
        exact = symplectic.lefschetz_coefficient

        def doubled(r, ell, n, k):
            value = exact(r, ell, n, k)
            return 2 * value if (r, ell) == (0, 1) else value

        monkeypatch.setattr(symplectic, "lefschetz_coefficient", doubled)
        for k in range(2):
            ex1.lefschetz_decompose(Form.monomial(6, range(1, k + 1)))
        assert ex1.lam(Form.monomial(6, (1, 2))).is_zero()
        for k in (2, 3):
            with pytest.raises(InternalInconsistencyError, match=rf"on degree {k} at e\("):
                ex1.lefschetz_decompose(Form.monomial(6, range(1, k + 1)))

    def test_decompose_checks_the_form_dimension(self, ex1):
        with pytest.raises(DimMismatch):
            ex1.lefschetz_decompose(Form.monomial(4, (1, 2)))

    @pytest.mark.parametrize("dim", [6, 8])
    def test_formula_matches_projection_oracle_on_random_structures(self, dim):
        s = random_symplectic_structure(dim, random.Random(0))
        rng = random.Random(17)
        for k in range(dim + 1):
            form = random_form(dim, k, rng)
            by_formula = s.lefschetz_decompose(form)
            assert by_formula.components == s.lefschetz_decompose_by_projection(form).components
            assert by_formula.reassemble(s) == form

    def test_a_coefficient_changed_after_a_correct_call_still_fails(self, ex1, monkeypatch):
        """The Darboux check runs on every call: no memo keyed on (n, k) hides a new fault."""
        for k in (2, 3):
            ex1.lefschetz_decompose(Form.monomial(6, range(1, k + 1)))
        exact = symplectic.lefschetz_coefficient

        def doubled(r, ell, n, k):
            value = exact(r, ell, n, k)
            return 2 * value if (r, ell) == (0, 1) else value

        monkeypatch.setattr(symplectic, "lefschetz_coefficient", doubled)
        for k in (2, 3):
            with pytest.raises(InternalInconsistencyError, match=rf"on degree {k} at e\("):
                ex1.lefschetz_decompose(Form.monomial(6, range(1, k + 1)))

    def test_square_projectors_are_built_on_the_darboux_model_only(self, ex1, monkeypatch):
        model = symplectic._darboux(3)
        assert model is symplectic._darboux(3)
        assert model.omega == parse_form("12+34+56", 6, degree=2)
        calls = []
        projected = symplectic.SymplecticStructure._projected

        def spy(s, k, start):
            calls.append((s is model, start.shape))
            return projected(s, k, start)

        monkeypatch.setattr(symplectic.SymplecticStructure, "_projected", spy)
        for k in range(7):
            ex1.lefschetz_decompose(Form.monomial(6, range(1, k + 1)))
            size = comb(6, k)
            assert calls == [(True, (size, size)), (False, (size, 1))]
            calls.clear()


def test_the_darboux_model_is_built_on_first_decomposition():
    code = (
        "from sympcoh import corpus, run_compute, structure_from_model\n"
        "from sympcoh.symplectic import _darboux\n"
        "sizes = [_darboux.cache_info().currsize]\n"
        "run_compute(corpus()[0])\n"
        "s = structure_from_model(corpus()[0])\n"
        "sizes.append(_darboux.cache_info().currsize)\n"
        "s.lefschetz_decompose(s.omega)\n"
        "sizes.append(_darboux.cache_info().currsize)\n"
        "print(sizes)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 1]\n"


def test_only_the_last_darboux_model_is_kept():
    model = weakref.ref(symplectic._darboux(2))
    symplectic._darboux(3)
    gc.collect()
    assert model() is None


class TestPrimitiveSubspaces:
    def test_degree_zero_and_one_full(self, ex1):
        assert ex1.primitive_subspace(0).dim == 1
        assert ex1.primitive_subspace(1).dim == 6

    def test_example1_degree_two(self, ex1):
        # wedge^2 = P^2 + L wedge^0
        assert ex1.primitive_subspace(2).dim == comb(6, 2) - 1

    def test_above_middle_vanishes(self, ex1):
        for k in range(4, 7):
            assert ex1.primitive_subspace(k).dim == 0

    def test_direct_sum_dimensions(self, ex1):
        for k in range(7):
            total = sum(
                ex1.primitive_subspace(k - 2 * r).dim
                for r in range(max(k - 3, 0), k // 2 + 1)
            )
            assert total == comb(6, k)



NIL8 = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "nil8.model"


@pytest.mark.parametrize(
    "seed", [0, 1, 2, 3, None], ids=lambda seed: "nil8" if seed is None else f"random6-{seed}"
)
def test_pairing_blocks_are_the_minors_of_the_pairing(seed):
    """Every entry of the degree-k Gram block is the matching k x k minor.

    Each `pairing_matrix` call walks the compounds afresh from C_0, here
    with the degrees running downwards; `star_op` takes every block from
    one walk.  The oracle takes no elimination and no compound: the minor
    det M[a, b] is the e^b coefficient of the wedge of the 1-forms
    sum_c M[r][c] e^c over the rows r in a.
    """
    if seed is None:
        s = structure_from_model(load_model(NIL8))
    else:
        s = random_symplectic_structure(6, random.Random(seed))
    pairing = s.pairing.rows
    one_forms = [Form(s.dim, 1, {(c + 1,): x for c, x in enumerate(row)}) for row in pairing]
    for k in reversed(range(s.dim + 1)):
        basis = monomial_basis(s.dim, k)
        gram = s.pairing_matrix(k).rows
        for i, a in enumerate(basis):
            wedge = Form.unit(s.dim)
            for r in a:
                wedge = wedge.wedge(one_forms[r - 1])
            for j, b in enumerate(basis):
                assert gram[i][j] == wedge.coeffs.get(b, 0), (k, a, b)


def test_gram_blocks_leave_no_state_on_the_structure():
    """`pairing_matrix` keeps nothing; `star_op` adds only its own cache entry."""
    s = structure_from_model(corpus_model("example1"))
    state = dict(vars(s))
    s.pairing_matrix(3)
    s.pairing_matrix(1)
    assert vars(s) == state
    s.star_op
    assert vars(s).keys() - state.keys() == {"star_op"}
    assert all(vars(s)[key] is value for key, value in state.items())


def test_pairing_matrix_of_a_degree_outside_the_complex_raises():
    s = structure_from_model(corpus_model("example1"))
    for k in (-1, s.dim + 1):
        with pytest.raises(ValueError, match=rf"degree {k} outside 0\.\.6"):
            s.pairing_matrix(k)


# -- the star blocks as signed row permutations --------------------------------


def _star_structure(name: str):
    """A corpus model by name, or "random<dim>": a random structure seeded by its dimension."""
    if name.startswith("random"):
        dim = int(name[len("random") :])
        return random_symplectic_structure(dim, random.Random(dim))
    return structure_from_model(corpus_model(name))


@pytest.mark.parametrize("name", [*corpus_names(), "random4", "random6", "random8"])
def test_star_blocks_are_the_product_with_the_wedge_pairing(name):
    """Each moved and scaled Gram row equals the product c S_k^T G_k it replaces."""
    s = _star_structure(name)
    c = s.volume_coeff / factorial(s.n)
    for k, gram in enumerate(s._gram_blocks()):
        oracle = combination([(c, wedge_pairing(s.dim, k).transpose(), gram)])
        assert s.star_op.block(k) == oracle, k


@pytest.mark.parametrize("j", [4, 5, 6])
def test_a_star_block_corrupted_above_the_middle_fails_its_involution(j):
    """star_j star_{m-j} = I is checked on degree m - j < j, the pair's only involution check."""
    s = structure_from_model(corpus_model("example1"))
    walk = s._gram_blocks
    s._gram_blocks = lambda: (combination([(2, g)]) if k == j else g for k, g in enumerate(walk()))
    with pytest.raises(InternalInconsistencyError, match=rf"^star star != id on degree {6 - j} "):
        s.star_op


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_the_star_makes_one_involution_product_per_complementary_pair(dim, monkeypatch):
    """Building the blocks makes no product; validating makes n + 1 involution products."""
    s = _star_structure(f"random{dim}")
    calls, built = [], []
    combine, validate = symplectic.combination, s._validate_star
    monkeypatch.setattr(symplectic, "combination", lambda t: calls.append(t) or combine(t))
    monkeypatch.setattr(s, "_validate_star", lambda op: built.append(len(calls)) or validate(op))
    stars = {id(block) for block in s.star_op.blocks.values()}
    assert built == [0]
    involutions = [terms for terms in calls if {id(terms[0][1]), id(terms[0][2])} <= stars]
    assert len(involutions) == s.n + 1
    assert len(calls) == s.n + 1 + 2 * (s.dim + 1)  # and the conjugation and route per degree
