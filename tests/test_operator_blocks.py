"""The integer-table operator blocks against Form-level oracles.

d, L and Lambda are built over one denominator from the wedge table
(`exterior._wedge_table`), which is checked here against
`merge_with_sign`.  Each block is compared with the block that
`GradedOperator.materialize` builds by pushing every basis monomial
through the defining Form action, and `check_properties` is compared
with lower central and derived series computed from the Fraction
`bracket`.
"""

import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from sympcoh import (
    DimMismatch,
    Form,
    InternalInconsistencyError,
    Subspace,
    build_lie_algebra,
    check_properties,
    contract,
    corpus,
    load_model,
    parse_form,
    parse_structure_equations,
    structure_from_model,
    validate_symplectic,
)
from sympcoh import lie, symplectic
from sympcoh.exterior import (
    GradedOperator,
    _wedge_table,
    basis_position,
    merge_with_sign,
    monomial_basis,
)
from sympcoh.verify import BASE_STRUCTURES, random_symplectic_structure

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


def d_action(g):
    """d on a form as the odd derivation extending the Form-valued d e^i."""
    dim = g.dim

    def act(form):
        total = Form.zero(dim, min(form.degree + 1, dim))
        for key, c in form.coeffs.items():
            for p, idx in enumerate(key):
                rest = Form.monomial(dim, key[:p] + key[p + 1 :], c)
                term = g.structure.differentials[idx - 1].wedge(rest)
                total = total + (term if p % 2 == 0 else -term)
        return total

    return act


def assert_blocks_match_form_actions(s):
    dim = s.dim
    oracles = {
        "d": (s.g.d_op, GradedOperator.materialize(dim, +1, d_action(s.g))),
        "L": (s.L_op, GradedOperator.materialize(dim, +2, s.omega.wedge)),
        "Lambda": (
            s.Lambda_op,
            GradedOperator.materialize(dim, -2, lambda f: -contract(s.pi, f)),
        ),
    }
    for name, (built, oracle) in oracles.items():
        for k in range(dim + 1):
            assert built.block(k) == oracle.block(k), f"{name} block on degree {k}"


@pytest.mark.parametrize("dim", range(2, 9))
def test_wedge_table_agrees_with_merge_with_sign(dim):
    for k in range(dim + 1):
        table = _wedge_table(dim, k)
        assert len(table) == dim
        for c in range(1, dim + 1):
            assert len(table[c - 1]) == comb(dim, k)
            for i, key in enumerate(monomial_basis(dim, k)):
                sign, merged = merge_with_sign((c,), key)
                want = sign * (basis_position(dim, merged) + 1) if sign else 0
                assert table[c - 1][i] == want, f"e^{c} ^ e^{key} on dim {dim}"


def _structures():
    # The smallest table: R^2 with omega = e^12.
    yield "abelian2", lambda: validate_symplectic(
        build_lie_algebra(parse_structure_equations("0,0")), parse_form("12", 2)
    )
    for model in corpus():
        yield model.name, lambda model=model: structure_from_model(model)
    for name in ("nil8", "nil10"):
        yield name, lambda name=name: structure_from_model(load_model(MODELS / f"{name}.model"))
    for dim in (4, 6, 8):
        for seed in range(4):
            yield f"random{dim}-{seed}", (
                lambda dim=dim, seed=seed: random_symplectic_structure(dim, random.Random(seed))
            )


STRUCTURES = dict(_structures())


@pytest.mark.parametrize("name", STRUCTURES)
def test_integer_blocks_equal_form_materialized_blocks(name):
    assert_blocks_match_form_actions(STRUCTURES[name]())


def fraction_series_properties(g):
    """Nilpotent, solvable, unimodular from the Fraction bracket alone."""

    def bracket_span(a, b):
        vectors = [g.bracket(u, v) for u in a.basis.rows for v in b.basis.rows]
        return Subspace.from_vectors(g.dim, vectors)

    def last_term(next_term):
        term = Subspace.full(g.dim)
        while True:
            new = next_term(term)
            if new == term or new.dim == 0:
                return new
            term = new

    full = Subspace.full(g.dim)
    nilpotent = last_term(lambda s: bracket_span(full, s)).dim == 0
    solvable = last_term(lambda s: bracket_span(s, s)).dim == 0
    traces = [
        sum(g.bracket_basis(i, k)[k - 1] for k in range(1, g.dim + 1))
        for i in range(1, g.dim + 1)
    ]
    return nilpotent, solvable, not any(traces)


ALGEBRAS = [text for texts in BASE_STRUCTURES.values() for text in texts]
ALGEBRAS += [model.structure for model in corpus()]
# A solvable algebra that is neither nilpotent nor unimodular, with
# coefficients 1/2 and -3/4 that keep the integer table's denominator at 4.
ALGEBRAS += ["0,1/2*12,-3/4*13"]


@pytest.mark.parametrize("text", ALGEBRAS)
def test_check_properties_matches_the_fraction_bracket_series(text):
    g = build_lie_algebra(parse_structure_equations(text))
    got = check_properties(g)
    assert (got.nilpotent, got.solvable, got.unimodular) == fraction_series_properties(g)


@pytest.mark.parametrize("text", ALGEBRAS)
def test_integer_bracket_span_matches_the_fraction_bracket(text):
    g = build_lie_algebra(parse_structure_equations(text))
    rng = random.Random(text)
    vectors = [[rng.randint(-2, 2) for _ in range(g.dim)] for _ in range(4)]
    a = Subspace.from_vectors(g.dim, vectors[:2])
    b = Subspace.from_vectors(g.dim, vectors[2:])
    for x, y in ((a, b), (a, a), (Subspace.full(g.dim), b)):
        brackets = [g.bracket(u, v) for u in x.basis.rows for v in y.basis.rows]
        want = Subspace.from_vectors(g.dim, brackets)
        assert lie._bracket_span(g, x, y) == want


def test_structure_constants_keep_their_fraction_values():
    g = build_lie_algebra(parse_structure_equations("0,1/2*12,-3/4*13"))
    # d e^2 = 1/2 e^12 gives c^2_12 = -1/2; d e^3 = -3/4 e^13 gives c^3_13 = 3/4.
    assert g.structure_constants == {(1, 2): {2: Fraction(-1, 2)}, (1, 3): {3: Fraction(3, 4)}}
    assert g.bracket_basis(2, 1) == (0, Fraction(1, 2), 0)


def test_sign_flipped_lambda_block_fails_at_construction(monkeypatch):
    original = symplectic._contraction_operator

    def flipped(pairing):
        op = original(pairing)
        return GradedOperator(op.dim, op.shift, {k: -b for k, b in op.blocks.items()})

    monkeypatch.setattr(symplectic, "_contraction_operator", flipped)
    g = build_lie_algebra(parse_structure_equations("0^6"))
    omega = Form(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
    with pytest.raises(InternalInconsistencyError, match="contraction sign"):
        symplectic.SymplecticStructure(g, omega)


def test_operators_reject_forms_over_another_dimension():
    s = structure_from_model(next(iter(corpus())))
    alien = Form(4, 2, {(1, 2): 1})
    for apply in (s.L, s.lam, s.d):
        with pytest.raises(DimMismatch):
            apply(alien)
