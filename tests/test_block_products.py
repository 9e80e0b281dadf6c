"""Whole-block integer products against composed operations and per-vector oracles.

`combination` sums c * (A @ B) and c * A terms in one pass; it is
checked against dense Fraction arithmetic and against `@`, `+`, `-`
and one-term scalings applied one at a time.  `+` and `-` are its two-term
cases, while `@` has its own one-product loop, picked by the term
count, so the `composed` oracle compares two loops: `combination`'s
multi-term sum against the products of `@`.  `QuotientSpace.class_rows`
of a whole block is checked against its rows taken one at a time on
every quotient the cohomology engine builds, and the c x c Gram solver of
`quotient_structure` (cached as its transpose S^T) against the
(c + w) x (c + w) Gram split it replaces, which stays here as the
oracle.
"""

import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sympcoh import (
    CohomologySpace,
    NotInSubspace,
    QMatrix,
    Subspace,
    SymplecticCohomology,
    corpus,
    inverse,
    kernel,
    load_model,
    quotient_structure,
    structure_from_model,
)
from sympcoh.linalg import combination, image_meet_kernel

from test_integer_rows import assert_canonical, wide_entries, wide_matrices

examples = settings(deadline=None, max_examples=60)

NIL8 = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "nil8.model"
MODELS = {model.name: model for model in corpus()} | {"nil8": load_model(NIL8)}

coefficients = st.one_of(st.integers(-3, 3), wide_entries)


@st.composite
def term_lists(draw):
    """One to four terms of one output shape, with and without a right factor."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(coefficients)
        if draw(st.booleans()):
            inner = draw(st.integers(1, 6))
            a = draw(wide_matrices(nrows=nrows, ncols=inner))
            terms.append((c, a, draw(wide_matrices(nrows=inner, ncols=ncols))))
        else:
            terms.append((c, draw(wide_matrices(nrows=nrows, ncols=ncols))))
    return terms


def dense(terms) -> QMatrix:
    """The same sum in Fraction arithmetic on the dense `rows` views."""
    _, first, *rest = terms[0]
    ncols = rest[0].ncols if rest else first.ncols
    total = [[Fraction(0)] * ncols for _ in range(first.nrows)]
    for c, a, *rest in terms:
        if rest:
            b = rest[0].rows
            block = [
                [sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(ncols)]
                for row in a.rows
            ]
        else:
            block = a.rows
        for out, row in zip(total, block):
            for j, x in enumerate(row):
                out[j] += Fraction(c) * x
    return QMatrix(total, ncols)


def composed(terms) -> QMatrix:
    """The same sum with `@`, `+`, `-` and one-term scalings, one operation at a time."""
    total = None
    for c, a, *rest in terms:
        block = a @ rest[0] if rest else a
        if c == -1:
            total = -block if total is None else total - block
        else:
            block = combination([(c, block)])
            total = block if total is None else total + block
    return total


@examples
@given(term_lists())
def test_combination_matches_composed_operations(terms):
    result = combination(terms)
    assert_canonical(result)
    assert result == dense(terms)
    assert result == composed(terms)


def test_combination_on_zero_shaped_blocks():
    assert combination([(1, QMatrix.zeros(2, 0), QMatrix.zeros(0, 3))]) == QMatrix.zeros(2, 3)
    assert combination([(5, QMatrix.zeros(0, 4))]) == QMatrix.zeros(0, 4)
    a = QMatrix([[1, 2], [3, 4]])
    edge = [(1, a, QMatrix.zeros(2, 0)), (-1, QMatrix.zeros(2, 0))]
    assert combination(edge) == QMatrix.zeros(2, 0)


def test_combination_on_edge_operator_blocks():
    """Blocks outside 0..dim are zero-shaped; the table's edge equations still line up."""
    s = structure_from_model(corpus()[1])
    d, lam, dl = s.d_block, s.lambda_block, s.d_lambda_block
    for k in (0, 1, s.dim - 1, s.dim):
        terms = [(1, d(k - 2), lam(k)), (-1, lam(k + 1), d(k)), (-1, dl(k))]
        assert combination(terms).is_zero()
        assert combination(terms) == composed(terms)


def test_combination_terms_without_right_factor():
    a = QMatrix([[Fraction(1, 2), 0], [0, Fraction(3, 7)]])
    b = QMatrix([[1, 1], [Fraction(-1, 3), 0]])
    assert combination([(2, a), (Fraction(1, 5), b)]) == combination([(2, a)]) + combination([(Fraction(1, 5), b)])
    assert combination([(1, a), (-1, a)]) == QMatrix.zeros(2, 2)
    assert combination([(0, a, b)]) == QMatrix.zeros(2, 2)


def test_combination_shape_mismatch_raises():
    a = QMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="shape mismatch"):
        combination([(1, a, a)])
    with pytest.raises(ValueError, match="shape mismatch"):
        combination([(1, a), (1, a, a.transpose())])
    with pytest.raises(ValueError):
        combination([])


def test_combination_reads_the_right_factor_in_place():
    """A product holds no copy of a right factor whose rows have different denominators."""
    tracemalloc.start()
    try:
        rows = [({c: (i + c) % 97 + 1 for c in range(300)}, i % 12 + 1) for i in range(300)]
        b = QMatrix.from_ints(rows, 300)
        size, _ = tracemalloc.get_traced_memory()
        a = QMatrix.from_ints([({7: 1}, 1)], 300)
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        product = combination([(1, a, b)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {d for _, d in b.int_rows} == set(range(1, 13))
    assert peak - start < size / 10
    assert product.int_rows == (b.int_rows[7],)


def _quotients(engine: SymplecticCohomology):
    """Every de Rham, (d + d^Lambda) and primitive (d + d^Lambda) quotient."""
    s = engine.s
    for space in engine.de_rham:
        yield f"de Rham {space.degree}", space.quotient
    for space in engine.d_plus_dlambda:
        yield f"d+dLambda {space.degree}", space.quotient
    for k in range(s.n + 1):
        numerator = kernel(
            QMatrix.stacked([s.d_block(k), s.d_lambda_block(k), s.lambda_block(k)])
        )
        denominator = image_meet_kernel(s.dd_lambda_block(k), s.lambda_block(k))
        yield f"primitive {k}", CohomologySpace(s.dim, k, numerator, denominator).quotient


@pytest.fixture(scope="module", params=list(MODELS))
def engine(request):
    engine = SymplecticCohomology(structure_from_model(MODELS[request.param]))
    return engine


def test_class_matrix_matches_sparse_coordinates(engine):
    for where, q in _quotients(engine):
        for vectors in (q.total.basis, q.complement.basis, q.sub.basis):
            columns = [
                q.class_rows(QMatrix.from_sparse([row], q.total.ambient_dim)).rows[0]
                for row in vectors.sparse_rows
            ]
            want = QMatrix(columns, q.dim).transpose()
            assert q.class_rows(vectors).transpose() == want, where


def test_class_matrix_rejects_rows_outside_the_total_space(engine):
    checked = 0
    for where, q in _quotients(engine):
        n = q.total.ambient_dim
        outside = [j for j in range(n) if not q.total.contains([int(i == j) for i in range(n)])]
        if not outside:
            continue
        rows = list(q.total.basis.sparse_rows) + [{outside[0]: Fraction(1)}]
        with pytest.raises(NotInSubspace):
            q.class_rows(QMatrix.from_sparse(rows, n))
        checked += 1
    assert checked


def _gram_split_solver(complement: Subspace, sub: Subspace) -> QMatrix:
    """The solver as the first c rows of the inverse Gram matrix of [C; W], times [C; W]."""
    mt = QMatrix.stacked([complement.basis, sub.basis])
    split = inverse(mt @ mt.transpose())
    return QMatrix.from_ints(split.int_rows[: complement.dim], split.ncols) @ mt


def test_small_gram_solver_matches_the_full_split(engine):
    """Every quotient the engine builds, and its numerator over itself: a zero quotient."""
    for where, q in _quotients(engine):
        for sub in (q.sub, q.total):
            again = quotient_structure(sub, q.total)
            complement = image_meet_kernel(q.total.basis.transpose(), sub.basis)
            assert again.complement == complement, where
            assert again._solver == _gram_split_solver(complement, sub).transpose(), where
