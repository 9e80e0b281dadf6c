"""The exact elimination kernel against an independent oracle (sympy).

sympy's `Matrix.rref` shares no code with `linalg.rref`, so agreement on
the operator blocks of real models, and on random sparse rational
matrices, checks the RREF, the pivots and everything built on them.
"""

import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sympcoh import (
    QMatrix,
    Subspace,
    SymplecticCohomology,
    corpus,
    inverse,
    kernel,
    load_model,
    quotient_structure,
    rref,
    solve,
    structure_from_model,
    subspace_intersect,
    subspace_sum,
)

sympy = pytest.importorskip("sympy")

NIL8 = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "nil8.model"


def to_sympy(m: QMatrix):
    rows = m.rows
    return sympy.Matrix(
        m.nrows, m.ncols, lambda i, j: sympy.Rational(rows[i][j].numerator, rows[i][j].denominator)
    )


def from_sympy(m) -> QMatrix:
    return QMatrix(
        [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)], m.cols
    )


def assert_rref_matches(m: QMatrix) -> None:
    reduced, pivots, rank = rref(m)
    want, want_pivots = to_sympy(m).rref()
    assert pivots == tuple(want_pivots)
    assert rank == len(want_pivots)
    # `rref` keeps only the pivot rows; sympy pads with zero rows.
    assert reduced == from_sympy(want[:rank, :])
    assert want[rank:, :].is_zero_matrix


def assert_last_rref_matches(m: QMatrix) -> None:
    """`rref(m, last=True)` is sympy's RREF of *m* with its columns reversed, mapped back."""
    reduced, pivots, rank = rref(m, last=True)
    last = m.ncols - 1
    want, want_pivots = to_sympy(m)[:, ::-1].rref()
    assert pivots == tuple(last - p for p in want_pivots)
    assert rank == len(want_pivots)
    assert reduced == from_sympy(want[:rank, ::-1])
    assert want[rank:, :].is_zero_matrix


MODELS = {model.name: model for model in corpus()} | {"nil8": load_model(NIL8)}


@pytest.mark.parametrize("name", list(MODELS))
def test_operator_blocks_match_sympy(name):
    s = structure_from_model(MODELS[name])
    for k in range(s.dim + 1):
        for block in (s.d_block(k), s.lambda_block(k), s.d_lambda_block(k), s.dd_lambda_block(k)):
            if block.nrows and block.ncols:
                assert_rref_matches(block)


# In RREF but for one defect each, so an elimination that took any of
# them for reduced input would return it unchanged: each must come back
# as sympy's RREF.  Each key names the RREF condition its input breaks.
NEARLY_REDUCED = {
    "lead entry not 1": [[1, 2, 0, 3], [0, 0, 2, -1], [0, 0, 0, 0]],
    "nonzero above a later lead": [[1, 2, 0, 3], [0, 0, 1, -1], [0, 0, 0, 1]],
    "zero row before a nonzero row": [[1, 2, 0, 3], [0, 0, 0, 0], [0, 0, 1, -1]],
    "equal lead columns": [[1, 2, 0, 3], [1, 0, 0, 0], [0, 0, 0, 0]],
    "decreasing lead columns": [[0, 0, 1, -1], [1, 2, 0, 3], [0, 0, 0, 0]],
    "entries in two lead columns": [[1, 0, 0, 3], [0, 1, 0, 1], [1, 1, 0, 0]],
}


@pytest.mark.parametrize("defect", list(NEARLY_REDUCED))
def test_nearly_reduced_inputs_match_sympy(defect):
    m = QMatrix(NEARLY_REDUCED[defect])
    assert_rref_matches(m)
    assert rref(m)[0] != m


entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# Denominators up to 10^6: the integer rows then carry wide lcms and contents.
wide_entries = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@st.composite
def sparse_matrices(draw, square=False, entries=entries):
    """Up to 12 x 12, with at most a third of the cells set (most are zero).

    A square one also gets a drawn diagonal, so that many are invertible.
    """
    nrows = draw(st.integers(min_value=1, max_value=12))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=12))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, nrows * ncols - 1), entries), max_size=nrows * ncols // 3 + 1
        )
    )
    values = [[Fraction(0)] * ncols for _ in range(nrows)]
    if square:
        for i, x in enumerate(draw(st.lists(entries, min_size=nrows, max_size=nrows))):
            values[i][i] = x
    for index, x in cells:
        values[index // ncols][index % ncols] = x
    return QMatrix(values, ncols)


@settings(deadline=None, max_examples=40)
@given(sparse_matrices())
def test_rref_matches_sympy(m):
    assert_rref_matches(m)


@settings(deadline=None, max_examples=40)
@given(sparse_matrices())
def test_last_column_rref_matches_sympy(m):
    assert_last_rref_matches(m)


@settings(deadline=None, max_examples=40)
@given(sparse_matrices())
def test_kernel_matches_sympy(m):
    null = [[Fraction(int(x.p), int(x.q)) for x in v] for v in to_sympy(m).nullspace()]
    assert kernel(m) == Subspace.from_vectors(m.ncols, null)


def seeded_block(rng: random.Random, nrows: int, ncols: int) -> QMatrix:
    """A block with entries p/q, |p| <= 3 and q <= 3, of one of four kinds.

    "sparse" has half its entries zero, "zero rows" and "repeated rows"
    overwrite some rows with zeros or with copies of earlier rows, and
    "full rank" is redrawn until its rank is min(nrows, ncols).
    """
    kind = rng.choice(("sparse", "zero rows", "repeated rows", "full rank"))

    def draw(zero_share):
        return [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() >= zero_share else 0
             for _ in range(ncols)]
            for _ in range(nrows)
        ]

    rows = draw(0.5)
    if kind == "zero rows":
        for i in rng.sample(range(nrows), nrows // 2):
            rows[i] = [0] * ncols
    elif kind == "repeated rows":
        for i in range(1, nrows):
            if rng.random() < 0.5:
                rows[i] = rows[rng.randrange(i)]
    elif kind == "full rank":
        while rref(QMatrix(rows, ncols))[2] < min(nrows, ncols):
            rows = draw(0.0)
    return QMatrix(rows, ncols)


@pytest.mark.parametrize("seed", range(60))
def test_subspaces_come_out_in_rref(seed):
    """`kernel`, quotient complements and `subspace_intersect` build their
    RREF bases without a final `Subspace.spanned`; each must already be
    the basis that `spanned` would give."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 9)
    m, x, y = (seeded_block(rng, rng.randint(0, 7), ncols) for _ in range(3))
    a, b = Subspace.spanned(x), Subspace.spanned(y)
    for space in (
        kernel(m),
        quotient_structure(a, subspace_sum(a, b)).complement,
        subspace_intersect(a, b),
    ):
        assert Subspace.spanned(space.basis) == space


@settings(deadline=None, max_examples=40)
@given(sparse_matrices(), st.data())
def test_zero_denominator_class_rows_match_the_solver(m, data):
    """Over w = 0 `class_rows` reads rows at v's pivots; rows @ S^T stays the oracle."""
    for v in (Subspace.spanned(m), Subspace.full(m.ncols)):
        q = quotient_structure(Subspace.zero(m.ncols), v)
        combos = data.draw(st.lists(st.lists(entries, min_size=v.dim, max_size=v.dim),
                                    max_size=4))
        rows = QMatrix.stacked([m, QMatrix(combos, v.dim) @ v.basis])
        assert q.class_rows(rows) == rows @ q._solver


@settings(deadline=None, max_examples=40)
@given(sparse_matrices(), st.lists(entries, min_size=12, max_size=12))
def test_solve_matches_sympy(m, rhs):
    b = rhs[: m.nrows]
    x = solve(m, b)
    oracle = to_sympy(m)
    column = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
    consistent = oracle.row_join(column).rank() == oracle.rank()
    assert (x is not None) == consistent
    if x is not None:
        assert m.apply(x) == tuple(b)


@settings(deadline=None, max_examples=40)
@given(sparse_matrices(square=True))
def test_inverse_matches_sympy(m):
    oracle = to_sympy(m)
    if oracle.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        assert inverse(m) == from_sympy(oracle.inv())


@settings(deadline=None, max_examples=40)
@given(sparse_matrices(entries=wide_entries))
def test_rref_matches_sympy_wide_denominators(m):
    assert_rref_matches(m)


@settings(deadline=None, max_examples=40)
@given(sparse_matrices(entries=wide_entries))
def test_last_column_rref_matches_sympy_wide_denominators(m):
    assert_last_rref_matches(m)


@settings(deadline=None, max_examples=40)
@given(sparse_matrices(entries=wide_entries))
def test_kernel_matches_sympy_wide_denominators(m):
    null = [[Fraction(int(x.p), int(x.q)) for x in v] for v in to_sympy(m).nullspace()]
    assert kernel(m) == Subspace.from_vectors(m.ncols, null)


@settings(deadline=None, max_examples=40)
@given(sparse_matrices(square=True, entries=wide_entries))
def test_inverse_matches_sympy_wide_denominators(m):
    oracle = to_sympy(m)
    if oracle.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        assert inverse(m) == from_sympy(oracle.inv())


def domain_rank(m: QMatrix) -> int:
    """Rank over QQ from sympy's sparse DomainMatrix."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not (m.nrows and m.ncols):
        return 0
    rows = {
        i: {j: QQ(x.numerator, x.denominator) for j, x in row.items()}
        for i, row in enumerate(m.sparse_rows)
        if row
    }
    return DomainMatrix(rows, m.shape, QQ).rank()


@pytest.mark.parametrize("name", list(MODELS))
def test_betti_numbers_match_sympy_ranks(name):
    """b_k = C(n, k) - rank d_k - rank d_{k-1}, with the ranks taken by sympy."""
    engine = SymplecticCohomology(structure_from_model(MODELS[name]))
    g = engine.s.g
    ranks = {k: domain_rank(g.d_block(k)) for k in range(-1, g.dim + 1)}
    want = tuple(comb(g.dim, k) - ranks[k] - ranks[k - 1] for k in range(g.dim + 1))
    assert engine.betti == want
