"""Integer rows of `QMatrix` against a dense Fraction reference.

Every kernel runs on canonical integer rows (numerators, den).  These
properties check each one against plain Fraction arithmetic on the dense
`rows` view, on sparse matrices whose denominators reach 10^6, and check
that every result row satisfies the canonical invariant.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from sympcoh import (
    QMatrix,
    Subspace,
    inverse,
    kernel,
    quotient_structure,
    rref,
    solve,
    subspace_sum,
)
from sympcoh.linalg import combination

examples = settings(deadline=None, max_examples=60)

wide_entries = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@st.composite
def wide_matrices(draw, nrows=None, ncols=None):
    """Up to 8 x 8, at most a third of the cells set, denominators up to 10^6."""
    nrows = nrows or draw(st.integers(min_value=1, max_value=8))
    ncols = ncols or draw(st.integers(min_value=1, max_value=8))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, nrows * ncols - 1), wide_entries),
            max_size=nrows * ncols // 3 + 1,
        )
    )
    values = [[Fraction(0)] * ncols for _ in range(nrows)]
    for index, x in cells:
        values[index // ncols][index % ncols] = x
    return QMatrix(values, ncols)


@st.composite
def pairs(draw, product=False):
    """Two matrices that can be added (or, with *product*, multiplied)."""
    a = draw(wide_matrices())
    if product:
        return a, draw(wide_matrices(nrows=a.ncols))
    return a, draw(wide_matrices(nrows=a.nrows, ncols=a.ncols))


def assert_canonical(m: QMatrix) -> None:
    assert len(m.int_rows) == m.nrows
    for nums, den in m.int_rows:
        assert den > 0
        assert all(type(x) is int and x for x in nums.values())
        assert all(0 <= c < m.ncols for c in nums)
        assert gcd(den, *nums.values()) == 1


def assert_matches(result: QMatrix, dense: list[list[Fraction]]) -> None:
    assert_canonical(result)
    assert [list(row) for row in result.rows] == dense
    assert result == QMatrix(dense, result.ncols)


@examples
@given(pairs(product=True))
def test_product_matches_fractions(ab):
    a, b = ab
    want = [
        [sum((x * b.rows[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(b.ncols)]
        for row in a.rows
    ]
    assert_matches(a @ b, want)


@examples
@given(pairs())
def test_sum_and_difference_match_fractions(ab):
    a, b = ab
    assert_matches(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])
    assert_matches(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])
    assert_matches(a - a, [[Fraction(0)] * a.ncols for _ in range(a.nrows)])


@examples
@given(wide_matrices(), wide_entries)
def test_negation_scaling_and_transpose_match_fractions(m, f):
    assert_matches(-m, [[-x for x in row] for row in m.rows])
    assert_matches(combination([(f, m)]), [[f * x for x in row] for row in m.rows])
    assert_matches(m.transpose(), [list(col) for col in zip(*m.rows)])


@examples
@given(wide_matrices())
def test_eliminations_give_canonical_rows(m):
    reduced, pivots, rank = rref(m)
    assert_canonical(reduced)
    for p, row in zip(pivots, reduced.rows):
        assert row[p] == 1
    assert_canonical(kernel(m).basis)
    if m.nrows == m.ncols and rank == m.nrows:
        assert_canonical(inverse(m))
        assert m @ inverse(m) == QMatrix.identity(m.nrows)
    x = solve(m, m.rows[0][:1] * m.nrows)
    if x is not None:
        assert m.apply(x) == m.rows[0][:1] * m.nrows


@examples
@given(wide_matrices())
def test_fraction_built_and_integer_built_are_equal(m):
    built = QMatrix.from_ints(m.int_rows, m.ncols)  # integer-built: no Fraction view yet
    fresh = QMatrix(m.rows, m.ncols)  # Fraction-built: no integer rows yet
    assert built == fresh and fresh == built
    assert hash(built) == hash(fresh)
    assert built.sparse_rows == fresh.sparse_rows
    doubled = QMatrix.from_ints(
        [({c: 2 * x for c, x in nums.items()}, 2 * den) for nums, den in m.int_rows], m.ncols
    )
    assert doubled == fresh and hash(doubled) == hash(fresh)


@st.composite
def matrix_and_vectors(draw):
    """A matrix and vectors of its width, from all zeros to fully dense."""
    m = draw(wide_matrices())
    entries = st.one_of(st.just(Fraction(0)), wide_entries)
    vector = st.lists(entries, min_size=m.ncols, max_size=m.ncols)
    return m, draw(st.lists(vector, min_size=1, max_size=3))


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


@examples
@given(matrix_and_vectors())
def test_vector_kernels_match_fractions(mv):
    """apply_sparse, reduce_sparse, containment and class coordinates."""
    m, vectors = mv
    v = Subspace.spanned(m)
    for vec in vectors:
        product = [sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in m.rows]
        assert m.apply_sparse(sparse(vec)) == sparse(product)
        # The remainder after clearing each pivot with its RREF row.
        rest = list(vec)
        for p, row in zip(v.pivots, v.basis.rows):
            rest = [r - vec[p] * x for r, x in zip(rest, row)]
        assert v.reduce_sparse(sparse(vec)) == sparse(rest)
        one = Subspace.from_vectors(m.ncols, [vec])
        assert v.contains_subspace(one) == (subspace_sum(v, one).dim == v.dim)
    w = Subspace.from_vectors(m.ncols, vectors)
    assert v.contains_subspace(w) == (subspace_sum(v, w).dim == v.dim)
    # Class coordinates of x in v / u, u spanned by v's first basis row:
    # x minus the combination of representatives lies in u.
    u = Subspace.spanned(QMatrix(v.basis.rows[:1], m.ncols))
    quotient = quotient_structure(u, v)
    x = [sum(c * row[j] for c, row in zip(vectors[0], v.basis.rows)) for j in range(m.ncols)]
    coords = quotient.class_rows(QMatrix.from_sparse([sparse(x)], m.ncols)).rows[0]
    for c, rep in zip(coords, quotient.complement.basis.rows):
        x = [a - c * b for a, b in zip(x, rep)]
    assert subspace_sum(u, Subspace.from_vectors(m.ncols, [x])).dim == u.dim


def test_integer_rows_of_a_fraction_matrix():
    m = QMatrix([[Fraction(1, 2), Fraction(-1, 3), 0], [0, 0, 0], [4, 0, 6]])
    assert m.int_rows == (({0: 3, 1: -2}, 6), ({}, 1), ({0: 4, 2: 6}, 1))
    assert (m @ QMatrix.identity(3)).sparse_rows == m.sparse_rows



def test_vector_kernels_over_rows_with_different_denominators():
    # RREF rows e0 + e2/2 and e1 + e2/3, held over the denominators 2 and 3.
    v = Subspace.from_vectors(3, [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]])
    assert v.basis.int_rows == (({0: 2, 2: 1}, 2), ({1: 3, 2: 1}, 3))
    ones = {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}
    assert v.reduce_sparse(ones) == {2: Fraction(1, 6)}
    inside = {0: Fraction(2), 1: Fraction(-3)}  # 2 (e0 + e2/2) - 3 (e1 + e2/3)
    assert v.reduce_sparse(inside) == {}
    assert v.contains_subspace(Subspace.from_vectors(3, [[2, -3, 0]]))
    assert not v.contains_subspace(Subspace.from_vectors(3, [[1, 1, 1]]))
    assert v.basis.apply_sparse({2: Fraction(6, 5)}) == {0: Fraction(3, 5), 1: Fraction(2, 5)}
