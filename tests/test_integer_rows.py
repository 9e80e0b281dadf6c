"""Integer rows of `QMatrix` against a dense Fraction reference.

Every kernel runs on canonical integer rows (numerators, den).  These
properties check each one against plain Fraction arithmetic on the dense
`rows` view, on sparse matrices whose denominators reach 10^6, and check
that every result row satisfies the canonical invariant.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from sympcoh import QMatrix, inverse, kernel, rref, solve

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
    assert_matches(m.scaled(f), [[f * x for x in row] for row in m.rows])
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


def test_integer_rows_of_a_fraction_matrix():
    m = QMatrix([[Fraction(1, 2), Fraction(-1, 3), 0], [0, 0, 0], [4, 0, 6]])
    assert m.int_rows == (({0: 3, 1: -2}, 6), ({}, 1), ({0: 4, 2: 6}, 1))
    assert (m @ QMatrix.identity(3)).sparse_rows == m.sparse_rows
