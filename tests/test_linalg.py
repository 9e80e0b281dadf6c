import random
from fractions import Fraction

import pytest

from sympcoh import (
    AmbientMismatch,
    NotInSubspace,
    NotSubspace,
    QMatrix,
    Subspace,
    image,
    inverse,
    kernel,
    quotient_structure,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
)
from sympcoh import linalg
from sympcoh.linalg import as_vector, combination


def F(x):
    return Fraction(x)


@pytest.fixture
def rref_calls(monkeypatch):
    """The shape of every block passed to `linalg.rref`, in call order."""
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m, **kw: calls.append(m.shape) or real(m, **kw))
    return calls


class TestRref:
    def test_proportional_rows_collapse(self):
        reduced, pivots, rank = rref(QMatrix([[2, 4], [1, 2]]))
        assert rank == 1
        assert pivots == (0,)
        assert reduced == QMatrix([[1, 2]])

    def test_identity_fixed(self):
        eye = QMatrix.identity(4)
        reduced, pivots, rank = rref(eye)
        assert reduced == eye
        assert rank == 4

    def test_row_swap(self):
        reduced, _, rank = rref(QMatrix([[0, 1], [1, 0]]))
        assert reduced == QMatrix.identity(2)
        assert rank == 2

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            m = QMatrix(
                [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
            )
            reduced, _, _ = rref(m)
            again, _, _ = rref(reduced)
            assert again == reduced

    def test_empty_shapes(self):
        reduced, pivots, rank = rref(QMatrix([], ncols=3))
        assert reduced.shape == (0, 3)
        assert rank == 0

    @pytest.mark.parametrize(
        "rows, pivots",
        [
            ([[1, F("1/2"), 0, 0, -3], [0, 0, 1, 0, 2], [0, 0, 0, 1, F("-5/7")], [0] * 5],
             (0, 2, 3)),
            ([[0, 1, 0], [0, 0, 1]], (1, 2)),
            ([[0, 0], [0, 0]], ()),
        ],
    )
    def test_reduced_input_comes_back_as_it_is(self, rows, pivots):
        m = QMatrix(rows)
        reduced, found, rank = rref(m)
        assert reduced == QMatrix([row for row in rows if any(row)], m.ncols)
        assert found == pivots
        assert rank == len(pivots)

    @pytest.mark.parametrize(
        "rows, ncols, want",
        [
            # zero rows and a dependent row among independent ones
            ([[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6], [0, 1, 1]], 3,
             [[1, 0, 1], [0, 1, 1]]),
            ([[1, 1], [2, 2], [3, 3]], 2, [[1, 1]]),
            ([[0, 0, 0, 0], [0, 0, 0, 0]], 4, []),  # all zero: 0 x n out
            ([], 4, []),  # empty 0 x n block
        ],
    )
    def test_returns_one_row_per_pivot(self, rows, ncols, want):
        reduced, pivots, rank = rref(QMatrix(rows, ncols))
        assert reduced.shape == (rank, ncols)
        assert len(pivots) == rank
        assert reduced == QMatrix(want, ncols)
        assert all(nums for nums, _ in reduced.int_rows)


def _routes():
    """Every way the package builds a subspace: name -> (ambient dimension, thunk)."""
    a = Subspace.from_vectors(4, [[1, 2, 0, 1], [0, 0, 1, 1]])
    b = Subspace.from_vectors(4, [[1, 2, 1, 2], [0, 1, 0, 0]])
    m = QMatrix([[1, 2, 0, 1], [2, 4, 0, 2], [0, 0, 0, 0]])
    v = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    w = Subspace.from_vectors(4, [[1, 1, 0, 0]])
    return {
        "direct": (4, lambda: Subspace(rref(m)[0])),
        "spanned": (4, lambda: Subspace.spanned(m)),
        "kernel": (4, lambda: kernel(m)),
        "image": (3, lambda: image(m)),
        "zero": (4, lambda: Subspace.zero(4)),
        "full": (4, lambda: Subspace.full(4)),
        "subspace_sum": (4, lambda: subspace_sum(a, b)),
        "subspace_intersect": (4, lambda: subspace_intersect(a, b)),
        "image_meet_kernel": (4, lambda: linalg.image_meet_kernel(m.transpose(), m)),
        "complement": (4, lambda: linalg.QuotientSpace(v, w).complement),
        "from_vectors": (4, lambda: Subspace.from_vectors(4, [[0] * 4, [2, 4, 0, 2], [1, 2, 0, 1]])),
    }


class TestSubspaceIsItsBasis:
    def test_basis_is_the_only_field(self):
        basis = QMatrix([[1, 0, 2], [0, 1, -1]])
        space = Subspace(basis)
        assert vars(space) == {"basis": basis}
        assert space.basis is basis
        assert space.ambient_dim == 3
        assert space == Subspace.from_vectors(3, [[1, 1, 1], [1, 0, 2]])

    @pytest.mark.parametrize("route", list(_routes()))
    def test_every_route_keeps_width_and_no_zero_rows(self, route):
        ambient, build = _routes()[route]
        space = build()
        assert space == Subspace(space.basis)
        assert space.ambient_dim == space.basis.ncols == ambient
        assert all(nums for nums, _ in space.basis.int_rows)


class TestKernelImage:
    def test_kernel_identity_trivial(self):
        assert kernel(QMatrix.identity(3)).dim == 0

    def test_kernel_zero_full(self):
        assert kernel(QMatrix.zeros(2, 2)) == Subspace.full(2)

    def test_kernel_vectors_multiply_back(self):
        m = QMatrix([[1, 1, 0]])
        space = kernel(m)
        assert space.dim == 2
        for vec in space.basis.rows:
            assert all(x == 0 for x in m.apply(vec))

    def test_image_identity_full(self):
        assert image(QMatrix.identity(5)) == Subspace.full(5)

    def test_image_zero(self):
        assert image(QMatrix.zeros(3, 2)).dim == 0

    @pytest.mark.parametrize("shape", [(3, 2), (1, 4), (0, 0), (0, 3), (3, 0)])
    def test_zero_blocks_skip_elimination(self, shape, monkeypatch):
        zero = QMatrix.zeros(*shape)
        with monkeypatch.context() as patch:
            # Force the eliminating path for the reference answers.
            patch.setattr(QMatrix, "is_zero", lambda self: False)
            want = kernel(zero), image(zero)
        monkeypatch.setattr("sympcoh.linalg.rref", lambda m: pytest.fail("rref was called"))
        assert (kernel(zero), image(zero)) == want
        assert kernel(zero) == Subspace.full(shape[1])
        assert image(zero) == Subspace.zero(shape[0])

    def test_kernel_is_one_elimination(self, rref_calls):
        m = QMatrix([[1, 2, 0, -1, 3], [0, 1, 3, 1, 0], [2, 5, 3, -1, 6]])
        space = kernel(m)
        assert rref_calls == [m.shape]
        assert space.dim == 3
        assert all(not any(m.apply(v)) for v in space.basis.rows)

    def test_kernel_eliminates_its_own_block_unflipped(self, monkeypatch):
        seen = []
        real = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda m, **kw: seen.append((m, kw)) or real(m, **kw))
        m = QMatrix([[1, 2, 0, -1, 3], [0, 1, 3, 1, 0]])
        kernel(m)
        assert len(seen) == 1
        assert seen[0][0] is m
        assert seen[0][1] == {"last": True}

    def test_rank_nullity(self):
        rng = random.Random(3)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            m = QMatrix([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)])
            _, _, rank = rref(m)
            assert kernel(m).dim + rank == ncols
            assert image(m).dim == rank


class TestSubspaceLattice:
    def test_sum_with_zero(self):
        a = Subspace.from_vectors(3, [[1, 2, 0]])
        assert subspace_sum(a, Subspace.zero(3)) == a

    def test_intersect_with_full(self):
        a = Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 5]])
        assert subspace_intersect(a, Subspace.full(3)) == a

    def test_axes_meet_trivially(self):
        x = Subspace.from_vectors(2, [[1, 0]])
        y = Subspace.from_vectors(2, [[0, 1]])
        assert subspace_intersect(x, y).dim == 0

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_meet_with_the_zero_space_takes_the_zassenhaus_block(self, zero_first, rref_calls):
        a = Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 5]])
        for other in (a, Subspace.full(3), Subspace.zero(3)):
            pair = (Subspace.zero(3), other) if zero_first else (other, Subspace.zero(3))
            rref_calls.clear()
            assert subspace_intersect(*pair) == Subspace.zero(3)
            assert rref_calls == [(other.dim, 6)]

    def test_modular_law_seeded(self):
        rng = random.Random(11)
        for _ in range(30):
            ambient = rng.randint(1, 6)
            gen = lambda: [
                [rng.randint(-3, 3) for _ in range(ambient)]
                for _ in range(rng.randint(0, 3))
            ]
            a = Subspace.from_vectors(ambient, gen())
            b = Subspace.from_vectors(ambient, gen())
            # Independent oracle: the sum's dimension straight from the
            # rref of the stacked bases.
            stacked = QMatrix(
                list(a.basis.rows) + list(b.basis.rows), ncols=ambient
            )
            _, _, sum_rank = rref(stacked)
            assert subspace_sum(a, b).dim == sum_rank
            assert a.dim + b.dim == sum_rank + subspace_intersect(a, b).dim

    def test_canonical_from_different_generators(self):
        a = Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]])
        b = Subspace.from_vectors(3, [[1, 2, 1], [2, 3, 1], [1, 0, -1]])
        assert a == b

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            subspace_sum(Subspace.full(2), Subspace.full(3))

    def test_contains(self):
        s = Subspace.from_vectors(3, [[1, 0, 2], [0, 1, 1]])
        assert s.contains([1, 0, 2])
        assert s.contains([0, 0, 0])
        assert s.contains([1, 1, 3])
        # Outside by construction: adding it must raise the rank.
        outside = [0, 0, 1]
        grown = subspace_sum(s, Subspace.from_vectors(3, [outside]))
        assert grown.dim == s.dim + 1
        assert not s.contains(outside)


class TestQuotient:
    def test_equal_spaces_empty(self):
        v = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        q = quotient_structure(v, v)
        assert q.dim == 0
        assert q.class_rows(QMatrix([[1, 1, 0]])).rows[0] == ()

    def test_zero_quotient_uses_the_general_solver(self):
        v = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        for q in (quotient_structure(v, v), quotient_structure(Subspace.zero(3), Subspace.zero(3))):
            assert q._solver == QMatrix.zeros(3, 0)
            assert q.class_rows(q.total.basis).transpose() == QMatrix.zeros(0, q.total.dim)
            assert q.class_rows(QMatrix.zeros(4, 3)).transpose() == QMatrix.zeros(0, 4)

    def test_zero_denominator_gives_basis(self):
        v = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        q = quotient_structure(Subspace.zero(3), v)
        assert q.dim == 2
        assert q.complement.basis.rows == v.basis.rows

    def test_coordinates_of_representatives(self):
        v = Subspace.full(3)
        w = Subspace.from_vectors(3, [[1, 1, 1]])
        q = quotient_structure(w, v)
        assert q.dim == 2
        for i, rep in enumerate(q.complement.basis.rows):
            coords = q.class_rows(QMatrix([rep])).rows[0]
            assert coords == tuple(
                Fraction(int(j == i)) for j in range(q.dim)
            )
            # Representatives are orthogonal to the denominator.
            assert sum(a * b for a, b in zip(rep, (1, 1, 1))) == 0

    def test_coordinates_vanish_on_subspace(self):
        v = Subspace.full(2)
        w = Subspace.from_vectors(2, [[1, 2]])
        q = quotient_structure(w, v)
        assert q.class_rows(QMatrix([[2, 4]])).rows[0] == (F(0),)

    def test_complement_needs_no_elimination_beyond_its_kernel(self, rref_calls):
        v = Subspace.from_vectors(4, [[1, 0, 2, 1], [0, 1, 1, -1], [1, 1, 0, F("1/2")]])
        w = Subspace.from_vectors(4, [[2, 1, 5, 1]])
        rref_calls.clear()
        kernel(w.basis @ v.basis.transpose())
        alone = list(rref_calls)
        rref_calls.clear()
        complement = quotient_structure(w, v).complement
        assert rref_calls == alone == [(1, 3)]
        assert complement.dim == 2

    def test_the_dimension_needs_no_elimination(self, rref_calls):
        v = Subspace.from_vectors(4, [[1, 0, 2, 1], [0, 1, 1, -1], [1, 1, 0, F("1/2")]])
        w = Subspace.from_vectors(4, [[2, 1, 5, 1]])
        rref_calls.clear()
        q = quotient_structure(w, v)
        assert q.dim == 2 and rref_calls == []
        assert q.complement.dim == 2 and rref_calls == [(1, 3)]

    def test_not_subspace(self):
        v = Subspace.from_vectors(3, [[1, 0, 0]])
        w = Subspace.from_vectors(3, [[0, 1, 0]])
        with pytest.raises(NotSubspace):
            quotient_structure(w, v)

    def test_vector_outside_total(self):
        v = Subspace.from_vectors(2, [[1, 0]])
        q = quotient_structure(Subspace.zero(2), v)
        with pytest.raises(NotInSubspace):
            q.class_rows(QMatrix([[0, 1]]))

    def test_a_full_numerator_still_checks_the_width(self):
        """All of Q^N needs no membership check, but a row of another width is refused."""
        full = Subspace.full(3)
        for sub in (Subspace.zero(3), Subspace.from_vectors(3, [[1, 0, 0]])):
            q = quotient_structure(sub, full)
            with pytest.raises(AmbientMismatch):
                q.class_rows(QMatrix([[1, 2]]))
            assert q.class_rows(QMatrix([[1, 2, 3]])).ncols == q.dim
        with pytest.raises(AmbientMismatch):
            full.contains_subspace(Subspace.full(2))


class TestSolveInverse:
    def test_solve_consistent(self):
        m = QMatrix([[1, 2], [3, 4]])
        x = solve(m, [5, 11])
        assert x is not None
        assert m.apply(x) == (F(5), F(11))

    def test_solve_inconsistent(self):
        m = QMatrix([[1, 1], [1, 1]])
        assert solve(m, [0, 1]) is None

    def test_inverse_round_trip(self):
        m = QMatrix([[2, 1], [1, 1]])
        assert m @ inverse(m) == QMatrix.identity(2)

    def test_inverse_of_the_empty_matrix(self):
        assert inverse(QMatrix.zeros(0, 0)) == QMatrix.zeros(0, 0)

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            inverse(QMatrix([[1, 2], [2, 4]]))

    def test_exact_fractions_stay_reduced(self):
        m = QMatrix([[F("1/3"), F("1/6")], [F("1/2"), F("1/4")]])
        reduced, _, rank = rref(m)
        assert rank == 1
        for row in reduced.rows:
            for x in row:
                assert x.denominator > 0


class TestCanonicalEntries:
    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            QMatrix([[1, 2], [3]])

    def test_ncols_mismatch(self):
        with pytest.raises(ValueError, match="expected 3 columns, got 2"):
            QMatrix([[1, 2]], ncols=3)

    def test_loose_values_become_plain_fractions(self, loose_entry):
        value, exact = loose_entry
        stored = [
            QMatrix([[value, 0]]).rows[0][0],
            as_vector([value])[0],
            combination([(value, QMatrix([[1]]))]).rows[0][0],
        ]
        for x in stored:
            assert x == exact
            assert type(x) is Fraction

    def test_plain_fractions_stored_as_is(self):
        x = F("6/4")
        assert as_vector([x])[0] is x


class TestSparseRows:
    def test_wrong_length_vector_is_an_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            Subspace.from_vectors(3, [[1, 2]])
        with pytest.raises(AmbientMismatch):
            Subspace.from_vectors(2, [[1, 2], [1, 2, 3]])

    def test_rows_store_only_nonzero_entries(self):
        m = QMatrix([[0, 2, 0], [0, 0, 0]])
        assert m.sparse_rows == ({1: F(2)}, {})
        assert m.rows == ((F(0), F(2), F(0)), (F(0), F(0), F(0)))

    def test_cancellations_store_no_zeros(self):
        m = QMatrix([[1, -1], [2, 3]])
        zero = QMatrix.zeros(2, 2)
        assert (m - m).sparse_rows == ({}, {})
        assert (m + (-m)).sparse_rows == ({}, {})
        assert combination([(0, m)]).sparse_rows == ({}, {})
        assert m - m == zero and combination([(0, m)]) == zero
        product = QMatrix([[1, 1]]) @ QMatrix([[1], [-1]])
        assert product.sparse_rows == ({},)
        assert product == QMatrix.zeros(1, 1)

    def test_equal_matrices_hash_alike(self):
        dense = QMatrix([[0, 1, 2]])
        built = QMatrix.from_sparse([{2: F(2), 1: F(1)}], 3)
        assert dense == built
        assert hash(dense) == hash(built)

    def test_zero_rows_stay_at_the_bottom(self):
        reduced, pivots, rank = rref(QMatrix([[0, 0], [0, 3], [0, 6]]))
        assert reduced.shape == (1, 2)  # the zero rows are dropped
        assert reduced == QMatrix([[0, 1]])
        assert (pivots, rank) == ((1,), 1)

    def test_stacked_blocks(self):
        a = QMatrix([[1, 0, 1]])
        b = QMatrix([[0, 1, 1], [0, 0, 0]])
        assert QMatrix.stacked([a, b]) == QMatrix([[1, 0, 1], [0, 1, 1], [0, 0, 0]])
        with pytest.raises(ValueError, match="column count"):
            QMatrix.stacked([a, QMatrix.identity(2)])

    def test_stacked_of_no_blocks(self):
        with pytest.raises(ValueError, match="stacked of no blocks"):
            QMatrix.stacked([])

    def test_apply_sparse_matches_apply(self):
        m = QMatrix([[1, 0, F("1/2")], [0, 0, 0], [3, -1, 0]])
        x = [F(2), F(0), F(-4)]
        out = m.apply_sparse({0: F(2), 2: F(-4)})
        assert out == {2: F(6)}  # row 0 cancels to zero and is not stored
        assert tuple(out.get(i, F(0)) for i in range(3)) == m.apply(x)
