"""Block products against the per-vector and Form routes they replace.

The star and the cup pairing are products with the signed permutation
`wedge_pairing`; the coframe change is a product with the second
compound of the inverse change; a random closed 2-form is one row
product with the closed basis; the decomposition sum, L^r H^(0,s) and the
H^(k,0) meet H^(0,2k) check are eliminations of stacked or multiplied
blocks; class coordinates of one vector are the one-row case of
`class_rows`; HLC, the dd^Lambda-lemma, the Hard Lefschetz of
H_(d+d^Lambda) and L^r H^(0,s) are all `CohomologySpace.classes_of`,
H^(r,s) is `classes_of` the kernel rows M ker(d M), H^(0,s) that of the
shared closed primitive forms, and im d d^Lambda meet P comes from the
shared RREF basis of im d d^Lambda.  Each is checked here against the
route it replaced (Form wedges and substitutions, sums of
`Form.from_vector`, the running `subspace_sum` fold, per-vector `apply`,
the Zassenhaus `subspace_intersect`, the `rref` rank of an induced
matrix, the RREF basis of im M meet ker d from `image_meet_kernel`,
ker(d P^T) P, the meet from the whole d d^Lambda block), which stays in
this file as the oracle.  Every
`QMatrix` constructor is checked to give the same canonical integer
rows and to keep none of its caller's containers.
"""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sympcoh import (
    Form,
    InternalInconsistencyError,
    QMatrix,
    Subspace,
    SymplecticCohomology,
    build_lie_algebra,
    corpus,
    inverse,
    kernel,
    load_model,
    parse_structure_equations,
    rref,
    structure_from_model,
    subspace_intersect,
    subspace_sum,
    top_coefficient,
)
from sympcoh import cohomology
from sympcoh.exterior import merge_with_sign, monomial_basis, wedge_pairing
from sympcoh.linalg import image_meet_kernel
from sympcoh.parsing import StructureEquations, render_structure
from sympcoh.verify import (
    BASE_STRUCTURES,
    _random_change,
    _random_closed_nondegenerate,
    random_symplectic_structure,
    transform_coframe,
)

from test_integer_rows import assert_canonical, wide_matrices

examples = settings(deadline=None, max_examples=60)

NIL8 = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "nil8.model"
MODELS = {model.name: model for model in corpus()} | {"nil8": load_model(NIL8)}


@pytest.fixture(scope="module", params=list(MODELS))
def engine(request):
    return SymplecticCohomology(structure_from_model(MODELS[request.param]))


@pytest.fixture(scope="module")
def random_engines():
    rng = random.Random(7)
    return [SymplecticCohomology(random_symplectic_structure(6, rng)) for _ in range(2)]


@pytest.fixture(scope="module")
def seeded_engines():
    """Seeded dim-4 and dim-6 verify structures."""
    rng = random.Random(29)
    return [SymplecticCohomology(random_symplectic_structure(dim, rng)) for dim in (4, 4, 6, 6)]


# -- the wedge pairing, the star and the cup pairing ----------------------------


@pytest.mark.parametrize("dim", range(2, 9))
def test_wedge_pairing_is_the_top_coefficient_of_monomial_wedges(dim):
    for k in range(dim + 1):
        pairing = wedge_pairing(dim, k)
        assert pairing.shape == (comb(dim, k), comb(dim, dim - k))
        want = [
            [top_coefficient(Form.monomial(dim, a).wedge(Form.monomial(dim, b))) for b in high]
            for a in monomial_basis(dim, k)
            for high in [monomial_basis(dim, dim - k)]
        ]
        assert pairing == QMatrix(want, comb(dim, dim - k))


def test_wedge_pairing_is_built_once_per_dimension_and_degree():
    assert wedge_pairing(6, 3) is wedge_pairing(6, 3)


def _star_block_by_signs(s, k: int) -> QMatrix:
    """Block k of the star as rows of the Gram matrix moved and signed one by one."""
    c = s.volume_coeff / factorial(s.n)
    cobasis = monomial_basis(s.dim, s.dim - k)
    rows = [[Fraction(0)] * comb(s.dim, k) for _ in cobasis]
    for a, gram_row in zip(monomial_basis(s.dim, k), s.pairing_matrix(k).rows):
        complement = tuple(i for i in range(1, s.dim + 1) if i not in a)
        sign, _ = merge_with_sign(a, complement)
        rows[cobasis.index(complement)] = [sign * c * x for x in gram_row]
    return QMatrix(rows, comb(s.dim, k))


def test_star_blocks_match_the_signed_gram_rows(engine, random_engines):
    for coh in [engine, *random_engines]:
        s = coh.s
        for k in range(s.dim + 1):
            assert s.star_op.block(k) == _star_block_by_signs(s, k), k


def _cup_by_form_wedges(coh, k: int) -> QMatrix:
    low = coh.de_rham[k].representatives
    high = coh.de_rham[coh.s.dim - k].representatives
    return QMatrix([[top_coefficient(a.wedge(b)) for b in high] for a in low], len(high))


def test_cup_matrix_matches_form_wedges(engine, random_engines):
    checked = 0
    for coh in [engine, *random_engines]:
        if not coh.properties.unimodular:
            continue
        for k in range(coh.s.dim + 1):
            assert coh.cup_matrix(k) == _cup_by_form_wedges(coh, k), k
        checked += 1
    assert checked


def test_random_engines_for_the_cup_oracle_are_unimodular(random_engines):
    assert all(coh.properties.unimodular for coh in random_engines)


# -- random structures: the coframe change and the closed 2-form ---------------


def _substitute(form: Form, rows: tuple, dim: int) -> Form:
    """Rewrite a form under e^j -> sum_k rows[j-1][k] f^k, one wedge at a time."""
    total = Form.zero(dim, form.degree)
    for key, c in form.coeffs.items():
        term = Form.unit(dim) * c
        for idx in key:
            row = rows[idx - 1]
            term = term.wedge(Form(dim, 1, {(k + 1,): row[k] for k in range(dim) if row[k]}))
        total = total + term
    return total


def _coframe_by_wedges(structure, omega: Form, change: QMatrix):
    """d f^i = sum_j M_ij d e^j, each d e^j and omega rewritten by `_substitute`."""
    dim = structure.dim
    rows = inverse(change).rows
    substituted = [_substitute(d, rows, dim) for d in structure.differentials]
    diffs = tuple(
        sum((substituted[j] * change.rows[i][j] for j in range(dim)), Form.zero(dim, 2))
        for i in range(dim)
    )
    return diffs, _substitute(omega, rows, dim)


def _closed_nondegenerate_by_forms(g, rng: random.Random):
    """Each candidate a sum of `Form.from_vector` over the dense closed basis."""
    basis = kernel(g.d_op.block(2)).basis.rows
    if not basis:
        return None
    for attempt in range(120):
        spread = 2 if attempt < 60 else 3
        candidate = Form.zero(g.dim, 2)
        for vec in basis:
            c = rng.randint(-spread, spread)
            if c:
                candidate = candidate + Form.from_vector(g.dim, 2, vec) * c
        if candidate.is_zero():
            continue
        top = candidate
        for _ in range(g.dim // 2 - 1):
            top = top.wedge(candidate)
        if not top.is_zero():
            return candidate
    return None


CATALOG = [(dim, text) for dim, texts in BASE_STRUCTURES.items() for text in texts]


@pytest.mark.parametrize("dim, text", CATALOG)
def test_coframe_change_matches_the_wedge_substitution(dim, text):
    g = build_lie_algebra(parse_structure_equations(text))
    rng = random.Random(text)
    checked = 0
    for _ in range(10):
        omega = _random_closed_nondegenerate(g, rng)
        if omega is None:
            continue
        change = _random_change(dim, rng)
        structure, new_omega = transform_coframe(g.structure, omega, change)
        diffs, want_omega = _coframe_by_wedges(g.structure, omega, change)
        assert structure.differentials == diffs
        assert structure.source_text == render_structure(StructureEquations(dim, diffs))
        assert new_omega == want_omega and new_omega.degree == 2
        checked += 1
    assert checked == 10


@pytest.mark.parametrize("dim, text", CATALOG)
def test_closed_nondegenerate_draws_match_the_form_sum(dim, text):
    g = build_lie_algebra(parse_structure_equations(text))
    for seed in range(5):
        by_rows, by_forms = random.Random(seed), random.Random(seed)
        got = _random_closed_nondegenerate(g, by_rows)
        assert got == _closed_nondegenerate_by_forms(g, by_forms)
        assert by_rows.getstate() == by_forms.getstate()


# -- decomposition, L^r H^(0,s) and the meet dimension ---------------------------


def test_decomposition_sum_matches_the_subspace_sum_fold(engine):
    for degree in range(engine.s.dim + 1):
        total = Subspace.zero(engine.betti[degree])
        for r in range(degree // 2 + 1):
            total = subspace_sum(total, engine.hrs_group(r, degree - 2 * r).classes)
        assert engine.decomposition(degree).sum_dim == total.dim, degree


def test_lr_push_matches_per_vector_apply(engine):
    n = engine.s.n
    checked = 0
    for s in range(n + 1):
        for r in range(1, (n - s) // 2 + 1):
            base = engine.hrs_group(0, s).classes
            matrix = engine.l_cohomology_matrix(r, s)
            by_vector = Subspace.from_vectors(
                engine.betti[s + 2 * r], [matrix.apply(vec) for vec in base.basis.rows]
            )
            assert Subspace.spanned(base.basis @ matrix.transpose()) == by_vector, (r, s)
            assert by_vector == engine.hrs_group(r, s).classes, (r, s)
            checked += 1
    assert checked
    assert all(engine.lr_equals_hr_check().values())


def _rank(m: QMatrix) -> int:
    return rref(m)[2]


def test_hlc_matches_the_rank_of_the_induced_matrix(engine, random_engines):
    for coh in [engine, *random_engines]:
        n = coh.s.n
        by_rank = tuple(
            coh.betti[n - k] == coh.betti[n + k]
            and _rank(coh.l_cohomology_matrix(k, n - k)) == coh.betti[n - k]
            for k in range(n + 1)
        )
        assert coh.hlc().per_degree == by_rank


def test_dd_lemma_matches_the_rank_of_the_class_matrix(engine, random_engines):
    for coh in [engine, *random_engines]:
        by_rank = tuple(
            _rank(coh.de_rham[k].class_matrix(space.representative_rows)) == space.dim
            for k, space in enumerate(coh.d_plus_dlambda)
        )
        assert coh.dd_lemma_per_degree() == by_rank


def test_d_plus_dlambda_lefschetz_ranks_match_the_induced_matrix(engine, random_engines):
    for coh in [engine, *random_engines]:
        n = coh.s.n
        for k in range(n + 1):
            low, high = coh.d_plus_dlambda[n - k], coh.d_plus_dlambda[n + k]
            lifted = low.representative_rows @ coh.s.L_power_block(k, n - k).transpose()
            rank = _rank(high.class_matrix(lifted))
            assert high.classes_of(lifted).dim == rank == low.dim == high.dim, k
        assert coh.d_plus_dlambda_lefschetz_check()


def test_every_lr_push_matches_the_induced_matrix(engine, random_engines):
    checked = 0
    for coh in [engine, *random_engines]:
        dim = coh.s.dim
        for s in range(dim + 1):
            base = coh.hrs_group(0, s)
            for r in range(1, (dim - s) // 2 + 1):
                matrix = coh.l_cohomology_matrix(r, s)
                by_matrix = Subspace.spanned(base.classes.basis @ matrix.transpose())
                lifted = base.representative_rows @ coh.s.L_power_block(r, s).transpose()
                assert coh.de_rham[s + 2 * r].classes_of(lifted) == by_matrix, (r, s)
                checked += 1
        assert all(coh.lr_equals_hr_check().values())
    assert checked


def test_hrs_classes_of_the_kernel_rows_match_the_meet_basis(engine, random_engines):
    """M ker(d M) and the RREF basis of im M meet ker d give the same H^(r,s)."""
    checked = 0
    for coh in [engine, *random_engines]:
        n = coh.s.n
        for s in range(n + 1):
            prim = coh.s.primitive_subspace(s)
            if not prim.dim:
                continue
            for r in range(n - s + 1):
                degree = 2 * r + s
                lifted = coh.s.L_power_block(r, s) @ prim.basis.transpose()
                meet = image_meet_kernel(lifted, coh.s.d_block(degree))
                want = coh.de_rham[degree].classes_of(meet.basis)
                assert coh.hrs_group(r, s).classes == want, (r, s)
                checked += 1
    assert checked


def test_h0s_classes_match_the_closed_kernel_rows_of_p(engine, seeded_engines):
    """H^(0,s) from the shared ker [d; d^Lambda; Lambda], against ker(d P^T) P."""
    checked = 0
    for coh in [engine, *seeded_engines]:
        for s in range(coh.s.n + 1):
            prim = coh.s.primitive_subspace(s).basis
            closed = kernel(coh.s.d_block(s) @ prim.transpose()).basis @ prim
            assert coh.hrs_group(0, s).classes == coh.de_rham[s].classes_of(closed), s
            checked += 1
    assert checked


def test_primitive_ph_plus_meet_matches_the_dd_lambda_block_route(engine):
    """im d d^Lambda meet P from the shared RREF basis, against the whole d d^Lambda block."""
    for sdeg in range(engine.s.dim + 1):
        want = image_meet_kernel(engine.s.dd_lambda_block(sdeg), engine.s.lambda_block(sdeg))
        assert engine.primitive_ph_plus(sdeg).denominator == want, sdeg


@pytest.mark.parametrize("corruption", ["high_degree_zeroed", "l_power_zeroed"])
def test_a_failed_d_plus_dlambda_lefschetz_names_k_and_both_degrees(
    engine, monkeypatch, corruption
):
    """Unequal dims and a rank drop give the same error."""
    fresh = SymplecticCohomology(engine.s)
    n, dim = fresh.s.n, fresh.s.dim
    spaces = list(fresh.d_plus_dlambda)
    assert spaces[n - 1].dim
    if corruption == "high_degree_zeroed":
        # H^{n+1} replaced by its numerator over itself: dimension 0.
        high = spaces[n + 1]
        spaces[n + 1] = cohomology.CohomologySpace(
            dim, n + 1, high.numerator, high.numerator, high.label
        )
        monkeypatch.setattr(fresh, "d_plus_dlambda", tuple(spaces))
    else:
        # L^r for r >= 1 replaced by zero blocks: equal dims, rank 0.
        power = fresh.s.L_power_block

        def zeroed(r, k):
            return power(r, k) if r == 0 else QMatrix.zeros(comb(dim, k + 2 * r), comb(dim, k))

        monkeypatch.setattr(fresh.s, "L_power_block", zeroed)
    message = f"L^1 is not an isomorphism from H^{n - 1}_(d+d^Lambda) to H^{n + 1}_(d+d^Lambda)"
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        fresh.d_plus_dlambda_lefschetz_check()


def test_meet_dimension_matches_subspace_intersect(engine):
    pairs = 0
    for degree in range(engine.s.dim + 1):
        groups = [engine.hrs_group(r, degree - 2 * r) for r in range(degree // 2 + 1)]
        for a, b in combinations(groups, 2):
            by_rank = a.dim + b.dim - subspace_sum(a.classes, b.classes).dim
            assert by_rank == subspace_intersect(a.classes, b.classes).dim, (a.r, b.r)
            pairs += 1
    assert pairs
    assert all(engine.intersection_remark_check().values())


def test_a_nonzero_meet_fails_the_intersection_check(engine, monkeypatch):
    """With H^(0,2k) replaced by H^(k,0), the meet is H^(k,0) itself."""
    fresh = SymplecticCohomology(engine.s)
    hrs_group = fresh.hrs_group
    monkeypatch.setattr(
        fresh, "hrs_group", lambda r, s: hrs_group(*((1, 0) if (r, s) == (0, 2) else (r, s)))
    )
    with pytest.raises(InternalInconsistencyError, match=r"H\^\(1,0\) meet H\^\(0,2\) is 1-dim"):
        fresh.intersection_remark_check()


# -- H^(r,s) groups that are zero by degree -----------------------------------------


def test_groups_zero_by_degree_skip_the_meet(engine, monkeypatch):
    calls = []
    original = cohomology.kernel

    def counting(m):
        calls.append(m.shape)
        return original(m)

    fresh = SymplecticCohomology(engine.s)
    fresh.betti  # de Rham is built before the spy: its kernels are not the meet's
    monkeypatch.setattr(cohomology, "kernel", counting)
    n, dim = fresh.s.n, fresh.s.dim
    zero_by_degree = [
        (r, s)
        for s in range(dim + 1)
        for r in range((dim - s) // 2 + 1)
        if s > n or r + s > n
    ]
    assert zero_by_degree
    for r, s in zero_by_degree:
        group = fresh.hrs_group(r, s)
        assert group.dim == 0 and group.representatives == ()
        assert group.classes == Subspace.zero(fresh.betti[2 * r + s])
    assert calls == []
    r, s = next(
        (r, s) for s in range(dim + 1) for r in range(1, (dim - s) // 2 + 1)
        if (r, s) not in zero_by_degree
    )
    fresh.hrs_group(r, s)  # an r >= 1 group that is not zero by degree takes the meet
    assert calls == [(fresh.s.d_block(2 * r + s).nrows, fresh.s.primitive_subspace(s).dim)]
    fresh._closed_primitive(1)
    calls.clear()
    fresh.hrs_group(0, 1)  # H^(0,s) reads the memoized closed primitive forms
    assert calls == []


# -- class coordinates of one vector ---------------------------------------------------


def test_one_vector_coordinates_write_it_over_the_representatives(engine):
    for space in engine.de_rham:
        q = space.quotient
        reps = q.complement.basis
        for row in q.total.basis.sparse_rows:
            coords = q.class_rows(QMatrix.from_sparse([row], q.total.ambient_dim)).rows[0]
            assert len(coords) == q.dim
            rest = QMatrix.from_sparse([row], q.total.ambient_dim)
            if q.dim:
                rest = rest - QMatrix([coords]) @ reps
            assert q.sub.contains(rest.rows[0]), space.degree


# -- one stored form for every constructor ---------------------------------------------


def _reference_rows(values):
    """Each dense row over the lcm of its denominators, in lowest terms."""
    rows = []
    for row in values:
        den = lcm(*[x.denominator for x in row if x])
        rows.append(({j: int(x * den) for j, x in enumerate(row) if x}, den))
    return tuple(rows)


@examples
@given(wide_matrices(), st.integers(1, 12))
def test_every_constructor_gives_the_same_integer_rows(m, factor):
    values = [list(row) for row in m.rows]
    want = _reference_rows(values)
    scaled_up = [({j: x * factor for j, x in nums.items()}, den * factor) for nums, den in want]
    built = [
        QMatrix(values, m.ncols),
        QMatrix([[str(x) for x in row] for row in values], m.ncols),
        QMatrix.from_sparse([dict(row) for row in m.sparse_rows], m.ncols),
        QMatrix([list(col) for col in zip(*values)], m.nrows).transpose(),
        QMatrix.from_ints(scaled_up, m.ncols),
    ]
    for other in built:
        assert other.shape == m.shape
        assert other.int_rows == want
        assert_canonical(other)


def test_constructors_keep_none_of_the_callers_rows():
    rows = [{0: Fraction(1, 2), 2: Fraction(3)}, {}]
    built = QMatrix.from_sparse(rows, 3)
    before = built.int_rows
    rows[0][1] = Fraction(5)
    rows[1][0] = Fraction(7)
    del rows[0][0]
    assert built.int_rows == before == (({0: 1, 2: 6}, 2), ({}, 1))
    assert built.sparse_rows == ({0: Fraction(1, 2), 2: Fraction(3)}, {})
    dense = [[1, 0], [0, 2]]
    matrix = QMatrix(dense)
    dense[0][0] = 9
    assert matrix.int_rows == (({0: 1}, 1), ({1: 2}, 1))


def test_views_are_cached():
    m = QMatrix([[Fraction(1, 2), 0], [0, 3]])
    assert m.rows is m.rows
    assert m.sparse_rows is m.sparse_rows
    assert m.rows == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(3)))
