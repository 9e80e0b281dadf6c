import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from sympcoh import (
    Form,
    InternalInconsistencyError,
    NotInSubspace,
    NotUnimodular,
    QMatrix,
    QuotientSpace,
    SymplecticCohomology,
    Subspace,
    build_lie_algebra,
    corpus_model,
    corpus_names,
    de_rham_cohomology,
    image,
    kernel,
    load_model,
    parse_form,
    parse_structure_equations,
    render_form,
    rref,
    run_compute,
    structure_from_model,
    subspace_intersect,
    validate_symplectic,
)
from sympcoh.exterior import GradedOperator
from sympcoh.linalg import image_meet_kernel
from sympcoh.verify import random_form, random_symplectic_structure


def span_of_classes(engine, degree, texts):
    space = engine.de_rham[degree]
    vectors = [space.class_of(parse_form(text, engine.s.dim)) for text in texts]
    return Subspace.from_vectors(space.dim, vectors)


class TestDeRham:
    def test_abelian_binomial_betti(self):
        g = build_lie_algebra(parse_structure_equations("0^6"))
        spaces = de_rham_cohomology(g)
        assert [sp.dim for sp in spaces] == [comb(6, k) for k in range(7)]

    def test_example1_low_degrees(self, example1):
        assert example1.betti == (1, 3, 4, 4, 4, 3, 1)
        assert [render_form(rep) for rep in example1.de_rham[1].representatives] == [
            "e1",
            "e2",
            "e3",
        ]

    def test_example2_palindrome(self, example2):
        assert example2.betti == (1, 2, 3, 4, 3, 2, 1)

    def test_class_of_representative_is_unit_vector(self, example1):
        for k in range(7):
            space = example1.de_rham[k]
            for i, rep in enumerate(space.representatives):
                coords = space.class_of(rep)
                assert coords == tuple(
                    Fraction(int(j == i)) for j in range(space.dim)
                )

    def test_class_of_exact_forms_vanishes(self, example1):
        g = example1.s.g
        rng = random.Random(21)
        for k in range(6):
            form = random_form(6, k, rng)
            exact = g.d(form)
            if exact.is_zero():
                continue
            cls = example1.de_rham[exact.degree].class_of(exact)
            assert all(x == 0 for x in cls)

    def test_poincare_duality_of_betti(self, corpus_engines):
        for engine in corpus_engines.values():
            b = engine.betti
            assert b == tuple(reversed(b))


class TestOtherCohomologies:
    def test_torus_dlambda_binomial(self, torus6):
        assert torus6.dlambda_dims == tuple(comb(6, k) for k in range(7))

    def test_dlambda_star_duality(self, corpus_engines):
        for engine in corpus_engines.values():
            dims = engine.dlambda_dims
            assert dims == tuple(engine.betti[6 - k] for k in range(7))

    def test_example1_dlambda_degree4(self, example1):
        assert example1.dlambda_dims[4] == example1.betti[2] == 4

    def test_torus_d_plus_dlambda_equals_de_rham(self, torus6):
        assert tuple(sp.dim for sp in torus6.d_plus_dlambda) == torus6.betti

    def test_ddlambda_duality(self, corpus_engines):
        for engine in corpus_engines.values():
            ddl = engine.ddlambda_dims
            plus = tuple(sp.dim for sp in engine.d_plus_dlambda)
            assert ddl == tuple(plus[6 - k] for k in range(7))

    def test_example2_ddlambda_equals_de_rham(self, example2):
        # dd^Lambda-lemma holds there, so the dims collapse to Betti.
        assert example2.ddlambda_dims == example2.betti

    def test_d_plus_dlambda_lefschetz(self, corpus_engines):
        for engine in corpus_engines.values():
            assert engine.d_plus_dlambda_lefschetz_check()


class TestPrimitiveCohomologies:
    def test_torus_ph_plus_degree_one(self, torus6):
        assert torus6.primitive_ph_plus(1).dim == 6

    def test_both_formulas_agree_everywhere(self, corpus_engines):
        for engine in corpus_engines.values():
            for sdeg in range(4):
                engine.primitive_ph_plus(sdeg)  # raises on disagreement

    def test_example2_ph_plus_degree_two(self, example2):
        assert example2.primitive_ph_plus(2).dim == 2

    def test_torus_ph_d_binomial_primitive(self, torus6):
        for sdeg in range(4):
            expected = comb(6, sdeg) - (comb(6, sdeg - 2) if sdeg >= 2 else 0)
            assert torus6.primitive_ph_d(sdeg) == expected

    def test_hlc_structures_ph_d_equals_h0s(self, corpus_engines):
        for engine in corpus_engines.values():
            if engine.hlc().overall:
                for sdeg in range(engine.s.n + 1):
                    assert engine.primitive_ph_d(sdeg) == engine.hrs_group(0, sdeg).dim

    def test_example1_ph_d_computes(self, example1):
        for sdeg in range(4):
            assert example1.primitive_ph_d(sdeg) >= 0


def _non_closed_unit_rows(engine):
    """(space, unit row outside its closed forms) for each degree whose forms are not all closed.

    A coordinate row has length C(dim, k), the numerator's `ambient_dim`;
    the space's own `ambient_dim` is the algebra's dimension.
    """
    spaces = [s for s in engine.de_rham if s.numerator.dim < s.numerator.ambient_dim]
    assert len(spaces) >= 3
    for space in spaces:
        n = space.numerator.ambient_dim
        units = ([int(i == j) for i in range(n)] for j in range(n))
        yield space, QMatrix([next(row for row in units if not space.numerator.contains(row))])


class TestOneQuotientType:
    """Every cohomology is a CohomologySpace: one inclusion check, one error type."""

    def test_a_second_ph_formula_outside_its_numerator_raises(self, monkeypatch):
        # With P taken as all 4-forms, d d^Lambda(P) leaves ker Lambda
        # (Lambda d d^Lambda = d d^Lambda Lambda), while the first formula,
        # which never reads P, stays sound.
        s = structure_from_model(corpus_model("example2"))
        monkeypatch.setattr(s, "primitive_subspace", lambda k: Subspace.full(comb(s.dim, k)))
        with pytest.raises(
            InternalInconsistencyError,
            match=re.escape("PH_(d+dLambda) as ker [d; Lambda] / d dLambda(P) in degree 4"),
        ):
            SymplecticCohomology(s).primitive_ph_plus(4)

    def test_class_matrix_of_a_non_closed_row_raises(self, example1):
        for space, outside in _non_closed_unit_rows(example1):
            with pytest.raises(
                InternalInconsistencyError, match=re.escape(f"H_dR in degree {space.degree}")
            ):
                space.class_matrix(outside)

    def test_classes_of_the_representatives_is_the_whole_cohomology(self, corpus_engines):
        for engine in corpus_engines.values():
            for space in engine.de_rham:
                spanned = space.classes_of(space.representative_rows)
                assert spanned == Subspace.full(space.dim)
                assert spanned.dim == engine.betti[space.degree]

    def test_classes_of_exact_rows_is_zero(self, corpus_engines):
        for engine in corpus_engines.values():
            for space in engine.de_rham:
                assert space.classes_of(space.denominator.basis) == Subspace.zero(space.dim)

    def test_classes_of_a_non_closed_row_raises(self, example1):
        for space, outside in _non_closed_unit_rows(example1):
            with pytest.raises(
                InternalInconsistencyError, match=re.escape(f"H_dR in degree {space.degree}")
            ):
                space.classes_of(outside)

    def test_only_class_of_lets_a_bare_not_in_subspace_through(self, example1):
        """`class_of` takes caller forms, so a non-closed one is the caller's NotInSubspace;
        `classes_of` and `class_matrix` take engine rows, where the same row is a bug."""
        space, outside = next(_non_closed_unit_rows(example1))
        with pytest.raises(NotInSubspace) as caught:
            space.class_of(outside.rows[0])
        assert not isinstance(caught.value, InternalInconsistencyError)
        for route in (space.classes_of, space.class_matrix):
            with pytest.raises(
                InternalInconsistencyError, match=re.escape(f"H_dR in degree {space.degree}")
            ):
                route(outside)

    def test_reading_only_the_dimension_builds_no_quotient(self, monkeypatch):
        """`dim` builds no complement; the representatives build exactly one."""
        built = []
        complement = QuotientSpace.complement  # the cached_property itself
        original = complement.func
        monkeypatch.setattr(complement, "func", lambda q: built.append(q.dim) or original(q))
        engine = SymplecticCohomology(structure_from_model(corpus_model("example2")))
        space = engine.primitive_ph_plus(2)
        assert space.dim == 2 and built == []
        assert len(space.representatives) == 2 and built == [2]

    def test_the_class_solver_is_built_on_first_use(self, monkeypatch):
        import sympcoh.linalg

        inversions = []
        original = sympcoh.linalg.inverse
        monkeypatch.setattr(
            sympcoh.linalg, "inverse", lambda m: inversions.append(m.shape) or original(m)
        )
        engine = SymplecticCohomology(structure_from_model(corpus_model("example1")))
        space = engine.de_rham[2]
        assert len(space.representatives) == space.dim == 4
        assert inversions == []
        closed = space.numerator.basis
        first = space.class_matrix(closed)
        assert inversions == [(4, 4)]
        assert space.class_matrix(closed) == first
        assert inversions == [(4, 4)]


class TestStackedKernels:
    """ker A meet ker B = ker [A; B]: the stacked form the engine uses."""

    @staticmethod
    def assert_stacked_equals_nested(s):
        for k in range(s.dim + 1):
            d, dl, lam = s.d_block(k), s.d_lambda_block(k), s.lambda_block(k)
            for blocks in ([d, dl], [d, dl, lam], [d, lam], [lam, dl]):
                nested = kernel(blocks[0])
                for block in blocks[1:]:
                    nested = subspace_intersect(nested, kernel(block))
                assert kernel(QMatrix.stacked(blocks)) == nested

    def test_corpus(self, corpus_engines):
        for engine in corpus_engines.values():
            self.assert_stacked_equals_nested(engine.s)

    def test_random_dim6_structure(self):
        self.assert_stacked_equals_nested(random_symplectic_structure(6, random.Random(0)))

    @pytest.mark.parametrize("degree", [2, 3])
    def test_corrupted_L_block_fails_the_primitive_cross_check(self, monkeypatch, degree):
        """A report still runs ker Lambda_k = ker L^{n-k+1} on every primitive degree."""
        import sympcoh.report

        original = sympcoh.report._structure_on

        def corrupted(g, model):
            s = original(g, model)
            block = s.L_op.block(degree)
            blocks = {**s.L_op.blocks, degree: QMatrix.zeros(block.nrows, block.ncols)}
            s.L_op = GradedOperator(s.dim, 2, blocks)
            return s

        monkeypatch.setattr(sympcoh.report, "_structure_on", corrupted)
        with pytest.raises(InternalInconsistencyError, match="ker Lambda != ker L"):
            run_compute(corpus_model("example1"))


class TestHrsGroups:
    def test_example1_h10(self, example1):
        group = example1.hrs_group(1, 0)
        assert group.dim == 1
        expected = span_of_classes(example1, 2, ["16+35+24"])
        assert group.classes == expected

    def test_example1_h02_span(self, example1):
        group = example1.hrs_group(0, 2)
        assert group.dim == 3
        expected = span_of_classes(
            example1, 2, ["13", "14+23", "2*24-16-35"]
        )
        assert group.classes == expected

    def test_example3_h02_span(self, example3):
        group = example3.hrs_group(0, 2)
        assert group.dim == 4
        expected = span_of_classes(
            example3, 2, ["12-36", "12-45", "13", "26"]
        )
        assert group.classes == expected

    def test_omega_powers_span_hr0(self, corpus_engines):
        for engine in corpus_engines.values():
            s = engine.s
            for r in range(1, s.n // 2 + 1):
                omega_power = Form.unit(6)
                for _ in range(r):
                    omega_power = s.L(omega_power)
                group = engine.hrs_group(r, 0)
                assert group.dim == 1
                cls = engine.de_rham[2 * r].class_of(omega_power)
                assert group.classes.contains(cls)

    def test_out_of_range_is_zero(self, example1):
        assert example1.hrs_group(4, 0).dim == 0
        assert example1.hrs_group(0, 7).dim == 0


class TestDecompositions:
    def test_degree2_full_direct_everywhere(self, corpus_engines):
        for engine in corpus_engines.values():
            verdict = engine.h2_decomposition_check()
            assert verdict.full and verdict.direct

    def test_example1_degree3_failure_with_witness(self, example1):
        verdict = example1.decomposition(3)
        assert not verdict.full
        assert not verdict.direct
        cls = example1.de_rham[3].class_of(parse_form("136", 6))
        assert example1.hrs_group(1, 1).classes.contains(cls)
        assert example1.hrs_group(0, 3).classes.contains(cls)

    def test_example3_degree3_not_full(self, example3):
        verdict = example3.decomposition(3)
        assert not verdict.full
        cls = example3.de_rham[3].class_of(parse_form("136", 6))
        total = example3.hrs_group(0, 3).classes
        from sympcoh import subspace_sum

        total = subspace_sum(total, example3.hrs_group(1, 1).classes)
        assert not total.contains(cls)

    def test_example2_printed_dims(self, example2):
        expectations = {
            1: {(0, 1): 2},
            2: {(0, 2): 2, (1, 0): 1},
            3: {(0, 3): 2, (1, 1): 2},
            4: {(0, 4): 0, (1, 2): 2, (2, 0): 1},
            5: {(0, 5): 0, (1, 3): 0, (2, 1): 2},
        }
        for degree, summands in expectations.items():
            verdict = example2.decomposition(degree)
            assert verdict.full and verdict.direct
            assert dict(verdict.summand_dims) == summands


class TestDecisions:
    def test_hlc(self, corpus_engines):
        expected = {
            "torus6": True,
            "example1": False,
            "example2": True,
            "example3": False,
            "example4": True,
        }
        for name, engine in corpus_engines.items():
            assert engine.hlc().overall == expected[name], name

    def test_dd_lemma_matches_hlc(self, corpus_engines):
        for engine in corpus_engines.values():
            assert engine.hlc_equals_dd_lemma_check() == engine.hlc().overall

    def test_lr_equals_hr(self, corpus_engines):
        for engine in corpus_engines.values():
            results = engine.lr_equals_hr_check()
            assert all(results.values())

    def test_intersection_remark(self, corpus_engines):
        for engine in corpus_engines.values():
            assert engine.intersection_remark_check() == {1: True}

    def test_full_implies_dual_direct(self, corpus_engines):
        for engine in corpus_engines.values():
            engine.full_implies_dual_direct_check()


class TestCupPairing:
    def test_torus_unit_against_volume(self, torus6):
        s = torus6.s
        top = s.omega_top
        unit_class = torus6.de_rham[0].class_of(Form.unit(6))
        top_class = torus6.de_rham[6].class_of(top)
        value = torus6.cup_pairing(unit_class, 0, top_class)
        # omega^n = n! times the volume monomial up to orientation sign.
        assert abs(value) == 6
        assert value == s.volume_coeff

    def test_pairing_matrices_nondegenerate(self, corpus_engines):
        for engine in corpus_engines.values():
            for k in range(7):
                matrix = engine.cup_matrix(k)
                _, _, rank = rref(matrix)
                assert rank == engine.betti[k]

    def test_complementary_type_orthogonality(self, corpus_engines):
        # <[omega^r beta_s], [omega^p gamma_q]> = 0 once q != s, the
        # orthogonality behind the duality implication.
        for engine in corpus_engines.values():
            for k in range(7):
                for r in range(k // 2 + 1):
                    s_deg = k - 2 * r
                    a = engine.hrs_group(r, s_deg)
                    for p in range((6 - k) // 2 + 1):
                        q_deg = 6 - k - 2 * p
                        if q_deg == s_deg:
                            continue
                        b = engine.hrs_group(p, q_deg)
                        for va in a.classes.basis.rows:
                            for vb in b.classes.basis.rows:
                                assert engine.cup_pairing(va, k, vb) == 0

    def test_not_unimodular_rejected(self):
        g = build_lie_algebra(parse_structure_equations("12,0"))
        s = validate_symplectic(g, parse_form("12", 2, degree=2))
        engine = SymplecticCohomology(s)
        with pytest.raises(NotUnimodular):
            engine.cup_matrix(0)


NIL8 = Path(__file__).resolve().parents[1] / "perfbench" / "models" / "nil8.model"


@pytest.mark.parametrize("name", [*corpus_names(), "nil8"])
def test_quotient_complement_is_the_zassenhaus_intersection(name):
    """v meet w-perp from ker(W V^T) agrees with the Zassenhaus route."""
    model = load_model(NIL8) if name == "nil8" else corpus_model(name)
    g = build_lie_algebra(parse_structure_equations(model.structure, model.dim))
    for space in de_rham_cohomology(g):
        w, v = space.denominator, space.numerator
        assert space.quotient.complement == subspace_intersect(v, kernel(w.basis))


@pytest.mark.parametrize("name", [*corpus_names(), "nil8"])
def test_composed_intersections_are_the_zassenhaus_intersections(name):
    """L^r P meet ker d and im dd^Lambda meet ker Lambda, as kernels of products."""
    model = load_model(NIL8) if name == "nil8" else corpus_model(name)
    engine = SymplecticCohomology(structure_from_model(model))
    s = engine.s
    for degree in range(s.dim + 1):
        for r in range(degree // 2 + 1):
            lifted = s.L_power_block(r, degree - 2 * r) @ s.primitive_subspace(
                degree - 2 * r
            ).basis.transpose()
            closed = kernel(s.d_block(degree))
            zassenhaus = subspace_intersect(image(lifted), closed)
            assert image_meet_kernel(lifted, s.d_block(degree)) == zassenhaus
            space = engine.de_rham[degree]
            classes = Subspace.from_vectors(
                space.dim, [space.class_of(row) for row in zassenhaus.basis.rows]
            )
            assert engine.hrs_group(r, degree - 2 * r).classes == classes
        ddl, lam = s.dd_lambda_block(degree), s.lambda_block(degree)
        zassenhaus = subspace_intersect(image(ddl), s.primitive_subspace(degree))
        assert image_meet_kernel(ddl, lam) == zassenhaus


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


EXAMPLE1_BETTI = [1, 3, 4, 4, 4, 3, 1]
# example1 plus six abelian directions: nil10 plus two.
EXAMPLE1_PLUS_R6 = "0,0,0,[1,2],[1,4]-[2,3],[1,5]+[3,4],0,0,0,0,0,0"


@pytest.mark.parametrize("name, m", [("nil8", 2), ("derham10", 4), ("example1+R6", 6)])
def test_kunneth_betti_numbers_of_abelian_extensions(name, m):
    """H(g + R^m) = H(g) (x) Lambda(R^m) (Kunneth), for g = example1."""
    if name == "example1+R6":
        structure = parse_structure_equations(EXAMPLE1_PLUS_R6)
    else:
        model = load_model(NIL8.with_name(f"{name}.model"))
        structure = parse_structure_equations(model.structure, model.dim)
    betti = [space.dim for space in de_rham_cohomology(build_lie_algebra(structure))]
    assert betti == _convolve(EXAMPLE1_BETTI, [comb(m, j) for j in range(m + 1)])
    if m == 6:
        assert betti[:7] == [1, 9, 37, 93, 163, 218, 238]


def test_every_exported_name_resolves():
    import importlib

    import sympcoh

    modules = [sympcoh] + [
        importlib.import_module(f"sympcoh.{name}")
        for name in ("cohomology", "errors", "exterior", "lie", "linalg", "models",
                     "parsing", "report", "symplectic", "verify")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_top_betti_number_is_one_exactly_on_unimodular_algebras():
    """The gate of the unimodular checks: b_top = 1 iff tr ad = 0, as `check_properties` finds."""
    from sympcoh.lie import check_properties
    from sympcoh.verify import BASE_STRUCTURES

    algebras = [structure_from_model(corpus_model(name)).g for name in corpus_names()]
    texts = ["0,12,0,0", "0,12,0,34"]  # aff(R) + R^2 and aff(R)^2
    rng = random.Random(0)
    for dim in (4, 6):
        texts += BASE_STRUCTURES[dim]
        algebras += [random_symplectic_structure(dim, rng).g for _ in range(4)]
    algebras += [build_lie_algebra(parse_structure_equations(text)) for text in texts]
    verdicts = set()
    for g in algebras:
        unimodular = check_properties(g).unimodular
        assert (de_rham_cohomology(g)[-1].dim == 1) == unimodular
        verdicts.add(unimodular)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "check", ["h2_decomposition_check", "intersection_remark_check", "full_implies_dual_direct_check"]
)
def test_unimodular_checks_raise_not_unimodular_on_aff_r_plus_r2(check):
    g = build_lie_algebra(parse_structure_equations("0,12,0,0"))
    engine = SymplecticCohomology(validate_symplectic(g, parse_form("12+34", 4, degree=2)))
    with pytest.raises(NotUnimodular, match="needs a unimodular algebra"):
        getattr(engine, check)()
