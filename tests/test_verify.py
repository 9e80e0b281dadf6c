"""The block-equation verify suites: pinned counts, dim 8, and mutants."""

import random
import re

import pytest

from sympcoh import (
    InternalInconsistencyError,
    LefschetzComponents,
    SymplecticCohomology,
    build_lie_algebra,
    corpus_model,
    parse_form,
    parse_structure_equations,
    run_verify,
    structure_from_model,
    validate_symplectic,
)
from sympcoh.exterior import GradedOperator, nonzero_columns
from sympcoh.linalg import QMatrix, combination
from sympcoh.verify import (
    BASE_STRUCTURES,
    _catalog_algebra,
    _Recorder,
    operator_identity_suite,
    random_symplectic_structure,
    verify_structure,
)

TABLE = (
    "commute_d_L",
    "commute_dl_L_is_d",
    "commute_ddl_L",
    "commute_d_Lambda_is_dl",
    "commute_dl_Lambda",
    "commute_ddl_Lambda",
    "commute_d_H_is_d",
    "commute_dl_H_is_minus_dl",
    "commute_ddl_H",
    "sl2_lambda_L",
    "sl2_H_L",
    "sl2_H_Lambda",
    "d_squared",
    "d_lambda_squared",
    "anticommute_d_dl",
)

# (passed, failed) per check, recorded with the per-monomial Form suites
# that the block equations replaced.
SEED0_DIM6_COUNTS = {
    "L_injective_below_middle": (3, 0),
    "L_power_form_isomorphism": (4, 0),
    "anticommute_d_dl": (64, 0),
    "commute_d_H_is_d": (64, 0),
    "commute_d_L": (64, 0),
    "commute_d_Lambda_is_dl": (64, 0),
    "commute_ddl_H": (64, 0),
    "commute_ddl_L": (64, 0),
    "commute_ddl_Lambda": (64, 0),
    "commute_dl_H_is_minus_dl": (64, 0),
    "commute_dl_L_is_d": (64, 0),
    "commute_dl_Lambda": (64, 0),
    "cup_pairing_nondegenerate": (7, 0),
    "d_lambda_squared": (64, 0),
    "d_squared": (64, 0),
    "equiv_d_plus_dlambda_lefschetz": (1, 0),
    "equiv_ddlambda_dual_d_plus_dlambda": (1, 0),
    "equiv_dlambda_dual_de_rham": (1, 0),
    "equiv_hlc_iff_dd_lemma": (1, 0),
    "hlc_implies_full_direct": (7, 0),
    "hlc_implies_primitive_dims": (7, 0),
    "image_contains_products": (12, 0),
    "lefschetz_direct_sum_dims": (7, 0),
    "lefschetz_reassembly": (7, 0),
    "primitive_ph_formulas_agree": (4, 0),
    "prop_full_implies_dual_direct": (1, 0),
    "rank_nullity": (12, 0),
    "rref_idempotent": (12, 0),
    "sl2_H_L": (64, 0),
    "sl2_H_Lambda": (64, 0),
    "sl2_lambda_L": (64, 0),
    "star_identities": (1, 0),
    "subspace_modular_law": (12, 0),
    "theorem_h2_full_direct": (1, 0),
    "theorem_hk0_meets_h02k": (1, 0),
    "theorem_hr0_spanned_by_omega_r": (1, 0),
    "theorem_lr_equals_hr": (1, 0),
    "wedge_associative": (10, 0),
    "wedge_graded_commutative": (10, 0),
}


def _suite(s, label="mutant"):
    check = _Recorder()
    operator_identity_suite(s, check, random.Random(0), label=label)
    return check.results


@pytest.mark.parametrize("text", ["0,12,0,0", "0,12,0,34"])
def test_non_unimodular_structures_record_no_failure(text):
    """aff(R) + R^2 and aff(R)^2: the checks that need [omega]^n != 0 are skipped."""
    g = build_lie_algebra(parse_structure_equations(text))
    s = validate_symplectic(g, parse_form("12+34", g.dim, degree=2))
    coh = SymplecticCohomology(s)
    assert not coh.properties.unimodular
    check = _Recorder()
    verify_structure(s, check, random.Random(0), label=text)
    assert {name: r.failures for name, r in check.results.items() if r.failed} == {}
    assert check.results["theorem_lr_equals_hr"].passed == 1
    assert check.results["equiv_hlc_iff_dd_lemma"].passed == 1
    assert "theorem_h2_full_direct" not in check.results


def test_seed0_dim6_counts_pinned():
    summary = run_verify(seed=0, dims=(6,), count_per_dim=1, include_corpus=False)
    counts = {name: (r.passed, r.failed) for name, r in summary.results.items()}
    assert counts == SEED0_DIM6_COUNTS


def test_dim8_suite_records_every_identity_and_the_star():
    g = build_lie_algebra(parse_structure_equations("0,0,0,12,14-23,15+34,0,0"))
    s = validate_symplectic(g, parse_form("16+35+24+78", 8, degree=2))
    results = _suite(s, label="nil8")
    for name in TABLE:
        assert (results[name].passed, results[name].failed) == (256, 0), name
    assert (results["star_identities"].passed, results["star_identities"].failed) == (1, 0)
    assert all(result.ok for result in results.values())


def _with_dlambda_block(s, k, block):
    blocks = dict(s.dLambda_op.blocks)
    blocks[k] = block
    s.dLambda_op = GradedOperator(s.dim, -1, blocks)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sign_flipped_dlambda_block_fails_commutation(k):
    s = structure_from_model(corpus_model("example1"))
    block = s.d_lambda_block(k)
    flipped_columns = sum(1 for column in block.transpose().rows if any(column))
    assert flipped_columns
    _with_dlambda_block(s, k, -block)
    result = _suite(s)["commute_d_Lambda_is_dl"]
    assert result.failed == flipped_columns
    assert result.passed == 64 - flipped_columns
    assert all(re.match(rf"mutant degree {k} at e\d{{{k}}}: \S", ctx) for ctx in result.failures)


@pytest.mark.parametrize("k", [1, 6])
def test_perturbed_edge_dlambda_block_fails_commutation(k):
    """The edge blocks of d^Lambda vanish; a nonzero cell there is caught."""
    s = structure_from_model(corpus_model("example1"))
    block = s.d_lambda_block(k)
    assert block.is_zero()
    rows = [list(row) for row in block.rows]
    rows[0][0] = 1
    _with_dlambda_block(s, k, QMatrix(rows, block.ncols))
    result = _suite(s)["commute_d_Lambda_is_dl"]
    assert result.failed == 1
    assert re.match(rf"mutant degree {k} at e1{'23456'[: k - 1]}: ", result.failures[0])


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("factor", [-1, 2])
def test_corrupted_star_block_raises(k, factor):
    s = structure_from_model(corpus_model("example1"))
    walk = s._gram_blocks
    s._gram_blocks = lambda: (combination([(factor, g)]) if j == k else g for j, g in enumerate(walk()))
    with pytest.raises(InternalInconsistencyError, match=r"on degree \d at e\("):
        s.star_op


def _triple_product_failure(s, star) -> str | None:
    """The error of the first failing star identity, from the residuals star X star - Y."""
    m = s.dim
    for k in range(m + 1):
        sign = -1 if k % 2 else 1
        checks = (
            (star(m - k + 2) @ s.L_block(m - k) @ star(k) - s.lambda_block(k), k - 2,
             "Lambda != star L star"),
            (combination([(sign, star(m - k + 1) @ s.d_block(m - k) @ star(k))]) - s.d_lambda_block(k),
             k - 1, "star route to d^Lambda disagrees"),
        )
        for residual, target, what in checks:
            failing = nonzero_columns(residual, m, k, target)
            if failing:
                return f"{what} on degree {k} at e{failing[0][0]}"
    return None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name, shift", [("L_op", 2), ("Lambda_op", -2), ("dLambda_op", -1)])
def test_corrupted_operator_block_fails_the_star_check_as_the_triple_product(seed, name, shift):
    """One product per term names the same first failing monomial as star X star."""
    rng = random.Random(seed)
    s = random_symplectic_structure(6, rng)
    star = s.star_op.block
    good = getattr(s, name)
    for k, block in good.blocks.items():
        if not block.nrows:
            continue
        rows = [list(row) for row in block.rows]
        rows[rng.randrange(block.nrows)][rng.randrange(block.ncols)] += rng.choice((-1, 1, 2))
        corrupted = {**good.blocks, k: QMatrix(rows, block.ncols)}
        setattr(s, name, GradedOperator(s.dim, shift, corrupted))
        s.__dict__.pop("star_op", None)
        expected = _triple_product_failure(s, star)
        assert expected is not None
        with pytest.raises(InternalInconsistencyError) as caught:
            s.star_op
        assert str(caught.value) == expected, (name, k)


def test_projection_route_disagreement_fails_lefschetz_reassembly(monkeypatch):
    s = structure_from_model(corpus_model("example1"))
    projection = s.lefschetz_decompose_by_projection

    def doubled(form):
        right = projection(form)
        components = {r: b * 2 for r, b in right.components.items()}
        return LefschetzComponents(right.degree, right.half_dim, components)

    monkeypatch.setattr(s, "lefschetz_decompose_by_projection", doubled)
    result = _suite(s)["lefschetz_reassembly"]
    assert result.failed
    assert result.passed + result.failed == 7
    assert all("disagree with the linear-solve decomposition" in ctx for ctx in result.failures)


def test_random_dim10_structure_builds_and_its_star_validates():
    """The dim-10 catalog entry is the nil10 algebra under a random coframe."""
    s = random_symplectic_structure(10, random.Random(0))
    s.star_op  # builds every star block and checks its three identities
    engine = SymplecticCohomology(s)
    assert engine.betti == (1, 7, 22, 42, 57, 62, 57, 42, 22, 7, 1)
    assert engine.hlc().overall is False


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_a_random_structure_never_holds_the_cached_catalog_algebra(dim):
    """The catalog algebra is parsed once; the coframe-changed one is built afresh."""
    rng = random.Random(dim)
    structures = [random_symplectic_structure(dim, rng) for _ in range(3)]
    catalog = [_catalog_algebra(text) for text in BASE_STRUCTURES[dim]]
    assert all(_catalog_algebra(text) is g for text, g in zip(BASE_STRUCTURES[dim], catalog))
    assert not any(s.g is g for s in structures for g in catalog)


@pytest.mark.parametrize("seed", range(4))
def test_verify_output_does_not_depend_on_the_process_caches(seed):
    """The second run reuses the catalog algebras and wedge pairings the first one built."""
    def text():
        summary = run_verify(seed=seed, dims=(6,), count_per_dim=1, include_corpus=False)
        return summary.format_text()

    assert text() == text()
