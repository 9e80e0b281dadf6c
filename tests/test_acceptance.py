"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS line on success; a failure shows up as a
plain pytest failure for that criterion.  Everything asserted here is
computed with exact rational arithmetic, so every comparison is
equality, never a tolerance.
"""

import random
from fractions import Fraction

from sympcoh import (
    Form,
    SymplecticCohomology,
    Subspace,
    corpus_model,
    is_abelian,
    parse_form,
    run_compute,
    subspace_sum,
)
from sympcoh.cli import EXIT_INCONSISTENT, EXIT_OK
from sympcoh.verify import (
    _Recorder,
    equivalence_suite,
    operator_identity_suite,
    random_symplectic_structure,
    theorem_suite,
)


def _report(criterion, label):
    print(f"ACCEPTANCE {criterion} ({label}): PASS")


def _span(engine, degree, texts):
    space = engine.de_rham[degree]
    vectors = [space.class_of(parse_form(text, engine.s.dim)) for text in texts]
    return Subspace.from_vectors(space.dim, vectors)


def test_criterion_1_example1_reproduction(example1):
    coh = example1
    s = coh.s

    assert coh.betti[1] == 3 and coh.betti[2] == 4 and coh.betti[3] == 4
    assert _span(coh, 1, ["1", "2", "3"]) == Subspace.full(3)

    assert coh.hrs_group(1, 0).dim == 1
    assert coh.hrs_group(0, 2).dim == 3

    deg2 = coh.decomposition(2)
    assert deg2.full and deg2.direct

    deg3 = coh.decomposition(3)
    assert not deg3.full and not deg3.direct
    witness = coh.de_rham[3].class_of(parse_form("136", 6))
    assert coh.hrs_group(1, 1).classes.contains(witness)
    assert coh.hrs_group(0, 3).classes.contains(witness)

    # The four harmonic degree-3 representatives and their printed
    # Lefschetz decompositions, coefficients 1/2, 1/4, 3/4, 3/2 exactly.
    printed = [
        (
            "126-145-2*235",
            "-1/2*126-145-1/2*235",
            Form.monomial(6, (2,), Fraction(-3, 2)),
        ),
        (
            "136",
            "1/2*136-1/2*234",
            Form.monomial(6, (3,), Fraction(-1, 2)),
        ),
        (
            "146+1/2*236+1/2*345",
            "1/4*146+1/2*236-1/4*345",
            Form.monomial(6, (4,), Fraction(-3, 4)),
        ),
        (
            "245",
            "1/2*156+1/2*245",
            Form.monomial(6, (5,), Fraction(1, 2)),
        ),
    ]
    reps = list(coh.de_rham[3].representatives)
    assert reps == [parse_form(text, 6) for text, _, _ in printed]
    for text, primitive_text, lifted in printed:
        parts = s.lefschetz_decompose(parse_form(text, 6))
        assert parts.component(0) == parse_form(primitive_text, 6)
        assert parts.component(1) == lifted
        assert parts.reassemble(s) == parse_form(text, 6)

    _report(1, "example1 reproduction")


def test_criterion_2_example2_reproduction(example2):
    coh = example2
    assert coh.betti == (1, 2, 3, 4, 3, 2, 1)

    printed_dims = {
        0: {(0, 0): 1},
        1: {(0, 1): 2},
        2: {(0, 2): 2, (1, 0): 1},
        3: {(0, 3): 2, (1, 1): 2},
        4: {(0, 4): 0, (1, 2): 2, (2, 0): 1},
        5: {(0, 5): 0, (1, 3): 0, (2, 1): 2},
        6: {(0, 6): 0, (1, 4): 0, (2, 2): 0, (3, 0): 1},
    }
    for degree, summands in printed_dims.items():
        verdict = coh.decomposition(degree)
        assert verdict.full and verdict.direct, f"degree {degree}: {verdict}"
        assert dict(verdict.summand_dims) == summands, f"degree {degree}"

    assert coh.hlc().overall is True
    assert coh.dd_lemma() is True
    _report(2, "example2 reproduction")


def test_criterion_3_example3_reproduction(example3):
    coh = example3
    assert coh.betti[1] == 3
    assert coh.betti[2] == 5
    assert coh.hrs_group(1, 0).dim == 1
    assert coh.hrs_group(0, 2).dim == 4
    assert coh.betti[3] == 6

    deg2 = coh.decomposition(2)
    assert deg2.full and deg2.direct

    deg3 = coh.decomposition(3)
    assert deg3.sum_dim < coh.betti[3]
    witness = coh.de_rham[3].class_of(parse_form("136", 6))
    reachable = subspace_sum(
        coh.hrs_group(0, 3).classes, coh.hrs_group(1, 1).classes
    )
    assert not reachable.contains(witness)
    _report(3, "example3 reproduction")


def test_criterion_4_example4_half_flat(example4):
    coh = example4
    s = coh.s
    assert s.n == 3  # omega validated at construction

    re_psi = parse_form("136+125+234-456", 6, degree=3)
    assert s.g.d(re_psi).is_zero()
    assert s.lam(re_psi).is_zero()
    cls = coh.de_rham[3].class_of(re_psi)
    assert coh.hrs_group(0, 3).classes.contains(cls)

    report = run_compute(corpus_model("example4"))
    hlc_block = report.data["hlc"]
    assert [item["k"] for item in hlc_block["per_degree"]] == [0, 1, 2, 3]
    assert all(isinstance(item["isomorphism"], bool) for item in hlc_block["per_degree"])
    checks = {entry["name"]: entry for entry in report.data["extra_form_checks"]}
    assert checks["re_psi"]["d_closed"] is True
    assert checks["re_psi"]["primitive"] is True
    assert checks["re_psi"]["class_in_h0s"] is True
    _report(4, "example4 symplectic half-flat")


def test_criterion_5_theorem_suite_random(corpus_engines):
    rng = random.Random(0)
    check = _Recorder()

    jobs = [(name, engine) for name, engine in corpus_engines.items()]
    counts = {4: 35, 6: 12, 8: 3}
    total_random = 0
    for dim, count in counts.items():
        for i in range(count):
            s = random_symplectic_structure(dim, rng)
            jobs.append((f"random-{dim}d-{i}", SymplecticCohomology(s)))
            total_random += 1
    assert total_random >= 50

    for label, engine in jobs:
        theorem_suite(engine, check, label=label)

    failures = {name: r for name, r in check.results.items() if not r.ok}
    assert not failures, failures
    # The CLI maps a failing suite to exit code 3; covered directly by
    # the injected-failure CLI test, asserted here via the same mapping.
    assert (EXIT_OK if all(r.ok for r in check.results.values()) else EXIT_INCONSISTENT) == EXIT_OK
    _report(5, f"theorem suite on corpus + {total_random} random structures")


def test_criterion_6_operator_identity_suite(corpus_engines):
    rng = random.Random(1)
    check = _Recorder()
    for name, engine in corpus_engines.items():
        operator_identity_suite(engine.s, check, rng, label=name)
    failures = {name: r for name, r in check.results.items() if not r.ok}
    assert not failures, failures
    expected_checks = {
        "sl2_lambda_L",
        "sl2_H_L",
        "sl2_H_Lambda",
        "star_identities",
        "commute_d_L",
        "commute_dl_L_is_d",
        "commute_ddl_L",
        "commute_d_Lambda_is_dl",
        "commute_dl_Lambda",
        "commute_ddl_Lambda",
        "commute_d_H_is_d",
        "commute_dl_H_is_minus_dl",
        "commute_ddl_H",
        "d_squared",
        "d_lambda_squared",
        "anticommute_d_dl",
        "lefschetz_reassembly",
    }
    assert expected_checks <= set(check.results)
    _report(6, "operator identities on all corpus structures")


def test_criterion_7_equivalence_suite(corpus_engines):
    rng = random.Random(2)
    check = _Recorder()
    engines = list(corpus_engines.items())
    for dim, count in ((4, 8), (6, 4), (8, 1)):
        for i in range(count):
            s = random_symplectic_structure(dim, rng)
            engines.append((f"random-{dim}d-{i}", SymplecticCohomology(s)))

    for label, engine in engines:
        equivalence_suite(engine, check, label=label)

    failures = {name: r for name, r in check.results.items() if not r.ok}
    assert not failures, failures
    expected_checks = {
        "equiv_hlc_iff_dd_lemma",
        "equiv_dlambda_dual_de_rham",
        "equiv_ddlambda_dual_d_plus_dlambda",
        "equiv_d_plus_dlambda_lefschetz",
        "primitive_ph_formulas_agree",
    }
    assert expected_checks <= set(check.results)
    _report(7, f"equivalence suite on {len(engines)} structures")


def test_criterion_8_nilpotent_hlc_rigidity(corpus_engines):
    rng = random.Random(3)
    tested = 0
    for name, engine in corpus_engines.items():
        props = engine.properties
        if props.nilpotent:
            assert engine.hlc().overall == is_abelian(engine.s.g), name
            tested += 1
    for dim in (4, 6, 8):
        for i in range(4 if dim < 8 else 2):
            s = random_symplectic_structure(dim, rng, nilpotent_only=True)
            engine = SymplecticCohomology(s)
            assert engine.properties.nilpotent
            assert engine.hlc().overall == is_abelian(s.g), f"random-{dim}d-{i}"
            tested += 1
    assert tested >= 10
    _report(8, f"torus rigidity of HLC across {tested} nilpotent structures")
