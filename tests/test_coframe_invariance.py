"""Basis-independent answers survive a change of coframe.

A coframe change f = M e presents the same Lie algebra and the same
symplectic form in another basis, so every dimension and verdict the
engine reports must come out the same on both sides.  The inputs are
seeded: omega from `verify._random_closed_nondegenerate` on each dim-4
and dim-6 catalog algebra, and M from `verify._random_change`; the
rewritten pair comes from `verify.transform_coframe`.  `run_verify`
does not run this comparison.
"""

import random

import pytest

from sympcoh import (
    QMatrix,
    SymplecticCohomology,
    build_lie_algebra,
    parse_structure_equations,
    validate_symplectic,
)
from sympcoh.verify import (
    BASE_STRUCTURES,
    _random_change,
    _random_closed_nondegenerate,
    transform_coframe,
)

CATALOG = [(dim, text) for dim in (4, 6) for text in BASE_STRUCTURES[dim]]


def invariants(coh: SymplecticCohomology) -> dict[str, object]:
    """Every basis-independent answer of the engine, by name."""
    n, dim = coh.s.n, coh.s.dim
    return {
        "betti": coh.betti,
        "dlambda_dims": coh.dlambda_dims,
        "d_plus_dlambda": tuple(space.dim for space in coh.d_plus_dlambda),
        "ddlambda_dims": coh.ddlambda_dims,
        "primitive_ph_plus": tuple(coh.primitive_ph_plus(k).dim for k in range(n + 1)),
        "primitive_ph_d": tuple(coh.primitive_ph_d(k) for k in range(n + 1)),
        "hrs": {
            (r, s): coh.hrs_group(r, s).dim
            for r in range(n + 1)
            for s in range(dim + 1 - 2 * r)
        },
        "decomposition": tuple(coh.decomposition(k) for k in range(dim + 1)),
        "hlc": coh.hlc().per_degree,
        "dd_lemma": coh.dd_lemma_per_degree(),
    }


@pytest.mark.parametrize("dim, text", CATALOG)
def test_coframe_change_keeps_every_basis_independent_answer(dim, text):
    g = build_lie_algebra(parse_structure_equations(text))
    rng = random.Random(text)
    omega = _random_closed_nondegenerate(g, rng)
    assert omega is not None, text
    change = _random_change(dim, rng)
    while change == QMatrix.identity(dim):  # a draw can undo itself; that compares nothing
        change = _random_change(dim, rng)
    structure, new_omega = transform_coframe(g.structure, omega, change)
    before = invariants(SymplecticCohomology(validate_symplectic(g, omega)))
    after = invariants(
        SymplecticCohomology(validate_symplectic(build_lie_algebra(structure), new_omega))
    )
    for name, value in before.items():
        assert after[name] == value, f"{text}: {name}"
