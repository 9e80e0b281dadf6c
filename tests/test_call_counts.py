"""Spies that pin work the engine no longer does.

Class coordinates are rows times the cached S^T = C^T (C C^T)^{-1}, so
`classes_of` transposes nothing; L^0 is the identity, so a lift by r = 0
and the Lefschetz projectors read no zeroth power block; and the weight
operator H is built as diagonal integer blocks, with no `combination`
call.
"""

from math import comb

import pytest

import sympcoh.linalg
import sympcoh.symplectic
from sympcoh import (
    Form, QMatrix, SymplecticCohomology, corpus_model, corpus_names, structure_from_model,
)
from sympcoh.linalg import combination
from sympcoh.symplectic import SymplecticStructure


@pytest.fixture(params=corpus_names())
def engine(request):
    return SymplecticCohomology(structure_from_model(corpus_model(request.param)))


def test_classes_of_transposes_nothing(engine, monkeypatch):
    spaces = [*engine.de_rham, *engine.d_plus_dlambda]
    for space in spaces:  # first use builds S^T, which transposes C once
        space.classes_of(space.numerator.basis)
    transposes = []
    real = QMatrix.transpose
    monkeypatch.setattr(QMatrix, "transpose", lambda m: transposes.append(m.shape) or real(m))
    for space in spaces:
        classes = space.classes_of(space.numerator.basis)
        assert classes.dim == space.dim
    assert transposes == []


def test_lifts_by_r_zero_read_no_power_block(engine, monkeypatch):
    s = engine.s
    for k in range(s.dim + 1):  # the primitive cross-check reads L^(n-k+1)
        s.primitive_subspace(k)
    engine.d_plus_dlambda
    powers = []
    real = SymplecticStructure.L_power_block
    monkeypatch.setattr(
        SymplecticStructure, "L_power_block",
        lambda self, r, k: powers.append((r, k)) or real(self, r, k),
    )
    for sdeg in range(s.dim + 1):
        engine.hrs_group(0, sdeg)
    assert engine._lefschetz_iso(engine.de_rham, 0)
    assert engine._lefschetz_iso(engine.d_plus_dlambda, 0)
    assert powers == []


def test_the_lefschetz_projectors_read_no_zeroth_power(monkeypatch):
    """The ell = 0 projector terms and the r = 0 reassembly term are no identity products."""
    s = structure_from_model(corpus_model("example1"))
    powers = []
    real = SymplecticStructure.L_power_block
    monkeypatch.setattr(
        SymplecticStructure, "L_power_block",
        lambda self, r, k: powers.append(r) or real(self, r, k),
    )
    for k in range(s.dim + 1):
        s.lefschetz_decompose(Form.monomial(s.dim, range(1, k + 1)))
    assert powers and 0 not in powers


def test_lifts_match_the_power_blocks(engine):
    s = engine.s
    for k in range(s.dim + 1):
        rows = engine.de_rham[k].representative_rows
        for r in range((s.dim - k) // 2 + 1):
            assert s.lift(rows, r, k) == rows @ s.L_power_block(r, k).transpose()


def test_building_a_structure_makes_no_combination_for_h(monkeypatch):
    calls = []
    real = sympcoh.linalg.combination

    def spy(terms):
        calls.append([len(term) for term in terms])
        return real(terms)

    monkeypatch.setattr(sympcoh.linalg, "combination", spy)
    monkeypatch.setattr(sympcoh.symplectic, "combination", spy)
    s = structure_from_model(corpus_model("example1"))
    # Every sum built is a block equation with a product in it; H was a lone scaled identity.
    assert calls and all(3 in lengths for lengths in calls)
    for k in range(s.dim + 1):
        assert s.h_block(k) == combination([(s.n - k, QMatrix.identity(comb(s.dim, k)))])
