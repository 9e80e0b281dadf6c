"""The per-instance memo rule of the structure and the cohomology engine."""

import pytest

from sympcoh import (
    InternalInconsistencyError,
    SymplecticCohomology,
    corpus_model,
    structure_from_model,
)
from sympcoh.symplectic import _memo

# (method, arguments): every memoized method and one call of it.
STRUCTURE_CALLS = [("L_power_block", (2, 1)), ("primitive_subspace", (2,))]
ENGINE_CALLS = [
    ("_dlambda_image", (3,)),
    ("_closed_primitive", (2,)),
    ("primitive_ph_plus", (2,)),
    ("hrs_group", (1, 1)),
    ("decomposition", (3,)),
    ("hlc", ()),
    ("dd_lemma_per_degree", ()),
]


@pytest.fixture(scope="module")
def structure():
    return structure_from_model(corpus_model("example1"))


@pytest.mark.parametrize("name, args", STRUCTURE_CALLS)
def test_structure_repeated_call_returns_the_same_object(structure, name, args):
    method = getattr(structure, name)
    assert method(*args) is method(*args)


@pytest.mark.parametrize("name, args", ENGINE_CALLS)
def test_engine_repeated_call_returns_the_same_object(structure, name, args):
    engine = SymplecticCohomology(structure)
    method = getattr(engine, name)
    assert method(*args) is method(*args)


@pytest.mark.parametrize("name, args", ENGINE_CALLS)
def test_two_engines_on_one_structure_share_no_entries(structure, name, args):
    first, second = SymplecticCohomology(structure), SymplecticCohomology(structure)
    assert getattr(first, name)(*args) is not getattr(second, name)(*args)


def test_engine_init_stores_only_the_structure(structure):
    assert vars(SymplecticCohomology(structure)) == {"s": structure}


def test_memo_keys_on_positional_arguments():
    class Counter:
        def __init__(self):
            self.calls = []

        @_memo
        def square(self, x):
            self.calls.append(x)
            return [x * x]

    counter = Counter()
    assert counter.square(3) is counter.square(3)
    assert counter.square(4) == [16]
    assert counter.calls == [3, 4]
    other = Counter()
    assert other.square(3) is not counter.square(3)
    assert other.calls == [3]


def test_a_call_that_raises_stores_nothing(structure, monkeypatch):
    engine = SymplecticCohomology(structure)
    calls = []

    def disagreeing(sdeg):
        calls.append(sdeg)
        raise InternalInconsistencyError("the two primitive formulas disagree")

    monkeypatch.setattr(engine, "_closed_primitive", disagreeing)
    for _ in range(2):
        with pytest.raises(InternalInconsistencyError, match="disagree"):
            engine.primitive_ph_plus(1)
    assert calls == [1, 1]
    monkeypatch.undo()
    assert engine.primitive_ph_plus(1) is engine.primitive_ph_plus(1)
