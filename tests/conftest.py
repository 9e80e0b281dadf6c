from fractions import Fraction

import pytest

from sympcoh import SymplecticCohomology, corpus, structure_from_model


@pytest.fixture(scope="session")
def corpus_engines():
    """One cohomology engine per built-in model, shared across tests."""
    return {
        model.name: SymplecticCohomology(structure_from_model(model))
        for model in corpus()
    }


@pytest.fixture(scope="session")
def example1(corpus_engines):
    return corpus_engines["example1"]


@pytest.fixture(scope="session")
def example2(corpus_engines):
    return corpus_engines["example2"]


@pytest.fixture(scope="session")
def example3(corpus_engines):
    return corpus_engines["example3"]


@pytest.fixture(scope="session")
def example4(corpus_engines):
    return corpus_engines["example4"]


@pytest.fixture(scope="session")
def torus6(corpus_engines):
    return corpus_engines["torus6"]


class Half(Fraction):
    """A Fraction subclass: equal values, but not the canonical type."""


@pytest.fixture(
    params=[
        (3, Fraction(3)),
        (True, Fraction(1)),
        ("1/2", Fraction(1, 2)),
        (Half(1, 2), Fraction(1, 2)),
    ],
    ids=["int", "bool", "str", "subclass"],
)
def loose_entry(request):
    """(value, exact): one value per kind the canonical-entry rule converts."""
    return request.param
