import pytest

from halfcube import ChainComplex, build_matching, enumerate_faces
from reference import quadrilateral


@pytest.fixture(scope="session")
def tables():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = enumerate_faces(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def complexes(tables):
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = ChainComplex(tables(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def matchings(tables):
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_matching(tables(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def quadrilateral_pairs(tables):
    """A partial matching at n=4 that pairs the vertices of a quadrilateral
    with its edges, forcing a closed alternating path in the layer-0
    digraph."""
    return quadrilateral(tables(4), tables(4).faces(0)[:6])
