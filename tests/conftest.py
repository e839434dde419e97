import itertools

import pytest

from halfcube import ChainComplex, build_matching, enumerate_faces
from reference import vertices_of


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
    t = tables(4)
    edge_set = {frozenset(vertices_of(e)): e for e in t.faces(1)}
    for quad in itertools.permutations(t.faces(0)[:6], 4):
        keys = [frozenset((quad[i], quad[(i + 1) % 4])) for i in range(4)]
        if all(k in edge_set for k in keys):
            return {quad[i]: edge_set[keys[i]] for i in range(4)}
    raise AssertionError("no quadrilateral among the first six vertices")
