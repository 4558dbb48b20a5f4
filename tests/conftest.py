import os
import sys
from itertools import combinations

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from pstlab.generate import gen_connected_graphs
from pstlab.spectral import KINDS, classify_by_minpolys


@pytest.fixture(scope="session")
def corpus6():
    """All connected graphs on 1..6 vertices (143 graphs)."""
    return [g for n in range(1, 7) for g in gen_connected_graphs(n)]


@pytest.fixture(scope="session")
def pair_minpolys(corpus6):
    """classify_by_minpolys(g, kind, u, v), keyed (g, kind, u, v), for every
    pair u < v of every graph of corpus6 and of the connected 7-vertex
    graphs in every kind: made once for the tests that compare against the
    minimal polynomials of e_u -+ e_v or replay with them."""
    return {(g, kind, u, v): classify_by_minpolys(g, kind, u, v)
            for g in corpus6 + list(gen_connected_graphs(7)) for kind in KINDS
            for u, v in combinations(range(g.n), 2)}
