import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from pstlab.generate import gen_connected_graphs


@pytest.fixture(scope="session")
def corpus6():
    """All connected graphs on 1..6 vertices (143 graphs)."""
    return [g for n in range(1, 7) for g in gen_connected_graphs(n)]
