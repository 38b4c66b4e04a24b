import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flagbetti.complexes import Complex, from_facets
from flagbetti.graphs import Graph, canonical_form, from_edges
from flagbetti.invariants import b_graph


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def random_complex(rng: random.Random, n: int, nfacets: int = 4) -> Complex:
    """Random non-void complex on n ambient vertices."""
    facets = []
    for _ in range(nfacets):
        size = rng.randint(0, n)
        facets.append(sum(1 << v for v in rng.sample(range(n), size)))
    return from_facets(n, facets)


def planted_b_graph(word: str):
    """b_graph, except that the graph of canonical graph6 word `word`
    reads 100: a planted bound violation, as no real graph gives one."""
    return lambda g, field: 100 if canonical_form(g) == word else b_graph(g, field)


@pytest.fixture
def rng():
    return random.Random(20240817)
