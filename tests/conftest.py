import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flagbetti.complexes import Complex, from_facets
from flagbetti.graphs import Graph, canonical_form, from_edges
from flagbetti.invariants import b_graph
from flagbetti.search import _child_vector, _extend


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


def planted_child_vector(word: str):
    """search._child_vector, through which a search over generated classes
    reads each class's vector, except that the child of canonical graph6
    word `word` reads b = 100: the same planted violation there."""

    def planted(vector_p, parent, nb, field):
        if canonical_form(Graph(parent.n + 1, _extend(parent.adj, nb))) == word:
            return ((0, 100),)
        return _child_vector(vector_p, parent, nb, field)

    return planted


@pytest.fixture
def rng():
    return random.Random(20240817)
