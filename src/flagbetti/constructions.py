"""Golden constructions with closed-form expected values.

Each builder returns a GoldenCase pairing a concrete graph or complex
with the exact integer the homology engine must reproduce.  These cases
double as the verification corpus for the extremal constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import (
    Complex,
    bip_graph,
    from_facets,
    join,
    neighbourhood_complex,
    skeleton_simplex,
)
from .graphs import Graph, complete, copies, crown, join_sum
from .homology import GF2, FieldSpec, total_betti
from .invariants import b_graph, beta_crown_closed, hochster_beta

__all__ = [
    "GoldenCase",
    "union_of_cliques",
    "fano_complex",
    "fano_bip",
    "missing_face_complex",
    "neighbourhood_power",
    "crown_union",
    "golden_cases",
    "verify_case",
]

# Steiner triple system of order 7: every pair of the 7 points lies in
# exactly one of these 7 triples (1-based in the classical presentation).
FANO_TRIPLES = [
    (1, 4, 5),
    (1, 3, 6),
    (1, 2, 7),
    (2, 3, 5),
    (2, 4, 6),
    (3, 4, 7),
    (5, 6, 7),
]


@dataclass(frozen=True)
class GoldenCase:
    """A construction plus the exact value its metric must attain."""

    name: str
    params: dict
    kind: str  # "graph_b" | "complex_b" | "neighbourhood_b" | "beta"
    graph: Graph | None
    complex_: Complex | None
    expected: int
    note: str

    def computed(self, field: FieldSpec = GF2) -> int:
        if self.kind == "graph_b":
            return b_graph(self.graph, field)
        if self.kind == "complex_b":
            return total_betti(self.complex_, field)
        if self.kind == "neighbourhood_b":
            return total_betti(neighbourhood_complex(self.graph), field)
        if self.kind == "beta":
            return hochster_beta(self.graph, field).beta_total
        raise ValueError(f"unknown kind {self.kind}")


def union_of_cliques(n: int, s: int) -> GoldenCase:
    """Disjoint union of n/s complete graphs K_s; b = (s-1)^(n/s)."""
    if s < 1 or n % s:
        raise ValueError("need s >= 1 and s | n")
    return GoldenCase(
        name="union_of_cliques",
        params={"n": n, "s": s},
        kind="graph_b",
        graph=copies(n // s, complete(s)),
        complex_=None,
        expected=(s - 1) ** (n // s),
        note="independence complex is a join of point clouds; s=5 attains the extremal base",
    )


def fano_complex() -> GoldenCase:
    """The triangle complex of the order-7 Steiner system; a wedge of 8
    circles, so total Betti number 8 concentrated in degree 1."""
    k = from_facets(7, [[v - 1 for v in t] for t in FANO_TRIPLES])
    return GoldenCase(
        name="fano_complex",
        params={},
        kind="complex_b",
        graph=None,
        complex_=k,
        expected=8,
        note="7 vertices, complete 1-skeleton, 7 triangles; collapses to a wedge of 8 circles",
    )


def fano_bip() -> GoldenCase:
    """Vertex/facet non-incidence graph of the Steiner triangle complex:
    a 14-vertex bipartite graph whose independence complex suspends it."""
    k = fano_complex().complex_
    return GoldenCase(
        name="fano_bip",
        params={},
        kind="graph_b",
        graph=bip_graph(k),
        complex_=None,
        expected=8,
        note="best known bipartite base 8^(1/14) ~ 1.160",
    )


def missing_face_complex(n: int, d: int) -> GoldenCase:
    """Join of n/(2d+1) copies of the (d-2)-skeleton of the 2d-simplex;
    b = C(2d, d-1)^(n/(2d+1)) and all minimal non-faces have d vertices."""
    if d < 2:
        raise ValueError("d >= 2 required")
    if n < 2 * d + 1 or n % (2 * d + 1):
        raise ValueError("need n >= 2d+1 and (2d+1) | n")
    block = skeleton_simplex(2 * d, d - 2)
    k = block
    for _ in range(n // (2 * d + 1) - 1):
        k = join(k, block)
    return GoldenCase(
        name="missing_face_complex",
        params={"n": n, "d": d},
        kind="complex_b",
        graph=None,
        complex_=k,
        expected=comb(2 * d, d - 1) ** (n // (2 * d + 1)),
        note="conjectured extremal family for complexes without missing d-faces",
    )


def neighbourhood_power(n: int) -> GoldenCase:
    """Repeated join-sum of 2K_2; the neighbourhood complex has b = 3^(n/4)."""
    if n < 4 or n % 4:
        raise ValueError("need n >= 4 and 4 | n")
    two_k2 = copies(2, complete(2))
    g = two_k2
    for _ in range(n // 4 - 1):
        g = join_sum(g, two_k2)
    return GoldenCase(
        name="neighbourhood_power",
        params={"n": n},
        kind="neighbourhood_b",
        graph=g,
        complex_=None,
        expected=3 ** (n // 4),
        note="neighbourhood complex of 2K_2 is 4 isolated points; base 3^(1/4) ~ 1.316",
    )


def crown_union(n: int, s: int) -> GoldenCase:
    """Disjoint union of n/(2s) crown graphs; Hochster sum is the closed
    form for one crown raised to the number of copies."""
    if s < 1 or n % (2 * s):
        raise ValueError("need s >= 1 and 2s | n")
    return GoldenCase(
        name="crown_union",
        params={"n": n, "s": s},
        kind="beta",
        graph=copies(n // (2 * s), crown(s)),
        complex_=None,
        expected=beta_crown_closed(s) ** (n // (2 * s)),
        note="triangle-free Hochster-sum family; s=18 attains base ~ 2.070",
    )


def golden_cases() -> list[GoldenCase]:
    """The verification corpus at desk scale."""
    return [
        union_of_cliques(5, 5),
        union_of_cliques(10, 5),
        union_of_cliques(6, 3),
        fano_complex(),
        fano_bip(),
        missing_face_complex(5, 2),
        missing_face_complex(10, 2),
        missing_face_complex(7, 3),
        neighbourhood_power(4),
        neighbourhood_power(8),
        crown_union(4, 2),
        crown_union(6, 3),
    ]


def verify_case(case: GoldenCase, field: FieldSpec = GF2) -> dict:
    computed = case.computed(field)
    return {
        "name": case.name,
        "params": case.params,
        "expected": case.expected,
        "computed": computed,
        "pass": computed == case.expected,
        "field": str(field),
    }

