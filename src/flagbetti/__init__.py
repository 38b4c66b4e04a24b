"""Betti numbers of flag and independence complexes, growth-rate
constants, golden extremal constructions, and an exhaustive small-graph
search harness."""

from .complexes import (
    Complex,
    alexander_dual,
    bip_graph,
    dominance_complex,
    independence_complex,
    join,
    link,
    delete_vertex,
    minimal_nonfaces,
    neighbourhood_complex,
    skeleton_simplex,
    suspension,
)
from .graphs import (
    Graph,
    complete,
    copies,
    crown,
    disjoint_union,
    encode_graph6,
    join_sum,
    parse_graph6,
)
from .homology import GF2, GF3, RATIONALS, BettiVector, FieldSpec, betti, total_betti
from .invariants import (
    b_graph,
    beta_complete_closed,
    betti_graph,
    beta_crown_closed,
    check_bounds,
    check_complex_bounds,
    hochster_beta,
    solve_constants,
)
from .search import (
    conjecture_checks,
    enumerate_graphs,
    flag_vanishing_sweep,
    maximize,
    moon_moser_check,
    stream_graph6,
)

__version__ = "0.1.0"
