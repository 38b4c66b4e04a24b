"""Exhaustive and streamed extremal search over small graphs.

The internal generator extends each (n-1)-vertex class representative
by one vertex in every way, and keeps one canonical form per class.  A
triangle-free child's new vertex has an independent set of the parent as
its neighbourhood, so those come from the parent's independence complex.
Two cheap filters, each exact, skip a neighbourhood before its child is
built:

- Degree: the new vertex has the greatest degree in the child.
- Twins: within each class of twins of the parent (vertices whose
  neighbourhoods agree apart from each other), the new vertex's
  neighbours are the lowest-indexed members.

A child is an adjacency tuple (`_extend`), not a Graph.  One that passes
both filters is labelled only if its new vertex lies in the last cell of
the ordered partition that `canonical_form` refines it to.  One call,
`graphs._min_code(child, keep)` with keep the new vertex, makes both the
test and the label: its refinement (`graphs._refine_cells`) gives up,
and it returns None, as soon as a round's last cell misses keep.  This
is the canonical-deletion test of McKay's canonical augmentation (J.
Algorithms 1998).  The partition does not depend on the labelling and
its last cell is never empty, so every n-vertex graph G has a vertex w
in that cell, G - w is isomorphic to some (n-1)-vertex representative
P, and G appears among P's children with the new vertex playing w.  The
cells start as the degree classes in ascending order, so the degree
filter only skips, before any child is built, children that the
last-cell test would refuse.  The twin filter holds because any
permutation within a twin class is an automorphism of P: it maps a
child to an isomorphic child, fixing the new vertex, and each child can
be mapped so that its neighbours in every class come lowest.

`_extensions` yields the neighbourhoods that pass both filters, so every
n-vertex class is among the children it yields.  Class enumeration keys
the children that `graphs._min_code` labels by the graph6 word of the
codes, and builds a class's representative (through
`graphs._trusted_graph`) from the codes the first time its word is
seen.  It keeps that child's origin, the index of its parent and its
neighbourhood nb, with the class.

The paper's deletion inequality b(G) <= b(G - w) + b(G - N[w]) holds
with equality, degree by degree, when the inclusion of Ind(G - N[w])
into Ind(G - w) is zero in homology.  For a child G = P + w, G - w is
the parent P and G - N[w] is P - nb, so `_child_vector` reads both
vectors from the parent's memoised `invariants._Vectors` and applies
the deletion step at the new vertex (`invariants._step_at`), with the
same two conditions that `betti_graph` uses.  Only a child where both
fail goes to `betti_graph`.  `maximize("b", n=...)` takes every class's
b this way, from its origin, keeping each parent's vectors until its
last child is done; the vanishing sweep does the same for each child it
computes.

The vanishing sweep, for every n <= 9, examines the children without
labels or deduplication, for the parents whose independence number lets
a child reach the threshold, and computes the vector only of those whose
own independence number does; it builds a Graph (through
`graphs._trusted_graph`) only for a violation.  Larger inputs arrive as
graph6 streams from external generators, and their b comes from
`b_graph`.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Iterable, Iterator

from .complexes import all_faces, class_membership, independence_complex, neighbourhood_complex
from .graphs import (
    Graph,
    Graph6Error,
    _from_columns,
    _min_code,
    _pack_graph6,
    _trusted_graph,
    _twin_classes,
    bits,
    canonical_form,
    empty_graph,
    encode_graph6,
    graph_predicates,
    parse_graph6,
)
from .homology import GF2, FieldSpec, total_betti
from .invariants import (
    Enclosure,
    _step_at,
    _Vectors,
    b_graph,
    betti_graph,
    conjecture_power,
    growth_bound,
    hochster_beta,
    theta_small_enclosure,
)

__all__ = [
    "GENERATOR_CAPS",
    "SearchReport",
    "enumerate_graphs",
    "stream_graph6",
    "maximize",
    "flag_vanishing_sweep",
    "conjecture_checks",
    "moon_moser_check",
]

GENERATOR_CAPS = {"all": 8, "triangle_free": 10, "bipartite": 10, "connected": 8}
CHECKPOINT_EVERY = 100_000


# ---------------------------------------------------------------------------
# isomorph-free generation

def _extend(adj: tuple[int, ...], nb: int) -> tuple[int, ...]:
    """adj plus a new last vertex with neighbourhood nb: the new vertex's
    bit is ORed into the adjacency of nb's vertices only."""
    child = list(adj)
    bit = 1 << len(adj)
    for v in bits(nb):
        child[v] |= bit
    child.append(nb)
    return tuple(child)


def _extensions(parent: Graph, trifree: bool) -> Iterator[int]:
    """The neighbourhoods of a new vertex that pass the degree and twin
    filters (see the module docstring); for trifree, only the parent's
    independent sets.  A parent vertex gains a degree iff it is in nb, so
    the degree test needs only at_least[k], the parent's vertices of
    degree >= k, and d = |nb|.  The twin test keeps nb only where it takes
    the lowest-indexed members of each twin class."""
    deg = [a.bit_count() for a in parent.adj]
    at_least = [sum(1 << v for v, k in enumerate(deg) if k >= j) for j in range(parent.n + 2)]
    twins = _twin_classes(parent.adj)
    for nb in all_faces(independence_complex(parent)) if trifree else range(1 << parent.n):
        d = nb.bit_count()
        if at_least[d + 1] & ~nb or at_least[d] & nb:
            continue
        if any(t & ~nb & ((1 << (nb & t).bit_length()) - 1) for t in twins):
            continue
        yield nb


@lru_cache(maxsize=None)
def _classes(n: int, trifree: bool) -> tuple[tuple[Graph, ...], array]:
    """The n-vertex class representatives, sorted by word, and the origin
    of each: parent_index << (n - 1) | nb, for the first child that gave
    its word, the parent _classes(n - 1, trifree)[0][parent_index] with a
    new vertex of neighbourhood nb.  The one 0-vertex class, which has no
    parent, has origin 0."""
    if n == 0:
        return (empty_graph(0),), array("l", [0])
    # word -> representative, built from its codes when the word is first
    # seen, and the origins in the same order: an array beside the dict, as
    # a (graph, origin) tuple per word raised the peak memory of n = 8 by 1 MB
    reps: dict[str, Graph] = {}
    origins = array("l")
    new = 1 << (n - 1)
    for index, parent in enumerate(_classes(n - 1, trifree)[0]):
        for nb in _extensions(parent, trifree):
            codes = _min_code(_extend(parent.adj, nb), new)
            if codes is not None:
                word = _pack_graph6(codes)
                if word not in reps:
                    reps[word] = _trusted_graph(n, _from_columns(codes))
                    origins.append(index << (n - 1) | nb)
    words = list(reps)
    order = sorted(range(len(words)), key=words.__getitem__)
    return tuple(reps[words[i]] for i in order), array("l", (origins[i] for i in order))


class _Classes(list):
    """The representatives that `enumerate_graphs` returns, with the
    origin (see `_classes`) of the i-th in origins[i], from which
    `maximize` reads each class's b.  Any other list of graphs carries no
    origins, and its b comes from `b_graph`."""

    def __init__(self, graphs: Iterable[Graph], origins: array):
        super().__init__(graphs)
        self.origins = origins


def enumerate_graphs(n: int, cls: str = "all") -> list[Graph]:
    """One canonical representative per isomorphism class, deterministic
    order (sorted by canonical graph6)."""
    if cls not in GENERATOR_CAPS:
        raise ValueError(f"unknown class {cls!r}; choose from {sorted(GENERATOR_CAPS)}")
    if n < 0:
        raise ValueError(f"need n >= 0 vertices, got {n}")
    cap = GENERATOR_CAPS[cls]
    if n > cap:
        raise ValueError(
            f"internal generation capped at n={cap} for class {cls!r}; "
            "pipe graph6 lines from an external generator instead"
        )
    # every bipartite graph is triangle-free
    reps, origins = _classes(n, cls in ("triangle_free", "bipartite"))
    if cls in ("all", "triangle_free"):
        return _Classes(reps, origins)
    keep = [i for i, g in enumerate(reps) if graph_predicates(g)[f"is_{cls}"]]
    return _Classes((reps[i] for i in keep), array("l", (origins[i] for i in keep)))


def _child_vector(vector_P, parent: Graph, nb: int, field: FieldSpec) -> tuple:
    """The by_degree vector of parent plus a new vertex with neighbourhood
    nb, by the deletion step at the new vertex (`invariants._step_at`)
    from the parent's vectors, vector_P = `_Vectors(parent, field)`: it
    reads the parent's and that of parent - nb.  Only when both of the
    step's conditions fail is the child handed to `betti_graph`."""
    child = _extend(parent.adj, nb)
    vec = _step_at(child, (1 << len(child)) - 1, parent.n, vector_P)
    if vec is None:
        vec = betti_graph(_trusted_graph(parent.n + 1, child), field).by_degree
    return vec


# ---------------------------------------------------------------------------
# graph6 streaming

def stream_graph6(lines: Iterable[str], strict: bool = True) -> Iterator[Graph | None]:
    """Parse graph6 lines lazily, skipping blank lines.  A bad line raises
    Graph6Error naming its line number; in non-strict mode None is yielded
    in its place, so that the caller can count it."""
    for lineno, raw in enumerate(lines, start=1):
        word = raw.strip()
        if not word:
            continue
        try:
            yield parse_graph6(word)
        except Graph6Error as exc:
            if strict:
                raise Graph6Error(f"line {lineno}: {exc.reason}", exc.offset) from None
            yield None


# ---------------------------------------------------------------------------
# maximization

METRICS = ("b", "beta", "bneigh")


@dataclass
class SearchReport:
    metric: str
    graph_class: str
    n: int
    graphs_examined: int = 0
    skipped: int = 0
    max_value: int = -1
    maximizers: list = dc_field(default_factory=list)
    bound_name: str = ""
    bound: Enclosure | None = None
    all_within_bound: bool = True
    violations: list = dc_field(default_factory=list)
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "class": self.graph_class,
            "n": self.n,
            "graphs_examined": self.graphs_examined,
            "skipped": self.skipped,
            "max_value": self.max_value,
            "maximizers": self.maximizers,
            "bound_name": self.bound_name,
            "bound_lo": float(self.bound.lo) if self.bound else None,
            "bound_hi": float(self.bound.hi) if self.bound else None,
            "all_within_bound": self.all_within_bound,
            "violations": self.violations,
            "wall_time": round(self.wall_time, 3),
        }

    def to_tsv_line(self) -> str:
        return "\t".join(
            str(x)
            for x in (
                self.n,
                self.max_value,
                float(self.bound.lo) if self.bound else "",
                float(self.bound.hi) if self.bound else "",
                self.all_within_bound,
            )
        )


def _metric_fn(metric: str, fieldspec: FieldSpec):
    if metric == "b":
        return lambda g: b_graph(g, fieldspec)
    if metric == "beta":
        return lambda g: hochster_beta(g, fieldspec).beta_total
    if metric == "bneigh":
        return lambda g: total_betti(neighbourhood_complex(g), fieldspec)
    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def maximize(
    metric: str,
    graph_class: str = "all",
    n: int | None = None,
    graphs: Iterable[Graph] | None = None,
    fieldspec: FieldSpec = GF2,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> SearchReport:
    """Evaluate metric on every graph of graph_class, given as n for the
    internal generator or as graphs (exactly one; a supplied graph outside
    the class is refused), and report the exact maximum, all maximizers
    (canonical graph6), and the applicable theorem bound.  A None among the
    graphs stands for an input line that could not be read, and is counted
    in `skipped`.  With checkpoint_path, save the report as it goes, with a
    sha256 digest of the graphs examined; with resume too, restore the
    report saved there and skip the input graphs it has examined, counting
    the unread lines among them again.  An input that ends before them, whose
    skipped graphs do not give the saved digest, or that has more unread
    lines among them than the report saved, is refused.  For b over the
    internal generator, each class's value comes from its parent's
    vectors (`_parent_b`); for given graphs, from `b_graph`."""
    if graph_class not in GENERATOR_CAPS:
        raise ValueError(f"unknown class {graph_class!r}; choose from {sorted(GENERATOR_CAPS)}")
    if resume and not checkpoint_path:
        raise ValueError("cannot resume without a checkpoint path")
    start = time.monotonic()
    if (n is None) == (graphs is None):
        raise ValueError("give exactly one of n (internal generator) or a graph iterable")
    check_class = graphs is not None and graph_class != "all"
    if graphs is None:
        graphs = enumerate_graphs(n, graph_class)
    fn = _metric_fn(metric, fieldspec)
    trifree = graph_class in ("triangle_free", "bipartite")
    from_parents = None
    if metric == "b" and n and isinstance(graphs, _Classes):
        from_parents = _parent_b(n, trifree, graphs.origins, fieldspec)
    report = SearchReport(metric=metric, graph_class=graph_class, n=n or 0)
    field = str(fieldspec)
    seen_sizes: set[int] = set()
    digest = None
    if checkpoint_path:
        import hashlib  # here, not at the top: loading it adds about 5 ms to every start

        digest = hashlib.sha256()
    graphs = iter(graphs)
    if resume:
        seen_sizes, saved, saved_skipped = _resume(checkpoint_path, report, field, stream=n is None)
        replayed = 0
        for g in graphs if report.graphs_examined else ():
            if g is None:
                report.skipped += 1
                continue
            _absorb(digest, g)
            replayed += 1
            if replayed == report.graphs_examined:
                break
        if replayed < report.graphs_examined:
            raise ValueError(
                f"cannot resume from checkpoint {checkpoint_path}: the input ends after "
                f"{replayed} graphs, before the {report.graphs_examined} it had examined"
            )
        # the saved count may also hold unread lines after the last graph
        if digest.hexdigest() != saved or report.skipped > saved_skipped:
            raise ValueError(
                f"cannot resume from checkpoint {checkpoint_path}: the first "
                f"{replayed} graphs of the input are not the ones it examined"
            )
    for g in graphs:
        if g is None:
            report.skipped += 1
            continue
        if check_class and not graph_predicates(g)[f"is_{graph_class}"]:
            raise ValueError(f"graph {encode_graph6(g)} is not in class {graph_class!r}")
        # generated graphs hold no None, so graphs_examined is g's index
        value = fn(g) if from_parents is None else from_parents(report.graphs_examined)
        seen_sizes.add(g.n)
        report.graphs_examined += 1
        if digest is not None:
            _absorb(digest, g)
        bound_name, bound = growth_bound(metric, trifree, g.n)
        within = bound.holds_upper_bound(value)
        if value >= report.max_value or not within:
            g6 = canonical_form(g)
            if value > report.max_value:
                report.max_value = value
                report.maximizers = [g6]
            elif value == report.max_value and g6 not in report.maximizers:
                report.maximizers.append(g6)
            if not within:
                report.all_within_bound = False
                report.violations.append({"graph6": g6, "value": value, "bound": bound_name})
        if checkpoint_path and report.graphs_examined % CHECKPOINT_EVERY == 0:
            _write_checkpoint(checkpoint_path, report, field, seen_sizes, digest)
    if n is None and len(seen_sizes) == 1:
        (n,) = seen_sizes
    report.maximizers.sort()
    if n is not None:  # the size is known, 0 included
        report.n = n
        report.bound_name, report.bound = growth_bound(metric, trifree, n)
    report.wall_time = time.monotonic() - start
    if checkpoint_path:
        _write_checkpoint(checkpoint_path, report, field, seen_sizes, digest)
    return report


def _parent_b(n: int, trifree: bool, origins: array, field: FieldSpec):
    """b of the n-vertex class whose origin is origins[i], as a function of
    i, by `_child_vector` from its parent's vectors.  Each parent's
    `_Vectors` is built for its first child asked for, kept for the
    others, and dropped after the last, so that its memo is freed."""
    parents = _classes(n - 1, trifree)[0]
    low = (1 << (n - 1)) - 1
    left = Counter(origin >> (n - 1) for origin in origins)  # children not yet asked for
    vectors: dict[int, object] = {}

    def b(i: int) -> int:
        index = origins[i] >> (n - 1)
        vector_P = vectors.get(index)
        if vector_P is None:
            vector_P = vectors[index] = _Vectors(parents[index], field)
        left[index] -= 1
        if not left[index]:
            del vectors[index]
        return sum(x for _, x in _child_vector(vector_P, parents[index], origins[i] & low, field))

    return b


def _absorb(digest, g: Graph) -> None:
    """Feed one examined graph, its n and adjacency, to the running digest."""
    digest.update(repr((g.n, g.adj)).encode())


def _write_checkpoint(path: str, report: SearchReport, field: str, sizes: set[int], digest) -> None:
    """Save the report so far, with its field, the vertex counts seen and
    the digest of the graphs examined.  The file is written beside path
    and renamed over it, so it is never half written."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump({**report.to_json_dict(), "field": field, "sizes": sorted(sizes),
                   "digest": digest.hexdigest()}, fh)
        fh.write("\n")
    os.replace(tmp, path)


# the fields a resume restores from a checkpoint, each with the test of its type
_CHECKPOINT_FIELDS = {
    "graphs_examined": lambda v: type(v) is int and v >= 0,
    "skipped": lambda v: type(v) is int and v >= 0,
    "max_value": lambda v: type(v) is int,
    "maximizers": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "violations": lambda v: isinstance(v, list),
    "all_within_bound": lambda v: isinstance(v, bool),
    "sizes": lambda v: isinstance(v, list) and all(type(x) is int for x in v),
    "digest": lambda v: isinstance(v, str),
}


def _resume(path: str, report: SearchReport, field: str, stream: bool) -> tuple[set[int], str, int]:
    """Load the report saved at path into the fresh report, if it is the
    same search, and return the vertex counts it had seen, the digest of
    the graphs it had examined and its count of unread lines.  A stream
    learns its n only at its end, so a stream's n is not compared."""
    try:
        with open(path, encoding="ascii") as fh:
            state = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot resume from checkpoint: {exc}") from None
    if not isinstance(state, dict):
        raise ValueError(f"cannot resume from checkpoint {path}: it is not a JSON object")
    keys = ("metric", "class", "field") if stream else ("metric", "class", "field", "n")
    mine = {**report.to_json_dict(), "field": field}
    wanted = {key: mine[key] for key in keys}
    saved = {key: state.get(key) for key in keys}
    if saved != wanted:
        raise ValueError(f"cannot resume {wanted} from checkpoint {path} of {saved}")
    missing = [key for key in _CHECKPOINT_FIELDS if key not in state]
    if missing:
        raise ValueError(f"cannot resume from checkpoint {path}: it lacks {missing}")
    malformed = [key for key, valid in _CHECKPOINT_FIELDS.items() if not valid(state[key])]
    if malformed:
        raise ValueError(f"cannot resume from checkpoint {path}: malformed {malformed}")
    for key in _CHECKPOINT_FIELDS.keys() - {"sizes", "digest", "skipped"}:
        setattr(report, key, state[key])
    return set(state["sizes"]), state["digest"], state["skipped"]


# ---------------------------------------------------------------------------
# conjecture probes

def conjecture_checks(
    n: int,
    fieldspec: FieldSpec = GF2,
    complexes: Iterable | None = None,
) -> dict:
    """Probe the two open questions at desk scale.

    Triangle-free part: among n-vertex triangle-free maximizers of b,
    report the bipartiteness flag of each, and whether all and whether
    some of them are bipartite (no pass/fail is asserted): at n = 10 the
    Petersen graph ties a bipartite maximizer.
    Complex part: for each supplied complex, compare b against the
    conjectured missing-face bound with d = largest minimal non-face.
    Bound violations of the proven theorems are collected separately.
    """
    report = maximize("b", "triangle_free", n=n, fieldspec=fieldspec)
    maximizer_flags = []
    for g6 in report.maximizers:
        g = parse_graph6(g6)
        preds = graph_predicates(g)
        maximizer_flags.append(
            {
                "graph6": g6,
                "is_bipartite": preds["is_bipartite"],
                "is_connected": preds["is_connected"],
            }
        )
    complex_results = []
    counterexamples = []
    if complexes is not None:
        for k in complexes:
            cls = class_membership(k)
            d = cls["min_nonface_max_size"]
            b = total_betti(k, fieldspec)
            entry = {"n": k.n, "d": d, "b": b}
            if d >= 2:
                enc = conjecture_power(d, k.n)
                entry["conjectured_bound_lo"] = float(enc.lo)
                entry["conjectured_bound_hi"] = float(enc.hi)
                entry["within_conjectured_bound"] = enc.holds_upper_bound(b)
                proven = theta_small_enclosure(d) ** k.n
                entry["within_proven_bound"] = proven.holds_upper_bound(b)
                if not entry["within_proven_bound"]:
                    counterexamples.append(entry)
            complex_results.append(entry)
    return {
        "n": n,
        "triangle_free_max_b": report.max_value,
        "graphs_examined": report.graphs_examined,
        "maximizers": maximizer_flags,
        "all_maximizers_bipartite": all(m["is_bipartite"] for m in maximizer_flags),
        "some_maximizer_bipartite": any(m["is_bipartite"] for m in maximizer_flags),
        "theorem_bound_violations": report.violations,
        "complex_checks": complex_results,
        "proven_bound_counterexamples": counterexamples,
        "bounds_violated": bool(report.violations or counterexamples),
    }


def _alpha(adj: tuple[int, ...]):
    """The independence number of the graph adj induced on a vertex
    bitmask s, as a function of s, memoised by mask for this one graph.
    With v the lowest vertex of s, alpha(s) = max(alpha(s - v),
    1 + alpha(s - N[v])).  When v has at most one neighbour in s, some
    maximum independent set holds v, so s - v is not asked."""
    memo = {0: 0}

    def alpha(s: int) -> int:
        a = memo.get(s)
        if a is None:
            low = s & -s
            nv = adj[low.bit_length() - 1] & s
            a = 1 + alpha(s & ~(nv | low))
            if nv & (nv - 1):
                keep = alpha(s ^ low)
                a = keep if keep > a else a
            memo[s] = a
        return a

    return alpha


def flag_vanishing_sweep(n: int, fieldspec: FieldSpec = GF2) -> dict:
    """Check that Ind(G) has no homology above n/2 - 1 for every n-vertex
    graph, n <= 9.

    The candidates are the children that `_extensions` yields from the
    (n-1)-vertex representatives; they reach every n-vertex class, and
    repeats are harmless for a universally quantified check.  Homology in
    degree i needs an independent set of i+1 vertices, so only children
    whose independence number clears the threshold are computed, each by
    `_child_vector` from its parent's `_Vectors`, which is built for the
    parent's first computed child.  A child whose new vertex has neighbourhood nb has
    alpha = max(alpha(P), 1 + alpha(P - nb)), at most the parent's plus
    one, so a parent P whose alpha is below the threshold minus one is
    skipped; one `_alpha` per parent answers for P and its children.
    `graphs_examined` counts the children of the parents kept (for n = 0,
    the one 0-vertex graph, whose alpha 0 is below it).
    """
    if n < 0:
        raise ValueError(f"need n >= 0 vertices, got {n}")
    cap = GENERATOR_CAPS["all"] + 1
    if n > cap:
        raise ValueError(f"vanishing sweep supported only for n <= {cap}")
    min_degree = n // 2  # least integer degree above n/2 - 1
    min_alpha = min_degree + 1
    examined = int(n == 0)
    computed = 0
    violations = []
    for parent in _classes(n - 1, False)[0] if n else ():
        full = parent.vertex_mask
        alpha = _alpha(parent.adj)
        top = alpha(full)
        if top + 1 < min_alpha:
            continue
        vector_P = None  # the parent's vectors, once one of its children is computed
        for nb in _extensions(parent, False):
            examined += 1
            if max(top, 1 + alpha(full & ~nb)) < min_alpha:
                continue
            computed += 1
            if vector_P is None:
                vector_P = _Vectors(parent, fieldspec)
            vec = _child_vector(vector_P, parent, nb, fieldspec)
            bad = [(d, b) for d, b in vec if d >= min_degree and b > 0]
            if bad:
                g6 = encode_graph6(_trusted_graph(n, _extend(parent.adj, nb)))
                violations.append({"graph6": g6, "degrees": bad})
    return {
        "n": n,
        "threshold": n / 2 - 1,
        "graphs_examined": examined,
        "homology_computed": computed,
        "violations": violations,
        "pass": not violations,
    }


def moon_moser_check(n: int) -> dict:
    """Facet counts of independence complexes against the 3^(n/3) cap.
    The comparison is done over the integers as m^3 <= 3^n."""
    worst = 0
    worst_g6 = None
    count = 0
    for g in enumerate_graphs(n, "all"):
        m = len(independence_complex(g).facets)
        count += 1
        if m > worst:
            worst = m
            worst_g6 = encode_graph6(g)
    return {
        "n": n,
        "graphs_examined": count,
        "max_facets": worst,
        "max_facets_graph6": worst_g6,
        "within_bound": worst**3 <= 3**n,
    }
