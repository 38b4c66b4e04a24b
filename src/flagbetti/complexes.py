"""Simplicial complexes in facet (maximal face) representation.

Faces are bitmasks over an ambient vertex set 0..n-1.  The void complex
(no faces at all) is distinguished from the empty complex {emptyset}:
void has an empty facet list, the empty complex has the single facet 0.
The empty complex carries reduced homology in degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, bits

__all__ = [
    "Complex",
    "FaceCapExceeded",
    "VOID",
    "EMPTY",
    "from_facets",
    "simplex",
    "sphere0",
    "skeleton_simplex",
    "independence_complex",
    "neighbourhood_complex",
    "dominance_complex",
    "minimal_nonfaces",
    "alexander_dual",
    "bip_graph",
    "join",
    "suspension",
    "link",
    "delete_vertex",
    "all_faces",
    "class_membership",
    "read_facet_file",
    "write_facet_file",
]

DEFAULT_FACE_CAP = 1 << 22
DOMINANCE_CAP = 24


class FaceCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"face enumeration exceeded cap of {cap} faces")
        self.cap = cap


@dataclass(frozen=True)
class Complex:
    """Simplicial complex given by its facet antichain over n vertices."""

    n: int
    facets: tuple[int, ...]

    def __post_init__(self):
        # One pass: strictly increasing facets have no duplicates, the
        # first and last bound the rest (facets out of order are refused
        # below anyway), and a proper subset is a smaller int, so only a
        # facet before g can lie in g.
        facets = self.facets
        if self.n < 0:
            raise ValueError(f"need n >= 0 vertices, got {self.n}")
        if facets and (facets[0] < 0 or facets[-1] >> self.n):
            raise ValueError("facet vertex out of range")
        earlier: list[int] = []
        for g in facets:
            if earlier and earlier[-1] >= g:
                raise ValueError("facets must be strictly increasing")
            for f in earlier:
                if f & g == f:
                    raise ValueError("facets must form an antichain")
            earlier.append(g)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty_complex(self) -> bool:
        return self.facets == (0,)

    def dim(self) -> int:
        """Dimension; -1 for the empty complex. Undefined (error) for void."""
        if self.is_void:
            raise ValueError("void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def has_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)

    def __repr__(self):
        if self.is_void:
            return f"Complex(n={self.n}, void)"
        return f"Complex(n={self.n}, facets={[sorted(bits(f)) for f in self.facets]})"


VOID = Complex(0, ())
EMPTY = Complex(0, (0,))


def from_facets(n: int, face_sets) -> Complex:
    """Complex generated by the given vertex sets (iterables or bitmasks):
    its facets are their inclusion-maximal members, sorted."""
    masks = {f if isinstance(f, int) else sum(1 << v for v in set(f)) for f in face_sets}
    facets: list[int] = []
    for m in sorted(masks, key=lambda m: (m.bit_count(), m), reverse=True):
        if not any(m & f == m for f in facets):
            facets.append(m)
    return Complex(n, tuple(sorted(facets)))


def simplex(n: int) -> Complex:
    return Complex(n, ((1 << n) - 1,))


def sphere0() -> Complex:
    return Complex(2, (1, 2))


def skeleton_simplex(k: int, s: int) -> Complex:
    """s-dimensional skeleton of the k-dimensional simplex (k+1 vertices)."""
    if k < 0 or s < -1 or s > k:
        raise ValueError("need -1 <= s <= k and k >= 0")
    if s == -1:
        return Complex(k + 1, (0,))
    facets = [sum(1 << v for v in c) for c in combinations(range(k + 1), s + 1)]
    return Complex(k + 1, tuple(sorted(facets)))


# ---------------------------------------------------------------------------
# complexes from graphs

def independence_complex(g: Graph) -> Complex:
    """Faces are the independent sets of g; facets computed by pivoting
    Bron-Kerbosch on the complement's cliques."""
    if g.n == 0:
        return Complex(0, (0,))
    non = [g.vertex_mask ^ nb ^ (1 << v) for v, nb in enumerate(g.adj)]  # the complement's rows
    facets: list[int] = []

    def expand(r: int, p: int, x: int):
        if not p and not x:
            facets.append(r)
            return
        pivot_pool = p | x
        pivot = max(bits(pivot_pool), key=lambda u: (p & non[u]).bit_count())
        for v in bits(p & ~non[pivot]):
            expand(r | 1 << v, p & non[v], x & non[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, g.vertex_mask, 0)
    return Complex(g.n, tuple(sorted(facets)))


def neighbourhood_complex(g: Graph) -> Complex:
    """Complex on the non-isolated vertices generated by the open
    neighbourhoods N(v).  Edgeless graphs yield the void complex."""
    nonisolated = [v for v in range(g.n) if g.adj[v]]
    if not nonisolated:
        return VOID
    pos = {v: i for i, v in enumerate(nonisolated)}
    gen = [sum(1 << pos[u] for u in bits(g.adj[v])) for v in nonisolated]
    return from_facets(len(nonisolated), gen)


def dominance_complex(g: Graph) -> Complex:
    """Faces are complements of dominating sets of g.  A set dominates iff
    it meets every closed neighbourhood N[v], i.e. lies in no complement
    of one, so this is the Alexander dual of the complex generated by those
    complements: its facets are the complements of the minimal dominating
    sets."""
    if g.n > DOMINANCE_CAP:
        raise ValueError(f"dominance complex refused for n={g.n} > cap={DOMINANCE_CAP}")
    if g.n == 0:
        return Complex(0, (0,))
    full = g.vertex_mask
    return alexander_dual(from_facets(g.n, [full ^ (a | 1 << v) for v, a in enumerate(g.adj)]))


# ---------------------------------------------------------------------------
# non-faces and Alexander duality

def minimal_nonfaces(k: Complex) -> tuple[int, ...]:
    """Inclusion-minimal vertex sets of the ambient set contained in no
    facet, i.e. minimal transversals of the facet complements (the holes).
    Each branch takes a vertex of the first hole it has not yet hit, and
    later siblings exclude it, so no set is reached twice; the branches
    wait on an explicit stack, so no depth meets the recursion limit.  A
    transversal is minimal iff each of its vertices is the only chosen
    one in some hole, and only those are kept."""
    if k.is_void:
        raise ValueError("void complex has no non-faces")
    full = (1 << k.n) - 1
    holes = sorted({full ^ f for f in k.facets}, key=int.bit_count)
    if not holes or holes[0] == 0:
        # some facet is the full vertex set: no non-faces
        return ()
    found: list[int] = []
    stack = [(0, full, holes)]  # (chosen, allowed, remaining) per branch
    while stack:
        chosen, allowed, remaining = stack.pop()
        rem = [h for h in remaining if not h & chosen]
        if not rem:
            private = 0
            for h in holes:
                hit = h & chosen
                if not hit & (hit - 1):
                    private |= hit
            if private == chosen:
                found.append(chosen)
            continue
        for v in bits(rem[0] & allowed):
            stack.append((chosen | 1 << v, allowed, rem))
            allowed &= ~(1 << v)
    return tuple(sorted(found))


def alexander_dual(k: Complex) -> Complex:
    """Dual on the same ambient vertices: faces are complements of
    non-faces.  Facets of the dual are complements of minimal non-faces."""
    if k.is_void:
        raise ValueError("void complex has no Alexander dual")
    full = (1 << k.n) - 1
    nonfaces = minimal_nonfaces(k)
    if not nonfaces:
        return Complex(k.n, ())
    return Complex(k.n, tuple(sorted(full ^ t for t in nonfaces)))


def bip_graph(k: Complex) -> Graph:
    """Bipartite graph on vertices + facets with edges for non-incidence."""
    if k.is_void or k.n == 0:
        raise ValueError("bip graph needs a complex with at least one vertex")
    m = len(k.facets)
    adj = [0] * (k.n + m)
    for j, f in enumerate(k.facets):
        for v in range(k.n):
            if not f >> v & 1:
                adj[v] |= 1 << (k.n + j)
                adj[k.n + j] |= 1 << v
    return Graph(k.n + m, tuple(adj))


# ---------------------------------------------------------------------------
# joins, links, deletions

def join(k: Complex, l: Complex) -> Complex:
    """Join; faces are unions of a face of each, l relabelled above k."""
    if k.is_void or l.is_void:
        raise ValueError("join of a void complex is undefined here")
    facets = [f | (g << k.n) for f in k.facets for g in l.facets]
    return Complex(k.n + l.n, tuple(sorted(facets)))


def suspension(k: Complex) -> Complex:
    if k.is_void:
        raise ValueError("suspension of the void complex is undefined")
    return join(Complex(2, (1, 2)), k)


def link(k: Complex, v: int) -> Complex:
    """Link of v, on the ambient vertex set minus v (order-preserving)."""
    if k.is_void or not 0 <= v < k.n:
        raise ValueError("invalid vertex for link")
    if not any(f >> v & 1 for f in k.facets):
        raise ValueError(f"{v} is not a vertex of any face")
    return from_facets(k.n - 1, [_drop_vertex(f, v) for f in k.facets if f >> v & 1])


def delete_vertex(k: Complex, v: int) -> Complex:
    """Subcomplex of faces avoiding v, on the ambient set minus v."""
    if k.is_void or not 0 <= v < k.n:
        raise ValueError("invalid vertex for deletion")
    return from_facets(k.n - 1, [_drop_vertex(f & ~(1 << v), v) for f in k.facets])


def _drop_vertex(mask: int, v: int) -> int:
    low = mask & ((1 << v) - 1)
    return low | (mask >> (v + 1)) << v


# ---------------------------------------------------------------------------
# face enumeration and classification

def all_faces(k: Complex) -> list[int]:
    """Every face (including the empty face 0), sorted by (size, mask),
    collected into one set facet by facet.

    A facet of 6 or more vertices is split into low, its size // 2
    lowest vertices, and rest.  Each subset high of rest adds the block of
    high joined with every subset of low, unless high | low is already
    listed: the blocks of one facet are disjoint, so an earlier facet
    holds that face, and all of its subsets are listed already.  A smaller
    facet adds its subsets one by one, which is faster when its blocks are
    this small.  Both walk by sub = (sub - 1) & mask.

    More than DEFAULT_FACE_CAP faces raise FaceCapExceeded, exactly.  A
    facet of s vertices raises before its walk if its 2^s subsets alone
    exceed the cap, and the count is checked after each facet, so at most
    DEFAULT_FACE_CAP + 2^s faces are held before the raise."""
    if k.is_void:
        raise ValueError("void complex has no faces")
    faces = {0}
    for facet in k.facets:
        size = facet.bit_count()
        if 1 << size > DEFAULT_FACE_CAP:
            raise FaceCapExceeded(DEFAULT_FACE_CAP)
        if size < 6:
            sub = facet
            while sub:
                faces.add(sub)
                sub = (sub - 1) & facet
        else:
            rest = facet
            for _ in range(size // 2):
                rest &= rest - 1  # drop the lowest vertex
            low = sub = facet ^ rest
            lows = [0]
            while sub:
                lows.append(sub)
                sub = (sub - 1) & low
            high = rest
            while True:
                if high | low not in faces:
                    faces.update(map(high.__or__, lows))
                if not high:
                    break
                high = (high - 1) & rest
        if len(faces) > DEFAULT_FACE_CAP:
            raise FaceCapExceeded(DEFAULT_FACE_CAP)
    return sorted(sorted(faces), key=int.bit_count)


def class_membership(k: Complex) -> dict:
    """Flagness plus the missing-face parameter d_F and the facet-size
    deficiency d_M used by the complex-level bounds."""
    if k.is_void:
        raise ValueError("void complex has no class data")
    return _membership(k, minimal_nonfaces(k))


def _membership(k: Complex, nonfaces: tuple[int, ...]) -> dict:
    """`class_membership` of a non-void k whose minimal non-faces are given."""
    d_f = max((t.bit_count() for t in nonfaces), default=0)
    d_m = k.n - min(f.bit_count() for f in k.facets)
    return {
        "is_flag": d_f <= 2,
        "min_nonface_max_size": d_f,
        "max_facet_deficiency": d_m,
    }


# ---------------------------------------------------------------------------
# facet file format:
#   line 1: "n <vertex count>"
#   then one facet per line as space-separated vertex indices,
#   or a single line "empty" / "void"

def write_facet_file(k: Complex) -> str:
    lines = [f"n {k.n}"]
    if k.is_void:
        lines.append("void")
    elif k.is_empty_complex:
        lines.append("empty")
    else:
        for f in k.facets:
            lines.append(" ".join(str(v) for v in bits(f)))
    return "\n".join(lines) + "\n"


def read_facet_file(text: str) -> Complex:
    # the non-blank lines, each with its line number in the file
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("n "):
        raise ValueError("facet file must start with 'n <count>'")
    try:
        n = int(lines[0][1][2:])
    except ValueError:
        raise ValueError("bad vertex count in facet file header") from None
    body = lines[1:]
    rest = [ln for _, ln in body]
    if rest == ["void"]:
        return Complex(n, ())
    if rest == ["empty"]:
        return Complex(n, (0,))
    facets = []
    for i, ln in body:
        mask, in_range = 0, True  # the line's vertex set, built token by token
        for tok in ln.split():
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"bad facet on line {i}") from None
            if 0 <= v < n:
                mask |= 1 << v
            else:
                in_range = False  # reported once every token is known to be an int
        if not in_range:
            raise ValueError(f"vertex out of range on line {i}")
        facets.append(mask)
    if not facets:
        raise ValueError("facet file has no facets; use 'void' or 'empty'")
    return from_facets(n, facets)
