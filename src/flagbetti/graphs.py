"""Finite simple graphs on vertices 0..n-1 with bitset adjacency.

Vertex sets and neighbourhoods are plain Python ints used as bitmasks,
which keeps subgraph and independence-set operations fast at desk scale.
All operations are pure; Graph values are immutable.  `canonical_form`
names an isomorphism class by the graph6 word (a str) of one relabelling.

Input is validated where it enters: `Graph(...)` checks range, loops and
symmetry, and `from_edges` and the generators and combinators below build
through it; `parse_graph6` checks the word (length, characters and
header) instead.  It, `induced`, `canonical_graph`, the search's class
representatives and the vanishing sweep's children (`search._extend`'s
adjacency) build through `_trusted_graph`, which skips `Graph`'s checks,
because their adjacency is valid by construction: the graph6 decode and
`_from_columns` set adj[i] and adj[j] together, only for i < j < n, and
a vertex extension ORs the new vertex into its neighbours only.  The
children of class enumeration are plain adjacency tuples, labelled
without a Graph by `_min_code(adj, keep)`, which refines them itself
(`_refine_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Graph",
    "Graph6Error",
    "parse_graph6",
    "encode_graph6",
    "empty_graph",
    "complete",
    "cycle",
    "crown",
    "disjoint_union",
    "join_sum",
    "copies",
    "induced",
    "complement",
    "graph_predicates",
    "canonical_form",
    "canonical_graph",
    "bits",
]

CANONICAL_CAP = 10


def _bits_table(width: int) -> tuple[tuple[int, ...], ...]:
    """bits(m) for every m < 2^width, as bits(2^t + m) = bits(m) + (t,)
    for m < 2^t."""
    table: list[tuple[int, ...]] = [()]
    for top in range(width):
        table += [low + (top,) for low in table]
    return tuple(table)


_BITS_TABLE = _bits_table(10)
# the six bits of each graph6 character in reverse order; its own inverse
_REVERSED_SIX = tuple(int(f"{c:06b}"[::-1], 2) for c in range(64))


def bits(mask: int) -> tuple[int, ...] | list[int]:
    """The indices of the set bits of mask, ascending: a tuple from a
    table when mask < 2^10, a list otherwise.  A negative mask has
    infinitely many set bits and raises ValueError."""
    if not mask >> 10:
        return _BITS_TABLE[mask]
    if mask < 0:
        raise ValueError(f"bits of a negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adj[v] is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for v, nb in enumerate(self.adj):
            if nb & ~full:
                raise ValueError(f"neighbour of {v} out of range")
            if nb >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at {u},{v}")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def _trusted_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """Graph from adjacency already known to be valid (n entries, in range,
    loop-free, symmetric), built without `Graph.__post_init__`'s checks."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 encoding (format of McKay's gtools; n <= 62, single length byte)

class Graph6Error(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 word (without trailing newline)."""
    if text.startswith(">>graph6<<"):
        text = text[10:]
    if not text:
        raise Graph6Error("empty graph6 word", 0)
    first = ord(text[0])
    if first == 126:
        raise Graph6Error("graphs with more than 62 vertices are unsupported", 0)
    if not 63 <= first <= 126:
        raise Graph6Error("invalid length character", 0)
    n = first - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(text) != 1 + nbytes:
        if len(text) < 1 + nbytes:
            raise Graph6Error("truncated graph6 word", len(text))
        raise Graph6Error("trailing garbage after graph6 word", 1 + nbytes)
    # the upper triangle x(0,1) x(0,2) x(1,2) ... is read from the top bit
    # of each character down; acc holds it bit-reversed, x(0,1) at bit 0, so
    # column j, x(0,j) ... x(j-1,j), is the next j bits from the bottom
    acc = 0
    for i, ch in enumerate(text[1:], start=1):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error("character out of graph6 range", i)
        acc |= _REVERSED_SIX[code - 63] << 6 * (i - 1)
    # _from_columns' loop, kept inline: building the columns first and then
    # calling it made parse_graph6 3-10 % slower on 16,000 words of 9-10 vertices
    adj = [0] * n
    for j in range(1, n):
        adj[j] = col = acc & ((1 << j) - 1)
        acc >>= j
        for i in bits(col):
            adj[i] |= 1 << j
    return _trusted_graph(n, tuple(adj))


def _from_columns(cols: list[int]) -> tuple[int, ...]:
    """Adjacency of the graph whose column j (neighbours i < j, a bitmask)
    is cols[j], the columns `_pack_graph6` packs and `parse_graph6`
    decodes: adj[j] starts as its column, and each i in it gains j."""
    adj = list(cols)
    for j, col in enumerate(cols):
        for i in bits(col):
            adj[i] |= 1 << j
    return tuple(adj)


def _pack_graph6(cols: list[int]) -> str:
    """graph6 word of the graph whose column j (neighbours i < j, a bitmask) is cols[j]."""
    n = len(cols)
    if n > 62:
        raise Graph6Error(f"graph6 supports at most 62 vertices, got {n}")
    # parse_graph6's layout: column j from bit j (j - 1) / 2 up, x(i,j) at bit i
    acc = 0
    for j in range(n - 1, 0, -1):
        acc = acc << j | cols[j]
    return chr(n + 63) + "".join([chr(_REVERSED_SIX[acc >> s & 63] + 63)
                                  for s in range(0, n * (n - 1) // 2, 6)])


def encode_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 word (n <= 62)."""
    return _pack_graph6([nb & ((1 << j) - 1) for j, nb in enumerate(g.adj)])


# ---------------------------------------------------------------------------
# generators

def empty_graph(n: int = 0) -> Graph:
    return Graph(n, (0,) * n)


def complete(s: int) -> Graph:
    if s < 1:
        raise ValueError("complete graph needs s >= 1; use empty_graph for 0")
    full = (1 << s) - 1
    return Graph(s, tuple(full ^ (1 << v) for v in range(s)))


def cycle(s: int) -> Graph:
    if s < 3:
        raise ValueError("cycle needs s >= 3")
    return from_edges(s, [(v, (v + 1) % s) for v in range(s)])


def crown(s: int) -> Graph:
    """K_{s,s} minus a perfect matching: i ~ s+j iff i != j."""
    if s < 1:
        raise ValueError("crown needs s >= 1")
    adj = [0] * (2 * s)
    for i in range(s):
        for j in range(s):
            if i != j:
                adj[i] |= 1 << (s + j)
                adj[s + j] |= 1 << i
    return Graph(2 * s, tuple(adj))


# ---------------------------------------------------------------------------
# combinations of graphs

def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [nb << g.n for nb in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def join_sum(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    adj = [nb | hmask for nb in g.adj]
    adj += [nb << g.n | gmask for nb in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def copies(s: int, g: Graph) -> Graph:
    if s < 1:
        raise ValueError("copies needs s >= 1")
    out = g
    for _ in range(s - 1):
        out = disjoint_union(out, g)
    return out


def induced(g: Graph, w) -> Graph:
    """Induced subgraph on vertex set w (iterable or bitmask), relabelled
    order-preservingly to 0..|w|-1."""
    mask = w if isinstance(w, int) else sum(1 << v for v in set(w))
    if mask & ~g.vertex_mask:
        raise ValueError("vertex out of range")
    verts = list(bits(mask))
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in bits(g.adj[v] & mask):
            adj[pos[v]] |= 1 << pos[u]
    return _trusted_graph(len(verts), tuple(adj))


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple((full ^ nb ^ (1 << v)) for v, nb in enumerate(g.adj)))


# ---------------------------------------------------------------------------
# predicates

def _is_bipartite(g: Graph) -> bool:
    color = [None] * g.n
    for root in range(g.n):
        if color[root] is not None:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in bits(g.adj[v]):
                if color[u] is None:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def _component(adj: tuple[int, ...], live: int) -> int:
    """The vertices of live reachable within live from its lowest vertex,
    as a mask (0 when live is empty)."""
    comp = frontier = live & -live
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & live & ~comp
        comp |= frontier
    return comp


def _is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in bits(g.adj[u]):
            if v > u and g.adj[u] & g.adj[v]:
                return False
    return True


def graph_predicates(g: Graph) -> dict:
    """Structural facts used by the bound checks."""
    return {
        "mindeg": min((g.degree(v) for v in range(g.n)), default=None),
        "is_triangle_free": _is_triangle_free(g),
        "is_bipartite": _is_bipartite(g),
        "is_connected": _component(g.adj, g.vertex_mask) == g.vertex_mask,
        "isolated_vertex_exists": any(nb == 0 for nb in g.adj) if g.n else False,
    }


# ---------------------------------------------------------------------------
# canonical labelling (n <= CANONICAL_CAP): colour refinement to an ordered
# partition, then the least column codes over the orderings that respect it

def _refine_cells(adj: tuple[int, ...], keep: int = -1) -> tuple[int, ...] | None:
    """Ordered partition of iterated degree refinement, as vertex masks,
    or None once its last cell misses keep (a vertex mask; by default
    every vertex, so the partition is always returned).

    The cells start as the degree classes, in ascending degree.  Each
    round splits every cell at once by its vertices' neighbour counts in
    the cells of the round before, in order, and orders the parts by
    those counts, the part with more neighbours in an earlier cell first.
    This is the order of (colour, sorted neighbour colours), since the
    vertices of one cell share a degree.  A vertex's counts are one
    integer, -count per cell in base n + 1, which orders as the count
    sequences do.  Two vertices of one cell
    already agree on every cell the last round did not create, so only
    the new cells are counted.  The first round that splits nothing, or
    a discrete partition, ends it.  The partition is an isomorphism
    invariant.  Rounds only split cells, and the last part of the last
    cell is the next round's last cell, so the final last cell lies
    inside each round's; once one misses keep, so does the final one,
    and the search's canonical-deletion test stops refining there.
    Nothing is cached: `_min_code(child, keep)` refines each child of
    the search once and labels it on that partition."""
    n = len(adj)
    by_degree: dict[int, int] = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = fresh = [by_degree[d] for d in sorted(by_degree)]
    if cells and not cells[-1] & keep:
        return None
    base = n + 1
    while len(cells) < n:
        out: list[int] = []
        born: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts: dict[int, int] = {}
            for v in bits(cell):
                a = adj[v]
                key = 0
                for m in fresh:
                    key = key * base - (a & m).bit_count()
                parts[key] = parts.get(key, 0) | 1 << v
            if len(parts) == 1:
                out.append(cell)
            else:
                split = [parts[k] for k in sorted(parts)]
                out += split
                born += split
        if not born:
            break
        if not out[-1] & keep:
            return None
        cells, fresh = out, born
    return tuple(cells)


def _twin_classes(adj: tuple[int, ...], within: int | None = None) -> list[int]:
    """Vertex masks of the classes of two or more twins among the vertices
    of within (a mask; by default all of them): vertices whose
    neighbourhoods agree apart from each other.  Such a class is a clique
    of vertices with one closed neighbourhood or an independent set of
    vertices with one open neighbourhood, and no open neighbourhood equals
    another vertex's closed one, so one dict keyed by both finds them."""
    groups: dict[int, int] = {}
    for v in range(len(adj)) if within is None else bits(within):
        a = adj[v]
        bit = 1 << v
        groups[a] = groups.get(a, 0) | bit
        groups[a | bit] = groups.get(a | bit, 0) | bit
    return [m for m in groups.values() if m & (m - 1)]


def _min_code(adj: tuple[int, ...], keep: int = -1) -> list[int] | None:
    """Lexicographically least column-code sequence over the vertex
    orderings that respect adj's ordered partition from
    `_refine_cells(adj, keep)` (positions are filled cell by cell), or
    None when that gives up because its last cell misses keep (by
    default every vertex, so a code is always returned).  Code entry k
    is the adjacency of the vertex at position k to the vertices before
    it, as a bitmask: column k of the relabelled graph's graph6 upper
    triangle.

    A discrete partition allows one ordering, read off directly.
    Otherwise a depth-first search keeps code[v], the adjacency of each
    unplaced v to the prefix.  Each call places one vertex: placing v at
    k sets bit k on its unplaced neighbours, and backtracking clears it.
    Candidates go in (code, index) order, and tight says the prefix
    equals the best codes' prefix, so a larger candidate ends the
    siblings.  Swapping two twins is an automorphism, so twins share a
    cell and, while unplaced, a code; only the lowest-indexed unplaced
    member of a twin class is tried at each position, and twins are
    looked for only inside the cells of two or more vertices."""
    cells = _refine_cells(adj, keep)
    if cells is None:
        return None
    n = len(adj)
    if len(cells) == n:
        pos = [0] * n
        codes = []
        before = 0
        for k, cell in enumerate(cells):
            v = cell.bit_length() - 1
            pos[v] = k
            c = 0
            for u in bits(adj[v] & before):
                c |= 1 << pos[u]
            codes.append(c)
            before |= cell
        return codes
    slot_cell = [cell for cell in cells for _ in range(cell.bit_count())]
    lower_twins = [0] * n
    for cell in cells:
        if cell & (cell - 1):
            for t in _twin_classes(adj, cell):
                for v in bits(t):
                    lower_twins[v] = t & ((1 << v) - 1)
    shift = n.bit_length()  # a candidate is code << shift | v
    low = (1 << shift) - 1
    code = [0] * n
    placed = [0] * n
    best: list[int] = []

    def dfs(k: int, used: int, tight: bool) -> bool:
        """Place a vertex at position k and search on; whether best improved."""
        nonlocal best
        if k == n:
            # a leaf no better than best is reached only equal to it
            if not tight:
                best = placed[:]
            return not tight
        improved = False
        bit = 1 << k
        for c in sorted([code[v] << shift | v for v in bits(slot_cell[k] & ~used)
                         if not lower_twins[v] & ~used]):
            ck = c >> shift
            if tight and ck > best[k]:
                break
            v = c & low
            placed[k] = ck
            nbrs = bits(adj[v] & ~used)
            for u in nbrs:
                code[u] |= bit
            if dfs(k + 1, used | 1 << v, tight and ck == best[k]):
                improved = tight = True
            for u in nbrs:
                code[u] ^= bit
        return improved

    dfs(0, 0, False)
    return best


def _canonical_codes(g: Graph) -> list[int]:
    """The column codes of g canonically relabelled (see `canonical_form`)."""
    if g.n > CANONICAL_CAP:
        raise ValueError(f"canonical labelling refused for n={g.n} > cap={CANONICAL_CAP}")
    return _min_code(g.adj)


def canonical_form(g: Graph) -> str:
    """graph6 word, as a str, of g canonically relabelled: the least
    column codes over the orderings that respect g's refined colour
    partition.  Equal for two graphs iff they are isomorphic (n <=
    CANONICAL_CAP)."""
    return _pack_graph6(_canonical_codes(g))


def canonical_graph(g: Graph) -> Graph:
    """Canonically relabelled copy of g, built from its column codes;
    equal for isomorphic inputs."""
    return _trusted_graph(g.n, _from_columns(_canonical_codes(g)))
