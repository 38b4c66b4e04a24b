"""Independent brute-force oracles used to freeze expected test values.

Everything here works from first principles (subset enumeration, dense
elimination) and deliberately shares no code path with the library
implementations it checks.  Seven are the library's own earlier routines,
kept as the reference for what replaced them: the per-subset Hochster
loop over `b_graph`, the plain integer bisection, the canonical labelling
by colour ranks, the fold loop that tries every live vertex, the full
boundary matrices, with columns summed from one row bit per face, Betti
numbers from the ranks of those full matrices, before clearing, and the
filter that cleared the full matrices' columns after they were built.
The library builds only cleared matrices; full ones come only from here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, groupby, permutations

from flagbetti.complexes import Complex
from flagbetti.graphs import Graph, canonical_form, empty_graph, induced, parse_graph6
from flagbetti.homology import matrix_rank
from flagbetti.invariants import b_graph


def graph6_encode_oracle(g: Graph) -> str:
    """graph6 word built directly from the published format definition:
    length byte n+63, then the upper triangle x(0,1) x(0,2) x(1,2) ...
    packed big-endian six bits per byte, zero padded."""
    bitvec = []
    for j in range(g.n):
        for i in range(j):
            bitvec.append(1 if g.adj[i] >> j & 1 else 0)
    while len(bitvec) % 6:
        bitvec.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bitvec), 6):
        value = int("".join(map(str, bitvec[i : i + 6])), 2)
        chars.append(chr(value + 63))
    return "".join(chars)


def independent_sets_oracle(g: Graph) -> list[int]:
    """All independent sets of g, by checking every vertex subset."""
    out = []
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if all(not g.adj[u] >> v & 1 for u, v in combinations(verts, 2)):
            out.append(mask)
    return out


def maximal_independent_sets_oracle(g: Graph) -> set[int]:
    ind = set(independent_sets_oracle(g))
    return {
        m
        for m in ind
        if not any((m | 1 << v) in ind for v in range(g.n) if not m >> v & 1)
    }


def faces_oracle(k: Complex) -> list[int]:
    """All faces by testing every subset against the facet list."""
    return [
        mask
        for mask in range(1 << k.n)
        if any(mask & f == mask for f in k.facets)
    ]


def boundary_matrices_oracle(k: Complex) -> list[list[int]]:
    """The boundary matrices by the loop `boundary_matrices` once ran, over
    the faces of `faces_oracle` in layers sorted by mask: each row face
    gets its bit 1 << row, and a column is the sum of the row bits of its
    face less one vertex."""
    faces = sorted(faces_oracle(k), key=lambda f: (f.bit_count(), f))
    layers = [list(layer) for _, layer in groupby(faces, int.bit_count)]
    mats = []
    for lower, upper in zip(layers, layers[1:]):
        row_bit = {f: 1 << i for i, f in enumerate(lower)}
        mats.append([sum(row_bit[f & ~(1 << v)] for v in range(k.n) if f >> v & 1) for f in upper])
    return mats


def lazy_columns(m: list[int]):
    """The bitmask columns m, less any zero column (which adds nothing to
    a rank), in the form `matrix_rank` takes: the top (largest) row of
    each column, and the column list's own indexing as the builder."""
    cols = [col for col in m if col]
    return [col.bit_length() - 1 for col in cols], cols.__getitem__


def kept_columns_oracle(m: list, upper: list[int]) -> list:
    """The columns of m, in order, less those at the lowest row of some
    column of upper, the full matrix above m: the filter `betti` once ran
    on full matrices, before `boundary_matrices` built only the kept
    columns."""
    keep = bytearray(b"\1") * len(m)
    for col in upper:
        keep[col.bit_length() - 1] = 0
    return list(compress(m, keep))


def complex_checks_oracle(n: int, facets) -> bool:
    """Whether (n, facets) passes the four checks the Complex constructor
    once made one after another: each facet lies within the n vertices, no
    facet repeats, no facet lies in another, and the facets are sorted.  A
    negative n fails, as its vertex mask (1 << n) - 1 cannot be formed."""
    if n < 0:
        return False
    full = (1 << n) - 1
    seen = set()
    for f in facets:
        if f & ~full or f in seen:
            return False
        seen.add(f)
    for f in facets:
        for g in facets:
            if f != g and f & g == f:
                return False
    return list(facets) == sorted(facets)


def _maximal_relabelled(faces: set[int], keep: list[int]) -> tuple[int, ...]:
    """The inclusion-maximal members of a downward-closed set of faces
    within the vertices keep, relabelled 0, 1, ... in the order of keep."""
    maximal = [m for m in faces if not any((m | 1 << v) in faces for v in keep if not m >> v & 1)]
    return tuple(sorted(sum(1 << i for i, v in enumerate(keep) if m >> v & 1) for m in maximal))


def link_facets_oracle(k: Complex, v: int) -> tuple[int, ...]:
    """Facets of the link of v: the faces through v, less v, on the other vertices."""
    faces = {f & ~(1 << v) for f in faces_oracle(k) if f >> v & 1}
    return _maximal_relabelled(faces, [u for u in range(k.n) if u != v])


def deletion_facets_oracle(k: Complex, v: int) -> tuple[int, ...]:
    """Facets of the deletion of v: the faces avoiding v, on the other vertices."""
    faces = {f for f in faces_oracle(k) if not f >> v & 1}
    return _maximal_relabelled(faces, [u for u in range(k.n) if u != v])


def neighbourhood_facets_oracle(g: Graph) -> tuple[int, ...]:
    """Facets of the neighbourhood complex: the vertex sets lying in some
    open neighbourhood, on the non-isolated vertices."""
    faces = {m for m in range(1 << g.n) if any(m & a == m for a in g.adj if a)}
    return _maximal_relabelled(faces, [v for v in range(g.n) if g.adj[v]])


def squash(k: Complex) -> Complex:
    """The same complex on its used vertices only, relabelled in order."""
    used = [v for v in range(k.n) if any(f >> v & 1 for f in k.facets)]
    facets = [sum(1 << i for i, v in enumerate(used) if f >> v & 1) for f in k.facets]
    return Complex(len(used), tuple(sorted(facets)))


def dense_rank_oracle(a: list[list[int]], p: int | None) -> int:
    """Rank of an integer matrix over GF(p), or over Q when p is None, by
    dense Gaussian elimination on a copy."""
    if p is None:
        rows = [[Fraction(x) for x in row] for row in a]
    else:
        rows = [[x % p for x in row] for row in a]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                if p is None:
                    f = rows[i][c] / top[c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], top)]
                else:
                    f = rows[i][c] * pow(top[c], p - 2, p) % p
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def betti_oracle(k: Complex, p: int | None) -> dict[int, int]:
    """Reduced Betti numbers over GF(p), or over Q when p is None, from
    dense signed boundary matrices on the full face list.  The face f minus
    vertex v gets sign (-1)^(number of vertices of f below v)."""
    if k.is_void:
        return {}
    by_dim: dict[int, list[int]] = {}
    for f in faces_oracle(k):
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    ranks = {}
    for d in by_dim:
        if d - 1 not in by_dim:
            continue
        lower = {f: i for i, f in enumerate(by_dim[d - 1])}
        a = [[0] * len(by_dim[d]) for _ in lower]
        for j, f in enumerate(by_dim[d]):
            for v in range(k.n):
                if f >> v & 1:
                    below = bin(f & ((1 << v) - 1)).count("1")
                    a[lower[f & ~(1 << v)]][j] = -1 if below % 2 else 1
        ranks[d] = dense_rank_oracle(a, p)
    out = {}
    for d, faces in by_dim.items():
        b = len(faces) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def betti_full_rank_oracle(k: Complex, field) -> dict[int, int]:
    """Reduced Betti numbers by the path `betti` ran before clearing:
    `matrix_rank` of every column of every full matrix, here those of
    `boundary_matrices_oracle` through `lazy_columns`.  Layer j has one
    face per column of d_{j-1}, and the empty face alone in layer 0."""
    if k.is_void:
        return {}
    mats = boundary_matrices_oracle(k)
    sizes = [1] + [len(m) for m in mats]
    ranks = [0] + [matrix_rank(lazy_columns(m), field) for m in mats] + [0]
    return {j - 1: b for j, size in enumerate(sizes) if (b := size - ranks[j] - ranks[j + 1])}


def total_betti_oracle(k: Complex) -> int:
    return sum(betti_oracle(k, 2).values())


def minimal_nonfaces_oracle(k: Complex) -> set[int]:
    """A subset is a minimal non-face iff it is not a face and every
    proper subset obtained by dropping one vertex is a face."""
    faces = set(faces_oracle(k))
    out = set()
    for mask in range(1 << k.n):
        if mask in faces:
            continue
        if all((mask & ~(1 << v)) in faces for v in range(k.n) if mask >> v & 1):
            out.add(mask)
    return out


def alexander_dual_faces_oracle(k: Complex) -> set[int]:
    """Faces of the dual straight from the definition."""
    faces = set(faces_oracle(k))
    full = (1 << k.n) - 1
    return {s for s in range(1 << k.n) if (full ^ s) not in faces}


def minimal_dominating_sets_oracle(g: Graph) -> set[int]:
    full = (1 << g.n) - 1
    closed = [g.adj[v] | 1 << v for v in range(g.n)]

    def dominates(s: int) -> bool:
        d = 0
        for v in range(g.n):
            if s >> v & 1:
                d |= closed[v]
        return d == full

    doms = {s for s in range(1 << g.n) if dominates(s)}
    return {
        s
        for s in doms
        if all((s & ~(1 << v)) not in doms for v in range(g.n) if s >> v & 1)
    }


def are_isomorphic_oracle(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    for perm in permutations(range(g.n)):
        if all(
            (g.adj[u] >> v & 1) == (h.adj[perm[u]] >> perm[v] & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


@lru_cache(maxsize=None)
def all_labelled_graphs(n: int) -> tuple[Graph, ...]:
    """All 2^(n(n-1)/2) labelled graphs on n vertices, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        out.append(Graph(n, tuple(adj)))
    return tuple(out)


@lru_cache(maxsize=None)
def classes_oracle(n: int, trifree: bool) -> tuple[Graph, ...]:
    """One representative per isomorphism class on n vertices (triangle-free
    ones with trifree), sorted by canonical graph6: extend every (n-1)-vertex
    representative by a new vertex in every way, label every child with the
    library's canonical_form and deduplicate.  Children are built through
    the validating Graph constructor and none is filtered before labelling."""
    if n == 0:
        return (empty_graph(0),)
    keys = set()
    for parent in classes_oracle(n - 1, trifree):
        for nb in range(1 << parent.n):
            adj = [a | (nb >> v & 1) << parent.n for v, a in enumerate(parent.adj)]
            child = Graph(n, tuple(adj) + (nb,))
            if trifree and any(
                child.adj[u] >> v & 1 and child.adj[u] >> w & 1 and child.adj[v] >> w & 1
                for u, v, w in combinations(range(n), 3)
            ):
                continue
            keys.add(canonical_form(child))
    return tuple(parse_graph6(k) for k in sorted(keys))


def refine_colors_oracle(g: Graph) -> list[int]:
    """Iterated degree refinement by sorted neighbour-colour tuples: each
    round ranks the vertices by (colour, sorted colours of neighbours)
    until the ranks stop changing."""
    sig = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        new = [
            (sig[v], tuple(sorted(sig[u] for u in range(g.n) if g.adj[v] >> u & 1)))
            for v in range(g.n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(new)))}
        new_sig = [ranks[s] for s in new]
        if new_sig == sig:
            break
        sig = new_sig
    return sig


def canonical_form_oracle(g: Graph) -> str:
    """The graph6 word `canonical_form` must give, by the library's earlier
    route: ranks by `refine_colors_oracle`, then a depth-first search over
    the colour-respecting vertex orderings for the least column codes
    (code k is the adjacency of the vertex at position k to those before
    it), trying only the lowest-indexed unplaced member of each twin
    class, packed as graph6 bit by bit."""
    n = g.n
    colors = refine_colors_oracle(g)
    slot_color = sorted(colors)
    lower_twins = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if not (g.adj[u] ^ g.adj[v]) & ~(1 << u | 1 << v):
                lower_twins[v] |= 1 << u
    placed = [0] * n
    order: list[int] = []
    best_codes: list[int] = []

    def dfs(k: int, used: int):
        nonlocal best_codes
        if k == n:
            if not best_codes or placed[:n] < best_codes:
                best_codes = placed[:n]
            return
        cands = []
        for v in range(n):
            if used >> v & 1 or colors[v] != slot_color[k] or lower_twins[v] & ~used:
                continue
            code = 0
            for i in range(k):
                if g.adj[v] >> order[i] & 1:
                    code |= 1 << i
            cands.append((code, v))
        cands.sort()
        for code, v in cands:
            if best_codes and placed[:k] == best_codes[:k] and code > best_codes[k]:
                break
            placed[k] = code
            order.append(v)
            dfs(k + 1, used | 1 << v)
            order.pop()

    dfs(0, 0)
    bitvec = [col >> i & 1 for j, col in enumerate(best_codes) for i in range(j)]
    bitvec += [0] * (-len(bitvec) % 6)
    return chr(n + 63) + "".join(
        chr(int("".join(map(str, bitvec[i : i + 6])), 2) + 63) for i in range(0, len(bitvec), 6)
    )


def fold_oracle(g: Graph) -> int | None:
    """The vertices left after the fold lemma, by the loop `_fold` once ran:
    drop v while some live u != v has N(u) inside N(v) among the live
    vertices, trying every live u; None when some live vertex has no live
    neighbour."""
    live = g.vertex_mask
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if not live >> v & 1:
                continue
            nv = g.adj[v] & live
            if not nv:
                return None
            for u in range(g.n):
                if u != v and live >> u & 1 and not g.adj[u] & live & ~nv:
                    live &= ~(1 << v)
                    changed = True
                    break
    return live


def bisect_root_oracle(poly, lo=Fraction(1), hi=Fraction(2), steps: int = 120):
    """(lo, hi) after `steps` halvings of [lo, hi] by exact `Fraction`
    midpoints, for a callable poly negative at lo and positive at hi;
    (r, r) when a probed point r is a root."""
    flo, fhi = poly(lo), poly(hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if not flo < 0 < fhi:
        raise ValueError("root not bracketed")
    for _ in range(steps):
        mid = (lo + hi) / 2
        fmid = poly(mid)
        if fmid == 0:
            return mid, mid
        if fmid < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def hochster_histogram_oracle(g: Graph, field) -> dict[int, int]:
    """The per-size histogram of the Hochster sum by the loop the library
    once ran: b(G[w]) by `b_graph` for each of the 2^n vertex subsets w,
    added to the bucket of |w| when it is non-zero.  Induced subgraphs
    that recur as labelled graphs are looked up, not recomputed."""
    hist: dict[int, int] = {}
    for w in range(1 << g.n):
        contrib = _b_graph_memo(induced(g, w), field)
        if contrib:
            hist[w.bit_count()] = hist.get(w.bit_count(), 0) + contrib
    return hist


@lru_cache(maxsize=1 << 16)
def _b_graph_memo(g: Graph, field) -> int:
    return b_graph(g, field)


def integer_bisection_oracle(coeffs, lo: int = 1, hi: int = 2) -> tuple[Fraction, Fraction]:
    """(lo, hi) of the root of sum coeffs[i] x^i in [lo, hi] by the plain
    integer bisection `bisect_root` once ran alone: bisect the integers k
    in [lo 2^120, hi 2^120] by the sign of 2^(120 deg) p(k / 2^120) until
    [k, k+1] is left, or (r, r) when a probed point r is a root."""
    scale, deg = 1 << 120, len(coeffs) - 1

    terms = [(i, c * scale ** (deg - i)) for i, c in reversed(list(enumerate(coeffs))) if c]

    def value(k: int) -> int:
        acc, prev = 0, deg
        for i, c in terms:
            acc, prev = acc * k ** (prev - i) + c, i
        return acc * k**prev

    a, b = lo * scale, hi * scale
    va, vb = value(a), value(b)
    if not va <= 0 <= vb:
        raise ValueError("root not bracketed")
    if va == 0 or vb == 0:
        r = Fraction(lo if va == 0 else hi)
        return r, r
    while b - a > 1:
        mid = (a + b) // 2
        v = value(mid)
        if v == 0:
            return Fraction(mid, scale), Fraction(mid, scale)
        a, b = (mid, b) if v < 0 else (a, mid)
    return Fraction(a, scale), Fraction(b, scale)
