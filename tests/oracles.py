"""Independent brute-force oracles used to freeze expected test values.

Everything here works from first principles (subset enumeration, dense
elimination) and deliberately shares no code path with the library
implementations it checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from flagbetti.complexes import Complex
from flagbetti.graphs import Graph


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


def betti_oracle_gf2(k: Complex) -> dict[int, int]:
    """Reduced Betti numbers over GF(2) with dense numpy elimination on
    boundary matrices built from the full face list."""
    if k.is_void:
        return {}
    faces = sorted(faces_oracle(k), key=lambda m: (bin(m).count("1"), m))
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    top = max(by_dim)
    dims = sorted(by_dim)
    mats = {}
    for d in range(0, top + 1):
        lower = {f: i for i, f in enumerate(by_dim.get(d - 1, []))}
        upper = by_dim.get(d, [])
        a = np.zeros((len(lower), len(upper)), dtype=np.uint8)
        for j, f in enumerate(upper):
            for v in range(k.n):
                if f >> v & 1:
                    a[lower[f & ~(1 << v)], j] = 1
        mats[d] = a
    ranks = {d: gf2_rank_oracle(m) for d, m in mats.items()}
    out = {}
    for d in dims:
        b = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def gf2_rank_oracle(a: np.ndarray) -> int:
    a = a.copy() % 2
    rank = 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


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


def total_betti_oracle(k: Complex) -> int:
    return sum(betti_oracle_gf2(k).values())


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
