"""Reference computations that check the program's outputs.

Nothing here imports flagbetti.  Graph6, independence complexes, homology
over GF(p) and the rationals, isomorphism, Euler characteristics and the
growth constants are re-derived from their definitions, so a defect in
the program cannot hide in its own check.

A graph is a list of neighbour bitmasks, vertex v at index v.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# graph6 (McKay's format, n <= 62)

def encode_graph6(adj: list[int]) -> str:
    n = len(adj)
    out = [chr(n + 63)]
    acc = nacc = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (adj[i] >> j & 1)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = nacc = 0
    if nacc:
        out.append(chr((acc << (6 - nacc)) + 63))
    return "".join(out)


def parse_graph6(word: str) -> list[int]:
    n = ord(word[0]) - 63
    stream = []
    for ch in word[1:]:
        val = ord(ch) - 63
        stream.extend(val >> s & 1 for s in range(5, -1, -1))
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if stream[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def disjoint_union(*graphs: list[int]) -> list[int]:
    out: list[int] = []
    for g in graphs:
        shift = len(out)
        out.extend(nb << shift for nb in g)
    return out


def complete(s: int) -> list[int]:
    full = (1 << s) - 1
    return [full ^ (1 << v) for v in range(s)]


def cycle(s: int) -> list[int]:
    return [1 << (v - 1) % s | 1 << (v + 1) % s for v in range(s)]


def crown(s: int) -> list[int]:
    """K_{s,s} minus a perfect matching: i ~ s+j iff i != j."""
    side = (1 << s) - 1
    return [side << s & ~(1 << (s + i)) for i in range(s)] + [side & ~(1 << j) for j in range(s)]


# ---------------------------------------------------------------------------
# independence complexes

def independent_sets(adj: list[int], live: int | None = None) -> list[int]:
    """Every independent set inside live (the empty set included)."""
    if live is None:
        live = (1 << len(adj)) - 1
    out = []

    def grow(face: int, pool: int):
        out.append(face)
        while pool:
            v = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            grow(face | 1 << v, pool & ~adj[v])

    grow(0, live)
    return out


def maximal_independent_sets(adj: list[int]) -> list[int]:
    """Facets of Ind(G), by Bron-Kerbosch on the complement without pivots."""
    n = len(adj)
    full = (1 << n) - 1
    co = [full & ~nb & ~(1 << v) for v, nb in enumerate(adj)]
    out = []

    def expand(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        while p:
            v = (p & -p).bit_length() - 1
            expand(r | 1 << v, p & co[v], x & co[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, full, 0)
    return sorted(out)


def faces_of(facets: list[int]) -> set[int]:
    """Downward closure of a facet list (the empty face included)."""
    seen: set[int] = set()
    stack = list(facets)
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        stack.extend(f & ~(1 << v) for v in bits(f))
    return seen


def reduced_euler(faces) -> int:
    """Alternating count of faces by dimension; the empty face has dimension -1."""
    return sum(1 if f.bit_count() % 2 else -1 for f in faces)


def _rank(rows: list[int], cols: list[int], p: int) -> int:
    """Rank of the boundary map from the faces `cols` to the faces `rows`
    over GF(p), or over the rationals (exact fractions) when p is 0."""
    index = {f: i for i, f in enumerate(rows)}
    pivots: dict = {}
    if p == 2:  # a column is a bitmask over rows
        for f in cols:
            col = 0
            for v in bits(f):
                col ^= 1 << index[f & ~(1 << v)]
            while col:
                lead = col.bit_length() - 1
                if lead not in pivots:
                    pivots[lead] = col
                    break
                col ^= pivots[lead]
        return len(pivots)
    one = 1 if p else Fraction(1)
    for f in cols:
        # d[v0..vk] = sum_i (-1)^i [.., vi omitted, ..]
        col = {index[f & ~(1 << v)]: one if i % 2 == 0 else -one for i, v in enumerate(bits(f))}
        while col:
            lead = max(col)
            pivot = pivots.get(lead)
            if pivot is None:  # store it scaled to a leading 1
                inv = pow(col[lead], -1, p) if p else 1 / col[lead]
                pivots[lead] = {r: (c * inv) % p if p else c * inv for r, c in col.items()}
                break
            factor = col[lead]
            for r, c in pivot.items():
                value = col.get(r, 0) - factor * c
                if p:
                    value %= p
                if value:
                    col[r] = value
                else:
                    del col[r]
    return len(pivots)


def reduced_betti(faces, p: int = 2) -> dict[int, int]:
    """Nonzero reduced Betti numbers by degree, over GF(p) or over the
    rationals when p is 0, of the complex with these faces (the empty face
    included): b_d = faces of dimension d - rank d_d - rank d_(d+1)."""
    layers: dict[int, list[int]] = {}
    for f in faces:
        layers.setdefault(f.bit_count(), []).append(f)
    top = max(layers)
    ranks = [0] + [_rank(layers.get(s - 1, []), layers.get(s, []), p) for s in range(1, top + 1)] + [0]
    out = {}
    for s in range(top + 1):
        b = len(layers.get(s, [])) - ranks[s] - ranks[s + 1]
        if b:
            out[s - 1] = b
    return out


def betti_by_degree(adj: list[int], p: int = 2, live: int | None = None) -> dict[int, int]:
    """Nonzero reduced Betti numbers of Ind(G[live]) by degree, over GF(p)
    or over the rationals when p is 0.

    Exact reductions first, all of which keep the homotopy type: an
    isolated vertex makes Ind(G) a cone (no homology); N(u) inside N(v) for
    u != v lets v go (the fold lemma); a disjoint union is a join, whose
    reduced Betti numbers over a field are those of the parts convolved,
    one degree up per join.  Homology runs only on the irreducible parts.
    """
    if live is None:
        live = (1 << len(adj)) - 1
    changed = True
    while changed:
        changed = False
        for v in bits(live):
            nv = adj[v] & live
            if not nv:
                return {}
            for u in bits(live & ~(1 << v)):
                if adj[u] & live & ~nv == 0:
                    live &= ~(1 << v)
                    changed = True
                    break
    total = {-1: 1}  # the complex {empty face}, the unit of the join
    while live:
        comp = live & -live
        frontier = comp
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & live & ~comp
            comp |= frontier
        live &= ~comp
        part = reduced_betti(independent_sets(adj, comp), p)
        joined: dict[int, int] = {}
        for i, a in total.items():
            for j, b in part.items():
                joined[i + j + 1] = joined.get(i + j + 1, 0) + a * b
        total = joined
        if not total:
            return {}
    return total


def b_total(adj: list[int], live: int | None = None) -> int:
    """Total reduced GF(2) Betti number of Ind(G[live])."""
    return sum(betti_by_degree(adj, 2, live).values())


def hochster_sum(adj: list[int]) -> int:
    """Sum of b over the induced subgraphs on every vertex subset."""
    return sum(b_total(adj, w) for w in range(1 << len(adj)))


def theta_bound_holds(b: int, n: int) -> bool:
    """b <= (4^(1/5))^n, decided over the integers as b^5 <= 4^n."""
    return b**5 <= 4**n


def beta_bound_holds(beta: int, n: int) -> bool:
    """beta <= (1 + 4^(1/5))^n, decided with 60-digit decimals and a margin."""
    with localcontext() as ctx:
        ctx.prec = 60
        rhs = (1 + Decimal(4) ** (Decimal(1) / 5)) ** n
        if abs(rhs - beta) < Decimal("1e-30"):
            raise ArithmeticError("beta bound too close to decide")
        return beta < rhs


def gamma_bound_holds(value: int, n: int, plus: int = 0) -> bool:
    """value <= (gamma + plus)^n, gamma the root of x^6 = 1 + x + x^2 in [1, 2]."""
    with localcontext() as ctx:
        ctx.prec = 60
        lo, hi = Decimal(1), Decimal(2)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid**6 - 1 - mid - mid**2 < 0:
                lo = mid
            else:
                hi = mid
        return value < (lo + plus) ** n


# ---------------------------------------------------------------------------
# graph predicates and isomorphism

def predicates(adj: list[int]) -> dict:
    n = len(adj)
    color = [-1] * n
    bipartite = True
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in bits(adj[v]):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    bipartite = False
    seen, stack = 1, [0]
    while stack and n:
        v = stack.pop()
        new = adj[v] & ~seen
        seen |= new
        stack.extend(bits(new))
    return {
        "mindeg": min((nb.bit_count() for nb in adj), default=None),
        "is_triangle_free": all(
            not adj[u] & adj[v] for u in range(n) for v in bits(adj[u]) if v > u
        ),
        "is_bipartite": bipartite,
        "is_connected": n == 0 or seen == (1 << n) - 1,
        "isolated_vertex_exists": any(nb == 0 for nb in adj),
    }


def _invariants(adj: list[int]) -> list[tuple]:
    deg = [nb.bit_count() for nb in adj]
    return [(deg[v], tuple(sorted(deg[u] for u in bits(adj[v])))) for v in range(len(adj))]


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Backtracking isomorphism test, pruned by degree invariants."""
    if len(a) != len(b):
        return False
    ia, ib = _invariants(a), _invariants(b)
    if sorted(ia) != sorted(ib):
        return False
    n = len(a)
    order = sorted(range(n), key=lambda v: (ia.count(ia[v]), v))
    image = [-1] * n

    def place(k: int, used: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used >> w & 1 or ib[w] != ia[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in order[:k]):
                image[v] = w
                if place(k + 1, used | 1 << w):
                    return True
        image[v] = -1
        return False

    return place(0, 0)


def isomorphism_classes(graphs: list[list[int]]) -> list[list[int]]:
    """One representative per isomorphism class, in first-seen order."""
    reps: list[list[int]] = []
    for g in graphs:
        if not any(isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


# ---------------------------------------------------------------------------
# growth constants from their defining equations

def _brackets_root(poly, text: str, eps: Decimal) -> bool:
    """The decimal text lies within eps of a sign change of poly."""
    x = Decimal(text)
    return poly(x - eps) < 0 < poly(x + eps)


def constants_problems(out: dict, d_max: int) -> list[str]:
    """Compare `flagbetti constants` output with d^(1/(d+1)), the roots of
    the defining polynomials and C(2d, d-1)^(1/(2d+1))."""
    problems = []
    with localcontext() as ctx:
        ctx.prec = 60
        eps = Decimal("1e-14")

        def check(label: str, text: str, poly):
            if not _brackets_root(poly, text, eps):
                problems.append(f"{label}={text} is not within {eps} of its root")

        for d in range(1, d_max + 1):
            check(f"theta_d[{d}]", out["theta_d"][str(d)], lambda x, d=d: x ** (d + 1) - d)
            check(
                f"gamma_d[{d}]", out["gamma_d"][str(d)],
                lambda x, d=d: x ** (2 * d) - sum(x**i for i in range(d)),
            )
            check(
                f"theta_small_d[{d}]", out["theta_small_d"][str(d)],
                lambda x, d=d: x**d - sum(x**i for i in range(d)),
            )
            if d >= 2:
                check(
                    f"conjecture_base_d[{d}]", out["conjecture_base_d"][str(d)],
                    lambda x, d=d: x ** (2 * d + 1) - comb(2 * d, d - 1),
                )
        check("theta", out["theta"], lambda x: x**5 - 4)
        check("gamma", out["gamma"], lambda x: x**6 - 1 - x - x**2)
    for key in ("theta_maximal_up_to", "gamma_maximal_up_to"):
        if out.get(key) != d_max:
            problems.append(f"{key}={out.get(key)!r}, expected {d_max}")
    for key, text in out["residuals"].items():
        if not float(text) < 1e-30:
            problems.append(f"residual {key}={text} is not below 1e-30")
    return problems
