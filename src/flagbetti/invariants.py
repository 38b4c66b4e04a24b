"""Graph-level Betti quantities, growth-rate constants, and bound checks.

`betti_graph` works out the reduced homology of Ind(G[w]) for the vertex
subsets w it reaches, once per call each, starting from the whole vertex
set, through `_Vectors(g, field)`, the vector of G[w] as a function of w
memoised for one graph.  Five exact steps keep the reduced homology over
every field:

- an isolated vertex makes Ind(G) a cone over the rest, which is
  contractible, so every reduced Betti number is 0;
- the fold lemma: when N(u) is inside N(v) for u != v, Ind(G) is
  homotopy equivalent to Ind(G - v), so v is dropped;
- a disjoint union of graphs has the join of their independence
  complexes, and over a field the reduced Betti numbers of a join are
  the convolution of the parts', one degree up per join;
- an edge component has Ind(K2) = S^0, and a join with S^0 is a
  suspension, so it shifts every degree up by one.  After the fold a
  leaf lies only in such a component, so this is the leaf lemma,
  Ind(G) ~ susp Ind(G - u - v) for an edge {u, v} (Adamaszek, JCTA 2012);
- the paper's deletion sequence Ind(G) = Ind(G - v) u v * Ind(G - N[v])
  at a vertex v (`_step_at`), which `_deletion_step` takes at a vertex of
  greatest degree.  The vector of G is that of G - v plus that of
  G - N[v] one degree up whenever the inclusion of Ind(G - N[v]) into
  Ind(G - v) is zero in homology, and two conditions prove it is: the
  two vectors have disjoint supports, or some neighbour of v is dominated
  by v.

Homology runs only on complete components K_m with m >= 3, whose Ind is
m points, and on the connected, fold-irreducible components where both
conditions fail.  The unreduced path,
`betti(independence_complex(g), field)`, stays the oracle the reductions
are tested against.

`hochster_beta` takes the same `_deletion_step` over one table of Betti
vectors, one per vertex subset in ascending order.  Only the subsets
where both conditions fail reach `betti_graph`.  The class search
(`search._child_vector`) takes `_step_at` the new vertex of a child
P + w, reading b(P) and b(P - N(w)) from the parent's `_Vectors`.

All bound comparisons pit an exact integer against a rational interval
enclosing the (usually irrational) right-hand side, so a reported
violation can never be a floating-point artifact.  Every growth base is
the root of a polynomial with integer coefficients, and `bisect_root`
encloses it to width 2^-120 by an exact integer bisection on the
polynomial scaled by 2^(120 deg), whose terms are shifts.  The bracket
is checked on p(lo) and p(hi) in small integers.  A floating-point
estimate k over the non-zero terms (float bisection, safeguarded float
Newton, two Newton steps at 60 digits) only orders the first probes, k,
k + 1, k - 1 and k + 2; every change to the bracket is the exact sign of
p at a probe, so the estimate can cost time but never change an
enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb, isfinite

from .complexes import Complex, _membership, independence_complex, minimal_nonfaces
from .graphs import Graph, _component, bits, graph_predicates, induced
from .homology import GF2, BettiVector, FieldSpec, betti

__all__ = [
    "Enclosure",
    "Constants",
    "HochsterReport",
    "b_graph",
    "betti_graph",
    "hochster_beta",
    "beta_complete_closed",
    "beta_crown_closed",
    "solve_constants",
    "theta_enclosure",
    "gamma_enclosure",
    "theta_small_enclosure",
    "conjecture_base_enclosure",
    "conjecture_power",
    "growth_bound",
    "check_bounds",
    "check_complex_bounds",
]

HOCHSTER_CAP = 18


# ---------------------------------------------------------------------------
# certified rational enclosures

@dataclass(frozen=True)
class Enclosure:
    """Interval [lo, hi] with exact rational endpoints, 0 <= lo <= hi."""

    lo: Fraction
    hi: Fraction

    @classmethod
    def exact(cls, value) -> "Enclosure":
        f = Fraction(value)
        return cls(f, f)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo * other.lo, self.hi * other.hi)

    def __pow__(self, n: int) -> "Enclosure":
        if n < 0:
            raise ValueError("negative powers not needed")
        return Enclosure(self.lo**n, self.hi**n)

    def plus_int(self, c: int) -> "Enclosure":
        return Enclosure(self.lo + c, self.hi + c)

    def holds_upper_bound(self, value: int | Fraction) -> bool:
        """Certified truth of value <= (enclosed number).

        Raises if the interval is too wide to decide; with 120-bit
        enclosures this only happens on genuine knife edges.
        """
        if value <= self.lo:
            return True
        if value > self.hi:
            return False
        raise ArithmeticError(
            f"enclosure [{float(self.lo)}, {float(self.hi)}] cannot decide comparison with {value}"
        )

    def certainly_at_most(self, other: "Enclosure") -> bool:
        return self.hi <= other.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def decimal_str(self, digits: int = 15) -> str:
        mid = self.midpoint()
        with localcontext() as ctx:
            ctx.prec = digits + 5
            return str(Decimal(mid.numerator) / Decimal(mid.denominator))

    def __float__(self) -> float:
        return float(self.midpoint())


def bisect_root(coeffs: tuple[int, ...], lo: int = 1, hi: int = 2) -> Enclosure:
    """Enclosure of the root in [lo, hi] of p(x) = sum of coeffs[i] x^i.

    The coefficients are integers, constant term first, and so are lo and
    hi; p must be <= 0 at lo and >= 0 at hi, or ValueError.  That check and
    the exact roots at lo and hi are read off p(lo) and p(hi) in small
    integers.  The search bisects the integers k in [lo 2^120, hi 2^120] by
    the sign of the exact integer 2^(120 deg) p(k / 2^120), whose terms
    c_i 2^(120 (deg - i)) are shifts (Horner's rule over the non-zero
    terms), and returns [k, k+1] / 2^120, of width 2^-120, or an exact
    enclosure where p vanishes at a probed point.  When hi - lo is a power
    of two, as for [1, 2], every midpoint (a + b) // 2 is exact, so the
    endpoints are those of the bisection by exact dyadic midpoints.  When
    the coefficients change sign once, p has one positive root, so the
    bisection's final [k, k+1] is the only one with p(k) < 0 < p(k+1), and
    every order of probes ends there.  Then `_root_estimate`'s k queues the
    probes k, k + 1, k - 1, k + 2: each step takes the next queued probe
    strictly inside the bracket, or else the midpoint, and moves an end by
    the exact sign of the value there."""
    plo = sum(c * lo**i for i, c in enumerate(coeffs) if c)
    phi = sum(c * hi**i for i, c in enumerate(coeffs) if c)
    if not plo <= 0 <= phi:
        raise ValueError("root not bracketed")
    if plo == 0 or phi == 0:
        return Enclosure.exact(lo if plo == 0 else hi)
    scale, deg = 1 << 120, len(coeffs) - 1
    terms = [(i, c << 120 * (deg - i)) for i, c in reversed(list(enumerate(coeffs))) if c]

    def value(k: int) -> int:
        acc, prev = 0, deg
        for i, c in terms:
            acc, prev = acc * k ** (prev - i) + c, i
        return acc * k**prev

    a, b = lo * scale, hi * scale
    probes = iter(())
    signs = [c > 0 for c in coeffs if c]
    if sum(x != y for x, y in zip(signs, signs[1:])) == 1:
        # Descartes: one sign change, so p has one positive root, a simple
        # one, and exactly one k in [a, b) has value(k) < 0 < value(k + 1)
        k = _root_estimate(coeffs, lo, hi, scale)
        if k is not None:
            probes = iter((k, k + 1, k - 1, k + 2))
    while b - a > 1:
        mid = next((m for m in probes if a < m < b), (a + b) // 2)
        v = value(mid)
        if v == 0:
            return Enclosure.exact(Fraction(mid, scale))
        a, b = (mid, b) if v < 0 else (a, mid)
    return Enclosure(Fraction(a, scale), Fraction(b, scale))


def _root_estimate(coeffs: tuple[int, ...], lo: int, hi: int, scale: int) -> int | None:
    """An estimate of floor(r * scale) for the root r in [lo, hi] of the
    polynomial, p(lo) <= 0 <= p(hi), over its non-zero terms: a float
    bisection to width 2^-20, float Newton steps that fall back to the
    bracket's midpoint when they leave it, then two Newton steps at 60
    digits.  The float steps start from the bracket's upper end, where
    p >= 0: on a convex increasing p, as near the roots of the constants'
    families, Newton's steps from there stay above the root and inside
    the bracket.  A step may land on an end of the bracket, as when the
    root is within an ulp of 2.  None when a float overflows or p'
    vanishes.  The caller only probes it, by exact evaluation."""
    terms = [(i, c) for i, c in enumerate(coeffs) if c]

    def evaluate(x, terms):
        # p(x) and x p'(x) over the terms, for the step x - x p / (x p')
        p = dp = 0 * x
        for i, c in terms:
            t = c * x**i
            p += t
            dp += i * t
        return p, dp

    try:
        fterms = [(i, float(c)) for i, c in terms]
        x0, x1 = float(lo), float(hi)
        while x1 - x0 > 2**-20:
            mid = (x0 + x1) / 2
            v = sum(c * mid**i for i, c in fterms)
            if not isfinite(v):
                return None
            x0, x1 = (mid, x1) if v < 0 else (x0, mid)
        x = x1
        for _ in range(60):
            p, dp = evaluate(x, fterms)
            if not isfinite(p) or not isfinite(dp) or not dp:
                return None
            if p == 0:
                break
            x0, x1 = (x, x1) if p < 0 else (x0, x)
            dx = x * p / dp
            if not x0 <= x - dx <= x1:
                x = (x0 + x1) / 2
                continue
            x -= dx
            if abs(dx) < 2**-30 * abs(x):  # one more step gains nothing in floats
                break
    except OverflowError:
        return None
    with localcontext() as ctx:
        ctx.prec = 60
        dterms = [(i, Decimal(c)) for i, c in terms]
        x = Decimal(x)
        for _ in range(2):
            p, dp = evaluate(x, dterms)
            if not dp:
                return None
            x -= x * p / dp
        return int(x * scale) if x.is_finite() else None


def _root_of_power(value: int, degree: int) -> Enclosure:
    """Enclosure of value^(1/degree) for value in [1, 3^degree], a root of
    x^degree - value on [1, 3]."""
    return bisect_root((-value,) + (0,) * (degree - 1) + (1,), 1, 3)


@lru_cache(maxsize=None)
def theta_enclosure(d: int = 4) -> Enclosure:
    """d^(1/(d+1)); d=4 gives the flag-complex growth constant 4^(1/5)."""
    if d < 1:
        raise ValueError("d >= 1 required")
    return _root_of_power(d, d + 1)


@lru_cache(maxsize=None)
def gamma_enclosure(d: int = 3) -> Enclosure:
    """Root in [1,2] of x^(2d) = 1 + x + ... + x^(d-1); the d=3 value is
    the triangle-free growth constant, about 1.250."""
    if d < 1:
        raise ValueError("d >= 1 required")
    return bisect_root((-1,) * d + (0,) * d + (1,))


@lru_cache(maxsize=None)
def theta_small_enclosure(d: int) -> Enclosure:
    """Root in [1,2] of x^d = 1 + x + ... + x^(d-1) (d-step Fibonacci-like)."""
    if d < 1:
        raise ValueError("d >= 1 required")
    return bisect_root((-1,) * d + (1,))


@lru_cache(maxsize=None)
def conjecture_base_enclosure(d: int) -> Enclosure:
    """C(2d, d-1)^(1/(2d+1)), the conjectured growth base for complexes
    whose minimal non-faces have at most d vertices."""
    if d < 2:
        raise ValueError("d >= 2 required")
    return _root_of_power(comb(2 * d, d - 1), 2 * d + 1)


@lru_cache(maxsize=None)
def conjecture_power(d: int, n: int) -> Enclosure:
    """Enclosure of (C(2d,d-1)^(1/(2d+1)))^n; exact when (2d+1) | n."""
    if n % (2 * d + 1) == 0:
        return Enclosure.exact(comb(2 * d, d - 1) ** (n // (2 * d + 1)))
    return conjecture_base_enclosure(d) ** n


@lru_cache(maxsize=None)
def gamma_power(n: int) -> Enclosure:
    return gamma_enclosure(3) ** n


@dataclass(frozen=True)
class Constants:
    """Every growth-rate constant, with enclosures and solver residuals."""

    theta_d: dict
    theta: Enclosure
    gamma_d: dict
    gamma: Enclosure
    theta_small_d: dict
    conjecture_base_d: dict
    residuals: dict
    theta_maximal_up_to: int
    gamma_maximal_up_to: int

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta.decimal_str(18),
            "gamma": self.gamma.decimal_str(18),
            "theta_d": {d: e.decimal_str(15) for d, e in self.theta_d.items()},
            "gamma_d": {d: e.decimal_str(15) for d, e in self.gamma_d.items()},
            "theta_small_d": {d: e.decimal_str(15) for d, e in self.theta_small_d.items()},
            "conjecture_base_d": {
                d: e.decimal_str(15) for d, e in self.conjecture_base_d.items()
            },
            "residuals": {k: f"{v:.3e}" for k, v in self.residuals.items()},
            "theta_maximal_up_to": self.theta_maximal_up_to,
            "gamma_maximal_up_to": self.gamma_maximal_up_to,
        }


def solve_constants(d_max: int = 10) -> Constants:
    """Solve for all constants up to d_max and verify that d=4 maximizes
    the theta family and d=3 the gamma family on that range."""
    if d_max < 1:
        raise ValueError("d_max >= 1 required")
    theta_d = {d: theta_enclosure(d) for d in range(1, d_max + 1)}
    gamma_d = {d: gamma_enclosure(d) for d in range(1, d_max + 1)}
    theta_small_d = {d: theta_small_enclosure(d) for d in range(1, d_max + 1)}
    conj = {d: conjecture_base_enclosure(d) for d in range(2, d_max + 1)}

    # theta_d <= theta_4 is equivalent to the integer inequality d^5 <= 4^(d+1)
    theta_max = all(d**5 <= 4 ** (d + 1) for d in range(1, d_max + 1))
    gamma = gamma_enclosure(3)
    gamma_max = all(
        d == 3 or gamma_d[d].certainly_at_most(gamma) for d in range(1, d_max + 1)
    )
    if not theta_max or not gamma_max:
        raise ArithmeticError("maximality sweep failed; constants are wrong")

    def residual_gamma(e: Enclosure, d: int) -> float:
        mid = e.midpoint()
        return abs(float(sum(mid ** -(d + 1 + i) for i in range(d)) - 1))

    theta = theta_enclosure(4)
    residuals = {
        "theta": abs(float(theta.midpoint() ** 5 - 4)),
        "gamma": residual_gamma(gamma, 3),
    }
    if d_max >= 2:
        mid = theta_small_d[2].midpoint()
        residuals["theta_small_2"] = abs(float(mid**2 - mid - 1))
    return Constants(
        theta_d=theta_d,
        theta=theta,
        gamma_d=gamma_d,
        gamma=gamma,
        theta_small_d=theta_small_d,
        conjecture_base_d=conj,
        residuals=residuals,
        theta_maximal_up_to=d_max,
        gamma_maximal_up_to=d_max,
    )


# ---------------------------------------------------------------------------
# graph-level Betti quantities

def b_graph(g: Graph, field: FieldSpec = GF2) -> int:
    """Total reduced Betti number of the independence complex of g, by
    `betti_graph`, so g is reduced first.  The graph with no vertices
    gives 1 (the empty complex)."""
    return betti_graph(g, field).total()


def _fold(adj: tuple[int, ...], live: int) -> int | None:
    """The vertices of live left after the fold lemma within G[live], as a
    mask, or None when some vertex ends up with no neighbour (Ind is a
    cone)."""
    changed = True
    while changed:
        changed = False
        for v in bits(live):
            nv = adj[v] & live
            if not nv:
                return None
            # a neighbour u of v has v in N(u) - N(v), so cannot fold v
            rest = live & ~nv
            for u in bits(rest & ~(1 << v)):
                if not adj[u] & rest:  # N(u) inside N(v): drop v
                    live &= ~(1 << v)
                    changed = True
                    break
    return live


def betti_graph(g: Graph, field: FieldSpec = GF2) -> BettiVector:
    """Reduced Betti numbers of the independence complex of g, from
    `_Vectors(g, field)` at the whole vertex set.  The graph with no
    vertices gives b_-1 = 1 (the empty complex)."""
    return BettiVector(_Vectors(g, field)(g.vertex_mask), field)


class _Vectors:
    """The by_degree vector of Ind(G[w]) as a function of the vertex
    subset w, memoised by mask for this one graph.

    Every step keeps the reduced homology.  G[w] is folded first: a vertex
    with no neighbour makes Ind a cone (all zeros), and N(u) inside N(v)
    for u != v lets v go (the fold lemma, Ind(G) ~ Ind(G - v)).  The
    connected components that are left give Ind as the join of their
    independence complexes, whose Betti numbers over a field are the
    parts' convolved, b_k = sum of a_i * b_j over i + j + 1 = k.  An edge
    component is S^0, so it shifts every degree up by one.  A complete
    component on m >= 3 vertices, whose Ind is m points, goes to `betti`.
    Any other component C is settled by `_deletion_step` from the vectors
    of C - v and C - N[v], two smaller subsets, and only when its two
    conditions fail does Ind(C) reach `betti`.  The empty subset gives
    ((-1, 1),), the empty complex.  An object rather than a closure that
    calls itself, so that it holds no reference cycle, and its memo is
    freed as soon as the last reference to it goes."""

    __slots__ = ("g", "field", "memo")

    def __init__(self, g: Graph, field: FieldSpec):
        self.g, self.field = g, field
        self.memo: dict[int, tuple] = {}

    def __call__(self, w: int) -> tuple:
        memo = self.memo
        vec = memo.get(w)
        if vec is not None:
            return vec
        adj = self.g.adj
        live = _fold(adj, w)
        # a cone (None) is acyclic; else start from the empty complex, the unit of the join
        total = {} if live is None else {-1: 1}
        while live and total:
            comp = _component(adj, live)
            live &= ~comp
            if comp.bit_count() == 2:  # an edge: Ind(K2) is S^0, and joining S^0 suspends
                total = {i + 1: a for i, a in total.items()}
                continue
            part = memo.get(comp)
            if part is None:
                # K_m (m >= 3), whose Ind is m points, stays on betti
                if any(adj[v] & comp != comp & ~(1 << v) for v in bits(comp)):
                    part = _deletion_step(adj, comp, self)
                if part is None:
                    part = betti(independence_complex(induced(self.g, comp)), self.field).by_degree
                memo[comp] = part
            joined: dict[int, int] = {}
            for j, b in part:
                for i, a in total.items():
                    joined[i + j + 1] = joined.get(i + j + 1, 0) + a * b
            total = joined  # an acyclic part makes the whole join acyclic
        memo[w] = vec = tuple(sorted(total.items()))
        return vec


@dataclass(frozen=True)
class HochsterReport:
    """Total over all induced subgraphs of b, grouped by subset size."""

    beta_total: int
    per_subset_histogram: dict

    def to_json_dict(self) -> dict:
        return {
            "beta_total": self.beta_total,
            "per_subset_histogram": {
                str(k): v for k, v in sorted(self.per_subset_histogram.items())
            },
        }


def _splice(a: tuple, b: tuple) -> tuple:
    """The by_degree sum of a and of b shifted one degree up: the Betti
    vector of Ind(G) from those of Ind(G - v) and Ind(G - N[v]) when the
    inclusion of the second into the first is zero in homology."""
    if not b:
        return a
    out = dict(a)
    for d, x in b:
        out[d + 1] = out.get(d + 1, 0) + x
    return tuple(sorted(out.items()))


def _disjoint_supports(a: tuple, b: tuple) -> bool:
    """Whether no degree is non-zero in both by_degree vectors, so every
    map from the homology of b's complex to a's is zero."""
    return not {d for d, _ in a}.intersection([d for d, _ in b])


def _dominated(adj: tuple[int, ...], w: int, v: int) -> bool:
    """Whether some neighbour u of v in G[w] has N[u] inside N[v] within
    w.  Then u has no neighbour in G[w] - N[v], so Ind(G[w] - N[v]) lies in
    the cone u * Ind(G[w] - N[v]) inside Ind(G[w] - v), and its inclusion
    is zero in homology (Adamaszek, JCTA 2012)."""
    outside = w & ~adj[v] & ~(1 << v)
    return any(not adj[u] & outside for u in bits(adj[v] & w))


def _deletion_step(adj: tuple[int, ...], w: int, vector) -> tuple | None:
    """The by_degree vector of Ind(G[w]) by `_step_at` a vertex of
    greatest degree in G[w] (the lowest on ties), or None when both of the
    step's conditions fail there.  This picks the vertex and nothing else:
    `betti_graph`'s memo and `hochster_beta`'s table call it, and the class
    search calls `_step_at` the new vertex of a child directly."""
    v, top, rest = -1, -1, w
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        deg = (adj[u] & w).bit_count()
        if deg > top:
            v, top = u, deg
    return _step_at(adj, w, v, vector)


def _step_at(adj: tuple[int, ...], w: int, v: int, vector) -> tuple | None:
    """The by_degree vector of Ind(G[w]) by the deletion sequence at the
    vertex v of w, or None when it cannot be settled there.

    Ind(G[w]) is Ind(G[w] - v) with the cone v * Ind(G[w] - N[v]) glued
    on; vector(mask) gives the vectors of those two smaller subsets, so it
    is asked only for subsets of w - v, and may belong to any graph that
    agrees with adj there.  When v has no neighbour in w, Ind(G[w]) is a
    cone and the vector is zero.  When the two vectors have disjoint
    supports, or some neighbour of v is dominated by v, the inclusion
    Ind(G[w] - N[v]) -> Ind(G[w] - v) is zero in homology over every
    field, and the long exact sequence gives the first vector plus the
    second one degree up.  None means both conditions fail."""
    nv = adj[v] & w
    if not nv:
        return ()
    rest = w & ~(1 << v)
    a, b = vector(rest), vector(rest & ~nv)
    if _disjoint_supports(a, b) or _dominated(adj, w, v):
        return _splice(a, b)
    return None


def hochster_beta(g: Graph, field: FieldSpec = GF2) -> HochsterReport:
    """Sum of b over all 2^n induced subgraphs, from one table of their
    reduced Betti vectors.

    Each vertex subset w adds b(G[w]) to the bucket of its size; sizes
    whose subgraphs all have b = 0 get no bucket.  The subsets are taken
    in ascending order, so `_deletion_step` finds the vectors of G[w] - v
    and G[w] - N[v] already in the table.  Only when both of its
    conditions fail is G[w] handed to `betti_graph`.  Graphs with more
    than HOCHSTER_CAP vertices are refused with a ValueError.
    """
    if g.n > HOCHSTER_CAP:
        raise ValueError(f"hochster sum refused for n={g.n} > cap={HOCHSTER_CAP}")
    adj = g.adj
    table = [()] * (1 << g.n)  # one shared empty tuple for every zero vector
    table[0] = ((-1, 1),)  # the empty complex
    hist = {0: 1}
    seen: dict[tuple, tuple] = {}  # one copy of each distinct vector
    for w in range(1, 1 << g.n):
        vec = _deletion_step(adj, w, table.__getitem__)
        if vec is None:
            vec = betti_graph(induced(g, w), field).by_degree
        if vec:
            table[w] = vec = seen.setdefault(vec, vec)
            size = w.bit_count()
            hist[size] = hist.get(size, 0) + sum(x for _, x in vec)
    return HochsterReport(sum(hist.values()), hist)


def beta_complete_closed(s: int) -> int:
    """Closed form of the Hochster sum for the complete graph on s vertices."""
    if s < 1:
        raise ValueError("s >= 1 required")
    return 2 ** (s - 1) * (s - 2) + 2


def beta_crown_closed(s: int) -> int:
    """Closed form of the Hochster sum for the crown graph on 2s vertices."""
    if s < 1:
        raise ValueError("s >= 1 required")
    return 4 ** (s - 1) * (s - 4) + 2 * 3**s - 2 ** (s + 1) + 2


# ---------------------------------------------------------------------------
# bound reports

def growth_bound(metric: str, triangle_free: bool, n: int) -> tuple[str, Enclosure]:
    """Name and enclosure of the paper's growth bound on metric for an
    n-vertex graph: theta-based in general, gamma-based when triangle_free
    (the bneigh bound is gamma-based either way)."""
    if metric == "b":
        if triangle_free:
            return "b-le-gamma^n", gamma_power(n)
        # theta = 4^(1/5) = C(4, 1)^(1/5), the d = 2 conjectured base
        return "b-le-theta^n", conjecture_power(2, n)
    if metric == "beta":
        if triangle_free:
            return "beta-le-(gamma+1)^n", gamma_enclosure(3).plus_int(1) ** n
        return "beta-le-(theta+1)^n", theta_enclosure(4).plus_int(1) ** n
    if metric == "bneigh":
        return "bneigh-le-gamma^2n", gamma_power(2 * n)
    raise ValueError(f"unknown metric {metric!r}")


def _bound_entry(name: str, value: int, rhs: Enclosure) -> dict:
    return {
        "name": name,
        "rhs_lo": float(rhs.lo),
        "rhs_hi": float(rhs.hi),
        "pass": rhs.holds_upper_bound(value),
        "exact_equality": rhs.lo == rhs.hi and Fraction(value) == rhs.lo,
    }


def check_bounds(
    g: Graph,
    field: FieldSpec = GF2,
    include_beta: bool = False,
) -> dict:
    """Check the flag-complex growth bounds for one graph.

    Always checks b <= theta^n; adds the gamma bound when the graph is
    triangle-free and the Hochster-sum bounds when include_beta is set.
    """
    preds = graph_predicates(g)
    values = {"b": b_graph(g, field)}
    if include_beta:
        values["beta"] = hochster_beta(g, field).beta_total
    classes = (False, True) if preds["is_triangle_free"] else (False,)
    bounds = []
    for metric, value in values.items():
        for triangle_free in classes:
            name, rhs = growth_bound(metric, triangle_free, g.n)
            bounds.append(_bound_entry(name, value, rhs))
    return {
        "n": g.n,
        "b": values["b"],
        "beta": values.get("beta"),
        "predicates": preds,
        "bounds": bounds,
        "all_pass": all(entry["pass"] for entry in bounds),
    }


def check_complex_bounds(k: Complex, field: FieldSpec = GF2) -> dict:
    """Check the facet-count, non-face-count and missing-face bounds, and
    the vanishing theorem: homology is zero above degree n(d-1)/d - 1 when
    every minimal non-face has at most d vertices.  d = max(d_F, 1), since
    a complex with no non-faces meets that hypothesis for every d >= 1."""
    if k.is_void:
        raise ValueError("void complex has no bounds to check")
    bv = betti(k, field)
    b = bv.total()
    m = len(k.facets)
    nonfaces = minimal_nonfaces(k)
    cls = _membership(k, nonfaces)
    d_f = cls["min_nonface_max_size"]
    d_m = cls["max_facet_deficiency"]
    bounds = [
        _bound_entry("b-le-gamma^(n+m)", b, gamma_power(k.n + m)),
        _bound_entry("b-le-gamma^(n+m')", b, gamma_power(k.n + len(nonfaces))),
    ]
    if d_f >= 1:
        bounds.append(
            _bound_entry(
                "b-le-thetasmall_dF^n", b, theta_small_enclosure(d_f) ** k.n
            )
        )
    if d_m >= 1:
        bounds.append(
            _bound_entry(
                "b-le-thetasmall_dM^n", b, theta_small_enclosure(d_m) ** k.n
            )
        )
    d = max(d_f, 1)
    threshold = Fraction(k.n * (d - 1), d) - 1
    top = bv.top_degree()
    vanishing = {
        "threshold": float(threshold),
        "top_nonzero_degree": top,
        "pass": top is None or top <= threshold,
    }
    return {
        "n": k.n,
        "m": m,
        "m_nonfaces": len(nonfaces),
        "b": b,
        "class": cls,
        "bounds": bounds,
        "vanishing": vanishing,
        "all_pass": vanishing["pass"] and all(entry["pass"] for entry in bounds),
    }
