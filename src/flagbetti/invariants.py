"""Graph-level Betti quantities, growth-rate constants, and bound checks.

`betti_graph` reduces a graph before it builds any complex, by three
exact steps that keep the reduced homology of Ind(G) over every field:

- an isolated vertex makes Ind(G) a cone over the rest, which is
  contractible, so every reduced Betti number is 0;
- the fold lemma: when N(u) is inside N(v) for u != v, Ind(G) is
  homotopy equivalent to Ind(G - v), so v is dropped;
- a disjoint union of graphs has the join of their independence
  complexes, and over a field the reduced Betti numbers of a join are
  the convolution of the parts', one degree up per join.

Homology runs only on the connected, fold-irreducible parts.  The
unreduced path, `betti(independence_complex(g), field)`, stays the
oracle the reductions are tested against.

All bound comparisons pit an exact integer against a rational interval
enclosing the (usually irrational) right-hand side, so a reported
violation can never be a floating-point artifact.  Every growth base is
the root of a polynomial with integer coefficients, and `bisect_root`
encloses it to width 2^-120 by an exact integer bisection.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb

from .complexes import (
    Complex,
    class_membership,
    independence_complex,
    minimal_nonfaces,
)
from .graphs import Graph, bits, graph_predicates, induced, popcount
from .homology import GF2, BettiVector, FieldSpec, betti, total_betti

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
    "check_bounds",
    "check_complex_bounds",
    "check_vanishing",
]

HOCHSTER_CAP = 14


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
    hi; p must be <= 0 at lo and >= 0 at hi, or ValueError.  The search
    bisects the integers k in [lo 2^120, hi 2^120] by the sign of the exact
    integer 2^(120 deg) p(k / 2^120) (Horner's rule over the non-zero
    terms), and returns [k, k+1] / 2^120, of width 2^-120, or an exact
    enclosure where p vanishes at a probed point.  When hi - lo is a power
    of two, as for [1, 2], every midpoint (a + b) // 2 is exact, so the
    endpoints are those of the bisection by exact dyadic midpoints."""
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
        return Enclosure.exact(lo if va == 0 else hi)
    while b - a > 1:
        mid = (a + b) // 2
        v = value(mid)
        if v == 0:
            return Enclosure.exact(Fraction(mid, scale))
        a, b = (mid, b) if v < 0 else (a, mid)
    return Enclosure(Fraction(a, scale), Fraction(b, scale))


def _root_of_power(value: int, degree: int) -> Enclosure:
    """Enclosure of value^(1/degree) for value in [1, 2^degree]."""
    return bisect_root((-value,) + (0,) * (degree - 1) + (1,))


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
def theta_power(n: int) -> Enclosure:
    """Enclosure of (4^(1/5))^n; exact integer 4^(n/5) when 5 divides n."""
    if n % 5 == 0:
        return Enclosure.exact(4 ** (n // 5))
    return theta_enclosure(4) ** n


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
    gamma = gamma_d.get(3, gamma_enclosure(3))
    gamma_max = all(
        d == 3 or gamma_d[d].certainly_at_most(gamma) for d in range(1, d_max + 1)
    )
    if not theta_max or not gamma_max:
        raise ArithmeticError("maximality sweep failed; constants are wrong")

    def residual_gamma(e: Enclosure, d: int) -> float:
        mid = e.midpoint()
        return abs(float(sum(mid ** -(d + 1 + i) for i in range(d)) - 1))

    theta = theta_d.get(4, theta_enclosure(4))
    residuals = {
        "theta": abs(float(theta.midpoint() ** 5 - 4)),
        "gamma": residual_gamma(gamma, 3),
        "theta_small_2": abs(
            float(theta_small_d[2].midpoint() ** 2 - theta_small_d[2].midpoint() - 1)
        )
        if d_max >= 2
        else 0.0,
    }
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


def _fold(g: Graph) -> int | None:
    """The vertices left after the fold lemma, as a mask, or None when
    some vertex ends up with no neighbour (Ind is a cone)."""
    adj = g.adj
    live = g.vertex_mask
    changed = True
    while changed:
        changed = False
        for v in bits(live):
            nv = adj[v] & live
            if not nv:
                return None
            for u in bits(live & ~(1 << v)):
                if not adj[u] & live & ~nv:  # N(u) inside N(v): drop v
                    live &= ~(1 << v)
                    changed = True
                    break
    return live


def betti_graph(g: Graph, field: FieldSpec = GF2) -> BettiVector:
    """Reduced Betti numbers of the independence complex of g.

    g is reduced first, and every step keeps the reduced homology: a
    vertex with no neighbour makes Ind(g) a cone (all zeros); N(u) inside
    N(v) for u != v lets v go (the fold lemma, Ind(G) ~ Ind(G - v)); the
    connected components that are left give Ind(g) as the join of their
    independence complexes, whose Betti numbers over a field are the
    parts' convolved, b_k = sum of a_i * b_j over i + j + 1 = k.  Only
    those components reach `betti`.  The graph with no vertices gives
    b_-1 = 1 (the empty complex)."""
    live = _fold(g)
    if live is None:
        return BettiVector((), field)
    total = {-1: 1}  # the empty complex, the unit of the join
    while live:
        comp = frontier = live & -live
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= g.adj[v]
            frontier = reach & live & ~comp
            comp |= frontier
        live &= ~comp
        joined: dict[int, int] = {}
        for j, b in betti(independence_complex(induced(g, comp)), field).by_degree:
            for i, a in total.items():
                joined[i + j + 1] = joined.get(i + j + 1, 0) + a * b
        if not joined:  # an acyclic part makes the whole join acyclic
            return BettiVector((), field)
        total = joined
    return BettiVector(tuple(sorted(total.items())), field)


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


def _hochster_range(args) -> dict:
    g, field, lo, hi = args
    hist: dict[int, int] = {}
    for w in range(lo, hi):
        contrib = b_graph(induced(g, w), field)
        if contrib:
            hist[popcount(w)] = hist.get(popcount(w), 0) + contrib
    return hist


def hochster_beta(
    g: Graph,
    field: FieldSpec = GF2,
    cap: int = HOCHSTER_CAP,
    workers: int | None = None,
) -> HochsterReport:
    """Sum of b over all 2^n induced subgraphs (exact brute force).

    With workers > 1 the subset range is split across at most
    os.cpu_count() processes; the combining step is integer addition, so
    the result is deterministic.
    """
    if g.n > cap:
        raise ValueError(f"hochster sum refused for n={g.n} > cap={cap}")
    workers = min(workers or 1, os.cpu_count() or 1)
    total_subsets = 1 << g.n
    if workers > 1 and total_subsets >= 1 << 10:
        step = -(-total_subsets // workers)
        chunks = [
            (g, field, lo, min(lo + step, total_subsets))
            for lo in range(0, total_subsets, step)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_hochster_range, chunks))
    else:
        partials = [_hochster_range((g, field, 0, total_subsets))]
    hist: dict[int, int] = {}
    for part in partials:
        for size, contrib in part.items():
            hist[size] = hist.get(size, 0) + contrib
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
    hochster_cap: int = HOCHSTER_CAP,
) -> dict:
    """Check the flag-complex growth bounds for one graph.

    Always checks b <= theta^n; adds the gamma bound when the graph is
    triangle-free and the Hochster-sum bounds when include_beta is set.
    """
    preds = graph_predicates(g)
    b = b_graph(g, field)
    bounds = [_bound_entry("b-le-theta^n", b, theta_power(g.n))]
    if preds["is_triangle_free"]:
        bounds.append(_bound_entry("b-le-gamma^n", b, gamma_power(g.n)))
    beta_total = None
    if include_beta:
        beta_total = hochster_beta(g, field, hochster_cap).beta_total
        bounds.append(
            _bound_entry(
                "beta-le-(theta+1)^n", beta_total, theta_enclosure(4).plus_int(1) ** g.n
            )
        )
        if preds["is_triangle_free"]:
            bounds.append(
                _bound_entry(
                    "beta-le-(gamma+1)^n",
                    beta_total,
                    gamma_enclosure(3).plus_int(1) ** g.n,
                )
            )
    return {
        "n": g.n,
        "b": b,
        "beta": beta_total,
        "predicates": preds,
        "bounds": bounds,
        "all_pass": all(entry["pass"] for entry in bounds),
    }


def check_complex_bounds(k: Complex, field: FieldSpec = GF2) -> dict:
    """Check the facet-count, non-face-count and missing-face bounds."""
    if k.is_void:
        raise ValueError("void complex has no bounds to check")
    b = total_betti(k, field)
    m = len(k.facets)
    nonfaces = minimal_nonfaces(k)
    cls = class_membership(k)
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
    return {
        "n": k.n,
        "m": m,
        "m_nonfaces": len(nonfaces),
        "b": b,
        "class": cls,
        "bounds": bounds,
        "all_pass": all(entry["pass"] for entry in bounds),
    }


def check_vanishing(k: Complex, field: FieldSpec = GF2) -> dict:
    """Check that homology vanishes above n(d-1)/d - 1, where d is the
    largest minimal non-face size."""
    if k.is_void:
        raise ValueError("void complex has nothing to check")
    cls = class_membership(k)
    d = cls["min_nonface_max_size"]
    bv = betti(k, field)
    top = bv.top_degree()
    if d < 1:
        # full simplex: contractible, nothing above any threshold
        return {"d": d, "threshold": None, "top_nonzero_degree": top, "pass": top is None}
    threshold = Fraction(k.n * (d - 1), d) - 1
    violating = [deg for deg, b in bv.by_degree if Fraction(deg) > threshold and b > 0]
    return {
        "d": d,
        "threshold": float(threshold),
        "top_nonzero_degree": top,
        "pass": not violating,
    }
