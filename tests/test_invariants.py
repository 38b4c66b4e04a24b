from decimal import getcontext
from fractions import Fraction
from math import comb, isqrt

import pytest

from flagbetti import invariants
from flagbetti.complexes import independence_complex, skeleton_simplex, suspension
from flagbetti.constructions import fano_bip, fano_complex, neighbourhood_power
from flagbetti.graphs import (
    complete,
    copies,
    crown,
    cycle,
    disjoint_union,
    empty_graph,
    encode_graph6,
    from_edges,
)
from flagbetti.homology import GF2, GF3, RATIONALS, BettiVector, betti, total_betti
from flagbetti.invariants import (
    Enclosure,
    b_graph,
    beta_complete_closed,
    beta_crown_closed,
    betti_graph,
    bisect_root,
    check_bounds,
    check_complex_bounds,
    check_vanishing,
    conjecture_base_enclosure,
    gamma_enclosure,
    gamma_power,
    hochster_beta,
    solve_constants,
    theta_enclosure,
    theta_power,
    theta_small_enclosure,
)
from flagbetti.search import enumerate_graphs
from conftest import random_graph
from oracles import bisect_root_oracle


class TestEnclosure:
    def test_arithmetic(self):
        e = Enclosure(Fraction(1), Fraction(2))
        sq = e * e
        assert (sq.lo, sq.hi) == (1, 4)
        p = e**3
        assert (p.lo, p.hi) == (1, 8)
        assert e.plus_int(1).lo == 2

    def test_holds_upper_bound(self):
        e = Enclosure(Fraction(3, 2), Fraction(8, 5))
        assert e.holds_upper_bound(1)
        assert not e.holds_upper_bound(2)
        with pytest.raises(ArithmeticError):
            e.holds_upper_bound(Fraction(31, 20))

    def test_bisect_root(self):
        # golden ratio as the root of x^2 - x - 1
        enc = bisect_root((-1, -1, 1))
        assert enc.lo < enc.hi and enc.hi - enc.lo == Fraction(1, 2**120)
        assert enc.lo**2 - enc.lo - 1 < 0 < enc.hi**2 - enc.hi - 1
        assert abs(float(enc.midpoint()) - (1 + 5**0.5) / 2) < 1e-12

    def test_bisect_errors(self):
        with pytest.raises(ValueError):
            bisect_root((10, 1))  # x + 10 > 0 on [1, 2]

    @pytest.mark.parametrize("coeffs, root", [
        ((-1, 0, 1), Fraction(1)),  # at lo
        ((-4, 0, 1), Fraction(2)),  # at hi
        ((-3, 2), Fraction(3, 2)),  # the first midpoint
    ])
    def test_bisect_exact_roots(self, coeffs, root):
        enc = bisect_root(coeffs)
        assert (enc.lo, enc.hi) == (root, root)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_enclosures_equal_fraction_bisection(self, d):
        """Endpoint for endpoint, the integer bisection gives what 120
        exact Fraction halvings of [1, 2] give."""
        cases = [
            (theta_enclosure(d), lambda x: x ** (d + 1) - d),
            (gamma_enclosure(d), lambda x: x ** (2 * d) - sum(x**i for i in range(d))),
            (theta_small_enclosure(d), lambda x: x**d - sum(x**i for i in range(d))),
        ]
        if d >= 2:
            cases.append(
                (conjecture_base_enclosure(d), lambda x: x ** (2 * d + 1) - comb(2 * d, d - 1))
            )
        for enc, poly in cases:
            assert (enc.lo, enc.hi) == bisect_root_oracle(poly)


class TestConstants:
    def test_decimal_str_keeps_global_context(self):
        prec = getcontext().prec
        solve_constants(10).theta.decimal_str(18)
        assert getcontext().prec == prec

    def test_theta_digits(self):
        # 4^(1/5) = 1.31950791077289425...
        assert theta_enclosure(4).decimal_str(15).startswith("1.31950791077289")
        mid = theta_enclosure(4).midpoint()
        assert abs(mid**5 - 4) < Fraction(1, 10**12)

    def test_gamma(self):
        g = gamma_enclosure(3)
        assert Fraction(12498, 10000) < g.lo <= g.hi < Fraction(12499, 10000)
        mid = g.midpoint()
        assert abs(mid**6 - (1 + mid + mid * mid)) < Fraction(1, 10**12)

    def test_theta_small_2_is_golden_ratio(self):
        mid = theta_small_enclosure(2).midpoint()
        assert abs(float(mid) - (1 + 5**0.5) / 2) < 1e-12

    def test_theta_power_exact_multiples_of_5(self):
        for n in (0, 5, 10, 15):
            e = theta_power(n)
            assert e.lo == e.hi == 4 ** (n // 5)

    def test_conjecture_base(self):
        e = conjecture_base_enclosure(2)
        assert abs(float(e.midpoint()) ** 5 - comb(4, 1)) < 1e-10

    def test_solver(self):
        c = solve_constants(12)
        assert c.theta_maximal_up_to == 12
        assert all(v < 1e-12 for v in c.residuals.values())
        j = c.to_json_dict()
        assert j["theta"].startswith("1.319507910")
        assert j["gamma"].startswith("1.249851588")

    def test_maximality_sweep_d50(self):
        c = solve_constants(50)
        theta = c.theta
        for d, e in c.theta_d.items():
            assert e.certainly_at_most(theta) or d == 4
        gamma = c.gamma
        for d, e in c.gamma_d.items():
            assert e.certainly_at_most(gamma) or d == 3


class TestGraphBetti:
    def test_examples(self):
        assert b_graph(complete(5)) == 4
        assert b_graph(copies(2, complete(5))) == 16
        assert b_graph(empty_graph(0)) == 1
        assert b_graph(empty_graph(3)) == 0  # Ind is a simplex
        assert betti_graph(cycle(5)).by_degree == ((1, 1),)  # a circle
        assert betti_graph(copies(2, cycle(5))).by_degree == ((3, 1),)  # S^1 * S^1 = S^3
        assert betti_graph(empty_graph(0)).by_degree == ((-1, 1),)


class TestGraphReductions:
    """betti_graph reduces g before homology; the unreduced path
    betti(independence_complex(g)) is the oracle."""

    @pytest.mark.parametrize("n, cls", [(n, "all") for n in range(9)] + [(9, "triangle_free")])
    def test_reduced_equals_unreduced(self, n, cls):
        for g in enumerate_graphs(n, cls):
            k = independence_complex(g)
            for field in (GF2, GF3, RATIONALS):
                assert betti_graph(g, field) == betti(k, field), (encode_graph6(g), field)

    def test_isolated_vertex_is_a_cone(self, monkeypatch):
        # no complex is built: 2^23 faces would exceed the face cap
        monkeypatch.setattr(invariants, "betti", None)
        assert betti_graph(empty_graph(23), RATIONALS) == BettiVector((), RATIONALS)
        assert b_graph(disjoint_union(complete(5), empty_graph(1))) == 0

    def test_homology_runs_only_on_irreducible_components(self, monkeypatch):
        sizes = []

        def counting_betti(k, field):
            sizes.append(k.n)
            return betti(k, field)

        monkeypatch.setattr(invariants, "betti", counting_betti)
        # Ind(K3) is three points (b_0 = 2); three triangles join them, 2*2*2 in degree 2
        assert betti_graph(copies(3, complete(3))).by_degree == ((2, 8),)
        assert sizes == [3, 3, 3]
        sizes.clear()
        # the path 0-1-2-3 loses 2 (N(0) inside N(2)), which leaves 3 isolated
        assert betti_graph(from_edges(4, [(0, 1), (1, 2), (2, 3)])).by_degree == ()
        assert sizes == []
        # the path on 5 vertices folds to two edges: S^0 * S^0 = S^1
        assert betti_graph(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])).by_degree == ((1, 1),)
        assert sizes == [2, 2]


class TestHochster:
    def test_closed_forms(self):
        for s in range(1, 8):
            assert hochster_beta(complete(s)).beta_total == beta_complete_closed(s)
        for s in range(1, 5):
            assert hochster_beta(crown(s)).beta_total == beta_crown_closed(s)

    def test_known_values(self):
        assert beta_complete_closed(3) == 6
        assert beta_crown_closed(2) == 4
        assert hochster_beta(complete(3)).beta_total == 6

    def test_multiplicative_over_disjoint_union(self, rng):
        for _ in range(8):
            g = random_graph(rng, rng.randint(1, 4))
            h = random_graph(rng, rng.randint(1, 4))
            assert (
                hochster_beta(disjoint_union(g, h)).beta_total
                == hochster_beta(g).beta_total * hochster_beta(h).beta_total
            )

    def test_cap(self):
        with pytest.raises(ValueError):
            hochster_beta(empty_graph(15))

    def test_workers_match_serial(self):
        g = crown(3)
        serial = hochster_beta(g)
        parallel = hochster_beta(g, workers=2)
        assert serial == parallel

    def test_workers_clamped_to_cpus(self, monkeypatch):
        from flagbetti import invariants

        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(invariants, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(invariants.os, "cpu_count", lambda: 3)
        g = crown(5)  # 2^10 subsets, the least that is split into chunks
        serial = hochster_beta(g)
        assert serial.beta_total == beta_crown_closed(5)
        assert hochster_beta(g, workers=10**6) == serial
        assert seen == [3]
        monkeypatch.setattr(invariants.os, "cpu_count", lambda: None)
        assert hochster_beta(g, workers=4) == serial
        assert seen == [3]  # one usable CPU: no pool at all

    def test_histogram_sums(self):
        rep = hochster_beta(complete(4))
        assert sum(rep.per_subset_histogram.values()) == rep.beta_total
        # single vertices contribute nothing; pairs of adjacent vertices 1 each
        assert rep.per_subset_histogram.get(1, 0) == 0
        assert rep.per_subset_histogram[2] == 6


class TestBoundReports:
    def test_k5_bounds(self):
        rep = check_bounds(complete(5))
        assert rep["b"] == 4
        entry = rep["bounds"][0]
        assert entry["name"] == "b-le-theta^n"
        assert entry["pass"] and entry["exact_equality"]
        assert rep["all_pass"]

    def test_triangle_free_adds_gamma(self):
        rep = check_bounds(cycle(5), include_beta=True)
        names = [e["name"] for e in rep["bounds"]]
        assert names == [
            "b-le-theta^n",
            "b-le-gamma^n",
            "beta-le-(theta+1)^n",
            "beta-le-(gamma+1)^n",
        ]
        assert rep["all_pass"]

    def test_fano_complex_bounds(self):
        k = fano_complex().complex_
        rep = check_complex_bounds(k)
        assert rep["b"] == 8
        assert rep["m"] == 7
        # 8 <= gamma^14 ~ 22.7 holds
        by_name = {e["name"]: e for e in rep["bounds"]}
        assert by_name["b-le-gamma^(n+m)"]["pass"]
        assert rep["all_pass"]

    def test_neighbourhood_double_power(self):
        case = neighbourhood_power(8)
        from flagbetti.complexes import neighbourhood_complex

        b = total_betti(neighbourhood_complex(case.graph))
        assert b == 9
        assert gamma_power(16).holds_upper_bound(b)

    def test_skeleton_complex_bound(self):
        # 1-skeleton of the 6-simplex: b = C(6,2) = 15, all minimal
        # non-faces have 3 vertices, 15 <= theta_3^7 ~ 77
        k = skeleton_simplex(6, 1)
        rep = check_complex_bounds(k)
        assert rep["b"] == 15
        by_name = {e["name"]: e for e in rep["bounds"]}
        assert by_name["b-le-thetasmall_dF^n"]["pass"]
        assert rep["all_pass"]


class TestVanishing:
    def test_flag_threshold(self):
        # flag complex on n vertices: homology vanishes above n/2 - 1
        k = independence_complex(cycle(5))
        rep = check_vanishing(k)
        assert rep["d"] == 2
        assert rep["threshold"] == 5 / 2 - 1
        assert rep["pass"]

    def test_simplex(self):
        from flagbetti.complexes import simplex

        rep = check_vanishing(simplex(4))
        assert rep["d"] == 0 and rep["pass"]

    def test_fano(self):
        rep = check_vanishing(fano_complex().complex_)
        assert rep["d"] == 3 and rep["pass"]


class TestSuspensionIdentity:
    def test_bip_graph_suspends(self):
        # Ind of the non-incidence graph of K has the Betti numbers of
        # the suspension of K; total b is preserved
        case = fano_bip()
        assert b_graph(case.graph) == 8
        k = fano_complex().complex_
        susp = suspension(k)
        assert total_betti(susp) == total_betti(k)
        assert betti_graph(case.graph).by_degree == ((2, 8),)


class TestEulerBound:
    def test_abs_euler_at_most_b(self, rng):
        from flagbetti.complexes import independence_complex as ind
        from flagbetti.homology import reduced_euler

        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            k = ind(g)
            assert abs(reduced_euler(k)) <= total_betti(k)
