import random
from decimal import getcontext
from fractions import Fraction
from math import comb, isqrt

import pytest

from flagbetti import invariants
from flagbetti.complexes import EMPTY, independence_complex, skeleton_simplex, suspension
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
    induced,
    parse_graph6,
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
    conjecture_base_enclosure,
    conjecture_power,
    gamma_enclosure,
    gamma_power,
    hochster_beta,
    solve_constants,
    theta_enclosure,
    theta_small_enclosure,
)
from flagbetti.search import enumerate_graphs
from conftest import random_graph
from oracles import (
    bisect_root_oracle,
    fold_oracle,
    hochster_histogram_oracle,
    integer_bisection_oracle,
)


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

    def test_bracket_on_one_to_three(self):
        """The bracket check and the exact roots at both ends of [1, 3]."""
        assert invariants._root_of_power(1, 5) == Enclosure.exact(1)
        assert invariants._root_of_power(3**7, 7) == Enclosure.exact(3)
        with pytest.raises(ValueError):
            bisect_root((-(3**5) - 1,) + (0,) * 4 + (1,), 1, 3)  # x^5 - 244 < 0 at 3

    def test_warm_start_equals_integer_bisection(self):
        """Endpoint for endpoint, bisect_root gives what the plain integer
        bisection gives: on the four families up to d = 50 and at d = 100,
        and theta_small for every d up to 100, whose single sign change lets
        the estimate order the first probes, and on polynomials where it
        does not, or cannot."""
        scale = 1 << 120

        def families(d):
            out = [
                (d, (-d,) + (0,) * d + (1,), 1, 3),
                (d, (-1,) * d + (0,) * d + (1,), 1, 2),
                (d, (-1,) * d + (1,), 1, 2),
            ]
            if d >= 2:
                out.append((d, (-comb(2 * d, d - 1),) + (0,) * (2 * d) + (1,), 1, 3))
            return out

        one_sign_change = [c for d in range(1, 51) for c in families(d)]
        one_sign_change += [(d, (-1,) * d + (1,), 1, 2) for d in range(51, 100)] + families(100)
        for d, coeffs, lo, hi in one_sign_change:
            enc = bisect_root(coeffs, lo, hi)
            assert (enc.lo, enc.hi) == integer_bisection_oracle(coeffs, lo, hi), coeffs
            if enc.lo < enc.hi:  # the estimate is the floor
                assert invariants._root_estimate(coeffs, lo, hi, scale) == enc.lo * scale, coeffs
        others = [
            ((-336, 688, -467, 105), 1, 2),  # (3x - 4)(5x - 7)(7x - 12): three roots
            ((-(scale + 1), scale), 1, 2),  # the exact root 1 + 2^-120
            ((-5, 4), 1, 2),  # the exact root 5/4
        ]
        for coeffs, lo, hi in others:
            enc = bisect_root(coeffs, lo, hi)
            assert (enc.lo, enc.hi) == integer_bisection_oracle(coeffs, lo, hi), coeffs
        assert bisect_root(*others[1]).lo == Fraction(scale + 1, scale)

    @pytest.mark.parametrize("value, degree", [
        (2**1000, 792),  # 2.5^792 overflows a float partway through
        (3**700 - 1, 700),  # the constant term overflows a float
    ], ids=["power", "coefficient"])
    def test_estimate_overflow_falls_through(self, value, degree):
        """Where the float estimate overflows it gives None, and the full
        bisection runs."""
        coeffs = (-value,) + (0,) * (degree - 1) + (1,)
        assert invariants._root_estimate(coeffs, 1, 3, 1 << 120) is None
        enc = invariants._root_of_power(value, degree)
        assert (enc.lo, enc.hi) == integer_bisection_oracle(coeffs, 1, 3)

    @pytest.mark.parametrize("wrong", [
        lambda k, a, b: None,
        lambda k, a, b: k - 1,
        lambda k, a, b: k + 1,
        lambda k, a, b: a,
        lambda k, a, b: b,
        lambda k, a, b: a - 1,
    ], ids=["none", "one-below", "one-above", "at-lo", "at-hi", "outside"])
    def test_wrong_estimate_falls_through(self, monkeypatch, wrong):
        """An estimate that fails the exact sign test, or lies outside the
        bracket, leaves the plain bisection to run."""
        estimate = invariants._root_estimate
        monkeypatch.setattr(invariants, "_root_estimate",
                            lambda c, lo, hi, s: wrong(estimate(c, lo, hi, s), lo * s, hi * s))
        for coeffs, lo, hi in [((-1, -1, 1), 1, 2), ((-4,) + (0,) * 4 + (1,), 1, 3),
                               ((-1,) * 7 + (0,) * 7 + (1,), 1, 2)]:
            enc = bisect_root(coeffs, lo, hi)
            assert (enc.lo, enc.hi) == integer_bisection_oracle(coeffs, lo, hi)
            assert enc.hi - enc.lo == Fraction(1, 1 << 120)

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

    def test_conjecture_power_exact_at_multiples_of_2d_plus_1(self):
        # d = 2 is theta^n = 4^(n/5); d = 3 is 15^(n/7)
        for n in (0, 5, 10, 15):
            e = conjecture_power(2, n)
            assert e.lo == e.hi == 4 ** (n // 5)
        for n in (0, 7, 14):
            e = conjecture_power(3, n)
            assert e.lo == e.hi == 15 ** (n // 7)
        assert conjecture_power(2, 6).lo < conjecture_power(2, 6).hi

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

    def test_theta_small_2_residual_only_once_solved(self):
        # theta_small_d[2] is solved only from d_max = 2 on
        assert "theta_small_2" not in solve_constants(1).residuals
        assert "theta_small_2" in solve_constants(2).residuals

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

    def test_cycles_match_kozlov(self):
        """Ind(C_n) is S^(k-1) v S^(k-1) for n = 3k, S^(k-1) for n = 3k+1
        and S^k for n = 3k+2 (Kozlov)."""
        for n in range(3, 61):
            k, r = divmod(n, 3)
            expect = (((k - 1, 2),), ((k - 1, 1),), ((k, 1),))[r]
            for field in (GF2, GF3, RATIONALS):
                assert betti_graph(cycle(n), field).by_degree == expect, (n, field)


class TestGraphReductions:
    """betti_graph reduces g before homology; the unreduced path
    betti(independence_complex(g)) is the oracle."""

    @pytest.mark.parametrize("n, cls", [(n, "all") for n in range(9)] + [(9, "triangle_free")])
    def test_reduced_equals_unreduced(self, n, cls):
        for g in enumerate_graphs(n, cls):
            k = independence_complex(g)
            for field in (GF2, GF3, RATIONALS):
                assert betti_graph(g, field) == betti(k, field), (encode_graph6(g), field)

    def test_fold_matches_oracle_on_classes(self):
        for n in range(9):
            for g in enumerate_graphs(n, "all"):
                assert invariants._fold(g.adj, g.vertex_mask) == fold_oracle(g), encode_graph6(g)

    def test_fold_matches_oracle_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(2000):
            g = random_graph(rng, rng.randint(0, 14), rng.random())
            assert invariants._fold(g.adj, g.vertex_mask) == fold_oracle(g), encode_graph6(g)

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
        # the path on 5 vertices folds to two edges: S^0 * S^0 = S^1, with no call
        assert betti_graph(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])).by_degree == ((1, 1),)
        assert sizes == []
        # Ind(C5) is S^1, settled at vertex 0 as P4 (acyclic) plus S^0 one
        # degree up; the edge suspends it to S^2, with no call
        for field in (GF2, GF3, RATIONALS):
            assert betti_graph(disjoint_union(cycle(5), complete(2)), field).by_degree == ((2, 1),)
        assert sizes == []
        # four edges: S^0 joined four times is S^3
        assert betti_graph(copies(4, complete(2))).by_degree == ((3, 1),)
        # an isolated vertex makes a cone, edge or not
        assert betti_graph(disjoint_union(complete(2), empty_graph(1))).by_degree == ()
        assert sizes == []
        # K_m for m >= 3 stays on betti: K4 makes exactly one call
        assert b_graph(complete(4)) == 3
        assert sizes == [4]

    def test_fallback_reaches_betti(self, monkeypatch):
        """GoOgok is the one class with n <= 8 where both conditions fail at
        the vertex chosen, so its whole Ind, 8 vertices, goes to betti."""
        g = parse_graph6("GoOgok")
        expect = {field: betti(independence_complex(g), field) for field in (GF2, GF3, RATIONALS)}
        sizes = []

        def counting_betti(k, field):
            sizes.append(k.n)
            return betti(k, field)

        monkeypatch.setattr(invariants, "betti", counting_betti)
        for field, bv in expect.items():
            assert betti_graph(g, field) == bv
        assert sizes == [8, 8, 8]


class TestHochster:
    def test_closed_forms(self):
        for s in range(1, 17):
            assert hochster_beta(complete(s)).beta_total == beta_complete_closed(s)
        for s in range(1, 9):
            assert hochster_beta(crown(s)).beta_total == beta_crown_closed(s)

    @pytest.mark.parametrize("n, fields", [(n, (GF2, GF3, RATIONALS)) for n in range(7)] + [(7, (GF2,))])
    def test_histogram_equals_oracle_on_classes(self, n, fields):
        for g in enumerate_graphs(n):
            for field in fields:
                hist = hochster_histogram_oracle(g, field)
                assert hochster_beta(g, field).per_subset_histogram == hist, (encode_graph6(g), field)

    def test_histogram_equals_oracle_on_random_graphs(self, rng):
        for i in range(20):
            g = random_graph(rng, rng.randint(8, 12), rng.choice((0.2, 0.35, 0.5, 0.7)))
            field = (GF2, GF3, RATIONALS)[i % 3]
            hist = hochster_histogram_oracle(g, field)
            assert hochster_beta(g, field).per_subset_histogram == hist, (encode_graph6(g), field)

    @pytest.mark.parametrize("n, fields", [(n, (GF2, GF3, RATIONALS)) for n in range(7)] + [(7, (GF2,))])
    def test_each_condition_alone_is_exact(self, n, fields):
        """Wherever one of the two conditions holds at a vertex v, the
        vector of G - v plus that of G - N[v] one degree up is G's.  From
        n = 5 on, each condition is the only one to hold somewhere."""
        alone = {"disjoint": 0, "dominated": 0}

        def unreduced(h, field):  # not betti_graph, which takes the step under test
            return betti(independence_complex(h), field).by_degree

        for g in enumerate_graphs(n):
            full = g.vertex_mask
            for field in fields:
                whole = unreduced(g, field)
                for v in range(n):
                    a = unreduced(induced(g, full & ~(1 << v)), field)
                    b = unreduced(induced(g, full & ~g.adj[v] & ~(1 << v)), field)
                    disjoint = invariants._disjoint_supports(a, b)
                    dominated = invariants._dominated(g.adj, full, v)
                    if disjoint or dominated:
                        assert invariants._splice(a, b) == whole, (encode_graph6(g), v, field)
                    alone["disjoint"] += disjoint and not dominated
                    alone["dominated"] += dominated and not disjoint
        if n >= 5:
            assert alone["disjoint"] and alone["dominated"]

    def test_fallback_reaches_betti_graph(self, monkeypatch):
        hist = hochster_histogram_oracle(cycle(13), GF2)
        calls = []

        def counting_betti_graph(g, field):
            calls.append(g.n)
            return betti_graph(g, field)

        monkeypatch.setattr(invariants, "betti_graph", counting_betti_graph)
        assert hochster_beta(cycle(13)).per_subset_histogram == hist
        assert len(calls) == 8
        calls.clear()
        assert hochster_beta(crown(6)).beta_total == beta_crown_closed(6)
        assert calls == []

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
        with pytest.raises(ValueError, match="n=19 > cap=18"):
            hochster_beta(empty_graph(19))

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
        rep = check_complex_bounds(k)
        assert rep["class"]["min_nonface_max_size"] == 2
        assert rep["vanishing"]["threshold"] == 5 / 2 - 1
        assert rep["vanishing"]["pass"] and rep["all_pass"]

    def test_simplex(self):
        from flagbetti.complexes import simplex

        rep = check_complex_bounds(simplex(4))
        assert rep["class"]["min_nonface_max_size"] == 0
        assert rep["vanishing"] == {"threshold": -1.0, "top_nonzero_degree": None, "pass": True}

    def test_empty_complex(self):
        # {emptyset} has no non-faces and b_-1 = 1, at the threshold -1, not above it
        rep = check_complex_bounds(EMPTY)
        assert rep["vanishing"] == {"threshold": -1.0, "top_nonzero_degree": -1, "pass": True}
        assert rep["all_pass"]

    def test_fano(self):
        rep = check_complex_bounds(fano_complex().complex_)
        assert rep["class"]["min_nonface_max_size"] == 3
        assert rep["vanishing"]["pass"]


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
