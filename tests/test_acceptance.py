"""Acceptance suite: one test per top-level criterion.

Each test prints a single pass/fail line on the live terminal (bypassing
capture) in addition to its assertions, and the timed criteria assert
their runtime budgets.
"""

import time

from flagbetti.complexes import (
    alexander_dual,
    bip_graph,
    delete_vertex,
    dominance_complex,
    independence_complex,
    link,
    neighbourhood_complex,
)
from flagbetti.constructions import (
    fano_bip,
    fano_complex,
    golden_cases,
    missing_face_complex,
    neighbourhood_power,
    union_of_cliques,
)
from flagbetti.graphs import complete, copies, disjoint_union, join_sum
from flagbetti.homology import GF2, GF3, RATIONALS, betti, reduced_euler, total_betti
from flagbetti.invariants import (
    b_graph,
    beta_complete_closed,
    beta_crown_closed,
    gamma_enclosure,
    gamma_power,
    hochster_beta,
    solve_constants,
    theta_enclosure,
    theta_small_enclosure,
)
from flagbetti.search import (
    conjecture_checks,
    enumerate_graphs,
    flag_vanishing_sweep,
    maximize,
    moon_moser_check,
)
from flagbetti.verify import run_table1
from flagbetti.graphs import crown
from conftest import random_complex, random_graph
import random


def _report(capsys, criterion: str, ok: bool):
    with capsys.disabled():
        print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_golden_values(capsys):
    start = time.monotonic()
    checks = []
    checks.append(b_graph(complete(5)) == 4)
    checks.append(b_graph(copies(2, complete(5))) == 16)
    fano = fano_complex().complex_
    bv = betti(fano)
    checks.append(bv.total() == 8 and bv[1] == 8)
    fb = fano_bip()
    checks.append(fb.graph.n == 14 and b_graph(fb.graph) == 8)
    checks.append(total_betti(neighbourhood_complex(copies(2, complete(2)))) == 3)
    checks.append(
        total_betti(neighbourhood_complex(neighbourhood_power(8).graph)) == 9
    )
    k73 = missing_face_complex(7, 3)
    checks.append(total_betti(k73.complex_) == 15 == k73.expected)
    elapsed = time.monotonic() - start
    checks.append(elapsed < 10)
    _report(capsys, "criterion 1 (golden values, < 10 s)", all(checks))


def test_criterion_2_hochster_closed_forms(capsys):
    start = time.monotonic()
    ok = True
    for s in range(1, 10):
        ok = ok and hochster_beta(complete(s)).beta_total == beta_complete_closed(s)
    ok = ok and beta_complete_closed(9) == 1794
    for s in range(1, 6):
        ok = ok and hochster_beta(crown(s)).beta_total == beta_crown_closed(s)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _report(capsys, "criterion 2 (Hochster closed forms, < 5 min)", ok)


def test_criterion_3_constants(capsys):
    from fractions import Fraction

    theta = theta_enclosure(4)
    ok = theta.decimal_str(15).startswith("1.31950791077289")
    ok = ok and theta.hi - theta.lo < Fraction(1, 10**12)
    gamma = gamma_enclosure(3)
    mid = gamma.midpoint()
    # residual of the defining equation x^-4 + x^-5 + x^-6 = 1
    residual = abs(float(mid**-4 + mid**-5 + mid**-6 - 1))
    ok = ok and residual < 1e-12
    ok = ok and Fraction(12498, 10000) <= gamma.lo and gamma.hi <= Fraction(12501, 10000)
    small = theta_small_enclosure(2).midpoint()
    ok = ok and abs(float(small) - (1 + 5**0.5) / 2) < 1e-12
    c = solve_constants(50)  # raises if a maximality sweep fails
    ok = ok and c.theta_maximal_up_to == 50 and c.gamma_maximal_up_to == 50
    _report(capsys, "criterion 3 (constants and maximality sweeps d <= 50)", ok)


def test_criterion_4_exhaustive_bounds(capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        ok = ok and maximize("b", "all", n=n).all_within_bound
    for n in range(1, 10):
        ok = ok and maximize("b", "triangle_free", n=n).all_within_bound
    for n in range(1, 9):
        ok = ok and moon_moser_check(n)["within_bound"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1800
    _report(capsys, "criterion 4 (exhaustive bound verification, < 30 min)", ok)


def test_criterion_5_extremal_uniqueness_n5(capsys):
    rep = maximize("b", "all", n=5)
    ok = rep.max_value == 4 and rep.maximizers == ["D~{"] and rep.graphs_examined == 34
    _report(capsys, "criterion 5 (unique maximizer K_5 at n=5)", ok)


def test_criterion_6_property_suites(capsys):
    rng = random.Random(987654)
    ok = True

    # join multiplicativity, exhaustive over class pairs with n_G+n_H <= 8
    reps = {n: enumerate_graphs(n, "all") for n in range(1, 8)}
    b_cache = {n: [b_graph(g) for g in reps[n]] for n in reps}
    for ng in range(1, 8):
        for nh in range(1, 8 - ng + 1):
            for i, g in enumerate(reps[ng]):
                for j, h in enumerate(reps[nh]):
                    if b_graph(disjoint_union(g, h)) != b_cache[ng][i] * b_cache[nh][j]:
                        ok = False

    # cofibre inequality, exhaustive n <= 7, every vertex
    for n in range(2, 8):
        for g in reps[n]:
            k = independence_complex(g)
            total = total_betti(k)
            for v in range(n):
                if total > total_betti(delete_vertex(k, v)) + total_betti(link(k, v)):
                    ok = False

    # Alexander duality, 100 random cases
    checked = 0
    while checked < 100:
        k = random_complex(rng, rng.randint(1, 8))
        dual = alexander_dual(k)
        if dual.is_void:
            continue
        bk = dict(betti(k).by_degree)
        bd = dict(betti(dual).by_degree)
        for i in range(-1, k.n):
            if bk.get(i, 0) != bd.get(k.n - i - 3, 0):
                ok = False
        checked += 1

    # Bip suspension: b(Ind(Bip(K))) = b(K), 100 random cases
    checked = 0
    while checked < 100:
        k = random_complex(rng, rng.randint(1, 5))
        if k.n == 0:
            continue
        if b_graph(bip_graph(k)) != total_betti(k):
            ok = False
        checked += 1

    # neighbourhood join multiplicativity, 100 random pairs
    checked = 0
    while checked < 100:
        g = random_graph(rng, rng.randint(2, 4))
        h = random_graph(rng, rng.randint(2, 4))
        if any(not g.adj[v] for v in range(g.n)) or any(not h.adj[v] for v in range(h.n)):
            continue
        lhs = total_betti(neighbourhood_complex(join_sum(g, h)))
        rhs = total_betti(neighbourhood_complex(g)) * total_betti(neighbourhood_complex(h))
        if lhs != rhs:
            ok = False
        checked += 1

    # vanishing above n/2 - 1 for every flag complex from graphs n <= 9
    for n in range(1, 10):
        sweep = flag_vanishing_sweep(n)
        if not sweep["pass"]:
            ok = False
    # the n = 9 sweep examines the degree- and twin-filtered one-vertex
    # extensions of each 8-vertex class with alpha + 1 >= 5 and computes
    # homology where the child's independence number allows it
    assert (sweep["graphs_examined"], sweep["homology_computed"]) == (292_290, 46_959)

    # Euler-Poincare over three fields, 100 random cases
    for _ in range(100):
        k = random_complex(rng, rng.randint(1, 7))
        chi = reduced_euler(k)
        for f in (GF2, GF3, RATIONALS):
            bv = betti(k, f)
            if chi != sum((-1) ** d * b for d, b in bv.by_degree):
                ok = False

    # field agreement on every golden case
    for case in golden_cases():
        values = {f: case.computed(f) for f in (GF2, GF3, RATIONALS)}
        if len(set(values.values())) != 1 or values[GF2] != case.expected:
            ok = False

    _report(capsys, "criterion 6 (property suites, zero failures)", ok)


def test_criterion_7_complex_bounds(capsys):
    ok = True
    fano = fano_complex().complex_
    ok = ok and gamma_power(fano.n + len(fano.facets)).holds_upper_bound(
        total_betti(fano)
    )
    for n in range(1, 8):
        for g in enumerate_graphs(n, "all"):
            k = independence_complex(g)
            b = total_betti(k)
            # for flag complexes the minimal non-faces are the edges
            if not gamma_power(n + g.edge_count()).holds_upper_bound(b):
                ok = False
            bn = total_betti(neighbourhood_complex(g))
            if not gamma_power(2 * n).holds_upper_bound(bn):
                ok = False
            bd = total_betti(dominance_complex(g))
            if not gamma_power(2 * n).holds_upper_bound(bd):
                ok = False
    _report(capsys, "criterion 7 (complex-level bound spot checks)", ok)


def test_criterion_8_table1(capsys):
    result = run_table1(GF2)
    ok = result["all_pass"]
    published = {r["name"]: r["published_base"] for r in result["constructions"]}
    ok = ok and published == {
        "b-general": "1.320",
        "b-triangle-free": "1.160",
        "b-neighbourhood": "1.316",
        "beta-general": "2.299",
        "beta-triangle-free": "2.070",
    }
    upper = {r["name"]: r["base_3dp"] for r in result["upper_bounds"]}
    ok = ok and upper == {
        "theta": "1.320",
        "gamma": "1.250",
        "gamma-squared": "1.562",
        "theta-plus-1": "2.320",
        "gamma-plus-1": "2.250",
    }
    _report(capsys, "criterion 8 (summary table reproduction)", ok)


def test_criterion_9_conjecture_harness(capsys):
    ok = True
    for n in (7, 8, 9):
        rep = conjecture_checks(n)
        for key in (
            "triangle_free_max_b",
            "maximizers",
            "all_maximizers_bipartite",
            "some_maximizer_bipartite",
            "theorem_bound_violations",
            "bounds_violated",
        ):
            if key not in rep:
                ok = False
        if rep["bounds_violated"]:
            ok = False
        if not all("is_bipartite" in m for m in rep["maximizers"]):
            ok = False
    _report(capsys, "criterion 9 (conjecture harness n <= 9)", ok)
