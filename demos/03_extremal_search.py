"""Exhaustive extremal search over small graph classes.

Enumerates one representative per isomorphism class, maximizes the total
Betti number, and certifies every value against the theorem bound.
"""

from flagbetti import conjecture_checks, maximize, moon_moser_check

print("== maximizing b over all graphs ==")
print(f"{'n':>2} {'classes':>8} {'max b':>6}  maximizers (graph6)")
for n in range(1, 8):
    rep = maximize("b", "all", n=n)
    print(f"{n:>2} {rep.graphs_examined:>8} {rep.max_value:>6}  "
          f"{' '.join(rep.maximizers[:4])}{' ...' if len(rep.maximizers) > 4 else ''}")
    assert rep.all_within_bound

print()
print("== triangle-free graphs against the gamma bound ==")
for n in range(1, 9):
    rep = maximize("b", "triangle_free", n=n)
    print(f"n={n}: max b = {rep.max_value}, all within gamma^n: {rep.all_within_bound}")

print()
print("== facet counts vs the 3^(n/3) cap ==")
for n in range(3, 9):
    rep = moon_moser_check(n)
    print(f"n={n}: max facets = {rep['max_facets']} "
          f"({rep['max_facets_graph6']}), within bound: {rep['within_bound']}")

print()
print("== conjecture probe: are triangle-free maximizers bipartite? ==")
rep = conjecture_checks(8)
print(f"n=8: max b = {rep['triangle_free_max_b']}, "
      f"all maximizers bipartite: {rep['all_maximizers_bipartite']}, "
      f"some maximizer bipartite: {rep['some_maximizer_bipartite']}")
for m in rep["maximizers"]:
    print(f"  {m['graph6']}: bipartite={m['is_bipartite']} connected={m['is_connected']}")
