from collections import Counter

import pytest

from flagbetti import complexes
from flagbetti.complexes import (
    EMPTY,
    VOID,
    Complex,
    FaceCapExceeded,
    alexander_dual,
    all_faces,
    bip_graph,
    class_membership,
    delete_vertex,
    dominance_complex,
    from_facets,
    independence_complex,
    join,
    link,
    minimal_nonfaces,
    neighbourhood_complex,
    read_facet_file,
    simplex,
    skeleton_simplex,
    sphere0,
    suspension,
    write_facet_file,
)
from flagbetti.constructions import fano_complex
from flagbetti.graphs import (
    complete,
    copies,
    crown,
    cycle,
    empty_graph,
    from_edges,
    induced,
)
from flagbetti.homology import betti, total_betti
from flagbetti.search import enumerate_graphs
from conftest import random_complex, random_graph
from oracles import (
    alexander_dual_faces_oracle,
    complex_checks_oracle,
    deletion_facets_oracle,
    faces_oracle,
    independent_sets_oracle,
    maximal_independent_sets_oracle,
    minimal_dominating_sets_oracle,
    minimal_nonfaces_oracle,
    link_facets_oracle,
    neighbourhood_facets_oracle,
    squash,
)


class TestBasics:
    def test_void_vs_empty(self):
        assert VOID.is_void and not VOID.is_empty_complex
        assert EMPTY.is_empty_complex and not EMPTY.is_void
        assert EMPTY.dim() == -1
        with pytest.raises(ValueError):
            VOID.dim()

    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            Complex(2, (1, 3))
        with pytest.raises(ValueError):
            Complex(2, (3, 1))
        with pytest.raises(ValueError):
            Complex(1, (2,))

    def test_checks_match_oracle(self, rng):
        # random tuples, sorted or not, with and without repeated facets
        accepted = 0
        for _ in range(20_000):
            n = rng.randint(0, 5)
            facets = [rng.randint(-2, 1 << (n + 1)) for _ in range(rng.randint(0, 5))]
            if facets and rng.random() < 0.3:
                facets.insert(rng.randrange(len(facets) + 1), rng.choice(facets))
            if rng.random() < 0.5:
                facets.sort()
            ok = complex_checks_oracle(n, facets)
            accepted += ok
            try:
                Complex(n, tuple(facets))
            except ValueError:
                assert not ok, (n, facets)
            else:
                assert ok, (n, facets)
        assert 2_000 < accepted < 18_000
        assert not complex_checks_oracle(-1, ())
        with pytest.raises(ValueError):
            Complex(-1, ())

    def test_from_facets_prunes(self):
        k = from_facets(3, [[0], [0, 1], [2]])
        assert k.facets == (3, 4)
        assert k.has_face(1) and k.has_face(0) and not k.has_face(5)

    def test_skeleton(self):
        assert skeleton_simplex(3, 3) == simplex(4)
        k = skeleton_simplex(4, 1)  # 1-skeleton of the 4-simplex: K5 graph
        assert all(bin(f).count("1") == 2 for f in k.facets)
        assert len(k.facets) == 10
        assert skeleton_simplex(2, -1) == Complex(3, (0,))


class TestFromGraphs:
    def test_independence_examples(self):
        assert independence_complex(empty_graph(0)) == EMPTY
        assert independence_complex(complete(2)) == sphere0()
        assert independence_complex(empty_graph(3)) == simplex(3)
        k5 = independence_complex(complete(5))
        assert k5.facets == (1, 2, 4, 8, 16)

    def test_facets_match_oracle(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 8))
            k = independence_complex(g)
            assert set(k.facets) == maximal_independent_sets_oracle(g)
            assert set(all_faces(k)) == set(independent_sets_oracle(g))

    def test_neighbourhood_examples(self):
        assert neighbourhood_complex(empty_graph(4)).is_void
        # N(K2) is two isolated points
        assert neighbourhood_complex(complete(2)) == Complex(2, (1, 2))
        # N(2K2) is four isolated points (after relabelling)
        n22 = neighbourhood_complex(copies(2, complete(2)))
        assert n22.facets == (1, 2, 4, 8)
        # isolated vertices are dropped from the ambient set
        g = from_edges(3, [(0, 2)])
        assert neighbourhood_complex(g).n == 2

    def test_neighbourhood_complete(self):
        k = neighbourhood_complex(complete(4))
        # facets are the open neighbourhoods: all 3-subsets of 4 vertices
        assert k == skeleton_simplex(3, 2)

    def test_dominance_examples(self):
        assert dominance_complex(complete(1)) == Complex(1, (0,))
        path3 = from_edges(3, [(0, 1), (1, 2)])
        # minimal dominating sets of the path: {1}, {0,2}
        d = dominance_complex(path3)
        assert set(d.facets) == {2, 5}
        assert total_betti(d) == 1

    def test_dominance_matches_oracle(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            d = dominance_complex(g)
            full = (1 << g.n) - 1
            # minimal dominating sets form an antichain, so every
            # complement of one is a facet
            assert set(d.facets) == {full ^ s for s in minimal_dominating_sets_oracle(g)}

    def test_dominance_cap(self):
        with pytest.raises(ValueError):
            dominance_complex(empty_graph(25))
        # at the cap: the minimal dominating sets of K24 are its vertices
        d = dominance_complex(complete(24))
        assert d.facets == tuple(sorted(((1 << 24) - 1) ^ 1 << v for v in range(24)))


class TestNonfacesAndDual:
    def test_flag_nonfaces_are_edges(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            k = independence_complex(g)
            edges = {1 << u | 1 << v for u, v in g.edges()}
            assert set(minimal_nonfaces(k)) == edges

    def test_independence_nonfaces_match_oracle_all_classes(self):
        for n in range(7):
            for g in enumerate_graphs(n, "all"):
                k = independence_complex(g)
                assert set(minimal_nonfaces(k)) == minimal_nonfaces_oracle(k), g

    def test_nonfaces_match_oracle(self, rng):
        for _ in range(30):
            k = random_complex(rng, rng.randint(1, 8))
            assert set(minimal_nonfaces(k)) == minimal_nonfaces_oracle(k)

    def test_dual_faces_match_oracle(self, rng):
        for _ in range(30):
            k = random_complex(rng, rng.randint(1, 8))
            dual = alexander_dual(k)
            expect = alexander_dual_faces_oracle(k)
            got = set(all_faces(dual)) if not dual.is_void else set()
            assert got == expect

    def test_dual_involution(self, rng):
        for _ in range(30):
            k = random_complex(rng, rng.randint(1, 8))
            if alexander_dual(k).is_void:
                continue
            assert alexander_dual(alexander_dual(k)) == k

    def test_full_simplex_has_no_nonfaces(self):
        assert minimal_nonfaces(simplex(3)) == ()
        assert alexander_dual(simplex(3)).is_void


class TestBip:
    def test_fano_bip_degrees(self):
        k = fano_complex().complex_
        g = bip_graph(k)
        assert g.n == 14
        # each vertex misses 4 of the 7 triples; each triple misses 4 points
        assert all(g.degree(v) == 4 for v in range(14))

    def test_bip_rejects_void(self):
        with pytest.raises(ValueError):
            bip_graph(VOID)


class TestOperations:
    def test_join_identities(self):
        assert join(EMPTY, simplex(2)) == simplex(2)
        s = join(sphere0(), sphere0())  # S^0 * S^0 = S^1 (a 4-cycle)
        assert total_betti(s) == 1
        assert betti(s)[1] == 1

    def test_suspension_is_sphere_shift(self):
        assert total_betti(suspension(sphere0())) == 1
        assert betti(suspension(sphere0()))[1] == 1
        with pytest.raises(ValueError):
            suspension(VOID)

    def test_link_and_delete_match_graph_operations(self, rng):
        # for Ind(G): lk(v) = Ind(G - N[v]) and del(v) = Ind(G - v),
        # up to unused ambient vertices
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7))
            k = independence_complex(g)
            for v in range(g.n):
                dl = delete_vertex(k, v)
                rest = induced(g, g.vertex_mask & ~(1 << v))
                assert squash(dl) == squash(independence_complex(rest))
                lk = link(k, v)
                rest = induced(g, g.vertex_mask & ~(g.adj[v] | 1 << v))
                assert squash(lk) == squash(independence_complex(rest))

    def test_link_delete_neighbourhood_match_oracle(self, rng):
        ks = [random_complex(rng, rng.randint(1, 7), rng.randint(1, 6)) for _ in range(60)]
        for n in range(7):
            for g in enumerate_graphs(n, "all"):
                expect = neighbourhood_facets_oracle(g)
                nb = neighbourhood_complex(g)
                assert (nb.n, nb.facets) == (sum(1 for a in g.adj if a), expect), g
                ks.append(independence_complex(g))
        for k in ks:
            for v in range(k.n):
                dl = delete_vertex(k, v)
                assert (dl.n, dl.facets) == (k.n - 1, deletion_facets_oracle(k, v)), (k, v)
                if k.has_face(1 << v):
                    lk = link(k, v)
                    assert (lk.n, lk.facets) == (k.n - 1, link_facets_oracle(k, v)), (k, v)

    def test_skeleton_betti(self):
        # s-skeleton of the (k)-simplex has b_s = C(k, s+1)
        from math import comb

        for k, s in [(4, 1), (4, 2), (5, 0), (6, 1)]:
            bv = betti(skeleton_simplex(k, s))
            assert bv[s] == comb(k, s + 1)
            assert bv.total() == comb(k, s + 1)


class TestCensusAndClass:
    def test_fano_census(self):
        k = fano_complex().complex_
        faces = all_faces(k)
        assert Counter(f.bit_count() for f in faces) == {0: 1, 1: 7, 2: 21, 3: 7}
        assert len(faces) == 36
        assert len(k.facets) == 7

    def test_face_cap(self, monkeypatch):
        monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 100)
        with pytest.raises(FaceCapExceeded, match="cap of 100 faces"):
            all_faces(simplex(10))

    def test_all_faces_sorted_without_duplicates(self, rng):
        for _ in range(40):
            k = random_complex(rng, rng.randint(0, 8), rng.randint(1, 6))
            expect = sorted(faces_oracle(k), key=lambda m: (m.bit_count(), m))
            assert all_faces(k) == expect

    def test_all_faces_of_joins(self, rng):
        # the facets of a join share most of their subsets, so whole blocks
        # are skipped
        for _ in range(30):
            a = random_complex(rng, rng.randint(1, 6), rng.randint(1, 4))
            b = random_complex(rng, rng.randint(1, 6), rng.randint(1, 4))
            k = join(a, b)
            assert all_faces(k) == sorted(faces_oracle(k), key=lambda m: (m.bit_count(), m)), k

    def test_all_faces_of_skeleta(self):
        # the s-skeleton of the k-simplex: every vertex set of at most s + 1
        # of its k + 1 vertices
        for k in range(13):
            for s in range(-1, k + 1):
                sk = skeleton_simplex(k, s)
                faces = all_faces(sk)
                expect = [m for m in range(1 << k + 1) if m.bit_count() <= s + 1]
                assert faces == sorted(expect, key=lambda m: (m.bit_count(), m)), (k, s)
                if k <= 8:
                    assert faces == sorted(faces_oracle(sk), key=lambda m: (m.bit_count(), m))

    def test_all_faces_by_facet_size(self, rng):
        # facets of 1 to 5 vertices take the one-by-one walk, larger ones
        # the block walk; with size >= 6 both meet in one complex
        for size in range(1, 17):
            n = min(16, size + 3)
            for _ in range(2):
                facets = [sum(1 << v for v in rng.sample(range(n), size))]
                facets += [sum(1 << v for v in rng.sample(range(n), rng.randint(1, size))) for _ in range(3)]
                k = from_facets(n, facets)
                assert all_faces(k) == sorted(faces_oracle(k), key=lambda m: (m.bit_count(), m)), k

    def test_face_cap_is_exact(self, rng, monkeypatch):
        # the cap counts distinct faces, so subsets shared by facets count
        # once; the skeleton and the join reach the cap inside a block
        joined = join(random_complex(rng, 5, 3), random_complex(rng, 5, 3))
        for k in [fano_complex().complex_, EMPTY, skeleton_simplex(9, 5), joined] + [
            random_complex(rng, rng.randint(1, 8), rng.randint(2, 6)) for _ in range(20)
        ]:
            count = len(faces_oracle(k))
            monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", count)
            assert len(all_faces(k)) == count
            monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", count - 1)
            with pytest.raises(FaceCapExceeded):
                all_faces(k)

    def test_face_cap_checked_before_a_large_facet_is_walked(self, monkeypatch):
        # 2^40 subsets: only the check before the walk can raise in time
        monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 100)
        with pytest.raises(FaceCapExceeded, match="cap of 100 faces"):
            all_faces(simplex(40))

    def test_class_membership(self):
        k = fano_complex().complex_
        cls = class_membership(k)
        assert cls == {
            "is_flag": False,
            "min_nonface_max_size": 3,
            "max_facet_deficiency": 4,
        }
        flag = independence_complex(cycle(5))
        assert class_membership(flag)["is_flag"]

    def test_dual_swaps_parameters(self, rng):
        # d_F of the dual equals d_M of the original shifted by n, in the
        # sense that facets of size n-k dualize to non-faces of size k
        for _ in range(20):
            k = random_complex(rng, rng.randint(2, 7))
            dual = alexander_dual(k)
            if dual.is_void:
                continue
            d_m = class_membership(k)["max_facet_deficiency"]
            nf = minimal_nonfaces(dual)
            if nf:
                assert max(bin(t).count("1") for t in nf) == d_m


class TestFacetFiles:
    def test_round_trip(self, rng):
        for _ in range(20):
            k = random_complex(rng, rng.randint(1, 8))
            assert read_facet_file(write_facet_file(k)) == k
        assert read_facet_file(write_facet_file(VOID)) == VOID
        assert read_facet_file(write_facet_file(EMPTY)) == EMPTY

    def test_format(self):
        text = write_facet_file(from_facets(3, [[0, 2], [1]]))
        assert text == "n 3\n1\n0 2\n"
        assert write_facet_file(Complex(2, ())) == "n 2\nvoid\n"

    def test_facet_line_is_a_vertex_set(self):
        # a repeated vertex counts once: the line 0 0 1 is the facet {0, 1}
        assert read_facet_file("n 3\n0 0 1\n").facets == (3,)

    def test_read_errors(self):
        with pytest.raises(ValueError, match="n <count>"):
            read_facet_file("3\n0 1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_facet_file("n 3\n0 x\n")
        with pytest.raises(ValueError, match="out of range"):
            read_facet_file("n 2\n0 5\n")
        # blank lines count: the line number is the file's
        with pytest.raises(ValueError, match="bad facet on line 5$"):
            read_facet_file("n 3\n\n\n0 1\nx\n")
        with pytest.raises(ValueError, match="vertex out of range on line 4$"):
            read_facet_file("\nn 2\n\n0 5\n")
        with pytest.raises(ValueError, match="no facets"):
            read_facet_file("n 2\n")
