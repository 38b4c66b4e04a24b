from math import comb

import pytest

from flagbetti.complexes import class_membership, minimal_nonfaces
from flagbetti.constructions import (
    FANO_TRIPLES,
    crown_union,
    fano_bip,
    fano_complex,
    golden_cases,
    missing_face_complex,
    neighbourhood_power,
    union_of_cliques,
    verify_case,
)
from flagbetti.graphs import graph_predicates
from flagbetti.homology import GF2, GF3, RATIONALS


class TestFano:
    def test_triples_are_a_steiner_system(self):
        # every pair of the 7 points lies in exactly one triple
        for a in range(1, 8):
            for b in range(a + 1, 8):
                hits = [t for t in FANO_TRIPLES if a in t and b in t]
                assert len(hits) == 1

    def test_complex_skeleton_is_complete(self):
        k = fano_complex().complex_
        # the 1-skeleton contains all 21 edges of K7
        for u in range(7):
            for v in range(u + 1, 7):
                assert k.has_face(1 << u | 1 << v)
        assert len(k.facets) == 7

    def test_bip_graph_shape(self):
        g = fano_bip().graph
        assert g.n == 14
        preds = graph_predicates(g)
        assert preds["is_bipartite"] and preds["is_triangle_free"]


class TestBuilders:
    def test_union_of_cliques_values(self):
        assert union_of_cliques(5, 5).expected == 4
        assert union_of_cliques(10, 5).expected == 16
        assert union_of_cliques(6, 3).expected == 4
        with pytest.raises(ValueError):
            union_of_cliques(7, 5)

    def test_missing_face_values(self):
        assert missing_face_complex(5, 2).expected == comb(4, 1)
        assert missing_face_complex(10, 2).expected == comb(4, 1) ** 2
        assert missing_face_complex(7, 3).expected == comb(6, 2)
        with pytest.raises(ValueError):
            missing_face_complex(6, 2)
        # (2d+1) | n holds for these, but no block fits: n = 0 would expect 1
        for n, d in ((0, 2), (-7, 3)):
            with pytest.raises(ValueError, match="need n >="):
                missing_face_complex(n, d)

    def test_missing_face_class(self):
        # all minimal non-faces of the d-block have exactly d vertices
        for d in (2, 3):
            k = missing_face_complex(2 * d + 1, d).complex_
            sizes = {bin(t).count("1") for t in minimal_nonfaces(k)}
            assert sizes == {d}
            assert class_membership(k)["min_nonface_max_size"] == d

    def test_neighbourhood_power_values(self):
        assert neighbourhood_power(4).expected == 3
        assert neighbourhood_power(8).expected == 9
        for n in (6, 0, -4):  # n = 0 would expect 1, -4 a fraction
            with pytest.raises(ValueError):
                neighbourhood_power(n)

    def test_crown_union_values(self):
        assert crown_union(4, 2).expected == 4
        assert crown_union(6, 3).expected == 24
        with pytest.raises(ValueError):
            crown_union(5, 2)


class TestVerification:
    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=str)
    def test_golden_corpus(self, field):
        for case in golden_cases():
            result = verify_case(case, field)
            assert result["pass"], result

    def test_verify_case_shape(self):
        r = verify_case(union_of_cliques(5, 5))
        assert r["computed"] == r["expected"] == 4
        assert r["field"] == "gf2"
