import random
from collections import Counter
from fractions import Fraction

import pytest

from flagbetti.complexes import (
    EMPTY,
    VOID,
    Complex,
    alexander_dual,
    delete_vertex,
    from_facets,
    independence_complex,
    join,
    link,
    simplex,
    skeleton_simplex,
    sphere0,
)
from flagbetti.constructions import fano_complex
from flagbetti import homology
from flagbetti.graphs import bits, complete, copies, cycle, empty_graph, from_edges
from flagbetti.homology import (
    GF2,
    GF3,
    RATIONALS,
    BettiVector,
    FieldSpec,
    _faces_by_dim,
    _rank_gf2,
    _rank_sparse,
    betti,
    boundary_matrices,
    matrix_rank,
    reduced_euler,
    total_betti,
)
from flagbetti.search import enumerate_graphs
from conftest import random_complex, random_graph
from oracles import (
    betti_full_rank_oracle,
    betti_oracle,
    boundary_matrices_oracle,
    dense_rank_oracle,
    kept_columns_oracle,
    lazy_columns,
    total_betti_oracle,
)

FIELDS = (GF2, GF3, RATIONALS)
# (field, the oracle's p) for the sparse GF(p)/Q rank routine
ODD_FIELDS = (
    (GF3, 3), (FieldSpec(7), 7), (FieldSpec(2**31 - 1), 2**31 - 1), (RATIONALS, None)
)

# minimal 6-vertex triangulation of RP^2: its 2-torsion makes GF(2) differ
# from GF(3) and the rationals
RP2 = from_facets(
    6,
    [
        [0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 5], [0, 4, 5],
        [1, 2, 4], [1, 2, 5], [1, 3, 5], [2, 3, 4], [3, 4, 5],
    ],
)


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("gf2") == GF2
        assert FieldSpec.parse("GF7") == FieldSpec(7)
        assert FieldSpec.parse("rational") == RATIONALS
        assert FieldSpec.parse("q") == RATIONALS
        with pytest.raises(ValueError):
            FieldSpec.parse("gf4")
        with pytest.raises(ValueError):
            FieldSpec.parse("real")

    def test_parse_refuses_non_ascii_digits(self):
        # str.isdecimal accepts every Unicode digit: Arabic-Indic and full-width 3
        for name in ("gf\u0663", "gf\uff13", "gf1\u0661"):
            with pytest.raises(ValueError, match="unknown field"):
                FieldSpec.parse(name)

    def test_none_is_the_rationals(self):
        assert FieldSpec(None) == RATIONALS

    def test_prime_refuses_a_non_integer_p(self):
        # 3.0 == 3, so it would compare equal to GF3 and fail inside the rank
        for p in (3.0, "3"):
            with pytest.raises(ValueError, match="usable prime"):
                FieldSpec(p)

    def test_str(self):
        assert str(GF3) == "gf3"
        assert str(RATIONALS) == "rational"


def signed_column(col: int) -> dict[int, int]:
    """{row: sign} of a bitmask column by the documented rule: +1 on the
    largest row, alternating toward smaller rows."""
    rows = sorted(bits(col), reverse=True)
    return {r: (-1) ** i for i, r in enumerate(rows)}


def signed_dense(m: list[int]) -> list[list[int]]:
    """The dense integer matrix of bitmask columns m by the sign rule."""
    a = [[0] * len(m) for _ in range(max(1, max(col.bit_length() for col in m)))]
    for j, col in enumerate(m):
        for r, s in signed_column(col).items():
            a[r][j] = s
    return a


def built(k) -> list[list[int]]:
    """The columns of each matrix `boundary_matrices(k)` returns, each
    built by the builder the rank routines call, after checking that its
    given lowest row is the built column's largest row."""
    mats = []
    for lows, build in boundary_matrices(k):
        cols = [build(j) for j in range(len(lows))]
        assert lows == [col.bit_length() - 1 for col in cols], k
        mats.append(cols)
    return mats


class TestBoundary:
    def test_augmentation_and_shapes(self):
        assert built(sphere0()) == [[1, 1]]
        # simplex(2): vertex 1 over the empty face, edge 3 over both
        # vertices; the edge clears vertex 2, its largest row
        assert built(simplex(2)) == [[1], [3]]
        assert [lows for lows, _ in boundary_matrices(simplex(2))] == [[0], [1]]

    def test_dd_zero_rational(self, rng):
        # rank d_i + rank d_{i+1} <= dim C_i is the matrix-level shadow of
        # d o d = 0; check the composition literally over the integers
        for _ in range(15):
            k = random_complex(rng, rng.randint(1, 6))
            mats = boundary_matrices_oracle(k)
            for lower, upper in zip(mats, mats[1:]):
                for col in upper:
                    acc = {}
                    for r, s in signed_column(col).items():
                        for r2, s2 in signed_column(lower[r]).items():
                            acc[r2] = acc.get(r2, 0) + s * s2
                    assert all(v == 0 for v in acc.values())

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            boundary_matrices(VOID)

    def test_cleared_columns_equal_oracle(self, rng):
        # each d_i below the top is the full d_i less the columns at the
        # lowest rows of the full d_{i+1}; the top matrix is whole
        cases = []
        for _ in range(12):  # 11 to 16 vertices, so faces have masks above 2^10
            n = rng.randint(11, 16)
            facets = [sum(1 << v for v in rng.sample(range(n), rng.randint(3, 9))) for _ in range(4)]
            cases.append(from_facets(n, facets))
        cases += [RP2, fano_complex().complex_, independence_complex(copies(3, cycle(5)))]
        cases += [EMPTY, simplex(1), sphere0()]  # one or two layers: nothing above to clear from
        for k in cases:
            full = boundary_matrices_oracle(k)
            expected = [kept_columns_oracle(m, upper) for m, upper in zip(full, full[1:])] + full[-1:]
            assert built(k) == expected, k


def relabelled_copies(s: int, seed: int) -> Complex:
    """Ind of s disjoint 5-cycles, its vertices shuffled by the seed."""
    g = copies(s, cycle(5))
    pi = list(range(g.n))
    random.Random(seed).shuffle(pi)
    return independence_complex(from_edges(g.n, [(pi[u], pi[v]) for u, v in g.edges()]))


class TestLazyColumns:
    """A column is built only when it meets a pivot at its lowest row, or
    when the reduction first reads it as a pivot."""

    @pytest.mark.parametrize(
        "field, builds", [(GF2, 1600), (GF3, 1600), (RATIONALS, 1600)], ids=str
    )
    def test_build_counts(self, monkeypatch, field, builds):
        column, times_built = homology._column, Counter()

        def counted(index, faces, j):
            times_built[faces[j]] += 1
            return column(index, faces, j)

        monkeypatch.setattr(homology, "_column", counted)
        # the join of four circles is S^7; clearing keeps 7,333 of its
        # 14,640 columns, and the ranks build 1,600 of those
        k = relabelled_copies(4, 1)
        assert betti(k, field).by_degree == ((7, 1),)
        assert sum(len(lows) for lows, _ in boundary_matrices(k)) == 7333
        assert times_built.total() == builds
        assert max(times_built.values()) == 1
        times_built.clear()
        k = relabelled_copies(2, 1)
        assert dict(betti(k, field).by_degree) == betti_oracle(k, field.p) == {3: 1}
        assert max(times_built.values()) == 1


class TestBetti:
    def test_empty_complex(self):
        for f in FIELDS:
            bv = betti(EMPTY, f)
            assert bv.by_degree == ((-1, 1),)
            assert bv.total() == 1

    def test_void(self):
        assert betti(VOID).by_degree == ()
        assert total_betti(VOID) == 0

    def test_spheres(self):
        for f in FIELDS:
            assert betti(sphere0(), f).by_degree == ((0, 1),)
            # Ind(C4) is two disjoint edges, a homotopy 0-sphere
            assert betti(independence_complex(cycle(4)), f).by_degree == ((0, 1),)
            # Ind(C6) is a wedge of two circles
            assert betti(independence_complex(cycle(6)), f).by_degree == ((1, 2),)

    def test_simplex_contractible(self):
        for n in range(1, 5):
            assert total_betti(simplex(n)) == 0

    def test_fano(self):
        for f in FIELDS:
            bv = betti(fano_complex().complex_, f)
            assert bv.by_degree == ((1, 8),)

    def test_ind_c5_is_circle(self):
        k = independence_complex(cycle(5))
        assert betti(k).by_degree == ((1, 1),)
        assert betti_oracle(k, 2) == {1: 1}

    def test_matches_gf2_oracle(self, rng):
        for _ in range(60):
            k = random_complex(rng, rng.randint(1, 8))
            got = dict(betti(k, GF2).by_degree)
            assert got == betti_oracle(k, 2)

    def test_projective_plane_field_dependence(self):
        assert total_betti(RP2, GF2) == 2
        assert total_betti(RP2, GF3) == 0
        assert total_betti(RP2, RATIONALS) == 0

    def test_euler_poincare(self, rng):
        for _ in range(40):
            k = random_complex(rng, rng.randint(1, 7))
            chi = reduced_euler(k)
            for f in FIELDS:
                bv = betti(k, f)
                assert chi == sum((-1) ** d * b for d, b in bv.by_degree)

    def test_euler_examples(self):
        assert reduced_euler(EMPTY) == -1
        assert reduced_euler(sphere0()) == 1
        assert reduced_euler(fano_complex().complex_) == -8
        with pytest.raises(ValueError):
            reduced_euler(VOID)


class TestDuality:
    def test_alexander_duality_betti(self, rng):
        # b_i(K) == b_{n-i-3}(K*) over a field, both reduced
        checked = 0
        while checked < 100:
            k = random_complex(rng, rng.randint(1, 8))
            dual = alexander_dual(k)
            if dual.is_void:
                continue
            bk = dict(betti(k, GF2).by_degree)
            bd = dict(betti(dual, GF2).by_degree)
            n = k.n
            for i in range(-1, n):
                assert bk.get(i, 0) == bd.get(n - i - 3, 0)
            checked += 1


class TestJoin:
    def test_total_betti_multiplicative(self, rng):
        for _ in range(25):
            k = random_complex(rng, rng.randint(1, 4))
            l = random_complex(rng, rng.randint(1, 4))
            for f in FIELDS:
                assert total_betti(join(k, l), f) == total_betti(k, f) * total_betti(l, f)

    def test_graded(self):
        # join of two 0-spheres concentrates in degree 1
        j = join(sphere0(), sphere0())
        assert betti(j).by_degree == ((1, 1),)
        j2 = join(j, sphere0())
        assert betti(j2).by_degree == ((2, 1),)


class TestCofibre:
    def test_deletion_link_inequality(self, rng):
        # b(K) <= b(del_v K) + b(lk_v K), from the cofibre sequence
        for _ in range(30):
            k = random_complex(rng, rng.randint(2, 7))
            for v in range(k.n):
                if not k.has_face(1 << v):
                    continue
                total = total_betti(k)
                dl = total_betti(delete_vertex(k, v))
                lk = total_betti(link(k, v))
                assert total <= dl + lk


class TestBettiVector:
    def test_accessors(self):
        bv = BettiVector(((0, 2), (2, 5)), GF2)
        assert bv[0] == 2 and bv[1] == 0 and bv[2] == 5
        assert bv.total() == 7
        assert bv.top_degree() == 2
        assert BettiVector((), GF2).top_degree() is None

    def test_json(self):
        bv = BettiVector(((-1, 1),), GF2)
        assert bv.to_json_dict() == {"betti": {"-1": 1}, "total": 1, "field": "gf2"}


class TestRanks:
    def test_field_agreement_on_ranks(self, rng):
        # GF(2), GF(3) and rational ranks of random boundary matrices can
        # differ in general, but totals must satisfy Euler-Poincare; spot
        # check exact agreement for complexes with free homology
        k = skeleton_simplex(5, 2)
        for m in boundary_matrices_oracle(k):
            r2 = matrix_rank(lazy_columns(m), GF2)
            r3 = matrix_rank(lazy_columns(m), GF3)
            rq = matrix_rank(lazy_columns(m), RATIONALS)
            assert r2 == r3 == rq

    def test_sparse_mod_2_matches_xor_reduction(self, rng):
        # the sign-expanding routine at p = 2 against the XOR reduction
        for _ in range(40):
            k = random_complex(rng, rng.randint(1, 7), rng.randint(1, 6))
            for m in boundary_matrices_oracle(k):
                assert _rank_sparse(*lazy_columns(m), 2) == _rank_gf2(*lazy_columns(m))

    @pytest.mark.parametrize("p", [3, 7, 2**31 - 1, None], ids=str)
    def test_sparse_rank_matches_dense_oracle(self, rng, p):
        cases = [random_complex(rng, rng.randint(1, 9), rng.randint(1, 6)) for _ in range(20)]
        cases += [RP2, independence_complex(copies(2, cycle(5)))]
        for k in cases:
            for m in boundary_matrices_oracle(k):
                rank = _rank_sparse(*lazy_columns(m), p)
                assert rank == dense_rank_oracle(signed_dense(m), p), (k, p)

    @pytest.mark.parametrize("p", [3, 7, 2**31 - 1, None], ids=str)
    def test_sparse_rank_of_arbitrary_columns(self, rng, p):
        # any int is a column under the sign rule; unlike boundary
        # matrices, these reach pivots whose lowest entry is not +-1
        for _ in range(200):
            rows = rng.randint(1, 10)
            m = [rng.getrandbits(rows) for _ in range(rng.randint(1, 12))]
            rank = _rank_sparse(*lazy_columns(m), p)
            assert rank == dense_rank_oracle(signed_dense(m), p), (m, p)

    def test_cleared_columns_keep_rank(self, rng):
        # clearing drops from d_i (i below the top) the faces t less their
        # lowest vertex, t over the layer above, and keeps the rank of d_i
        # over every field
        cases = [random_complex(rng, rng.randint(1, 8), rng.randint(1, 6)) for _ in range(40)]
        cases += [RP2, fano_complex().complex_, independence_complex(copies(2, cycle(5)))]
        for k in cases:
            layers = _faces_by_dim(k)
            mats = boundary_matrices_oracle(k)
            for i, (m, upper) in enumerate(zip(mats, mats[1:])):
                kept = kept_columns_oracle(m, upper)
                for field in FIELDS:
                    rank = matrix_rank(lazy_columns(kept), field)
                    assert rank == matrix_rank(lazy_columns(m), field), (k, i, field)
                # layers[i + 1] labels the columns of d_i, layers[i + 2] those of d_{i+1}
                dropped = set(layers[i + 1]) - set(kept_columns_oracle(layers[i + 1], upper))
                assert dropped == {t ^ (t & -t) for t in layers[i + 2]}, (k, i)

    def test_total_betti_oracle_agreement(self, rng):
        for _ in range(20):
            k = random_complex(rng, rng.randint(1, 7))
            assert total_betti(k, GF2) == total_betti_oracle(k)


@pytest.mark.parametrize("field, p", ODD_FIELDS, ids=str)
class TestOddFieldOracle:
    def test_random_complexes(self, rng, field, p):
        for _ in range(40):
            k = random_complex(rng, rng.randint(1, 7), rng.randint(1, 6))
            assert dict(betti(k, field).by_degree) == betti_oracle(k, p)

    def test_independence_complexes(self, rng, field, p):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            k = independence_complex(g)
            assert dict(betti(k, field).by_degree) == betti_oracle(k, p)

    def test_projective_plane(self, field, p):
        assert betti_oracle(RP2, 2) == dict(betti(RP2, GF2).by_degree) == {1: 1, 2: 1}
        assert betti_oracle(RP2, p) == dict(betti(RP2, field).by_degree) == {}


@pytest.mark.parametrize("field", FIELDS, ids=str)
class TestClearingOracle:
    """betti clears each boundary matrix by the lowest rows of the one
    above; ranking every full column set is the oracle."""

    def test_independence_complexes_of_classes(self, field):
        for n in range(8):
            for g in enumerate_graphs(n, "all"):
                k = independence_complex(g)
                assert dict(betti(k, field).by_degree) == betti_full_rank_oracle(k, field), g

    def test_random_complexes(self, rng, field):
        for _ in range(200):
            k = random_complex(rng, rng.randint(1, 9), rng.randint(1, 6))
            assert dict(betti(k, field).by_degree) == betti_full_rank_oracle(k, field), k

    def test_named_complexes(self, field):
        for k in (RP2, fano_complex().complex_, independence_complex(copies(3, cycle(5))), EMPTY):
            assert dict(betti(k, field).by_degree) == betti_full_rank_oracle(k, field), k
