import random

import pytest

from flagbetti.graphs import (
    Graph,
    Graph6Error,
    _from_columns,
    _min_code,
    _pack_graph6,
    _refine_cells,
    bits,
    canonical_form,
    canonical_graph,
    complement,
    complete,
    copies,
    crown,
    cycle,
    disjoint_union,
    empty_graph,
    encode_graph6,
    from_edges,
    graph_predicates,
    induced,
    join_sum,
    parse_graph6,
)
from conftest import random_graph
from flagbetti.search import enumerate_graphs
from oracles import (
    all_labelled_graphs,
    are_isomorphic_oracle,
    canonical_form_oracle,
    graph6_encode_oracle,
    refine_colors_oracle,
)


def cell_ranks(g: Graph) -> list[int]:
    """Each vertex's position among `_refine_cells`' ordered cells, the
    colour ranks that `refine_colors_oracle` gives."""
    ranks = [None] * g.n
    for i, cell in enumerate(_refine_cells(g.adj)):
        for v in bits(cell):
            ranks[v] = i
    return ranks


def relabelled(g: Graph, pi: list[int]) -> Graph:
    """g with each vertex v renamed pi[v]."""
    return from_edges(g.n, [(pi[u], pi[v]) for u, v in g.edges()])


def circulant(n: int, steps) -> Graph:
    """v ~ v + s (mod n) for each s in steps."""
    return from_edges(n, [(v, (v + s) % n) for v in range(n) for s in steps])


PETERSEN = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


class TestGraph6:
    def test_known_words(self):
        assert parse_graph6("A?").edge_count() == 0
        assert parse_graph6("A?").n == 2
        assert parse_graph6("A_").edges() == [(0, 1)]
        assert parse_graph6("Bw").edges() == [(0, 1), (0, 2), (1, 2)]

    def test_encode_against_format_oracle(self):
        for g in [complete(2), empty_graph(2), empty_graph(0), complete(3),
                  crown(3), cycle(5), complete(5)]:
            assert encode_graph6(g) == graph6_encode_oracle(g)

    def test_zero_vertex_word(self):
        assert encode_graph6(empty_graph(0)) == "?"
        assert parse_graph6("?").n == 0

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 62), rng.random())
            word = encode_graph6(g)
            assert word == graph6_encode_oracle(g)
            assert parse_graph6(word) == g

    def test_columns_build_the_graph(self):
        # canonical_graph and the search's representatives build from
        # column codes through _from_columns, whose loop parse_graph6 runs inline
        rng = random.Random(31)
        for n in [0, 1, 2, 62] + [rng.randint(0, 62) for _ in range(300)]:
            g = random_graph(rng, n, rng.random())
            cols = [nb & ((1 << j) - 1) for j, nb in enumerate(g.adj)]
            assert _from_columns(cols) == parse_graph6(_pack_graph6(cols)).adj == g.adj

    def test_parse_errors_name_offset(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(Graph6Error, match="offset 1"):
            parse_graph6("B" + chr(30))
        with pytest.raises(Graph6Error, match="trailing"):
            parse_graph6("A_Q")
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("B")
        with pytest.raises(Graph6Error):
            parse_graph6("~~?")  # > 62 vertices unsupported

    def test_header_only_word(self):
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6(">>graph6<<")
        assert parse_graph6(">>graph6<<Bw") == parse_graph6("Bw")

    def test_encode_refuses_large(self):
        with pytest.raises(Graph6Error):
            encode_graph6(empty_graph(63))

    def test_decoded_words_pass_checked_constructor(self):
        # parse_graph6 builds without Graph's validation, so every word it
        # accepts must decode to a graph that the validating constructor
        # accepts unchanged; random words also set the padding bits
        words = [encode_graph6(g) for n in range(6) for g in all_labelled_graphs(n)]
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(0, 62)
            nbytes = (n * (n - 1) // 2 + 5) // 6
            words.append(chr(n + 63) + "".join(chr(rng.randint(63, 126)) for _ in range(nbytes)))
        for word in words:
            g = parse_graph6(word)
            assert Graph(g.n, g.adj) == g, word


class TestGenerators:
    def test_complete(self):
        assert complete(1).edge_count() == 0
        assert complete(5).edge_count() == 10
        assert complete(3) == parse_graph6("Bw")
        with pytest.raises(ValueError):
            complete(0)

    def test_crown_small(self):
        assert crown(1).edge_count() == 0
        assert crown(1).n == 2
        two_k2 = copies(2, complete(2))
        assert are_isomorphic_oracle(crown(2), two_k2)
        assert are_isomorphic_oracle(crown(3), cycle(6))

    def test_crown_regular_bipartite(self):
        for s in range(2, 6):
            g = crown(s)
            preds = graph_predicates(g)
            assert preds["is_bipartite"]
            assert all(g.degree(v) == s - 1 for v in range(g.n))

    def test_disjoint_union(self):
        g = disjoint_union(complete(2), complete(2))
        assert (g.n, g.edge_count()) == (4, 2)
        assert disjoint_union(complete(3), empty_graph(0)) == complete(3)
        h = disjoint_union(complete(5), complete(5))
        assert (h.n, h.edge_count()) == (10, 20)
        assert graph_predicates(h)["mindeg"] == 4

    def test_join_sum(self):
        assert are_isomorphic_oracle(join_sum(complete(2), complete(2)), complete(4))
        two = copies(2, complete(2))
        g = join_sum(two, two)
        assert (g.n, g.edge_count()) == (8, 20)
        assert join_sum(complete(3), empty_graph(0)) == complete(3)

    def test_copies(self):
        assert copies(2, complete(5)).n == 10
        assert copies(1, complete(4)) == complete(4)
        g = copies(3, complete(3))
        assert (g.n, g.edge_count()) == (9, 9)


class TestSubgraphs:
    def test_induced(self):
        assert induced(complete(5), [0, 2, 4]) == complete(3)
        assert induced(complete(4), []) == empty_graph(0)
        part = induced(crown(3), [0, 1, 2])
        assert part == empty_graph(3)
        assert induced(complete(4), (1 << 4) - 1) == complete(4)
        with pytest.raises(ValueError):
            induced(complete(3), [0, 5])

    def test_induced_passes_checked_constructor(self):
        # induced builds without Graph's validation, so its output must be
        # a graph that the validating constructor accepts unchanged
        rng = random.Random(11)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            h = induced(g, rng.getrandbits(g.n))
            assert Graph(h.n, h.adj) == h

    def test_complement_involution(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 9))
            assert complement(complement(g)) == g


class TestPredicates:
    def test_examples(self):
        k5 = graph_predicates(complete(5))
        assert (k5["mindeg"], k5["is_triangle_free"], k5["is_bipartite"]) == (4, False, False)
        cr = graph_predicates(crown(18))
        assert (cr["mindeg"], cr["is_triangle_free"], cr["is_bipartite"]) == (17, True, True)
        two = graph_predicates(copies(2, complete(2)))
        assert two == {
            "mindeg": 1,
            "is_triangle_free": True,
            "is_bipartite": True,
            "is_connected": False,
            "isolated_vertex_exists": False,
        }
        assert graph_predicates(empty_graph(0))["mindeg"] is None


class TestCanonical:
    def test_isomorphic_pairs(self):
        assert canonical_form(crown(2)) == canonical_form(copies(2, complete(2)))
        path3 = from_edges(3, [(0, 1), (1, 2)])
        assert canonical_form(complete(3)) != canonical_form(path3)

    def test_all_four_vertex_classes_distinct(self):
        # the 11 isomorphism classes on 4 vertices, by brute force
        forms = {canonical_form(g) for g in all_labelled_graphs(4)}
        assert len(forms) == 11

    def test_matches_permutation_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            h = random_graph(rng, n)
            assert (canonical_form(g) == canonical_form(h)) == are_isomorphic_oracle(g, h)

    def test_canonical_graph_is_isomorphic(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            assert are_isomorphic_oracle(g, canonical_graph(g))

    def test_cap(self):
        with pytest.raises(ValueError):
            canonical_form(empty_graph(11))

    def test_refinement_matches_sorted_tuple_oracle_on_classes(self):
        for n in range(8):
            for g in enumerate_graphs(n, "all"):
                assert cell_ranks(g) == refine_colors_oracle(g), encode_graph6(g)

    def test_refinement_matches_sorted_tuple_oracle_on_random_graphs(self):
        rng = random.Random(12)
        for _ in range(2000):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            assert cell_ranks(g) == refine_colors_oracle(g), encode_graph6(g)

    def test_refinement_stops_once_last_cell_misses_keep(self):
        # None exactly when the full refinement's last cell misses keep;
        # _min_code gives up with it and otherwise labels as without keep
        rng = random.Random(37)
        for _ in range(3000):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            keep = rng.getrandbits(g.n) & rng.getrandbits(g.n)
            full = _refine_cells(g.adj)
            got = _refine_cells(g.adj, keep)
            assert got == (full if full[-1] & keep else None), (encode_graph6(g), keep)
            codes = _min_code(g.adj, keep)
            assert codes == (None if got is None else _min_code(g.adj)), (encode_graph6(g), keep)

    def test_refinement_matches_oracle_where_nothing_splits(self):
        regular = [cycle(n) for n in range(3, 11)] + [crown(s) for s in range(1, 6)]
        regular += [copies(s, g) for s in (2, 3) for g in (complete(3), cycle(4))]
        for g in regular:
            assert cell_ranks(g) == refine_colors_oracle(g) == [0] * g.n
            assert _refine_cells(g.adj) == (g.vertex_mask,)

    def test_refinement_is_invariant_under_relabelling(self):
        # the search's canonical-deletion test relies on this: relabelling
        # the graph by pi relabels each cell by pi and keeps their order
        rng = random.Random(29)
        for _ in range(3000):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            pi = rng.sample(range(g.n), g.n)
            moved = tuple(sum(1 << pi[v] for v in bits(cell)) for cell in _refine_cells(g.adj))
            assert _refine_cells(relabelled(g, pi).adj) == moved, (encode_graph6(g), pi)

    def test_words_match_oracle_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(3000):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            assert canonical_form(g) == canonical_form_oracle(g), encode_graph6(g)

    def test_words_match_oracle_on_families(self):
        family = [cycle(s) for s in range(3, 11)] + [crown(s) for s in range(1, 6)]
        family += [copies(2, cycle(5)), complete(10), PETERSEN]
        family += [empty_graph(s) for s in range(11)]
        for g in family:
            assert canonical_form(g) == canonical_form_oracle(g), encode_graph6(g)

    def test_words_are_invariant_under_relabelling_on_symmetric_graphs(self):
        # many vertices tie on their codes, so the search's tight/improved
        # bookkeeping is taken along many vertex orders
        rng = random.Random(43)
        family = [cycle(9), cycle(10), crown(5), PETERSEN, copies(2, cycle(5)),
                  join_sum(empty_graph(5), empty_graph(5)), copies(3, complete(3)),
                  circulant(9, (1, 3)), circulant(10, (1, 4)), circulant(10, (2, 5))]
        for g in family:
            word = canonical_form(g)
            for _ in range(20):
                pi = rng.sample(range(g.n), g.n)
                assert canonical_form(relabelled(g, pi)) == word, (encode_graph6(g), pi)

    def test_form_is_a_graph6_str(self, rng):
        assert canonical_form(empty_graph(0)) == "?"
        assert canonical_form(empty_graph(1)) == "@"
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 8))
            word = canonical_form(g)
            assert isinstance(word, str)
            assert canonical_graph(g) == parse_graph6(word)
            assert encode_graph6(canonical_graph(g)) == word

    def test_union_join_associative_up_to_iso(self, rng):
        for _ in range(10):
            a = random_graph(rng, rng.randint(1, 3))
            b = random_graph(rng, rng.randint(1, 3))
            c = random_graph(rng, rng.randint(1, 3))
            assert canonical_form(disjoint_union(disjoint_union(a, b), c)) == canonical_form(
                disjoint_union(a, disjoint_union(b, c))
            )
            assert canonical_form(join_sum(join_sum(a, b), c)) == canonical_form(
                join_sum(a, join_sum(b, c))
            )


class TestBits:
    def test_every_small_mask(self):
        for m in range(1 << 12):
            assert list(bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]

    def test_random_large_masks(self):
        rng = random.Random(19)
        for _ in range(500):
            m = rng.getrandbits(rng.randint(1, 300))
            assert list(bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]

    def test_returns_a_sequence(self):
        assert bits(0b1011) == (0, 1, 3)
        assert bits(1 << 40 | 2) == [1, 40]
        assert list(reversed(bits(0b110))) == [2, 1]

    @pytest.mark.parametrize("mask", [-1, -2, -1024, -(1 << 40)])
    def test_negative_mask_refused(self, mask):
        with pytest.raises(ValueError, match="negative"):
            bits(mask)


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(1, (1,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(1, (2,))
