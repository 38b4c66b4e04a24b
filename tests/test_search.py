import hashlib
import json
import random
import re
from collections import Counter
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import pytest

from flagbetti import search
from flagbetti.complexes import all_faces, independence_complex
from flagbetti.graphs import (
    Graph,
    Graph6Error,
    _min_code,
    _pack_graph6,
    _refine_cells,
    canonical_form,
    complete,
    empty_graph,
    encode_graph6,
    parse_graph6,
)
from flagbetti.homology import GF2, GF3, RATIONALS
from flagbetti.invariants import _Vectors, b_graph, betti_graph, conjecture_power
from flagbetti.search import (
    GENERATOR_CAPS,
    conjecture_checks,
    enumerate_graphs,
    flag_vanishing_sweep,
    maximize,
    moon_moser_check,
    stream_graph6,
)
from conftest import planted_child_vector, random_graph
from oracles import (
    all_labelled_graphs,
    are_isomorphic_oracle,
    canonical_form_oracle,
    classes_oracle,
    independent_sets_oracle,
)

# number of graphs on n unlabelled vertices, n = 0..7, and of triangle-free
# and bipartite ones, n = 0..10 (OEIS A000088, A006785, A033995)
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]
TRIFREE_COUNTS = [1, 1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172]
BIPARTITE_COUNTS = [1, 1, 2, 3, 7, 13, 35, 88, 303, 1119, 5479]

# sha256 of the graph6 words of enumerate_graphs(n, cls) joined by newlines,
# first 16 hex digits, for n = 0, 1, ...
ENUMERATION_HASHES = {
    "all": "8a8de823d5ed3e12 c3641f8544d7c02f 66f7cc5c004391e3 f78b1e961185bb63 "
           "cc50ad5be69dff28 38252e9b87ec61a6 2c9724b72b46abfe 7a8932e01cbaf20d",
    "triangle_free": "8a8de823d5ed3e12 c3641f8544d7c02f 66f7cc5c004391e3 7fb81607637af873 "
                     "7c580e1385be1216 391b52905dc4da0d 8cd82eee1f47cf73 f09824d4cad35225 "
                     "aaba44a2a1560e00 fdd0a7a6ffdab7dc 7c0f4fc251aa0f1a",
    "bipartite": "8a8de823d5ed3e12 c3641f8544d7c02f 66f7cc5c004391e3 7fb81607637af873 "
                 "7c580e1385be1216 57c9b24cf0188288 e42b6b38f601544e fb947b5ba7c21cea "
                 "3c67a4732efd9328 0bfd80857d52efd4 6f712bdc06407c31",
    "connected": "8a8de823d5ed3e12 c3641f8544d7c02f ada8d598e51a0bf0 2c1256ffd0617e16 "
                 "385eb414892a1ce8 b5a909588a35cf30 7141e34866633118 12ef460a0a493012",
}


class TestEnumeration:
    @pytest.mark.parametrize("n", range(8))
    def test_counts_all(self, n):
        assert len(enumerate_graphs(n, "all")) == GRAPH_COUNTS[n]

    @pytest.mark.parametrize("n", range(len(TRIFREE_COUNTS)))
    def test_counts_triangle_free(self, n):
        assert len(enumerate_graphs(n, "triangle_free")) == TRIFREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(len(BIPARTITE_COUNTS)))
    def test_counts_bipartite(self, n):
        assert len(enumerate_graphs(n, "bipartite")) == BIPARTITE_COUNTS[n]

    def test_bipartite_subset_of_triangle_free(self):
        bip = {encode_graph6(g) for g in enumerate_graphs(5, "bipartite")}
        tf = {encode_graph6(g) for g in enumerate_graphs(5, "triangle_free")}
        assert bip <= tf
        assert len(bip) == 13  # bipartite graphs on 5 unlabelled vertices

    def test_caps_enforced(self):
        for cls, cap in GENERATOR_CAPS.items():
            with pytest.raises(ValueError, match="capped"):
                enumerate_graphs(cap + 1, cls)
        with pytest.raises(ValueError, match="unknown class"):
            enumerate_graphs(3, "planar")

    def test_negative_size_refused(self):
        for call in (enumerate_graphs, lambda n: maximize("b", n=n), flag_vanishing_sweep,
                     moon_moser_check):
            with pytest.raises(ValueError, match="n >= 0"):
                call(-1)

    @pytest.mark.parametrize("cls", sorted(ENUMERATION_HASHES))
    def test_pinned_words(self, cls):
        expected = ENUMERATION_HASHES[cls].split()
        for n, digest in enumerate(expected):
            words = "\n".join(encode_graph6(g) for g in enumerate_graphs(n, cls))
            assert hashlib.sha256(words.encode()).hexdigest()[:16] == digest, (cls, n)

    def test_deterministic_order(self):
        a = [encode_graph6(g) for g in enumerate_graphs(6, "all")]
        b = [encode_graph6(g) for g in enumerate_graphs(6, "all")]
        assert a == b
        assert a == sorted(a)

    def test_representatives_are_canonical(self):
        from flagbetti.graphs import canonical_graph

        for g in enumerate_graphs(5, "all"):
            assert g == canonical_graph(g)

    @pytest.mark.parametrize("n, trifree", [(n, False) for n in range(8)]
                             + [(n, True) for n in range(9)])
    def test_degree_filter_matches_unfiltered_oracle(self, n, trifree):
        # _classes labels only the children that pass its degree and twin
        # filters and its last-cell test; the oracle labels every child
        assert search._classes(n, trifree)[0] == classes_oracle(n, trifree)

    @pytest.mark.parametrize("trifree, top, labels", [
        (False, 7, [0, 1, 2, 4, 11, 39, 189, 1367]),
        (True, 8, [0, 1, 2, 3, 7, 14, 40, 127, 515]),
    ])
    def test_filters_label_pinned_children(self, monkeypatch, trifree, top, labels):
        # how many children pass the filters and the last-cell test and get
        # labelled, per n: a weaker test stays exact but labels more
        made = Counter()

        def label(adj, keep):
            codes = _min_code(adj, keep)
            if codes is not None:
                made[len(adj)] += 1
            return codes

        monkeypatch.setattr(search, "_classes", lru_cache(maxsize=None)(search._classes.__wrapped__))
        monkeypatch.setattr(search, "_min_code", label)
        search._classes(top, trifree)
        assert [made[n] for n in range(top + 1)] == labels

    @pytest.mark.parametrize("trifree, top", [(False, 8), (True, 9)])
    def test_labelled_children_match_oracle_words(self, monkeypatch, trifree, top):
        # every child that _classes labels gets the oracle's word
        labelled = []

        def label(adj, keep):
            codes = _min_code(adj, keep)
            if codes is not None:
                labelled.append((adj, _pack_graph6(codes)))
            return codes

        monkeypatch.setattr(search, "_classes", lru_cache(maxsize=None)(search._classes.__wrapped__))
        monkeypatch.setattr(search, "_min_code", label)
        search._classes(top, trifree)
        assert len(labelled) == (16_757 if top == 8 else 3_196)
        for adj, word in labelled:
            g = Graph(len(adj), adj)
            assert word == canonical_form(g) == canonical_form_oracle(g), encode_graph6(g)

    @pytest.mark.parametrize("top, trifree", [(7, False), (9, True)])
    def test_early_exit_refinement_matches_full(self, top, trifree):
        # _classes refines each child only while the last cell holds the
        # new vertex: None exactly when the full refinement's last cell
        # misses it, and the full refinement otherwise
        outcomes = Counter()
        for n in range(top + 1):
            new = 1 << n
            for parent in search._classes(n, trifree)[0]:
                for nb in search._extensions(parent, trifree):
                    child = search._extend(parent.adj, nb)
                    full = _refine_cells(child)
                    kept = full[-1] & new
                    assert _refine_cells(child, new) == (full if kept else None), (n, parent, nb)
                    outcomes[bool(kept)] += 1
        assert outcomes[False] and outcomes[True]

    @pytest.mark.parametrize("n", range(6))
    def test_twin_classes_against_brute_force(self, n):
        def swap(g, u, v):
            perm = list(range(n))
            perm[u], perm[v] = v, u
            adj = [0] * n
            for x in range(n):
                for y in range(n):
                    if g.adj[x] >> y & 1:
                        adj[perm[x]] |= 1 << perm[y]
            return Graph(n, tuple(adj))

        for g in all_labelled_graphs(n):
            twins = [[v for v in range(n)
                      if not (g.adj[u] ^ g.adj[v]) & ~(1 << u | 1 << v)] for u in range(n)]
            expected = {sum(1 << v for v in t) for t in twins if len(t) >= 2}
            got = search._twin_classes(g.adj)
            assert len(got) == len(expected) and set(got) == expected, encode_graph6(g)
            for t in got:
                for u, v in combinations([v for v in range(n) if t >> v & 1], 2):
                    assert swap(g, u, v) == g

    @pytest.mark.parametrize("trifree", [False, True])
    def test_children_pass_checked_constructor(self, trifree):
        # the search builds children through _trusted_graph(_extend(...)),
        # without Graph's validation, so each child, over every
        # neighbourhood _extensions may yield, must be an adjacency that
        # the validating constructor accepts unchanged
        rng = random.Random(5)
        for _ in range(40):
            parent = random_graph(rng, rng.randint(0, 7), rng.random() / (3 if trifree else 1))
            nbs = all_faces(independence_complex(parent)) if trifree else range(1 << parent.n)
            for nb in nbs:
                child = search._extend(parent.adj, nb)
                assert Graph(parent.n + 1, child).adj == child
                assert tuple(a & parent.vertex_mask for a in child[:-1]) == parent.adj

    @pytest.mark.parametrize("cls", ["all", "triangle_free"])
    @pytest.mark.parametrize("n", range(6))
    def test_each_labelled_graph_matches_one_class(self, n, cls):
        def triangle_free(g):
            return not any(
                g.adj[u] >> v & 1 and g.adj[u] >> w & 1 and g.adj[v] >> w & 1
                for u, v, w in combinations(range(n), 3)
            )

        reps = enumerate_graphs(n, cls)
        for g in all_labelled_graphs(n):
            if cls == "triangle_free" and not triangle_free(g):
                continue
            assert sum(are_isomorphic_oracle(g, r) for r in reps) == 1, encode_graph6(g)


class TestChildVector:
    @pytest.mark.parametrize("cls, field, fallbacks", [
        ("all", GF2, [0, 0, 0, 0, 0, 0, 2, 16]),
        ("triangle_free", GF2, [0, 0, 0, 0, 0, 0, 1, 4, 33, 195]),
        ("bipartite", GF2, [0, 0, 0, 0, 0, 0, 1, 1, 8, 32]),
        ("connected", GF2, [0, 0, 0, 0, 0, 0, 2]),
        ("all", GF3, [0, 0, 0, 0, 0, 0, 2]),
        ("triangle_free", GF3, [0, 0, 0, 0, 0, 0, 1]),
        ("all", RATIONALS, [0, 0, 0, 0, 0, 0, 2]),
        ("triangle_free", RATIONALS, [0, 0, 0, 0, 0, 0, 1]),
    ])
    def test_equals_betti_graph_on_every_class(self, monkeypatch, cls, field, fallbacks):
        # each class's origin is a child of one of the classes one size
        # down, isomorphic to the class; the step at its new vertex, from
        # the parent's vectors, gives betti_graph's vector of that child.
        # fallbacks[n - 1] counts the children at n it hands to betti_graph
        handed = Counter()

        def counted(g, f):
            handed[g.n] += 1
            return betti_graph(g, f)

        monkeypatch.setattr(search, "betti_graph", counted)
        trifree = cls in ("triangle_free", "bipartite")
        for n in range(1, len(fallbacks) + 1):
            parents = search._classes(n - 1, trifree)[0]
            vectors = {}
            reps = enumerate_graphs(n, cls)
            assert len(reps.origins) == len(reps)
            for rep, origin in zip(reps, reps.origins):
                index, nb = origin >> (n - 1), origin & ((1 << (n - 1)) - 1)
                parent = parents[index]
                if index not in vectors:
                    vectors[index] = _Vectors(parent, field)
                child = Graph(n, search._extend(parent.adj, nb))
                assert canonical_form(child) == encode_graph6(rep)
                got = search._child_vector(vectors[index], parent, nb, field)
                assert got == betti_graph(child, field).by_degree, (n, encode_graph6(rep))
        assert [handed[n] for n in range(1, len(fallbacks) + 1)] == fallbacks


class TestStreaming:
    def test_round_trip(self):
        words = [encode_graph6(g) for g in enumerate_graphs(4, "all")]
        text = [w + "\n" for w in words] + ["", "  \n"]
        back = [encode_graph6(g) for g in stream_graph6(text)]
        assert back == words

    def test_strict_names_line(self):
        lines = ["Bw\n", "!!bad\n", "A_\n"]
        with pytest.raises(Graph6Error) as err:
            list(stream_graph6(lines, strict=True))
        assert str(err.value) == "line 2: invalid length character (byte offset 0)"
        with pytest.raises(Graph6Error) as err:
            list(stream_graph6(["D~{\n", "D~{{\n"], strict=True))
        assert str(err.value) == "line 2: trailing garbage after graph6 word (byte offset 3)"
        assert err.value.offset == 3

    def test_lenient_skips(self):
        lines = ["Bw\n", "!!bad\n", "\n", "A_\n"]
        got = list(stream_graph6(lines, strict=False))
        # the bad line is yielded as None, so it can be counted; the blank one is not
        assert [g is None for g in got] == [False, True, False]


class TestMaximize:
    def test_k5_unique_maximizer(self):
        rep = maximize("b", "all", n=5)
        assert rep.max_value == 4
        assert rep.maximizers == [encode_graph6(parse_graph6("D~{"))]
        assert rep.all_within_bound
        assert rep.graphs_examined == 34

    def test_planted_violation_is_reported(self, monkeypatch):
        planted = canonical_form(empty_graph(4))
        monkeypatch.setattr(search, "_child_vector", planted_child_vector(planted))
        rep = maximize("b", n=4)
        assert rep.all_within_bound is False
        assert rep.violations == [{"graph6": planted, "value": 100, "bound": "b-le-theta^n"}]
        assert (rep.max_value, rep.maximizers) == (100, [planted])

    @pytest.mark.parametrize("cls, n", [("all", 6), ("all", 8), ("triangle_free", 10),
                                        ("bipartite", 10), ("connected", 8)])
    def test_stream_agrees_with_generator(self, cls, n):
        # a streamed graph's b comes from b_graph, a generated class's from its parent's vectors
        gen = maximize("b", cls, n=n)
        words = [encode_graph6(g) + "\n" for g in enumerate_graphs(n, cls)]
        streamed = maximize("b", cls, graphs=stream_graph6(words))
        assert gen.max_value == streamed.max_value
        assert gen.maximizers == streamed.maximizers

    def test_bneigh_metric(self):
        rep = maximize("bneigh", "all", n=4)
        assert rep.max_value == 3  # attained by 2K2
        assert rep.all_within_bound

    def test_beta_metric(self):
        rep = maximize("beta", "all", n=4)
        # beta is maximized by K4: 2^3*2+2 = 18
        assert rep.max_value == 18
        assert rep.all_within_bound

    def test_beta_metric_refuses_over_cap(self):
        with pytest.raises(ValueError, match="n=19 > cap=18"):
            maximize("beta", graphs=[empty_graph(19)])

    def test_checkpointing(self, tmp_path):
        path = tmp_path / "ck.json"
        rep = maximize("b", "all", n=5, checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        assert payload["graphs_examined"] == rep.graphs_examined == 34
        assert payload["max_value"] == 4
        assert payload["maximizers"] == rep.maximizers
        assert (payload["n"], payload["field"], payload["sizes"]) == (5, "gf2", [5])

    @pytest.mark.parametrize("stream", [False, True], ids=["generator", "stream"])
    @pytest.mark.parametrize("stop, saved", [(50, 50), (99, 50), (120, 100), (156, 156)])
    def test_resume_matches_uninterrupted_search(self, monkeypatch, tmp_path, stream, stop, saved):
        # the search is cut after `stop` homology calls; the n = 6 search
        # examines 156 classes, so stop = 156 leaves a finished checkpoint
        words = [encode_graph6(g) + "\n" for g in enumerate_graphs(6, "all")]
        path = str(tmp_path / "ck.json")

        def run(**kwargs):
            if stream:
                return maximize("b", graphs=stream_graph6(words), checkpoint_path=path, **kwargs)
            return maximize("b", n=6, checkpoint_path=path, **kwargs)

        whole = run().to_json_dict()
        calls = []
        limit = stop
        # a streamed graph's b comes from b_graph, a generated class's from its parent's vectors
        seam = "b_graph" if stream else "_child_vector"
        computed = getattr(search, seam)

        def cut(*args):
            if len(calls) == limit:
                raise KeyboardInterrupt
            calls.append(args)
            return computed(*args)

        monkeypatch.setattr(search, "CHECKPOINT_EVERY", 50)
        monkeypatch.setattr(search, seam, cut)
        if stop < whole["graphs_examined"]:
            with pytest.raises(KeyboardInterrupt):
                run()
        else:
            run()
        assert json.loads((tmp_path / "ck.json").read_text())["graphs_examined"] == saved
        calls.clear()
        limit = None
        resumed = run(resume=True).to_json_dict()
        assert len(calls) == whole["graphs_examined"] - saved
        del whole["wall_time"], resumed["wall_time"]
        assert resumed == whole

    @pytest.mark.parametrize("stop, saved", [(50, 50), (120, 100), (156, 156)])
    def test_resume_counts_skipped_lines_once(self, monkeypatch, tmp_path, stop, saved):
        # unread lines before, among and after the 156 classes of n = 6
        words = [encode_graph6(g) + "\n" for g in enumerate_graphs(6, "all")]
        for at in (156, 130, 75, 50, 50, 0):
            words.insert(at, "!!bad\n")
        path = str(tmp_path / "ck.json")

        def run(**kwargs):
            return maximize("b", graphs=stream_graph6(words, strict=False), checkpoint_path=path,
                            **kwargs)

        whole = run().to_json_dict()
        assert (whole["graphs_examined"], whole["skipped"]) == (156, 6)
        calls = []

        def cut(g, fieldspec):
            if len(calls) == stop:
                raise KeyboardInterrupt
            calls.append(g)
            return b_graph(g, fieldspec)

        monkeypatch.setattr(search, "CHECKPOINT_EVERY", 50)
        monkeypatch.setattr(search, "b_graph", cut)
        if stop < 156:
            with pytest.raises(KeyboardInterrupt):
                run()
        else:
            run()
        assert json.loads((tmp_path / "ck.json").read_text())["graphs_examined"] == saved
        monkeypatch.setattr(search, "b_graph", b_graph)
        resumed = run(resume=True).to_json_dict()
        del whole["wall_time"], resumed["wall_time"]
        assert resumed == whole

    def test_resume_refuses_more_skipped_lines(self, tmp_path):
        path = str(tmp_path / "ck.json")
        maximize("b", graphs=stream_graph6(["Bw\n", "A_\n"], strict=False), checkpoint_path=path)
        with pytest.raises(ValueError, match="cannot resume .* not the ones it examined"):
            maximize("b", graphs=stream_graph6(["Bw\n", "!!\n", "A_\n"], strict=False),
                     checkpoint_path=path, resume=True)

    def test_resume_keeps_checkpointed_state(self, tmp_path):
        path = tmp_path / "ck.json"
        k5, empty5 = complete(5), empty_graph(5)
        maximize("b", graphs=[k5], checkpoint_path=str(path))
        rep = maximize("b", graphs=[k5, empty5], checkpoint_path=str(path), resume=True)
        assert rep.graphs_examined == 2
        assert rep.max_value == 4
        assert rep.maximizers == ["D~{"]
        assert rep.all_within_bound and rep.violations == []
        payload = json.loads(path.read_text())
        assert payload["graphs_examined"] == 2
        assert payload["max_value"] == 4
        assert list(tmp_path.iterdir()) == [path]

    def test_resume_keeps_sizes_and_bound(self, tmp_path):
        path = tmp_path / "ck.json"
        graphs = [complete(5), empty_graph(5)]
        maximize("b", graphs=graphs, checkpoint_path=str(path))
        assert json.loads(path.read_text())["sizes"] == [5]
        rep = maximize("b", graphs=graphs, checkpoint_path=str(path), resume=True)
        assert rep.graphs_examined == 2
        assert rep.n == 5 and rep.max_value == 4
        assert rep.bound_name == "b-le-theta^n" and rep.bound == conjecture_power(2, 5)
        assert rep.to_json_dict()["bound_lo"] == 4.0

    def test_resume_refuses_checkpoint_without_sizes(self, tmp_path):
        path = tmp_path / "ck.json"
        maximize("b", graphs=[empty_graph(3)], checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        del payload["sizes"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="cannot resume .* lacks"):
            maximize("b", graphs=[empty_graph(3)] * 2, checkpoint_path=str(path), resume=True)

    def test_resume_refuses_checkpoint_without_skipped(self, tmp_path):
        path = tmp_path / "ck.json"
        maximize("b", graphs=[empty_graph(3)], checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        del payload["skipped"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"cannot resume .* lacks \['skipped'\]"):
            maximize("b", graphs=[empty_graph(3)] * 2, checkpoint_path=str(path), resume=True)

    def test_resume_refuses_checkpoint_without_digest(self, tmp_path):
        path = tmp_path / "ck.json"
        maximize("b", graphs=[empty_graph(3)], checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        del payload["digest"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"cannot resume .* lacks \['digest'\]"):
            maximize("b", graphs=[empty_graph(3)] * 2, checkpoint_path=str(path), resume=True)

    def test_resume_refuses_other_graphs(self, tmp_path):
        path = tmp_path / "ck.json"
        maximize("b", graphs=[complete(5), empty_graph(5)], checkpoint_path=str(path))
        with pytest.raises(ValueError, match="the first 2 graphs of the input are not the ones"):
            maximize("b", graphs=[empty_graph(5), complete(5), complete(5)],
                     checkpoint_path=str(path), resume=True)

    def test_resume_restores_violations(self, tmp_path):
        path = tmp_path / "ck.json"
        maximize("b", graphs=[complete(5)], checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        violation = {"graph6": "D~{", "value": 4, "bound": "b-le-theta^n"}
        payload.update(all_within_bound=False, violations=[violation])
        path.write_text(json.dumps(payload))
        rep = maximize("b", graphs=[complete(5), empty_graph(5)],
                       checkpoint_path=str(path), resume=True)
        assert not rep.all_within_bound
        assert rep.violations == [violation]

    @pytest.mark.parametrize("change", [
        {"metric": "bneigh"},
        {"graph_class": "triangle_free"},
        {"fieldspec": GF3},
        {"n": 4},
    ])
    def test_resume_refuses_other_search(self, tmp_path, change):
        path = str(tmp_path / "ck.json")
        maximize("b", n=3, checkpoint_path=path)
        kwargs = {"metric": "b", "n": 3, **change}
        with pytest.raises(ValueError, match="cannot resume"):
            maximize(checkpoint_path=path, resume=True, **kwargs)

    def test_resume_needs_the_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="cannot resume"):
            maximize("b", graphs=[empty_graph(3)] * 2,
                     checkpoint_path=str(tmp_path / "missing.json"), resume=True)
        with pytest.raises(ValueError, match="cannot resume without a checkpoint path"):
            maximize("b", n=3, resume=True)

    def test_report_serialization(self):
        rep = maximize("b", "all", n=4)
        d = rep.to_json_dict()
        assert d["n"] == 4 and d["max_value"] == 3
        line = rep.to_tsv_line()
        assert line.split("\t")[0] == "4"

    @pytest.mark.parametrize("cls, outside", [
        ("triangle_free", complete(5)),
        ("bipartite", complete(5)),
        ("connected", empty_graph(2)),
    ], ids=["triangle_free", "bipartite", "connected"])
    def test_refuses_graph_outside_class(self, cls, outside):
        word = encode_graph6(outside)
        with pytest.raises(ValueError, match=re.escape(f"graph {word} is not in class '{cls}'")):
            maximize("b", cls, graphs=[complete(1), outside])

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="unknown class"):
            maximize("b", "planar", graphs=[complete(1)])

    def test_class_all_checks_nothing(self, monkeypatch):
        def refuse(g):
            raise AssertionError("class 'all' needs no predicate")

        monkeypatch.setattr(search, "graph_predicates", refuse)
        assert maximize("b", "all", graphs=[complete(5)]).max_value == 4

    def test_wall_time_counts_enumeration(self, monkeypatch):
        clock = [100.0]

        def slow_enumeration(n, cls):
            clock[0] += 7.0
            return [complete(n)]

        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(search, "enumerate_graphs", slow_enumeration)
        rep = maximize("b", "all", n=3)
        assert rep.graphs_examined == 1
        assert rep.wall_time == 7.0

    def test_bad_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            maximize("diameter", "all", n=3)

    def test_size_and_graphs_refused_together(self):
        # n would be reported, and its bound applied, for graphs of another size
        with pytest.raises(ValueError, match="exactly one of n"):
            maximize("b", n=5, graphs=[complete(3)])
        with pytest.raises(ValueError, match="exactly one of n"):
            maximize("b")


class TestConjectureChecks:
    def test_shape_and_small_case(self):
        rep = conjecture_checks(6)
        assert rep["n"] == 6
        assert rep["triangle_free_max_b"] == 2
        assert not rep["bounds_violated"]
        assert all("is_bipartite" in m for m in rep["maximizers"])

    def test_petersen_ties_a_bipartite_maximizer(self):
        rep = conjecture_checks(10)
        assert rep["triangle_free_max_b"] == 4
        assert rep["graphs_examined"] == 12172
        flags = {m["graph6"]: m["is_bipartite"] for m in rep["maximizers"]}
        assert flags == {"I?BvUqw]?": True, "I?qb@pSc_": False}
        assert not rep["all_maximizers_bipartite"]
        assert rep["some_maximizer_bipartite"]
        assert not rep["bounds_violated"]

    def test_with_complexes(self):
        from flagbetti.constructions import missing_face_complex

        k = missing_face_complex(5, 2).complex_
        rep = conjecture_checks(4, complexes=[k])
        entry = rep["complex_checks"][0]
        assert entry["b"] == 4
        assert entry["within_conjectured_bound"]
        assert entry["within_proven_bound"]
        assert not rep["proven_bound_counterexamples"]


class TestVanishingSweep:
    def test_alpha_against_brute_force(self):
        # every mask asked once, ascending and then shuffled, each order
        # on a fresh memo, as the sweep asks its parent's masks
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 7), rng.random())
            best = [0] * (1 << g.n)
            for s in independent_sets_oracle(g):
                for mask in range(1 << g.n):
                    if s & mask == s:
                        best[mask] = max(best[mask], bin(s).count("1"))
            masks = list(range(1 << g.n))
            alpha = search._alpha(g.adj)
            assert [alpha(mask) for mask in masks] == best
            rng.shuffle(masks)
            alpha = search._alpha(g.adj)
            assert [alpha(mask) for mask in masks] == [best[mask] for mask in masks]

    @pytest.mark.parametrize("n, examined, computed",
                             [(0, 1, 0), (1, 1, 1), (6, 160, 37), (7, 1578, 533)])
    def test_counts(self, n, examined, computed):
        # examined: the filtered children of the parents with alpha + 1 at
        # least n // 2 + 1; computed: those whose own alpha reaches it
        rep = flag_vanishing_sweep(n)
        assert (rep["graphs_examined"], rep["homology_computed"]) == (examined, computed)
        assert rep["pass"]

    @pytest.mark.parametrize("n, computed, handed", [(6, 37, 0), (7, 533, 1), (8, 1341, 2),
                                                     (9, 46_959, 180)])
    def test_few_children_reach_betti_graph(self, monkeypatch, n, computed, handed):
        # of the computed children, those whose deletion step at the new
        # vertex gives up, so that betti_graph gets the child
        calls = []
        monkeypatch.setattr(search, "betti_graph", lambda g, f: calls.append(g) or betti_graph(g, f))
        rep = flag_vanishing_sweep(n)
        assert (rep["homology_computed"], len(calls)) == (computed, handed)
        assert rep["pass"]

    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 1), (3, 3), (4, 4), (5, 20), (6, 36),
                                            (7, 359), (8, 930)])
    def test_computes_every_class_that_can_fail(self, monkeypatch, n, classes):
        # the graphs given homology are, up to isomorphism, exactly the
        # classes whose independence number clears the threshold
        seen = set()
        child_vector = search._child_vector

        def watch(vector_p, parent, nb, field):
            seen.add(canonical_form(Graph(parent.n + 1, search._extend(parent.adj, nb))))
            return child_vector(vector_p, parent, nb, field)

        monkeypatch.setattr(search, "_child_vector", watch)
        assert flag_vanishing_sweep(n)["pass"]
        expected = {encode_graph6(g) for g in enumerate_graphs(n)
                    if max(f.bit_count() for f in independence_complex(g).facets) > n // 2}
        assert len(expected) == classes
        assert seen == expected

    @pytest.mark.parametrize("n, word", [(6, "E???"), (7, "F????")])
    def test_planted_violation_is_reported(self, monkeypatch, n, word):
        # a fake b_{n//2} = 1 on the edgeless graph alone must be the one violation
        child_vector = search._child_vector

        def planted(vector_p, parent, nb, field):
            if not any(parent.adj) and not nb:
                return ((n // 2, 1),)
            return child_vector(vector_p, parent, nb, field)

        monkeypatch.setattr(search, "_child_vector", planted)
        rep = flag_vanishing_sweep(n)
        assert not rep["pass"]
        assert rep["violations"] == [{"graph6": word, "degrees": [(n // 2, 1)]}]


class TestMoonMoser:
    @pytest.mark.parametrize("n,expect", [(3, 3), (6, 9), (7, 12)])
    def test_extremal_facet_counts(self, n, expect):
        rep = moon_moser_check(n)
        assert rep["max_facets"] == expect
        assert rep["within_bound"]
