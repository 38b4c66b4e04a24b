import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from flagbetti import cli, complexes, invariants, search, verify
from flagbetti.cli import main
from flagbetti.complexes import FaceCapExceeded, read_facet_file, write_facet_file
from flagbetti.constructions import fano_complex
from flagbetti.graphs import canonical_form, cycle, empty_graph, encode_graph6, parse_graph6
from flagbetti.invariants import Enclosure
from flagbetti.search import enumerate_graphs
from conftest import planted_b_graph, planted_child_vector


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


class TestBetti:
    def test_graph6(self, runner):
        res = invoke(runner, ["betti", "--graph6", "D~{"])  # K5
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out == {"betti": {"0": 4}, "total": 4, "field": "gf2"}

    def test_facets(self, runner, tmp_path):
        path = tmp_path / "fano.facets"
        path.write_text(write_facet_file(fano_complex().complex_))
        res = invoke(runner, ["--field", "rational", "betti", "--facets", str(path)])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out == {"betti": {"1": 8}, "total": 8, "field": "rational"}

    def test_requires_exactly_one_input(self, runner):
        res = invoke(runner, ["betti"])
        assert res.exit_code == 2
        res = invoke(runner, ["betti", "--graph6", "Bw", "--facets", "x"])
        assert res.exit_code == 2

    def test_bad_graph6_is_usage_error(self, runner):
        res = invoke(runner, ["betti", "--graph6", "!!"])
        assert res.exit_code == 2

    def test_header_only_graph6_is_usage_error(self, runner):
        res = invoke(runner, ["betti", "--graph6", ">>graph6<<"])
        assert res.exit_code == 2
        assert "empty graph6 word" in json.loads(res.stderr)["error"]

    def test_edgeless_graph_is_reduced(self, runner):
        # Ind is the 22-simplex: 2^23 faces unreduced, over the face cap
        res = invoke(runner, ["betti", "--graph6", encode_graph6(empty_graph(23))])
        assert res.exit_code == 0
        assert json.loads(res.output) == {"betti": {}, "total": 0, "field": "gf2"}


@pytest.mark.parametrize("target, args", [
    ("betti", ["betti", "--facets", "k.facets"]),
    ("hochster_beta", ["beta", "--graph6", "D~{"]),
    ("check_bounds", ["check", "--graph6", "D~{"]),
    ("maximize", ["search", "--n", "4"]),
    ("betti_graph", ["betti", "--graph6", "D~{"]),
])
def test_face_cap_is_resource_error(runner, monkeypatch, tmp_path, target, args):
    def too_many_faces(*a, **kw):
        raise FaceCapExceeded(10)

    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.facets").write_text(write_facet_file(fano_complex().complex_))
    monkeypatch.setattr(cli, target, too_many_faces)
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": str(FaceCapExceeded(10))}


def test_fallback_over_face_cap_is_resource_error(runner, monkeypatch):
    # GoOgok's Ind (38 faces) reaches betti, the only step that lists faces
    monkeypatch.setattr(complexes, "DEFAULT_FACE_CAP", 37)
    res = invoke(runner, ["betti", "--graph6", "GoOgok"])
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": str(FaceCapExceeded(37))}
    res = invoke(runner, ["betti", "--graph6", encode_graph6(cycle(60))])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"betti": {"19": 2}, "total": 2, "field": "gf2"}


@pytest.mark.parametrize("args", [
    ["check", "--graph6", "D~{"],
    ["search", "--n", "4"],
])
def test_undecided_enclosure_is_resource_error(runner, monkeypatch, args):
    def undecided(self, value):
        raise ArithmeticError("enclosure cannot decide")

    monkeypatch.setattr(Enclosure, "holds_upper_bound", undecided)
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert json.loads(res.stderr) == {"error": "enclosure cannot decide"}


def _raise_value_error(*args, **kwargs):
    raise ValueError("library refused")


@pytest.mark.parametrize("owner, name, args", [
    (verify, "run_suite", ["verify", "--suite", "lemmas"]),
    (cli, "neighbourhood_complex", ["neigh", "--graph6", "Bw"]),
    (cli, "alexander_dual", ["dual", "--facets", "k.facets"]),
    (cli, "bip_graph", ["bip", "--facets", "k.facets"]),
    (cli, "dominance_complex", ["dom", "--graph6", "Bw"]),
    (cli.BUILDERS, "fano_complex", ["build", "fano_complex"]),
], ids=["verify", "neigh", "dual", "bip", "dom", "build"])
def test_library_error_is_usage_error(runner, monkeypatch, tmp_path, owner, name, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.facets").write_text(write_facet_file(fano_complex().complex_))
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, (_raise_value_error, ()))
    else:
        monkeypatch.setattr(owner, name, _raise_value_error)
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr) == {"error": "library refused"}


def test_unwritable_checkpoint_is_resource_error(runner, tmp_path):
    ck = tmp_path / "missing" / "ck.json"
    res = invoke(runner, ["search", "--n", "3", "--checkpoint", str(ck)])
    assert res.exit_code == 2
    assert res.stderr.count("\n") == 1
    assert "No such file or directory" in json.loads(res.stderr)["error"]


def test_deep_recursion_is_resource_error(runner, tmp_path, monkeypatch):
    # no known input reaches the recursion limit, so the library call raises
    def too_deep(k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "alexander_dual", too_deep)
    path = tmp_path / "fano.facets"
    path.write_text(write_facet_file(fano_complex().complex_))
    res = invoke(runner, ["dual", "--facets", str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert "recursion" in json.loads(res.stderr)["error"]


def test_out_of_memory_is_resource_error(runner, monkeypatch):
    # a MemoryError carries no message, so the error names its type
    def out_of_memory(g, field):
        raise MemoryError

    monkeypatch.setattr(cli, "betti_graph", out_of_memory)
    res = invoke(runner, ["betti", "--graph6", "D~{"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr)["error"] == "MemoryError"


def test_dual_of_a_large_sphere(runner, tmp_path):
    # the boundary of the 1,499-simplex: its one minimal non-face is the
    # whole vertex set, reached by a transversal search 1,500 vertices deep
    n = 1500
    path = tmp_path / "sphere.facets"
    path.write_text(f"n {n}\n" + "".join(
        " ".join(str(v) for v in range(n) if v != i) + "\n" for i in range(n)))
    res = invoke(runner, ["dual", "--facets", str(path)])
    assert res.exit_code == 0
    assert res.stdout == f"n {n}\nempty\n"


def test_help_is_not_an_error(runner):
    res = invoke(runner, ["search", "--help"])
    assert res.exit_code == 0
    assert "--checkpoint" in res.stdout


def test_click_usage_error_keeps_its_text(runner):
    res = invoke(runner, ["beta", "--workers", "2", "--graph6", "Bw"])
    assert res.exit_code == 2
    assert "No such option" in res.stderr
    assert not res.stderr.lstrip().startswith("{")


class TestBeta:
    def test_k3(self, runner):
        res = invoke(runner, ["beta", "--graph6", "Bw"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["beta_total"] == 6

    def test_cap_respected(self, runner):
        word = encode_graph6(empty_graph(19))
        res = invoke(runner, ["beta", "--graph6", word])
        assert res.exit_code == 2
        assert "n=19 > cap=18" in json.loads(res.stderr)["error"]


class TestTransforms:
    def test_dual_round_trip(self, runner, tmp_path):
        k = fano_complex().complex_
        path = tmp_path / "k.facets"
        path.write_text(write_facet_file(k))
        res = invoke(runner, ["dual", "--facets", str(path)])
        assert res.exit_code == 0
        dual = read_facet_file(res.output)
        assert dual.n == 7

    def test_bip(self, runner, tmp_path):
        path = tmp_path / "k.facets"
        path.write_text(write_facet_file(fano_complex().complex_))
        res = invoke(runner, ["bip", "--facets", str(path)])
        assert res.exit_code == 0
        g = parse_graph6(res.output.strip())
        assert g.n == 14

    def test_neigh(self, runner):
        res = invoke(runner, ["neigh", "--graph6", "Bw"])
        assert res.exit_code == 0
        k = read_facet_file(res.output)
        assert k.n == 3

    def test_dom(self, runner):
        res = invoke(runner, ["dom", "--graph6", "Bw"])
        assert res.exit_code == 0
        k = read_facet_file(res.output)
        # minimal dominating sets of K3 are the singletons
        assert len(k.facets) == 3


class TestBuild:
    def test_graph_case(self, runner):
        res = invoke(runner, ["build", "union_of_cliques", "10", "5"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["expected"] == 16
        assert parse_graph6(out["graph6"]).n == 10

    def test_complex_case(self, runner):
        res = invoke(runner, ["build", "missing_face_complex", "5", "2"])
        out = json.loads(res.output)
        assert out["expected"] == 4
        assert read_facet_file(out["facets"]).n == 5

    def test_unknown(self, runner):
        res = invoke(runner, ["build", "petersen"])
        assert res.exit_code == 2

    def test_bad_params(self, runner):
        res = invoke(runner, ["build", "union_of_cliques", "7", "5"])
        assert res.exit_code == 2

    def test_empty_size_refused(self, runner):
        res = invoke(runner, ["build", "neighbourhood_power", "0"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "need n >= 4" in json.loads(res.stderr)["error"]


class TestVerify:
    def test_lemmas_pass(self, runner):
        res = invoke(runner, ["verify", "--suite", "lemmas"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["all_pass"]

    def test_all_suites_pass_every_entry(self, runner):
        res = invoke(runner, ["verify", "--suite", "all"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["all_pass"] is out["table1"]["all_pass"] is out["lemmas"]["all_pass"] is True
        counts = {"table1": {"constructions": 5, "upper_bounds": 5},
                  "lemmas": {"golden": 36, "closed_forms": 11}}
        for section, keys in counts.items():
            for key, count in keys.items():
                entries = out[section][key]
                assert len(entries) == count, (section, key)
                assert all(e["pass"] is True for e in entries), (section, key)


class TestSearch:
    def test_internal_generator(self, runner):
        res = invoke(runner, ["search", "--metric", "b", "--n", "5"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["max_value"] == 4
        assert out["maximizers"] == ["D~{"]
        assert out["all_within_bound"]

    def test_stdin_stream(self, runner):
        words = "Bw\nBo\nB?\n"
        res = invoke(runner, ["search", "--metric", "b", "--stdin"], input=words)
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["graphs_examined"] == 3

    def test_strict_stream_error(self, runner):
        res = invoke(runner, ["search", "--metric", "b", "--stdin"], input="Bw\n!!\n")
        assert res.exit_code == 2

    def test_header_only_line(self, runner):
        words = "Bw\n>>graph6<<\n"
        res = invoke(runner, ["search", "--metric", "b", "--stdin", "--no-strict"], input=words)
        assert res.exit_code == 0
        assert json.loads(res.output)["graphs_examined"] == 1
        res = invoke(runner, ["search", "--metric", "b", "--stdin"], input=words)
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"].startswith("line 2: empty graph6 word")

    def test_lenient_stream_counts_bad_lines(self, runner):
        res = invoke(runner, ["search", "--stdin", "--no-strict"], input="D~{\n\nbad\n")
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert (out["graphs_examined"], out["skipped"], out["max_value"]) == (1, 1, 4)
        res = invoke(runner, ["search", "--stdin", "--no-strict", "--tsv"], input="D~{\n\nbad\n")
        assert res.output.split("\t")[:2] == ["5", "4"]

    def test_beta_over_cap(self, runner):
        word = encode_graph6(empty_graph(19)) + "\n"
        res = invoke(runner, ["search", "--metric", "beta", "--stdin"], input=word)
        assert res.exit_code == 2
        assert "n=19 > cap=18" in json.loads(res.stderr)["error"]

    @pytest.mark.parametrize("args, stdin", [(["--n", "0"], None), (["--stdin"], "?\n")],
                             ids=["internal", "stream"])
    def test_size_zero_reports_bound(self, runner, args, stdin):
        # K0 has b = 1, and theta^0 = 1 bounds it exactly
        res = invoke(runner, ["search", "--metric", "b", *args], input=stdin)
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert (out["n"], out["graphs_examined"], out["max_value"]) == (0, 1, 1)
        assert out["bound_name"] == "b-le-theta^n"
        assert out["bound_lo"] == out["bound_hi"] == 1.0

    def test_planted_violation_is_math_failure(self, runner, monkeypatch):
        planted = canonical_form(empty_graph(4))
        monkeypatch.setattr(search, "_child_vector", planted_child_vector(planted))
        res = invoke(runner, ["search", "--n", "4"])
        assert res.exit_code == 1
        out = json.loads(res.stdout)
        assert out["all_within_bound"] is False
        assert out["violations"] == [{"graph6": planted, "value": 100, "bound": "b-le-theta^n"}]

    def test_tsv(self, runner):
        res = invoke(runner, ["search", "--metric", "b", "--n", "4", "--tsv"])
        assert res.exit_code == 0
        assert res.output.split("\t")[0] == "4"

    def test_negative_size_is_usage_error(self, runner):
        res = invoke(runner, ["search", "--n", "-1"])
        assert res.exit_code == 2
        assert res.stderr.count("\n") == 1
        assert json.loads(res.stderr) == {"error": "need n >= 0 vertices, got -1"}

    @pytest.mark.parametrize("cls, name", [("trifree", "triangle_free"), ("bip", "bipartite")])
    def test_graph_outside_class_is_usage_error(self, runner, cls, name):
        res = invoke(runner, ["search", "--class", cls, "--stdin"], input="Bo\nD~{\n")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert json.loads(res.stderr) == {"error": f"graph D~{{ is not in class '{name}'"}

    def test_needs_one_source(self, runner):
        res = invoke(runner, ["search", "--metric", "b"])
        assert res.exit_code == 2

    def test_resume_from_checkpoint(self, runner, tmp_path):
        ck = str(tmp_path / "ck.json")
        res = invoke(runner, ["search", "--n", "4", "--checkpoint", ck])
        assert res.exit_code == 0
        res = invoke(runner, ["search", "--n", "4", "--checkpoint", ck, "--resume"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["graphs_examined"] == 11
        assert out["max_value"] == 3 and out["maximizers"] == ["C~"]

    def test_resume_refuses_checkpoint_without_sizes(self, runner, tmp_path):
        ck = tmp_path / "ck.json"
        invoke(runner, ["search", "--n", "4", "--checkpoint", str(ck)])
        payload = json.loads(ck.read_text())
        del payload["sizes"]
        ck.write_text(json.dumps(payload))
        res = invoke(runner, ["search", "--n", "4", "--checkpoint", str(ck), "--resume"])
        assert res.exit_code == 2
        assert "lacks ['sizes']" in json.loads(res.stderr)["error"]

    def test_resume_refuses_checkpoint_without_skipped(self, runner, tmp_path):
        ck = tmp_path / "ck.json"
        invoke(runner, ["search", "--stdin", "--no-strict", "--checkpoint", str(ck)], input="Bw\nbad\n")
        payload = json.loads(ck.read_text())
        assert payload["skipped"] == 1
        del payload["skipped"]
        ck.write_text(json.dumps(payload))
        res = invoke(runner, ["search", "--stdin", "--no-strict", "--checkpoint", str(ck), "--resume"],
                     input="Bw\nbad\n")
        assert res.exit_code == 2
        assert "lacks ['skipped']" in json.loads(res.stderr)["error"]

    def test_resume_refuses_other_class(self, runner, tmp_path):
        ck = str(tmp_path / "ck.json")
        invoke(runner, ["search", "--n", "4", "--checkpoint", ck])
        res = invoke(runner, ["search", "--n", "4", "--class", "trifree",
                              "--checkpoint", ck, "--resume"])
        assert res.exit_code == 2
        assert "cannot resume" in json.loads(res.stderr)["error"]

    # a checkpoint in an older format: an input offset, no report fields
    OLD_CHECKPOINT = {"metric": "b", "class": "all", "field": "gf2", "offset": 11, "max_value": 3,
                      "maximizers": ["C~"], "violations": [], "all_within_bound": True, "sizes": [4]}

    # an n = 3 checkpoint whose maximizers are not a list
    NULL_MAXIMIZERS = {"metric": "b", "class": "all", "field": "gf2", "n": 3, "graphs_examined": 1,
                       "max_value": 0, "maximizers": None, "violations": [],
                       "all_within_bound": True, "sizes": [3]}

    @pytest.mark.parametrize("setup, args", [
        (None, ["--n", "5", "--resume"]),
        (["--n", "4"], ["--n", "5", "--resume"]),
        (OLD_CHECKPOINT, ["--n", "4", "--resume"]),
        (OLD_CHECKPOINT, ["--stdin", "--resume"]),
        ("[1]", ["--n", "3", "--resume"]),
        (NULL_MAXIMIZERS, ["--n", "3", "--resume"]),
    ], ids=["no-checkpoint", "other-n", "old-format", "old-format-stdin", "not-an-object",
            "null-maximizers"])
    def test_resume_refusal_is_usage_error(self, runner, tmp_path, setup, args):
        ck = tmp_path / "ck.json"
        if isinstance(setup, list):
            invoke(runner, ["search", *setup, "--checkpoint", str(ck)])
        elif setup is not None:
            ck.write_text(setup if isinstance(setup, str) else json.dumps(setup))
        if setup is not None:
            args = [*args, "--checkpoint", str(ck)]
        res = invoke(runner, ["search", *args], input="Bo\n" * 20)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert "cannot resume" in json.loads(res.stderr)["error"]

    def test_resume_refuses_short_stream(self, runner, tmp_path):
        # the n = 4 checkpoint has examined 11 graphs; a 2-line stream ends first
        ck = str(tmp_path / "ck.json")
        invoke(runner, ["search", "--n", "4", "--checkpoint", ck])
        res = invoke(runner, ["search", "--stdin", "--checkpoint", ck, "--resume"],
                     input="D~{\nD??\n")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert "the input ends after 2 graphs" in json.loads(res.stderr)["error"]
        # a different stream at least as long is refused by the checkpoint's digest
        res = invoke(runner, ["search", "--stdin", "--checkpoint", ck, "--resume"],
                     input="C?\n" * 11 + "D~{\n")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert "the first 11 graphs of the input are not the ones it examined" in (
            json.loads(res.stderr)["error"])
        # the n = 4 classes in generator order resume: only the 12th word is examined
        words = "".join(encode_graph6(g) + "\n" for g in enumerate_graphs(4))
        res = invoke(runner, ["search", "--stdin", "--checkpoint", ck, "--resume"],
                     input=words + "D~{\n")
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert (out["graphs_examined"], out["max_value"]) == (12, 4)


class TestConstants:
    def test_json(self, runner):
        res = invoke(runner, ["constants", "--dmax", "6"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["theta"].startswith("1.3195")
        assert out["gamma"].startswith("1.2498")
        assert out["theta_maximal_up_to"] == 6

    def test_dmax_zero_is_usage_error(self, runner):
        res = invoke(runner, ["constants", "--dmax", "0"])
        assert res.exit_code == 2
        assert "d_max" in json.loads(res.stderr)["error"]

    def test_failed_maximality_sweep_is_math_failure(self, runner, monkeypatch):
        def failing(d_max):
            raise ArithmeticError("maximality sweep failed; constants are wrong")

        monkeypatch.setattr(cli, "solve_constants", failing)
        res = invoke(runner, ["constants", "--dmax", "6"])
        assert res.exit_code == 1
        assert "maximality" in json.loads(res.stderr)["error"]


class TestCheck:
    def test_graph(self, runner):
        res = invoke(runner, ["check", "--graph6", "D~{", "--beta"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["b"] == 4 and out["all_pass"]

    def test_complex(self, runner, tmp_path):
        path = tmp_path / "k.facets"
        path.write_text(write_facet_file(fano_complex().complex_))
        res = invoke(runner, ["check", "--facets", str(path)])
        assert res.exit_code == 0
        assert json.loads(res.output)["all_pass"]

    def test_planted_violation_is_math_failure(self, runner, monkeypatch):
        monkeypatch.setattr(invariants, "b_graph", planted_b_graph("D~{"))  # K5
        res = invoke(runner, ["check", "--graph6", "D~{"])
        assert res.exit_code == 1
        out = json.loads(res.stdout)
        assert out["b"] == 100 and out["all_pass"] is False
        assert [entry["pass"] for entry in out["bounds"]] == [False]

    def test_empty_complex(self, runner, tmp_path):
        path = tmp_path / "k.facets"
        path.write_text("n 0\nempty\n")
        res = invoke(runner, ["check", "--facets", str(path)])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["vanishing"]["pass"] and out["all_pass"]

    def test_beta_refused_for_complex(self, runner, tmp_path):
        path = tmp_path / "k.facets"
        path.write_text(write_facet_file(fano_complex().complex_))
        res = invoke(runner, ["check", "--facets", str(path), "--beta"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "graphs only" in json.loads(res.stderr)["error"]

    def test_field_option(self, runner):
        res = invoke(runner, ["--field", "gf3", "betti", "--graph6", "D~{"])
        assert json.loads(res.output)["field"] == "gf3"
        for name in ("bogus", "gfx", "gf", "gf\u0663", "gf\uff13"):
            res = invoke(runner, ["--field", name, "betti", "--graph6", "D~{"])
            assert res.exit_code == 2
            assert json.loads(res.stderr)["error"] == f"unknown field {name!r}; use gf<p> or rational"


def test_readme_cli_options_exist():
    # every --option on a `flagbetti <command>` line of the README's CLI
    # block is an option of that command or of the group
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    group_opts = {o for p in main.params for o in (*p.opts, *p.secondary_opts)}
    checked = 0
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if "flagbetti" not in words:
            continue
        name, *rest = words[words.index("flagbetti") + 1:]
        assert name in main.commands, line
        opts = group_opts | {o for p in main.commands[name].params
                             for o in (*p.opts, *p.secondary_opts)}
        for word in rest:
            if word.startswith("--"):
                assert word in opts, line
                checked += 1
    assert checked
