import json

import pytest
from click.testing import CliRunner

from flagbetti import cli
from flagbetti.cli import main
from flagbetti.complexes import FaceCapExceeded, read_facet_file, write_facet_file
from flagbetti.constructions import fano_complex
from flagbetti.graphs import empty_graph, encode_graph6, parse_graph6
from flagbetti.invariants import Enclosure


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


class TestBeta:
    def test_k3(self, runner):
        res = invoke(runner, ["beta", "--graph6", "Bw"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["beta_total"] == 6

    def test_cap_respected(self, runner):
        word = encode_graph6(empty_graph(15))
        res = invoke(runner, ["beta", "--graph6", word])
        assert res.exit_code == 2

    def test_cap_zero_is_a_cap(self, runner):
        res = invoke(runner, ["--hochster-cap", "0", "beta", "--graph6", "D~{"])
        assert res.exit_code == 2
        assert "cap=0" in json.loads(res.stderr)["error"]

    def test_bad_cap_env_is_usage_error(self, runner):
        res = invoke(runner, ["beta", "--graph6", "D~{"], env={"FLAGBETTI_HOCHSTER_CAP": "abc"})
        assert res.exit_code == 2
        assert "FLAGBETTI_HOCHSTER_CAP" in json.loads(res.stderr)["error"]
        res = invoke(runner, ["beta", "--graph6", "D~{"], env={"FLAGBETTI_HOCHSTER_CAP": "4"})
        assert res.exit_code == 2
        assert "cap=4" in json.loads(res.stderr)["error"]


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


class TestVerify:
    def test_lemmas_pass(self, runner):
        res = invoke(runner, ["verify", "--suite", "lemmas"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["all_pass"]


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

    def test_tsv(self, runner):
        res = invoke(runner, ["search", "--metric", "b", "--n", "4", "--tsv"])
        assert res.exit_code == 0
        assert res.output.split("\t")[0] == "4"

    def test_needs_one_source(self, runner):
        res = invoke(runner, ["search", "--metric", "b"])
        assert res.exit_code == 2

    def test_resume_from_checkpoint(self, runner, tmp_path):
        ck = str(tmp_path / "ck.json")
        res = invoke(runner, ["search", "--n", "4", "--checkpoint", ck])
        assert res.exit_code == 0
        res = invoke(runner, ["search", "--n", "4", "--checkpoint", ck, "--resume-offset", "11"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["graphs_examined"] == 0
        assert out["max_value"] == 3 and out["maximizers"] == ["C~"]

    def test_resume_refuses_checkpoint_without_sizes(self, runner, tmp_path):
        ck = tmp_path / "ck.json"
        invoke(runner, ["search", "--n", "4", "--checkpoint", str(ck)])
        payload = json.loads(ck.read_text())
        del payload["sizes"]
        ck.write_text(json.dumps(payload))
        res = invoke(runner, ["search", "--n", "4", "--checkpoint", str(ck), "--resume-offset", "11"])
        assert res.exit_code == 2
        assert "lacks ['sizes']" in json.loads(res.stderr)["error"]

    def test_resume_refuses_other_class(self, runner, tmp_path):
        ck = str(tmp_path / "ck.json")
        invoke(runner, ["search", "--n", "4", "--checkpoint", ck])
        res = invoke(runner, ["search", "--n", "4", "--class", "trifree",
                              "--checkpoint", ck, "--resume-offset", "11"])
        assert res.exit_code == 2
        assert "cannot resume" in json.loads(res.stderr)["error"]


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

    def test_field_option(self, runner):
        res = invoke(runner, ["--field", "gf3", "betti", "--graph6", "D~{"])
        assert json.loads(res.output)["field"] == "gf3"
        res = invoke(runner, ["--field", "bogus", "betti", "--graph6", "D~{"])
        assert res.exit_code == 2
