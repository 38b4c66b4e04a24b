"""Smoke tests of the benchmark harness at tiny input sizes.

    python3 -m pytest benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads
from tracer import TARGETS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def fewer_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_runs_and_emits_every_metric(name):
    record = run.measure(name, 3, 0, True, workloads.TINY[name])
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    plain, traced = run.contract_line(record, False), run.contract_line(record, True)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in plain["metrics"].items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in traced["metrics"].items()
    }
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    fields = {f"field_s.{f}" for f in run.FIELDS} if name == "homology" else set()
    assert set(record["report"]) == set(run.REPORTED) | fields
    assert traced["metrics"]["trace.missing"]["value"] == 0
    if name in ("exhaustive", "stream", "homology"):
        assert traced["metrics"]["homology.faces_per_betti"]["value"] == 2.0
    if name == "stream":
        assert record["n11_probe"] == {"attempted": 2, "failed": 2}  # the n = 11 refusal
        assert record["report"]["fail_ratio"] == 0.5


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


def test_corrupted_expected_value_fails_the_run(monkeypatch, capsys):
    counts = list(workloads.GRAPH_COUNTS)
    counts[5] += 1
    monkeypatch.setattr(workloads, "GRAPH_COUNTS", counts)
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    code = run.main(["--workload", "exhaustive", "--seed", "1", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] == 1


def test_same_seed_same_inputs(tmp_path):
    size = workloads.TINY["stream"]
    a = workloads.build("stream", 7, size, str(tmp_path / "a"))
    b = workloads.build("stream", 7, size, str(tmp_path / "b"))
    c = workloads.build("stream", 8, size, str(tmp_path / "c"))
    assert a.digest == b.digest != c.digest


def test_missing_wrap_target_is_reported():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from tracer import Tracer, TARGETS\n"
        "t = Tracer(); t.install(TARGETS + [('homology.matrix_rank_gone', 'homology.matrix_rank_gone')])\n"
        "import flagbetti; flagbetti.b_graph(flagbetti.complete(4))\n"
        "print(json.dumps(t.summary()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = subprocess.run([sys.executable, "-c", code, str(run.BENCH)], env=env,
                         capture_output=True, text=True, check=True).stdout
    summary = json.loads(out)
    assert summary["missing"] == ["homology.matrix_rank_gone"]
    assert summary["spans"]["invariants.b_graph"]["calls"] == 1
    assert summary["spans"]["homology.betti[gf2]"]["calls"] == 1
    assert len(TARGETS) == len({name for _, name in TARGETS})


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_reductions_match_plain_homology():
    rng = random.Random(5)
    for _ in range(300):
        adj = workloads._gnp(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7))
        faces = oracle.independent_sets(adj)
        for p in (2, 3, 0):
            assert oracle.betti_by_degree(adj, p) == oracle.reduced_betti(faces, p)
        assert oracle.reduced_euler(faces) == oracle.reduced_euler(
            oracle.faces_of(oracle.maximal_independent_sets(adj))
        )
        assert oracle.parse_graph6(oracle.encode_graph6(adj)) == adj


def test_oracle_fields_differ_on_projective_plane():
    # the 6-vertex RP^2 has 2-torsion: homology over GF(2) only
    facets = [sum(1 << int(c) - 1 for c in f)
              for f in ("124", "126", "135", "136", "145", "234", "235", "256", "346", "456")]
    faces = oracle.faces_of(facets)
    assert oracle.reduced_betti(faces, 2) == {1: 1, 2: 1}
    assert oracle.reduced_betti(faces, 3) == oracle.reduced_betti(faces, 0) == {}


@pytest.mark.parametrize("field", run.FIELDS)
def test_corrupted_rank_is_caught(field, tmp_path, monkeypatch):
    """A rank that is off by one keeps Euler-Poincare; the per-degree check must fail it."""
    shutil.copytree(run.SRC / "flagbetti", tmp_path / "flagbetti",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "flagbetti" / "homology.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n_true_rank = matrix_rank\n\n\n"
            "def matrix_rank(m, field):\n"
            "    r = _true_rank(m, field)\n"
            f"    return r - 1 if r and str(field) == {field!r} else r\n"
        )
    monkeypatch.setattr(run, "SRC", tmp_path)
    record = run.measure("homology", 3, 0, False, workloads.TINY["homology"])
    assert not record["correct"] and record["failed"] >= 1
    assert all(f"over {field}: betti by degree" in p for p in record["problems"])


def test_relabelled_maximizer_is_accepted():
    check = workloads._check_exhaustive(8)
    word = oracle.encode_graph6(workloads._relabel(random.Random(1), oracle.parse_graph6("GQhTQg")))
    assert word != "GQhTQg"
    out = {"graphs_examined": 12346, "max_value": 9, "maximizers": [word],
           "all_within_bound": True, "violations": []}
    assert check({"ops": [{"exit": 0, "stdout": json.dumps(out), "stderr": ""}]}) == [None]
    out["maximizers"] = [oracle.encode_graph6(oracle.cycle(8))]
    assert check({"ops": [{"exit": 0, "stdout": json.dumps(out), "stderr": ""}]}) != [None]
