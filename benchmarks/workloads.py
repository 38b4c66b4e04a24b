"""The four workloads: seeded inputs, the jobs of one pass, and the checks.

`build(name, seed, size, workdir)` makes a workload's inputs from the seed
(the same seed gives the same inputs) and returns a `Plan`: the jobs of
one pass, each with the check that its output must pass.  Expected values
come from `oracle`, which does not import flagbetti, or are pinned here
and confirmed by `oracle` when checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# graphs on n vertices up to isomorphism (OEIS A000088)
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]

# `flagbetti search --metric b --n N` at the seed commit, maximizers up to
# isomorphism.  _check_exhaustive confirms with the oracle that each
# witness reaches max_value and that the theta bound caps b there; that no
# other class reaches it rests on the pinned run.
PINNED_EXHAUSTIVE = {
    5: {"max_value": 4, "maximizers": ["D~{"]},
    8: {"max_value": 9, "maximizers": ["GQhTQg"]},
}
# `flagbetti verify --suite all` at the seed commit: entries per section.
PINNED_VERIFY = {"constructions": 5, "upper_bounds": 5, "golden": 36, "closed_forms": 11}

KNOWN_REFUSAL = "canonical labelling refused"

FULL = {
    "exhaustive": {"n": 8},
    "stream": {"graphs": 16000},
    "homology": {"small": 6, "medium": 3, "large": 8},
    "certify": {"dmax": 50, "suite": "all", "check_n": 13, "check_edges": 26, "check_graphs": 2},
}
TINY = {
    "exhaustive": {"n": 5},
    "stream": {"graphs": 40},
    "homology": {"small": 1, "medium": 0, "large": 1},
    "certify": {"dmax": 5, "suite": "table1", "check_n": 6, "check_edges": 6, "check_graphs": 1},
}

WHY = {
    "exhaustive": "search --n 8 in a fresh interpreter: class enumeration (graphs) and the search loop",
    "stream": "16k random graph6 words on 9-10 vertices piped to search --stdin: many small homology calls",
    "homology": "betti over GF(2), GF(3) and Q on given complexes: the rank kernel, no graph layers",
    "certify": "constants, verify --suite all and check --beta: enclosures, Hochster sums, golden corpus",
}
UNITS = {"exhaustive": "graphs", "stream": "graphs", "homology": "faces", "certify": "commands"}


@dataclass
class Op:
    """One job of a pass; check(result) gives one entry per operation in
    the job, None when that operation's output is right."""

    job: dict
    check: Callable[[dict], list]
    timed: bool = True
    known_defect: Callable[[dict], bool] | None = None


@dataclass
class Plan:
    ops: list[Op]
    items: int
    size: dict
    digest: str


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


def _gnm(rng: random.Random, n: int, m: int) -> list[int]:
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    adj = [0] * n
    for i, j in rng.sample(pairs, m):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _gnp(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _relabel(rng: random.Random, adj: list[int]) -> list[int]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    out = [0] * len(adj)
    for v, nb in enumerate(adj):
        out[perm[v]] = sum(1 << perm[u] for u in oracle.bits(nb))
    return out


def _cli_output(result: dict, expect_exit: int = 0):
    """The parsed JSON output of a CLI job, or a problem string."""
    op = result["ops"][0]
    if op["exit"] != expect_exit:
        return None, f"exit {op['exit']}: {op['stderr'].strip()[-300:]}"
    try:
        return json.loads(op["stdout"]), None
    except ValueError:
        return None, f"output is not JSON: {op['stdout'][:200]!r}"


def _search_problems(out: dict, words: list[str], values: list[int]) -> list[str]:
    """Compare a `search --metric b` report with oracle values per graph."""
    problems = []
    graphs = [oracle.parse_graph6(w) for w in words]
    best = max(values)
    if out.get("graphs_examined") != len(words):
        problems.append(f"graphs_examined {out.get('graphs_examined')} != {len(words)}")
    if out.get("max_value") != best:
        problems.append(f"max_value {out.get('max_value')} != {best}")
    classes = oracle.isomorphism_classes([g for g, v in zip(graphs, values) if v == best])
    reported = [oracle.parse_graph6(w) for w in out.get("maximizers", [])]
    matched = set()
    for g in reported:
        hit = [i for i, rep in enumerate(classes) if oracle.isomorphic(g, rep)]
        if not hit or hit[0] in matched:
            problems.append(f"maximizer {oracle.encode_graph6(g)} is not a new maximizing class")
        matched.update(hit)
    if len(matched) != len(classes):
        problems.append(f"{len(classes)} maximizing classes, {len(matched)} reported")
    within = all(oracle.theta_bound_holds(v, len(g)) for g, v in zip(graphs, values))
    if out.get("all_within_bound") is not within or (within and out.get("violations")):
        problems.append(f"all_within_bound {out.get('all_within_bound')} != {within}")
    return problems


# ---------------------------------------------------------------------------
# exhaustive

def _check_exhaustive(n: int):
    pinned = PINNED_EXHAUSTIVE[n]
    witnesses = [oracle.parse_graph6(w) for w in pinned["maximizers"]]
    best = pinned["max_value"]
    # the theta bound caps b at best on n vertices and every witness reaches it
    if not (best**5 <= 4**n < (best + 1) ** 5 and all(oracle.b_total(g) == best for g in witnesses)):
        raise AssertionError(f"pinned exhaustive values for n={n} fail their confirmation")

    def check(result: dict) -> list:
        out, problem = _cli_output(result)
        if problem:
            return [problem]
        expect = {
            "graphs_examined": GRAPH_COUNTS[n], "max_value": best,
            "all_within_bound": True, "violations": [],
        }
        wrong = [f"{k} {out.get(k)!r} != {v!r}" for k, v in expect.items() if out.get(k) != v]
        # maximizers as classes: the program may label its representatives differently
        reported = [oracle.parse_graph6(w) for w in out.get("maximizers", [])]
        if len(reported) != len(witnesses) or not all(
            any(oracle.isomorphic(g, w) for g in reported) for w in witnesses
        ):
            wrong.append(f"maximizers {out.get('maximizers')!r} are not the classes of {pinned['maximizers']!r}")
        return ["; ".join(wrong) if wrong else None]

    return check


def build_exhaustive(seed: int, size: dict, workdir: str) -> Plan:
    n = size["n"]
    job = {"cli": ["search", "--metric", "b", "--n", str(n)]}
    return Plan([Op(job, _check_exhaustive(n))], GRAPH_COUNTS[n], {"n": n, "classes": GRAPH_COUNTS[n]}, _digest(job))


# ---------------------------------------------------------------------------
# stream

PROBE = [oracle.cycle(11), oracle.disjoint_union(oracle.complete(5), oracle.cycle(6))]


def _refused(result: dict) -> bool:
    op = result["ops"][0]
    return op["exit"] == 2 and KNOWN_REFUSAL in op["stderr"]


def build_stream(seed: int, size: dict, workdir: str) -> Plan:
    rng = random.Random(seed)
    words = [oracle.encode_graph6(_gnp(rng, rng.choice((9, 10)), rng.uniform(0.15, 0.6))) for _ in range(size["graphs"])]
    stream_path = os.path.join(workdir, "stream.g6")
    probe_path = os.path.join(workdir, "probe11.g6")
    probe_words = [oracle.encode_graph6(g) for g in PROBE]
    for path, lines in ((stream_path, words), (probe_path, probe_words)):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    args = ["search", "--metric", "b", "--stdin"]
    cache: dict = {}

    def check_stream(result: dict) -> list:
        out, problem = _cli_output(result)
        if problem:
            return [problem]
        if "values" not in cache:
            cache["values"] = [oracle.b_total(oracle.parse_graph6(w)) for w in words]
        return ["; ".join(_search_problems(out, words, cache["values"])) or None]

    def check_probe(result: dict) -> list:
        out, problem = _cli_output(result)
        if problem:
            return [problem]
        return ["; ".join(_search_problems(out, probe_words, [oracle.b_total(g) for g in PROBE])) or None]

    ops = [
        Op({"cli": args, "stdin": stream_path}, check_stream),
        # the n = 11 probe: counted in fail_ratio, kept out of the timings
        Op({"cli": args, "stdin": probe_path}, check_probe, timed=False, known_defect=_refused),
    ]
    sizes = {"graphs": len(words), "n": [9, 10], "density": [0.15, 0.6], "probe_graphs": len(PROBE), "probe_n": 11}
    return Plan(ops, len(words), sizes, _digest(words))


# ---------------------------------------------------------------------------
# homology

def _pick(make, lo: int, hi: int):
    """Draw graphs until Ind(G) has between lo and hi faces."""
    while True:
        adj, faces = make()
        if lo <= faces <= hi:
            return adj, faces


def _gnm_faces(rng: random.Random, n: int, m: int):
    adj = _gnm(rng, n, m)
    return adj, len(oracle.independent_sets(adj))


def _union_faces(rng: random.Random, parts: int):
    """A relabelled disjoint union of random 5-vertex graphs whose
    independence complexes have 11 faces each, as C5's has.  Ind of a union
    is a join, so every draw has 11^parts faces, as copies(parts, C5)."""
    comps = []
    while len(comps) < parts:
        g = _gnm(rng, 5, rng.randint(4, 7))
        if len(oracle.independent_sets(g)) == 11:
            comps.append(g)
    return _relabel(rng, oracle.disjoint_union(*comps)), 11**parts


# tier: (count key, graph maker, face window, fields, fixed shapes).  With
# fixed shapes the graphs come from FIXED_SHAPE_SEED and only their labels
# from the workload seed: the peak memory of the dense GF(3) elimination
# follows a medium complex's shape (52 to 66 MB across random draws), so
# this keeps peak_rss_mb from following the seed.
TIERS = [
    ("small", lambda rng: _gnm_faces(rng, 15, 36), (330, 370), ("gf2", "gf3", "rational"), False),
    ("medium", lambda rng: _gnm_faces(rng, 26, 100), (4800, 5200), ("gf2", "gf3"), True),
    ("large", lambda rng: _union_faces(rng, 4), (11**4, 11**4), ("gf2",), False),
]
FIXED_SHAPE_SEED = 0
FIELD_CHAR = {"gf2": 2, "gf3": 3, "rational": 0}  # the oracle's p


def build_homology(seed: int, size: dict, workdir: str) -> Plan:
    rng, fixed = random.Random(seed), random.Random(FIXED_SHAPE_SEED)
    cases = []  # (tier, graph, faces)
    for tier, make, (lo, hi), _, fixed_shapes in TIERS:
        for _ in range(size[tier]):
            adj, faces = _pick(lambda: make(fixed if fixed_shapes else rng), lo, hi)
            cases.append((tier, _relabel(rng, adj) if fixed_shapes else adj, faces))
    items, calls, words = [], [], []
    for i, (tier, adj, faces) in enumerate(cases):
        path = os.path.join(workdir, f"k{i:03d}.facets")
        facets = oracle.maximal_independent_sets(adj)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"n {len(adj)}\n")
            fh.write("".join(" ".join(map(str, oracle.bits(f))) + "\n" for f in facets))
        words.append(oracle.encode_graph6(adj))
        fields = next(t[3] for t in TIERS if t[0] == tier)
        for fld in fields:
            items.append([path, fld])
            calls.append((i, fld, faces))
    cache: dict = {}

    def expected(i: int, fld: str):
        if (i, fld) not in cache:
            adj = cases[i][1]
            if i not in cache:
                cache[i] = oracle.reduced_euler(oracle.faces_of(oracle.maximal_independent_sets(adj)))
            cache[i, fld] = oracle.betti_by_degree(adj, FIELD_CHAR[fld])
        return cache[i], cache[i, fld]

    def check(result: dict) -> list:
        ops = result.get("ops", [])
        if len(ops) != len(calls):
            return [f"{len(ops)} results for {len(calls)} calls"] * len(calls)
        problems = []
        for rec, (i, fld, _) in zip(ops, calls):
            if "error" in rec:
                problems.append(f"complex {i} over {fld}: {rec['error']}")
                continue
            chi, want = expected(i, fld)
            got = sorted((d, b) for d, b in rec["by_degree"] if b)
            euler = sum((-1) ** d * b for d, b in got)
            if euler != chi:
                problems.append(f"complex {i} over {fld}: Euler-Poincare {euler} != {chi}")
            elif got != sorted(want.items()):
                problems.append(f"complex {i} over {fld}: betti by degree {got} != {sorted(want.items())}")
            else:
                problems.append(None)
        return problems

    faces_by_tier = {t[0]: sum(f for tier, _, f in cases if tier == t[0]) for t in TIERS}
    sizes = {"complexes": {t[0]: size[t[0]] for t in TIERS}, "faces": faces_by_tier, "calls": len(calls)}
    return Plan([Op({"betti": items}, check)], sum(f for *_, f in calls), sizes, _digest(words))


# ---------------------------------------------------------------------------
# certify

def _check_constants(dmax: int):
    def check(result: dict) -> list:
        out, problem = _cli_output(result)
        if problem:
            return [problem]
        return ["; ".join(oracle.constants_problems(out, dmax)) or None]

    return check


def _check_verify(suite: str):
    sections = {
        "table1": [("table1", "constructions"), ("table1", "upper_bounds")],
        "lemmas": [("lemmas", "golden"), ("lemmas", "closed_forms")],
    }
    wanted = sections["table1"] + sections["lemmas"] if suite == "all" else sections[suite]

    def check(result: dict) -> list:
        out, problem = _cli_output(result)
        if problem:
            return [problem]
        problems = [] if out.get("all_pass") is True else ["all_pass is not true"]
        for part, key in wanted:
            entries = (out[part] if suite == "all" else out)[key]
            if len(entries) != PINNED_VERIFY[key]:
                problems.append(f"{key}: {len(entries)} entries, pinned {PINNED_VERIFY[key]}")
            problems += [f"{key} {e['name']} fails" for e in entries if e.get("pass") is not True]
            if key == "closed_forms":
                # Hochster sums of K_s and crowns, recomputed by the oracle
                for e in entries:
                    family, s = e["name"].split("-closed-form-s")
                    g = (oracle.complete if family == "complete" else oracle.crown)(int(s))
                    if e["computed"] != oracle.hochster_sum(g):
                        problems.append(f"{e['name']} computed {e['computed']}")
        return ["; ".join(problems) or None]

    return check


def _check_graph(word: str):
    adj = oracle.parse_graph6(word)
    n = len(adj)
    cache: dict = {}

    def check(result: dict) -> list:
        if not cache:
            b, beta = oracle.b_total(adj), oracle.hochster_sum(adj)
            preds = oracle.predicates(adj)
            verdicts = [oracle.theta_bound_holds(b, n), oracle.beta_bound_holds(beta, n)]
            if preds["is_triangle_free"]:
                verdicts += [oracle.gamma_bound_holds(b, n), oracle.gamma_bound_holds(beta, n, 1)]
            cache.update(n=n, b=b, beta=beta, predicates=preds, all_pass=all(verdicts), graph6=word)
        out, problem = _cli_output(result, 0 if cache["all_pass"] else 1)
        if problem:
            return [problem]
        wrong = [f"{k} {out.get(k)!r} != {v!r}" for k, v in cache.items() if out.get(k) != v]
        return ["; ".join(wrong) or None]

    return check


def build_certify(seed: int, size: dict, workdir: str) -> Plan:
    rng = random.Random(seed)
    words = [oracle.encode_graph6(_gnm(rng, size["check_n"], size["check_edges"])) for _ in range(size["check_graphs"])]
    ops = [
        Op({"cli": ["constants", "--dmax", str(size["dmax"])]}, _check_constants(size["dmax"])),
        Op({"cli": ["verify", "--suite", size["suite"]]}, _check_verify(size["suite"])),
    ]
    ops += [Op({"cli": ["check", "--graph6", w, "--beta"]}, _check_graph(w)) for w in words]
    sizes = {"dmax": size["dmax"], "suite": size["suite"], "check_graphs": len(words),
             "check_n": size["check_n"], "check_edges": size["check_edges"]}
    return Plan(ops, len(ops), sizes, _digest(words))


BUILDERS = {
    "exhaustive": build_exhaustive,
    "stream": build_stream,
    "homology": build_homology,
    "certify": build_certify,
}


def build(name: str, seed: int, size: dict, workdir: str) -> Plan:
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[name](seed, size, workdir)
