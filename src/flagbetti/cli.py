"""Command-line surface for batch use and reproduction scripts.

Exit codes: 0 all checks pass, 1 a mathematical check failed (potential
counterexample), 2 usage or resource error.  All regular output is JSON
(or TSV where noted); stderr carries machine-readable error JSON.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import constructions
from .complexes import (
    FaceCapExceeded,
    alexander_dual,
    bip_graph,
    dominance_complex,
    neighbourhood_complex,
    read_facet_file,
    write_facet_file,
)
from .graphs import Graph6Error, encode_graph6, parse_graph6
from .homology import FieldSpec, betti, total_betti
from .invariants import (
    HOCHSTER_CAP,
    betti_graph,
    check_bounds,
    check_complex_bounds,
    hochster_beta,
    solve_constants,
)
from .search import maximize, stream_graph6

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


def _fail(message: str, code: int = EXIT_USAGE):
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(code)


def _field(name: str) -> FieldSpec:
    try:
        return FieldSpec.parse(name)
    except ValueError as exc:
        _fail(str(exc))


def _load_complex(facets_path: str):
    try:
        with open(facets_path, encoding="ascii") as fh:
            return read_facet_file(fh.read())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read facet file: {exc}")


def _load_graph(graph6: str):
    try:
        return parse_graph6(graph6)
    except Graph6Error as exc:
        _fail(f"bad graph6: {exc}")


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


@click.group()
@click.option("--field", "field_name", default="gf2", show_default=True,
              help="Coefficient field: gf<p> or rational.")
@click.option("--hochster-cap", default=None, type=int,
              help="Max n for the induced-subgraph Betti sum (env FLAGBETTI_HOCHSTER_CAP).")
@click.pass_context
def main(ctx, field_name, hochster_cap):
    """Betti numbers of flag complexes: compute, verify, search."""
    ctx.ensure_object(dict)
    ctx.obj["field"] = _field(field_name)
    env_cap = os.environ.get("FLAGBETTI_HOCHSTER_CAP") or str(HOCHSTER_CAP)
    try:
        ctx.obj["hochster_cap"] = int(env_cap) if hochster_cap is None else hochster_cap
    except ValueError:
        _fail(f"FLAGBETTI_HOCHSTER_CAP must be an integer, got {env_cap!r}")


@main.command("betti")
@click.option("--graph6", "graph6_word", default=None, help="Graph as a graph6 word.")
@click.option("--facets", "facets_path", default=None, help="Complex as a facet file.")
@click.pass_context
def betti_cmd(ctx, graph6_word, facets_path):
    """Reduced Betti numbers of Ind(graph) or of a complex."""
    if (graph6_word is None) == (facets_path is None):
        _fail("give exactly one of --graph6 or --facets")
    try:
        if graph6_word is not None:
            bv = betti_graph(_load_graph(graph6_word), ctx.obj["field"])
        else:
            bv = betti(_load_complex(facets_path), ctx.obj["field"])
    except FaceCapExceeded as exc:
        _fail(str(exc))
    _emit(bv.to_json_dict())


@main.command("beta")
@click.option("--graph6", "graph6_word", required=True)
@click.option("--workers", default=0, type=int, show_default=True,
              help="Parallel workers; 0 means serial.")
@click.pass_context
def beta_cmd(ctx, graph6_word, workers):
    """Induced-subgraph Betti sum (Hochster total) of a graph."""
    g = _load_graph(graph6_word)
    try:
        report = hochster_beta(
            g, ctx.obj["field"], cap=ctx.obj["hochster_cap"], workers=workers or None
        )
    except (ValueError, FaceCapExceeded) as exc:
        _fail(str(exc))
    _emit(report.to_json_dict())


@main.command("dual")
@click.option("--facets", "facets_path", required=True)
def dual_cmd(facets_path):
    """Alexander dual of a complex, as a facet file on stdout."""
    k = _load_complex(facets_path)
    try:
        sys.stdout.write(write_facet_file(alexander_dual(k)))
    except ValueError as exc:
        _fail(str(exc))


@main.command("bip")
@click.option("--facets", "facets_path", required=True)
def bip_cmd(facets_path):
    """Vertex/facet non-incidence bipartite graph, as graph6 on stdout."""
    k = _load_complex(facets_path)
    try:
        click.echo(encode_graph6(bip_graph(k)))
    except (ValueError, Graph6Error) as exc:
        _fail(str(exc))


@main.command("neigh")
@click.option("--graph6", "graph6_word", required=True)
def neigh_cmd(graph6_word):
    """Neighbourhood complex of a graph, as a facet file on stdout."""
    g = _load_graph(graph6_word)
    sys.stdout.write(write_facet_file(neighbourhood_complex(g)))


@main.command("dom")
@click.option("--graph6", "graph6_word", required=True)
def dom_cmd(graph6_word):
    """Dominance complex of a graph, as a facet file on stdout."""
    g = _load_graph(graph6_word)
    try:
        sys.stdout.write(write_facet_file(dominance_complex(g)))
    except ValueError as exc:
        _fail(str(exc))


BUILDERS = {
    "union_of_cliques": (constructions.union_of_cliques, ("n", "s")),
    "fano_complex": (constructions.fano_complex, ()),
    "fano_bip": (constructions.fano_bip, ()),
    "missing_face_complex": (constructions.missing_face_complex, ("n", "d")),
    "neighbourhood_power": (constructions.neighbourhood_power, ("n",)),
    "crown_union": (constructions.crown_union, ("n", "s")),
}


@main.command("build")
@click.argument("name")
@click.argument("params", nargs=-1, type=int)
def build_cmd(name, params):
    """Emit a golden construction plus its expectation record.

    NAME is one of: union_of_cliques, fano_complex, fano_bip,
    missing_face_complex, neighbourhood_power, crown_union.
    """
    if name not in BUILDERS:
        _fail(f"unknown construction {name!r}; choose from {sorted(BUILDERS)}")
    builder, argnames = BUILDERS[name]
    if len(params) != len(argnames):
        _fail(f"{name} takes parameters {argnames}")
    try:
        case = builder(*params)
    except ValueError as exc:
        _fail(str(exc))
    record = {
        "name": case.name,
        "params": case.params,
        "kind": case.kind,
        "expected": case.expected,
        "note": case.note,
    }
    if case.graph is not None:
        record["graph6"] = encode_graph6(case.graph)
    else:
        record["facets"] = write_facet_file(case.complex_)
    _emit(record)


@main.command("verify")
@click.option("--suite", default="all", show_default=True,
              type=click.Choice(["table1", "lemmas", "all"]))
@click.pass_context
def verify_cmd(ctx, suite):
    """Run the golden corpus; exit 0 iff every case passes."""
    from .verify import run_suite

    results = run_suite(suite, ctx.obj["field"])
    _emit(results)
    sys.exit(EXIT_OK if results["all_pass"] else EXIT_MATH_FAIL)


@main.command("search")
@click.option("--metric", default="b", show_default=True,
              type=click.Choice(["b", "beta", "bneigh"]))
@click.option("--class", "graph_class", default="all", show_default=True,
              type=click.Choice(["all", "trifree", "bip"]))
@click.option("--n", "size", default=None, type=int, help="Internal generator size.")
@click.option("--stdin", "use_stdin", is_flag=True, help="Read graph6 lines from stdin.")
@click.option("--strict/--no-strict", default=True, show_default=True,
              help="Abort on malformed graph6 lines.")
@click.option("--tsv", is_flag=True, help="Emit one TSV line instead of JSON.")
@click.option("--checkpoint", default=None, help="Checkpoint sidecar file.")
@click.option("--resume-offset", default=0, type=int, show_default=True)
@click.pass_context
def search_cmd(ctx, metric, graph_class, size, use_stdin, strict, tsv, checkpoint, resume_offset):
    """Maximize a metric over a graph class or a graph6 stream."""
    cls = {"all": "all", "trifree": "triangle_free", "bip": "bipartite"}[graph_class]
    if use_stdin == (size is not None):
        _fail("give exactly one of --n or --stdin")
    try:
        report = maximize(
            metric, cls, n=size,
            graphs=stream_graph6(sys.stdin, strict=strict) if use_stdin else None,
            fieldspec=ctx.obj["field"], hochster_cap=ctx.obj["hochster_cap"],
            checkpoint_path=checkpoint, resume_offset=resume_offset,
        )
    except (ValueError, FaceCapExceeded, ArithmeticError) as exc:
        # an undecided bound comparison is a resource error, not a counterexample
        _fail(str(exc))
    if tsv:
        click.echo(report.to_tsv_line())
    else:
        _emit(report.to_json_dict())
    sys.exit(EXIT_OK if report.all_within_bound else EXIT_MATH_FAIL)


@main.command("constants")
@click.option("--dmax", default=10, show_default=True, type=int)
def constants_cmd(dmax):
    """Growth-rate constants with certified enclosures and residuals."""
    try:
        _emit(solve_constants(dmax).to_json_dict())
    except ValueError as exc:
        _fail(str(exc))
    except ArithmeticError as exc:
        _fail(str(exc), EXIT_MATH_FAIL)


@main.command("check")
@click.option("--graph6", "graph6_word", default=None)
@click.option("--facets", "facets_path", default=None)
@click.option("--beta/--no-beta", "with_beta", default=False, show_default=True,
              help="Also check the Hochster-sum bounds (graphs only).")
@click.pass_context
def check_cmd(ctx, graph6_word, facets_path, with_beta):
    """Bound report for one graph or complex."""
    if (graph6_word is None) == (facets_path is None):
        _fail("give exactly one of --graph6 or --facets")
    try:
        if graph6_word is not None:
            report = check_bounds(
                _load_graph(graph6_word), ctx.obj["field"],
                include_beta=with_beta, hochster_cap=ctx.obj["hochster_cap"],
            )
            report["graph6"] = graph6_word
        else:
            report = check_complex_bounds(_load_complex(facets_path), ctx.obj["field"])
    except (ValueError, FaceCapExceeded, ArithmeticError) as exc:
        _fail(str(exc))
    _emit(report)
    sys.exit(EXIT_OK if report["all_pass"] else EXIT_MATH_FAIL)


if __name__ == "__main__":
    main()
