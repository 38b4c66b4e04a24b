"""Spans around the calls into flagbetti's public functions, from outside.

`Tracer.install` wraps each target and rebinds the wrapper in every loaded
`flagbetti.*` module that holds the original, so calls made through a
module's own imported name are seen too.  Spans (name, start, end, parent)
are kept in flat arrays while the pass runs; `summary` turns them into
per-function calls, self time and errors, and `dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# (target, span name); a method target is wrapped on its class and named
# after the class, a field-keyed target gets one span name per field.
TARGETS = [
    ("graphs.parse_graph6", "graphs.parse_graph6"),
    ("graphs.canonical_form", "graphs.canonical_form"),
    ("graphs.canonical_graph", "graphs.canonical_graph"),
    ("graphs.induced", "graphs.induced"),
    ("graphs.Graph.__post_init__", "graphs.Graph"),
    ("complexes.Complex.__post_init__", "complexes.Complex"),
    ("complexes.all_faces", "complexes.all_faces"),
    ("complexes.independence_complex", "complexes.independence_complex"),
    ("homology.betti", "homology.betti"),
    ("homology.boundary_matrices", "homology.boundary_matrices"),
    ("homology.matrix_rank", "homology.matrix_rank"),
    ("invariants.b_graph", "invariants.b_graph"),
    ("invariants.bisect_root", "invariants.bisect_root"),
    ("invariants.solve_constants", "invariants.solve_constants"),
    ("invariants.hochster_beta", "invariants.hochster_beta"),
    ("search.enumerate_graphs", "search.enumerate_graphs"),
    ("search.maximize", "search.maximize"),
    ("verify.run_suite", "verify.run_suite"),
    ("constructions.verify_case", "constructions.verify_case"),
]
CLI_SPAN = "cli.main"
FIELD_KEYED = {"homology.betti": 1, "homology.matrix_rank": 1}  # index of the field argument
PACKAGE = "flagbetti"
MODULES = ("graphs", "complexes", "homology", "invariants", "search", "verify", "constructions", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.errors: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name: str, field_arg: int | None = None, on_result=None):
        fixed = self._id(name)
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack

        def wrapper(*args, **kwargs):
            if field_arg is None:
                nid = fixed
            else:
                field = args[field_arg] if len(args) > field_arg else kwargs.get("field")
                nid = self._id(f"{name}[{field if field is not None else 'gf2'}]")
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as missing."""
        modules = {}
        for mod in MODULES:
            try:
                modules[mod] = importlib.import_module(f"{PACKAGE}.{mod}")
            except ImportError:
                pass
        hooks = {
            "complexes.all_faces": lambda faces: self._count("complexes.all_faces.faces", len(faces)),
            "search.enumerate_graphs": lambda graphs: self._count("search.classes", len(graphs)),
            "search.maximize": lambda report: self._count("search.graphs_examined", report.graphs_examined),
        }
        for target, name in targets:
            mod, _, path = target.partition(".")
            owner = modules.get(mod)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(orig, name, FIELD_KEYED.get(name), hooks.get(name))
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                mname = getattr(module, "__name__", "") or ""
                if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, errors."""
        n = len(self.start_col)
        child = [0.0] * n
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": 0} for name in self.names}
        for i in range(n):
            rec = out[self.names[names[i]]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["incl_s"] += dur
            rec["self_s"] += dur - child[i]
        for name, count in self.errors.items():
            out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": 0})["errors"] = count
        return {"spans": out, "counters": dict(self.counters), "missing": list(self.missing), "span_count": n}

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line with the names, then the
        four columns (name, parent, start, end) as raw arrays."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "count": len(self.start_col)}).encode() + b"\n")
            for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
                col.tofile(fh)
