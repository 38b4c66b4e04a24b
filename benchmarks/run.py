"""Benchmark for flagbetti: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

NAME is exhaustive, stream, homology or certify (see workloads.py).  Load
is a closed loop with one client: each pass runs its jobs one after the
other, each job in a fresh interpreter (passrun.py) that imports flagbetti
from src/ of this checkout, and passes repeat until S seconds have gone.

Every output is checked (workloads.py); the run exits 1 when any check
fails and 2 when the program is missing.  Timings are also given scaled to
a reference machine speed (see REF_SPEED_PROBE_S and REF_BARE_START_S).
Stdout gets one line per metric, then the environment, then as its last
line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics when --trace is 0, the per-layer metrics
when it is 1.  A traced run alternates untraced and traced passes, so
its per-layer table comes with the tracing overhead.  --out FILE merges
the full record into FILE under the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from passrun import SpeedProbe
from tracer import CLI_SPAN, TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
DEADLINE_S = 170  # a run ends well inside 180 seconds
FIELDS = ("gf2", "gf3", "rational")

# Wall time on this shared machine drifts by tens of percent from one
# minute to the next, so the gated times are scaled to a reference speed:
# ref_wall_s = wall_s * REF_SPEED_PROBE_S / (harmonic mean time of passrun's
# speed-probe loop during the pass), i.e. seconds on a machine where that loop takes
# REF_SPEED_PROBE_S (about this 2-vCPU sandbox when quiet).  Raw wall_s and
# items_per_s are printed and recorded beside them.
REF_SPEED_PROBE_S = 0.35e-3
# Starting an interpreter and importing flagbetti (exec, file reads and
# page faults of the numpy import) drifts with the machine as well, but
# does not follow the speed-probe loop.  The start-up part of setup_s is
# scaled by the start of a bare interpreter timed beside it instead:
# seconds on a machine where `python3 -c pass` starts in REF_BARE_START_S.
REF_BARE_START_S = 0.05
BARE_STARTS = 3
END_TO_END = {
    "ref_wall_s": "s", "ref_items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB",
}
REPORTED = {"wall_s": "s", "items_per_s": "items/s", "speed_probe_ms": "ms", "fail_ratio": "ratio"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in [name for _, name in TARGETS] + [CLI_SPAN]:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
    units.update({f"homology.matrix_rank.self_s.{f}": "s" for f in FIELDS})
    units.update({f"field_s.{f}": "s" for f in FIELDS})
    units.update({
        "complexes.all_faces.faces": "count",
        "homology.faces_per_betti": "ratio",
        "search.class_yield": "ratio",
        "search.betti_per_graph": "ratio",
        "cli.import_s": "s",
        "fail_ratio": "ratio",
        "trace.overhead_s": "s",
        "trace.missing": "count",
        "trace.spans": "count",
    })
    return units


# ---------------------------------------------------------------------------
# running jobs

class Deadline(Exception):
    pass


def spawn(job: dict, workdir: Path, deadline: float, trace_path: str | None = None) -> dict:
    """Run one job in a fresh interpreter and return its result."""
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(dict(job, src=str(SRC), trace=trace_path)))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py"), str(job_path), str(result_path)],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise Deadline(f"job {job} did not finish before the deadline") from None
    if proc.returncode != 0 or not result_path.exists():
        return {"crash": f"pass interpreter exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(result_path.read_text())
    result["startup_s"] = result["ready"] - start
    return result


def run_pass(plan: workloads.Plan, workdir: Path, deadline: float, traced: bool) -> dict:
    """One pass: every job of the plan, checked."""
    rec = {"wall_s": 0.0, "ref_wall_s": 0.0, "speed_probe_s": [], "peak_rss_mb": 0.0,
           "attempted": 0, "failed": 0, "problems": [], "probe_attempted": 0, "probe_failed": 0,
           "import_s": [], "traces": [], "field_s": dict.fromkeys(FIELDS, 0.0)}
    for k, op in enumerate(plan.ops):
        trace_path = str(workdir / f"spans-{k}.bin") if traced else None
        result = spawn(op.job, workdir, deadline, trace_path)
        if "crash" in result:
            entries = [result["crash"]]
        else:
            entries = op.check(result)
            rec["import_s"].append(result["import_s"])
            if "trace" in result and op.timed:
                rec["traces"].append(result["trace"])
        failures = [e for e in entries if e]
        if op.timed:
            rec["attempted"] += len(entries)
            rec["failed"] += len(failures)
            rec["problems"] += failures
            if "crash" not in result:
                elapsed = sum(o["elapsed"] for o in result["ops"])
                rec["wall_s"] += elapsed
                rec["ref_wall_s"] += elapsed * REF_SPEED_PROBE_S / result["speed_probe_s"]
                rec["speed_probe_s"].append(result["speed_probe_s"])
                rec["peak_rss_mb"] = max(rec["peak_rss_mb"], result["peak_rss_mb"])
                for o in result["ops"]:
                    if "field" in o:
                        rec["field_s"][o["field"]] += o["elapsed"]
                rec["numpy"] = result.get("numpy")
        else:
            rec["probe_attempted"] += len(entries)
            rec["probe_failed"] += len(failures)
            if failures and not ("crash" not in result and op.known_defect and op.known_defect(result)):
                rec["problems"] += [f"probe: {e}" for e in failures]
    return rec


def bare_start_s(workdir: Path) -> float:
    """Median wall time of starting an interpreter that does nothing."""
    times = []
    for _ in range(BARE_STARTS):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], cwd=workdir, capture_output=True, check=True)
        times.append(time.monotonic() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (its jobs' span summaries summed)."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    missing = set()
    span_count = 0
    for t in traces:
        for name, rec in t["spans"].items():
            base, _, key = name.partition("[")
            for target in (base, f"{base}[{key}" if key else None):
                if target is None:
                    continue
                acc = spans.setdefault(target, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": 0})
                for field in acc:
                    acc[field] += rec[field]
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
        missing.update(t["missing"])
        span_count += t["span_count"]

    def get(name, field="calls"):
        return spans.get(name, {}).get(field, 0)

    out = {}
    for name in [name for _, name in TARGETS] + [CLI_SPAN]:
        out[f"{name}.calls"] = get(name)
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.errors"] = get(name, "errors")
    for f in FIELDS:
        out[f"homology.matrix_rank.self_s.{f}"] = get(f"homology.matrix_rank[{f}]", "self_s")
        out[f"field_s.{f}"] = get(f"homology.betti[{f}]", "incl_s")
    out["complexes.all_faces.faces"] = counters.get("complexes.all_faces.faces", 0)
    out["homology.faces_per_betti"] = _ratio(get("complexes.all_faces"), get("homology.betti"))
    out["search.class_yield"] = _ratio(counters.get("search.classes", 0), get("graphs.canonical_form"))
    out["search.betti_per_graph"] = _ratio(get("homology.betti"), counters.get("search.graphs_examined", 0))
    out["trace.missing"] = len(missing)
    out["trace.spans"] = span_count
    return out


def environment(plan: workloads.Plan, seed: int, numpy_version) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flagbetti").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "input_size": plan.size,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git
    repository (git is kept from finding one in a directory above)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# one run

def measure(name: str, seed: int, seconds: float, trace: bool, size: dict) -> dict:
    """Set up, run passes for `seconds`, check every output, and return
    the full record of the run."""
    if not (SRC / "flagbetti" / "__init__.py").is_file():
        raise FileNotFoundError(f"flagbetti sources not found under {SRC}")
    started = time.monotonic()
    deadline = started + DEADLINE_S
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # set-up, several times: build the inputs, start an interpreter and
    # import flagbetti (numpy included).  The build is scaled to the
    # reference speed as ref_wall_s is, the start-up by a bare start.
    setups, raw_setups, plan = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with SpeedProbe() as build_probe:
            again = workloads.build(name, seed, size, str(workdir))
        build_s = time.perf_counter() - t0
        if plan is not None and again.digest != plan.digest:
            raise RuntimeError("the same seed built different inputs")
        plan = again
        bare_s = bare_start_s(workdir)
        probe = spawn({"noop": True}, workdir, deadline)
        if "crash" in probe:
            raise RuntimeError(probe["crash"])
        raw_setups.append(build_s + probe["startup_s"])
        setups.append(REF_SPEED_PROBE_S * build_s / build_probe.loop_time()
                      + REF_BARE_START_S * probe["startup_s"] / bare_s)

    plain, traced = [], []
    loop_start = time.monotonic()
    while True:
        plain.append(run_pass(plan, workdir, deadline, traced=False))
        if trace:
            traced.append(run_pass(plan, workdir, deadline, traced=True))
        now = time.monotonic()
        last = (now - loop_start) / len(plain)
        if now - loop_start >= seconds or now + last > deadline - 5:
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    probe_attempted = sum(p["probe_attempted"] for p in passes)
    probe_failed = sum(p["probe_failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    walls = [p["wall_s"] for p in plain]
    ref_walls = [p["ref_wall_s"] for p in plain]
    end_to_end = {
        "ref_wall_s": _median(ref_walls),
        "ref_items_per_s": _median([plan.items / w for w in ref_walls if w > 0]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
    }
    report = {
        "wall_s": _median(walls),
        "items_per_s": _median([plan.items / w for w in walls if w > 0]),
        "speed_probe_ms": 1e3 * _median([s for p in plain for s in p["speed_probe_s"]]),
        "fail_ratio": _ratio(failed + probe_failed, attempted + probe_attempted),
    }
    if name == "homology":
        report.update({f"field_s.{f}": _median([p["field_s"][f] for p in plain]) for f in FIELDS})
    record = {
        "workload": name,
        "why": workloads.WHY[name],
        "items_unit": workloads.UNITS[name],
        "items_per_pass": plan.items,
        "seconds": seconds,
        "passes": len(plain),
        "env": environment(plan, seed, next((p.get("numpy") for p in plain if p.get("numpy")), None)),
        "end_to_end": end_to_end,
        "report": report,
        "wall_s_per_pass": walls,
        "ref_wall_s_per_pass": ref_walls,
        "setup_s_samples": setups,
        "raw_setup_s_samples": raw_setups,
        "attempted": attempted,
        "failed": failed,
        "n11_probe": {"attempted": probe_attempted, "failed": probe_failed},
        "correct": not problems,
        "problems": problems[:20],
    }
    if trace:
        layers = [layer_metrics(p["traces"]) for p in traced]
        per_layer = {key: _median([m[key] for m in layers]) for key in per_layer_units() if key in layers[0]}
        per_layer["fail_ratio"] = report["fail_ratio"]
        per_layer["cli.import_s"] = _median([s for p in passes for s in p["import_s"]])
        per_layer["trace.overhead_s"] = _median([p["wall_s"] for p in traced]) - report["wall_s"]
        record["per_layer"] = per_layer
        record["trace_missing_targets"] = sorted({m for p in traced for t in p["traces"] for m in t["missing"]})
        record["traced_wall_s_per_pass"] = [p["wall_s"] for p in traced]
    return record


def contract_line(record: dict, trace: bool) -> dict:
    if trace:
        units = per_layer_units()
        metrics = {k: {"value": record["per_layer"][k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict) -> None:
    unit = record["items_unit"]
    print(f"workload {record['workload']}: {record['why']}")
    print(f"passes {record['passes']}, {record['items_per_pass']} {unit} per pass, "
          f"closed loop, one client")
    units = dict(END_TO_END, **REPORTED, **{f"field_s.{f}": "s" for f in FIELDS})
    for key, value in {**record["end_to_end"], **record["report"]}.items():
        shown = units[key].replace("items", unit)
        print(f"  {key:<42} {value:>14.6g} {shown}")
    if "per_layer" in record:
        units = per_layer_units()
        for key, value in record["per_layer"].items():
            print(f"  {key:<42} {value:>14.6g} {units[key]}")
        if record["trace_missing_targets"]:
            print(f"  missing wrap targets: {', '.join(record['trace_missing_targets'])}")
    probe = record["n11_probe"]
    if probe["attempted"]:
        print(f"n = 11 probe: {probe['failed']} of {probe['attempted']} failed")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for problem in record["problems"]:
        print(f"WRONG OUTPUT: {problem}")


def merge_out(path: str, record: dict) -> None:
    target = Path(path)
    data = json.loads(target.read_text()) if target.exists() else {}
    data[record["workload"]] = record
    target.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="merge the full record into this JSON file")
    args = ap.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workloads.FULL[args.workload])
    except (FileNotFoundError, RuntimeError, Deadline) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    if args.out:
        merge_out(args.out, record)
    print(json.dumps(contract_line(record, bool(args.trace))))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
