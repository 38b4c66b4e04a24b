"""One pass interpreter: import flagbetti, run one job, write the result.

    python3 passrun.py JOB.json RESULT.json

A job is one of
    {"noop": true}                               import only (a set-up probe)
    {"cli": [args...], "stdin": path or null}    one `flagbetti` command
    {"betti": [[facet file, field], ...]}        betti(k, field) per complex
plus "trace": a path to write spans to, or null for an untraced pass.

The result holds the time at which flagbetti was imported (on the
monotonic clock the parent also reads), the import time, per-operation
timings and outputs, the machine speed seen while they ran, the peak
resident set size and, when traced, the span summary.  Times cover the
calls into flagbetti only.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

PROBE_EVERY_S = 0.05


class SpeedProbe:
    """Times a fixed pure-Python loop on this process's CPU every
    PROBE_EVERY_S seconds (SIGALRM) while the operations run, and once
    before and after.  On a shared machine the speed of the CPU drifts by
    tens of percent within a minute; the loop times tell the parent how
    fast the machine was during these operations.  The probe
    adds about 1% to the timed work, the same on every commit."""

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def loop() -> float:
        start = time.perf_counter()
        x = 0
        for i in range(10_000):
            x += i
        return time.perf_counter() - start

    def _sample(self, signum, frame):
        self.samples.append(self.loop())

    def __enter__(self):
        self.samples.append(self.loop())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(self.loop())

    def loop_time(self) -> float:
        """Harmonic mean of the loop times: the time-weighted mean speed
        over the operations, as a loop time."""
        return statistics.harmonic_mean(self.samples)


def run_cli(cli, args: list[str], stdin_path: str | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    with open(stdin_path or os.devnull, encoding="ascii") as fin:
        sys.stdin, sys.stdout, sys.stderr = fin, out, err
        start = time.perf_counter()
        try:
            cli.main.main(args=args, prog_name="flagbetti", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error exits 1, as the console script would
            code = 1
            err.write(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = saved
    return {"elapsed": elapsed, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_betti(items: list) -> list[dict]:
    from flagbetti import complexes, homology

    loaded = []
    for path, field in items:
        with open(path, encoding="ascii") as fh:
            loaded.append((complexes.read_facet_file(fh.read()), homology.FieldSpec.parse(field)))
    results = []
    for k, field in loaded:
        start = time.perf_counter()
        try:
            bv = homology.betti(k, field)
            rec = {"by_degree": [list(p) for p in bv.by_degree]}
        except Exception as exc:  # counted as a failed operation by the parent
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        rec["elapsed"] = time.perf_counter() - start
        rec["field"] = str(field)
        results.append(rec)
    return results


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    start = time.perf_counter()
    import flagbetti.cli as cli

    ready = time.monotonic()
    result = {"ready": ready, "import_s": time.perf_counter() - start}
    src = os.path.realpath(os.path.join(os.path.dirname(cli.__file__), ".."))
    if src != os.path.realpath(job["src"]):
        raise SystemExit(f"flagbetti imported from {src}, expected {job['src']}")
    tracer = None
    if job.get("trace"):
        from tracer import CLI_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    if "cli" in job or "betti" in job:
        with SpeedProbe() as probe:
            if "betti" in job:
                result["ops"] = run_betti(job["betti"])
            elif tracer is None:
                result["ops"] = [run_cli(cli, job["cli"], job.get("stdin"))]
            else:
                result["ops"] = [tracer.span(CLI_SPAN, run_cli, cli, job["cli"], job.get("stdin"))]
        result["speed_probe_s"] = probe.loop_time()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if "numpy" in sys.modules:
        result["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["trace"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
