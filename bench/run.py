#!/usr/bin/env python3
"""Benchmark for pwlcycles: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, each in its own process
    python3 bench/run.py --write-spec         # regenerate BENCHMARK.json

Run from anywhere; the program is imported from ``src/`` next to this
directory and nowhere else.  One workload runs in one process, one
thread, one job at a time (a closed loop), for at least ``--seconds``
seconds of whole rounds.  Every job's output is checked against
independent references; a job that fails a check counts as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics come only from untraced runs (--trace 0).  --trace 1
spends half the time untraced and half traced, and reports the per-layer
metrics and the traced-to-untraced throughput ratio; spans go to
bench/results/.
"""

from __future__ import annotations

import os

# Single-threaded BLAS before numpy is imported anywhere, here or in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PWL_CYCLES_THREADS", None)

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spec import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, WORKLOADS, benchmark_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

SETUP_SAMPLES = 5       # fresh interpreters timed per run; setup_s is their median
IMPORTTIME_SAMPLES = 3  # fresh interpreters under -X importtime per traced run
SPAN_CAP = 500_000      # the traced phase starts no new round past this many spans

IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import pwlcycles.cli; d = time.perf_counter() - t; "
               "print(pwlcycles.cli.__file__); print(d)")


def _import_once(extra=()) -> subprocess.CompletedProcess:
    # Bytecode is cached, as for an installed package: the warm-up import
    # compiles src/, the timed ones load the cache.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, *extra, "-c", IMPORT_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, env=env)
    lines = proc.stdout.split()
    if proc.returncode != 0 or not lines or not lines[0].startswith(str(SRC)):
        raise RuntimeError(f"importing pwlcycles.cli from {SRC} failed:\n{proc.stderr}")
    return proc


def setup_seconds(samples: int) -> float:
    """Median import time of pwlcycles.cli over fresh interpreters, after one warm-up."""
    _import_once()
    return statistics.median(float(_import_once().stdout.split()[1]) for _ in range(samples))


def import_breakdown(stderr: str) -> dict:
    """Split ``-X importtime`` self times under pwlcycles into numpy, scipy and the rest.

    A module's time goes to numpy or scipy when it or one of its importers
    belongs to that package, and to pwlcycles otherwise: the package's own
    modules plus the standard library they import directly.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue
        name = parts[2][1:]
        entries.append((len(name) - len(name.lstrip()), name.strip(), self_us))
    totals = {"numpy": 0.0, "scipy": 0.0, "pwlcycles": 0.0}
    stack: list[tuple[int, str]] = []
    # Lines come children first; reversed, every importer precedes its imports.
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, name.split(".")[0]))
        tops = [top for _, top in stack]
        if "pwlcycles" not in tops:
            continue
        owner = next((t for t in reversed(tops) if t in ("numpy", "scipy")), "pwlcycles")
        totals[owner] += self_us / 1e3
    return totals


def setup_layers(samples: int) -> dict:
    _import_once()
    runs = [import_breakdown(_import_once(("-X", "importtime")).stderr) for _ in range(samples)]
    return {f"setup.import_{key}_ms": statistics.median(r[part] for r in runs)
            for key, part in (("scipy", "scipy"), ("numpy", "numpy"),
                              ("pwlcycles_self", "pwlcycles"))}


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.worst = 0.0

    @property
    def jobs_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy if self.busy > 0 else 0.0


def run_round(workload, stats: Stats, tracer=None) -> None:
    """One round of jobs, each timed on its own and checked afterwards, untimed."""
    for job in workload.round():
        if tracer is not None:
            tracer.job_id = stats.attempted
        t0 = time.perf_counter()
        try:
            out = workload.run(job)
        except Exception:
            dt = time.perf_counter() - t0
            fails, dev = [f"job raised:\n{traceback.format_exc()}"], math.inf
        else:
            dt = time.perf_counter() - t0
            fails, dev = workload.check(job, out)
        stats.attempted += 1
        stats.busy += dt
        stats.latencies.append(dt)
        if fails:
            stats.failed += 1
            sys.stderr.write(f"FAILED {workload.name} job {stats.attempted}: "
                             + "; ".join(fails[:5]) + "\n")
        else:
            stats.worst = max(stats.worst, dev)


def run_for(workload, seconds: float) -> Stats:
    """Whole rounds until ``seconds`` have passed."""
    stats = Stats()
    start = time.perf_counter()
    while not stats.attempted or time.perf_counter() - start < seconds:
        run_round(workload, stats)
    return stats


def run_traced(workload, seconds: float, tracer) -> tuple[Stats, Stats]:
    """Untraced and traced rounds in turn, so both see the same machine state."""
    plain, traced = Stats(), Stats()
    start = time.perf_counter()
    while not traced.attempted or (time.perf_counter() - start < seconds
                                   and len(tracer) < SPAN_CAP):
        run_round(workload, plain)
        tracer.install()
        try:
            run_round(workload, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def digits(err: float) -> float:
    """-log10 of a deviation, capped at 17 digits for an exact answer."""
    return -math.log10(min(max(err, 1e-17), 1.0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_program():
    sys.path.insert(0, str(SRC))
    import pwlcycles
    if not Path(pwlcycles.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"pwlcycles imported from {pwlcycles.__file__}, not {SRC}")


def run_one(args) -> dict:
    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(1 if args.short else SETUP_SAMPLES)
    else:
        metrics.update(setup_layers(1 if args.short else IMPORTTIME_SAMPLES))
    load_program()
    from workloads import WORKLOADS as RUNNERS

    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workload = RUNNERS[args.workload](random.Random(f"{args.workload}:{args.seed}"), WORK)
    seconds = 0.0 if args.short else args.seconds
    if not args.trace:
        stats = run_for(workload, seconds)
        metrics["jobs_per_s"] = stats.jobs_per_s
        metrics["job_p50_ms"] = statistics.median(stats.latencies) * 1e3
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["accuracy_digits"] = digits(stats.worst if stats.failed < stats.attempted else math.inf)
    else:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        t0 = time.perf_counter()
        stats, traced = run_traced(workload, seconds, tracer)
        layers, missing = layer_metrics(tracer, traced.attempted, workload.seeds_per_job)
        metrics.update(layers)
        metrics["analytic.rel_err_digits"] = (digits(workload.worst_rel_err)
                                              if hasattr(workload, "worst_rel_err") else 0.0)
        metrics["trace.overhead_ratio"] = (traced.jobs_per_s / stats.jobs_per_s
                                           if stats.jobs_per_s else 0.0)
        for name in missing:
            sys.stderr.write(f"missing in the program: {name}; its metrics read 0\n")
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json.gz", t0)
        stats.attempted += traced.attempted
        stats.failed += traced.failed
    return {"correct": stats.failed == 0, "attempted": stats.attempted, "failed": stats.failed,
            "metrics": metrics}


def report(args, result: dict) -> dict:
    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {n: {"value": float(result["metrics"][n]), "unit": UNITS[n]} for n in names}}
    print(f"{args.workload}: seed {args.seed}, {out['attempted']} jobs, {out['failed']} failed")
    for n, m in out["metrics"].items():
        print(f"  {n:40s} {m['value']:>14.6g} {m['unit']}")
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=2) + "\n")
    return out


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--short"] if args.short else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(f"workload {name} exited with code {proc.returncode}\n")
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS),
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="one round and one set-up sample: a quick end-to-end smoke run")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(benchmark_text())
        return 0
    if not (SRC / "pwlcycles" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program to benchmark: {SRC / 'pwlcycles'} is missing\n")
        return 2
    if args.workload is None:
        return run_all(args)
    result = run_one(args)
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
