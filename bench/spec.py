"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-spec``); the self-tests check that the
committed file still matches it.
"""

from __future__ import annotations

import json

RUN_SECONDS = 20

WORKLOADS = {
    "survey": "seeded sine, cosine, oscillatory and table systems (n <= 8) through the "
              "analytic path only; the oracle never runs, so oracle changes must show no effect",
    "verify": "CLI verify at the default step 1e-4 on four fixed systems; almost all time is "
              "oracle propagation, event localization and return-map stability resolution",
    "portrait": "CLI portrait with --csv on the README sine system; recorded orbits at step "
                "1e-3 plus SVG and CSV formatting, so output and recording costs show",
}

# (name, unit, better, bound).  bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  The
# timings get the widest bound allowed: on a shared 2-vCPU host the speed of
# plain Python code drifts by +-20% over tens of seconds (README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("accuracy_digits", "digits", "higher", 0.1),
]

# (name, unit, better).  Reported by the traced run only.
PER_LAYER = [
    ("setup.import_scipy_ms", "ms", "lower"),
    ("setup.import_numpy_ms", "ms", "lower"),
    ("setup.import_pwlcycles_self_ms", "ms", "lower"),
    ("families.eval_calls", "count", "lower"),
    ("families.eval_points", "count", "lower"),
    ("families.scalar_calls", "count", "lower"),
    ("families.eval_ms", "ms", "lower"),
    ("hypotheses.check_ms", "ms", "lower"),
    ("hypotheses.grid_points", "count", "lower"),
    ("cycles.find_limit_cycles_ms", "ms", "lower"),
    ("cycles.h_calls_per_root", "count", "lower"),
    ("analytic.displacement_us", "us", "lower"),
    ("analytic.h_evals_per_point", "count", "lower"),
    ("analytic.rel_err_digits", "digits", "higher"),
    ("oracle.return_map_ms", "ms", "lower"),
    ("oracle.resolve_stability_ms", "ms", "lower"),
    ("oracle.numeric_displacement_ms", "ms", "lower"),
    ("oracle.integrate_calls", "count", "lower"),
    ("oracle.integrate_ms", "ms", "lower"),
    ("oracle.h_points_per_turn", "count", "lower"),
    ("oracle.scalar_h_calls_per_turn", "count", "lower"),
    ("oracle.segments_to_csv_ms", "ms", "lower"),
    ("portrait.sample_orbit_calls_per_seed", "count", "lower"),
    ("portrait.sample_orbit_ms", "ms", "lower"),
    ("portrait.render_self_ms", "ms", "lower"),
    ("portrait.svg_bytes", "bytes", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
