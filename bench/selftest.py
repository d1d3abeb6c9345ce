#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 bench/selftest.py

Each output check must accept the exact answer and reject a deliberately
wrong one (a shifted root, a dropped cycle, a swapped stability class, a
sign-flipped displacement, a broken SVG or orbit), and a short run of
every workload must reach its end with no failed job.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

SINE = ref.sine_case(0.75, 2, 0.1, 4.0)          # cycles at 1 (unstable) and 2 (stable)


class CycleChecks(unittest.TestCase):
    def test_exact_answer_passes(self):
        fails, worst = checks.match_cycles(SINE, [1.0, 2.0], ["unstable", "stable"])
        self.assertEqual(fails, [])
        self.assertEqual(worst, 0.0)

    def test_shifted_root(self):
        fails, _ = checks.match_cycles(SINE, [1.0, 2.0 + 1e-8], ["unstable", "stable"])
        self.assertEqual(len(fails), 1)

    def test_dropped_cycle(self):
        fails, _ = checks.match_cycles(SINE, [2.0], ["stable"])
        self.assertEqual(len(fails), 1)

    def test_swapped_class(self):
        fails, _ = checks.match_cycles(SINE, [1.0, 2.0], ["stable", "unstable"])
        self.assertEqual(len(fails), 2)

    def test_cosine_and_oscillatory_rules(self):
        cos = ref.cosine_case(0.3, 2, 0.1, 5.5)
        self.assertEqual(cos.zeros, (2.0, 4.0))
        self.assertEqual(cos.classes, (ref.SEMI_OUTER,) * 2)
        osc = ref.oscillatory_case(0.3, 0.05, 1.0)
        self.assertEqual(osc.zeros, tuple(1 / (k * math.pi) for k in (6, 5, 4, 3, 2, 1)))
        self.assertEqual(osc.classes[-2:], (ref.UNSTABLE, ref.STABLE))

    def test_crossings(self):
        good = {"y_star": 2.0, "period": 2 * math.pi, "upper_crossing": [0.0, 2.0],
                "lower_crossing": [0.0, -math.exp(-0.75 * math.pi) * 2.0]}
        self.assertEqual(checks.crossing_failures(SINE, [good]), [])
        self.assertTrue(checks.crossing_failures(SINE, [{**good, "period": 2 * math.pi + 1e-9}]))
        self.assertTrue(checks.crossing_failures(SINE, [{**good, "lower_crossing": [0.0, -0.2]}]))


class DisplacementChecks(unittest.TestCase):
    def test_mpmath_value_passes_and_sign_flip_fails(self):
        ys = [0.3, 1.5, 2.4]
        exact = [(y, float(ref.displacement_mp(SINE, y))) for y in ys]
        self.assertEqual(checks.displacement_failures(SINE, exact)[0], [])
        flipped = [(y, -f) for y, f in exact]
        self.assertEqual(len(checks.displacement_failures(SINE, flipped)[0]), 2 * len(ys))

    def test_program_agrees_with_mpmath(self):
        from pwlcycles import analytic, families
        system = families.system_from_descriptor(SINE.descriptor)
        pts = [(y, analytic.displacement(y, system)) for y in (0.3, 1.5, 2.4)]
        fails, worst = checks.displacement_failures(SINE, pts)
        self.assertEqual(fails, [])
        self.assertLess(worst, 1e-12)

    def test_table_reference_matches_the_sine_it_samples(self):
        table = ref.table_case(0.75, 2, 0.1, 2.4)
        for y in (0.25, 1.0, 1.3, 2.0):
            self.assertAlmostEqual(ref.h_ref(table, y), ref.h_ref(SINE, y), delta=2e-3)


class VerifyChecks(unittest.TestCase):
    def payload(self, **changes):
        cycles = [{"y_star": y, "classified": c, "oracle": c, "fixed_point_error": 1e-13,
                   "flight_time_error": 1e-12, "sigma_crossings": 1}
                  for y, c in zip(SINE.zeros, SINE.classes)]
        cycles[1].update(changes)
        return {"cycles": cycles, "displacement_max_abs_diff": 1e-14, "discrepancies": [],
                "passed": True}

    def test_exact_answer_passes(self):
        fails, worst = checks.verify_failures(SINE, 0, self.payload())
        self.assertEqual(fails, [])
        self.assertEqual(worst, 1e-12)

    def test_wrong_answers(self):
        for change in ({"oracle": "unstable"}, {"y_star": 2.001}, {"flight_time_error": 1e-3},
                       {"sigma_crossings": 2}):
            with self.subTest(change=change):
                self.assertTrue(checks.verify_failures(SINE, 0, self.payload(**change))[0])
        dropped = self.payload()
        dropped["cycles"].pop()
        self.assertTrue(checks.verify_failures(SINE, 0, dropped)[0])
        self.assertTrue(checks.verify_failures(SINE, 3, self.payload())[0])


class PortraitChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import random
        from workloads import Portrait
        work = BENCH / "_work" / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        cls.w = Portrait(random.Random(0), work)
        from pwlcycles import cli
        if cli.main(cls.w.argv) != 0:
            raise RuntimeError("the portrait command failed")
        cls.svg = cls.w.svg.read_text()
        cls.csv = cls.w.csv.read_text()

    def test_exact_answer_passes(self):
        self.assertEqual(checks.svg_failures(self.svg, SINE, self.w.window), [])
        fails, worst = checks.orbit_failures(self.csv, SINE, 2.0, self.w.seeds)
        self.assertEqual(fails, [])
        self.assertLess(worst, 1e-9)

    def test_broken_svg(self):
        self.assertTrue(checks.svg_failures(self.svg[:-20], SINE, self.w.window))

    def test_unstable_cycle_drawn_solid(self):
        solid = re.sub(r' stroke-dasharray="[^"]*"', "", self.svg)
        self.assertTrue(checks.svg_failures(solid, SINE, self.w.window))

    def test_dropped_cycle(self):
        lines = self.svg.splitlines()
        points = [checks._POINT.findall(line) for line in lines]
        closed = [i for i, p in enumerate(points) if len(p) > 2 and p[0] == p[-1]]
        self.assertEqual(len(closed), 2)
        del lines[closed[0]]
        self.assertTrue(checks.svg_failures("\n".join(lines), SINE, self.w.window))

    def test_orbit_off_the_cycle(self):
        header, first, *rest = self.csv.splitlines()
        t, x, y, zone = first.split(",")
        moved = "\n".join([header, f"{t},{x},{float(y) + 1e-4},{zone}", *rest])
        self.assertTrue(checks.orbit_failures(moved, SINE, 2.0, self.w.seeds)[0])

    def test_orbit_moving_away(self):
        # Read with the unstable cycle as the target, the same orbit moves away.
        fails, _ = checks.orbit_failures(self.csv, SINE, 1.0, self.w.seeds)
        self.assertTrue(any("close in" in f for f in fails))


class Harness(unittest.TestCase):
    def test_benchmark_json_matches_spec(self):
        self.assertEqual((BENCH.parent / "BENCHMARK.json").read_text(), spec.benchmark_text())

    def test_import_breakdown(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   site",
            "import time:        50 |         50 |       inspect",
            "import time:       400 |        450 |     scipy.interpolate",
            "import time:       300 |        300 |     numpy",
            "import time:        20 |         20 |     csv",
            "import time:        10 |        780 |   pwlcycles.cli",
        ])
        got = run.import_breakdown(text)
        for key, ms in {"numpy": 0.3, "scipy": 0.45, "pwlcycles": 0.03}.items():
            self.assertAlmostEqual(got[key], ms)

    def test_tracer_counts_and_uninstalls(self):
        from pwlcycles import cycles, families
        from tracing import Tracer, layer_metrics
        original = cycles.find_limit_cycles
        tracer = Tracer()
        tracer.install()
        try:
            tracer.job_id = 0
            system = families.system_from_descriptor(SINE.descriptor)
            cycles.find_limit_cycles(system, 0.1, 4.0)
        finally:
            tracer.uninstall()
        self.assertIs(cycles.find_limit_cycles, original)
        layers, missing = layer_metrics(tracer, 1, 0)
        self.assertEqual(missing, [])
        self.assertGreater(layers["cycles.h_calls_per_root"], 0)
        self.assertGreater(layers["families.eval_points"], 4096)


class ShortRuns(unittest.TestCase):
    def short(self, workload: str, trace: int) -> dict:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", "7", "--trace", str(trace), "--short"],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_every_workload_runs_to_its_end(self):
        for name in spec.WORKLOADS:
            with self.subTest(workload=name):
                out = self.short(name, 0)
                self.assertEqual((out["correct"], out["failed"]), (True, 0))
                self.assertEqual(list(out["metrics"]), [m[0] for m in spec.END_TO_END])
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_traced_run_reports_every_layer(self):
        out = self.short("portrait", 1)
        self.assertEqual(list(out["metrics"]), [m[0] for m in spec.PER_LAYER])
        self.assertGreater(out["metrics"]["portrait.sample_orbit_calls_per_seed"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
