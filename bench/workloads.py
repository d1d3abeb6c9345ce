"""The three workloads: seeded inputs, the timed job, and its checks.

Each workload hands out whole rounds of jobs.  ``run`` is the timed part
and calls only the program; ``check`` runs untimed afterwards and returns
(failure messages, largest deviation from the exact answer).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from pwlcycles import analytic, cli, cycles, families, hypotheses

import checks
import reference as ref

SURVEY_MAX_N = 8
CERT_POINTS = 4096     # the certificate grid of the CLI's check command
SCAN_POINTS = 512      # scalar displacement scan per survey job
MP_POINTS = 4          # scan points per survey job checked against mpmath


def _csv_text(header, rows) -> str:
    """Cycle CSV as the CLI writes it: 12 significant digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


class Survey:
    """Small systems of every family through the library's analytic path.

    A round holds one system per family kind and per n = 1..8 (40 jobs), so
    its make-up is the same for every seed; the seed draws the rates,
    amplitudes and ranges, all inside the paper's certified ranges and
    with every zero of h well inside the range.
    """

    name = "survey"
    seeds_per_job = 0

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.picker = random.Random(rng.getrandbits(64))  # mpmath points, apart from the inputs
        self.worst_rel_err = 0.0

    def round(self) -> list:
        u = self.rng.uniform
        out = []
        for n in range(1, SURVEY_MAX_N + 1):
            out.append(ref.sine_case(u(0.2, 0.74), n, u(0.05, 0.6), u(n + 0.15, n + 0.45)))
            out.append(ref.cosine_case(u(0.1, 0.46), n, u(0.1, 1.5), u(2 * n + 0.3, 2 * n + 0.9)))
            k0 = self.rng.randint(1, 4)
            out.append(ref.oscillatory_case(u(0.05, 0.36), 1.0 / ((k0 + n - 1 + u(0.25, 0.75)) * math.pi),
                                            1.0 / ((k0 - 1 + u(0.25, 0.75)) * math.pi)))
            out.append(ref.oscillatory_case(u(0.05, 0.36), 1.0 / ((n + u(0.25, 0.75)) * math.pi),
                                            u(0.4, 1.0), kmax=n))
            out.append(ref.table_case(u(0.2, 0.74), n, u(0.05, 0.6), u(n + 0.15, n + 0.45)))
        return out

    def run(self, case: ref.Case):
        system = families.system_from_descriptor(case.descriptor)
        report = hypotheses.check_boundary_hypotheses(
            system, hypotheses.geometric_grid(case.lo, case.hi, CERT_POINTS))
        if case.kmax:
            roots = [families.oscillatory_root(k) for k in range(1, case.kmax + 1)]
            result = cycles.CycleSearchResult(cycles=cycles.reports_for_roots(system, roots),
                                              continuum=False, origin="stable focus")
        else:
            result = cycles.find_limit_cycles(system, case.lo, case.hi)
        js = json.dumps(result.to_json())
        table = _csv_text(cycles.CYCLE_CSV_HEADER, [c.csv_row() for c in result.cycles])
        ys = np.linspace(case.lo, case.hi, SCAN_POINTS)
        fs = [analytic.displacement(float(y), system) for y in ys]
        return report.passed, js, table, ys, fs

    def check(self, case: ref.Case, out) -> tuple[list, float]:
        passed, js, table, ys, fs = out
        fails = [] if passed else [f"{case.label}: certificate fails inside the certified range"]
        found = json.loads(js)["cycles"]
        f, worst = checks.match_cycles(case, [c["y_star"] for c in found],
                                       [c["stability"] for c in found])
        fails += f + checks.crossing_failures(case, found)
        rows = list(csv.reader(io.StringIO(table)))
        if [float(r[0]) for r in rows[1:]] != [float(f"{c['y_star']:.12g}") for c in found]:
            fails.append(f"{case.label}: CSV cycles differ from the JSON cycles")
        order = list(range(len(ys)))
        self.picker.shuffle(order)
        eligible = set(checks.mp_eligible(case, ys))
        picked = [i for i in order if i in eligible][:MP_POINTS]
        f, rel = checks.displacement_failures(case, [(float(ys[i]), fs[i]) for i in picked])
        self.worst_rel_err = max(self.worst_rel_err, rel)
        return fails + f, worst


class Verify:
    """The verify command at its default step and scan on four fixed systems.

    The seed only shuffles the order inside each round; the systems are the
    README's sine example, a cosine, the oscillatory list up to k = 4 (the
    oracle's stability verdict is unreliable for smaller cycles) and a
    table boundary sampled from the sine.
    """

    name = "verify"
    seeds_per_job = 0

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        table = ref.table_case(0.75, 2, 0.1, 2.4)
        config = workdir / "verify_table.json"
        config.write_text(json.dumps(table.descriptor))
        systems = [
            (["--gamma", "0.75", "--family", "sine", "--n", "2", "--range", "0.1", "4"],
             ref.sine_case(0.75, 2, 0.1, 4.0)),
            (["--gamma", "0.3", "--family", "cosine", "--n", "2", "--range", "0.1", "5.5"],
             ref.cosine_case(0.3, 2, 0.1, 5.5)),
            (["--gamma", "1", "--family", "oscillatory", "--alpha", "0.3", "--kmax", "4",
              "--range", "0.05", "1"],
             ref.oscillatory_case(0.3, 0.05, 1.0, kmax=4)),
            (["--config", str(config), "--range", "0.1", "2.4"], table),
        ]
        self.jobs = [(["verify", *flags, "--out", str(workdir / f"verify-{i}.json")], case)
                     for i, (flags, case) in enumerate(systems)]

    def round(self) -> list:
        jobs = list(self.jobs)
        self.rng.shuffle(jobs)
        return jobs

    def run(self, job):
        return cli.main(job[0])

    def check(self, job, rc) -> tuple[list, float]:
        argv, case = job
        payload = json.loads(Path(argv[-1]).read_text())
        return checks.verify_failures(case, rc, payload)


class Portrait:
    """The README portrait command with --csv, on the README sine system.

    Three orbit seeds: one on the stable cycle y* = 2 (compared with the
    closed-form cycle), one drawn between the unstable cycle at 1 and the
    stable one (must close in on it), one drawn inside the unstable cycle
    like the README's (0, 0.4).  Every job of a run is the same command,
    so every SVG and CSV must be byte-identical.
    """

    name = "portrait"
    seeds_per_job = 3
    window = (-2.6, 2.6, -2.6, 2.6)

    def __init__(self, rng, workdir: Path):
        self.case = ref.sine_case(0.75, 2, 0.1, 4.0)
        self.seeds = [(0.0, 2.0), (0.0, round(rng.uniform(1.2, 1.8), 4)),
                      (0.0, round(rng.uniform(0.3, 0.7), 4))]
        self.svg, self.csv = workdir / "portrait.svg", workdir / "portrait.csv"
        self.argv = ["portrait", "--gamma", "0.75", "--family", "sine", "--n", "2",
                     "--range", "0.1", "4", "--window", *map(str, self.window),
                     *[a for x, y in self.seeds for a in ("--seed", f"{x},{y}")],
                     "--turns", "4", "--out", str(self.svg), "--csv", str(self.csv)]
        self.first = None

    def round(self) -> list:
        return [self.argv]

    def run(self, argv):
        return cli.main(argv)

    def check(self, argv, rc) -> tuple[list, float]:
        svg, table = self.svg.read_bytes(), self.csv.read_text()
        fails = [] if rc == 0 else [f"portrait exit code {rc}"]
        if self.first is None:
            self.first = (svg, table)
        elif (svg, table) != self.first:
            fails.append("repeated portrait job wrote different SVG or CSV bytes")
        fails += checks.svg_failures(svg.decode(), self.case, self.window)
        f, worst = checks.orbit_failures(table, self.case, 2.0, self.seeds)
        return fails + f, worst


WORKLOADS = {w.name: w for w in (Survey, Verify, Portrait)}
