"""Checks of the program's outputs against the references in reference.py.

Every check returns a list of failure messages (empty when the output is
right) and, where the workload reports accuracy, the largest deviation
from the exact answer it saw.  None of them compares against a stored
copy of the program's own output.
"""

from __future__ import annotations

import csv
import io
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

from reference import (SEMI_OUTER, STABLE, TWO_PI, UNSTABLE, Case, cycle_at, displacement_mp,
                       h_ref, lower_crossing)

ROOT_TOL = 1e-9          # |y* - exact zero|
CROSSING_TOL = 1e-12     # period and lower crossing, relative
REL_TOL_F = 1e-6         # analytic displacement against 50-digit mpmath
# The mpmath check samples only points with |h| >= MP_MIN_H_OVER_Y * y:
# closer to a zero of h the float64 displacement loses its relative
# accuracy (see CHANGES.md).  The sign of f is checked on every sampled
# point, the relative error only where |h| >= REL_MIN_H_OVER_Y * y.  The
# error grows like 1/(gamma*(|h|/y)^3): at |h| = 1e-3*y it reaches 3.3e-6
# for gamma = 0.1, while at 1e-2*y it stays below 4e-9 for gamma >= 0.1.
# Every sampled point's error still goes into analytic.rel_err_digits.
MP_MIN_H_OVER_Y = 1e-3
REL_MIN_H_OVER_Y = 1e-2
VERIFY_TOL = 1e-6        # the verify command's default discrepancy tolerance
SVG_POS_TOL = 1e-4       # cycle crossings read back from 3-decimal pixel coordinates


def match_cycles(case: Case, y_stars, classes, what: str = "class") -> tuple[list, float]:
    """Count, location and stability of reported cycles against the paper's."""
    if len(y_stars) != len(case.zeros):
        return [f"{case.label}: {len(y_stars)} cycles, the paper has {len(case.zeros)}"], math.inf
    fails, worst = [], 0.0
    for (y, cls), z, ref in zip(sorted(zip(y_stars, classes)), case.zeros, case.classes):
        dev = abs(y - z)
        worst = max(worst, dev)
        if not dev <= ROOT_TOL:
            fails.append(f"{case.label}: cycle at {y!r}, exact zero {z!r}")
        if cls != ref:
            fails.append(f"{case.label}: cycle {z!r} {what} {cls!r}, paper says {ref!r}")
    return fails, worst


def crossing_failures(case: Case, cycles_json: list) -> list:
    """Each cycle has period 2*pi and crosses at (0, y*) and (0, -exp(-gamma*pi)*y*)."""
    fails = []
    for c in cycles_json:
        y = c["y_star"]
        low = lower_crossing(case.gamma, y)
        if not abs(c["period"] - TWO_PI) <= CROSSING_TOL * TWO_PI:
            fails.append(f"{case.label}: period {c['period']!r} at y*={y!r}")
        if c["upper_crossing"] != [0.0, y]:
            fails.append(f"{case.label}: upper crossing {c['upper_crossing']!r} at y*={y!r}")
        lx, ly = c["lower_crossing"]
        if lx != 0.0 or not abs(ly - low) <= CROSSING_TOL * abs(low):
            fails.append(f"{case.label}: lower crossing {c['lower_crossing']!r}, expected {low!r}")
    return fails


def mp_eligible(case: Case, ys) -> list:
    """Indices of scan points far enough from zeros of h for the mpmath check."""
    return [i for i, y in enumerate(ys) if abs(h_ref(case, float(y))) >= MP_MIN_H_OVER_Y * y]


def displacement_failures(case: Case, points) -> tuple[list, float]:
    """(y, f) pairs against 50-digit mpmath: relative error and sign(f) = sign(h).

    Returns the failures and the largest relative error over all points.
    """
    fails, worst = [], 0.0
    for y, f in points:
        exact = displacement_mp(case, y)
        rel = float(abs((f - exact) / exact))
        worst = max(worst, rel)
        if abs(h_ref(case, y)) >= REL_MIN_H_OVER_Y * y and not rel <= REL_TOL_F:
            fails.append(f"{case.label}: f({y!r}) = {f!r}, mpmath {float(exact)!r}, rel err {rel:.3g}")
        if np.sign(f) != np.sign(h_ref(case, y)):
            fails.append(f"{case.label}: sign of f({y!r}) = {f!r} differs from the sign of h")
    return fails, worst


def verify_failures(case: Case, rc: int, payload: dict) -> tuple[list, float]:
    """The verify command's JSON against the paper and its own tolerances."""
    fails = [] if rc == 0 else [f"{case.label}: verify exit code {rc}"]
    if payload.get("passed") is not True or payload.get("discrepancies"):
        fails.append(f"{case.label}: verify reports {payload.get('discrepancies')!r}")
    cycles = payload.get("cycles", [])
    ys = [c["y_star"] for c in cycles]
    f1, worst = match_cycles(case, ys, [c["classified"] for c in cycles], "classified")
    f2, _ = match_cycles(case, ys, [c["oracle"] for c in cycles], "oracle verdict")
    fails += f1 + [f for f in f2 if f not in f1]
    for c in cycles:
        for key in ("fixed_point_error", "flight_time_error"):
            worst = max(worst, c[key])
            if not c[key] <= VERIFY_TOL:
                fails.append(f"{case.label}: {key} {c[key]!r} at y*={c['y_star']!r}")
        if c["sigma_crossings"] != 1:
            fails.append(f"{case.label}: {c['sigma_crossings']} switching crossings per turn")
    diff = payload.get("displacement_max_abs_diff", math.inf)
    worst = max(worst, diff)
    if not diff <= VERIFY_TOL:
        fails.append(f"{case.label}: displacement_max_abs_diff {diff!r}")
    return fails, worst


_POINT = re.compile(r"[ML](-?[\d.]+),(-?[\d.]+)")


def _path_points(el) -> np.ndarray:
    return np.array([[float(a), float(b)] for a, b in _POINT.findall(el.get("d", ""))])


def svg_failures(svg: str, case: Case, window) -> list:
    """The SVG parses, and draws one closed path per exact cycle in the window.

    Pixel coordinates are mapped back to the plane through the two axis
    lines, which span the window.  A cycle's dash pattern must follow its
    class: solid when stable, a two-number dash when unstable, a
    four-number dash-dot when semi-stable.
    """
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    paths = [(el, _path_points(el)) for el in root.iter() if el.tag.endswith("path")]
    x0, x1, y0, y1 = window
    vertical = [p for _, p in paths if len(p) == 2 and p[0, 0] == p[1, 0]]
    horizontal = [p for _, p in paths if len(p) == 2 and p[0, 1] == p[1, 1]]
    if not vertical or not horizontal:
        return ["SVG has no axis lines to read the coordinates from"]
    (ax, ay0), (_, ay1) = vertical[0]
    (bx0, by), (bx1, _) = horizontal[0]
    sx, sy = (bx1 - bx0) / (x1 - x0), (ay1 - ay0) / (y1 - y0)

    dash_class = {0: STABLE, 2: UNSTABLE, 4: SEMI_OUTER}
    expected = {z: c for z, c in zip(case.zeros, case.classes) if y0 < z < y1}
    fails, found = [], []
    for el, p in paths:
        if len(p) < 3 or not np.array_equal(p[0], p[-1]):
            continue
        x = (p[:, 0] - ax) / sx
        y = (p[:, 1] - by) / sy
        upper = y[y > 0][np.argmin(np.abs(x[y > 0]))]
        lower = y[y < 0][np.argmin(np.abs(x[y < 0]))]
        zero = min(expected, key=lambda z: abs(z - upper), default=None)
        if zero is None or abs(zero - upper) > SVG_POS_TOL:
            fails.append(f"SVG cycle through (0, {upper:.6g}) matches no exact cycle")
            continue
        found.append(zero)
        if abs(lower - lower_crossing(case.gamma, zero)) > SVG_POS_TOL:
            fails.append(f"SVG cycle {zero!r} crosses below at {lower:.6g}")
        dash = el.get("stroke-dasharray")
        style = dash_class.get(len(dash.split(",")) if dash else 0)
        if style != expected[zero]:
            fails.append(f"SVG cycle {zero!r} dashed {dash!r}, paper class {expected[zero]!r}")
    if sorted(found) != sorted(expected):
        fails.append(f"SVG cycles at {sorted(found)}, exact cycles in the window {sorted(expected)}")
    return fails


def split_orbits(csv_text: str) -> list:
    """Orbit CSV (t, x, y, zone) split into one (t, x, y, zone) tuple of arrays per seed."""
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    orbits, cur, prev_t = [], [], -math.inf
    for t, x, y, zone in rows:
        t = float(t)
        if t < prev_t:
            orbits.append(cur)
            cur = []
        cur.append((t, float(x), float(y), zone))
        prev_t = t
    orbits.append(cur)
    return [(np.array([r[0] for r in o]), np.array([r[1] for r in o]),
             np.array([r[2] for r in o]), [r[3] for r in o]) for o in orbits]


def orbit_failures(csv_text: str, case: Case, stable_cycle: float, seeds: list) -> tuple[list, float]:
    """Orbits in the portrait CSV against the closed-form cycle.

    seeds[0] sits on the stable cycle: its samples are compared with the
    exact cycle at the same times, which gives the accuracy.  seeds[1]
    lies between the unstable cycle below and the stable one: its
    returns to the lower section must close in on the stable cycle at
    every turn, from inside.
    """
    orbits = split_orbits(csv_text)
    if len(orbits) != len(seeds):
        return [f"CSV holds {len(orbits)} orbits for {len(seeds)} seeds"], math.inf
    t, x, y, _ = orbits[0]
    cx, cy = cycle_at(case.gamma, stable_cycle, t)
    worst = float(np.max(np.hypot(x - cx, y - cy)))
    fails = []
    if not worst <= VERIFY_TOL:
        fails.append(f"orbit on the stable cycle strays {worst:.3g} from it")

    _, _, y, zone = orbits[1]
    hits = [y[i] for i in range(len(zone) - 1) if zone[i] == "left" and zone[i + 1] == "right"]
    gaps = np.abs(lower_crossing(case.gamma, stable_cycle)) + np.array(hits)
    if len(hits) < 3:
        fails.append(f"orbit from {seeds[1]} returns to the lower section only {len(hits)} times")
    elif not (np.all(gaps > 0.0) and np.all(np.diff(gaps) < 0.0)):
        fails.append(f"orbit from {seeds[1]} does not close in on the stable cycle: {gaps.tolist()}")
    return fails, worst
