"""Cycle location, stability classification and cross-checks against the oracle.

Periodic orbits correspond one-to-one to zeros of the boundary offset h
on y > 0, so cycle finding reduces to scalar root finding on h plus a
local sign analysis:

    h < 0 just inside a zero   -> the cycle attracts from the interior
    h > 0 just outside a zero  -> the cycle attracts from the exterior
    h'(y*) > 0 (< 0)           -> hyperbolic-in-effect: stable (unstable)

The h' shortcut and the one-sided probes agree wherever both apply; the
probes additionally resolve tangential zeros (no sign change), which are
the semi-stable cycles.  The degenerate boundary h = 0 makes every orbit
periodic; that case is reported as a continuum, not as a root list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .analytic import TWO_PI, displacement, displacement_f3_at_root
from .core import (Boundary, DomainError, HypothesisError, Point, PWLError, PWLSystem,
                   StabilityClass, _boundary_values, _stability_class)
from .hypotheses import HypothesisReport, check_boundary_hypotheses, geometric_grid

DEFAULT_ROOT_TOL = 1e-10
DEFAULT_SCAN_POINTS = 4096
# find_limit_cycles certifies the range on a geometric grid of this size.
CERTIFY_POINTS = 1024
# |h'(y*)| above this counts as a genuine slope, below as a tangential zero.
HYPERBOLIC_TOL = 1e-8
PROBE_SHRINK = 0.25
PROBE_START_REL = 1e-3
PROBE_FLOOR_REL = 1e-12


CYCLE_CSV_HEADER = ("y_star", "lower_y", "period", "stability", "h_prime", "f3", "hyperbolic")


@dataclass(frozen=True)
class CycleReport:
    """One limit cycle: axis crossings, period, and stability data.

    The lower crossing is exactly -exp(-gamma*pi) * y_star and the period
    is exactly 2*pi; both are structural, not fitted.
    """

    y_star: float
    upper_crossing: Point
    lower_crossing: Point
    period: float
    stability: StabilityClass
    h_prime: float
    f3: float
    hyperbolic: bool

    def to_json(self) -> dict:
        return {
            "y_star": self.y_star,
            "upper_crossing": [self.upper_crossing.x, self.upper_crossing.y],
            "lower_crossing": [self.lower_crossing.x, self.lower_crossing.y],
            "period": self.period,
            "stability": self.stability.value,
            "h_prime": self.h_prime,
            "f3": self.f3,
            "hyperbolic": self.hyperbolic,
        }

    def csv_row(self) -> tuple:
        return (self.y_star, self.lower_crossing.y, self.period,
                self.stability.value, self.h_prime, self.f3, self.hyperbolic)


@dataclass(frozen=True)
class RootScan:
    """Roots of h found on a range, or a continuum marker for h = 0."""

    roots: tuple[float, ...]
    continuum: bool = False


@dataclass
class CycleSearchResult:
    """Cycle reports plus the origin classification for the scanned range."""

    cycles: list[CycleReport]
    continuum: bool
    origin: str
    hypothesis_report: HypothesisReport | None = None

    def to_json(self) -> dict:
        return {
            "continuum": self.continuum,
            "origin": self.origin,
            "cycles": [c.to_json() for c in self.cycles],
        }


def _bisect(fn, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _refine_tangential(boundary: Boundary, a: float, b: float, tol: float) -> float | None:
    """Pin a touch-point of h by bisecting its derivative over [a, b]."""
    da = float(boundary.derivative(a))
    db = float(boundary.derivative(b))
    if not (math.isfinite(da) and math.isfinite(db)) or da == 0.0 and db == 0.0:
        return None
    if da == 0.0:
        return a
    if db == 0.0:
        return b
    if (da < 0.0) == (db < 0.0):
        return None
    return _bisect(lambda y: float(boundary.derivative(y)), a, b, da, db, tol)


def find_roots(boundary: Boundary, y_min: float, y_max: float) -> RootScan:
    """Locate zeros of h on [y_min, y_max] by scan plus bracket refinement.

    Sign changes are bisected to width < tol = DEFAULT_ROOT_TOL.  Tangential
    zeros (the value dips to zero without changing sign) are caught by
    refining local minima of |h| whose quadratic extrapolation reaches
    below tol**(2/3), and accepted when the refined |h| is below that same
    threshold; the 2/3 power matches how a quadratic touch scales.  A
    sample where h is exactly 0 between same-signed neighbours is such a
    touch too, pinned on h' the same way.  If every scan sample is exactly 0
    (not merely within tol, as on a narrow range around a simple zero) the
    boundary is degenerate and a continuum marker is returned instead.
    """
    if not (math.isfinite(y_min) and y_min > 0.0):
        raise DomainError(f"y_min must be a positive real, got {y_min!r}")
    if not (math.isfinite(y_max) and y_max > y_min):
        raise DomainError(f"need y_max > y_min, got {y_max!r}")

    ys = np.linspace(y_min, y_max, DEFAULT_SCAN_POINTS)
    hv = _boundary_values(boundary.evaluate, ys)

    if not hv.any():
        return RootScan(roots=(), continuum=True)

    def h_at(y: float) -> float:
        return float(boundary.evaluate(y))

    roots: list[float] = []
    signs = np.sign(hv)
    for i in np.flatnonzero(signs == 0.0):
        y_c = None
        # h rounds to 0 over about sqrt(eps) around a double zero, so a
        # zero sample between same-signed neighbours is pinned on h'.
        if 0 < i < DEFAULT_SCAN_POINTS - 1 and signs[i - 1] * signs[i + 1] > 0.0:
            y_c = _refine_tangential(boundary, float(ys[i - 1]), float(ys[i + 1]),
                                     DEFAULT_ROOT_TOL)
        roots.append(float(ys[i]) if y_c is None else y_c)
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0):
        roots.append(_bisect(h_at, float(ys[i]), float(ys[i + 1]),
                             float(hv[i]), float(hv[i + 1]), DEFAULT_ROOT_TOL))

    touch_tol = DEFAULT_ROOT_TOL ** (2.0 / 3.0)
    interior = np.arange(1, DEFAULT_SCAN_POINTS - 1)
    same_sign = (signs[interior - 1] == signs[interior]) & (signs[interior] == signs[interior + 1])
    local_min = (np.abs(hv[interior]) <= np.abs(hv[interior - 1])) & \
                (np.abs(hv[interior]) <= np.abs(hv[interior + 1]))
    # a flat stretch of h (a constant tail) makes every sample a candidate, so
    # the quadratic test runs on all at once and only those that pass are refined
    cand = interior[same_sign & local_min & (signs[interior] != 0.0)]
    if len(cand):
        h0, h1, h2 = hv[cand - 1], hv[cand], hv[cand + 1]
        curv = h0 - 2.0 * h1 + h2
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(curv * h1 > 0.0, h1 - (h2 - h0) ** 2 / (8.0 * curv), h1)
        for i in cand[np.minimum(np.abs(h1), np.abs(vertex)) <= touch_tol].tolist():
            y_c = _refine_tangential(boundary, float(ys[i - 1]), float(ys[i + 1]),
                                     DEFAULT_ROOT_TOL)
            if y_c is not None and abs(h_at(y_c)) <= touch_tol:
                roots.append(y_c)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 10.0 * DEFAULT_ROOT_TOL:
            merged.append(r)
    return RootScan(roots=tuple(merged))


def _settled_sign(boundary: Boundary, y_star: float, side: float,
                  probe: float, floor: float) -> int:
    """Sign of h on one side of y*, shrinking the probe until it stabilizes.

    Two consecutive probes with the same nonzero sign settle it; hitting
    the floor without agreement returns 0 (ambiguous).
    """
    eps = probe
    prev = 0
    while eps >= floor:
        y = y_star + side * eps
        if y <= 0.0:
            eps *= PROBE_SHRINK
            continue
        v = float(boundary.evaluate(y))
        s = 0 if v == 0.0 else (1 if v > 0.0 else -1)
        if s != 0 and s == prev:
            return s
        prev = s
        eps *= PROBE_SHRINK
    return 0


def classify(boundary: Boundary, y_star: float) -> StabilityClass:
    """Stability of the cycle through (0, y*) from the local behavior of h.

    With a genuine slope at the zero the sign of h'(y*) decides directly.
    Otherwise the settled signs of h on both sides are combined: negative
    inside means attracting from the interior, positive outside means
    attracting from the exterior, and mixed verdicts are the two
    semi-stable classes.
    """
    if not (math.isfinite(y_star) and y_star > 0.0):
        raise DomainError(f"y_star must be a positive real, got {y_star!r}")
    hp = float(boundary.derivative(y_star))
    if abs(hp) > HYPERBOLIC_TOL:
        return StabilityClass.STABLE if hp > 0.0 else StabilityClass.UNSTABLE

    probe0 = PROBE_START_REL * y_star
    floor = PROBE_FLOOR_REL * y_star
    s_in = _settled_sign(boundary, y_star, -1.0, probe0, floor)
    s_out = _settled_sign(boundary, y_star, +1.0, probe0, floor)
    if s_in == 0 or s_out == 0:
        return StabilityClass.UNDETERMINED
    return _stability_class(s_in < 0, s_out > 0)


def report_for_root(system: PWLSystem, y_star: float) -> CycleReport:
    """Assemble the full report for a known zero of h."""
    hp = float(system.boundary.derivative(y_star))
    return CycleReport(
        y_star=y_star,
        upper_crossing=Point(0.0, y_star),
        lower_crossing=Point(0.0, -math.exp(-system.gamma * math.pi) * y_star),
        period=TWO_PI,
        stability=classify(system.boundary, y_star),
        h_prime=hp,
        f3=displacement_f3_at_root(y_star, hp, system.params),
        hyperbolic=abs(hp) > HYPERBOLIC_TOL,
    )


def reports_for_roots(system: PWLSystem, roots) -> list[CycleReport]:
    """Reports for caller-supplied exact roots (e.g. the oscillatory 1/(k*pi))."""
    return [report_for_root(system, float(r)) for r in sorted(roots)]


def _origin_class(system: PWLSystem, y_probe: float) -> str:
    """Focus orientation at the origin from the sign of h just above 0."""
    v = float(system.boundary.evaluate(y_probe))
    if v > 0.0:
        return "stable focus"
    if v < 0.0:
        return "unstable focus"
    return "center"


def find_limit_cycles(system: PWLSystem, y_min: float, y_max: float, *,
                      certify: bool = True) -> CycleSearchResult:
    """Find and classify every limit cycle crossing the y-axis in [y_min, y_max].

    The range is certified against the non-sliding conditions on a
    ``CERTIFY_POINTS`` grid first unless ``certify`` is False; a failing
    certificate raises with the report attached rather than returning
    cycles that the theory does not cover.
    """
    report = None
    if certify:
        report = check_boundary_hypotheses(system, geometric_grid(y_min, y_max, CERTIFY_POINTS))
        if not report.passed:
            raise HypothesisError(
                f"non-sliding conditions fail on [{y_min}, {y_max}] "
                f"({len(report.violations)} violation(s)); pass certify=False to override",
                report=report,
            )

    scan = find_roots(system.boundary, y_min, y_max)
    if scan.continuum:
        return CycleSearchResult(cycles=[], continuum=True, origin="center",
                                 hypothesis_report=report)
    cycles = reports_for_roots(system, scan.roots)
    # Probe below everything scanned; only a heuristic for the origin tag,
    # the cycle list itself never depends on it.
    first = scan.roots[0] if scan.roots else y_max
    return CycleSearchResult(
        cycles=cycles,
        continuum=False,
        origin=_origin_class(system, 0.5 * min(y_min, first)),
        hypothesis_report=report,
    )


def _analytic_rows(system: PWLSystem, ys) -> tuple[list, list, PWLError | None]:
    """``ys`` as floats, the analytic f at each before the first that fails, and its failure."""
    ys, analytic = [float(y) for y in ys], []
    for y in ys:
        try:
            analytic.append(displacement(y, system))
        except PWLError as exc:
            return ys, analytic, exc
    return ys, analytic, None


def displacement_rows(system: PWLSystem, ys, step: float) -> list[tuple]:
    """(y, analytic f, oracle f at ``step``, |difference|) for each y in ``ys``.

    The oracle takes the ys in one call, so its legs run in lockstep.  A
    failure is that of the first y that fails, analytic before oracle.
    """
    ys, analytic, failure = _analytic_rows(system, ys)
    numeric = oracle.numeric_displacement(system, np.array(ys[:len(analytic)]), step).tolist()
    if failure is not None:
        raise failure
    return [(y, fa, fn, abs(fa - fn)) for y, fa, fn in zip(ys, analytic, numeric)]


def verify(system: PWLSystem, cycles, ys, step: float, tol: float) -> dict:
    """JSON-ready report of ``cycles`` and the displacement on ``ys`` checked by the oracle.

    One record per failed check goes to "discrepancies"; "passed" is True when there are none.
    Two oracle calls do the work, in three batches of legs: ``oracle.return_map`` turns every
    cycle from its lower crossing for the fixed-point, flight-time and crossing checks (one
    batch per zone), and ``oracle._side_verdicts`` probes every cycle at y* -+ eps, eps from
    ``oracle.probe_eps``, and scans ``ys`` in one batch.  A failure raises the error that
    checking one cycle at a time meets first (fixed-point turn, inner probe, outer probe),
    then that of the first y that fails, analytic before oracle.
    """
    discrepancies: list[dict] = []
    records: list[dict] = []
    roots = [c.y_star for c in cycles]
    lows = [rep.lower_crossing.y for rep in cycles]
    eps = [oracle.probe_eps(y, roots[:i] + roots[i + 1:]) for i, y in enumerate(roots)]
    ys, analytic, failure = _analytic_rows(system, ys)
    try:
        turns = oracle.return_map(system, np.array(lows), step)
        sides = oracle._side_verdicts(system, list(zip(roots, eps)), step, ys[:len(analytic)])
    except PWLError:
        for low, y, e in zip(lows, roots, eps):  # one cycle alone raises its first error
            oracle.return_map(system, low, step)
            oracle.resolve_stability(system, y, e, step)
        raise
    if failure is not None:
        raise failure
    for rep, rm, stab in zip(cycles, turns, map(oracle._class, sides[:len(cycles)])):
        rec = {
            "y_star": rep.y_star,
            "classified": rep.stability.value,
            "oracle": stab.value,
            "fixed_point_error": abs(rm.y_out - rm.y_in),
            "flight_time_error": abs(rm.flight_time - TWO_PI),
            "sigma_crossings": rm.sigma_crossings,
        }
        records.append(rec)
        for kind, failed in (("fixed_point", rec["fixed_point_error"] > tol),
                             ("flight_time", rec["flight_time_error"] > max(tol, 1e-6)),
                             ("sigma_crossings", rm.sigma_crossings != 1),
                             ("stability", stab is not rep.stability)):
            if failed:
                discrepancies.append({"kind": kind, **rec})

    max_diff = max((abs(fa - fn) for fa, fn in zip(analytic, sides[len(cycles):])), default=0.0)
    if max_diff > tol:
        discrepancies.append({"kind": "displacement", "max_abs_diff": max_diff})
    return {"cycles": records, "displacement_max_abs_diff": max_diff,
            "discrepancies": discrepancies, "passed": not discrepancies}
