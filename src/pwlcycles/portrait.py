"""Phase portraits as deterministic SVG.

Orbits come from the event-detecting integrator, the switching curve is
drawn dashed, and limit cycles are drawn from the closed-form flow (720
samples per turn) so they stay crisp regardless of integrator settings:
stable cycles bold solid, unstable dashed, semi-stable dash-dot.
Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import flow
from .core import DomainError, Point, PWLSystem, Zone, manifold_value, vector_field
from .cycles import CycleReport, StabilityClass
from .oracle import (
    Direction,
    IntegrationOptions,
    TerminalEvent,
    TrajectorySegment,
    integrate_in_zone,
)

CYCLE_SAMPLES_PER_TURN = 720
# Seed orbits are integrated at this step and keep every tenth state,
# one sample per 0.01 time units.
ORBIT_STEP = 1e-3
ORBIT_RECORD_STRIDE = 10


@dataclass(frozen=True)
class PortraitStyle:
    width: int = 720
    height: int = 720
    margin: float = 40.0
    background: str = "#ffffff"
    axis_color: str = "#999999"
    axis_width: float = 1.0
    orbit_color: str = "#4878a8"
    orbit_width: float = 0.8
    sigma_color: str = "#c0392b"
    sigma_width: float = 1.4
    sigma_dash: str = "6,4"
    cycle_color: str = "#111111"
    cycle_width: float = 2.4
    unstable_dash: str = "8,5"
    semi_stable_dash: str = "9,4,2,4"


@dataclass
class PortraitSpec:
    """What to draw: view window, orbit seeds, and cycle overlay toggle."""

    window: tuple[float, float, float, float]
    seed_points: list[Point] = field(default_factory=list)
    turns: int = 3
    include_cycles: bool = True
    style: PortraitStyle = field(default_factory=PortraitStyle)

    def __post_init__(self):
        x0, x1, y0, y1 = self.window
        if not (x0 < x1 and y0 < y1):
            raise DomainError(f"degenerate window {self.window!r}")
        if self.turns < 1:
            raise DomainError("turns must be >= 1")


def _zone_at(system: PWLSystem, p: Point) -> Zone:
    """Zone the forward orbit through p moves into (handles boundary points)."""
    hv = manifold_value(system, p)
    if hv > 1e-12:
        return Zone.RIGHT
    if hv < -1e-12:
        return Zone.LEFT
    vel = vector_field(system, p)
    if p.y > 0.0:
        grad = (1.0, -float(system.boundary.derivative(p.y)))
    else:
        grad = (1.0, 0.0)
    dhdt = grad[0] * vel.x + grad[1] * vel.y
    return Zone.LEFT if dhdt < 0.0 else Zone.RIGHT


def sample_orbit(system: PWLSystem, seed: Point, turns: int) -> list[TrajectorySegment]:
    """Forward orbit through ``seed`` for the given number of revolutions.

    Every revolution of these systems lasts close to 2*pi (exactly 2*pi
    on a cycle) and visits the lower section once, so the orbit is
    followed leg by leg until a leg ends at or past turns * 2*pi.
    """
    if seed == (0.0, 0.0):
        raise DomainError("seed must differ from the origin")
    if turns < 1:
        raise DomainError("turns must be >= 1")
    opts = IntegrationOptions(step=ORBIT_STEP)

    horizon = turns * 2.0 * math.pi * (1.0 - 1e-9)
    segments: list[TrajectorySegment] = []
    p = seed
    t0 = 0.0
    for _ in range(2 * turns + 4):
        seg = integrate_in_zone(system, _zone_at(system, p), p, Direction.FORWARD, opts,
                                record_stride=ORBIT_RECORD_STRIDE, t0=t0)
        segments.append(seg)
        if seg.terminal_event is TerminalEvent.TIME_OUT:
            break
        p = seg.terminal_point
        t0 = seg.terminal_time
        if t0 >= horizon:
            break
    return segments


def cycle_polyline(system: PWLSystem, report: CycleReport,
                   samples: int = CYCLE_SAMPLES_PER_TURN) -> np.ndarray:
    """Closed cycle curve from the exact flow, (samples+1, 2), endpoint repeated."""
    half = samples // 2
    pts = np.empty((2 * half + 1, 2))
    upper = Point(0.0, report.y_star)
    lower = report.lower_crossing
    for i in range(half):
        t = math.pi * i / half
        pts[i] = flow(Zone.LEFT, t, upper, system.params)
    for i in range(half):
        t = math.pi * i / half
        pts[half + i] = flow(Zone.RIGHT, t, lower, system.params)
    pts[-1] = upper
    return pts


class _Canvas:
    def __init__(self, style: PortraitStyle, window):
        self.s = style
        self.x0, self.x1, self.y0, self.y1 = window
        self.sx = (style.width - 2 * style.margin) / (self.x1 - self.x0)
        self.sy = (style.height - 2 * style.margin) / (self.y1 - self.y0)

    def px(self, x: float) -> float:
        return self.s.margin + (x - self.x0) * self.sx

    def py(self, y: float) -> float:
        return self.s.height - self.s.margin - (y - self.y0) * self.sy

    def path(self, xs, ys, color: str, width: float, dash: str | None = None) -> str:
        coords = " ".join(
            f"{'M' if i == 0 else 'L'}{self.px(x):.3f},{self.py(y):.3f}"
            for i, (x, y) in enumerate(zip(xs, ys))
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<path d="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="{width:g}"{dash_attr}/>')


def render(system: PWLSystem, spec: PortraitSpec, cycles: list[CycleReport],
           orbits: list[TrajectorySegment] | None = None) -> str:
    """Assemble the SVG document; pure function of its inputs.

    ``orbits`` holds the already sampled segments of the seed orbits, in
    seed order; without it every seed of ``spec`` is sampled here.
    """
    st = spec.style
    cv = _Canvas(st, spec.window)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{st.width}" height="{st.height}" '
        f'viewBox="0 0 {st.width} {st.height}">',
        f'<rect width="{st.width}" height="{st.height}" fill="{st.background}"/>',
    ]

    x0, x1, y0, y1 = spec.window
    if x0 < 0.0 < x1:
        parts.append(cv.path([0.0, 0.0], [y0, y1], st.axis_color, st.axis_width))
    if y0 < 0.0 < y1:
        parts.append(cv.path([x0, x1], [0.0, 0.0], st.axis_color, st.axis_width))

    if y1 > 0.0:
        ys = np.linspace(max(y0, 1e-9 * (y1 - y0)), y1, 400)
        hs = np.asarray(system.boundary.evaluate(ys), dtype=float)
        parts.append(cv.path(hs, ys, st.sigma_color, st.sigma_width, st.sigma_dash))

    if orbits is None:
        orbits = [seg for seed in spec.seed_points
                  for seg in sample_orbit(system, seed, spec.turns)]
    for seg in orbits:
        parts.append(cv.path(seg.points[:, 0], seg.points[:, 1],
                             st.orbit_color, st.orbit_width))

    if spec.include_cycles:
        for rep in cycles:
            pts = cycle_polyline(system, rep)
            dash = None
            if rep.stability is StabilityClass.UNSTABLE:
                dash = st.unstable_dash
            elif rep.stability in (StabilityClass.SEMI_STABLE_OUTER_STABLE,
                                   StabilityClass.SEMI_STABLE_INNER_STABLE):
                dash = st.semi_stable_dash
            parts.append(cv.path(pts[:, 0], pts[:, 1], st.cycle_color,
                                 st.cycle_width, dash))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def default_window(cycles: list[CycleReport], pad: float = 1.3) -> tuple[float, float, float, float]:
    """Square window sized to enclose the given cycles (or the unit box)."""
    if cycles:
        r = pad * max(c.y_star for c in cycles)
    else:
        r = 1.0
    return (-r, r, -r, r)
