"""Phase portraits as deterministic SVG.

``sample_orbit`` follows a seed orbit with the event-detecting
integrator; ``render`` draws the orbit segments it is given, the
switching curve dashed, and the given limit cycles from the closed-form
flow (720 samples per turn) so they stay crisp regardless of integrator
settings: stable cycles bold solid, unstable dashed, semi-stable
dash-dot.  Sizes and colours are the module constants below.  Identical
inputs produce byte-identical documents.

A path's pixel coordinates are computed as arrays and written by one
``core._decimal_words`` call, byte for byte as "%.3f" writes them: from
integer digits where 0 < |v|*1000 < 9999999 and v*1000 is clear of a
rounding tie, by Python's % itself for every other value.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic
from .core import DomainError, Point, PWLSystem, Zone, _ascii_words, _decimal_text, _decimal_words
from .cycles import CycleReport, StabilityClass
from .oracle import (
    Direction,
    TerminalEvent,
    TrajectorySegment,
    _forward_zone,
    integrate_in_zone,
)

CYCLE_SAMPLES_PER_TURN = 720
# Seed orbits are integrated at this step and keep every tenth state,
# one sample per 0.01 time units.
ORBIT_STEP = 1e-3
ORBIT_RECORD_STRIDE = 10

WIDTH = HEIGHT = 720
MARGIN = 40.0
BACKGROUND = "#ffffff"
AXIS_COLOR, AXIS_WIDTH = "#999999", 1.0
ORBIT_COLOR, ORBIT_WIDTH = "#4878a8", 0.8
SIGMA_COLOR, SIGMA_WIDTH, SIGMA_DASH = "#c0392b", 1.4, "6,4"
CYCLE_COLOR, CYCLE_WIDTH = "#111111", 2.4
UNSTABLE_DASH = "8,5"
SEMI_STABLE_DASH = "9,4,2,4"
# default_window pads the largest cycle radius by this factor.
WINDOW_PAD = 1.3


def _check_seed(seed: Point) -> Point:
    if seed == (0.0, 0.0):
        raise DomainError("seed must differ from the origin")
    return seed


def _check_window(window: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    x0, x1, y0, y1 = window
    if not (x0 < x1 and y0 < y1):
        raise DomainError(f"degenerate window {window!r}")
    return window


def sample_orbit(system: PWLSystem, seed: Point, turns: int) -> list[TrajectorySegment]:
    """Forward orbit through ``seed`` for the given number of revolutions.

    Every revolution of these systems lasts close to 2*pi (exactly 2*pi
    on a cycle) and visits the lower section once, so the orbit is
    followed leg by leg until a leg ends at or past turns * 2*pi.

    No output reads the crossing counters, so the legs run uncounted:
    a forward-left leg, which stops on the lower section, is decided by
    x alone and its counters read -1, while a forward-right leg, which
    stops on the switching curve, counts as always.  Times and points
    are those of a counted leg, bit for bit.
    """
    _check_seed(seed)
    if turns < 1:
        raise DomainError("turns must be >= 1")
    horizon = turns * 2.0 * math.pi * (1.0 - 1e-9)
    segments: list[TrajectorySegment] = []
    p = seed
    t0 = 0.0
    for _ in range(2 * turns + 4):
        seg = integrate_in_zone(system, _forward_zone(system, p), p, Direction.FORWARD, ORBIT_STEP,
                                record_stride=ORBIT_RECORD_STRIDE, _count_crossings=False)
        seg.times += t0  # each leg's clock starts at 0
        segments.append(seg)
        if seg.terminal_event is TerminalEvent.TIME_OUT:
            break
        p = seg.terminal_point
        t0 = seg.terminal_time
        if t0 >= horizon:
            break
    return segments


def cycle_polyline(system: PWLSystem, report: CycleReport) -> np.ndarray:
    """Closed cycle curve from the exact flow, (CYCLE_SAMPLES_PER_TURN+1, 2), endpoint repeated.

    Each half-turn is one ``analytic.flow`` call on an array of times.
    """
    half = CYCLE_SAMPLES_PER_TURN // 2
    ts = [math.pi * i / half for i in range(half)]
    pts = np.empty((2 * half + 1, 2))
    for zone, start, rows in ((Zone.LEFT, Point(0.0, report.y_star), pts[:half]),
                              (Zone.RIGHT, report.lower_crossing, pts[half:-1])):
        rows[:, 0], rows[:, 1] = analytic.flow(zone, ts, start, system.params)
    pts[-1] = (0.0, report.y_star)
    return pts


(_LINE_TO,), (_COMMA,) = _ascii_words(" L"), _ascii_words(",")


class _Canvas:
    def __init__(self, window):
        self.x0, self.x1, self.y0, self.y1 = window
        self.sx = (WIDTH - 2 * MARGIN) / (self.x1 - self.x0)
        self.sy = (HEIGHT - 2 * MARGIN) / (self.y1 - self.y0)

    def path(self, xs, ys, color: str, width: float, dash: str | None = None) -> str:
        pts = np.column_stack((MARGIN + (np.asarray(xs) - self.x0) * self.sx,
                               HEIGHT - MARGIN - (np.asarray(ys) - self.y0) * self.sy))
        words = _decimal_words(pts, "%.3f")  # (points, 2, k)
        row = np.empty(words.shape[:2] + (words.shape[2] + 1,), dtype=words.dtype)
        row[:, :, 1:], row[:, 0, 0], row[:, 1, 0] = words, _LINE_TO, _COMMA  # " Lx,y"
        coords = _decimal_text(row)
        coords = "M" + coords[2:] if coords else ""
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<path d="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="{width:g}"{dash_attr}/>')


def render(system: PWLSystem, window: tuple[float, float, float, float],
           cycles: list[CycleReport], orbits: list[TrajectorySegment]) -> str:
    """Assemble the SVG document; pure function of its inputs.

    Draws the axes, the switching curve, the given orbit segments (already
    sampled, e.g. by ``sample_orbit``) and the given cycles over the view
    ``window`` = (x0, x1, y0, y1).
    """
    x0, x1, y0, y1 = _check_window(window)
    cv = _Canvas(window)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="{BACKGROUND}"/>',
    ]

    if x0 < 0.0 < x1:
        parts.append(cv.path([0.0, 0.0], [y0, y1], AXIS_COLOR, AXIS_WIDTH))
    if y0 < 0.0 < y1:
        parts.append(cv.path([x0, x1], [0.0, 0.0], AXIS_COLOR, AXIS_WIDTH))

    if y1 > 0.0:
        ys = np.linspace(max(y0, 1e-9 * (y1 - y0)), y1, 400)
        hs = np.asarray(system.boundary.evaluate(ys), dtype=float)
        parts.append(cv.path(hs, ys, SIGMA_COLOR, SIGMA_WIDTH, SIGMA_DASH))

    for seg in orbits:
        parts.append(cv.path(seg.points[:, 0], seg.points[:, 1], ORBIT_COLOR, ORBIT_WIDTH))

    for rep in cycles:
        pts = cycle_polyline(system, rep)
        dash = None
        if rep.stability is StabilityClass.UNSTABLE:
            dash = UNSTABLE_DASH
        elif rep.stability in (StabilityClass.SEMI_STABLE_OUTER_STABLE,
                               StabilityClass.SEMI_STABLE_INNER_STABLE):
            dash = SEMI_STABLE_DASH
        parts.append(cv.path(pts[:, 0], pts[:, 1], CYCLE_COLOR, CYCLE_WIDTH, dash))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def default_window(cycles: list[CycleReport]) -> tuple[float, float, float, float]:
    """Square window sized to enclose the given cycles (or the unit box)."""
    if cycles:
        r = WINDOW_PAD * max(c.y_star for c in cycles)
    else:
        r = 1.0
    return (-r, r, -r, r)
