"""Phase portraits as deterministic SVG.

``sample_orbit`` follows seed orbits with the event-detecting integrator,
the legs of all seeds in lockstep; ``render`` draws the orbit segments it
is given, the switching curve dashed, and the given limit cycles from the
closed-form flow (720 samples per turn) so they stay crisp regardless of
integrator settings: stable cycles bold solid, unstable dashed,
semi-stable dash-dot.  Sizes and colours are the module constants below.
Identical inputs produce byte-identical documents.

The pixel coordinates of all of a document's paths are computed as one
array and written by one ``core._decimal_words`` call, byte for byte as
"%.3f" writes them: from integer digits where 0 < |v|*1000 < 9999999 and
v*1000 is clear of a rounding tie, by Python's % itself for every other
value.  The text is then split into one path per line drawn.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, oracle
from .core import (DomainError, Point, PWLError, PWLSystem, Zone, _ascii_words, _decimal_text,
                   _decimal_words)
from .cycles import CycleReport, StabilityClass
from .oracle import Direction, TerminalEvent, TrajectorySegment, _forward_zone

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


def sample_orbit(system: PWLSystem, seed, turns: int) -> list:
    """Forward orbits through ``seed`` for the given number of revolutions.

    ``seed`` is one point, which gives its list of ``TrajectorySegment``s,
    or an (m, 2) array-like of points, which gives one such list per seed;
    one point is a batch of one.  Every revolution of these systems lasts
    close to 2*pi (exactly 2*pi on a cycle) and visits the lower section
    once, so each orbit is followed leg by leg until a leg ends at or past
    turns * 2*pi, a leg times out, or the orbit has 2*turns + 4 legs.

    The seeds' legs run in lockstep: each round runs every pending leg of
    the zone with the most pending legs (ties go left) as one
    ``oracle._stops`` batch, and each leg that ends queues its orbit's next
    leg in the zone the orbit enters.  A leg has the same bits in any batch,
    so each orbit has the bits of sampling its seed alone.  A failure raises
    the error of the first failing seed, as calls in order would: its check,
    then its legs.

    No output reads the crossing counters, so the legs run uncounted:
    a forward-left leg, which stops on the lower section, is decided by
    x alone and its counters read -1, while a forward-right leg, which
    stops on the switching curve, counts as always.  Times and points
    are those of a counted leg, bit for bit.
    """
    arr = np.asarray(seed, dtype=float)
    if arr.shape != (2,) and not (arr.ndim == 2 and arr.shape[1] == 2):
        raise DomainError(f"seed must be a point or an (m, 2) array of points, got shape "
                          f"{arr.shape}")
    seeds = [Point(*p) for p in arr.reshape(-1, 2).tolist()]
    bad = next((i for i, p in enumerate(seeds) if p == (0.0, 0.0)), len(seeds))
    if seeds and bad == 0:
        _check_seed(seeds[0])
    if turns < 1:
        raise DomainError("turns must be >= 1")
    oracle._check_step(system.params, ORBIT_STEP)
    horizon = turns * 2.0 * math.pi * (1.0 - 1e-9)
    orbits: list[list] = [[] for _ in seeds]
    failed: dict[int, PWLError] = {}
    pending: dict[Zone, list] = {Zone.LEFT: [], Zone.RIGHT: []}  # (orbit, start, clock) per leg

    def queue(i: int, p: Point, t0: float) -> None:
        try:
            pending[_forward_zone(system, p)].append((i, p, t0))
        except PWLError as exc:
            failed[i] = exc

    for i in range(bad):
        queue(i, seeds[i], 0.0)
    while pending[Zone.LEFT] or pending[Zone.RIGHT]:
        zone = Zone.LEFT if len(pending[Zone.LEFT]) >= len(pending[Zone.RIGHT]) else Zone.RIGHT
        batch, pending[zone] = pending[zone], []
        legs = oracle._stops(system, zone, Direction.FORWARD, [p for _, p, _ in batch],
                             ORBIT_STEP, False, ORBIT_RECORD_STRIDE)
        for (i, _, t0), leg in zip(batch, legs):
            if isinstance(leg, PWLError):
                failed[i] = leg
                continue
            seg = leg.segment(zone)
            seg.times += t0  # each leg's clock starts at 0
            orbits[i].append(seg)
            if (seg.terminal_event is not TerminalEvent.TIME_OUT
                    and seg.terminal_time < horizon and len(orbits[i]) < 2 * turns + 4):
                queue(i, seg.terminal_point, seg.terminal_time)
    if failed:
        raise failed[min(failed)]
    if bad < len(seeds):
        _check_seed(seeds[bad])
    return orbits if arr.ndim == 2 else orbits[0]


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


# " L" leads each row of a path and "\nM" the first, so the text splits into paths at "\n"
(_LINE_TO,), (_MOVE_TO,), (_COMMA,) = _ascii_words(" L"), _ascii_words("\nM"), _ascii_words(",")


class _Canvas:
    def __init__(self, window):
        self.x0, self.x1, self.y0, self.y1 = window
        self.sx = (WIDTH - 2 * MARGIN) / (self.x1 - self.x0)
        self.sy = (HEIGHT - 2 * MARGIN) / (self.y1 - self.y0)

    def paths(self, lines: list) -> list[str]:
        """The ``<path>`` element of each line (xs, ys, color, width, dash), in order.

        The pixel coordinates of all the lines are one array, written by one
        ``_decimal_words`` call; the text is then split per line.
        """
        if not lines:
            return []
        xs, ys = (np.concatenate([np.asarray(line[j], dtype=float) for line in lines])
                  for j in (0, 1))
        pts = np.column_stack((MARGIN + (xs - self.x0) * self.sx,
                               HEIGHT - MARGIN - (ys - self.y0) * self.sy))
        words = _decimal_words(pts, "%.3f")  # (points, 2, k)
        row = np.empty(words.shape[:2] + (words.shape[2] + 1,), dtype=words.dtype)
        row[:, :, 1:], row[:, 0, 0], row[:, 1, 0] = words, _LINE_TO, _COMMA  # " Lx,y"
        sizes = np.array([len(line[0]) for line in lines])
        row[(np.cumsum(sizes) - sizes)[sizes > 0], 0, 0] = _MOVE_TO
        coords = iter(_decimal_text(row).split("\n")[1:])
        out = []
        for n, (_, _, color, width, dash) in zip(sizes.tolist(), lines):
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(f'<path d="{next(coords) if n else ""}" fill="none" stroke="{color}" '
                       f'stroke-width="{width:g}"{dash_attr}/>')
        return out

    def path(self, xs, ys, color: str, width: float, dash: str | None = None) -> str:
        """The ``<path>`` element of one line: ``paths`` of a list of one."""
        return self.paths([(xs, ys, color, width, dash)])[0]


def render(system: PWLSystem, window: tuple[float, float, float, float],
           cycles: list[CycleReport], orbits: list[TrajectorySegment]) -> str:
    """Assemble the SVG document; pure function of its inputs.

    Draws the axes, the switching curve, the given orbit segments (already
    sampled, e.g. by ``sample_orbit``) and the given cycles over the view
    ``window`` = (x0, x1, y0, y1), every path through one ``_Canvas.paths``.
    """
    x0, x1, y0, y1 = _check_window(window)
    lines = []  # (xs, ys, color, width, dash)
    if x0 < 0.0 < x1:
        lines.append(([0.0, 0.0], [y0, y1], AXIS_COLOR, AXIS_WIDTH, None))
    if y0 < 0.0 < y1:
        lines.append(([x0, x1], [0.0, 0.0], AXIS_COLOR, AXIS_WIDTH, None))

    if y1 > 0.0:
        ys = np.linspace(max(y0, 1e-9 * (y1 - y0)), y1, 400)
        hs = np.asarray(system.boundary.evaluate(ys), dtype=float)
        lines.append((hs, ys, SIGMA_COLOR, SIGMA_WIDTH, SIGMA_DASH))

    for seg in orbits:
        lines.append((seg.points[:, 0], seg.points[:, 1], ORBIT_COLOR, ORBIT_WIDTH, None))

    for rep in cycles:
        pts = cycle_polyline(system, rep)
        dash = None
        if rep.stability is StabilityClass.UNSTABLE:
            dash = UNSTABLE_DASH
        elif rep.stability in (StabilityClass.SEMI_STABLE_OUTER_STABLE,
                               StabilityClass.SEMI_STABLE_INNER_STABLE):
            dash = SEMI_STABLE_DASH
        lines.append((pts[:, 0], pts[:, 1], CYCLE_COLOR, CYCLE_WIDTH, dash))

    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="{BACKGROUND}"/>',
        *_Canvas(window).paths(lines), "</svg>"]) + "\n"


def default_window(cycles: list[CycleReport]) -> tuple[float, float, float, float]:
    """Square window sized to enclose the given cycles (or the unit box)."""
    if cycles:
        r = WINDOW_PAD * max(c.y_star for c in cycles)
    else:
        r = 1.0
    return (-r, r, -r, r)
