import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pwlcycles import (
    DomainError,
    Point,
    TerminalEvent,
    find_limit_cycles,
    render,
    sample_orbit,
)
from pwlcycles import portrait
from pwlcycles.portrait import cycle_polyline, default_window

EXP_M_075PI = 0.09478022484215486


def svg_paths(svg: str):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return root.findall(f"{ns}path")


class TestSampleOrbit:
    def test_center_orbit_closes(self, zero_system):
        segs = sample_orbit(zero_system, Point(0.0, 1.0), 1)
        end = segs[-1].terminal_point
        assert math.hypot(end.x - 0.0, end.y - 1.0) < 1e-6
        assert sum(s.section_returns for s in segs) == 1

    def test_spiral_approaches_stable_cycle(self, sine_system):
        segs = sample_orbit(sine_system, Point(0.0, 2.2), 5)
        returns = [s.terminal_point.y for s in segs
                   if s.terminal_event is TerminalEvent.AXIS_CROSS]
        # revolutions off the cycle run slightly under 2*pi, so the time
        # horizon can admit one extra section return
        assert len(returns) in (5, 6)
        target = -2.0 * EXP_M_075PI
        gaps = [abs(r - target) for r in returns]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_inner_seed_spirals_to_origin(self, sine_system):
        segs = sample_orbit(sine_system, Point(0.0, 0.3), 4)
        returns = [abs(s.terminal_point.y) for s in segs
                   if s.terminal_event is TerminalEvent.AXIS_CROSS]
        assert all(b < a for a, b in zip(returns, returns[1:]))

    def test_origin_seed_rejected(self, zero_system):
        with pytest.raises(DomainError):
            sample_orbit(zero_system, Point(0.0, 0.0), 1)

    def test_turns_below_one_rejected(self, zero_system):
        with pytest.raises(DomainError):
            sample_orbit(zero_system, Point(0.0, 1.0), 0)


class TestCyclePolyline:
    def test_closed_to_tolerance(self, sine_system):
        rep = find_limit_cycles(sine_system, 0.1, 4.0).cycles[1]
        pts = cycle_polyline(sine_system, rep)
        assert pts.shape[0] == 721
        gap = np.hypot(*(pts[-1] - pts[-2]))
        assert np.hypot(*(pts[-1] - pts[0])) == 0.0  # endpoint repeated exactly
        # the two half-turn joints close to tolerance
        assert np.max(np.abs(pts[0] - [0.0, rep.y_star])) == 0.0
        joint = pts[360]
        assert abs(joint[0]) < 1e-6 and abs(joint[1] - rep.lower_crossing.y) < 1e-6
        assert gap < 0.1  # consecutive samples stay dense


class TestRender:
    def test_deterministic(self, sine_system):
        cycles = find_limit_cycles(sine_system, 0.1, 4.0).cycles
        orbits = sample_orbit(sine_system, Point(0.0, 2.2), 2)
        window = (-2.5, 2.5, -2.5, 2.5)
        a = render(sine_system, window, cycles, orbits)
        b = render(sine_system, window, cycles, orbits)
        assert a == b
        drawn = [p for p in svg_paths(a) if p.get("stroke") == portrait.ORBIT_COLOR]
        assert len(drawn) == len(orbits)

    def test_structure_with_cycles(self, sine_system):
        cycles = find_limit_cycles(sine_system, 0.1, 4.0).cycles
        svg = render(sine_system, (-2.5, 2.5, -2.5, 2.5), cycles, [])
        paths = svg_paths(svg)
        dashed_sigma = [p for p in paths if p.get("stroke-dasharray") == portrait.SIGMA_DASH
                        and p.get("stroke") == portrait.SIGMA_COLOR]
        assert len(dashed_sigma) == 1
        bold = [p for p in paths if p.get("stroke-width") == f"{portrait.CYCLE_WIDTH:g}"]
        assert len(bold) == 2  # one stable, one unstable cycle
        dashed_cycles = [p for p in bold if p.get("stroke-dasharray") == portrait.UNSTABLE_DASH]
        solid_cycles = [p for p in bold if p.get("stroke-dasharray") is None]
        assert len(dashed_cycles) == 1 and len(solid_cycles) == 1

    def test_empty_spec_axes_and_sigma_only(self, sine_system):
        svg = render(sine_system, (-1.0, 1.0, -1.0, 1.0), [], [])
        paths = svg_paths(svg)
        axes = [p for p in paths if p.get("stroke") == portrait.AXIS_COLOR]
        sigma = [p for p in paths if p.get("stroke") == portrait.SIGMA_COLOR]
        assert len(axes) == 2 and len(sigma) == 1
        assert len(paths) == 3

    def test_semi_stable_dash_pattern(self, cosine_system):
        cycles = find_limit_cycles(cosine_system, 0.1, 6.0).cycles
        svg = render(cosine_system, (-5.0, 5.0, -5.0, 5.0), cycles, [])
        semi = [p for p in svg_paths(svg)
                if p.get("stroke-dasharray") == portrait.SEMI_STABLE_DASH]
        assert len(semi) == 2

    def test_window_validation(self, sine_system):
        for window in ((1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 2.0, -2.0)):
            with pytest.raises(DomainError):
                render(sine_system, window, [], [])

    def test_default_window(self, sine_system):
        cycles = find_limit_cycles(sine_system, 0.1, 4.0).cycles
        x0, x1, y0, y1 = default_window(cycles)
        assert x1 == pytest.approx(1.3 * 2.0, rel=1e-9)
        assert (x0, y0, y1) == (-x1, -x1, x1)
        assert default_window([]) == (-1.0, 1.0, -1.0, 1.0)
