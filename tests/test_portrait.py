import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlcycles import (
    DomainError,
    Point,
    PWLSystem,
    SystemParams,
    TerminalEvent,
    Zone,
    find_limit_cycles,
    flow,
    make_zero,
    render,
    sample_orbit,
)
from pwlcycles import oracle, portrait
from pwlcycles.oracle import Direction
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
        # the forward-left leg runs uncounted (counters -1); it alone meets the section
        assert [s.terminal_event for s in segs].count(TerminalEvent.AXIS_CROSS) == 1
        counted = [s for s in segs if s.section_returns != -1]
        assert counted and all(s.section_returns == 0 for s in counted)

    @pytest.mark.parametrize("seed", [(0.0, 2.3), (0.0, 0.4), (0.0, 2.2), (0.0, 1.0),
                                      (0.5, -1.7), (-0.3, 0.9), (1.2, 3.1)])
    def test_uncounted_legs_equal_counted_legs_bitwise(self, sine_system, monkeypatch, seed):
        from test_oracle import _chunks_built
        built = _chunks_built(monkeypatch)
        segs = sample_orbit(sine_system, Point(*seed), 3)
        uncounted_chunks = len(built)
        stops = oracle._stops  # the same legs, counted
        monkeypatch.setattr(oracle, "_stops", lambda system, zone, direction, starts, step,
                            counted, stride: stops(system, zone, direction, starts, step, True,
                                                   stride))
        counted = sample_orbit(sine_system, Point(*seed), 3)
        assert uncounted_chunks < len(built) - uncounted_chunks
        assert len(segs) == len(counted)
        for seg, ref in zip(segs, counted):
            assert seg.zone is ref.zone and seg.terminal_event is ref.terminal_event
            assert seg.times.tobytes() == ref.times.tobytes()
            assert seg.points.tobytes() == ref.points.tobytes()
            assert seg.landing_error == ref.landing_error
            left = seg.zone is Zone.LEFT
            assert (seg.sigma_crossings, seg.section_returns) == (
                (-1, -1) if left else (ref.sigma_crossings, ref.section_returns))

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

    def test_orbit_step_rk4_cannot_take_rejected(self, monkeypatch):
        # at gamma 5000 one RK4 step of ORBIT_STEP grows the contracting zone
        monkeypatch.setattr(oracle, "_plan", lambda *a: pytest.fail("a plan was built"))
        system = PWLSystem(SystemParams(5000.0), make_zero())
        with pytest.raises(DomainError, match="^step 0.001 is too large for RK4 at gamma=5000.0"):
            sample_orbit(system, [(0.0, 1.0), (0.0, 2.0)], 1)


def _same_orbit(got, ref):
    """Two orbits' segments agree bit for bit, counters and landing errors included."""
    assert len(got) == len(ref)
    for seg, one in zip(got, ref):
        assert seg.zone is one.zone and seg.terminal_event is one.terminal_event
        assert seg.times.tobytes() == one.times.tobytes()
        assert seg.points.tobytes() == one.points.tobytes()
        assert (seg.sigma_crossings, seg.section_returns) == (one.sigma_crossings,
                                                              one.section_returns)
        assert seg.landing_error == one.landing_error


def _failing_above(system, top):
    """``system`` with a boundary that raises on any ordinate above ``top``, naming it."""
    evaluate = system.boundary.evaluate

    def failing(y):
        high = float(np.max(y))
        if high > top:
            raise DomainError(f"h fails at y={high!r}")
        return evaluate(y)

    return PWLSystem(system.params, dataclasses.replace(system.boundary, evaluate=failing))


class TestLockstepSeeds:
    """``sample_orbit`` on an array of seeds against one call per seed."""

    @pytest.mark.parametrize("name, seeds, turns", [
        # both zones, the switching curve itself (None: the point of the curve at y = 1.5)
        ("sine_system", [(0.0, 2.3), (0.0, 0.4), (-1.0, 0.2), (0.5, -1.7), None, (1.2, 3.1)], 3),
        ("sine_system", [(0.0, 2.0), (0.0, 1.5), (0.0, 0.5)], 4),  # the benchmark's seeds
        ("sine_system", [(0.0, 2.2), (0.0, 0.05)], 1),
        ("sine_system", [(0.0, 2.2)], 2),  # m = 1
        ("sine_system", [], 2),  # m = 0
        ("zero_system", [(0.0, 1.0), (-0.7, 0.3), (0.4, -0.6)], 2),
        ("oscillatory_system", [(0.0, 0.3), (0.1, -0.2), (-0.05, 0.01)], 2),
        ("cosine_system", [(0.0, 1.5), (0.0, 2.0), (-2.0, 0.5)], 3),
    ])
    def test_seeds_in_lockstep_equal_each_seed_alone(self, request, name, seeds, turns):
        system = request.getfixturevalue(name)
        seeds = [(float(system.boundary.evaluate(1.5)), 1.5) if p is None else p for p in seeds]
        orbits = sample_orbit(system, np.array(seeds).reshape(-1, 2), turns)
        assert isinstance(orbits, list) and len(orbits) == len(seeds)
        for seed, orbit in zip(seeds, orbits):
            _same_orbit(orbit, sample_orbit(system, Point(*seed), turns))

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(["sine_system", "cosine_system", "zero_system"]),
           seeds=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)).filter(
               lambda p: math.hypot(*p) > 0.05), max_size=4),
           turns=st.integers(1, 3))
    def test_any_seeds_in_lockstep_equal_each_seed_alone(self, request, name, seeds, turns):
        system = request.getfixturevalue(name)
        orbits = sample_orbit(system, np.array(seeds, dtype=float).reshape(-1, 2), turns)
        for seed, orbit in zip(seeds, orbits):
            _same_orbit(orbit, sample_orbit(system, Point(*seed), turns))

    def test_seeds_run_as_batches_of_one_zone(self, sine_system, monkeypatch):
        # the benchmark's three seeds take 27 legs in 11 batches, not 27 calls: two
        # seeds start left and one right, and after one round every orbit is in step
        from test_oracle import _legs_run
        legs = _legs_run(monkeypatch)
        batches = []
        stops = oracle._stops

        def recording(system, zone, direction, starts, *args):
            batches.append((zone, len(starts)))
            return stops(system, zone, direction, starts, *args)

        monkeypatch.setattr(oracle, "_stops", recording)
        orbits = sample_orbit(sine_system, [(0.0, 2.0), (0.0, 1.5), (0.0, 0.5)], 4)
        assert sum(map(len, orbits)) == len(legs) == 27
        left, right = Zone.LEFT, Zone.RIGHT
        assert batches == [(left, 2), (right, 3), (left, 3), (right, 3), (left, 3), (right, 3),
                           (left, 3), (right, 3), (left, 2), (right, 1), (left, 1)]
        assert {(d, step, counted) for _, d, step, counted in legs} == {
            (Direction.FORWARD, portrait.ORBIT_STEP, False)}

    def test_error_of_the_first_failing_seed(self, sine_system):
        # seed 0 spirals out and fails after five legs, seed 1 before its first
        system = _failing_above(sine_system, 1.55)
        late, early = (0.0, 1.5), (0.0, 3.0)
        assert len(sample_orbit(system, Point(*late), 2)) == 5
        errors = []
        for seed in (late, early):
            with pytest.raises(DomainError) as err:
                sample_orbit(system, Point(*seed), 3)
            errors.append(str(err.value))
        assert errors == ["h fails at y=1.5610412684427764", "h fails at y=3.0"]
        for seeds, error in (([late, early], errors[0]), ([early, late], errors[1])):
            with pytest.raises(DomainError) as err:
                sample_orbit(system, seeds, 3)
            assert str(err.value) == error

    def test_checks_in_the_order_of_calls(self, zero_system):
        # each seed's check, then the turns, then its legs, seed after seed
        origin, one = (0.0, 0.0), (0.0, 1.0)
        for seeds, turns, message in (([one, origin], 1, "seed must differ from the origin"),
                                      ([origin, one], 0, "seed must differ from the origin"),
                                      ([one, origin], 0, "turns must be >= 1"),
                                      ([], 0, "turns must be >= 1")):
            with pytest.raises(DomainError, match=message):
                sample_orbit(zero_system, np.reshape(seeds, (-1, 2)), turns)
        for shape in ((3,), (2, 3), (1, 2, 2)):
            with pytest.raises(DomainError, match="^seed must be a point or an"):
                sample_orbit(zero_system, np.ones(shape), 1)


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

    @pytest.mark.parametrize("name, lo, hi", [("sine_system", 0.1, 4.0),
                                              ("cosine_system", 0.1, 6.0),
                                              ("oscillatory_system", 0.05, 0.4)])
    def test_every_sample_is_the_flow_bitwise(self, request, name, lo, hi):
        system = request.getfixturevalue(name)
        reports = find_limit_cycles(system, lo, hi).cycles
        assert reports
        half = portrait.CYCLE_SAMPLES_PER_TURN // 2
        for rep in reports:
            pts = cycle_polyline(system, rep)
            starts = ((Zone.LEFT, Point(0.0, rep.y_star)), (Zone.RIGHT, rep.lower_crossing))
            for j, (zone, start) in enumerate(starts):
                for i in range(half):
                    ref = flow(zone, math.pi * i / half, start, system.params)
                    assert tuple(pts[j * half + i].tolist()) == ref, (rep.y_star, zone, i)
            assert pts[-1].tolist() == [0.0, rep.y_star]


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


def _path_reference(cv, xs, ys, color, width, dash=None):
    """``_Canvas.path`` written one point at a time."""
    def px(x):
        return portrait.MARGIN + (x - cv.x0) * cv.sx

    def py(y):
        return portrait.HEIGHT - portrait.MARGIN - (y - cv.y0) * cv.sy

    coords = " ".join(f"{'M' if i == 0 else 'L'}{px(x):.3f},{py(y):.3f}"
                      for i, (x, y) in enumerate(zip(xs, ys)))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<path d="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}"{dash_attr}/>')


# (window, xs, ys): pixel values on .3f rounding ties (the window (0, 640, 0, 640)
# maps x to 40 + x and y to 680 - y exactly), signed zeros, the smallest
# subnormal, huge, non-finite and Python int coordinates, and no points at all
PATH_CASES = [
    ((0.0, 640.0, 0.0, 640.0), np.array([-37.9375, -39.9995, -40.0, -40.0005, 2.0625]),
     np.array([677.9375, 680.0005, 680.0, 679.9995, 0.0625])),
    ((-1.0, 1.0, -1.0, 1.0), np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]),
     np.array([1e-300, -0.0, 5e-324, 1.0, -1.0, 0.5])),
    ((-2.6, 2.6, -2.6, 2.6), np.array([math.nan, math.inf, -math.inf, 0.0005, 1.0 / 3.0]),
     np.array([0.0, math.nan, 2.0625, -math.inf, math.inf])),
    ((-3, 3, -3, 3), [0, 0], [-3, 3]),
    ((-3, 3, -3, 3), [-3, 3], [0, 0]),
    ((-2.5, 2.5, -2.5, 2.5), [0.0, 0.0], [-2.5, 2.5]),
    ((-1.0, 1.0, -1.0, 1.0), np.zeros(0), np.zeros(0)),
]


# any coordinate whose pixel stays inside the float range, and the non-finite ones
COORD = st.floats(-1e200, 1e200) | st.sampled_from([math.nan, math.inf, -math.inf])


class TestPathFormat:
    @pytest.mark.parametrize("window, xs, ys", PATH_CASES)
    @pytest.mark.parametrize("dash", [None, portrait.SIGMA_DASH])
    def test_path_matches_per_point_reference(self, window, xs, ys, dash):
        cv = portrait._Canvas(window)
        got = cv.path(xs, ys, portrait.ORBIT_COLOR, portrait.ORBIT_WIDTH, dash)
        assert got == _path_reference(cv, xs, ys, portrait.ORBIT_COLOR,
                                      portrait.ORBIT_WIDTH, dash)

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.tuples(COORD, COORD), max_size=30),
           corner=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
           size=st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)))
    def test_path_matches_reference_on_any_floats(self, points, corner, size):
        window = (corner[0], corner[0] + size[0], corner[1], corner[1] + size[1])
        cv = portrait._Canvas(window)
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        assert cv.path(xs, ys, "#000", 1.0) == _path_reference(cv, xs, ys, "#000", 1.0)

    def test_paths_split_as_each_line_alone(self):
        # empty lines first, between and last, one-point lines, and the tie cases
        cv = portrait._Canvas((-2.6, 2.6, -2.6, 2.6))
        _, xs, ys = PATH_CASES[2]
        lines = [(np.zeros(0), np.zeros(0), "#000", 1.0, None), ([0.5], [-0.5], "#111", 2.0, None),
                 (xs, ys, "#222", 0.8, portrait.SIGMA_DASH), ([], [], "#333", 1.0, "1,1"),
                 ([1.0, -1.0], [2.0, 0.0], "#444", 1.4, None), ([], [], "#555", 1.0, None)]
        assert cv.paths(lines) == [_path_reference(cv, *line) for line in lines]
        assert cv.paths([]) == []

    def test_render_matches_per_point_reference(self, sine_system, monkeypatch):
        cycles = find_limit_cycles(sine_system, 0.1, 4.0).cycles
        orbits = [seg for orbit in sample_orbit(sine_system, [(0.0, 2.3), (0.0, 0.4)], 2)
                  for seg in orbit]
        window = default_window(cycles)
        svg = render(sine_system, window, cycles, orbits)
        paths = portrait._Canvas.paths
        monkeypatch.setattr(portrait._Canvas, "paths",
                            lambda cv, lines: [_path_reference(cv, *line) for line in lines])
        assert svg == render(sine_system, window, cycles, orbits)

        def split_one_late(cv, lines):  # the same coordinates, each path border a point late
            xs, ys = (np.concatenate([np.asarray(line[j], dtype=float) for line in lines])
                      for j in (0, 1))
            ends = np.cumsum([len(line[0]) for line in lines]) + 1
            ends[-1] = len(xs)
            return paths(cv, [(xs[lo:hi], ys[lo:hi], *line[2:])
                              for lo, hi, line in zip([0, *ends[:-1]], ends, lines)])

        monkeypatch.setattr(portrait._Canvas, "paths", split_one_late)
        assert svg != render(sine_system, window, cycles, orbits)
