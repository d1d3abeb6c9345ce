import ast
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlcycles import (
    Boundary,
    DomainError,
    IntegrationError,
    Point,
    PWLError,
    PWLSystem,
    StabilityClass,
    SystemParams,
    TangencyError,
    TerminalEvent,
    Zone,
    displacement,
    families,
    flow,
    integrate_in_zone,
    numeric_displacement,
    reports_for_roots,
    resolve_stability,
    return_map,
)
from pwlcycles import oracle as orc
from pwlcycles.oracle import (
    Direction,
    _plan,
    _propagate_states,
    _step_transfer,
    probe_eps,
    upper_to_lower,
    propagate_fixed,
    segments_to_csv,
)

EXP_M_075PI = 0.09478022484215486


class TestStepper:
    def test_transfer_matches_taylor(self, params075):
        from pwlcycles.core import zone_matrix
        a = zone_matrix(params075, Zone.LEFT)
        s = 1e-3
        m = a * s
        expected = (np.eye(2) + m + m @ m / 2 + m @ m @ m / 6 + m @ m @ m @ m / 24)
        np.testing.assert_allclose(_step_transfer(a, s), expected, rtol=0, atol=1e-18)

    def test_block_propagation_equals_stepping(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            params = SystemParams(rng.uniform(0.1, 2.0))
            # the right zone's matrix, negated on a backward leg
            forward = rng.choice([-1.0, 1.0]) > 0.0
            step = 10 ** rng.uniform(-4.0, -1.5)
            x0 = rng.uniform(-2, 2, size=2)
            n = int(rng.integers(50, 400))
            plan = _plan(params, Zone.RIGHT, forward, step, n)
            states = _propagate_states(plan, x0, n)
            x = x0.copy()
            for _ in range(n):
                x = plan.transfer @ x
            np.testing.assert_allclose(states[-1], x, rtol=0, atol=1e-11)

    def test_power_table_chunk_equals_direct_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            params = SystemParams(rng.uniform(0.1, 2.0))
            forward = rng.choice([-1.0, 1.0]) > 0.0
            step = 10 ** rng.uniform(-4.0, -1.5)
            x0 = rng.uniform(-2, 2, size=2)
            n = int(rng.integers(50, 400))
            t = _plan(params, Zone.RIGHT, forward, step, n).transfer
            # reference: every state from its own exp(k log lam), through the complex outer product
            tr, diag = t[0, 0] + t[1, 1], t[0, 0] - t[1, 1]
            lam = complex(0.5 * tr, 0.5 * math.sqrt(-(diag * diag + 4.0 * t[0, 1] * t[1, 0])))
            v = np.array([t[0, 1], lam - t[0, 0]], dtype=complex)
            vc = np.conj(v)
            coef = (x0[0] * vc[1] - x0[1] * vc[0]) / (v[0] * vc[1] - v[1] * vc[0])
            ref = 2.0 * np.real(np.outer(coef * np.exp(np.arange(n + 1) * np.log(lam)), v))
            ref[0] = x0
            # a plan whose table is longer than the n states asked for gives the same bits
            for chunk in (n, n + int(rng.integers(1, 100))):
                plan = _plan(params, Zone.RIGHT, forward, step, chunk)
                np.testing.assert_array_equal(_propagate_states(plan, x0, n), ref)

    def test_plan_is_shared_and_read_only(self, params075):
        plan = _plan(params075, Zone.LEFT, True, 1e-3, 500)
        assert _plan(SystemParams(0.75), Zone.LEFT, True, 1e-3, 500) is plan
        assert _plan(params075, Zone.LEFT, False, 1e-3, 500) is not plan
        assert len(plan.powers) == 501
        for a in (plan.matrix, plan.transfer, plan.powers, plan.v, plan.vc):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[1] = 0.0

    def test_real_spectrum_plan_steps_plainly(self, sine_system, monkeypatch):
        # a discriminant that rounds to >= 0 leaves the plan without a table
        ref = integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2), step=1e-3,
                                record_stride=0)
        plan = orc._plan

        def real(*args):
            full = plan(*args)
            return orc._Plan(full.matrix, full.transfer)

        monkeypatch.setattr(orc, "_plan", real)
        seg = integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2), step=1e-3,
                                record_stride=0)
        assert seg.terminal_event is ref.terminal_event
        assert seg.terminal_time == pytest.approx(ref.terminal_time, abs=1e-12)
        np.testing.assert_allclose(seg.points, ref.points, rtol=0, atol=1e-12)

    def test_propagate_fixed_matches_flow(self, zero_system, params075):
        for zone in Zone:
            for t in (0.17, 1.0, 2.9):
                got = propagate_fixed(zero_system, zone, Point(0.4, -0.6), t, step=5e-4)
                ref = flow(zone, t, Point(0.4, -0.6), params075)
                assert abs(got.x - ref.x) < 1e-10 and abs(got.y - ref.y) < 1e-10

    def test_backward_inverts_forward(self, zero_system):
        p = Point(0.3, 0.8)
        fwd = propagate_fixed(zero_system, Zone.RIGHT, p, 1.3, step=1e-3)
        back = propagate_fixed(zero_system, Zone.RIGHT, fwd, 1.3,
                               direction=Direction.BACKWARD, step=1e-3)
        assert abs(back.x - p.x) < 1e-9 and abs(back.y - p.y) < 1e-9


class TestIntegrateInZone:
    def test_reference_half_turn(self, zero_system):
        seg = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0), record_stride=0)
        assert seg.terminal_event is TerminalEvent.AXIS_CROSS
        assert abs(seg.terminal_point.x) < 1e-11
        assert seg.terminal_point.y == pytest.approx(-EXP_M_075PI, abs=1e-8)
        assert seg.terminal_time == pytest.approx(math.pi, abs=1e-8)

    def test_terminal_lands_on_switching_curve(self, sine_system):
        seg = integrate_in_zone(sine_system, Zone.RIGHT, Point(0.0, -1.0), record_stride=0)
        assert seg.terminal_event is TerminalEvent.BOUNDARY_CROSS
        p = seg.terminal_point
        assert p.y > 0.0
        assert abs(p.x - float(sine_system.boundary.evaluate(p.y))) < 1e-10
        ref = flow(Zone.RIGHT, seg.terminal_time, Point(0.0, -1.0), sine_system.params)
        assert abs(p.x - ref.x) < 1e-8 and abs(p.y - ref.y) < 1e-8

    @pytest.mark.parametrize("zone, direction, event", [
        (Zone.LEFT, Direction.FORWARD, TerminalEvent.AXIS_CROSS),
        (Zone.RIGHT, Direction.BACKWARD, TerminalEvent.AXIS_CROSS),
        (Zone.RIGHT, Direction.FORWARD, TerminalEvent.BOUNDARY_CROSS),
        (Zone.LEFT, Direction.BACKWARD, TerminalEvent.BOUNDARY_CROSS),
    ])
    def test_zone_and_direction_pick_the_exit(self, sine_system, zone, direction, event):
        h = sine_system.boundary.evaluate
        # section exits start on the switching curve, curve exits on the section
        axis = event is TerminalEvent.AXIS_CROSS
        start = Point(float(h(1.5)), 1.5) if axis else Point(0.0, -1.0)
        seg = integrate_in_zone(sine_system, zone, start, direction, 1e-3, record_stride=0)
        p = seg.terminal_point
        assert seg.terminal_event is event
        if axis:
            assert abs(p.x) <= orc.EVENT_TOL and p.y < 0.0
        else:
            assert abs(p.x - float(h(p.y))) <= orc.EVENT_TOL and p.y > 0.0
        # the exit is counted as the crossing the forward orbit makes there
        assert (seg.sigma_crossings, seg.section_returns) == ((0, 1) if axis else (1, 0))

    def test_origin_times_out(self, zero_system):
        with mock.patch.object(orc, "MAX_TIME", 1.0):
            seg = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 0.0),
                                    step=1e-3, record_stride=0)
        assert seg.terminal_event is TerminalEvent.TIME_OUT
        assert seg.terminal_point == Point(0.0, 0.0)

    def test_tangent_start_rejected(self):
        # constant boundary touched where the right field runs parallel to it
        gamma = 0.75
        c = 0.5
        b = Boundary(
            evaluate=lambda y: np.full_like(np.asarray(y, dtype=float), c),
            derivative=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        )
        system = PWLSystem(SystemParams(gamma), b)
        start = Point(c, 2.0 * gamma * c)
        with pytest.raises(TangencyError):
            integrate_in_zone(system, Zone.RIGHT, start, record_stride=0)

    def test_interior_states_stay_in_zone(self, sine_system):
        from pwlcycles.core import manifold_values
        seg = integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2),
                                step=1e-3, record_stride=1)
        inner = manifold_values(sine_system, seg.points[1:-1])
        assert np.all(inner < 1e-12)

    def test_record_stride_thins_samples(self, zero_system):
        dense = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0),
                                  step=1e-3, record_stride=1)
        thin = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0),
                                 step=1e-3, record_stride=50)
        ends = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0),
                                 step=1e-3, record_stride=0)
        assert len(dense.times) > len(thin.times) > len(ends.times) == 2
        assert dense.terminal_point == thin.terminal_point == ends.terminal_point
        assert np.all(np.diff(dense.times) > 0)

    def test_block_boundaries_do_not_matter(self, zero_system, monkeypatch):
        ref = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0), record_stride=0)
        monkeypatch.setattr(orc, "_BLOCK_TIME", 0.37)
        chopped = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0), record_stride=0)
        assert chopped.terminal_time == pytest.approx(ref.terminal_time, abs=1e-12)
        assert chopped.terminal_point.y == pytest.approx(ref.terminal_point.y, abs=1e-12)

    def test_stride_zero_keeps_only_endpoints_across_chunks(self, zero_system, monkeypatch):
        monkeypatch.setattr(orc, "_BLOCK_TIME", 0.37)
        seg = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0),
                                step=1e-3, record_stride=0)
        assert seg.terminal_time > 8 * 0.37
        assert len(seg.times) == 2
        assert seg.times[0] == 0.0 and seg.points[0].tolist() == [0.0, 1.0]

    def test_sample_times_do_not_depend_on_chunk_length(self, sine_system, monkeypatch):
        step = 1e-3

        def leg():
            return integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2),
                                     step=step, record_stride=7)

        ref = leg()
        monkeypatch.setattr(orc, "_BLOCK_TIME", 0.37)
        chopped = leg()
        np.testing.assert_array_equal(chopped.times[:-1], ref.times[:-1])
        steps = np.rint(ref.times[:-1] / step)
        assert np.all(steps % 7 == 0) and np.all(np.diff(steps) == 7)
        assert chopped.terminal_time == pytest.approx(ref.terminal_time, abs=1e-12)
        np.testing.assert_allclose(chopped.points, ref.points, rtol=0, atol=1e-12)


class TestEventLanding:
    def test_axis_landing_matches_quartic_root(self, zero_system):
        from pwlcycles.core import zone_matrix
        a = mpmath.matrix(zone_matrix(zero_system.params, Zone.LEFT).tolist())
        for step, y0 in ((1e-3, 1.0), (1e-3, 2.5), (1e-4, 0.3)):
            seg = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, y0),
                                    step=step, record_stride=1)
            # the last recorded interior sample starts the substep the event lies in
            tau = seg.times[-1] - seg.times[-2]
            with mpmath.workdps(30):
                c = [mpmath.matrix(seg.points[-2].tolist())]
                for k in range(1, 5):
                    c.append(a * c[-1] / k)
                coeffs = [c[k][0] for k in (4, 3, 2, 1, 0)]
                root = min(mpmath.polyroots(coeffs, maxsteps=200, extraprec=60),
                           key=lambda r: abs(r - tau))
                slope = abs(sum(k * c[k][0] * root ** (k - 1) for k in range(1, 5)))
                assert abs(mpmath.im(root)) < 1e-25
                assert 0.0 < float(mpmath.re(root)) <= step
                assert abs(tau - float(mpmath.re(root))) <= orc.EVENT_TOL / float(slope)

    def test_manifold_landing_on_switching_curve(self, sine_system):
        for step in (1e-3, 1e-4):
            for y_in in (-0.3, -1.0, -2.2):
                seg = integrate_in_zone(sine_system, Zone.RIGHT, Point(0.0, y_in),
                                        step=step, record_stride=0)
                p = seg.terminal_point
                assert abs(p.x - float(sine_system.boundary.evaluate(p.y))) <= 1e-12

    def test_landing_error_comes_from_the_residual_reached(self, sine_system):
        from pwlcycles.core import zone_matrix
        a = zone_matrix(sine_system.params, Zone.RIGHT)
        for y_in in (-0.3, -1.0, -2.2):
            seg = integrate_in_zone(sine_system, Zone.RIGHT, Point(0.0, y_in), record_stride=0)
            p = seg.terminal_point
            g = p.x - float(sine_system.boundary.evaluate(p.y))
            vx, vy = a @ np.array(p)
            rate = vx - float(sine_system.boundary.derivative(p.y)) * vy
            assert seg.landing_error == pytest.approx(abs(g) * abs(vy) / abs(rate), rel=1e-15)
        rm = return_map(sine_system, -1.0)
        assert 0.0 <= rm.landing_error < 1e-12

    def test_return_map_propagates_about_the_states_it_uses(self, sine_system, monkeypatch):
        built = []
        propagate = orc._propagate_states

        def counting(plan, x0, n):
            built.append(n)  # states beyond the given start
            return propagate(plan, x0, n)

        monkeypatch.setattr(orc, "_propagate_states", counting)
        step = 1e-4
        rm = return_map(sine_system, -2.0 * EXP_M_075PI, step)
        used = math.ceil(rm.flight_time / step)
        assert sum(built) <= used + 2 * math.ceil(orc._BLOCK_TIME / step)

    def test_oracle_imports_nothing_from_analytic(self):
        tree = ast.parse(Path(orc.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "analytic" not in (node.module or "")
                assert all(alias.name != "analytic" for alias in node.names)
            elif isinstance(node, ast.Import):
                assert all("analytic" not in alias.name for alias in node.names)


class TestConvergenceOrder:
    def test_fourth_order_on_reference_turn(self, zero_system):
        errs = []
        for step in (2e-2, 1e-2, 5e-3):
            seg = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0),
                                    step=step, record_stride=0)
            errs.append(abs(seg.terminal_point.y - (-EXP_M_075PI)))
        assert 12.0 < errs[0] / errs[1] < 20.0
        assert 12.0 < errs[1] / errs[2] < 20.0


class TestNumericDisplacement:
    def test_center_vanishes(self, zero_system):
        for y in (0.3, 1.0, 2.0):
            assert abs(numeric_displacement(zero_system, y)) < 1e-8

    def test_vanishes_on_cycle(self, sine_system):
        assert abs(numeric_displacement(sine_system, 1.0)) < 1e-7

    def test_matches_analytic(self, sine_system):
        for y in (0.5, 1.6, 2.4):
            assert numeric_displacement(sine_system, y) == pytest.approx(
                displacement(y, sine_system), abs=1e-6)

    def test_domain_validation(self, sine_system):
        with pytest.raises(DomainError):
            numeric_displacement(sine_system, -1.0)


class TestReturnMap:
    def test_center_identity(self, zero_system):
        for y_in in (-2.5, -1.0, -0.3):
            rm = return_map(zero_system, y_in)
            assert rm.y_out == pytest.approx(y_in, abs=1e-7)
            assert rm.flight_time == pytest.approx(2 * math.pi, abs=1e-6)
            assert rm.sigma_crossings == 1
            assert rm.section_returns == 1

    def test_sine_fixed_points(self, sine_system):
        for k in (1.0, 2.0):
            y_in = -EXP_M_075PI * k
            rm = return_map(sine_system, y_in)
            assert rm.y_out == pytest.approx(y_in, abs=1e-9)
            assert rm.flight_time == pytest.approx(2 * math.pi, abs=1e-6)
            assert rm.sigma_crossings == 1

    def test_cosine_fixed_point(self):
        params = SystemParams(0.4)
        system = PWLSystem(params, __import__("pwlcycles").make_cosine(params, 1))
        y_in = -2.0 * math.exp(-0.4 * math.pi)
        rm = return_map(system, y_in)
        assert rm.y_out == pytest.approx(y_in, abs=1e-9)

    def test_domain_validation(self, zero_system):
        with pytest.raises(DomainError):
            return_map(zero_system, 1.0)

    def test_timeout_raises(self, zero_system):
        with mock.patch.object(orc, "MAX_TIME", 2.0), pytest.raises(IntegrationError):
            return_map(zero_system, -1.0, 1e-3)


def _sine_table_system(gamma, n):
    # the sine boundary as (y, h, h') samples, four per unit, exact zeros at 1..n
    amp, slope = 2 * gamma / ((gamma * gamma + 1) * math.pi), 2 * gamma / (gamma * gamma + 1)
    samples = [[i / 4, 0.0 if i % 4 == 0 else amp * math.sin(math.pi * i / 4),
                slope * math.cos(math.pi * i / 4)] for i in range(4 * n + 3)]
    return families.system_from_descriptor(
        {"gamma": gamma, "boundary": {"family": "table", "params": {"samples": samples}}})


def _family_system(gamma, family, **params):
    return families.system_from_descriptor(
        {"gamma": gamma, "boundary": {"family": family, "params": params}})


S, U = StabilityClass.STABLE, StabilityClass.UNSTABLE
OUTER = StabilityClass.SEMI_STABLE_OUTER_STABLE

# The four systems of the benchmark's verify workload: system, cycles, paper class.
VERIFY_SYSTEMS = {
    "sine": lambda: (_family_system(0.75, "sine", n=2), [1.0, 2.0], [U, S]),
    "cosine": lambda: (_family_system(0.3, "cosine", n=2), [2.0, 4.0], [OUTER, OUTER]),
    "oscillatory": lambda: (_family_system(1.0, "oscillatory", alpha=0.3),
                            [families.oscillatory_root(k) for k in (4, 3, 2, 1)],
                            [U, S, U, S]),
    "table": lambda: (_sine_table_system(0.75, 2), [1.0, 2.0], [U, S]),
}


SKIP_FAMILIES = {
    "sine": lambda: _family_system(0.75, "sine", n=2),
    "cosine": lambda: _family_system(0.3, "cosine", n=2),
    "oscillatory": lambda: _family_system(1.0, "oscillatory", alpha=0.3),
}


def _full_chunks():
    """Every chunk propagated in full: the reference the skipping must match."""
    return mock.patch.object(orc, "_MAX_HOP_TURN", 0.0)


def _leg_bits(seg):
    return (seg.times.tobytes(), seg.points.tobytes(), seg.terminal_event,
            seg.sigma_crossings, seg.section_returns, seg.landing_error)


def _counted_displacement(system, y, step):
    """numeric_displacement from counted legs in full chunks."""
    start = Point(float(system.boundary.evaluate(y)), y)
    with _full_chunks():
        fwd = integrate_in_zone(system, Zone.LEFT, start, Direction.FORWARD, step,
                                record_stride=0)
        bwd = integrate_in_zone(system, Zone.RIGHT, start, Direction.BACKWARD, step,
                                record_stride=0)
    return fwd.terminal_point.y - bwd.terminal_point.y


def _counted_upper_to_lower(system, y0, step):
    """upper_to_lower from counted legs in full chunks."""
    p = Point(0.0, y0)
    with _full_chunks():
        if orc.manifold_value(system, p) > orc.EVENT_TOL:
            p = integrate_in_zone(system, Zone.RIGHT, p, Direction.FORWARD, step,
                                  record_stride=0).terminal_point
        leg = integrate_in_zone(system, Zone.LEFT, p, Direction.FORWARD, step, record_stride=0)
    return leg.terminal_point.y


class TestChunkSkipping:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)),
           zone=st.sampled_from(list(Zone)),
           direction=st.sampled_from(list(Direction)),
           x=st.floats(-3.0, 3.0) | st.floats(-0.2, 0.2),
           y=st.floats(-3.0, 3.0) | st.floats(-0.2, 0.2), on_axis=st.booleans(),
           step=st.floats(1e-4, 2e-3))
    def test_unrecorded_leg_equals_full_chunks(self, family, zone, direction,
                                               x, y, on_axis, step):
        system = SKIP_FAMILIES[family]()
        start = Point(0.0 if on_axis else x, y)
        def leg():
            # Skipping must not change whether or how a leg fails either: the
            # oscillatory h is not finite below y = 1/DBL_MAX.
            try:
                return _leg_bits(integrate_in_zone(system, zone, start, direction, step,
                                                   record_stride=0))
            except PWLError as exc:
                return type(exc), str(exc)

        with mock.patch.object(orc, "MAX_TIME", 10.0):
            with _full_chunks():
                ref = leg()
            assert leg() == ref

    def test_small_orbits_equal_full_chunks(self, sine_system):
        # near the origin a chunk can leave y <= 0 and meet the switching curve
        with mock.patch.object(orc, "MAX_TIME", 20.0):
            for start in (Point(0.05, -0.1), Point(0.2, -0.02), Point(-0.1, -0.2)):
                for zone in Zone:
                    for direction in Direction:
                        seg = integrate_in_zone(sine_system, zone, start, direction, 1e-3,
                                                record_stride=0)
                        with _full_chunks():
                            ref = integrate_in_zone(sine_system, zone, start, direction, 1e-3,
                                                    record_stride=0)
                        assert _leg_bits(seg) == _leg_bits(ref)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)),
           y=st.floats(0.05, 4.0), step=st.floats(1e-4, 2e-3))
    def test_float_callers_equal_counted_full_chunks(self, family, y, step):
        system = SKIP_FAMILIES[family]()
        assert numeric_displacement(system, y, step) == _counted_displacement(system, y, step)
        assert upper_to_lower(system, y, step) == _counted_upper_to_lower(system, y, step)

    def test_displacement_builds_at_most_three_chunks(self, sine_system, monkeypatch):
        built = []
        propagate = orc._propagate_states

        def counting(plan, x0, n):
            built.append(n)
            return propagate(plan, x0, n)

        monkeypatch.setattr(orc, "_propagate_states", counting)
        step = 1e-4
        chunk = math.ceil(orc._BLOCK_TIME / step)
        for y in (0.3, 1.5, 3.9):
            built.clear()
            numeric_displacement(sine_system, y, step)
            assert sum(built) <= 3 * chunk, (y, sum(built))

    @pytest.mark.parametrize("step", [0.5, 1.5])
    def test_large_step_equals_full_chunks(self, sine_system, step):
        for zone in Zone:
            for direction in Direction:
                seg = integrate_in_zone(sine_system, zone, Point(0.4, -1.3), direction, step,
                                        record_stride=0)
                with _full_chunks():
                    ref = integrate_in_zone(sine_system, zone, Point(0.4, -1.3), direction,
                                            step, record_stride=0)
                assert _leg_bits(seg) == _leg_bits(ref)
        for y in (0.7, 2.2):
            assert numeric_displacement(sine_system, y, step) == \
                _counted_displacement(sine_system, y, step)

    def test_chunk_turning_past_the_bound_is_taken_in_full(self, sine_system, monkeypatch):
        # a 6-unit chunk turns about 6 rad, so a coordinate may change sign twice in it
        monkeypatch.setattr(orc, "_BLOCK_TIME", 6.0)
        step = 1e-3
        for start in (Point(0.4, -1.3), Point(1.2, -0.2), Point(-0.9, -0.5)):
            for zone in Zone:
                for direction in Direction:
                    seg = integrate_in_zone(sine_system, zone, start, direction, step,
                                            record_stride=0)
                    with _full_chunks():
                        ref = integrate_in_zone(sine_system, zone, start, direction, step,
                                                record_stride=0)
                    assert _leg_bits(seg) == _leg_bits(ref)
        for y in (0.7, 2.2):
            assert numeric_displacement(sine_system, y, step) == \
                _counted_displacement(sine_system, y, step)

    def test_chunk_length_follows_block_time(self, sine_system, monkeypatch):
        # the cached plan must not keep the chunk length of an earlier _BLOCK_TIME
        step = 1e-3
        integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2), step=step)
        built = []
        propagate = orc._propagate_states

        def counting(plan, x0, n):
            built.append(n)
            return propagate(plan, x0, n)

        monkeypatch.setattr(orc, "_propagate_states", counting)
        monkeypatch.setattr(orc, "_BLOCK_TIME", 0.37)
        integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2), step=step)
        assert max(built) == math.ceil(0.37 / step)

    def test_no_hop_builds_every_chunk(self, sine_system, monkeypatch):
        # the cached plan must not keep the hop decision of an earlier _MAX_HOP_TURN
        step = 1e-3
        chunk = math.ceil(orc._BLOCK_TIME / step)
        built = []
        propagate = orc._propagate_states

        def counting(plan, x0, n):
            built.append(n)
            return propagate(plan, x0, n)

        def leg():
            built.clear()
            return integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2), step=step,
                                     record_stride=0, _count_crossings=False)

        monkeypatch.setattr(orc, "_propagate_states", counting)
        hopped = leg()
        every = [chunk] * math.ceil(hopped.terminal_time / step / chunk)
        assert len(built) < len(every)
        monkeypatch.setattr(orc, "_MAX_HOP_TURN", 0.0)
        seg = leg()
        assert _leg_bits(seg) == _leg_bits(hopped)
        assert built == every

    def test_waived_counters_read_minus_one(self, sine_system):
        seg = integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.0), record_stride=0,
                                _count_crossings=False)
        assert seg.terminal_event is TerminalEvent.AXIS_CROSS
        assert seg.sigma_crossings == seg.section_returns == -1
        counted = integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.0), record_stride=0)
        assert counted.section_returns == 1
        assert seg.terminal_point == counted.terminal_point


class TestResolveStability:
    def test_sine_cycles(self, sine_system):
        assert resolve_stability(sine_system, 2.0, eps=0.05) is StabilityClass.STABLE
        assert resolve_stability(sine_system, 1.0, eps=0.05) is StabilityClass.UNSTABLE

    def test_cosine_semi_stable(self, cosine_system):
        got = resolve_stability(cosine_system, 2.0, eps=0.05)
        assert got is StabilityClass.SEMI_STABLE_OUTER_STABLE

    def test_center_is_undetermined(self, zero_system):
        got = resolve_stability(zero_system, 1.0, eps=0.05)
        assert got is StabilityClass.UNDETERMINED
        for verdict, ratio in orc._side_verdicts(zero_system, 1.0, 0.05):
            assert verdict is None and ratio < orc.MARGIN

    @pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
    def test_verify_systems_keep_their_class_by_a_wide_margin(self, name):
        system, roots, expected = VERIFY_SYSTEMS[name]()
        for i, (y_star, cls) in enumerate(zip(roots, expected)):
            eps = probe_eps(y_star, roots[:i] + roots[i + 1:])
            assert resolve_stability(system, y_star, eps=eps) is cls
            for verdict, ratio in orc._side_verdicts(system, y_star, eps):
                assert verdict is not None and ratio >= 1e3, (y_star, ratio)

    def test_one_checked_turn_per_side(self, sine_system, monkeypatch):
        calls = []
        integrate = orc.integrate_in_zone

        def counting(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(orc, "integrate_in_zone", counting)
        for y_star in (1.0, 2.0):
            calls.clear()
            resolve_stability(sine_system, y_star, eps=0.05)
            assert 0 < len(calls) <= 16

    @pytest.mark.parametrize("k", [24, 31, 36])
    def test_small_oscillatory_cycles(self, oscillatory_system, k):
        roots = [families.oscillatory_root(j) for j in range(1, 38)]
        expected = reports_for_roots(oscillatory_system, roots)[k - 1].stability
        eps = probe_eps(roots[k - 1], roots[:k - 1] + roots[k:])
        got = resolve_stability(oscillatory_system, roots[k - 1], eps=eps, step=1e-3)
        assert got is expected

    def test_probe_validation(self, sine_system):
        with pytest.raises(DomainError):
            resolve_stability(sine_system, 1.0, eps=1.5)

    def test_probe_eps_respects_neighbors(self):
        r = [1.0 / (k * math.pi) for k in range(1, 6)]
        eps = probe_eps(r[4], r[:4])
        assert 0.0 < eps <= 0.25 * (r[3] - r[4])
        assert probe_eps(2.0, [1.0, 3.0]) == pytest.approx(0.1)


class TestOptionsAndExport:
    def test_options_validation(self, zero_system, monkeypatch):
        # the step is the oracle's only setting: finite and at least MIN_STEP,
        # refused before any plan (and its power table) is built
        def no_plan(*args):
            raise AssertionError("a plan was built for a refused step")

        monkeypatch.setattr(orc, "_plan", no_plan)
        below = np.nextafter(orc.MIN_STEP, 0.0)
        for step in (0.0, -1e-3, math.nan, math.inf, orc.EVENT_TOL, 1e-13, 2e-12, 1e-9, below):
            with pytest.raises(DomainError, match="^step must"):
                orc._check_step(step)
            with pytest.raises(DomainError, match="^step must"):
                integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0), step=step)
            with pytest.raises(DomainError, match="^step must"):
                propagate_fixed(zero_system, Zone.RIGHT, Point(0.4, -0.6), 1.0, step=step)
        assert orc._check_step(orc.MIN_STEP) == orc.MIN_STEP

    def test_csv_export(self, zero_system):
        seg = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0),
                                step=1e-3, record_stride=200)
        text = segments_to_csv([seg])
        lines = text.strip().split("\n")
        assert lines[0] == "t,x,y,zone"
        assert lines[1].endswith(",left")
        assert len(lines) == 1 + len(seg.times)
