import ast
import contextlib
import csv
import io
import itertools
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import kernel_system, sine_table_samples
from pwlcycles import (
    Boundary,
    DomainError,
    EvaluationError,
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
    find_limit_cycles,
    flow,
    integrate_in_zone,
    numeric_displacement,
    reports_for_roots,
    resolve_stability,
    return_map,
    verify,
)
from pwlcycles import oracle as orc
from pwlcycles.core import manifold_value
from pwlcycles.oracle import (
    Direction,
    _plan,
    _propagate_states,
    _step_transfer,
    probe_eps,
    propagate_fixed,
    segments_to_csv,
)

EXP_M_075PI = 0.09478022484215486


def _chunks_built(monkeypatch) -> list:
    """The step counts of the chunks built from their first row on, one entry
    each, by a recording leg (``_propagate_states``) or by the lockstep runner
    (the runs of ``_build`` that start at row 0)."""
    built = []
    propagate, build = orc._propagate_states, orc._build

    def counting(plan, x0, n):
        built.append(n)  # states beyond the given start
        return propagate(plan, x0, n)

    def counting_runs(plan, x, a, leg, lo, hi):
        built.extend(hi[lo == 0].tolist())
        return build(plan, x, a, leg, lo, hi)

    monkeypatch.setattr(orc, "_propagate_states", counting)
    monkeypatch.setattr(orc, "_build", counting_runs)
    return built


def _lower(system, y, step=1e-4):
    """Lower crossing of the forward orbit through (h(y), y) on the switching curve."""
    start = Point(float(system.boundary.evaluate(y)), y)
    return integrate_in_zone(system, Zone.LEFT, start, step=step, record_stride=0).terminal_point.y


def _legs_run(monkeypatch) -> list:
    """(zone, direction, step, counted) of every leg the lockstep runner runs
    from here on, and a guard that no leg runs through ``integrate_in_zone``."""
    legs = []
    stops = orc._stops

    def recording(system, zone, direction, starts, step, counted, stride=0):
        legs.extend((zone, direction, step, counted) for _ in starts)
        return stops(system, zone, direction, starts, step, counted, stride)

    monkeypatch.setattr(orc, "_stops", recording)
    monkeypatch.setattr(orc, "integrate_in_zone",
                        lambda *a, **k: pytest.fail("a turn leg ran through integrate_in_zone"))
    return legs


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

    def test_a_verify_round_rebuilds_no_plan(self):
        # the benchmark's verify systems in turn use 6 plans (forward in either zone at
        # three rates), which the cache holds
        def round_():
            for make in VERIFY_SYSTEMS.values():
                system, roots, _ = make()
                for i, y in enumerate(roots):
                    resolve_stability(system, y, probe_eps(y, roots[:i] + roots[i + 1:]))
                    return_map(system, _lower(system, y))
                numeric_displacement(system, np.linspace(0.05, 1.0, 5))

        round_()
        misses = _plan.cache_info().misses
        round_()
        assert _plan.cache_info().misses == misses

    def test_propagate_fixed_matches_flow(self, zero_system, params075):
        for zone in Zone:
            for t in (0.17, 1.0, 2.9):
                got = propagate_fixed(zero_system, zone, Point(0.4, -0.6), t, step=5e-4)
                ref = flow(zone, t, Point(0.4, -0.6), params075)
                assert abs(got.x - ref.x) < 1e-10 and abs(got.y - ref.y) < 1e-10

    @pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0])
    def test_propagate_fixed_rejects_bad_duration(self, zero_system, duration):
        with pytest.raises(DomainError, match=f"^duration must .*got {duration!r}$"):
            propagate_fixed(zero_system, Zone.RIGHT, Point(0.4, -0.6), duration)

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
        built = _chunks_built(monkeypatch)
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

    def test_oracle_imports_only_core_from_the_package(self):
        # the oracle must not reach the closed forms through cycles or any other module
        tree = ast.parse(Path(orc.__file__).read_text(encoding="utf-8"))
        package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                package.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pwlcycles"):
                package.add(node.module)
            elif isinstance(node, ast.Import):
                package.update(a.name for a in node.names if a.name.startswith("pwlcycles"))
        assert package == {"core"}


class TestForwardZone:
    """``_forward_zone``: the zone the forward orbit through a point enters."""

    def test_lower_section_goes_right(self, sine_system):
        for y in (-3.0, -1.0, -1e-9):
            assert orc._forward_zone(sine_system, Point(0.0, y)) is Zone.RIGHT

    def test_transversal_curve_point_goes_left(self, sine_system):
        for y in (0.3, 1.0, 1.5, 2.5, 3.7):
            h = float(sine_system.boundary.evaluate(y))
            assert orc._forward_zone(sine_system, Point(h, y)) is Zone.LEFT

    @pytest.mark.parametrize("h0", [0.0, 5e-13, -5e-13, orc.EVENT_TOL, -orc.EVENT_TOL])
    def test_upper_axis_within_event_tol_goes_left(self, params075, monkeypatch, h0):
        system = PWLSystem(params075, Boundary(evaluate=lambda y: h0 * y,
                                               derivative=lambda y: h0 + 0.0 * y))
        assert orc._forward_zone(system, Point(0.0, 1.0)) is Zone.LEFT
        legs = _legs_run(monkeypatch)
        from pwlcycles import sample_orbit
        sample_orbit(system, Point(0.0, 1.0), 1)
        assert legs[0][0] is Zone.LEFT  # the orbit takes no right-zone leg first

    def test_off_the_switching_set_the_sign_of_g_decides(self, sine_system):
        rng = np.random.default_rng(17)
        for x, y in rng.uniform(-3.0, 3.0, size=(256, 2)):
            p = Point(float(x), float(y))
            g = manifold_value(sine_system, p)
            assert abs(g) > orc.EVENT_TOL
            assert orc._forward_zone(sine_system, p) is (Zone.LEFT if g < 0.0 else Zone.RIGHT)

    def test_zero_rate_goes_right(self, sine_system):
        assert orc._forward_zone(sine_system, Point(0.0, 0.0)) is Zone.RIGHT


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
    return families.system_from_descriptor(
        {"gamma": gamma,
         "boundary": {"family": "table", "params": {"samples": sine_table_samples(gamma, n)}}})


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


def _custom_system():
    # a user-built boundary promises no envelope, so its counted legs hop less
    sine = _family_system(0.75, "sine", n=2)
    return PWLSystem(sine.params, Boundary(sine.boundary.evaluate, sine.boundary.derivative))


SKIP_FAMILIES = {
    "sine": lambda: _family_system(0.75, "sine", n=2),
    "cosine": lambda: _family_system(0.3, "cosine", n=2),
    "oscillatory": lambda: _family_system(1.0, "oscillatory", alpha=0.3),
    "table": lambda: _sine_table_system(0.75, 2),
    "zero": lambda: _family_system(0.75, "zero"),
    "custom": _custom_system,
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


class TestChunkSkipping:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)),
           zone=st.sampled_from(list(Zone)),
           direction=st.sampled_from(list(Direction)),
           x=st.floats(-3.0, 3.0) | st.floats(-0.2, 0.2),
           y=st.floats(-3.0, 3.0) | st.floats(-0.2, 0.2), on_axis=st.booleans(),
           step=st.floats(1e-4, 2e-3))
    # rule 3 sampled rows of this orbit next to the origin, where h is not
    # finite, and named another y than the full chunk does
    @example(family="oscillatory", zone=Zone.LEFT, direction=Direction.FORWARD, x=0.0,
             y=-2.2250738585072014e-308, on_axis=False, step=0.001953125)
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

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)),
           zone=st.sampled_from(list(Zone)),
           direction=st.sampled_from(list(Direction)),
           x=st.floats(-3.0, 3.0) | st.floats(-0.2, 0.2),
           y=st.floats(-3.0, 3.0) | st.floats(-0.2, 0.2), on_axis=st.booleans(),
           step=st.floats(1e-4, 2e-3), stride=st.sampled_from([1, 7, 10]),
           counted=st.booleans())
    def test_recorded_leg_equals_full_chunks(self, family, zone, direction, x, y, on_axis,
                                             step, stride, counted):
        # a recording leg hops by rule 1 and builds only the rows it records
        system = SKIP_FAMILIES[family]()
        start = Point(0.0 if on_axis else x, y)

        def leg():
            try:
                return _leg_bits(integrate_in_zone(system, zone, start, direction, step,
                                                   record_stride=stride,
                                                   _count_crossings=counted))
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
                        for stride in (0, 1, 7, 10):
                            def leg():
                                return _leg_bits(integrate_in_zone(
                                    sine_system, zone, start, direction, 1e-3,
                                    record_stride=stride))

                            with _full_chunks():
                                ref = leg()
                            assert leg() == ref, (start, zone, direction, stride)

    def test_section_starts_and_upper_axis_crossings_equal_full_chunks(self):
        # Starts on the section x = 0 (lower and upper half), and starts from
        # which x changes sign at y > 0, on the upper axis, before the leg
        # meets its stop: that change is no section return and is hopped.
        starts = (Point(0.0, -1.3), Point(0.0, -0.05), Point(0.0, 0.8), Point(0.0, 2.6),
                  Point(0.7, 0.5), Point(-0.4, 1.9), Point(1.6, 0.2), Point(-2.1, 0.3))
        with mock.patch.object(orc, "MAX_TIME", 10.0):
            for family in sorted(SKIP_FAMILIES):
                system = SKIP_FAMILIES[family]()
                for start in starts:
                    for zone in Zone:
                        for direction in Direction:
                            for counted, stride in itertools.product((True, False),
                                                                     (0, 1, 7, 10)):
                                def leg():
                                    return _leg_bits(integrate_in_zone(
                                        system, zone, start, direction, 7e-4,
                                        record_stride=stride, _count_crossings=counted))

                                with _full_chunks():
                                    ref = leg()
                                assert leg() == ref, (family, start, zone, direction,
                                                      counted, stride)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)),
           y=st.floats(0.05, 4.0), step=st.floats(1e-4, 2e-3))
    def test_float_callers_equal_counted_full_chunks(self, family, y, step):
        system = SKIP_FAMILIES[family]()
        assert numeric_displacement(system, y, step) == _counted_displacement(system, y, step)

    def test_displacement_builds_at_most_one_chunk(self, sine_system, cosine_system,
                                                    monkeypatch):
        # both legs hop their chunks and land their section returns from a few rows
        built = _chunks_built(monkeypatch)
        for system in (sine_system, cosine_system):
            for y in (0.3, 1.5, 3.9, *np.linspace(0.05, 5.0, 60)):
                built.clear()
                numeric_displacement(system, float(y))
                assert len(built) <= 1, (y, built)

    def test_return_map_turn_builds_at_most_six_chunks(self, sine_system, monkeypatch):
        # one turn from the lower crossing of the README sine's stable cycle y* = 2
        built = _chunks_built(monkeypatch)
        return_map(sine_system, -2.0 * EXP_M_075PI)
        assert len(built) <= 6, built

    def test_recording_portrait_leg_builds_fewer_chunks_than_it_spends(self, sine_system,
                                                                        monkeypatch):
        # the first leg of the README portrait's outer seed, at the portrait's
        # step 1e-3 and stride 10: chunks clear of the curve are hopped
        step, stride = 1e-3, 10
        chunk = math.ceil(orc._BLOCK_TIME / step)
        built = _chunks_built(monkeypatch)

        def leg():
            built.clear()
            return integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.3), step=step,
                                     record_stride=stride)

        seg = leg()
        spent = math.ceil(seg.terminal_time / step / chunk)
        assert len(built) <= spent // 2, (built, spent)
        with _full_chunks():
            ref = leg()
        assert len(built) == spent
        assert _leg_bits(seg) == _leg_bits(ref)

    def test_table_turn_builds_no_more_chunks_than_the_sine_it_samples(self, monkeypatch):
        # the verify workload's table is the sine n=2 sampled at quarter-integer
        # nodes; its envelope of |h| is the sine's to roundoff, so near y = 1,
        # where |x| stays close to it, a turn hops as many chunks as on the sine
        built = _chunks_built(monkeypatch)
        sine, table = VERIFY_SYSTEMS["sine"]()[0], VERIFY_SYSTEMS["table"]()[0]
        for y in (0.95, 1.0, 1.05):
            counts = []
            for system in (sine, table):
                built.clear()
                return_map(system, -EXP_M_075PI * y)
                counts.append(len(built))
            assert counts[1] <= counts[0], (y, counts)

    @pytest.mark.parametrize("step", [0.5, 1.0])  # chunks of one step
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
        built = _chunks_built(monkeypatch)
        monkeypatch.setattr(orc, "_BLOCK_TIME", 0.37)
        integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2), step=step)
        assert max(built) == math.ceil(0.37 / step)

    def test_no_hop_builds_every_chunk(self, sine_system, monkeypatch):
        # the cached plan must not keep the hop decision of an earlier _MAX_HOP_TURN
        step = 1e-3
        chunk = math.ceil(orc._BLOCK_TIME / step)
        built = _chunks_built(monkeypatch)

        def leg():
            built.clear()
            return integrate_in_zone(sine_system, Zone.LEFT, Point(0.0, 2.2), step=step,
                                     record_stride=0, _count_crossings=False)

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


def _counted_leg_bits(system, zone, start, direction, step):
    """``_leg_bits`` of a counted endpoints-only leg, or its error."""
    try:
        return _leg_bits(integrate_in_zone(system, zone, start, direction, step,
                                           record_stride=0))
    except PWLError as exc:
        return type(exc), str(exc)


def _sparse_equals_full(system, zone, start, direction, step):
    """Whether a counted leg has the bits of the same leg built in full chunks."""
    with mock.patch.object(orc, "MAX_TIME", 10.0):
        with _full_chunks():
            ref = _counted_leg_bits(system, zone, start, direction, step)
        return _counted_leg_bits(system, zone, start, direction, step) == ref


def _zigzag_table():
    # h alternates between +-0.05 at nodes 0.002 apart, so |h'| reaches about 75
    # and one sampled interval of a chunk may hold a whole narrow peak of h
    return families.make_table([(0.0, 0.0)] + [(0.002 * k, 0.05 * (-1) ** k)
                                                for k in range(1, 1001)])


class TestCertifiedChunks:
    """Rule 3: a counted leg evaluates g on sparse rows and builds only the
    runs of rows whose sign the slope bound does not certify."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)),
           zone=st.sampled_from(list(Zone)),
           direction=st.sampled_from(list(Direction)),
           y=st.floats(0.05, 3.0), dx=st.floats(-0.3, 0.3) | st.floats(-1e-3, 1e-3),
           below=st.booleans(), step=st.floats(1e-4, 5e-3))
    def test_counted_leg_equals_full_chunks(self, family, zone, direction, y, dx, below,
                                            step):
        # starts next to the curve, or as far below the axis, so that curve
        # stops and counted section stops meet the curve in a chunk
        system = SKIP_FAMILIES[family]()
        start = (Point(dx, -y) if below
                 else Point(float(system.boundary.evaluate(y)) + dx, y))
        assert _sparse_equals_full(system, zone, start, direction, step)

    def test_a_wrong_slope_bound_is_caught(self):
        # with a slope bound of 0 a chunk is certified across a narrow peak of
        # h, so the leg misses its first crossing: the equality test must see it
        table = _zigzag_table()
        params = SystemParams(0.75)
        honest = PWLSystem(params, table)
        planted = PWLSystem(params, Boundary(table.evaluate, table.derivative,
                                             envelope=table.envelope,
                                             slope_envelope=lambda y: 0.0))
        start = Point(0.06, 0.3)
        assert _sparse_equals_full(honest, Zone.RIGHT, start, Direction.FORWARD, 1e-4)
        assert not _sparse_equals_full(planted, Zone.RIGHT, start, Direction.FORWARD, 1e-4)

    @pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
    def test_counted_turn_evaluates_h_on_few_rows(self, name, monkeypatch):
        # a counted turn from each cycle's lower crossing evaluates h on a few
        # hundred rows where whole chunks took 10k to 40k
        system, roots, _ = VERIFY_SYSTEMS[name]()
        rows = []
        values = orc.manifold_values
        monkeypatch.setattr(orc, "manifold_values",
                            lambda system, states: rows.append(len(states))
                            or values(system, states))
        for y in roots:
            rows.clear()
            turn = return_map(system, -y * math.exp(-system.gamma * math.pi))
            assert turn.sigma_crossings == turn.section_returns == 1
            assert sum(rows) <= 1500, (y, rows)

    def test_boundary_without_slope_bound_builds_full_chunks(self, monkeypatch):
        # a boundary with an envelope but no slope_envelope keeps the full chunk
        sine = _family_system(0.75, "sine", n=2)
        system = PWLSystem(sine.params, Boundary(sine.boundary.evaluate,
                                                 sine.boundary.derivative,
                                                 envelope=sine.boundary.envelope))
        monkeypatch.setattr(orc, "_uncertified",
                            lambda *a: pytest.fail("rule 3 ran without a slope bound"))
        built = _chunks_built(monkeypatch)
        seg = return_map(system, -2.0 * EXP_M_075PI)
        assert seg.sigma_crossings == 1
        assert max(built) == math.ceil(orc._BLOCK_TIME / 1e-4)


class TestArrayForms:
    """The array forms of rule 2 and of the axis landing against what they
    stand for, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.sampled_from([0.3, 0.75, 1.0]), zone=st.sampled_from(list(Zone)),
           forward=st.booleans(), step=st.floats(1e-4, 5e-3),
           xs=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                       min_size=1, max_size=30),
           cut=st.floats(0.05, 1.0))
    def test_sign_changes_and_landings_equal_the_per_leg_forms(self, gamma, zone, forward,
                                                                step, xs, cut):
        chunk = math.ceil(orc._BLOCK_TIME / step)
        n = max(1, int(cut * chunk))
        plan = _plan(SystemParams(gamma), zone, forward, step, chunk)
        x = np.array(xs).reshape(-1, 2)
        a = orc._coefficient(plan, x)
        end = orc._points(plan, a * plan.powers[n])
        changes = x[:, 0] * end[:, 0] < 0.0
        x, a = x[changes], a[changes]
        ok, base, pairs = orc._sign_changes(plan, a, x, n)
        for j in range(len(a)):
            # each chunk alone, as a per-leg leg asks, and the chunk in full
            alone = orc._sign_changes(plan, a[j:j + 1], x[j:j + 1], n)
            assert alone[0][0] == ok[j]
            rows = _propagate_states(plan, x[j], n)
            flips = np.flatnonzero((rows[1:, 0] < 0.0) != (rows[:-1, 0] < 0.0))
            if ok[j]:
                assert alone[1][0] == base[j] and alone[2][0].tobytes() == pairs[j].tobytes()
                assert flips.tolist() == [base[j]]
                assert pairs[j].tobytes() == rows[base[j]:base[j] + 2].tobytes()
        starts = pairs[ok]
        if len(starts):
            taus, landed = orc._land_on_axis(plan.matrix, starts[:, 0], step)
            for start, tau, got in zip(starts, taus, landed):
                ref_tau, ref, _ = orc._localize(None, plan.matrix, start[0], step,
                                                float(start[0, 0]), True)
                assert got.tobytes() == ref.tobytes() and tau == ref_tau

    @settings(max_examples=60, deadline=None)
    @given(matrix=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           step=st.floats(0.05, 2.0),
           xs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=30))
    def test_landings_on_curved_quartics_equal_localize(self, matrix, step, xs):
        # long substeps of arbitrary fields bend the quartic, so the Illinois
        # iteration runs many steps, halves either end and falls back to bisection
        matrix = np.array(matrix).reshape(2, 2)
        x = np.array(xs)
        ends = np.array([orc._horner(c, step) for c in zip(*orc._quartic(matrix, *x.T))]).T
        x = x[(x[:, 0] < 0.0) != (ends[:, 0] < 0.0)]
        if len(x):
            got = orc._land_on_axis(matrix, x, step)[1]
            for start, landed in zip(x, got):
                ref = orc._localize(None, matrix, start, step, float(start[0]), True)[1]
                assert landed.tobytes() == ref.tobytes()


_EVENT_RATE = orc._event_rate


def _tangent_rate(system, axis, matrix, x):
    # a zero rate at the starts (h(y), y) of y = 1 and 2, as a tangent velocity would give
    dgdt, vel = _EVENT_RATE(system, axis, matrix, x)
    return (0.0, vel) if float(x[1]) in (1.0, 2.0) else (dgdt, vel)


def _leg_by_integration(system, zone, start, direction, step, origin_y, counted=True):
    """One endpoints-only ``integrate_in_zone`` leg, raising the time-out ``_ends`` names."""
    seg = integrate_in_zone(system, zone, start, direction, step, record_stride=0,
                            _count_crossings=counted)
    if seg.terminal_event is TerminalEvent.TIME_OUT:
        raise orc._time_out(direction, zone, origin_y)
    return seg


def _displacement_by_legs(system, y, step):
    """numeric_displacement at a float y from one ``integrate_in_zone`` leg per direction."""
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    start = Point(float(system.boundary.evaluate(y)), y)
    fwd = _leg_by_integration(system, Zone.LEFT, start, Direction.FORWARD, step, y, False)
    bwd = _leg_by_integration(system, Zone.RIGHT, start, Direction.BACKWARD, step, y, False)
    return fwd.terminal_point.y - bwd.terminal_point.y


class TestLockstepDisplacement:
    """``numeric_displacement`` on an array: legs in lockstep, with the bits of float calls."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)),
           ys=st.lists(st.floats(0.05, 4.0) | st.sampled_from([1.0, 2.0, 0.0, -1.0, math.nan]),
                       max_size=6),
           step=st.floats(1e-4, 2e-3),
           patch=st.sampled_from([None, ("_MAX_HOP_TURN", 0.0), ("_BLOCK_TIME", 6.0)]),
           max_time=st.sampled_from([orc.MAX_TIME, 3.0, 3.2, 3.4]), tangent=st.booleans())
    def test_array_equals_float_calls(self, family, ys, step, patch, max_time, tangent):
        # A y <= 0 or NaN, a tangent start (at y = 1 or 2 on the sine and the
        # table, whose h vanishes there) and a time-out (a short MAX_TIME)
        # must raise the error of the first failing y, forward leg first.
        system = SKIP_FAMILIES[family]()

        def each(displacement):
            out = []
            for y in ys:
                try:
                    out.append(displacement(system, y, step))
                except PWLError as exc:
                    return type(exc), str(exc)
            return np.array(out).tobytes()

        def array():
            try:
                return numeric_displacement(system, np.array(ys), step).tobytes()
            except PWLError as exc:
                return type(exc), str(exc)

        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(orc, "MAX_TIME", max_time))
            if patch is not None:
                stack.enter_context(mock.patch.object(orc, *patch))
            if tangent:
                stack.enter_context(mock.patch.object(orc, "_event_rate", _tangent_rate))
            ref = each(_displacement_by_legs)
            assert array() == ref
            assert each(numeric_displacement) == ref

    def test_float_gives_a_float_and_an_array_an_array(self, sine_system):
        f = numeric_displacement(sine_system, 1.5)
        assert type(f) is float
        got = numeric_displacement(sine_system, np.array([1.5, 0.7]))
        assert got.shape == (2,) and got[0] == f
        assert numeric_displacement(sine_system, np.array([])).shape == (0,)
        with pytest.raises(DomainError, match="1-d"):
            numeric_displacement(sine_system, np.ones((2, 2)))

    @pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
    def test_scan_lands_every_leg_as_arrays(self, name, monkeypatch):
        # every chunk of a scan leg hops or is bracketed in lockstep, and every
        # leg lands in the one array Illinois: no leg settles alone (a chunk
        # settles its legs in at most one call), and no chunk is built in full
        system = VERIFY_SYSTEMS[name]()[0]
        ys = np.linspace(0.05, 1.0, 40) if name == "oscillatory" else np.linspace(0.1, 4.0, 40)
        landed, events = [], []
        land, steps_next, settle = orc._land_on_axis, orc._steps_next, orc._settle
        monkeypatch.setattr(orc, "_land_on_axis",
                            lambda matrix, x, step: landed.append(len(x)) or land(matrix, x, step))
        monkeypatch.setattr(orc, "_steps_next",
                            lambda *a: events.append("chunk") or steps_next(*a))
        monkeypatch.setattr(orc, "_settle", lambda *a: events.append("settle") or settle(*a))
        built = _chunks_built(monkeypatch)
        numeric_displacement(system, ys)
        assert sum(landed) == 2 * len(ys)
        assert built == []
        assert "settle" in events and ["settle", "settle"] not in [
            events[i:i + 2] for i in range(len(events))], "a scan leg settled alone"

    def test_long_scan_holds_its_legs_in_batches(self, sine_system, monkeypatch):
        # the two legs of a long scan's ordinates run 1024 ordinates (2048 legs) at a
        # time, with the bits of float calls
        sizes, stops = [], orc._stops
        monkeypatch.setattr(orc, "_stops", lambda system, zone, direction, legs, *rest:
                            sizes.append(len(legs)) or stops(system, zone, direction, legs, *rest))
        ys = np.linspace(0.1, 4.0, 1100)
        got = numeric_displacement(sine_system, ys, 1e-3)
        assert sizes == [2048, 152]
        want = np.array([numeric_displacement(sine_system, y, 1e-3) for y in ys])
        assert got.tobytes() == want.tobytes()

    def test_scan_runs_no_leg_through_integrate_in_zone(self, sine_system, monkeypatch):
        monkeypatch.setattr(orc, "integrate_in_zone",
                            lambda *a, **k: pytest.fail("a lockstep leg ran a whole leg"))
        assert numeric_displacement(sine_system, np.linspace(0.1, 4.0, 40)).shape == (40,)


def _mirror_bits(system, y, step):
    """The uncounted backward-right leg from (h(y), y) and the forward-left leg from
    (-h(y), y) as .hex() of their terminal y, x (the mirror's negated), end time,
    landing and integration errors, with their events, or their errors' types.  An x
    of 0 reads +0: a sum of opposite terms rounds to +0 in both legs, not to -0 in one."""
    h = float(system.boundary.evaluate(y))
    bits = []
    for zone, direction, x in ((Zone.RIGHT, Direction.BACKWARD, h),
                               (Zone.LEFT, Direction.FORWARD, -h)):
        try:
            seg = integrate_in_zone(system, zone, Point(x, y), direction, step,
                                    record_stride=0, _count_crossings=False)
        except PWLError as exc:
            bits.append(type(exc))
            continue
        end = seg.points[-1]
        bits.append((seg.terminal_event, float(end[1]).hex(),
                     (float(end[0] if direction is Direction.BACKWARD else -end[0])
                      + 0.0).hex(),
                     seg.terminal_time.hex(), seg.landing_error.hex(),
                     seg.integration_error.hex()))
    return bits


# numpy's x86-64-v2 loops alone: the dispatch under which the oracle's bits are known to move
_V2_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


class TestMirroredBackwardLegs:
    """The backward right field is the mirror image of the forward left one, -A_R = S A_L S
    with S = diag(-1, 1), so ``_pairs`` runs a backward-right leg as the forward-left leg
    from the mirrored start, an uncounted axis-stop leg with the same bits."""

    @settings(max_examples=120, deadline=None)
    @given(family=st.sampled_from(["sine", "cosine", "oscillatory", "table", "cone"]),
           gamma=st.floats(0.05, 2.0), n=st.integers(1, 4), alpha=st.floats(0.01, 0.36),
           cone=st.integers(1, 40).map(lambda k: 1.0 - 2.0 ** -k) | st.floats(-1.0, 1.0),
           y=st.floats(1e-3, 6.0),
           step=st.sampled_from([orc.MIN_STEP, 1e-4, 1e-3])
           | st.floats(math.log10(orc.MIN_STEP), 0.08).map(lambda e: 10.0 ** e))
    @example(family="sine", gamma=0.75, n=2, alpha=0.3, cone=0.5, y=1.0, step=1e-4)
    @example(family="cone", gamma=0.75, n=1, alpha=0.3, cone=0.0, y=1.5, step=0.5)
    @example(family="sine", gamma=0.25, n=1, alpha=0.25, cone=0.5, y=1.0, step=1.0)
    def test_backward_right_leg_is_the_forward_left_leg_mirrored(self, family, gamma, n,
                                                                 alpha, cone, y, step):
        # every step from MIN_STEP up to the coarse steps the step rule accepts
        system = kernel_system(family, gamma, n, alpha, cone)
        try:
            orc._check_step(system.params, step)
        except DomainError:
            assume(False)
        backward, mirrored = _mirror_bits(system, y, step)
        assert backward == mirrored

    def test_mirror_holds_under_the_x86_64_v2_dispatch(self):
        # the property above, run once in a process whose numpy takes its x86-64-v2 loops
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip(f"the dispatch names x86-64 features; this machine is "
                        f"{platform.machine()}")
        src = str(Path(orc.__file__).parents[1])
        env = {**os.environ, **_V2_DISPATCH,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c",
                                "import numpy"], capture_output=True, text=True, env=env)
        if probe.returncode:
            pytest.skip(f"numpy refuses {_V2_DISPATCH}: {probe.stderr.strip().splitlines()[-1]}")
        test = (f"{__file__}::{type(self).__name__}::"
                "test_backward_right_leg_is_the_forward_left_leg_mirrored")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               test], capture_output=True, text=True, env=env,
                              cwd=Path(__file__).parent)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert "1 passed" in done.stdout

    def test_the_backward_leg_times_out_under_its_own_name(self, sine_system, monkeypatch):
        # at MAX_TIME = 3.1 only the backward leg of y = 1.5 times out, and its mirror
        # image keeps its error: the float call and the array call raise it
        monkeypatch.setattr(orc, "MAX_TIME", 3.1)
        message = ("backward right-zone leg of the orbit from y=1.5 did not leave its zone "
                   "within MAX_TIME=3.1")
        for y in (1.5, np.array([1.5]), np.array([1.5, 2.5])):
            assert _outcome(lambda: numeric_displacement(sine_system, y)) == (
                IntegrationError, message)
        forward = integrate_in_zone(sine_system, Zone.LEFT,
                                    Point(float(sine_system.boundary.evaluate(1.5)), 1.5),
                                    record_stride=0, _count_crossings=False)
        assert forward.terminal_event is TerminalEvent.AXIS_CROSS


def _probe_by_legs(system, y, step):
    """(f, bar, legs) of the stability probe at y from uncounted ``integrate_in_zone``
    legs run one at a time, a forward-left and a backward-right leg from (h(y), y) on
    the switching curve: f is the difference of their landings, and the bar both legs'
    integration and landing errors."""
    p = Point(float(system.boundary.evaluate(y)), y)
    one, two = (integrate_in_zone(system, zone, p, direction, step, record_stride=0,
                                  _count_crossings=False)
                for zone, direction in ((Zone.LEFT, Direction.FORWARD),
                                        (Zone.RIGHT, Direction.BACKWARD)))
    return (one.terminal_point.y - two.terminal_point.y,
            one.integration_error + one.landing_error + two.integration_error + two.landing_error,
            (one, two))


def _side_verdicts_by_legs(system, y_star, eps, step=1e-4):
    """``_side_verdicts`` of one cycle as (verdict, ratio.hex()) pairs, from the
    probes y = y* -+ eps of ``_probe_by_legs``."""
    out = []
    for side in (-1.0, +1.0):
        f, bar, _ = _probe_by_legs(system, y_star + side * eps, step)
        ratio = abs(f) / bar if bar > 0.0 else (math.inf if f else 0.0)
        verdict = "approach" if (f > 0.0) == (side > 0.0) else "retreat"
        out.append((verdict if ratio > orc.MARGIN else None, ratio.hex()))
    return out


def _mp_boundary(system):
    """h of the system's boundary at mpmath's precision, from its descriptor: the
    family's formula, or a table's cubic Hermite pieces, the outer ones extended."""
    family, params = system.boundary.descriptor["family"], system.boundary.descriptor["params"]
    g, pi = mpmath.mpf(system.params.gamma), mpmath.pi
    amp = 2 * g / ((g * g + 1) * pi)
    if family == "sine":
        window, tail = mpmath.mpf(2 * params["n"] + 1) / 2, amp * (-1) ** params["n"]
        return lambda y: amp * mpmath.sin(pi * y) if y <= window else tail
    if family == "cosine":
        return lambda y: amp * (1 - mpmath.cos(pi * y)) if y <= 2 * params["n"] + 1 else 2 * amp
    if family == "oscillatory":
        return lambda y: params["alpha"] * y * y * mpmath.sin(1 / y)
    knots = [[mpmath.mpf(v) for v in row] for row in params["samples"]]

    def table(y):
        j = max([0] + [i for i in range(1, len(knots) - 1) if y >= knots[i][0]])
        (y0, h0, d0), (y1, h1, d1) = knots[j], knots[j + 1]
        w = y1 - y0
        t = (y - y0) / w
        return ((2 * t - 3) * t * t * (h0 - h1) + h0
                + w * t * ((t - 1) ** 2 * d0 + t * (t - 1) * d1))

    return table


def _mp_flow(g, sign, p, t):
    """The closed-form flow of the zone with sigma = sign * g from p over time t:
    exp(t A) = exp(sigma t) (cos t + sin t (A - sigma))."""
    (x, y), e = p, mpmath.exp(sign * g * t)
    wx, wy = sign * g * x - y, (g * g + 1) * x - sign * g * y
    return (e * (mpmath.cos(t) * x + mpmath.sin(t) * wx),
            e * (mpmath.cos(t) * y + mpmath.sin(t) * wy))


def _mp_landing(g, sign, p, t):
    """y where the zone flow with sigma = sign * g from p meets x = 0, at the root
    nearest the time t (negative for a backward leg): x(t) = 0 where tan t = -x / wx."""
    (x, y), pi = p, mpmath.pi
    t0 = mpmath.atan(-x / (sign * g * x - y))
    return _mp_flow(g, sign, p, t0 + pi * mpmath.nint((t - t0) / pi))[1]


def _exact_turn(system, y_in, t_right, t_left):
    """y_out of the flow's own turn from (0, y_in), at 40 digits: the right zone's
    closed-form flow, its switching-curve crossing by ``findroot`` from the oracle
    leg's time ``t_right``, and the left zone's closed-form landing on x = 0 at the
    root nearest the oracle leg's time ``t_left``."""
    with mpmath.workdps(40):
        g, h = mpmath.mpf(system.params.gamma), _mp_boundary(system)
        start = (mpmath.mpf(0), mpmath.mpf(y_in))

        def switching(t):
            x, y = _mp_flow(g, 1, start, t)
            return x - h(y)

        p1 = _mp_flow(g, 1, start, mpmath.findroot(switching, mpmath.mpf(t_right)))
        return _mp_landing(g, -1, p1, t_left)


def _turn_error_and_bar(system, y_in, step):
    """|y_out - exact y_out| of the oracle's turn from (0, y_in) and its error bar."""
    rm = return_map(system, y_in, step)
    first = integrate_in_zone(system, Zone.RIGHT, Point(0.0, y_in), step=step, record_stride=0)
    second = integrate_in_zone(system, Zone.LEFT, first.terminal_point, step=step,
                               record_stride=0)
    assert second.terminal_point.y == rm.y_out
    with mpmath.workdps(40):
        exact = _exact_turn(system, y_in, first.terminal_time, second.terminal_time)
        err = float(abs(mpmath.mpf(rm.y_out) - exact))
    return err, rm.integration_error + rm.landing_error


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
        for verdict, ratio in orc._side_verdicts(zero_system, [(1.0, 0.05)])[0]:
            assert verdict is None and ratio < orc.MARGIN

    @pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
    def test_verify_systems_keep_their_class_by_a_wide_margin(self, name):
        system, roots, expected = VERIFY_SYSTEMS[name]()
        for i, (y_star, cls) in enumerate(zip(roots, expected)):
            eps = probe_eps(y_star, roots[:i] + roots[i + 1:])
            assert resolve_stability(system, y_star, eps=eps) is cls
            for verdict, ratio in orc._side_verdicts(system, [(y_star, eps)])[0]:
                assert verdict is not None and ratio >= 1e3, (y_star, ratio)

    @pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
    def test_side_verdicts_equal_counted_turns(self, name):
        # the probes of all cycles run in lockstep; integrate_in_zone leg pairs, one
        # leg at a time, give every verdict and the bits of every margin ratio
        system, roots, _ = VERIFY_SYSTEMS[name]()
        eps = [probe_eps(y_star, roots[:i] + roots[i + 1:]) for i, y_star in enumerate(roots)]
        got = [[(verdict, ratio.hex()) for verdict, ratio in cycle]
               for cycle in orc._side_verdicts(system, list(zip(roots, eps)))]
        assert got == [_side_verdicts_by_legs(system, y, e) for y, e in zip(roots, eps)]

    def test_readme_sine_stable_probes_build_at_most_13_chunks(self, sine_system, monkeypatch):
        # the two legs of each probe of y* = 2 stop on the section and count no crossing
        built = _chunks_built(monkeypatch)
        orc._side_verdicts(sine_system, [(2.0, probe_eps(2.0, [1.0]))])
        assert len(built) <= 13, built

    def test_two_uncounted_legs_per_probe(self, sine_system, monkeypatch):
        # per cycle: two forward-left legs per probe (the backward-right leg runs as its
        # mirror image), uncounted and at the one step, and the legs of two cycles at
        # once are those of each alone
        legs = _legs_run(monkeypatch)
        alone = []
        for y_star in (1.0, 2.0):
            legs.clear()
            resolve_stability(sine_system, y_star, eps=0.05)
            assert legs == [(Zone.LEFT, Direction.FORWARD, 1e-4, False)] * 4
            alone += legs
        legs.clear()
        resolve_stability(sine_system, np.array([1.0, 2.0]), eps=0.05)
        assert sorted(legs) == sorted(alone)

    @pytest.mark.parametrize("k", [24, 31, 36])
    def test_small_oscillatory_cycles(self, oscillatory_system, k):
        roots = [families.oscillatory_root(j) for j in range(1, 38)]
        expected = reports_for_roots(oscillatory_system, roots)[k - 1].stability
        eps = probe_eps(roots[k - 1], roots[:k - 1] + roots[k:])
        got = resolve_stability(oscillatory_system, roots[k - 1], eps=eps, step=1e-3)
        assert got is expected

    def test_no_leg_runs_at_twice_the_step(self, sine_system, monkeypatch):
        # the error bars come from the legs at the step itself, so neither the
        # stability check nor verify runs a leg at any other step
        legs = _legs_run(monkeypatch)
        resolve_stability(sine_system, np.array([1.0, 2.0]), eps=0.05, step=2e-4)
        assert legs and {step for _, _, step, _ in legs} == {2e-4}
        legs.clear()
        cycles = find_limit_cycles(sine_system, 0.1, 4.0).cycles
        report = verify(sine_system, cycles, np.linspace(0.1, 4.0, 5), 3e-4, 1e-6)
        assert report["passed"]
        assert legs and {step for _, _, step, _ in legs} == {3e-4}

    @pytest.mark.parametrize("family, gamma, last", [
        pytest.param(family, gamma, (1.0, 1.47), id=f"{family}-{gamma}")
        for family, gamma in [("sine", 0.3), ("sine", 0.75), ("cosine", 0.3), ("sine", 0.1)]
    ] + [pytest.param("oscillatory", 1.0, (0.95, 0.96), id="oscillatory-1.0")])
    def test_coarse_steps_give_no_wrong_class(self, family, gamma, last):
        # at every step taken on a grid of 0.01 from 0.05, however coarse for the
        # drift, each side is undetermined rather than wrong; sine gamma = 0.1 takes
        # the steps to about 1.0169 and again from 1.179 to 1.4679, and the oscillatory
        # cycles k = 1..4 at gamma = 1 those to 0.95, the last taken in ``last``
        if family == "oscillatory":
            system = _family_system(gamma, family, alpha=0.3)
            roots = sorted(families.oscillatory_root(k) for k in range(1, 5))
        else:
            n = 3 if gamma == 0.1 else 2
            system = _family_system(gamma, family, n=n)
            roots = [float(k) for k in range(1, n + 1)] if family == "sine" else [2.0, 4.0]
        paper = [rep.stability for rep in reports_for_roots(system, roots)]
        eps = [probe_eps(y, roots[:i] + roots[i + 1:]) for i, y in enumerate(roots)]
        taken, wrong = [], []
        for step in (k / 100 for k in range(5, 300)):
            try:
                got = resolve_stability(system, np.array(roots), np.array(eps), step)
            except PWLError as exc:  # the step rule's refusal, or a failure
                wrong += [] if str(exc).startswith("step ") else [(step, exc)]
                continue
            taken.append(step)
            wrong += [(step, y, cls) for y, cls, expected in zip(roots, got, paper)
                      if cls not in (expected, StabilityClass.UNDETERMINED)]
        assert not wrong
        assert taken[0] == 0.05 and last[0] <= taken[-1] < last[1]

    def test_probe_validation(self, sine_system):
        with pytest.raises(DomainError):
            resolve_stability(sine_system, 1.0, eps=1.5)

    def test_probe_eps_respects_neighbors(self):
        r = [1.0 / (k * math.pi) for k in range(1, 6)]
        eps = probe_eps(r[4], r[:4])
        assert 0.0 < eps <= 0.25 * (r[3] - r[4])
        assert probe_eps(2.0, [1.0, 3.0]) == pytest.approx(0.1)


def _oscillatory_probes():
    """A sample of the probes of the oscillatory cycles k = 1..100 at gamma = 1."""
    roots = [families.oscillatory_root(k) for k in range(1, 101)]
    return [(roots[k - 1], probe_eps(roots[k - 1], roots[:k - 1] + roots[k:]))
            for k in (1, 2, 5, 12, 23, 34, 45, 56, 67, 78, 89, 95, 100)]


def _scan_error_and_bar(system, y, step):
    """|f - exact f| of the oracle's displacement at y and its error bar, the exact f
    from the flow's own legs from the oracle's start (h(y), y), at 40 digits."""
    f, bar, (one, two) = _probe_by_legs(system, y, step)
    with mpmath.workdps(40):
        g, start = mpmath.mpf(system.params.gamma), [mpmath.mpf(v) for v in one.points[0]]
        exact = (_mp_landing(g, -1, start, one.terminal_time)
                 - _mp_landing(g, 1, start, -two.terminal_time))
        return float(abs(mpmath.mpf(f) - exact)), bar


class TestErrorBar:
    """The error bars against the flow's own legs at 40 digits, at the probes of the
    stability check: the probe's own, both legs' ``integration_error`` + ``landing_error``,
    and that of the return-map turn from the probe's lower crossing."""

    @staticmethod
    def _check(system, cycles, step=1e-4):
        for y_star, eps in cycles:
            for side in (-1.0, 1.0):
                y = y_star + side * eps
                for what, (err, bar) in (("probe", _scan_error_and_bar(system, y, step)),
                                         ("turn", _turn_error_and_bar(
                                             system, _lower(system, y, step), step))):
                    assert err <= bar, (y_star, side, what, err, bar)

    @pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
    def test_bar_covers_the_verify_systems(self, name):
        system, roots, _ = VERIFY_SYSTEMS[name]()
        self._check(system, [(y, probe_eps(y, roots[:i] + roots[i + 1:]))
                             for i, y in enumerate(roots)])

    def test_bar_covers_the_cosine_fixture(self, cosine_system):
        self._check(cosine_system, [(2.0, probe_eps(2.0, [4.0])), (4.0, probe_eps(4.0, [2.0]))])

    def test_bar_covers_oscillatory_cycles_to_k_100(self, oscillatory_system):
        self._check(oscillatory_system, _oscillatory_probes())

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.2, 1.0), amps=st.lists(st.floats(0.02, 0.4), min_size=3, max_size=3),
           slopes=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
           tilts=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
           step=st.sampled_from([2e-5, 1e-4, 3e-4, 1e-3]))
    def test_bar_covers_table_systems(self, gamma, amps, slopes, tilts, step):
        # h has zeros at 1 and 2, so cycles there, and humps of either sign between
        samples = [[0, 0, slopes[0]], [0.5, amps[0], tilts[0]], [1, 0, -slopes[1]],
                   [1.5, -amps[1], tilts[1]], [2, 0, slopes[2]], [2.5, amps[2], tilts[2]],
                   [3, 0, -slopes[3]]]
        system = families.system_from_descriptor(
            {"gamma": gamma, "boundary": {"family": "table", "params": {"samples": samples}}})
        self._check(system, [(1.0, probe_eps(1.0, [2.0])), (2.0, probe_eps(2.0, [1.0]))], step)


def _outcome(call):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except PWLError as exc:
        return type(exc), str(exc)


class TestLockstepTurns:
    """The lockstep runner (``_stops``) against per-leg ``integrate_in_zone``
    legs, and the array forms of the turns against calls one value at a time."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(SKIP_FAMILIES)), zone=st.sampled_from(list(Zone)),
           direction=st.sampled_from(list(Direction)),
           legs=st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(-0.3, 0.3) | st.just(0.0),
                                   st.booleans(),
                                   st.sampled_from([1e-4, 2e-4, 1.3e-3]) | st.floats(1e-4, 5e-3)),
                         min_size=1, max_size=6),
           counted=st.booleans(), max_time=st.sampled_from([10.0, 3.0]))
    def test_legs_equal_per_leg_integration(self, family, zone, direction, legs, counted,
                                            max_time):
        # starts next to (or on) the curve, or as far below the axis, so that
        # both stops meet the curve, the section, a tangent start or a time-out;
        # the legs of each drawn step are one batch, counted or not
        system = SKIP_FAMILIES[family]()
        starts = [Point(dx, -y) if below else Point(float(system.boundary.evaluate(y)) + dx, y)
                  for y, dx, below, _ in legs]
        todo = [(start, step, y) for start, (y, _, _, step) in zip(starts, legs)]
        with mock.patch.object(orc, "MAX_TIME", max_time):
            for step in dict.fromkeys(step for _, step, _ in todo):
                batch = [(start, y) for start, s, y in todo if s == step]
                got = orc._ends(system, zone, direction, batch, step, counted)
                for leg, (start, y) in zip(got, batch):
                    ref = _outcome(lambda: _leg_bits(_leg_by_integration(
                        system, zone, start, direction, step, y, counted)))
                    assert (_leg_bits(leg.segment(zone)) if isinstance(leg, orc._Leg)
                            else (type(leg), str(leg))) == ref

    def test_a_leg_the_boundary_fails_leaves_the_others_their_bits(self, monkeypatch):
        # the boundary is not finite on the first leg's rows, so a chunk that the
        # last leg also settles raises, each leg takes it again alone, and only
        # the first leg fails
        system, step = SKIP_FAMILIES["oscillatory"](), 0.001953125
        starts = [Point(0.0, -2.2250738585072014e-308), Point(0.0, -0.5), Point(0.0, -1.0),
                  Point(0.3, -0.2), Point(0.3, -0.5)]
        raised, settle = [], orc._settle

        def settling(*args):
            try:
                return settle(*args)
            except PWLError:
                raised.append(args[7])
                raise

        monkeypatch.setattr(orc, "_settle", settling)
        legs = orc._stops(system, Zone.LEFT, Direction.FORWARD, starts, step, True)
        assert [len(take) for take in raised] == [2, 1]  # the batch, then the first leg alone
        alone = [_outcome(lambda: _leg_bits(integrate_in_zone(system, Zone.LEFT, p,
                                                              Direction.FORWARD, step,
                                                              record_stride=0)))
                 for p in starts]
        assert isinstance(legs[0], EvaluationError) and alone[0] == (type(legs[0]), str(legs[0]))
        assert [_leg_bits(leg.segment(Zone.LEFT)) for leg in legs[1:]] == alone[1:]

    def test_array_calls_raise_the_error_of_the_float_call(self, oscillatory_system):
        # 1/y overflows at y = 1e-309, so h is not finite there
        with pytest.raises(EvaluationError) as info:
            numeric_displacement(oscillatory_system, np.array([0.5, 1e-309]))
        assert str(info.value) == "boundary value not finite at y=1e-309"
        assert _outcome(lambda: numeric_displacement(oscillatory_system, 1e-309)) == (
            EvaluationError, str(info.value))

    def test_a_boundary_that_raises_fails_only_its_own_start(self, sine_system, monkeypatch):
        # h raises at y = 2.05, the outer probe of y* = 2 and a scan ordinate, and with
        # MAX_TIME = 2.5 the first legs of y = 1 and of y* = 1 time out first
        def evaluate(y):
            if np.ndim(y) == 0 and float(y) == 2.05:
                raise DomainError("h fails at y=2.05")
            return sine_system.boundary.evaluate(y)

        system = PWLSystem(sine_system.params, Boundary(
            evaluate, sine_system.boundary.derivative, sine_system.boundary.descriptor,
            sine_system.boundary.envelope, sine_system.boundary.slope_envelope))
        monkeypatch.setattr(orc, "MAX_TIME", 2.5)
        for call, values in ((lambda y: numeric_displacement(system, y), [1.0, 2.05]),
                             (lambda y: resolve_stability(system, y, 0.05), [1.0, 2.0])):
            got = _outcome(lambda: call(np.array(values)))
            assert got == _outcome(lambda: [call(y) for y in values])
            assert got[0] is IntegrationError, got
        assert _outcome(lambda: numeric_displacement(system, 2.05)) == (DomainError,
                                                                       "h fails at y=2.05")

    @pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
    def test_many_axis_landings_land_as_arrays_with_the_bits_of_legs(self, name, monkeypatch):
        # the displacement's 40 starts in both zones, counted or not: the legs
        # land on the section in one array Illinois, and every leg has the end
        # point, time, counters and landing error of its own leg
        system = VERIFY_SYSTEMS[name]()[0]
        ys = np.linspace(0.05, 1.0, 40) if name == "oscillatory" else np.linspace(0.1, 4.0, 40)
        landed = []
        land = orc._land_on_axis
        monkeypatch.setattr(orc, "_land_on_axis",
                            lambda matrix, x, step: landed.append(len(x)) or land(matrix, x, step))
        starts = [Point(float(system.boundary.evaluate(y)), y) for y in ys]
        for zone, direction in ((Zone.LEFT, Direction.FORWARD), (Zone.RIGHT, Direction.BACKWARD)):
            for counted in (False, True):
                landed.clear()
                legs = orc._stops(system, zone, direction, starts, 1e-4, counted)
                assert landed == [len(ys)]
                for leg, p in zip(legs, starts):
                    assert _leg_bits(leg.segment(zone)) == _leg_bits(integrate_in_zone(
                        system, zone, p, direction, 1e-4, record_stride=0,
                        _count_crossings=counted))

    def test_arrays_give_the_results_of_floats(self, sine_system):
        y_ins = [-0.2, -EXP_M_075PI, -2.0 * EXP_M_075PI]
        turns = return_map(sine_system, np.array(y_ins))
        assert turns == [return_map(sine_system, y) for y in y_ins]
        assert return_map(sine_system, np.array([])) == []
        disp = numeric_displacement(sine_system, np.array([0.5, 1.5, 2.5]))
        assert disp.tolist() == [numeric_displacement(sine_system, y) for y in (0.5, 1.5, 2.5)]
        classes = resolve_stability(sine_system, np.array([1.0, 2.0]), np.array([0.05, 0.1]))
        assert classes == [StabilityClass.UNSTABLE, StabilityClass.STABLE]
        assert resolve_stability(sine_system, np.array([1.0, 2.0]), 0.05) == classes
        for call in (lambda: return_map(sine_system, np.ones((2, 2))),
                     lambda: resolve_stability(sine_system, np.array([1.0, 2.0]),
                                               np.array([0.05, 0.05, 0.05]))):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("max_time", [orc.MAX_TIME, 2.5])
    @pytest.mark.parametrize("plant", [(), ("probe",), ("turn",), ("turn", "eps"), ("eps",),
                                       ("y_in",)])
    def test_array_calls_raise_what_calls_in_order_raise(self, sine_system, monkeypatch,
                                                         max_time, plant):
        # A short MAX_TIME times out the first leg.  A zero rate planted at
        # y = 1 and 2, where |h| <= EVENT_TOL, makes tangent both leg starts of the probes
        # of y* = 1.5 at eps = 0.5.  With y* = 1.05 first, one planted at y = 1
        # only where y falls makes tangent the start of the inner probe's second
        # leg alone: h(1) > 0, so y rises from (h(1), 1) on the forward-left leg and
        # falls on the backward-right leg and on its mirror image from (-h(1), 1).
        # The first cycle fails there while the third refuses its eps.
        stars, eps = [1.0, 1.5 if "probe" in plant else 1.2, 2.0], [0.05, 0.5, 0.05]
        if "eps" in plant:
            eps[2] = 3.0
        tangent = ({(y, rises) for y in (1.0, 2.0) for rises in (False, True)}
                   if "probe" in plant else set())
        if "turn" in plant:
            stars[0] = 1.05
            tangent.add((stars[0] - eps[0], False))

        def rate(system, axis, matrix, x):
            dgdt, vel = _EVENT_RATE(system, axis, matrix, x)
            return (0.0, vel) if (float(x[1]), bool(vel[1] > 0.0)) in tangent else (dgdt, vel)

        monkeypatch.setattr(orc, "_event_rate", rate)
        monkeypatch.setattr(orc, "MAX_TIME", max_time)
        y_ins = [-0.2, 0.3 if "y_in" in plant else -0.4, -0.6]

        def in_order(call, values):
            return [call(*v) for v in values]

        got = _outcome(lambda: resolve_stability(sine_system, np.array(stars), np.array(eps)))
        assert got == _outcome(lambda: in_order(lambda y, e: resolve_stability(sine_system, y, e),
                                                zip(stars, eps)))
        if plant == ("turn",) and max_time != 2.5:  # at 2.5 a first leg times out first
            # the second leg's refusal names its own start, as its own leg does
            start = Point(float(sine_system.boundary.evaluate(1.0)), 1.0)
            assert got == _outcome(lambda: integrate_in_zone(
                sine_system, Zone.RIGHT, start, Direction.BACKWARD, record_stride=0,
                _count_crossings=False))
        assert (_outcome(lambda: return_map(sine_system, np.array(y_ins)))
                == _outcome(lambda: in_order(lambda y: return_map(sine_system, y),
                                             [(y,) for y in y_ins])))
        probes = [y + side * e for y, e in zip(stars, eps) for side in (-1.0, 1.0)]
        assert (_outcome(lambda: numeric_displacement(sine_system, np.array(probes)).tolist())
                == _outcome(lambda: in_order(lambda y: numeric_displacement(sine_system, y),
                                             [(y,) for y in probes])))

    @pytest.mark.parametrize("max_time", [orc.MAX_TIME, 2.5, 3.5, 5.0, 6.5])
    def test_verify_raises_what_one_cycle_at_a_time_raises(self, monkeypatch, max_time):
        system, roots, _ = VERIFY_SYSTEMS["oscillatory"]()
        cycles = reports_for_roots(system, roots)
        ys = np.linspace(0.05, 1.0, 5)
        monkeypatch.setattr(orc, "MAX_TIME", max_time)

        def one_at_a_time():
            stars = [c.y_star for c in cycles]
            for i, rep in enumerate(cycles):
                return_map(system, rep.lower_crossing.y)
                resolve_stability(system, rep.y_star, probe_eps(rep.y_star,
                                                                stars[:i] + stars[i + 1:]))
            return "passed"

        got = _outcome(lambda: verify(system, cycles, ys, 1e-4, 1e-6))
        ref = _outcome(one_at_a_time)
        assert got == ref if isinstance(ref, tuple) else isinstance(got, dict)

    def test_verify_raises_a_cycles_probe_error_before_a_later_cycles_turn(self, sine_system):
        # h fails at the outer probe y = 1.05 of y* = 1, and at the float points near
        # y = 2 where the fixed-point turn of y* = 2 lands on the switching curve: the
        # batch of turns fails first, yet verify raises what y* = 1 alone meets
        def evaluate(y):
            if np.ndim(y) == 0 and (float(y) == 1.05 or 1.99 < float(y) < 2.01):
                raise DomainError(f"h fails at y={float(y)!r}")
            return sine_system.boundary.evaluate(y)

        system = PWLSystem(sine_system.params, Boundary(
            evaluate, sine_system.boundary.derivative, sine_system.boundary.descriptor,
            sine_system.boundary.envelope, sine_system.boundary.slope_envelope))
        cycles = reports_for_roots(system, [1.0, 2.0])
        turns = _outcome(lambda: return_map(system, np.array([c.lower_crossing.y for c in cycles])))
        assert turns[0] is DomainError and turns[1] != "h fails at y=1.05"
        assert _outcome(lambda: verify(system, cycles, [1.5], 1e-4, 1e-6)) == (
            DomainError, "h fails at y=1.05")


def _entry_point_calls(system, step):
    """A call of each oracle entry point that takes ``step``, and of ``verify``, whose
    first oracle call is ``return_map``."""
    return (lambda: numeric_displacement(system, 1.5, step),
            lambda: numeric_displacement(system, np.zeros(0), step),
            lambda: return_map(system, -1.0, step),
            lambda: resolve_stability(system, 2.0, 0.05, step),
            lambda: integrate_in_zone(system, Zone.LEFT, Point(0.0, 1.0), step=step),
            lambda: propagate_fixed(system, Zone.LEFT, Point(0.0, 1.0), 1.0, step=step),
            lambda: verify(system, reports_for_roots(system, [1.0, 2.0]), [1.5], step, 1e-6))


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
                orc._check_step(zero_system.params, step)
            with pytest.raises(DomainError, match="^step must"):
                integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0), step=step)
            with pytest.raises(DomainError, match="^step must"):
                propagate_fixed(zero_system, Zone.RIGHT, Point(0.4, -0.6), 1.0, step=step)
        assert orc._check_step(zero_system.params, orc.MIN_STEP) == orc.MIN_STEP

    @pytest.mark.parametrize("step", [0.0, math.nan, -1e-4, math.inf, orc.MIN_STEP / 2])
    def test_entry_points_refuse_a_bad_step(self, sine_system, step):
        # each entry point checks the step before it runs a leg or sizes a chunk
        message = f"step must be finite and at least {orc.MIN_STEP!r}, got {step!r}"
        for call in _entry_point_calls(sine_system, step):
            assert _outcome(call) == (DomainError, message)

    @pytest.mark.parametrize("step", [math.nextafter(50.0, math.inf), 200.0, 1e80, 1e300])
    def test_entry_points_refuse_a_step_no_leg_can_take(self, sine_system, monkeypatch, step):
        # RK4 grows the contracting zone at any step above about 2.8 for every gamma; at
        # 1e80 its growth overflows to inf and from about 1e154 it is NaN, and from about
        # 5.6e38 a plan's discriminant would overflow: every entry point refuses such a
        # step before any plan is built, with no numpy warning
        monkeypatch.setattr(orc, "_plan", lambda *a: pytest.fail("a plan was built"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in _entry_point_calls(sine_system, step):
                kind, message = _outcome(call)
                assert kind is DomainError
                assert message.startswith(f"step {step!r} is too large for RK4 at gamma=0.75")

    def test_the_largest_step_runs_the_stability_check_at_it_alone(self, sine_system,
                                                                  monkeypatch):
        # about 1.0515 is the largest step taken at gamma 0.75, where RK4 at twice it
        # still keeps the contracting zone contracting; the stability check runs its
        # legs at that step and at no other
        step = 1.0515
        assert orc._check_step(sine_system.params, step) == step
        with pytest.raises(DomainError, match="^step 2.1032 is too large for RK4 at gamma=0.75"):
            orc._check_step(sine_system.params, 1.0516)
        legs = _legs_run(monkeypatch)
        assert resolve_stability(sine_system, 2.0, 0.05, step) in StabilityClass
        assert {step for *_, step, _ in legs} == {step}

    @pytest.mark.parametrize("gamma", [0.1, 0.75, 3.0])
    def test_rk4_growth_is_the_transfer_eigenvalue(self, gamma):
        # |R(step*(sigma + i))| is the modulus of each zone's one-step map in either
        # direction, and a step is refused exactly where it lies across 1 from the
        # flow's, at the step or at twice it
        params = SystemParams(gamma)
        for step in np.geomspace(1e-3, 5.0, 60).tolist():
            refused = _outcome(lambda: orc._check_step(params, step)) != step
            wrong = False
            for h in (step, 2.0 * step):
                for zone in Zone:
                    for sign in (1.0, -1.0):
                        lam = np.linalg.eigvals(
                            _step_transfer(sign * orc.zone_matrix(params, zone), h))
                        sigma = sign * zone.sign * gamma
                        z = h * complex(sigma, 1.0)
                        growth = abs(1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24)
                        assert np.abs(lam) == pytest.approx([growth, growth], rel=1e-12)
                        wrong |= (growth > 1.0) != (sigma > 0.0)
            assert refused == wrong, (gamma, step)

    @pytest.mark.parametrize("gamma, last, first", [(0.75, 1.0515, 1.0516), (0.1, 1.0169, 1.017)])
    def test_rk4_step_bound_where_measured(self, gamma, last, first):
        # the first refusal is twice the step's: at gamma 0.75 RK4 grows the contracting
        # zone from about 2.103, and at gamma 0.1 it decays the expanding one from about
        # 2.034 to 2.358, so steps from about 1.179 to 1.4679 are taken again there
        params = SystemParams(gamma)
        assert orc._check_step(params, last) == last
        with pytest.raises(DomainError, match=f"^step {2.0 * first!r} is too large for RK4 at "
                                              f"gamma={gamma!r}"):
            orc._check_step(params, first)
        for step in (1.179, 1.4675) if gamma == 0.1 else ():
            assert orc._check_step(params, step) == step
        for step in (1.1788, 1.468) if gamma == 0.1 else ():
            with pytest.raises(DomainError, match="^step .* is too large for RK4"):
                orc._check_step(params, step)

    @settings(max_examples=300, deadline=None)
    @given(gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
           step=st.floats(math.log10(orc.MIN_STEP), math.log10(60.0)).map(lambda e: 10.0 ** e))
    @example(gamma=0.1, step=2.48)  # the one-step spectrum is about real, and refused
    @example(gamma=0.1, step=1.4675)
    @example(gamma=1e-3, step=1.4)
    @example(gamma=1e3, step=1e-5)
    def test_every_step_taken_turns_each_chunk_by_less_than_the_hop_bound(self, gamma, step):
        # what lets the runner keep one path: at every step taken, each zone and
        # direction has a complex one-step spectrum that turns forward, and a chunk
        # turns by less than _MAX_HOP_TURN, so rules 1 and 2 may hop it
        params = SystemParams(gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if _outcome(lambda: orc._check_step(params, step)) != step:
                return
            chunk = max(1, math.ceil(orc._BLOCK_TIME / step))
            for zone in Zone:
                for forward in (True, False):
                    plan = _plan(params, zone, forward, step, chunk)
                    assert len(plan.powers) == chunk + 1 and np.isfinite(plan.powers).all()
                    assert 0.0 < plan.turn and chunk * plan.turn < orc._MAX_HOP_TURN

    def test_entry_points_refuse_a_step_rk4_cannot_take(self, sine_system, monkeypatch):
        # at step 10 and gamma 0.75 RK4 grows the contracting zone by a factor of about
        # 830 a step: every entry point refuses it before any plan is built
        monkeypatch.setattr(orc, "_plan", lambda *a: pytest.fail("a plan was built"))
        for call in _entry_point_calls(sine_system, 10.0):
            kind, message = _outcome(call)
            assert kind is DomainError
            assert message.startswith("step 10.0 is too large for RK4 at gamma=0.75")

    def test_stability_check_refuses_a_step_rk4_cannot_double(self, sine_system, monkeypatch):
        # 1.2 is a step RK4 takes at gamma 0.75, and 2.4 is not: the stability check
        # refuses 1.2, and every other entry point refuses it as well, before any plan
        # is built
        monkeypatch.setattr(orc, "_plan", lambda *a: pytest.fail("a plan was built"))
        for call in _entry_point_calls(sine_system, 1.2):
            kind, message = _outcome(call)
            assert kind is DomainError
            assert message.startswith("step 2.4 is too large for RK4 at gamma=0.75")

    def test_non_finite_starts_are_refused(self, sine_system):
        for start in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, -1.0)):
            with pytest.raises(DomainError, match="^non-finite start point"):
                integrate_in_zone(sine_system, Zone.LEFT, Point(*start), record_stride=0)

    def test_resolve_stability_refuses_a_non_positive_y_star(self, sine_system):
        for y_star in (0.0, -1.0, math.nan):
            for value in (y_star, np.array([2.0, y_star])):
                with pytest.raises(DomainError, match="^y_star must be positive"):
                    resolve_stability(sine_system, value, 0.05)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308],
        [0.0005, 2.0625, -2.0625, 0.1 + 0.2, 1.0 / 3.0, 123456789012.5, 999999999999.5, 1e-5],
        [math.nan, math.inf, -math.inf, -math.nan, 1e16, 12345678901234567.0, 0.5, -0.0],
    ])
    def test_csv_matches_csv_writer_reference(self, values):
        rng = np.random.default_rng(7)
        segs = []
        for zone in (Zone.LEFT, Zone.RIGHT, Zone.LEFT):
            vals = rng.permutation(np.array(values * 3))
            segs.append(orc.TrajectorySegment(zone, vals[:8].copy(), vals[8:24].reshape(8, 2),
                                              TerminalEvent.AXIS_CROSS))
        segs.append(orc.TrajectorySegment(Zone.RIGHT, np.zeros(0), np.zeros((0, 2)),
                                          TerminalEvent.TIME_OUT))
        assert segments_to_csv(segs) == _csv_reference(segs)
        assert segments_to_csv([]) == _csv_reference([]) == "t,x,y,zone\n"

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=20),
           zone=st.sampled_from(list(Zone)))
    def test_csv_matches_reference_on_any_floats(self, rows, zone):
        values = np.array(rows, dtype=float).reshape(-1, 3)
        seg = orc.TrajectorySegment(zone, values[:, 0].copy(), values[:, 1:].copy(),
                                    TerminalEvent.BOUNDARY_CROSS)
        assert segments_to_csv([seg, seg]) == _csv_reference([seg, seg])

    def test_csv_of_portrait_orbits_matches_reference(self, sine_system):
        from pwlcycles import sample_orbit
        segs = [seg for seed in (Point(0.0, 2.3), Point(0.0, 0.4))
                for seg in sample_orbit(sine_system, seed, 2)]
        assert segments_to_csv(segs) == _csv_reference(segs)

    @pytest.mark.parametrize("block", [1, 5, 7, 1024])
    def test_csv_blocks_cut_anywhere(self, sine_system, monkeypatch, block):
        from pwlcycles import sample_orbit
        segs = sample_orbit(sine_system, Point(0.0, 1.5), 1)[:3]
        segs = [orc.TrajectorySegment(s.zone, s.times[:9], s.points[:9], s.terminal_event)
                for s in segs]
        monkeypatch.setattr(orc, "_CSV_BLOCK", block)
        assert segments_to_csv(segs) == _csv_reference(segs)

    def test_csv_export(self, zero_system):
        seg = integrate_in_zone(zero_system, Zone.LEFT, Point(0.0, 1.0),
                                step=1e-3, record_stride=200)
        text = segments_to_csv([seg])
        lines = text.strip().split("\n")
        assert lines[0] == "t,x,y,zone"
        assert lines[1].endswith(",left")
        assert len(lines) == 1 + len(seg.times)


def _csv_reference(segments) -> str:
    """The CSV export written one row at a time through ``csv.writer``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("t", "x", "y", "zone"))
    for seg in segments:
        for t, p in zip(seg.times, seg.points):
            w.writerow((f"{t:.12g}", f"{p[0]:.12g}", f"{p[1]:.12g}", seg.zone.value))
    return buf.getvalue()
