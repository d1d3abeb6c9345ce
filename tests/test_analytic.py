import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_system
from pwlcycles import (
    Boundary,
    DomainError,
    HypothesisError,
    Point,
    PWLSystem,
    SystemParams,
    Zone,
    crossing_time_left,
    crossing_time_right,
    delta,
    displacement,
    displacement_f3_at_root,
    flow,
    left_exit_y,
    make_sine,
    right_entry_y,
)
from pwlcycles.analytic import _boundary_offset, _landing_y
from pwlcycles.core import EvaluationError, PWLError, zone_matrix

EXP_M_075PI = 0.09478022484215486


def linear_offset_system(gamma: float, slope: float) -> PWLSystem:
    """Hand-built boundary h(y) = slope*y with exact derivative."""
    params = SystemParams(gamma)
    b = Boundary(
        evaluate=lambda y: slope * np.asarray(y, dtype=float) + 0.0,
        derivative=lambda y: np.full_like(np.asarray(y, dtype=float), slope),
    )
    return PWLSystem(params, b)


class TestFlow:
    def test_identity_at_zero_time(self, params075):
        rng = np.random.default_rng(3)
        for zone in Zone:
            for x, y in rng.uniform(-2, 2, size=(32, 2)):
                assert flow(zone, 0.0, Point(x, y), params075) == Point(x, y)

    @pytest.mark.parametrize("as_list", [False, True])
    def test_array_of_times_has_the_bits_of_each_float_time(self, params075, as_list):
        ts = np.concatenate(([0.0, -0.0, math.pi, -math.pi, 1e-300, -2.5],
                             np.random.default_rng(7).uniform(-20.0, 20.0, 64)))
        for zone in Zone:
            for p in (Point(0.3, -1.7), Point(-2.5, 0.0), Point(0.0, 1.25)):
                got = flow(zone, ts.tolist() if as_list else ts, p, params075)
                ref = np.array([flow(zone, t, p, params075) for t in ts.tolist()])
                assert np.column_stack(got).tobytes() == ref.tobytes()

    def test_left_half_turn_from_axis(self, params075):
        # a left half-turn maps (0, y) to (0, -exp(-gamma*pi)*y)
        for y in (0.5, 1.0, 2.0):
            end = flow(Zone.LEFT, math.pi, Point(0.0, y), params075)
            assert abs(end.x) < 1e-15 * y
            assert end.y == pytest.approx(-EXP_M_075PI * y, rel=1e-15)

    def test_group_property(self, params075):
        rng = np.random.default_rng(5)
        for zone in Zone:
            for _ in range(64):
                ang = rng.uniform(0, 2 * math.pi)
                r = math.sqrt(rng.uniform(0, 1))
                p = Point(r * math.cos(ang), r * math.sin(ang))
                s, t = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
                a = flow(zone, s, flow(zone, t, p, params075), params075)
                b = flow(zone, s + t, p, params075)
                assert abs(a.x - b.x) < 1e-10 and abs(a.y - b.y) < 1e-10

    def test_ode_residual_second_order(self, params075):
        # central difference of the flow must converge at order eps^2 to A x(t)
        p = Point(0.3, -0.8)
        t = 0.9
        for zone in Zone:
            a = zone_matrix(params075, zone)
            xt = flow(zone, t, p, params075)
            exact = a @ [xt.x, xt.y]

            def residual(eps):
                hi = flow(zone, t + eps, p, params075)
                lo = flow(zone, t - eps, p, params075)
                fd = [(hi.x - lo.x) / (2 * eps), (hi.y - lo.y) / (2 * eps)]
                return float(np.max(np.abs(np.subtract(fd, exact))))

            r1, r2 = residual(2e-3), residual(1e-3)
            assert 3.5 < r1 / r2 < 4.5

    def test_matches_refined_integration(self, params075):
        from pwlcycles.oracle import propagate_fixed
        system = PWLSystem(params075, __import__("pwlcycles").make_zero())
        target = flow(Zone.RIGHT, 0.3, Point(0.1, 1.0), params075)
        coarse = propagate_fixed(system, Zone.RIGHT, Point(0.1, 1.0), 0.3, step=1e-3)
        fine = propagate_fixed(system, Zone.RIGHT, Point(0.1, 1.0), 0.3, step=5e-4)
        assert abs(coarse.x - fine.x) < 1e-10 and abs(coarse.y - fine.y) < 1e-10
        assert abs(fine.x - target.x) < 1e-10 and abs(fine.y - target.y) < 1e-10


class TestCrossingTimes:
    def test_zero_offset_gives_pi(self, zero_system):
        for y in (0.2, 1.0, 3.0):
            assert crossing_time_left(y, zero_system) == pytest.approx(math.pi, abs=1e-15)
            assert crossing_time_right(y, zero_system) == pytest.approx(-math.pi, abs=1e-15)

    def test_frozen_linear_offset(self):
        system = linear_offset_system(1.0, 0.1)
        assert crossing_time_left(1.0, system) == pytest.approx(3.232252540790538, abs=1e-14)
        assert crossing_time_right(1.0, system) == pytest.approx(-3.0309354324158972, abs=1e-14)

    def test_signs_follow_offset(self, sine_system):
        assert crossing_time_left(0.5, sine_system) > math.pi        # h(0.5) > 0
        assert crossing_time_left(1.5, sine_system) < math.pi        # h(1.5) < 0
        assert crossing_time_right(0.5, sine_system) > -math.pi
        assert crossing_time_right(1.5, sine_system) < -math.pi

    def test_quadrant_bounds(self, sine_system, oscillatory_system):
        for system, ys in ((sine_system, np.linspace(0.1, 4.0, 40)),
                           (oscillatory_system, np.linspace(0.05, 1.0, 40))):
            for y in ys:
                tl = crossing_time_left(float(y), system)
                tr = crossing_time_right(float(y), system)
                assert math.pi / 2 < tl < 3 * math.pi / 2
                assert -3 * math.pi / 2 < tr < -math.pi / 2

    def test_event_times_match_integrator(self):
        from pwlcycles import oracle
        system = linear_offset_system(1.0, 0.1)
        seg = oracle.integrate_in_zone(system, Zone.LEFT, Point(0.1, 1.0), record_stride=0)
        assert seg.terminal_time == pytest.approx(crossing_time_left(1.0, system), abs=1e-8)
        seg = oracle.integrate_in_zone(system, Zone.RIGHT, Point(0.1, 1.0),
                                       direction=oracle.Direction.BACKWARD, record_stride=0)
        assert seg.terminal_time == pytest.approx(-crossing_time_right(1.0, system), abs=1e-8)

    def test_amplitude_bound_enforced(self):
        system = linear_offset_system(0.75, 2.0)  # |h| = 2y > y/gamma
        with pytest.raises(HypothesisError):
            crossing_time_left(1.0, system)
        with pytest.raises(HypothesisError):
            crossing_time_right(1.0, system)

    def test_domain_validation(self, sine_system):
        with pytest.raises(DomainError):
            crossing_time_left(0.0, sine_system)
        with pytest.raises(DomainError):
            crossing_time_left(-1.0, sine_system)


class TestHalfReturns:
    def test_zero_offset_closed_form(self, zero_system):
        for y in (0.5, 1.0, 2.5):
            assert left_exit_y(y, zero_system) == pytest.approx(-EXP_M_075PI * y, rel=1e-15)
            assert right_entry_y(y, zero_system) == pytest.approx(-EXP_M_075PI * y, rel=1e-15)

    def test_sine_roots_hit_theorem_points(self, sine_system):
        assert left_exit_y(1.0, sine_system) == pytest.approx(-EXP_M_075PI, abs=1e-13)
        assert right_entry_y(2.0, sine_system) == pytest.approx(-2.0 * EXP_M_075PI, abs=1e-13)

    def test_consistency_with_flow(self, sine_system, oscillatory_system):
        for system, ys in ((sine_system, (0.5, 1.3, 2.6)),
                           (oscillatory_system, (0.09, 0.2, 0.7))):
            for y in ys:
                h = float(system.boundary.evaluate(y))
                p = Point(h, y)
                end_l = flow(Zone.LEFT, crossing_time_left(y, system), p, system.params)
                assert abs(end_l.x) < 1e-12
                assert end_l.y < 0.0
                assert end_l.y == pytest.approx(left_exit_y(y, system), abs=1e-12)
                end_r = flow(Zone.RIGHT, crossing_time_right(y, system), p, system.params)
                assert abs(end_r.x) < 1e-12
                assert end_r.y < 0.0
                assert end_r.y == pytest.approx(right_entry_y(y, system), abs=1e-12)

    def test_always_negative(self, sine_system):
        for y in np.linspace(0.1, 4.0, 50):
            assert left_exit_y(float(y), sine_system) < 0.0
            assert right_entry_y(float(y), sine_system) < 0.0


class TestDisplacement:
    def test_zero_boundary_identically_zero(self, zero_system):
        for y in np.linspace(0.05, 5.0, 60):
            assert displacement(float(y), zero_system) == 0.0

    def test_vanishes_at_sine_roots(self, sine_system):
        assert displacement(1.0, sine_system) == pytest.approx(0.0, abs=1e-15)
        assert displacement(2.0, sine_system) == pytest.approx(0.0, abs=1e-15)

    def test_sign_matches_offset(self, sine_system, cosine_system, oscillatory_system):
        from conftest import sign_safe_grid
        grids = {
            id(sine_system): sign_safe_grid(0.11, 3.97, 200, (1.0, 2.0), 0.01),
            id(cosine_system): sign_safe_grid(0.11, 5.97, 200, (2.0, 4.0), 0.02),
            id(oscillatory_system): sign_safe_grid(
                0.05, 0.99, 200, [1.0 / (k * math.pi) for k in range(1, 7)], 0.004),
        }
        for system in (sine_system, cosine_system, oscillatory_system):
            for y in grids[id(system)]:
                h = float(system.boundary.evaluate(float(y)))
                f = displacement(float(y), system)
                assert math.copysign(1.0, f) == math.copysign(1.0, h)

    def test_positive_value_against_oracle(self, sine_system):
        from pwlcycles.oracle import numeric_displacement
        f = displacement(0.5, sine_system)
        assert f > 0.0
        assert f == pytest.approx(numeric_displacement(sine_system, 0.5), abs=1e-6)

    def test_period_exactly_two_pi_at_roots(self, sine_system, oscillatory_system):
        for system, roots in ((sine_system, (1.0, 2.0)),
                              (oscillatory_system, tuple(1.0 / (k * math.pi) for k in (1, 2, 3)))):
            for y in roots:
                total = crossing_time_left(y, system) - crossing_time_right(y, system)
                assert total == pytest.approx(2.0 * math.pi, abs=1e-14)


def _outcome(fn, *args):
    """fn's value as bits, or its error as (type, message)."""
    try:
        return struct.pack("<d", fn(*args))
    except PWLError as exc:
        return type(exc), str(exc)


def _two_landings(y: float, system: PWLSystem) -> float:
    """The displacement as two calls of the arc kernel."""
    h = _boundary_offset(y, system)
    return _landing_y(y, -h, system.gamma) - _landing_y(y, h, system.gamma)


class TestDisplacementKernel:
    """``displacement`` writes out ``_boundary_offset`` and two ``_landing_y`` arcs."""

    @settings(max_examples=400, deadline=None)
    @given(family=st.sampled_from(["sine", "cosine", "oscillatory", "table", "cone"]),
           gamma=st.floats(0.05, 3.0), n=st.integers(1, 4), alpha=st.floats(0.01, 0.36),
           cone=st.integers(1, 40).map(lambda k: 1.0 - 2.0 ** -k) | st.floats(-1.0, 1.0),
           sign=st.sampled_from([1.0, -1.0]), y=st.floats(1e-6, 10.0))
    def test_bits_equal_the_two_landings(self, family, gamma, n, alpha, cone, sign, y):
        system = kernel_system(family, gamma, n, alpha, sign * cone)
        assert _outcome(displacement, y, system) == _outcome(_two_landings, y, system)

    @pytest.mark.parametrize("y", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1.0])
    @pytest.mark.parametrize("h", ["sine", "nan", "inf", "-inf", "outside the cone"])
    def test_errors_are_those_of_the_boundary_offset(self, params075, y, h):
        # y is checked before h is evaluated, and h's finiteness before the cone
        evaluate = {"sine": make_sine(params075, 2).evaluate,
                    "nan": lambda y: math.nan, "inf": lambda y: math.inf,
                    "-inf": lambda y: -math.inf,
                    "outside the cone": lambda y: 2.0 * y / 0.75}[h]
        system = PWLSystem(params075, Boundary(evaluate=evaluate, derivative=evaluate))
        got = _outcome(displacement, y, system)
        assert got == _outcome(_two_landings, y, system)
        expected = (DomainError if not (math.isfinite(y) and y > 0.0) else
                    bytes if h == "sine" else
                    HypothesisError if h == "outside the cone" else EvaluationError)
        assert (type(got) if isinstance(got, bytes) else got[0]) is expected


class TestDelta:
    def test_at_zero_offset(self, params075):
        for y in (0.3, 1.0, 4.0):
            assert delta(y, 0.0, params075) == y

    def test_frozen_value(self):
        assert delta(1.0, 0.3, SystemParams(0.5)) == pytest.approx(1.0680415292397025, abs=1e-15)

    def test_domain_error(self, params075):
        with pytest.raises(DomainError):
            delta(1.0, 1.0 / 0.75, params075)
        with pytest.raises(DomainError):
            delta(1.0, -2.0, params075)
        with pytest.raises(DomainError):
            delta(-1.0, 0.0, params075)

    def test_antisymmetry_of_odd_part(self, params075):
        rng = np.random.default_rng(17)
        for _ in range(200):
            y = rng.uniform(0.1, 3.0)
            x = rng.uniform(-0.99, 0.99) * y / params075.gamma
            f_pos = delta(y, x, params075) - delta(y, -x, params075)
            f_neg = delta(y, -x, params075) - delta(y, x, params075)
            assert abs(f_pos + f_neg) < 1e-12

    def test_reproduces_displacement(self, sine_system, oscillatory_system):
        # f(y) = exp(-pi*gamma) * (delta_y(h) - delta_y(-h))
        for system, ys in ((sine_system, np.linspace(0.15, 3.9, 60)),
                           (oscillatory_system, np.geomspace(0.05, 0.95, 60))):
            g = system.gamma
            for y in ys:
                y = float(y)
                h = float(system.boundary.evaluate(y))
                via_delta = math.exp(-math.pi * g) * (
                    delta(y, h, system.params) - delta(y, -h, system.params))
                f = displacement(y, system)
                assert via_delta == pytest.approx(f, abs=1e-12 * max(1.0, abs(f)))

    def test_monotonicity_engine_positive(self):
        # the derivative of delta^2(x) - delta^2(-x) printed as
        # 2x(1+g^2)(e^{2g atan(x/(y-gx))} - e^{-2g atan(x/(y+gx))}) is positive
        rng = np.random.default_rng(23)
        for _ in range(300):
            g = rng.uniform(0.05, 2.0)
            y = rng.uniform(0.1, 3.0)
            x = rng.uniform(1e-6, 0.999) * y / g
            term = 2 * x * (1 + g * g) * (
                math.exp(2 * g * math.atan(x / (y - g * x)))
                - math.exp(-2 * g * math.atan(x / (y + g * x))))
            assert term > 0.0

    def test_squared_difference_increasing(self, params075):
        g = params075.gamma
        y = 1.7
        xs = np.linspace(1e-4, 0.98 * y / g, 50)
        vals = [delta(y, float(x), params075) ** 2 - delta(y, -float(x), params075) ** 2
                for x in xs]
        assert np.all(np.diff(vals) > 0.0)


class TestThirdDerivative:
    def test_zero_slope_gives_zero(self, params075):
        assert displacement_f3_at_root(2.0, 0.0, params075) == 0.0

    def test_sign_follows_slope(self, params075):
        assert displacement_f3_at_root(1.0, 0.5, params075) > 0.0
        assert displacement_f3_at_root(1.0, -0.5, params075) < 0.0

    def test_domain_error(self, params075):
        with pytest.raises(DomainError):
            displacement_f3_at_root(0.0, 1.0, params075)

    def test_matches_finite_differences(self, sine_system):
        y_star = 1.0
        hp = float(sine_system.boundary.derivative(y_star))
        formula = displacement_f3_at_root(y_star, hp, sine_system.params)
        eps = 1e-3 * max(1.0, y_star)
        f = lambda y: displacement(y, sine_system)
        fd = (f(y_star + 2 * eps) - 2 * f(y_star + eps)
              + 2 * f(y_star - eps) - f(y_star - 2 * eps)) / (2 * eps ** 3)
        assert fd == pytest.approx(formula, rel=1e-3)

    def test_low_derivatives_vanish_at_roots(self, sine_system):
        for y_star in (1.0, 2.0):
            eps = 1e-3
            f = lambda y: displacement(y, sine_system)
            f1 = (f(y_star + eps) - f(y_star - eps)) / (2 * eps)
            f2 = (f(y_star + eps) - 2 * f(y_star) + f(y_star - eps)) / eps ** 2
            scale = max(1.0, abs(displacement_f3_at_root(
                y_star, float(sine_system.boundary.derivative(y_star)), sine_system.params)))
            assert abs(f1) < 1e-6 * scale
            assert abs(f2) < 1e-6 * scale
