"""Acceptance suite: one test per claim, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math

import numpy as np
import pytest

from conftest import sign_safe_grid

from pwlcycles import (
    PWLSystem,
    StabilityClass,
    SystemParams,
    Zone,
    classify,
    crossing_time_left,
    crossing_time_right,
    delta,
    displacement,
    displacement_f3_at_root,
    find_limit_cycles,
    left_exit_y,
    make_cosine,
    make_oscillatory,
    make_sine,
    make_zero,
    numeric_displacement,
    oscillatory_root,
    reports_for_roots,
    resolve_stability,
    return_map,
    right_entry_y,
)
from pwlcycles import check_boundary_hypotheses, check_transversality, geometric_grid
from pwlcycles.cli import main
from pwlcycles.oracle import integrate_in_zone, probe_eps

TWO_PI = 2.0 * math.pi


def _pass(num: int, message: str) -> None:
    print(f"[PASS] criterion {num}: {message}")


def sine_system(gamma: float, n: int) -> PWLSystem:
    params = SystemParams(gamma)
    return PWLSystem(params, make_sine(params, n))


def cosine_system(gamma: float, n: int) -> PWLSystem:
    params = SystemParams(gamma)
    return PWLSystem(params, make_cosine(params, n))


def oscillatory_system(alpha: float) -> PWLSystem:
    return PWLSystem(SystemParams(1.0), make_oscillatory(alpha))


def test_criterion_1_sine_family_reproduction():
    gamma = 0.75
    lower_scale = math.exp(-gamma * math.pi)
    checked = 0
    for n in (1, 2, 3, 5):
        system = sine_system(gamma, n)
        result = find_limit_cycles(system, 0.1, 2.0 * n + 2.0)
        assert len(result.cycles) == n, f"expected {n} cycles, got {len(result.cycles)}"
        roots = [c.y_star for c in result.cycles]
        for k, rep in enumerate(result.cycles, start=1):
            assert abs(rep.y_star - k) < 1e-9
            assert abs(rep.lower_crossing.y - (-k * lower_scale)) < 1e-9
            expected = StabilityClass.STABLE if k % 2 == 0 else StabilityClass.UNSTABLE
            assert rep.stability is expected
            eps = probe_eps(rep.y_star, [r for r in roots if r != rep.y_star])
            oracle_verdict = resolve_stability(system, rep.y_star, eps=eps)
            assert oracle_verdict is expected, (
                f"n={n} k={k}: oracle says {oracle_verdict}, classified {expected}")
            checked += 1
    assert checked == 11
    _pass(1, "sine family n in {1,2,3,5}: counts, crossings at 1e-9, "
             "even/odd stability, oracle agreement on all 11 cycles")


def test_criterion_2_cosine_family_semi_stable():
    gamma = 0.4
    for n in (1, 2):
        system = cosine_system(gamma, n)
        result = find_limit_cycles(system, 0.1, 2.0 * n + 2.0)
        assert len(result.cycles) == n
        for k, rep in enumerate(result.cycles, start=1):
            assert abs(rep.y_star - 2.0 * k) < 1e-6
            assert rep.stability is StabilityClass.SEMI_STABLE_OUTER_STABLE
            verdict = resolve_stability(system, rep.y_star, eps=0.05 * rep.y_star)
            assert verdict is StabilityClass.SEMI_STABLE_OUTER_STABLE, (
                f"n={n} k={k}: oracle says {verdict}")
    _pass(2, "cosine family n in {1,2}: tangential roots at 2k within 1e-6, "
             "all semi-stable, oracle confirms one-sided convergence")


def test_criterion_3_oscillatory_family_parity():
    alpha = 0.3
    system = oscillatory_system(alpha)
    roots = [oscillatory_root(k) for k in range(1, 6)]
    reports = {rep.y_star: rep for rep in reports_for_roots(system, roots)}
    recorded = []
    for k in range(1, 6):
        rep = reports[roots[k - 1]]
        assert abs(rep.y_star - 1.0 / (k * math.pi)) < 1e-10
        slope = -alpha * (-1.0) ** k
        assert rep.h_prime == pytest.approx(slope, abs=1e-12)
        expected = StabilityClass.STABLE if slope > 0.0 else StabilityClass.UNSTABLE
        assert rep.stability is expected
        eps = probe_eps(rep.y_star, [r for r in roots if r != rep.y_star])
        verdict = resolve_stability(system, rep.y_star, eps=eps)
        recorded.append((k, verdict))
        assert verdict is expected, f"k={k}: oracle says {verdict}, slope rule says {expected}"
    kinds = [v for _, v in recorded]
    assert all(a is not b for a, b in zip(kinds, kinds[1:])), "stability must alternate in k"
    _pass(3, "oscillatory family k<=5: roots 1/(k*pi) within 1e-10, alternating "
             f"stability, oracle matches the slope rule: {[(k, v.value) for k, v in recorded]}")


def test_criterion_4_crossing_law_and_period():
    rng = np.random.default_rng(2024)
    instances = []
    while len(instances) < 100:
        gamma = float(rng.uniform(0.1, 0.77))
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        instances.append((sine_system(gamma, n), float(k)))
    while len(instances) < 150:
        gamma = float(rng.uniform(0.05, 0.47))
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        instances.append((cosine_system(gamma, n), 2.0 * k))
    while len(instances) < 200:
        alpha = float(rng.uniform(0.05, 0.36))
        k = int(rng.integers(1, 7))
        instances.append((oscillatory_system(alpha), oscillatory_root(k)))

    for system, y_star in instances:
        scale = -math.exp(-system.gamma * math.pi)
        assert abs(left_exit_y(y_star, system) / y_star - scale) < 1e-12
        assert abs(right_entry_y(y_star, system) / y_star - scale) < 1e-12
        period = crossing_time_left(y_star, system) - crossing_time_right(y_star, system)
        assert abs(period - TWO_PI) < 1e-9
        rm = return_map(system, scale * y_star)
        assert abs(rm.flight_time - TWO_PI) < 1e-6
    _pass(4, "200 random cycle instances: crossing ratio -exp(-gamma*pi) to 1e-12, "
             "period 2*pi to 1e-9 analytic / 1e-6 oracle flight time")


def test_criterion_5_displacement_sign_suite():
    osc_roots = [oscillatory_root(k) for k in range(1, 8)]
    cases = [
        (sine_system(0.75, 2), sign_safe_grid(0.1, 4.0, 1000, (1.0, 2.0), 0.001)),
        (cosine_system(0.4, 2), sign_safe_grid(0.1, 6.0, 1000, (2.0, 4.0), 0.02)),
        (oscillatory_system(0.3), sign_safe_grid(0.045, 1.0, 1000, osc_roots, 0.004)),
    ]
    for system, grid in cases:
        exceptions = 0
        for y in grid:
            y = float(y)
            h = float(system.boundary.evaluate(y))
            f = displacement(y, system)
            if math.copysign(1.0, f) != math.copysign(1.0, h):
                exceptions += 1
        assert exceptions == 0, f"{system.boundary.descriptor}: {exceptions} sign exceptions"

    rng = np.random.default_rng(77)
    params = SystemParams(0.6)
    for _ in range(300):
        y = float(rng.uniform(0.1, 3.0))
        x = float(rng.uniform(-0.999, 0.999)) * y / params.gamma
        f_pos = delta(y, x, params) - delta(y, -x, params)
        f_neg = delta(y, -x, params) - delta(y, x, params)
        assert abs(f_pos + f_neg) < 1e-12
    _pass(5, "sign(f) = sign(h) with zero exceptions on 1000-point grids for all "
             "three families; odd-part antisymmetry to 1e-12 on 300 random pairs")


def test_criterion_6_third_derivative_formula():
    cases = []
    for gamma in (0.3, 0.4, 0.5, 0.6, 0.7, 0.75):
        for n in (1, 2, 3):
            system = sine_system(gamma, n)
            for k in range(1, n + 1):
                cases.append((system, float(k)))
    for gamma in (0.35, 0.45, 0.55, 0.65):
        system = sine_system(gamma, 2)
        for k in (1, 2):
            cases.append((system, float(k)))
    # only the outermost oscillatory root: the stencil step 1e-3 cannot
    # resolve the faster 1/y oscillation at the inner roots to 1e-3 relative
    for alpha in (0.1, 0.15, 0.2, 0.25, 0.3, 0.36):
        cases.append((oscillatory_system(alpha), oscillatory_root(1)))
    assert len(cases) == 50

    for system, y_star in cases:
        hp = float(system.boundary.derivative(y_star))
        assert abs(hp) > 1e-8, "criterion covers hyperbolic roots only"
        formula = displacement_f3_at_root(y_star, hp, system.params)
        eps = 1e-3 * max(1.0, y_star)
        f = lambda y: displacement(y, system)
        fd3 = (f(y_star + 2 * eps) - 2 * f(y_star + eps)
               + 2 * f(y_star - eps) - f(y_star - 2 * eps)) / (2 * eps ** 3)
        assert abs(fd3 - formula) <= 1e-3 * abs(formula), (
            f"{system.boundary.descriptor} y*={y_star}: fd={fd3}, formula={formula}")
        scale = max(1.0, abs(formula))
        fd1 = (f(y_star + eps) - f(y_star - eps)) / (2 * eps)
        fd2 = (f(y_star + eps) - 2 * f(y_star) + f(y_star - eps)) / eps ** 2
        assert abs(fd1) < 1e-6 * scale
        assert abs(fd2) < 1e-6 * scale
    _pass(6, "50 hyperbolic roots: cubic coefficient matches 5-point finite "
             "differences to 1e-3 relative; first two derivatives below 1e-6*scale")


def test_criterion_7_oracle_analytic_equivalence():
    cases = [
        (sine_system(0.75, 2), np.linspace(0.1, 4.0, 100)),
        (cosine_system(0.4, 2), np.linspace(0.1, 6.0, 100)),
        (oscillatory_system(0.3), np.linspace(0.05, 1.0, 100)),
        (PWLSystem(SystemParams(0.75), make_zero()), np.linspace(0.1, 3.0, 100)),
    ]
    worst = 0.0
    for system, grid in cases:
        diffs = [abs(numeric_displacement(system, float(y), 1e-4)
                     - displacement(float(y), system)) for y in grid]
        worst = max(worst, max(diffs))
        assert max(diffs) < 1e-6, f"{system.boundary.descriptor}: max diff {max(diffs)}"

    # reference turn: left half-turn from (0, 1), measured against the
    # analytic landing -exp(-gamma*pi); the full Poincare turn is not used
    # here because its leading truncation errors cancel between the
    # expanding and contracting halves (observed order ~5)
    zero = PWLSystem(SystemParams(0.75), make_zero())
    ref = -math.exp(-0.75 * math.pi)
    errors = []
    for step in (2e-2, 1e-2):
        seg = integrate_in_zone(zero, Zone.LEFT, (0.0, 1.0),
                                step=step, record_stride=0)
        errors.append(abs(seg.terminal_point.y - ref))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0, f"halving ratio {ratio}"
    _pass(7, f"analytic-numeric displacement max diff {worst:.2e} < 1e-6 over "
             f"100-point grids; step-halving error ratio {ratio:.1f} in [12, 20]")


def test_criterion_8_center_degeneracy():
    system = PWLSystem(SystemParams(0.75), make_zero())
    for y in np.linspace(0.05, 5.0, 200):
        assert displacement(float(y), system) == 0.0
    for y_in in np.linspace(-3.0, -0.1, 15):
        rm = return_map(system, float(y_in))
        assert abs(rm.y_out - y_in) < 1e-7
    result = find_limit_cycles(system, 0.1, 3.0)
    assert result.continuum and result.cycles == []
    _pass(8, "zero boundary: analytic displacement exactly 0, return map is the "
             "identity within 1e-7 on [-3, -0.1], cycle search reports a continuum")


def test_criterion_9_transversality_no_sliding():
    cases = [
        (sine_system(0.75, 2), 0.05, 4.0),
        (cosine_system(0.4, 2), 0.05, 6.0),
        (oscillatory_system(0.3), 0.005, 1.0),
    ]
    for system, lo, hi in cases:
        grid = geometric_grid(lo, hi, 512)
        report = check_boundary_hypotheses(system, grid)
        assert report.passed
        for y in grid[::2]:
            left, right, crossing = check_transversality(system, float(y))
            assert left < 0.0 and right < 0.0 and crossing
        scale = -math.exp(-system.gamma * math.pi)
        for y_in in np.linspace(scale * 0.8 * hi, -0.05, 6):
            rm = return_map(system, float(y_in))
            assert rm.sigma_crossings == 1, f"turn recorded {rm.sigma_crossings} crossings"
            assert rm.section_returns == 1
    _pass(9, "all certified grids: both inner products strictly negative; every "
             "oracle turn records exactly one switching-curve crossing")


def test_criterion_10_parameter_gates(capsys):
    assert main(["check", "--gamma", "0.8", "--family", "sine", "--n", "2",
                 "--range", "0.1", "4"]) == 1
    capsys.readouterr()
    assert main(["check", "--gamma", "1", "--family", "oscillatory", "--alpha", "0.4",
                 "--range", "0.01", "1"]) == 1
    capsys.readouterr()
    assert main(["check", "--gamma", "0.75", "--family", "sine", "--n", "2",
                 "--range", "0.1", "4"]) == 0
    capsys.readouterr()
    assert main(["check", "--gamma", "1", "--family", "oscillatory", "--alpha", "0.36",
                 "--range", "0.01", "1"]) == 0
    capsys.readouterr()
    _pass(10, "construction gates: sine gamma 0.8 and oscillatory alpha 0.4 rejected "
              "(exit 1); gamma 0.75 and alpha 0.36 accepted (exit 0)")
