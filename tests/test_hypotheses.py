import math

import numpy as np
import pytest

from conftest import sine_table_samples
from pwlcycles import (
    Boundary,
    DomainError,
    EvaluationError,
    PWLSystem,
    SystemParams,
    Zone,
    check_boundary_hypotheses,
    check_matrix_hypotheses,
    check_transversality,
    geometric_grid,
    make_cosine,
    make_oscillatory,
    make_sine,
    make_table,
)
from pwlcycles.core import zone_matrix


def violating_system(gamma: float = 0.75) -> PWLSystem:
    """h(y) = 2y/gamma with a deliberately mismatched zero derivative.

    Breaks the amplitude bound everywhere and makes the right-field inner
    product positive, so every grid point is flagged.
    """
    b = Boundary(
        evaluate=lambda y: 2.0 * np.asarray(y, dtype=float) / gamma,
        derivative=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
    )
    return PWLSystem(SystemParams(gamma), b)


class TestMatrixHypotheses:
    @pytest.mark.parametrize("gamma", [0.75, 10.0, 1e-9])
    def test_hold_for_every_rate(self, gamma):
        assert check_matrix_hypotheses(SystemParams(gamma)) == (True, True)


class TestGeometricGrid:
    def test_shape_and_monotone(self):
        g = geometric_grid(0.01, 4.0, 256)
        assert g.size == 256 and g[0] == pytest.approx(0.01) and g[-1] == pytest.approx(4.0)
        assert np.all(np.diff(g) > 0)
        # geometric spacing oversamples the low end
        assert np.sum(g < 0.1) > 256 // 4

    def test_validation(self):
        with pytest.raises(DomainError):
            geometric_grid(0.0, 1.0)
        with pytest.raises(DomainError):
            geometric_grid(2.0, 1.0)
        with pytest.raises(DomainError):
            geometric_grid(0.1, 1.0, 1)


class TestBoundaryHypotheses:
    def test_zero_boundary_passes(self, zero_system):
        report = check_boundary_hypotheses(zero_system, geometric_grid(0.01, 10.0, 512))
        assert report.passed
        assert not report.violations
        assert bool(np.all(report.transversal))

    def test_sine_family_guarantee(self, params075):
        system = PWLSystem(params075, make_sine(params075, 2))
        grid = np.arange(0.01, 4.0 + 1e-12, 0.01)
        report = check_boundary_hypotheses(system, grid)
        assert report.passed

    def test_cosine_family_guarantee(self):
        params = SystemParams(0.4)
        system = PWLSystem(params, make_cosine(params, 2))
        report = check_boundary_hypotheses(system, geometric_grid(0.01, 6.0, 1024))
        assert report.passed

    def test_oscillatory_family_guarantee(self, oscillatory_system):
        report = check_boundary_hypotheses(oscillatory_system, geometric_grid(0.001, 1.0, 2048))
        assert report.passed

    def test_violations_record_operands(self):
        system = violating_system()
        grid = np.array([0.5, 1.0, 2.0])
        report = check_boundary_hypotheses(system, grid)
        assert not report.passed
        hyps = {v.hypothesis for v in report.violations}
        assert "H1'" in hyps and "H2'" in hyps
        v = next(v for v in report.violations if v.hypothesis == "H1'" and v.y == 1.0)
        assert v.lhs == pytest.approx(2.0 / 0.75)
        assert v.rhs == pytest.approx(1.0 / 0.75)
        assert report.violations == sorted(report.violations, key=lambda r: (r.y, r.hypothesis))

    def test_empty_report_means_all_verdicts_true(self, sine_system):
        report = check_boundary_hypotheses(sine_system, geometric_grid(0.05, 4.0, 256))
        assert not report.violations
        for arr in (report.h1p, report.h2p, report.h3p, report.transversal):
            assert bool(np.all(arr))

    def test_near_violation_warning(self):
        gamma = 1.0
        b = Boundary(
            evaluate=lambda y: (1.0 - 1e-10) * np.asarray(y, dtype=float),
            derivative=lambda y: np.full_like(np.asarray(y, dtype=float), 1.0 - 1e-10),
        )
        system = PWLSystem(SystemParams(gamma), b)
        report = check_boundary_hypotheses(system, np.array([1.0]))
        assert report.passed
        assert any(w.hypothesis == "H1'" for w in report.warnings)

    def test_near_violation_is_relative_to_y(self):
        # every margin here is at least 0.99999999953*y; below y = 1e-9 an
        # absolute threshold warned on all three hypotheses at each sample
        system = PWLSystem(SystemParams(1.0), make_oscillatory(0.36))
        report = check_boundary_hypotheses(system, geometric_grid(1e-300, 1.0))
        assert report.passed
        assert report.warnings == []

    def test_nonfinite_evaluation_named(self, params075):
        b = Boundary(
            evaluate=lambda y: np.where(np.asarray(y, dtype=float) > 1.0, np.nan, 0.0),
            derivative=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        )
        system = PWLSystem(params075, b)
        with pytest.raises(EvaluationError, match="y="):
            check_boundary_hypotheses(system, np.array([0.5, 2.0]))

    def test_grid_validation(self, sine_system):
        with pytest.raises(DomainError):
            check_boundary_hypotheses(sine_system, np.array([]))
        with pytest.raises(DomainError):
            check_boundary_hypotheses(sine_system, np.array([-1.0, 1.0]))
        with pytest.raises(DomainError):
            check_boundary_hypotheses(sine_system, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("family", ["sine", "table"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, -1])
    def test_nonfinite_grid_points_refused(self, params075, family, bad, where):
        boundary = (make_sine(params075, 2) if family == "sine"
                    else make_table(sine_table_samples(0.75, 2)))
        grid = np.array([0.5, 1.0, 1.5])
        grid[where] = bad
        with pytest.raises(DomainError, match="finite"):
            check_boundary_hypotheses(PWLSystem(params075, boundary), grid)

    def test_json_shape(self, sine_system):
        report = check_boundary_hypotheses(sine_system, geometric_grid(0.05, 4.0, 64))
        d = report.to_json()
        for key in ("h1", "h2", "h1p", "h2p", "h3p", "transversal", "violations", "warnings"):
            assert key in d
        assert d["passed"] is True


class TestTransversality:
    def test_zero_boundary_reduces_to_minus_y(self, zero_system):
        left, right, crossing = check_transversality(zero_system, 1.0)
        assert left == -1.0 and right == -1.0 and crossing

    def test_sine_point_negative(self, sine_system):
        left, right, crossing = check_transversality(sine_system, 0.5)
        assert left < 0.0 and right < 0.0 and crossing

    def test_violating_boundary_flagged(self):
        left, right, crossing = check_transversality(violating_system(), 1.0)
        assert right > 0.0
        assert not crossing

    def test_formulas_equal_matrix_arithmetic(self, sine_system, cosine_system,
                                              oscillatory_system):
        for system in (sine_system, cosine_system, oscillatory_system):
            left_m = zone_matrix(system.params, Zone.LEFT)
            right_m = zone_matrix(system.params, Zone.RIGHT)
            for y in np.geomspace(0.05, 3.0, 40):
                y = float(y)
                h = float(system.boundary.evaluate(y))
                hp = float(system.boundary.derivative(y))
                grad = np.array([1.0, -hp])
                raw_left = grad @ (left_m @ [h, y])
                raw_right = grad @ (right_m @ [h, y])
                left, right, _ = check_transversality(system, y)
                assert left == pytest.approx(raw_left, abs=1e-12)
                assert right == pytest.approx(raw_right, abs=1e-12)

    def test_certificate_implies_transversality(self, sine_system, cosine_system):
        for system, hi in ((sine_system, 4.0), (cosine_system, 6.0)):
            grid = geometric_grid(0.02, hi, 256)
            report = check_boundary_hypotheses(system, grid)
            assert report.passed
            for y in grid:
                assert check_transversality(system, float(y))[2]

    def test_domain_validation(self, sine_system):
        with pytest.raises(DomainError):
            check_transversality(sine_system, 0.0)
