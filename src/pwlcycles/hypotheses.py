"""Certification of the matrix and boundary conditions that exclude sliding.

Matrix level (checked once per system):

    M1: both zone matrices have a negative upper-right entry.
    M2: both have complex eigenvalues, contracting on the left and
        expanding on the right.

Boundary level (checked on a user grid of y > 0 samples):

    H1': |h(y)| < y/gamma                      (amplitude inside the cone)
    H2': h(y)*(2*gamma - (1+gamma^2)*h'(y)) < y
    H3': h(y)*(2*gamma + (1+gamma^2)*h'(y)) > -y

H2' and H3' are exactly the statements that the two inner products of the
switching-set normal (1, -h'(y)) with the two zone fields at (h(y), y)
are negative, i.e. every boundary point with y > 0 is a right-to-left
crossing point and no sliding segment exists.  The grid certificate
and the pointwise ``check_transversality`` share one formula for those
inner products, and M1/M2 are read off ``core.zone_matrix``.
Certification is grid-based; the closed-form parameter ranges of the
built-in boundary families are enforced separately by their
constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainError,
    EvaluationError,
    PWLSystem,
    SystemParams,
    Zone,
    _boundary_values,
    zone_matrix,
)

# A margin below this fraction of y (while still passing) is reported as a
# warning.  H1'-H3' are homogeneous of degree 1 in (y, h), so their margins
# scale with y and the threshold does too.
NEAR_VIOLATION_TOL = 1e-9

DEFAULT_GRID_POINTS = 4096


@dataclass(frozen=True)
class InequalityRecord:
    """One strict inequality instance: lhs vs rhs at a grid point y."""

    hypothesis: str
    y: float
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"hyp": self.hypothesis, "y": self.y, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class HypothesisReport:
    """Machine-readable certificate over a y-grid.

    ``violations`` is empty iff every per-sample verdict is true; each
    entry records the actual operands so the failure can be reproduced.
    """

    h1_matrix: bool
    h2_matrix: bool
    grid: np.ndarray
    h1p: np.ndarray
    h2p: np.ndarray
    h3p: np.ndarray
    violations: list[InequalityRecord] = field(default_factory=list)
    warnings: list[InequalityRecord] = field(default_factory=list)

    @property
    def transversal(self) -> np.ndarray:
        """Per sample: both zone fields cross the boundary, i.e. H2' and H3' hold."""
        # right_ip = lhs2 - y < 0 exactly when H2' holds and left_ip = -y - lhs3
        # < 0 exactly when H3' holds: with gradual underflow a float difference
        # is zero only between equal operands, so it keeps the comparison's sign.
        return self.h2p & self.h3p

    @property
    def passed(self) -> bool:
        return self.h1_matrix and self.h2_matrix and not self.violations

    def to_json(self) -> dict:
        return {
            "h1": self.h1_matrix,
            "h2": self.h2_matrix,
            "h1p": bool(np.all(self.h1p)),
            "h2p": bool(np.all(self.h2p)),
            "h3p": bool(np.all(self.h3p)),
            "transversal": bool(np.all(self.transversal)),
            "grid": {
                "points": int(self.grid.size),
                "y_min": float(self.grid[0]),
                "y_max": float(self.grid[-1]),
            },
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
            "warnings": [w.to_json() for w in self.warnings],
        }


def geometric_grid(y_min: float, y_max: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Geometrically spaced grid, dense near y_min for boundaries that oscillate toward 0."""
    if not (0.0 < y_min < y_max):
        raise DomainError(f"need 0 < y_min < y_max, got {y_min!r}, {y_max!r}")
    if points < 2:
        raise DomainError("grid needs at least 2 points")
    return np.geomspace(y_min, y_max, points)


def check_matrix_hypotheses(params: SystemParams) -> tuple[bool, bool]:
    """Verify the two matrix-level conditions explicitly.

    Both hold for every gamma > 0 under this parameterization; they are
    computed rather than asserted so the certificate is self-documenting.
    """
    left, right = (zone_matrix(params, zone) for zone in (Zone.LEFT, Zone.RIGHT))
    h1 = left[0, 1] < 0.0 and right[0, 1] < 0.0
    complex_eigs = all(
        np.trace(m) ** 2 - 4.0 * (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) < 0.0 for m in (left, right)
    )
    real_parts_split = np.trace(left) / 2.0 < 0.0 < np.trace(right) / 2.0
    return bool(h1), bool(complex_eigs and real_parts_split)


def _inner_products(g, y, h, hp):
    """Boundary normal (1, -h') dotted with the two zone fields at (h, y).

    Returns (left_ip, right_ip, lhs2, lhs3): the left and right inner
    products and the H2'/H3' left-hand sides they are made of,
    right_ip = lhs2 - y and left_ip = -y - lhs3.  Plain arithmetic, so
    the arguments may be floats or arrays alike.
    """
    lhs2 = h * (2.0 * g - (1.0 + g * g) * hp)
    lhs3 = h * (2.0 * g + (1.0 + g * g) * hp)
    return -y - lhs3, lhs2 - y, lhs2, lhs3


def check_boundary_hypotheses(system: PWLSystem, y_grid: np.ndarray) -> HypothesisReport:
    """Evaluate H1'-H3' strictly at every grid point and record violations."""
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.size == 0:
        raise DomainError("empty grid")
    # NaN fails every comparison below, so it is refused here, with +-inf
    if not np.all(np.isfinite(y_grid)):
        raise DomainError("grid points must be finite")
    if np.any(y_grid <= 0.0):
        raise DomainError("grid points must be positive")
    if np.any(np.diff(y_grid) <= 0.0):
        raise DomainError("grid must be strictly increasing")

    g = system.gamma
    hv = _boundary_values(system.boundary.evaluate, y_grid)
    dv = _boundary_values(system.boundary.derivative, y_grid)
    _, _, lhs2, lhs3 = _inner_products(g, y_grid, hv, dv)

    lhs1 = np.abs(hv)
    rhs1 = y_grid / g
    rhs2 = y_grid
    rhs3 = -y_grid

    h1p = lhs1 < rhs1
    h2p = lhs2 < rhs2
    h3p = lhs3 > rhs3

    violations: list[InequalityRecord] = []
    warnings: list[InequalityRecord] = []
    for name, ok, lhs, rhs, margin in (
        ("H1'", h1p, lhs1, rhs1, rhs1 - lhs1),
        ("H2'", h2p, lhs2, rhs2, rhs2 - lhs2),
        ("H3'", h3p, lhs3, rhs3, lhs3 - rhs3),
    ):
        for i in np.flatnonzero(~ok):
            violations.append(InequalityRecord(name, float(y_grid[i]), float(lhs[i]), float(rhs[i])))
        near = ok & (margin < NEAR_VIOLATION_TOL * y_grid)
        for i in np.flatnonzero(near):
            warnings.append(InequalityRecord(name, float(y_grid[i]), float(lhs[i]), float(rhs[i])))
    violations.sort(key=lambda r: (r.y, r.hypothesis))
    warnings.sort(key=lambda r: (r.y, r.hypothesis))

    h1m, h2m = check_matrix_hypotheses(system.params)
    return HypothesisReport(
        h1_matrix=h1m, h2_matrix=h2m, grid=y_grid,
        h1p=h1p, h2p=h2p, h3p=h3p,
        violations=violations, warnings=warnings,
    )


def check_transversality(system: PWLSystem, y: float) -> tuple[float, float, bool]:
    """Inner products of the boundary normal with both zone fields at (h(y), y).

    Returns (left_ip, right_ip, crossing) where crossing means both are
    strictly negative, i.e. both fields push through the switching curve
    from right to left and the point cannot slide.
    """
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    h = float(system.boundary.evaluate(y))
    hp = float(system.boundary.derivative(y))
    if not (math.isfinite(h) and math.isfinite(hp)):
        raise EvaluationError(f"boundary evaluation not finite at y={y!r}")
    left_ip, right_ip, _, _ = _inner_products(system.gamma, y, h, hp)
    return left_ip, right_ip, (left_ip < 0.0 and right_ip < 0.0)
