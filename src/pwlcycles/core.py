"""Domain types for the planar two-zone piecewise linear system.

The state space is split by a switching set into a left and a right zone,
each governed by a fixed 2x2 matrix.  The switching set is the negative
y-axis together with the curve x = h(y) for y > 0, where h is a C1
function with h(0) = 0.  Everything in this module is immutable and the
operations are pure, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np


class PWLError(Exception):
    """Base class for errors raised by this package."""


class EvaluationError(PWLError):
    """A boundary or field evaluation produced a non-finite value."""


class DomainError(PWLError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(PWLError):
    """A constructor received parameters outside its validity range."""


class HypothesisError(PWLError):
    """A required non-sliding/amplitude condition fails.

    Carries the offending report (when one was computed) so callers can
    inspect which inequality broke and where.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class IntegrationError(PWLError):
    """Numerical integration failed to produce the requested event."""


class TangencyError(IntegrationError):
    """The start point sits on the stop section with tangent velocity."""


class Zone(str, Enum):
    """Which linear zone a point or flow belongs to."""

    LEFT = "left"
    RIGHT = "right"

    @property
    def sign(self) -> float:
        """Sign of the diagonal rate: +1 for the right zone, -1 for the left."""
        return 1.0 if self is Zone.RIGHT else -1.0


class StabilityClass(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    SEMI_STABLE_OUTER_STABLE = "semi_stable_outer_stable"
    SEMI_STABLE_INNER_STABLE = "semi_stable_inner_stable"
    UNDETERMINED = "undetermined"


def _stability_class(interior_stable: bool, exterior_stable: bool) -> StabilityClass:
    """Class of a cycle from whether orbits inside and outside it approach it."""
    if interior_stable == exterior_stable:
        return StabilityClass.STABLE if interior_stable else StabilityClass.UNSTABLE
    if exterior_stable:
        return StabilityClass.SEMI_STABLE_OUTER_STABLE
    return StabilityClass.SEMI_STABLE_INNER_STABLE


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class SystemParams:
    """Single dimensionless rate gamma > 0.

    gamma is simultaneously the contraction rate of the left zone and the
    expansion rate of the right zone; the rotation rate of both zones is 1.
    """

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ParameterError(f"gamma must be a finite positive real, got {self.gamma!r}")


def zone_matrix(params: SystemParams, zone: Zone) -> np.ndarray:
    """2x2 matrix [[+-2*gamma, -1], [gamma^2+1, 0]] of the zone as a fresh ndarray.

    Both matrices have determinant gamma^2 + 1 and trace +-2*gamma, hence
    complex eigenvalues +-gamma +- i: each zone is a focus, expanding on
    the right and contracting on the left.  This is the one representation
    of the zone matrices in the package.
    """
    g = params.gamma
    return np.array([[zone.sign * 2.0 * g, -1.0], [g * g + 1.0, 0.0]])


@dataclass(frozen=True)
class Boundary:
    """Switching curve offset h(y) for y >= 0, with its exact derivative.

    ``evaluate`` and ``derivative`` must accept a float or a 1-d ndarray
    and return the matching shape; h(0) = 0 is required so the switching
    set is continuous at the origin.  The derivative is carried explicitly
    (not differenced) because the stability classification and the
    transversality margins need it exactly; a finite-difference
    consistency check in the test suite guards against mismatched pairs.

    ``descriptor`` is a JSON-ready tag ({"family": ..., "params": ...})
    used for serialization; it is the only place family identity lives.

    ``envelope``, when given, maps a float Y > 0 to a bound on |h(y)|, as
    ``evaluate`` computes it, over 0 < y <= Y, and never decreases in Y.
    The oracle skips the states of a chunk whose |x| stays above it.
    ``slope_envelope`` bounds |h'(y)| over 0 < y <= Y in the same way; with
    it the oracle bounds how far g = x - h(y) moves in one step and
    certifies the sign of g between a few states of a chunk.  None (the
    default for a user-built boundary) promises nothing, and the oracle
    builds those chunks in full.
    """

    evaluate: Callable[[float], float]
    derivative: Callable[[float], float]
    descriptor: dict = field(default_factory=lambda: {"family": "custom", "params": {}})
    envelope: Callable[[float], float] | None = None
    slope_envelope: Callable[[float], float] | None = None


@dataclass(frozen=True)
class PWLSystem:
    """A rate gamma plus a switching boundary: the full two-zone system."""

    params: SystemParams
    boundary: Boundary

    @property
    def gamma(self) -> float:
        return self.params.gamma


def manifold_value(system: PWLSystem, p: Point) -> float:
    """Signed switching function: x for y <= 0, x - h(y) for y > 0.

    Its sign selects the zone; its zero set is the switching manifold.
    Continuous across y = 0 because h(0) = 0.
    """
    x, y = p
    if not (math.isfinite(x) and math.isfinite(y)):
        raise EvaluationError(f"non-finite point {p!r}")
    if y <= 0.0:
        return float(x)
    h = float(system.boundary.evaluate(y))
    if not math.isfinite(h):
        raise EvaluationError(f"boundary value not finite at y={y!r}")
    return float(x) - h


def _boundary_values(fn: Callable, ys: np.ndarray) -> np.ndarray:
    """fn(ys) as a float array, for ``fn`` a boundary's evaluate or derivative.

    Raises EvaluationError naming the first y where the value is not finite.
    """
    vals = np.asarray(fn(ys), dtype=float)
    bad = ~np.isfinite(vals)
    if np.count_nonzero(bad):
        raise EvaluationError(f"boundary value not finite at y={float(ys[bad][0])!r}")
    return vals


def manifold_values(system: PWLSystem, points: np.ndarray) -> np.ndarray:
    """Vectorized ``manifold_value`` over an (m, 2) array of points."""
    xs = points[:, 0]
    ys = points[:, 1]
    out = xs.astype(float)
    mask = ys > 0.0
    if np.count_nonzero(mask):  # on small arrays far cheaper than np.any
        out[mask] -= _boundary_values(system.boundary.evaluate, ys[mask])
    return out


def vector_field(system: PWLSystem, p: Point) -> Point:
    """Velocity of the discontinuous field at p.

    Applies ``zone_matrix`` of the right zone when the switching function
    is >= 0 and of the left zone otherwise.  The tie at exactly zero goes
    to the right zone by convention.  The oracle picks the zone an orbit
    enters at a boundary point by its own rule (``_forward_zone``).
    """
    zone = Zone.RIGHT if manifold_value(system, p) >= 0.0 else Zone.LEFT
    vx, vy = zone_matrix(system.params, zone) @ (float(p[0]), float(p[1]))
    return Point(float(vx), float(vy))


def system_descriptor(system: PWLSystem) -> dict:
    """JSON-ready descriptor: {"gamma": ..., "boundary": {...}}."""
    return {"gamma": system.gamma, "boundary": dict(system.boundary.descriptor)}
