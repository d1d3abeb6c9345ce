"""Domain types for the planar two-zone piecewise linear system.

The state space is split by a switching set into a left and a right zone,
each governed by a fixed 2x2 matrix.  The switching set is the negative
y-axis together with the curve x = h(y) for y > 0, where h is a C1
function with h(0) = 0.  Everything in this module is immutable and the
operations are pure, so concurrent reads are safe.
"""

from __future__ import annotations

import functools
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


# Decimal text of float arrays: the CSV's "%.12g" and the SVG's "%.3f", byte for byte
# what Python's % writes (correctly rounded, Gay 1990).  A value is written from its
# scaled mantissa q = |v|*10**s, one float product with 10**s exact, so q is within half
# an ulp of the exact |v|*10**s: 2**-14 for q < 1e12 ("%.12g", s = 11 - e for the decimal
# exponent e of v), 2**-30 for q < 1e7 ("%.3f", s = 3).  Every half-integer below 2**52
# is a double and rounding is monotonic, so where q lies strictly closer than 1/2 to the
# integer n = rint(q), so does the exact value: n is the correctly rounded mantissa
# whatever the rounding rule, and integer digit arithmetic writes it.  The exact domain:
#   "%.12g": 1e-4 <= |v| < 1e4 and 1e11 + 1 <= q <= 1e12 - 1, so the mantissa has twelve
#            digits that no carry widens and %g writes it in fixed notation (e is taken
#            from |v| clamped to that range, so a value outside it puts q outside too);
#   "%.3f":  0 < |v| and q < 9999999, so the integer part has at most four digits.
# Every other value (zero, non-finite, out of range, q on a tie or near a decade edge) is
# written by Python's % itself.
_WORD = np.dtype("<u4")  # four ASCII bytes in text order; NUL bytes are padding
# offsets into _digit_words() of the forms of a 3-digit group: in full, with trailing
# zeros dropped, with leading zeros dropped (0 keeps one "0"), after a point; the point
# form with trailing zeros dropped (and no point for 000) sits at _POINT + _TRIM.  Then
# come the words of the sign and the thousands digit.
_FULL, _TRIM, _LEAD, _POINT, _SIGN_HI = 0, 1000, 2000, 3000, 5000
_PLACES = {"%.12g": 15, "%.3f": 3}  # fraction digits of each format's fixed grid
_POW10 = 10 ** np.arange(16, dtype=np.int64)
_SCALE = 10.0 ** np.arange(8, 16)  # 10**(11 - e) for e = 3, 2, ..., -4, all exact


@functools.lru_cache(maxsize=1)
def _digit_words() -> np.ndarray:
    """The word table: 1000 words per group form, then 20 sign-and-thousands words,
    index 10*negative + thousands digit.  Built by slice assignments alone."""
    t = np.zeros((5020, 4), dtype=np.uint8)
    full, trim, lead, point, point_trim = t[:5000].reshape(5, 10, 10, 10, 4)
    digit = np.arange(48, 58, dtype=np.uint8)  # ASCII "0".."9"
    full[..., 0], full[..., 1], full[..., 2] = digit[:, None, None], digit[:, None], digit
    trim[...] = lead[...] = full
    trim[:, :, 0, 2] = trim[:, 0, 0, 1] = trim[0, 0, 0, 0] = 0
    lead[0, :, :, 0] = lead[0, 0, :, 1] = 0
    point[..., 0] = point_trim[..., 0] = 46  # "."
    point[..., 1:], point_trim[..., 1:] = full[..., :3], trim[..., :3]
    point_trim[0, 0, 0, 0] = 0
    sign_hi = t[_SIGN_HI:].reshape(2, 10, 4)
    sign_hi[1, :, 0] = 45  # "-"
    sign_hi[:, 1:, 1] = digit[1:]
    return t.view(_WORD).ravel()


def _decimal_words(values, fmt: str) -> np.ndarray:
    """``fmt % v`` ("%.12g" or "%.3f") of each float v of ``values`` as ASCII words.

    Returns a ``"<u4"`` array of shape values.shape + (k,): the bytes of a value's k
    words, NUL bytes dropped, are exactly ``fmt % v``, so ``_decimal_text`` of any
    arrangement of them is the text of the values in that order.  Inside the exact
    domain above the digits come from integer arithmetic and a table of 3-digit groups;
    each other value is formatted by ``fmt % v`` alone.
    """
    v = np.asarray(values, dtype=float)
    flat = v.ravel()
    places = _PLACES[fmt]
    a = np.abs(flat)
    if places == 3:
        q = np.fmin(a, 1e7) * 1000.0  # a NaN or an inf becomes 1e7: out of the domain
        ok = (q < 9999999.0) & (a > 0.0)
        unit, grid = 1000, 1
    else:
        c = np.fmin(a, 1e5)  # as above; zero stays 0, so q = 0
        e = np.floor(np.log10(np.fmax(np.fmin(c, 9999.0), 1e-4))).astype(np.intp)
        q = c * _SCALE[3 - e]
        ok = np.abs(q - 5.5e11) <= 4.5e11 - 1.0
        unit, grid = _POW10[11 - e], _POW10[e + 4]  # the fraction goes on the 15-digit grid
    n = np.rint(q)
    ok &= np.abs(q - n) < 0.5
    n = (n * ok).astype(np.int64)
    whole = n // unit
    frac = (n - whole * unit) * grid
    table = _digit_words()
    thousands = whole // 1000
    out = np.empty((len(flat), 2 + places // 3), dtype=_WORD)
    out[:, 0] = table.take(_SIGN_HI + thousands + 10 * (flat < 0.0))
    out[:, 1] = table.take(whole - 1000 * thousands + _LEAD * (thousands == 0))
    for k in range(places // 3):  # groups after the point; "%.12g" drops trailing zeros
        step = 10 ** (places - 3 * k - 3)
        group = frac // step
        frac -= group * step
        group += _POINT if k == 0 else _FULL
        if places == 15:
            group += _TRIM * (frac == 0)
        out[:, 2 + k] = table.take(group)
    other = np.flatnonzero(~ok)
    if len(other):
        text = [(fmt % x).encode() for x in flat[other].tolist()]
        width = -(-max(map(len, text)) // 4)
        if width > out.shape[1]:
            out = np.hstack((out, np.zeros((len(out), width - out.shape[1]), dtype=_WORD)))
        padded = np.array(text, dtype=f"S{4 * out.shape[1]}")  # NUL-padded to the row
        out[other] = padded.view(_WORD).reshape(len(other), -1)
    return out.reshape(v.shape + out.shape[-1:])


def _ascii_words(text: str) -> np.ndarray:
    """``text`` as words to lay beside ``_decimal_words``: a 1-d ``"<u4"`` array, NUL-padded."""
    raw = text.encode("ascii")
    return np.frombuffer(raw.ljust(-(-len(raw) // 4) * 4, b"\0"), dtype=_WORD)


def _decimal_text(words: np.ndarray) -> str:
    """The text of an array of ``_decimal_words`` and ``_ascii_words``, in order, NULs dropped."""
    return words.tobytes().translate(None, b"\0").decode("ascii")
