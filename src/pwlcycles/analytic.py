"""Closed-form flows, crossing times, and the displacement function.

Each zone is a linear focus with rotation rate 1 and radial rate
+-gamma, so its flow is elementary:

    phi1(t; x, y) = exp(s*gamma*t) * ((s*gamma*x - y)*sin t + x*cos t)
    phi2(t; x, y) = exp(s*gamma*t) * (((gamma^2+1)*x - s*gamma*y)*sin t + y*cos t)

with s = +1 on the right and s = -1 on the left.  Starting from a
boundary point (h(y), y) with y > 0, the forward orbit through the left
zone reaches the section {x = 0, y < 0} at time

    t_left(y) = pi + arctan(h(y) / (y + gamma*h(y)))

and the backward orbit through the right zone reaches the same section at

    t_right(y) = -pi + arctan(h(y) / (y - gamma*h(y)))

both well defined whenever |h(y)| < y/gamma, which keeps the two
denominators positive.  The displacement function is the difference of
the two landing ordinates,

    f(y) =   exp(-gamma*pi + gamma*aR) * sqrt((y - gamma*h)^2 + h^2)
           - exp(-gamma*pi - gamma*aL) * sqrt((y + gamma*h)^2 + h^2)

with aR, aL the two arctangents above.  f vanishes exactly at the zeros
of h, and each isolated zero y* yields a periodic orbit through (0, y*)
and (0, -exp(-gamma*pi)*y*) of period 2*pi.

Both half-turns are one arc kernel, (atan(x/(y - gamma*x)),
hypot(y - gamma*x, x)), taken at x = h for the right zone and at x = -h
for the left: aL is minus the left arc's angle, and ``oracle._pairs``
mirrors its legs alike.  ``_arc`` is the one reference for that kernel
and every function here wraps it, except ``displacement``: it evaluates
h once and spells both arcs out inline, since the root search and the
scans call it most, and a test pins its bits to the two ``_landing_y``
calls it replaces.  The radius goes through hypot, in factored form, to
avoid cancellation for small y.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DomainError,
    EvaluationError,
    HypothesisError,
    Point,
    PWLSystem,
    SystemParams,
    Zone,
)

TWO_PI = 2.0 * math.pi


def flow(zone: Zone, t: float | np.ndarray, p: Point, params: SystemParams) -> Point:
    """Exact zone flow at time t from p; entire in t, so any t is valid.

    An array of times gives a Point of arrays, each sample with the bits
    of its float time: ``math`` takes every sine, cosine and exponential.
    """
    g = params.gamma
    s = zone.sign
    x, y = p
    if np.ndim(t):
        e = np.fromiter((math.exp(s * g * v) for v in t), float)
        st, ct = np.fromiter(map(math.sin, t), float), np.fromiter(map(math.cos, t), float)
    else:
        e, st, ct = math.exp(s * g * t), math.sin(t), math.cos(t)
    return Point(
        e * ((s * g * x - y) * st + x * ct),
        e * (((g * g + 1.0) * x - s * g * y) * st + y * ct),
    )


def _boundary_offset(y: float, system: PWLSystem) -> float:
    """h(y) for y > 0, after validating the amplitude bound |h| < y/gamma."""
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    h = float(system.boundary.evaluate(y))
    if not math.isfinite(h):
        raise EvaluationError(f"boundary value not finite at y={y!r}")
    if abs(h) * system.gamma >= y:
        raise HypothesisError(
            f"amplitude bound |h(y)| < y/gamma fails at y={y!r}: |h|={abs(h)!r}, y/gamma={y / system.gamma!r}"
        )
    return h


def _arc(y: float, x: float, g: float) -> tuple[float, float]:
    """Angle and radius (atan(x/(y - g*x)), hypot(y - g*x, x)) of a half-turn.

    The backward right half-turn from (h(y), y) is the arc at x = h, the
    forward left half-turn is the arc at x = -h.  Negation is exact, atan
    is odd and hypot is even, so both half-turns share this one kernel.
    """
    d = y - g * x
    return math.atan(x / d), math.hypot(d, x)


def _landing_y(y: float, x: float, g: float) -> float:
    """Ordinate -exp(-gamma*pi + gamma*a) * r where the arc at x meets {x=0, y<0}."""
    a, r = _arc(y, x, g)
    return -math.exp(-g * math.pi + g * a) * r


def crossing_time_left(y: float, system: PWLSystem) -> float:
    """Time for the left-zone orbit from (h(y), y) to reach {x=0, y<0}.

    Lies in (pi/2, 3*pi/2); equals pi exactly when h(y) = 0 and is larger
    (smaller) when h(y) is positive (negative).
    """
    return math.pi - _arc(y, -_boundary_offset(y, system), system.gamma)[0]


def crossing_time_right(y: float, system: PWLSystem) -> float:
    """Backward time for the right-zone orbit from (h(y), y) to {x=0, y<0}.

    Lies in (-3*pi/2, -pi/2) and equals -pi exactly when h(y) = 0.
    """
    return -math.pi + _arc(y, _boundary_offset(y, system), system.gamma)[0]


def left_exit_y(y: float, system: PWLSystem) -> float:
    """Ordinate where the forward left-zone orbit from (h(y), y) meets {x=0, y<0}.

    Closed form: -exp(-gamma*pi - gamma*aL) * hypot(y + gamma*h, h) < 0.
    """
    return _landing_y(y, -_boundary_offset(y, system), system.gamma)


def right_entry_y(y: float, system: PWLSystem) -> float:
    """Ordinate where the backward right-zone orbit from (h(y), y) meets {x=0, y<0}.

    Closed form: -exp(-gamma*pi + gamma*aR) * hypot(y - gamma*h, h) < 0.
    """
    return _landing_y(y, _boundary_offset(y, system), system.gamma)


def displacement(y: float, system: PWLSystem) -> float:
    """f(y): forward landing ordinate minus backward landing ordinate.

    Zero iff h(y) = 0; shares the sign of h(y) elsewhere, which is what
    makes zeros of h correspond one-to-one to periodic orbits.

    The checks of ``_boundary_offset`` and the two ``_landing_y`` arcs are
    written out here, the same float operations in the same order, so the
    result has the bits of ``_landing_y(y, -h, g) - _landing_y(y, h, g)``
    without calling another function of this module.
    """
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    h = float(system.boundary.evaluate(y))
    if not math.isfinite(h):
        raise EvaluationError(f"boundary value not finite at y={y!r}")
    g = system.params.gamma
    if abs(h) * g >= y:
        raise HypothesisError(
            f"amplitude bound |h(y)| < y/gamma fails at y={y!r}: |h|={abs(h)!r}, y/gamma={y / g!r}"
        )
    x, base = -h, -g * math.pi
    d = y - g * x
    left = -math.exp(base + g * math.atan(x / d)) * math.hypot(d, x)
    d = y - g * h
    right = -math.exp(base + g * math.atan(h / d)) * math.hypot(d, h)
    return left - right


def delta(y: float, x: float, params: SystemParams) -> float:
    """Scaled landing radius delta_y(x) = exp(gamma*atan(x/(y-gamma*x))) * hypot(y-gamma*x, x).

    Defined for |x| < y/gamma; strictly positive; delta_y(0) = y.  The odd
    part delta_y(x) - delta_y(-x) reproduces the displacement through
    f(y) = exp(-pi*gamma) * (delta_y(h) - delta_y(-h)), and the squared
    difference has derivative

        2*x*(1+gamma^2) * (exp(2*gamma*atan(x/(y-gamma*x)))
                           - exp(-2*gamma*atan(x/(y+gamma*x))))

    which is positive on 0 < x < y/gamma; that monotonicity is the sign
    engine behind the displacement/offset sign agreement.
    """
    g = params.gamma
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    if abs(x) * g >= y:
        raise DomainError(f"|x| < y/gamma required, got x={x!r}, y/gamma={y / g!r}")
    a, r = _arc(y, x, g)
    return math.exp(g * a) * r


def displacement_f3_at_root(y_star: float, hprime: float, params: SystemParams) -> float:
    """Third derivative of the displacement at a zero y* of h.

    The first two derivatives vanish there, so this cubic coefficient,

        8*gamma*(1+gamma^2)*exp(-pi*gamma)*hprime^3 / y*^2,

    decides hyperbolicity: its sign is the sign of hprime, positive
    meaning the cycle attracts.
    """
    g = params.gamma
    if not (math.isfinite(y_star) and y_star > 0.0):
        raise DomainError(f"y_star must be a positive real, got {y_star!r}")
    return 8.0 * g * (1.0 + g * g) * math.exp(-math.pi * g) * hprime ** 3 / (y_star * y_star)
