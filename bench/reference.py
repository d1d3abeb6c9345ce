"""Exact answers from the paper, computed without calling the program.

For every built-in family the cycles, their stability and their shape
are known in closed form:

    sine         zeros of h at y = 1..n; stable iff k is even
    cosine       tangential zeros at y = 2, 4, ..., 2n; semi-stable,
                 attracting from outside
    oscillatory  zeros at y = 1/(k*pi); stable iff k is odd
    table        (sampled from a sine) the nodes where h = 0, with the
                 sine's rule

Each cycle crosses the y-axis at (0, y*) and (0, -exp(-gamma*pi)*y*)
and has period 2*pi; both zone flows are linear foci, so the cycle
itself is known at every time.  The displacement reference is the
paper's closed form evaluated with 50-digit mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi
STABLE = "stable"
UNSTABLE = "unstable"
SEMI_OUTER = "semi_stable_outer_stable"

# Parameter ranges in which the paper certifies each family's cycle count.
SINE_GAMMA_LIMIT = math.sqrt(3.0 / 5.0)
COSINE_GAMMA_LIMIT = math.sqrt(3.0 / 13.0)
OSCILLATORY_ALPHA_LIMIT = (math.sqrt(3.0) - 1.0) / 2.0

MP_DIGITS = 50


@dataclass(frozen=True)
class Case:
    """One system on one range, with the cycles the paper predicts there.

    ``descriptor`` is exactly what the program is given; ``zeros`` and
    ``classes`` are the exact cycle ordinates and stability classes,
    outermost last.  ``kmax`` marks an oscillatory case whose cycles come
    from the exact list 1/(k*pi), k = 1..kmax, instead of a root scan.
    """

    family: str
    gamma: float
    params: dict
    lo: float
    hi: float
    zeros: tuple
    classes: tuple
    kmax: int | None = None
    label: str = field(default="", compare=False)

    @property
    def descriptor(self) -> dict:
        return {"gamma": self.gamma, "boundary": {"family": self.family, "params": dict(self.params)}}


def _in_range(what: str, value: float, limit: float) -> None:
    if not 0.0 < value < limit:
        raise ValueError(f"{what} {value!r} outside the certified range (0, {limit!r})")


def _amp(gamma: float) -> float:
    return 2.0 * gamma / ((gamma * gamma + 1.0) * math.pi)


def sine_case(gamma: float, n: int, lo: float, hi: float) -> Case:
    _in_range("sine gamma", gamma, SINE_GAMMA_LIMIT)
    ks = [k for k in range(1, n + 1) if lo <= k <= hi]
    return Case("sine", gamma, {"n": n}, lo, hi, tuple(float(k) for k in ks),
                tuple(STABLE if k % 2 == 0 else UNSTABLE for k in ks), label=f"sine n={n}")


def cosine_case(gamma: float, n: int, lo: float, hi: float) -> Case:
    _in_range("cosine gamma", gamma, COSINE_GAMMA_LIMIT)
    zs = [2.0 * k for k in range(1, n + 1) if lo <= 2 * k <= hi]
    return Case("cosine", gamma, {"n": n}, lo, hi, tuple(zs), (SEMI_OUTER,) * len(zs),
                label=f"cosine n={n}")


def oscillatory_case(alpha: float, lo: float, hi: float, kmax: int | None = None) -> Case:
    """gamma = 1, the only rate the paper certifies for this family."""
    _in_range("oscillatory alpha", alpha, OSCILLATORY_ALPHA_LIMIT)
    if kmax is None:
        ks = range(math.ceil(1.0 / (hi * math.pi)), math.floor(1.0 / (lo * math.pi)) + 1)
        ks = [k for k in ks if lo <= 1.0 / (k * math.pi) <= hi]
    else:
        ks = range(1, kmax + 1)
    ks = sorted(ks, reverse=True)
    return Case("oscillatory", 1.0, {"alpha": alpha}, lo, hi,
                tuple(1.0 / (k * math.pi) for k in ks),
                tuple(STABLE if k % 2 == 1 else UNSTABLE for k in ks), kmax=kmax,
                label=f"oscillatory {'k<=%d' % kmax if kmax else 'scan'} n={len(ks)}")


def sine_table_samples(gamma: float, n: int, per_unit: int = 4) -> list:
    """(y, h, h') nodes of the sine boundary on [0, n + 1/2], exact zeros at the integers."""
    amp, slope = _amp(gamma), 2.0 * gamma / (gamma * gamma + 1.0)
    out = []
    for i in range(per_unit * n + per_unit // 2 + 1):
        y = i / per_unit
        h = 0.0 if i % per_unit == 0 else amp * math.sin(math.pi * y)
        out.append([y, h, slope * math.cos(math.pi * y)])
    return out


def table_case(gamma: float, n: int, lo: float, hi: float) -> Case:
    samples = sine_table_samples(gamma, n)
    nodes = [s for s in samples if s[1] == 0.0 and lo <= s[0] <= hi]
    return Case("table", gamma, {"samples": samples}, lo, hi,
                tuple(s[0] for s in nodes),
                tuple(STABLE if s[2] > 0.0 else UNSTABLE for s in nodes), label=f"table n={n}")


def h_ref(case: Case, y, m=math):
    """h(y) from the family's own definition, in float (m=math) or mpmath (m=mpmath)."""
    fam, p = case.family, case.params
    if fam == "oscillatory":
        return p["alpha"] * y * y * m.sin(1 / y)
    if fam == "table":
        return _hermite(p["samples"], y)
    g = case.gamma
    amp = 2 * g / ((g * g + 1) * m.pi)
    if fam == "sine":
        n = p["n"]
        return amp * m.sin(m.pi * y) if y <= (2 * n + 1) / 2 else amp * (-1) ** n
    if fam == "cosine":
        n = p["n"]
        return amp * (1 - m.cos(m.pi * y)) if y <= 2 * n + 1 else 2 * amp
    raise ValueError(fam)


def _hermite(samples, y):
    """Cubic Hermite interpolant through (y, h, h') nodes; y inside the node span."""
    for (y0, h0, d0), (y1, h1, d1) in zip(samples, samples[1:]):
        if y0 <= y <= y1:
            w = y1 - y0
            t = (y - y0) / w
            return ((2 * t ** 3 - 3 * t ** 2 + 1) * h0 + (t ** 3 - 2 * t ** 2 + t) * w * d0
                    + (-2 * t ** 3 + 3 * t ** 2) * h1 + (t ** 3 - t ** 2) * w * d1)
    raise ValueError(f"y={y!r} outside the table")


def displacement_mp(case: Case, y: float):
    """The paper's f(y) at the float y, to 50 digits.

        f = exp(-g*pi + g*aR) * hypot(y - g*h, h) - exp(-g*pi - g*aL) * hypot(y + g*h, h)
        aR = atan(h / (y - g*h)),  aL = atan(h / (y + g*h))
    """
    with mpmath.workdps(MP_DIGITS):
        yv, g = mpmath.mpf(y), mpmath.mpf(case.gamma)
        h = h_ref(case, yv, mpmath)
        a_r = mpmath.atan(h / (yv - g * h))
        a_l = mpmath.atan(h / (yv + g * h))
        e = mpmath.exp(-g * mpmath.pi)
        return (e * mpmath.exp(g * a_r) * mpmath.sqrt((yv - g * h) ** 2 + h * h)
                - e * mpmath.exp(-g * a_l) * mpmath.sqrt((yv + g * h) ** 2 + h * h))


def lower_crossing(gamma: float, y_star: float) -> float:
    return -math.exp(-gamma * math.pi) * y_star


def zone_flow(s: float, gamma: float, t, x0: float, y0: float):
    """Exact flow of x' = A x, A = [[2*s*gamma, -1], [gamma^2 + 1, 0]].

    A has eigenvalues s*gamma +- i and (A - s*gamma*I)^2 = -I, so
    exp(tA) = exp(s*gamma*t) * (cos t * I + sin t * (A - s*gamma*I)).
    """
    e, c, sn = np.exp(s * gamma * t), np.cos(t), np.sin(t)
    return (e * (x0 * c + (s * gamma * x0 - y0) * sn),
            e * (y0 * c + ((gamma * gamma + 1.0) * x0 - s * gamma * y0) * sn))


def cycle_at(gamma: float, y_star: float, t):
    """Point of the cycle through (0, y*) at time t (t = 0 at the upper crossing).

    The first half-period runs through the left zone (s = -1) to the
    lower crossing, the second through the right zone (s = +1) back up.
    """
    tau = np.mod(np.asarray(t, dtype=float), TWO_PI)
    xl, yl = zone_flow(-1.0, gamma, tau, 0.0, y_star)
    xr, yr = zone_flow(+1.0, gamma, tau - math.pi, 0.0, lower_crossing(gamma, y_star))
    left = tau <= math.pi
    return np.where(left, xl, xr), np.where(left, yl, yr)
