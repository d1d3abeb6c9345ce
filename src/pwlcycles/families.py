"""Constructors for switching-boundary families with exact derivatives.

Four built-in families plus tabulated user data:

    zero         h(y) = 0; straight switching line, the system degenerates
                 to a continuous field with a global center.
    sine         h(y) = (2*gamma/((gamma^2+1)*pi)) * sin(pi*y) on
                 [0, (2n+1)/2], frozen at its endpoint value beyond;
                 n zeros at y = 1..n, so exactly n limit cycles with
                 alternating stability (even crossings stable).
                 Requires 0 < gamma < sqrt(3/5).
    oscillatory  h(y) = alpha*y^2*sin(1/y), zeros at 1/(k*pi) accumulating
                 at 0, giving infinitely many nested cycles.  Requires
                 0 < alpha < (sqrt(3)-1)/2 and is only certified for
                 gamma = 1.
    cosine       h(y) = (2*gamma/((gamma^2+1)*pi)) * (1 - cos(pi*y)) on
                 [0, 2n+1], frozen beyond; non-negative with tangential
                 zeros at y = 2..2n step 2, producing n semi-stable
                 cycles.  Requires 0 < gamma < sqrt(3/13).
    table        monotone C1 cubic through user samples (y, h, h').

Every evaluate/derivative pair accepts floats or 1-d arrays.  Each
family writes h and h' once, as formula(y, m) with m = math for a float
and m = numpy for an array.  A float, numpy's float64 included, never
reaches numpy: it is tested with isinstance before any numpy call.  A
table keeps its cubics in one coefficient array.  Each family also
writes the ``envelope`` of |h| over (0, Y] in closed form:
0, amp, 2*amp, alpha*Y**2, and for a table the running maximum of each
piece's largest |cubic|, and the ``slope_envelope`` of |h'| alike: 0,
slope, slope, alpha*(2*Y + 1) and the same running maximum for h'.
Parameter ranges are enforced strictly at construction: each family's cycle
inventory is only guaranteed inside its stated range.
"""

from __future__ import annotations

import bisect
import math
import sys
from typing import Sequence

import numpy as np

from .core import Boundary, ParameterError, PWLSystem, SystemParams

SINE_GAMMA_LIMIT = math.sqrt(3.0 / 5.0)
COSINE_GAMMA_LIMIT = math.sqrt(3.0 / 13.0)
OSCILLATORY_ALPHA_LIMIT = (math.sqrt(3.0) - 1.0) / 2.0

FAMILIES = ("zero", "sine", "oscillatory", "cosine", "table")

_DBL_MIN = sys.float_info.min


def _check_count(n) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    return n


def _windowed(formula, window: float, tail: float):
    """formula(y, m) for y <= window and the constant ``tail`` beyond.

    ``m`` is ``math`` for a scalar argument and ``numpy`` for an array.  A
    float (numpy's float64 is one) is taken with ``float()`` before any
    numpy call, so it never reaches numpy; any other scalar goes through
    ``np.asarray`` once and then takes the same float path.
    """

    def fn(y):
        if not isinstance(y, float):
            y = np.asarray(y, dtype=float)
            if y.ndim:
                return np.where(y <= window, formula(y, np), tail)
        y = float(y)
        return formula(y, math) if y <= window else tail

    return fn


def _positive(formula):
    """formula(y, m) for y > 0 and 0 elsewhere, with ``m`` and a scalar's
    path as in ``_windowed``.

    The array path evaluates the formula only on the positive entries.
    """

    def fn(y):
        if not isinstance(y, float):
            y = np.asarray(y, dtype=float)
            if y.ndim:
                out = np.zeros_like(y)
                pos = y > 0.0
                out[pos] = formula(y[pos], np)
                return out
        y = float(y)
        return formula(y, math) if y > 0.0 else 0.0

    return fn


def _recip(y, m):
    """1/y with ``m`` as in ``_windowed``, NaN where it overflows (y below
    about 5.6e-309): there h is not finite, and both paths say so alike."""
    if m is math:
        r = 1.0 / y
        return math.nan if r == math.inf else r
    with np.errstate(over="ignore"):
        r = 1.0 / y
    r[np.isinf(r)] = np.nan
    return r


def make_zero() -> Boundary:
    """Straight-line boundary h = 0; the two zones join into a continuous field."""

    def evaluate(y):
        if isinstance(y, float):
            return 0.0
        arr = np.asarray(y, dtype=float)
        return np.zeros_like(arr) if arr.ndim else 0.0

    return Boundary(evaluate=evaluate, derivative=evaluate,
                    descriptor={"family": "zero", "params": {}}, envelope=lambda Y: 0.0,
                    slope_envelope=lambda Y: 0.0)


def make_sine(params: SystemParams, n: int) -> Boundary:
    """Sine boundary with n zeros at the integers 1..n.

    The window edge (2n+1)/2 falls on an extremum of sin(pi*y), so the
    constant tail joins with matching value and zero slope (C1).
    """
    n = _check_count(n)
    g = params.gamma
    if not (0.0 < g < SINE_GAMMA_LIMIT):
        raise ParameterError(
            f"sine family requires 0 < gamma < sqrt(3/5) ~= {SINE_GAMMA_LIMIT:.6f}, got {g!r}"
        )
    amp = 2.0 * g / ((g * g + 1.0) * math.pi)
    slope = 2.0 * g / (g * g + 1.0)
    window = (2.0 * n + 1.0) / 2.0
    tail = amp * (-1.0) ** n
    evaluate = _windowed(lambda y, m: amp * m.sin(m.pi * y), window, tail)
    derivative = _windowed(lambda y, m: slope * m.cos(m.pi * y), window, 0.0)
    return Boundary(evaluate=evaluate, derivative=derivative,
                    descriptor={"family": "sine", "params": {"n": n}},
                    envelope=lambda Y: amp, slope_envelope=lambda Y: slope)


def make_oscillatory(alpha: float) -> Boundary:
    """Boundary alpha*y^2*sin(1/y) whose zeros 1/(k*pi) accumulate at the origin.

    Certified only with gamma = 1 (enforced when built through a system
    descriptor; the boundary itself is gamma-free).  The derivative at 0
    is the limit value 0.
    """
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < OSCILLATORY_ALPHA_LIMIT):
        raise ParameterError(
            f"oscillatory family requires 0 < alpha < (sqrt(3)-1)/2 ~= {OSCILLATORY_ALPHA_LIMIT:.6f}, got {alpha!r}"
        )
    a = float(alpha)

    def slope(y, m):  # 1/y once for both terms
        r = _recip(y, m)
        return 2.0 * a * y * m.sin(r) - a * m.cos(r)

    evaluate = _positive(lambda y, m: a * y * y * m.sin(_recip(y, m)))
    derivative = _positive(slope)
    return Boundary(evaluate=evaluate, derivative=derivative,
                    descriptor={"family": "oscillatory", "params": {"alpha": a}},
                    envelope=lambda Y: a * Y * Y,
                    slope_envelope=lambda Y: a * (2.0 * Y + 1.0))


def oscillatory_root(k: int) -> float:
    """Exact k-th zero 1/(k*pi) of the oscillatory boundary, outermost first.

    Scan-based root finding cannot enumerate the accumulating tail, so
    cycle searches on this family go through these exact values.
    """
    k = _check_count(k)
    return 1.0 / (k * math.pi)


def make_cosine(params: SystemParams, n: int) -> Boundary:
    """Non-negative cosine boundary with tangential zeros at 2, 4, ..., 2n.

    1 - cos(pi*y) touches zero without sign change, so every cycle it
    produces is non-hyperbolic (h' = 0 there) and semi-stable.  The tail
    beyond y = 2n+1 is the constant maximum value, joined C1.
    """
    n = _check_count(n)
    g = params.gamma
    if not (0.0 < g < COSINE_GAMMA_LIMIT):
        raise ParameterError(
            f"cosine family requires 0 < gamma < sqrt(3/13) ~= {COSINE_GAMMA_LIMIT:.6f}, got {g!r}"
        )
    amp = 2.0 * g / ((g * g + 1.0) * math.pi)
    slope = 2.0 * g / (g * g + 1.0)
    window = 2.0 * n + 1.0
    tail = 2.0 * amp
    evaluate = _windowed(lambda y, m: amp * (1.0 - m.cos(m.pi * y)), window, tail)
    derivative = _windowed(lambda y, m: slope * m.sin(m.pi * y), window, 0.0)
    return Boundary(evaluate=evaluate, derivative=derivative,
                    descriptor={"family": "cosine", "params": {"n": n}},
                    envelope=lambda Y: tail, slope_envelope=lambda Y: slope)


def _table_row(sample) -> tuple:
    """(y, h, h' or None) from a sample of 2 or 3 numbers; h' may be None."""
    try:
        if len(sample) in (2, 3):
            slope = sample[2] if len(sample) == 3 else None
            return float(sample[0]), float(sample[1]), None if slope is None else float(slope)
    except (TypeError, ValueError):
        pass
    raise ParameterError(f"each table sample must be [y, h] or [y, h, h'], got {sample!r}")


def _pchip_slopes(ys, hs):
    """pchip's node slopes, as scipy's PchipInterpolator takes them: inside, the weighted
    harmonic mean of the two secants, or 0 if they differ in sign or one is 0 (Fritsch &
    Butland, SIAM J. Sci. Stat. Comput. 5 (1984) 300); at the ends, the one-sided three-point
    formula, clipped to keep the shape (Fritsch & Carlson, SIAM J. Numer. Anal. 17 (1980) 238)."""
    w = np.diff(ys)
    # subnormal secants overflow the mean on the way to its limit, 0
    with np.errstate(all="ignore"):
        m = np.diff(hs) / w
        if len(m) == 1:
            return np.array([m[0], m[0]])
        w1, w2 = 2.0 * w[1:] + w[:-1], w[1:] + 2.0 * w[:-1]
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        h0, h1, m0, m1 = w[[0, -1]], w[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, end))
    flat = np.sign(m[1:]) * np.sign(m[:-1]) <= 0.0
    return np.concatenate([end[:1], np.where(flat, 0.0, inner), end[1:]]) + 0.0  # no -0.0


def _piecewise(ys, c):
    """y -> sum_k c[k, j] * (y - ys[j])**(K-1-k) on piece j = [ys[j], ys[j+1]),
    the outer pieces extended, for K = 4 (h) or 3 (h').  The sum runs as
    scipy's PPoly runs it, from 0.0, lowest power first, powers by repeated
    multiplication, so the bits are scipy's.  A scalar takes the path of
    ``_windowed`` and is summed in Python, its terms unrolled; an array
    gathers each row."""
    inner, cols = ys[1:-1], [c[-1] + 0.0, *c[-2::-1]]
    knots, inner_list = ys.tolist(), inner.tolist()
    c0, c1, c2, *c3 = (col.tolist() for col in cols)  # no c3 for h'

    def fn(y):
        if not isinstance(y, float):
            arr = np.asarray(y, dtype=float)
            if arr.ndim:
                j = inner.searchsorted(arr, side="right")
                s, out, z = arr - ys.take(j), cols[0].take(j), None
                for col in cols[1:]:
                    z = s if z is None else z * s
                    out += col.take(j) * z
                return out
        y = float(y)
        j = bisect.bisect_right(inner_list, y)
        s = y - knots[j]
        z = s * s
        out = c0[j] + c1[j] * s + c2[j] * z
        return out + c3[0][j] * (z * s) if c3 else out

    return fn


def _running_bound(ys, c):
    """Y -> a nondecreasing bound on |p| over (0, Y], for p the piecewise cubic
    of ``c`` on the knots ``ys`` (h, or h' with c_3 = 0).  |p| on piece j
    peaks at an end or where its cubic turns: in u = s/width the cubic is
    sum_k C_k u**k, C_k = c_kj * width**k, taken at u = 0, 1 and the real
    roots of its derivative in [0, 1].  Roundoff scales with sum_k |C_k|, so
    1e-12 of that sum and the smallest normal double widen it.  A running
    maximum bounds all of (0, Y]; past the last node the last piece's cubic
    grows with Y.
    """
    w = np.diff(ys)
    big = c * w ** np.arange(3.0, -1.0, -1.0)[:, None]  # rows C_3 .. C_0
    # roots of 3 C_3 u**2 + 2 C_2 u + C_1, without cancellation, and with the
    # C_k scaled by a power of two so that their squares cannot underflow
    a3, a2, a1 = np.ldexp(big[:3], -np.frexp(np.abs(big[:3]).max(axis=0))[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(a2 + np.copysign(np.sqrt(a2 * a2 - 3.0 * a3 * a1), a2))
        turns = [q / (3.0 * a3), a1 / q]
    u = np.clip(np.nan_to_num(np.array([np.zeros_like(w), np.ones_like(w), *turns])), 0.0, 1.0)
    peak = np.abs(((big[0] * u + big[1]) * u + big[2]) * u + big[3]).max(axis=0)
    piece = peak + 1e-12 * np.abs(big).sum(axis=0)
    bounds = (np.maximum.accumulate(piece) + _DBL_MIN).tolist()
    inner, last, base = ys[1:-1].tolist(), float(ys[-1]), float(ys[-2])
    c3, c2, c1, c0 = (np.abs(c[:, -1]) * (1.0 + 1e-12)).tolist()

    def bound(y):
        if y <= last:
            return bounds[bisect.bisect_left(inner, y)]
        s = y - base
        return max(bounds[-1], ((c3 * s + c2) * s + c1) * s + c0 + _DBL_MIN)

    return bound


def make_table(samples: Sequence[tuple]) -> Boundary:
    """C1 cubic boundary through (y, h, h') samples, starting at (0, 0, .).

    Slopes given as None get pchip's shape-preserving slopes (Fritsch &
    Carlson 1980; Fritsch & Butland 1984); given slopes are kept exactly.
    h, h' and both envelopes read one coefficient array ``c`` (4 x pieces,
    built as scipy's CubicHermiteSpline builds it).  The cubic extrapolates
    beyond the last sample; the working range is the caller's business.
    """
    if len(samples) < 2:
        raise ParameterError("table boundary needs at least 2 samples")
    rows = [_table_row(s) for s in samples]
    ys = np.array([r[0] for r in rows])
    hs = np.array([r[1] for r in rows])
    slopes = [r[2] for r in rows]
    if ys[0] != 0.0 or hs[0] != 0.0:
        raise ParameterError("first sample must be (0, 0, .)")
    if np.any(np.diff(ys) <= 0.0):
        raise ParameterError("sample ordinates must be strictly increasing")
    if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(hs))):
        raise ParameterError("samples must be finite")

    ds = np.array([0.0 if s is None else s for s in slopes])
    if None in slopes:
        ds = np.where([s is None for s in slopes], _pchip_slopes(ys, hs), ds)
    if not np.all(np.isfinite(ds)):
        raise ParameterError("sample slopes must be finite")

    w = np.diff(ys)
    secant = np.diff(hs) / w
    t = (ds[:-1] + ds[1:] - 2.0 * secant) / w
    c = np.stack((t / w, (secant - ds[:-1]) / w - t, ds[:-1], hs[:-1]))  # rows c_3 .. c_0

    stored = np.stack([ys, hs, ds], axis=1).tolist()
    slope = c[:3] * np.array([[3.0], [2.0], [1.0]])  # rows of h': 3 c_3, 2 c_2, c_1
    return Boundary(evaluate=_piecewise(ys, c), derivative=_piecewise(ys, slope),
                    descriptor={"family": "table", "params": {"samples": stored}},
                    envelope=_running_bound(ys, c),
                    slope_envelope=_running_bound(ys, np.vstack([0.0 * w, slope])))


def boundary_from_descriptor(descriptor: dict, params: SystemParams) -> Boundary:
    """Rebuild a boundary from its JSON descriptor."""
    if not isinstance(descriptor, dict):
        raise ParameterError(f"boundary must be an object with a 'family' entry, got {descriptor!r}")
    family = descriptor.get("family")
    fp = descriptor.get("params", {}) or {}
    if not isinstance(fp, dict):
        raise ParameterError(f"boundary params must be an object, got {fp!r}")
    if family == "zero":
        return make_zero()
    if family == "sine":
        return make_sine(params, fp.get("n"))
    if family == "oscillatory":
        if params.gamma != 1.0:
            raise ParameterError(
                f"oscillatory family is only certified with gamma = 1, got {params.gamma!r}"
            )
        return make_oscillatory(fp.get("alpha"))
    if family == "cosine":
        return make_cosine(params, fp.get("n"))
    if family == "table":
        samples = fp.get("samples", [])
        if not isinstance(samples, (list, tuple)):
            raise ParameterError(f"table samples must be a list, got {samples!r}")
        return make_table(samples)
    raise ParameterError(f"unknown boundary family {family!r}")


def system_from_descriptor(descriptor: dict) -> PWLSystem:
    """Build the full system from {"gamma": ..., "boundary": {...}}."""
    if "gamma" not in descriptor:
        raise ParameterError("system descriptor needs a 'gamma' entry")
    if "boundary" not in descriptor:
        raise ParameterError("system descriptor needs a 'boundary' entry")
    gamma = descriptor["gamma"]
    if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
        raise ParameterError(f"gamma must be a number, got {gamma!r}")
    params = SystemParams(float(gamma))
    boundary = boundary_from_descriptor(descriptor["boundary"], params)
    return PWLSystem(params=params, boundary=boundary)
