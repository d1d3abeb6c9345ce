"""Independent numerical ground truth for the analytic results.

Everything here works only with the discontinuous vector field itself:
fixed-step 4th-order (Runge-Kutta) integration inside one zone at a
time, with boundary and section crossings bracketed between steps and
localized on the integrator's own one-step polynomial.  No crossing-time
or displacement formula enters any code path, so agreement with the
closed forms is meaningful cross-validation.

Implementation note: on a linear system the classic RK4 step is exactly
multiplication by the degree-4 Taylor polynomial of exp(step*A).  The
stepper propagates short chunks of ``_BLOCK_TIME`` time units through the
(complex) eigenpair of that one-step matrix.  What a leg needs before its
first step (the zone matrix, negated for a backward leg, the one-step
matrix, its eigenvector and the powers lam**k of its eigenvalue over one
chunk) is one plan, built once per zone, direction, step and chunk length
and shared by the legs that follow.  Each chunk scales the plan's table
by a coefficient taken from the chunk's start state.  This reproduces the
RK4 iterates to roundoff; truncation error and convergence order are
those of RK4 by construction.  A crossing bracketed between two steps is
landed on the same one-step polynomial, x(tau) = sum_k (tau*A)**k x / k!
for a substep tau, by Illinois (bracketed regula falsi) iteration on the
event function.

Each leg runs through one zone and stops where it leaves it, so the zone
and the direction pick the stop: forward-left and backward-right legs
stop on the lower section {x = 0, y < 0}, forward-right and backward-left
legs on the switching curve x = h(y).  Backward integration is forward
integration of the negated field.  The RK4 step is the oracle's only
setting: a start residue or a landing counts as on its event within
``EVENT_TOL``, and a leg that has not left its zone after ``MAX_TIME``
time units stops with ``TIME_OUT``.

A leg builds a chunk's states only where an event can be.  It first
computes the chunk's end state alone, with the bits the full chunk would
give.  A chunk turns the eigenvalue by less than pi/2, so x and y each
change sign at most once inside it, and three rules skip states without
evaluating the boundary on all of them.  Rule 1 hops a chunk whose x has one
strict sign at both ends (so no section crossing) when y <= 0 at both ends
(so g = x) or when |x| stays above the boundary's ``envelope`` of |h|:
where cos keeps its sign, log|rho**t cos(theta*t + phi)| is concave in t,
so |x| inside the chunk is at least its smaller end value.  Where g = x
and a chunk starts at x = 0 (a leg's start on the section), row 1 stands
in for the start: g = 0 starts no crossing, and that 0 is the one sign
change of x in the chunk.  Where x alone decides, a chunk with y > 0 at
both ends has y > 0 in every state, so it holds no section return and
hops whatever x does; ``_hop_mask`` holds the tests where x alone
decides.  A leg that records samples (a portrait's orbit) builds only the
rows it records of a hopped chunk.  Rule 2, for legs that record no
interior samples, settles an axis-stop chunk whose x changes sign away
from the curve from a few rows around the change, which the phase of
x_k = 2 Re(a v0 lam**k) places: the leg lands from them, or hops to the
chunk's end when the change is no section return.  A boundary without an
envelope, an unconfirmed change, any other state exactly 0 and a change
next to a chunk's first row take the full chunk, or rule 3 where it holds.
Rule 3, for counted legs that record no interior samples, evaluates
g = x - h(y) on rows about sqrt(n) apart in a chunk of n steps.  A step
moves g by at most L = |lam - 1|*|a|*(reach_x + slope*reach_y), ``slope``
the boundary's ``slope_envelope`` of |h'|, so where rows i < j have g of
one strict sign and |g_i| + |g_j| > (j - i)*L + 4*delta, delta far above
g's roundoff as in rule 1, every row between has it too (Piyavskii 1972,
Shubert 1972).  Only runs of rows not so certified are built, each masked
as the full chunk is.  A boundary without both envelopes and a start at
0 < y < ``_DBL_MIN`` take the full chunk.
Callers that read only where an axis-stop leg lands (the numerical
displacement, and the probe placement and the left-zone legs of the
return-map turns of the stability check) waive the crossing counters, so
for them x alone decides, and the boundary is never evaluated.

``numeric_displacement`` runs the legs of all its ordinates in lockstep.
The legs of one zone and direction share a plan and a step count, so each
chunk's hop test (``_hop_mask``) and rule 2 (``_sign_changes``) are array
arithmetic over every active leg, and the legs rule 2 brackets land together
after the last chunk (``_land_on_axis``), with the float operations of the
per-leg forms in the same order; a chunk rule 2 does not confirm takes the
per-leg code (``_Leg.settle``).  So every leg keeps its bits.

Stability is decided from one return-map turn on each side of a cycle.
A planar return map is strictly increasing, so with no other cycle
between the probe and the cycle the sign of the drift P(r) - r settles
that side.  The drift is trusted only when it exceeds ``MARGIN`` times an
error bar made of the change when the step is doubled and the ordinate
error the landings' actual residuals allow.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DomainError,
    IntegrationError,
    Point,
    PWLError,
    PWLSystem,
    StabilityClass,
    SystemParams,
    TangencyError,
    Zone,
    _stability_class,
    manifold_value,
    manifold_values,
    zone_matrix,
)

# Time units propagated per chunk before the stop event is searched for.
# A leg wastes at most one chunk past its event, and every chunk pays a
# fixed overhead; 0.5 ran the verify command fastest of 0.125 to 2.
# Rules 1 and 2 of the module notes need a chunk to turn the eigenvalue
# by less than _MAX_HOP_TURN; chunks that turn further (very large
# steps), and real spectra, are taken in full.
_BLOCK_TIME = 0.5
_MAX_HOP_TURN = 0.5 * math.pi
_MAX_BISECT = 200

# The bounds behind a hop are widened by _HOP_SLACK, far above the few ulps
# of roundoff in a chunk's states and in h.  A chunk whose |x| at the ends
# (rule 1) or in amplitude (rule 2) is at most _HOP_FLOOR is built in full:
# its states near an axis would reach the subnormal range, where roundoff
# is no longer relative.  So is a chunk that starts at 0 < y < _DBL_MIN,
# where h may not be finite (the oscillatory 1/y overflows) and a built
# chunk reports it.
_HOP_SLACK = 1e-9
_HOP_FLOOR = 1e-200
_DBL_MIN = sys.float_info.min

# |g| <= EVENT_TOL is on the event; a leg still in its zone at MAX_TIME times out.
EVENT_TOL = 1e-12
MAX_TIME = 100.0

# The smallest RK4 step taken.  The oracle's error is already roundoff-bound
# at step 1e-4, and a leg's power table grows as 1/step.
MIN_STEP = 1e-5

# A side of a cycle gets a stability verdict only when its one-turn drift
# exceeds this multiple of the drift's error bar.
MARGIN = 10.0


class TerminalEvent(str, Enum):
    BOUNDARY_CROSS = "boundary_cross"
    AXIS_CROSS = "axis_cross"
    TIME_OUT = "time_out"


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def _check_step(step: float) -> float:
    """The RK4 step, once it is finite and at least ``MIN_STEP``."""
    if not (step >= MIN_STEP and math.isfinite(step)):
        raise DomainError(f"step must be finite and at least {MIN_STEP!r}, got {step!r}")
    return step


@dataclass
class TrajectorySegment:
    """One in-zone orbit piece: sampled states plus the stopping event.

    times/points include the start and the localized terminal state;
    interior samples are thinned by the caller's record stride.  The
    crossing counters cover the whole segment regardless of thinning and
    count switching-curve crossings in y > 0 and lower-section crossings
    in the sense the forward flow takes them, so a backward leg counts
    those of the orbit it retraces.  They read -1 where the caller waived
    them (see ``integrate_in_zone``).
    """

    zone: Zone
    times: np.ndarray
    points: np.ndarray
    terminal_event: TerminalEvent
    sigma_crossings: int = 0
    section_returns: int = 0
    landing_error: float = 0.0

    @property
    def terminal_time(self) -> float:
        return float(self.times[-1])

    @property
    def terminal_point(self) -> Point:
        return Point(float(self.points[-1, 0]), float(self.points[-1, 1]))


def segments_to_csv(segments) -> str:
    """CSV export (t, x, y, zone) of one or more trajectory segments.

    A segment's row template, zone written in, formats all its rows at once.
    """
    parts = ["t,x,y,zone\n"]
    for seg in segments:
        values = np.column_stack((seg.times, seg.points))
        row = "%.12g,%.12g,%.12g," + seg.zone.value + "\n"
        parts.append((row * len(values)) % tuple(values.ravel().tolist()))
    return "".join(parts)


@dataclass(frozen=True)
class ReturnMapResult:
    """One full turn of the lower-section Poincare map.

    A valid turn crosses the switching curve exactly once and returns to
    {x=0, y<0} exactly once; the counters let callers verify that.
    ``landing_error`` sums the two legs' ``TrajectorySegment.landing_error``.
    """

    y_in: float
    y_out: float
    flight_time: float
    sigma_crossings: int
    section_returns: int
    landing_error: float = 0.0


def _step_transfer(matrix: np.ndarray, step: float) -> np.ndarray:
    """One-step map of fixed-step RK4 on x' = matrix @ x."""
    m = matrix * step
    t = np.eye(2)
    acc = np.eye(2)
    for k in (1.0, 2.0, 3.0, 4.0):
        acc = acc @ m / k
        t = t + acc
    return t


@dataclass(frozen=True, eq=False)
class _Plan:
    """What every leg of one zone, direction, step and chunk length shares.

    ``matrix`` is the zone's field matrix, negated for a backward leg, and
    ``transfer`` its one-step RK4 map.  For the transfer's upper eigenvalue
    lam: ``turn`` = arg(lam) per step, the eigenvector ``v``, its conjugate
    ``vc``, the denominator ``den`` that solves x0 = 2 Re(a v) for the
    coefficient a, and ``powers`` = lam**k for k = 0..chunk.  ``reach_x``
    and ``reach_y`` times |a| bound |x| and |y| over a chunk, the latter
    widened by ``_HOP_SLACK``, and times ``move`` = |lam - 1| their change
    in a step.  A real spectrum leaves ``powers`` None, and the leg steps
    plainly.  A plan is shared, so its arrays are read-only.
    """

    matrix: np.ndarray
    transfer: np.ndarray
    powers: np.ndarray | None = None
    turn: float = 0.0
    v: np.ndarray | None = None
    vc: np.ndarray | None = None
    den: complex = 0j
    reach_x: float = 0.0
    reach_y: float = 0.0
    move: float = 0.0


# Every leg of one zone, direction and step shares its plan.  A verify job
# runs five kinds of leg (forward in either zone and backward in the right
# zone at its step, forward in either zone at twice it); the benchmark's four
# verify systems (three rates) use 15 in turn, and 32 leave room to spare.  A
# table holds 80 KB at step 1e-4 and at most 0.8 MB at MIN_STEP.  The chunk
# length is an argument, not read here, so it follows _BLOCK_TIME.
@functools.lru_cache(maxsize=32)
def _plan(params: SystemParams, zone: Zone, forward: bool, step: float, chunk: int) -> _Plan:
    matrix = zone_matrix(params, zone)
    if not forward:
        matrix = -matrix
    transfer = _step_transfer(matrix, step)
    for a in (matrix, transfer):
        a.flags.writeable = False
    # (t00 - t11)^2 + 4*t01*t10 equals tr^2 - 4*det without the subtractive
    # cancellation that would otherwise poison the rotation angle per step.
    diag = transfer[0, 0] - transfer[1, 1]
    disc = diag * diag + 4.0 * transfer[0, 1] * transfer[1, 0]
    if disc >= 0.0 or abs(transfer[0, 1]) < 1e-300:
        return _Plan(matrix, transfer)
    lam = complex(0.5 * (transfer[0, 0] + transfer[1, 1]), 0.5 * math.sqrt(-disc))
    v = np.array([transfer[0, 1], lam - transfer[0, 0]], dtype=complex)
    vc = np.conj(v)
    powers = np.exp(np.arange(chunk + 1) * np.log(lam))
    for a in (v, vc, powers):
        a.flags.writeable = False
    growth = 2.0 * max(1.0, abs(lam) ** chunk)
    return _Plan(matrix, transfer, powers, math.atan2(lam.imag, lam.real), v, vc,
                 v[0] * vc[1] - v[1] * vc[0], growth * abs(v[0]),
                 growth * abs(v[1]) * (1.0 + _HOP_SLACK), abs(lam - 1.0))


def _coefficient(plan: _Plan, x0: np.ndarray):
    """The coefficient a with x0 = 2 Re(a v); an (m, 2) array of states gives m of them."""
    x, y = x0.T
    return (x * plan.vc[1] - y * plan.vc[0]) / plan.den


def _states(plan: _Plan, a: complex, lo: int, hi: int, stride: int = 1) -> np.ndarray:
    """States 2 Re(a lam**k v) for k in range(lo, hi, stride), shape (len, 2).

    Any range or stride of the table gives the same bits for the same k,
    so a chunk's last state, a few rows inside it or only its recorded
    rows can be had alone.
    """
    return _points(plan, a * plan.powers[lo:hi:stride])


def _points(plan: _Plan, c: np.ndarray) -> np.ndarray:
    """States 2 Re(c v) of the coefficients c, shape (len(c), 2)."""
    out = np.empty((len(c), 2))
    # v[0] is real, so the first column needs only the real part of c
    np.multiply(c.real, 2.0 * plan.v[0].real, out=out[:, 0])
    out[:, 1] = (c * (2.0 * plan.v[1])).real
    return out


def _propagate_states(plan: _Plan, x0: np.ndarray, n: int) -> np.ndarray:
    """States x_k = transfer^k @ x0 for k = 0..n, n at most the plan's chunk.

    Both zones are foci, so x_k = 2 Re(a lam**k v); a spectrum that rounds
    to real is stepped one state at a time.
    """
    if plan.powers is None:
        out = np.empty((n + 1, 2))
        out[0] = x0
        for k in range(n):
            out[k + 1] = plan.transfer @ out[k]
        return out
    out = _states(plan, _coefficient(plan, x0), 0, n + 1)
    out[0] = x0
    return out


def _hop_mask(plan: _Plan, a, x: np.ndarray, end: np.ndarray):
    """Whether a chunk hops where x alone decides the stop, leg by leg.

    ``x`` and ``end`` are the start and end states of one leg's chunk,
    shape (2,), or of m legs' chunks, shape (m, 2), and ``a`` the chunks'
    coefficients; one leg gives one flag, m legs a mask.  A chunk hops
    where x keeps its strict sign (rule 1), where it starts at x = 0 and
    row 1 has the sign of its end, or where y > 0 at both ends, so that
    it holds no section return.
    """
    x, end = x.T, end.T
    row1 = (a * plan.powers[1]).real * (2.0 * plan.v[0].real)  # x of row 1, as _points
    return ((x[0] * end[0] > 0.0) | ((x[0] == 0.0) & (row1 * end[0] > 0.0))
            | ((x[1] > 0.0) & (end[1] > 0.0)))


def _clear_of_curve(envelope, plan: _Plan, a: complex, x0: np.ndarray,
                    end: np.ndarray) -> bool:
    """Whether a chunk's x keeps its strict sign from x0 to end and |x|
    stays above |h| in every state (rule 1 where x alone does not decide)."""
    if envelope is None or 0.0 < x0[1] < _DBL_MIN or not x0[0] * end[0] > 0.0:
        return False
    amp = abs(a)
    margin = (envelope(amp * plan.reach_y) * (1.0 + _HOP_SLACK)
              + _HOP_SLACK * amp * plan.reach_x + _HOP_FLOOR)
    return min(abs(x0[0]), abs(end[0])) > margin


def _sign_change(plan: _Plan, a: complex, x0: np.ndarray, n: int):
    """(k, states k and k+1) of the one step pair over which x changes sign
    in a chunk of n steps whose ends have x of opposite strict signs, or
    None where a few rows do not confirm it (rule 2 of ``integrate_in_zone``).

    x_k is proportional to cos(arg a + k*turn), so the change lies next to
    the first k at which that angle passes pi/2 modulo pi.  Rows from 1 on
    around it must show exactly one strict change, from the sign of x0.
    """
    if abs(a) * plan.reach_x <= _HOP_FLOOR:
        return None
    k = int(((0.5 * math.pi - math.atan2(a.imag, a.real)) % math.pi) / plan.turn)
    lo, hi = max(1, k - 2), min(n + 1, k + 4)
    if hi - lo < 2:
        return None
    rows = _states(plan, a, lo, hi)
    xs = rows[:, 0]
    neg = xs < 0.0
    flips = np.flatnonzero(neg[1:] != neg[:-1])
    if len(flips) != 1 or neg[0] != (x0[0] < 0.0) or not xs.all():
        return None
    j = int(flips[0])
    return lo + j, rows[j:j + 2]


def _sign_changes(plan: _Plan, a: np.ndarray, x0: np.ndarray, n: int):
    """``_sign_change`` of m chunks at once, for coefficients ``a`` (m,) and
    starts ``x0`` (m, 2): a mask of the confirmed changes, and the states
    k and k+1 of each, shape (m, 2, 2).  Rows k-2..k+3 are clipped to 1..n,
    where a repeated row adds no change.  One chunk takes three to six times
    as long as in ``_sign_change``, which the per-leg callers keep."""
    k = (((0.5 * math.pi - np.arctan2(a.imag, a.real)) % math.pi) / plan.turn).astype(int)
    ks = np.minimum(np.maximum(k[:, None] + np.arange(-2, 4), 1), n)
    rows = _points(plan, (a[:, None] * plan.powers[ks]).ravel())
    xs = rows[:, 0].reshape(-1, 6)
    neg = xs < 0.0
    flips = neg[:, 1:] != neg[:, :-1]
    ok = ((np.abs(a) * plan.reach_x > _HOP_FLOOR) & (np.count_nonzero(flips, axis=1) == 1)
          & (np.minimum(k + 4, n + 1) - np.maximum(k - 2, 1) >= 2)
          & (neg[:, 0] == (x0[:, 0] < 0.0)) & xs.all(axis=1))
    j = 6 * np.arange(len(a)) + flips.argmax(axis=1)
    return ok, np.stack((rows[j], rows[j + 1]), axis=1)


def _section_return(pairs: np.ndarray, sense: int):
    """The section mask of a built chunk over state pairs (..., 2, 2): x crosses
    in the sense of the forward flow, with y < 0 on both states."""
    return (((pairs[..., 0, 0] < 0.0) == (sense > 0)) & (pairs[..., 0, 1] < 0.0)
            & (pairs[..., 1, 1] < 0.0))


def _event_value_scalar(system: PWLSystem, axis: bool, x) -> float:
    if axis:
        return float(x[0])
    return manifold_value(system, Point(float(x[0]), float(x[1])))


def _crossings(g: np.ndarray, direction: int, first: bool) -> np.ndarray:
    """Mask over step pairs (k, k+1) on which g crosses zero in ``direction``.

    In the first chunk of a leg a start residue |g[0]| <= EVENT_TOL is
    not a crossing.
    """
    ahead = g < 0.0 if direction > 0 else g > 0.0
    mask = ahead[:-1] & ~ahead[1:]
    if first and abs(g[0]) <= EVENT_TOL:
        mask[0] = False
    return mask


def _event_rate(system: PWLSystem, axis: bool, matrix: np.ndarray,
                x: np.ndarray) -> tuple[float, np.ndarray]:
    """(dg/dt, velocity) of the field x' = matrix @ x at x, g the event function
    (x on an axis stop, the switching function otherwise)."""
    vel = matrix @ x
    if axis:
        return float(vel[0]), vel
    y = float(x[1])
    hp = float(system.boundary.derivative(y)) if y > 0.0 else 0.0
    return float(vel[0] - hp * vel[1]), vel


def _forward_zone(system: PWLSystem, p: Point) -> Zone:
    """Zone the forward orbit through p enters: the sign of the switching function g,
    or within ``EVENT_TOL`` of the switching set that of dg/dt (0 goes right)."""
    g = manifold_value(system, p)
    if abs(g) <= EVENT_TOL:
        matrix = zone_matrix(system.params, Zone.RIGHT if g >= 0.0 else Zone.LEFT)
        g = _event_rate(system, False, matrix, np.array(p, dtype=float))[0]
    return Zone.LEFT if g < 0.0 else Zone.RIGHT


def _quartic(matrix: np.ndarray, x, y) -> list:
    """The coefficients c_k = A**k (x, y) / k!, k = 0..4, of the RK4 state x(tau) on a
    substep, as (x, y) pairs of floats, or of m-arrays that hold the same bits."""
    (a00, a01), (a10, a11) = matrix.tolist()
    c = [(x, y)]
    for k in (1.0, 2.0, 3.0, 4.0):
        px, py = c[-1]
        c.append(((a00 * px + a01 * py) / k, (a10 * px + a11 * py) / k))
    return c


def _horner(c, tau):
    """sum_k c[k] tau**k by Horner's rule, for c[k] floats or arrays."""
    x = c[4]
    for k in (3, 2, 1, 0):
        x = x * tau + c[k]
    return x


def _localize(system: PWLSystem, matrix: np.ndarray, x_from: np.ndarray, step: float,
              g_from: float, axis: bool) -> tuple[float, np.ndarray, float]:
    """Land on the event inside the substep (0, step] that brackets it.

    On a substep tau the RK4 state is the quartic x(tau) = sum_k c_k tau**k
    with c_k = A**k x_from / k!; the coefficients are built once and
    evaluated by Horner.  The root of g(x(tau)) is found by Illinois
    iteration, bisecting whenever the secant point leaves the bracket,
    until |g| <= EVENT_TOL or _MAX_BISECT iterations.  Returns tau, the
    landed state and the residual |g| reached there.
    """
    cx, cy = zip(*_quartic(matrix, float(x_from[0]), float(x_from[1])))

    def state(tau: float) -> tuple[float, float]:
        return _horner(cx, tau), _horner(cy, tau)

    lo, g_lo = 0.0, g_from
    hi = tau = step
    x_t = state(tau)
    g_t = g_hi = _event_value_scalar(system, axis, x_t)
    side = 0
    for _ in range(_MAX_BISECT):
        # a same-signed bracket only arises from roundoff at the substep end
        if abs(g_t) <= EVENT_TOL or (g_hi < 0.0) == (g_lo < 0.0):
            break
        tau = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
        x_t = state(tau)
        g_t = _event_value_scalar(system, axis, x_t)
        if (g_t < 0.0) == (g_hi < 0.0):
            hi, g_hi = tau, g_t
            if side > 0:
                g_lo *= 0.5
            side = 1
        else:
            lo, g_lo = tau, g_t
            if side < 0:
                g_hi *= 0.5
            side = -1
    return tau, np.array(x_t), abs(g_t)


def _land_on_axis(matrix: np.ndarray, x_from: np.ndarray, step: float) -> np.ndarray:
    """The states ``_localize`` lands on x = 0 from m states x_from, shape (m, 2):
    its axis case as arrays, the same float operations in the same order for
    each state, which leaves the iteration where ``_localize`` breaks."""
    c = np.array(_quartic(matrix, x_from[:, 0], x_from[:, 1]))  # (5, 2, m)
    taus, idx, cx, g_lo = np.empty(len(x_from)), np.arange(len(x_from)), c[:, 0], x_from[:, 0]
    lo, side, tau = np.zeros(len(idx)), np.zeros(len(idx)), np.full(len(idx), step)
    hi = tau
    g_t = g_hi = _horner(cx, tau)
    for _ in range(_MAX_BISECT):
        stop = (np.abs(g_t) <= EVENT_TOL) | ((g_hi < 0.0) == (g_lo < 0.0))
        if stop.any():
            taus[idx[stop]] = tau[stop]
            if stop.all():
                break
            idx, cx, lo, g_lo, hi, g_hi, side = (v[..., ~stop] for v in (idx, cx, lo, g_lo,
                                                                          hi, g_hi, side))
        tau = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        tau = np.where((lo < tau) & (tau < hi), tau, 0.5 * (lo + hi))
        g_t = _horner(cx, tau)
        same = (g_t < 0.0) == (g_hi < 0.0)
        g_lo, g_hi = (np.where(same, g_lo * np.where(side > 0.0, 0.5, 1.0), g_t),
                      np.where(same, g_t, g_hi * np.where(side < 0.0, 0.5, 1.0)))
        lo, hi = np.where(same, lo, tau), np.where(same, tau, hi)
        side = np.where(same, 1.0, -1.0)
    taus[idx] = tau  # the taus of the last iteration, or again those of the last stops
    return _horner(c, taus).T


def _steps_next(done: int, step: float, chunk: int) -> int:
    """Steps in the next chunk of a leg that has taken ``done`` steps, 0 at ``MAX_TIME``."""
    if MAX_TIME - done * step <= 0.5 * step:
        return 0
    return min(math.ceil((MAX_TIME - done * step) / step), chunk)


def _hops(plan: _Plan, chunk: int) -> bool:
    """Whether the legs of a plan may skip chunks by rules 1 and 2."""
    return plan.powers is not None and chunk * abs(plan.turn) < _MAX_HOP_TURN


class _Leg:
    """One leg between chunks: its state, steps taken, counters and records.

    The constructor refuses a non-finite or tangent start.  ``settle``
    takes a chunk that did not hop (rules 2 and 3, the full chunk and the
    landing); ``integrate_in_zone`` and the lockstep legs of
    ``_section_stops`` share it, as they share ``_hop_mask``.
    """

    def __init__(self, system: PWLSystem, plan: _Plan, start, step: float, axis: bool,
                 forward: bool, stride: int, counted: bool):
        x = np.array([start[0], start[1]], dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError(f"non-finite start point {start!r}")
        g0 = _event_value_scalar(system, axis, x)
        if abs(g0) <= EVENT_TOL:
            dgdt, vel = _event_rate(system, axis, plan.matrix, x)
            speed = float(np.hypot(*vel))
            if speed > 1e-14 and abs(dgdt) <= 1e-12 * speed:
                raise TangencyError(
                    f"start {start!r} sits on the stop section with tangent velocity"
                )
        self.system, self.plan, self.step, self.axis = system, plan, step, axis
        # A forward orbit crosses the section with x rising and the curve with
        # x - h(y) falling; a backward leg meets the same crossings reversed.
        self.sense = 1 if forward else -1
        self.stride, self.counted = stride, counted or not axis
        self.x = x
        self.done = 0  # steps taken before the current chunk
        self.rec_t: list[np.ndarray] = [] if stride else [np.zeros(1)]
        self.rec_p: list[np.ndarray] = [] if stride else [x[None, :]]
        self.sigma_count = self.section_count = 0
        self.terminal = TerminalEvent.TIME_OUT
        self.landing_error = 0.0
        self.end_time = 0.0

    def settle(self, n: int, a: complex | None, end: np.ndarray | None,
               x_decides: bool) -> bool:
        """Take an n-step chunk that did not hop; True once the leg stops.

        ``a`` and ``end`` are the chunk's coefficient and end state where
        the plan hops (None elsewhere), and ``x_decides`` whether x alone
        decides the stop.
        """
        system, plan, x, step, axis = self.system, self.plan, self.x, self.step, self.axis
        states = None
        # Rule 2: x changes sign at most once; only a section return stops the leg.
        if a is not None and not self.stride and axis and x_decides and x[0] * end[0] < 0.0:
            bracket = _sign_change(plan, a, x, n)
            if bracket is not None:
                base, states = bracket
                if not _section_return(states, self.sense):
                    self.x = end
                    self.done += n
                    return False
                g_stop, hit = states[:, 0], 0
        if states is None:
            runs = [(0, n)]
            # Rule 3: a counted leg builds only the rows where g may change sign.
            if (a is not None and not self.stride and self.counted and not 0.0 < x[1] < _DBL_MIN
                    and None not in (system.boundary.envelope, system.boundary.slope_envelope)):
                runs = self._uncertified(n, a)
            hit = None
            for base, last in runs:
                states = (_propagate_states(plan, x, last) if base == 0
                          else _states(plan, a, base, last + 1))
                hit, g_stop = self._mask(states, self.done == 0 and base == 0)
                if hit is not None:
                    break
            if self.stride > 0:  # a recording leg builds its chunks in full
                idx = np.arange((-self.done) % self.stride, n if hit is None else hit + 1,
                                self.stride)
                self.rec_t.append((self.done + idx) * step)
                self.rec_p.append(states[idx])
            if hit is None:
                self.x = states[-1] if end is None else end
                self.done += n
                return False
        if g_stop[hit + 1] == 0.0:
            tau, self.x = step, states[hit + 1]
        else:
            tau, self.x, residual = _localize(system, plan.matrix, states[hit], step,
                                              float(g_stop[hit]), axis)
            if residual > 0.0:
                dgdt, vel = _event_rate(system, axis, plan.matrix, self.x)
                self.landing_error = (residual * abs(float(vel[1])) / abs(dgdt) if dgdt
                                      else math.inf)
        self.end_time = (self.done + base + hit) * step + tau
        if axis:
            self.terminal = TerminalEvent.AXIS_CROSS
            self.section_count += 1
        else:
            self.terminal = TerminalEvent.BOUNDARY_CROSS
            self.sigma_count += 1
        return True

    def _mask(self, states: np.ndarray, first: bool):
        """(stop pair or None, event values) of consecutive chunk rows, counting the
        crossings before the stop; ``first``: the rows start the leg (residue rule)."""
        g_axis, y = states.T
        # One crossing mask per kind; the exit mask is the counter of its kind.
        section = _crossings(g_axis, self.sense, first) & (y[:-1] < 0.0) & (y[1:] < 0.0)
        if self.counted:
            g_man = manifold_values(self.system, states)
            sigma = _crossings(g_man, -self.sense, first)
        g_stop, hits = (g_axis, section) if self.axis else (g_man, sigma)
        hit = int(np.argmax(hits)) if hits.any() else None
        if self.counted:
            upto = len(hits) if hit is None else hit
            upper = sigma & (y[:-1] > 0.0) & (y[1:] > 0.0)
            self.sigma_count += int(np.count_nonzero(upper[:upto]))
            self.section_count += int(np.count_nonzero(section[:upto]))
        return hit, g_stop

    def _uncertified(self, n: int, a: complex) -> list:
        """Rule 3: the runs (first, last) of chunk rows outside which g keeps
        its strict sign between rows sampled about every sqrt(n)."""
        plan, boundary = self.plan, self.system.boundary
        ks = np.minimum(np.arange(0, n + math.isqrt(n), math.isqrt(n)), n)
        rows = _points(plan, a * plan.powers[ks])
        rows[0] = self.x
        g = manifold_values(self.system, rows)
        top = abs(a) * plan.reach_y
        reach = abs(a) * (plan.reach_x + boundary.slope_envelope(top) * plan.reach_y)
        slack = 4.0 * (_HOP_SLACK * (reach + boundary.envelope(top)) + _HOP_FLOOR)
        # |g_i| + |g_j| = |g_i + g_j| where the two have one strict sign
        sure = (g[:-1] * g[1:] > 0.0) & (np.abs(g[:-1] + g[1:])
                                         > np.diff(ks) * (plan.move * reach) + slack)
        ks, runs = ks.tolist(), []
        for i in np.flatnonzero(~sure).tolist():
            if runs and runs[-1][1] == ks[i]:
                runs[-1][1] = ks[i + 1]
            else:
                runs.append([ks[i], ks[i + 1]])
        return runs

    def segment(self, zone: Zone) -> TrajectorySegment:
        """The leg as it stands, stopped or timed out."""
        if self.terminal is TerminalEvent.TIME_OUT:
            self.end_time = self.done * self.step
        counters = ((self.sigma_count, self.section_count) if self.counted else (-1, -1))
        return TrajectorySegment(zone=zone,
                                 times=np.concatenate(self.rec_t + [np.array([self.end_time])]),
                                 points=np.concatenate(self.rec_p + [self.x[None, :]]),
                                 terminal_event=self.terminal,
                                 sigma_crossings=counters[0],
                                 section_returns=counters[1],
                                 landing_error=self.landing_error)


def integrate_in_zone(system: PWLSystem, zone: Zone, start: Point,
                      direction: Direction = Direction.FORWARD,
                      step: float = 1e-4,
                      record_stride: int = 1, *,
                      _count_crossings: bool = True) -> TrajectorySegment:
    """Integrate one zone's linear field until the leg leaves the zone or ``MAX_TIME``.

    The zone and the direction fix where the leg leaves.  Forward-left and
    backward-right legs stop on the lower section {x = 0, y < 0}, with x
    rising in the left zone and falling in the right (AXIS_CROSS).
    Forward-right and backward-left legs stop on the switching curve, with
    the switching function falling in the right zone and rising in the
    left (BOUNDARY_CROSS).

    The start may sit on the stop section provided the velocity carries it
    off (a residual event value within ``EVENT_TOL`` at the start is
    ignored for the first step).  record_stride keeps the interior samples
    at step indices divisible by it; 0 keeps only the endpoints.  Times
    start at 0 and increase regardless of direction.

    The segment's ``landing_error`` is the first-order ordinate offset
    between the landed state and the event, |y'|*|g|/|dg/dt| from the
    residual |g| the landing reached (0 for an exact hit or a time-out).

    A chunk's states are built only where an event can be, by rules 1
    to 3 of the module notes, with the bits of building them all.
    ``_count_crossings=False`` on a section-stop leg is for callers
    that read only the terminal state: the switching function is then never
    evaluated, more chunks are skipped, and both counters read -1.
    """
    _check_step(step)
    direction, zone = Direction(direction), Zone(zone)
    forward = direction is Direction.FORWARD
    chunk = max(1, math.ceil(_BLOCK_TIME / step))
    plan = _plan(system.params, zone, forward, step, chunk)
    # Forward, the left zone is left through the section and the right zone
    # through the curve; backward, the other way round.
    axis = (zone is Zone.LEFT) == forward
    stride = max(0, int(record_stride))
    leg = _Leg(system, plan, start, step, axis, forward, stride, _count_crossings)
    hop = _hops(plan, chunk)
    while n := _steps_next(leg.done, step, chunk):
        a = end = None
        x_decides = False
        if hop:
            x = leg.x
            a = complex(_coefficient(plan, x))
            end = _states(plan, a, n, n + 1)[0]
            # y <= 0 at both ends, so g = x throughout, or only x is asked for.
            x_decides = not leg.counted or (x[1] <= 0.0 and end[1] <= 0.0)
            # Elsewhere rule 1 also needs x clear of the curve where y > 0.
            if (_hop_mask(plan, a, x, end) if x_decides
                    else _clear_of_curve(system.boundary.envelope, plan, a, x, end)):
                if stride:
                    # the recorded rows alone; row 0 is the carried state
                    first = (-leg.done) % stride
                    rows = _states(plan, a, first, n, stride)
                    if first == 0:
                        rows[0] = x
                    leg.rec_t.append((leg.done + np.arange(first, n, stride)) * step)
                    leg.rec_p.append(rows)
                leg.x = end
                leg.done += n
                continue
        if leg.settle(n, a, end, x_decides):
            break
    return leg.segment(zone)


def propagate_fixed(system: PWLSystem, zone: Zone, start: Point, duration: float,
                    direction: Direction = Direction.FORWARD,
                    step: float = 1e-4) -> Point:
    """Plain fixed-step RK4 propagation for a set time, no event handling.

    The one-step matrix is raised to the whole step count by repeated
    squaring, apart from the plans ``integrate_in_zone`` uses, so it
    cross-checks them and the closed-form zone flow at arbitrary times.
    """
    _check_step(step)
    if not (duration >= 0.0 and math.isfinite(duration)):
        raise DomainError(f"duration must be finite and non-negative, got {duration!r}")
    matrix = zone_matrix(system.params, zone)
    if Direction(direction) is Direction.BACKWARD:
        matrix = -matrix
    n_full = int(duration / step)
    remainder = duration - n_full * step
    x = np.linalg.matrix_power(_step_transfer(matrix, step), n_full) @ [start[0], start[1]]
    if remainder > 1e-16:
        x = _step_transfer(matrix, remainder) @ x
    return Point(float(x[0]), float(x[1]))


def _time_out(direction: Direction, zone: Zone, origin_y: float) -> IntegrationError:
    return IntegrationError(f"{direction.value} {zone.value}-zone leg of the orbit from "
                            f"y={origin_y!r} did not leave its zone within "
                            f"MAX_TIME={MAX_TIME!r}")


def _leg(system: PWLSystem, zone: Zone, start: Point, direction: Direction, step: float,
         origin_y: float, counted: bool = True) -> TrajectorySegment:
    """An endpoints-only leg that must leave its zone within ``MAX_TIME``.

    ``origin_y`` is the ordinate the caller's orbit started from; a
    time-out raises ``IntegrationError`` naming it.  ``counted=False``
    waives the crossing counters.  The leg runs through the module's
    ``integrate_in_zone``, so a wrapper installed there sees every leg of
    a return-map turn and of ``upper_to_lower``; the lockstep legs of
    ``numeric_displacement`` do not pass through it.
    """
    leg = integrate_in_zone(system, zone, start, direction, step, record_stride=0,
                            _count_crossings=counted)
    if leg.terminal_event is TerminalEvent.TIME_OUT:
        raise _time_out(direction, zone, origin_y)
    return leg


def _section_stops(system: PWLSystem, zone: Zone, direction: Direction, starts: list,
                   step: float) -> tuple[list, dict]:
    """Landing ordinates of endpoints-only section-stop legs run in lockstep.

    Every leg starts at its own point of ``starts`` and has its counters
    waived, so x alone decides and all of them share one plan and one
    step count.  Each chunk's hop test and rule 2 are array arithmetic over
    the active legs, and the legs rule 2 brackets land together at the end
    (``_land_on_axis``); a chunk rule 2 does not confirm goes through
    ``_Leg.settle`` as in ``integrate_in_zone``.  Either way a leg keeps its
    bits.  Returns the landing ordinates (None for a failed leg) and the
    error of each failed leg by its index: a start refused by ``_Leg`` or a
    time-out naming the start's ordinate.
    """
    forward = direction is Direction.FORWARD
    chunk = max(1, math.ceil(_BLOCK_TIME / step))
    plan = _plan(system.params, zone, forward, step, chunk)
    ends: list = [None] * len(starts)
    errors: dict = {}

    def leg(i: int) -> _Leg:  # for a start near the section, or a chunk settled alone
        return _Leg(system, plan, starts[i], step, True, forward, 0, False)

    live = []  # the active legs' indices, in the order of the rows of x
    for i, start in enumerate(starts):
        try:  # _Leg refuses a start that is not finite or that is tangent to the section
            if not (EVENT_TOL < abs(start[0]) < math.inf and math.isfinite(start[1])):
                leg(i)
            live.append(i)
        except PWLError as exc:
            errors[i] = exc
    hop = _hops(plan, chunk)
    x = np.array([starts[i] for i in live], dtype=float).reshape(-1, 2)
    landed, pairs, done = [], [], 0  # the legs rule 2 lands, and their bracketing states
    while live and (n := _steps_next(done, step, chunk)):
        if hop:
            a = _coefficient(plan, x)
            end = _points(plan, a * plan.powers[n])
            settle = ~_hop_mask(plan, a, x, end)
        else:
            end, settle = x.copy(), np.ones(len(live), dtype=bool)
        if settle.any():
            stop = np.zeros(len(live), dtype=bool)
            change = np.flatnonzero(settle & (x[:, 0] * end[:, 0] < 0.0)) if hop else []
            if len(change):
                ok, bracket = _sign_changes(plan, a[change], x[change], n)
                lands = ok & _section_return(bracket, 1 if forward else -1)
                landed += [live[j] for j in change[lands].tolist()]
                pairs.append(bracket[lands])
                stop[change[lands]] = True
                settle[change[ok]] = False  # a confirmed change that is no return hops
            for j in np.flatnonzero(settle).tolist():
                one = leg(live[j])
                one.x, one.done = x[j], done
                if one.settle(n, *((complex(a[j]), end[j]) if hop else (None, None)), True):
                    ends[live[j]] = float(one.x[1])
                    stop[j] = True
                else:
                    end[j] = one.x
            live = [i for i, s in zip(live, stop.tolist()) if not s]
            end = end[~stop]
        done += n
        x = end
    for i in live:
        errors[i] = _time_out(direction, zone, starts[i][1])
    if landed:
        # a pair whose second x is exactly 0 lands there, as in _Leg.settle
        pairs = np.concatenate(pairs)
        ys, land = pairs[:, 1, 1].copy(), pairs[:, 1, 0] != 0.0
        ys[land] = _land_on_axis(plan.matrix, pairs[land, 0], step)[:, 1]
        for i, y in zip(landed, ys.tolist()):
            ends[i] = y
    return ends, errors


def numeric_displacement(system: PWLSystem, y: float | np.ndarray,
                         step: float = 1e-4) -> float | np.ndarray:
    """Displacement at y measured purely by integration.

    Forward through the left zone from (h(y), y) to the lower section,
    backward through the right zone from the same point, difference of
    landing ordinates.  ``y`` is a float or a 1-d array, which gives an
    array; a float is a batch of one.  The legs run in lockstep
    (``_section_stops``), each with the bits of its own
    ``integrate_in_zone`` leg.  The lockstep's array work is fixed per chunk
    and per landing: a float takes about 0.7 ms on the README sine at the
    default step, where its two legs alone take 0.2 ms, so pass an array.
    A failure raises the error of the first failing y, as calls in order
    would: its ordinate check, then its forward leg, then its backward leg.
    """
    ys = np.asarray(y, dtype=float)
    if ys.ndim > 1:
        raise DomainError(f"y must be a float or a 1-d array, got shape {ys.shape}")
    starts, refused = [], None
    for v in np.atleast_1d(ys).tolist():
        if not (math.isfinite(v) and v > 0.0):
            refused = DomainError(f"y must be a positive real, got {v!r}")
            break
        starts.append(Point(float(system.boundary.evaluate(v)), v))
    if starts:
        _check_step(step)
    fwd, fwd_err = _section_stops(system, Zone.LEFT, Direction.FORWARD, starts, step)
    bwd, bwd_err = _section_stops(system, Zone.RIGHT, Direction.BACKWARD, starts, step)
    for i in sorted(fwd_err.keys() | bwd_err.keys()):
        raise fwd_err.get(i) or bwd_err[i]
    if refused is not None:
        raise refused
    out = [f - b for f, b in zip(fwd, bwd)]
    return out[0] if ys.ndim == 0 else np.array(out)


def return_map(system: PWLSystem, y_in: float, step: float = 1e-4, *,
               _count_crossings: bool = True) -> ReturnMapResult:
    """One forward turn of the Poincare map on the lower section {x=0, y<0}.

    ``_count_crossings=False`` is for callers that read only ``y_out``,
    ``flight_time`` and ``landing_error``: the left-zone leg back to the
    section then runs uncounted, never evaluating the switching function,
    and both counters read -1.
    """
    if not (math.isfinite(y_in) and y_in < 0.0):
        raise DomainError(f"y_in must be negative, got {y_in!r}")
    leg1 = _leg(system, Zone.RIGHT, Point(0.0, y_in), Direction.FORWARD, step, y_in)
    leg2 = _leg(system, Zone.LEFT, leg1.terminal_point, Direction.FORWARD, step, y_in,
                counted=_count_crossings)
    counted = _count_crossings
    return ReturnMapResult(
        y_in=y_in,
        y_out=leg2.terminal_point.y,
        flight_time=leg1.terminal_time + leg2.terminal_time,
        sigma_crossings=leg1.sigma_crossings + leg2.sigma_crossings if counted else -1,
        section_returns=leg1.section_returns + leg2.section_returns if counted else -1,
        landing_error=leg1.landing_error + leg2.landing_error,
    )


def upper_to_lower(system: PWLSystem, y0: float, step: float = 1e-4) -> float:
    """Lower-section ordinate of the forward orbit through (0, y0), y0 > 0.

    Depending on the sign of h(y0) the start lies in the left zone
    directly or must first cross the switching curve from the right zone.
    """
    if not (math.isfinite(y0) and y0 > 0.0):
        raise DomainError(f"y0 must be positive, got {y0!r}")
    p = Point(0.0, y0)
    if _forward_zone(system, p) is Zone.RIGHT:
        p = _leg(system, Zone.RIGHT, p, Direction.FORWARD, step, y0).terminal_point
    return _leg(system, Zone.LEFT, p, Direction.FORWARD, step, y0,
                counted=False).terminal_point.y


def probe_eps(y_star: float, neighbors=()) -> float:
    """Perturbation size that stays between a cycle and its neighbors.

    A quarter of the gap to the nearest other root (the origin counts as
    a neighbor at 0), capped at 5% of the radius itself.
    """
    gaps = [abs(y_star - float(n)) for n in neighbors if float(n) != y_star]
    gaps.append(y_star)
    return min(0.05 * y_star, 0.25 * min(gaps))


def _side_verdicts(system: PWLSystem, y_star: float, eps: float,
                   step: float = 1e-4) -> list[tuple[str | None, float]]:
    """('approach' | 'retreat' | None, margin ratio) of the inner and the outer probe.

    Each probe is the orbit through (0, y* -+ eps); one turn of the return
    map runs from its lower crossing r = -y_in at ``step`` and at twice
    that step from the same r.  The drift d = P(r) - r has the error bar
    |d(step) - d(2 step)| plus the turn's landing error at ``step``; the
    margin ratio is |d| / bar.  The inner probe approaches when d > 0, the
    outer one when d < 0.  Only the turns' ``y_out`` and ``landing_error``
    are read, so their left-zone legs run uncounted: x alone decides where
    they land, with the bits of a counted turn.

    The landing of ``upper_to_lower`` only places the probe: the turn
    starts exactly at (0, y_in), so it does not enter the bar.  A late or
    early switching-curve landing moves the turn's end by the field jump
    4*gamma*x times the time offset, carried through the left zone; that
    is at most about 1.5 times its ordinate offset (gamma^2+1)*|x| times
    the time offset, which ``MARGIN`` covers.
    """
    sides = (-1.0, +1.0)
    y_ins = [upper_to_lower(system, y_star + side * eps, step) for side in sides]
    fine = [return_map(system, y_in, step, _count_crossings=False) for y_in in y_ins]
    coarse = [return_map(system, y_in, 2.0 * step, _count_crossings=False) for y_in in y_ins]
    out = []
    for side, y_in, f, c in zip(sides, y_ins, fine, coarse):
        drift = y_in - f.y_out
        bar = abs(f.y_out - c.y_out) + f.landing_error
        ratio = abs(drift) / bar if bar > 0.0 else (math.inf if drift else 0.0)
        verdict = "approach" if (drift > 0.0) == (side < 0.0) else "retreat"
        out.append((verdict if ratio > MARGIN else None, ratio))
    return out


def resolve_stability(system: PWLSystem, y_star: float, eps: float,
                      step: float = 1e-4) -> StabilityClass:
    """Empirical stability from one checked return-map turn on each side.

    Starts orbits at the upper crossings y* -+ eps and takes one turn of
    the lower-section map from each.  ``eps`` is required and must lie in
    (0, y*); ``probe_eps`` gives one that keeps both probes short of the
    neighbouring cycles.  A planar return map is strictly increasing, so
    with no other cycle between probe and cycle the sign of its drift
    P(r) - r settles whether that side approaches or retreats.  The drift
    counts only when it exceeds ``MARGIN`` times its error bar: the change
    when the step is doubled plus the landing error.  Otherwise the result
    is UNDETERMINED.  Each leg stops at ``EVENT_TOL`` and times out after
    ``MAX_TIME``.
    """
    if not (math.isfinite(y_star) and y_star > 0.0):
        raise DomainError(f"y_star must be positive, got {y_star!r}")
    if not (0.0 < eps < y_star):
        raise DomainError(f"eps must lie in (0, y_star), got {eps!r}")

    (interior, _), (exterior, _) = _side_verdicts(system, y_star, eps, step)
    if interior is None or exterior is None:
        return StabilityClass.UNDETERMINED
    return _stability_class(interior == "approach", exterior == "approach")
