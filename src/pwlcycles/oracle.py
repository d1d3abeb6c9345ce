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
and the direction pick the stop: forward-left and backward-right legs stop
on the lower section {x = 0, y < 0}, forward-right and backward-left legs
on the switching curve x = h(y).  Backward integration is forward
integration of the negated field; -A_R = S A_L S, S = diag(-1, 1), and
negation is exact, so an uncounted backward-right leg from (x, y) has the
bits of the forward-left leg from (-x, y), x negated.  The RK4 step is the
oracle's only setting, and every entry point takes it by the one rule of
``_check_step``: a start residue or a landing counts as on its event
within ``EVENT_TOL``, and a leg that has not left its zone after
``MAX_TIME`` time units stops with ``TIME_OUT``.

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
hops whatever x does; ``_skip`` holds rule 1.  A leg that records samples
(a portrait's orbit) builds only the rows it records of a hopped chunk.
Rule 2, for legs that record no
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
as the full chunk is.  A boundary without both envelopes, a start at
0 < y < ``_DBL_MIN`` and a chunk of amplitude at most ``_HOP_FLOOR`` take
the full chunk.
Callers that read only where an axis-stop leg lands (the numerical
displacement and the stability check, which share ``_pairs``) waive the
crossing counters: x alone decides, and their legs never evaluate the
boundary.

Two runners run a batch of legs through one zone in one direction at one
step, in lockstep.  ``_stops`` runs any batch, counted or not and recording
or not: ``integrate_in_zone`` is a batch of one leg, the return map runs its
legs of a zone as one batch and a portrait's ``sample_orbit`` the pending
legs of its seeds in one zone.  ``_lefts`` runs both legs of every ordinate
of ``_pairs``, uncounted forward-left legs.  A leg has the same bits in any
batch of either.  A batch's legs share one plan and one step count, so a
chunk's end states, rules 2 and 3 and the rows built are array work over the
legs (``_settle``), and many axis landings are one array Illinois.  ``_stops``
keeps each leg's state and rule 1 in Python (``_Leg``), about 30 us an
ordinate in a scan of 40, where ``_lefts`` keeps arrays; rule 1 as array work
in ``_stops`` slowed a float ``numeric_displacement`` by 30% and a two-turn
``return_map`` by 22%.  The states' bits are those of numpy's vectorized
complex product ``a * plan.powers[lo:hi]``: Python's ``complex`` product
and numpy's complex128 scalar product each differ from it in the last bit
for about two in five (a, k) (numpy 2.4, an AVX-512 CPU with FMA), so a
scalar path must keep the product an array operation, and the oracle's
bits depend on numpy's SIMD dispatch.

Stability is decided from the displacement f at one probe y = y* -+ eps on
each side of a cycle y*, from the two legs ``numeric_displacement`` runs.
f is minus the drift P(r) - r of the return-map turn from the probe's
lower crossing, and a planar return map is strictly increasing, so with no
other cycle between the probe and the cycle the sign of f settles that
side: a stable cycle has f < 0 inside and f > 0 outside.  The sign is
trusted only when |f| exceeds ``MARGIN`` times an error bar the legs
compute at their own step.  A leg's table orbit is the flow's with two
errors its plan knows (``_Plan``): its spiral exponent log|lam| / arg(lam)
is off from sigma, which scales the leg's end by the angle swept times the
error, and its eigenvector is off from the flow's, which moves a state by
a multiple of its x.  A phase error moves only when a leg lands, not where.
``_carried_error`` carries both to the leg's end, through its
landing, with a roundoff floor per chunk.  A probe's bar adds both legs'
and the ordinate errors their landings' residuals allow; a return-map
turn's adds its left leg's and its right leg's carried through the left
leg (``_carry``).  Against the flow's own legs at 40 digits, both bars
cover the error at every probe of the tests.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .core import (
    DomainError,
    EvaluationError,
    IntegrationError,
    Point,
    PWLError,
    PWLSystem,
    StabilityClass,
    SystemParams,
    TangencyError,
    Zone,
    _stability_class,
    _ascii_words,
    _decimal_text,
    _decimal_words,
    manifold_value,
    manifold_values,
    zone_matrix,
)

# Time units propagated per chunk before the stop event is searched for.
# A leg wastes at most one chunk past its event, and every chunk pays a
# fixed overhead; 0.5 ran the verify command fastest of 0.125 to 2.
# Rules 1 and 2 of the module notes need a chunk to turn the eigenvalue
# by less than _MAX_HOP_TURN, which every step ``_check_step`` accepts
# does (by at most 1.48); at a _MAX_HOP_TURN of 0 every chunk is taken
# in full, the reference the rules must match.
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

# The roundoff a leg's integration error allows per chunk, relative to |state|.
# Against 40-digit turns the error beyond the first-order terms measured at most
# a few ulps a turn, where this allows about 130.
_ROUNDOFF = 8.0 * sys.float_info.epsilon


class TerminalEvent(str, Enum):
    BOUNDARY_CROSS = "boundary_cross"
    AXIS_CROSS = "axis_cross"
    TIME_OUT = "time_out"


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def _check_step(params: SystemParams, step: float) -> float:
    """The RK4 step, once it is finite and at least ``MIN_STEP`` and each zone's
    one-step map grows or decays as the flow does, at the step and at twice it.

    The zone eigenvalues are sigma +- i with sigma = -gamma and +gamma, and the
    one-step map's are R(h*(sigma + i)), R(z) = 1 + z + z**2/2 + z**3/6 + z**4/24;
    a step is refused where, for h = step or 2*step, |R| is NaN (from about 1e154)
    or lies on the other side of 1 from exp(sigma*h).  With the double, every step
    taken has a complex one-step spectrum that turns forward by at least 0.448*step,
    so a chunk turns by less than ``_MAX_HOP_TURN`` (Hairer & Wanner, Solving ODEs
    II, IV.2); the step alone takes steps at which RK4 turns a zone by pi, or
    backwards.  At gamma = 0.75 the steps from about 1.0516 are refused, and at gamma = 0.1
    those from about 1.017 to 1.179 and from 1.468.  Each entry point checks its step
    once, before its other arguments, and hands it on checked.
    """
    if not (step >= MIN_STEP and math.isfinite(step)):
        raise DomainError(f"step must be finite and at least {MIN_STEP!r}, got {step!r}")
    for h in (step, 2.0 * step):
        for sigma in (-params.gamma, params.gamma):
            z = h * complex(sigma, 1.0)
            growth = abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
            if not (growth - 1.0) * sigma >= 0.0:
                raise DomainError(f"step {h!r} is too large for RK4 at gamma={params.gamma!r}: one "
                                  f"step scales the {'expanding' if sigma > 0.0 else 'contracting'}"
                                  f" focus by {growth:.6g}, on the other side of 1 from the flow")
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
    them (see ``integrate_in_zone``).  ``landing_error`` and
    ``integration_error`` bound the terminal ordinate's error from the
    landing's residual and from the plan (``_Leg.integration_error``).
    """

    zone: Zone
    times: np.ndarray
    points: np.ndarray
    terminal_event: TerminalEvent
    sigma_crossings: int = 0
    section_returns: int = 0
    landing_error: float = 0.0
    integration_error: float = 0.0

    @property
    def terminal_time(self) -> float:
        return float(self.times[-1])

    @property
    def terminal_point(self) -> Point:
        return Point(float(self.points[-1, 0]), float(self.points[-1, 1]))


_CSV_HEADER = "t,x,y,zone\n"
# Rows per ``_decimal_words`` call.  A block's arrays stay near 100 kB, so the heap
# reuses them from one export to the next; all ~8k rows of a portrait in one call
# peak at 3.3 MB, which the allocator maps afresh each export (~730 page faults).
_CSV_BLOCK = 1024


def segments_to_csv(segments) -> str:
    """CSV export (t, x, y, zone) of one or more trajectory segments.

    Every value of every row is written by ``core._decimal_words``, one call per
    block of ``_CSV_BLOCK`` rows, exactly as ``"%.12g" % v``: from integer digits
    where 1e-4 <= |v| < 1e4 and the 12-digit mantissa is clear of a rounding tie
    and of a decade edge, by ``%`` itself for every other value.
    """
    segments = list(segments)
    if not segments:
        return _CSV_HEADER
    values = np.concatenate([np.column_stack((seg.times, seg.points)) for seg in segments])
    zones = np.repeat(np.stack([_ascii_words(f"{seg.zone.value}\n") for seg in segments]),
                      [len(seg.times) for seg in segments], axis=0)
    comma, parts = _ascii_words(","), [_CSV_HEADER]
    for start in range(0, len(values), _CSV_BLOCK):
        words = _decimal_words(values[start:start + _CSV_BLOCK], "%.12g")
        n, _, k = words.shape
        rows = np.empty((n, 3 * (k + 1) + 2), dtype=words.dtype)  # "t,x,y," then the zone
        for j in range(3):
            rows[:, j * (k + 1):j * (k + 1) + k], rows[:, j * (k + 1) + k] = words[:, j], comma
        rows[:, -2:] = zones[start:start + _CSV_BLOCK]
        parts.append(_decimal_text(rows))
    return "".join(parts)


@dataclass(frozen=True)
class ReturnMapResult:
    """One full turn of the lower-section Poincare map.

    A valid turn crosses the switching curve exactly once and returns to
    {x=0, y<0} exactly once; the counters let callers verify that.
    ``landing_error`` sums the two legs' ``TrajectorySegment.landing_error``.
    ``integration_error`` is the left leg's ``TrajectorySegment.integration_error``
    plus the right leg's times ``_carry``, which takes an ordinate error on the
    switching curve through the left leg.
    """

    y_in: float
    y_out: float
    flight_time: float
    sigma_crossings: int
    section_returns: int
    landing_error: float = 0.0
    integration_error: float = 0.0


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
    in a step.  Every step ``_check_step`` accepts gives lam complex with
    ``turn`` > 0.  A plan is shared, so its arrays are read-only.

    The table's orbit is the flow's with two errors, which ``_Leg.integration_error``
    carries to a leg's end.  ``spiral`` is its spiral exponent log|lam| / arg(lam),
    read off the ``log lam`` the powers are built from, less the flow's exact
    sigma = matrix[0, 0] / 2 (the flow turns at rate 1).  ``shape`` = (e1, e2)
    is the second row of E = P' P^-1 - I, P' and P the real bases 2 [Re w, -Im w]
    of the normalized eigenvector w = v / v[0] of the table and of the flow:
    the table flow is (I + E) F (I + E)^-1, F the flow with the table's
    eigenvalue, and I + E keeps x.
    """

    matrix: np.ndarray
    transfer: np.ndarray
    powers: np.ndarray
    turn: float
    v: np.ndarray
    vc: np.ndarray
    den: complex
    reach_x: float
    reach_y: float
    move: float
    spiral: float
    shape: tuple


# Every leg of one zone, direction and step shares its plan.  A verify job
# runs two kinds of leg (forward in either zone at its step; ``_pairs`` runs a
# backward-right leg as its mirror image); the benchmark's four verify systems
# (three rates) use 6 in turn, and 32 leave room for portraits and other steps.  A
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
    lam = complex(0.5 * (transfer[0, 0] + transfer[1, 1]), 0.5 * math.sqrt(-disc))
    v = np.array([transfer[0, 1], lam - transfer[0, 0]], dtype=complex)
    vc = np.conj(v)
    log_lam = np.log(lam)
    powers = np.exp(np.arange(chunk + 1) * log_lam)
    for a in (v, vc, powers):
        a.flags.writeable = False
    growth = 2.0 * max(1.0, abs(lam) ** chunk)
    # the flow's eigenvector for the eigenvalue sigma + i is (1, r) with r below
    sigma, (m00, m01) = 0.5 * matrix[0, 0], matrix[0].tolist()
    r = (1j - 0.5 * m00) / m01
    dr = complex(v[1] / v[0]) - r
    return _Plan(matrix, transfer, powers, math.atan2(lam.imag, lam.real), v, vc,
                 v[0] * vc[1] - v[1] * vc[0], growth * abs(v[0]),
                 growth * abs(v[1]) * (1.0 + _HOP_SLACK), abs(lam - 1.0),
                 float(log_lam.real / log_lam.imag - sigma),
                 (dr.real - dr.imag * r.real / r.imag, dr.imag / r.imag))


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

    Both zones are foci, so x_k = 2 Re(a lam**k v) with a the coefficient of x0.
    """
    out = _states(plan, _coefficient(plan, x0), 0, n + 1)
    out[0] = x0
    return out


def _skip(plan: _Plan, envelope, counted: bool, a: complex, x, end) -> tuple[bool, bool]:
    """(whether rule 1 hops the chunk with coefficient ``a`` from state ``x`` to
    ``end``, pairs of floats, whether x alone decides the leg's stop there)."""
    (x0, y0), (e0, e1) = x, end
    if not counted or (y0 <= 0.0 and e1 <= 0.0):
        return (x0 * e0 > 0.0 or (y0 > 0.0 and e1 > 0.0) or x0 == 0.0
                and (a * plan.powers[1]).real * (2.0 * plan.v[0].real) * e0 > 0.0), True
    if envelope is None or 0.0 < y0 < _DBL_MIN or not x0 * e0 > 0.0:
        return False, False
    amp = abs(a)
    margin = (envelope(amp * plan.reach_y) * (1.0 + _HOP_SLACK)
              + _HOP_SLACK * amp * plan.reach_x + _HOP_FLOOR)
    return min(abs(x0), abs(e0)) > margin, False


def _sign_changes(plan: _Plan, a: np.ndarray, x0: np.ndarray, n: int):
    """Rule 2 for m chunks of n steps whose ends have x of opposite strict signs,
    coefficients ``a`` (m,) and starts ``x0`` (m, 2): a mask of the chunks where
    rows confirm the step pair over which x changes sign, its k and its states
    k and k+1, shape (m, 2, 2).  x_k is proportional to cos(arg a + k*turn), so
    the change lies next to the first k at which that angle passes pi/2 modulo
    pi; rows k-2..k+3, clipped to 1..n where a repeated row adds no change,
    must show exactly one strict change, from the sign of x0."""
    k = (((0.5 * math.pi - np.arctan2(a.imag, a.real)) % math.pi) / plan.turn).astype(int)
    ks = np.minimum(np.maximum(k[:, None] + np.arange(-2, 4), 1), n)
    rows = _points(plan, (a[:, None] * plan.powers[ks]).ravel())
    xs = rows[:, 0].reshape(-1, 6)
    neg = xs < 0.0
    flips = neg[:, 1:] != neg[:, :-1]
    ok = ((np.abs(a) * plan.reach_x > _HOP_FLOOR) & (np.count_nonzero(flips, axis=1) == 1)
          & (np.minimum(k + 4, n + 1) - np.maximum(k - 2, 1) >= 2)
          & (neg[:, 0] == (x0[:, 0] < 0.0)) & xs.all(axis=1))
    m, j = np.arange(len(a)), flips.argmax(axis=1)
    return ok, ks[m, j], rows.reshape(-1, 6, 2)[m[:, None], j[:, None] + [0, 1]]


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
    g_t = g_hi = x_t[0] if axis else manifold_value(system, Point(*x_t))
    side = 0
    for _ in range(_MAX_BISECT):
        # a same-signed bracket only arises from roundoff at the substep end
        if abs(g_t) <= EVENT_TOL or (g_hi < 0.0) == (g_lo < 0.0):
            break
        tau = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
        x_t = state(tau)
        g_t = x_t[0] if axis else manifold_value(system, Point(*x_t))
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


def _land_on_axis(matrix: np.ndarray, x_from: np.ndarray, step: float):
    """The substeps tau (m,) and states (m, 2) ``_localize`` lands on x = 0 from
    m states x_from, shape (m, 2): its axis case as arrays, the same float
    operations in the same order for each state, which leaves the iteration
    where ``_localize`` breaks."""
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
    return taus, _horner(c, taus).T


def _steps_next(done: int, step: float, chunk: int) -> int:
    """Steps in the next chunk of a leg that has taken ``done`` steps, 0 at ``MAX_TIME``."""
    if MAX_TIME - done * step <= 0.5 * step:
        return 0
    return min(math.ceil((MAX_TIME - done * step) / step), chunk)


def _uncertified(system: PWLSystem, plan: _Plan, a: np.ndarray, x: np.ndarray, n: int):
    """Rule 3 for the n-step chunks of m legs with coefficients ``a`` (m,) and
    states ``x`` (m, 2): the intervals (leg, lo, hi) of rows, between rows sampled
    about every sqrt(n), over which g may change sign, leg by leg and in order."""
    boundary, ks = system.boundary, np.minimum(np.arange(0, n + math.isqrt(n), math.isqrt(n)), n)
    rows = _points(plan, (a[:, None] * plan.powers[ks]).ravel()).reshape(len(a), -1, 2)
    rows[:, 0] = x
    g = manifold_values(system, rows.reshape(-1, 2)).reshape(len(a), -1)
    bars = []  # per leg: the most g moves in a step, and the slack
    for amp in np.abs(a).tolist():
        top = amp * plan.reach_y
        reach = amp * (plan.reach_x + boundary.slope_envelope(top) * plan.reach_y)
        bars.append((plan.move * reach, 4.0 * (_HOP_SLACK * (reach + boundary.envelope(top))
                                               + _HOP_FLOOR)))
    move, slack = np.array(bars).T[:, :, None]
    # |g_i| + |g_j| = |g_i + g_j| where the two have one strict sign
    sure = (g[:, :-1] * g[:, 1:] > 0.0) & (np.abs(g[:, :-1] + g[:, 1:])
                                           > np.diff(ks) * move + slack)
    leg, i = np.nonzero(~sure)
    return leg, ks[i], ks[i + 1]


def _build(plan: _Plan, x: np.ndarray, a: np.ndarray, leg: np.ndarray, lo: np.ndarray,
           hi: np.ndarray):
    """Rows lo[s]..hi[s] of the chunk of leg[s], one run s after another, from the
    legs' states ``x`` and coefficients ``a`` (row 0 is the state itself), with
    the run and the step index k of each row."""
    size = hi - lo + 1
    run = np.repeat(np.arange(len(leg)), size)
    k = np.arange(len(run)) + np.repeat(lo - np.cumsum(size) + size, size)
    rows = _points(plan, a[leg[run]] * plan.powers[k])
    at0 = np.flatnonzero(k == 0)
    rows[at0] = x[leg[run[at0]]]
    return rows, run, k


def _settle(system: PWLSystem, plan: _Plan, n: int, done: int, x: np.ndarray, a: np.ndarray,
            end: np.ndarray, take: list, legs: list, hop: bool) -> list:
    """Take as array work the n-step chunks that did not hop of the legs (h, x alone
    decides) in ``take``, of the ``_Leg``s ``legs`` with states ``x`` after ``done``
    steps, coefficients ``a`` and ends ``end``: by rule 2, rule 3 or whole, and whole
    for recording legs, which record the rows to their stops, and where the plan does
    not ``hop``.  Returns the stops as ``_stop_pairs``."""
    one = legs[0]
    stops, runs, settled, three = [], [], set(), []  # runs: (leg, lo, hi) of rows to build
    if hop and not one.stride:
        xs, es = x.tolist(), end[:, 0].tolist()
        two = [h for h, decides in take if one.axis and decides and xs[h][0] * es[h] < 0.0]
        if two:
            ok, base, pairs = _sign_changes(plan, a[two], x[two], n)
            # a confirmed change stops the leg where x crosses in the sense of the
            # forward flow with y < 0 on both states, and hops elsewhere
            land = (((pairs[:, 0, 0] < 0.0) == (one.sense > 0)) & (pairs[:, 0, 1] < 0.0)
                    & (pairs[:, 1, 1] < 0.0))
            for h, o, stop, k, pair in zip(two, ok.tolist(), land.tolist(), base.tolist(), pairs):
                if o:
                    settled.add(h)
                    stops += [(h, k, pair, *pair[:, 0].tolist())] if stop else []
        # rule 3 leaves to the whole chunk a start at 0 < y < _DBL_MIN and a chunk whose
        # amplitude is at most _HOP_FLOOR, where h may not be finite (the chunk reports it)
        if one.counted and None not in (system.boundary.envelope, system.boundary.slope_envelope):
            three = [h for h, _ in take if h not in settled and not 0.0 < xs[h][1] < _DBL_MIN
                     and abs(a[h]) * plan.reach_y > _HOP_FLOOR]
        if three:
            leg, lo, hi = _uncertified(system, plan, a[three], x[three], n)
            runs += zip([three[i] for i in leg.tolist()], lo.tolist(), hi.tolist())
    whole = [h for h, _ in take if h not in settled and h not in three]
    if one.stride:  # each leg's chunk alone
        leg = np.array(whole)
        rows = np.concatenate([_propagate_states(plan, x[h], n) for h in whole])
        run, k = np.divmod(np.arange(len(rows)), n + 1)
    else:
        runs += [(h, 0, n) for h in whole]
        if not runs:
            return stops
        leg, lo, hi = (np.array(v) for v in zip(*runs))
        rows, run, k = _build(plan, x, a, leg, lo, hi)
    found = _stop_pairs(system, legs, rows, run, k, leg, done == 0)
    if one.stride:  # record each whole chunk's rows to the leg's stop
        last, stride = {f[0]: f[1] for f in found}, one.stride
        for j, h in enumerate(whole):
            lo, hi = (-done) % stride, last[h] + 1 if h in last else n
            legs[h].rec_t.append((done + np.arange(lo, hi, stride)) * one.step)
            legs[h].rec_p.append(rows[j * (n + 1):(j + 1) * (n + 1)][lo:hi:stride])
    return stops + found


def _stop_pairs(system: PWLSystem, legs: list, rows: np.ndarray, run: np.ndarray,
                k: np.ndarray, leg: np.ndarray, first: bool) -> list:
    """The stop of each leg in built chunk rows, run s holding rows of legs[leg[s]]
    at step indices k, as (leg, k, states k and k+1, event values there); adds
    the crossings each counted leg passes before its stop to its counters.
    ``first`` marks chunks that start their legs."""
    axis, sense, counted = legs[0].axis, legs[0].sense, legs[0].counted
    g = manifold_values(system, rows) if counted else rows[:, 0]
    y0, y1, same = rows[:-1, 1], rows[1:, 1], run[:-1] == run[1:] if len(leg) > 1 else True
    starts = np.flatnonzero(k == 0) if first else None

    def crossings(g, direction):  # of g through zero in direction; a start residue is none
        ahead = g < 0.0 if direction > 0 else g > 0.0
        mask = ahead[:-1] & ~ahead[1:] & same
        if first:
            mask[starts[np.abs(g[starts]) <= EVENT_TOL]] = False
        return mask

    section = crossings(rows[:, 0], sense) & (y0 < 0.0) & (y1 < 0.0)
    sigma = crossings(g, -sense) if counted else None
    r = np.flatnonzero(section if axis else sigma)
    hits = dict(zip(leg[run[r]].tolist()[::-1], r.tolist()[::-1]))  # each leg's first stop pair
    if counted:  # only counted legs read their counters
        for name, m in (("sigma_count", sigma & (y0 > 0.0) & (y1 > 0.0)),
                        ("section_count", section)):
            r = np.flatnonzero(m)
            for h, i in zip(leg[run[r]].tolist(), r.tolist()):
                if i < hits.get(h, i + 1):  # a crossing before the leg's stop
                    setattr(legs[h], name, getattr(legs[h], name) + 1)
    g_stop = rows[:, 0] if axis else g
    return [(h, int(k[p]), rows[p:p + 2], *g_stop[p:p + 2].tolist()) for h, p in hits.items()]


def _refusal(system: PWLSystem, plan: _Plan, start, axis: bool) -> PWLError | None:
    """The error a leg of ``plan`` from ``start`` meets before its first step, or None: a
    non-finite start, or a start on its stop event (``axis``: x = 0) with tangent velocity."""
    x0, y0 = float(start[0]), float(start[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        return DomainError(f"non-finite start point {start!r}")
    if abs(x0 if axis else manifold_value(system, Point(x0, y0))) <= EVENT_TOL:
        dgdt, vel = _event_rate(system, axis, plan.matrix, np.array([x0, y0]))
        speed = float(np.hypot(*vel))
        return _tangent(start) if speed > 1e-14 and abs(dgdt) <= 1e-12 * speed else None
    return None


def _carried_error(plan: _Plan, step: float, start, end, end_time: float, ny) -> float:
    """First-order bound on the end ordinate error of a leg of ``plan`` from ``start`` to
    ``end`` at ``end_time`` against the flow's orbit: the plan's ``spiral`` and ``shape``
    errors, each bounded alone, a roundoff floor of ``_ROUNDOFF`` per chunk and the stop
    event's normal (1, ``ny``), ``ny`` None at a time-out.

    At a phase, the table's state is (1 + theta*spiral) times the flow's,
    theta the angle swept.  (I + E)^-1 moves a start s by u = s_x (e2, -e1) and a
    multiple of s, and a start moved by u ends (u x f_s) / (s x f_s) times further
    out, f_s the field at s; I + E moves the end p by p_x (-e2, e1) and a multiple
    of p.  The landing then takes the moved end back onto the event along the
    field.
    """
    (a00, a01), (a10, a11) = plan.matrix.tolist()
    (e1, e2), (sx, sy), (px, py) = plan.shape, start, end
    scale = abs(end_time / step * plan.turn * plan.spiral)
    if sx:
        gx, gy = a00 * sx + a01 * sy, a10 * sx + a11 * sy
        cross = sx * gy - sy * gx  # 0 only where it underflows
        if not cross:
            return math.inf
        scale += abs(sx * (e2 * gy + e1 * gx) / cross)
    fx, fy = a00 * px + a01 * py, a10 * px + a11 * py
    if ny is None:
        ends = py, px * e1
    else:  # the event's rate
        rate = fx + ny * fy
        if not rate:
            return math.inf
        ends = py - (px + ny * py) * fy / rate, px * (e1 - (ny * e1 - e2) * fy / rate)
    floor = _ROUNDOFF * (end_time / _BLOCK_TIME + 2.0) * math.hypot(px, py)
    return scale * abs(ends[0]) + abs(ends[1]) + floor


class _Leg:
    """One leg between chunks of ``_stops``: its state, counters and records.  The
    constructor refuses a non-finite or tangent start; ``land`` stops the leg on its event."""

    def __init__(self, system: PWLSystem, plan: _Plan, start, step: float, axis: bool,
                 forward: bool, stride: int, counted: bool):
        if (refused := _refusal(system, plan, start, axis)) is not None:
            raise refused
        x = np.array([start[0], start[1]], dtype=float)
        self.system, self.plan, self.step, self.axis = system, plan, step, axis
        # A forward orbit crosses the section with x rising and the curve with
        # x - h(y) falling; a backward leg meets the same crossings reversed.
        self.sense = 1 if forward else -1
        self.stride, self.counted = stride, counted
        self.start = self.x = x
        self.done = 0  # steps taken before the current chunk
        self.rec_t, self.rec_p = ([], []) if stride else ([np.zeros(1)], [x[None, :]])
        self.sigma_count = self.section_count = 0
        self.terminal = TerminalEvent.TIME_OUT
        self.landing_error = 0.0
        self.end_time = 0.0
    def land(self, k: int, pair: np.ndarray, g, landed=None) -> bool:
        """Stop the leg on its event between the states k and k+1 of its current
        chunk, ``pair``, with event values ``g`` there; ``landed`` holds the
        (tau, state, landing error) of an axis landing made elsewhere."""
        if landed is not None:
            tau, self.x, self.landing_error = landed
        elif g[1] == 0.0:
            tau, self.x = self.step, pair[1]
        else:  # the landing error is |y'|*|g|/|dg/dt| at the residual |g| reached
            tau, self.x, residual = _localize(self.system, self.plan.matrix, pair[0], self.step,
                                              float(g[0]), self.axis)
            if residual > 0.0:
                dgdt, vel = _event_rate(self.system, self.axis, self.plan.matrix, self.x)
                self.landing_error = (residual * abs(float(vel[1])) / abs(dgdt) if dgdt
                                      else math.inf)
        self.end_time = (self.done + k) * self.step + tau
        if self.axis:
            self.terminal = TerminalEvent.AXIS_CROSS
            self.section_count += 1
        else:
            self.terminal = TerminalEvent.BOUNDARY_CROSS
            self.sigma_count += 1
        return True

    def integration_error(self) -> float:
        """``_carried_error`` of the leg: at its stop event's normal, none at a time-out."""
        py = float(self.x[1])
        return _carried_error(self.plan, self.step, self.start.tolist(), self.x.tolist(),
                              self.end_time, None if self.terminal is TerminalEvent.TIME_OUT
                              else 0.0 if self.axis or py <= 0.0
                              else -float(self.system.boundary.derivative(py)))

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
                                 landing_error=self.landing_error,
                                 integration_error=self.integration_error())


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
    Its ``integration_error`` bounds the terminal ordinate's error against
    the flow's own orbit from the start (``_Leg.integration_error``).

    The leg is a batch of one of the lockstep runner ``_stops``, which
    builds a chunk's states only where an event can be, by rules 1 to 3 of
    the module notes, with the bits of building them all.
    ``_count_crossings=False`` on a section-stop leg is for callers
    that read only the terminal state: the switching function is then never
    evaluated, more chunks are skipped, and both counters read -1.
    """
    zone = Zone(zone)
    leg, = _stops(system, zone, Direction(direction), [start],
                  _check_step(system.params, step),
                  _count_crossings, max(0, int(record_stride)))
    if isinstance(leg, PWLError):
        raise leg
    return leg.segment(zone)


def propagate_fixed(system: PWLSystem, zone: Zone, start: Point, duration: float,
                    direction: Direction = Direction.FORWARD,
                    step: float = 1e-4) -> Point:
    """Plain fixed-step RK4 propagation for a set time, no event handling.

    The one-step matrix is raised to the whole step count by repeated
    squaring, apart from the plans ``integrate_in_zone`` uses, so it
    cross-checks them and the closed-form zone flow at arbitrary times.
    """
    _check_step(system.params, step)
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


def _tangent(start) -> TangencyError:
    return TangencyError(f"start {start!r} sits on the stop section with tangent velocity")


# Axis landings from which one array Illinois beats landing each alone: batches of 8 / 16 /
# 20 / 24 / 40 README sine left-zone legs took 431 / 499 / 533 / 550 / 703 us landing as one
# array and 371 / 481 / 534 / 574 / 815 us landing each alone (2-core x86-64, thread CPU).
_ARRAY_LANDINGS = 20


def _axis_landings(system: PWLSystem, matrix: np.ndarray, x_from: np.ndarray, step: float):
    """The substeps tau, states and landing errors |y'|*|x|/|x'| (at the residual |x|)
    of the landings on x = 0 from the states x_from, shape (m, 2): by ``_localize``, or
    from ``_ARRAY_LANDINGS`` states on by one array Illinois, with the same bits."""
    if len(x_from) < _ARRAY_LANDINGS:
        taus, states = (np.array(v) for v in zip(*(
            _localize(system, matrix, x, step, float(x[0]), True)[:2] for x in x_from)))
    else:
        taus, states = _land_on_axis(matrix, x_from, step)
    vel = np.matmul(matrix, states[:, :, None])[:, :, 0]  # matrix @ x, as per leg
    errors = [0.0 if not r > 0.0 else r * abs(v1) / abs(v0) if v0 else math.inf
              for r, (v0, v1) in zip(np.abs(states[:, 0]).tolist(), vel.tolist())]
    return taus, states, errors


def _stops(system: PWLSystem, zone: Zone, direction: Direction, starts: list, step: float,
           counted: bool, stride: int = 0) -> list:
    """The oracle's general leg runner: legs from ``starts`` in lockstep.

    A batch is one zone, one direction and one checked ``step``, so its legs share
    one plan and one step count.  It is counted or not (``counted``; a leg that
    stops on the curve always counts) and records samples every ``stride`` steps
    (0: the endpoints only).  In each chunk rule 1 hops the legs it can, ``_settle``
    takes the chunks of the others as array work, and many axis landings are one
    array Illinois (``_land_on_axis``).  Where a chunk's rows fail the boundary,
    each leg takes the chunk again alone and meets its own error.  Returns each
    leg's ``_Leg``, stopped or timed out, or the error it meets: its start refused,
    or an evaluation error.
    """
    forward = direction is Direction.FORWARD
    axis, envelope = (zone is Zone.LEFT) == forward, system.boundary.envelope
    counted = counted or not axis
    chunk = max(1, math.ceil(_BLOCK_TIME / step))
    plan, out, live, ids = _plan(system.params, zone, forward, step, chunk), [], [], []
    for i, start in enumerate(starts):  # live, ids: the running legs and their places
        try:
            out.append(_Leg(system, plan, start, step, axis, forward, stride, counted))
            live.append(out[i])
            ids.append(i)
        except PWLError as exc:
            out.append(exc)
    # the plan's legs may skip chunks by rules 1 and 2
    hop = chunk * plan.turn < _MAX_HOP_TURN
    x, lands, done = np.array([leg.x for leg in live]), [], 0
    while live and (n := _steps_next(done, step, chunk)):
        a = _coefficient(plan, x)
        end, take = _points(plan, a * plan.powers[n]), []
        for h, (c, p, e) in enumerate(zip(a.tolist(), x.tolist(), end.tolist())):
            skip, decides = _skip(plan, envelope, counted, c, p, e) if hop else (False, False)
            if not skip:
                take.append((h, decides))
            elif stride:  # the recorded rows alone; row 0 is the carried state
                first = (-done) % stride
                rows = _states(plan, c, first, n, stride)
                if first == 0:
                    rows[0] = x[h]
                live[h].rec_t.append((done + np.arange(first, n, stride)) * step)
                live[h].rec_p.append(rows)
        if take:
            stop, stops = [False] * len(live), []
            try:
                stops = _settle(system, plan, n, done, x, a, end, take, live, hop)
            except PWLError:  # the boundary fails on a row: each leg meets its own error
                for h, decides in take:
                    try:
                        stops += _settle(system, plan, n, done, x, a, end, [(h, decides)], live,
                                         hop)
                    except PWLError as exc:
                        out[ids[h]], stop[h] = exc, True
            for h, k, pair, *g in stops:
                stop[h], live[h].done = True, done
                try:
                    if axis and g[1] != 0.0:
                        lands.append((live[h], k, pair, g))
                    else:
                        live[h].land(k, pair, g)
                except PWLError as exc:
                    out[ids[h]] = exc
            if True in stop:
                if False not in stop:
                    break
                keep = [h for h, s in enumerate(stop) if not s]
                live, ids, end = [live[h] for h in keep], [ids[h] for h in keep], end[keep]
        x = end
        done += n
    else:  # the legs still running time out; a break means every leg stopped
        for leg, x_end in zip(live, x):
            leg.x, leg.done = x_end, done
    if lands:
        taus, states, errors = _axis_landings(system, plan.matrix,
                                              np.array([p[0] for *_, p, _ in lands]), step)
        for (leg, k, _, _), landed in zip(lands, zip(taus.tolist(), states, errors)):
            leg.land(k, None, None, landed)
    return out


def _lefts(system: PWLSystem, starts: np.ndarray, step: float) -> tuple:
    """The second runner: uncounted forward-left legs from ``starts`` (m, 2) at ``step``,
    endpoints only, with the bits of ``_stops`` and every leg's state in arrays: rule 1
    is a mask, rule 2 one ``_sign_changes``, ``_settle`` takes the few chunks left whole.
    Returns the plan, the end states, end times and landing errors, and by leg each
    error met: a refused start, or a time-out naming the start's y."""
    chunk = max(1, math.ceil(_BLOCK_TIME / step))
    plan, x, m = _plan(system.params, Zone.LEFT, True, step, chunk), starts, len(starts)
    errors, ids = {}, np.arange(m)  # ids: the running legs
    if not (np.isfinite(x).all() and (np.abs(x[:, 0]) > EVENT_TOL).all()):  # may be refused
        odd = np.flatnonzero(~np.isfinite(x).all(axis=1) | (np.abs(x[:, 0]) <= EVENT_TOL))
        refusals = ((i, _refusal(system, plan, Point(*x[i].tolist()), True)) for i in odd.tolist())
        errors = {i: e for i, e in refusals if e is not None}
        x, ids = np.delete(x, list(errors), axis=0), np.delete(ids, list(errors))
    hop, done, stops = chunk * plan.turn < _MAX_HOP_TURN, 0, []
    one = SimpleNamespace(axis=True, sense=1, counted=False, stride=0)  # for ``_settle``
    while len(ids) and (n := _steps_next(done, step, chunk)):
        a = _coefficient(plan, x)
        end, found, x0 = _points(plan, a * plan.powers[n]), [], x[:, 0]
        cross = x0 * end[:, 0]  # rule 1 hops x of one strict sign or y > 0 at both ends
        skip = (np.fmax(cross, np.minimum(x[:, 1], end[:, 1])) > 0.0 if hop
                else np.full(len(ids), False))  # fmax: a NaN product still hops on y
        if not skip.all():
            take = ~skip
            for h in [] if x0.all() or not hop else np.flatnonzero(take & (x0 == 0.0)).tolist():
                take[h] = not _skip(plan, None, False, a[h].item(), x[h].tolist(),
                                    end[h].tolist())[0]  # from x = 0, by its row 1
            two = np.flatnonzero(take & (cross < 0.0)) if hop else ()
            if len(two):  # a confirmed change stops its leg as in ``_settle``, or hops
                ok, k, pairs = _sign_changes(plan, a[two], x[two], n)
                stop = ok & (np.maximum(pairs[:, 0].max(axis=1), pairs[:, 1, 1]) < 0.0)
                take[two[ok]] = False
                found.append((two[stop], k[stop], pairs[stop]))
            rest = [(h, False) for h in np.flatnonzero(take).tolist()] if take.any() else []
            whole = rest and _settle(system, plan, n, done, x, a, end, rest, [one], False)
            found += [tuple(np.array(v) for v in list(zip(*whole))[:3])] if whole else []
        if found:
            keep = np.full(len(ids), True)
            for h, k, pairs in found:
                stops.append((ids[h], done + k, pairs))
                keep[h] = False
            ids, end = ids[keep], end[keep]
        x, done = end, done + n
    for i in ids.tolist():  # still in the zone at MAX_TIME
        errors[i] = _time_out(Direction.FORWARD, Zone.LEFT, float(starts[i, 1]))
    ends, times, landing = np.full((m, 2), math.nan), np.full(m, math.nan), np.zeros(m)
    if stops:
        legs, base, pairs = (np.concatenate(v) for v in zip(*stops))
        ends[legs], times[legs] = pairs[:, 1], base * step + step  # stops on row k + 1 itself
        land = pairs[:, 1, 0] != 0.0
        if land.any():
            at = legs[land]
            taus, ends[at], landing[at] = _axis_landings(system, plan.matrix, pairs[land, 0], step)
            times[at] = base[land] * step + taus
    return plan, ends, times, landing, errors


def _ends(system: PWLSystem, zone: Zone, direction: Direction, legs: list, step: float,
          counted: bool) -> list:
    """``_stops`` on endpoints-only legs (start, origin_y) of one zone, direction and
    step: each stopped ``_Leg``, or the error it meets, a time-out naming ``origin_y``."""
    out = _stops(system, zone, direction, [start for start, _ in legs], step, counted)
    return [_time_out(direction, zone, y)
            if isinstance(one, _Leg) and one.terminal is TerminalEvent.TIME_OUT else one
            for one, (_, y) in zip(out, legs)]


def _each(value, name: str, refuse, batch) -> tuple[list, bool]:
    """``batch``'s results on the floats of ``value`` (a float or a 1-d array) before the
    first that ``refuse`` (index, float) refuses, and whether it is a float; raising, as
    calls in order would, the first error among the results, then the refusal."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim > 1:
        raise DomainError(f"{name} must be a float or a 1-d array, got shape {arr.shape}")
    values = np.atleast_1d(arr).tolist()
    m = next((i for i, v in enumerate(values) if refuse(i, v) is not None), len(values))
    out = batch(values[:m])
    error = next((r for r in out if isinstance(r, PWLError)), None)
    if error is not None or m < len(values):
        raise error if error is not None else refuse(m, values[m])
    return out, arr.ndim == 0


def _pairs(system: PWLSystem, ys: list, step: float, bars: int = 0) -> list:
    """The displacement f = y_forward - y_backward at each y from the two uncounted legs
    from (h(y), y) on the switching curve, forward-left and backward-right, paired for the
    first ``bars`` ys with its bar, both legs' integration and landing errors; or the first
    error met: h's at y (a value that is not finite as ``core._boundary_values`` reports
    it), then the forward leg's, then the backward leg's, which runs as its mirror image
    from (-h(y), y) (module notes) and meets only a refused start or a time-out.  Both legs
    of 1024 ys, 2048 legs, are one ``_lefts`` batch; 1024 bounds the legs held at once."""
    out: list = []
    for lo in range(0, len(ys), 1024):
        part, hs, fails = ys[lo:lo + 1024], [], {}
        for i, y in enumerate(part):
            try:
                x = float(system.boundary.evaluate(y))
            except PWLError as exc:  # the legs refuse the non-finite start
                x, fails[i] = math.nan, exc
            if not math.isfinite(x):
                fails.setdefault(i, EvaluationError(f"boundary value not finite at y={y!r}"))
            hs.append(x)
        m, starts = len(part), np.array([hs + [-x for x in hs], part + part]).T
        plan, ends, times, landing, errors = _lefts(system, starts, step)
        f = (ends[:m, 1] - ends[m:, 1]).tolist()
        for i, y in enumerate(part):
            two = errors.get(m + i)  # the mirror image's error, named unmirrored
            two = two and (_tangent(Point(hs[i], y)) if isinstance(two, TangencyError)
                           else _time_out(Direction.BACKWARD, Zone.RIGHT, y))
            error = fails.get(i, errors.get(i, two))
            if error is None and lo + i < bars:
                one, two = (_carried_error(plan, step, starts[j].tolist(), ends[j].tolist(),
                                           float(times[j]), 0.0) for j in (i, m + i))
                f[i] = f[i], one + float(landing[i]) + two + float(landing[m + i])
            out.append(f[i] if error is None else error)
    return out


def numeric_displacement(system: PWLSystem, y: float | np.ndarray,
                         step: float = 1e-4) -> float | np.ndarray:
    """Displacement at y measured purely by integration.

    Forward through the left zone from (h(y), y) to the lower section,
    backward through the right zone from the same point, difference of
    landing ordinates.  ``y`` is a float or a 1-d array, which gives an
    array; a float is a batch of one.  Both legs of every y run in one
    lockstep batch (``_pairs``), each with the bits of its own ``integrate_in_zone``
    leg.  A float takes about 0.27 ms and 40 ys 0.8 ms on the README sine at the
    default step (2-core x86-64).  A failure raises the error of the first failing
    y, as calls in order would: its ordinate check, then h at y (``EvaluationError``
    where it is not finite), then its forward leg, then its backward leg.
    """
    step = _check_step(system.params, step)
    out, scalar = _each(y, "y", lambda i, v: None if math.isfinite(v) and v > 0.0
                        else DomainError(f"y must be a positive real, got {v!r}"),
                        lambda ys: _pairs(system, ys, step))
    return out[0] if scalar else np.array(out)


def _turns(system: PWLSystem, y_ins: list, step: float) -> list:
    """A return-map turn from each (0, y_in) at one ``step``: a ``ReturnMapResult``, or
    the error its legs meet first.  The turns' right-zone legs are one batch and their
    left-zone legs another."""
    first = _ends(system, Zone.RIGHT, Direction.FORWARD, [(Point(0.0, y), y) for y in y_ins],
                  step, True)
    go = [i for i, leg in enumerate(first) if not isinstance(leg, PWLError)]
    second = dict(zip(go, _ends(system, Zone.LEFT, Direction.FORWARD,
                                [(Point(*first[i].x.tolist()), y_ins[i]) for i in go], step,
                                True)))
    out = []
    for i, (y, one) in enumerate(zip(y_ins, first)):
        two = second.get(i, one)
        out.append(two if isinstance(two, PWLError) else ReturnMapResult(
            y, float(two.x[1]), one.end_time + two.end_time,
            one.sigma_count + two.sigma_count, one.section_count + two.section_count,
            one.landing_error + two.landing_error,
            two.integration_error() + one.integration_error()
            * _carry(system, two.plan.matrix, two.start, two.x[1])))
    return out


def _carry(system: PWLSystem, matrix: np.ndarray, start, y_end: float) -> float:
    """|d y_end / d y| of an axis-stop leg of the field ``matrix`` from ``start`` on the
    switching curve, for its start moved along the curve by d y: a start moved by u
    ends (u x f) / (start x f) times further out, f the field at the start, and the
    curve's tangent (h'(y), 1) has u x f = -dg/dt."""
    rate, (fx, fy) = _event_rate(system, False, matrix, np.asarray(start))
    return abs(y_end * rate / (start[0] * fy - start[1] * fx))


def return_map(system: PWLSystem, y_in: float | np.ndarray,
               step: float = 1e-4) -> ReturnMapResult | list:
    """One forward turn of the Poincare map on the lower section {x=0, y<0}.

    ``y_in`` is a float, which gives one ``ReturnMapResult``, or a 1-d array,
    which gives a list of them; the turns' legs run in lockstep (``_stops``),
    each with the bits of its own ``integrate_in_zone`` leg.  A float takes
    about 0.5 ms on the README sine at y_in = -1 and the default step.  A
    failure raises the error of the first failing y_in, as calls in order
    would: its check, then its right-zone leg, then its left-zone leg.
    """
    step = _check_step(system.params, step)
    out, scalar = _each(y_in, "y_in", lambda i, v: None if math.isfinite(v) and v < 0.0
                        else DomainError(f"y_in must be negative, got {v!r}"),
                        lambda ys: _turns(system, ys, step))
    return out[0] if scalar else out


def probe_eps(y_star: float, neighbors=()) -> float:
    """Perturbation size that stays between a cycle and its neighbors.

    A quarter of the gap to the nearest other root (the origin counts as
    a neighbor at 0), capped at 5% of the radius itself.
    """
    gaps = [abs(y_star - float(n)) for n in neighbors if float(n) != y_star]
    gaps.append(y_star)
    return min(0.05 * y_star, 0.25 * min(gaps))


def _verdict(side: float, f: float, bar: float) -> tuple:
    """('approach' | 'retreat' | None, margin ratio) of a cycle's inner (``side`` -1) or
    outer (+1) probe from the displacement f there and its error bar.  A stable cycle has
    f < 0 inside and f > 0 outside; the margin ratio is |f| / bar, and a side gets its
    verdict only where the ratio exceeds ``MARGIN``."""
    ratio = abs(f) / bar if bar > 0.0 else (math.inf if f else 0.0)
    verdict = "approach" if (f > 0.0) == (side > 0.0) else "retreat"
    return verdict if ratio > MARGIN else None, ratio


def _class(verdicts: list) -> StabilityClass:
    """A cycle's class from its two ``_verdict``s: UNDETERMINED unless both sides have one."""
    (inner, _), (outer, _) = verdicts
    return (StabilityClass.UNDETERMINED if inner is None or outer is None
            else _stability_class(inner == "approach", outer == "approach"))


def _side_verdicts(system: PWLSystem, cycles: list, step: float = 1e-4, ys=()) -> list:
    """The inner and outer ``_verdict`` of each cycle (y*, eps), from the displacement f at
    y = y* -+ eps (``_pairs``) and its bar, the integration and landing errors of both
    legs, then f at each of ``ys`` (positive), all in one batch.  It refuses an eps not in
    (0, y*), then raises what one cycle at a time meets first (inner probe, outer probe),
    then the error of the first failing y.
    """
    if not all(0.0 < e < y < math.inf for y, e in cycles):
        raise DomainError("eps must lie in (0, y_star) for a finite y_star")
    probes = [y + side * e for y, e in cycles for side in (-1.0, 1.0)]
    out = _pairs(system, probes + list(ys), step, len(probes))
    error = next((r for r in out if isinstance(r, PWLError)), None)
    if error is not None:
        raise error
    return [[_verdict(-1.0, *out[i]), _verdict(1.0, *out[i + 1])]
            for i in range(0, len(probes), 2)] + out[len(probes):]


def resolve_stability(system: PWLSystem, y_star: float | np.ndarray,
                      eps: float | np.ndarray,
                      step: float = 1e-4) -> StabilityClass | list:
    """Empirical stability from the numerical displacement at one probe on each side.

    Each probe is the point (h(y), y) on the switching curve, y = y* -+ eps, and
    f at y is measured as ``numeric_displacement`` measures it, from one
    forward-left and one backward-right leg.  ``eps`` is required and must lie
    in (0, y*); ``probe_eps`` gives one that keeps both probes short of the
    neighbouring cycles.  f is minus the drift P(r) - r of the return-map turn
    from the probe's lower crossing r, and a planar return map is strictly
    increasing, so with no other cycle between probe and cycle the sign of f
    settles whether that side approaches or retreats: a stable cycle has f < 0
    inside and f > 0 outside.  The sign counts only when |f| exceeds ``MARGIN``
    times its error bar, the two legs' ``integration_error`` plus their
    ``landing_error``.  Otherwise the result is UNDETERMINED.  Each leg stops
    at ``EVENT_TOL`` and times out after ``MAX_TIME``.

    ``y_star`` is a float, or a 1-d array that gives a list, and ``eps`` a
    float or an array of its shape.  Both legs of all probes run as one batch
    (``_pairs``), and a failure raises the error of the first failing cycle, as
    calls one cycle at a time would: inner probe, then outer probe, each in
    ``numeric_displacement``'s order.  A float takes about 0.27 ms on the README
    sine's stable cycle at eps = 0.05 and the default step (2-core x86-64).
    """
    step = _check_step(system.params, step)
    eps = np.asarray(eps, dtype=float)
    if eps.shape not in ((), np.shape(y_star)):
        raise DomainError(f"eps must be a float or an array of y_star's shape, got {eps.shape}")
    eps = np.broadcast_to(eps, np.shape(y_star)).ravel().tolist()

    def refuse(i: int, y: float):
        if not (math.isfinite(y) and y > 0.0):
            return DomainError(f"y_star must be positive, got {y!r}")
        return None if 0.0 < eps[i] < y else DomainError(
            f"eps must lie in (0, y_star), got {eps[i]!r}")

    out, scalar = _each(y_star, "y_star", refuse, lambda ys: [
        _class(verdicts) for verdicts in _side_verdicts(system, list(zip(ys, eps)), step)])
    return out[0] if scalar else out
