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

A leg that records no interior samples first computes only the end state
of each chunk, from the same coefficient and power table, so it has the
bits the full chunk would give.  A chunk turns the eigenvalue by less
than pi, so x and y each change sign at most once inside it.  When x has
the same strict sign at both ends and y <= 0 at both ends (where the
switching function is x), the chunk holds no stop event, no section
return and no switching-curve crossing, and the leg hops to its end
without building its states or evaluating the boundary.  Callers that
read only where an axis-stop leg lands (the numerical displacement and
the probe placement of the stability check) waive the crossing counters,
so for them x alone decides, and the boundary is never evaluated.

Stability is decided from one return-map turn on each side of a cycle.
A planar return map is strictly increasing, so with no other cycle
between the probe and the cycle the sign of the drift P(r) - r settles
that side.  The drift is trusted only when it exceeds ``MARGIN`` times an
error bar made of the change when the step is doubled and the ordinate
error the landings' actual residuals allow.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DomainError,
    IntegrationError,
    Point,
    PWLSystem,
    SystemParams,
    TangencyError,
    Zone,
    manifold_value,
    manifold_values,
    zone_matrix,
)
from .cycles import StabilityClass, _stability_class

# Time units propagated per chunk before the stop event is searched for.
# A leg wastes at most one chunk past its event, and every chunk pays a
# fixed overhead; 0.5 ran the verify command fastest of 0.125 to 2.
#
# A chunk whose states are not recorded is skipped whole when its end
# states prove it holds no event.  The premise: a chunk of n steps turns
# the one-step eigenvalue by n*arg(lam), about _BLOCK_TIME radians and
# below pi, so each coordinate |lam|**k * cos(k*arg(lam) + phi) changes
# sign at most once in it.  A coordinate with the same strict sign at both
# ends then keeps it throughout.  Chunks that turn further than
# _MAX_HOP_TURN (very large steps), and real spectra, are taken in full.
_BLOCK_TIME = 0.5
_MAX_HOP_TURN = 0.5 * math.pi
_MAX_BISECT = 200

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
    """CSV export (t, x, y, zone) of one or more trajectory segments."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("t", "x", "y", "zone"))
    for seg in segments:
        for t, p in zip(seg.times, seg.points):
            w.writerow((f"{t:.12g}", f"{p[0]:.12g}", f"{p[1]:.12g}", seg.zone.value))
    return buf.getvalue()


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
    coefficient a, and ``powers`` = lam**k for k = 0..chunk.  When the
    spectrum is real ``powers`` is None and the leg steps plainly.  A plan
    is shared, so its arrays are read-only.
    """

    matrix: np.ndarray
    transfer: np.ndarray
    powers: np.ndarray | None = None
    turn: float = 0.0
    v: np.ndarray | None = None
    vc: np.ndarray | None = None
    den: complex = 0j


# Every leg of one zone, direction and step shares its plan.  A verify job
# runs five kinds of leg (forward in either zone and backward in the right
# zone at its step, forward in either zone at twice it); eight plans hold
# them.  A table holds 80 KB at step 1e-4 and at most 0.8 MB at MIN_STEP.
# The chunk length is an argument, not read here, so it follows _BLOCK_TIME.
@functools.lru_cache(maxsize=8)
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
    return _Plan(matrix, transfer, powers, math.atan2(lam.imag, lam.real), v, vc,
                 v[0] * vc[1] - v[1] * vc[0])


def _states(plan: _Plan, x0: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """States 2 Re(a lam**k v) for k = lo..hi-1, shape (hi - lo, 2).

    The coefficient a is fixed by x0.  Any range of the table gives the
    same bits for the same k, so a chunk's last state can be had alone.
    """
    a = (x0[0] * plan.vc[1] - x0[1] * plan.vc[0]) / plan.den
    c = a * plan.powers[lo:hi]
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
    out = _states(plan, x0, 0, n + 1)
    out[0] = x0
    return out


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
    (a00, a01), (a10, a11) = matrix.tolist()
    cx, cy = [float(x_from[0])], [float(x_from[1])]
    for k in (1.0, 2.0, 3.0, 4.0):
        px, py = cx[-1], cy[-1]
        cx.append((a00 * px + a01 * py) / k)
        cy.append((a10 * px + a11 * py) / k)

    def state(tau: float) -> tuple[float, float]:
        x, y = cx[4], cy[4]
        for k in (3, 2, 1, 0):
            x = x * tau + cx[k]
            y = y * tau + cy[k]
        return x, y

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

    With record_stride 0 a chunk is skipped whole when its end states show
    it holds no event (see ``_BLOCK_TIME``).  ``_count_crossings=False``
    on a section-stop leg is for callers that read only the terminal
    state: the switching function is then never evaluated, more chunks are
    skipped, and both counters read -1.
    """
    _check_step(step)
    if isinstance(direction, str):
        direction = Direction(direction)
    if isinstance(zone, str):
        zone = Zone(zone)
    x = np.array([start[0], start[1]], dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"non-finite start point {start!r}")

    forward = direction is Direction.FORWARD
    chunk = max(1, math.ceil(_BLOCK_TIME / step))
    plan = _plan(system.params, zone, forward, step, chunk)
    matrix = plan.matrix
    # A forward orbit crosses the section with x rising and the curve with
    # x - h(y) falling; a backward leg meets the same crossings reversed.
    # Forward, the left zone is left through the section and the right zone
    # through the curve; backward, the other way round.
    sense = 1 if forward else -1
    axis = (zone is Zone.LEFT) == forward

    g0 = _event_value_scalar(system, axis, x)
    if abs(g0) <= EVENT_TOL:
        dgdt, vel = _event_rate(system, axis, matrix, x)
        speed = float(np.hypot(*vel))
        if speed > 1e-14 and abs(dgdt) <= 1e-12 * speed:
            raise TangencyError(
                f"start {start!r} sits on the stop section with tangent velocity"
            )

    stride = max(0, int(record_stride))
    counted = _count_crossings or not axis
    hop = (stride == 0 and plan.powers is not None
           and chunk * abs(plan.turn) < _MAX_HOP_TURN)
    rec_t: list[np.ndarray] = [] if stride else [np.zeros(1)]
    rec_p: list[np.ndarray] = [] if stride else [x[None, :]]
    sigma_count = 0
    section_count = 0
    done = 0  # steps taken before the current chunk
    terminal = TerminalEvent.TIME_OUT
    landing_error = 0.0

    while MAX_TIME - done * step > 0.5 * step:
        n = min(math.ceil((MAX_TIME - done * step) / step), chunk)
        if hop and (not counted or x[1] <= 0.0):
            end = _states(plan, x, n, n + 1)[0]
            # x keeps its strict sign: no axis event.  y <= 0 at both ends as
            # well: g = x throughout, so no switching-curve event either.
            if x[0] * end[0] > 0.0 and (not counted or end[1] <= 0.0):
                x = end
                done += n
                continue
        states = _propagate_states(plan, x, n)
        first = done == 0
        g_axis = states[:, 0]
        y = states[:, 1]
        # One crossing mask per kind; the exit mask is the counter of its kind.
        section = _crossings(g_axis, sense, first) & (y[:-1] < 0.0) & (y[1:] < 0.0)
        if counted:
            g_man = manifold_values(system, states)
            sigma = _crossings(g_man, -sense, first)
        g_stop, hits = (g_axis, section) if axis else (g_man, sigma)
        hit = int(np.argmax(hits)) if hits.any() else None

        if counted:
            # Crossing diagnostics over the part of the chunk actually consumed.
            upto = n if hit is None else hit
            upper = sigma & (y[:-1] > 0.0) & (y[1:] > 0.0)
            sigma_count += int(np.count_nonzero(upper[:upto]))
            section_count += int(np.count_nonzero(section[:upto]))

        if stride > 0:
            idx = np.arange((-done) % stride, n if hit is None else hit + 1, stride)
            rec_t.append((done + idx) * step)
            rec_p.append(states[idx])

        if hit is None:
            x = states[-1]
            done += n
            continue
        if g_stop[hit + 1] == 0.0:
            tau, x = step, states[hit + 1]
        else:
            tau, x, residual = _localize(system, matrix, states[hit], step,
                                         float(g_stop[hit]), axis)
            if residual > 0.0:
                dgdt, vel = _event_rate(system, axis, matrix, x)
                landing_error = residual * abs(float(vel[1])) / abs(dgdt) if dgdt else math.inf
        end_time = (done + hit) * step + tau
        if axis:
            terminal = TerminalEvent.AXIS_CROSS
            section_count += 1
        else:
            terminal = TerminalEvent.BOUNDARY_CROSS
            sigma_count += 1
        break

    if terminal is TerminalEvent.TIME_OUT:
        end_time = done * step
    if not counted:
        sigma_count = section_count = -1
    rec_t.append(np.array([end_time]))
    rec_p.append(x[None, :])
    return TrajectorySegment(zone=zone, times=np.concatenate(rec_t),
                             points=np.concatenate(rec_p),
                             terminal_event=terminal,
                             sigma_crossings=sigma_count,
                             section_returns=section_count,
                             landing_error=landing_error)


def propagate_fixed(system: PWLSystem, zone: Zone, start: Point, duration: float,
                    direction: Direction = Direction.FORWARD,
                    step: float = 1e-4) -> Point:
    """Plain fixed-step RK4 propagation for a set time, no event handling.

    The one-step matrix is raised to the whole step count by repeated
    squaring, apart from the plans ``integrate_in_zone`` uses, so it
    cross-checks them and the closed-form zone flow at arbitrary times.
    """
    _check_step(step)
    if duration < 0.0:
        raise DomainError("duration must be non-negative")
    matrix = zone_matrix(system.params, zone)
    if isinstance(direction, str):
        direction = Direction(direction)
    if direction is Direction.BACKWARD:
        matrix = -matrix
    n_full = int(duration / step)
    remainder = duration - n_full * step
    x = np.linalg.matrix_power(_step_transfer(matrix, step), n_full) @ [start[0], start[1]]
    if remainder > 1e-16:
        x = _step_transfer(matrix, remainder) @ x
    return Point(float(x[0]), float(x[1]))


def _leg(system: PWLSystem, zone: Zone, start: Point, direction: Direction, step: float,
         origin_y: float, counted: bool = True) -> TrajectorySegment:
    """An endpoints-only leg that must leave its zone within ``MAX_TIME``.

    ``origin_y`` is the ordinate the caller's orbit started from; a
    time-out raises ``IntegrationError`` naming it.  ``counted=False``
    waives the crossing counters.  The leg runs through the module's
    ``integrate_in_zone``, so a wrapper installed there sees every leg.
    """
    leg = integrate_in_zone(system, zone, start, direction, step, record_stride=0,
                            _count_crossings=counted)
    if leg.terminal_event is TerminalEvent.TIME_OUT:
        raise IntegrationError(f"{direction.value} {zone.value}-zone leg of the orbit from "
                               f"y={origin_y!r} did not leave its zone within "
                               f"MAX_TIME={MAX_TIME!r}")
    return leg


def numeric_displacement(system: PWLSystem, y: float, step: float = 1e-4) -> float:
    """Displacement at y measured purely by integration.

    Forward through the left zone from (h(y), y) to the lower section,
    backward through the right zone from the same point, difference of
    landing ordinates.
    """
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    start = Point(float(system.boundary.evaluate(y)), y)
    fwd = _leg(system, Zone.LEFT, start, Direction.FORWARD, step, y, counted=False)
    bwd = _leg(system, Zone.RIGHT, start, Direction.BACKWARD, step, y, counted=False)
    return fwd.terminal_point.y - bwd.terminal_point.y


def return_map(system: PWLSystem, y_in: float, step: float = 1e-4) -> ReturnMapResult:
    """One forward turn of the Poincare map on the lower section {x=0, y<0}."""
    if not (math.isfinite(y_in) and y_in < 0.0):
        raise DomainError(f"y_in must be negative, got {y_in!r}")
    leg1 = _leg(system, Zone.RIGHT, Point(0.0, y_in), Direction.FORWARD, step, y_in)
    leg2 = _leg(system, Zone.LEFT, leg1.terminal_point, Direction.FORWARD, step, y_in)
    return ReturnMapResult(
        y_in=y_in,
        y_out=leg2.terminal_point.y,
        flight_time=leg1.terminal_time + leg2.terminal_time,
        sigma_crossings=leg1.sigma_crossings + leg2.sigma_crossings,
        section_returns=leg1.section_returns + leg2.section_returns,
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
    if manifold_value(system, p) > EVENT_TOL:
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
    outer one when d < 0.

    The landing of ``upper_to_lower`` only places the probe: the turn
    starts exactly at (0, y_in), so it does not enter the bar.  A late or
    early switching-curve landing moves the turn's end by the field jump
    4*gamma*x times the time offset, carried through the left zone; that
    is at most about 1.5 times its ordinate offset (gamma^2+1)*|x| times
    the time offset, which ``MARGIN`` covers.
    """
    sides = (-1.0, +1.0)
    y_ins = [upper_to_lower(system, y_star + side * eps, step) for side in sides]
    fine = [return_map(system, y_in, step) for y_in in y_ins]
    coarse = [return_map(system, y_in, 2.0 * step) for y_in in y_ins]
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
