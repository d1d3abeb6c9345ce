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
(complex) eigenpair of that one-step matrix: the powers lam**k of its
eigenvalue are tabulated per one-step matrix and chunk length, kept for
the legs that follow, and each chunk scales the table by a coefficient
taken from the chunk's start state.  This reproduces the
RK4 iterates to roundoff; truncation error and convergence order are
those of RK4 by construction.  A crossing bracketed between two steps is
landed on the same one-step polynomial, x(tau) = sum_k (tau*A)**k x / k!
for a substep tau, by Illinois (bracketed regula falsi) iteration on the
event function.

Backward integration is forward integration of the negated field; event
logic is unchanged.

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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (
    DomainError,
    IntegrationError,
    Point,
    PWLSystem,
    TangencyError,
    Zone,
    manifold_value,
    manifold_values,
    zone_matrix,
)
from .cycles import StabilityClass

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


@dataclass(frozen=True)
class EventSpec:
    """Stop condition: a zero crossing of one scalar event function.

    kind 'axis' watches the x coordinate, 'manifold' the switching
    function.  direction +1 fires on ascending crossings, -1 on
    descending ones.  require_negative_y restricts to the lower section.
    """

    kind: str
    direction: int
    require_negative_y: bool = False


LOWER_AXIS_ASCENDING = EventSpec("axis", +1, True)
LOWER_AXIS_DESCENDING = EventSpec("axis", -1, True)
MANIFOLD_DESCENDING = EventSpec("manifold", -1, False)


@dataclass(frozen=True)
class IntegrationOptions:
    step: float = 1e-4
    event_tol: float = 1e-12
    max_time: float = 100.0

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise DomainError(f"step must be positive, got {self.step!r}")
        if not (0.0 < self.event_tol < self.step):
            raise DomainError("event_tol must be positive and below step")
        if not (self.max_time > 0.0):
            raise DomainError("max_time must be positive")


@dataclass
class TrajectorySegment:
    """One in-zone orbit piece: sampled states plus the stopping event.

    times/points include the start and the localized terminal state;
    interior samples are thinned by the caller's record stride.  The
    crossing counters cover the whole segment regardless of thinning; they
    read -1 where the caller waived them (see ``integrate_in_zone``).
    """

    zone: Zone
    times: np.ndarray
    points: np.ndarray
    terminal_event: TerminalEvent
    sigma_crossings: int = 0
    section_returns: int = 0
    landing_error: float = 0.0

    @property
    def states(self) -> list[tuple[float, Point]]:
        return [(float(t), Point(float(p[0]), float(p[1])))
                for t, p in zip(self.times, self.points)]

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


def _eigenvalue(transfer: np.ndarray) -> complex | None:
    """Upper eigenvalue of the 2x2 transfer, or None unless the pair is complex."""
    # (t00 - t11)^2 + 4*t01*t10 equals tr^2 - 4*det without the subtractive
    # cancellation that would otherwise poison the rotation angle per step.
    diag = transfer[0, 0] - transfer[1, 1]
    disc = diag * diag + 4.0 * transfer[0, 1] * transfer[1, 0]
    if disc >= 0.0 or abs(transfer[0, 1]) < 1e-300:
        return None
    return complex(0.5 * (transfer[0, 0] + transfer[1, 1]), 0.5 * math.sqrt(-disc))


class _Eigenpair:
    """A transfer's upper eigenvalue lam as its turn arg(lam) per step, its
    eigenvector v, conj(v), and the denominator that solves x0 = 2 Re(a v)
    for the coefficient a."""

    __slots__ = ("turn", "v", "vc", "den")

    def __init__(self, transfer: np.ndarray, lam: complex):
        self.turn = math.atan2(lam.imag, lam.real)
        self.v = np.array([transfer[0, 1], lam - transfer[0, 0]], dtype=complex)
        self.vc = np.conj(self.v)
        self.den = self.v[0] * self.vc[1] - self.v[1] * self.vc[0]


def _eigenpair(transfer: np.ndarray) -> _Eigenpair | None:
    lam = _eigenvalue(transfer)
    return None if lam is None else _Eigenpair(transfer, lam)


def _power_table(transfer: np.ndarray, n: int) -> np.ndarray | None:
    """lam**k for k = 0..n, lam the transfer's upper eigenvalue (None if real).

    The last two tables built are kept and shared, so a table is read-only.
    """
    return _cached_power_table(transfer.tobytes(), n)


# Every leg of one zone, direction and step uses the same table.  Two
# cover the legs of one return-map turn or of one displacement; each table
# held is 80 KB at step 1e-4, which peak memory shows.
@functools.lru_cache(maxsize=2)
def _cached_power_table(transfer: bytes, n: int) -> np.ndarray | None:
    lam = _eigenvalue(np.frombuffer(transfer).reshape(2, 2))
    if lam is None:
        return None
    table = np.exp(np.arange(n + 1) * np.log(lam))
    table.flags.writeable = False
    return table


def _states(pair: _Eigenpair, x0: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """States 2 Re(a p v) for each power p = lam**k given, shape (len(powers), 2).

    The coefficient a is fixed by x0.  Any slice of one table gives the
    same bits for the same k, so a chunk's last state can be had alone.
    """
    a = (x0[0] * pair.vc[1] - x0[1] * pair.vc[0]) / pair.den
    c = a * powers
    out = np.empty((len(powers), 2))
    # v[0] is real, so the first column needs only the real part of c
    np.multiply(c.real, 2.0 * pair.v[0].real, out=out[:, 0])
    out[:, 1] = (c * (2.0 * pair.v[1])).real
    return out


def _propagate_states(transfer: np.ndarray, x0: np.ndarray, n: int,
                      powers: np.ndarray | None = None,
                      pair: _Eigenpair | None = None) -> np.ndarray:
    """States x_k = transfer^k @ x0 for k = 0..n, shape (n+1, 2).

    Uses the complex eigenpair of the 2x2 transfer (always a conjugate
    pair here since both zones are foci): x_k = 2 Re(a lam**k v), with the
    coefficient a fixed by x0.  ``powers`` is a ``_power_table`` and
    ``pair`` the ``_eigenpair`` of the same transfer, built here when not
    given.  Falls back to plain stepping for a degenerate spectrum.
    """
    if pair is None:
        pair = _eigenpair(transfer)
    if pair is None:
        out = np.empty((n + 1, 2))
        out[0] = x0
        for k in range(n):
            out[k + 1] = transfer @ out[k]
        return out
    if powers is None:
        powers = _power_table(transfer, n)
    out = _states(pair, x0, powers[:n + 1])
    out[0] = x0
    return out


def _event_value_scalar(system: PWLSystem, kind: str, x) -> float:
    if kind == "axis":
        return float(x[0])
    return manifold_value(system, Point(float(x[0]), float(x[1])))


def _crossings(g: np.ndarray, direction: int, first: bool, event_tol: float) -> np.ndarray:
    """Mask over step pairs (k, k+1) on which g crosses zero in ``direction``.

    In the first chunk of a leg a start residue |g[0]| <= event_tol is
    not a crossing.
    """
    ahead = g < 0.0 if direction > 0 else g > 0.0
    mask = ahead[:-1] & ~ahead[1:]
    if first and abs(g[0]) <= event_tol:
        mask[0] = False
    return mask


def _event_rate(system: PWLSystem, kind: str, matrix: np.ndarray,
                x: np.ndarray) -> tuple[float, np.ndarray]:
    """(dg/dt, velocity) of the field x' = matrix @ x at x, g the event function."""
    vel = matrix @ x
    if kind == "axis":
        return float(vel[0]), vel
    y = float(x[1])
    hp = float(system.boundary.derivative(y)) if y > 0.0 else 0.0
    return float(vel[0] - hp * vel[1]), vel


def _localize(system: PWLSystem, matrix: np.ndarray, x_from: np.ndarray, step: float,
              g_from: float, kind: str,
              event_tol: float) -> tuple[float, np.ndarray, float]:
    """Land on the event inside the substep (0, step] that brackets it.

    On a substep tau the RK4 state is the quartic x(tau) = sum_k c_k tau**k
    with c_k = A**k x_from / k!; the coefficients are built once and
    evaluated by Horner.  The root of g(x(tau)) is found by Illinois
    iteration, bisecting whenever the secant point leaves the bracket,
    until |g| <= event_tol or _MAX_BISECT iterations.  Returns tau, the
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
    g_t = g_hi = _event_value_scalar(system, kind, x_t)
    side = 0
    for _ in range(_MAX_BISECT):
        # a same-signed bracket only arises from roundoff at the substep end
        if abs(g_t) <= event_tol or (g_hi < 0.0) == (g_lo < 0.0):
            break
        tau = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
        x_t = state(tau)
        g_t = _event_value_scalar(system, kind, x_t)
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
                      stop: EventSpec = LOWER_AXIS_ASCENDING,
                      opts: IntegrationOptions | None = None,
                      record_stride: int = 1,
                      t0: float = 0.0, *,
                      _count_crossings: bool = True) -> TrajectorySegment:
    """Integrate one zone's linear field until the stop event or max_time.

    The start may sit on the stop section provided the velocity carries it
    off (a residual event value within event_tol at the start is ignored
    for the first step).  record_stride keeps the interior samples at step
    indices divisible by it; 0 keeps only the endpoints.  Times are t0 plus
    elapsed integration time and increase regardless of direction.

    The segment's ``landing_error`` is the first-order ordinate offset
    between the landed state and the event, |y'|*|g|/|dg/dt| from the
    residual |g| the landing reached (0 for an exact hit or a time-out).

    With record_stride 0 a chunk is skipped whole when its end states show
    it holds no event (see ``_BLOCK_TIME``).  ``_count_crossings=False``
    on an axis stop is for callers that read only the terminal state: the
    switching function is then never evaluated, more chunks are skipped,
    and both counters read -1.
    """
    opts = opts or IntegrationOptions()
    if isinstance(direction, str):
        direction = Direction(direction)
    if isinstance(zone, str):
        zone = Zone(zone)
    x = np.array([start[0], start[1]], dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"non-finite start point {start!r}")

    matrix = zone_matrix(system.params, zone)
    if direction is Direction.BACKWARD:
        matrix = -matrix
    transfer = _step_transfer(matrix, opts.step)

    g0 = _event_value_scalar(system, stop.kind, x)
    if abs(g0) <= opts.event_tol:
        dgdt, vel = _event_rate(system, stop.kind, matrix, x)
        speed = float(np.hypot(*vel))
        if speed > 1e-14 and abs(dgdt) <= 1e-12 * speed:
            raise TangencyError(
                f"start {start!r} sits on the stop section with tangent velocity"
            )

    chunk = max(1, math.ceil(_BLOCK_TIME / opts.step))
    pair = _eigenpair(transfer)
    powers = _power_table(transfer, chunk)
    stride = max(0, int(record_stride))
    counted = _count_crossings or stop.kind != "axis"
    hop = (stride == 0 and pair is not None
           and chunk * abs(pair.turn) < _MAX_HOP_TURN)
    rec_t: list[np.ndarray] = [] if stride else [np.zeros(1)]
    rec_p: list[np.ndarray] = [] if stride else [x[None, :]]
    sigma_count = 0
    section_count = 0
    done = 0  # steps taken before the current chunk
    terminal = TerminalEvent.TIME_OUT
    landing_error = 0.0

    while opts.max_time - done * opts.step > 0.5 * opts.step:
        n = min(math.ceil((opts.max_time - done * opts.step) / opts.step), chunk)
        if hop and (not counted or x[1] <= 0.0):
            end = _states(pair, x, powers[n:n + 1])[0]
            # x keeps its strict sign: no axis event.  y <= 0 at both ends as
            # well: g = x throughout, so no switching-curve event either.
            if x[0] * end[0] > 0.0 and (not counted or end[1] <= 0.0):
                x = end
                done += n
                continue
        states = _propagate_states(transfer, x, n, powers, pair)
        first = done == 0
        g_axis = states[:, 0]
        y = states[:, 1]
        lower = (y[:-1] < 0.0) & (y[1:] < 0.0)
        if counted:
            g_man = manifold_values(system, states)
            descending_sigma = _crossings(g_man, -1, first, opts.event_tol)
            section = _crossings(g_axis, +1, first, opts.event_tol) & lower
        g_stop = g_axis if stop.kind == "axis" else g_man
        # The usual stops are the crossings the diagnostics count anyway.
        if counted and stop == LOWER_AXIS_ASCENDING:
            hits = section
        elif stop == MANIFOLD_DESCENDING:
            hits = descending_sigma
        else:
            hits = _crossings(g_stop, stop.direction, first, opts.event_tol)
            if stop.require_negative_y:
                hits = hits & lower
        hit = int(np.argmax(hits)) if hits.any() else None

        if counted:
            # Crossing diagnostics over the part of the chunk actually consumed.
            upto = n if hit is None else hit
            sigma = descending_sigma & (y[:-1] > 0.0) & (y[1:] > 0.0)
            sigma_count += int(np.count_nonzero(sigma[:upto]))
            section_count += int(np.count_nonzero(section[:upto]))

        if stride > 0:
            idx = np.arange((-done) % stride, n if hit is None else hit + 1, stride)
            rec_t.append((done + idx) * opts.step)
            rec_p.append(states[idx])

        if hit is None:
            x = states[-1]
            done += n
            continue
        if g_stop[hit + 1] == 0.0:
            tau, x = opts.step, states[hit + 1]
        else:
            tau, x, residual = _localize(system, matrix, states[hit], opts.step,
                                         float(g_stop[hit]), stop.kind, opts.event_tol)
            if residual > 0.0:
                dgdt, vel = _event_rate(system, stop.kind, matrix, x)
                landing_error = residual * abs(float(vel[1])) / abs(dgdt) if dgdt else math.inf
        end_time = (done + hit) * opts.step + tau
        if stop.kind == "manifold":
            terminal = TerminalEvent.BOUNDARY_CROSS
            sigma_count += 1
        else:
            terminal = TerminalEvent.AXIS_CROSS
            section_count += 1
        break

    if terminal is TerminalEvent.TIME_OUT:
        end_time = done * opts.step
    if not counted:
        sigma_count = section_count = -1
    rec_t.append(np.array([end_time]))
    rec_p.append(x[None, :])
    return TrajectorySegment(zone=zone, times=np.concatenate(rec_t) + t0,
                             points=np.concatenate(rec_p),
                             terminal_event=terminal,
                             sigma_crossings=sigma_count,
                             section_returns=section_count,
                             landing_error=landing_error)


def propagate_fixed(system: PWLSystem, zone: Zone, start: Point, duration: float,
                    direction: Direction = Direction.FORWARD,
                    step: float = 1e-4) -> Point:
    """Plain fixed-step RK4 propagation for a set time, no event handling.

    Used to cross-check the closed-form zone flow at arbitrary times.
    """
    if duration < 0.0:
        raise DomainError("duration must be non-negative")
    matrix = zone_matrix(system.params, zone)
    if isinstance(direction, str):
        direction = Direction(direction)
    if direction is Direction.BACKWARD:
        matrix = -matrix
    n_full = int(duration / step)
    remainder = duration - n_full * step
    x = np.array([start[0], start[1]], dtype=float)
    if n_full:
        transfer = _step_transfer(matrix, step)
        x = _propagate_states(transfer, x, n_full)[-1]
    if remainder > 1e-16:
        x = _step_transfer(matrix, remainder) @ x
    return Point(float(x[0]), float(x[1]))


def numeric_displacement(system: PWLSystem, y: float,
                         opts: IntegrationOptions | None = None) -> float:
    """Displacement at y measured purely by integration.

    Forward through the left zone from (h(y), y) to the lower section,
    backward through the right zone from the same point, difference of
    landing ordinates.
    """
    opts = opts or IntegrationOptions()
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    h = float(system.boundary.evaluate(y))
    start = Point(h, y)
    fwd = integrate_in_zone(system, Zone.LEFT, start, Direction.FORWARD,
                            LOWER_AXIS_ASCENDING, opts, record_stride=0,
                            _count_crossings=False)
    if fwd.terminal_event is TerminalEvent.TIME_OUT:
        raise IntegrationError(f"forward half-turn from y={y!r} timed out")
    bwd = integrate_in_zone(system, Zone.RIGHT, start, Direction.BACKWARD,
                            LOWER_AXIS_DESCENDING, opts, record_stride=0,
                            _count_crossings=False)
    if bwd.terminal_event is TerminalEvent.TIME_OUT:
        raise IntegrationError(f"backward half-turn from y={y!r} timed out")
    return fwd.terminal_point.y - bwd.terminal_point.y


def return_map(system: PWLSystem, y_in: float,
               opts: IntegrationOptions | None = None) -> ReturnMapResult:
    """One forward turn of the Poincare map on the lower section {x=0, y<0}."""
    opts = opts or IntegrationOptions()
    if not (math.isfinite(y_in) and y_in < 0.0):
        raise DomainError(f"y_in must be negative, got {y_in!r}")
    leg1 = integrate_in_zone(system, Zone.RIGHT, Point(0.0, y_in), Direction.FORWARD,
                             MANIFOLD_DESCENDING, opts, record_stride=0)
    if leg1.terminal_event is TerminalEvent.TIME_OUT:
        raise IntegrationError(f"no switching-curve crossing from y_in={y_in!r} "
                               f"within max_time={opts.max_time!r}")
    leg2 = integrate_in_zone(system, Zone.LEFT, leg1.terminal_point, Direction.FORWARD,
                             LOWER_AXIS_ASCENDING, opts, record_stride=0)
    if leg2.terminal_event is TerminalEvent.TIME_OUT:
        raise IntegrationError(f"no section return from y_in={y_in!r} "
                               f"within max_time={opts.max_time!r}")
    return ReturnMapResult(
        y_in=y_in,
        y_out=leg2.terminal_point.y,
        flight_time=leg1.terminal_time + leg2.terminal_time,
        sigma_crossings=leg1.sigma_crossings + leg2.sigma_crossings,
        section_returns=leg1.section_returns + leg2.section_returns,
        landing_error=leg1.landing_error + leg2.landing_error,
    )


def upper_to_lower(system: PWLSystem, y0: float,
                   opts: IntegrationOptions | None = None) -> float:
    """Lower-section ordinate of the forward orbit through (0, y0), y0 > 0.

    Depending on the sign of h(y0) the start lies in the left zone
    directly or must first cross the switching curve from the right zone.
    """
    opts = opts or IntegrationOptions()
    if not (math.isfinite(y0) and y0 > 0.0):
        raise DomainError(f"y0 must be positive, got {y0!r}")
    p = Point(0.0, y0)
    hv = manifold_value(system, p)
    if hv > opts.event_tol:
        leg = integrate_in_zone(system, Zone.RIGHT, p, Direction.FORWARD,
                                MANIFOLD_DESCENDING, opts, record_stride=0)
        if leg.terminal_event is TerminalEvent.TIME_OUT:
            raise IntegrationError(f"no switching-curve crossing from (0, {y0!r})")
        p = leg.terminal_point
    leg = integrate_in_zone(system, Zone.LEFT, p, Direction.FORWARD,
                            LOWER_AXIS_ASCENDING, opts, record_stride=0,
                            _count_crossings=False)
    if leg.terminal_event is TerminalEvent.TIME_OUT:
        raise IntegrationError(f"no section return from (0, {y0!r})")
    return leg.terminal_point.y


def probe_eps(y_star: float, neighbors=(), frac_gap: float = 0.25,
              frac_radius: float = 0.05) -> float:
    """Perturbation size that stays between a cycle and its neighbors.

    Uses a fraction of the gap to the nearest other root (the origin
    counts as a neighbor at 0) capped by a fraction of the radius itself.
    """
    gaps = [abs(y_star - float(n)) for n in neighbors if float(n) != y_star]
    gaps.append(y_star)
    return min(frac_radius * y_star, frac_gap * min(gaps))


def _side_verdicts(system: PWLSystem, y_star: float, eps: float,
                   opts: IntegrationOptions) -> list[tuple[str | None, float]]:
    """('approach' | 'retreat' | None, margin ratio) of the inner and the outer probe.

    Each probe is the orbit through (0, y* -+ eps); one turn of the return
    map runs from its lower crossing r = -y_in at ``opts.step`` and at
    twice that step from the same r.  The drift d = P(r) - r has the error
    bar |d(step) - d(2 step)| plus the turn's landing error at
    ``opts.step``; the margin ratio is |d| / bar.  The inner probe
    approaches when d > 0, the outer one when d < 0.  All turns at one
    step run before those at the other, so the power tables are reused.

    The landing of ``upper_to_lower`` only places the probe: the turn
    starts exactly at (0, y_in), so it does not enter the bar.  A late or
    early switching-curve landing moves the turn's end by the field jump
    4*gamma*x times the time offset, carried through the left zone; that
    is at most about 1.5 times its ordinate offset (gamma^2+1)*|x| times
    the time offset, which ``MARGIN`` covers.
    """
    sides = (-1.0, +1.0)
    y_ins = [upper_to_lower(system, y_star + side * eps, opts) for side in sides]
    fine = [return_map(system, y_in, opts) for y_in in y_ins]
    coarse_opts = replace(opts, step=2.0 * opts.step)
    coarse = [return_map(system, y_in, coarse_opts) for y_in in y_ins]
    out = []
    for side, y_in, f, c in zip(sides, y_ins, fine, coarse):
        drift = y_in - f.y_out
        bar = abs(f.y_out - c.y_out) + f.landing_error
        ratio = abs(drift) / bar if bar > 0.0 else (math.inf if drift else 0.0)
        verdict = "approach" if (drift > 0.0) == (side < 0.0) else "retreat"
        out.append((verdict if ratio > MARGIN else None, ratio))
    return out


def resolve_stability(system: PWLSystem, y_star: float,
                      eps: float | None = None,
                      opts: IntegrationOptions | None = None) -> StabilityClass:
    """Empirical stability from one checked return-map turn on each side.

    Starts orbits at the upper crossings y* -+ eps and takes one turn of
    the lower-section map from each.  A planar return map is strictly
    increasing, so with no other cycle between probe and cycle the sign
    of its drift P(r) - r settles whether that side approaches or
    retreats.  The drift counts only when it exceeds ``MARGIN`` times its
    error bar: the change when the step is doubled plus the landing
    error.  Otherwise the result is UNDETERMINED.
    """
    opts = opts or IntegrationOptions()
    if not (math.isfinite(y_star) and y_star > 0.0):
        raise DomainError(f"y_star must be positive, got {y_star!r}")
    eps = eps if eps is not None else 0.02 * y_star
    if not (0.0 < eps < y_star):
        raise DomainError(f"eps must lie in (0, y_star), got {eps!r}")

    (interior, _), (exterior, _) = _side_verdicts(system, y_star, eps, opts)
    if interior is None or exterior is None:
        return StabilityClass.UNDETERMINED
    if interior == "approach" and exterior == "approach":
        return StabilityClass.STABLE
    if interior == "retreat" and exterior == "retreat":
        return StabilityClass.UNSTABLE
    if exterior == "approach":
        return StabilityClass.SEMI_STABLE_OUTER_STABLE
    return StabilityClass.SEMI_STABLE_INNER_STABLE
