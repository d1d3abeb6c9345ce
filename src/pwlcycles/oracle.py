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
eigenvalue are tabulated once per leg, and each chunk scales the table by
a coefficient taken from the chunk's start state.  This reproduces the
RK4 iterates to roundoff; truncation error and convergence order are
those of RK4 by construction.  A crossing bracketed between two steps is
landed on the same one-step polynomial, x(tau) = sum_k (tau*A)**k x / k!
for a substep tau, by Illinois (bracketed regula falsi) iteration on the
event function.

Backward integration is forward integration of the negated field; event
logic is unchanged.
"""

from __future__ import annotations

import csv
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
_BLOCK_TIME = 0.5
_MAX_BISECT = 200

# Smallest meaningful radius drift, relative to the cycle's lower-section
# radius; drifts inside this band are treated as numerical noise when
# resolving stability.  Relative, because the drifts of a small cycle
# shrink with its radius.
DRIFT_FLOOR = 1e-9


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
    crossing counters cover the whole segment regardless of thinning.
    """

    zone: Zone
    times: np.ndarray
    points: np.ndarray
    terminal_event: TerminalEvent
    sigma_crossings: int = 0
    section_returns: int = 0

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
    """

    y_in: float
    y_out: float
    flight_time: float
    sigma_crossings: int
    section_returns: int


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


def _power_table(transfer: np.ndarray, n: int) -> np.ndarray | None:
    """lam**k for k = 0..n, lam the transfer's upper eigenvalue (None if real)."""
    lam = _eigenvalue(transfer)
    if lam is None:
        return None
    return np.exp(np.arange(n + 1) * np.log(lam))


def _propagate_states(transfer: np.ndarray, x0: np.ndarray, n: int,
                      powers: np.ndarray | None = None) -> np.ndarray:
    """States x_k = transfer^k @ x0 for k = 0..n, shape (n+1, 2).

    Uses the complex eigenpair of the 2x2 transfer (always a conjugate
    pair here since both zones are foci): x_k = 2 Re(a lam**k v), with the
    coefficient a fixed by x0.  ``powers`` is a ``_power_table`` of the
    same transfer with at least n+1 entries, built here when not given.
    Falls back to plain stepping for a degenerate spectrum.
    """
    lam = _eigenvalue(transfer)
    if lam is None:
        out = np.empty((n + 1, 2))
        out[0] = x0
        for k in range(n):
            out[k + 1] = transfer @ out[k]
        return out
    if powers is None:
        powers = _power_table(transfer, n)
    v = np.array([transfer[0, 1], lam - transfer[0, 0]], dtype=complex)
    vc = np.conj(v)
    den = v[0] * vc[1] - v[1] * vc[0]
    a = (x0[0] * vc[1] - x0[1] * vc[0]) / den
    c = a * powers[:n + 1]
    out = np.empty((n + 1, 2))
    # v[0] is real, so the first column needs only the real part of c
    np.multiply(c.real, 2.0 * v[0].real, out=out[:, 0])
    out[:, 1] = (c * (2.0 * v[1])).real
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


def _localize(system: PWLSystem, matrix: np.ndarray, x_from: np.ndarray, step: float,
              g_from: float, kind: str, event_tol: float) -> tuple[float, np.ndarray]:
    """Land on the event inside the substep (0, step] that brackets it.

    On a substep tau the RK4 state is the quartic x(tau) = sum_k c_k tau**k
    with c_k = A**k x_from / k!; the coefficients are built once and
    evaluated by Horner.  The root of g(x(tau)) is found by Illinois
    iteration, bisecting whenever the secant point leaves the bracket,
    until |g| <= event_tol or _MAX_BISECT iterations.
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
    return tau, np.array(x_t)


def integrate_in_zone(system: PWLSystem, zone: Zone, start: Point,
                      direction: Direction = Direction.FORWARD,
                      stop: EventSpec = LOWER_AXIS_ASCENDING,
                      opts: IntegrationOptions | None = None,
                      record_stride: int = 1,
                      t0: float = 0.0) -> TrajectorySegment:
    """Integrate one zone's linear field until the stop event or max_time.

    The start may sit on the stop section provided the velocity carries it
    off (a residual event value within event_tol at the start is ignored
    for the first step).  record_stride keeps the interior samples at step
    indices divisible by it; 0 keeps only the endpoints.  Times are t0 plus
    elapsed integration time and increase regardless of direction.
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
        speed = float(np.hypot(*(matrix @ x)))
        if speed > 1e-14:
            if stop.kind == "axis":
                dgdt = float((matrix @ x)[0])
            else:
                y = float(x[1])
                hp = float(system.boundary.derivative(y)) if y > 0.0 else 0.0
                vel = matrix @ x
                dgdt = float(vel[0] - hp * vel[1])
            if abs(dgdt) <= 1e-12 * speed:
                raise TangencyError(
                    f"start {start!r} sits on the stop section with tangent velocity"
                )

    chunk = max(1, math.ceil(_BLOCK_TIME / opts.step))
    powers = _power_table(transfer, chunk)
    stride = max(0, int(record_stride))
    rec_t: list[np.ndarray] = []
    rec_p: list[np.ndarray] = []
    sigma_count = 0
    section_count = 0
    done = 0  # steps taken before the current chunk
    terminal = TerminalEvent.TIME_OUT

    while opts.max_time - done * opts.step > 0.5 * opts.step:
        n = min(math.ceil((opts.max_time - done * opts.step) / opts.step), chunk)
        states = _propagate_states(transfer, x, n, powers)
        first = done == 0
        g_axis = states[:, 0]
        g_man = manifold_values(system, states)
        g_stop = g_axis if stop.kind == "axis" else g_man
        y = states[:, 1]
        lower = (y[:-1] < 0.0) & (y[1:] < 0.0)
        descending_sigma = _crossings(g_man, -1, first, opts.event_tol)
        section = _crossings(g_axis, +1, first, opts.event_tol) & lower
        # The usual stops are the crossings the diagnostics count anyway.
        if stop == LOWER_AXIS_ASCENDING:
            hits = section
        elif stop == MANIFOLD_DESCENDING:
            hits = descending_sigma
        else:
            hits = _crossings(g_stop, stop.direction, first, opts.event_tol)
            if stop.require_negative_y:
                hits = hits & lower
        hit = int(np.argmax(hits)) if hits.any() else None

        # Crossing diagnostics over the part of the chunk actually consumed.
        upto = n if hit is None else hit
        sigma = descending_sigma & (y[:-1] > 0.0) & (y[1:] > 0.0)
        sigma_count += int(np.count_nonzero(sigma[:upto]))
        section_count += int(np.count_nonzero(section[:upto]))

        if stride > 0:
            idx = np.arange((-done) % stride, n if hit is None else hit + 1, stride)
            rec_t.append((done + idx) * opts.step)
            rec_p.append(states[idx])
        elif first:
            rec_t.append(np.zeros(1))
            rec_p.append(states[:1])

        if hit is None:
            x = states[-1]
            done += n
            continue
        if g_stop[hit + 1] == 0.0:
            tau, x = opts.step, states[hit + 1]
        else:
            tau, x = _localize(system, matrix, states[hit], opts.step,
                               float(g_stop[hit]), stop.kind, opts.event_tol)
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
    rec_t.append(np.array([end_time]))
    rec_p.append(x[None, :])
    return TrajectorySegment(zone=zone, times=np.concatenate(rec_t) + t0,
                             points=np.concatenate(rec_p),
                             terminal_event=terminal,
                             sigma_crossings=sigma_count,
                             section_returns=section_count)


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
                            LOWER_AXIS_ASCENDING, opts, record_stride=0)
    if fwd.terminal_event is TerminalEvent.TIME_OUT:
        raise IntegrationError(f"forward half-turn from y={y!r} timed out")
    bwd = integrate_in_zone(system, Zone.RIGHT, start, Direction.BACKWARD,
                            LOWER_AXIS_DESCENDING, opts, record_stride=0)
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
                            LOWER_AXIS_ASCENDING, opts, record_stride=0)
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


def _side_trend(drifts: list[float], floor: float) -> str | None:
    """'approach' or 'retreat' of |distance to the fixed radius|, else None."""
    start, end = abs(drifts[0]), abs(drifts[-1])
    steps = np.diff(np.abs(drifts))
    if end < floor:
        return "approach"
    total = end - start
    if abs(total) < floor:
        return None
    moving = steps[np.abs(steps) > 0.0]
    if moving.size == 0:
        return None
    frac = float(np.mean(np.sign(moving) == np.sign(total)))
    if frac < 0.7:
        return None
    return "approach" if total < 0.0 else "retreat"


def resolve_stability(system: PWLSystem, y_star: float,
                      eps: float | None = None, iters: int = 30,
                      opts: IntegrationOptions | None = None) -> StabilityClass:
    """Empirical stability: iterate the return map from both sides of the cycle.

    Starts orbits at the upper crossings y* -+ eps, follows the lower
    section radius over ``iters`` turns, and classifies each side by
    whether the distance to the cycle's radius shrinks or grows
    monotonically.  Ambiguous drifts (below the noise floor or
    non-monotone) give UNDETERMINED.
    """
    opts = opts or IntegrationOptions()
    if not (math.isfinite(y_star) and y_star > 0.0):
        raise DomainError(f"y_star must be positive, got {y_star!r}")
    eps = eps if eps is not None else 0.02 * y_star
    if not (0.0 < eps < y_star):
        raise DomainError(f"eps must lie in (0, y_star), got {eps!r}")
    r_star = math.exp(-system.gamma * math.pi) * y_star

    verdicts: dict[float, str | None] = {}
    for side in (-1.0, +1.0):
        y_in = upper_to_lower(system, y_star + side * eps, opts)
        drifts = [(-y_in) - r_star]
        for _ in range(iters):
            y_in = return_map(system, y_in, opts).y_out
            drifts.append((-y_in) - r_star)
        verdicts[side] = _side_trend(drifts, DRIFT_FLOOR * r_star)

    interior, exterior = verdicts[-1.0], verdicts[+1.0]
    if interior is None or exterior is None:
        return StabilityClass.UNDETERMINED
    if interior == "approach" and exterior == "approach":
        return StabilityClass.STABLE
    if interior == "retreat" and exterior == "retreat":
        return StabilityClass.UNSTABLE
    if exterior == "approach":
        return StabilityClass.SEMI_STABLE_OUTER_STABLE
    return StabilityClass.SEMI_STABLE_INNER_STABLE
