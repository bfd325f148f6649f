"""Normal geodesics of two-dimensional almost-Riemannian frames.

The flow is Hamiltonian on the cotangent bundle with

    H(x, y, px, py) = (px**2 + (f(x, y) py)**2) / 2,

integrated with fixed-step RK4.  Unit-speed geodesics live on H = 1/2.
For the exact Grushin plane (f = x) the two classical families through a
singular point and through a Riemannian reference point have closed
forms, which front construction uses whenever they apply; everything
else is integrated.  Crossings of the singular line x = 0 are located
to high order from the stored trajectory.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularPoint, StepSizeTooLarge
from .frames import _regular_derivs

__all__ = [
    "Trajectory",
    "Front",
    "geodesic_flow",
    "grushin_geodesic_origin",
    "grushin_geodesic_riemannian",
    "front",
]


class CrossingEvent(NamedTuple):
    """An interpolated state where a trajectory meets x = 0, and its velocity
    (px, ydot): ydot = f**2 py vanishes there, so crossings are perpendicular."""

    t: float
    x: float
    y: float
    px: float
    py: float
    ydot: float


@dataclass
class Trajectory:
    t: np.ndarray
    states: np.ndarray  # shape (n+1, 4): columns x, y, px, py
    crossings: list
    energy_drift: float


@dataclass
class Front:
    """Endpoints of the time-T geodesic fan out of one start point."""

    kind: str  # "riemannian" or "singular"
    params: np.ndarray      # angle theta, or initial py
    families: np.ndarray    # +-1 for the two singular families, 0 otherwise
    endpoints: np.ndarray   # shape (m, 2)
    provenance: str         # "closed-form" or "integrated"


def _check_start(frame, x, y, who):
    """|f| at a start (x, y), or None on the singular line of a singular variant.

    Raises SingularPoint at a start the flow cannot leave: off that line
    where _regular_derivs refuses it, and on it where f vanishes to an
    order below 1/2 (alpha-grushin with alpha < 1/2), where fsq_jet gives
    f * f_x = inf, the limit of |x|**(2 order - 1), so no dt can help.
    """
    order = frame.vanishing_order
    if order is None or x != 0.0:
        return abs(_regular_derivs(frame, (x, y), who)[0])
    if order < 0.5:
        raise SingularPoint(f"{who}: f * f_x is infinite on x = 0 for alpha-grushin with "
                            f"alpha = {order} < 1/2, at {(x, y)}")
    return None


def _step_grid(T, dt, who):
    """(n, T / n): the n = max(1, round(T / dt)) equal steps of a fixed-step run to time T.

    Raises ValueError, naming who, unless dt > 0, T >= 0 and T / dt is finite.
    """
    if not dt > 0:
        raise ValueError(f"{who}: dt must be positive, got {dt}")
    if not T >= 0:
        raise ValueError(f"{who}: T must be non-negative, got {T}")
    if not T / dt < math.inf:
        raise ValueError(f"{who}: T / dt = {T} / {dt} is not a finite step count")
    n = max(1, int(round(T / dt)))
    return n, T / n


def _energy(px, fpy):
    """H = (px**2 + (f py)**2) / 2 from px and f py, on floats and on arrays."""
    return 0.5 * (px * px + fpy * fpy)


def _hermite(tau, v0, v1, d0, d1, dt):
    h00 = (1.0 + 2.0 * tau) * (1.0 - tau) ** 2
    h10 = tau * (1.0 - tau) ** 2
    h01 = tau * tau * (3.0 - 2.0 * tau)
    h11 = tau * tau * (tau - 1.0)
    return h00 * v0 + h10 * dt * d0 + h01 * v1 + h11 * dt * d1


def _locate_crossing(frame, t0, dt, s_prev, s_new):
    """Interpolated crossing state inside one step, with its velocity.

    Linear estimate from the x values, then one Newton correction on the
    cubic Hermite interpolant of x using dx/dt = px.
    """
    x0, y0, px0, py0 = s_prev
    x1, y1, px1, py1 = s_new
    tau = x0 / (x0 - x1) if x0 != x1 else 1.0
    px_tau = px0 + tau * (px1 - px0)
    if px_tau != 0.0:
        x_tau = _hermite(tau, x0, x1, px0, px1, dt)
        tau = min(1.0, max(0.0, tau - x_tau / (dt * px_tau)))
    yd0 = frame.fsq_jet(x0, y0)[0] * py0
    yd1 = frame.fsq_jet(x1, y1)[0] * py1
    xs = _hermite(tau, x0, x1, px0, px1, dt)
    ys = _hermite(tau, y0, y1, yd0, yd1, dt)
    ps = px0 + tau * (px1 - px0)
    qs = py0 + tau * (py1 - py0)
    return CrossingEvent(t=t0 + tau * dt, x=xs, y=ys, px=ps, py=qs,
                         ydot=frame.fsq_jet(xs, ys)[0] * qs)


def geodesic_flow(frame, state0, T, dt=1e-4, tol_H=1e-8):
    """Integrate the Hamiltonian flow for time T with fixed-step RK4.

    Records the full trajectory on the uniform grid of _step_grid, T/dt
    steps rounded (at least one), plus interpolated crossing events of
    x = 0, each with its velocity (px, ydot).  The
    four stages of a step run inline on plain floats, one call of the
    frame's fsq_jet each, and the states collect in a flat float buffer.
    Raises StepSizeTooLarge unless the energy drift, recomputed from the
    array evaluator frame.f, is at most 100 * tol_H (a non-finite drift
    fails, naming the first t whose energy is not finite), and also when a
    float evaluation overflows or leaves its domain.
    Raises ValueError unless dt > 0, T >= 0 and T / dt is finite;
    SingularPoint where f or 1/f is 0 or not finite, or f**2 overflows,
    at the start, unless the start is on the singular line x = 0 of a
    singular variant, at a start on that line where f * f_x is infinite
    (alpha-grushin with alpha < 1/2), and at a start whose energy
    (px**2 + (f py)**2) / 2, px**2 / 2 on the line, is not finite.
    """
    n, dt_eff = _step_grid(T, dt, "geodesic_flow")
    if not 0.0 < tol_H < math.inf:
        raise ValueError(f"geodesic_flow: need finite tol_H > 0, got {tol_H}")
    x, y, px, py = (float(v) for v in state0)
    if not all(map(math.isfinite, (x, y, px, py))):
        raise ValueError(f"geodesic_flow: need a finite start state, got {tuple(state0)}")
    # f = 0 on the singular line, where _check_start gives None
    f = _check_start(frame, x, y, "geodesic_flow") or 0.0
    energy = _energy(px, f * py)
    if not math.isfinite(energy):
        raise SingularPoint(f"geodesic_flow: the energy (px**2 + f**2 py**2) / 2 = {energy} "
                            f"is not finite at the start {(x, y, px, py)}")
    jet = frame.fsq_jet

    # x, y, px, py of every step, viewed as an (n+1, 4) array at the end
    buf = array("d", (x, y, px, py))
    push = buf.extend
    crossings = []
    half = 0.5 * dt_eff
    sixth = dt_eff / 6.0
    try:
        for i in range(n):
            # stage j evaluates Hamilton's equations at its state (xj, yj, pj, qj):
            # (dx, dy, dpx, dpy) = (pj, f**2 qj, -f f_x qj**2, -f f_y qj**2)
            fsq, ffx, ffy = jet(x, y)
            dy1, dp1, dq1 = fsq * py, -ffx * py * py, -ffy * py * py
            x2, y2, p2, q2 = x + half * px, y + half * dy1, px + half * dp1, py + half * dq1
            fsq, ffx, ffy = jet(x2, y2)
            dy2, dp2, dq2 = fsq * q2, -ffx * q2 * q2, -ffy * q2 * q2
            x3, y3, p3, q3 = x + half * p2, y + half * dy2, px + half * dp2, py + half * dq2
            fsq, ffx, ffy = jet(x3, y3)
            dy3, dp3, dq3 = fsq * q3, -ffx * q3 * q3, -ffy * q3 * q3
            x4, y4 = x + dt_eff * p3, y + dt_eff * dy3
            p4, q4 = px + dt_eff * dp3, py + dt_eff * dq3
            fsq, ffx, ffy = jet(x4, y4)
            dy4, dp4, dq4 = fsq * q4, -ffx * q4 * q4, -ffy * q4 * q4
            xn = x + sixth * (px + 2.0 * (p2 + p3) + p4)
            yn = y + sixth * (dy1 + 2.0 * (dy2 + dy3) + dy4)
            pxn = px + sixth * (dp1 + 2.0 * (dp2 + dp3) + dp4)
            pyn = py + sixth * (dq1 + 2.0 * (dq2 + dq3) + dq4)
            if x * xn < 0.0 or (xn == 0.0 and x != 0.0):
                crossings.append(_locate_crossing(
                    frame, i * dt_eff, dt_eff, (x, y, px, py), (xn, yn, pxn, pyn)))
            x, y, px, py = xn, yn, pxn, pyn
            push((x, y, px, py))
    except (OverflowError, ValueError) as exc:
        # a float jet raises where the state has blown up past the floats
        raise StepSizeTooLarge(
            f"geodesic_flow: the state left the floats at t = {i * dt_eff:.3e} ({exc}); "
            f"reduce dt below {dt_eff:.3e}") from exc

    states = np.frombuffer(buf).reshape(n + 1, 4)
    t_grid = np.linspace(0.0, T, n + 1)
    # a blown-up trajectory makes the drift inf or nan, which the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _energy(states[:, 2], frame.f(states[:, 0], states[:, 1]) * states[:, 3])
        drift = float(np.max(np.abs(energies - energies[0])))
    if not drift <= 100.0 * tol_H:
        bad = np.flatnonzero(~np.isfinite(energies))
        where = f"; the energy is not finite from t = {t_grid[bad[0]]:.3e}" if bad.size else ""
        raise StepSizeTooLarge(
            f"geodesic_flow: energy drift {drift:.3e} exceeds {100.0 * tol_H:.3e}{where}; "
            f"reduce dt below {dt_eff:.3e}")
    return Trajectory(t=t_grid, states=states, crossings=crossings, energy_drift=drift)


def grushin_geodesic_origin(py0, sign, t):
    """Unit-speed Grushin geodesic leaving (0, 0) across the singular line.

    Initial covector (px, py) = (sign, py0) with sign = +-1.  Vectorized
    in t; returns (x, y).
    """
    if sign not in (1, -1, 1.0, -1.0):
        raise ValueError("sign must be +1 or -1")
    t = np.asarray(t, dtype=float)
    a = float(py0)
    if a == 0.0:
        return sign * t, np.zeros_like(t)
    x = sign * np.sin(a * t) / a
    y = (2.0 * a * t - np.sin(2.0 * a * t)) / (4.0 * a * a)
    return x, y


def grushin_geodesic_riemannian(theta, t):
    """Unit-speed Grushin geodesic from (-1, 0) with covector angle theta.

    Initial covector (cos(theta), sin(theta)).  Vectorized in t; returns
    (x, y).  The flat cases theta = 0, pi are horizontal lines; otherwise

        x(t) = -sin(theta - b t) / b,
        y(t) = (2 b t + sin(2 theta - 2 b t) - sin(2 theta)) / (4 b**2),

    with b = sin(theta).
    """
    t = np.asarray(t, dtype=float)
    b = math.sin(theta)
    if abs(b) < 1e-12:
        direction = math.cos(theta)
        return -1.0 + direction * t, np.zeros_like(t)
    x = -np.sin(theta - b * t) / b
    y = (2.0 * b * t + np.sin(2.0 * theta - 2.0 * b * t) - math.sin(2.0 * theta)) / (4.0 * b * b)
    return x, y


def _closed_form_endpoint(start, theta, T):
    """Riemannian-start Grushin endpoint via the scaling symmetries.

    The flow is invariant under (x, y, t) -> (s x, s**2 y, s t) and under
    x-reflection, so any start (x0, y0) with x0 != 0 reduces to the
    reference start (-1, 0).
    """
    x0, y0 = start
    s = abs(x0)
    if x0 < 0:
        X, Y = grushin_geodesic_riemannian(theta, T / s)
        return s * float(X), y0 + s * s * float(Y)
    X, Y = grushin_geodesic_riemannian(math.pi - theta, T / s)
    return -s * float(X), y0 + s * s * float(Y)


def front(frame, start, T, n, *, param_max=15.0, dt=1e-4):
    """Endpoints at time T of the geodesic fan out of a point.

    From a Riemannian point the fan is parametrized by the covector
    angle theta on n uniform values in [0, 2*pi); the initial covector
    is (cos(theta), sin(theta)/|f|).  From a singular point it is
    parametrized by the initial py on a symmetric n-point grid in
    [-param_max, param_max], once for each sign of the transversal
    momentum px = +-1.

    Endpoints come from the closed forms exactly when the frame is the
    exact Grushin plane, otherwise from RK4 integration; at T = 0 they
    are the start.  Raises ValueError unless n >= 8, dt > 0, T >= 0 and
    T / dt is finite (closed form or not), the start is finite, param_max
    is finite and positive and, from a singular start, 2 * param_max
    and, for the closed form, its divisor 4 * param_max**2 are finite; SingularPoint
    at a Riemannian start where f or 1/f is 0 or not finite or f**2
    overflows, and at a singular start where f * f_x is infinite
    (alpha-grushin with alpha < 1/2).
    """
    if n < 8:
        raise ValueError("front: need n >= 8 parameters")
    _step_grid(T, dt, "front")
    if not 0 < param_max < math.inf:
        raise ValueError(f"front: need finite param_max > 0, got {param_max}")
    x0, y0 = float(start[0]), float(start[1])
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise ValueError(f"front: need a finite start, got {(x0, y0)}")
    closed = frame.is_exact_grushin
    singular = frame.is_singular_variant and x0 == 0.0
    if closed and singular and not 4.0 * param_max * param_max < math.inf:
        raise ValueError(f"front: the Grushin closed form needs 4 * param_max**2 finite, "
                         f"got param_max = {param_max}")
    if singular and not 2.0 * param_max < math.inf:
        raise ValueError(f"front: the grid on [-param_max, param_max] needs 2 * param_max "
                         f"finite, got param_max = {param_max}")
    f0 = _check_start(frame, x0, y0, "front")
    if singular:
        params = np.tile(np.linspace(-param_max, param_max, n), 2)
        families = np.repeat([1, -1], n)
    else:
        params = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        families = np.zeros(n, dtype=int)

    endpoints = np.empty((params.size, 2))
    for row, (a, sgn) in enumerate(zip(params, families)):
        if closed and singular:
            xe, ye = grushin_geodesic_origin(a, int(sgn), T)
            endpoints[row] = (float(xe), y0 + float(ye))
        elif closed:
            endpoints[row] = _closed_form_endpoint((x0, y0), a, T)
        else:
            covector = (float(sgn), a) if singular else (math.cos(a), math.sin(a) / f0)
            traj = geodesic_flow(frame, (x0, y0, *covector), T, dt=dt)
            endpoints[row] = traj.states[-1, :2]
    return Front(kind="singular" if singular else "riemannian", params=params,
                 families=families, endpoints=endpoints,
                 provenance="closed-form" if closed else "integrated")
