"""Normal geodesics of two-dimensional almost-Riemannian frames.

The flow is Hamiltonian on the cotangent bundle with

    H(x, y, px, py) = (px**2 + f(x, y)**2 * py**2) / 2,

integrated with fixed-step RK4.  Unit-speed geodesics live on H = 1/2.
For the exact Grushin plane (f = x) the two classical families through a
singular point and through a Riemannian reference point have closed
forms, which front construction uses whenever they apply; everything
else is integrated.  Crossings of the singular line x = 0 are located
to high order from the stored trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import StepSizeTooLarge
from .frames import Point

__all__ = [
    "CotangentState",
    "CrossingEvent",
    "Trajectory",
    "Front",
    "hamiltonian",
    "geodesic_flow",
    "grushin_geodesic_origin",
    "grushin_geodesic_riemannian",
    "front",
    "crossing_report",
]


class CotangentState(NamedTuple):
    x: float
    y: float
    px: float
    py: float


class CrossingEvent(NamedTuple):
    """An interpolated state where a trajectory meets x = 0."""

    t: float
    x: float
    y: float
    px: float
    py: float
    direction: int


@dataclass
class Trajectory:
    t: np.ndarray
    states: np.ndarray  # shape (n+1, 4): columns x, y, px, py
    crossings: list
    dt: float
    energy_drift: float

    def state(self, i):
        return CotangentState(*self.states[i])


@dataclass
class Front:
    """Endpoints of the time-T geodesic fan out of one start point."""

    kind: str  # "riemannian" or "singular"
    start: Point
    time: float
    params: np.ndarray      # angle theta, or initial py
    families: np.ndarray    # +-1 for the two singular families, 0 otherwise
    endpoints: np.ndarray   # shape (m, 2)
    provenance: str         # "closed-form" or "integrated"


def hamiltonian(frame, state):
    x, y, px, py = state
    fsq = frame.fsq_jet(x, y)[0]
    return 0.5 * (px * px + fsq * py * py)


def _rhs(fsq_jet, x, y, px, py):
    """Hamilton's equations: (px, f**2 py, -f f_x py**2, -f f_y py**2)."""
    fsq, ffx, ffy = fsq_jet(x, y)
    return px, fsq * py, -ffx * py * py, -ffy * py * py


def _hermite(tau, v0, v1, d0, d1, dt):
    h00 = (1.0 + 2.0 * tau) * (1.0 - tau) ** 2
    h10 = tau * (1.0 - tau) ** 2
    h01 = tau * tau * (3.0 - 2.0 * tau)
    h11 = tau * tau * (tau - 1.0)
    return h00 * v0 + h10 * dt * d0 + h01 * v1 + h11 * dt * d1


def _locate_crossing(frame, t0, dt, s_prev, s_new):
    """Interpolated crossing state inside one step.

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
                         direction=1 if ps > 0 else -1)


def geodesic_flow(frame, state0, T, dt=1e-4, tol_H=1e-8):
    """Integrate the Hamiltonian flow for time T with fixed-step RK4.

    Records the full trajectory on the uniform grid T/n with
    n = round(T/dt), plus interpolated crossing events of x = 0.
    Raises StepSizeTooLarge unless the energy drift, recomputed from the
    array evaluator f, is at most 100 * tol_H (a non-finite drift fails),
    and also when a float evaluation overflows or leaves its domain.
    """
    if dt <= 0:
        raise ValueError("geodesic_flow: dt must be positive")
    if T < 0:
        raise ValueError("geodesic_flow: T must be non-negative")
    if not 0.0 < tol_H < math.inf:
        raise ValueError(f"geodesic_flow: need finite tol_H > 0, got {tol_H}")
    x, y, px, py = (float(v) for v in state0)
    if not all(map(math.isfinite, (x, y, px, py))):
        raise ValueError(f"geodesic_flow: need a finite start state, got {tuple(state0)}")
    n = max(1, int(round(T / dt)))
    dt_eff = T / n
    jet = frame.fsq_jet

    states = np.empty((n + 1, 4))
    states[0] = (x, y, px, py)
    crossings = []
    half = 0.5 * dt_eff
    sixth = dt_eff / 6.0
    try:
        for i in range(n):
            k1 = _rhs(jet, x, y, px, py)
            k2 = _rhs(jet, x + half * k1[0], y + half * k1[1], px + half * k1[2],
                      py + half * k1[3])
            k3 = _rhs(jet, x + half * k2[0], y + half * k2[1], px + half * k2[2],
                      py + half * k2[3])
            k4 = _rhs(jet, x + dt_eff * k3[0], y + dt_eff * k3[1], px + dt_eff * k3[2],
                      py + dt_eff * k3[3])
            xn = x + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            yn = y + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            pxn = px + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
            pyn = py + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
            if x * xn < 0.0 or (xn == 0.0 and x != 0.0):
                crossings.append(_locate_crossing(
                    frame, i * dt_eff, dt_eff, (x, y, px, py), (xn, yn, pxn, pyn)))
            x, y, px, py = xn, yn, pxn, pyn
            states[i + 1] = (x, y, px, py)
    except (OverflowError, ValueError) as exc:
        # a float jet raises where the state has blown up past the floats
        raise StepSizeTooLarge(
            f"geodesic_flow: the state left the floats at t = {i * dt_eff:.3e} ({exc}); "
            f"reduce dt below {dt_eff:.3e}") from exc

    t_grid = np.linspace(0.0, T, n + 1)
    # a blown-up trajectory makes the drift inf or nan, which the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        fsq = frame.derivs(states[:, 0], states[:, 1])[0] ** 2
        energies = 0.5 * (states[:, 2] ** 2 + fsq * states[:, 3] ** 2)
        drift = float(np.max(np.abs(energies - energies[0])))
    if not drift <= 100.0 * tol_H:
        raise StepSizeTooLarge(
            f"geodesic_flow: energy drift {drift:.3e} exceeds {100.0 * tol_H:.3e}; "
            f"reduce dt below {dt_eff:.3e}")
    return Trajectory(t=t_grid, states=states, crossings=crossings,
                      dt=dt_eff, energy_drift=drift)


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
    exact Grushin plane, otherwise from RK4 integration.
    """
    if n < 8:
        raise ValueError("front: need n >= 8 parameters")
    if T <= 0:
        raise ValueError("front: need T > 0")
    start = Point(float(start[0]), float(start[1]))
    closed = frame.is_exact_grushin
    singular = frame.is_singular_variant and start.x == 0.0

    if singular:
        params = np.linspace(-param_max, param_max, n)
        all_params = np.concatenate([params, params])
        families = np.concatenate([np.ones(n, dtype=int), -np.ones(n, dtype=int)])
        endpoints = np.empty((2 * n, 2))
        for row, (a, sgn) in enumerate(zip(all_params, families)):
            if closed:
                xe, ye = grushin_geodesic_origin(a, int(sgn), T)
                endpoints[row] = (float(xe), start.y + float(ye))
            else:
                traj = geodesic_flow(frame, (start.x, start.y, float(sgn), a), T, dt=dt)
                endpoints[row] = traj.states[-1, :2]
        return Front(kind="singular", start=start, time=T, params=all_params,
                     families=families, endpoints=endpoints,
                     provenance="closed-form" if closed else "integrated")

    f0 = abs(float(frame.derivs(start.x, start.y)[0]))
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    endpoints = np.empty((n, 2))
    for row, theta in enumerate(thetas):
        if closed:
            endpoints[row] = _closed_form_endpoint(start, theta, T)
        else:
            state0 = (start.x, start.y, math.cos(theta), math.sin(theta) / f0)
            traj = geodesic_flow(frame, state0, T, dt=dt)
            endpoints[row] = traj.states[-1, :2]
    return Front(kind="riemannian", start=start, time=T, params=thetas,
                 families=np.zeros(n, dtype=int), endpoints=endpoints,
                 provenance="closed-form" if closed else "integrated")


def crossing_report(traj, frame):
    """Crossing times with the velocity (dx/dt, dy/dt) at each crossing.

    dx/dt = px and dy/dt = f**2 py, so on the singular line dy/dt
    vanishes: crossings are perpendicular to x = 0.
    """
    out = []
    for ev in traj.crossings:
        ydot = frame.fsq_jet(ev.x, ev.y)[0] * ev.py
        out.append((ev.t, ev.px, ydot))
    return out
