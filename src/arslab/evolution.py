"""Degenerate heat and Schrodinger flow across the singular line.

The intrinsic area density |x|**(-alpha) is not locally integrable
across x = 0 for alpha >= 1, so the evolution is built on the
regularized weight

    w_eps(x) = max(|x|, eps)**(-alpha)

and the limit eps -> 0 is probed by re-running the same experiment on a
shrinking sweep.  The spatial operator is a finite-volume graph
Laplacian on a tensor grid (x on a symmetric interval including the
node x = 0, y periodic): cell masses integrate w_eps exactly, x-edge
conductances are exact resistor integrals of 1/w_eps, and y-edge
conductances integrate f**2 w_eps exactly, all with closed-form
antiderivatives.  The generator A = M^{-1} C is symmetric in the mass
inner product, annihilates constants, and is nonpositive.

The operator commutes with translation in y, and the generator has the
tensor form

    C = kron(C_x, I) + kron(diag(y_coef), R),   M = kron(diag(m_x), I),

with C_x the tridiagonal x-graph Laplacian and R the periodic second
difference in y.  Only these 1-D pieces are stored; C is never
assembled.  A DFT in y diagonalizes R, with eigenvalues
mu_q = 2 cos(2 pi q / n_y) - 2, so one Crank-Nicolson step

    (M - c C) u+ = (M + c C) u,   c = dt/2 (heat) or i dt/2 (Schrodinger),

is one tridiagonal solve in x per Fourier mode q.  All modes are stacked
into one block-tridiagonal system, factored once per run by LAPACK
(dpttrf for the real heat step, zgttrf for the complex Cayley step).

Because the modes never couple, run_heat and run_schrodinger evolve in
mode space from start to end: one FFT in y takes the field in, one takes
it out.  A step is one LAPACK ?pttrs / ?gttrs call and one banded
product L w with L = M - c C, which certifies the step (the residual
L w+ - rhs, in the mass norm) and gives the next right-hand side
2 M w - L w.  A step whose relative residual or factorization fails
raises SolverDiverged.  Recorded series rows are read off the mode
coefficients by Parseval.  The Schrodinger (Cayley) step is unitary in
the mass inner product, and the heat step conserves mass, both to
roundoff.  step_heat and step_schrodinger are the one-step case of the
same loop; each call factors anew, so a caller that takes many steps
calls run_heat or run_schrodinger.

eps_sweep runs the same experiment over a shrinking eps sweep for the
CLI and transmission_study, and transmission_verdict says whether the
mass fraction crossing the singular line dies out (barrier-consistent) or
stabilizes (crossing-consistent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import BadGrid, Inconclusive, SolverDiverged

__all__ = [
    "WeightedGrid",
    "Generator",
    "EvolutionState",
    "TransmissionReport",
    "assemble_generator",
    "gaussian_bump_state",
    "step_heat",
    "step_schrodinger",
    "run_heat",
    "run_schrodinger",
    "transmitted_fraction",
    "transmission_verdict",
    "eps_sweep",
    "transmission_study",
]

_TWO_PI = 2.0 * math.pi
# relative mass-norm residual every Crank-Nicolson solve must meet
_SOLVE_TOL = 1e-10


def _int_weight(t, eps, alpha):
    """integral of max(s, eps)**(-alpha) ds on [0, t], t >= 0."""
    t = np.asarray(t, dtype=float)
    inside = np.minimum(t, eps) * eps ** (-alpha)
    if alpha == 1.0:
        outside = np.log(np.maximum(t, eps) / eps)
    else:
        outside = (np.maximum(t, eps) ** (1.0 - alpha) - eps ** (1.0 - alpha)) / (1.0 - alpha)
    return inside + outside


def _int_inverse_weight(t, eps, alpha):
    """integral of max(s, eps)**(+alpha) ds on [0, t], t >= 0."""
    t = np.asarray(t, dtype=float)
    inside = np.minimum(t, eps) * eps**alpha
    outside = (np.maximum(t, eps) ** (1.0 + alpha) - eps ** (1.0 + alpha)) / (1.0 + alpha)
    return inside + outside


def _int_ycoupling(t, eps, alpha):
    """integral of s**(2 alpha) * max(s, eps)**(-alpha) ds on [0, t], t >= 0."""
    t = np.asarray(t, dtype=float)
    tin = np.minimum(t, eps)
    inside = eps ** (-alpha) * tin ** (2.0 * alpha + 1.0) / (2.0 * alpha + 1.0)
    outside = (np.maximum(t, eps) ** (1.0 + alpha) - eps ** (1.0 + alpha)) / (1.0 + alpha)
    return inside + outside


def _odd(f, x, eps, alpha):
    x = np.asarray(x, dtype=float)
    return np.sign(x) * f(np.abs(x), eps, alpha)


@dataclass
class WeightedGrid:
    """Tensor grid with exactly integrated degenerate weights."""

    alpha: float
    eps: float
    x: np.ndarray        # n_x + 1 nodes, symmetric, includes 0
    h: float
    n_y: int
    h_y: float
    period: float
    mass_x: np.ndarray   # per x-node: cell integral of w_eps
    cond_x: np.ndarray   # per x-edge, per unit y-length
    ycoef_x: np.ndarray  # per x-node: cell integral of f**2 w_eps

    @property
    def n_cells(self):
        return self.x.size * self.n_y

    def masses(self):
        return np.repeat(self.mass_x * self.h_y, self.n_y)

    def x_of_cells(self):
        return np.repeat(self.x, self.n_y)

    def y_of_cells(self):
        return np.tile((np.arange(self.n_y)) * self.h_y, self.x.size)


def _build_grid(alpha, eps, n_x, x_half, n_y, period):
    if n_x < 4 or n_x % 2 != 0:
        raise BadGrid(f"need even n_x >= 4, got {n_x}")
    if n_y < 4:
        raise BadGrid(f"need n_y >= 4, got {n_y}")
    if not (eps > 0 and x_half > eps):
        raise BadGrid(f"need 0 < eps < x_half, got eps={eps}, x_half={x_half}")
    if not 0.0 < alpha < math.inf:
        raise BadGrid(f"need finite alpha > 0, got {alpha}")
    if not 0.0 < period < math.inf:
        raise BadGrid(f"need finite period > 0, got {period}")
    h = 2.0 * x_half / n_x
    x = np.linspace(-x_half, x_half, n_x + 1)
    x[n_x // 2] = 0.0
    cell_lo = np.maximum(x - 0.5 * h, -x_half)
    cell_hi = np.minimum(x + 0.5 * h, x_half)
    mass_x = _odd(_int_weight, cell_hi, eps, alpha) - _odd(_int_weight, cell_lo, eps, alpha)
    flux = _odd(_int_inverse_weight, x[1:], eps, alpha) - _odd(_int_inverse_weight, x[:-1], eps, alpha)
    cond_x = 1.0 / flux
    ycoef_x = _odd(_int_ycoupling, cell_hi, eps, alpha) - _odd(_int_ycoupling, cell_lo, eps, alpha)
    return WeightedGrid(alpha=float(alpha), eps=float(eps), x=x, h=h, n_y=int(n_y),
                        h_y=period / n_y, period=float(period), mass_x=mass_x,
                        cond_x=cond_x, ycoef_x=ycoef_x)


@dataclass
class Generator:
    """A = M^{-1} C, symmetric in the mass inner product, A 1 = 0.

    C = kron(C_x, I) + kron(diag(y_coef), R) and M = kron(diag(m_x), I),
    where C_x is tridiagonal with diagonal x_diag and off-diagonal x_off
    and R is the periodic second difference in y.  Cells are ordered
    x-major, so a field reshapes to (n_x + 1, n_y).
    """

    grid: WeightedGrid
    m: np.ndarray
    m_x: np.ndarray     # mass_x * h_y
    x_diag: np.ndarray  # -(x-edge conductances at each node)
    x_off: np.ndarray   # cond_x * h_y
    y_coef: np.ndarray  # ycoef_x / h_y

    def apply(self, u):
        """A u = M^{-1} C u, matrix-free from the 1-D pieces."""
        v = np.reshape(u, (self.grid.x.size, self.grid.n_y))
        ring = np.roll(v, 1, axis=1) + np.roll(v, -1, axis=1) - 2.0 * v
        cu = _tridiagonal_dot(self.x_diag, self.x_off, v.T).T + self.y_coef[:, None] * ring
        return cu.reshape(-1) / self.m

    def inner(self, u, v):
        return float(np.real(np.dot(self.m * np.conj(u), v)))

    def m_norm(self, u):
        return math.sqrt(float(np.dot(self.m, np.abs(u) ** 2)))

    def total_mass(self, u):
        return complex(np.dot(self.m, u)) if np.iscomplexobj(u) else float(np.dot(self.m, u))


def assemble_generator(alpha, eps, *, n_x=400, x_half=3.0, n_y=64, period=_TWO_PI):
    """Finite-volume generator of the regularized flow on the cylinder."""
    grid = _build_grid(alpha, eps, n_x, x_half, n_y, period)
    x_off = grid.cond_x * grid.h_y
    x_diag = np.zeros(grid.x.size)
    x_diag[:-1] -= x_off
    x_diag[1:] -= x_off
    return Generator(grid=grid, m=grid.masses(), m_x=grid.mass_x * grid.h_y,
                     x_diag=x_diag, x_off=x_off, y_coef=grid.ycoef_x / grid.h_y)


@dataclass
class EvolutionState:
    u: np.ndarray
    t: float


def gaussian_bump_state(gen, center, sigma):
    """Gaussian bump on the cylinder, truncated below 1e-12.

    The profile is zeroed at all nodes with x >= -h, keeping its support
    strictly left of the singular line.  Raises ValueError for a center
    with x >= 0, for sigma outside (0, inf) or so small or large that
    2 sigma**2 under- or overflows, and when no mass of the profile is
    left on the grid.
    """
    grid = gen.grid
    xc, yc = float(center[0]), float(center[1])
    if xc >= 0:
        raise ValueError("gaussian_bump_state: need center x < 0")
    if not (sigma > 0.0 and sigma * sigma > 0.0 and 2.0 * sigma * sigma < math.inf):
        raise ValueError(f"gaussian_bump_state: need finite sigma > 0 with 2 sigma**2 "
                         f"neither underflowing nor overflowing, got {sigma}")
    x = grid.x_of_cells()
    y = grid.y_of_cells()
    dy = np.abs(y - yc)
    dy = np.minimum(dy, grid.period - dy)
    # an exponent that overflows to -inf is a tail below the 1e-12 cut anyway
    with np.errstate(over="ignore"):
        u = np.exp(-((x - xc) ** 2 + dy**2) / (2.0 * sigma**2))
    u[u < 1e-12] = 0.0
    u[x >= -grid.h] = 0.0
    if not gen.total_mass(u) > 0.0:
        raise ValueError(f"gaussian_bump_state: no mass of the bump at {center} "
                         f"with sigma {sigma} is left on the grid")
    return EvolutionState(u=u, t=0.0)


def _tridiagonal_dot(diag, off, v):
    """Apply the tridiagonal blocks (diag, off) along the last axis of v."""
    out = diag * v
    out[..., 1:] += off * v[..., :-1]
    out[..., :-1] += off * v[..., 1:]
    return out


@dataclass
class _ModeSystem:
    """L = M_x - c (C_x + mu_q diag(y_coef)) for every y-mode q, stacked.

    Mode coefficients are one C-contiguous (n_rhs, rows) array with rows
    ordered (mode q, x-node).  For real c the two right-hand sides are
    the cosine and sine coefficients (rfft real and imaginary parts) of a
    real field, and L is symmetric positive definite: LAPACK dpttrf.  For
    complex c the one right-hand side holds the fft coefficients of a
    complex field, and L is complex symmetric: zgttrf.  The blocks are
    applied as one flat tridiagonal whose coupling is zero between them.
    """

    real: bool
    n_y: int
    diag: np.ndarray      # (rows,), of L
    coupling: np.ndarray  # (rows - 1,), of L, zero between mode blocks
    two_m: np.ndarray     # (rows,): 2 M_x, so M_x + c K_q = 2 M_x - L
    weight: np.ndarray    # (rows,): Parseval weight / m_x, the M^{-1} norm
    energy: np.ndarray    # per float of w: Parseval weight * m_x / n_y, the M norm
    sides: np.ndarray     # (2, floats of w): the weights of mass_left, mass_right
    lu: tuple             # factorization, as ?trs takes it
    trs: object

    def to_modes(self, u):
        """Field on the cells -> mode coefficients."""
        v = np.asarray(u, dtype=float if self.real else complex).reshape(-1, self.n_y)
        if self.real:
            f = np.fft.rfft(v, axis=1).T
            return np.stack((f.real, f.imag)).reshape(2, -1)
        return np.fft.fft(v, axis=1).T.reshape(1, -1)

    def from_modes(self, w):
        if self.real:
            f = (w[0] + 1j * w[1]).reshape(self.n_y // 2 + 1, -1).T
            return np.fft.irfft(f, n=self.n_y, axis=1).reshape(-1)
        return np.fft.ifft(w.reshape(self.n_y, -1).T, axis=1).reshape(-1)

    def apply(self, w):
        return _tridiagonal_dot(self.diag, self.coupling, w)

    def solve(self, rhs):
        x, info = self.trs(*self.lu, rhs.T)
        if info != 0:
            raise SolverDiverged(f"LAPACK ?trs failed with info={info}")
        return x.T

    def norm(self, v):
        return math.sqrt(np.vdot(v, self.weight * v).real)

    def record(self, t, w):
        """(t, mass_left, mass_right, norm) of the field, by Parseval."""
        v = w.reshape(-1).view(float)  # complex: real and imaginary parts interleaved
        sq = v * v
        left, right = self.sides @ (v if self.real else sq)
        return (t, float(left), float(right), math.sqrt(self.energy @ sq))


def _mode_system(gen, c):
    """The mode system of (M - c C), factored by LAPACK; _evolve makes one per run."""
    n_y = gen.grid.n_y
    real = isinstance(c, float)
    q = np.arange(n_y // 2 + 1 if real else n_y)
    mu = 2.0 * np.cos(_TWO_PI * q / n_y) - 2.0
    diag = (gen.m_x - c * (gen.x_diag + mu[:, None] * gen.y_coef)).reshape(-1)
    coupling = np.tile(np.append(-c * gen.x_off, 0.0), q.size)[:-1]
    kind = "dpt" if real else "zgt"
    if real:
        *lu, info = lapack.dpttrf(diag, coupling)
    else:
        *lu, info = lapack.zgttrf(coupling, diag, coupling)
    if info != 0:
        raise SolverDiverged(f"LAPACK {kind}trf failed with info={info} at c={c}")
    parseval = np.ones(q.size)
    if real:  # modes 0 < q < n_y / 2 stand for q and n_y - q
        parseval[1:(n_y + 1) // 2] = 2.0
    energy = (parseval[:, None] / n_y * gen.m_x).reshape(-1)
    x = gen.grid.x
    if real:
        # heat masses are linear in u: m_x times the q = 0 cosine coefficient,
        # which is the sum of u over y
        sides = np.zeros((2, 2 * diag.size))
        sides[:, :x.size] = np.where([x < 0.0, x > 0.0], gen.m_x, 0.0)
        energy = np.tile(energy, 2)
    else:
        # Schrodinger masses weigh |u|**2 like the norm, by side
        x = np.tile(x, q.size)
        sides = np.repeat(np.where([x < 0.0, x > 0.0], energy, 0.0), 2, axis=1)
        energy = np.repeat(energy, 2)
    return _ModeSystem(real=real, n_y=n_y, diag=diag, coupling=coupling,
                       two_m=np.tile(2.0 * gen.m_x, q.size),
                       weight=(parseval[:, None] / gen.m_x).reshape(-1),
                       energy=energy, sides=sides, lu=tuple(lu),
                       trs=lapack.dpttrs if real else lapack.zgttrs)


def _evolve(gen, state, T, dt, half, tol, who, record_every=0):
    """Steps (M - c C) u+ = (M + c C) u to time T, in mode space throughout.

    The n = round(T / dt) steps (at least one) have c = half * T / n, with
    half = 1/2 for the heat flow and i/2 for the Schrodinger flow.
    The field is transformed into mode coefficients once and back once.
    Each step makes one banded product L w with L = M - c C: the residual
    check r = L w+ - rhs uses it, and the next right-hand side
    rhs = 2 M w - L w reuses it.  Raises SolverDiverged unless every
    step's relative residual in the mass norm is at most tol.  With
    record_every, the (t, mass_left, mass_right, norm) rows of the start,
    of every record_every-th step and of the last step are returned too.
    Raises ValueError, naming who, unless dt > 0 and T >= 0.
    """
    if not (dt > 0 and T >= 0):
        raise ValueError(f"{who}: need dt > 0 and T >= 0, got dt={dt}, T={T}")
    n = max(1, int(round(T / dt)))
    dt = T / n
    system = _mode_system(gen, half * dt)
    w = system.to_modes(state.u)
    lw = system.apply(w)
    t = state.t
    series = [system.record(t, w)] if record_every else []
    for k in range(n):
        rhs = system.two_m * w
        rhs -= lw
        w = system.solve(rhs)
        lw = system.apply(w)
        residual = system.norm(lw - rhs)
        b_norm = system.norm(rhs)
        if not residual <= tol * b_norm:
            raise SolverDiverged(f"{who}: relative residual {residual / max(b_norm, 1e-300):.3g} "
                                 f"exceeds tol={tol}")
        t = t + dt
        if record_every and ((k + 1) % record_every == 0 or k == n - 1):
            series.append(system.record(t, w))
    return EvolutionState(u=system.from_modes(w), t=t), series


def step_heat(gen, state, dt):
    """One Crank-Nicolson step of du/dt = A u.

    Solves (I - dt/2 A) u+ = (I + dt/2 A) u as one symmetric positive
    definite tridiagonal system per y-mode (the rfft of the real field),
    factored once per run, so each call factors anew: to take many steps,
    call run_heat.  Raises SolverDiverged unless the relative residual in
    the mass norm is at most 1e-10.
    """
    return _evolve(gen, state, dt, dt, 0.5, _SOLVE_TOL, "step_heat")[0]


def step_schrodinger(gen, state, dt):
    """One Cayley (Crank-Nicolson) unitary step of i du/dt = -A u.

    Solves (M - i dt/2 C) u+ = (M + i dt/2 C) u as one complex
    tridiagonal system per y-mode, factored once per run, so each call
    factors anew: to take many steps, call run_schrodinger.  The step is
    unitary in the mass inner product up to roundoff; it raises
    SolverDiverged unless the relative residual is at most 1e-10.
    """
    return _evolve(gen, state, dt, dt, 0.5j, _SOLVE_TOL, "step_schrodinger")[0]


def run_heat(gen, state, T, dt, *, tol=_SOLVE_TOL, record_every=0):
    """Evolve the heat flow to time T; optionally record a time series.

    The series rows are (t, mass_left, mass_right, norm) with mass_left
    and mass_right the weighted content strictly left/right of the
    singular line and norm the mass-inner-product norm.
    """
    return _evolve(gen, state, T, dt, 0.5, tol, "run_heat", record_every)


def run_schrodinger(gen, state, T, dt, *, record_every=0):
    """Evolve the Schrodinger flow to time T; optionally record a series.

    As run_heat, with the weighted content of the density |u|**2 in
    place of u; the state comes back complex.
    """
    return _evolve(gen, state, T, dt, 0.5j, _SOLVE_TOL, "run_schrodinger", record_every)


def transmitted_fraction(gen, u):
    """sum_{x > 0} m u  /  sum m u."""
    right = gen.grid.x_of_cells() > 0.0
    return float(np.dot(gen.m[right], u[right])) / float(np.dot(gen.m, u))


def transmission_verdict(fractions):
    """Verdict on transmitted fractions over a decreasing eps sweep.

    * "barrier-consistent": fractions strictly decreasing and the final
      one below 1e-3;
    * "crossing-consistent": successive fractions within 10% of each
      other and the final one above 1e-2;
    * "inconclusive" otherwise.

    The two thresholds are reporting conventions for this experiment,
    not intrinsic constants.
    """
    decreasing = all(b < a for a, b in zip(fractions, fractions[1:]))
    ratios_close = all(
        a != 0.0 and abs(b / a - 1.0) <= 0.1 for a, b in zip(fractions, fractions[1:]))
    if decreasing and fractions[-1] < 1e-3:
        return "barrier-consistent"
    if ratios_close and fractions[-1] > 1e-2:
        return "crossing-consistent"
    return "inconclusive"


@dataclass
class TransmissionReport:
    alpha: float
    eps_list: list
    time_horizon: float
    fractions: list
    verdict: str


def eps_sweep(alpha, eps_list, T, *, equation="heat", dt=1e-3, n_x=400, x_half=3.0,
              n_y=64, period=_TWO_PI, bump_center=(-1.0, math.pi), bump_sigma=0.3,
              tol=1e-10, record_every=0):
    """Evolve the same left-started bump once per eps of a decreasing sweep.

    equation is "heat" or "schrodinger".  Returns (series, report): the
    recorded series of each run (see run_heat; empty without
    record_every), and for the heat flow the TransmissionReport of the
    transmitted fractions with their verdict, or None for Schrodinger.
    Raises ValueError unless eps_list is non-empty and strictly decreasing.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_sweep: need at least one eps value")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_sweep: eps values must be strictly decreasing")
    if equation not in ("heat", "schrodinger"):
        raise ValueError(f"eps_sweep: unknown equation {equation!r}")
    series, fractions = [], []
    for eps in eps_list:
        gen = assemble_generator(alpha, eps, n_x=n_x, x_half=x_half, n_y=n_y, period=period)
        state = gaussian_bump_state(gen, bump_center, bump_sigma)
        if equation == "heat":
            state, rows = run_heat(gen, state, T, dt, tol=tol, record_every=record_every)
            fractions.append(transmitted_fraction(gen, state.u))
        else:
            state, rows = run_schrodinger(gen, state, T, dt, record_every=record_every)
        series.append(rows)
    if equation != "heat":
        return series, None
    return series, TransmissionReport(alpha=float(alpha), eps_list=eps_list,
                                      time_horizon=float(T), fractions=fractions,
                                      verdict=transmission_verdict(fractions))


def transmission_study(alpha, eps_list, T=0.5, *, dt=1e-3, n_x=400, n_y=64):
    """Mass transmission across the singular line on a shrinking eps sweep.

    For each eps the bump at (-1, pi) of width 0.3 is evolved by the heat flow
    to time T and the transmitted fraction

        sum_{x > 0} m u  /  sum m u

    is recorded (eps_sweep).  The verdict over the sweep is
    transmission_verdict's; when it is "inconclusive", Inconclusive is
    raised, carrying a report with the raw fractions.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("transmission_study: eps_list must be strictly decreasing")
    _, report = eps_sweep(alpha, eps_list, T, dt=dt, n_x=n_x, n_y=n_y)
    if report.verdict == "inconclusive":
        raise Inconclusive(
            f"transmission_study: fractions {report.fractions} match no verdict", report)
    return report
