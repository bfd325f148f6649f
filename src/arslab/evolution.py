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
difference in y.  Only these 1-D pieces are stored: the per-cell mass
Generator.m that the cell-space masses and norms read is m_x repeated
over y, and C is never assembled.  A DFT in y diagonalizes R, with
eigenvalues mu_q = 2 cos(2 pi q / n_y) - 2, so one Crank-Nicolson step

    (M - c C) u+ = (M + c C) u,   c = dt/2 (heat) or i dt/2 (Schrodinger),

is one tridiagonal solve in x per Fourier mode q.  Both flows keep their
n_y modes (the real cosines and sines of a real heat field, the complex
fft modes of a Schrodinger field) in one 1-D vector of blocks, factored
once per run by LAPACK (dpttrf for the real heat step, zgttrf for the
complex Cayley step) and solved with one right-hand side.

Because the modes never couple, run_heat and run_schrodinger evolve in
mode space from start to end: one FFT in y takes the field in, one takes
it out.  A step is one LAPACK dpttrs / zgttrs call and one banded
product L w with L = M - c C, which certifies the step (the residual
L w+ - rhs, in the M^{-1} mass norm of the Parseval mode coefficients,
taken without overflow) and gives the next right-hand side 2 M w - L w.
A step whose relative residual or factorization fails raises
SolverDiverged.  Recorded series rows are read off the mode coefficients
by Parseval.  The Schrodinger (Cayley) step is unitary in the mass inner
product, and the heat step conserves mass, both to roundoff.  One step
is the run to T = dt.

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
from .geodesics import _step_grid

__all__ = [
    "Generator",
    "EvolutionState",
    "TransmissionReport",
    "assemble_generator",
    "gaussian_bump_state",
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


def _weighted_norm(v, weights, squares=None):
    """sqrt(sum(weights * v**2)) for a float vector v and one weight > 0 per float.

    v is the float view of a real or complex vector, a complex one's real
    and imaginary parts interleaved; squares, when given, is v * v.  Where
    that sum leaves the floats, the same sum is taken on v scaled by its
    largest weighted entry sqrt(weight) |v|, so the norm is inf only where
    it is beyond the floats itself.  Its callers hold
    np.errstate(over="ignore"), _evolve once per run, so that a sum that
    overflows raises no RuntimeWarning.
    """
    total = weights @ (v * v if squares is None else squares)
    if math.isfinite(total):
        return math.sqrt(total)
    scaled = np.sqrt(weights) * np.abs(v)
    scale = float(scaled.max())
    if not scale < math.inf:  # a nan or inf in v, or a norm beyond the floats
        return scale
    scaled /= scale
    return math.sqrt(scaled @ scaled) * scale


def _int_power(t, eps, p, q):
    """integral of s**p * max(s, eps)**q ds on [0, t], t >= 0, p > -1.

    Cell mass, x-conductance and y-coupling are (p, q) = (0, -alpha),
    (0, alpha) and (2 alpha, -alpha).  Raises OverflowError, naming the
    power, where the float eps**q or eps**(p + q + 1) overflows.
    """
    t = np.asarray(t, dtype=float)
    inside = _eps_power(eps, q) * np.minimum(t, eps) ** (p + 1) / (p + 1)
    e = p + q + 1
    if e == 0:
        outside = np.log(np.maximum(t, eps) / eps)
    else:
        outside = (np.maximum(t, eps) ** e - _eps_power(eps, e)) / e
    return inside + outside


def _eps_power(eps, k):
    # a float power raises OverflowError where a numpy one would give inf
    try:
        return eps**k
    except OverflowError:
        raise OverflowError(f"eps**{k:g}") from None


def _integral(lo, hi, eps, p, q):
    """Integral on [lo, hi] of the even integrand |s|**p * max(|s|, eps)**q.

    For e = p + q + 1 < 0 both antiderivatives carry the large eps**e, so a
    cell beyond eps on one side takes the difference of its ends' powers.
    """
    total = (np.sign(hi) * _int_power(np.abs(hi), eps, p, q)
             - np.sign(lo) * _int_power(np.abs(lo), eps, p, q))
    e = p + q + 1
    if e < 0:
        a, b = np.abs(lo), np.abs(hi)
        beyond = (np.minimum(a, b) >= eps) & (np.sign(lo) == np.sign(hi))
        total = np.where(beyond, np.sign(hi) * (b**e - a**e) / e, total)
    return total


@dataclass
class Generator:
    """A = M^{-1} C, symmetric in the mass inner product, A 1 = 0.

    C = kron(C_x, I) + kron(diag(y_coef), R) and M = kron(diag(m_x), I),
    where C_x is tridiagonal with off-diagonal x_off and zero row sums
    and R is the periodic second difference in y.  Cells, the nodes x times
    n_y periodic y-nodes, are ordered x-major: a field reshapes to (x.size, n_y).
    """

    x: np.ndarray       # n_x + 1 nodes, symmetric, includes 0
    h: float
    n_y: int
    period: float
    m_x: np.ndarray     # per x-node: cell integral of w_eps, times h_y
    x_off: np.ndarray   # per x-edge: 1 / integral of 1/w_eps, times h_y
    y_coef: np.ndarray  # per x-node: cell integral of f**2 w_eps, over h_y

    @property
    def h_y(self):
        return self.period / self.n_y

    @property
    def m(self):
        """Per-cell mass: m_x repeated over the n_y y-nodes."""
        return np.repeat(self.m_x, self.n_y)

    def x_of_cells(self):
        return np.repeat(self.x, self.n_y)

    def m_norm(self, u):
        """sqrt(sum m |u|**2) of a real or complex field u, without overflow."""
        with np.errstate(over="ignore"):
            if np.iscomplexobj(u):
                v = np.ascontiguousarray(u, dtype=complex).view(float)
                return _weighted_norm(v, np.repeat(self.m_x, 2 * self.n_y))
            return _weighted_norm(np.asarray(u, dtype=float), self.m)

    def total_mass(self, u):
        return complex(np.dot(self.m, u)) if np.iscomplexobj(u) else float(np.dot(self.m, u))


def assemble_generator(alpha, eps, *, n_x=400, x_half=3.0, n_y=64, period=_TWO_PI):
    """Finite-volume generator of the regularized flow on the cylinder.

    Raises BadGrid unless n_x >= 4 is even, n_y >= 4, 0 < eps < x_half,
    alpha and period are finite and positive, and the cell width
    2 x_half / n_x, every weight and each power of eps that the weights'
    antiderivatives take are finite.
    """
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
    if not h < math.inf:
        raise BadGrid(f"assemble_generator: need a finite cell width 2 x_half / n_x, "
                      f"got x_half={x_half}")
    x = np.linspace(-x_half, x_half, n_x + 1)
    x[n_x // 2] = 0.0
    h_y = period / n_y
    cell_lo = np.maximum(x - 0.5 * h, -x_half)
    cell_hi = np.minimum(x + 0.5 * h, x_half)
    try:
        with np.errstate(all="ignore"):  # a weight that leaves the floats is rejected below
            m_x = _integral(cell_lo, cell_hi, eps, 0.0, -alpha) * h_y
            x_off = (1.0 / _integral(x[:-1], x[1:], eps, 0.0, alpha)) * h_y
            y_coef = _integral(cell_lo, cell_hi, eps, 2.0 * alpha, -alpha) / h_y
    except OverflowError as exc:
        raise BadGrid(f"assemble_generator: the power {exc} overflows the floats "
                      f"at eps={eps}, alpha={alpha}") from None
    if not np.all(np.isfinite(np.concatenate((m_x, x_off, y_coef)))):
        raise BadGrid(f"assemble_generator: the weights on |x| <= x_half = {x_half} "
                      f"leave the floats at eps={eps}, alpha={alpha}")
    return Generator(x=x, h=h, n_y=int(n_y), period=float(period), m_x=m_x, x_off=x_off,
                     y_coef=y_coef)


@dataclass
class EvolutionState:
    u: np.ndarray
    t: float


def gaussian_bump_state(gen, center, sigma):
    """Gaussian bump on the cylinder, truncated below 1e-12.

    The profile is zeroed at all nodes with x >= -h, keeping its support
    strictly left of the singular line.  The center's y is taken modulo
    the period, so centers a period apart give the same field.  Raises
    ValueError for a center with x >= 0, for sigma outside (0, inf) or so
    small or large that 2 sigma**2 under- or overflows, and when no mass
    of the profile is left on the grid.
    """
    xc, yc = float(center[0]), float(center[1]) % gen.period
    if xc >= 0:
        raise ValueError("gaussian_bump_state: need center x < 0")
    if not (sigma > 0.0 and sigma * sigma > 0.0 and 2.0 * sigma * sigma < math.inf):
        raise ValueError(f"gaussian_bump_state: need finite sigma > 0 with 2 sigma**2 "
                         f"neither underflowing nor overflowing, got {sigma}")
    x = gen.x_of_cells()
    y = np.tile(np.arange(gen.n_y) * gen.h_y, gen.x.size)
    dy = np.abs(y - yc)
    dy = np.minimum(dy, gen.period - dy)
    # an exponent that overflows to -inf is a tail below the 1e-12 cut anyway
    with np.errstate(over="ignore"):
        u = np.exp(-((x - xc) ** 2 + dy**2) / (2.0 * sigma**2))
    u[u < 1e-12] = 0.0
    u[x >= -gen.h] = 0.0
    if not gen.total_mass(u) > 0.0:
        raise ValueError(f"gaussian_bump_state: no mass of the bump at {center} "
                         f"with sigma {sigma} is left on the grid")
    return EvolutionState(u=u, t=0.0)


@dataclass
class _ModeSystem:
    """L = M_x - c (C_x + mu_q diag(y_coef)) for n_y y-modes, stacked.

    Mode coefficients are one 1-D vector of n_y blocks of n_x + 1 rows,
    one right-hand side.  For real c they are the real modes of a real
    field, cosines (rfft real parts) of q = 0 ... n_y // 2, then sines
    (imaginary parts) of q = 1 ... (n_y - 1) // 2, and L is symmetric
    positive definite: dpttrf.  For complex c they are the fft modes of a
    complex field, and L is complex symmetric: zgttrf.  The blocks are
    applied as one flat tridiagonal whose coupling is zero between them.
    """

    real: bool
    n_y: int
    diag: np.ndarray      # (rows,), of L
    coupling: np.ndarray  # (rows - 1,), of L, zero between mode blocks
    two_m: np.ndarray     # (rows,): 2 M_x, so M_x + c K_q = 2 M_x - L
    weight: np.ndarray    # per float of w: Parseval weight / m_x, the M^{-1} norm
    energy: np.ndarray    # per float of w: Parseval weight * m_x / n_y, the M norm
    sides: np.ndarray     # weights of mass_left, mass_right: (2, n_x + 1) or (2, floats of w)
    lu: tuple             # factorization, as ?trs takes it
    trs: object

    def to_modes(self, u):
        """Field on the cells -> mode coefficients."""
        v = np.asarray(u, dtype=float if self.real else complex).reshape(-1, self.n_y)
        if not self.real:
            return np.fft.fft(v, axis=1).T.reshape(-1)
        f = np.fft.rfft(v, axis=1).T
        return np.concatenate((f.real, f.imag[1:(self.n_y + 1) // 2])).reshape(-1)

    def from_modes(self, w):
        blocks = w.reshape(self.n_y, -1)
        if not self.real:
            return np.fft.ifft(blocks.T, axis=1).reshape(-1)
        n_cos = self.n_y // 2 + 1
        f = blocks[:n_cos].astype(complex)
        f.imag[1:1 + self.n_y - n_cos] = blocks[n_cos:]
        return np.fft.irfft(f.T, n=self.n_y, axis=1).reshape(-1)

    def apply(self, w):
        out = self.diag * w
        out[1:] += self.coupling * w[:-1]
        out[:-1] += self.coupling * w[1:]
        return out

    def solve(self, rhs):
        x, info = self.trs(*self.lu, rhs)
        if info != 0:
            raise SolverDiverged(f"LAPACK ?trs failed with info={info}")
        return x

    def norm(self, w):
        """The certificate's M^{-1} mass norm of mode coefficients w."""
        return _weighted_norm(w.view(float), self.weight)

    def record(self, t, w):
        """(t, mass_left, mass_right, norm) of the field, by Parseval."""
        v = w.view(float)  # complex: real and imaginary parts interleaved
        sq = None if self.real else v * v
        left, right = self.sides @ (v[:self.sides.shape[1]] if self.real else sq)
        return (t, float(left), float(right), _weighted_norm(v, self.energy, sq))


def _mode_system(gen, c):
    """The mode system of (M - c C), factored by LAPACK; _evolve makes one per run."""
    n_y = gen.n_y
    real = isinstance(c, float)
    q = np.r_[:n_y // 2 + 1, 1:(n_y + 1) // 2] if real else np.arange(n_y)  # cosines, then sines
    mu = 2.0 * np.cos(_TWO_PI * q / n_y) - 2.0
    x_diag = -np.append(gen.x_off, 0.0) - np.append(0.0, gen.x_off)
    diag = (gen.m_x - c * (x_diag + mu[:, None] * gen.y_coef)).reshape(-1)
    coupling = np.tile(np.append(-c * gen.x_off, 0.0), n_y)[:-1]
    kind = "dpt" if real else "zgt"
    if real:
        *lu, info = lapack.dpttrf(diag, coupling)
    else:
        *lu, info = lapack.zgttrf(coupling, diag, coupling)
    if info != 0:
        raise SolverDiverged(f"LAPACK {kind}trf failed with info={info} at c={c}")
    # a real mode 0 < q < n_y / 2 stands for q and n_y - q
    parseval = np.where(real & (q > 0) & (2 * q < n_y), 2.0, 1.0)
    energy = (parseval[:, None] / n_y * gen.m_x).reshape(-1)
    weight = (parseval[:, None] / gen.m_x).reshape(-1)
    x = gen.x
    if real:
        # heat masses are linear in u: m_x times the q = 0 cosine coefficient,
        # which is the sum of u over y
        sides = np.where([x < 0.0, x > 0.0], gen.m_x, 0.0)
    else:
        # Schrodinger masses weigh |u|**2 like the norm, by side
        x = np.tile(x, n_y)
        sides = np.repeat(np.where([x < 0.0, x > 0.0], energy, 0.0), 2, axis=1)
        energy, weight = np.repeat(energy, 2), np.repeat(weight, 2)
    return _ModeSystem(real=real, n_y=n_y, diag=diag, coupling=coupling,
                       two_m=np.tile(2.0 * gen.m_x, n_y), weight=weight,
                       energy=energy, sides=sides, lu=tuple(lu),
                       trs=lapack.dpttrs if real else lapack.zgttrs)


def _evolve(gen, state, T, dt, half, who, record_every=0):
    """Steps (M - c C) u+ = (M + c C) u to time T, in mode space throughout.

    The n steps of T / n that geodesics._step_grid takes, n the nearest
    whole number to T / dt and at least one, have c = half * T / n, with
    half = 1/2 for the heat flow and i/2 for the Schrodinger flow.
    The field is transformed into mode coefficients once and back once.
    Each step makes one banded product L w with L = M - c C: the residual
    check r = L w+ - rhs uses it, and the next right-hand side
    rhs = 2 M w - L w reuses it.  Raises SolverDiverged unless every
    step's relative residual is at most _SOLVE_TOL in the M^{-1} mass norm
    of the Parseval mode coefficients, taken without overflow.  With
    record_every, the (t, mass_left, mass_right, norm) rows of the start,
    of every record_every-th step and of the last step are returned too.
    Raises ValueError, naming who, unless dt > 0, T >= 0 and T / dt is finite.
    """
    n, dt = _step_grid(T, dt, who)
    system = _mode_system(gen, half * dt)
    # one errstate for every _weighted_norm of the run
    with np.errstate(over="ignore"):
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
            if not residual <= _SOLVE_TOL * b_norm:
                raise SolverDiverged(f"{who}: relative residual "
                                     f"{residual / max(b_norm, 1e-300):.3g} "
                                     f"exceeds tol={_SOLVE_TOL}")
            t = t + dt
            if record_every and ((k + 1) % record_every == 0 or k == n - 1):
                series.append(system.record(t, w))
    return EvolutionState(u=system.from_modes(w), t=t), series


def run_heat(gen, state, T, dt, *, record_every=0):
    """Evolve the heat flow to time T; optionally record a time series.

    Takes T / dt Crank-Nicolson steps of du/dt = A u (rounded, at least one)
    with one factorization, so one step is run_heat(gen, state, dt, dt)[0].
    The series rows are (t, mass_left, mass_right, norm) with mass_left
    and mass_right the weighted content strictly left/right of the
    singular line and norm the mass-inner-product norm.
    """
    return _evolve(gen, state, T, dt, 0.5, "run_heat", record_every)


def run_schrodinger(gen, state, T, dt, *, record_every=0):
    """Evolve the Schrodinger flow to time T; optionally record a series.

    As run_heat, with the weighted content of the density |u|**2 in
    place of u; the state comes back complex.
    """
    return _evolve(gen, state, T, dt, 0.5j, "run_schrodinger", record_every)


def transmitted_fraction(gen, u):
    """sum_{x > 0} m u  /  sum m u."""
    right = gen.x_of_cells() > 0.0
    return float(np.dot(gen.m[right], u[right])) / gen.total_mass(u)


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
              record_every=0):
    """Evolve the same left-started bump once per eps of a decreasing sweep.

    equation is "heat" or "schrodinger".  Returns (series, report): the
    recorded series of each run (see run_heat; empty without
    record_every), and the TransmissionReport of the transmitted fractions
    with their verdict for a heat sweep of two or more eps values, else None.
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
            state, rows = run_heat(gen, state, T, dt, record_every=record_every)
            fractions.append(transmitted_fraction(gen, state.u))
        else:
            state, rows = run_schrodinger(gen, state, T, dt, record_every=record_every)
        series.append(rows)
    if equation != "heat" or len(eps_list) < 2:
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
    if len(eps_list) < 2:
        raise ValueError("transmission_study: need at least two eps values")
    _, report = eps_sweep(alpha, eps_list, T, dt=dt, n_x=n_x, n_y=n_y)
    if report.verdict == "inconclusive":
        raise Inconclusive(
            f"transmission_study: fractions {report.fractions} match no verdict", report)
    return report
