"""Gauge-flattened spectral theory of the singular frames.

Conjugating the Laplace-Beltrami operator by the square root of the
intrinsic area density turns it into a flat-measure Schrodinger operator
with an inverse-square potential concentrated on the singular line:

    c / x**2 + remainder(x, y),

where c depends only on the frame variant (3/4 for "f2",
(alpha/2)(alpha/2 + 1) for "alpha-grushin") and the remainder is a
smooth function of the scale field, identically zero for the plain
Grushin plane.  Separating the y direction (Fourier mode k) then leaves
a family of half-line operators

    -d2/dx2 + k**2 x**(2 alpha) + c / x**2,

whose low eigenvalues this module computes on a staggered grid, and
whose self-adjointness is classified from the indicial exponents at the
singular endpoint.  An optional numerical probe integrates the decaying
deficiency solution in to the endpoint and refuses a case where that
integration fails or overflows; the count it returns is the
classification's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadGrid, FitIllConditioned, OutOfRange, UnsupportedFrame
from .tridiag import lowest_eigenpairs

__all__ = [
    "GaugePotential",
    "ModeOperator",
    "SelfAdjointnessReport",
    "SpectrumLine",
    "gauge_transform",
    "inverse_square_coefficient",
    "assemble_staggered",
    "assemble_mode_operator",
    "eigen_solve",
    "classify_self_adjoint",
    "deficiency_index_numeric",
    "richardson_extrapolate",
    "spectrum_2d",
]

# LSODA step budget of the deficiency probe; odeint's default of 500 runs
# out before eps at c = 0.5
_ODEINT_MXSTEP = 100_000


@dataclass(frozen=True)
class GaugePotential:
    """Potential data of the flattened operator, valid off x = 0.

    The conjugation identity reads, pointwise for x != 0:

        sqrt(w) * Lap(1/sqrt(w)) = -coeff / x**2 - remainder(x, y)

    with w the intrinsic area density and Lap the Laplace-Beltrami
    operator, so the flattened operator is -div(flat grad) plus
    potential().
    """

    inverse_square_coeff: float
    remainder: Callable
    remainder_is_zero: bool

    def potential(self, x, y):
        x = np.asarray(x, dtype=float)
        return self.inverse_square_coeff / x**2 + self.remainder(x, y)


def _zero_remainder(x, y):
    return np.zeros_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))


def inverse_square_coefficient(alpha):
    """Coefficient of the 1/x**2 singularity for exponent alpha.

    Raises OutOfRange unless alpha is finite and positive.
    """
    if not 0.0 < alpha < math.inf:
        raise OutOfRange(f"inverse_square_coefficient: need finite alpha > 0, got {alpha}")
    return (alpha / 2.0) * (alpha / 2.0 + 1.0)


def gauge_transform(frame):
    """Potential produced by the unitary area-density gauge.

    Supported for the singular variants only (UnsupportedFrame otherwise).
    The coefficient is inverse_square_coefficient(frame.vanishing_order),
    3/4 for f2; the remainder is zero without a scale field or over a zero
    one, and otherwise (f2) collects the scale-field terms:

        s_x/(2x) + s_x**2/4 - s_xx/2 - x**2 e**(2s) (s_yy/2 + 3 s_y**2 / 4).
    """
    order = frame.vanishing_order
    if order is None:
        raise UnsupportedFrame(
            f"gauge_transform: no inverse-square normal form for variant {frame.variant!r}")
    c = inverse_square_coefficient(order)
    s = frame.log_scale
    if s is None or s.is_zero:
        return GaugePotential(c, _zero_remainder, remainder_is_zero=True)

    def remainder(x, y):
        x = np.asarray(x, dtype=float)
        v, sx, sy, sxx, syy = (np.asarray(d, dtype=float) for d in s.derivs(x, y))
        e2 = np.exp(2.0 * v)
        return (sx / (2.0 * x) + 0.25 * sx**2 - 0.5 * sxx
                - x**2 * e2 * (0.5 * syy + 0.75 * sy**2))

    return GaugePotential(c, remainder, remainder_is_zero=False)


@dataclass(frozen=True)
class ModeOperator:
    """Half-line operator -d2/dx2 + potential: tridiagonal diag, off at nodes x.

    Nodes x_j = (j + 1/2) h keep the stencil off the singular endpoint, and
    x_max is a hard Dirichlet cut; spectrum_2d and martinet_mode_solve call eigen_solve.
    """

    x_max: float
    h: float
    x: np.ndarray
    diag: np.ndarray
    off: np.ndarray


def assemble_staggered(potential, n, x_max):
    """ModeOperator of -d2/dx2 + potential(x) on (0, x_max) with n nodes.

    Raises BadGrid unless n >= 16, x_max is finite and positive, and the
    diagonal 2/h**2 + potential(x) is finite.
    """
    if n < 16:
        raise BadGrid(f"assemble_staggered: need n >= 16, got {n}")
    if not 0 < x_max < math.inf:
        raise BadGrid(f"assemble_staggered: need finite x_max > 0, got {x_max}")
    h = x_max / n
    x = (np.arange(n) + 0.5) * h
    try:
        stencil = 2.0 / h**2, -1.0 / h**2
    except ArithmeticError:  # h**2 overflows, or underflows to 0
        stencil = math.inf, math.inf
    with np.errstate(all="ignore"):  # a diagonal that leaves the floats is rejected below
        diag = stencil[0] + np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(diag)):
        raise BadGrid(f"assemble_staggered: the stencil 2/h**2 + potential(x) on (0, {x_max}) "
                      f"with n = {n} is not finite")
    return ModeOperator(x_max=float(x_max), h=h, x=x, diag=diag, off=np.full(n - 1, stencil[1]))


def assemble_mode_operator(k, alpha, n, x_max=12.0):
    """Radial-mode operator -d2/dx2 + k**2 x**(2 alpha) + c/x**2.

    Mode k's box is x_max / sqrt(max(|k|, 1)): it shrinks like |k|**(-1/2)
    so the confining well is resolved equally well for every mode.  Raises
    OutOfRange unless alpha is finite and positive (inverse_square_coefficient).
    """
    k, alpha = int(k), float(alpha)
    c = inverse_square_coefficient(alpha)
    box = x_max / math.sqrt(max(abs(k), 1))

    def potential(x):
        return (k * k) * x ** (2.0 * alpha) + c / x**2

    return assemble_staggered(potential, n, box)


def eigen_solve(op, m):
    """Lowest m eigenpairs of a staggered operator, residual-certified."""
    return lowest_eigenpairs(op.diag, op.off, m)


@dataclass(frozen=True)
class SelfAdjointnessReport:
    inverse_square_coeff: float
    indicial_plus: float
    indicial_minus: float
    essentially_self_adjoint: bool
    deficiency_count: int

    @property
    def verdict(self):
        return ("essentially-self-adjoint" if self.essentially_self_adjoint
                else "needs-boundary-condition")


def classify_self_adjoint(c):
    """Endpoint classification of -d2/dx2 + c/x**2 at x = 0.

    The frozen solutions x**s have indicial exponents
    s = 1/2 +- sqrt(1/4 + c); both are square integrable near 0 exactly
    when the minus exponent stays above -1/2, i.e. c < 3/4, and then one
    boundary condition is needed.  Raises OutOfRange unless c is finite
    and c > -1/4 (below that the exponents turn complex and the operator
    is unbounded below).
    """
    c = float(c)
    disc = 0.25 + c
    if not 0.0 < disc < math.inf:
        raise OutOfRange(f"classify_self_adjoint: need finite c > -1/4, got {c}")
    root = math.sqrt(disc)
    s_plus = 0.5 + root
    s_minus = 0.5 - root
    esa = c >= 0.75
    return SelfAdjointnessReport(
        inverse_square_coeff=c,
        indicial_plus=s_plus,
        indicial_minus=s_minus,
        essentially_self_adjoint=esa,
        deficiency_count=0 if esa else 1,
    )


def deficiency_index_numeric(c, eps=1e-3, x_far=10.0):
    """Deficiency count at x = 0, once the decaying solution integrates there.

    Integrates -u'' + (c/x**2) u = i u inward from x_far with decaying
    initial data (LSODA, scipy's odeint) and checks that the solution
    reaches 48 points of [eps, 4 eps] without failing or overflowing.
    The count it returns is classify_self_adjoint(c).deficiency_count:
    1 when c < 3/4, else 0.  So the probe refuses cases, and never
    disagrees with the classification.

    Raises FitIllConditioned when the indicial exponents lie less than
    1e-3 apart, when the integration fails, or when the solution
    overflows (x_far beyond about 1e3).
    """
    # scipy.integrate costs a fifth of a second to import; only this probe needs
    # it, for LSODA (odeint), which runs the whole integration in compiled code
    from scipy.integrate import ODEintWarning, odeint

    c = float(c)
    report = classify_self_adjoint(c)
    gap = report.indicial_plus - report.indicial_minus
    if gap < 1e-3:
        raise FitIllConditioned(f"deficiency_index_numeric: exponent gap {gap:.2e} below 1e-3")
    if not 0 < 4 * eps < x_far:
        raise ValueError("deficiency_index_numeric: need 0 < 4*eps < x_far")

    # realified system for u = u_r + i u_i, u'' = (c/x**2) u - i u.  The
    # callback, not LSODA, is most of the probe's time, so it reads the state
    # once, computes on Python floats and fills one reused array
    dw = np.empty(4)

    def rhs(t, w):
        u_r, u_i, du_r, du_i = w.tolist()
        pot = c / (t * t)
        dw[0] = du_r
        dw[1] = du_i
        dw[2] = pot * u_r + u_i
        dw[3] = pot * u_i - u_r
        return dw

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w0 = (1.0, 0.0, -inv_sqrt2, inv_sqrt2)  # u = 1, u' = -sqrt(-i)
    t_eval = np.geomspace(4.0 * eps, eps, 48)
    # odeint reports a failed integration only as a warning; an overflowing
    # state is caught by the finiteness check below
    with warnings.catch_warnings():
        warnings.simplefilter("error", ODEintWarning)
        try:
            states = odeint(rhs, w0, np.concatenate(([x_far], t_eval)), tfirst=True,
                            rtol=1e-11, atol=1e-14, mxstep=_ODEINT_MXSTEP)
        except ODEintWarning as exc:
            message = str(exc).partition(" Run with full_output")[0]
            raise FitIllConditioned(
                f"deficiency_index_numeric: integration failed: {message}") from None
    if not np.all(np.isfinite(states[1:, :2])):
        raise FitIllConditioned(
            f"deficiency_index_numeric: the solution overflowed between x_far = {x_far!r}"
            f" and eps = {eps!r}")
    return report.deficiency_count


def richardson_extrapolate(values):
    """Extrapolate three eigenvalues from grids h, h/2, h/4.

    Returns (extrapolated, observed_order).  The order is measured from
    the value differences, not assumed.
    """
    v0, v1, v2 = (float(v) for v in values)
    d01, d12 = v0 - v1, v1 - v2
    if d12 == 0.0 or d01 / d12 <= 0:
        return v2, float("nan")
    p = math.log2(d01 / d12)
    # v2 - limit = d12 / (2**p - 1), so the correction is subtracted
    return v2 - d12 / (2.0**p - 1.0), p


class SpectrumLine(NamedTuple):
    value: float
    k: int
    index: int
    residual: float


def spectrum_2d(alpha, k_max, m_per_mode, *, n=2000, x_max=12.0):
    """Low spectrum of the full operator as labeled mode eigenvalues.

    Modes k and -k share one half-line operator, so each is solved once
    and reported twice.  The k = 0 mode has no confining well; its
    Dirichlet truncation at x_max is part of the reported model.
    Returns SpectrumLine records sorted by eigenvalue.
    """
    if k_max < 1:
        raise ValueError("spectrum_2d: need k_max >= 1")
    lines = []
    for k in range(0, k_max + 1):
        op = assemble_mode_operator(k, alpha, n, x_max)
        res = eigen_solve(op, m_per_mode)
        for idx in range(m_per_mode):
            lines.append(SpectrumLine(float(res.values[idx]), k, idx,
                                      float(res.residuals[idx])))
            if k > 0:
                lines.append(SpectrumLine(float(res.values[idx]), -k, idx,
                                          float(res.residuals[idx])))
    lines.sort(key=lambda rec: (rec.value, abs(rec.k), rec.k, rec.index))
    return lines
