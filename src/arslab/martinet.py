"""The flat Martinet structure in three dimensions.

Frame fields

    X1 = (1, 0, y**2 / 2),    X2 = (0, 1, 0)

span a rank-2 distribution that loses step on the surface y = 0: one
bracket gives (0, 0, -y), which vanishes there, and only the next
bracket restores the full tangent space.  The intrinsic volume density
blows up like 1/|y|, and the associated sub-Laplacian separates under
Fourier transform in (x, z) into half-line mode operators

    -d2/dy2 + (k + l y**2 / 2)**2 + (3/4) / y**2,

reusing the staggered discretization and eigensolver of the
two-dimensional spectral module.  Only the half-line operator is solved:
the multiplicity 2 reported with each mode eigenvalue, one copy per side
of the singular surface, is the dataclass default of MartinetModeResult
and is never measured.  A two-sided operator regularized at scale eps
pairs its eigenvalues only in the limit eps -> 0, with a splitting that
closes at a logarithmic rate in eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint
from .spectral import assemble_staggered, eigen_solve

__all__ = [
    "frame_field_1",
    "frame_field_2",
    "bracket_depth2",
    "bracket_depth3",
    "popp_density",
    "MartinetCoeffs",
    "martinet_laplacian_coeffs",
    "mode_potential",
    "MartinetModeResult",
    "martinet_mode_solve",
]


def frame_field_1(p):
    x, y, z = p
    return (1.0, 0.0, 0.5 * y * y)


def frame_field_2(p):
    return (0.0, 1.0, 0.0)


def bracket_depth2(p):
    """[X1, X2]; vanishes exactly on the singular surface y = 0."""
    return (0.0, 0.0, -float(p[1]))


def bracket_depth3(p):
    """[[X1, X2], X2]; restores the missing direction everywhere."""
    return (0.0, 0.0, 1.0)


def popp_density(y):
    """Intrinsic volume density 1/|y| relative to dx dy dz."""
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0):
        raise SingularPoint("popp_density: density blows up on y = 0")
    return 1.0 / np.abs(y)


@dataclass(frozen=True)
class MartinetCoeffs:
    """Coefficients of the sub-Laplacian as a differential operator.

    Acting on u(x, y, z):

        dxx u_xx + dxz u_xz + dzz u_zz + dyy u_yy + dy u_y
    """

    dxx: float
    dxz: float
    dzz: float
    dyy: float
    dy: float


def martinet_laplacian_coeffs(p):
    """Sub-Laplacian coefficients at p = (x, y, z), y != 0.

    X1**2 + X2**2 plus the logarithmic derivative of the volume density
    along the frame; only the X2 direction sees the density, giving the
    -1/y first-order term.
    """
    y = float(p[1])
    if y == 0.0:
        raise SingularPoint("martinet_laplacian_coeffs: singular surface y = 0")
    return MartinetCoeffs(dxx=1.0, dxz=y * y, dzz=0.25 * y**4, dyy=1.0, dy=-1.0 / y)


def mode_potential(k, l, y):
    """Half-line potential of the (k, l) Fourier mode."""
    y = np.asarray(y, dtype=float)
    return (k + 0.5 * l * y * y) ** 2 + 0.75 / y**2


@dataclass
class MartinetModeResult:
    k: int
    l: int
    n: int
    y_max: float
    values: np.ndarray
    residuals: np.ndarray
    multiplicity: int = 2


def martinet_mode_solve(k, l, n, y_max=None, m=4):
    """Lowest m eigenvalues of the (k, l) mode operator.

    For l != 0 the quartic well confines and the default box shrinks
    like |l|**(-1/4); for l = 0 there is no well and the Dirichlet box
    at y_max is part of the reported model.  The result's multiplicity
    is the default 2 (two sides of y = 0), not a computed count: the two
    sides decouple only in the eps -> 0 limit of a regularized two-sided
    operator, where the pairs close at a logarithmic rate.
    """
    k = int(k)
    l = int(l)
    if y_max is None:
        y_max = 10.0 / max(abs(l), 1) ** 0.25
    op = assemble_staggered(lambda t: mode_potential(k, l, t), n, y_max)
    res = eigen_solve(op, m)
    return MartinetModeResult(k=k, l=l, n=int(n), y_max=float(y_max),
                              values=res.values, residuals=res.residuals)
