"""The flat Martinet structure in three dimensions.

Frame fields

    X1 = (1, 0, y**2 / 2),    X2 = (0, 1, 0)

span a rank-2 distribution that loses step on the surface y = 0: the
first bracket [X1, X2] = (0, 0, -y) vanishes there, and only the second,
[[X1, X2], X2] = (0, 0, 1), restores the full tangent space.  The
intrinsic (Popp) volume, built from the frame and its first bracket, has
density 1/|det(X1, X2, [X1, X2])| = 1/|y| relative to dx dy dz, which
blows up on the surface.  The sub-Laplacian of that volume is
X1**2 + X2**2 plus the logarithmic derivative of the density along X2,

    u_xx + y**2 u_xz + (y**4 / 4) u_zz + u_yy - u_y / y,

and the substitution u = sqrt|y| g, unitary from L2(dy / |y|) to L2(dy),
turns u_yy - u_y / y into sqrt|y| (g_yy - (3/4) g / y**2): the 1/|y|
density is where the inverse-square term comes from.  Under Fourier
transform in (x, z) the operator separates into half-line mode operators

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

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .spectral import assemble_staggered, eigen_solve

__all__ = ["mode_potential", "MartinetModeResult", "martinet_mode_solve"]


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
    operator, where the pairs close at a logarithmic rate.  Raises
    OutOfRange unless |k| and |l| are below 2**53, where the potential,
    computed in floats, still tells each integer apart.
    """
    k = int(k)
    l = int(l)
    if max(abs(k), abs(l)) >= 2**53:
        raise OutOfRange(f"martinet_mode_solve: need |k|, |l| < 2**53, got k = {k}, l = {l}")
    if y_max is None:
        y_max = 10.0 / max(abs(l), 1) ** 0.25
    op = assemble_staggered(lambda t: mode_potential(k, l, t), n, y_max)
    res = eigen_solve(op, m)
    return MartinetModeResult(k=k, l=l, n=int(n), y_max=float(y_max),
                              values=res.values, residuals=res.residuals)
