"""Certified symmetric tridiagonal eigensolver.

The lowest eigenpairs come from LAPACK (stebz bisection and stein inverse
iteration, through scipy.linalg.eigh_tridiagonal).  Every solve is
certified before it is returned:

- each eigenvalue is the Rayleigh quotient of its unit eigenvector;
- each residual ||A v - lambda v||_2 is at most 1e-8 * ||A||_inf;
- one Sturm-sequence sweep (count_below), independent of LAPACK, finds no
  eigenvalue below the first returned value and at least m up to the
  last, so none below lambda_m was skipped.

A failed check raises ConvergenceFailure.  LAPACK's bisection and inverse
iteration are deterministic, so reruns give identical bits.

LAPACK and the Sturm sweep both see A / ||A||_inf: they square the
off-diagonals, which on a matrix of tiny norm would underflow and
decouple rows that are not decoupled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .errors import ConvergenceFailure

__all__ = ["EigenResult", "count_below", "lowest_eigenpairs"]

_TINY = 1e-300
# certified residual bound, relative to ||A||_inf
_RESIDUAL_TOL = 1e-8


@dataclass
class EigenResult:
    values: np.ndarray
    vectors: np.ndarray     # column j is the eigenvector of values[j]
    residuals: np.ndarray   # ||A v - lambda v||_2 per pair, unit-norm v
    operator_norm: float    # infinity-norm bound used for certification


def _inf_norm(diag, off):
    """||A||_inf, at least _TINY so that it can divide."""
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return max(float(np.max(np.abs(diag) + radius)), _TINY)


def count_below(diag, off, shifts):
    """Number of eigenvalues strictly below each shift (Sturm sequence).

    One scalar recurrence over the matrix dimension per shift; callers
    pass a few shifts, for which plain floats beat per-row array calls.
    Pivots are clamped away from zero, which cannot change the sign count
    by more than the usual one-ulp ambiguity exactly at an eigenvalue.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    norm = _inf_norm(diag, off)
    d = (diag / norm).tolist()
    off2 = ((off / norm) ** 2).tolist()
    counts = np.empty(shifts.shape, dtype=np.int64)
    for j, s in enumerate((shifts / norm).ravel().tolist()):
        # clamp immediately after each update so an exactly-zero pivot is
        # counted as negative; clamping later would miss it and break the
        # monotonicity of the count in the shift
        q = d[0] - s
        if abs(q) < _TINY:
            q = -_TINY
        count = int(q < 0.0)
        for d_i, off2_i in zip(d[1:], off2):
            q = d_i - s - off2_i / q
            if abs(q) < _TINY:
                q = -_TINY
            if q < 0.0:
                count += 1
        counts.flat[j] = count
    return counts


def _matvec(diag, off, v):
    """A @ v for each column of v."""
    out = diag[:, None] * v
    out[:-1] += off[:, None] * v[1:]
    out[1:] += off[:, None] * v[:-1]
    return out


def lowest_eigenpairs(diag, off, m):
    """The m smallest eigenpairs with certified residuals.

    The vectors come from LAPACK; each reported eigenvalue is the Rayleigh
    quotient of its normalized vector.  ConvergenceFailure is raised when
    a residual exceeds 1e-8 * ||A||_inf, or when the Sturm count
    shows an eigenvalue below the first value or fewer than m up to the
    last one.  The count is taken at the values widened by the summed
    residuals (which bound how far the Ritz values of orthonormal vectors
    can sit from the spectrum) plus a rounding allowance.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if not (1 <= m <= diag.size):
        raise ValueError("lowest_eigenpairs: need 1 <= m <= n")
    if off.size != diag.size - 1:
        raise ValueError("lowest_eigenpairs: off-diagonal must have length n-1")
    norm_bound = _inf_norm(diag, off)
    try:
        _, vectors = eigh_tridiagonal(diag / norm_bound, off / norm_bound, select="i",
                                      select_range=(0, m - 1))
    except LinAlgError as exc:
        raise ConvergenceFailure(f"lowest_eigenpairs: LAPACK failed: {exc}") from exc
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    av = _matvec(diag, off, vectors)
    values = np.sum(vectors * av, axis=0)
    residuals = np.linalg.norm(av - vectors * values, axis=0)
    worst = int(np.argmax(residuals))
    if not residuals[worst] <= _RESIDUAL_TOL * norm_bound:
        raise ConvergenceFailure(
            f"lowest_eigenpairs: pair {worst} residual {residuals[worst]:.3e} above "
            f"{_RESIDUAL_TOL:.1e} * ||A|| = {_RESIDUAL_TOL * norm_bound:.3e}")

    slack = float(np.sum(residuals)) + diag.size * np.finfo(float).eps * norm_bound
    below, up_to = count_below(diag, off, [values[0] - slack, values[-1] + slack])
    if below != 0 or up_to < m:
        raise ConvergenceFailure(
            f"lowest_eigenpairs: Sturm count {below} below {values[0]:.12g} and "
            f"{up_to} up to {values[-1]:.12g} (slack {slack:.1e}); expected 0 and >= {m}")
    return EigenResult(values=values, vectors=vectors, residuals=residuals,
                       operator_norm=norm_bound)
