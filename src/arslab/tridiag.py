"""Certified symmetric tridiagonal eigensolver.

The lowest eigenpairs come from LAPACK (stebz bisection and stein inverse
iteration, through scipy.linalg.eigh_tridiagonal).  Every solve is
certified before it is returned:

- each eigenvalue is the Rayleigh quotient of its unit eigenvector;
- each residual ||A v - lambda v||_2 is at most 1e-8 * ||A||_inf;
- the vectors are orthonormal to delta = ||V^T V - I||_F <= 1e-8, so
  Kahan's residual theorem puts m eigenvalues near the m values;
- the Sturm count below the first value, widened by a slack, is 0: the
  pivots of LAPACK's LDL^T factorization (pttrf) of A - shift I are the
  Sturm sequence, and all are positive, so no eigenvalue was skipped.

A failed check raises ConvergenceFailure.  LAPACK's bisection and inverse
iteration are deterministic, so reruns give identical bits.  count_below,
a Python Sturm sweep at any shifts, is the independent reference for the
pivot test.

LAPACK and the Sturm sweeps see A / ||A||_inf: they square the
off-diagonals, which on a matrix of tiny norm would underflow and
decouple rows that are not decoupled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dpttrf

from .errors import ConvergenceFailure

__all__ = ["EigenResult", "count_below", "lowest_eigenpairs"]

_TINY = 1e-300
# certified residual bound, relative to ||A||_inf
_RESIDUAL_TOL = 1e-8
# certified bound on ||V^T V - I||_F
_ORTHO_TOL = 1e-8


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


def _nonpositive_pivot(diag, off, shift, norm):
    """1 + the index of the first pivot of (A - shift I) / norm that is
    not positive, or 0 when all are, which means no eigenvalue below shift.

    The LDL^T pivots are the Sturm sequence, so 0 agrees with
    count_below(diag, off, shift) == 0 up to the one-ulp ambiguity at an
    eigenvalue.  scipy's dpttrf refuses n = 1; its one pivot is read here.
    """
    d = diag / norm - shift / norm
    if d.size == 1:
        return 0 if d[0] > 0.0 else 1
    return dpttrf(d, off / norm, overwrite_d=True, overwrite_e=True)[2]


def lowest_eigenpairs(diag, off, m):
    """The m smallest eigenpairs with certified residuals.

    The vectors come from LAPACK; each reported eigenvalue is the Rayleigh
    quotient of its normalized vector.  With slack the summed residuals
    plus a rounding allowance n * eps * ||A||_inf, and delta =
    ||V^T V - I||_F, the solve certifies:

    - below: no eigenvalue lies below values[0] - slack;
    - above: at least m eigenvalues lie at or below values[-1] +
      (1 + 2 delta) (sum of residuals + delta ||A||_inf), to first order
      values[-1] + slack + delta ||A||_inf.  By Kahan's theorem (Parlett,
      The Symmetric Eigenvalue Problem, ch. 11) m orthonormal vectors Q
      put m eigenvalues within ||A Q - Q diag(values)||_2 of the values;
      for Q = V (V^T V)^(-1/2) and delta <= 1e-2 that norm is at most
      the widening above.

    ConvergenceFailure is raised when a residual exceeds
    1e-8 * ||A||_inf, when delta exceeds 1e-8, or when the Sturm count
    below values[0] - slack is not 0.
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
    # scaled by a power of two near 1 / ||A||, exactly, so the squares cannot overflow
    scale = 2.0 ** -np.frexp(norm_bound)[1]
    residuals = np.linalg.norm((av - vectors * values) * scale, axis=0) / scale
    worst = int(np.argmax(residuals))
    if not residuals[worst] <= _RESIDUAL_TOL * norm_bound:
        raise ConvergenceFailure(
            f"lowest_eigenpairs: pair {worst} residual {residuals[worst]:.3e} above "
            f"{_RESIDUAL_TOL:.1e} * ||A|| = {_RESIDUAL_TOL * norm_bound:.3e}")

    gram = vectors.T @ vectors
    gram[np.diag_indices(m)] -= 1.0
    delta = float(np.linalg.norm(gram))
    if not delta <= _ORTHO_TOL:
        raise ConvergenceFailure(
            f"lowest_eigenpairs: vectors orthonormal only to delta = {delta:.1e}, "
            f"above {_ORTHO_TOL:.1e}")
    slack = float(np.sum(residuals)) + diag.size * np.finfo(float).eps * norm_bound
    shift = values[0] - slack
    pivot = _nonpositive_pivot(diag, off, shift, norm_bound)
    if pivot:
        raise ConvergenceFailure(
            f"lowest_eigenpairs: Sturm count above 0 below {values[0]:.12g}: pivot "
            f"{pivot - 1} of A - {shift:.12g} I is not positive (slack {slack:.1e}, "
            f"delta {delta:.1e})")
    return EigenResult(values=values, vectors=vectors, residuals=residuals,
                       operator_norm=norm_bound)
