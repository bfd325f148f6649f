import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import eigh_tridiagonal

from arslab import tridiag
from arslab.errors import ConvergenceFailure
from arslab.tridiag import count_below, lowest_eigenpairs


def _free_laplacian(n, h):
    diag = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return diag, off


def test_free_laplacian_exact_eigenvalues():
    # second-difference matrix with Dirichlet ends: lambda_j = (4/h^2) sin^2(j pi / (2(n+1)))
    n, h = 50, 0.1
    diag, off = _free_laplacian(n, h)
    got = lowest_eigenpairs(diag, off, 6).values
    j = np.arange(1, 7)
    exact = (4.0 / h**2) * np.sin(j * math.pi / (2.0 * (n + 1))) ** 2
    assert np.max(np.abs(got - exact)) <= 1e-10 * (4.0 / h**2)


def test_residuals_of_a_huge_matrix_do_not_overflow():
    # ||A|| is about 2**709 here, so the squared unscaled residuals would
    # overflow; scaling by a power of two moves no bit
    diag, off = _free_laplacian(50, 0.1)
    res = lowest_eigenpairs(diag, off, 4)
    big = lowest_eigenpairs(diag * 2.0**700, off * 2.0**700, 4)
    assert np.array_equal(big.values, res.values * 2.0**700)
    assert np.array_equal(big.residuals, res.residuals * 2.0**700)


def test_matches_library_solver_on_random_matrices():
    rng = np.random.default_rng(314)
    for n in (40, 300):
        diag = rng.uniform(0.0, 10.0, n)
        off = rng.uniform(-2.0, 2.0, n - 1)
        scale = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
        reference = eigh_tridiagonal(diag, off, eigvals_only=True)
        res = lowest_eigenpairs(diag, off, 6)
        assert np.max(np.abs(res.values - reference[:6])) <= 1e-10 * scale
        # certified residuals really hold
        for j in range(6):
            v = res.vectors[:, j]
            av = diag * v
            av[:-1] += off * v[1:]
            av[1:] += off * v[:-1]
            r = np.linalg.norm(av - res.values[j] * v)
            assert r <= 1e-8 * res.operator_norm
            assert res.residuals[j] == pytest.approx(r, abs=1e-12 * scale)


def test_count_below_is_exact():
    rng = np.random.default_rng(99)
    diag = rng.uniform(-1.0, 1.0, 120)
    off = rng.uniform(-0.5, 0.5, 119)
    evals = eigh_tridiagonal(diag, off, eigvals_only=True)
    shifts = np.array([-2.0, evals[3] + 1e-12, evals[59] + 1e-12, 2.0])
    counts = count_below(diag, off, shifts)
    assert counts.tolist() == [0, 4, 60, 120]


def test_degenerate_pair_gets_orthogonal_vectors():
    """Two decoupled identical blocks give each eigenvalue multiplicity 2."""
    n = 24
    block_diag, block_off = _free_laplacian(n, 1.0)
    diag = np.concatenate([block_diag, block_diag])
    off = np.concatenate([block_off, [0.0], block_off])
    res = lowest_eigenpairs(diag, off, 4)
    assert res.values[0] == pytest.approx(res.values[1], abs=1e-10)
    assert res.values[2] == pytest.approx(res.values[3], abs=1e-10)
    overlap = abs(float(np.dot(res.vectors[:, 0], res.vectors[:, 1])))
    assert overlap <= 1e-8


def test_eigenvalues_monotone_and_interlaced_with_counts():
    rng = np.random.default_rng(2024)
    diag = rng.uniform(0.0, 5.0, 80)
    off = rng.uniform(-1.0, 1.0, 79)
    vals = lowest_eigenpairs(diag, off, 8).values
    assert np.all(np.diff(vals) >= -1e-12)
    # exactly j eigenvalues lie strictly below a point just above vals[j-1]
    for j in (1, 4, 8):
        assert int(count_below(diag, off, np.array([vals[j - 1] + 1e-9]))[0]) >= j


# -- properties of the LAPACK-backed kernel against a dense oracle ----------

def _entries(bound):
    # Nonzero magnitudes stay above 1e-100: where entries near underflow
    # meet, the dense oracle (LAPACK syevd) can be wrong; it is off by
    # 1e-2 on the block of test_entries_near_underflow, which this kernel
    # gets right.
    return st.one_of(st.just(0.0), st.floats(1e-100, bound), st.floats(-bound, -1e-100))


@st.composite
def _tridiagonals(draw):
    """Random (diag, off, m): exact zeros in off split the matrix into
    blocks, and a repeated block gives every one of its eigenvalues
    multiplicity 2."""
    repeated = draw(st.booleans())
    n = draw(st.integers(2, 200 if repeated else 400))
    diag = draw(hnp.arrays(float, n, elements=_entries(10.0)))
    off = draw(hnp.arrays(float, n - 1, elements=_entries(5.0)))
    if repeated:
        diag = np.concatenate([diag, diag])
        off = np.concatenate([off, [0.0], off])
    m = draw(st.integers(1, min(diag.size, 8)))
    return diag, off, m


@settings(max_examples=60, deadline=None)
@given(_tridiagonals())
def test_lowest_pairs_match_dense_oracle(case):
    diag, off, m = case
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    oracle = np.linalg.eigvalsh(dense)
    norm = np.max(np.sum(np.abs(dense), axis=1))
    tol = 1e-10 * norm

    res = lowest_eigenpairs(diag, off, m)
    assert np.max(np.abs(res.values - oracle[:m])) <= tol
    assert res.operator_norm == pytest.approx(max(norm, 1e-300), rel=1e-12)
    true_residuals = np.linalg.norm(dense @ res.vectors - res.vectors * res.values, axis=0)
    assert np.all(true_residuals <= 1e-8 * res.operator_norm)
    assert np.max(np.abs(res.vectors.T @ res.vectors - np.eye(m))) <= 1e-8

    # Sturm counts are exact away from the eigenvalues
    gaps = np.flatnonzero(np.diff(oracle) > 1e-6 * norm)
    mids = 0.5 * (oracle[gaps] + oracle[gaps + 1])
    assert count_below(diag, off, mids).tolist() == (gaps + 1).tolist()
    # and the certificate's pivot test agrees with them on "none below"
    shifts = np.concatenate([[oracle[0] - 1e-6 * max(norm, 1e-300)], mids])
    positive = [tridiag._nonpositive_pivot(diag, off, s, res.operator_norm) == 0
                for s in shifts]
    assert positive == (count_below(diag, off, shifts) == 0).tolist()


def test_entries_near_underflow():
    # a block whose diagonal entry and coupling to the next row are tiny:
    # its eigenvalues are (-1 -+ sqrt(17)) / 2 and 0 to roundoff
    diag = np.array([5.9195268e-274, -1.0, 0.0])
    off = np.array([2.0, 4.41858442e-81])
    res = lowest_eigenpairs(diag, off, 3)
    assert res.values == pytest.approx([-0.5 - 0.5 * math.sqrt(17.0), 0.0,
                                        -0.5 + 0.5 * math.sqrt(17.0)], abs=1e-14)
    # a matrix of tiny norm, whose squared coupling underflows
    res = lowest_eigenpairs([0.0, 0.0], [1.25e-203], 2)
    assert res.values == pytest.approx([-1.25e-203, 1.25e-203], rel=1e-14)
    assert np.all(res.residuals <= 1e-8 * res.operator_norm)


def _ladder(n=50):
    """Free Laplacian plus a ramp: well separated, simple eigenvalues."""
    diag, off = _free_laplacian(n, 1.0)
    return diag + np.linspace(0.0, 1.0, n), off


def test_skipped_lowest_pair_fails_the_sturm_count(monkeypatch):
    lapack = tridiag.eigh_tridiagonal

    def skip_lowest(diag, off, select, select_range):
        lo, hi = select_range
        return lapack(diag, off, select=select, select_range=(lo + 1, hi + 1))

    monkeypatch.setattr(tridiag, "eigh_tridiagonal", skip_lowest)
    with pytest.raises(ConvergenceFailure, match="Sturm count"):
        lowest_eigenpairs(*_ladder(), 4)


def test_duplicated_vector_fails_the_orthogonality_check(monkeypatch):
    lapack = tridiag.eigh_tridiagonal

    def duplicate_one(diag, off, select, select_range):
        values, vectors = lapack(diag, off, select=select, select_range=select_range)
        vectors[:, -1] = vectors[:, -2]
        return values, vectors

    monkeypatch.setattr(tridiag, "eigh_tridiagonal", duplicate_one)
    with pytest.raises(ConvergenceFailure):
        lowest_eigenpairs(*_ladder(), 4)


def test_one_by_one_matrix():
    assert lowest_eigenpairs([5.0], [], 1).values.tolist() == [5.0]
    assert lowest_eigenpairs([0.0], [], 1).values.tolist() == [0.0]


def test_one_by_one_value_above_the_diagonal_fails_the_sturm_count(monkeypatch):
    matvec = tridiag._matvec
    # A v + v: the Rayleigh value is 6 with zero residual, above the only eigenvalue 5
    monkeypatch.setattr(tridiag, "_matvec", lambda diag, off, v: matvec(diag, off, v) + v)
    with pytest.raises(ConvergenceFailure, match="Sturm count"):
        lowest_eigenpairs([5.0], [], 1)


def test_perturbed_vector_fails_the_residual_check(monkeypatch):
    lapack = tridiag.eigh_tridiagonal

    def perturb_one(diag, off, select, select_range):
        values, vectors = lapack(diag, off, select=select, select_range=select_range)
        vectors[:, 2] += 1e-3 * np.cos(np.arange(diag.size))
        return values, vectors

    monkeypatch.setattr(tridiag, "eigh_tridiagonal", perturb_one)
    with pytest.raises(ConvergenceFailure, match="pair 2 residual"):
        lowest_eigenpairs(*_ladder(), 4)


def test_lapack_failure_is_a_convergence_failure(monkeypatch):
    def fail(diag, off, select, select_range):
        raise np.linalg.LinAlgError("eigenvectors failed to converge")

    monkeypatch.setattr(tridiag, "eigh_tridiagonal", fail)
    with pytest.raises(ConvergenceFailure, match="LAPACK failed: eigenvectors failed"):
        lowest_eigenpairs(*_ladder(), 4)


@pytest.mark.parametrize("diag, off, m, named", [
    ([1.0, 2.0, 3.0], [0.5, 0.5], 0, "need 1 <= m <= n"),
    ([1.0, 2.0, 3.0], [0.5, 0.5], 4, "need 1 <= m <= n"),
    ([1.0, 2.0, 3.0], [0.5], 2, "off-diagonal must have length n-1"),
    ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], 2, "off-diagonal must have length n-1"),
], ids=["m-zero", "m-above-n", "off-short", "off-long"])
def test_bad_shapes_are_rejected(diag, off, m, named):
    with pytest.raises(ValueError, match=f"lowest_eigenpairs: {named}"):
        lowest_eigenpairs(diag, off, m)
