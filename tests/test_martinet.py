import numpy as np
import pytest

from arslab.errors import OutOfRange
from arslab.martinet import martinet_mode_solve, mode_potential


def test_mode_potential_lower_bound():
    # V >= 3/(4 y^2) with equality on the zero set of the polynomial part
    y = np.linspace(0.05, 5.0, 400)
    for k in range(-3, 4):
        for l in range(-3, 4):
            assert np.all(mode_potential(k, l, y) * y**2 * (4.0 / 3.0) >= 1.0 - 1e-12)


def test_halfline_gauge_identity():
    """(1/w) [ (w g)'' - (w g)'/y ] equals g'' - 3 g/(4 y^2) for w = sqrt|y|."""

    def g(y):
        return np.exp(-((y - 2.0) ** 2))

    def g_dd(y):
        return (4.0 * (y - 2.0) ** 2 - 2.0) * g(y)

    h = 1e-4
    y = np.linspace(1.0, 3.0, 41)
    w = np.sqrt(np.abs(y))
    prod = lambda t: np.sqrt(np.abs(t)) * g(t)
    d1 = (prod(y + h) - prod(y - h)) / (2.0 * h)
    d2 = (prod(y + h) - 2.0 * prod(y) + prod(y - h)) / h**2
    lhs = (d2 - d1 / y) / w
    rhs = g_dd(y) - 0.75 * g(y) / y**2
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_constant_mode_shift():
    # (k, l) = (1, 0) is (0, 0) plus the identity, so the spectrum shifts by 1
    a = martinet_mode_solve(1, 0, 800, y_max=10.0, m=3)
    b = martinet_mode_solve(0, 0, 800, y_max=10.0, m=3)
    assert np.max(np.abs(a.values - b.values - 1.0)) <= 1e-8


def test_quartic_mode_frozen_values():
    res = martinet_mode_solve(0, 2, 800, m=2)
    assert res.values[0] == pytest.approx(5.3939704944, rel=1e-9)
    assert res.values[1] == pytest.approx(13.8098967549, rel=1e-9)
    assert res.multiplicity == 2
    assert res.y_max == pytest.approx(10.0 / 2.0**0.25, rel=1e-12)


def test_quartic_mode_grid_stability():
    coarse = martinet_mode_solve(0, 2, 400, m=1)
    fine = martinet_mode_solve(0, 2, 800, m=1)
    assert abs(coarse.values[0] - fine.values[0]) <= 0.01 * fine.values[0]


def test_result_metadata():
    res = martinet_mode_solve(0, 16, 256, m=2)
    assert res.y_max == pytest.approx(5.0, rel=1e-12)
    assert (res.k, res.l, res.n) == (0, 16, 256)
    assert np.all(np.diff(res.values) > 0.0)
    assert res.values.shape == res.residuals.shape == (2,)


@pytest.mark.parametrize("k, l", [(2**53, 1), (-2**53, 1), (0, 2**53), (1, -2**53 - 1)])
def test_mode_solve_refuses_indices_the_floats_cannot_tell_apart(k, l):
    with pytest.raises(OutOfRange, match=f"martinet_mode_solve: need .* got k = {k}, l = {l}"):
        martinet_mode_solve(k, l, 400, m=1)


def test_mode_solve_takes_the_largest_exact_index():
    res = martinet_mode_solve(2**53 - 1, 1, 400, m=1)
    assert res.k == 2**53 - 1 and np.all(np.isfinite(res.values))
