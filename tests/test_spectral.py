import math

import numpy as np
import pytest

from arslab import (
    BadGrid,
    FitIllConditioned,
    FrameSpec,
    OutOfRange,
    UnsupportedFrame,
    assemble_mode_operator,
    classify_self_adjoint,
    deficiency_index_numeric,
    eigen_solve,
    gauge_transform,
    gaussian_bump,
    inverse_square_coefficient,
    laplace_beltrami_coeffs,
    polynomial_field,
    richardson_extrapolate,
    scalar_zero,
    spectrum_2d,
)
from arslab.spectral import assemble_staggered

GRUSHIN = FrameSpec.grushin()


# -- gauge transform ------------------------------------------------------


def test_grushin_gauge_is_exact():
    pot = gauge_transform(GRUSHIN)
    assert pot.inverse_square_coeff == 0.75
    assert pot.remainder_is_zero
    rng = np.random.default_rng(5)
    x = rng.uniform(0.05, 4.0, 100) * rng.choice([-1.0, 1.0], 100)
    y = rng.uniform(-5.0, 5.0, 100)
    assert np.all(pot.remainder(x, y) == 0.0)
    assert pot.potential(2.0, 0.0) == pytest.approx(0.75 / 4.0, rel=1e-15)


def test_alpha_gauge_coefficient():
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        c = inverse_square_coefficient(alpha)
        assert c == pytest.approx((alpha / 2.0) * (alpha / 2.0 + 1.0), rel=1e-15)
        pot = gauge_transform(FrameSpec.alpha_grushin(alpha))
        assert pot.inverse_square_coeff == pytest.approx(c, rel=1e-15)
        assert pot.remainder_is_zero
    assert inverse_square_coefficient(1.0) == 0.75


def test_gauge_rejects_unsupported_variants():
    with pytest.raises(UnsupportedFrame):
        gauge_transform(FrameSpec.f1(scalar_zero()))


def test_linear_scale_remainder_closed_form():
    # log scale eps * x: the remainder collapses to eps/(2x) + eps**2/4
    eps = 0.3
    fr = FrameSpec.f2(polynomial_field([[0.0], [eps]]))
    pot = gauge_transform(fr)
    assert not pot.remainder_is_zero
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(-3.0, 3.0))
        want = eps / (2.0 * x) + eps**2 / 4.0
        assert float(pot.remainder(x, y)) == pytest.approx(want, rel=1e-12)


def _conjugation_error(frame, n):
    """Max pointwise error of W * potential + Lap(W) on a box, W = 1/sqrt(area density).

    Sixth-order stencils; y is periodic on [0, 2 pi), x rows near the
    boundary are trimmed where the wrapped stencil is invalid.
    """
    xs = np.linspace(0.5, 2.5, n)
    ys = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fv, f_x, f_y, _ = frame.derivs(X, Y)
    W = np.sqrt(np.abs(fv))

    c1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    c2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0

    def deriv(F, axis, weights, h):
        out = np.zeros_like(F)
        for k, w in zip(range(-3, 4), weights):
            if w != 0.0:
                out += w * np.roll(F, -k, axis=axis)
        return out / h

    Wx = deriv(W, 0, c1, hx)
    Wxx = deriv(W, 0, c2, hx * hx)
    Wy = deriv(W, 1, c1, hy)
    Wyy = deriv(W, 1, c2, hy * hy)

    fsq = fv**2
    b_x = -f_x / fv
    b_y = fv * f_y
    lap_w = Wxx + fsq * Wyy + b_x * Wx + b_y * Wy

    pot = gauge_transform(frame)
    err = lap_w / W + pot.potential(X, Y)
    return float(np.max(np.abs(err[3:-3, :])))  # x stencil wraps near edges


def test_gauge_matches_direct_conjugation():
    fr = FrameSpec.f2(gaussian_bump(0.3, 0.7))
    assert _conjugation_error(fr, 200) <= 1e-6


def test_mode_operator_uses_gauge_potential():
    # staggered diagonal must equal 2/h^2 + k^2 x^(2 alpha) + gauge coefficient / x^2
    op = assemble_mode_operator(2, 1.0, 64, 3.0)
    pot = gauge_transform(GRUSHIN)
    expected = 2.0 / op.h**2 + 4.0 * op.x**2 + pot.potential(op.x, 0.0)
    assert np.array_equal(op.diag, expected)
    assert np.all(op.off == -1.0 / op.h**2)


# -- staggered assembly and spectra ----------------------------------------


def test_assemble_staggered_validation():
    with pytest.raises(BadGrid):
        assemble_staggered(lambda x: x, 8, 1.0)
    with pytest.raises(BadGrid):
        assemble_staggered(lambda x: x, 32, 0.0)
    x, diag, off, h = assemble_staggered(lambda x: np.zeros_like(x), 32, 1.0)
    assert x[0] == pytest.approx(h / 2.0, rel=1e-15)
    assert x[-1] == pytest.approx(1.0 - h / 2.0, rel=1e-15)


def test_mode_operator_default_box():
    op = assemble_mode_operator(4, 1.0, 64)
    assert op.x_max == pytest.approx(6.0, rel=1e-15)
    op = assemble_mode_operator(0, 1.0, 64)
    assert op.x_max == pytest.approx(12.0, rel=1e-15)
    with pytest.raises(BadGrid):
        assemble_mode_operator(1, -1.0, 64)


def test_alpha_one_spectrum_is_linear_in_level():
    """At alpha = 1 the mode eigenvalues are exactly 4|k|(n+1)."""
    res = eigen_solve(assemble_mode_operator(1, 1.0, 2000), 4)
    for j, lam in enumerate(res.values):
        assert lam == pytest.approx(4.0 * (j + 1), rel=1e-4)
    assert np.all(res.residuals <= 1e-8 * res.operator_norm)

    res = eigen_solve(assemble_mode_operator(2, 1.0, 2000), 1)
    assert res.values[0] == pytest.approx(8.0, rel=1e-4)


def test_richardson_extrapolation():
    # synthetic second-order sequence is reproduced exactly
    extr, order = richardson_extrapolate([5.0 + 0.4, 5.0 + 0.1, 5.0 + 0.025])
    assert extr == pytest.approx(5.0, abs=1e-12)
    assert order == pytest.approx(2.0, abs=1e-12)

    values = [eigen_solve(assemble_mode_operator(1, 1.0, n), 1).values[0]
              for n in (2000, 4000, 8000)]
    extr, order = richardson_extrapolate(values)
    assert abs(extr - 4.0) <= 1e-4
    assert 1.7 <= order <= 2.1


def test_ground_state_has_single_sign():
    res = eigen_solve(assemble_mode_operator(1, 1.0, 600), 1)
    v = res.vectors[:, 0]
    v = v * math.copysign(1.0, v[np.argmax(np.abs(v))])
    significant = v[np.abs(v) > 1e-9 * np.max(np.abs(v))]
    assert np.all(significant > 0.0)


def test_ground_state_boundary_exponent():
    # near the singular end the ground state scales like x^(s_plus), s_plus = 3/2
    op = assemble_mode_operator(1, 1.0, 2000)
    res = eigen_solve(op, 1)
    v = np.abs(res.vectors[:, 0])
    sel = (op.x > 0.02) & (op.x < 0.2)
    slope, _ = np.polyfit(np.log(op.x[sel]), np.log(v[sel]), 1)
    assert slope == pytest.approx(1.5, abs=0.1)


# -- self-adjointness -------------------------------------------------------


def test_classification_threshold():
    rep = classify_self_adjoint(0.75)
    assert rep.essentially_self_adjoint
    assert rep.deficiency_count == 0
    assert rep.verdict == "essentially-self-adjoint"
    assert rep.indicial_plus == pytest.approx(1.5, rel=1e-15)
    assert rep.indicial_minus == pytest.approx(-0.5, rel=1e-15)

    rep = classify_self_adjoint(0.74)
    assert not rep.essentially_self_adjoint
    assert rep.deficiency_count == 1
    assert rep.verdict == "needs-boundary-condition"

    rep = classify_self_adjoint(0.0)
    assert (rep.indicial_plus, rep.indicial_minus) == (1.0, 0.0)

    with pytest.raises(OutOfRange):
        classify_self_adjoint(-0.3)


def test_alpha_verdict_flips_at_one():
    flips = {0.9: False, 1.0: True, 1.1: True}
    for alpha, esa in flips.items():
        rep = classify_self_adjoint(inverse_square_coefficient(alpha))
        assert rep.essentially_self_adjoint is esa, f"alpha={alpha}"


def test_numeric_deficiency_agrees_with_classification():
    for c in (0.0, 0.3, 0.5, 0.74, 0.75, 0.8, 1.5):
        want = classify_self_adjoint(c).deficiency_count
        got = deficiency_index_numeric(c)
        assert got == want, f"c={c}: counted {got}, classified {want}"


def test_numeric_deficiency_validation():
    with pytest.raises(FitIllConditioned):
        deficiency_index_numeric(-0.25 + 1e-9)
    with pytest.raises(ValueError):
        deficiency_index_numeric(0.5, eps=3.0, x_far=10.0)


_SWEEP_C = [*np.linspace(-0.2499, 3.0, 40).tolist(), 0.7499999, 0.75, 0.7500001]


@pytest.mark.parametrize("eps, x_far", [(1e-3, 10.0), (1e-4, 10.0), (1e-2, 5.0)])
def test_numeric_deficiency_agrees_on_a_sweep(eps, x_far):
    wrong = [(c, got) for c in _SWEEP_C
             if (got := deficiency_index_numeric(c, eps, x_far))
             != classify_self_adjoint(c).deficiency_count]
    assert not wrong, f"eps={eps}, x_far={x_far}: (c, count) {wrong}"


@pytest.mark.parametrize("eps, x_far, named", [
    (1e-160, 10.0, "integration failed: Excess work done"),  # c/x**2 overflows
    (1e-3, 1e4, "solution overflowed"),  # the decaying start grows like e**(x_far/sqrt 2)
])
def test_numeric_deficiency_failed_integration_is_named(eps, x_far, named):
    with pytest.raises(FitIllConditioned, match="deficiency_index_numeric") as info:
        deficiency_index_numeric(0.5, eps=eps, x_far=x_far)
    assert named in str(info.value)


# -- assembled 2-d spectrum --------------------------------------------------


def test_spectrum_2d_structure():
    lines = spectrum_2d(1.0, 2, 2, n=600)
    assert [rec.value for rec in lines] == sorted(rec.value for rec in lines)
    # k and -k carry identical values, reported separately
    by_k = {}
    for rec in lines:
        by_k.setdefault(rec.k, []).append(rec.value)
    for k in (1, 2):
        assert by_k[k] == by_k[-k]
    assert len(by_k[0]) == 2
    ground = min(v for k in (1, -1) for v in by_k[k])
    assert ground == pytest.approx(4.0, rel=5e-3)
    with pytest.raises(ValueError):
        spectrum_2d(1.0, 0, 2)
