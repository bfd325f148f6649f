import dataclasses
import math
import warnings
from typing import NamedTuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.integrate import quad

from arslab.frames import _polyder2d

from arslab import (
    FrameSpec,
    ScalarField,
    SingularPoint,
    StepSizeTooLarge,
    curve_length,
    frame_from_config,
    frame_vectors,
    gaussian_bump,
    geodesic_flow,
    laplace_beltrami_coeffs,
    metric_at,
    polynomial_field,
    scalar_zero,
)
from arslab.spectral import gauge_transform

GRUSHIN = FrameSpec.grushin()

# closed form of the integral of sqrt(1 + 1/|t|) over [-1, 1]
DIAGONAL_LENGTH = 2.0 * (math.sqrt(2.0) + math.asinh(1.0))


class _Point(NamedTuple):
    x: float
    y: float


def _bump_frame(variant="f2"):
    scale = gaussian_bump(0.3, 0.9)
    if variant == "f1":
        return FrameSpec.f1(scale)
    return FrameSpec.f2(scale)


# -- metric, curvature, frame vectors ------------------------------------


def test_grushin_metric_values():
    md = metric_at(GRUSHIN, _Point(2.0, 0.3))
    assert md.g11 == 1.0
    assert md.g22 == pytest.approx(0.25, rel=1e-15)
    assert md.area_density == pytest.approx(0.5, rel=1e-15)
    assert md.curvature == pytest.approx(-0.5, rel=1e-15)

    md = metric_at(GRUSHIN, _Point(-0.5, 7.0))
    assert md.g22 == pytest.approx(4.0, rel=1e-15)
    assert md.area_density == pytest.approx(2.0, rel=1e-15)
    assert md.curvature == pytest.approx(-8.0, rel=1e-15)


def test_grushin_curvature_scaling():
    # K * x**2 must be the constant -2 at every non-singular point
    for x in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
        md = metric_at(GRUSHIN, _Point(x, 1.3))
        assert abs(md.curvature * x * x + 2.0) <= 1e-13


def test_alpha_curvature_formula():
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        fr = FrameSpec.alpha_grushin(alpha)
        for x in (0.3, 1.7, -2.2):
            md = metric_at(fr, _Point(x, 0.0))
            expected = -alpha * (1.0 + alpha) / x**2
            assert md.curvature == pytest.approx(expected, rel=1e-12)


def test_metric_identities_random():
    """g22 * f**2 == 1 and (area density * f)**2 == 1 off the singular set."""
    rng = np.random.default_rng(7)
    frames = [GRUSHIN, _bump_frame("f1"), _bump_frame("f2"),
              FrameSpec.alpha_grushin(1.5)]
    for _ in range(200):
        fr = frames[rng.integers(len(frames))]
        x = float(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(-4.0, 4.0))
        fv = float(fr.derivs(x, y)[0])
        md = metric_at(fr, _Point(x, y))
        assert md.g11 == 1.0
        assert md.g22 * fv * fv == pytest.approx(1.0, rel=1e-12)
        assert (md.area_density * abs(fv)) == pytest.approx(1.0, rel=1e-12)
        v1, v2 = frame_vectors(fr, _Point(x, y))
        assert v1 == (1.0, 0.0)
        assert v2 == (0.0, fv)


def test_singular_point_rejected():
    p = _Point(0.0, 1.0)
    with pytest.raises(SingularPoint):
        metric_at(GRUSHIN, p)
    with pytest.raises(SingularPoint):
        laplace_beltrami_coeffs(GRUSHIN, p)
    # the frame itself stays defined there
    v1, v2 = frame_vectors(GRUSHIN, p)
    assert v2 == (0.0, 0.0)


def test_point_where_f_is_not_finite_is_singular():
    # |x|**2000 overflows to inf at x = 2, and inf**2 raises no OverflowError
    fr, p = FrameSpec.alpha_grushin(2000.0), _Point(2.0, 0.0)
    for who, call in (("metric_at", lambda: metric_at(fr, p)),
                      ("laplace_beltrami_coeffs", lambda: laplace_beltrami_coeffs(fr, p))):
        with pytest.raises(SingularPoint, match=f"{who}: f = inf is not finite at"):
            call()


def test_laplace_coeffs_refuse_where_f_squared_overflows_as_metric_at_does():
    # a_yy = f**2 would be inf; the two evaluators share _regular_derivs' rule
    for who, call in (("metric_at", metric_at), ("laplace_beltrami_coeffs",
                                                 laplace_beltrami_coeffs)):
        with pytest.raises(SingularPoint) as info:
            call(GRUSHIN, (1e200, 0.0))
        assert str(info.value) == f"{who}: f**2 overflows at (1e+200, 0.0)"


def _refusal(call):
    """(type, message after the function name) of what call raises, or None."""
    try:
        call()
    except Exception as exc:  # any refusal: its type and text are compared
        return type(exc), str(exc).partition(": ")[2]
    return None


_BUMP_04 = gaussian_bump(0.4, 0.6)
_huge_or_tiny = st.floats(1e-320, 1e300)


@settings(max_examples=200, deadline=None)
@given(frame=st.one_of(st.sampled_from([GRUSHIN, FrameSpec.f1(_BUMP_04), FrameSpec.f2(_BUMP_04)]),
                       st.floats(0.0, 3.0, exclude_min=True).map(FrameSpec.alpha_grushin)),
       x=st.one_of(st.just(0.0), _huge_or_tiny, _huge_or_tiny.map(lambda v: -v)),
       y=st.floats(-10.0, 10.0))
@example(frame=FrameSpec.alpha_grushin(3.0), x=1e60, y=0.0)
@example(frame=GRUSHIN, x=-1e-320, y=1.0)
def test_point_evaluators_refuse_the_same_points(frame, x, y):
    # metric_at alone refuses where f**2 underflows, since g22 = 1/f**2
    p = (x, y)
    want = _refusal(lambda: metric_at(frame, p))
    if want is not None and want[1].startswith("f**2 underflows to 0"):
        want = None
    assert _refusal(lambda: laplace_beltrami_coeffs(frame, p)) == want


@pytest.mark.parametrize("p", [_Point(math.nan, 1.0), _Point(math.inf, 1.0),
                               _Point(1.0, -math.inf)])
def test_point_that_is_not_finite_rejected(p):
    # checked before the frame is evaluated, so no RuntimeWarning comes first
    with pytest.raises(ValueError, match="metric_at: need a finite point"):
        metric_at(GRUSHIN, p)
    with pytest.raises(ValueError, match="laplace_beltrami_coeffs: need a finite point"):
        laplace_beltrami_coeffs(_bump_frame("f2"), p)


# -- Laplace-Beltrami against the weighted-measure form -------------------


def _fd_laplacian(frame, field, p, h=1e-5):
    # divergence form (1/w) [d/dx (w u_x) + d/dy (w f**2 u_y)], w = 1/|f|
    def g1(x, y):
        return float(field.derivs(x, y)[1]) / abs(float(frame.derivs(x, y)[0]))

    def g2(x, y):
        fv = float(frame.derivs(x, y)[0])
        return fv**2 * float(field.derivs(x, y)[2]) / abs(fv)

    ddx = (g1(p.x + h, p.y) - g1(p.x - h, p.y)) / (2.0 * h)
    ddy = (g2(p.x, p.y + h) - g2(p.x, p.y - h)) / (2.0 * h)
    return abs(float(frame.derivs(p.x, p.y)[0])) * (ddx + ddy)


def test_laplace_beltrami_matches_divergence_form():
    u = gaussian_bump(1.0, 1.2)
    points = [_Point(0.6, 0.5), _Point(-1.1, 2.0), _Point(1.8, -0.7)]
    for fr in (GRUSHIN, _bump_frame("f1"), _bump_frame("f2"),
               FrameSpec.alpha_grushin(0.75)):
        for p in points:
            a_xx, a_yy, b_x, b_y = laplace_beltrami_coeffs(fr, p)
            _, u_x, u_y, u_xx, u_yy = (float(d) for d in u.derivs(p.x, p.y))
            got = a_xx * u_xx + a_yy * u_yy + b_x * u_x + b_y * u_y
            want = _fd_laplacian(fr, u, p)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_laplace_beltrami_grushin_coeffs():
    a_xx, a_yy, b_x, b_y = laplace_beltrami_coeffs(GRUSHIN, _Point(2.0, 0.0))
    assert (a_xx, a_yy) == (1.0, 4.0)
    assert b_x == pytest.approx(-0.5, rel=1e-15)
    assert b_y == 0.0


# -- scalar fields --------------------------------------------------------


def _check_derivatives(field, points):
    """Worst mismatch of field.derivs' derivatives against central differences of s.

    The expected magnitude is O(h**2) times the local third derivative,
    with step h = 1e-5.
    """
    h = 1e-5
    worst = 0.0
    for x, y in points:
        s, s_x, s_y, s_xx, s_yy = field.derivs(x, y)
        east, west, north, south = (field.derivs(u, v)[0] for u, v in
                                    ((x + h, y), (x - h, y), (x, y + h), (x, y - h)))
        worst = max(
            worst,
            abs((east - west) / (2 * h) - s_x),
            abs((north - south) / (2 * h) - s_y),
            abs((east - 2 * s + west) / h**2 - s_xx),
            abs((north - 2 * s + south) / h**2 - s_yy),
        )
    return worst


def test_scalar_field_derivative_checks():
    pts = [(x, y) for x in (-1.5, -0.2, 0.4, 2.0) for y in (0.0, 1.0, 3.0)]
    # second differences at h = 1e-5 carry ~1e-6 roundoff, so gate at 1e-5
    assert _check_derivatives(gaussian_bump(0.7, 0.9), pts) < 1e-5
    assert _check_derivatives(polynomial_field([[0.3, -0.2], [0.1, 0.05]]), pts) < 1e-5
    assert _check_derivatives(scalar_zero(), pts) == 0.0


@pytest.mark.parametrize("index", [1, 2, 3, 4], ids=["s_x", "s_y", "s_xx", "s_yy"])
def test_check_derivatives_catches_each_corrupted_derivative(index):
    pts = [(x, y) for x in (-1.5, 0.4) for y in (0.0, 1.0)]
    good = gaussian_bump(0.7, 0.9)

    def derivs(x, y):
        d = list(good.derivs(x, y))
        d[index] = d[index] + 0.01
        return tuple(d)

    assert _check_derivatives(dataclasses.replace(good, derivs=derivs), pts) > 1e-3


def test_custom_field_from_derivs_and_jet_alone():
    """A field given only derivs and jet runs everywhere a built-in one does."""
    def derivs(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        zero = np.zeros_like(x)
        return 0.2 * x * y, 0.2 * y, 0.2 * x, zero, zero

    custom = ScalarField(derivs=derivs, jet=lambda x, y: (0.2 * x * y, 0.2 * y, 0.2 * x))
    same = polynomial_field([[0.0, 0.0], [0.0, 0.2]])  # 0.2 x y
    for make in (FrameSpec.f1, FrameSpec.f2):
        got, want = make(custom), make(same)
        for p in (_Point(0.7, -1.3), _Point(-1.6, 0.4)):
            assert metric_at(got, p) == metric_at(want, p)
        a = geodesic_flow(got, (-0.4, 0.5, 0.8, 0.6), 1.0, dt=1e-3)
        b = geodesic_flow(want, (-0.4, 0.5, 0.8, 0.6), 1.0, dt=1e-3)
        assert np.array_equal(a.states, b.states) and a.energy_drift == b.energy_drift
        assert a.crossings == b.crossings and len(a.crossings) == 1
    x = np.array([0.3, -0.8, 1.9])
    y = np.array([-2.0, 0.5, 1.1])
    assert np.array_equal(gauge_transform(FrameSpec.f2(custom)).remainder(x, y),
                          gauge_transform(FrameSpec.f2(same)).remainder(x, y))


def test_polynomial_field_exact():
    # 1 + 3y + 2x + xy, so dxx = dyy = 0 identically
    f = polynomial_field([[1.0, 3.0], [2.0, 1.0]])
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        s, s_x, s_y, s_xx, s_yy = f.derivs(x, y)
        assert s == pytest.approx(1 + 3 * y + 2 * x + x * y, rel=1e-14)
        assert s_x == pytest.approx(2 + y, rel=1e-14)
        assert s_y == pytest.approx(3 + x, rel=1e-14)
        assert s_xx == 0.0
        assert s_yy == 0.0


def test_polynomial_derivs_match_polyval2d_bit_for_bit():
    from numpy.polynomial.polynomial import polyval2d

    rng = np.random.default_rng(20)
    x = np.array([-0.0, 0.0, -1.7, 0.3, 2.5, -3.1])[:, None]
    y = np.array([0.0, -0.0, 1.1, -2.2])[None, :]
    grid = np.broadcast_arrays(x, y)
    for _ in range(100):
        c = rng.normal(size=tuple(rng.integers(1, 5, size=2)))
        c[rng.random(c.shape) < 0.2] = 0.0
        c[rng.random(c.shape) < 0.2] = -0.0
        cx, cy = _polyder2d(c, 0), _polyder2d(c, 1)
        want = [polyval2d(*grid, cc) for cc in (c, cx, cy, _polyder2d(cx, 0), _polyder2d(cy, 1))]
        for got, ref in zip(polynomial_field(c).derivs(x, y), want):
            assert got.shape == ref.shape
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def _close(got, want, rel=1e-14):
    return got == want or abs(got - want) <= rel * abs(want)


# away from the subnormal range, where one ulp of exp is no longer 1e-16 relative
_coord = st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)
_coeffs = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(x=_coord, y=_coord, amplitude=_coord, sigma=st.floats(0.3, 2.0),
       coeffs=_coeffs)
def test_jet_matches_array_evaluators(x, y, amplitude, sigma, coeffs):
    for field in (scalar_zero(), gaussian_bump(amplitude, sigma), polynomial_field(coeffs)):
        jet = field.jet(x, y)
        assert all(type(v) is float for v in jet)
        want = tuple(float(d) for d in field.derivs(x, y)[:3])
        assert all(_close(g, w) for g, w in zip(jet, want)), (field, jet, want)


@settings(max_examples=60, deadline=None)
@given(x=_coord, y=_coord, alpha=st.floats(0.1, 3.0))
# one pow for |x|**(2 alpha - 1) missed derivs' two by 1.23e-14 relative here
@example(x=7.103108846948233e-78, y=0.0, alpha=0.10000000000000002)
def test_fsq_jet_matches_array_evaluators(x, y, alpha):
    for fr in (GRUSHIN, _bump_frame("f1"), _bump_frame("f2"),
               FrameSpec.f2(polynomial_field([[0.1, -0.3], [0.2, 0.05]])),
               FrameSpec.alpha_grushin(alpha)):
        got = fr.fsq_jet(x, y)
        f, f_x, f_y, _ = (float(d) for d in fr.derivs(x, y))
        want = (f * f, f * f_x, f * f_y)
        # at x = 0 f * f_x is 0 times 0, inf or nan: test_fsq_jet_on_the_singular_line
        pairs = list(zip(got, want))[::2] if x == 0.0 else zip(got, want)
        # (|x|**alpha)**2 and |x|**(2 alpha) may round to neighbouring subnormals
        assert all(_close(g, w) or abs(g - w) <= math.ulp(0.0) for g, w in pairs), \
            (fr.variant, got, want)


def test_fsq_jet_on_the_singular_line():
    # f * f_x = alpha |x|**(2 alpha - 1) blows up at x = 0 for alpha < 1/2
    for alpha, ffx in ((0.3, math.inf), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0)):
        fr = FrameSpec.alpha_grushin(alpha)
        for x in (0.0, -0.0):
            assert fr.fsq_jet(x, 1.0) == (0.0, ffx, 0.0)
    for fr in (GRUSHIN, _bump_frame("f2")):
        assert fr.fsq_jet(0.0, 0.4) == (0.0, 0.0, 0.0)


def _bits(values):
    return tuple(float(v).hex() for v in values)


@settings(max_examples=300, deadline=None)
# beyond |x| = 1e154, x * x overflows and the general chain's f * f_y is inf * 0
@given(x=st.floats(-1e154, 1e154), y=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-0.0, y=-0.0)
@example(x=-1e154, y=3.0)
def test_grushin_closed_form_jet_is_the_f2_chain_bit_for_bit(x, y):
    # the same zero field, not marked zero, takes the general f2 jet
    zero = scalar_zero()
    general = FrameSpec.f2(ScalarField(derivs=zero.derivs, jet=zero.jet))
    assert _bits(GRUSHIN.fsq_jet(x, y)) == _bits(general.fsq_jet(x, y))


def test_grushin_closed_form_geodesic_is_the_f2_chain_bit_for_bit():
    zero = scalar_zero()
    general = FrameSpec.f2(ScalarField(derivs=zero.derivs, jet=zero.jet))
    for state0 in ((-1.0, 0.0, 0.6, 0.8), (0.0, -0.0, -1.0, -0.0), (0.4, 2.0, -0.3, 2.5)):
        fast = geodesic_flow(GRUSHIN, state0, 1.3, dt=1e-3)
        slow = geodesic_flow(general, state0, 1.3, dt=1e-3)
        assert fast.states.tobytes() == slow.states.tobytes()
        assert fast.crossings == slow.crossings


def test_resolved_jet_follows_the_frame():
    base = FrameSpec.alpha_grushin(1.5)
    assert base.fsq_jet(0.0, 1.0)[1] == 0.0
    # a copy with another exponent resolves its own jet: |x|**(2 alpha - 1) blows up at 0
    assert dataclasses.replace(base, alpha=0.4).fsq_jet(0.0, 1.0)[1] == math.inf
    assert base.fsq_jet(0.0, 1.0)[1] == 0.0


def test_equal_frames_compare_and_hash_equal_once_resolved():
    field = gaussian_bump(0.3, 0.7)
    for make in (lambda: FrameSpec.alpha_grushin(1.5), lambda: FrameSpec.f2(field),
                 lambda: FrameSpec.f1(field)):
        resolved, fresh = make(), make()
        resolved.fsq_jet(0.3, 0.2)
        assert resolved == fresh and hash(resolved) == hash(fresh)
        assert len({resolved, fresh}) == 1
    assert FrameSpec.alpha_grushin(1.5) != FrameSpec.alpha_grushin(0.4)


def test_fast_paths_follow_the_evaluator_they_replace():
    bump = gaussian_bump(0.3, 0.7)
    assert FrameSpec.f2(bump).fsq_jet is bump.jet.f2_fsq_jet
    assert FrameSpec.f1(bump).fsq_jet.__name__ == "f1_jet"
    assert FrameSpec.f2(polynomial_field([[1.0, 2.0]])).fsq_jet.__name__ == "f2_jet"
    # a copy with another jet drops the fused closure and takes the generic chain
    copied = dataclasses.replace(bump, jet=lambda x, y: (0.0, 0.0, 0.0))
    assert FrameSpec.f2(copied).fsq_jet.__name__ == "f2_jet"
    assert FrameSpec.f2(copied).fsq_jet(0.5, 0.2) == (0.25, 0.5, 0.0)
    # a copy with other derivs keeps it: the closure stands in for the jet alone
    copied = dataclasses.replace(bump, derivs=scalar_zero().derivs)
    assert FrameSpec.f2(copied).fsq_jet is bump.jet.f2_fsq_jet
    # a zero field with other derivs loses f's shortcut and evaluates them
    other = dataclasses.replace(scalar_zero(), derivs=polynomial_field([[0.5]]).derivs)
    for variant, shortcut in (("f1", 1.0), ("f2", 2.0)):
        frame = FrameSpec(variant, log_scale=other)
        assert frame.f(2.0, 0.0) == frame.derivs(2.0, 0.0)[0] != shortcut


def _chain_frame(variant, field):
    """The same field behind a wrapped jet: fsq_jet calls it, then the frame's chain."""
    frame = FrameSpec(variant, log_scale=ScalarField(derivs=field.derivs,
                                                     jet=lambda x, y: field.jet(x, y)))
    assert frame.fsq_jet.__name__ == f"{variant}_jet"
    return frame


def _outcome(jet, x, y):
    try:
        return _bits(jet(x, y))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def test_bump_frames_resolve_one_fused_jet():
    # only f2 has a fused bump jet; f1 over a bump takes the field's jet, then f1_jet
    assert _bump_frame("f2").fsq_jet.__name__ == "f2_bump_jet"
    assert _bump_frame("f1").fsq_jet.__name__ == "f1_jet"
    for variant in ("f1", "f2"):
        assert _chain_frame(variant, gaussian_bump(0.3, 0.9)).fsq_jet.__name__ == f"{variant}_jet"
    # a zero-amplitude bump is the Grushin plane under f2
    assert FrameSpec.f2(gaussian_bump(-0.0, 0.9)).fsq_jet.__name__ == "grushin_jet"


def test_vanishing_order_of_each_variant():
    # the order to which f vanishes on x = 0; f1 never vanishes
    assert GRUSHIN.vanishing_order == 1.0
    assert _bump_frame("f2").vanishing_order == 1.0
    assert _bump_frame("f1").vanishing_order is None
    for alpha in (0.3, 1.0, 2.5):
        assert FrameSpec.alpha_grushin(alpha).vanishing_order == alpha
    assert [fr.is_singular_variant for fr in (GRUSHIN, _bump_frame("f1"))] == [True, False]


_near_pi = st.floats(math.pi - 1e-6, math.pi + 1e-6)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(st.floats(-1e154, 1e154), st.floats(-1e-300, 1e-300)),
       y=st.one_of(_near_pi, st.floats(-10.0, 10.0), _finite),
       amplitude=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0),
                           st.floats(-1e3, 1e3)),
       sigma=st.one_of(st.floats(0.05, 5.0), st.floats(1e-76, 1e76)))
@example(x=-0.0, y=math.pi, amplitude=0.4, sigma=0.6)
@example(x=0.0, y=-0.0, amplitude=-0.4, sigma=0.6)
@example(x=5e-324, y=math.pi, amplitude=-0.0, sigma=1e-76)
@example(x=-5e-324, y=3.0, amplitude=0.3, sigma=1e76)
@example(x=1e154, y=1e300, amplitude=0.3, sigma=0.7)
@example(x=0.1, y=math.pi, amplitude=800.0, sigma=0.7)
def test_fused_bump_jet_is_the_chain_bit_for_bit(x, y, amplitude, sigma):
    # the fused closure itself: an f2 frame over a zero bump takes the Grushin one
    field = gaussian_bump(amplitude, sigma)
    fused = field.jet.f2_fsq_jet
    chain = _chain_frame("f2", field).fsq_jet
    assert _outcome(fused, x, y) == _outcome(chain, x, y)


@pytest.mark.parametrize("variant", ["f1", "f2"])
@pytest.mark.parametrize("x, y, amplitude, raises", [
    (0.3, math.inf, 0.4, ValueError), (0.3, -math.inf, 0.4, ValueError),
    (-math.inf, math.inf, 0.4, ValueError), (0.01, math.pi, 800.0, OverflowError),
    (math.inf, 1.0, 0.4, None), (math.nan, 1.0, 0.4, None), (0.3, math.nan, 0.4, None),
    (1e200, math.pi, 0.4, None), (0.01, math.pi, -800.0, None),
])
def test_fused_bump_jet_raises_where_the_chain_raises(variant, x, y, amplitude, raises):
    field = gaussian_bump(amplitude, 0.7)
    fused = FrameSpec(variant, log_scale=field).fsq_jet
    chain = _chain_frame(variant, field).fsq_jet
    got = _outcome(fused, x, y)
    assert got == _outcome(chain, x, y)
    assert got[0] is raises if raises else isinstance(got[0], str)
    # and a trajectory through such a state fails with the same message
    runs = []
    for frame in (FrameSpec(variant, log_scale=field), _chain_frame(variant, field)):
        try:
            geodesic_flow(frame, (x, 3.0, 0.5, 2.0), 0.1, dt=0.01, tol_H=1.0)
            runs.append(None)
        except (StepSizeTooLarge, ValueError, SingularPoint) as exc:
            runs.append((type(exc), str(exc)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_gaussian_bump_needs_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match="gaussian-bump amplitude must be finite"):
        gaussian_bump(amplitude, 0.7)


def test_gaussian_bump_accepts_the_extreme_sigmas_it_can_divide_by():
    # sigma**4 is a normal float at both ends
    for sigma in (1e-76, 1e76):
        field = gaussian_bump(0.3, sigma)
        assert all(math.isfinite(v) for v in field.jet(0.5, 0.3))


def _unclipped_bump_derivs(a, sigma, x, y):
    s2 = sigma**2
    u = y - math.pi
    v = a * np.exp(-x**2 / (2 * s2)) * np.exp((np.cos(u) - 1.0) / s2)
    return (v, -(x / s2) * v, -(np.sin(u) / s2) * v, (x**2 / s2**2 - 1.0 / s2) * v,
            (np.sin(u)**2 / s2**2 - np.cos(u) / s2) * v)


@pytest.mark.parametrize("a, sigma", [(0.3, 0.7), (-2.0, 1e-30), (0.5, 1e30)])
def test_gaussian_bump_derivs_are_the_formula_and_finite_far_out(a, sigma):
    derivs = gaussian_bump(a, sigma).derivs
    # where the formula neither over- nor underflows in x, bit for bit
    x = sigma * np.concatenate((np.linspace(-45.0, 45.0, 901), [-1e3, 1e3]))
    y = np.linspace(0.0, 2.0 * math.pi, x.size)
    for got, want in zip(derivs(x, y), _unclipped_bump_derivs(a, sigma, x, y)):
        assert np.array_equal(got, want)
    # where x**2 or x / sigma**2 overflows: no warning (errors here), s_x = s_xx = 0
    far = np.array([-math.inf, -1e300, -1e200, 1e160, 1e200, 1e300, math.inf])
    v, s_x, s_y, s_xx, s_yy = derivs(far, 1.0)
    assert not np.any(v) and not np.any(s_x) and not np.any(s_xx)
    assert not np.any(s_y) and not np.any(s_yy)


def _derivs_mismatch(derivs, f_exact, points, h=1e-4):
    """Worst error of derivs(x, y) = (f, f_x, f_y, f_xx) over the points.

    f is compared with the closed form f_exact, the derivatives with
    central differences of derivs' own f at step h.
    """
    worst = 0.0
    for x, y in points:
        f, f_x, f_y, f_xx = (float(d) for d in derivs(x, y))
        east, west, north, south = (float(derivs(u, v)[0]) for u, v in
                                    ((x + h, y), (x - h, y), (x, y + h), (x, y - h)))
        worst = max(
            worst,
            abs(f - f_exact(x, y)),
            abs((east - west) / (2 * h) - f_x),
            abs((north - south) / (2 * h) - f_y),
            abs((east - 2 * f + west) / h**2 - f_xx),
        )
    return worst


_BUMP = gaussian_bump(0.3, 0.9)
_POLY = polynomial_field([[0.1, -0.3, 0.05], [0.2, 0.05, 0.0], [-0.1, 0.0, 0.0]])


def _exp_of(field):
    return lambda x, y: math.exp(field.jet(x, y)[0])


# frame and an independent closed form of its f
_FRAMES_WITH_F = [
    ("grushin", GRUSHIN, lambda x, y: x),
    ("f1-bump", FrameSpec.f1(_BUMP), _exp_of(_BUMP)),
    ("f2-bump", FrameSpec.f2(_BUMP), lambda x, y: x * _exp_of(_BUMP)(x, y)),
    ("f1-poly", FrameSpec.f1(_POLY), _exp_of(_POLY)),
    ("f2-poly", FrameSpec.f2(_POLY), lambda x, y: x * _exp_of(_POLY)(x, y)),
] + [(f"alpha-{a}", FrameSpec.alpha_grushin(a), lambda x, y, a=a: abs(x) ** a)
     for a in (0.5, 1.0, 1.5, 2.5)]
# off the singular line, where every variant is smooth
_DERIV_POINTS = [(x, y) for x in (-1.3, -0.4, 0.6, 1.7) for y in (-0.8, 0.0, 1.1, 2.9)]


@pytest.mark.parametrize("name, frame, f_exact", _FRAMES_WITH_F,
                         ids=[name for name, _, _ in _FRAMES_WITH_F])
def test_derivs_match_central_differences(name, frame, f_exact):
    assert _derivs_mismatch(frame.derivs, f_exact, _DERIV_POINTS) < 1e-6


@pytest.mark.parametrize("index", [0, 1, 2, 3], ids=["f", "f_x", "f_y", "f_xx"])
@pytest.mark.parametrize("name, frame, f_exact", _FRAMES_WITH_F,
                         ids=[name for name, _, _ in _FRAMES_WITH_F])
def test_derivs_check_catches_each_corrupted_component(name, frame, f_exact, index):
    def corrupted(x, y):
        d = list(frame.derivs(x, y))
        d[index] = d[index] + 0.01
        return tuple(d)

    assert _derivs_mismatch(corrupted, f_exact, _DERIV_POINTS) > 1e-3


def test_derivs_broadcast_x_against_y():
    x = np.array([[-1.3], [0.6]])
    y = np.array([0.0, 1.1, 2.9])
    for _, frame, _ in _FRAMES_WITH_F:
        arrays = frame.derivs(x, y)
        for i, j in np.ndindex(2, 3):
            point = frame.derivs(float(x[i, 0]), float(y[j]))
            assert all(a.shape == (2, 3) for a in arrays)
            assert all(_close(float(a[i, j]), float(p)) for a, p in zip(arrays, point))


# -- curve length ----------------------------------------------------------


def test_length_horizontal_segment_is_euclidean():
    t = np.linspace(0.0, 1.0, 33)
    out = curve_length(GRUSHIN, t, t, np.zeros_like(t))
    assert out == pytest.approx(1.0, abs=1e-12)
    # crossing the singular line horizontally is still fine
    t = np.linspace(-1.0, 1.0, 65)
    out = curve_length(GRUSHIN, t, t, np.full_like(t, 2.0))
    assert out == pytest.approx(2.0, abs=1e-12)


def test_length_riemannian_circle():
    # unit circle around (3, 0) in an f = 1 frame is Euclidean
    fr = FrameSpec.f1(scalar_zero())
    th = np.linspace(0.0, 2.0 * math.pi, 4001)
    out = curve_length(fr, th, 3.0 + np.cos(th), np.sin(th))
    assert out == pytest.approx(2.0 * math.pi, rel=1e-6)


def test_length_diagonal_alpha_half():
    """The diagonal through the singular line has a finite closed-form length."""
    fr = FrameSpec.alpha_grushin(0.5)
    t = np.array([-1.0, 0.0, 1.0])
    out = curve_length(fr, t, t, t)
    assert out == pytest.approx(DIAGONAL_LENGTH, rel=1e-6)
    # sampling more nodes on the same line must not change the answer
    t = np.linspace(-1.0, 1.0, 101)
    out = curve_length(fr, t, t, t)
    assert out == pytest.approx(DIAGONAL_LENGTH, rel=1e-6)


def test_length_diagonal_grushin_is_infinite():
    t = np.array([-1.0, 1.0])
    out = curve_length(GRUSHIN, t, t, t)
    assert math.isinf(out)


def test_length_along_singular_line_is_infinite():
    out = curve_length(GRUSHIN, [0.0, 1.0], [0.0, 0.0], [0.0, 1.0])
    assert math.isinf(out)
    # even where a transversal crossing has finite length
    out = curve_length(FrameSpec.alpha_grushin(0.5), [0.0, 1.0], [0.0, 0.0], [0.0, 1.0])
    assert math.isinf(out)


@pytest.mark.parametrize("frame", [GRUSHIN, _bump_frame("f2")], ids=["grushin", "f2-bump"])
@pytest.mark.parametrize("slope", [0.3, 0.1, 0.01])
@pytest.mark.parametrize("t", [[-0.5, 0.5], np.linspace(-0.5, 0.7, 7)], ids=["2", "7"])
def test_length_shallow_crossing_of_unit_order_is_infinite(frame, slope, t):
    # f vanishes to first order on x = 0: every transversal crossing diverges
    t = np.asarray(t)
    assert math.isinf(curve_length(frame, t, t, slope * t))


@pytest.mark.parametrize("alpha", [0.8, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [2, 101])
def test_length_diagonal_near_unit_order_matches_quadrature(alpha, n):
    # on x = y = t the speed is sqrt(1 + |t|**(-2 alpha)) = |t|**(-alpha) sqrt(|t|**(2 alpha) + 1)
    oracle = 2.0 * quad(lambda t: math.sqrt(t ** (2.0 * alpha) + 1.0), 0.0, 1.0,
                        weight="alg", wvar=(-alpha, 0.0), epsabs=0.0, epsrel=1e-13)[0]
    t = np.linspace(-1.0, 1.0, n)
    assert curve_length(FrameSpec.alpha_grushin(alpha), t, t, t) == pytest.approx(oracle, rel=1e-9)


def test_length_is_parametrization_invariant():
    # identical polyline nodes, two different monotone time parametrizations
    fr = _bump_frame("f2")
    th = np.linspace(0.0, math.pi, 257)
    x = 2.0 + np.cos(th)
    y = np.sin(th)
    t_lin = np.linspace(0.0, 1.0, th.size)
    t_cub = t_lin**3
    a = curve_length(fr, t_lin, x, y)
    b = curve_length(fr, t_cub, x, y)
    assert a == pytest.approx(b, rel=1e-9)


def test_length_input_validation():
    with pytest.raises(ValueError):
        curve_length(GRUSHIN, [0.0, 1.0], [0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        curve_length(GRUSHIN, [1.0, 0.0], [0.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("which", ["t", "x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_length_rejects_samples_that_are_not_finite(which, bad):
    samples = {"t": [0.0, 0.5, 1.0], "x": [1.0, 1.5, 2.0], "y": [0.0, 0.3, 0.1]}
    samples[which][1] = bad
    with pytest.raises(ValueError, match="curve_length: need finite samples"):
        curve_length(GRUSHIN, samples["t"], samples["x"], samples["y"])


def _reference_simpson(g, a, b, tol, depth=28):
    """Recursive adaptive Simpson on one interval, in plain floats."""
    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * tol or not math.isfinite(err):
            return left + right + err / 15.0
        return (rec(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    return rec(a, b, fa, fm, fb, (b - a) * (fa + 4.0 * fm + fb) / 6.0, tol, depth)


def _reference_length(frame, t, x, y):
    """curve_length one segment at a time, through the float evaluator fsq_jet."""
    order = frame.alpha if frame.variant == "alpha-grushin" else 1.0
    total = 0.0
    for t0, t1, x0, x1, y0, y1 in zip(t[:-1], t[1:], x[:-1], x[1:], y[:-1], y[1:]):
        dt = t1 - t0
        if dt == 0.0:
            continue
        vx, vy = (x1 - x0) / dt, (y1 - y0) / dt
        tol = 1e-10 * max(1.0, dt)
        if vy == 0.0:
            total += abs(vx) * dt
            continue
        if frame.is_singular_variant and x0 == 0.0 and vx == 0.0:
            return math.inf
        tau0 = -x0 / vx if vx != 0.0 else math.nan
        if frame.is_singular_variant and 0.0 <= tau0 <= dt:
            if order >= 1.0:
                return math.inf
            p = 1.0 / (1.0 - order)
            c = vy / abs(vx) ** order
            for span in (tau0, dt - tau0):
                total += _reference_simpson(lambda u: p * math.hypot(vx * u ** (p - 1.0), c),
                                            0.0, span ** (1.0 / p), tol)
            continue

        def speed(tau):
            fsq = frame.fsq_jet(x0 + vx * tau, y0 + vy * tau)[0]
            return math.sqrt(vx * vx + vy * vy / fsq) if fsq != 0.0 else math.inf

        total += _reference_simpson(speed, 0.0, dt, tol)
    return total


_LENGTH_FRAMES = {
    "grushin": GRUSHIN,
    "f1-bump": _bump_frame("f1"),
    "f2-bump": _bump_frame("f2"),
    "f2-poly": FrameSpec.f2(polynomial_field([[0.1, 0.2], [-0.3, 0.05], [0.02, 0.0]])),
    **{f"alpha-{a}": FrameSpec.alpha_grushin(a) for a in (0.5, 0.75, 0.95, 1.5)},
}


def _length_path(name, n):
    s = np.linspace(0.0, 1.0, n)
    if name == "arc":  # off the singular line
        return s, 1.2 + 0.5 * np.cos(2 * np.pi * s), 0.8 * np.sin(2 * np.pi * s)
    if name == "crossing":  # crosses x = 0 once, transversally
        return s, s - 0.4 + 0.1 * np.sin(3 * s), 0.7 * s + 0.2 * s * s
    if name == "steep":  # long segments near x = 0.2 that subdivide deeply
        return s**2, 0.2 + 1.8 * s, -1.0 + 4.0 * s
    # a repeated time, level segments and a crossing
    t, y = s.copy(), np.sin(3 * s)
    t[n // 2] = t[n // 2 - 1]
    y[: n // 3] = 0.25
    return t, -0.9 + 1.7 * s, y


@pytest.mark.parametrize("n", [2, 7, 2000])
@pytest.mark.parametrize("path", ["arc", "crossing", "steep", "mixed"])
@pytest.mark.parametrize("name", sorted(_LENGTH_FRAMES))
def test_length_matches_the_scalar_reference(name, path, n):
    frame = _LENGTH_FRAMES[name]
    t, x, y = _length_path(path, n)
    want = _reference_length(frame, t.tolist(), x.tolist(), y.tolist())
    got = curve_length(frame, t, x, y)
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _count_derivs(monkeypatch):
    calls = []
    f = FrameSpec.f

    def counted(self, x, y):
        calls.append(np.size(x))
        return f(self, x, y)

    monkeypatch.setattr(FrameSpec, "f", counted)
    return calls


@pytest.mark.parametrize("frame", [GRUSHIN, FrameSpec.alpha_grushin(0.5),
                                   FrameSpec.f1(scalar_zero())],
                         ids=["grushin", "alpha-0.5", "f1-zero"])
def test_length_reads_derivs_once_per_level_whatever_the_sample_count(monkeypatch, frame):
    calls = _count_derivs(monkeypatch)
    # a vertical line off x = 0 has constant speed: every segment stops at level 0
    for n in (2, 2000):
        t = np.linspace(0.0, 1.0, n)
        curve_length(frame, t, np.full(n, 0.7), 2.0 * t)
    assert calls == [5, 5 * 1999]


def test_length_refines_one_derivs_call_per_level(monkeypatch):
    calls = _count_derivs(monkeypatch)
    # one long segment near x = 0.2: level 0 evaluates its five nodes, each later
    # level the two quarter points of every interval still open, to depth 28 at most
    curve_length(GRUSHIN, *_length_path("steep", 2))
    assert calls[0] == 5
    assert 1 < len(calls) <= 29
    assert all(c % 4 == 0 for c in calls[1:])


_F_FRAMES = {
    **_LENGTH_FRAMES,  # "grushin" is f2 over scalar_zero
    "f1-zero": FrameSpec.f1(scalar_zero()),
    # a zero field that is not scalar_zero: 0 * inf makes s nan at x = +-inf
    "f2-poly-zero": FrameSpec.f2(polynomial_field([[0.0]])),
}


@pytest.mark.parametrize("name", sorted(_F_FRAMES))
def test_f_is_the_first_component_of_derivs_bit_for_bit(name):
    frame = _F_FRAMES[name]
    xs = np.array([0.0, -0.0, 0.4, -1.7, 5e-324, math.inf, -math.inf, math.nan])
    ys = np.array([0.0, 1.1, 3.0])
    cases = [(float(x), float(y)) for x in xs for y in ys]  # floats
    cases += [(xs, np.full_like(xs, 1.1)), (xs[:, None], ys)]  # arrays, broadcast
    cases += [(float(x), ys) for x in xs]  # a float x against an array y
    for x, y in cases:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got = frame.f(x, y)
        # derivs also forms f_x and f_xx, which meet inf * 0 at x = +-inf
        with np.errstate(all="ignore"):
            want = frame.derivs(x, y)[0]
        assert np.shape(got) == np.shape(want), (x, y)
        assert _bits(np.ravel(got)) == _bits(np.ravel(want)), (x, y)
        # only the polynomial field's own Horner step 0 * inf may warn
        assert not seen or (name.startswith("f2-poly") and not np.isfinite(x).all()), (x, y)


# -- configuration ---------------------------------------------------------


def test_frame_from_config_variants():
    fr = frame_from_config({"variant": "grushin"})
    assert fr.is_exact_grushin

    fr = frame_from_config({"variant": "alpha-grushin", "alpha": 1.5})
    assert fr.alpha == 1.5

    # f2 without a scale field is the exact Grushin plane; "zero" names that field
    fr = frame_from_config({"variant": "f2"})
    assert fr.is_exact_grushin

    fr = frame_from_config({"variant": "f1", "log_scale": "zero"})
    assert fr.variant == "f1" and fr.log_scale.is_zero

    fr = frame_from_config({"variant": "f2", "log_scale": "gaussian-bump(0.3,0.7)"})
    assert not fr.is_exact_grushin
    assert fr.fsq_jet is fr.log_scale.jet.f2_fsq_jet
    for x, y in ((0.4, 3.0), (-1.2, 0.5)):  # the parsed bump's floats
        assert _bits(fr.fsq_jet(x, y)) == _bits(gaussian_bump(0.3, 0.7).jet.f2_fsq_jet(x, y))

    fr = frame_from_config({"variant": "f1", "log_scale": [[0.1], [0.2]]})
    x, y = np.array([0.0, 0.4, -1.5]), np.array([0.3, -2.0, 1.0])
    for got, want in zip(fr.log_scale.derivs(x, y), polynomial_field([[0.1], [0.2]]).derivs(x, y)):
        assert np.array_equal(got, want)


def test_frame_from_config_rejects_bad_input():
    with pytest.raises(ValueError):
        frame_from_config({"variant": "grushin", "bogus": 1})
    with pytest.raises(ValueError):
        frame_from_config({"variant": "grushin", "alpha": 2.0})
    with pytest.raises(ValueError):
        frame_from_config({"variant": "alpha-grushin"})
    with pytest.raises(ValueError):
        frame_from_config({"variant": "f2", "log_scale": "mystery"})
    with pytest.raises(ValueError):
        frame_from_config({"variant": "no-such-frame"})



@pytest.mark.parametrize("cfg, named", [
    ({"variant": "f1", "alpha": 2.0}, "variant 'f1' takes no 'alpha'"),
    ({"variant": "f2", "alpha": 2.0, "log_scale": "zero"}, "variant 'f2' takes no 'alpha'"),
    ({"variant": "alpha-grushin", "alpha": 1.5, "log_scale": "gaussian-bump(0.3,0.7)"},
     "variant 'alpha-grushin' takes no 'log_scale'"),
    ({"variant": "grushin", "alpha": 2.0, "log_scale": "zero"},
     "variant 'grushin' takes no 'alpha' or 'log_scale'"),
    ({"variant": "f2", "log_scale": {"preset": "gaussian-bump", "amplitude": 0.3,
                                     "sigma": 0.7}}, "cannot parse log_scale"),
    ({"variant": "f2", "log_scale": {"preset": "polynomial", "coeffs": [[0.1]]}},
     "cannot parse log_scale"),
    ({"variant": ["f2"]}, "unknown frame variant"),
    ("grushin", "frame config must be a dict"),
    ([("variant", "f2")], "frame config must be a dict"),
], ids=["f1-alpha", "f2-alpha", "alpha-log-scale", "grushin-both", "dict-bump",
        "dict-polynomial", "variant-list", "str", "list"])
def test_frame_from_config_names_what_it_rejects(cfg, named):
    with pytest.raises(ValueError, match=named):
        frame_from_config(cfg)


# nan, inf, and sigmas whose sigma**2 or sigma**4 under- or overflows
@pytest.mark.parametrize("sigma", [0.0, -0.7, math.nan, math.inf, 1e-200, 1e-80, 1e200])
def test_gaussian_bump_needs_positive_sigma(sigma):
    with pytest.raises(ValueError, match="gaussian-bump sigma must be positive"):
        gaussian_bump(0.3, sigma)


@pytest.mark.parametrize("variant, kwargs, named", [
    ("martinet", {}, "unknown frame variant 'martinet'"),
    ("grushin", {}, "unknown frame variant 'grushin'"),
    ("f1", {}, "variant 'f1' needs a log_scale field"),
    ("f2", {"alpha": 1.0}, "variant 'f2' needs a log_scale field"),
    ("alpha-grushin", {"alpha": 1.0, "log_scale": scalar_zero()},
     "alpha-grushin takes no log_scale field"),
])
def test_frame_spec_rejects_bad_variants(variant, kwargs, named):
    with pytest.raises(ValueError, match=named):
        FrameSpec(variant, **kwargs)
