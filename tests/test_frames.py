import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.integrate import quad

from arslab import (
    FrameSpec,
    NotAdmissible,
    Point,
    ScalarField,
    SingularPoint,
    curve_length,
    divergence,
    frame_from_config,
    frame_vectors,
    gauge_transform,
    gaussian_bump,
    geodesic_flow,
    gradient,
    laplace_beltrami_coeffs,
    metric_at,
    polynomial_field,
    scalar_zero,
)

GRUSHIN = FrameSpec.grushin()

# closed form of the integral of sqrt(1 + 1/|t|) over [-1, 1]
DIAGONAL_LENGTH = 2.0 * (math.sqrt(2.0) + math.asinh(1.0))


def _bump_frame(variant="f2"):
    scale = gaussian_bump(0.3, 0.9)
    if variant == "f1":
        return FrameSpec.f1(scale)
    return FrameSpec.f2(scale)


# -- metric, curvature, frame vectors ------------------------------------


def test_grushin_metric_values():
    md = metric_at(GRUSHIN, Point(2.0, 0.3))
    assert md.g11 == 1.0
    assert md.g22 == pytest.approx(0.25, rel=1e-15)
    assert md.area_density == pytest.approx(0.5, rel=1e-15)
    assert md.curvature == pytest.approx(-0.5, rel=1e-15)

    md = metric_at(GRUSHIN, Point(-0.5, 7.0))
    assert md.g22 == pytest.approx(4.0, rel=1e-15)
    assert md.area_density == pytest.approx(2.0, rel=1e-15)
    assert md.curvature == pytest.approx(-8.0, rel=1e-15)


def test_grushin_curvature_scaling():
    # K * x**2 must be the constant -2 at every non-singular point
    for x in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
        md = metric_at(GRUSHIN, Point(x, 1.3))
        assert abs(md.curvature * x * x + 2.0) <= 1e-13


def test_alpha_curvature_formula():
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        fr = FrameSpec.alpha_grushin(alpha)
        for x in (0.3, 1.7, -2.2):
            md = metric_at(fr, Point(x, 0.0))
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
        md = metric_at(fr, Point(x, y))
        assert md.g11 == 1.0
        assert md.g22 * fv * fv == pytest.approx(1.0, rel=1e-12)
        assert (md.area_density * abs(fv)) == pytest.approx(1.0, rel=1e-12)
        v1, v2 = frame_vectors(fr, Point(x, y))
        assert v1 == (1.0, 0.0)
        assert v2 == (0.0, fv)


def test_singular_point_rejected():
    p = Point(0.0, 1.0)
    with pytest.raises(SingularPoint):
        metric_at(GRUSHIN, p)
    with pytest.raises(SingularPoint):
        divergence(GRUSHIN, p, (1.0, 0.0), (0.0, 0.0))
    with pytest.raises(SingularPoint):
        laplace_beltrami_coeffs(GRUSHIN, p)
    # the frame itself stays defined there
    v1, v2 = frame_vectors(GRUSHIN, p)
    assert v2 == (0.0, 0.0)


def test_gradient_degenerates_along_x():
    g = gradient(GRUSHIN, Point(2.0, 1.0), (3.0, 5.0))
    assert g == (3.0, 20.0)
    # on the singular line only the transversal component survives
    g = gradient(GRUSHIN, Point(0.0, 1.0), (3.0, 5.0))
    assert g == (3.0, 0.0)


# -- divergence and Laplace-Beltrami against the weighted-measure form ---


def _fd_divergence(frame, p, vec_fn, h=1e-5):
    # (1/w) [d/dx (w Y1) + d/dy (w Y2)] with w = 1/|f|
    def wy(comp, x, y):
        return vec_fn(x, y)[comp] / abs(float(frame.derivs(x, y)[0]))

    ddx = (wy(0, p.x + h, p.y) - wy(0, p.x - h, p.y)) / (2.0 * h)
    ddy = (wy(1, p.x, p.y + h) - wy(1, p.x, p.y - h)) / (2.0 * h)
    return abs(float(frame.derivs(p.x, p.y)[0])) * (ddx + ddy)


def test_divergence_matches_weighted_measure_form():
    def vec(x, y):
        return (x * x + y, x * y)

    def dvec(x, y):
        return (2.0 * x, x)

    points = [Point(0.7, 0.2), Point(-1.3, 1.1), Point(2.0, -0.4)]
    for fr in (GRUSHIN, _bump_frame("f1"), _bump_frame("f2"),
               FrameSpec.alpha_grushin(1.5)):
        for p in points:
            got = divergence(fr, p, vec(p.x, p.y), dvec(p.x, p.y))
            want = _fd_divergence(fr, p, vec)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


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
    points = [Point(0.6, 0.5), Point(-1.1, 2.0), Point(1.8, -0.7)]
    for fr in (GRUSHIN, _bump_frame("f1"), _bump_frame("f2"),
               FrameSpec.alpha_grushin(0.75)):
        for p in points:
            a_xx, a_yy, b_x, b_y = laplace_beltrami_coeffs(fr, p)
            _, u_x, u_y, u_xx, u_yy = (float(d) for d in u.derivs(p.x, p.y))
            got = a_xx * u_xx + a_yy * u_yy + b_x * u_x + b_y * u_y
            want = _fd_laplacian(fr, u, p)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_laplace_beltrami_grushin_coeffs():
    a_xx, a_yy, b_x, b_y = laplace_beltrami_coeffs(GRUSHIN, Point(2.0, 0.0))
    assert (a_xx, a_yy) == (1.0, 4.0)
    assert b_x == pytest.approx(-0.5, rel=1e-15)
    assert b_y == 0.0


# -- scalar fields --------------------------------------------------------


def test_scalar_field_derivative_checks():
    pts = [(x, y) for x in (-1.5, -0.2, 0.4, 2.0) for y in (0.0, 1.0, 3.0)]
    # second differences at h = 1e-5 carry ~1e-6 roundoff, so gate at 1e-5
    assert gaussian_bump(0.7, 0.9).check_derivatives(pts) < 1e-5
    assert polynomial_field([[0.3, -0.2], [0.1, 0.05]]).check_derivatives(pts) < 1e-5
    assert scalar_zero().check_derivatives(pts) == 0.0


@pytest.mark.parametrize("index", [1, 2, 3, 4], ids=["s_x", "s_y", "s_xx", "s_yy"])
def test_check_derivatives_catches_each_corrupted_derivative(index):
    pts = [(x, y) for x in (-1.5, 0.4) for y in (0.0, 1.0)]
    good = gaussian_bump(0.7, 0.9)

    def derivs(x, y):
        d = list(good.derivs(x, y))
        d[index] = d[index] + 0.01
        return tuple(d)

    assert dataclasses.replace(good, derivs=derivs).check_derivatives(pts) > 1e-3


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
        for p in (Point(0.7, -1.3), Point(-1.6, 0.4)):
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
        assert all(_close(g, w) for g, w in zip(jet, want)), (field.label, jet, want)


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
    with pytest.raises(NotAdmissible):
        curve_length(GRUSHIN, t, t, t, strict=True)


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
    with pytest.raises(NotAdmissible):
        curve_length(frame, t, t, slope * t, strict=True)


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


# -- configuration ---------------------------------------------------------


def test_frame_from_config_variants():
    fr = frame_from_config({"variant": "grushin"})
    assert fr.is_exact_grushin

    fr = frame_from_config({"variant": "alpha-grushin", "alpha": 1.5})
    assert fr.alpha == 1.5

    fr = frame_from_config({"variant": "f2", "log_scale": "gaussian-bump(0.3,0.7)"})
    assert not fr.is_exact_grushin
    assert fr.log_scale.label == "gaussian-bump(0.3,0.7)"

    fr = frame_from_config({"variant": "f1", "log_scale": [[0.1], [0.2]]})
    assert fr.log_scale.label == "polynomial"

    fr = frame_from_config({"variant": "f2", "log_scale": {"preset": "zero"}})
    assert fr.is_exact_grushin


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


@pytest.mark.parametrize("sigma", [0.0, -0.7])
def test_gaussian_bump_needs_positive_sigma(sigma):
    with pytest.raises(ValueError, match="gaussian-bump sigma must be positive"):
        gaussian_bump(0.3, sigma)


@pytest.mark.parametrize("variant, kwargs, named", [
    ("martinet", {}, "unknown frame variant 'martinet'"),
    ("grushin", {}, "unknown frame variant 'grushin'"),
    ("f1", {}, "variant 'f1' needs a log_scale field"),
    ("f2", {"alpha": 1.0}, "variant 'f2' needs a log_scale field"),
])
def test_frame_spec_rejects_bad_variants(variant, kwargs, named):
    with pytest.raises(ValueError, match=named):
        FrameSpec(variant, **kwargs)
