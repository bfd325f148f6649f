"""Normal-form frames for two-dimensional almost-Riemannian structures.

A structure is described by a global orthonormal frame

    X1 = (1, 0),    X2 = (0, f(x, y)),

where the frame function f depends on the variant:

    "f1"             f = exp(s)         never vanishes (Riemannian)
    "f2"             f = x * exp(s)     vanishes on the line x = 0
    "alpha-grushin"  f = |x|**alpha     vanishes on the line x = 0

with s = s(x, y) a smooth scalar field supplied together with analytic
first and second derivatives.  The plain Grushin plane is "f2" with
s identically zero.  The three-dimensional Martinet case is not a frame
here; arslab.martinet treats its mode decomposition directly.

All pointwise quantities (frame vectors, metric, area density, Gaussian
curvature, gradient, divergence, Laplace-Beltrami coefficients) are
evaluated from f and its derivatives, and curve_length integrates the
induced length of sampled paths.  Whether a path that meets the singular
line has finite length follows from the order to which f vanishes there
(1 for f2, alpha for alpha-grushin), not from the quadrature.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NotAdmissible, SingularPoint

__all__ = [
    "ScalarField",
    "scalar_zero",
    "gaussian_bump",
    "polynomial_field",
    "Point",
    "FrameSpec",
    "MetricData",
    "frame_vectors",
    "metric_at",
    "gradient",
    "divergence",
    "laplace_beltrami_coeffs",
    "curve_length",
    "frame_from_config",
]

VARIANT_F1 = "f1"
VARIANT_F2 = "f2"
VARIANT_ALPHA = "alpha-grushin"


@dataclass(frozen=True)
class ScalarField:
    """A smooth scalar field bundled with analytic derivative evaluators.

    derivs(x, y) -> (s, s_x, s_y, s_xx, s_yy) accepts floats or numpy
    arrays, broadcasts, and evaluates s once.  jet(x, y) -> (s, s_x, s_y)
    is the plain-float evaluator for one point, built from the math
    module; pointwise loops (geodesic RK4, curve_length) call it.  is_zero
    marks the identically-zero field so callers can take exact shortcuts.
    """

    derivs: Callable
    jet: Callable
    is_zero: bool = False
    label: str = "custom"

    def check_derivatives(self, points):
        """Max mismatch between analytic derivatives and central differences.

        Returns the worst absolute error over the given (x, y) points; the
        expected magnitude is O(h**2) times the local third derivative,
        with step h = 1e-5.
        """
        h = 1e-5
        worst = 0.0
        for x, y in points:
            s, s_x, s_y, s_xx, s_yy = self.derivs(x, y)
            east, west, north, south = (self.derivs(u, v)[0] for u, v in
                                        ((x + h, y), (x - h, y), (x, y + h), (x, y - h)))
            worst = max(
                worst,
                abs((east - west) / (2 * h) - s_x),
                abs((north - south) / (2 * h) - s_y),
                abs((east - 2 * s + west) / h**2 - s_xx),
                abs((north - 2 * s + south) / h**2 - s_yy),
            )
        return worst


def scalar_zero():
    """The identically-zero scalar field."""
    def derivs(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))
        return z, z, z, z, z

    return ScalarField(derivs=derivs, jet=lambda x, y: (0.0, 0.0, 0.0), is_zero=True,
                       label="zero")


def gaussian_bump(amplitude, sigma):
    """A smooth localized bump, periodic in y with period 2*pi.

    s(x, y) = amplitude * exp(-x**2 / (2 sigma**2))
                        * exp((cos(y - pi) - 1) / sigma**2)

    The y factor is a von Mises profile so the same field works on the
    plane and on the cylinder.  The field decays like a Gaussian in x and
    is numerically constant for |x| beyond about 12*sigma.
    """
    if sigma <= 0:
        raise ValueError("gaussian-bump sigma must be positive")
    a = float(amplitude)
    s2 = float(sigma) ** 2

    def derivs(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v = a * np.exp(-x**2 / (2 * s2)) * np.exp((np.cos(y - math.pi) - 1.0) / s2)
        sin = np.sin(y - math.pi)
        return (v, -(x / s2) * v, -(sin / s2) * v, (x**2 / s2**2 - 1.0 / s2) * v,
                (sin**2 / s2**2 - np.cos(y - math.pi) / s2) * v)

    def jet(x, y):
        v = a * math.exp(-(x * x) / (2 * s2)) * math.exp((math.cos(y - math.pi) - 1.0) / s2)
        return v, -(x / s2) * v, -(math.sin(y - math.pi) / s2) * v

    return ScalarField(derivs=derivs, jet=jet, is_zero=(a == 0.0),
                       label=f"gaussian-bump({amplitude},{sigma})")


def _polyder2d(c, axis):
    c = np.asarray(c, dtype=float)
    if c.shape[axis] <= 1:
        return np.zeros((1, 1))
    k = np.arange(1, c.shape[axis])
    if axis == 0:
        return c[1:, :] * k[:, None]
    return c[:, 1:] * k[None, :]


def _horner2d(cols, x, y):
    """sum_ij cols[j][i] x**i y**j in polyval2d's order: Horner in x, then in y."""
    out = 0.0
    for col in reversed(cols):
        acc = 0.0
        for cij in reversed(col):
            acc = acc * x + cij
        out = out * y + acc
    return out


def polynomial_field(coeffs):
    """Polynomial scalar field sum_ij c[i][j] x**i y**j."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    cx = _polyder2d(c, 0)
    cy = _polyder2d(c, 1)
    cxx = _polyder2d(cx, 0)
    cyy = _polyder2d(cy, 1)
    is_zero = not np.any(c)

    def derivs(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return tuple(npoly.polyval2d(x, y, cc) for cc in (c, cx, cy, cxx, cyy))

    c_cols, cx_cols, cy_cols = (cc.T.tolist() for cc in (c, cx, cy))

    def jet(x, y):
        return _horner2d(c_cols, x, y), _horner2d(cx_cols, x, y), _horner2d(cy_cols, x, y)

    return ScalarField(derivs=derivs, jet=jet, is_zero=is_zero, label="polynomial")


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class FrameSpec:
    """Everything needed to evaluate a frame and its derivatives.

    Two evaluators: derivs(x, y) -> (f, f_x, f_y, f_xx) broadcasts over
    numpy arrays, and fsq_jet(x, y) -> (f**2, f * f_x, f * f_y) takes one
    point in plain floats for the geodesic and curve-length loops.
    """

    variant: str
    log_scale: Optional[ScalarField] = None
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.variant not in (VARIANT_F1, VARIANT_F2, VARIANT_ALPHA):
            raise ValueError(f"unknown frame variant {self.variant!r}")
        if self.variant in (VARIANT_F1, VARIANT_F2) and self.log_scale is None:
            raise ValueError(f"variant {self.variant!r} needs a log_scale field")
        if self.variant == VARIANT_ALPHA:
            if self.alpha is None or not 0.0 < self.alpha < math.inf:
                raise ValueError(f"alpha-grushin needs finite alpha > 0, got {self.alpha}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def grushin():
        """The Grushin plane: f = x."""
        return FrameSpec(VARIANT_F2, log_scale=scalar_zero())

    @staticmethod
    def f1(log_scale):
        return FrameSpec(VARIANT_F1, log_scale=log_scale)

    @staticmethod
    def f2(log_scale):
        return FrameSpec(VARIANT_F2, log_scale=log_scale)

    @staticmethod
    def alpha_grushin(alpha):
        return FrameSpec(VARIANT_ALPHA, alpha=float(alpha))

    # -- frame function and derivatives ---------------------------------

    @property
    def is_exact_grushin(self):
        return self.variant == VARIANT_F2 and self.log_scale.is_zero

    @property
    def is_singular_variant(self):
        """True when the frame degenerates on the line x = 0."""
        return self.variant in (VARIANT_F2, VARIANT_ALPHA)

    def derivs(self, x, y):
        """(f, f_x, f_y, f_xx) at float or array points, broadcasting x against y.

        One evaluation of the scale field per call.  For alpha-grushin at
        x = 0, f_x and f_xx follow the power rule: 0 where the exponent
        is positive, inf or nan where it is negative.
        """
        if self.variant == VARIANT_ALPHA:
            x = np.broadcast_arrays(np.asarray(x, dtype=float), y)[0]
            a = self.alpha
            ax = np.abs(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                return (ax**a, a * np.sign(x) * ax ** (a - 1.0), np.zeros_like(ax),
                        a * (a - 1.0) * ax ** (a - 2.0))
        x = np.asarray(x, dtype=float)
        s, sx, sy, sxx, _ = self.log_scale.derivs(x, y)
        e = np.exp(s)
        if self.variant == VARIANT_F1:
            return e, sx * e, e * sy, (sxx + sx**2) * e
        f = x * e
        return f, (1.0 + x * sx) * e, f * sy, (2.0 * sx + x * sxx + x * sx**2) * e

    def fsq_jet(self, x, y):
        """(f**2, f * f_x, f * f_y) at one point, in plain floats.

        These are f**2 and the gradient of f**2 / 2, all the Hamiltonian
        flow needs.  For alpha-grushin at x = 0, f * f_x is 0 when
        alpha >= 1/2 and inf below, the limit of |x|**(2 alpha - 1);
        elsewhere f * f_x is formed in derivs' operation order, so the two
        evaluators agree bit for bit.
        """
        if self.variant == VARIANT_ALPHA:
            a = self.alpha
            ax = abs(x)
            if ax == 0.0:
                return 0.0, (0.0 if a >= 0.5 else math.inf), 0.0
            f = ax**a
            return f * f, math.copysign(f * (a * ax ** (a - 1.0)), x), 0.0
        s, s_x, s_y = self.log_scale.jet(x, y)
        e = math.exp(s)
        if self.variant == VARIANT_F1:
            f, f_x = e, s_x * e
        else:
            f, f_x = x * e, (1.0 + x * s_x) * e
        fsq = f * f
        return fsq, f * f_x, fsq * s_y


@dataclass(frozen=True)
class MetricData:
    """Metric and curvature data at one non-singular point."""

    g11: float
    g22: float
    area_density: float
    curvature: float
    f: float
    f_dx: float


def frame_vectors(frame, p):
    """The orthonormal frame at p; defined everywhere, including x = 0."""
    fv = float(frame.derivs(p[0], p[1])[0])
    return ((1.0, 0.0), (0.0, fv))


def _regular_derivs(frame, p, who):
    """frame.derivs at p as floats; SingularPoint where f vanishes."""
    fv, fx, fy, fxx = (float(d) for d in frame.derivs(p[0], p[1]))
    if fv == 0.0:
        raise SingularPoint(f"{who}: frame degenerates at {tuple(p)}")
    return fv, fx, fy, fxx


def metric_at(frame, p):
    """Metric, area density and Gaussian curvature at a non-singular point.

    g = diag(1, 1/f**2), area density 1/|f|, and the curvature follows
    from the frame function alone:

        K = (f * f_xx - 2 * f_x**2) / f**2.
    """
    fv, fx, _, fxx = _regular_derivs(frame, p, "metric_at")
    curv = (fv * fxx - 2.0 * fx * fx) / fv**2
    return MetricData(
        g11=1.0,
        g22=1.0 / fv**2,
        area_density=1.0 / abs(fv),
        curvature=curv,
        f=fv,
        f_dx=fx,
    )


def gradient(frame, p, dvalue):
    """Metric gradient of a function with differential dvalue = (d/dx, d/dy).

    Equals (d/dx, f**2 * d/dy); well defined on the singular line, where
    it degenerates to a multiple of (1, 0).
    """
    fv = float(frame.derivs(p[0], p[1])[0])
    return (float(dvalue[0]), fv * fv * float(dvalue[1]))


def divergence(frame, p, vec, dvec):
    """Divergence of a vector field w.r.t. the intrinsic area measure.

    vec = (Y1, Y2) at p, dvec = (dY1/dx, dY2/dy).  The weight 1/|f|
    contributes -(f_x/f) Y1 - (f_y/f) Y2; blows up on the singular line.
    """
    fv, fx, fy, _ = _regular_derivs(frame, p, "divergence")
    return float(dvec[0]) + float(dvec[1]) - (fx / fv) * float(vec[0]) - (fy / fv) * float(vec[1])


def laplace_beltrami_coeffs(frame, p):
    """Coefficients (a_xx, a_yy, b_x, b_y) of the Laplace-Beltrami operator.

    The operator acts as a_xx d2/dx2 + a_yy d2/dy2 + b_x d/dx + b_y d/dy
    with a_xx = 1, a_yy = f**2, b_x = -f_x/f, b_y = f*f_y.  The first
    order x coefficient blows up on the singular line.
    """
    fv, fx, fy, _ = _regular_derivs(frame, p, "laplace_beltrami_coeffs")
    return (1.0, fv * fv, -fx / fv, fv * fy)


# -- curve length -------------------------------------------------------


def _adaptive_simpson(g, a, b, tol, depth=28):
    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _simpson_rec(g, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_rec(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    err = left + right - whole
    # non-finite samples cannot refine away; stop rather than recurse
    if depth <= 0 or abs(err) <= 15.0 * tol or not math.isfinite(err):
        return left + right + err / 15.0
    half = 0.5 * tol
    return (
        _simpson_rec(g, a, m, fa, flm, fm, left, half, depth - 1)
        + _simpson_rec(g, m, b, fm, frm, fb, right, half, depth - 1)
    )


# curve_length's Simpson tolerance
_LENGTH_TOL = 1e-10


def curve_length(frame, t, x, y, *, strict=False):
    """Length of a sampled path under the almost-Riemannian metric.

    The path is the piecewise-linear interpolant of the samples
    (t[i], x[i], y[i]); between samples the velocity is the finite
    difference of consecutive samples.  On the singular variants f
    vanishes on x = 0 like |x|**order, with order 1 for f2 and alpha for
    alpha-grushin, so a segment with vy != 0 that meets the line has
    finite length exactly when order < 1.  Such a segment is integrated
    on each side of its crossing time tau0 after the substitution
    |tau - tau0| = u**p, p = 1 / (1 - order), which leaves a bounded
    integrand.  A segment that meets the line when order >= 1, or runs
    along it, has infinite length: math.inf is returned, or
    NotAdmissible is raised when strict=True.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (t.ndim == 1 and t.shape == x.shape == y.shape and t.size >= 2):
        raise ValueError("curve_length: need 1-d samples t, x, y of equal length >= 2")
    if np.any(np.diff(t) < 0):
        raise ValueError("curve_length: t must be non-decreasing")

    def declare_infinite():
        if strict:
            raise NotAdmissible("curve_length: path crosses the singular line non-tangentially")
        return math.inf

    singular = frame.is_singular_variant
    order = frame.alpha if frame.variant == VARIANT_ALPHA else 1.0
    fsq_jet = frame.fsq_jet
    t, x, y = t.tolist(), x.tolist(), y.tolist()
    total = 0.0
    for i in range(len(t) - 1):
        dt = t[i + 1] - t[i]
        if dt == 0.0:
            continue
        x0, y0 = x[i], y[i]
        vx = (x[i + 1] - x[i]) / dt
        vy = (y[i + 1] - y[i]) / dt
        tol = _LENGTH_TOL * max(1.0, dt)

        def speed(tau):
            # tau measured from t[i]; the speed is infinite where f vanishes
            fsq = fsq_jet(x0 + vx * tau, y0 + vy * tau)[0]
            return math.sqrt(vx * vx + vy * vy / fsq) if fsq != 0.0 else math.inf

        if vy == 0.0:
            total += abs(vx) * dt
            continue
        if not singular:
            total += _adaptive_simpson(speed, 0.0, dt, tol)
            continue

        # Singular variants: f vanishes exactly where x(tau) = 0.
        if x0 == 0.0 and vx == 0.0:
            return declare_infinite()  # runs along the singular line with vy != 0
        tau_zero = -x0 / vx if vx != 0.0 else math.nan
        if not 0.0 <= tau_zero <= dt:
            total += _adaptive_simpson(speed, 0.0, dt, tol)
            continue
        if order >= 1.0:
            return declare_infinite()

        # Only alpha-grushin gets here, where f = |vx (tau - tau0)|**alpha on
        # the segment, so speed * dtau/du = p * hypot(vx u**(p - 1), vy / |vx|**alpha).
        p = 1.0 / (1.0 - order)
        c = vy / abs(vx) ** order

        def smoothed(u):
            return p * math.hypot(vx * u ** (p - 1.0), c)

        for span in (tau_zero, dt - tau_zero):
            total += _adaptive_simpson(smoothed, 0.0, span ** (1.0 / p), tol)
    return total


# -- configuration ------------------------------------------------------

_BUMP_RE = re.compile(r"^gaussian-bump\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


def _scale_from_config(spec):
    if spec is None or spec == "zero" or spec == {"preset": "zero"}:
        return scalar_zero()
    if isinstance(spec, str):
        m = _BUMP_RE.match(spec)
        if m:
            return gaussian_bump(float(m.group(1)), float(m.group(2)))
        raise ValueError(f"unknown log_scale preset {spec!r}")
    if isinstance(spec, list):
        return polynomial_field(spec)
    raise ValueError(f"cannot parse log_scale from {spec!r}")


# the frame config keys each variant takes besides "variant"
_VARIANT_KEYS = {"grushin": set(), VARIANT_F1: {"log_scale"}, VARIANT_F2: {"log_scale"},
                 VARIANT_ALPHA: {"alpha"}}


def frame_from_config(cfg):
    """Build a FrameSpec from a plain dict (e.g. parsed JSON).

    Keys: variant (default "grushin", shorthand for f2 with zero scale),
    alpha for alpha-grushin (required) and log_scale for f1 and f2.
    Unknown keys, and keys the variant does not take, are rejected.
    """
    if not isinstance(cfg, dict):
        raise ValueError("frame config must be a dict")
    extra = set(cfg) - {"variant", "alpha", "log_scale"}
    if extra:
        raise ValueError(f"unknown frame config keys {sorted(extra)}")
    variant = cfg.get("variant", "grushin")
    if not isinstance(variant, str) or variant not in _VARIANT_KEYS:
        raise ValueError(f"unknown frame variant {variant!r}")
    ignored = set(cfg) - {"variant"} - _VARIANT_KEYS[variant]
    if ignored:
        raise ValueError(f"variant {variant!r} takes no "
                         + " or ".join(repr(k) for k in sorted(ignored)))
    if variant == "grushin":
        return FrameSpec.grushin()
    if variant == VARIANT_ALPHA:
        if "alpha" not in cfg:
            raise ValueError("alpha-grushin needs key 'alpha'")
        return FrameSpec.alpha_grushin(float(cfg["alpha"]))
    return FrameSpec(variant, log_scale=_scale_from_config(cfg.get("log_scale")))
