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
induced length of sampled paths including the improper case where a path
meets the singular line.
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

    For the polynomial and bump fields the derivative evaluators are
    analytic.
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
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("alpha-grushin needs alpha > 0")

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

    def _scaled(self, x, y):
        """(f, e**s, (s, s_x, s_y, s_xx, s_yy)) of an f1/f2 frame, from one derivs call."""
        d = self.log_scale.derivs(x, y)
        e = np.exp(d[0])
        return (e if self.variant == VARIANT_F1 else x * e), e, d

    def f(self, x, y):
        x = np.asarray(x, dtype=float)
        if self.variant == VARIANT_ALPHA:
            return np.abs(x) ** self.alpha
        return self._scaled(x, y)[0]

    def f_dx(self, x, y):
        x = np.asarray(x, dtype=float)
        if self.variant == VARIANT_ALPHA:
            a = self.alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                return a * np.sign(x) * np.abs(x) ** (a - 1.0)
        _, e, (_, sx, _, _, _) = self._scaled(x, y)
        if self.variant == VARIANT_F1:
            return sx * e
        return (1.0 + x * sx) * e

    def f_dy(self, x, y):
        x = np.asarray(x, dtype=float)
        if self.variant == VARIANT_ALPHA:
            return np.zeros_like(x)
        f, _, d = self._scaled(x, y)
        return f * d[2]

    def f_dxx(self, x, y):
        x = np.asarray(x, dtype=float)
        if self.variant == VARIANT_ALPHA:
            a = self.alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                return a * (a - 1.0) * np.abs(x) ** (a - 2.0)
        _, e, (_, sx, _, sxx, _) = self._scaled(x, y)
        if self.variant == VARIANT_F1:
            return (sxx + sx**2) * e
        return (2.0 * sx + x * sxx + x * sx**2) * e

    def f_squared(self, x, y):
        x = np.asarray(x, dtype=float)
        if self.variant == VARIANT_ALPHA:
            return np.abs(x) ** (2.0 * self.alpha)
        return self.f(x, y) ** 2

    def f_times_fx(self, x, y):
        """f * df/dx, which stays finite down to x = 0 for alpha >= 1/2."""
        x = np.asarray(x, dtype=float)
        if self.variant == VARIANT_ALPHA:
            a = self.alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                out = a * np.sign(x) * np.abs(x) ** (2.0 * a - 1.0)
            return np.where(x == 0.0, 0.0 if 2.0 * a - 1.0 >= 0 else np.inf, out)
        return self.f(x, y) * self.f_dx(x, y)

    def f_times_fy(self, x, y):
        x = np.asarray(x, dtype=float)
        if self.variant == VARIANT_ALPHA:
            return np.zeros_like(x)
        f, _, d = self._scaled(x, y)
        return f**2 * d[2]

    def fsq_jet(self, x, y):
        """(f**2, f * f_x, f * f_y) at one point, in plain floats.

        These are f**2 and the gradient of f**2 / 2, all the Hamiltonian
        flow needs.  For alpha-grushin at x = 0, f * f_x is 0 when
        alpha >= 1/2 and inf below, as in f_times_fx.
        """
        if self.variant == VARIANT_ALPHA:
            a = self.alpha
            two_a = 2.0 * a
            ax = abs(x)
            if ax == 0.0:
                return 0.0, (0.0 if two_a - 1.0 >= 0.0 else math.inf), 0.0
            return ax**two_a, math.copysign(a * ax ** (two_a - 1.0), x), 0.0
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
    fv = float(frame.f(p[0], p[1]))
    return ((1.0, 0.0), (0.0, fv))


def metric_at(frame, p):
    """Metric, area density and Gaussian curvature at a non-singular point.

    g = diag(1, 1/f**2), area density 1/|f|, and the curvature follows
    from the frame function alone:

        K = (f * f_xx - 2 * f_x**2) / f**2.
    """
    x, y = p[0], p[1]
    fv = float(frame.f(x, y))
    if fv == 0.0:
        raise SingularPoint(f"metric_at: frame degenerates at {tuple(p)}")
    fx = float(frame.f_dx(x, y))
    fxx = float(frame.f_dxx(x, y))
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
    fsq = float(frame.f_squared(p[0], p[1]))
    return (float(dvalue[0]), fsq * float(dvalue[1]))


def divergence(frame, p, vec, dvec):
    """Divergence of a vector field w.r.t. the intrinsic area measure.

    vec = (Y1, Y2) at p, dvec = (dY1/dx, dY2/dy).  The weight 1/|f|
    contributes -(f_x/f) Y1 - (f_y/f) Y2; blows up on the singular line.
    """
    x, y = p[0], p[1]
    fv = float(frame.f(x, y))
    if fv == 0.0:
        raise SingularPoint(f"divergence: frame degenerates at {tuple(p)}")
    fx = float(frame.f_dx(x, y))
    fy = float(frame.f_dy(x, y))
    return float(dvec[0]) + float(dvec[1]) - (fx / fv) * float(vec[0]) - (fy / fv) * float(vec[1])


def laplace_beltrami_coeffs(frame, p):
    """Coefficients (a_xx, a_yy, b_x, b_y) of the Laplace-Beltrami operator.

    The operator acts as a_xx d2/dx2 + a_yy d2/dy2 + b_x d/dx + b_y d/dy
    with a_xx = 1, a_yy = f**2, b_x = -f_x/f, b_y = f*f_y.  The first
    order x coefficient blows up on the singular line.
    """
    x, y = p[0], p[1]
    fv = float(frame.f(x, y))
    if fv == 0.0:
        raise SingularPoint(f"laplace_beltrami_coeffs: frame degenerates at {tuple(p)}")
    fx = float(frame.f_dx(x, y))
    return (1.0, fv * fv, -fx / fv, float(frame.f_times_fy(x, y)))


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


# curve_length's Simpson tolerance, window rule and refinement depth
_LENGTH_TOL = 1e-10
_DIVERGENCE_INCREMENT = 1.0
_DIVERGENCE_WINDOW = 10
_MAX_LEVELS = 60


def curve_length(frame, t, x, y, *, strict=False):
    """Length of a sampled path under the almost-Riemannian metric.

    The path is the piecewise-linear interpolant of the samples
    (t[i], x[i], y[i]); between samples the velocity is the finite
    difference of consecutive samples.  Segments crossing or touching
    the singular line are integrated as improper integrals by dyadic
    refinement toward the singular time, at most 60 levels per side.
    If the partial sums still grow by more than 1 over 10 consecutive
    refinement levels, the length is declared infinite: math.inf is
    returned, or NotAdmissible is raised when strict=True.

    The dyadic window rule separates the logarithmic blow-up of
    non-admissible crossings from convergent improper integrals; for
    exponents very close to the borderline it deliberately errs on the
    infinite side.
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

        def speed(tau):
            # tau measured from t[i]; the speed is infinite where f vanishes
            fsq = fsq_jet(x0 + vx * tau, y0 + vy * tau)[0]
            return math.sqrt(vx * vx + vy * vy / fsq) if fsq != 0.0 else math.inf

        if vy == 0.0:
            total += abs(vx) * dt
            continue
        if not singular:
            total += _adaptive_simpson(speed, 0.0, dt, _LENGTH_TOL * max(1.0, dt))
            continue

        # Singular variants: f vanishes exactly where x(tau) = 0.
        if x0 == 0.0 and vx == 0.0:
            return declare_infinite()  # runs along the singular line with vy != 0
        if vx != 0.0:
            tau_zero = -x0 / vx
        else:
            tau_zero = math.nan
        if not (0.0 <= tau_zero <= dt) or math.isnan(tau_zero):
            total += _adaptive_simpson(speed, 0.0, dt, _LENGTH_TOL * max(1.0, dt))
            continue

        # Improper segment: integrate each side by dyadic refinement
        # toward tau_zero.
        for lo, hi in ((0.0, tau_zero), (tau_zero, dt)):
            span = hi - lo
            if span == 0.0:
                continue
            toward_lo = lo == tau_zero  # singularity at the lo end
            side_sum = 0.0
            window = []
            contrib_prev = None
            ratio = None
            contrib = 0.0
            for lev in range(1, _MAX_LEVELS + 1):
                outer = span * 2.0 ** (1 - lev)
                inner = span * 2.0 ** (-lev)
                if toward_lo:
                    a, b = lo + inner, lo + outer
                    if a <= lo or not a < b:  # shell below float resolution
                        break
                else:
                    a, b = hi - outer, hi - inner
                    if b >= hi or not a < b:
                        break
                contrib = _adaptive_simpson(speed, a, b, _LENGTH_TOL * max(1.0, span))
                side_sum += contrib
                window.append(contrib)
                if len(window) > _DIVERGENCE_WINDOW:
                    window.pop(0)
                # log-divergence signature: the window still carries more
                # than the increment AND per-level contributions have
                # stopped decaying (convergent improper integrals decay
                # geometrically, so deep windows always drain)
                if (len(window) == _DIVERGENCE_WINDOW
                        and sum(window) > _DIVERGENCE_INCREMENT
                        and window[-1] > 0.5 * window[0]):
                    return declare_infinite()
                if contrib_prev is not None and contrib_prev > 0.0:
                    ratio = contrib / contrib_prev
                contrib_prev = contrib
                if contrib < 1e-13 * (1.0 + total + side_sum):
                    break
            # Geometric tail estimate for convergent improper integrals.
            if ratio is not None and 0.0 < ratio < 0.97:
                side_sum += contrib * ratio / (1.0 - ratio)
            total += side_sum
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
    if isinstance(spec, dict):
        known = {"preset", "amplitude", "sigma", "coeffs"}
        extra = set(spec) - known
        if extra:
            raise ValueError(f"unknown log_scale keys {sorted(extra)}")
        preset = spec.get("preset")
        if preset == "zero":
            return scalar_zero()
        if preset == "gaussian-bump":
            return gaussian_bump(float(spec["amplitude"]), float(spec["sigma"]))
        if preset == "polynomial":
            return polynomial_field(spec["coeffs"])
        raise ValueError(f"unknown log_scale preset {preset!r}")
    raise ValueError(f"cannot parse log_scale from {spec!r}")


def frame_from_config(cfg):
    """Build a FrameSpec from a plain dict (e.g. parsed JSON).

    Keys: variant (required; "grushin" is shorthand for f2 with zero
    scale), alpha, log_scale.  Unknown keys are rejected.
    """
    if not isinstance(cfg, dict):
        raise ValueError("frame config must be a dict")
    extra = set(cfg) - {"variant", "alpha", "log_scale"}
    if extra:
        raise ValueError(f"unknown frame config keys {sorted(extra)}")
    variant = cfg.get("variant", "grushin")
    if variant == "grushin":
        if "alpha" in cfg or "log_scale" in cfg:
            raise ValueError("variant 'grushin' takes no alpha or log_scale")
        return FrameSpec.grushin()
    if variant == VARIANT_ALPHA:
        if "alpha" not in cfg:
            raise ValueError("alpha-grushin needs key 'alpha'")
        return FrameSpec.alpha_grushin(float(cfg["alpha"]))
    if variant in (VARIANT_F1, VARIANT_F2):
        scale = _scale_from_config(cfg.get("log_scale"))
        return FrameSpec(variant, log_scale=scale)
    raise ValueError(f"unknown frame variant {variant!r}")
