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
curvature, Laplace-Beltrami coefficients) are evaluated from f and its
derivatives, and curve_length integrates the induced length of sampled
paths.  Whether a path that meets the singular line has finite length
follows from the order to which f vanishes there (1 for f2, alpha for
alpha-grushin), not from the quadrature.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SingularPoint

__all__ = [
    "ScalarField",
    "scalar_zero",
    "gaussian_bump",
    "polynomial_field",
    "FrameSpec",
    "MetricData",
    "frame_vectors",
    "metric_at",
    "laplace_beltrami_coeffs",
    "curve_length",
    "frame_from_config",
]

VARIANT_F1 = "f1"
VARIANT_F2 = "f2"
VARIANT_ALPHA = "alpha-grushin"


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A smooth scalar field bundled with analytic derivative evaluators.

    derivs(x, y) -> (s, s_x, s_y, s_xx, s_yy) accepts floats or numpy
    arrays, broadcasts, and evaluates s once; curve_length reads it on
    arrays through FrameSpec.f.  jet(x, y) -> (s, s_x, s_y) is the
    plain-float evaluator for one point, built from the math module;
    pointwise loops (geodesic RK4, crossings) call it.  is_zero
    marks the identically-zero field so callers can take exact shortcuts.

    FrameSpec picks its fast paths by the evaluator each one replaces:
    f skips scalar_zero's derivs, and fsq_jet takes the fused f2 closure
    that gaussian_bump attaches to its jet as jet.f2_fsq_jet.  A copy made
    with dataclasses.replace keeps a fast path exactly while it keeps
    that evaluator.
    """

    derivs: Callable
    jet: Callable
    is_zero: bool = False


def _zero_derivs(x, y):
    z = np.zeros_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))
    return z, z, z, z, z


def scalar_zero():
    """The identically-zero scalar field."""
    return ScalarField(derivs=_zero_derivs, jet=lambda x, y: (0.0, 0.0, 0.0), is_zero=True)


def gaussian_bump(amplitude, sigma):
    """A smooth localized bump, periodic in y with period 2*pi.

    s(x, y) = amplitude * exp(-x**2 / (2 sigma**2))
                        * exp((cos(y - pi) - 1) / sigma**2)

    The y factor is a von Mises profile so the same field works on the
    plane and on the cylinder.  The field decays like a Gaussian in x and
    is numerically constant for |x| beyond about 12*sigma.

    Raises ValueError for a non-finite amplitude, and for a sigma outside
    (0, inf) or so small or large that a divisor sigma**2, 2 sigma**2 or
    sigma**4 under- or overflows.
    """
    a, sg = float(amplitude), float(sigma)
    if not math.isfinite(a):
        raise ValueError(f"gaussian-bump amplitude must be finite, got {amplitude}")
    # sigma**4 bounds the other two divisors from both sides
    if not (0.0 < sg < math.inf and sys.float_info.min <= (sg * sg) * (sg * sg) < math.inf):
        raise ValueError(f"gaussian-bump sigma must be positive, with sigma**2, 2 sigma**2 and "
                         f"sigma**4 neither underflowing nor overflowing, got {sigma}")
    s2 = sg ** 2
    two_s2 = 2 * s2
    x_cut = 40.0 * sg

    def derivs(x, y):
        # the x factor underflows to 0 beyond |x| = 40 sigma: clipping x
        # there changes no value and keeps x**2 and x / s2 from overflowing
        x = np.clip(np.asarray(x, dtype=float), -x_cut, x_cut)
        y = np.asarray(y, dtype=float)
        u = y - math.pi
        gx = a * np.exp(-x**2 / two_s2)
        cos = np.cos(u)
        v = gx * np.exp((cos - 1.0) / s2)
        sin = np.sin(u)
        return (v, -(x / s2) * v, -(sin / s2) * v, (x**2 / s2**2 - 1.0 / s2) * v,
                (sin**2 / s2**2 - cos / s2) * v)

    exp, cos, sin, pi = math.exp, math.cos, math.sin, math.pi

    def jet(x, y):
        u = y - pi
        v = a * exp(-(x * x) / two_s2) * exp((cos(u) - 1.0) / s2)
        return v, -(x / s2) * v, -(sin(u) / s2) * v

    # FrameSpec.f2(this field).fsq_jet in one call: jet inlined into f2_jet's
    # chain with y - pi formed once; every other float operation, and each
    # math call that can raise, is the chain's in the chain's order.  Only f2
    # has a fused form: perfbench's fan workload integrates f2 over a bump;
    # f1 over a bump takes jet, then f1_jet.
    def f2_bump_jet(x, y):
        u = y - pi
        s = a * exp(-(x * x) / two_s2) * exp((cos(u) - 1.0) / s2)
        s_x = -(x / s2) * s
        s_y = -(sin(u) / s2) * s
        e = exp(s)
        f = x * e
        fsq = f * f
        return fsq, f * ((1.0 + x * s_x) * e), fsq * s_y

    jet.f2_fsq_jet = f2_bump_jet
    return ScalarField(derivs=derivs, jet=jet, is_zero=(a == 0.0))


def _polyder2d(c, axis):
    c = np.asarray(c, dtype=float)
    if c.shape[axis] <= 1:
        return np.zeros((1, 1))
    k = np.arange(1, c.shape[axis])
    if axis == 0:
        return c[1:, :] * k[:, None]
    return c[:, 1:] * k[None, :]


def _horner2d(cols, x, y):
    """sum_ij cols[j][i] x**i y**j, Horner in x, then in y; floats or arrays."""
    out = 0.0
    for col in reversed(cols):
        acc = 0.0
        for cij in reversed(col):
            acc = acc * x + cij
        out = out * y + acc
    return out


def polynomial_field(coeffs):
    """Polynomial scalar field sum_ij c[i][j] x**i y**j.

    Raises ValueError unless the coefficients are a non-empty 2-D table
    (or one row) of finite numbers.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if c.ndim != 2 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError(f"polynomial_field: need a non-empty 2-D table of finite "
                         f"coefficients, got {coeffs!r}")
    cx = _polyder2d(c, 0)
    cy = _polyder2d(c, 1)
    cxx = _polyder2d(cx, 0)
    cyy = _polyder2d(cy, 1)
    is_zero = not np.any(c)
    cols = [cc.T.tolist() for cc in (c, cx, cy, cxx, cyy)]
    c_cols, cx_cols, cy_cols = cols[:3]

    def derivs(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return tuple(_horner2d(cc, x, y) for cc in cols)

    def jet(x, y):
        return _horner2d(c_cols, x, y), _horner2d(cx_cols, x, y), _horner2d(cy_cols, x, y)

    return ScalarField(derivs=derivs, jet=jet, is_zero=is_zero)


@dataclass(frozen=True)
class FrameSpec:
    """Everything needed to evaluate a frame and its derivatives.

    Three evaluators: f(x, y) -> f serves the readers of f alone and
    derivs(x, y) -> (f, f_x, f_y, f_xx) those of its derivatives, both
    broadcasting over numpy arrays, f as derivs' first component bit for
    bit; fsq_jet(x, y) -> (f**2, f * f_x, f * f_y) takes one point in
    plain floats for the geodesic loops.
    fsq_jet is a closure resolved once per frame instance on first use.
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
            # f = |x|**alpha has no scale field; gauge_transform reads one as f2's
            if self.log_scale is not None:
                raise ValueError("alpha-grushin takes no log_scale field")

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
    def vanishing_order(self):
        """The order to which f vanishes on x = 0: 1.0 for f2, alpha for
        alpha-grushin, None for f1, which never vanishes."""
        if self.variant == VARIANT_ALPHA:
            return self.alpha
        return 1.0 if self.variant == VARIANT_F2 else None

    @property
    def is_singular_variant(self):
        """True when the frame degenerates on the line x = 0."""
        return self.vanishing_order is not None

    def f(self, x, y):
        """f at float or array points: derivs(x, y)[0]'s floats, broadcast alike.

        Over scalar_zero's derivs, f = x * exp(0) (f2) or exp(0) (f1), and
        exp(0) = 1 exactly, so the field is not evaluated.  is_zero does not
        pick this shortcut: a zero polynomial_field gives nan at x = +-inf.
        """
        if self.variant == VARIANT_ALPHA:
            x = np.broadcast_arrays(np.asarray(x, dtype=float), y)[0]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return np.abs(x) ** self.alpha
        x = np.asarray(x, dtype=float)
        if self.log_scale.derivs is _zero_derivs:
            x = np.broadcast_arrays(x, y)[0]
            # x * 1.0 is x, in a fresh array as derivs returns
            return x * 1.0 if self.variant == VARIANT_F2 else np.ones_like(x)
        e = np.exp(self.log_scale.derivs(x, y)[0])
        return e if self.variant == VARIANT_F1 else x * e

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
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return (ax**a, a * np.sign(x) * ax ** (a - 1.0), np.zeros_like(ax),
                        a * (a - 1.0) * ax ** (a - 2.0))
        x = np.asarray(x, dtype=float)
        s, sx, sy, sxx, _ = self.log_scale.derivs(x, y)
        e = np.exp(s)
        if self.variant == VARIANT_F1:
            return e, sx * e, e * sy, (sxx + sx**2) * e
        f = x * e
        return f, (1.0 + x * sx) * e, f * sy, (2.0 * sx + x * sxx + x * sx**2) * e

    @functools.cached_property
    def fsq_jet(self):
        """The plain-float evaluator (x, y) -> (f**2, f * f_x, f * f_y).

        These are f**2 and the x and y derivatives of f**2 / 2, all the
        Hamiltonian flow needs.  The evaluator is chosen once per frame by
        variant and scale field, so a call makes no dispatch:
          - the exact Grushin plane (a zero field, a zero-amplitude bump
            included) returns (x*x, x, 0.0) without the field;
          - f2 over a field whose jet carries a fused closure, jet.f2_fsq_jet
            (gaussian_bump's), returns it: field and frame in one call, with
            the floats, and the OverflowError or ValueError of a blown-up
            state, of the two-call chain below;
          - f1 over any field, and f2 over any other field, call the
            field's jet, then the chain;
          - alpha-grushin has its constants bound.
        For alpha-grushin at x = 0, f * f_x is 0 when alpha >= 1/2 and inf
        below, the limit of |x|**(2 alpha - 1); elsewhere f * f_x is formed
        in derivs' operation order, so the two evaluators agree bit for bit.
        """
        if self.variant == VARIANT_ALPHA:
            a = self.alpha
            a_minus_1 = a - 1.0
            ffx_at_zero = 0.0 if a >= 0.5 else math.inf
            copysign = math.copysign

            def alpha_jet(x, y):
                ax = abs(x)
                if ax == 0.0:
                    return 0.0, ffx_at_zero, 0.0
                f = ax**a
                return f * f, copysign(f * (a * ax**a_minus_1), x), 0.0

            return alpha_jet
        if self.is_exact_grushin:
            # f = x * exp(0): the general f2 form below gives the same floats
            # wherever x * x is finite
            def grushin_jet(x, y):
                return x * x, x, 0.0

            return grushin_jet
        scale_jet, exp = self.log_scale.jet, math.exp
        if self.variant == VARIANT_F2 and hasattr(scale_jet, "f2_fsq_jet"):
            return scale_jet.f2_fsq_jet
        if self.variant == VARIANT_F1:
            def f1_jet(x, y):
                s, s_x, s_y = scale_jet(x, y)
                f = exp(s)
                fsq = f * f
                return fsq, f * (s_x * f), fsq * s_y

            return f1_jet

        def f2_jet(x, y):
            s, s_x, s_y = scale_jet(x, y)
            e = exp(s)
            f = x * e
            fsq = f * f
            return fsq, f * ((1.0 + x * s_x) * e), fsq * s_y

        return f2_jet


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


def _regular_derivs(frame, p, who):
    """frame.derivs at p as floats; SingularPoint where f is 0 or f, 1/f or f**2 not finite.

    Raises ValueError, naming who, unless p is finite.
    """
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError(f"{who}: need a finite point, got {tuple(p)}")
    # where exp(s) overflows, f_x and f_xx meet inf * 0; f = inf is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        fv, fx, fy, fxx = (float(d) for d in frame.derivs(p[0], p[1]))
    if fv == 0.0:
        raise SingularPoint(f"{who}: frame degenerates at {tuple(p)}")
    if not math.isfinite(fv):
        raise SingularPoint(f"{who}: f = {fv} is not finite at {tuple(p)}")
    if math.isinf(1.0 / fv):
        raise SingularPoint(f"{who}: 1/f overflows at {tuple(p)}")
    if math.isinf(fv * fv):
        raise SingularPoint(f"{who}: f**2 overflows at {tuple(p)}")
    return fv, fx, fy, fxx


def metric_at(frame, p):
    """Metric, area density and Gaussian curvature at a non-singular point.

    g = diag(1, 1/f**2), area density 1/|f|, and the curvature follows
    from the frame function alone:

        K = (f * f_xx - 2 * f_x**2) / f**2.

    SingularPoint where _regular_derivs refuses p, and where f**2
    underflows, to 0 or to a subnormal float whose reciprocal 1/f**2
    overflows, so that g22 would not be finite.
    """
    fv, fx, _, fxx = _regular_derivs(frame, p, "metric_at")
    fsq = fv**2
    if fsq == 0.0 or 1.0 / fsq == math.inf:
        raise SingularPoint(f"metric_at: f**2 underflows to 0 at {tuple(p)}")
    curv = (fv * fxx - 2.0 * fx * fx) / fsq
    return MetricData(
        g11=1.0,
        g22=1.0 / fsq,
        area_density=1.0 / abs(fv),
        curvature=curv,
        f=fv,
        f_dx=fx,
    )


def laplace_beltrami_coeffs(frame, p):
    """Coefficients (a_xx, a_yy, b_x, b_y) of the Laplace-Beltrami operator.

    The operator acts as a_xx d2/dx2 + a_yy d2/dy2 + b_x d/dx + b_y d/dy
    with a_xx = 1, a_yy = f**2, b_x = -f_x/f, b_y = f*f_y.  The first
    order x coefficient blows up on the singular line.  SingularPoint
    wherever _regular_derivs refuses p, as in metric_at.
    """
    fv, fx, fy, _ = _regular_derivs(frame, p, "laplace_beltrami_coeffs")
    return (1.0, fv * fv, -fx / fv, fv * fy)


# -- curve length -------------------------------------------------------


# curve_length's Simpson tolerance per segment (times max(1, dt)) and its refinement depth
_LENGTH_TOL = 1e-10
_LENGTH_DEPTH = 28


def _simpson_levels(g, b, tol):
    """Sum over k of the adaptive Simpson integrals of g(k, .) over [0, b[k]].

    g(k, tau) evaluates integrand k[j] at tau[:, j] on arrays: k holds one
    index per interval, and tau the nodes, of shape (nodes, intervals), so
    an integrand gathers its coefficients once per interval.  All intervals
    refine together, level by level: level 0 evaluates the five nodes of
    every interval in one call of g, and each later level the two quarter
    points of every interval still open.  An interval stops when
    |err| <= 15 tol, when err is not finite, or at depth _LENGTH_DEPTH, and
    adds left + right + err/15; otherwise it splits, each half with tol/2.
    """
    k = np.arange(b.size)
    a = np.zeros_like(b)
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    fa, fm, fb, flm, frm = g(k, np.stack((a, m, b, lm, rm)))
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    total = 0.0
    for depth in range(_LENGTH_DEPTH, -1, -1):
        left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        err = left + right - whole
        # non-finite samples cannot refine away; stop rather than split
        done = (np.abs(err) <= 15.0 * tol) | ~np.isfinite(err) | (depth == 0)
        total += float(np.sum((left + right + err / 15.0)[done]))
        open_ = ~done
        if not open_.any():
            break
        # the left halves [a, m], then the right halves [m, b]
        k, tol = np.tile(k[open_], 2), np.tile(0.5 * tol[open_], 2)
        a, m, b, fa, fm, fb, whole = (np.concatenate((u[open_], v[open_])) for u, v in (
            (a, m), (lm, rm), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right)))
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(k, np.stack((lm, rm)))
    return total


def curve_length(frame, t, x, y):
    """Length of a sampled path under the almost-Riemannian metric.

    The path is the piecewise-linear interpolant of the samples
    (t[i], x[i], y[i]); between samples the velocity is the finite
    difference of consecutive samples.  On the singular variants f
    vanishes on x = 0 like |x|**order, order = frame.vanishing_order (1
    for f2, alpha for alpha-grushin), so a segment with vy != 0 that meets
    the line has finite length exactly when order < 1.  Such a segment is
    integrated on each side of its crossing time tau0 after the
    substitution |tau - tau0| = u**p, p = 1 / (1 - order), which leaves a
    bounded integrand.  A segment that meets the line when order >= 1, or runs
    along it, has infinite length: math.inf is returned.

    All segments are integrated together by one adaptive Simpson rule on
    arrays, which reads f through frame.f once per refinement level.
    Raises ValueError unless t, x, y are finite 1-d samples of equal
    length >= 2 with t non-decreasing.
    """
    t, x, y = (np.asarray(v, dtype=float) for v in (t, x, y))
    if not (t.ndim == 1 and t.shape == x.shape == y.shape and t.size >= 2):
        raise ValueError("curve_length: need 1-d samples t, x, y of equal length >= 2")
    if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("curve_length: need finite samples t, x, y")
    if np.any(np.diff(t) < 0):
        raise ValueError("curve_length: t must be non-decreasing")

    # a sample difference that overflows, or a segment that reaches f = 0,
    # gives an inf or nan length, not a RuntimeWarning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dt = np.diff(t)
        moving = dt != 0.0
        dt, x0, y0 = dt[moving], x[:-1][moving], y[:-1][moving]
        vx = (x[1:][moving] - x0) / dt
        vy = (y[1:][moving] - y0) / dt
        level = vy == 0.0
        total = float(np.sum(np.abs(vx[level]) * dt[level]))

        curved = ~level
        crossing = np.zeros_like(curved)
        order = frame.vanishing_order
        if order is not None:
            # f vanishes exactly where x(tau) = 0
            along = curved & (x0 == 0.0) & (vx == 0.0)
            tau_zero = -x0 / vx
            crossing = curved & (vx != 0.0) & (0.0 <= tau_zero) & (tau_zero <= dt)
            if along.any() or (order >= 1.0 and crossing.any()):
                return math.inf

        tol = _LENGTH_TOL * np.maximum(1.0, dt)
        regular = curved & ~crossing
        if regular.any():
            xr, yr, vxr, vyr = (v[regular] for v in (x0, y0, vx, vy))
            vx2, vy2 = vxr * vxr, vyr * vyr

            def speed(k, tau):
                # tau measured from the segment's start; infinite where f vanishes
                f = frame.f(xr[k] + vxr[k] * tau, yr[k] + vyr[k] * tau)
                return np.sqrt(vx2[k] + vy2[k] / (f * f))

            total += _simpson_levels(speed, dt[regular], tol[regular])
        if crossing.any():
            # Only alpha-grushin gets here, where f = |vx (tau - tau0)|**alpha on
            # the segment, so speed * dtau/du = p * hypot(vx u**(p - 1), vy / |vx|**alpha),
            # integrated on [0, tau0**(1/p)] and [0, (dt - tau0)**(1/p)]
            p = 1.0 / (1.0 - order)
            vx_c = np.tile(vx[crossing], 2)
            c = np.tile(vy[crossing] / np.abs(vx[crossing]) ** order, 2)
            tau0 = tau_zero[crossing]

            def smoothed(k, u):
                return p * np.hypot(vx_c[k] * u ** (p - 1.0), c[k])

            total += _simpson_levels(smoothed, np.concatenate((tau0, dt[crossing] - tau0))
                                     ** (1.0 / p), np.tile(tol[crossing], 2))
    return total


# -- configuration ------------------------------------------------------

_BUMP_RE = re.compile(r"^gaussian-bump\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


def _scale_from_config(spec):
    if spec is None or spec == "zero":
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
        alpha = cfg.get("alpha")
        # an int beyond the float range is no number, as for the top-level keys
        if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
                or isinstance(alpha, int) and abs(alpha) > sys.float_info.max):
            raise ValueError(f"alpha-grushin needs a number for key 'alpha', got {alpha!r}")
        return FrameSpec.alpha_grushin(float(alpha))
    return FrameSpec(variant, log_scale=_scale_from_config(cfg.get("log_scale")))
