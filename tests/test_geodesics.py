import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from arslab import (
    FrameSpec,
    SingularPoint,
    StepSizeTooLarge,
    front,
    gaussian_bump,
    geodesic_flow,
    grushin_geodesic_origin,
    grushin_geodesic_riemannian,
)

GRUSHIN = FrameSpec.grushin()


def _hamiltonian(frame, state):
    x, y, px, py = state
    return 0.5 * (px * px + frame.fsq_jet(x, y)[0] * py * py)


def test_origin_family_closed_form_values():
    x, y = grushin_geodesic_origin(math.pi, 1, 1.0)
    assert x == pytest.approx(0.0, abs=1e-15)
    assert y == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    # zero transversal momentum degenerates to the horizontal line
    x, y = grushin_geodesic_origin(0.0, -1, np.array([0.5, 2.0]))
    assert np.allclose(x, [-0.5, -2.0])
    assert np.all(y == 0.0)
    with pytest.raises(ValueError):
        grushin_geodesic_origin(1.0, 2, 1.0)


def test_riemannian_family_closed_form_values():
    t = 0.7
    x, y = grushin_geodesic_riemannian(math.pi / 2.0, t)
    assert x == pytest.approx(-math.cos(t), rel=1e-14)
    assert y == pytest.approx((2.0 * t + math.sin(2.0 * t)) / 4.0, rel=1e-14)
    # theta = 0 and pi run along the x axis at unit speed
    x, y = grushin_geodesic_riemannian(0.0, 2.0)
    assert (x, y) == (1.0, 0.0)
    x, y = grushin_geodesic_riemannian(math.pi, 2.0)
    assert (float(x), float(y)) == (-3.0, 0.0)


def test_flow_matches_origin_closed_form():
    for a in (0.0, 1.0, 2.0, 5.0):
        for sign in (1, -1):
            traj = geodesic_flow(GRUSHIN, (0.0, 0.0, float(sign), a), 1.0)
            xc, yc = grushin_geodesic_origin(a, sign, traj.t)
            sup = max(np.max(np.abs(traj.states[:, 0] - xc)),
                      np.max(np.abs(traj.states[:, 1] - yc)))
            assert sup <= 1e-6, f"a={a} sign={sign} sup={sup:.3e}"


def test_flow_matches_riemannian_closed_form():
    for theta in (0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 2.0, 2.0):
        state0 = (-1.0, 0.0, math.cos(theta), math.sin(theta))
        traj = geodesic_flow(GRUSHIN, state0, 1.0)
        xc, yc = grushin_geodesic_riemannian(theta, traj.t)
        sup = max(np.max(np.abs(traj.states[:, 0] - xc)),
                  np.max(np.abs(traj.states[:, 1] - yc)))
        assert sup <= 1e-6, f"theta={theta} sup={sup:.3e}"


def test_energy_is_conserved():
    traj = geodesic_flow(GRUSHIN, (-1.0, 0.0, math.cos(1.1), math.sin(1.1)), 3.0)
    assert traj.energy_drift <= 1e-8
    for i in (0, len(traj.t) // 2, -1):
        assert _hamiltonian(GRUSHIN, traj.states[i]) == pytest.approx(0.5, abs=1e-8)


def test_py_conserved_exactly_for_y_independent_frames():
    # dpy/dt = 0 identically, so the stored column never changes
    for fr in (GRUSHIN, FrameSpec.alpha_grushin(1.5)):
        traj = geodesic_flow(fr, (-1.0, 0.5, 0.6, 0.8), 2.0, dt=1e-3)
        assert np.all(traj.states[:, 3] == 0.8)


def test_rk4_fourth_order():
    """Endpoint error against a fine reference falls like dt**4."""
    fr = FrameSpec.f2(gaussian_bump(0.4, 1.1))
    state0 = (-1.0, 0.2, math.cos(0.9), math.sin(0.9))
    ref = geodesic_flow(fr, state0, 1.0, dt=2.5e-4).states[-1, :2]
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        end = geodesic_flow(fr, state0, 1.0, dt=dt, tol_H=1.0).states[-1, :2]
        errs.append(float(np.hypot(*(end - ref))))
    for e0, e1 in zip(errs, errs[1:]):
        slope = math.log2(e0 / e1)
        assert 3.5 <= slope <= 4.5, f"errors={errs}"


def test_crossings_are_perpendicular():
    theta = math.pi / 4.0
    b = math.sin(theta)
    traj = geodesic_flow(GRUSHIN, (-1.0, 0.0, math.cos(theta), b), 6.0)
    assert len(traj.crossings) == 2
    expected_times = (theta / b, (theta + math.pi) / b)
    for ev, t_exact in zip(traj.crossings, expected_times):
        assert ev.t == pytest.approx(t_exact, abs=1e-6)
        assert abs(ev.ydot) <= 1e-4
        assert abs(abs(ev.px) - 1.0) <= 1e-4
    # left to right, then back
    assert [math.copysign(1, ev.px) for ev in traj.crossings] == [1, -1]


def test_crossing_velocity_is_the_jet_at_the_crossing():
    frame = FrameSpec.f2(gaussian_bump(0.35, 0.7))
    traj = geodesic_flow(frame, (-1.0, 0.0, math.cos(math.pi / 4), math.sin(math.pi / 4)), 6.0)
    assert len(traj.crossings) == 2
    for ev in traj.crossings:
        assert ev.ydot == frame.fsq_jet(ev.x, ev.y)[0] * ev.py


def test_step_size_guard():
    with pytest.raises(StepSizeTooLarge):
        geodesic_flow(GRUSHIN, (0.0, 0.0, 1.0, 5.0), 3.0, dt=0.3)


def test_flow_rejects_bad_arguments():
    with pytest.raises(ValueError):
        geodesic_flow(GRUSHIN, (0.0, 0.0, 1.0, 0.0), 1.0, dt=0.0)
    with pytest.raises(ValueError):
        geodesic_flow(GRUSHIN, (0.0, 0.0, 1.0, 0.0), -1.0)


@pytest.mark.parametrize("state0, tol_H", [
    ((0.0, 0.0, math.nan, 0.5), 1e-8),
    ((0.0, -math.inf, 1.0, 0.5), 1e-8),
    ((0.0, 0.0, 1.0, 0.5), math.nan),
    ((0.0, 0.0, 1.0, 0.5), -1.0),
    ((0.0, 0.0, 1.0, 0.5), 0.0),
    ((0.0, 0.0, 1.0, 0.5), math.inf),
])
def test_flow_rejects_non_finite_starts_and_tolerances(state0, tol_H):
    with pytest.raises(ValueError, match="geodesic_flow"):
        geodesic_flow(GRUSHIN, state0, 0.01, tol_H=tol_H)


@pytest.mark.parametrize("T, dt, named", [
    (math.inf, 1e-4, "T / dt = inf / 0.0001 is not a finite step count"),
    (0.01, 1e-320, "T / dt = 0.01 / 1e-320 is not a finite step count"),
    (1e300, 1e-300, "T / dt = 1e+300 / 1e-300 is not a finite step count"),
    (0.01, math.nan, "dt must be positive, got nan"),
    (math.nan, 1e-4, "T must be non-negative, got nan"),
])
def test_flow_rejects_a_step_count_that_is_not_finite(T, dt, named):
    with pytest.raises(ValueError, match=f"geodesic_flow: {re.escape(named)}"):
        geodesic_flow(GRUSHIN, (0.0, 0.0, 1.0, 0.5), T, dt=dt)


@pytest.mark.parametrize("frame", [GRUSHIN, FrameSpec.alpha_grushin(1.5)])
def test_energy_gate_rejects_a_blown_up_trajectory(frame):
    # the start's energy is finite, but the trajectory overflows to inf and
    # nan; a nan drift must not pass
    with pytest.raises(StepSizeTooLarge, match="energy drift nan"):
        geodesic_flow(frame, (-1.0, 0.0, 0.5, 1e100), 0.01)


# -- fronts ---------------------------------------------------------------


def test_riemannian_front_closed_form_matches_integration():
    """Closed-form endpoints agree with direct integration from any start."""
    for start in ((-1.0, 0.0), (-2.0, 3.0), (1.5, -1.0)):
        fan = front(GRUSHIN, start, 1.0, 8)
        assert fan.kind == "riemannian"
        assert fan.provenance == "closed-form"
        f0 = abs(start[0])
        for theta, endpoint in zip(fan.params, fan.endpoints):
            state0 = (start[0], start[1], math.cos(theta), math.sin(theta) / f0)
            traj = geodesic_flow(GRUSHIN, state0, 1.0)
            sup = float(np.max(np.abs(endpoint - traj.states[-1, :2])))
            assert sup <= 1e-6, f"start={start} theta={theta} sup={sup:.3e}"


def test_singular_front_closed_form_matches_integration():
    fan = front(GRUSHIN, (0.0, 2.0), 1.0, 9, param_max=2.0)
    assert fan.kind == "singular"
    assert fan.provenance == "closed-form"
    assert fan.endpoints.shape == (18, 2)
    assert set(fan.families.tolist()) == {1, -1}
    assert 0.0 in fan.params  # the straight horizontal pair is included
    for a, sgn, endpoint in zip(fan.params, fan.families, fan.endpoints):
        traj = geodesic_flow(GRUSHIN, (0.0, 2.0, float(sgn), float(a)), 1.0)
        sup = float(np.max(np.abs(endpoint - traj.states[-1, :2])))
        assert sup <= 1e-6, f"py0={a} sign={sgn} sup={sup:.3e}"


def test_alpha_front_is_integrated_but_matches_grushin_at_one():
    # alpha = 1 has the same flow as the exact Grushin plane, but the
    # variant is not recognized as exact, so the front must be integrated
    fan = front(FrameSpec.alpha_grushin(1.0), (0.0, 0.0), 0.5, 9,
                param_max=2.0, dt=1e-3)
    assert fan.provenance == "integrated"
    for a, sgn, endpoint in zip(fan.params, fan.families, fan.endpoints):
        xc, yc = grushin_geodesic_origin(float(a), int(sgn), 0.5)
        assert abs(endpoint[0] - float(xc)) <= 1e-6
        assert abs(endpoint[1] - float(yc)) <= 1e-6


_magnitude = st.floats(1e-300, 1e300)


@settings(max_examples=200, deadline=None)
@given(x0=st.one_of(st.just(0.0), _magnitude, _magnitude.map(lambda v: -v)),
       y0=st.one_of(st.floats(-10.0, 10.0), _magnitude),
       T=st.floats(1e-6, 10.0), param_max=st.floats(1e-6, 1e300), n=st.integers(8, 19))
def test_closed_form_grushin_front_refuses_or_returns_finite_endpoints(x0, y0, T, param_max, n):
    try:
        fan = front(GRUSHIN, (x0, y0), T, n, param_max=param_max)
    except (ValueError, SingularPoint):
        return
    assert fan.provenance == "closed-form"
    assert np.all(np.isfinite(fan.endpoints))


def test_a_start_on_the_line_has_energy_px_squared_over_2():
    # f = 0 there, so f**2 py**2 is 0 even where py**2 overflows: the huge py
    # blows the flow up, and the drift gate, not the start check, refuses it
    for py in (1e10, 1e160):
        with pytest.raises(StepSizeTooLarge, match="energy drift nan exceeds"):
            geodesic_flow(FrameSpec.alpha_grushin(1.0), (0.0, 0.0, 1.0, py), 0.01)


def test_start_and_drift_gate_share_one_energy():
    # f py = 1e-200 * 1e200 = 1 while f**2 py**2 = 0 * inf: with one form of H
    # the step-0 energy is the finite start energy, and the gate refuses the
    # flow only for the first step, which leaves the floats (the orbit's
    # period is about 1 / py = 1e-200)
    with pytest.raises(StepSizeTooLarge, match=re.escape(
            "energy drift nan exceeds 1.000e-06; the energy is not finite from t = 1.000e-04")):
        geodesic_flow(GRUSHIN, (1e-200, 0.0, 1.0, 1e200), 0.01)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.5, 3.0), y0=st.floats(-10.0, 10.0), T=st.floats(1e-3, 0.02),
       n=st.integers(8, 11), param_max=st.floats(1e-3, 1e308))
@example(alpha=1.0, y0=0.0, T=0.01, n=8, param_max=1e308)
@example(alpha=1.0, y0=0.0, T=0.01, n=8, param_max=1e160)
def test_singular_front_on_an_integrated_frame_refuses_or_returns_finite_endpoints(
        alpha, y0, T, n, param_max):
    try:
        fan = front(FrameSpec.alpha_grushin(alpha), (0.0, y0), T, n, param_max=param_max,
                    dt=1e-3)
    except StepSizeTooLarge:
        return
    except ValueError as exc:
        assert str(exc).startswith("front: ") and "param_max" in str(exc)
        return
    assert fan.provenance == "integrated"
    assert np.all(np.isfinite(fan.endpoints))


def test_front_validation():
    with pytest.raises(ValueError):
        front(GRUSHIN, (-1.0, 0.0), 1.0, 7)
    # the closed forms too, which would give nan endpoints
    for T, words in ((math.inf, "T / dt = inf / 0.0001 is not a finite step count"),
                     (math.nan, "T must be non-negative, got nan")):
        with pytest.raises(ValueError, match=re.escape(f"front: {words}")):
            front(GRUSHIN, (-1.0, 0.0), T, 8)


@pytest.mark.parametrize("frame, start", [
    (GRUSHIN, (-1.0, 0.0)),
    (GRUSHIN, (0.0, 1.0)),
    (FrameSpec.f2(gaussian_bump(0.3, 0.7)), (-1.0, 0.5)),
], ids=["closed-form-riemannian", "closed-form-singular", "integrated-f2-bump"])
def test_front_at_time_zero_is_its_start(frame, start):
    # as geodesic_flow at T = 0 returns its start state; == because the -1
    # family of the singular fan ends at x = -0.0
    fan = front(frame, start, 0.0, 8)
    assert fan.provenance == ("closed-form" if frame is GRUSHIN else "integrated")
    assert np.all(fan.endpoints == np.array(start))
