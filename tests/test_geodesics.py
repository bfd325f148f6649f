import math

import numpy as np
import pytest

from arslab import (
    FrameSpec,
    StepSizeTooLarge,
    crossing_report,
    front,
    gaussian_bump,
    geodesic_flow,
    grushin_geodesic_origin,
    grushin_geodesic_riemannian,
    hamiltonian,
)

GRUSHIN = FrameSpec.grushin()


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
        assert hamiltonian(GRUSHIN, traj.state(i)) == pytest.approx(0.5, abs=1e-8)


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
    report = crossing_report(traj, GRUSHIN)
    assert len(report) == 2
    expected_times = (theta / b, (theta + math.pi) / b)
    for (t, xdot, ydot), t_exact in zip(report, expected_times):
        assert t == pytest.approx(t_exact, abs=1e-6)
        assert abs(ydot) <= 1e-4
        assert abs(abs(xdot) - 1.0) <= 1e-4
    directions = [ev.direction for ev in traj.crossings]
    assert directions == [1, -1]


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


@pytest.mark.parametrize("frame", [GRUSHIN, FrameSpec.alpha_grushin(1.5)])
def test_energy_gate_rejects_a_blown_up_trajectory(frame):
    # the trajectory overflows to inf and nan; a nan drift must not pass
    with pytest.raises(StepSizeTooLarge, match="energy drift nan"):
        geodesic_flow(frame, (-1.0, 0.0, 0.5, 1e200), 0.01)


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


def test_front_validation():
    with pytest.raises(ValueError):
        front(GRUSHIN, (-1.0, 0.0), 1.0, 7)
    with pytest.raises(ValueError):
        front(GRUSHIN, (-1.0, 0.0), 0.0, 8)
