"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single machine-greppable verdict line of the form

    [criterion N] PASS: <measurement> (gate <tolerance>)

before asserting, so the full scorecard survives in captured output even
when a later criterion fails.
"""

import math
import time

import numpy as np
import pytest

from arslab import (
    FrameSpec,
    Inconclusive,
    curve_length,
    gaussian_bump,
    geodesic_flow,
    grushin_geodesic_origin,
    grushin_geodesic_riemannian,
)
from arslab.evolution import (
    assemble_generator,
    gaussian_bump_state,
    run_heat,
    run_schrodinger,
    transmission_study,
)
from arslab.martinet import martinet_mode_solve, mode_potential
from arslab.spectral import (
    assemble_mode_operator,
    classify_self_adjoint,
    deficiency_index_numeric,
    eigen_solve,
    gauge_transform,
    inverse_square_coefficient,
    richardson_extrapolate,
)

from test_spectral import _conjugation_error

GRUSHIN = FrameSpec.grushin()


def _verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def reference_flows():
    """The sixteen reference trajectories shared by criteria 1 and 2."""
    t0 = time.perf_counter()
    runs = []
    for a in (0.0, 1.0, 2.0, 5.0):
        traj = geodesic_flow(GRUSHIN, (0.0, 0.0, 1.0, a), 1.0, dt=1e-4)
        xc, yc = grushin_geodesic_origin(a, 1, traj.t)
        runs.append((f"a={a}", traj, xc, yc))
    for theta in (0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 2.0):
        traj = geodesic_flow(GRUSHIN, (-1.0, 0.0, math.cos(theta), math.sin(theta)),
                             1.0, dt=1e-4)
        xc, yc = grushin_geodesic_riemannian(theta, traj.t)
        runs.append((f"theta={theta:.4f}", traj, xc, yc))
    return runs, time.perf_counter() - t0


def test_criterion_1_closed_form_agreement(reference_flows):
    runs, wall = reference_flows
    sup = 0.0
    for _, traj, xc, yc in runs:
        sup = max(sup, float(np.max(np.abs(traj.states[:, 0] - xc))),
                  float(np.max(np.abs(traj.states[:, 1] - yc))))
    ok = sup <= 1e-6 and wall < 5.0
    _verdict(1, ok, f"sup |flow - closed form| = {sup:.2e} (gate 1e-6), "
                    f"wall {wall:.2f} s (gate 5 s)")
    assert ok


def test_criterion_2_energy_conservation(reference_flows):
    runs, _ = reference_flows
    worst = max(traj.energy_drift for _, traj, _, _ in runs)
    ok = worst <= 1e-8
    _verdict(2, ok, f"max |H - 1/2| = {worst:.2e} (gate 1e-8)")
    assert ok


def test_criterion_3_horizontal_crossings():
    theta = math.pi / 4.0
    traj = geodesic_flow(GRUSHIN, (-1.0, 0.0, math.cos(theta), math.sin(theta)), 6.0)
    worst_ydot = 0.0
    worst_xdot = 0.0
    for ev in traj.crossings:
        ydot = float(GRUSHIN.derivs(ev.x, ev.y)[0]) ** 2 * ev.py
        worst_ydot = max(worst_ydot, abs(ydot))
        worst_xdot = max(worst_xdot, abs(abs(ev.px) - 1.0))
    ok = len(traj.crossings) == 2 and worst_ydot <= 1e-4 and worst_xdot <= 1e-4
    _verdict(3, ok, f"{len(traj.crossings)} crossings, max |dy/dt| = {worst_ydot:.2e}, "
                    f"max ||dx/dt| - 1| = {worst_xdot:.2e} (gates 1e-4)")
    assert ok


def test_criterion_4_diagonal_length():
    exact = 2.0 * (math.sqrt(2.0) + math.asinh(1.0))
    t = np.linspace(-1.0, 1.0, 1001)
    got = curve_length(FrameSpec.alpha_grushin(0.5), t, t, t)
    err = abs(got - exact)
    infinite = curve_length(GRUSHIN, t, t, t)
    ok = err <= 1e-3 and math.isinf(infinite)
    _verdict(4, ok, f"sqrt-scale diagonal = {got:.6f}, |err| = {err:.2e} "
                    f"(gate 1e-3); unit-scale diagonal = {infinite}")
    assert ok


def test_criterion_5_exact_spectrum_oracle():
    t0 = time.perf_counter()
    per_level = [[], [], [], []]
    for n in (2000, 4000, 8000):
        values = eigen_solve(assemble_mode_operator(1, 1.0, n), 4).values
        for j in range(4):
            per_level[j].append(float(values[j]))
    worst = 0.0
    for j, seq in enumerate(per_level):
        extr, _ = richardson_extrapolate(seq)
        worst = max(worst, abs(extr - 4.0 * (j + 1)) / (4.0 * (j + 1)))
    ground2 = eigen_solve(assemble_mode_operator(2, 1.0, 2000), 1).values[0]
    rel2 = abs(ground2 - 8.0) / 8.0
    wall = time.perf_counter() - t0
    ok = worst <= 0.01 and rel2 <= 0.01 and wall < 60.0
    _verdict(5, ok, f"k=1 extrapolated rel err = {worst:.2e}, k=2 ground rel err = "
                    f"{rel2:.2e} (gates 1%), wall {wall:.1f} s (gate 60 s)")
    assert ok


def test_criterion_6_self_adjointness_threshold():
    mismatches = []
    for c in (0.0, 0.3, 0.5, 0.74, 0.75, 0.8, 1.5):
        want = classify_self_adjoint(c).deficiency_count
        got = deficiency_index_numeric(c)
        if got != want:
            mismatches.append((c, want, got))
    flips = [classify_self_adjoint(inverse_square_coefficient(a)).essentially_self_adjoint
             for a in (0.999999999, 1.0, 1.000000001)]
    ok = not mismatches and flips == [False, True, True]
    _verdict(6, ok, f"7/7 deficiency agreements, mismatches = {mismatches}, "
                    f"verdict flips exactly at scale exponent 1 = {flips == [False, True, True]}")
    assert ok


def test_criterion_7_gauge_identity():
    pot = gauge_transform(GRUSHIN)
    rng = np.random.default_rng(2021)
    x = rng.uniform(0.05, 5.0, 100) * rng.choice([-1.0, 1.0], 100)
    y = rng.uniform(-8.0, 8.0, 100)
    zeros_exact = bool(np.all(pot.remainder(x, y) == 0.0)) and pot.remainder_is_zero
    fd_err = _conjugation_error(FrameSpec.f2(gaussian_bump(0.3, 0.7)), 400)
    ok = zeros_exact and fd_err <= 1e-6
    _verdict(7, ok, f"zero-scale remainder exactly 0 at 100 points = {zeros_exact}, "
                    f"conjugation oracle err = {fd_err:.2e} on 400^2 grid (gate 1e-6)")
    assert ok


def test_criterion_8_conservation_per_step():
    gen = assemble_generator(1.0, 0.05, n_x=200, n_y=16)
    steps, dt = 1000, 1e-3

    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    state.u = state.u.astype(complex)
    norm0 = gen.m_norm(state.u)
    worst_norm = 0.0
    for _ in range(steps):
        state = run_schrodinger(gen, state, dt, dt)[0]
        worst_norm = max(worst_norm, abs(gen.m_norm(state.u) - norm0))
    norm_rate = worst_norm / (steps * norm0)

    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    mass0 = gen.total_mass(state.u)
    worst_mass = 0.0
    for _ in range(steps):
        state = run_heat(gen, state, dt, dt)[0]
        worst_mass = max(worst_mass, abs(gen.total_mass(state.u) - mass0))
    mass_rate = worst_mass / (steps * abs(mass0))

    ok = norm_rate <= 1e-9 and mass_rate <= 1e-9
    _verdict(8, ok, f"unitary norm drift {norm_rate:.2e}/step, heat mass drift "
                    f"{mass_rate:.2e}/step over {steps} steps (gates 1e-9/step)")
    assert ok


def test_criterion_9_barrier_dichotomy():
    expected = {1.0: "barrier-consistent", 1.5: "barrier-consistent",
                0.25: "crossing-consistent", 0.5: "crossing-consistent"}
    sweep = [0.1, 0.05, 0.025, 0.0125]
    t0 = time.perf_counter()
    outcomes = {}
    for alpha in expected:
        try:
            rep = transmission_study(alpha, sweep, n_x=400, n_y=16)
        except Inconclusive as exc:
            rep = exc.report
        outcomes[alpha] = rep
    wall = time.perf_counter() - t0

    pieces = []
    ok = wall < 600.0
    for alpha, rep in outcomes.items():
        match = rep.verdict == expected[alpha]
        ok = ok and match
        fr = "[" + ", ".join(f"{f:.4f}" for f in rep.fractions) + "]"
        pieces.append(f"alpha={alpha}: {rep.verdict}"
                      + ("" if match else f" (expected {expected[alpha]}, fractions {fr})"))
    detail = "; ".join(pieces) + f"; wall {wall:.0f} s (gate 600 s)"
    _verdict(9, ok, detail)
    assert ok, detail


def test_criterion_10_martinet_modes():
    y = np.linspace(0.02, 6.0, 500)
    bound_ok = all(
        bool(np.all(mode_potential(k, l, y) >= 0.75 / y**2 - 1e-12))
        for k in range(-3, 4) for l in range(-3, 4))

    coarse = martinet_mode_solve(0, 2, 1000, m=1).values[0]
    fine = martinet_mode_solve(0, 2, 2000, m=1).values[0]
    stab = abs(coarse - fine) / fine

    shifted = martinet_mode_solve(1, 0, 1000, y_max=10.0, m=3)
    base = martinet_mode_solve(0, 0, 1000, y_max=10.0, m=3)
    shift_err = float(np.max(np.abs(shifted.values - base.values - 1.0)))

    ok = bound_ok and stab <= 0.01 and shift_err <= 1e-6
    _verdict(10, ok, f"potential bound on 49 modes = {bound_ok}, ground drift under "
                     f"doubling = {stab:.2e} (gate 1%), constant-mode shift err = "
                     f"{shift_err:.2e} (gate 1e-6)")
    assert ok
