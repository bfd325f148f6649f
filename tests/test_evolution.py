import dataclasses
import decimal
import math
import re
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import spsolve

from arslab import BadGrid, Inconclusive, SolverDiverged
from arslab import evolution
from arslab.evolution import (
    EvolutionState,
    _int_power,
    assemble_generator,
    eps_sweep,
    gaussian_bump_state,
    run_heat,
    run_schrodinger,
    transmission_study,
    transmission_verdict,
)


def _small_gen(alpha=1.0, eps=0.05, n_x=100, n_y=8):
    return assemble_generator(alpha, eps, n_x=n_x, n_y=n_y)


def test_weight_antiderivatives_match_quadrature():
    eps = 0.1
    for alpha in (0.5, 1.0, 1.7):
        for t in (0.05, 0.1, 0.3, 2.0):
            want, _ = quad(lambda s: max(s, eps) ** (-alpha), 0.0, t, points=[eps])
            assert float(_int_power(t, eps, 0.0, -alpha)) == pytest.approx(want, rel=1e-10)
            want, _ = quad(lambda s: max(s, eps) ** alpha, 0.0, t, points=[eps])
            assert float(_int_power(t, eps, 0.0, alpha)) == pytest.approx(want, rel=1e-10)
            want, _ = quad(lambda s: s ** (2 * alpha) * max(s, eps) ** (-alpha),
                           0.0, t, points=[eps])
            assert float(_int_power(t, eps, 2.0 * alpha, -alpha)) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("alpha", [3.0, 10.0, 20.0])
def test_cell_mass_beyond_eps_at_steep_weights_matches_quadrature(alpha):
    # at alpha > 1 both antiderivatives of the cell at x = -2.1 hold
    # eps**(1 - alpha) / (alpha - 1), far above its mass, which their difference loses
    eps = 0.0125
    gen = assemble_generator(alpha, eps, n_x=20, n_y=4)
    i = 3
    assert gen.x[i] == pytest.approx(-2.1)
    want, _ = quad(lambda s: max(abs(s), eps) ** -alpha, gen.x[i] - 0.5 * gen.h,
                   gen.x[i] + 0.5 * gen.h, epsabs=0.0, epsrel=1e-13)
    assert gen.m_x[i] / gen.h_y == pytest.approx(want, rel=1e-13)


def test_trap_mass_grows_for_alpha_one_converges_below():
    # weighted mass of |x| <= 1/2: log-divergent at alpha = 1, finite limit below
    masses = [2.0 * float(_int_power(0.5, eps, 0.0, -1.0)) for eps in (0.1, 0.05, 0.025)]
    assert masses[0] < masses[1] < masses[2]
    alpha = 0.5
    limit = 2.0 * 0.5 ** (1.0 - alpha) / (1.0 - alpha)
    for eps in (0.1, 0.01, 1e-6):
        mass = 2.0 * float(_int_power(0.5, eps, 0.0, -alpha))
        # deficit closes like eps^(1-alpha), with an explicit constant
        deficit = 2.0 * alpha / (1.0 - alpha) * eps ** (1.0 - alpha)
        assert limit - mass == pytest.approx(deficit, rel=1e-10)


def _mode_product(gen, c, u):
    """(M - c C) u on the cells, by the banded product of _mode_system's y-modes."""
    system = evolution._mode_system(gen, c)
    return system.from_modes(system.apply(system.to_modes(u)))


def _generator_product(gen, u):
    """A u = M^{-1} C u, read off the real mode system at c = 1."""
    return (gen.m * u - _mode_product(gen, 1.0, u)) / gen.m


def test_uniform_weight_gives_standard_laplacian():
    """With eps at the box edge the weight is constant, so rows in x reduce
    to the plain second difference and the eps powers cancel."""
    gen = assemble_generator(1.0, 2.999999, n_x=200, n_y=4)
    x = gen.x_of_cells()
    u = np.cos(x)
    got = _generator_product(gen, u)
    interior = np.abs(x) < 2.5
    assert np.max(np.abs(got[interior] + np.cos(x[interior]))) <= 1e-3


def test_generator_annihilates_constants():
    # a constant field is a fixed point of both flows' steps
    gen = _small_gen()
    ones = np.ones(gen.m.size)
    for run in (run_heat, run_schrodinger):
        got = run(gen, EvolutionState(u=ones, t=0.0), 0.1, 0.1)[0].u
        assert np.max(np.abs(got - 1.0)) <= 1e-10


def test_generator_symmetric_and_nonpositive_in_mass_inner_product():
    """<u, A v>_M is symmetric and at most 0, and 0 on the constants."""
    gen = _small_gen()
    rng = np.random.default_rng(23)
    _, degree = _loop_assembled(gen)
    scale = float(np.max(np.abs(degree / gen.m)))

    def form(u, v):
        return float(np.dot(gen.m * u, _generator_product(gen, v)))

    for _ in range(10):
        u = rng.standard_normal(gen.m.size)
        v = rng.standard_normal(gen.m.size)
        assert form(u, v) == pytest.approx(
            form(v, u), abs=1e-11 * scale * gen.m_norm(u) * gen.m_norm(v))
        assert form(u, u) <= 1e-12 * scale * gen.m_norm(u) ** 2
    ones = np.ones(gen.m.size)
    assert abs(form(ones, ones)) <= 1e-12 * scale * gen.m_norm(ones) ** 2


def test_heat_conserves_mass_and_contracts():
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    mass0 = gen.total_mass(state.u)
    mean = mass0 / gen.total_mass(np.ones(gen.m.size))
    fluct_prev = gen.m_norm(state.u - mean)
    for _ in range(50):
        state = run_heat(gen, state, 1e-3, 1e-3)[0]
        fluct = gen.m_norm(state.u - mean)
        assert fluct <= fluct_prev * (1.0 + 1e-12)
        fluct_prev = fluct
    assert gen.total_mass(state.u) == pytest.approx(mass0, abs=50 * 1e-9 * abs(mass0))


def test_heat_preserves_positivity_at_small_steps():
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    for _ in range(25):
        state = run_heat(gen, state, 2e-4, 2e-4)[0]
    assert float(np.min(state.u)) >= -1e-12


def test_schrodinger_is_unitary():
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    state.u = state.u.astype(complex)
    norm0 = gen.m_norm(state.u)
    for _ in range(100):
        state = run_schrodinger(gen, state, 1e-3, 1e-3)[0]
    assert gen.m_norm(state.u) == pytest.approx(norm0, abs=1e-9 * norm0)


def test_schrodinger_ballistic_transport():
    """A plane-wave packet on the uniform-weight grid moves at the lattice
    group velocity (2/h) sin(k h)."""
    k = 2.0
    gen = assemble_generator(1.0, 2.999999, n_x=300, n_y=4)
    x = gen.x_of_cells()
    # y-uniform profile, so the x**2-weighted y coupling stays inert
    u0 = np.exp(-((x + 1.0) ** 2) / (2.0 * 0.5**2)) * np.exp(1j * k * x)
    state = EvolutionState(u=u0, t=0.0)

    def centroid(u):
        w = gen.m * np.abs(u) ** 2
        return float(np.dot(w, x) / np.sum(w))

    c0 = centroid(state.u)
    T, dt = 0.25, 5e-4
    for _ in range(int(round(T / dt))):
        state = run_schrodinger(gen, state, dt, dt)[0]
    v_measured = (centroid(state.u) - c0) / T
    h = gen.h
    v_lattice = (2.0 / h) * math.sin(k * h)
    assert v_measured == pytest.approx(v_lattice, rel=0.02)


def test_evolution_respects_mirror_symmetry():
    # reflecting the field across x = 0 commutes with the flow
    gen = _small_gen()
    nx1 = gen.x.size
    n_y = gen.n_y

    def reflect(u):
        return u.reshape(nx1, n_y)[::-1, :].reshape(-1)

    rng = np.random.default_rng(41)
    u = rng.uniform(0.0, 1.0, gen.m.size)
    sa = run_heat(gen, EvolutionState(u=u, t=0.0), 1e-3, 1e-3)[0].u
    sb = reflect(run_heat(gen, EvolutionState(u=reflect(u), t=0.0), 1e-3, 1e-3)[0].u)
    assert np.max(np.abs(sa - sb)) <= 1e-10


def test_transmitted_fraction_independent_of_y_resolution():
    # the observable telescopes in y, so n_y must not matter
    def frac(n_y):
        gen = assemble_generator(1.0, 0.05, n_x=200, n_y=n_y)
        state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
        state, _ = run_heat(gen, state, 0.05, 1e-3)
        x = gen.x_of_cells()
        return float(np.dot(gen.m[x > 0], state.u[x > 0]) / np.dot(gen.m, state.u))

    assert frac(4) == pytest.approx(frac(16), abs=1e-8)


def test_transmitted_fraction_stable_under_x_refinement():
    def frac(n_x):
        gen = assemble_generator(1.0, 0.05, n_x=n_x, n_y=8)
        state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
        state, _ = run_heat(gen, state, 0.1, 1e-3)
        x = gen.x_of_cells()
        return float(np.dot(gen.m[x > 0], state.u[x > 0]) / np.dot(gen.m, state.u))

    f400, f800 = frac(400), frac(800)
    assert abs(f800 - f400) / f400 <= 0.05


def test_run_heat_records_series():
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    state, series = run_heat(gen, state, 0.01, 1e-3, record_every=2)
    assert state.t == pytest.approx(0.01)
    assert series[0][0] == 0.0 and series[-1][0] == pytest.approx(0.01)
    for t, left, right, norm in series:
        assert left >= 0.0 and right >= 0.0 and norm > 0.0
    # transmitted share can only grow under the heat flow from a left start
    rights = [row[2] for row in series]
    assert rights[0] <= rights[-1]


def test_transmission_study_crossing_verdict():
    rep = transmission_study(0.5, [0.1, 0.05], T=0.25, n_x=200, n_y=8)
    assert rep.verdict == "crossing-consistent"
    assert len(rep.fractions) == 2
    assert dataclasses.asdict(rep)["alpha"] == 0.5


def test_transmission_study_inconclusive_carries_data():
    with pytest.raises(Inconclusive) as info:
        transmission_study(1.5, [0.1, 0.025], T=0.25, n_x=200, n_y=8)
    report = info.value.report
    assert report.verdict == "inconclusive"
    assert len(report.fractions) == 2
    assert all(f > 0.0 for f in report.fractions)


def test_validation_errors():
    with pytest.raises(ValueError):
        transmission_study(1.0, [0.05, 0.1], T=0.01, n_x=20, n_y=4)
    with pytest.raises(ValueError):
        transmission_study(1.0, [0.1], T=0.01, n_x=20, n_y=4)
    with pytest.raises(BadGrid):
        assemble_generator(1.0, 0.05, n_x=99, n_y=8)  # odd n_x
    with pytest.raises(BadGrid):
        assemble_generator(1.0, 0.05, n_x=100, n_y=2)
    with pytest.raises(BadGrid):
        assemble_generator(1.0, 5.0, n_x=100, n_y=8)  # eps beyond the box
    with pytest.raises(BadGrid):
        assemble_generator(-1.0, 0.05, n_x=100, n_y=8)
    for x_half in (math.inf, 1e300, 1.7e308):  # weights or cell width leave the floats
        with pytest.raises(BadGrid, match="assemble_generator: "):
            assemble_generator(1.0, 0.05, n_x=20, x_half=x_half, n_y=4)
    with pytest.raises(BadGrid, match="assemble_generator: the weights"):
        assemble_generator(1.0, 1e-301, n_x=20, x_half=1e-300, n_y=4)  # conductance overflows
    gen = _small_gen()
    with pytest.raises(ValueError):
        gaussian_bump_state(gen, (0.5, math.pi), 0.3)  # right of the line


@pytest.mark.parametrize("T, dt", [(0.01, 0.0), (0.01, -1e-3), (-0.01, 1e-3),
                                   (0.01, math.nan), (math.nan, 1e-3)])
def test_run_heat_rejects_bad_time_steps(T, dt):
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    # dt is checked first
    named = f"dt must be positive, got {dt}" if not dt > 0 else f"T must be non-negative, got {T}"
    with pytest.raises(ValueError, match=f"run_heat: {re.escape(named)}"):
        run_heat(gen, state, T, dt)


@pytest.mark.parametrize("run", [run_heat, run_schrodinger])
@pytest.mark.parametrize("T, dt", [(math.inf, 1e-3), (0.01, 1e-320)])
def test_runs_reject_a_step_count_that_is_not_finite(run, T, dt):
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    with pytest.raises(ValueError, match=f"{run.__name__}: T / dt = .* is not a finite step count"):
        run(gen, state, T, dt)


def test_run_heat_to_time_zero_keeps_the_field():
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    still, _ = run_heat(gen, state, 0.0, 1e-3)
    assert still.t == 0.0
    np.testing.assert_allclose(still.u, state.u, rtol=0.0, atol=1e-14)


def _loop_assembled(gen):
    """Reference assembly of C, edge by edge, with the degree on the diagonal.

    Returns C as a sparse matrix and the degree vector.
    """
    nx1, n_y = gen.x.size, gen.n_y
    rows, cols, vals = [], [], []
    j_all = np.arange(n_y)
    for i in range(nx1 - 1):  # x edges: conductance per unit y times the cell height
        a, b = i * n_y + j_all, (i + 1) * n_y + j_all
        rows += [a, b]
        cols += [b, a]
        vals += [np.full(n_y, gen.x_off[i])] * 2
    for i in range(nx1):  # y edges: periodic ring in each x cell
        a, b = i * n_y + j_all, i * n_y + (j_all + 1) % n_y
        rows += [a, b]
        cols += [b, a]
        vals += [np.full(n_y, gen.y_coef[i])] * 2
    n = nx1 * n_y
    off = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n)).tocsr()
    degree = np.asarray(off.sum(axis=1)).ravel()
    return (off - sparse.diags(degree)).tocsr(), degree


def test_kron_assembly_matches_loop_assembly():
    rng = np.random.default_rng(5)
    for n_x, n_y in ((4, 4), (10, 5), (16, 7), (30, 12), (24, 9)):
        alpha = float(rng.uniform(0.3, 2.0))
        eps = float(rng.uniform(1e-3, 0.5))
        period = float(rng.uniform(1.0, 8.0))
        gen = assemble_generator(alpha, eps, n_x=n_x, n_y=n_y, period=period)
        C, _ = _loop_assembled(gen)
        for c in (0.5, 0.5j):  # the heat and the Schrodinger system
            want = np.diag(gen.m) - c * C.toarray()
            got = np.column_stack([_mode_product(gen, c, e) for e in np.eye(gen.m.size)])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.3, 2.0), eps=st.floats(1e-3, 0.5), half_n_x=st.integers(2, 30),
       n_y=st.integers(4, 12), dt=st.floats(1e-4, 0.1), seed=st.integers(0, 2**32 - 1))
def test_steps_match_sparse_direct_solve(alpha, eps, half_n_x, n_y, dt, seed):
    gen = assemble_generator(alpha, eps, n_x=2 * half_n_x, n_y=n_y)
    rng = np.random.default_rng(seed)
    n = gen.m.size
    M = sparse.diags(gen.m)
    C, _ = _loop_assembled(gen)
    u = rng.standard_normal(n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for run, c, v in ((run_heat, 0.5 * dt, u), (run_schrodinger, 0.5j * dt, z)):
        want = spsolve((M - c * C).tocsc(), (M + c * C) @ v)
        got = run(gen, EvolutionState(u=v, t=0.0), dt, dt)[0].u
        assert gen.m_norm(got - want) <= 1e-10 * gen.m_norm(want)


def _corrupt_factor(name, index, fail):
    factor = getattr(evolution.lapack, name)

    def corrupted(*args):
        *lu, info = factor(*args)
        if fail:
            return (*lu, 1)
        lu[index] = lu[index] * (1.0 + 1e-6)
        return (*lu, info)

    return corrupted


# T = dt is one step of the time loop, T = 5 dt five
@pytest.mark.parametrize("run, factor, index, T", [
    (run_heat, "dpttrf", 0, 1e-3), (run_schrodinger, "zgttrf", 1, 1e-3),
    (run_heat, "dpttrf", 0, 5e-3), (run_schrodinger, "zgttrf", 1, 5e-3)],
    ids=["run_heat-one-step-dpttrf-0", "run_schrodinger-one-step-zgttrf-1",
         "run_heat-dpttrf-0", "run_schrodinger-zgttrf-1"])
@pytest.mark.parametrize("fail", [False, True])
def test_corrupted_factor_raises(monkeypatch, run, factor, index, T, fail):
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    monkeypatch.setattr(evolution.lapack, factor, _corrupt_factor(factor, index, fail))
    with pytest.raises(SolverDiverged, match="info=1" if fail else "relative residual"):
        run(gen, state, T, 1e-3)


def _failing_solve(name):
    solve = getattr(evolution.lapack, name)

    def failed(*args):
        x, _ = solve(*args)
        return x, -1

    return failed


@pytest.mark.parametrize("run, solve", [(run_heat, "dpttrs"), (run_schrodinger, "zgttrs")])
def test_failed_solve_raises(monkeypatch, run, solve):
    gen = _small_gen()
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    monkeypatch.setattr(evolution.lapack, solve, _failing_solve(solve))
    with pytest.raises(SolverDiverged, match=r"LAPACK \?trs failed with info=-1"):
        run(gen, state, 5e-3, 1e-3)


# at alpha = 300 the cell masses near x = 0 reach about 1e300, so a squared
# right-hand side leaves the floats and the step gate must not read an inf norm
@pytest.mark.parametrize("run", [run_heat, run_schrodinger])
@pytest.mark.parametrize("alpha", [300.0, 1.0])
@pytest.mark.parametrize("perturbed", [False, True])
def test_a_perturbed_solve_fails_the_step_gate(monkeypatch, run, alpha, perturbed):
    gen = assemble_generator(alpha, 0.1, n_x=20, n_y=4)
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    if not perturbed:
        got, _ = run(gen, state, 0.5, 1e-3)
        assert np.all(np.isfinite(got.u))
        return
    solve = evolution._ModeSystem.solve
    monkeypatch.setattr(evolution._ModeSystem, "solve",
                        lambda self, rhs: solve(self, rhs) * (1.0 + 1e-6))
    with pytest.raises(SolverDiverged, match="relative residual"):
        run(gen, state, 0.5, 1e-3)


def _exact_norm(v, w):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return sum((decimal.Decimal(float(a)) * decimal.Decimal(float(b)) ** 2
                    for a, b in zip(w, v)), decimal.Decimal(0)).sqrt()


def _float_view(parts, complex_):
    """A float vector from parts, as is, or as the float view of a complex one."""
    v = np.array(parts, dtype=float)
    return (v[:v.size // 2 * 2].view(complex) if complex_ else v).view(float)


# no part below 1e-100 in size but 0, so no weighted square is subnormal
_FLOAT_PARTS = st.lists(st.just(0.0) | st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100),
                        min_size=2, max_size=30)
_WEIGHTS = st.lists(st.floats(1e-30, 1e30), min_size=30, max_size=30)


@settings(max_examples=200, deadline=None)
@given(parts=_FLOAT_PARTS, weights=_WEIGHTS, complex_=st.booleans())
def test_weighted_norm_matches_its_sum_where_finite(parts, weights, complex_):
    v = _float_view(parts, complex_)
    w = np.array(weights[:v.size])
    assert evolution._weighted_norm(v, w) == pytest.approx(
        math.sqrt(np.sum(w * v * v)), rel=1e-15, abs=0.0)
    assert evolution._weighted_norm(np.zeros_like(v), w) == 0.0


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.floats(0.5, 2.0) | st.floats(-2.0, -0.5), min_size=2, max_size=30),
       complex_=st.booleans())
def test_weighted_norm_beyond_the_floats_of_its_sum(parts, complex_):
    v = _float_view(parts, complex_) * 1e200
    w = np.ones(v.size)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(w * v * v))
    # _weighted_norm leaves the errstate to its callers; m_norm holds its own
    u = v.view(complex) if complex_ else v
    gen = dataclasses.replace(_small_gen(), m=np.ones(u.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gen.m_norm(u)
    assert math.isfinite(got)
    assert abs(decimal.Decimal(got) / _exact_norm(v, w) - 1) <= decimal.Decimal("1e-15")


@pytest.mark.parametrize("fractions, verdict", [
    ([0.2, 0.02, 5e-4], "barrier-consistent"),
    ([0.2, 0.02, 1e-3], "inconclusive"),  # decreasing, but not below 1e-3
    ([0.3, 0.31, 0.3], "crossing-consistent"),
    ([0.3, 0.3, 0.009], "inconclusive"),  # not decreasing, and 0.3 -> 0.009 not within 10%
    ([0.0, 0.0], "inconclusive"),
])
def test_transmission_verdict_table(fractions, verdict):
    assert transmission_verdict(fractions) == verdict


@pytest.mark.parametrize("sigma", [0.3, 2.0])
@pytest.mark.parametrize("yc", [0.2, 3.0, 6.0])
def test_start_bump_is_periodic_in_its_center(sigma, yc):
    gen = assemble_generator(1.0, 0.1, n_x=40, n_y=16)
    want = gaussian_bump_state(gen, (-1.0, yc), sigma).u
    for k in (-2, -1, 1, 2):
        got = gaussian_bump_state(gen, (-1.0, yc + k * gen.period), sigma).u
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=f"k = {k}")


_FLOWS = pytest.mark.parametrize("run, density", [
    (run_heat, lambda u: u),
    (run_schrodinger, lambda u: np.abs(u) ** 2)], ids=["heat", "schrodinger"])


@_FLOWS
@pytest.mark.parametrize("n_y", [7, 8])
def test_run_matches_chained_steps(run, density, n_y):
    gen = assemble_generator(1.2, 0.05, n_x=80, n_y=n_y)
    rng = np.random.default_rng(n_y)
    state = gaussian_bump_state(gen, (-1.0, 2.0), 0.4)
    state.u = state.u + 0.1 * rng.uniform(size=state.u.size)
    n, dt = 23, 2e-3
    got, _ = run(gen, state, n * dt, dt)
    want = state
    for _ in range(n):
        want = run(gen, want, dt, dt)[0]
    assert got.t == want.t
    assert got.u.dtype == want.u.dtype
    assert gen.m_norm(got.u - want.u) <= 1e-12 * gen.m_norm(want.u)


@_FLOWS
@pytest.mark.parametrize("n_y, record_every", [(7, 1), (7, 3), (8, 3), (9, 1)])
def test_series_rows_match_real_space_recomputation(run, density, n_y, record_every):
    gen = assemble_generator(0.8, 0.05, n_x=60, n_y=n_y)
    rng = np.random.default_rng(3 * n_y + record_every)
    state = gaussian_bump_state(gen, (-1.0, 2.0), 0.4)
    # mass on both sides, varying in y, so every Parseval weight counts
    state.u = state.u + rng.uniform(0.5, 1.0, state.u.size)
    n, dt = 10, 2e-3
    _, series = run(gen, state, n * dt, dt, record_every=record_every)
    recorded = [k for k in range(n + 1) if k % record_every == 0 or k == n]
    assert [row[0] for row in series] == pytest.approx([k * dt for k in recorded], abs=1e-15)
    x = gen.x_of_cells()
    k, want = 0, state
    for row, k_row in zip(series, recorded):
        while k < k_row:  # each step's state is the inverse FFT of its modes
            want, k = run(gen, want, dt, dt)[0], k + 1
        d = density(want.u)
        expected = (float(np.dot(gen.m[x < 0], d[x < 0])),
                    float(np.dot(gen.m[x > 0], d[x > 0])), gen.m_norm(want.u))
        for got_value, want_value in zip(row[1:], expected):
            assert abs(got_value - want_value) <= 1e-12 * abs(want_value)


@pytest.mark.parametrize("n_y", [7, 8, 9])
def test_mode_systems_hold_n_y_blocks_and_round_trip_a_real_field(n_y):
    gen = assemble_generator(0.8, 0.05, n_x=20, n_y=n_y)
    u = np.random.default_rng(n_y).uniform(-1.0, 1.0, gen.m.size)
    for c in (5e-4, 5e-4j):  # heat: real modes; Schrodinger: complex modes
        system = evolution._mode_system(gen, c)
        w = system.to_modes(u)
        assert w.shape == system.diag.shape == (n_y * gen.x.size,)
        assert np.max(np.abs(system.from_modes(w) - u)) <= 1e-15


def test_eps_sweep_rejects_bad_sweeps():
    with pytest.raises(ValueError, match="strictly decreasing"):
        eps_sweep(1.0, [0.05, 0.1], 0.01, n_x=20, n_y=4)
    with pytest.raises(ValueError, match="'wave'"):
        eps_sweep(1.0, [0.1], 0.01, equation="wave", n_x=20, n_y=4)


def test_eps_sweep_report_matches_transmission_study():
    kwargs = dict(n_x=60, n_y=4, dt=2e-3)
    series, report = eps_sweep(0.5, [0.1, 0.05], 0.1, record_every=5, **kwargs)
    assert report == transmission_study(0.5, [0.1, 0.05], 0.1, **kwargs)
    assert [len(rows) for rows in series] == [11, 11]
    series, report = eps_sweep(0.5, [0.1], 0.1, equation="schrodinger", **kwargs)
    assert report is None and series == [[]]


def test_eps_sweep_gives_no_verdict_for_one_eps_value():
    # one fraction is no sweep: no verdict, not a "crossing-consistent" one
    series, report = eps_sweep(0.5, [0.1], 0.05, n_x=40, n_y=4)
    assert report is None and series == [[]]
    with pytest.raises(ValueError, match="transmission_study: need at least two eps values"):
        transmission_study(0.5, [0.1], 0.05, n_x=40, n_y=4)
