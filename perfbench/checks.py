"""Output checks that hold for every seed.

Each check reads what one request wrote (or returned) and compares it
with an oracle that does not go through arslab: a closed form, LAPACK on
an independently rebuilt matrix, or a conservation law.  A check returns
a list of problems; an empty list means the output is correct.

Tolerances are fixed here, from the discretizations the workloads use:
- eigenvalues agree with LAPACK to 1e-8 relative (measured: 1e-10);
- alpha = 1, k >= 1 modes match 4|k|(n+1) to 2e-4 (measured: 2e-5);
- k = 0 modes match the Dirichlet Bessel zeros to 2e-3; the staggered
  grid moves the Dirichlet wall by h/2, a shift of 1/n = 5e-4;
- eigen residuals stay below the solver's own 1e-8 * ||A||_inf gate;
- heat mass drifts by at most 1e-7 relative (measured: 7e-10), the
  Schrodinger norm by at most 1e-10 (measured: 1e-15);
- geodesic energy drifts by at most the solver's own 100 * tol_h gate;
- curve_length of a unit-speed arc of duration T is T to 1e-6.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv

from workloads import bump_f

EIG_REL_TOL = 1e-8
CLOSED_FORM_REL_TOL = 2e-4
BESSEL_REL_TOL = 2e-3
RESIDUAL_TOL = 1e-8
HEAT_MASS_TOL = 1e-7
NORM_TOL = 1e-10
LENGTH_REL_TOL = 1e-6
ENDPOINT_TOL = 1e-9


def _table(path):
    with open(path) as fh:
        columns = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(columns, data.T))


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def staggered(potential, n, x_max):
    """-d2/dx2 + potential on (0, x_max), nodes (j + 1/2) h, Dirichlet at x_max."""
    h = x_max / n
    x = (np.arange(n) + 0.5) * h
    return 2.0 / h**2 + potential(x), np.full(n - 1, -1.0 / h**2)


def inf_norm(diag, off):
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return float(np.max(np.abs(diag) + radius))


def bessel_zeros(nu, m):
    """First m positive zeros of J_nu by bracketing and brentq."""
    zeros, a, fa, step = [], 1e-3, jv(nu, 1e-3), 0.05
    while len(zeros) < m:
        b = a + step
        fb = jv(nu, b)
        if fa * fb < 0:
            zeros.append(brentq(lambda t: jv(nu, t), a, b, xtol=1e-14))
        a, fa = b, fb
    return np.array(zeros)


def _eigen_problems(label, values, residuals, diag, off):
    m = values.size
    norm = inf_norm(diag, off)
    ref = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, m - 1))
    problems = []
    if np.any(residuals > RESIDUAL_TOL * norm):
        problems.append(f"{label}: residual {residuals.max():.3e} above "
                        f"{RESIDUAL_TOL} * ||A|| = {RESIDUAL_TOL * norm:.3e}")
    err = np.max(np.abs(values - ref) / np.abs(ref))
    if not err <= EIG_REL_TOL:
        problems.append(f"{label}: eigenvalues differ from LAPACK by {err:.3e} relative")
    return problems


def _rel_err(values, exact):
    return float(np.max(np.abs(values - exact) / np.abs(exact)))


def check_spectrum(req, out, rc):
    p = req.params
    tab = _table(out / "spectrum.csv")
    k_max, m, n, alpha = p["k_max"], p["m_per_mode"], p["n"], p["alpha"]
    problems = []
    if tab["k"].size != (2 * k_max + 1) * m:
        return [f"spectrum: {tab['k'].size} rows, expected {(2 * k_max + 1) * m}"]
    c = (alpha / 2.0) * (alpha / 2.0 + 1.0)
    for k in range(k_max + 1):
        rows = np.flatnonzero(tab["k"] == k)
        rows = rows[np.argsort(tab["n"][rows])]
        values, residuals = tab["lambda"][rows], tab["residual"][rows]
        if k > 0:
            mirror = np.flatnonzero(tab["k"] == -k)
            if not np.array_equal(np.sort(tab["lambda"][mirror]), np.sort(values)):
                problems.append(f"spectrum k=+-{k}: the two modes differ")
        box = p["x_max"] if k == 0 else p["x_max"] / math.sqrt(k)
        diag, off = staggered(lambda x: k * k * x ** (2.0 * alpha) + c / x**2, n, box)
        problems += _eigen_problems(f"spectrum alpha={alpha} k={k}", values, residuals,
                                    diag, off)
        if k == 0:
            exact = (bessel_zeros((alpha + 1.0) / 2.0, m) / box) ** 2
            if not _rel_err(values, exact) <= BESSEL_REL_TOL:
                problems.append(f"spectrum k=0: off the Bessel zeros by "
                                f"{_rel_err(values, exact):.3e}")
        elif alpha == 1.0:
            exact = 4.0 * k * (np.arange(m) + 1.0)
            if not _rel_err(values, exact) <= CLOSED_FORM_REL_TOL:
                problems.append(f"spectrum alpha=1 k={k}: off 4|k|(n+1) by "
                                f"{_rel_err(values, exact):.3e}")
    return problems


def check_martinet(req, out, rc):
    p = req.params
    tab = _table(out / "martinet.csv")
    m = p["m"]
    if tab["k"].size != len(p["k"]) * len(p["l"]) * m:
        return [f"martinet: {tab['k'].size} rows, expected {len(p['k']) * len(p['l']) * m}"]
    problems = []
    if np.any(tab["multiplicity"] != 2):
        problems.append("martinet: multiplicity is not 2")
    for k in p["k"]:
        for l in p["l"]:
            rows = np.flatnonzero((tab["k"] == k) & (tab["l"] == l))
            rows = rows[np.argsort(tab["n"][rows])]
            y_max = 10.0 / max(abs(l), 1) ** 0.25
            diag, off = staggered(lambda y: (k + 0.5 * l * y * y) ** 2 + 0.75 / y**2,
                                  p["n"], y_max)
            problems += _eigen_problems(f"martinet k={k} l={l}", tab["lambda"][rows],
                                        tab["residual"][rows], diag, off)
    return problems


def check_classify(req, out, rc):
    alpha = req.params["alpha"]
    c = (alpha / 2.0) * (alpha / 2.0 + 1.0)
    got = _json(out / "classify.json")
    esa = c >= 0.75
    expected = {
        "verdict": "essentially-self-adjoint" if esa else "needs-boundary-condition",
        "essentially_self_adjoint": esa,
        "deficiency_count": 0 if esa else 1,
        "numeric_deficiency_count": 0 if esa else 1,
    }
    problems = [f"classify alpha={alpha}: {key} is {got.get(key)!r}, expected {val!r}"
                for key, val in expected.items() if got.get(key) != val]
    root = math.sqrt(0.25 + c)
    if not (abs(got["indicial_plus"] - (0.5 + root)) <= 1e-12
            and abs(got["indicial_minus"] - (0.5 - root)) <= 1e-12):
        problems.append(f"classify alpha={alpha}: wrong indicial exponents")
    return problems


def _evolve_series(req, out, eps):
    tab = _table(out / f"evolve_eps_{eps!r}.csv")
    n_steps = max(1, int(round(req.params["t_final"] / req.params["dt"])))
    if tab["t"].size != n_steps + 1:
        raise ValueError(f"evolve eps={eps}: {tab['t'].size} rows, expected {n_steps + 1}")
    return tab


def check_heat(req, out, rc):
    """Mass conservation per eps, from the CSV and transmission.json.

    The bump starts strictly left of x = 0, so the initial total mass is
    mass_left + mass_right of the first row; the final total is
    mass_right / fraction.
    """
    report = _json(out / "transmission.json")
    if (rc == 3) != (report["verdict"] == "inconclusive"):
        return [f"evolve heat: exit {rc} with verdict {report['verdict']!r}"]
    if len(report["fractions"]) != len(req.params["eps"]):
        return [f"evolve heat: {len(report['fractions'])} fractions for {req.params['eps']}"]
    problems = []
    for eps, frac in zip(req.params["eps"], report["fractions"]):
        tab = _evolve_series(req, out, eps)
        if not 0.0 < frac < 1.0:
            problems.append(f"evolve heat eps={eps}: fraction {frac} outside (0, 1)")
            continue
        m0 = tab["mass_left"][0] + tab["mass_right"][0]
        drift = abs(tab["mass_right"][-1] / frac - m0) / m0
        if not drift <= HEAT_MASS_TOL:
            problems.append(f"evolve heat eps={eps}: mass drift {drift:.3e}")
        norm = tab["norm"]
        if np.any(norm[1:] > norm[:-1] * (1.0 + 1e-9)):
            problems.append(f"evolve heat eps={eps}: the M-norm grew")
    return problems


def regime_note(req, out):
    """The sweep verdict against the paper: a barrier for alpha >= 1."""
    report = _json(out / "transmission.json")
    alpha = req.params["alpha"]
    expected = "barrier-consistent" if alpha >= 1.0 else "crossing-consistent"
    if report["verdict"] == expected:
        return None
    return (f"alpha={alpha:.4f}: sweep says {report['verdict']}, paper regime is "
            f"{expected}; fractions {[round(f, 6) for f in report['fractions']]}")


def check_schrodinger(req, out, rc):
    problems = []
    for eps in req.params["eps"]:
        norm = _evolve_series(req, out, eps)["norm"]
        drift = float(np.max(np.abs(norm - norm[0])) / norm[0])
        if not drift <= NORM_TOL:
            problems.append(f"evolve schrodinger eps={eps}: norm drift {drift:.3e}")
    return problems


def check_front(req, out, rc):
    """Endpoints of the fan from (x0, pi) on an f2 + bump frame.

    The frame is symmetric about y = pi, so rays theta and 2 pi - theta
    end at mirror images.  The rays theta = 0 and pi carry py = 0 and stay
    on the horizontal line through the start, ending at x0 +- T.  Since
    |dx/dt| = |px| <= 1 on H = 1/2, every endpoint has |x - x0| <= T.
    """
    p = req.params
    n, T, x0, y0 = p["n"], p["t_final"], p["x0"], p["y0"]
    tab = _table(out / "front.csv")
    summary = _json(out / "manifest.json")["summary"]
    if tab["x"].size != n or summary.get("provenance") != "integrated":
        return [f"front: {tab['x'].size} endpoints, provenance {summary.get('provenance')!r}"]
    x, y = tab["x"], tab["y"]
    problems = []
    if not np.allclose(tab["param"], np.linspace(0.0, 2.0 * math.pi, n, endpoint=False),
                       rtol=0.0, atol=1e-12):
        problems.append("front: wrong ray angles")
    horizontal = [(0, x0 + T), (n // 2, x0 - T)]
    for row, x_end in horizontal:
        if not (abs(x[row] - x_end) <= ENDPOINT_TOL and abs(y[row] - y0) <= ENDPOINT_TOL):
            problems.append(f"front: ray {row} ends at ({x[row]}, {y[row]}), "
                            f"expected ({x_end}, {y0})")
    mirror = (n - np.arange(1, n)) % n
    if not (np.allclose(x[1:], x[mirror], rtol=0.0, atol=ENDPOINT_TOL)
            and np.allclose(y[1:] - y0, y0 - y[mirror], rtol=0.0, atol=ENDPOINT_TOL)):
        problems.append("front: endpoints are not mirror symmetric about y = y0")
    if np.any(np.abs(x - x0) > T * (1.0 + 1e-12)):
        problems.append("front: an endpoint moved farther than T in x")
    return problems


def check_geodesic(req, out, rc):
    """Energy along the stored trajectory, and perpendicular crossings.

    H is recomputed from the CSV with an independent f; dy/dt = f**2 py
    vanishes on x = 0, so every crossing has ydot = 0.
    """
    p = req.params
    tab = _table(out / "geodesic.csv")
    n_steps = max(1, int(round(p["t_final"] / p["dt"])))
    if tab["t"].size != n_steps + 1:
        return [f"geodesic: {tab['t'].size} rows, expected {n_steps + 1}"]
    f = bump_f(tab["x"], tab["y"], p["amplitude"], p["sigma"])
    energy = 0.5 * (tab["px"] ** 2 + f**2 * tab["py"] ** 2)
    gate = 100.0 * p["tol_h"]
    problems = []
    if not abs(energy[0] - 0.5) <= 1e-12:
        problems.append(f"geodesic: start energy {energy[0]} is not 1/2")
    drift = float(np.max(np.abs(energy - energy[0])))
    if not drift <= gate:
        problems.append(f"geodesic: energy drift {drift:.3e} above {gate:.1e}")
    summary = _json(out / "manifest.json")["summary"]
    if not summary["crossings"]:
        problems.append("geodesic: no crossing of x = 0 reported")
    if any(abs(c["ydot"]) > 1e-6 for c in summary["crossings"]):
        problems.append("geodesic: a crossing is not perpendicular to x = 0")
    return problems


def check_length(req, out, value):
    T = req.params["T"]
    if not abs(value - T) <= LENGTH_REL_TOL * T:
        return [f"curve_length: {value!r} for a unit-speed arc of duration {T!r}"]
    return []


CHECKS = {
    "spectrum": check_spectrum,
    "martinet": check_martinet,
    "classify": check_classify,
    "heat_barrier": check_heat,
    "heat_crossing": check_heat,
    "schrodinger": check_schrodinger,
    "front": check_front,
    "geodesic": check_geodesic,
    "length": check_length,
}

# exit codes a request may end with; 3 is an Inconclusive sweep that
# still wrote transmission.json
EXIT_OK = {"heat_barrier": (0, 3), "heat_crossing": (0, 3)}


def check(req, out, result):
    """Problems with one request's output; result is the exit code or value."""
    if req.argv is not None and result not in EXIT_OK.get(req.kind, (0,)):
        return [f"{req.kind}: exit code {result}"]
    try:
        return CHECKS[req.kind](req, out, result)
    except (OSError, LookupError, ValueError, TypeError, ArithmeticError) as exc:
        return [f"{req.kind}: unreadable output: {exc!r}"]
