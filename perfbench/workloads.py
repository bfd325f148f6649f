"""Request lists for the three benchmark workloads.

A workload is run as a sequence of passes.  Each pass is a fixed list of
requests: the kinds, their order, grid sizes, step counts and ray counts
never change.  The seed (together with the pass index) only draws the
input values: exponents, bump parameters, start points and k/l lists.

Every request belongs to one of three end-to-end slots per workload,
reported as kind1_s, kind2_s and kind3_s (see SLOTS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# slot order per workload: kind1_s, kind2_s, kind3_s
SLOTS = {
    "modes": ("spectrum", "martinet", "classify"),
    "transport": ("heat_barrier", "schrodinger", "heat_crossing"),
    "fan": ("front", "geodesic", "length"),
}

WORKLOADS = tuple(SLOTS)

# sizes shared by every request of a kind; the seed never changes them
SPECTRUM = {"k_max": 1, "m_per_mode": 4, "n": 2000, "x_max": 12.0}
CLASSIFY_PER_PASS = 6
EVOLVE = {"n_x": 400, "n_y": 16, "t_final": 0.1, "dt": 1e-3}
HEAT_EPS = (0.1, 0.05, 0.025)
SCHRODINGER_EPS = (0.1, 0.05)
FRONT = {"n": 16, "t_final": 0.05, "dt": 1e-4}
GEODESIC = {"t_final": 1.5, "dt": 1e-4, "tol_h": 1e-8}
LENGTHS_PER_PASS = 2
LENGTH_SAMPLES = 2000


@dataclass
class Request:
    """One call into arslab.

    argv is a CLI argument list (without --out-dir); a request with argv
    None calls arslab.curve_length on params["t"], ["x"], ["y"].
    """

    kind: str
    params: dict
    argv: list = None


def _num(v):
    return repr(float(v))


def _csv(values):
    return ",".join(repr(v) for v in values)


def bump_f(x, y, amplitude, sigma):
    """f = x exp(s) of the f2 frame with a gaussian-bump log scale."""
    s2 = sigma * sigma
    s = amplitude * np.exp(-np.asarray(x) ** 2 / (2 * s2)) * np.exp(
        (np.cos(np.asarray(y) - math.pi) - 1.0) / s2)
    return x * np.exp(s)


def grushin_arc(theta, scale, y0, t):
    """Unit-speed Grushin geodesic from (-scale, y0) with covector angle theta.

    Closed form at the reference start (-1, 0), carried to (-scale, y0)
    by the symmetry (x, y, t) -> (s x, s**2 y, s t) and y-translation.
    """
    b = math.sin(theta)
    tau = np.asarray(t) / scale
    x = -np.sin(theta - b * tau) / b
    y = (2 * b * tau + np.sin(2 * theta - 2 * b * tau) - math.sin(2 * theta)) / (4 * b * b)
    return scale * x, y0 + scale * scale * y


def _modes(rng):
    reqs = []
    for alpha in (1.0, float(rng.uniform(0.5, 2.0))):
        p = dict(SPECTRUM, alpha=alpha)
        reqs.append(Request("spectrum", p, [
            "spectrum", "--alpha", _num(alpha), "--k-max", str(p["k_max"]),
            "--m-per-mode", str(p["m_per_mode"]), "--n", str(p["n"]),
            "--x-max", _num(p["x_max"])]))
    ks = [int(rng.integers(0, 3))]
    ls = sorted(int(v) + 1 for v in rng.choice(3, size=2, replace=False))
    # n, m and y_max stay at the CLI defaults; one k by two l
    reqs.append(Request("martinet", {"k": ks, "l": ls, "n": 2000, "m": 4},
                        ["martinet", "--k", _csv(ks), "--l", _csv(ls)]))
    half = CLASSIFY_PER_PASS // 2
    alphas = list(rng.uniform(0.3, 0.9, half)) + list(rng.uniform(1.1, 2.5, half))
    for alpha in alphas:
        reqs.append(Request("classify", {"alpha": float(alpha)}, [
            "classify", "--alpha", _num(alpha), "--numeric-check"]))
    return reqs


def _evolve(kind, alpha, eps, equation, rng):
    p = dict(EVOLVE, alpha=float(alpha), eps=list(eps), equation=equation,
             bump_x=float(rng.uniform(-1.2, -0.8)), bump_y=float(rng.uniform(2.5, 3.8)),
             bump_sigma=float(rng.uniform(0.25, 0.35)))
    argv = ["evolve", "--equation", equation, "--alpha", _num(alpha), "--eps", _csv(eps)]
    for key in ("n_x", "n_y"):
        argv += ["--" + key.replace("_", "-"), str(p[key])]
    for key in ("t_final", "dt", "bump_x", "bump_y", "bump_sigma"):
        argv += ["--" + key.replace("_", "-"), _num(p[key])]
    return Request(kind, p, argv)


def _transport(rng):
    return [
        _evolve("heat_barrier", rng.uniform(1.0, 1.5), HEAT_EPS, "heat", rng),
        _evolve("schrodinger", rng.uniform(0.5, 2.0), SCHRODINGER_EPS, "schrodinger", rng),
        _evolve("heat_crossing", rng.uniform(0.4, 0.9), HEAT_EPS, "heat", rng),
    ]


def _fan(rng):
    amplitude, sigma = float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.5, 0.9))
    frame = ["--variant", "f2", "--log-scale", f"gaussian-bump({amplitude!r},{sigma!r})"]
    reqs = []
    x0 = float(rng.uniform(-1.3, -0.7))
    p = dict(FRONT, amplitude=amplitude, sigma=sigma, x0=x0, y0=math.pi)
    reqs.append(Request("front", p, ["front", *frame, "--x0", _num(x0), "--y0", _num(math.pi),
                                     "--t-final", _num(p["t_final"]), "--n", str(p["n"]),
                                     "--dt", _num(p["dt"])]))
    # px0 >= cos(0.9) and dpx/dt > 0 for x < 0: the ray crosses x = 0 before T
    x0 = float(rng.uniform(-0.9, -0.5))
    y0 = float(rng.uniform(math.pi - 1.0, math.pi + 1.0))
    phi = float(rng.uniform(0.3, 0.9))
    # unit speed: H = (px**2 + f**2 py**2) / 2 = 1/2
    px0 = math.cos(phi)
    py0 = math.sin(phi) / abs(float(bump_f(x0, y0, amplitude, sigma)))
    p = dict(GEODESIC, amplitude=amplitude, sigma=sigma, x0=x0, y0=y0, px0=px0, py0=py0)
    argv = ["geodesic", *frame]
    for key in ("x0", "y0", "px0", "py0", "t_final", "dt", "tol_h"):
        argv += ["--" + key.replace("_", "-"), _num(p[key])]
    reqs.append(Request("geodesic", p, argv))
    for _ in range(LENGTHS_PER_PASS):
        # theta/sin(theta) >= 1 keeps every arc with t/scale < 1 off x = 0
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        if rng.random() < 0.5:
            theta += math.pi
        scale = float(rng.uniform(0.8, 1.5))
        T = scale * float(rng.uniform(0.5, 0.9))
        t = np.linspace(0.0, T, LENGTH_SAMPLES)
        x, y = grushin_arc(theta, scale, float(rng.uniform(-1.0, 1.0)), t)
        reqs.append(Request("length", {"T": T, "theta": theta, "t": t, "x": x, "y": y}))
    return reqs


_BUILDERS = {"modes": _modes, "transport": _transport, "fan": _fan}


def build_pass(workload, seed, index):
    """The request list of pass `index` of `workload` under `seed`."""
    rng = np.random.default_rng([int(seed) % 2**63, int(index)])
    return _BUILDERS[workload](rng)
