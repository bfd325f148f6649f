"""Command line driver.

Every subcommand resolves one fully-defaulted configuration, runs one
deterministic computation, writes CSV/JSON artifacts into --out-dir and
a manifest.json recording the resolved configuration, so any output
file can be regenerated from the manifest alone.  A JSON --config file
overrides command line flags; unknown keys are rejected.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (the message names the failing operation).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ArslabError, BadGrid, Inconclusive, OutOfRange, UnsupportedFrame)
from .evolution import (TransmissionReport, assemble_generator, gaussian_bump_state, run_heat,
                        run_schrodinger, transmission_verdict, transmitted_fraction)
from .frames import frame_from_config, frame_vectors, laplace_beltrami_coeffs, metric_at
from .geodesics import crossing_report, front, geodesic_flow
from .martinet import martinet_mode_solve
from .spectral import (classify_self_adjoint, deficiency_index_numeric,
                       inverse_square_coefficient, spectrum_2d)

_TWO_PI = 2.0 * math.pi

_VALIDATION_ERRORS = (ValueError, BadGrid, OutOfRange, UnsupportedFrame)


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "metric": {
        "frame": {"variant": "grushin"},
        "x": 1.0,
        "y": 0.0,
    },
    "geodesic": {
        "frame": {"variant": "grushin"},
        "x0": -1.0,
        "y0": 0.0,
        "px0": math.cos(math.pi / 4),
        "py0": math.sin(math.pi / 4),
        "t_final": 3.0,
        "dt": 1e-4,
        "tol_h": 1e-8,
    },
    "front": {
        "frame": {"variant": "grushin"},
        "x0": -1.0,
        "y0": 0.0,
        "t_final": 1.0,
        "n": 64,
        "param_max": 15.0,
        "dt": 1e-4,
    },
    "spectrum": {
        "alpha": 1.0,
        "k_max": 3,
        "m_per_mode": 4,
        "n": 2000,
        "x_max": 12.0,
    },
    "classify": {
        "alpha": None,
        "c": None,
        "numeric_check": False,
        "eps": 1e-3,
        "x_far": 10.0,
    },
    "evolve": {
        "alpha": 1.0,
        "eps": [0.1, 0.05, 0.025, 0.0125],
        "equation": "heat",
        "t_final": 0.5,
        "dt": 1e-3,
        "n_x": 400,
        "x_half": 3.0,
        "n_y": 64,
        "period": _TWO_PI,
        "bump_x": -1.0,
        "bump_y": math.pi,
        "bump_sigma": 0.3,
        "record_every": 1,
        "tol": 1e-10,
    },
    "martinet": {
        "k": [0, 1],
        "l": [1, 2],
        "n": 2000,
        "y_max": None,
        "m": 4,
    },
}


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        raise TypeError("no boolean CSV cells")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return {"columns": list(columns), "rows": len(rows)}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"columns": None, "rows": None}


# -- handlers -----------------------------------------------------------


def _cmd_metric(cfg, out_dir):
    fr = frame_from_config(cfg["frame"])
    p = (float(cfg["x"]), float(cfg["y"]))
    md = metric_at(fr, p)
    vecs = frame_vectors(fr, p)
    coeffs = laplace_beltrami_coeffs(fr, p)
    columns = ["x", "y", "f", "f_dx", "g11", "g22", "area_density", "curvature",
               "lap_a_xx", "lap_a_yy", "lap_b_x", "lap_b_y"]
    row = [p[0], p[1], md.f, md.f_dx, md.g11, md.g22, md.area_density, md.curvature,
           coeffs[0], coeffs[1], coeffs[2], coeffs[3]]
    outputs = {"metric.csv": _write_csv(out_dir / "metric.csv", columns, [row])}
    summary = dict(zip(columns, (float(v) for v in row)))
    summary["frame_vector_2"] = list(vecs[1])
    return outputs, summary


def _cmd_geodesic(cfg, out_dir):
    fr = frame_from_config(cfg["frame"])
    state0 = (float(cfg["x0"]), float(cfg["y0"]), float(cfg["px0"]), float(cfg["py0"]))
    traj = geodesic_flow(fr, state0, float(cfg["t_final"]), dt=float(cfg["dt"]),
                         tol_H=float(cfg["tol_h"]))
    rows = [(traj.t[i], *traj.states[i]) for i in range(traj.t.size)]
    outputs = {"geodesic.csv": _write_csv(out_dir / "geodesic.csv",
                                          ["t", "x", "y", "px", "py"], rows)}
    crossings = [{"t": t, "xdot": xd, "ydot": yd} for t, xd, yd in crossing_report(traj, fr)]
    summary = {"energy_drift": traj.energy_drift, "crossings": crossings,
               "n_steps": traj.t.size - 1}
    return outputs, summary


def _cmd_front(cfg, out_dir):
    fr = frame_from_config(cfg["frame"])
    ft = front(fr, (float(cfg["x0"]), float(cfg["y0"])), float(cfg["t_final"]),
               int(cfg["n"]), param_max=float(cfg["param_max"]), dt=float(cfg["dt"]))
    rows = [(int(ft.families[i]), ft.params[i], ft.endpoints[i, 0], ft.endpoints[i, 1])
            for i in range(ft.params.size)]
    outputs = {"front.csv": _write_csv(out_dir / "front.csv",
                                       ["family", "param", "x", "y"], rows)}
    summary = {"kind": ft.kind, "provenance": ft.provenance, "n_points": ft.params.size}
    return outputs, summary


def _cmd_spectrum(cfg, out_dir):
    lines = spectrum_2d(float(cfg["alpha"]), int(cfg["k_max"]), int(cfg["m_per_mode"]),
                        n=int(cfg["n"]), x_max=float(cfg["x_max"]))
    rows = [(rec.k, rec.index, rec.value, rec.residual) for rec in lines]
    outputs = {"spectrum.csv": _write_csv(out_dir / "spectrum.csv",
                                          ["k", "n", "lambda", "residual"], rows)}
    summary = {"lowest": lines[0].value, "count": len(lines)}
    return outputs, summary


def _cmd_classify(cfg, out_dir):
    if cfg["alpha"] is not None and cfg["c"] is not None:
        raise ConfigError("classify: give either alpha or c, not both")
    if cfg["c"] is not None:
        c = float(cfg["c"])
        alpha = None
    else:
        alpha = 1.0 if cfg["alpha"] is None else float(cfg["alpha"])
        c = inverse_square_coefficient(alpha)
    report = classify_self_adjoint(c)
    payload = {
        "alpha": alpha,
        "inverse_square_coeff": report.inverse_square_coeff,
        "indicial_plus": report.indicial_plus,
        "indicial_minus": report.indicial_minus,
        "essentially_self_adjoint": report.essentially_self_adjoint,
        "deficiency_count": report.deficiency_count,
        "verdict": report.verdict,
    }
    if cfg["numeric_check"]:
        payload["numeric_deficiency_count"] = deficiency_index_numeric(
            c, eps=float(cfg["eps"]), x_far=float(cfg["x_far"]))
    outputs = {"classify.json": _write_json(out_dir / "classify.json", payload)}
    return outputs, payload


def _cmd_evolve(cfg, out_dir):
    eps_list = [float(e) for e in cfg["eps"]]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("evolve: eps values must be strictly decreasing")
    equation = cfg["equation"]
    if equation not in ("heat", "schrodinger"):
        raise ConfigError(f"evolve: unknown equation {equation!r}")
    t_final = float(cfg["t_final"])
    dt = float(cfg["dt"])
    record_every = max(1, int(cfg["record_every"]))
    outputs = {}
    fractions = []
    for eps in eps_list:
        gen = assemble_generator(float(cfg["alpha"]), eps, n_x=int(cfg["n_x"]),
                                 x_half=float(cfg["x_half"]), n_y=int(cfg["n_y"]),
                                 period=float(cfg["period"]))
        state = gaussian_bump_state(gen, (float(cfg["bump_x"]), float(cfg["bump_y"])),
                                    float(cfg["bump_sigma"]))
        if equation == "heat":
            state, series = run_heat(gen, state, t_final, dt, tol=float(cfg["tol"]),
                                     record_every=record_every)
            fractions.append(transmitted_fraction(gen, state.u))
        else:
            state, series = run_schrodinger(gen, state, t_final, dt,
                                            record_every=record_every)
        name = f"evolve_eps_{eps!r}.csv"
        outputs[name] = _write_csv(out_dir / name,
                                   ["t", "mass_left", "mass_right", "norm"], series)
    summary = {"equation": equation, "eps_list": eps_list}
    if equation == "heat" and len(eps_list) >= 2:
        payload = TransmissionReport(alpha=float(cfg["alpha"]), eps_list=eps_list,
                                     time_horizon=t_final, fractions=fractions,
                                     verdict=transmission_verdict(fractions)).to_dict()
        outputs["transmission.json"] = _write_json(out_dir / "transmission.json", payload)
        summary.update(payload)
        if payload["verdict"] == "inconclusive":
            raise Inconclusive(
                f"transmission_study: fractions {fractions} match no verdict", payload)
    return outputs, summary


def _cmd_martinet(cfg, out_dir):
    rows = []
    for k in cfg["k"]:
        for l in cfg["l"]:
            res = martinet_mode_solve(int(k), int(l), int(cfg["n"]),
                                      cfg["y_max"] and float(cfg["y_max"]),
                                      int(cfg["m"]))
            for idx, (lam, r) in enumerate(zip(res.values, res.residuals)):
                rows.append((int(k), int(l), idx, float(lam), float(r), res.multiplicity))
    outputs = {"martinet.csv": _write_csv(
        out_dir / "martinet.csv",
        ["k", "l", "n", "lambda", "residual", "multiplicity"], rows)}
    summary = {"count": len(rows)}
    return outputs, summary


_HANDLERS = {
    "metric": _cmd_metric,
    "geodesic": _cmd_geodesic,
    "front": _cmd_front,
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "evolve": _cmd_evolve,
    "martinet": _cmd_martinet,
}


# -- configuration plumbing ----------------------------------------------


def _add_frame_flags(sp):
    sp.add_argument("--variant", default=argparse.SUPPRESS,
                    help="frame variant: grushin, f1, f2, alpha-grushin")
    sp.add_argument("--frame-alpha", type=float, default=argparse.SUPPRESS,
                    help="exponent for the alpha-grushin variant")
    sp.add_argument("--log-scale", default=argparse.SUPPRESS,
                    help="scale field preset: zero or gaussian-bump(a,sigma)")


def _num_list(text):
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON config file; overrides flags")
    common.add_argument("--out-dir", default=".", help="output directory")
    ap = argparse.ArgumentParser(
        prog="arslab",
        parents=[common],
        description="Almost-Riemannian structures: metric calculus, geodesic fronts, "
                    "singular spectra, degenerate evolution.")
    sub = ap.add_subparsers(dest="subcommand")

    sp = sub.add_parser("metric", help="pointwise metric data", parents=[common])
    _add_frame_flags(sp)
    sp.add_argument("--x", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--y", type=float, default=argparse.SUPPRESS)

    sp = sub.add_parser("geodesic", help="integrate one geodesic", parents=[common])
    _add_frame_flags(sp)
    for name in ("x0", "y0", "px0", "py0", "t-final", "dt", "tol-h"):
        sp.add_argument(f"--{name}", type=float, default=argparse.SUPPRESS)

    sp = sub.add_parser("front", help="geodesic front endpoints", parents=[common])
    _add_frame_flags(sp)
    for name in ("x0", "y0", "t-final", "param-max", "dt"):
        sp.add_argument(f"--{name}", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS)

    sp = sub.add_parser("spectrum", help="mode spectrum of the flattened operator", parents=[common])
    sp.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--k-max", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--m-per-mode", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--x-max", type=float, default=argparse.SUPPRESS)

    sp = sub.add_parser("classify", help="self-adjointness at the singular line", parents=[common])
    sp.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--c", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--numeric-check", action="store_true", default=argparse.SUPPRESS)
    sp.add_argument("--eps", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--x-far", type=float, default=argparse.SUPPRESS)

    sp = sub.add_parser("evolve", help="regularized heat/Schrodinger evolution", parents=[common])
    sp.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--eps", type=_num_list, default=argparse.SUPPRESS,
                    help="comma-separated decreasing list")
    sp.add_argument("--equation", choices=("heat", "schrodinger"),
                    default=argparse.SUPPRESS)
    for name in ("t-final", "dt", "x-half", "period", "bump-x", "bump-y",
                 "bump-sigma", "tol"):
        sp.add_argument(f"--{name}", type=float, default=argparse.SUPPRESS)
    for name in ("n-x", "n-y", "record-every"):
        sp.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS)

    sp = sub.add_parser("martinet", help="Martinet mode eigenvalues", parents=[common])
    sp.add_argument("--k", type=_int_list, default=argparse.SUPPRESS,
                    help="comma-separated list")
    sp.add_argument("--l", type=_int_list, default=argparse.SUPPRESS,
                    help="comma-separated list")
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--y-max", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--m", type=int, default=argparse.SUPPRESS)
    return ap


_FRAME_KEYS = {"variant", "frame_alpha", "log_scale"}


def _flags_to_config(sub, flags):
    cfg = copy.deepcopy(DEFAULTS[sub])
    frame_cfg = cfg.get("frame")
    for key, val in flags.items():
        if key in _FRAME_KEYS:
            if frame_cfg is None:
                raise ConfigError(f"{sub}: takes no frame options")
            if key == "variant":
                frame_cfg["variant"] = val
            elif key == "frame_alpha":
                frame_cfg["alpha"] = val
            elif key == "log_scale":
                frame_cfg["log_scale"] = val
        else:
            if key not in cfg:
                raise ConfigError(f"{sub}: unknown option {key!r}")
            cfg[key] = val
    return cfg


def _apply_file_config(sub, cfg, file_cfg):
    for key, val in file_cfg.items():
        if key == "subcommand":
            continue
        if key == "frame":
            if "frame" not in cfg:
                raise ConfigError(f"{sub}: takes no frame config")
            if not isinstance(val, dict):
                raise ConfigError("frame config must be a dict")
            cfg["frame"].update(val)
        elif key in cfg:
            cfg[key] = val
        else:
            raise ConfigError(f"{sub}: unknown config key {key!r}")
    return cfg


def run(argv=None):
    ap = _build_parser()
    args = vars(ap.parse_args(argv))
    config_path = args.pop("config", None)
    out_dir = Path(args.pop("out_dir", "."))
    sub = args.pop("subcommand", None)

    file_cfg = {}
    if config_path:
        with open(config_path) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        if file_cfg.get("tool") == "arslab" and isinstance(file_cfg.get("config"), dict):
            # a manifest is itself a valid config: replay the run it records
            file_cfg = {"subcommand": file_cfg.get("subcommand"), **file_cfg["config"]}
        sub = file_cfg.get("subcommand", sub)
    if sub is None:
        sub = "metric"  # all-defaults run
    if sub not in _HANDLERS:
        raise ConfigError(f"unknown subcommand {sub!r}")

    cfg = _flags_to_config(sub, args)
    cfg = _apply_file_config(sub, cfg, file_cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs, summary = _HANDLERS[sub](cfg, out_dir)
    manifest = {
        "tool": "arslab",
        "version": __version__,
        "subcommand": sub,
        "config": cfg,
        "outputs": outputs,
        "summary": summary,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return 0


def main(argv=None):
    try:
        return run(argv)
    except (ConfigError,) + _VALIDATION_ERRORS as exc:
        print(f"arslab: {exc}", file=sys.stderr)
        return 2
    except ArslabError as exc:
        print(f"arslab: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"arslab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
