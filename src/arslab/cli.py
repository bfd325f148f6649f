"""Command line driver.

DEFAULTS is the one option table: each entry is a subcommand, and each
config key `key_name` in it is also the flag `--key-name`, with the flag
type taken from the default.  A `frame` key adds the frame flags.

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
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ArslabError, BadGrid, Inconclusive, OutOfRange
from .evolution import eps_sweep
from .frames import frame_from_config, frame_vectors, laplace_beltrami_coeffs, metric_at
from .geodesics import crossing_report, front, geodesic_flow
from .martinet import martinet_mode_solve
from .spectral import (classify_self_adjoint, deficiency_index_numeric,
                       inverse_square_coefficient, spectrum_2d)

_TWO_PI = 2.0 * math.pi

# exit 2; ConfigError is a ValueError, and OSError covers an unreadable --config
_VALIDATION_ERRORS = (ValueError, OSError, BadGrid, OutOfRange)


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


def _cell_format(types):
    """%-format of a CSV column whose cells have these types."""
    if any(issubclass(t, (bool, np.bool_)) for t in types):
        raise TypeError("no boolean CSV cells")
    if all(issubclass(t, (int, np.integer)) for t in types):
        return "%d"
    # "%.17g" % v is format(float(v), ".17g"), nan, inf and -0.0 included;
    # an int in a mixed column prints as str(int) does while |int| < 2**53
    return "%.17g"


def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        if rows:
            line = ",".join(_cell_format({type(row[j]) for row in rows})
                            for j in range(len(rows[0]))) + "\n"
            fh.writelines(line % tuple(row) for row in rows)
    return {"columns": list(columns), "rows": len(rows)}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"columns": None, "rows": None}


# -- handlers -----------------------------------------------------------


def _cmd_metric(cfg, out_dir):
    """pointwise metric data"""
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
    """integrate one geodesic"""
    fr = frame_from_config(cfg["frame"])
    state0 = (float(cfg["x0"]), float(cfg["y0"]), float(cfg["px0"]), float(cfg["py0"]))
    traj = geodesic_flow(fr, state0, float(cfg["t_final"]), dt=float(cfg["dt"]),
                         tol_H=float(cfg["tol_h"]))
    rows = list(zip(traj.t.tolist(), *traj.states.T.tolist()))
    outputs = {"geodesic.csv": _write_csv(out_dir / "geodesic.csv",
                                          ["t", "x", "y", "px", "py"], rows)}
    crossings = [{"t": t, "xdot": xd, "ydot": yd} for t, xd, yd in crossing_report(traj, fr)]
    summary = {"energy_drift": traj.energy_drift, "crossings": crossings,
               "n_steps": traj.t.size - 1}
    return outputs, summary


def _cmd_front(cfg, out_dir):
    """geodesic front endpoints"""
    fr = frame_from_config(cfg["frame"])
    ft = front(fr, (float(cfg["x0"]), float(cfg["y0"])), float(cfg["t_final"]),
               int(cfg["n"]), param_max=float(cfg["param_max"]), dt=float(cfg["dt"]))
    rows = list(zip(ft.families.tolist(), ft.params.tolist(), *ft.endpoints.T.tolist()))
    outputs = {"front.csv": _write_csv(out_dir / "front.csv",
                                       ["family", "param", "x", "y"], rows)}
    summary = {"kind": ft.kind, "provenance": ft.provenance, "n_points": ft.params.size}
    return outputs, summary


def _cmd_spectrum(cfg, out_dir):
    """mode spectrum of the flattened operator"""
    lines = spectrum_2d(float(cfg["alpha"]), int(cfg["k_max"]), int(cfg["m_per_mode"]),
                        n=int(cfg["n"]), x_max=float(cfg["x_max"]))
    rows = [(rec.k, rec.index, rec.value, rec.residual) for rec in lines]
    outputs = {"spectrum.csv": _write_csv(out_dir / "spectrum.csv",
                                          ["k", "n", "lambda", "residual"], rows)}
    summary = {"lowest": lines[0].value, "count": len(lines)}
    return outputs, summary


def _cmd_classify(cfg, out_dir):
    """self-adjointness at the singular line"""
    if cfg["alpha"] is not None and cfg["c"] is not None:
        raise ConfigError("classify: give either alpha or c, not both")
    if cfg["c"] is not None:
        c = float(cfg["c"])
        alpha = None
    else:
        alpha = 1.0 if cfg["alpha"] is None else float(cfg["alpha"])
        c = inverse_square_coefficient(alpha)
    report = classify_self_adjoint(c)
    payload = {"alpha": alpha, **dataclasses.asdict(report), "verdict": report.verdict}
    if cfg["numeric_check"]:
        payload["numeric_deficiency_count"] = deficiency_index_numeric(
            c, eps=float(cfg["eps"]), x_far=float(cfg["x_far"]))
    outputs = {"classify.json": _write_json(out_dir / "classify.json", payload)}
    return outputs, payload


def _cmd_evolve(cfg, out_dir):
    """regularized heat/Schrodinger evolution"""
    equation = cfg["equation"]
    eps_list = [float(e) for e in cfg["eps"]]
    series, report = eps_sweep(
        float(cfg["alpha"]), eps_list, float(cfg["t_final"]), equation=equation,
        dt=float(cfg["dt"]), n_x=int(cfg["n_x"]), x_half=float(cfg["x_half"]),
        n_y=int(cfg["n_y"]), period=float(cfg["period"]),
        bump_center=(float(cfg["bump_x"]), float(cfg["bump_y"])),
        bump_sigma=float(cfg["bump_sigma"]), tol=float(cfg["tol"]),
        record_every=max(1, int(cfg["record_every"])))
    outputs = {}
    for eps, rows in zip(eps_list, series):
        name = f"evolve_eps_{eps!r}.csv"
        outputs[name] = _write_csv(out_dir / name,
                                   ["t", "mass_left", "mass_right", "norm"], rows)
    summary = {"equation": equation, "eps_list": eps_list}
    if report is not None and len(eps_list) >= 2:
        payload = dataclasses.asdict(report)
        outputs["transmission.json"] = _write_json(out_dir / "transmission.json", payload)
        summary.update(payload)
        if report.verdict == "inconclusive":
            raise Inconclusive(
                f"evolve: fractions {report.fractions} match no verdict", payload)
    return outputs, summary


def _cmd_martinet(cfg, out_dir):
    """Martinet mode eigenvalues"""
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


# frame flag -> (frame config key, flag type, help)
_FRAME_FLAGS = {
    "variant": ("variant", str, "frame variant: grushin, f1, f2, alpha-grushin"),
    "frame_alpha": ("alpha", float, "exponent for the alpha-grushin variant"),
    "log_scale": ("log_scale", str, "scale field preset: zero or gaussian-bump(a,sigma)"),
}


def _num_list(text):
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _flag_kwargs(default):
    """argparse keywords for the flag of a DEFAULTS key with this default."""
    if isinstance(default, bool):
        return {"action": "store_true"}
    if isinstance(default, list):
        parse = _int_list if all(isinstance(v, int) for v in default) else _num_list
        return {"type": parse, "help": "comma-separated list"}
    return {"type": float if default is None else type(default)}


@functools.cache
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
    for name, defaults in DEFAULTS.items():
        sp = sub.add_parser(name, help=_HANDLERS[name].__doc__, parents=[common])
        for key, default in defaults.items():
            if key == "frame":
                for flag, (_, type_, help_) in _FRAME_FLAGS.items():
                    sp.add_argument("--" + flag.replace("_", "-"), type=type_, help=help_,
                                    default=argparse.SUPPRESS)
            else:
                sp.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                                **_flag_kwargs(default))
    return ap


def _apply_file_config(sub, cfg, overrides):
    for key, val in overrides.items():
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

    frame = {_FRAME_FLAGS[flag][0]: args.pop(flag)
             for flag in list(args) if flag in _FRAME_FLAGS}
    if frame:
        args["frame"] = frame
    cfg = copy.deepcopy(DEFAULTS[sub])
    for overrides in (args, file_cfg):
        _apply_file_config(sub, cfg, overrides)

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
    except _VALIDATION_ERRORS as exc:
        print(f"arslab: {exc}", file=sys.stderr)
        return 2
    except ArslabError as exc:
        print(f"arslab: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
