"""Command line driver.

DEFAULTS is the one option table: each entry is a subcommand, and each
config key `key_name` in it is also the flag `--key-name`, with the flag
type taken from the default.  A `frame` key adds the frame flags.

Every subcommand resolves one fully-defaulted configuration, runs one
deterministic computation, writes CSV/JSON artifacts into --out-dir and
a manifest.json recording the resolved configuration, so any output
file can be regenerated from the manifest alone.  A JSON --config file
overrides command line flags; unknown keys are rejected, and each value
is taken in the type of its default.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure (the message names the failing operation).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ArslabError, Inconclusive
from .frames import frame_from_config, frame_vectors, laplace_beltrami_coeffs, metric_at
from .geodesics import _step_grid, front, geodesic_flow

_TWO_PI = 2.0 * math.pi

# exit 2: ConfigError, BadGrid and OutOfRange are ValueErrors, and OSError
# covers an unreadable --config
_VALIDATION_ERRORS = (ValueError, OSError)


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
    },
    "martinet": {
        "k": [0, 1],
        "l": [1, 2],
        "n": 2000,
        "y_max": None,
        "m": 4,
    },
}


# rows per "%" in _write_csv: one format call per chunk keeps memory bounded
_CSV_CHUNK = 2048


def _write_csv(path, columns, rows):
    """Write a header line and the rows; returns the file's manifest entry.

    rows is a sequence of row tuples or a 2-D array; it is made one float64
    table and every cell is written %.17g, which is format(v, ".17g"), nan,
    inf and -0.0 included.  An int cell prints as str(int) does while
    |int| < 2**53.  Rows are formatted _CSV_CHUNK at a time, one % each.
    """
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), _CSV_CHUNK):
            chunk = table[start:start + _CSV_CHUNK]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    return {"columns": list(columns), "rows": len(table)}


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {"columns": None, "rows": None}


# -- handlers -----------------------------------------------------------
#
# The handlers of spectrum, classify, evolve and martinet import their
# layer when they run: those layers load scipy, which metric, geodesic
# and front never need.


def _cmd_metric(cfg, out_dir):
    """pointwise metric data"""
    fr = frame_from_config(cfg["frame"])
    p = (cfg["x"], cfg["y"])
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
    state0 = (cfg["x0"], cfg["y0"], cfg["px0"], cfg["py0"])
    traj = geodesic_flow(fr, state0, cfg["t_final"], dt=cfg["dt"], tol_H=cfg["tol_h"])
    outputs = {"geodesic.csv": _write_csv(out_dir / "geodesic.csv", ["t", "x", "y", "px", "py"],
                                          np.column_stack((traj.t, traj.states)))}
    crossings = [{"t": ev.t, "xdot": ev.px, "ydot": ev.ydot} for ev in traj.crossings]
    summary = {"energy_drift": traj.energy_drift, "crossings": crossings,
               "n_steps": traj.t.size - 1}
    return outputs, summary


def _cmd_front(cfg, out_dir):
    """geodesic front endpoints"""
    fr = frame_from_config(cfg["frame"])
    ft = front(fr, (cfg["x0"], cfg["y0"]), cfg["t_final"], cfg["n"],
               param_max=cfg["param_max"], dt=cfg["dt"])
    rows = np.column_stack((ft.families, ft.params, ft.endpoints))
    outputs = {"front.csv": _write_csv(out_dir / "front.csv",
                                       ["family", "param", "x", "y"], rows)}
    summary = {"kind": ft.kind, "provenance": ft.provenance, "n_points": ft.params.size}
    return outputs, summary


def _cmd_spectrum(cfg, out_dir):
    """mode spectrum of the flattened operator"""
    from .spectral import spectrum_2d

    lines = spectrum_2d(cfg["alpha"], cfg["k_max"], cfg["m_per_mode"], n=cfg["n"],
                        x_max=cfg["x_max"])
    rows = [(rec.k, rec.index, rec.value, rec.residual) for rec in lines]
    outputs = {"spectrum.csv": _write_csv(out_dir / "spectrum.csv",
                                          ["k", "n", "lambda", "residual"], rows)}
    summary = {"lowest": lines[0].value, "count": len(lines)}
    return outputs, summary


def _cmd_classify(cfg, out_dir):
    """self-adjointness at the singular line"""
    from .spectral import (classify_self_adjoint, deficiency_index_numeric,
                           inverse_square_coefficient)

    if cfg["alpha"] is not None and cfg["c"] is not None:
        raise ConfigError("classify: give either alpha or c, not both")
    if cfg["c"] is not None:
        c = cfg["c"]
        alpha = None
    else:
        alpha = 1.0 if cfg["alpha"] is None else cfg["alpha"]
        c = inverse_square_coefficient(alpha)
    report = classify_self_adjoint(c)
    payload = {"alpha": alpha, **dataclasses.asdict(report), "verdict": report.verdict}
    if cfg["numeric_check"]:
        payload["numeric_deficiency_count"] = deficiency_index_numeric(
            c, eps=cfg["eps"], x_far=cfg["x_far"])
    outputs = {"classify.json": _write_json(out_dir / "classify.json", payload)}
    return outputs, payload


def _cmd_evolve(cfg, out_dir):
    """regularized heat/Schrodinger evolution"""
    from .evolution import eps_sweep

    if cfg["record_every"] < 1:
        raise ConfigError(f"evolve: record_every must be at least 1, got {cfg['record_every']}")
    equation = cfg["equation"]
    eps_list = cfg["eps"]
    series, report = eps_sweep(
        cfg["alpha"], eps_list, cfg["t_final"], equation=equation, dt=cfg["dt"],
        n_x=cfg["n_x"], x_half=cfg["x_half"], n_y=cfg["n_y"], period=cfg["period"],
        bump_center=(cfg["bump_x"], cfg["bump_y"]), bump_sigma=cfg["bump_sigma"],
        record_every=cfg["record_every"])
    outputs = {}
    for eps, rows in zip(eps_list, series):
        name = f"evolve_eps_{eps!r}.csv"
        outputs[name] = _write_csv(out_dir / name,
                                   ["t", "mass_left", "mass_right", "norm"], rows)
    summary = {"equation": equation, "eps_list": eps_list}
    if report is not None:
        payload = dataclasses.asdict(report)
        outputs["transmission.json"] = _write_json(out_dir / "transmission.json", payload)
        summary.update(payload)
        if report.verdict == "inconclusive":
            raise Inconclusive(
                f"evolve: fractions {report.fractions} match no verdict", report)
    return outputs, summary


def _cmd_martinet(cfg, out_dir):
    """Martinet mode eigenvalues"""
    from .martinet import martinet_mode_solve

    rows = []
    for k in cfg["k"]:
        for l in cfg["l"]:
            res = martinet_mode_solve(k, l, cfg["n"], cfg["y_max"], cfg["m"])
            for idx, (lam, r) in enumerate(zip(res.values, res.residuals)):
                rows.append((k, l, idx, lam, r, res.multiplicity))
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3, -inf and -nan as values, not options.

    argparse before Python 3.13 takes a negative number in scientific
    notation for an option and reports the flag before it as missing its
    value.  A subparser is made by the class of its parent.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON config file; overrides flags")
    common.add_argument("--out-dir", default=".", help="output directory")
    ap = _Parser(
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


def _fits(val, default):
    """Whether a config value has the JSON kind of its DEFAULTS entry.

    A float takes a number, an int an integral number, a bool or a string
    its own kind, a list a list of its entries' kind, and None a number
    or null; a bool is no number, and an int beyond the float range is none
    either, since every handler computes in floats.
    """
    if isinstance(default, list):
        return isinstance(val, list) and all(_fits(v, default[0]) for v in val)
    if isinstance(default, (bool, str)) or val is None:
        return isinstance(val, type(default))
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and (isinstance(val, float) or abs(val) <= sys.float_info.max)
            and (not isinstance(default, int) or isinstance(val, int) or val.is_integer()))


def _typed(val, default):
    """A value that _fits accepts, in the type of its DEFAULTS entry: an int
    for an int, a float for a float or None, and each entry of a list alike."""
    if isinstance(default, list):
        return [_typed(v, default[0]) for v in val]
    if isinstance(default, (bool, str)) or val is None:
        return val
    return int(val) if isinstance(default, int) else float(val)


def _kind(default):
    """The values _fits accepts for this default, in words."""
    if isinstance(default, list):
        return "a list of " + ("integers" if isinstance(default[0], int) else "numbers")
    return {bool: "true or false", str: "a string", int: "an integer", float: "a number",
            type(None): "a number or null"}[type(default)]


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
            default = DEFAULTS[sub][key]
            if not _fits(val, default):
                raise ConfigError(f"{sub}: config key {key!r} takes {_kind(default)}, "
                                  f"got {json.dumps(val)}")
            cfg[key] = _typed(val, default)
        else:
            raise ConfigError(f"{sub}: unknown config key {key!r}")


def _array_sizes(sub, cfg):
    """The keys sizing each large array of a run -> a lower bound on its float64 entries."""
    def count(key):
        return max(cfg[key], 0)

    sizes = {("n",): count("n")} if sub in ("front", "spectrum", "martinet") else {}
    if sub == "spectrum":  # a row (k, n, lambda, residual) per line
        sizes[("k_max", "m_per_mode")] = 4 * (2 * count("k_max") + 1) * count("m_per_mode")
    if sub == "evolve":
        sizes[("n_x", "n_y")] = count("n_x") * count("n_y")
    if sub not in ("geodesic", "front", "evolve"):
        return sizes
    try:
        steps = _step_grid(cfg["t_final"], cfg["dt"], sub)[0]
    except ValueError:  # a step grid the run refuses itself
        return sizes
    if sub == "geodesic":  # the table t, x, y, px, py of every step
        sizes[("t_final", "dt")] = 5 * (steps + 1)
    elif sub == "evolve" and cfg["record_every"] >= 1:  # the series of each eps value
        sizes[("t_final", "dt", "record_every")] = 4 * (steps // cfg["record_every"] + 2)
    elif sub == "front":
        # the states of each integrated ray; the exact Grushin fan is closed-form,
        # and a frame that frame_from_config rejects is the handler's to refuse
        with contextlib.suppress(ValueError):
            if not frame_from_config(cfg["frame"]).is_exact_grushin:
                sizes[("t_final", "dt")] = 4 * (steps + 1)
    return sizes


def _check_sizes(sub, cfg):
    """Refuse an empty martinet request, as spectrum and evolve refuse theirs,
    and sizes whose largest array alone outgrows this machine's memory."""
    if sub == "martinet":
        for key in ("k", "l"):
            if not cfg[key]:
                raise ConfigError(f"martinet: {key!r} is empty; need at least one value")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for keys, entries in _array_sizes(sub, cfg).items():
        if 8 * entries > memory:
            sizes = " and ".join(f"{key} = {cfg[key]!r}" for key in keys)
            raise ConfigError(f"{sub}: the array sized by {sizes} is larger than this "
                              f"machine's {memory / 2**30:.1f} GiB of memory")


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
    if not isinstance(sub, str) or sub not in _HANDLERS:
        raise ConfigError(f"unknown subcommand {sub!r}")

    frame = {_FRAME_FLAGS[flag][0]: args.pop(flag)
             for flag in list(args) if flag in _FRAME_FLAGS}
    if frame:
        args["frame"] = frame
    cfg = copy.deepcopy(DEFAULTS[sub])
    for overrides in (args, file_cfg):
        _apply_file_config(sub, cfg, overrides)
    _check_sizes(sub, cfg)

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
    _write_json(out_dir / "manifest.json", manifest)
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
