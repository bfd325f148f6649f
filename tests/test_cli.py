import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arslab import (ArslabError, BadGrid, FrameSpec, Inconclusive, OutOfRange, front,
                    geodesic_flow)
from arslab.cli import (_CSV_CHUNK, _HANDLERS, DEFAULTS, _array_sizes, _build_parser, _write_csv,
                        main, run)
from arslab.evolution import (assemble_generator, eps_sweep, gaussian_bump_state, run_heat,
                              run_schrodinger, transmission_study)
from arslab.martinet import martinet_mode_solve
from arslab.spectral import assemble_mode_operator, deficiency_index_numeric, spectrum_2d

BASE = [sys.executable, "-m", "arslab.cli"]


def run_cli(args, cwd):
    """Run the CLI in a fresh interpreter, as `python -m arslab.cli`."""
    return subprocess.run(BASE + args, cwd=cwd, capture_output=True, text=True)


def cli(args, capsys):
    """Run arslab.cli.main in this process; return (exit code, stderr)."""
    code = main(args)
    return code, capsys.readouterr().err


def test_default_run_is_metric(tmp_path, capsys):
    code, err = cli(["--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "arslab"
    assert manifest["subcommand"] == "metric"
    header = (tmp_path / "metric.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["x", "y", "f", "f_dx"]


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    args = ["spectrum", "--alpha", "1.0", "--k-max", "1", "--m-per-mode", "2",
            "--n", "300"]
    for out in (a, b):
        proc = run_cli(args + ["--out-dir", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_manifest_config_reproduces_output(tmp_path, capsys):
    """The manifest's resolved config, replayed as a config file, must
    regenerate byte-identical data files."""
    first = tmp_path / "first"
    first.mkdir()
    code, err = cli(["geodesic", "--x0", "-1.0", "--py0", "0.8", "--px0", "0.6",
                     "--t-final", "0.5", "--dt", "1e-3", "--out-dir", str(first)], capsys)
    assert code == 0, err
    manifest = json.loads((first / "manifest.json").read_text())

    replay = tmp_path / "replay"
    replay.mkdir()
    cfg = dict(manifest["config"])
    cfg["subcommand"] = manifest["subcommand"]
    cfg_file = tmp_path / "replay.json"
    cfg_file.write_text(json.dumps(cfg))
    code, err = cli(["--config", str(cfg_file), "--out-dir", str(replay)], capsys)
    assert code == 0, err
    assert (first / "geodesic.csv").read_bytes() == (replay / "geodesic.csv").read_bytes()

    # the manifest file itself is also accepted as a config
    direct = tmp_path / "direct"
    direct.mkdir()
    code, err = cli(["--config", str(first / "manifest.json"), "--out-dir", str(direct)],
                    capsys)
    assert code == 0, err
    assert (first / "geodesic.csv").read_bytes() == (direct / "geodesic.csv").read_bytes()

    # manifest names every output with its columns and row count
    rows = (first / "geodesic.csv").read_text().splitlines()
    meta = manifest["outputs"]["geodesic.csv"]
    assert meta["columns"] == rows[0].split(",")
    assert meta["rows"] == len(rows) - 1


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": 2.0}))
    code, err = cli(["metric", "--x", "9.0", "--config", str(cfg),
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["x"] == 2.0
    first_row = (tmp_path / "metric.csv").read_text().splitlines()[1]
    assert first_row.startswith("2,")


def test_config_values_take_their_default_type(tmp_path, capsys):
    # an int given for a float key is the float it stands for, in the run and the manifest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "metric", "x": 2}))
    code, err = cli(["--config", str(cfg), "--out-dir", str(tmp_path / "file")], capsys)
    assert code == 0, err
    x = json.loads((tmp_path / "file" / "manifest.json").read_text())["config"]["x"]
    assert type(x) is float and x == 2.0
    code, err = cli(["metric", "--x", "2", "--out-dir", str(tmp_path / "flag")], capsys)
    assert code == 0, err
    assert ((tmp_path / "file" / "metric.csv").read_bytes()
            == (tmp_path / "flag" / "metric.csv").read_bytes())


def test_usage_errors_are_value_errors():
    # the exception classes alone decide what exits 2
    assert issubclass(BadGrid, ValueError) and issubclass(OutOfRange, ValueError)
    assert issubclass(BadGrid, ArslabError) and issubclass(OutOfRange, ArslabError)


def test_martinet_refuses_a_mode_it_cannot_tell_apart(tmp_path, capsys):
    # float(2**53 + 1) is 2**53: the potential of k = 2**53 + 1 is that of 2**53
    code, err = cli(["martinet", "--k", str(2**53 + 1), "--l", "1", "--n", "400", "--m", "1",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert f"k = {2**53 + 1}" in err
    assert not (tmp_path / "martinet.csv").exists()


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, err = cli(["metric", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "bogus" in err


def test_removed_flat_beyond_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "geodesic",
                               "frame": {"variant": "grushin", "flat_beyond": 2.0}}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "flat_beyond" in capsys.readouterr().err


@pytest.mark.parametrize("frame, named", [
    ({"variant": "grushin", "domain": {"kind": "cylinder", "period": 4.0}}, "'domain'"),
    ({"variant": "f2", "domain": "plane"}, "'domain'"),
    ({"variant": "martinet"}, "'martinet'"),
], ids=["domain-dict", "domain-str", "variant-martinet"])
def test_removed_frame_config_is_a_usage_error(tmp_path, capsys, frame, named):
    # a config or replayed manifest that sets a removed frame option exits 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "geodesic", "frame": frame}))
    code, err = cli(["--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err


def test_removed_domain_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["geodesic", "--domain", "cylinder", "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "--domain" in capsys.readouterr().err


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("sub", list(DEFAULTS))
def test_option_table_defines_the_flags(tmp_path, capsys, monkeypatch, sub):
    defaults = DEFAULTS[sub]
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {opt for action in subparsers.choices[sub]._actions
             for opt in action.option_strings}
    expected = {_flag(key) for key in defaults if key != "frame"}
    if "frame" in defaults:
        expected |= {"--variant", "--frame-alpha", "--log-scale"}
    assert flags - {"-h", "--help", "--config", "--out-dir"} == expected

    # every default passed back as its flag resolves to the same value and type;
    # the frame flags fill in the frame dict
    argv, expected_config = [sub], dict(defaults)
    for key, default in defaults.items():
        if key == "frame":
            argv += ["--variant", "grushin", "--frame-alpha", "2.0", "--log-scale", "zero"]
            expected_config["frame"] = {"variant": "grushin", "alpha": 2.0, "log_scale": "zero"}
        elif isinstance(default, list):
            argv += [_flag(key), ",".join(map(str, default))]
        elif default is not None and not isinstance(default, bool):
            argv += [_flag(key), str(default)]
    monkeypatch.setitem(_HANDLERS, sub, lambda cfg, out_dir: ({}, {}))
    code, err = cli(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config == expected_config
    for key, default in expected_config.items():
        assert type(config[key]) is type(default), key
        if isinstance(default, list):
            assert [type(v) for v in config[key]] == [type(v) for v in default], key

    with pytest.raises(SystemExit) as info:
        main([sub, "--help"])
    assert info.value.code == 0


def test_unknown_equation_is_a_usage_error(tmp_path, capsys):
    code, err = cli(["evolve", "--equation", "bogus", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "'bogus'" in err


@pytest.mark.parametrize("cfg, argv, named", [
    ({"subcommand": "geodesic"}, ["metric", "--x", "9.0"], "'x'"),
    ({"subcommand": "spectrum"}, ["metric", "--variant", "f2"], "frame"),
], ids=["key", "frame"])
def test_flag_of_another_subcommand_is_a_usage_error(tmp_path, capsys, cfg, argv, named):
    # a config file that switches the subcommand rejects the other one's flags
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, err = cli(argv + ["--config", str(cfg_file), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # the singular line is a numerical domain error, not a usage error
    code, err = cli(["metric", "--x", "0.0", "--out-dir", str(tmp_path)], capsys)
    assert code == 3
    assert "metric_at" in err


@pytest.mark.parametrize("argv, named", [
    (["--x", "1e-300", "--y", "1"], "f**2 underflows to 0"),
    (["--variant", "f2", "--x", "1e-300", "--y", "1"], "f**2 underflows to 0"),
    (["--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--x", "1e-300", "--y", "1"],
     "f**2 underflows to 0"),
    (["--variant", "alpha-grushin", "--frame-alpha", "0.7", "--x", "1e-300", "--y", "1"],
     "f**2 underflows to 0"),
    (["--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--x", "1e200"],
     "f**2 overflows"),
    (["--x", "1e200"], "f**2 overflows"),
    # f itself overflows to inf, and inf**2 raises no OverflowError
    (["--variant", "alpha-grushin", "--frame-alpha", "2000", "--x", "2"], "f = inf is not finite"),
], ids=["grushin-tiny", "f2-zero-tiny", "f2-bump-tiny", "alpha-0.7-tiny", "f2-bump-huge",
        "grushin-huge", "alpha-2000-inf"])
def test_metric_where_f_squared_leaves_the_floats_exits_3(tmp_path, argv, named):
    # a fresh interpreter, as a user runs it: numpy's overflow warnings on the
    # way are fine, a traceback is not
    proc = run_cli(["metric", *argv, "--out-dir", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert f"arslab: metric_at: {named} at (" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, named", [
    (["--variant", "alpha-grushin", "--frame-alpha", "0.7", "--x", "1e-300", "--y", "1"],
     "f**2 underflows to 0"),
    (["--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--x", "1e200"],
     "f**2 overflows"),
    # f**2 = 1e-320 is subnormal, not 0, and 1/f**2 overflows
    (["--x", "1e-160"], "f**2 underflows to 0"),
    (["--variant", "alpha-grushin", "--frame-alpha", "2000", "--x", "2"], "f = inf is not finite"),
], ids=["alpha-0.7-tiny", "f2-bump-huge", "grushin-subnormal", "alpha-2000-inf"])
def test_metric_where_f_squared_leaves_the_floats_exits_3_in_process(tmp_path, capsys, argv,
                                                                    named):
    # in this process a RuntimeWarning is an error: none may escape main
    code, err = cli(["metric", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 3, err
    assert f"arslab: metric_at: {named} at (" in err
    assert not (tmp_path / "manifest.json").exists()


_ALPHA_2000 = ["--variant", "alpha-grushin", "--frame-alpha", "2000"]
_ALPHA_03 = ["--variant", "alpha-grushin", "--frame-alpha", "0.3", "--x0", "0"]
_BUMP_MINUS_800 = ["--variant", "f2", "--log-scale", "gaussian-bump(-800,1)", "--x0", "-0.1",
                   "--y0", "3.14159"]


@pytest.mark.parametrize("argv, named", [
    # f underflows to 0 off the singular line: 0.5**2000, exp(-800)
    (["front", "--n", "8", *_ALPHA_2000, "--x0", "-0.5"],
     "front: frame degenerates at (-0.5, 0.0)"),
    (["front", "--n", "8", *_BUMP_MINUS_800], "front: frame degenerates at (-0.1, 3.14159)"),
    (["geodesic", *_ALPHA_2000, "--x0", "-0.5"],
     "geodesic_flow: frame degenerates at (-0.5, 0.0)"),
    (["geodesic", *_BUMP_MINUS_800], "geodesic_flow: frame degenerates at (-0.1, 3.14159)"),
    # f overflows to inf, where no dt can help
    (["front", "--n", "8", *_ALPHA_2000, "--x0", "-2"],
     "front: f = inf is not finite at (-2.0, 0.0)"),
    (["geodesic", *_ALPHA_2000, "--x0", "-2"],
     "geodesic_flow: f = inf is not finite at (-2.0, 0.0)"),
    (["geodesic", "--variant", "alpha-grushin", "--frame-alpha", "3", "--x0", "1e200"],
     "geodesic_flow: f = inf is not finite at (1e+200, 0.0)"),
    # f is finite and not 0, but 1/f overflows: front's covector sin(theta) / f
    (["front", "--n", "8", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)",
      "--x0", "1e-320"], "front: 1/f overflows at (1e-320, 0.0)"),
    (["geodesic", "--x0", "1e-320"], "geodesic_flow: 1/f overflows at (1e-320, 0.0)"),
    # on x = 0, f * f_x = |x|**(2 alpha - 1) is infinite for alpha < 1/2
    (["front", "--n", "8", *_ALPHA_03, "--dt", "0.01"],
     "front: f * f_x is infinite on x = 0 for alpha-grushin with alpha = 0.3 < 1/2"),
    (["geodesic", *_ALPHA_03, "--dt", "0.01"],
     "geodesic_flow: f * f_x is infinite on x = 0 for alpha-grushin with alpha = 0.3 < 1/2"),
    # f is finite but f**2, or the energy (px**2 + f**2 py**2) / 2, overflows
    (["front", "--n", "8", "--x0", "1e200"], "front: f**2 overflows at (1e+200, 0.0)"),
    (["geodesic", "--x0", "1e200"], "geodesic_flow: f**2 overflows at (1e+200, 0.0)"),
    (["front", "--n", "8", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)",
      "--x0", "-1e200"], "front: f**2 overflows at (-1e+200, 0.0)"),
    (["geodesic", "--py0", "1e200"],
     "geodesic_flow: the energy (px**2 + f**2 py**2) / 2 = inf is not finite"),
], ids=["front-alpha-2000-zero", "front-f2-bump-zero", "geodesic-alpha-2000-zero",
        "geodesic-f2-bump-zero", "front-alpha-2000-inf", "geodesic-alpha-2000-inf",
        "geodesic-alpha-3-inf", "front-f2-bump-tiny", "geodesic-grushin-tiny",
        "front-alpha-0.3-on-the-line", "geodesic-alpha-0.3-on-the-line",
        "front-grushin-square-overflows", "geodesic-grushin-square-overflows",
        "front-f2-bump-square-overflows", "geodesic-grushin-energy-overflows"])
def test_a_start_where_f_is_zero_or_not_finite_exits_3(tmp_path, capsys, argv, named):
    # in this process a RuntimeWarning is an error: none may escape main
    code, err = cli([*argv, "--t-final", "0.01", "--out-dir", str(tmp_path)], capsys)
    assert code == 3, err
    assert f"arslab: {named}" in err
    assert not (tmp_path / "manifest.json").exists()


def test_classify_subcommand(tmp_path, capsys):
    code, err = cli(["classify", "--alpha", "0.9", "--numeric-check",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["verdict"] == "needs-boundary-condition"
    assert payload["numeric_deficiency_count"] == 1

    # ill-conditioned indicial fit is a numerical failure
    code, _ = cli(["classify", "--c", "-0.2499999999", "--numeric-check",
                   "--out-dir", str(tmp_path)], capsys)
    assert code == 3

    code, _ = cli(["classify", "--alpha", "1.0", "--c", "0.5",
                   "--out-dir", str(tmp_path)], capsys)
    assert code == 2  # alpha and c are mutually exclusive


@pytest.mark.parametrize("argv, named", [
    (["--x-far", "1e4"], "solution overflowed"),
    (["--eps", "1e-160"], "integration failed"),
    (["--c", "1e300"], "Illegal input detected"),
])
def test_classify_failed_integration_exits_3(tmp_path, capsys, argv, named):
    code, err = cli(["classify", "--c", "0.5", "--numeric-check", *argv,
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 3
    assert "deficiency_index_numeric" in err and named in err
    assert not (tmp_path / "classify.json").exists()


_CLASSIFY_GOLDEN = {
    "0.5": ('"alpha": 0.5', '"deficiency_count": 1', '"essentially_self_adjoint": false',
            '"indicial_minus": -0.25', '"indicial_plus": 1.25',
            '"inverse_square_coeff": 0.3125', '"numeric_deficiency_count": 1',
            '"verdict": "needs-boundary-condition"'),
    "0.9": ('"alpha": 0.9', '"deficiency_count": 1', '"essentially_self_adjoint": false',
            '"indicial_minus": -0.44999999999999996', '"indicial_plus": 1.45',
            '"inverse_square_coeff": 0.6525', '"numeric_deficiency_count": 1',
            '"verdict": "needs-boundary-condition"'),
    "1.5": ('"alpha": 1.5', '"deficiency_count": 0', '"essentially_self_adjoint": true',
            '"indicial_minus": -0.75', '"indicial_plus": 1.75',
            '"inverse_square_coeff": 1.3125', '"numeric_deficiency_count": 0',
            '"verdict": "essentially-self-adjoint"'),
    "2.5": ('"alpha": 2.5', '"deficiency_count": 0', '"essentially_self_adjoint": true',
            '"indicial_minus": -1.25', '"indicial_plus": 2.25',
            '"inverse_square_coeff": 2.8125', '"numeric_deficiency_count": 0',
            '"verdict": "essentially-self-adjoint"'),
}


@pytest.mark.parametrize("alpha", sorted(_CLASSIFY_GOLDEN))
def test_classify_numeric_check_matches_golden_bytes(tmp_path, capsys, alpha):
    code, err = cli(["classify", "--alpha", alpha, "--numeric-check",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    want = "{\n" + ",\n".join("  " + line for line in _CLASSIFY_GOLDEN[alpha]) + "\n}\n"
    assert (tmp_path / "classify.json").read_text() == want


_F2_BUMP = ["--variant", "f2", "--log-scale", "gaussian-bump(0.4,0.6)"]
_F1_BUMP = ["--variant", "f1", "--log-scale", "gaussian-bump(0.3,0.7)"]
_ALPHA_15 = ["--variant", "alpha-grushin", "--frame-alpha", "1.5"]

# sha256 of the data file and the crossing count of RK4 runs, recorded before
# the stages were written inline.  Coarse steps let a change in the order of
# a float operation inside a stage reach the written digits.
_RK4_GOLDEN = {
    "f2-bump-geodesic": (
        ["geodesic", *_F2_BUMP, "--x0", "-0.3", "--y0", "3.0", "--px0", "0.5", "--py0", "4",
         "--t-final", "2", "--dt", "0.005", "--tol-h", "1"], 4,
        "901e7529101c40731e56435227a360ae753dc387f20562628b35b739d70f523d"),
    "f2-bump-geodesic-fine": (
        ["geodesic", *_F2_BUMP, "--x0", "-0.6", "--y0", "3.0", "--px0", "0.8", "--py0", "0.9",
         "--t-final", "0.4"], 0,
        "06eabf4d64153c2551de32979dcafafbb5e45d2f4aff31c5afbef8fdb949e177"),
    "f2-bump-front": (
        ["front", *_F2_BUMP, "--x0", "-0.9", "--y0", "3.0", "--t-final", "1", "--n", "8",
         "--dt", "0.01"], None,
        "c41a841dcb746d27181e0666f2d03edd7be1b40d005fbe285049fc495b979861"),
    "f1-bump-geodesic": (
        ["geodesic", *_F1_BUMP, "--x0", "-0.3", "--y0", "3.0", "--px0", "0.5", "--py0", "2",
         "--t-final", "2", "--dt", "0.005", "--tol-h", "1"], 1,
        "fee4f73aca933ea651013000d24eb6273b7bb5f7b2f94a991ce44460c5bc6256"),
    "f1-bump-front": (
        ["front", *_F1_BUMP, "--x0", "-0.3", "--y0", "3.0", "--t-final", "2", "--n", "8",
         "--dt", "0.005"], None,
        "94dbaf44e9bcb69ea58a4c298084e3a39a29356cbcdd73ce64d530be6ca4ce62"),
    "alpha-1.5-crossing": (
        ["geodesic", *_ALPHA_15, "--x0", "-0.2", "--px0", "1", "--py0", "3", "--t-final", "1",
         "--dt", "0.01", "--tol-h", "1"], 1,
        "6224c5b2858ebff997bb836705d0d1f78bd188a9312bfddadbe5b289390c0a05"),
    "alpha-1.5-singular-front": (
        ["front", *_ALPHA_15, "--x0", "0", "--y0", "1", "--t-final", "1", "--n", "8",
         "--param-max", "4", "--dt", "0.01"], None,
        "157ca31664b49889d71a01de471a18a9f8587d688fa8177d86e1e60e240c662b"),
    "grushin-geodesic": (
        ["geodesic", "--t-final", "3", "--py0", "2", "--dt", "0.01", "--tol-h", "1"], 2,
        "06fff5230c1176c4749a9a880e0b6dded2510ee33b0254564cece5ec109a6716"),
    # the benchmark's geodesic shape: 15 001 rows, several CSV writer chunks
    "f2-bump-geodesic-bench": (
        ["geodesic", "--variant", "f2", "--log-scale", "gaussian-bump(0.35,0.7)", "--x0", "-0.7",
         "--y0", "3.0", "--px0", "0.8", "--py0", "1.1", "--t-final", "1.5"], 1,
        "59ac26c89110832fe5dfebe30a986b394268535ab66d4ca43a597e143433b61b"),
}


@pytest.mark.parametrize("case", sorted(_RK4_GOLDEN))
def test_rk4_outputs_match_golden_bytes(tmp_path, capsys, case):
    argv, crossings, digest = _RK4_GOLDEN[case]
    code, err = cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    if crossings is not None:
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["summary"]["crossings"]) == crossings
    data = tmp_path / f"{argv[0]}.csv"
    assert hashlib.sha256(data.read_bytes()).hexdigest() == digest


# evolve outputs recorded while heat still kept its modes as cosine and sine
# rows over n_y // 2 + 1 blocks each; odd n_y has no Nyquist mode
_HEAT_TRANSMISSION_GOLDEN = (
    '{\n  "alpha": 0.6,\n  "eps_list": [\n    0.1,\n    0.05\n  ],\n  "fractions": [\n'
    '    0.05707628719015107,\n    0.05830872485242682\n  ],\n  "time_horizon": 0.1,\n'
    '  "verdict": "crossing-consistent"\n}\n')
_SCHRODINGER_CSV_GOLDEN = "10463325d1bfd86d948d8d8f248630342b07a5bc43d67693a4e32c7c83e4bb4e"


def test_heat_evolve_matches_golden_transmission_bytes(tmp_path, capsys):
    code, err = cli(["evolve", "--alpha", "0.6", "--eps", "0.1,0.05", "--n-x", "100",
                     "--n-y", "9", "--t-final", "0.1", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    assert (tmp_path / "transmission.json").read_text() == _HEAT_TRANSMISSION_GOLDEN


def test_schrodinger_evolve_matches_golden_bytes(tmp_path, capsys):
    code, err = cli(["evolve", "--equation", "schrodinger", "--eps", "0.1", "--n-x", "60",
                     "--n-y", "7", "--t-final", "0.02", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    data = (tmp_path / "evolve_eps_0.1.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _SCHRODINGER_CSV_GOLDEN


# sha256 of the default spectrum and martinet data files, recorded while
# assemble_staggered still returned a bare (x, diag, off, h) tuple
_MODE_CSV_GOLDEN = {
    "spectrum": "dff32ce2c79f5e1ce46d2c0409dbac0a2e5e8bbcb504caf5b2a2665f056c853f",
    "martinet": "7ac54322a72e084fbe09781ca7970ceba8120804f48b35ddf79cae60f7d20c9e",
}


@pytest.mark.parametrize("sub", sorted(_MODE_CSV_GOLDEN))
def test_default_mode_spectra_match_golden_bytes(tmp_path, capsys, sub):
    code, err = cli([sub, "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    data = (tmp_path / f"{sub}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _MODE_CSV_GOLDEN[sub]


# sha256 of the data files no other golden covers, recorded while _write_csv
# still chose %d or %.17g per column: the metric row, the closed-form fronts
# (the singular one with its +-1 family column) and a heat series
_CSV_GOLDEN = {
    "metric": (["metric"], "metric.csv",
               "751fa2c9f37950774327d4612fd5decbbb3eca395dfb29cc53c825474c9d6daf"),
    "metric-f2-bump": (
        ["metric", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--x", "0.5",
         "--y", "1"], "metric.csv",
        "2819bee9b30aafafef4adad3bebaffd0ebd2c8a20bc8c4463cb0615135d16407"),
    "front-riemannian": (["front"], "front.csv",
                         "21130fa9bdb807ed2ce54d85c01e066dd516790512f378ca786d6fbec808d016"),
    "front-singular": (["front", "--x0", "0", "--n", "8", "--t-final", "0.1"], "front.csv",
                       "d12d05a7f55b7cfa627bf848cafbbc0a9b139aa976ca704abe6ab90fc67850c1"),
    "heat-evolve": (
        ["evolve", "--alpha", "0.6", "--eps", "0.1,0.05", "--n-x", "100", "--n-y", "9",
         "--t-final", "0.1"], "evolve_eps_0.1.csv",
        "4de1def87da4ed896e92a617d858081281bb41f4cabd0e57f5953c858a6fa3db"),
}


@pytest.mark.parametrize("case", sorted(_CSV_GOLDEN))
def test_csv_outputs_match_golden_bytes(tmp_path, capsys, case):
    argv, name, digest = _CSV_GOLDEN[case]
    code, err = cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, named", [
    (["--alpha", "-3"], "alpha > 0"),
    (["--alpha", "0"], "alpha > 0"),
    (["--alpha", "nan"], "alpha > 0"),
    (["--c", "nan"], "c > -1/4"),
])
def test_classify_rejects_nonsense_exponents(tmp_path, capsys, argv, named):
    code, err = cli(["classify", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err


@pytest.mark.parametrize("argv", [["--dt", "0"], ["--dt", "-1"], ["--t-final", "-1"]])
def test_evolve_rejects_bad_time_steps(tmp_path, capsys, argv):
    code, err = cli(["evolve", *argv, "--eps", "0.1", "--n-x", "20", "--n-y", "4",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    flag, value = argv
    named = "dt must be positive" if flag == "--dt" else "T must be non-negative"
    assert f"run_heat: {named}, got {float(value)}" in err


_FAST_EVOLVE = ["evolve", "--eps", "0.1", "--n-x", "20", "--n-y", "4"]


def test_evolve_takes_the_bump_y_modulo_the_period(tmp_path, capsys):
    # 3 + 4 pi: the bump at y = 3, two periods up
    code, err = cli(["evolve", "--bump-y", "15.566370614359172", "--eps", "0.1", "--n-x", "40",
                     "--n-y", "16", "--t-final", "0.01", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err


@pytest.mark.parametrize("argv, key, value", [
    (["metric", "--x", "-1e-3"], "x", -1e-3),
    (["geodesic", "--x0", "-1e-1", "--t-final", "0.01"], "x0", -0.1),
    ([*_FAST_EVOLVE, "--t-final", "0.01", "--bump-x", "-1e-0"], "bump_x", -1.0),
])
def test_negative_value_in_scientific_notation_is_a_value(tmp_path, capsys, argv, key, value):
    code, err = cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "manifest.json").read_text())["config"][key] == value


@pytest.mark.parametrize("text", ["-1e-3", "-2.5E+2", "-.5e1", "-7", "-inf", "-Infinity", "-nan"])
def test_parser_reads_negative_numbers_as_values(text):
    # repr compares nan with nan
    assert repr(_build_parser().parse_args(["metric", "--x", text]).x) == repr(float(text))


_BUMP_FRONT = ["front", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--n", "8"]


@pytest.mark.parametrize("argv, named", [
    (["geodesic", "--t-final", "inf"], "geodesic_flow: T / dt = inf / 0.0001 is not a finite"),
    (["geodesic", "--dt", "1e-320", "--t-final", "0.01"], "geodesic_flow: T / dt = 0.01 / 1e-320"),
    (["geodesic", "--dt", "nan"], "geodesic_flow: dt must be positive, got nan"),
    (["geodesic", "--t-final", "nan"], "geodesic_flow: T must be non-negative, got nan"),
    ([*_BUMP_FRONT, "--t-final", "inf"], "front: T / dt = inf / 0.0001 is not a finite"),
    ([*_BUMP_FRONT, "--t-final", "0.01", "--dt", "nan"], "front: dt must be positive"),
    (["front", "--t-final", "nan"], "front: T must be non-negative, got nan"),
    ([*_FAST_EVOLVE, "--t-final", "inf"], "run_heat: T / dt = inf / 0.001 is not a finite"),
    ([*_FAST_EVOLVE, "--t-final", "1e300", "--dt", "1e-300"], "run_heat: T / dt"),
    ([*_FAST_EVOLVE, "--equation", "schrodinger", "--t-final", "inf"], "run_schrodinger: T / dt"),
    # the closed-form Grushin fan takes no steps, but its dt is checked as for any fan
    (["front", "--n", "8", "--dt", "0"], "front: dt must be positive"),
    (["front", "--n", "8", "--dt", "-1"], "front: dt must be positive"),
    (["front", "--n", "8", "--dt", "nan"], "front: dt must be positive"),
    (["front", "--n", "8", "--t-final", "1e305"],
     "front: T / dt = 1e+305 / 0.0001 is not a finite step count"),
])
def test_step_count_that_is_not_finite_is_a_usage_error(tmp_path, capsys, argv, named):
    code, err = cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "front.csv").exists()


def _step_counts():
    """who -> (T, dt) -> the steps that geodesic_flow, run_heat or run_schrodinger takes."""
    gen = assemble_generator(1.0, 0.1, n_x=20, n_y=4)
    state = gaussian_bump_state(gen, (-1.0, math.pi), 0.3)
    return {
        "geodesic_flow": lambda T, dt: geodesic_flow(
            FrameSpec.grushin(), (-1.0, 0.0, 0.6, 0.8), T, dt=dt).t.size - 1,
        "run_heat": lambda T, dt: len(run_heat(gen, state, T, dt, record_every=1)[1]) - 1,
        "run_schrodinger": lambda T, dt: len(
            run_schrodinger(gen, state, T, dt, record_every=1)[1]) - 1,
    }


@pytest.mark.parametrize("T, dt", [
    (0.01, 0.0), (0.01, -1e-3), (-0.01, 1e-3), (0.01, math.nan), (math.nan, 1e-3),
    (math.inf, 1e-4), (0.01, 1e-320), (1e300, 1e-300)])
def test_every_fixed_step_run_refuses_a_step_grid_alike(T, dt):
    texts = set()
    for who, steps in _step_counts().items():
        with pytest.raises(ValueError) as refused:
            steps(T, dt)
        assert str(refused.value).startswith(f"{who}: ")
        texts.add(str(refused.value)[len(who) + 2:])
    assert len(texts) == 1, texts
    # the CLI size guard leaves such a grid to the run
    cfg = dict(DEFAULTS["geodesic"], t_final=T, dt=dt)
    assert ("t_final", "dt") not in _array_sizes("geodesic", cfg)


@pytest.mark.parametrize("T, dt", [(2.5e-4, 1e-4), (0.0, 1e-3)])
def test_every_fixed_step_run_takes_the_same_step_count(T, dt):
    counts = {who: steps(T, dt) for who, steps in _step_counts().items()}
    # the CLI size guard counts the t, x, y, px, py table of n + 1 states
    cfg = dict(DEFAULTS["geodesic"], t_final=T, dt=dt)
    counts["cli"] = _array_sizes("geodesic", cfg)[("t_final", "dt")] // 5 - 1
    assert len(set(counts.values())) == 1, counts


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


# each CLI default that restates a library default; evolve record_every differs
# on purpose: the CLI writes a series by default, the library's 0 means "no series"
@pytest.mark.parametrize("sub, key, library", [
    ("geodesic", "dt", [(geodesic_flow, "dt")]),
    ("geodesic", "tol_h", [(geodesic_flow, "tol_H")]),
    ("front", "param_max", [(front, "param_max")]),
    ("front", "dt", [(front, "dt")]),
    ("spectrum", "n", [(spectrum_2d, "n")]),
    ("spectrum", "x_max", [(spectrum_2d, "x_max"), (assemble_mode_operator, "x_max")]),
    ("classify", "eps", [(deficiency_index_numeric, "eps")]),
    ("classify", "x_far", [(deficiency_index_numeric, "x_far")]),
    ("evolve", "t_final", [(transmission_study, "T")]),
    ("evolve", "dt", [(eps_sweep, "dt"), (transmission_study, "dt")]),
    ("evolve", "n_x", [(eps_sweep, "n_x"), (transmission_study, "n_x"),
                       (assemble_generator, "n_x")]),
    ("evolve", "x_half", [(eps_sweep, "x_half"), (assemble_generator, "x_half")]),
    ("evolve", "n_y", [(eps_sweep, "n_y"), (transmission_study, "n_y"),
                       (assemble_generator, "n_y")]),
    ("evolve", "period", [(eps_sweep, "period"), (assemble_generator, "period")]),
    ("evolve", "equation", [(eps_sweep, "equation")]),
    ("evolve", "bump_sigma", [(eps_sweep, "bump_sigma")]),
    ("martinet", "y_max", [(martinet_mode_solve, "y_max")]),
    ("martinet", "m", [(martinet_mode_solve, "m")]),
])
def test_cli_defaults_are_the_library_defaults(sub, key, library):
    for fn, name in library:
        assert DEFAULTS[sub][key] == _default(fn, name), (fn.__name__, name)


def test_cli_bump_center_is_the_library_default():
    evolve = DEFAULTS["evolve"]
    assert (evolve["bump_x"], evolve["bump_y"]) == _default(eps_sweep, "bump_center")


@pytest.mark.parametrize("argv, named", [
    (["metric", "--variant", "alpha-grushin", "--frame-alpha", "nan"], "finite alpha > 0"),
    (["metric", "--variant", "alpha-grushin", "--frame-alpha", "inf"], "finite alpha > 0"),
    (["geodesic", "--variant", "alpha-grushin", "--frame-alpha", "nan", "--t-final", "0.01"],
     "finite alpha > 0"),
    (["geodesic", "--variant", "alpha-grushin", "--frame-alpha", "inf", "--t-final", "0.01"],
     "finite alpha > 0"),
    (_FAST_EVOLVE + ["--alpha", "nan"], "finite alpha > 0"),
    (_FAST_EVOLVE + ["--alpha", "inf"], "finite alpha > 0"),
    (_FAST_EVOLVE + ["--period", "nan"], "finite period > 0"),
    (_FAST_EVOLVE + ["--period", "inf"], "finite period > 0"),
    # a front start, checked before any ray
    (["front", "--x0", "inf", "--n", "8"], "front: need a finite start, got (inf, 0.0)"),
    (["front", "--x0", "nan", "--n", "8"], "front: need a finite start, got (nan, 0.0)"),
    (["front", "--x0", "0", "--y0", "inf", "--n", "8"],
     "front: need a finite start, got (0.0, inf)"),
])
def test_non_finite_exponents_and_periods_are_usage_errors(tmp_path, capsys, argv, named):
    code, err = cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, code, named", [
    (["--px0", "nan"], 2, "finite start state"),
    (["--x0", "inf"], 2, "finite start state"),
    (["--tol-h", "nan"], 2, "finite tol_H > 0"),
    (["--tol-h", "-1"], 2, "finite tol_H > 0"),
    (["--tol-h", "inf"], 2, "finite tol_H > 0"),
    # starts with finite f**2 and energy whose trajectories blow up: overflow
    # to inf and nan, or leave the domain of a float jet
    (["--py0", "1e150"], 3, "energy drift nan"),
    (["--variant", "alpha-grushin", "--frame-alpha", "3", "--x0", "1e40"], 3,
     "left the floats"),
    (["--variant", "alpha-grushin", "--frame-alpha", "1.5", "--x0", "1e100"], 3,
     "energy drift nan"),
    (["--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--py0", "1e150"], 3,
     "left the floats"),
])
def test_geodesic_energy_gate_has_no_nan_hole(tmp_path, capsys, argv, code, named):
    got, err = cli(["geodesic", *argv, "--t-final", "0.01", "--out-dir", str(tmp_path)],
                   capsys)
    assert got == code
    assert "geodesic_flow" in err and named in err
    assert not (tmp_path / "geodesic.csv").exists()


@pytest.mark.parametrize("argv, named", [
    (["--bump-sigma", "0"], "finite sigma > 0"),
    (["--bump-sigma", "-0.3"], "finite sigma > 0"),
    (["--bump-sigma", "nan"], "finite sigma > 0"),
    (["--bump-x", "-10"], "no mass of the bump"),
    (["--bump-y", "nan"], "no mass of the bump"),
    (["--bump-sigma", "1e-200"], "2 sigma**2 neither underflowing nor overflowing"),
    (["--bump-sigma", "1e200"], "2 sigma**2 neither underflowing nor overflowing"),
    (["--bump-sigma", "1e-160"], "no mass of the bump"),
])
def test_evolve_rejects_an_empty_start_bump(tmp_path, capsys, argv, named):
    code, err = cli([*_FAST_EVOLVE, *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "gaussian_bump_state" in err and named in err


def test_front_csv_has_family_column(tmp_path, capsys):
    code, err = cli(["front", "--x0", "0.0", "--y0", "0.0", "--n", "8",
                     "--t-final", "0.5", "--param-max", "2.0",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    rows = (tmp_path / "front.csv").read_text().splitlines()
    assert rows[0].split(",") == ["family", "param", "x", "y"]
    assert len(rows) - 1 == 16  # both families from a singular start
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["kind"] == "singular"
    assert manifest["summary"]["provenance"] == "closed-form"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--x-max", "1e-160"],  # h**2 underflows to 0
    ["spectrum", "--x-max", "1e200"],   # h**2 overflows
    ["spectrum", "--x-max", "inf"],
    ["martinet", "--y-max", "1e-300"],
    ["martinet", "--y-max", "inf"],
], ids=["spectrum-tiny", "spectrum-huge", "spectrum-inf", "martinet-tiny", "martinet-inf"])
def test_mode_box_whose_stencil_is_not_finite_is_a_usage_error(tmp_path, capsys, argv):
    # in this process a RuntimeWarning is an error: none may escape main
    code, err = cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "arslab: assemble_staggered: " in err and "finite" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, named", [
    (["--x-half", "inf"], "need a finite cell width"),
    (["--x-half", "1e300"], "leave the floats"),
    (["--x-half", "1.7e308"], "need a finite cell width"),
    # the float power eps**-alpha overflows; at eps = 1e-155 the weights are finite
    (["--alpha", "400"], "the power eps**-400 overflows the floats at eps=0.1, alpha=400.0"),
    (["--alpha", "2", "--eps", "1e-155"],
     "the power eps**-2 overflows the floats at eps=1e-155, alpha=2.0"),
], ids=["inf", "1e300", "1.7e308", "alpha-400", "eps-1e-155"])
def test_evolve_box_whose_weights_are_not_finite_is_a_usage_error(tmp_path, capsys, argv,
                                                                  named):
    code, err = cli([*_FAST_EVOLVE, *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "arslab: assemble_generator: " in err and named in err and "bump" not in err
    assert not (tmp_path / "manifest.json").exists()


def test_evolve_at_a_steep_weight_keeps_the_bump_mass(tmp_path, capsys):
    # both antiderivatives of a cell beyond eps hold eps**(1 - alpha) / (alpha - 1),
    # about 3e296 here, and their difference would lose the whole bump
    code, err = cli([*_FAST_EVOLVE, "--alpha", "300", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    table = np.loadtxt(tmp_path / "evolve_eps_0.1.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table)) and table[0, 1] > 0.0


@pytest.mark.parametrize("argv", [["--x", "nan"], ["--x", "inf"], ["--y", "-inf"]],
                         ids=["x-nan", "x-inf", "y-minus-inf"])
def test_metric_at_a_point_that_is_not_finite_is_a_usage_error(tmp_path, capsys, argv):
    code, err = cli(["metric", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "arslab: metric_at: need a finite point" in err
    assert not (tmp_path / "metric.csv").exists()


_PARAM_MAX_NOT_POSITIVE = "front: need finite param_max > 0"
# from x = 0 the Grushin closed form divides by 4 py**2 for py up to param_max
_PARAM_MAX_SQUARE_OVERFLOWS = "front: the Grushin closed form needs 4 * param_max**2 finite"


@pytest.mark.parametrize("param_max, named", [
    ("nan", _PARAM_MAX_NOT_POSITIVE), ("inf", _PARAM_MAX_NOT_POSITIVE),
    ("0", _PARAM_MAX_NOT_POSITIVE), ("-1", _PARAM_MAX_NOT_POSITIVE),
    ("1e308", _PARAM_MAX_SQUARE_OVERFLOWS), ("1e160", _PARAM_MAX_SQUARE_OVERFLOWS),
], ids=["nan", "inf", "0", "-1", "1e308", "1e160"])
def test_front_param_max_that_is_not_finite_and_positive_is_a_usage_error(tmp_path, capsys,
                                                                         param_max, named):
    code, err = cli(["front", "--x0", "0", "--n", "8", "--param-max", param_max,
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert f"arslab: {named}" in err
    assert not (tmp_path / "front.csv").exists()


def test_singular_front_on_an_integrated_frame_names_param_max_or_the_drift(tmp_path, capsys):
    # the grid's span 2 * param_max overflows: a usage error naming param_max,
    # raised before np.linspace can warn
    argv = ["front", "--variant", "alpha-grushin", "--frame-alpha", "1", "--x0", "0", "--n", "8",
            "--t-final", "0.01", "--out-dir", str(tmp_path)]
    code, err = cli([*argv, "--param-max", "1e308"], capsys)
    assert code == 2, err
    assert ("arslab: front: the grid on [-param_max, param_max] needs 2 * param_max finite, "
            "got param_max = 1e+308") in err
    # the start energy on x = 0 is px**2 / 2; py = 1e160 then blows the flow up
    code, err = cli([*argv, "--param-max", "1e160"], capsys)
    assert code == 3, err
    assert "arslab: geodesic_flow: energy drift nan exceeds" in err
    assert not (tmp_path / "front.csv").exists()


def test_readme_names_every_flag_in_its_subcommand_bullet():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Subcommands and their artifacts", 1)[1].split("\n#", 1)[0]
    bullets = {}
    for bullet in section.split("\n- `")[1:]:
        name, _, rest = bullet.partition(" ")
        bullets[name] = rest
    for sub, defaults in DEFAULTS.items():
        flags = ["--" + key.replace("_", "-") for key in defaults if key != "frame"]
        missing = [flag for flag in flags
                   if not re.search(re.escape(flag) + r"(?![\w-])", bullets[sub])]
        assert not missing, f"README bullet of {sub} lacks {missing}"


def test_evolve_schrodinger_norm_column_is_constant(tmp_path, capsys):
    code, err = cli(["evolve", "--equation", "schrodinger", "--eps", "0.1",
                     "--t-final", "0.02", "--dt", "1e-3", "--n-x", "60",
                     "--n-y", "4", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    rows = (tmp_path / "evolve_eps_0.1.csv").read_text().splitlines()
    assert rows[0].split(",") == ["t", "mass_left", "mass_right", "norm"]
    norms = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(norms) - min(norms) <= 1e-10 * norms[0]


def test_evolve_sweep_writes_transmission_verdict(tmp_path, capsys):
    code, err = cli(["evolve", "--alpha", "0.5", "--eps", "0.1,0.05",
                     "--t-final", "0.1", "--dt", "1e-3", "--n-x", "100",
                     "--n-y", "4", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    payload = json.loads((tmp_path / "transmission.json").read_text())
    assert payload["verdict"] == "crossing-consistent"
    assert len(payload["fractions"]) == 2
    assert (tmp_path / "evolve_eps_0.05.csv").exists()


def test_inconclusive_evolve_names_evolve(tmp_path, capsys):
    code, err = cli(["evolve", "--alpha", "1.5", "--eps", "0.1,0.025", "--t-final", "0.25",
                     "--n-x", "100", "--n-y", "4", "--out-dir", str(tmp_path)], capsys)
    assert code == 3
    assert "evolve" in err and "transmission_study" not in err
    payload = json.loads((tmp_path / "transmission.json").read_text())
    assert payload["verdict"] == "inconclusive"


def test_inconclusive_evolve_carries_the_transmission_report(tmp_path):
    # the same report transmission_study attaches, not a dict of it
    from arslab.evolution import TransmissionReport

    with pytest.raises(Inconclusive) as info:
        run(["evolve", "--alpha", "1.5", "--eps", "0.1,0.025", "--t-final", "0.25",
             "--n-x", "100", "--n-y", "4", "--out-dir", str(tmp_path)])
    report = info.value.report
    assert isinstance(report, TransmissionReport)
    assert dataclasses.asdict(report) == json.loads(
        (tmp_path / "transmission.json").read_text())


def test_martinet_subcommand(tmp_path, capsys):
    code, err = cli(["martinet", "--k", "0", "--l", "2", "--n", "200", "--m", "2",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    rows = (tmp_path / "martinet.csv").read_text().splitlines()
    assert rows[0].split(",") == ["k", "l", "n", "lambda", "residual", "multiplicity"]
    assert len(rows) - 1 == 2
    assert rows[1].split(",")[5] == "2"


@pytest.mark.parametrize("argv, key", [(["--k", ""], "'k'"), (["--l", ","], "'l'")])
def test_martinet_rejects_an_empty_request(tmp_path, capsys, argv, key):
    # spectrum and evolve refuse an empty request too; no header-only csv
    code, err = cli(["martinet", *argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert f"martinet: {key} is empty" in err
    assert not (tmp_path / "out").exists()


def _reference_cell(v):
    """The per-cell CSV formatter that _write_csv must reproduce."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def test_write_csv_matches_per_cell_format(tmp_path):
    # one %.17g prints every int below 2**53 as str(int) does
    rows = [(3, 0.1, math.nan, math.inf, -0.0),
            (np.int64(-7), np.float64(2.0 / 3.0), -math.inf, 1e-300, 5e-324),
            (0, -1.5e300, 0.0, np.float64(-math.nan), 123456789.0),
            (2**53 - 1, -(2**53 - 1), np.int64(2**53 - 1), 1, -1.0)]
    meta = _write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], rows)
    want = "a,b,c,d,e\n" + "".join(",".join(_reference_cell(v) for v in row) + "\n"
                                    for row in rows)
    assert (tmp_path / "t.csv").read_text() == want
    assert meta == {"columns": ["a", "b", "c", "d", "e"], "rows": 4}
    _write_csv(tmp_path / "empty.csv", ["a"], [])
    assert (tmp_path / "empty.csv").read_text() == "a\n"


def _reference_csv(columns, rows):
    return ",".join(columns) + "\n" + "".join(
        ",".join(_reference_cell(v) for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("n", [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 1])
def test_write_csv_chunk_boundaries(tmp_path, n):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-320, 300, size=(n, 3))
    table[-1] = (math.nan, -0.0, math.inf)
    table[n // 2] = (5e-324, -math.inf, 0.1)
    columns = ["a", "b", "c"]
    want = _reference_csv(columns, table.tolist())
    for rows in (table, [tuple(row) for row in table.tolist()]):
        meta = _write_csv(tmp_path / "t.csv", columns, rows)
        assert (tmp_path / "t.csv").read_text() == want
        assert meta == {"columns": columns, "rows": n}

    ints = rng.integers(-2**53 + 1, 2**53, size=(n, 2))
    _write_csv(tmp_path / "i.csv", ["a", "b"], ints)
    assert (tmp_path / "i.csv").read_text() == _reference_csv(["a", "b"], ints.tolist())

    # a float cell in the last chunk prints beside the int cells of the others
    mixed = [(i, 1) for i in range(n - 1)] + [(0.5, 2)]
    _write_csv(tmp_path / "m.csv", ["a", "b"], mixed)
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[1] == "0,1" and lines[-1] == "0.5,2" and lines[-2] == f"{n - 2},1"
    assert lines == _reference_csv(["a", "b"], [(float(a), b) for a, b in mixed]).splitlines()


def test_write_csv_takes_a_table(tmp_path):
    _write_csv(tmp_path / "e.csv", ["a", "b"], np.empty((0, 2)))
    assert (tmp_path / "e.csv").read_text() == "a,b\n"


def test_successive_in_process_runs_match_fresh_runs(tmp_path, capsys):
    """main() reuses one parser per process; that must not leak between calls."""
    requests = [["front", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)",
                 "--n", "8", "--t-final", "0.05", "--dt", "1e-3"],
                ["metric", "--x", "0.5", "--y", "2.0"]]
    for i, args in enumerate(requests):
        assert main(args + ["--out-dir", str(tmp_path / f"in{i}")]) == 0
        proc = run_cli(args + ["--out-dir", str(tmp_path / f"fresh{i}")], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    for i, _ in enumerate(requests):
        a, b = tmp_path / f"in{i}", tmp_path / f"fresh{i}"
        ma, mb = (json.loads((d / "manifest.json").read_text()) for d in (a, b))
        del ma["wall_time_s"], mb["wall_time_s"]
        assert ma == mb
        for name in ma["outputs"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_unknown_subcommand_fails(tmp_path):
    proc = run_cli(["orbit"], cwd=tmp_path)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [["--eps", ""], ["--eps", ","]], ids=["empty", "comma"])
def test_evolve_rejects_an_empty_eps_list(tmp_path, capsys, argv):
    code, err = cli(["evolve", *argv, "--n-x", "20", "--n-y", "4", "--out-dir", str(tmp_path)],
                    capsys)
    assert code == 2
    assert "eps_sweep: need at least one eps value" in err
    assert not (tmp_path / "manifest.json").exists()


def test_evolve_config_with_empty_eps_list_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "evolve", "eps": [], "n_x": 20, "n_y": 4}))
    code, err = cli(["--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "eps_sweep: need at least one eps value" in err


@pytest.mark.parametrize("argv, named", [
    (["--variant", "f1", "--frame-alpha", "2"], "variant 'f1' takes no 'alpha'"),
    (["--variant", "f2", "--frame-alpha", "2"], "variant 'f2' takes no 'alpha'"),
    (["--variant", "alpha-grushin", "--frame-alpha", "1.5",
      "--log-scale", "gaussian-bump(0.3,0.7)"], "variant 'alpha-grushin' takes no 'log_scale'"),
    (["--variant", "grushin", "--frame-alpha", "2"], "variant 'grushin' takes no 'alpha'"),
], ids=["f1-alpha", "f2-alpha", "alpha-grushin-log-scale", "grushin-alpha"])
def test_frame_key_the_variant_ignores_is_a_usage_error(tmp_path, capsys, argv, named):
    code, err = cli(["metric", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err
    assert not (tmp_path / "manifest.json").exists()


def test_gaussian_bump_with_zero_sigma_is_a_usage_error(tmp_path, capsys):
    code, err = cli(["metric", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0)",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "gaussian-bump sigma must be positive" in err


@pytest.mark.parametrize("bump, named", [
    ("gaussian-bump(0.3,nan)", "gaussian-bump sigma"),
    ("gaussian-bump(0.3,inf)", "gaussian-bump sigma"),
    ("gaussian-bump(nan,0.7)", "gaussian-bump amplitude must be finite"),
    ("gaussian-bump(inf,0.5)", "gaussian-bump amplitude must be finite"),
    ("gaussian-bump(-inf,0.5)", "gaussian-bump amplitude must be finite"),
    # sigma**2 or sigma**4 under- or overflows
    ("gaussian-bump(0.3,1e-200)", "neither underflowing nor overflowing"),
    ("gaussian-bump(0.3,1e-80)", "neither underflowing nor overflowing"),
    ("gaussian-bump(0.3,1e200)", "neither underflowing nor overflowing"),
], ids=["sigma-nan", "sigma-inf", "amp-nan", "amp-inf", "amp-minus-inf", "sigma-tiny",
        "sigma4-subnormal", "sigma-huge"])
def test_gaussian_bump_out_of_range_is_a_usage_error(tmp_path, capsys, bump, named):
    code, err = cli(["metric", "--variant", "f2", "--log-scale", bump, "--x", "0.5",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("cfg, named", [
    ({"subcommand": "metric", "frame": {"variant": "f2", "log_scale": {
        "preset": "gaussian-bump", "amplitude": 0.3, "sigma": 0.7}}}, "cannot parse log_scale"),
    ({"subcommand": "metric", "frame": {"variant": "f1", "log_scale": {
        "preset": "polynomial", "coeffs": [[0.1]]}}}, "cannot parse log_scale"),
    ({"subcommand": "metric", "frame": {"variant": "f2", "log_scale": {"preset": "zero"}}},
     "cannot parse log_scale"),
    ({"subcommand": "metric", "frame": "grushin"}, "frame config must be a dict"),
    ({"subcommand": "orbit"}, "unknown subcommand 'orbit'"),
    ([1, 2], "config file must hold a JSON object"),
    ({"subcommand": [1]}, "unknown subcommand [1]"),
    # a value of the wrong JSON kind for its key
    ({"subcommand": "evolve", "eps": 0.1}, "'eps' takes a list of numbers, got 0.1"),
    ({"subcommand": "martinet", "k": 1}, "'k' takes a list of integers, got 1"),
    ({"subcommand": "martinet", "l": [1.5]}, "'l' takes a list of integers, got [1.5]"),
    ({"subcommand": "martinet", "k": []}, "martinet: 'k' is empty"),
    ({"subcommand": "metric", "x": None}, "'x' takes a number, got null"),
    ({"subcommand": "spectrum", "n": None}, "'n' takes an integer, got null"),
    ({"subcommand": "geodesic", "t_final": [1]}, "'t_final' takes a number, got [1]"),
    ({"subcommand": "metric", "frame": {"variant": "alpha-grushin", "alpha": None}},
     "needs a number for key 'alpha', got None"),
    ({"subcommand": "metric", "frame": {"variant": "alpha-grushin", "alpha": True}},
     "needs a number for key 'alpha', got True"),
    ({"subcommand": "classify", "numeric_check": "no"},
     "'numeric_check' takes true or false, got \"no\""),
    ({"subcommand": "classify", "alpha": True}, "'alpha' takes a number or null, got true"),
    ({"subcommand": "spectrum", "n": 2000.7}, "'n' takes an integer, got 2000.7"),
    ({"subcommand": "evolve", "record_every": True}, "'record_every' takes an integer, got true"),
    ({"subcommand": "evolve", "equation": 1}, "'equation' takes a string, got 1"),
    # numbers a handler cannot use: an int beyond the float range, an array
    # size beyond any memory
    ({"subcommand": "metric", "x": 10**400}, "'x' takes a number, got 1000"),
    ({"subcommand": "martinet", "k": [10**400]}, "'k' takes a list of integers, got [1000"),
    ({"subcommand": "classify", "c": -(10**400)}, "'c' takes a number or null, got -1000"),
    ({"subcommand": "metric", "frame": {"variant": "alpha-grushin", "alpha": 10**400}},
     "needs a number for key 'alpha', got 1000"),
    ({"subcommand": "front", "frame": {"variant": "alpha-grushin", "alpha": -(10**400)}},
     "needs a number for key 'alpha', got -1000"),
    # an integral float for an int key is the int it stands for
    ({"subcommand": "spectrum", "n": 1e300}, f"the array sized by n = {int(1e300)} is larger"),
    ({"subcommand": "spectrum", "k_max": 10**23, "n": 200},
     "the array sized by k_max = 100000000000000000000000 and m_per_mode = 4 is larger"),
    # polynomial log_scale tables that are empty, not 2-D or not finite
    ({"subcommand": "metric", "frame": {"variant": "f2", "log_scale": [[]]}}, "polynomial_field"),
    ({"subcommand": "metric", "frame": {"variant": "f2", "log_scale": [[[1]]]}},
     "polynomial_field"),
    ({"subcommand": "metric", "frame": {"variant": "f2", "log_scale": [[None]]}},
     "polynomial_field"),
], ids=["dict-bump", "dict-polynomial", "dict-zero", "frame-not-dict", "subcommand", "not-object",
        "subcommand-list", "eps-number", "k-number", "l-float", "k-empty", "x-null", "n-null",
        "t-final-list", "frame-alpha-null", "frame-alpha-bool", "numeric-check-str",
        "classify-alpha-bool", "n-fraction", "record-every-bool", "equation-number",
        "x-huge-int", "k-huge-int", "c-huge-int", "metric-frame-alpha-huge-int",
        "front-frame-alpha-huge-int", "n-huge", "k-max-huge", "poly-empty", "poly-3d",
        "poly-null"])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, cfg, named):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, err = cli(["--config", str(cfg_file), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, named", [
    (["evolve", "--n-y", "1000000000000"], "the array sized by n_x = 400 and n_y = 1000000000000"),
    (["spectrum", "--n", "100000000000"], "the array sized by n = 100000000000"),
    # sizes set by a step count t_final / dt
    (["evolve", "--eps", "0.1", "--n-x", "20", "--n-y", "4", "--dt", "1e-300"],
     "the array sized by t_final = 0.5 and dt = 1e-300 and record_every = 1"),
    (["geodesic", "--t-final", "1e300"], "the array sized by t_final = 1e+300 and dt = 0.0001"),
    (["front", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--t-final", "1e300"],
     "the array sized by t_final = 1e+300 and dt = 0.0001"),
], ids=["evolve-n-y", "spectrum-n", "evolve-steps", "geodesic-steps", "front-steps"])
def test_size_beyond_memory_is_a_usage_error(tmp_path, capsys, argv, named):
    # refused before any array is made: the first two ask for 2.85 PiB and 745 GiB
    code, err = cli([*argv, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert named in err
    assert not (tmp_path / "out").exists()


def test_closed_form_grushin_front_takes_no_steps(tmp_path, capsys):
    # the exact Grushin fan is evaluated in closed form, so no step count sizes it
    code, err = cli(["front", "--t-final", "1e300", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    assert (tmp_path / "front.csv").exists()


def test_config_values_of_their_default_kind_run(tmp_path, capsys):
    # an int stands for a float, an integral float for an int, null for a null default
    cfg_file = tmp_path / "cfg.json"
    for cfg in ({"subcommand": "metric", "x": 1, "y": -2},
                {"subcommand": "spectrum", "n": 200.0, "k_max": 1, "m_per_mode": 2},
                {"subcommand": "classify", "alpha": None, "c": 1}):
        cfg_file.write_text(json.dumps(cfg))
        code, err = cli(["--config", str(cfg_file), "--out-dir", str(tmp_path)], capsys)
        assert code == 0, err


def test_removed_tol_is_a_usage_error(tmp_path, capsys):
    # every heat and Schrodinger step is certified against one fixed tolerance
    with pytest.raises(SystemExit) as info:
        main([*_FAST_EVOLVE, "--tol", "1e-3", "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"subcommand": "evolve", "tol": 1e-10}))
    code, err = cli(["--config", str(cfg_file), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "unknown config key 'tol'" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("every", ["0", "-3"])
def test_record_every_below_one_is_a_usage_error(tmp_path, capsys, every):
    code, err = cli([*_FAST_EVOLVE, "--record-every", every, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert f"record_every must be at least 1, got {every}" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("x_max", ["1e-150", "1e-100"])
def test_spectrum_of_a_tiny_box_certifies_finite_residuals(tmp_path, capsys, x_max):
    # ||A|| passes 1e154 here, where squared unscaled residuals would overflow
    code, err = cli(["spectrum", "--x-max", x_max, "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    table = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table)) and np.all(table[:, 3] >= 0.0)


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such.json"
    code, err = cli(["--config", str(missing), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "No such file" in err and str(missing) in err


# -- cold start: what `import arslab` and the geometry subcommands load ----

# every public name of `import arslab`, by the geometry layer that defines
# it; the three layers themselves are names too.  The layers that need scipy
# are submodules, imported by name; _SCIPY_LAYERS pins their __all__.
_PUBLIC_NAMES = {
    "errors": ["ArslabError", "BadGrid", "ConvergenceFailure", "FitIllConditioned",
               "Inconclusive", "OutOfRange", "SingularPoint", "SolverDiverged",
               "StepSizeTooLarge", "UnsupportedFrame"],
    "frames": ["FrameSpec", "MetricData", "ScalarField", "curve_length", "frame_from_config",
               "frame_vectors", "gaussian_bump", "laplace_beltrami_coeffs", "metric_at",
               "polynomial_field", "scalar_zero"],
    "geodesics": ["Front", "Trajectory", "front", "geodesic_flow",
                  "grushin_geodesic_origin", "grushin_geodesic_riemannian"],
}
_SCIPY_LAYERS = {
    "spectral": ["GaugePotential", "ModeOperator", "SelfAdjointnessReport", "SpectrumLine",
                 "assemble_mode_operator", "assemble_staggered", "classify_self_adjoint",
                 "deficiency_index_numeric", "eigen_solve", "gauge_transform",
                 "inverse_square_coefficient", "richardson_extrapolate", "spectrum_2d"],
    "evolution": ["EvolutionState", "Generator", "TransmissionReport", "assemble_generator",
                  "eps_sweep", "gaussian_bump_state", "run_heat", "run_schrodinger",
                  "transmission_study", "transmission_verdict", "transmitted_fraction"],
    "martinet": ["MartinetModeResult", "martinet_mode_solve", "mode_potential"],
    "tridiag": ["EigenResult", "count_below", "lowest_eigenpairs"],
}
_DUNDERS = ["__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
            "__package__", "__path__", "__spec__", "__version__"]


def _fresh_python(code, cwd, *args):
    """Run code in a fresh interpreter; return what it prints as JSON."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_geometry_subcommands_load_neither_scipy_nor_numpy_polynomial(tmp_path):
    code = """if True:
        import json, sys
        import arslab.cli
        out = sys.argv[1]
        codes = [arslab.cli.main(argv + ["--out-dir", out]) for argv in (
            ["metric"],
            ["geodesic", "--t-final", "0.01"],
            ["front", "--n", "8", "--t-final", "0.05", "--dt", "1e-3"])]
        loaded = sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
        print(json.dumps({"codes": codes, "loaded": loaded}))
    """
    got = _fresh_python(code, tmp_path, str(tmp_path))
    assert got == {"codes": [0, 0, 0], "loaded": []}


def test_polynomial_frame_runs_load_no_numpy_polynomial(tmp_path):
    frame = {"variant": "f2", "log_scale": [[0.1, 0.2], [0.3, -0.1]]}
    configs = []
    for sub, extra in (("metric", {"x": 0.7}), ("geodesic", {"t_final": 0.01})):
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps({"subcommand": sub, "frame": frame, **extra}))
        configs.append(str(path))
    code = """if True:
        import json, sys
        import arslab.cli
        out, *configs = sys.argv[1:]
        codes = [arslab.cli.main(["--config", c, "--out-dir", out]) for c in configs]
        loaded = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
        print(json.dumps({"codes": codes, "loaded": loaded}))
    """
    got = _fresh_python(code, tmp_path, str(tmp_path), *configs)
    assert got == {"codes": [0, 0], "loaded": []}


def test_import_arslab_exports_the_geometry_layers_only(tmp_path):
    code = """if True:
        import importlib, json, sys
        import arslab
        owners, scipy_layers = json.loads(sys.argv[1]), sys.argv[2:]
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        bare_dir = dir(arslab)
        star = {}
        exec("from arslab import *", star)
        wrong = [n for mod, names in owners.items() for n in names
                 if getattr(arslab, n) is not getattr(getattr(arslab, mod), n)]
        # importing a scipy layer binds it on arslab, so look at these first
        layer_names = {m: getattr(importlib.import_module("arslab." + m), "__all__", [])
                       for m in [*owners, *scipy_layers]}
        leaked = [n for m in scipy_layers for n in [m, *layer_names[m]] if n in bare_dir]
        missing = [m + "." + n for m, names in layer_names.items() for n in names
                   if not hasattr(sys.modules["arslab." + m], n)]
        print(json.dumps({"scipy": loaded, "all": sorted(arslab.__all__), "dir": bare_dir,
                          "star": sorted(n for n in star if n != "__builtins__"),
                          "wrong": wrong, "leaked": leaked, "missing": missing,
                          "scipy_layers": {m: sorted(layer_names[m]) for m in scipy_layers}}))
    """
    got = _fresh_python(code, tmp_path, json.dumps(_PUBLIC_NAMES), *_SCIPY_LAYERS)
    public = sorted(n for mod, names in _PUBLIC_NAMES.items() for n in [mod, *names])
    assert got["scipy"] == []
    assert got["all"] == got["star"] == public
    assert sorted(n for n in got["dir"] if not n.startswith("_")) == public
    assert set(_DUNDERS) <= set(got["dir"])
    assert got["wrong"] == got["leaked"] == got["missing"] == []
    assert got["scipy_layers"] == _SCIPY_LAYERS
