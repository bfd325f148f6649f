import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from arslab.cli import _HANDLERS, DEFAULTS, _build_parser, _write_csv, main

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
    assert "need dt > 0 and T >= 0" in err


_FAST_EVOLVE = ["evolve", "--eps", "0.1", "--n-x", "20", "--n-y", "4"]


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
    (["--py0", "1e200"], 3, "energy drift nan"),
    # blow-ups that overflow or leave the domain of a float jet
    (["--variant", "alpha-grushin", "--frame-alpha", "3", "--x0", "1e200"], 3,
     "left the floats"),
    (["--variant", "alpha-grushin", "--frame-alpha", "1.5", "--x0", "1e200"], 3,
     "energy drift nan"),
    (["--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)", "--py0", "1e200"], 3,
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


def test_martinet_subcommand(tmp_path, capsys):
    code, err = cli(["martinet", "--k", "0", "--l", "2", "--n", "200", "--m", "2",
                     "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    rows = (tmp_path / "martinet.csv").read_text().splitlines()
    assert rows[0].split(",") == ["k", "l", "n", "lambda", "residual", "multiplicity"]
    assert len(rows) - 1 == 2
    assert rows[1].split(",")[5] == "2"


def _reference_cell(v):
    """The per-cell CSV formatter that _write_csv must reproduce."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def test_write_csv_matches_per_cell_format(tmp_path):
    rows = [(3, 0.1, math.nan, math.inf, -0.0),
            (np.int64(-7), np.float64(2.0 / 3.0), -math.inf, 1e-300, 5e-324),
            (0, -1.5e300, 0.0, np.float64(-math.nan), 123456789.0)]
    meta = _write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], rows)
    want = "a,b,c,d,e\n" + "".join(",".join(_reference_cell(v) for v in row) + "\n"
                                    for row in rows)
    assert (tmp_path / "t.csv").read_text() == want
    assert meta == {"columns": ["a", "b", "c", "d", "e"], "rows": 3}
    _write_csv(tmp_path / "empty.csv", ["a"], [])
    assert (tmp_path / "empty.csv").read_text() == "a\n"
    for flag in (True, np.bool_(False)):
        with pytest.raises(TypeError):
            _write_csv(tmp_path / "b.csv", ["a", "b"], [(1.0, 2), (0.5, flag)])


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


@pytest.mark.parametrize("cfg, named", [
    ({"subcommand": "metric", "frame": {"variant": "f2", "log_scale": {
        "preset": "gaussian-bump", "amplitude": 0.3, "sigma": 0.7}}}, "cannot parse log_scale"),
    ({"subcommand": "metric", "frame": {"variant": "f1", "log_scale": {
        "preset": "polynomial", "coeffs": [[0.1]]}}}, "cannot parse log_scale"),
    ({"subcommand": "metric", "frame": "grushin"}, "frame config must be a dict"),
    ({"subcommand": "orbit"}, "unknown subcommand 'orbit'"),
    ([1, 2], "config file must hold a JSON object"),
], ids=["dict-bump", "dict-polynomial", "frame-not-dict", "subcommand", "not-object"])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, cfg, named):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, err = cli(["--config", str(cfg_file), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert named in err
    assert not (tmp_path / "manifest.json").exists()


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such.json"
    code, err = cli(["--config", str(missing), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "No such file" in err and str(missing) in err
