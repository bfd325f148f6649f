"""Tests of the benchmark itself: metric names and units, output checks,
seeded workloads and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import arslab  # noqa: E402
import arslab.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SIZE_KEYS = {"k_max", "m_per_mode", "n", "x_max", "m", "n_x", "n_y", "t_final", "dt",
             "eps", "tol_h"}


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_end_to_end_metrics_match_benchmark_json():
    assert _units("end_to_end") == run.E2E
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_match_benchmark_json():
    assert _units("per_layer") == tracing.PER_LAYER


def test_every_end_to_end_metric_is_emitted(tmp_path):
    for workload in workloads.WORKLOADS:
        r = run.Run(workload, seed=1, seconds=0, trace=0, out=tmp_path)
        r.attempted = 3
        r.pass_s[False].append(1.0)
        for kind in r.latency:
            r.latency[kind].append(0.5)
        metrics = run.end_to_end(r, setup=[0.4, 0.5])
        assert set(metrics) == set(run.E2E)
        assert all(v > 0 for v in metrics.values())


def _request(workload, kind):
    return next(r for r in workloads.build_pass(workload, 7, 0) if r.kind == kind)


def test_correct_spectrum_passes_and_a_perturbed_eigenvalue_fails(tmp_path):
    req = _request("modes", "spectrum")
    assert req.params["alpha"] == 1.0
    _, problems = run.execute(req, tmp_path)
    assert problems == []
    path = tmp_path / "spectrum.csv"
    lines = path.read_text().splitlines()
    k, n, lam, res = lines[3].split(",")
    lines[3] = ",".join([k, n, repr(float(lam) * (1 + 1e-6)), res])
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check(req, tmp_path, 0)
    assert any("LAPACK" in p for p in problems), problems


def test_correct_front_passes_and_a_perturbed_endpoint_fails(tmp_path):
    req = _request("fan", "front")
    _, problems = run.execute(req, tmp_path)
    assert problems == []
    path = tmp_path / "front.csv"
    original = path.read_text()
    for row, col in ((1, 2), (4, 3)):   # ray 0's x, ray 3's y
        lines = original.splitlines()
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) + 1e-6)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert checks.check(req, tmp_path, 0), (row, col)


def test_curve_length_check_catches_a_wrong_length():
    req = _request("fan", "length")
    T = req.params["T"]
    assert checks.check(req, None, T) == []
    assert checks.check(req, None, T * (1 + 1e-5))


def test_a_request_that_exits_with_an_error_counts_as_failed(tmp_path):
    req = workloads.Request("spectrum", dict(workloads.SPECTRUM, alpha=1.0),
                            ["spectrum", "--n", "4"])
    _, problems = run.execute(req, tmp_path)
    assert problems == ["spectrum: exit code 2"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_values_but_not_counts_or_sizes(workload):
    a = workloads.build_pass(workload, 1, 0)
    b = workloads.build_pass(workload, 2, 0)
    assert [r.kind for r in a] == [r.kind for r in b]
    changed = False
    for ra, rb in zip(a, b):
        assert ra.params.keys() == rb.params.keys()
        for key in SIZE_KEYS & ra.params.keys():
            assert ra.params[key] == rb.params[key], (ra.kind, key)
        if ra.argv is None:
            assert ra.params["t"].shape == rb.params["t"].shape
        else:
            assert [t for t in ra.argv if t.startswith("--")] == \
                   [t for t in rb.argv if t.startswith("--")]
        changed |= any(not np.array_equal(ra.params[k], rb.params[k]) for k in ra.params)
    assert changed
    # same seed, same inputs
    again = workloads.build_pass(workload, 1, 0)
    assert [r.argv for r in again] == [r.argv for r in a]


def test_traced_calls_give_layer_metrics_and_uninstall_restores(tmp_path):
    original = arslab.spectral.lowest_eigenpairs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert arslab.spectral.lowest_eigenpairs is not original
        assert arslab.martinet.lowest_eigenpairs is arslab.spectral.lowest_eigenpairs
        for argv in (["spectrum", "--n", "64", "--k-max", "1", "--m-per-mode", "2"],
                     ["evolve", "--equation", "schrodinger", "--eps", "0.1", "--n-x", "16",
                      "--n-y", "4", "--t-final", "0.01"],
                     ["geodesic", "--variant", "f2", "--log-scale", "gaussian-bump(0.3,0.7)",
                      "--t-final", "0.01"]):
            assert arslab.cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert arslab.spectral.lowest_eigenpairs is original
    assert tracer.absent == []
    metrics = tracing.layer_metrics(tracer, passes=1)
    assert set(metrics) <= set(tracing.PER_LAYER)
    assert metrics["tridiag.calls"] == 2
    assert metrics["tridiag.rows"] == 128
    assert metrics["tridiag.sturm_sweeps"] > 0
    assert metrics["evolution.schrodinger_steps"] == 10
    assert metrics["evolution.schrodinger_factor_s"] > 0
    assert metrics["geodesics.rays"] == 1
    assert metrics["geodesics.rk4_steps"] == 100
    # 28 evaluator calls per RK4 step, plus f_squared -> f for the energy check
    assert metrics["frames.eval_calls"] == 28 * 100 + 2
    assert metrics["cli.self_s"] > 0


def test_a_layer_that_no_longer_exists_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("ghost", "arslab.ghost", ()),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ghost"]
