"""arslab benchmark: CLI subcommands end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload modes --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Drives arslab in-process from the checkout's src directory: arslab.cli.main
for each subcommand, and arslab.curve_length.  One process runs one
workload: passes over its request list, one request at a time (a closed
loop with one client), until --seconds is used up.  Every output is
checked (checks.py).  Human-readable lines start with "#"; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones (E2E below); with
--trace 1 passes alternate between untraced and traced and the metrics
are the per-layer ones (tracing.PER_LAYER).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread unless the caller says otherwise: on a small shared box,
# idle BLAS threads spinning beside the Python thread add noise, not speed.
# Set before numpy is imported; the values in force go into the provenance.
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS environment is fixed)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "kind1_s": "s",
    "kind2_s": "s",
    "kind3_s": "s",
}
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# Time of calibration() on a quiet core of the box the benchmark was tuned
# on (Xeon, 2 vCPUs); see speed().
CAL_REF_S = 0.02


def say(text):
    print(f"# {text}", flush=True)


def calibration():
    """Seconds for a fixed mix of interpreter-bound and small-array numpy work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += i * 0.5
    q, s = np.ones(8), np.linspace(0.0, 1.0, 8)
    for _ in range(2000):
        q = np.where(np.abs(q) < 1e-300, -1e-300, 2.0 - s - 1.0 / (q + 3.0))
    return time.perf_counter() - start


def speed(*calibrations):
    """Factor that turns seconds measured now into reference seconds.

    Other tenants share the cores of a small cloud box, and the same
    request can take 1.8 times as long for tens of seconds at a time.
    calibration() runs code like arslab's hot loops but none of arslab, so
    timing it next to a timed call measures how fast the box was then.
    Every reported time is multiplied by CAL_REF_S over the mean of the
    calibrations around it: a change to arslab moves the scaled time as
    much as the raw time, and a slow spell of the box moves neither.
    """
    calibrations = calibrations or (calibration(),)
    return CAL_REF_S * len(calibrations) / sum(calibrations)


# -- set-up and provenance ---------------------------------------------------


def _python(*args):
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {args[-1]}"
    return subprocess.run([sys.executable, *args[:-1], "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)


def measure_setup(samples):
    """Reference seconds to import arslab.cli in fresh interpreters, after a warm-up."""
    code = "import time; t = time.perf_counter(); import arslab.cli; print(time.perf_counter() - t)"
    _python(code)
    out = []
    for _ in range(samples):
        scale = speed()
        out.append(float(_python(code).stdout) * scale)
    return out


def import_breakdown():
    """Reference seconds spent in scipy's and arslab's own module code on import."""
    scale = speed()
    stderr = _python("-X", "importtime", "import arslab.cli").stderr
    total = {"scipy": 0, "arslab": 0}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in total:
            total[top] += int(fields[0])
    return total["scipy"] / 1e6 * scale, total["arslab"] / 1e6 * scale


def provenance():
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# -- requests ----------------------------------------------------------------


def execute(req, out):
    """Run one request; return (latency in s, problems with its output)."""
    import arslab
    import arslab.cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.perf_counter()
    try:
        if req.argv is None:
            p = req.params
            result = arslab.curve_length(arslab.FrameSpec.grushin(), p["t"], p["x"], p["y"])
        else:
            result = arslab.cli.main([*req.argv, "--out-dir", str(out)])
    except Exception as exc:  # a request that raises is a failure; the run goes on
        return time.perf_counter() - start, [f"{req.kind}: raised {exc!r}"]
    return time.perf_counter() - start, checks.check(req, out, result)


def artifact_bytes(out):
    return sum(p.stat().st_size for p in out.iterdir())


class Run:
    """Passes of one workload until the time budget is spent."""

    def __init__(self, workload, seed, seconds, trace, out):
        self.workload, self.seed, self.seconds, self.out = workload, seed, seconds, out
        self.tracer = tracing.Tracer() if trace else None
        # reference seconds (see speed()), and raw seconds for the record
        self.latency = {kind: [] for kind in workloads.SLOTS[workload]}
        self.raw = {kind: [] for kind in workloads.SLOTS[workload]}
        self.pass_s = {False: [], True: []}    # keyed by "traced"
        self.traced_scales = []
        self.attempted = self.failed = 0
        self.problems, self.regime_notes = [], []
        self.bytes_written = 0

    def go(self):
        deadline = time.perf_counter() + self.seconds
        min_passes = 2 if self.tracer else 1
        spent = []
        index = 0
        while True:
            began = time.perf_counter()
            self.one_pass(index, traced=bool(self.tracer) and index % 2 == 1)
            spent.append(time.perf_counter() - began)
            index += 1
            if index >= min_passes and time.perf_counter() + statistics.median(spent) > deadline:
                return index

    def one_pass(self, index, traced):
        total = 0.0
        if traced:
            self.tracer.install()
        try:
            before = calibration()
            for req in workloads.build_pass(self.workload, self.seed, index):
                elapsed, problems = execute(req, self.out)
                after = calibration()
                scale = speed(before, after)
                before = after
                total += elapsed * scale
                self.latency[req.kind].append(elapsed * scale)
                self.raw[req.kind].append(elapsed)
                if traced:
                    self.traced_scales.append(scale)
                self.attempted += 1
                self.failed += bool(problems)
                self.problems += problems
                if req.argv is not None:
                    self.bytes_written += artifact_bytes(self.out)
                if req.kind.startswith("heat") and not problems:
                    note = checks.regime_note(req, self.out)
                    if note:
                        self.regime_notes.append(note)
        finally:
            if traced:
                self.tracer.uninstall()
        self.pass_s[traced].append(total)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run, setup):
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(run.pass_s[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    for slot, kind in enumerate(workloads.SLOTS[run.workload], start=1):
        metrics[f"kind{slot}_s"] = _median(run.latency[kind])
    return metrics


def per_layer(run, passes):
    traced = len(run.pass_s[True])
    metrics = tracing.layer_metrics(run.tracer, traced)
    scale = statistics.median(run.traced_scales)
    for name, unit in tracing.PER_LAYER.items():
        if name in metrics and unit == "s":
            metrics[name] *= scale
        elif name in metrics and unit == "1/s":
            metrics[name] /= scale
    scipy_s, arslab_s = zip(*(import_breakdown() for _ in range(IMPORTTIME_SAMPLES)))
    metrics.update({
        "cli.artifact_bytes": run.bytes_written / passes,
        "setup.scipy_import_s": statistics.median(scipy_s),
        "setup.arslab_import_s": statistics.median(arslab_s),
        "trace.overhead_s": _median(run.pass_s[True]) - _median(run.pass_s[False]),
    })
    return {name: metrics[name] for name in tracing.PER_LAYER}


def report(run, passes, setup, metrics, units):
    say(f"{run.attempted} requests attempted, {run.failed} failed, over {passes} passes; "
        f"fail_frac = {run.failed / run.attempted!r}")
    for problem in run.problems[:20]:
        say(f"FAILED {problem}")
    for note in run.regime_notes:
        say(f"contradicts the paper: evolve {note}")
    if setup:
        say(f"setup_s samples: {[round(s, 4) for s in setup]}")
    for kind, values in run.latency.items():
        if values:
            say(f"{kind}_s = {_median(values)!r} s (median of {len(values)}, "
                f"min {min(values):.4f}, max {max(values):.4f}; "
                f"raw median {_median(run.raw[kind]):.4f} s)")
    heat = run.latency.get("heat_barrier", []) + run.latency.get("heat_crossing", [])
    if heat:
        say(f"evolve_heat_s = {_median(heat)!r} s (median of {len(heat)})")
    if run.tracer and run.tracer.absent:
        say(f"absent layers: {', '.join(run.tracer.absent)}")
    if run.tracer and run.tracer.hook_errors:
        say(f"trace hook errors: {dict(run.tracer.hook_errors)}")
    for name, value in metrics.items():
        say(f"{name} = {value!r} {units[name]}")


def run_one(args):
    if not (SRC / "arslab" / "cli.py").is_file():
        print(f"perfbench: no arslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    say(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    out = ROOT / ".perfbench_out" / str(os.getpid())
    run = Run(args.workload, args.seed, args.seconds, args.trace, out)
    try:
        passes = run.go()
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if args.trace:
        metrics, units = per_layer(run, passes), tracing.PER_LAYER
    else:
        metrics, units = end_to_end(run, setup), E2E
    report(run, passes, setup, metrics, units)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
