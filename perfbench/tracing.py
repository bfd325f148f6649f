"""Traced runs: per-layer self time and counts from wrapped public calls.

install() replaces every public function of each arslab layer module by
a wrapper that records a span (layer, name, start, end, parent) and
rebinds it wherever a module looked the function up by name, so calls
between layers (spectral -> tridiag, cli -> evolution, ...) are seen.
The frame evaluators and Generator.apply run tens of thousands of times
per request, so they only get a counter, no span.  Names that no longer
exist are skipped, and a layer with none left is reported absent.
uninstall() puts every original back.

Spans stay in memory; layer_metrics() turns them into the per-layer
metrics at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# layer, module, methods that get a count only
LAYERS = (
    ("cli", "arslab.cli", ()),
    ("frames", "arslab.frames",
     ("FrameSpec.f", "FrameSpec.f_squared", "FrameSpec.f_times_fx", "FrameSpec.f_times_fy")),
    ("geodesics", "arslab.geodesics", ()),
    ("tridiag", "arslab.tridiag", ()),
    ("spectral", "arslab.spectral", ()),
    ("martinet", "arslab.martinet", ()),
    ("evolution", "arslab.evolution", ("Generator.apply",)),
)

# counter each count-only method adds to
COUNTERS = {"frames": "frames.eval_calls", "evolution": "evolution.apply_calls"}

LAYER, NAME, START, END, PARENT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []     # [layer, name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.factor_spans = set()
        self.absent = []
        self.hook_errors = Counter()
        self._fresh_generators = set()
        self._patches = []

    # -- wrapping -------------------------------------------------------

    def install(self):
        wrapped = {}
        self.absent = []
        for layer, modname, counted in LAYERS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(layer)
                continue
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            before = len(wrapped)
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrapped[fn] = self._span_wrapper(layer, f"{layer}.{name}", fn)
            for path in counted:
                cls_name, attr = path.split(".")
                fn = getattr(getattr(mod, cls_name, None), attr, None)
                if inspect.isfunction(fn):
                    self._patch(getattr(mod, cls_name), attr,
                                self._count_wrapper(COUNTERS[layer], fn))
            if len(wrapped) == before:
                self.absent.append(layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "arslab" and not modname.startswith("arslab."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._patch(mod, attr, wrapped[val])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span_wrapper(self, layer, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if hook is not None:
                try:
                    hook(self, idx, args, result)
                except (AttributeError, TypeError, IndexError, ValueError) as exc:
                    self.hook_errors[f"{name}: {exc!r}"] += 1
            return result

        return wrapper

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def is_entry(self, idx):
        """True when span idx was called from outside its own layer."""
        parent = self.spans[idx][PARENT]
        return parent < 0 or self.spans[parent][LAYER] != self.spans[idx][LAYER]

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))


# -- hooks: measurements taken at the boundary of one wrapped call ---------


def _tridiag_solve(tr, idx, args, result):
    if tr.is_entry(idx):
        tr.counts["tridiag.rows"] += len(args[0])
    residuals = getattr(result, "residuals", None)
    if residuals is not None:
        tr.peak("tridiag.max_rel_residual", max(residuals) / result.operator_norm)


def _geodesic_flow(tr, idx, args, traj):
    tr.counts["geodesics.rk4_steps"] += traj.t.size - 1
    tr.peak("geodesics.max_energy_drift", traj.energy_drift)


def _assemble_generator(tr, idx, args, gen):
    tr._fresh_generators.add(id(gen))


def _step_heat(tr, idx, args, state):
    tr._fresh_generators.discard(id(args[0]))
    tr.counts["evolution.heat_cells"] += args[0].m.size


def _step_schrodinger(tr, idx, args, state):
    gen = args[0]
    if id(gen) in tr._fresh_generators:
        tr._fresh_generators.discard(id(gen))
        tr.factor_spans.add(idx)
    tr.counts["evolution.schrodinger_cells"] += gen.m.size
    before = gen.m_norm(args[1].u) ** 2
    tr.peak("evolution.max_mass_drift", abs(gen.m_norm(state.u) ** 2 - before) / before)


def _run_heat(tr, idx, args, result):
    gen = args[0]
    before = gen.total_mass(args[1].u)
    tr.peak("evolution.max_mass_drift", abs(gen.total_mass(result[0].u) - before) / abs(before))


HOOKS = {
    "tridiag.lowest_eigenpairs": _tridiag_solve,
    "tridiag.lowest_eigenvalues": _tridiag_solve,
    "geodesics.geodesic_flow": _geodesic_flow,
    "evolution.assemble_generator": _assemble_generator,
    "evolution.step_heat": _step_heat,
    "evolution.step_schrodinger": _step_schrodinger,
    "evolution.run_heat": _run_heat,
}


# -- metrics -----------------------------------------------------------------

# name -> unit; BENCHMARK.json lists the same names as per_layer metrics
PER_LAYER = {
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "frames.self_s": "s",
    "frames.eval_calls": "count",
    "frames.curve_length_s": "s",
    "geodesics.self_s": "s",
    "geodesics.flow_s": "s",
    "geodesics.rays": "count",
    "geodesics.rk4_steps": "count",
    "geodesics.rk4_steps_per_s": "1/s",
    "geodesics.max_energy_drift": "1",
    "tridiag.self_s": "s",
    "tridiag.solve_s": "s",
    "tridiag.calls": "count",
    "tridiag.rows": "count",
    "tridiag.sturm_sweeps": "count",
    "tridiag.max_rel_residual": "1",
    "spectral.self_s": "s",
    "spectral.assemble_s": "s",
    "spectral.deficiency_s": "s",
    "martinet.self_s": "s",
    "martinet.solves": "count",
    "evolution.self_s": "s",
    "evolution.assemble_s": "s",
    "evolution.heat_steps": "count",
    "evolution.heat_step_s": "s",
    "evolution.apply_per_heat_step": "count",
    "evolution.schrodinger_factor_s": "s",
    "evolution.schrodinger_step_s": "s",
    "evolution.schrodinger_steps": "count",
    "evolution.cell_steps_per_s": "1/s",
    "evolution.max_mass_drift": "1",
    "setup.scipy_import_s": "s",
    "setup.arslab_import_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, passes):
    """Per-layer metrics from the spans of `passes` traced passes.

    Times and counts are per pass; rates, ratios and maxima are not.
    Layers that did not run report 0.
    """
    spans = tr.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = Counter()
    for i, s in enumerate(spans):
        self_s[s[LAYER]] += s[END] - s[START] - child[i]

    def outermost(names):
        """Total time of spans in `names` not nested in another of them."""
        total, calls = 0.0, 0
        for s in spans:
            if s[NAME] in names and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME] in names):
                total += s[END] - s[START]
                calls += 1
        return total, calls

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    tri_entries = [i for i, s in enumerate(spans) if s[LAYER] == "tridiag" and tr.is_entry(i)]
    tri_s = sum(spans[i][END] - spans[i][START] for i in tri_entries)
    flow_s, rays = outermost({"geodesics.geodesic_flow"})
    heat_s, heat_steps = outermost({"evolution.step_heat"})
    schr = [i for i, s in enumerate(spans) if s[NAME] == "evolution.step_schrodinger"]
    factor_s = sum(spans[i][END] - spans[i][START] for i in schr if i in tr.factor_spans)
    schr_s = sum(spans[i][END] - spans[i][START] for i in schr) - factor_s
    c = tr.counts
    total = {
        **{f"{layer}.self_s": self_s[layer] for layer, _, _ in LAYERS},
        "frames.eval_calls": c["frames.eval_calls"],
        "frames.curve_length_s": outermost({"frames.curve_length"})[0],
        "geodesics.flow_s": flow_s,
        "geodesics.rays": rays,
        "geodesics.rk4_steps": c["geodesics.rk4_steps"],
        "tridiag.solve_s": tri_s,
        "tridiag.calls": len(tri_entries),
        "tridiag.rows": c["tridiag.rows"],
        "tridiag.sturm_sweeps": calls("tridiag.count_below"),
        "spectral.assemble_s": outermost({"spectral.assemble_mode_operator",
                                          "spectral.assemble_staggered"})[0],
        "spectral.deficiency_s": outermost({"spectral.deficiency_index_numeric"})[0],
        "martinet.solves": calls("martinet.martinet_mode_solve"),
        "evolution.assemble_s": outermost({"evolution.assemble_generator"})[0],
        "evolution.heat_steps": heat_steps,
        "evolution.heat_step_s": heat_s,
        "evolution.schrodinger_factor_s": factor_s,
        "evolution.schrodinger_step_s": schr_s,
        "evolution.schrodinger_steps": len(schr),
    }
    out = {name: value / passes for name, value in total.items()}
    out.update({
        "geodesics.rk4_steps_per_s": _ratio(c["geodesics.rk4_steps"], flow_s),
        "geodesics.max_energy_drift": float(tr.maxima["geodesics.max_energy_drift"]),
        "tridiag.max_rel_residual": float(tr.maxima["tridiag.max_rel_residual"]),
        "evolution.apply_per_heat_step": _ratio(c["evolution.apply_calls"], heat_steps),
        "evolution.cell_steps_per_s": _ratio(
            c["evolution.heat_cells"] + c["evolution.schrodinger_cells"],
            heat_s + schr_s + factor_s),
        "evolution.max_mass_drift": float(tr.maxima["evolution.max_mass_drift"]),
    })
    return out
