"""Tracing from outside the program: spans and counters around cutpoisson's public functions.

``Instrumentation`` replaces module attributes of the ``cutpoisson`` modules
with wrappers while it is active and restores them on exit; the program's
source is not touched.  A function is wrapped under every name that binds it
in any ``cutpoisson`` module, because the modules import each other's
functions by name.

Spans are kept in memory as ``[name, start, end, parent]`` rows and written
out when the run ends.  The hot per-element helpers get counters only, since a
span per call would cost a sizeable share of the run.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Functions recorded as spans, by module.
SPANNED = {
    "mesh": ("build_background", "classify"),
    "space": ("build_dofmap",),
    "quadrature": ("build_rules", "cut_volume_rule", "cut_boundary_rule", "refine_rule_toward"),
    "assembly": (
        "assemble_stiffness",
        "assemble_boundary_mass",
        "assemble_nitsche",
        "assemble_ghost_penalty",
        "assemble_load",
        "cutoff_flux_neumann",
        "energy_gram",
        "error_norms",
    ),
    "solve": ("solve_standard", "solve_regularized", "condition_estimate"),
    "study": (
        "validate_problem",
        "convergence_level",
        "run_convergence",
        "condition_sweep",
        "regularization_study",
    ),
}

# Counted helpers: (defining module, function, module whose binding is wrapped
# or None for every binding, whether to time the calls and count their points).
COUNTED = (
    ("space", "hat_gradients", None, False),
    # counted where quadrature calls it, so that divided by the cut volume
    # rule calls it gives subdivisions per useful rule
    ("geometry", "signed_distance", "quadrature", False),
    ("geometry", "cutoff", None, True),
)

SOLVERS = ("solve_standard", "solve_regularized")

# Per-layer metrics with their units, in the order they are reported.
TIMED = [f"{m}.{f}.s" for m, fs in SPANNED.items() if m != "study" for f in fs]
LAYER_METRICS = {
    "mesh.build_background.s": "s",
    "mesh.classify.s": "s",
    "mesh.active_cells": "count",
    "mesh.cut_cells": "count",
    "mesh.ghost_faces": "count",
    "space.build_dofmap.s": "s",
    "space.ndof": "count",
    "space.hat_gradients.calls": "count",
    "quadrature.build_rules.s": "s",
    "quadrature.cut_volume_rule.s": "s",
    "quadrature.cut_volume_rule.calls": "count",
    "quadrature.cut_boundary_rule.s": "s",
    "quadrature.cut_boundary_rule.calls": "count",
    "quadrature.refine_rule_toward.s": "s",
    "quadrature.refine_rule_toward.calls": "count",
    "quadrature.volume_points": "count",
    "quadrature.boundary_points": "count",
    "geometry.signed_distance.calls": "count",
    "geometry.cutoff.s": "s",
    "geometry.cutoff.points": "count",
    "assembly.assemble_stiffness.s": "s",
    "assembly.assemble_boundary_mass.s": "s",
    "assembly.assemble_nitsche.s": "s",
    "assembly.assemble_ghost_penalty.s": "s",
    "assembly.assemble_load.s": "s",
    "assembly.cutoff_flux_neumann.s": "s",
    "assembly.energy_gram.s": "s",
    "assembly.error_norms.s": "s",
    "assembly.nnz": "count",
    "solve.solve_standard.s": "s",
    "solve.solve_regularized.s": "s",
    "solve.condition_estimate.s": "s",
    "solve.method.splu": "count",
    "solve.method.cg": "count",
    "solve.residual_max": "norm",
    "study.self_s": "s",
    "study.validate_problem.s": "s",
    "trace.overhead_frac": "ratio",
}

LEVEL_SPAN = "study.convergence_level"
# Columns of the ROADMAP baseline table, from the inclusive times of the spans
# under one convergence level.
PHASES = (
    ("mesh", "mesh.build_background"),
    ("classify", "mesh.classify"),
    ("rules", "quadrature.build_rules"),
    ("A", "assembly.assemble_nitsche"),
    ("S", "assembly.assemble_ghost_penalty"),
    ("load", "assembly.assemble_load"),
    ("solve", "solve.solve_standard"),
    ("errors", "assembly.error_norms"),
)


class Recorder:
    """Spans, counters and per-span values of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.notes = []  # (span index, key, value)

    def span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                for key, value in observe(result, args):
                    self.notes.append((index, key, value))
            return result

        return wrapper

    def counter(self, name, fn, timed):
        counts, clock = self.counts, self.clock
        calls = name + ".calls"
        if not timed:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return wrapper

        def timed_wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[calls] += 1
                counts[name + ".s"] += clock() - start
                counts[name + ".points"] += _point_count(args[-1])

        return timed_wrapper

    def dump(self, path):
        """Write the spans, counters and values as JSON, with times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts), "notes": self.notes}, fh)


def _point_count(x):
    """Number of points in an array of shape (..., 2)."""
    return math.prod(np.shape(x)[:-1])


def _observe_classify(topo, args):
    return [
        ("mesh.active_cells", len(topo.active)),
        ("mesh.cut_cells", len(topo.cut)),
        ("mesh.ghost_faces", len(topo.ghost_faces)),
    ]


def _observe_rules(rules, args):
    # RuleSet keeps one rule per element in dicts; another layout reports no sizes
    volume, boundary = getattr(rules, "volume", None), getattr(rules, "boundary", None)
    if not (isinstance(volume, dict) and isinstance(boundary, dict)):
        return []
    return [
        ("quadrature.volume_points", sum(len(r) for r in volume.values())),
        ("quadrature.boundary_points", sum(len(d) + len(n) for d, n in boundary.values())),
    ]


def _observe_solve(report, args):
    load_norm = float(np.linalg.norm(args[0].b))
    return [("solve.report", (report.method, float(report.residual), load_norm))]


OBSERVERS = {
    "build_background": lambda mesh, args: [("mesh.n", math.isqrt(mesh.n_triangles // 2))],
    "classify": _observe_classify,
    "build_dofmap": lambda dofmap, args: [("space.ndof", dofmap.ndof)],
    "build_rules": _observe_rules,
    "assemble_nitsche": lambda A, args: [("assembly.nnz", A.nnz)],
    "solve_standard": _observe_solve,
    "solve_regularized": _observe_solve,
}


class Instrumentation:
    """Context manager that installs wrappers on cutpoisson's module attributes.

    ``full=True`` installs every span and counter; ``full=False`` only
    observes the solver reports, which the output checks need, and is what
    the untraced runs use.
    """

    def __init__(self, recorder, full=True):
        self.recorder = recorder
        self.full = full
        self.saved = []

    def _bind(self, original, wrapper, only=None):
        names = [only] if only else [m for m in sys.modules if m.split(".")[0] == "cutpoisson"]
        for module in [sys.modules[name] for name in names]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        rec = self.recorder
        modules = {m: importlib.import_module(f"cutpoisson.{m}") for m in ("geometry", *SPANNED)}
        try:
            for modname, fns in SPANNED.items() if self.full else [("solve", SOLVERS)]:
                for fn in fns:
                    original = getattr(modules[modname], fn)
                    self._bind(original, rec.span(f"{modname}.{fn}", original, OBSERVERS.get(fn)))
            for modname, fn, only, timed in COUNTED if self.full else ():
                original = getattr(modules[modname], fn)
                wrapper = rec.counter(f"{modname}.{fn}", original, timed)
                self._bind(original, wrapper, only and f"cutpoisson.{only}")
        except BaseException:
            self.__exit__()
            raise
        return rec

    def __exit__(self, *exc):
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()
        return False


def solve_records(recorder):
    """(method, residual, load norm) of every observed solve, in call order."""
    return [value for _, key, value in recorder.notes if key == "solve.report"]


def self_times(spans):
    """Each span's duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], cursor), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(recorder):
    """Per-layer metrics of one traced run, except the overhead, which needs an untraced run."""
    spans = recorder.spans
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    for (name, *_), t in zip(spans, selfs):
        self_by_name[name] += t
        calls_by_name[name] += 1
    metrics = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_frac"}
    for key in TIMED:
        metrics[key] = self_by_name[key[: -len(".s")]]
    metrics["study.self_s"] = sum(
        t for name, t in self_by_name.items() if name.startswith("study.") and name != "study.validate_problem"
    )
    metrics["study.validate_problem.s"] = self_by_name["study.validate_problem"]
    for fn in ("cut_volume_rule", "cut_boundary_rule", "refine_rule_toward"):
        metrics[f"quadrature.{fn}.calls"] = calls_by_name[f"quadrature.{fn}"]
    for key, value in recorder.counts.items():
        if key in metrics:
            metrics[key] = value
    for _, key, value in recorder.notes:
        if key == "solve.report":
            method, residual, _ = value
            metrics[f"solve.method.{method}"] = metrics.get(f"solve.method.{method}", 0) + 1
            metrics["solve.residual_max"] = max(metrics["solve.residual_max"], residual)
        elif key in metrics:
            metrics[key] += value
    return metrics


def phase_rows(recorder):
    """One ROADMAP baseline-table row per convergence level in the trace."""
    spans = recorder.spans
    level_of = []  # index of the enclosing level span, or -1; parents precede children
    for name, _, _, parent in spans:
        if parent < 0:
            level_of.append(-1)
        else:
            level_of.append(parent if spans[parent][0] == LEVEL_SPAN else level_of[parent])
    rows = {
        i: {"total": end - start, **{phase: 0.0 for phase, _ in PHASES}}
        for i, (name, start, end, _) in enumerate(spans)
        if name == LEVEL_SPAN
    }
    phase_of = {key: phase for phase, key in PHASES}
    for i, (name, start, end, _) in enumerate(spans):
        if level_of[i] in rows and name in phase_of:
            rows[level_of[i]][phase_of[name]] += end - start
    for index, key, value in recorder.notes:
        row = rows.get(level_of[index])
        if row is None:
            continue
        if key in ("mesh.n", "space.ndof", "mesh.cut_cells"):
            row[key.split(".")[1]] = value
        elif key == "solve.report":
            row["method"] = value[0]
    return list(rows.values())


def format_phase_row(row):
    """A row in the layout of the ROADMAP baseline table."""
    cells = [str(row.get("n", "?")), str(row.get("ndof", "?")), str(row.get("cut_cells", "?"))]
    for phase, _ in PHASES:
        text = f"{row[phase]:.2f}"
        cells.append(f"{text} ({row.get('method', '?')})" if phase == "solve" else text)
    cells.append(f"{row['total']:.2f}")
    return "| " + " | ".join(cells) + " |"
