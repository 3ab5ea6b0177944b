"""Configuration-driven experiment runner emitting CSV artifacts.

One study per invocation: a JSON config file names the geometry, mesh levels,
method parameters, problem, and study kind; the runner writes a CSV result
table plus a manifest with the config echo, package versions, and wall times.
CSV output is deterministic: identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import cutpoisson
from cutpoisson.geometry import COLLAR, LevelSetDomain, box_gap, circle_meets_box_edge
from cutpoisson.mesh import build_background, cell_diagonal
from cutpoisson.quadrature import MIN_TOL
from cutpoisson import study as study_mod


class ConfigError(ValueError):
    pass


_SECTIONS = {
    "geometry": {"center", "radius", "dirichlet_arcs"},
    "mesh": {"box", "levels", "shift_sweep_count"},
    "params": {"beta", "sigma", "epsilon_rule"},
    "problem": {"kind", "junction_index"},
    "study": {"kind", "ratios"},
}
_TOP_LEVEL = set(_SECTIONS) | {"output", "quadrature_tol"}
_STUDY_KINDS = {
    "convergence",
    "regularization",
    "inequalities",
    "cutoff_lemma",
    "condition_sweep",
}
_SINGLE_LEVEL_KINDS = {"regularization", "inequalities", "condition_sweep"}
_LEMMA_RATIOS = [10.0, 100.0, 1000.0]  # the default ``study.ratios`` of ``cutoff_lemma``


def _check_keys(name, obj, allowed):
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{name}' must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown field '{name}.{unknown[0]}'")


def load_config(path):
    """Parse and validate a config file; raises ConfigError naming bad fields."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = sorted(set(raw) - _TOP_LEVEL)
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}'")
    for section, allowed in _SECTIONS.items():
        if section in raw:
            _check_keys(section, raw[section], allowed)

    cfg = {
        "geometry": {
            "center": [0.0, 0.0],
            "radius": 0.7,
            "dirichlet_arcs": [[0.0, 2.0 * math.pi]],
        },
        "mesh": {"box": [-1.0, -1.0, 1.0, 1.0], "levels": [8, 16, 32, 64], "shift_sweep_count": 20},
        "params": {
            "beta": 10.0,
            "sigma": 0.1,
            "epsilon_rule": {"kind": "c_h2", "c": 0.1},
        },
        "problem": {"kind": "smooth"},
        "study": {"kind": "convergence"},
        "output": "results",
        "quadrature_tol": 1e-10,
    }
    for section in _SECTIONS:
        cfg[section].update(raw.get(section, {}))
    for key in ("output", "quadrature_tol"):
        if key in raw:
            cfg[key] = raw[key]

    p = cfg["params"]
    beta, sigma = p["beta"], p["sigma"]
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0.0):
        raise ConfigError(f"params.beta must be positive and finite, got {beta}")
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma >= 0.0):
        raise ConfigError(f"params.sigma must be nonnegative and finite, got {sigma}")
    _check_keys("params.epsilon_rule", p["epsilon_rule"], {"kind", "c", "value"})
    if p["epsilon_rule"].get("kind") not in ("fixed", "c_h2"):
        raise ConfigError("params.epsilon_rule.kind must be 'fixed' or 'c_h2'")
    try:
        build_domain(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"geometry: {exc}") from exc
    if cfg["study"]["kind"] not in _STUDY_KINDS:
        raise ConfigError(
            f"study.kind must be one of {sorted(_STUDY_KINDS)}, got {cfg['study']['kind']!r}"
        )
    if cfg["problem"]["kind"] not in ("smooth", "singular"):
        raise ConfigError(
            "problem.kind must be 'smooth' or 'singular' (custom data requires the library API)"
        )
    ratios = cfg["study"].get("ratios", _LEMMA_RATIOS)
    if not (
        isinstance(ratios, list)
        and ratios
        and all(type(r) in (int, float) and 0.0 < r < math.inf for r in ratios)
    ):
        raise ConfigError(
            f"study.ratios must be a non-empty list of positive finite numbers, got {ratios!r}"
        )
    levels = cfg["mesh"]["levels"]
    if (
        not isinstance(levels, list)
        or not levels
        or any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in levels)
    ):
        raise ConfigError(f"mesh.levels must be a list of positive integers, got {levels!r}")
    kind = cfg["study"]["kind"]
    if kind in _SINGLE_LEVEL_KINDS and len(levels) > 1:
        raise ConfigError(
            f"study.kind {kind!r} runs on one mesh level, but mesh.levels is {levels!r} "
            "(the default when omitted); give a single level"
        )
    box = cfg["mesh"]["box"]
    if (
        not isinstance(box, list)
        or len(box) != 4
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in box)
    ):
        raise ConfigError(f"mesh.box must be a list of four numbers [x0, y0, x1, y1], got {box!r}")
    x0, y0, x1, y1 = (float(v) for v in box)
    if not (x1 > x0 and y1 > y0):
        raise ConfigError(f"mesh.box {box} must have x0 < x1 and y0 < y1")
    try:
        build_background(box, 1)  # every n gives the same shape verdict: all cells are alike
    except ValueError as exc:
        aspect = max(x1 - x0, y1 - y0) / min(x1 - x0, y1 - y0)
        raise ConfigError(
            f"mesh.box {box}: its cells have aspect ratio {aspect:.3g}, above the "
            f"shape-regular limit of about 4.3 ({exc})"
        ) from exc
    g = cfg["geometry"]
    if circle_meets_box_edge(g["center"], g["radius"], box):
        raise ConfigError(
            f"geometry: the boundary circle (center {g['center']}, radius {g['radius']}) meets "
            f"the edge of mesh.box {box}: the solve would cover a truncated domain"
        )
    if box_gap(g["center"], box) > g["radius"]:
        raise ConfigError(
            f"geometry: the disk (center {g['center']}, radius {g['radius']}) misses "
            f"mesh.box {box}: no cell meets the domain"
        )
    if not cfg["quadrature_tol"] >= MIN_TOL:
        raise ConfigError(
            f"quadrature_tol must be at least {MIN_TOL:g}, got {cfg['quadrature_tol']}"
        )
    return cfg


def build_domain(cfg):
    g = cfg["geometry"]
    return LevelSetDomain(
        tuple(g["center"]), g["radius"], tuple(tuple(a) for a in g["dirichlet_arcs"])
    )


def build_problem(cfg, domain):
    kind = cfg["problem"]["kind"]
    if kind == "smooth":
        return study_mod.manufactured_smooth(domain)
    return study_mod.manufactured_singular(domain, int(cfg["problem"].get("junction_index", 0)))


def _epsilon_values(cfg, domain, h):
    """The regularization study's epsilons 0, e, 2e, 4e, with e = value or c h^2.

    4e must stay within the admissible ``COLLAR * R``; this is checked before any work.
    """
    rule = cfg["params"]["epsilon_rule"]
    if rule["kind"] == "fixed":
        field, value, scale, term = "value", float(rule.get("value", 0.0)), 1.0, "value"
    else:
        field, value, scale, term = "c", float(rule.get("c", 0.1)), h * h, "c * h^2"
    if value <= 0.0:
        raise ConfigError(f"params.epsilon_rule.{field} must be positive for {rule['kind']!r}")
    base, limit = value * scale, COLLAR * domain.radius
    if not 4.0 * base <= limit:
        raise ConfigError(
            f"params.epsilon_rule.{field} {value!r}: the study's largest epsilon 4 * {term} = "
            f"{4.0 * base!r} exceeds the admissible {limit!r}; "
            f"the largest admissible value is {limit / 4.0 / scale!r}"
        )
    return [0.0, base, 2.0 * base, 4.0 * base]


def _fmt(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _run_study(cfg):
    """Execute the configured study; returns (csv_name, header, rows, summary)."""
    domain = build_domain(cfg)
    kind = cfg["study"]["kind"]
    box = tuple(cfg["mesh"]["box"])
    levels = [int(n) for n in cfg["mesh"]["levels"]]
    beta = float(cfg["params"]["beta"])
    sigma = float(cfg["params"]["sigma"])
    tol = float(cfg["quadrature_tol"])

    if kind == "convergence":
        problem = build_problem(cfg, domain)
        report = study_mod.run_convergence(problem, levels, beta, sigma, box, tol)
        header = ["level", "h", "ndof", "energy_err", "sh_norm", "l2_err", "eoc_energy"]
        rows = []
        for i, L in enumerate(report.levels):
            eoc = None if i == 0 else report.eoc_energy[i - 1]
            rows.append([L.n, L.h, L.ndof, L.energy, L.sh, L.l2, eoc])
        summary = {"eoc_energy": report.eoc_energy, "eoc_l2": report.eoc_l2}
        return "convergence.csv", header, rows, summary

    if kind == "regularization":
        problem = build_problem(cfg, domain)
        n = levels[0]
        eps_values = _epsilon_values(cfg, domain, cell_diagonal(box, n))
        report = study_mod.regularization_study(problem, n, eps_values, beta, sigma, box, tol)
        header = ["eps", "gap"]
        rows = list(zip(report.eps_values, report.gaps))
        return "regularization.csv", header, rows, {"slope": report.slope}

    if kind == "inequalities":
        dofmap, params, rules = study_mod.discretize(domain, levels[0], beta, sigma, box, tol)
        report = study_mod.verify_inequalities(dofmap, rules, params)
        header = ["inequality", "max_constant"]
        rows = [
            ["full_gradient_vs_stabilized", report.full_gradient],
            ["boundary_flux_inverse", report.boundary_flux],
            ["cut_trace", report.cut_trace],
        ]
        return "inequalities.csv", header, rows, {}

    if kind == "cutoff_lemma":
        ratios = [float(r) for r in cfg["study"].get("ratios", _LEMMA_RATIOS)]
        report = study_mod.verify_cutoff_lemma(domain, ratios)
        header = ["ratio", "delta", "epsilon", "integral", "log_bound", "quotient"]
        rows = [
            [r.ratio, r.delta, r.epsilon, r.integral, r.log_bound, r.quotient]
            for r in report.rows
        ]
        summary = {
            "quotient_spread": report.quotient_spread,
            "flagged": report.flagged,
            "model_error": report.model_error,
        }
        return "cutoff_lemma.csv", header, rows, summary

    # condition_sweep
    n = levels[0]
    n_shifts = int(cfg["mesh"]["shift_sweep_count"])
    report = study_mod.condition_sweep(domain, n, n_shifts, beta, sigma, box, tol)
    header = [
        "shift_index",
        "shift_x",
        "shift_y",
        "lambda_min_energy",
        "kappa_stabilized",
        "kappa_unstabilized",
    ]
    rows = [
        [i, r.shift[0], r.shift[1], r.lambda_min_energy, r.kappa_stabilized, r.kappa_unstabilized]
        for i, r in enumerate(report.rows)
    ]
    summary = {"kappa_spread": report.kappa_spread, "worst_blowup": report.worst_blowup}
    return "condition_sweep.csv", header, rows, summary


def run(config_path, out_dir=None, quiet=False):
    """Execute one configured study and write its artifacts; returns an exit code."""
    t_start = time.perf_counter()
    try:
        cfg = load_config(config_path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir if out_dir is not None else cfg["output"])
    try:
        csv_name, header, rows, summary = _run_study(cfg)
        out.mkdir(parents=True, exist_ok=True)  # only now, so a failed study leaves no directory
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure (solver, quadrature, output): exit 1
        print(f"error: study failed: {exc}", file=sys.stderr)
        return 1
    _write_csv(out / csv_name, header, rows)
    elapsed = time.perf_counter() - t_start

    manifest = [
        "cutpoisson run manifest",
        f"config file: {config_path}",
        "config:",
        json.dumps(cfg, indent=2, sort_keys=True),
        f"study: {cfg['study']['kind']}",
        f"summary: {json.dumps(summary, sort_keys=True, default=str)}",
        f"versions: cutpoisson {cutpoisson.__version__}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, python {platform.python_version()}",
        f"wall time: {elapsed:.3f} s",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    if not quiet:
        print(f"wrote {out / csv_name} and {out / 'manifest.txt'} ({elapsed:.1f} s)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cutpoisson", description="Cut finite element experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the study described by a config file")
    run_p.add_argument("config", help="path to the JSON config file")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.quiet)
    return 2


if __name__ == "__main__":
    sys.exit(main())
