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
from cutpoisson.geometry import COLLAR, LevelSetDomain
from cutpoisson.mesh import build_background, cell_diagonal
from cutpoisson.quadrature import MIN_TOL
from cutpoisson import study as study_mod


class ConfigError(ValueError):
    pass


def _real(low, strict):
    """A finite number, never a bool, above ``low`` if ``strict`` and else at least ``low``."""
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"

    def check(v):  # abs(v) <= max rejects NaN, the infinities and an int too large for a float
        ok = type(v) in (int, float) and abs(v) <= sys.float_info.max
        return float(v) if ok and (v > low if strict else v >= low) else None

    return f"a finite number{bound}", check


def _int(low):
    """An integer, never a bool, of at least ``low``."""
    return f"an integer >= {low}", lambda v: v if type(v) is int and v >= low else None


def _list(item, length):
    """A list of ``length`` items, or a non-empty one if ``length`` is None, each one ``item``."""
    text, convert = item

    def check(v):
        if isinstance(v, list) and (len(v) == length if length else v):
            items = [convert(x) for x in v]
            return None if None in items else items

    return f"{'a non-empty list' if length is None else f'a list of {length}'}, each {text}", check


def _one_of(*names):
    return f"one of {', '.join(map(repr, names))}", lambda v: v if v in names else None


_STUDY_KINDS = ("convergence", "regularization", "inequalities", "cutoff_lemma", "condition_sweep")
_POSITIVE = _real(0.0, strict=True)
_FINITE = _real(-math.inf, strict=True)
_ARCS = ("a list of [start, end] pairs", lambda v: v if isinstance(v, list) else None)
_TEXT = ("a non-empty string", lambda v: v if v and isinstance(v, str) else None)
# Each field of a config: its default (None: it has none) and its check, a description and a
# function that returns the typed value, or None when the value does not pass.  The domain
# checks each of the arcs.
_FIELDS = {
    "geometry.center": ([0.0, 0.0], _list(_FINITE, 2)),
    "geometry.radius": (0.7, _POSITIVE),
    "geometry.dirichlet_arcs": ([[0.0, 2.0 * math.pi]], _ARCS),
    "mesh.box": ([-1.0, -1.0, 1.0, 1.0], _list(_FINITE, 4)),
    "mesh.levels": ([8, 16, 32, 64], _list(_int(1), None)),
    "mesh.shift_sweep_count": (20, _int(1)),
    "params.beta": (10.0, _POSITIVE),
    "params.sigma": (0.1, _POSITIVE),
    "params.epsilon_rule.kind": ("c_h2", _one_of("c_h2", "fixed")),
    "params.epsilon_rule.c": (0.1, _POSITIVE),
    "params.epsilon_rule.value": (None, _POSITIVE),
    "problem.kind": ("smooth", _one_of("smooth", "singular")),
    "problem.junction_index": (0, _int(0)),
    "study.kind": ("convergence", _one_of(*_STUDY_KINDS)),
    "study.ratios": ([10.0, 100.0, 1000.0], _list(_POSITIVE, None)),
    "output": ("results", _TEXT),
    "quadrature_tol": (1e-10, _real(MIN_TOL, strict=False)),
}
_SINGLE_LEVEL_KINDS = {"regularization", "inequalities", "condition_sweep"}
_DIRICHLET_KINDS = {"convergence", "regularization", "condition_sweep"}


def _walk(raw, path):
    """The object ``raw`` at ``path`` checked against ``_FIELDS``, typed, defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path[:-1] or 'config root'} must be an object, got {raw!r}")
    names = dict.fromkeys(f[len(path) :].split(".")[0] for f in _FIELDS if f.startswith(path))
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"unknown field '{path}{unknown[0]}'")
    cfg = {}
    for name in names:
        field = path + name
        if field not in _FIELDS:
            cfg[name] = _walk(raw.get(name, {}), field + ".")
        elif name in raw or _FIELDS[field][0] is not None:
            default, (text, check) = _FIELDS[field]
            cfg[name] = check(raw.get(name, default))
            if cfg[name] is None:
                raise ConfigError(f"{field} must be {text}, got {raw[name]!r}")
    return cfg


def load_config(path):
    """Parse a config file and check each field, then the fields together; raises ConfigError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _walk(raw, "")
    kind, levels = cfg["study"]["kind"], cfg["mesh"]["levels"]
    if kind in _SINGLE_LEVEL_KINDS and len(levels) > 1:
        raise ConfigError(
            f"study.kind {kind!r} runs on one mesh level, but mesh.levels is {levels!r} "
            "(the default when omitted); give a single level"
        )
    if kind == "convergence" and len(levels) < 2:
        raise ConfigError(
            f"study.kind 'convergence' compares mesh levels, but mesh.levels is {levels!r}; "
            "give at least two levels"
        )
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"mesh.levels must be strictly increasing, got {levels!r}")
    rule = cfg["params"]["epsilon_rule"]
    if rule["kind"] == "fixed" and "value" not in rule:
        raise ConfigError("params.epsilon_rule.value is required by the 'fixed' rule")
    box = cfg["mesh"]["box"]
    x0, y0, x1, y1 = box
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
    try:
        domain = build_domain(cfg)
    except ValueError as exc:
        raise ConfigError(f"geometry.dirichlet_arcs: {exc}") from exc
    if kind != "cutoff_lemma":  # every other kind builds a mesh on each level
        count = cfg["mesh"]["shift_sweep_count"] if kind == "condition_sweep" else 1  # 1: none
        shifts = study_mod.sweep_shifts(box, levels[0], count)
        try:
            study_mod.check_levels(domain, box, levels, shifts)
        except ValueError as exc:
            fields = "geometry.center, geometry.radius, mesh.box and mesh.levels"
            raise ConfigError(f"{fields}: {exc}") from exc
    if kind in _DIRICHLET_KINDS and domain.is_pure_neumann:  # Neumann data fix u up to a constant
        raise ConfigError(f"geometry.dirichlet_arcs is empty; study.kind {kind!r} needs an arc")
    try:
        build_problem(cfg, domain)
    except ValueError as exc:
        raise ConfigError(f"problem.junction_index on geometry.dirichlet_arcs: {exc}") from exc
    return cfg


def build_domain(cfg):
    g = cfg["geometry"]
    return LevelSetDomain(tuple(g["center"]), g["radius"], g["dirichlet_arcs"])


def build_problem(cfg, domain):
    if cfg["problem"]["kind"] == "smooth":
        return study_mod.manufactured_smooth(domain)
    return study_mod.manufactured_singular(domain, cfg["problem"]["junction_index"])


def _epsilon_values(cfg):
    """The regularization study's epsilons 0, e, 2e, 4e, with e = value or c h^2 on its level.

    4e must stay within the admissible ``COLLAR * R``; this is checked before any work.
    """
    rule = cfg["params"]["epsilon_rule"]
    h = cell_diagonal(cfg["mesh"]["box"], cfg["mesh"]["levels"][0])
    fixed = rule["kind"] == "fixed"
    field, scale, term = ("value", 1.0, "value") if fixed else ("c", h * h, "c * h^2")
    value = rule[field]
    base, limit = value * scale, COLLAR * cfg["geometry"]["radius"]
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


def _run_study(cfg):
    """Execute the configured study; returns (csv_name, header, rows, summary)."""
    domain = build_domain(cfg)
    kind = cfg["study"]["kind"]
    box = tuple(cfg["mesh"]["box"])
    levels = cfg["mesh"]["levels"]
    beta, sigma, tol = cfg["params"]["beta"], cfg["params"]["sigma"], cfg["quadrature_tol"]

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
        eps = _epsilon_values(cfg)
        report = study_mod.regularization_study(problem, levels[0], eps, beta, sigma, box, tol)
        header = ["eps", "gap"]
        rows = list(zip(report.eps_values, report.gaps))
        return "regularization.csv", header, rows, {"slope": report.slope}

    if kind == "inequalities":
        dofmap, params = study_mod.discretize(domain, levels[0], beta, sigma, box, tol)
        report = study_mod.verify_inequalities(dofmap, params)
        header = ["inequality", "max_constant"]
        rows = [
            ["full_gradient_vs_stabilized", report.full_gradient],
            ["boundary_flux_inverse", report.boundary_flux],
            ["cut_trace", report.cut_trace],
        ]
        return "inequalities.csv", header, rows, {}

    if kind == "cutoff_lemma":
        try:
            report = study_mod.verify_cutoff_lemma(domain, cfg["study"]["ratios"])
        except ValueError as exc:  # no junctions, or a wedge that laps into the next Neumann arc
            raise ConfigError(f"study.ratios on geometry.dirichlet_arcs: {exc}") from exc
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
    n, n_shifts = levels[0], cfg["mesh"]["shift_sweep_count"]
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
    except Exception as exc:  # a ValueError (ConfigError included) exits 2, any other failure 1
        config_fault = isinstance(exc, ValueError) and not isinstance(exc, np.linalg.LinAlgError)
        print(f"error: {'' if config_fault else 'study failed: '}{exc}", file=sys.stderr)
        return 2 if config_fault else 1
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    (out / csv_name).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
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
    args = parser.parse_args(argv)  # "run" is the one command, and a required one
    return run(args.config, args.out, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
