"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import json
import math
import time

import numpy as np
import pytest

from cutpoisson import LevelSetDomain, build_rules, classify, clement_interpolate
from cutpoisson.assembly import assemble_ghost_penalty, cutoff_flux_neumann, energy_gram
from cutpoisson.cli import run as cli_run
from cutpoisson.geometry import log_model_integral
from cutpoisson.mesh import build_background
from cutpoisson.study import (
    condition_sweep,
    consistency_residual,
    discretize,
    interpolation_study,
    manufactured_singular,
    manufactured_smooth,
    regularization_coupling,
    regularization_study,
    run_convergence,
    verify_cutoff_lemma,
)
from tests.conftest import packed_boundary_rule, packed_volume_rule

BOX = (-1.0, -1.0, 1.0, 1.0)
LEVELS = [8, 16, 32, 64]


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_smooth_dirichlet_convergence():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, 2.0 * math.pi),))
    problem = manufactured_smooth(domain)
    t0 = time.perf_counter()
    report = run_convergence(problem, LEVELS, beta=10.0, sigma=0.1, box=BOX)
    elapsed = time.perf_counter() - t0
    last_two = report.eoc_energy[-2:]
    ok = all(0.85 <= e <= 1.15 for e in last_two) and elapsed < 60.0
    _report(
        1,
        ok,
        f"smooth Dirichlet energy EOC {['%.3f' % e for e in last_two]} in [0.85, 1.15], "
        f"runtime {elapsed:.1f} s < 60 s",
    )


def test_criterion_2_singular_mixed_convergence():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
    problem = manufactured_singular(domain, 0)
    report = run_convergence(problem, LEVELS, beta=10.0, sigma=0.1, box=BOX)
    eocs_ok = all(0.35 <= e <= 0.70 for e in report.eoc_energy)
    hs = [lvl.h for lvl in report.levels]
    sh_slope = float(np.polyfit(np.log(hs), np.log([lvl.sh for lvl in report.levels]), 1)[0])
    ok = eocs_ok and sh_slope >= 0.3
    _report(
        2,
        ok,
        f"singular mixed energy EOC {['%.3f' % e for e in report.eoc_energy]} in "
        f"[0.35, 0.70], stabilizer slope {sh_slope:.3f} >= 0.3",
    )


def test_criterion_3_cutoff_lemma():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
    report = verify_cutoff_lemma(domain, [10.0, 100.0, 1000.0])
    model_ok = report.model_error < 1e-10
    ok = report.quotient_spread < 3.0 and model_ok
    _report(
        3,
        ok,
        f"cutoff quotient spread {report.quotient_spread:.2f} < 3, "
        f"1-d model integral error {report.model_error:.2e} < 1e-10",
    )


def test_criterion_4_form_error_linear_in_epsilon():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
    dofmap, params = discretize(domain, 16)
    mesh = dofmap.mesh
    gram = energy_gram(dofmap, assemble_ghost_penalty(dofmap, params))
    rng = np.random.default_rng(20260810)
    h = mesh.h
    eps_values = [0.1 * h * h, 0.2 * h * h, 0.4 * h * h]
    gaps = []
    for eps in eps_values:
        D = cutoff_flux_neumann(dofmap, params.with_epsilon(eps))
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(dofmap.ndof)
            worst = max(worst, abs(x @ (D @ x)) / (x @ (gram @ x)))
        gaps.append(worst)
    slope = float(np.polyfit(np.log(eps_values), np.log(gaps), 1)[0])
    ok = 0.8 <= slope <= 1.2
    _report(4, ok, f"operator gap vs epsilon log-log slope {slope:.3f} in [0.8, 1.2]")


def test_criterion_5_regularization_gap_coupling():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
    problem = manufactured_smooth(domain)
    coupling = regularization_coupling(problem, LEVELS, coeff=0.1, box=BOX)
    per_halving = float(np.exp(np.mean(np.log(coupling.ratios))))
    reproduce = regularization_study(problem, 16, [0.0], box=BOX)
    ok = 0.3 <= per_halving <= 0.8 and reproduce.gaps[0] <= 1e-8
    _report(
        5,
        ok,
        f"gap ratio per h-halving {per_halving:.3f} in [0.3, 0.8] "
        f"(pairwise {['%.3f' % r for r in coupling.ratios]}), zero-epsilon gap "
        f"{reproduce.gaps[0]:.2e} <= 1e-8",
    )


def test_criterion_6_coercivity_and_conditioning():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, 2.0 * math.pi),))
    report = condition_sweep(domain, n=16, n_shifts=20, beta=10.0, sigma=0.1, box=BOX)
    lam_min = min(r.lambda_min_energy for r in report.rows)
    ok = lam_min >= 0.1 and report.kappa_spread <= 10.0 and report.worst_blowup >= 100.0
    _report(
        6,
        ok,
        f"energy-metric eigenvalue min {lam_min:.3f} >= 0.1, stabilized kappa spread "
        f"{report.kappa_spread:.2f} <= 10, unstabilized blow-up {report.worst_blowup:.0f}x >= 100x",
    )


def test_criterion_7_consistency_residual():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
    problem = manufactured_smooth(domain)
    residual = consistency_residual(problem, n=32, box=BOX)
    ok = residual <= 1e-8
    _report(7, ok, f"scaled consistency residual {residual:.2e} <= 1e-8")


def test_criterion_8_quadrature_exactness():
    domain = LevelSetDomain((0.0, 0.0), 1.0, ((0.0, 2.0 * math.pi),))
    mesh = build_background((-1.3, -1.3, 1.3, 1.3), 8)
    topo = classify(mesh, domain)
    rules = build_rules(topo, tol=1e-10)
    area = packed_volume_rule(rules).weights.sum()
    r = packed_boundary_rule(rules)
    perimeter = r.weights.sum()
    flux = float(r.weights @ (r.points * r.normals).sum(axis=1))
    area_err = abs(area - math.pi) / math.pi
    perim_err = abs(perimeter - 2.0 * math.pi) / (2.0 * math.pi)
    div_err = abs(2.0 * area - flux)
    ok = area_err <= 1e-8 and perim_err <= 1e-8 and div_err <= 1e-9
    _report(
        8,
        ok,
        f"area error {area_err:.2e} <= 1e-8, perimeter error {perim_err:.2e} <= 1e-8, "
        f"divergence identity {div_err:.2e} <= 1e-9",
    )


def test_criterion_9_interpolation():
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
    dofmap, params = discretize(domain, 16)
    mesh = dofmap.mesh
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(10):
        a, bx, by = rng.standard_normal(3)

        def affine(p, a=a, bx=bx, by=by):
            p = np.asarray(p)
            return a + bx * p[..., 0] + by * p[..., 1]

        interp = clement_interpolate(affine, dofmap)
        exact = affine(mesh.vertex_coords(dofmap.dof_to_vertex))
        worst = max(worst, float(np.abs(interp.coefficients - exact).max()))
    problem = manufactured_singular(domain, 0)
    report = interpolation_study(problem, LEVELS, box=BOX)
    totals = [lvl.energy + lvl.sh for lvl in report.levels]
    hs = [lvl.h for lvl in report.levels]
    slope = float(np.polyfit(np.log(hs), np.log(totals), 1)[0])
    ok = worst <= 1e-12 and slope >= 0.4
    _report(
        9,
        ok,
        f"affine reproduction error {worst:.2e} <= 1e-12, singular interpolation "
        f"energy slope {slope:.3f} >= 0.4",
    )


def test_criterion_10_determinism(tmp_path):
    config = {
        "geometry": {"center": [0.0, 0.0], "radius": 0.7, "dirichlet_arcs": [[0.0, 2.0 * math.pi]]},
        "mesh": {"levels": [8, 16]},
        "problem": {"kind": "smooth"},
        "study": {"kind": "convergence"},
        "quadrature_tol": 1e-10,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_run(str(path), out_dir=str(tmp_path / "a"), quiet=True) == 0
    assert cli_run(str(path), out_dir=str(tmp_path / "b"), quiet=True) == 0
    a = (tmp_path / "a" / "convergence.csv").read_bytes()
    b = (tmp_path / "b" / "convergence.csv").read_bytes()
    ok = a == b
    _report(10, ok, f"repeated runs byte-identical ({len(a)} bytes)")
