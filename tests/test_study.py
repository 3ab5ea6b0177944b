import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cutpoisson import LevelSetDomain, geometry, study
from cutpoisson.assembly import (
    SystemMatrices,
    assemble_regularized,
    assemble_system,
    energy_gram,
    energy_norm,
)
from cutpoisson.geometry import boundary_angle, is_dirichlet_angle
from cutpoisson.mesh import build_background, cell_diagonal, classify
from cutpoisson.quadrature import build_rules
from cutpoisson.solve import solve_regularized, solve_standard
from cutpoisson.space import build_dofmap
from cutpoisson.study import (
    DEFAULT_BOX,
    ManufacturedProblem,
    _dirichlet_cells,
    check_levels,
    condition_sweep,
    convergence_level,
    discretize,
    interpolation_study,
    manufactured_singular,
    manufactured_smooth,
    regularization_coupling,
    regularization_study,
    run_convergence,
    sweep_shifts,
    validate_problem,
    verify_cutoff_lemma,
    verify_inequalities,
)
from tests.conftest import cell_geometry, packed_boundary_rule, packed_volume_rule


def test_smooth_problem_reference_values(domain_mixed):
    problem = manufactured_smooth(domain_mixed)
    assert problem.f(np.zeros(2)) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(problem.u_and_grad(np.zeros(2))[1], [math.pi, 0.0], atol=1e-14)
    assert validate_problem(problem) < 1e-6


def test_singular_problem_structure(domain_mixed):
    problem = manufactured_singular(domain_mixed, 0)
    z0 = np.asarray(problem.singular_points[0])
    assert np.allclose(z0, [0.7, 0.0])
    assert problem.u(z0) == pytest.approx(0.0)
    # harmonic away from the singular point (checked by validate_problem)
    assert validate_problem(problem) < 1e-4
    # gradient blows up like r^{-1/2} along a fixed interior direction
    direction = np.array([-1.0, 0.3])
    direction /= np.linalg.norm(direction)
    scaled = []
    for t in (1e-2, 1e-3, 1e-4):
        g = problem.u_and_grad(z0 + t * direction)[1]
        scaled.append(np.linalg.norm(g) * math.sqrt(t))
    assert max(scaled) / min(scaled) < 1.01


def _polar_singular(domain, junction_index):
    """Oracle: sqrt(r) sin(theta / 2) through polar coordinates about the junction.

    Returns ``(z0, direction, polar, u, grad_u)``, with theta in [0, 2 pi)
    measured from the branch ray ``z0 + t * direction``.
    """
    z0 = np.asarray(domain.junction_points[junction_index], dtype=float)
    direction = (z0 - domain.center_array) / domain.radius
    theta0 = math.atan2(direction[1], direction[0])

    def polar(pts):
        d = np.asarray(pts, dtype=float) - z0
        r = np.linalg.norm(d, axis=-1)
        theta = np.mod(np.arctan2(d[..., 1], d[..., 0]) - theta0, 2.0 * math.pi)
        return d, r, theta

    def u(pts):
        _, r, theta = polar(pts)
        return np.sqrt(r) * np.sin(0.5 * theta)

    def grad_u(pts):
        d, r, theta = polar(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 0.5 / np.sqrt(r)
            e_r = d / r[..., None]
        e_t = np.stack([-e_r[..., 1], e_r[..., 0]], axis=-1)
        g = inv[..., None] * (
            np.sin(0.5 * theta)[..., None] * e_r + np.cos(0.5 * theta)[..., None] * e_t
        )
        return np.where(np.isfinite(g), g, 0.0)

    return z0, direction, polar, u, grad_u


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.21, -0.13)])
@pytest.mark.parametrize("radius", [0.7, 0.3])
@pytest.mark.parametrize("arcs", [((0.0, math.pi),), ((0.4, 2.5),), ((1.0, 4.0), (5.0, 6.0))])
def test_singular_solution_matches_polar_oracle(center, radius, arcs):
    domain = LevelSetDomain(center, radius, arcs)
    rng = np.random.default_rng(7)
    for k in range(len(domain.junction_points)):
        problem = manufactured_singular(domain, k)
        z0, direction, polar, u_ref, grad_ref = _polar_singular(domain, k)
        assert np.array_equal(problem.singular_points[0], z0)

        # off the branch ray: r log-uniform in [1e-14, 1], theta away from the ray
        r = 10.0 ** rng.uniform(-14.0, 0.0, 2000)
        phi = math.atan2(direction[1], direction[0]) + rng.uniform(1e-6, 2 * math.pi - 1e-6, 2000)
        pts = z0 + r[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
        _, r, theta = polar(pts)
        assert np.all((theta > 1e-7) & (theta < 2 * math.pi - 1e-7))
        assert np.all(np.abs(problem.u(pts) - u_ref(pts)) <= 2e-15 * np.sqrt(r))
        g, g_ref = problem.u_and_grad(pts)[1], grad_ref(pts)
        assert np.all(
            np.linalg.norm(g - g_ref, axis=-1) <= 4e-15 * np.linalg.norm(g_ref, axis=-1)
        )

        # on the ray itself, outside the closed domain: u = 0 up to rounding, finite gradient
        ray = z0 + (10.0 ** rng.uniform(-14.0, 0.0, 200))[:, None] * direction
        assert np.all(np.abs(problem.u(ray) - u_ref(ray)) <= 1e-15)
        assert np.all(np.isfinite(problem.u_and_grad(ray)[1]))

        # at the junction itself
        assert problem.u(z0) == 0.0
        assert np.array_equal(problem.u_and_grad(z0)[1], [0.0, 0.0])
        assert np.array_equal(problem.u_and_grad(z0[None])[1], [[0.0, 0.0]])


def test_smooth_u_and_grad_is_bitwise_its_closed_forms(domain_mixed):
    """Random points, a single point, a (3, 4, 2) block, the junction z0 and the branch ray."""
    problem = manufactured_smooth(domain_mixed)

    def closed_forms(pts):
        x, y = pts[..., 0], pts[..., 1]
        u = np.sin(math.pi * x) * np.cos(math.pi * y)
        gx = math.pi * np.cos(math.pi * x) * np.cos(math.pi * y)
        gy = -math.pi * np.sin(math.pi * x) * np.sin(math.pi * y)
        return u, np.stack([gx, gy], axis=-1)

    z0, direction, *_ = _polar_singular(domain_mixed, 0)
    rng = np.random.default_rng(11)
    ray = z0 + (10.0 ** rng.uniform(-14.0, 0.0, 50))[:, None] * direction
    for pts in (rng.uniform(-1.0, 1.0, (500, 2)), z0, z0[None], ray, rng.uniform(-1.0, 1.0, (3, 4, 2))):
        u, grad = problem.u_and_grad(pts)
        u_ref, grad_ref = closed_forms(pts)
        assert u.tobytes() == u_ref.tobytes() and u.shape == np.shape(pts)[:-1]
        assert grad.tobytes() == grad_ref.tobytes() and grad.shape == np.shape(pts)
        assert problem.u(pts).tobytes() == problem.g_D(pts).tobytes() == u_ref.tobytes()


@pytest.mark.parametrize("arcs", [((0.0, 2 * math.pi),), ((0.0, math.pi),), ((0.4, 2.5),)])
def test_affine_solution_is_reproduced_exactly(arcs):
    """P1 holds an affine u, so with boundary data derived from u the errors are rounding only."""
    domain = LevelSetDomain((0.013, -0.021), 0.7, arcs)

    def u_and_grad(pts):
        pts = np.asarray(pts, dtype=float)
        return 1.0 + 2.0 * pts[..., 0] - 0.5 * pts[..., 1], np.zeros(pts.shape) + (2.0, -0.5)

    def f(pts):
        return np.zeros(np.shape(pts)[:-1])

    report = run_convergence(ManufacturedProblem(domain, u_and_grad, f, (), "affine"), [8, 16, 32])
    for level in report.levels:
        assert level.energy <= 1e-12 and level.l2 <= 1e-12, level


# with R = 0.5, tangent to the grid lines x = -0.5 and 0.5, and x = -0.25 and 0.75
TANGENT_DISKS = [(0.0, 0.05), (0.25, 0.1)]


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize(
    "arcs", [((0.0, math.pi),), ((0.0, 2.0 * math.pi),)], ids=["mixed", "dirichlet"]
)
@pytest.mark.parametrize("center", TANGENT_DISKS)
def test_a_circle_tangent_to_a_grid_line_is_continuous_in_the_radius(center, arcs, n):
    """The disk tangent to a grid line between two vertices runs, as its neighbours 1e-9 h
    smaller and larger do, and its error is theirs.

    The two tangent triangles are outside, so the dofs are those of the smaller disk; the larger
    one cuts a sliver off each and adds the vertex opposite the tangent edge.  Measured: at
    most 1.0e-8 and 1.5e-6 relative from the smaller and the larger disk's energy error.
    """
    h = cell_diagonal(DEFAULT_BOX, n)
    tangent, smaller, larger = (
        convergence_level(manufactured_smooth(LevelSetDomain(center, 0.5 + g * h, arcs)), n)
        for g in (0.0, -1e-9, 1e-9)
    )
    assert tangent.ndof == smaller.ndof
    for neighbour in (smaller, larger):
        assert abs(tangent.energy - neighbour.energy) <= 1e-5 * neighbour.energy


# R = 0.5 at the origin: the circle passes through the grid vertices (+-0.5, 0) and (0, +-0.5)
VERTEX_DISK_NDOF = {8: 23, 16: 73, 32: 249, 64: 903}


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize(
    "arcs", [((0.0, math.pi),), ((0.0, 2.0 * math.pi),)], ids=["mixed", "dirichlet"]
)
def test_a_circle_through_grid_vertices_activates_no_cell_it_only_touches(arcs, n):
    """The disk whose circle passes through four grid vertices is the disk R (1 - 1e-12).

    A triangle with one of those vertices whose corners all lie beyond the circle's tangent
    there meets the disk in that point only, and is outside.  The active cells and the ndof
    are those of the disk 1e-12 R smaller, and so is the energy error, within 1e-9 relative.
    """
    on, inner = (LevelSetDomain((0.0, 0.0), r, arcs) for r in (0.5, 0.5 * (1.0 - 1e-12)))
    topology, inner_topology = (discretize(d, n)[0].topology for d in (on, inner))
    assert np.array_equal(topology.active, inner_topology.active)
    coords = topology.mesh.triangle_coords(np.arange(topology.mesh.n_triangles))
    touching = np.zeros(len(coords), dtype=bool)
    for v in 0.5 * np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]):
        corner = np.all(coords == v, axis=-1).any(axis=-1)
        touching |= corner & np.all(coords @ v >= 0.25, axis=-1)
    assert touching.sum() == 12
    assert not np.any(np.isin(topology.active, np.flatnonzero(touching)))
    level, inner_level = (convergence_level(manufactured_smooth(d), n) for d in (on, inner))
    assert level.ndof == inner_level.ndof == VERTEX_DISK_NDOF[n]
    assert abs(level.energy - inner_level.energy) <= 1e-9 * inner_level.energy


def test_inequality_constants_of_a_circle_through_grid_vertices_without_ghost_penalty():
    """With sigma = 0 the disk through four grid vertices has finite constants.

    Its touching cells used to be active with nothing of the disk in them, which left K + S
    exactly singular.  Measured: 3.17, 2.78 and 7.25.
    """
    domain = LevelSetDomain((0.0, 0.0), 0.5, ((0.0, math.pi),))
    rep = verify_inequalities(*discretize(domain, 8, sigma=0.0))
    assert all(0.0 < v < 1e2 for v in (rep.full_gradient, rep.boundary_flux, rep.cut_trace))


def test_singular_problem_needs_junction(domain_dirichlet):
    with pytest.raises(ValueError):
        manufactured_singular(domain_dirichlet)


@pytest.mark.parametrize("index", [2, 9, -1, 1.7, 1.0, "1"])
def test_singular_problem_rejects_a_junction_index_outside_the_junctions(domain_mixed, index):
    """The mixed disk has two junctions: -1 named the last one and 9 raised IndexError."""
    message = re.escape(f"junction_index must be an integer in [0, 2), got {index!r}")
    with pytest.raises(ValueError, match=message):
        manufactured_singular(domain_mixed, index)


def test_condition_sweep_needs_a_shift(domain_mixed):
    for n_shifts in (0, -3):
        with pytest.raises(ValueError, match=f"n_shifts must be at least 1, got {n_shifts}"):
            study.condition_sweep(domain_mixed, 4, n_shifts)


def _row_bits(report):
    return [
        (row.shift, row.lambda_min_energy.hex(), row.kappa_stabilized.hex(),
         row.kappa_unstabilized.hex())
        for row in report.rows
    ]


def test_condition_sweep_in_small_batches_is_bitwise_one_batch(domain_dirichlet, monkeypatch):
    """The 20 shifts at n = 16 are one batch; at most 200 cut cells a batch, they are several."""
    batches = []
    batch_rules = study.build_rules_batch

    def counted(topologies, tol):
        batches[-1].append(sum(len(t.cut) for t in topologies))
        return batch_rules(topologies, tol)

    monkeypatch.setattr(study, "build_rules_batch", counted)
    reports = []
    for bound in (study._SWEEP_CUT_CELLS, 200):
        monkeypatch.setattr(study, "_SWEEP_CUT_CELLS", bound)
        batches.append([])
        reports.append(condition_sweep(domain_dirichlet, 16, 20))
    one, several = batches
    assert len(one) == 1 and len(several) > 1 and max(several) <= 200 and sum(several) == one[0]
    assert _row_bits(reports[1]) == _row_bits(reports[0])
    assert len(reports[0].rows) == 20


def test_condition_sweep_errors_name_the_level_and_the_shift(domain_dirichlet):
    """The cells of a box five times as wide as tall are not shape regular, which fails the
    first shift; a tolerance below the floor fails the batch of both shifts."""
    small = LevelSetDomain((0.0, 0.0), 0.15, ((0.0, 2.0 * math.pi),))
    irregular = r"^level n = 20, shift \(0\.0, 0\.0\): mesh is not shape regular$"
    with pytest.raises(ValueError, match=irregular):
        condition_sweep(small, 20, 2, box=(-1.0, -0.2, 1.0, 0.2))
    last = re.escape(str(sweep_shifts(DEFAULT_BOX, 8, 2)[1]))
    with pytest.raises(ValueError, match=rf"^level n = 8, shift \(0\.0, 0\.0\) to {last}: quadrature"):
        condition_sweep(domain_dirichlet, 8, 2, tol=1e-13)


def test_zero_data_zero_errors(domain_mixed):
    problem = manufactured_smooth(domain_mixed)

    def zero(p):
        p = np.asarray(p)
        return np.zeros(p.shape[:-1])

    def zero_grad(p):
        p = np.asarray(p)
        return np.zeros(p.shape)

    def zero_and_grad(p):
        return zero(p), zero_grad(p)

    trivial = ManufacturedProblem(domain_mixed, zero_and_grad, zero, (), "zero")
    report = run_convergence(trivial, [8, 16])
    for level in report.levels:
        assert level.energy == pytest.approx(0.0, abs=1e-13)
        assert level.l2 == pytest.approx(0.0, abs=1e-13)
        assert level.sh == pytest.approx(0.0, abs=1e-13)


def test_smooth_convergence_short(domain_dirichlet):
    problem = manufactured_smooth(domain_dirichlet)
    report = run_convergence(problem, [8, 16, 32])
    assert all(0.8 <= e <= 1.3 for e in report.eoc_energy)
    assert all(1.7 <= e <= 2.4 for e in report.eoc_l2)
    # the stabilizer seminorm of the discrete solution decays at least linearly
    hs = [lvl.h for lvl in report.levels]
    sh_slope = float(np.polyfit(np.log(hs), np.log([lvl.sh for lvl in report.levels]), 1)[0])
    assert sh_slope >= 0.8


def test_singular_level_refines_as_the_study_does(domain_mixed):
    """A direct level call and the study's level share the error norms' refinement."""
    problem = manufactured_singular(domain_mixed, 0)
    level = convergence_level(problem, 32)
    assert level == run_convergence(problem, [16, 32]).levels[1]


def test_report_rejects_non_refined_levels(domain_dirichlet, monkeypatch):
    problem = manufactured_smooth(domain_dirichlet)
    with pytest.raises(ValueError):
        run_convergence(problem, [16, 8])
    with pytest.raises(ValueError):
        run_convergence(problem, [16])
    # levels that do not refine are rejected before the first level is solved
    solved = []
    monkeypatch.setattr(study, "convergence_level", lambda *args: solved.append(args))
    for levels in ([32, 16], [16, 16]):
        with pytest.raises(ValueError, match="levels must be strictly increasing"):
            run_convergence(problem, levels)
    assert solved == []


def test_inequality_constants_stable(domain_mixed):
    constants = []
    for n in (8, 16):
        dofmap, params = discretize(domain_mixed, n)
        rep = verify_inequalities(dofmap, params)
        constants.append(rep)
        assert rep.full_gradient > 0.0
        assert rep.boundary_flux > 0.0
        assert rep.cut_trace > 0.0
    # the cut-trace constant is stable across refinement (within 20 percent)
    c8, c16 = constants[0].cut_trace, constants[1].cut_trace
    assert abs(c16 - c8) <= 0.2 * max(c8, c16)


def test_inequality_affine_case(domain_mixed):
    """A global affine has zero stabilizer, so the full-mesh gradient bound is
    an upper bound with constant at least the active-to-cut area ratio."""
    dofmap, params = discretize(domain_mixed, 8)
    mesh, topo = dofmap.mesh, dofmap.topology
    from cutpoisson.assembly import assemble_stiffness

    K = assemble_stiffness(dofmap)
    verts = mesh.vertex_coords(dofmap.dof_to_vertex)
    x = 2.0 * verts[:, 0] - verts[:, 1]
    grad_cut = float(x @ (K @ x))
    areas = sum(
        0.5
        * abs(float(np.linalg.det(np.column_stack([c[1] - c[0], c[2] - c[0]]))))
        for c in (mesh.triangle_coords(t) for t in topo.active)
    )
    grad_full = 5.0 * areas  # |grad|^2 = 5 on every triangle
    assert grad_full >= grad_cut > 0.0


def test_inequality_constants_bounded_across_sweep(domain_mixed):
    values = []
    for shift in sweep_shifts((-1, -1, 1, 1), 8, 20):
        dofmap, params = discretize(domain_mixed, 8, tol=1e-8, shift=shift)
        rep = verify_inequalities(dofmap, params)
        values.append(rep.full_gradient)
    assert max(values) <= 10.0 * min(values)
    assert max(values) < 100.0


TWO_ARCS = ((0.3, 1.2), (2.5, 4.0))  # two Dirichlet arcs: two components of Dirichlet cells


def _inequality_oracles(dofmap, params):
    """Dense oracle of each constant, from per-cell loops, and the kernel dimension of (b).

    (a) pins the last dof instead of the first; (b) solves the eigenproblem on an
    orthonormal basis of the range of the near-cell gradient Gram; (c) solves
    one generalized eigenproblem per cell with scipy.
    """
    from cutpoisson.assembly import assemble_ghost_penalty, assemble_stiffness
    from cutpoisson.space import hat_gradients

    h, ndof, rules = dofmap.mesh.h, dofmap.ndof, dofmap.rules
    topo = dofmap.topology
    dofs = dofmap.vertex_to_dof[dofmap.mesh.triangle_vertices(topo.active)]
    near = _dirichlet_cells(dofmap)
    full, grad_near = np.zeros((ndof, ndof)), np.zeros((ndof, ndof))
    cells = []
    for t, tri in enumerate(topo.active):
        c = dofmap.mesh.triangle_coords(tri)
        area = 0.5 * abs(float(np.linalg.det(np.column_stack([c[1] - c[0], c[2] - c[0]]))))
        g = hat_gradients(c)
        block = area * g @ g.T
        full[np.ix_(dofs[t], dofs[t])] += block
        if near[t]:
            grad_near[np.ix_(dofs[t], dofs[t])] += block
        cells.append((c, g, area))

    G = (assemble_stiffness(dofmap) + assemble_ghost_penalty(dofmap, params)).toarray()
    c_full = scipy.linalg.eigh(full[:-1, :-1], G[:-1, :-1], eigvals_only=True)[-1]

    flux = np.zeros((ndof, ndof))
    rule = rules.dirichlet
    for w, n_q, t in zip(rule.weights, rule.normals, rule.owner):
        row = cells[t][1] @ n_q
        flux[np.ix_(dofs[t], dofs[t])] += h * w * np.outer(row, row)
    U = np.unique(dofs[near])
    Q = scipy.linalg.orth(grad_near[np.ix_(U, U)])
    kernel = len(U) - Q.shape[1]
    F, B = Q.T @ flux[np.ix_(U, U)] @ Q, Q.T @ grad_near[np.ix_(U, U)] @ Q
    c_flux = scipy.linalg.eigh(F, B, eigvals_only=True)[-1]

    c_trace = 0.0
    bnd = packed_boundary_rule(rules)
    for t, (c, _, area) in enumerate(cells):
        trace = np.zeros((3, 3))
        for x, w in zip(bnd.points[bnd.owner == t], bnd.weights[bnd.owner == t]):
            lam = np.linalg.solve(np.vstack([c.T, np.ones(3)]), np.append(x, 1.0))
            trace += w * np.outer(lam, lam)
        mass = area / (12.0 * h) * (np.ones((3, 3)) + np.eye(3))
        c_trace = max(c_trace, scipy.linalg.eigh(trace, mass, eigvals_only=True)[-1])
    return (c_full, c_flux, c_trace), kernel


@pytest.mark.parametrize("arcs, kernel", [(((0.0, math.pi),), 1), (TWO_ARCS, 2)], ids=["mixed", "two-arc"])
def test_inequality_constants_match_dense_oracles(arcs, kernel):
    dofmap, params = discretize(LevelSetDomain((0.0, 0.0), 0.7, arcs), 8)
    rep = verify_inequalities(dofmap, params)
    want, got_kernel = _inequality_oracles(dofmap, params)
    assert got_kernel == kernel
    got = (rep.full_gradient, rep.boundary_flux, rep.cut_trace)
    for name, value, ref in zip(("full_gradient", "boundary_flux", "cut_trace"), got, want):
        assert abs(value - ref) <= 1e-12 * ref, (name, value, ref)


def _sampled_constants(dofmap, params, trials=20, seed=20260810):
    """The largest quotient of each inequality over random coefficient vectors: lower bounds."""
    from cutpoisson.assembly import assemble_ghost_penalty, assemble_stiffness
    from cutpoisson.quadrature import _barycentric, _tri_area

    rng = np.random.default_rng(seed)
    h, rules = dofmap.mesh.h, dofmap.rules
    K = assemble_stiffness(dofmap)
    S = assemble_ghost_penalty(dofmap, params)
    coords, grads, dofs = cell_geometry(dofmap)
    areas = _tri_area(coords)
    bnd, rule_d = packed_boundary_rule(rules), rules.dirichlet
    near = _dirichlet_cells(dofmap)
    lam = _barycentric(coords[bnd.owner], bnd.points)
    p1_mass = np.ones((3, 3)) + np.eye(3)
    c_full = c_flux = c_trace = 0.0
    for _ in range(trials):
        x = rng.standard_normal(dofmap.ndof)
        vals = x[dofs]
        g = np.einsum("tk,tkd->td", vals, grads)
        grad_sq = areas * (g**2).sum(axis=1)
        c_full = max(c_full, grad_sq.sum() / float(x @ (K @ x) + x @ (S @ x)))
        flux = (rule_d.normals * g[rule_d.owner]).sum(axis=1)
        if grad_sq[near].sum() > 0.0:
            c_flux = max(c_flux, h * float(rule_d.weights @ flux**2) / grad_sq[near].sum())
        trace = np.bincount(
            bnd.owner, bnd.weights * (lam * vals[bnd.owner]).sum(axis=1) ** 2, minlength=len(dofs)
        )
        denom = areas / 12.0 * np.einsum("ti,ij,tj->t", vals, p1_mass, vals) / h
        c_trace = max(c_trace, float((trace / denom).max()))
    return c_full, c_flux, c_trace


@pytest.mark.parametrize("arcs", [((0.0, math.pi),), TWO_ARCS], ids=["mixed", "two-arc"])
def test_inequality_constants_bound_every_sampled_quotient(arcs):
    dofmap, params = discretize(LevelSetDomain((0.0, 0.0), 0.7, arcs), 8)
    rep = verify_inequalities(dofmap, params)
    sampled = _sampled_constants(dofmap, params)
    for value, lower in zip((rep.full_gradient, rep.boundary_flux, rep.cut_trace), sampled):
        assert value >= lower * (1.0 - 1e-12)


def test_pure_neumann_disk_has_no_flux_constant():
    dofmap, params = discretize(LevelSetDomain((0.0, 0.0), 0.7, ()), 8)
    rep = verify_inequalities(dofmap, params)
    assert rep.boundary_flux == 0.0
    assert rep.full_gradient > 0.0 and rep.cut_trace > 0.0


def test_inequality_constants_rerun_bitwise(disc_mixed_16):
    dofmap, params = disc_mixed_16
    first = verify_inequalities(dofmap, params)
    second = verify_inequalities(dofmap, params)
    assert [v.hex() for v in vars(first).values()] == [v.hex() for v in vars(second).values()]


def _distance_to_dirichlet(domain, x):
    """Euclidean distance from points ``x`` (..., 2) to the Dirichlet arcs."""
    x = np.asarray(x, dtype=float)
    radial = np.abs(np.linalg.norm(x - domain.center_array, axis=-1) - domain.radius)
    best = np.where(is_dirichlet_angle(domain, boundary_angle(domain, x)), radial, np.inf)
    for start, span in domain.dirichlet_arcs:
        for ang in (start, start + span):
            best = np.minimum(best, np.linalg.norm(x - domain.boundary_point(ang), axis=-1))
    return best


def _meets_dirichlet_oracle(domain, coords, floor):
    """Branch and bound: whether the Dirichlet arcs come within ``floor`` of each triangle (m, 3, 2).

    Each triangle is searched depth first on a stack of its own, and the stacks step together,
    one piece of each undecided triangle at a time.  Cells certified empty by the 1-Lipschitz
    distance are pruned; a cell that cannot be pruned by the time it is smaller than ``floor``
    counts as a hit.
    """
    hit, size = np.zeros(len(coords), dtype=bool), np.ones(len(coords), dtype=int)
    stack = np.empty((len(coords), 64, 3, 2))  # doubled when full; the search goes ~40 deep
    stack[:, 0] = coords
    while len(live := np.flatnonzero((size > 0) & ~hit)):
        size[live] -= 1
        tri = stack[live, size[live]]
        centroid = tri.mean(axis=1)
        radius = np.linalg.norm(tri - centroid[:, None], axis=2).max(axis=1)
        dist = _distance_to_dirichlet(domain, np.concatenate([tri, centroid[:, None]], axis=1))
        dc, on_arc = dist[:, 3], np.any(dist <= 0.0, axis=1)  # at the vertices or the centroid
        open_ = ~on_arc & ~(dc - radius > 0.0)
        hit[live[on_arc | (open_ & (2.0 * radius <= floor))]] = True
        split = open_ & (2.0 * radius > floor)
        grow, t = live[split], tri[split]
        mids = 0.5 * (t + np.roll(t, -1, axis=1))
        corners = [np.stack([t[:, k], mids[:, k], mids[:, k - 1]], axis=1) for k in range(3)]
        if size.max() + 4 > stack.shape[1]:
            stack = np.concatenate([stack, np.empty_like(stack)], axis=1)
        stack[grow[:, None], size[grow, None] + np.arange(4)] = np.stack(corners + [mids], axis=1)
        size[grow] += 4  # popped from the top, so the midpoint child is searched first
    return hit


_TWO_ARC = LevelSetDomain((0.1, -0.05), 0.6, ((0.3, 1.4), (2.5, 4.0)))


@pytest.mark.parametrize(
    "domain_name, shift_index",
    [("mixed", 0), ("mixed", 5), ("mixed", 10), ("mixed", 15)]
    + [("two_arc", 3), ("two_arc", 9), ("two_arc", 17)],
)
def test_dirichlet_cells_match_branch_and_bound_oracle(domain_mixed, domain_name, shift_index):
    """The cells meeting the Dirichlet arcs, taken from the rules and the arc ends.

    Shift 0 is the unshifted grid, where the mixed disk's junctions lie on grid
    lines and the cells below them touch the Dirichlet arc only at that point.
    """
    domain = domain_mixed if domain_name == "mixed" else _TWO_ARC
    shift = sweep_shifts((-1, -1, 1, 1), 8, 20)[shift_index]
    dofmap, params = discretize(domain, 8, shift=shift)
    mesh, topo = dofmap.mesh, dofmap.topology
    coords = mesh.triangle_coords(topo.active)
    found = _dirichlet_cells(dofmap)
    assert np.array_equal(found, _meets_dirichlet_oracle(domain, coords, 1e-12 * mesh.h))
    assert found.any() and not found.all()


def test_cutoff_lemma_report(domain_mixed):
    report = verify_cutoff_lemma(domain_mixed, [10.0, 100.0, 1000.0])
    assert not report.flagged
    assert report.quotient_spread < 3.0
    assert report.model_error < 1e-10
    quotients = [r.quotient for r in report.rows]
    assert max(quotients) / min(quotients) == pytest.approx(report.quotient_spread)


def test_cutoff_lemma_rejects_bad_ratio(domain_mixed):
    with pytest.raises(ValueError):
        verify_cutoff_lemma(domain_mixed, [10.0, -1.0])


def test_regularization_coupling_halves(domain_mixed):
    problem = manufactured_smooth(domain_mixed)
    report = regularization_coupling(problem, (8, 16, 32))
    geo_mean = float(np.exp(np.mean(np.log(report.ratios))))
    assert 0.25 <= geo_mean <= 0.85


def test_regularization_coupling_matches_the_study_per_level(domain_mixed):
    """Each coupling gap is the one-epsilon study's gap at epsilon = 0.1 h^2, exactly."""
    problem = manufactured_smooth(domain_mixed)
    levels = (8, 16)
    report = regularization_coupling(problem, levels)
    for n, gap in zip(levels, report.gaps):
        h = discretize(domain_mixed, n)[0].mesh.h
        assert gap == regularization_study(problem, n, [0.1 * h**2]).gaps[0]


def _composed_gaps(problem, n, eps_values, box):
    """The study composed of its public steps: A, S and b, then the Gram matrix on its own, and
    a fresh standard report for each epsilon, which solves every perturbed row again."""
    dofmap, params = discretize(problem.domain, n, box=box)
    system = assemble_system(dofmap, params, problem)
    gram = energy_gram(dofmap, system.S)
    u_h = solve_standard(system, dofmap).solution.coefficients
    gaps = []
    for eps in eps_values:
        A_eps = assemble_regularized(system.A, dofmap, params.with_epsilon(eps))
        matrices = SystemMatrices(A_eps, system.S, system.b)
        reg = solve_regularized(matrices, dofmap, solve_standard(system, dofmap))
        gaps.append(energy_norm(reg.solution.coefficients - u_h, gram))
    return gaps


@pytest.mark.parametrize("rule", ["c_h2", "fixed"])
@pytest.mark.parametrize("shift", [None, 7])
@pytest.mark.parametrize("n", [16, 64])
def test_regularization_study_is_its_composition_from_public_steps(domain_mixed, n, shift, rule):
    """Bitwise at epsilon = 0.1 h^2 times 0, 1, 2, 4, which perturb the same rows.  At the fixed
    epsilon COLLAR R / 4 times the same factors the rows grow with epsilon and the study solves
    only the new ones, so there the gaps agree to the low-rank update's 1e-10."""
    problem = manufactured_smooth(domain_mixed)
    box = DEFAULT_BOX
    if shift is not None:
        sx, sy = sweep_shifts(DEFAULT_BOX, n, 20)[shift]
        box = (box[0] + sx, box[1] + sy, box[2] + sx, box[3] + sy)
    h = cell_diagonal(box, n)
    base = 0.1 * h**2 if rule == "c_h2" else geometry.COLLAR * domain_mixed.radius / 4.0
    eps_values = [0.0, base, 2.0 * base, 4.0 * base]
    gaps = regularization_study(problem, n, eps_values, box=box).gaps
    want = _composed_gaps(problem, n, eps_values, box)
    assert gaps[0] == want[0] == 0.0 and min(want[1:]) > 0.0
    if rule == "c_h2":
        assert [g.hex() for g in gaps] == [g.hex() for g in want]
    else:
        assert np.abs(np.subtract(gaps, want)).max() <= 1e-10 * max(want)


@pytest.mark.parametrize(
    "eps_values, k",
    [([0.0, -1e-3], 1), ([math.nan], 0), ([0.0, 0.1, 0.6], 2), ([0.0, math.inf], 1)],
)
def test_a_bad_epsilon_is_rejected_before_any_work(domain_mixed, monkeypatch, eps_values, k):
    """Each epsilon must be finite, at least 0 and at most COLLAR R = 0.75 * 0.7, which rounds
    to 0.5249999999999999; the error names the first that is not, by position and value."""
    calls = []
    for name in ("discretize", "build_background", "solve_standard", "solve_regularized"):
        fn = getattr(study, name)
        monkeypatch.setattr(study, name, lambda *a, _f=fn, _n=name: calls.append(_n) or _f(*a))
    problem = manufactured_smooth(domain_mixed)
    limit = re.escape("COLLAR * R = 0.5249999999999999")
    bad = re.escape(repr(eps_values[k]))
    with pytest.raises(ValueError, match=rf"epsilon {k} is {bad}: .*{limit}"):
        regularization_study(problem, 16, eps_values)
    # the coupling's epsilons coeff h^2 on levels 16 and 8; 10 h^2 is 0.3125, then 1.25
    for coeff, level in ((-0.1, 0), (math.nan, 0), (10.0, 1)):
        bad = re.escape(repr(coeff * cell_diagonal(DEFAULT_BOX, (16, 8)[level]) ** 2))
        with pytest.raises(ValueError, match=rf"epsilon {level} is {bad}: .*{limit}"):
            regularization_coupling(problem, (16, 8), coeff)
    assert calls == []
    regularization_study(problem, 8, [0.0, geometry.COLLAR * domain_mixed.radius])
    assert calls == ["discretize", "build_background", "solve_standard"] + ["solve_regularized"] * 2


def test_interpolation_energy_slope_singular(domain_mixed):
    problem = manufactured_singular(domain_mixed, 0)
    report = interpolation_study(problem, [8, 16, 32])
    totals = [lvl.energy + lvl.sh for lvl in report.levels]
    hs = [lvl.h for lvl in report.levels]
    slope = float(np.polyfit(np.log(hs), np.log(totals), 1)[0])
    assert slope >= 0.4


def test_truncated_domain_rejected(domain_mixed):
    """A grid shift or a disk that moves the boundary circle across the mesh edge fails loudly."""
    problem = manufactured_smooth(domain_mixed)
    with pytest.raises(ValueError, match="truncated domain"):
        convergence_level(problem, 8, shift=(0.5, 0.5))
    off_center = LevelSetDomain((0.5, 0.0), 0.7, ((0.0, math.pi),))
    with pytest.raises(ValueError, match="meets the edge of the mesh extent"):
        discretize(off_center, 8)


def test_mesh_past_the_collar_limit_rejected(domain_mixed):
    """At n = 2 the cell diagonal h = sqrt(2) is above the collar limit 0.75 R."""
    with pytest.raises(ValueError, match="exceeds the collar limit 0.5249999999999999"):
        discretize(domain_mixed, 2)


def test_a_too_coarse_level_is_rejected_before_any_work(domain_mixed, monkeypatch):
    """The collar limit is checked on the cell diagonal of the box, before a mesh is built."""
    calls = []
    for name in ("build_background", "classify"):
        original = getattr(study, name)
        monkeypatch.setattr(study, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    for n in (1, 2):
        with pytest.raises(ValueError, match="exceeds the collar limit"):
            discretize(domain_mixed, n)
    with pytest.raises(ValueError, match="exceeds the collar limit"):
        discretize(domain_mixed, 4, box=(-1.0, -1.0, 3.0, 3.0))
    assert calls == []
    discretize(domain_mixed, 8)
    assert calls == ["build_background", "classify"]


def test_discretize_memory_is_set_by_the_disk_window():
    """A small disk on a fine grid costs what its window needs, not what the box holds.

    At n = 1024 the window of the disk, its bounding box grown by h, spans
    about 63 x 63 of the box's 1024 x 1024 cells.  Beyond the index arrays a
    level still keeps over the box, an int8 tag per triangle and an int64 dof
    number per vertex with its boolean mask, the traced peak of ``discretize``
    stays under 1 KB per window cell: 15.6 MB in all.  A mesh that stored the
    grid's vertices, triangles and faces peaked at 274 MB here.
    """
    domain = LevelSetDomain((0.1234, -0.2345), 0.0567, ((0.0, math.pi),))
    n, side = 1024, 2.0 / 1024
    window_cells = (2.0 * (domain.radius + cell_diagonal(DEFAULT_BOX, n)) / side + 2.0) ** 2
    bound = 2 * n * n + 9 * (n + 1) ** 2 + 1024 * window_cells
    tracemalloc.start()
    try:
        dofmap, _ = discretize(domain, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(dofmap.topology.cut) < len(dofmap.topology.active) < 6000
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def _held_arrays(obj, seen=None):
    """Every array reachable from ``obj`` through the fields and cached properties of dataclasses
    (both live in the instance ``__dict__``) and through tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _held_arrays(item, seen)]
    if dataclasses.is_dataclass(obj):
        return [a for value in vars(obj).values() for a in _held_arrays(value, seen)]
    return []


def test_a_level_holds_no_per_cell_geometry(domain_mixed, monkeypatch):
    """After a singular level, no array held by its dofmap, with its rules and topology, has 6
    entries per active cell, the size of per-cell coordinates or gradients (m, 3, 2); the cached
    dofs (m, 3) and the cut rule are seen."""
    levels = []
    original = study.discretize
    monkeypatch.setattr(study, "discretize", lambda *a, **k: levels.append(original(*a, **k)) or levels[-1])
    convergence_level(manufactured_singular(domain_mixed), 128)
    (dofmap, _), = levels
    m = len(dofmap.topology.active)
    held = _held_arrays(dofmap)
    assert any(a is dofmap.active_dofs for a in held)
    assert any(a is dofmap.rules.volume.weights for a in held)
    assert any(a is dofmap.topology.classification for a in held)
    assert max(a.size for a in held) < 6 * m, sorted(a.shape for a in held if a.size >= 6 * m)


def test_box_inside_disk_is_all_inside():
    """``discretize`` rejects this box, but ``classify`` and ``build_rules`` accept it."""
    covering = LevelSetDomain((0.5, 0.5), 10.0, ((0.0, 2 * math.pi),))
    mesh = build_background((0.0, 0.0, 1.0, 1.0), 4)
    rules = build_dofmap(build_rules(classify(mesh, covering))).rules
    assert packed_volume_rule(rules).weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert len(rules.dirichlet.weights) == len(rules.neumann.weights) == 0


def test_disk_that_misses_the_grid_is_rejected():
    far = LevelSetDomain((5.0, 5.0), 0.5, ((0.0, 3.14159),))
    message = r"center \(5\.0, 5\.0\), radius 0\.5\) misses the mesh extent \(-1\.0, -1\.0, 1\.0, 1\.0\)"
    with pytest.raises(ValueError, match=message):
        discretize(far, 8)


@pytest.mark.parametrize(
    "center, radius, fits",
    [
        ((0.0, 0.0), 0.7, True),  # disk inside the box
        ((0.0, 0.0), 1.5, False),  # box inside the disk
        ((0.5, 0.0), 0.7, False),  # crosses the right edge
        ((0.0, 0.0), 1.0, False),  # tangent to all four edges
        ((0.0, 0.0), math.sqrt(2.0), False),  # through the corners
        ((3.0, 0.0), 1.0, False),  # disk outside the box
        ((3.0, 0.0), 2.5, False),  # reaches in from outside
    ],
)
def test_check_levels_admits_only_a_disk_strictly_inside_the_box(center, radius, fits):
    domain = LevelSetDomain(center, radius, ((0.0, math.pi),))
    if fits:
        check_levels(domain, DEFAULT_BOX, [8], [(0.0, 0.0)])
    else:
        with pytest.raises(ValueError, match="misses the mesh extent"):
            check_levels(domain, DEFAULT_BOX, [8], [(0.0, 0.0)])


def test_check_levels_checks_every_shift_and_level(domain_mixed):
    """Shifted by 0.29 the disk of radius 0.7 is 0.71 inside the left edge, by 0.31 only 0.69."""
    check_levels(domain_mixed, DEFAULT_BOX, [8, 64], [(0.0, 0.0), (0.29, -0.29)])
    with pytest.raises(ValueError, match=re.escape("extent (-0.69, -1.0, 1.31, 1.0)")):
        check_levels(domain_mixed, DEFAULT_BOX, [8], [(0.0, 0.0), (0.31, 0.0)])
    with pytest.raises(ValueError, match="level n = 2: mesh size"):
        check_levels(domain_mixed, DEFAULT_BOX, [8, 2], [(0.0, 0.0)])


@pytest.mark.parametrize("n", [1, 7, 64])
def test_check_levels_extent_is_the_meshs_bitwise(n):
    """A disk exactly tangent to each shifted extent of ``build_background`` is rejected, and one
    a hair smaller is not: the check's extent is the mesh's to the last bit."""
    box = (-1.013, -0.979, 1.0, 1.0)
    for shift in sweep_shifts(box, n, 5):
        mesh = build_background(box, n, shift)
        center = (0.5 * (mesh.xs[0] + mesh.xs[-1]), 0.5 * (mesh.ys[0] + mesh.ys[-1]))
        gap = min(center[0] - mesh.xs.min(), mesh.xs.max() - center[0],
                  center[1] - mesh.ys.min(), mesh.ys.max() - center[1])
        with pytest.raises(ValueError, match="misses the mesh extent"):
            check_levels(LevelSetDomain(center, gap), box, [], [shift])
        check_levels(LevelSetDomain(center, np.nextafter(gap, 0.0)), box, [], [shift])


def test_studies_check_every_level_and_shift_before_the_first_is_built(domain_mixed, monkeypatch):
    """A sweep whose 4th shift moves the mesh edge onto the circle, and studies with a level too
    coarse for the collar, fail before any mesh is built."""
    calls = []
    original = study.build_background
    monkeypatch.setattr(study, "build_background", lambda *a: calls.append(a) or original(*a))
    near_edge = LevelSetDomain((0.154, -0.279), 0.7, ((0.0, math.pi),))
    with pytest.raises(ValueError, match="truncated domain"):
        condition_sweep(near_edge, 8, 20)
    small = LevelSetDomain((0.0, 0.0), 0.2, ((0.0, math.pi),))
    problem = manufactured_smooth(small)
    for call in (
        lambda: run_convergence(problem, [2, 4]),
        lambda: interpolation_study(problem, [32, 4]),
        lambda: regularization_coupling(problem, [32, 4]),
    ):
        with pytest.raises(ValueError, match="exceeds the collar limit"):
            call()
    assert calls == []


def test_validate_problem_rejects_nan_data_in_bounded_time(domain_mixed):
    """Every sample is NaN: the fixed sample set fails the PDE check instead of redrawing."""

    def nan(pts):
        return np.full(np.shape(pts)[:-1], np.nan)

    def nan_grad(pts):
        return np.full(np.shape(pts), np.nan)

    def nan_and_grad(pts):
        return nan(pts), nan_grad(pts)

    problem = ManufacturedProblem(domain_mixed, nan_and_grad, nan)
    with pytest.raises(ValueError, match="PDE residual check failed: nan"):
        validate_problem(problem)
