import dataclasses
import math

import numpy as np
import pytest

import cutpoisson.assembly
import cutpoisson.space
from cutpoisson import (
    FeFunction,
    LevelSetDomain,
    NitscheParams,
    build_dofmap,
    build_rules,
    classify,
    clement_interpolate,
)
from cutpoisson.assembly import assemble_ghost_penalty, assemble_load, assemble_nitsche, error_norms
from cutpoisson.mesh import build_background
from cutpoisson.quadrature import _full_triangle_points
from cutpoisson.study import (
    interpolation_study,
    manufactured_singular,
    manufactured_smooth,
    sweep_shifts,
)
from tests.conftest import (
    face_keys,
    grid_arrays,
    jump_normal_gradient,
    masked_faces,
    reference_tolerance,
)


@pytest.fixture(scope="module")
def fitted_two_triangles():
    """Unit square split once, fully inside a large disk."""
    domain = LevelSetDomain((0.5, 0.5), 10.0, ((0.0, 2 * math.pi),))
    mesh = build_background((0, 0, 1, 1), 1)
    topo = classify(mesh, domain)
    return mesh, topo, build_dofmap(build_rules(topo))


def nodal(dofmap, fn):
    return FeFunction(fn(dofmap.mesh.vertex_coords(dofmap.dof_to_vertex)), dofmap)


def test_the_dofmap_carries_the_rules_it_was_numbered_on(domain_mixed):
    """One value per level: the dofmap keeps its rules, and its topology is theirs."""
    rules = build_rules(classify(build_background((-1, -1, 1, 1), 8), domain_mixed))
    dofmap = build_dofmap(rules)
    assert dofmap.rules is rules and dofmap.topology is rules.topology
    assert dofmap.mesh is rules.topology.mesh
    assert dofmap.ndof == len(np.unique(dofmap.mesh.triangle_vertices(rules.topology.active)))


def test_jump_zero_for_affine(fitted_two_triangles):
    mesh, topo, dofmap = fitted_two_triangles
    f = nodal(dofmap, lambda v: 3.0 * v[:, 0] - 2.0 * v[:, 1] + 1.0)
    faces, face_tris = masked_faces(mesh.n)
    for face in face_keys(mesh.n, faces[(face_tris >= 0).all(axis=1)]):
        assert jump_normal_gradient(f, int(face)) == pytest.approx(0.0, abs=1e-14)


def test_hat_jump_matches_hand_assembly(fitted_two_triangles):
    """Hat at the far corner of the split square: jump across the diagonal is sqrt(2)."""
    mesh, topo, dofmap = fitted_two_triangles
    coeffs = np.zeros(dofmap.ndof)
    coeffs[dofmap.vertex_to_dof[3]] = 1.0  # vertex (1, 1)
    f = FeFunction(coeffs, dofmap)
    faces, face_tris = masked_faces(mesh.n)
    face = int(face_keys(mesh.n, faces[(face_tris >= 0).all(axis=1)])[0])
    value = jump_normal_gradient(f, face)
    assert abs(value) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # scaling the coefficients scales the jump
    f2 = FeFunction(2.5 * coeffs, dofmap)
    assert jump_normal_gradient(f2, face) == pytest.approx(2.5 * value, rel=1e-14)


def test_clement_reproduces_constants_and_affines(disc_mixed_8, rng):
    dofmap, params = disc_mixed_8
    mesh = dofmap.mesh
    const = clement_interpolate(lambda p: np.full(np.asarray(p).shape[:-1], 4.2), dofmap)
    assert np.allclose(const.coefficients, 4.2, atol=1e-13)
    for _ in range(10):
        a, bx, by = rng.standard_normal(3)

        def affine(p, a=a, bx=bx, by=by):
            p = np.asarray(p)
            return a + bx * p[..., 0] + by * p[..., 1]

        interp = clement_interpolate(affine, dofmap)
        exact = affine(mesh.vertex_coords(dofmap.dof_to_vertex))
        assert np.abs(interp.coefficients - exact).max() < 1e-12


def _clement_loop(u, dofmap):
    """Reference quasi-interpolant: one patch at a time, one triangle at a time."""
    mesh = dofmap.mesh
    vertices, triangles = grid_arrays(mesh)
    patches = {}
    for t in dofmap.topology.active:
        for v in triangles[t]:
            patches.setdefault(int(v), []).append(int(t))
    coeffs = np.zeros(dofmap.ndof)
    for v, tris in patches.items():
        xv = vertices[v]
        scale = max(np.linalg.norm(mesh.triangle_coords(t) - xv, axis=1).max() for t in tris)
        moments, rhs = np.zeros((3, 3)), np.zeros(3)
        for t in tris:
            pts, wts = _full_triangle_points(mesh.triangle_coords(t))
            basis = np.column_stack(
                [np.ones(len(pts)), (pts[:, 0] - xv[0]) / scale, (pts[:, 1] - xv[1]) / scale]
            )
            moments += (basis * wts[:, None]).T @ basis
            rhs += (basis * wts[:, None]).T @ u(pts)
        coeffs[dofmap.vertex_to_dof[v]] = np.linalg.solve(moments, rhs)[0]
    return coeffs


def test_clement_matches_the_patch_loop(domain_mixed, disc_mixed_16):
    dofmap = disc_mixed_16[0]
    for problem in (manufactured_smooth(domain_mixed), manufactured_singular(domain_mixed)):
        ref = _clement_loop(problem.u, dofmap)
        got = clement_interpolate(problem.u, dofmap).coefficients
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_clement_names_a_degenerate_patch(fitted_two_triangles):
    """Squashing the square onto a line leaves every patch without moments."""
    mesh, topo, dofmap = fitted_two_triangles
    flat = dataclasses.replace(mesh, ys=mesh.ys * 0.0)
    flat_topo = dataclasses.replace(topo, mesh=flat)
    flat_dofmap = dataclasses.replace(dofmap, rules=dataclasses.replace(dofmap.rules, topology=flat_topo))
    with pytest.raises(ValueError, match="degenerate patch moment matrix at vertex 0"):
        clement_interpolate(lambda p: np.asarray(p)[..., 0], flat_dofmap)


def test_clement_affine_has_zero_stabilizer_seminorm(disc_mixed_8):
    from cutpoisson.assembly import assemble_ghost_penalty, energy_norm

    dofmap, params = disc_mixed_8
    S = assemble_ghost_penalty(dofmap, params)
    interp = clement_interpolate(
        lambda p: 1.0 + 2.0 * np.asarray(p)[..., 0] - np.asarray(p)[..., 1], dofmap
    )
    # nodal values are exact to machine precision; the seminorm sees its root
    assert energy_norm(interp, S) < 1e-6


def test_clement_h1_rate_for_smooth_function(domain_dirichlet):
    problem = manufactured_smooth(domain_dirichlet)
    report = interpolation_study(problem, [8, 16, 32, 64])
    errors = [lvl.energy for lvl in report.levels]
    hs = [lvl.h for lvl in report.levels]
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert slope > 0.85


def test_active_cell_geometry_is_computed_once_and_read_only(domain_mixed, monkeypatch):
    mesh = build_background((-1, -1, 1, 1), 8)
    topo = classify(mesh, domain_mixed)
    dofmap = build_dofmap(build_rules(topo))
    calls = []
    original = cutpoisson.space.hat_gradients
    monkeypatch.setattr(cutpoisson.space, "hat_gradients", lambda c: calls.append(1) or original(c))
    params = NitscheParams()
    assemble_nitsche(dofmap, params)
    assemble_load(dofmap, params, manufactured_smooth(domain_mixed))
    assert dofmap.active_dofs is dofmap.active_dofs
    assert len(calls) == 1
    vertices, triangles = grid_arrays(mesh)
    tris = triangles[topo.active]
    assert np.array_equal(mesh.triangle_coords(topo.active), vertices[tris])
    assert np.array_equal(dofmap.reference_gradients[topo.active & 1], original(vertices[tris]))
    assert np.array_equal(dofmap.active_dofs, dofmap.vertex_to_dof[tris])
    for a in (dofmap.reference_gradients, dofmap.active_dofs):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def _gradients_by_parity(mesh, domain):
    """Per-triangle hat gradients of ``mesh`` and the dofmap's reference gradients by parity."""
    ref = build_dofmap(build_rules(classify(mesh, domain))).reference_gradients
    assert ref.shape == (2, 3, 2) and not ref.flags.writeable
    vertices, triangles = grid_arrays(mesh)
    per_cell = cutpoisson.space.hat_gradients(vertices[triangles])
    return per_cell, ref[np.arange(mesh.n_triangles) & 1]


@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_reference_gradients_are_bitwise_on_a_dyadic_grid(domain_mixed, n):
    """On [-1, 1]^2 with n a power of two every coordinate difference is exact."""
    per_cell, by_parity = _gradients_by_parity(build_background((-1, -1, 1, 1), n), domain_mixed)
    assert per_cell.tobytes() == by_parity.tobytes()


# stretched up to the aspect ratio 4.2, and away from the origin
REFERENCE_BOXES = [
    (-1.0, -1.0, 1.0, 1.0),
    (-2.1, -0.5, 2.1, 0.5),
    (-0.4, -1.68, 0.4, 1.68),
    (0.3, -1.9, 1.5, 0.1),
    (2.5, -7.0, 3.1, -6.2),
    (-13.7, 40.1, -9.4, 42.2),
]


@pytest.mark.parametrize("n", [1, 7, 64, 256])
@pytest.mark.parametrize("box", REFERENCE_BOXES)
def test_reference_gradients_match_every_cell(domain_mixed, box, n):
    shifts = sweep_shifts(box, n, 20)
    for shift in shifts if n < 256 else shifts[::4]:
        mesh = build_background(box, n, shift)
        per_cell, by_parity = _gradients_by_parity(mesh, domain_mixed)
        err = np.abs(per_cell - by_parity).max() / np.abs(per_cell).max()
        assert err <= reference_tolerance(mesh, box, n), shift


def test_one_hat_gradients_call_per_level(domain_mixed, monkeypatch):
    calls = []
    original = cutpoisson.space.hat_gradients
    counted = lambda c: calls.append(1) or original(c)  # noqa: E731
    monkeypatch.setattr(cutpoisson.space, "hat_gradients", counted)
    monkeypatch.setattr(cutpoisson.assembly, "hat_gradients", counted)
    problem = manufactured_singular(domain_mixed)
    levels = [(8, (0.0, 0.0)), (16, sweep_shifts((-1, -1, 1, 1), 16, 20)[7])]
    for level, (n, shift) in enumerate(levels, start=1):
        mesh = build_background((-1, -1, 1, 1), n, shift)
        dofmap = build_dofmap(build_rules(classify(mesh, domain_mixed)))
        params = NitscheParams()
        assemble_nitsche(dofmap, params)
        S = assemble_ghost_penalty(dofmap, params)
        assemble_load(dofmap, params, problem)
        u_h = FeFunction(np.ones(dofmap.ndof), dofmap)
        error_norms(problem, u_h, S, refine_levels=2)
        assert len(calls) == level
