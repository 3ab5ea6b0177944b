import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutpoisson import LevelSetDomain, NitscheParams, space
from cutpoisson.assembly import (
    ErrorNorms,
    _boundary_local,
    _cells_near,
    _cell_scatter,
    _compress,
    _cutoff_weight,
    _vector,
    assemble_boundary_mass,
    assemble_ghost_penalty,
    assemble_load,
    assemble_nitsche,
    assemble_regularized,
    assemble_stiffness,
    assemble_system,
    cutoff_flux_neumann,
    energy_gram,
    energy_norm,
    error_norms,
    nitsche_action,
)
from cutpoisson.geometry import TubeParams, cutoff
from cutpoisson.mesh import _point_triangle_distance, build_background, classify
from cutpoisson.quadrature import PackedRule, _barycentric, build_rules, refine_rule_toward
from cutpoisson.solve import RESIDUAL_RTOL, solve_standard
from cutpoisson.space import FeFunction, build_dofmap, hat_gradients
from cutpoisson.study import (
    DEFAULT_BOX,
    consistency_residual,
    discretize,
    manufactured_singular,
    manufactured_smooth,
    sweep_shifts,
)
from tests.conftest import (
    cell_geometry,
    face_keys,
    face_normal,
    grid_arrays,
    jump_normal_gradient,
    masked_faces,
    packed_volume_rule,
    reference_tolerance,
)


class ZeroData:
    f = staticmethod(lambda p: np.zeros(np.asarray(p).shape[:-1]))
    g_D = staticmethod(lambda p: np.zeros(np.asarray(p).shape[:-1]))
    g_N = staticmethod(lambda p: np.zeros(np.asarray(p).shape[:-1]))


def test_stiffness_constant_kernel(disc_mixed_8):
    dofmap, params = disc_mixed_8
    K = assemble_stiffness(dofmap)
    assert np.abs(K @ np.ones(dofmap.ndof)).max() < 1e-12
    assert abs(K - K.T).max() == 0.0


def test_stiffness_matches_hand_assembly():
    """Fitted unit square, two triangles: the classic 4x4 P1 stiffness matrix."""
    domain = LevelSetDomain((0.5, 0.5), 10.0, ((0.0, 2 * math.pi),))
    dofmap, params = _level(domain, (0, 0, 1, 1), 1)  # a box inside the disk: no discretize
    K = assemble_stiffness(dofmap).toarray()
    # dofs follow vertex order (0,0), (0,1), (1,0), (1,1)
    expected = np.array(
        [
            [1.0, -0.5, -0.5, 0.0],
            [-0.5, 1.0, 0.0, -0.5],
            [-0.5, 0.0, 1.0, -0.5],
            [0.0, -0.5, -0.5, 1.0],
        ]
    )
    perm = dofmap.vertex_to_dof[[0, 1, 2, 3]]
    assert np.allclose(K[np.ix_(perm, perm)], expected, atol=1e-14)


def test_nitsche_symmetry_and_constant_value(domain_mixed, disc_mixed_8):
    dofmap, params = disc_mixed_8
    mesh = dofmap.mesh
    A = assemble_nitsche(dofmap, params)
    assert abs(A - A.T).max() == 0.0
    one = np.ones(dofmap.ndof)
    expected = params.beta / mesh.h * math.pi * domain_mixed.radius
    assert one @ (A @ one) == pytest.approx(expected, rel=1e-10)


def test_nitsche_pure_neumann_reduces_to_stiffness():
    domain = LevelSetDomain((0.0, 0.0), 0.7)
    dofmap, params = discretize(domain, 8)
    A = assemble_nitsche(dofmap, params)
    K = assemble_stiffness(dofmap)
    assert abs(A - K).max() == 0.0


def test_assemble_system_rejects_a_level_without_dirichlet_points():
    """Pure Neumann: the operator fixes u only up to a constant, so no solve is attempted."""
    domain = LevelSetDomain((0.0, 0.0), 0.7)
    dofmap, params = discretize(domain, 8)
    with pytest.raises(ValueError, match="level n = 8: the rules hold no Dirichlet point"):
        assemble_system(dofmap, params, manufactured_smooth(domain))


def test_a_mis_keyed_ghost_face_raises_instead_of_a_wrong_matrix(disc_mixed_8):
    """Face key 0 puts a face at vertex 0, the box corner, off the active mesh: its dofs are -1."""
    dofmap, params = disc_mixed_8
    faces = dofmap.topology.ghost_faces.copy()
    faces[0] = 0
    topology = dataclasses.replace(dofmap.topology, ghost_faces=faces)
    bad = dataclasses.replace(dofmap, rules=dataclasses.replace(dofmap.rules, topology=topology))
    with pytest.raises(ValueError, match="dof -1, off the active mesh"):
        assemble_ghost_penalty(bad, params)


def test_compress_rejects_a_column_off_the_active_mesh(disc_mixed_8):
    """One stencil entry from a boundary dof to a neighbour that has no dof."""
    dofmap, _ = disc_mixed_8
    offsets = space.STENCIL @ (dofmap.mesh.n + 1, 1)
    vertices = np.clip(dofmap.dof_to_vertex[:, None] + offsets, 0, dofmap.mesh.n_vertices - 1)
    cols = dofmap.vertex_to_dof[vertices]
    row, slot = np.argwhere(cols < 0)[0]
    stencil = np.zeros((dofmap.ndof, len(space.STENCIL)))
    stencil[row, slot] = 1.0
    with pytest.raises(ValueError, match=f"dof {row} has a column off the active mesh"):
        _compress(dofmap, stencil)
    stencil[row, slot] = 0.0
    assert _compress(dofmap, stencil).nnz == 0


def test_ghost_penalty_properties(disc_mixed_8, rng):
    dofmap, params = disc_mixed_8
    mesh, topo = dofmap.mesh, dofmap.topology
    S = assemble_ghost_penalty(dofmap, params)
    verts = mesh.vertex_coords(dofmap.dof_to_vertex)
    affine = FeFunction(1.0 + 2.0 * verts[:, 0] - 0.5 * verts[:, 1], dofmap)
    assert affine.coefficients @ (S @ affine.coefficients) < 1e-13
    eigs = np.linalg.eigvalsh(S.toarray())
    assert eigs.min() >= -1e-12 * abs(eigs).max()
    # the energy is sigma h |F| [grad_n v]^2 summed over the ghost faces, face by face
    v = FeFunction(np.random.default_rng(3).standard_normal(dofmap.ndof), dofmap)
    jumps = np.array([jump_normal_gradient(v, int(f)) for f in topo.ghost_faces])
    faces = masked_faces(mesh.n)[0]
    ends = mesh.vertex_coords(faces[np.searchsorted(face_keys(mesh.n, faces), topo.ghost_faces)])
    lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=-1)
    energy = params.sigma * mesh.h * float(lengths @ jumps**2)
    assert v.coefficients @ (S @ v.coefficients) == pytest.approx(energy, rel=1e-12)
    # linear in sigma
    params2 = NitscheParams(params.beta, 2.0 * params.sigma)
    S2 = assemble_ghost_penalty(dofmap, params2)
    assert abs(S2 - 2.0 * S).max() < 1e-12 * abs(S).max()


def test_load_vector_cases(domain_mixed, disc_mixed_8):
    dofmap, params = disc_mixed_8
    mesh = dofmap.mesh
    assert np.abs(assemble_load(dofmap, params, ZeroData)).max() == 0.0

    class UnitSource(ZeroData):
        f = staticmethod(lambda p: np.ones(np.asarray(p).shape[:-1]))

    b = assemble_load(dofmap, params, UnitSource)
    assert b.sum() == pytest.approx(math.pi * domain_mixed.radius**2, rel=1e-9)

    class UnitDirichlet(ZeroData):
        g_D = staticmethod(lambda p: np.ones(np.asarray(p).shape[:-1]))

    b = assemble_load(dofmap, params, UnitDirichlet)
    expected = params.beta / mesh.h * math.pi * domain_mixed.radius
    assert b.sum() == pytest.approx(expected, rel=1e-10)


def test_regularized_zero_epsilon_equals_standard(disc_mixed_8):
    dofmap, params = disc_mixed_8
    A = assemble_nitsche(dofmap, params)
    A0 = assemble_regularized(A, dofmap, params)
    assert abs(A0 - A).max() == 0.0


def test_regularized_asymmetry(disc_mixed_8):
    dofmap, params = disc_mixed_8
    mesh = dofmap.mesh
    eps = 0.1 * mesh.h**2
    A = assemble_nitsche(dofmap, params)
    A_eps = assemble_regularized(A, dofmap, params.with_epsilon(eps))
    assert abs(A_eps - A_eps.T).max() > 0.0


def test_nitsche_params_hold_epsilon_and_nothing_derived(disc_mixed_8):
    dofmap, params = disc_mixed_8
    mesh = dofmap.mesh
    assert [f.name for f in dataclasses.fields(NitscheParams)] == ["beta", "sigma", "epsilon"]
    for eps in (0.05 * mesh.h**2, 0.1 * mesh.h**2, 0.4 * mesh.h**2):
        assert params.with_epsilon(eps) == NitscheParams(params.beta, params.sigma, eps)
    assert params.with_epsilon(0.1 * mesh.h**2).with_epsilon(0.0) == params
    with pytest.raises(ValueError, match="nonnegative"):
        params.with_epsilon(-1e-3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["beta", "sigma", "epsilon"])
def test_nitsche_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .* finite, got {value}$"):
        NitscheParams(**{field: value})


def test_cutoff_weight_takes_delta_h_and_the_topology_domain(domain_mixed, disc_mixed_8):
    """The weight is the cutoff of (delta = h, epsilon) on ``dofmap.topology.domain``."""
    dofmap, params = disc_mixed_8
    rules = dofmap.rules
    mesh = dofmap.mesh
    assert dofmap.topology.domain is domain_mixed
    eps = 0.1 * mesh.h**2
    x = rules.neumann.points
    want = cutoff(domain_mixed, TubeParams(mesh.h, eps), x)
    assert np.array_equal(_cutoff_weight(dofmap, params.with_epsilon(eps))(x), want)
    assert want.max() > 0.0


def test_cutoff_paths_need_an_admissible_positive_epsilon(domain_mixed, disc_mixed_8):
    dofmap, params = disc_mixed_8
    problem = manufactured_smooth(domain_mixed)
    assert params.epsilon == 0.0
    with pytest.raises(ValueError, match="positive epsilon"):
        cutoff_flux_neumann(dofmap, params)
    # an epsilon past 0.75 R is refused where the cutoff is first built
    too_wide = params.with_epsilon(0.8 * domain_mixed.radius)
    with pytest.raises(ValueError, match="exceeds the admissible"):
        nitsche_action(dofmap, too_wide, problem)
    with pytest.raises(ValueError, match="exceeds the admissible"):
        assemble_regularized(assemble_nitsche(dofmap, params), dofmap, too_wide)


def test_form_gap_bounded_linearly_in_epsilon(domain_mixed, disc_mixed_16):
    """sup |gap(v, v)| / |||v|||^2 <= C eps / h, with the gap linear in eps.

    The sup is exact: the extreme generalized eigenvalue of the symmetric part
    of the gap against the energy Gram matrix.
    """
    dofmap, params = disc_mixed_16
    mesh = dofmap.mesh
    G = energy_gram(dofmap, assemble_ghost_penalty(dofmap, params)).toarray()
    h = mesh.h
    eps_values = [0.05 * h**2, 0.1 * h**2, 0.2 * h**2, 0.4 * h**2]
    sups = []
    for eps in eps_values:
        D = cutoff_flux_neumann(dofmap, params.with_epsilon(eps)).toarray()
        eigs = scipy.linalg.eigh(0.5 * (D + D.T), G, eigvals_only=True)
        worst = max(-eigs[0], eigs[-1])
        sups.append(worst)
        assert worst <= 10.0 * eps / h
    slope = np.polyfit(np.log(eps_values), np.log(sups), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_energy_norm_cases(domain_mixed, disc_mixed_8, rng):
    dofmap, params = disc_mixed_8
    mesh = dofmap.mesh
    S = assemble_ghost_penalty(dofmap, params)
    gram = energy_gram(dofmap, S)
    assert energy_norm(np.zeros(dofmap.ndof), gram) == 0.0
    # a constant has no gradient and no gradient jump: only its Dirichlet trace counts
    one = np.ones(dofmap.ndof)
    expected = math.sqrt(math.pi * domain_mixed.radius / mesh.h)
    assert energy_norm(one, gram) == pytest.approx(expected, rel=1e-10)
    # definition cross-check against the assembled pieces
    K = assemble_stiffness(dofmap)
    M = assemble_boundary_mass(dofmap)
    x = rng.standard_normal(dofmap.ndof)
    direct = x @ (K @ x) + x @ (S @ x) + x @ (M @ x) / mesh.h
    assert energy_norm(x, gram) ** 2 == pytest.approx(direct, rel=1e-12)


def test_coercivity_across_cut_sweep(domain_dirichlet):
    """Energy-metric eigenvalue of the stabilized operator stays above 0.1."""
    for n in (8, 16):
        for shift in sweep_shifts((-1, -1, 1, 1), n, 20):
            dofmap, params = discretize(domain_dirichlet, n, tol=1e-8, shift=shift)
            A = assemble_nitsche(dofmap, params)
            S = assemble_ghost_penalty(dofmap, params)
            G = energy_gram(dofmap, S)
            lam = scipy.linalg.eigh(
                (A + S).toarray(), G.toarray(), eigvals_only=True, subset_by_index=[0, 0]
            )[0]
            assert lam >= 0.1


def test_consistency_residual_smooth(domain_mixed):
    problem = manufactured_smooth(domain_mixed)
    assert consistency_residual(problem, n=16) < 1e-6


def solve_regularized_pivot(A_eps, S, b, u_h):
    """Regularized solve with the stabilizer applied to the standard solution ``u_h``.

    Only the nonsymmetric regularized operator is inverted, by SciPy's
    default sparse LU; the residual is checked as the solvers check theirs.
    """
    rhs = b - S @ u_h.coefficients
    x = spla.splu(A_eps.tocsc()).solve(rhs)
    assert np.linalg.norm(A_eps @ x - rhs) <= RESIDUAL_RTOL * np.linalg.norm(rhs)
    return x


def verify_regularized_identity(
    problem, n=16, epsilon=None, beta=10.0, sigma=0.1, box=DEFAULT_BOX, tol=1e-10,
    trials=20, seed=20260810,
):
    """Residual identity of the regularized method tested against random directions.

    With the stabilizer acting on the standard solution, the regularized
    residual at the exact solution reduces to the stabilizer term minus the
    cutoff-weighted Neumann data pairing; this evaluates both sides and
    returns the largest scaled mismatch.
    """
    dofmap, params = discretize(problem.domain, n, beta, sigma, box, tol)
    rules = dofmap.rules
    mesh = dofmap.mesh
    if epsilon is None:
        epsilon = 0.1 * mesh.h**2
    params_eps = params.with_epsilon(epsilon)
    system = assemble_system(dofmap, params, problem)
    u_h = solve_standard(system, dofmap).solution
    A_eps = assemble_regularized(system.A, dofmap, params_eps)
    pivot = solve_regularized_pivot(A_eps, system.S, system.b, u_h)

    action_u = nitsche_action(dofmap, params_eps, problem)
    lhs = action_u - A_eps @ pivot

    rule_n = rules.neumann
    coords, _, dofs = cell_geometry(dofmap)
    lam = _barycentric(coords[rule_n.owner], rule_n.points)
    chi = _cutoff_weight(dofmap, params_eps)
    w = rule_n.weights * chi(rule_n.points) * problem.g_N(rule_n.points)
    chi_load = _vector(dofmap.ndof, [dofs[rule_n.owner]], [lam * w[:, None]])
    rhs = system.S @ u_h.coefficients - chi_load

    rng = np.random.default_rng(seed)
    scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1.0)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(dofmap.ndof)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(float(v @ (lhs - rhs))) / scale)
    return worst


def test_regularized_residual_identity(domain_mixed):
    """Residual of the regularized method equals the stabilizer minus the
    cutoff-weighted Neumann pairing, to quadrature tolerance."""
    problem = manufactured_smooth(domain_mixed)
    mismatch = verify_regularized_identity(problem, n=16, trials=20)
    assert mismatch < 1e-6


def test_assemble_system_bundles(domain_mixed, disc_mixed_8):
    dofmap, params = disc_mixed_8
    problem = manufactured_smooth(domain_mixed)
    system = assemble_system(dofmap, params, problem)
    assert abs(system.A - assemble_nitsche(dofmap, params)).max() == 0.0
    assert abs(system.S - assemble_ghost_penalty(dofmap, params)).max() == 0.0
    assert np.array_equal(system.b, assemble_load(dofmap, params, problem))


@pytest.mark.parametrize("reach", [2.0, 1e-12])  # of the error norms, of the Dirichlet cells
def test_refined_cells_match_distance_definition(domain_mixed, reach):
    """The cells within ``reach`` h of a point, each with the first such point: error_norms
    refines those within 2h of a singular point, toward it."""
    for shift in ((0.0, 0.0), (0.013, 0.021)):
        dofmap, params = discretize(domain_mixed, 16, shift=shift)
        mesh, topo = dofmap.mesh, dofmap.topology
        coords = mesh.triangle_coords(topo.active)
        points = domain_mixed.junction_points
        expected = np.full(len(coords), -1)
        for t, tri in enumerate(coords):
            for i, z in enumerate(points):
                if _point_triangle_distance(z, tri) <= reach * mesh.h:
                    expected[t] = i
                    break
        found = _cells_near(points, topo, reach * mesh.h)
        assert np.array_equal(found, expected)
        assert (found == 0).any() and (found == 1).any()


def _cells_near_by_centroids(points, coords, h):
    """Oracle: the search by stored centroids that the index-based ``_cells_near`` replaced."""
    near = np.full(len(coords), -1)
    centroids = np.einsum("tkd->td", coords) / 3.0
    for i, z in enumerate(points):
        candidates = np.flatnonzero((near < 0) & (np.linalg.norm(centroids - z, axis=1) <= 3.0 * h))
        hit = _point_triangle_distance(z, coords[candidates]) <= 2.0 * h
        near[candidates[hit]] = i
    return near


@pytest.mark.parametrize("seed", range(6))
def test_cells_near_by_index_matches_the_centroid_search(domain_mixed, seed):
    """On a randomly shifted grid: a junction on a grid line, one on a grid vertex and two
    random points near the circle, each the first point some cell is near."""
    rng = np.random.default_rng(20261019 + seed)
    n = int(rng.integers(12, 48))
    shift = tuple(rng.uniform(-1.0, 1.0, 2) / n)
    dofmap, _ = discretize(domain_mixed, n, shift=shift)
    mesh, topo = dofmap.mesh, dofmap.topology
    a, b = mesh.triangle_coords(rng.choice(topo.cut, 2, replace=False))[:, 0]  # cells' v00
    on_line = (a[0], a[1] + rng.uniform(0.1, 0.9) * (mesh.ys[1] - mesh.ys[0]))
    angles = rng.uniform(0.0, 2.0 * math.pi, 2)
    radii = domain_mixed.radius * rng.uniform(0.9, 1.1, (2, 1))
    points = np.vstack([on_line, b, radii * np.c_[np.cos(angles), np.sin(angles)]])
    assert points[0, 0] in mesh.xs and points[1, 0] in mesh.xs and points[1, 1] in mesh.ys
    found = _cells_near(points, topo, 2.0 * mesh.h)
    assert np.array_equal(found, _cells_near_by_centroids(points, mesh.triangle_coords(topo.active), mesh.h))
    assert set(found[found >= 0]) == {0, 1, 2, 3}


def test_problem_callables_receive_point_arrays(domain_mixed, disc_mixed_16, rng):
    """The load, the actions and the error norms hand every problem callable an (N, 2) float
    array, whatever the layout of the volume points (cut rule, inside blocks, refined rule)."""
    dofmap, params = disc_mixed_16
    problem = manufactured_singular(domain_mixed)
    names = ("f", "u_and_grad")
    calls = {name: [] for name in names}

    def recorded(name, fn):
        def call(pts):
            calls[name].append((type(pts), pts.ndim, pts.dtype.type, pts.shape[-1]))
            return fn(pts)

        return call

    wrapped = dataclasses.replace(problem, **{k: recorded(k, getattr(problem, k)) for k in names})
    assemble_load(dofmap, params, wrapped)
    for p in (params, params.with_epsilon(0.1 * dofmap.mesh.h**2)):
        nitsche_action(dofmap, p, wrapped)
    u_h = FeFunction(rng.standard_normal(dofmap.ndof), dofmap)
    S = assemble_ghost_penalty(dofmap, params)
    for levels in (0, 8):
        error_norms(wrapped, u_h, S, levels)
    assert all(calls.values()), {k: len(v) for k, v in calls.items()}
    for name, seen in calls.items():
        assert set(seen) == {(np.ndarray, 2, np.float64, 2)}, name


def _coo_accumulate_lexsort(ndof, dofs, blocks):
    """Pattern oracle: the scatter ordered by a three-key lexsort (row, column, insertion)."""
    k = dofs.shape[1]
    r = np.repeat(dofs, k, axis=1).ravel()
    c = np.tile(dofs, (1, k)).ravel()
    v = blocks.ravel()
    if not len(v):
        return sp.csr_matrix((ndof, ndof))
    order = np.lexsort((np.arange(len(v)), c, r))
    r, c, v = r[order], c[order], v[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
    sums = np.add.reduceat(v, starts)
    return sp.csr_matrix((sums, (r[starts], c[starts])), shape=(ndof, ndof))


def _add_at(ndof, rows, cols, values):
    """Oracle: every entry summed from 0.0 in insertion order (``np.add.at``), exact zeros dropped."""
    dense = np.zeros((ndof, ndof))
    np.add.at(dense, (rows.ravel(), cols.ravel()), values.ravel())
    return sp.csr_matrix(dense)


def _blocks_add_at(ndof, dofs, blocks):
    """Oracle: local blocks (m, k, k) on dofs (m, k) summed block by block."""
    k = dofs.shape[1]
    return _add_at(ndof, np.repeat(dofs, k, axis=1), np.tile(dofs, (1, k)), blocks)


def _stiffness_add_at(dofmap, local):
    """Oracle: per-cell stiffness blocks summed in slice order, (parity, i, j), then cell by cell."""
    dofs = dofmap.active_dofs
    parity = dofmap.topology.active & 1
    parts = [
        (dofs[parity == p, i], dofs[parity == p, j], local[parity == p, i, j])
        for p, i, j in np.ndindex(2, 3, 3)
    ]
    return _add_at(dofmap.ndof, *(np.concatenate(a) for a in zip(*parts)))


def _csr_bits(M):
    return [(a.dtype.str, a.tobytes()) for a in (M.indptr, M.indices, M.data)]


@pytest.mark.parametrize("shift", [None, 7])
def test_energy_gram_is_bitwise_the_sum_of_its_parts(domain_dirichlet, domain_mixed, shift):
    """One compression of the stiffness stencil plus the scaled mass, then + S, against the sum of
    the assembled stiffness, the boundary mass times 1 / h and S."""
    for domain in (domain_dirichlet, domain_mixed):
        offset = (0.0, 0.0) if shift is None else sweep_shifts((-1, -1, 1, 1), 16, 20)[shift]
        dofmap, params = discretize(domain, 16, shift=offset)
        S = assemble_ghost_penalty(dofmap, params)
        h = dofmap.mesh.h
        oracle = assemble_stiffness(dofmap) + assemble_boundary_mass(dofmap) * (1.0 / h) + S
        assert _csr_bits(energy_gram(dofmap, S)) == _csr_bits(oracle)


def _pattern(M):
    M = M.tocsr()
    M.eliminate_zeros()
    return M.indptr.tolist(), M.indices.tolist()


def test_cell_scatter_matches_the_add_at_and_lexsort_oracles_on_random_blocks(domain_mixed):
    """Cells repeated within and across the draws, sums that cancel exactly, and no blocks."""
    dofmap, params = discretize(
        domain_mixed, 16, shift=sweep_shifts((-1, -1, 1, 1), 16, 20)[7]
    )
    dofs = dofmap.active_dofs
    gen = np.random.default_rng(5)
    for m, draw in ((400, gen.standard_normal), (2000, lambda size: gen.integers(-2, 3, size) * 1.0), (0, None)):
        cells = gen.integers(0, len(dofs), m)
        blocks = draw((m, 3, 3)) if m else np.zeros((0, 3, 3))
        got = _compress(dofmap, *_cell_scatter(dofmap, cells, blocks))
        assert _csr_bits(got) == _csr_bits(_blocks_add_at(dofmap.ndof, dofs[cells], blocks))
        assert _pattern(got) == _pattern(_coo_accumulate_lexsort(dofmap.ndof, dofs[cells], blocks))
        assert np.all(got.data != 0.0) and got.shape == (dofmap.ndof, dofmap.ndof)
    assert got.nnz == 0


def _ghost_blocks_sorted(dofmap, params, per_face=False):
    """Oracle: ghost-penalty blocks on the four face vertices in ascending order, by a stable sort.

    With ``per_face`` each face takes its own normal and length and its triangles the hat
    gradients of their own coordinates.  Without it a face takes the normal and length of the
    face of its kind at vertex 0 (rows 0, 1 and 2 of ``masked_faces``) and its triangles the
    reference gradients, as the assembly does, so that the two sum the same values.
    """
    mesh = dofmap.mesh
    vertices, triangles = grid_arrays(mesh)
    face_ends, face_tris = masked_faces(mesh.n)
    faces = np.searchsorted(face_keys(mesh.n, face_ends), dofmap.topology.ghost_faces)
    ends, tris = face_ends[faces], face_tris[faces]
    t1, t2 = tris.T
    if per_face:
        n1, edges = face_normal(mesh, ends, t1), ends
        grads = [hat_gradients(vertices[triangles[t]]) for t in (t1, t2)]
    else:
        kind = face_keys(mesh.n, ends) % 3
        n1, edges = face_normal(mesh, face_ends[:3], face_tris[:3, 0])[kind], face_ends[:3][kind]
        grads = [dofmap.reference_gradients[t & 1] for t in (t1, t2)]
    vids = np.concatenate([triangles[t1], triangles[t2]], axis=1)
    flux = [np.einsum("fkd,fd->fk", g, n1) for g in grads]
    flux = np.concatenate([flux[0], -flux[1]], axis=1)
    order = np.argsort(vids, axis=1, kind="stable")
    vids, flux = (np.take_along_axis(a, order, axis=1) for a in (vids, flux))
    first = np.c_[np.ones((len(faces), 1), dtype=bool), vids[:, 1:] != vids[:, :-1]]
    jump = np.zeros((len(faces), 4))
    np.add.at(jump, (np.arange(len(faces))[:, None], np.cumsum(first, axis=1) - 1), flux)
    coords = vertices[edges]
    scale = params.sigma * mesh.h * np.linalg.norm(coords[:, 1] - coords[:, 0], axis=-1)
    local = scale[:, None, None] * (jump[:, :, None] * jump[:, None, :])
    return dofmap.vertex_to_dof[vids[first].reshape(-1, 4)], local


def _operator_oracles(dofmap, params, scatter):
    """The operators from their local blocks through ``scatter(ndof, dofs, blocks)``, combined as CSR."""
    dofs, rules = dofmap.active_dofs, dofmap.rules
    h = dofmap.mesh.h

    def boundary(rule, weight=None):
        lam, flux = _boundary_local(dofmap, rule)
        w = rule.weights if weight is None else rule.weights * weight(rule.points)
        scaled = lam * np.sqrt(w)[:, None]
        mass = scaled[:, :, None] * scaled[:, None, :]
        return scatter(dofmap.ndof, dofs[rule.owner], mass), scatter(
            dofmap.ndof, dofs[rule.owner], lam[:, :, None] * (flux * w[:, None])[:, None, :]
        )

    vol = packed_volume_rule(rules)
    masses = np.bincount(vol.owner, vol.weights, minlength=len(dofs))
    ref = dofmap.reference_gradients
    local = (ref @ ref.transpose(0, 2, 1))[dofmap.topology.active & 1] * masses[:, None, None]
    K = _stiffness_add_at(dofmap, local) if scatter is _blocks_add_at else scatter(dofmap.ndof, dofs, local)
    M, B = boundary(rules.dirichlet)
    params_eps = params.with_epsilon(0.1 * h**2)
    C = boundary(rules.neumann, _cutoff_weight(dofmap, params_eps))[1]
    S = scatter(dofmap.ndof, *_ghost_blocks_sorted(dofmap, params))
    A = K - (B + B.T) + (params.beta / h) * M
    return {
        "K": K, "M": M, "C": C, "S": S, "A": A, "A + S": A + S, "G": K + M / h + S,
        "A_eps": A - C,
    }


def _operators(dofmap, params):
    params_eps = params.with_epsilon(0.1 * dofmap.mesh.h**2)
    A = assemble_nitsche(dofmap, params)
    S = assemble_ghost_penalty(dofmap, params)
    return {
        "K": assemble_stiffness(dofmap),
        "M": assemble_boundary_mass(dofmap),
        "C": cutoff_flux_neumann(dofmap, params_eps),
        "S": S,
        "A": A,
        "A + S": A + S,
        "G": energy_gram(dofmap, S),
        "A_eps": assemble_regularized(A, dofmap, params_eps),
    }


OPERATOR_GRIDS = [(8, 0), (16, 3), (16, 7), (16, 13), (64, 0)]


def _grid(domain, n, shift):
    return discretize(domain, n, shift=sweep_shifts((-1, -1, 1, 1), n, 20)[shift])


@pytest.mark.parametrize("n, shift", OPERATOR_GRIDS)
def test_operators_match_the_add_at_and_lexsort_oracles(domain_mixed, n, shift):
    """Every operator is bitwise the insertion-order scatter's and has the lexsort scatter's
    couplings, with no stored zeros; A, S and A + S are bitwise symmetric."""
    dofmap, params = _grid(domain_mixed, n, shift)
    got = _operators(dofmap, params)
    bitwise = _operator_oracles(dofmap, params, _blocks_add_at)
    pattern = _operator_oracles(dofmap, params, _coo_accumulate_lexsort)
    for name, M in got.items():
        assert M.format == "csr" and np.all(M.data != 0.0), name
        assert _csr_bits(M) == _csr_bits(bitwise[name].tocsr()), name
        assert _pattern(M) == _pattern(pattern[name]), name
    for name in ("A", "S", "A + S", "K", "M", "G"):
        assert (got[name] != got[name].T).nnz == 0, name


@pytest.mark.parametrize("n, shift", OPERATOR_GRIDS)
def test_factored_operator_has_the_lexsort_couplings_and_no_zeros(domain_mixed, n, shift):
    dofmap, params = _grid(domain_mixed, n, shift)
    system = assemble_system(dofmap, params, manufactured_singular(domain_mixed))
    K = solve_standard(system, dofmap).operator
    pattern = _operator_oracles(dofmap, params, _coo_accumulate_lexsort)
    assert _pattern(K) == _pattern(pattern["A + S"])
    assert np.all(K.data != 0.0) and (K != K.T).nnz == 0


def test_empty_rules_give_zero_operators(domain_mixed, domain_dirichlet):
    """No Neumann points on the Dirichlet disk, no Dirichlet points on the Neumann disk."""
    neumann_disk = LevelSetDomain(domain_mixed.center, domain_mixed.radius, ())
    for domain, empty in ((domain_dirichlet, "neumann"), (neumann_disk, "dirichlet")):
        dofmap, params = discretize(domain, 16)
        mesh = dofmap.mesh
        assert len(getattr(dofmap.rules, empty).weights) == 0
        params_eps = params.with_epsilon(0.1 * mesh.h**2)
        ops = [cutoff_flux_neumann(dofmap, params_eps)]
        if empty == "dirichlet":
            ops.append(assemble_boundary_mass(dofmap))
        for M in ops:
            assert M.shape == (dofmap.ndof, dofmap.ndof) and M.dtype == np.float64 and M.nnz == 0


def test_shared_pattern_arrays_are_read_only_and_unchanged(domain_mixed):
    """The stencil tables and the dofmap's cached cell arrays, which every operator reads."""
    dofmap, params = _grid(domain_mixed, 16, 7)
    shared = [space.STENCIL, space.CORNERS, space.PAIR_SLOTS, dofmap.reference_gradients]
    shared.append(dofmap.active_dofs)
    before = [a.copy() for a in shared]
    _operators(dofmap, params)
    solve_standard(assemble_system(dofmap, params, manufactured_smooth(domain_mixed)), dofmap)
    for a, b in zip(shared, before):
        assert not a.flags.writeable
        assert np.array_equal(a, b)
    assert shared[3] is dofmap.reference_gradients and shared[4] is dofmap.active_dofs
    with pytest.raises(ValueError, match="read-only"):
        space.PAIR_SLOTS[0, 0, 0] = 0


def boundary_load_pointwise(dofmap, params, data):
    """Oracle: the Neumann and Dirichlet data terms of the load."""
    h = dofmap.mesh.h
    dofs = dofmap.active_dofs
    rule_n, rule_d = dofmap.rules.neumann, dofmap.rules.dirichlet
    lam_n, _ = _boundary_local(dofmap, rule_n)
    lam_d, flux_d = _boundary_local(dofmap, rule_d)
    gd = rule_d.weights * data.g_D(rule_d.points)
    values = [
        lam_n * (rule_n.weights * data.g_N(rule_n.points))[:, None],
        (params.beta / h) * lam_d * gd[:, None] - flux_d * gd[:, None],
    ]
    return _vector(dofmap.ndof, [dofs[rule_n.owner], dofs[rule_d.owner]], values)


def load_pointwise(dofmap, params, data):
    """Oracle: the load with hat values from barycentric coordinates at every volume point."""
    coords, grads, dofs = cell_geometry(dofmap)
    b = boundary_load_pointwise(dofmap, params, data)
    vol = packed_volume_rule(dofmap.rules)
    lam = _barycentric(coords[vol.owner], vol.points)
    wf = vol.weights * data.f(vol.points)
    return b + _vector(dofmap.ndof, [dofs[vol.owner]], [lam * wf[:, None]])


def error_norms_pointwise(problem, u_h, stabilizer, refine_levels=0):
    """Oracle: the error norms with u_h from barycentric coordinates at every volume point,
    over one concatenated copy of the bulk rule without the refined cells and the refined rule."""
    dofmap = u_h.dofmap
    h, rules = dofmap.mesh.h, dofmap.rules
    coords, grads, dofs = cell_geometry(dofmap)
    vol = packed_volume_rule(rules)
    if refine_levels and len(problem.singular_points):
        singular = np.asarray(problem.singular_points, dtype=float)
        target = _cells_near(singular, dofmap.topology, 2.0 * h)
        cells = np.flatnonzero(target >= 0)
        keep = target[vol.owner] < 0
        refined = refine_rule_toward(
            coords[cells], problem.domain, singular[target[cells]], rules.tol, refine_levels
        )
        vol = PackedRule(
            np.concatenate([vol.points[keep], refined.points]),
            np.concatenate([vol.weights[keep], refined.weights]),
            np.concatenate([vol.owner[keep], cells[refined.owner]]),
        )
    vals = u_h.coefficients[dofs]
    grad_h = np.einsum("tk,tkd->td", vals, grads)
    diff_grad = problem.u_and_grad(vol.points)[1] - grad_h[vol.owner]
    grad_sq = float(vol.weights @ (diff_grad**2).sum(axis=1))
    lam = _barycentric(coords[vol.owner], vol.points)
    diff = problem.u(vol.points) - (lam * vals[vol.owner]).sum(axis=1)
    l2_sq = float(vol.weights @ diff**2)
    rule_d = rules.dirichlet
    lam_d = _barycentric(coords[rule_d.owner], rule_d.points)
    diff = problem.u(rule_d.points) - (lam_d * vals[rule_d.owner]).sum(axis=1)
    trace_sq = float(rule_d.weights @ diff**2)
    energy = float(np.sqrt(grad_sq + trace_sq / h))
    return ErrorNorms(energy, energy_norm(u_h, stabilizer), float(np.sqrt(l2_sq)))


def _problem(name, domain_mixed, domain_dirichlet):
    if name == "smooth-mixed":
        return manufactured_smooth(domain_mixed)
    if name == "smooth-dirichlet":
        return manufactured_smooth(domain_dirichlet)
    if name == "singular-mixed":
        return manufactured_singular(domain_mixed)
    # the smooth solution, with the rule refined toward the junctions
    problem = manufactured_smooth(domain_mixed)
    return dataclasses.replace(problem, singular_points=tuple(map(tuple, domain_mixed.junction_points)))


@pytest.mark.parametrize("refine_levels", [0, 8])
@pytest.mark.parametrize("shift", [None, 7])
@pytest.mark.parametrize("name", ["smooth-mixed", "smooth-dirichlet", "singular-mixed", "smooth-graded"])
def test_volume_terms_match_the_pointwise_oracles(
    domain_mixed, domain_dirichlet, name, shift, refine_levels
):
    """Per-cell moments and u_h affine on its cell agree with pointwise barycentrics."""
    problem = _problem(name, domain_mixed, domain_dirichlet)
    n = 16
    offset = (0.0, 0.0) if shift is None else sweep_shifts((-1, -1, 1, 1), n, 20)[shift]
    dofmap, params = discretize(problem.domain, n, shift=offset)
    system = assemble_system(dofmap, params, problem)
    want = load_pointwise(dofmap, params, problem)
    assert np.abs(system.b - want).max() <= 1e-12 * np.abs(want).max()
    u_h = solve_standard(system, dofmap).solution
    got = error_norms(problem, u_h, system.S, refine_levels)
    want = error_norms_pointwise(problem, u_h, system.S, refine_levels)
    for field in ("energy", "sh", "l2"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shift", [None, 7])
def test_zero_source_gives_the_boundary_load(domain_mixed, shift):
    problem = manufactured_smooth(domain_mixed)
    no_source = dataclasses.replace(problem, f=lambda p: np.zeros(np.asarray(p).shape[:-1]))
    offset = (0.0, 0.0) if shift is None else sweep_shifts((-1, -1, 1, 1), 16, 20)[shift]
    dofmap, params = discretize(domain_mixed, 16, shift=offset)
    b = assemble_load(dofmap, params, no_source)
    assert np.abs(b).max() > 0.0
    assert np.array_equal(b, boundary_load_pointwise(dofmap, params, no_source))


def _stiffness_einsum(dofmap):
    """Oracle: stiffness blocks from per-cell hat gradients in a three-operand einsum."""
    coords, _, dofs = cell_geometry(dofmap)
    grads = hat_gradients(coords)
    vol = packed_volume_rule(dofmap.rules)
    masses = np.bincount(vol.owner, vol.weights, minlength=len(dofs))
    return _stiffness_add_at(dofmap, np.einsum("tid,tjd,t->tij", grads, grads, masses))


@pytest.mark.parametrize("n", [8, 32])
def test_stiffness_is_bitwise_the_einsum_on_a_dyadic_grid(domain_mixed, n):
    dofmap, params = discretize(domain_mixed, n)
    want = _stiffness_einsum(dofmap)
    assert _csr_bits(assemble_stiffness(dofmap)) == _csr_bits(want)


# around the disk of radius 0.7 at the origin: square, stretched to 4.2, off centre
STIFFNESS_BOXES = [(-1.0, -1.0, 1.0, 1.0), (-3.78, -0.9, 3.78, 0.9), (-0.93, -0.95, 1.3, 1.1)]


@pytest.mark.parametrize("n", [16, 33, 64])
@pytest.mark.parametrize("box", STIFFNESS_BOXES)
def test_stiffness_by_parity_matches_the_einsum_and_operators_stay_symmetric(
    domain_mixed, box, n
):
    for shift in sweep_shifts(box, n, 20)[::6]:
        dofmap, params = discretize(domain_mixed, n, box=box, shift=shift)
        mesh = dofmap.mesh
        K, want = assemble_stiffness(dofmap), _stiffness_einsum(dofmap)
        assert np.array_equal(K.indptr, want.indptr) and np.array_equal(K.indices, want.indices)
        err = np.abs(K.data - want.data).max() / np.abs(want.data).max()
        assert err <= reference_tolerance(mesh, box, n), shift
        A = assemble_nitsche(dofmap, params)
        S = assemble_ghost_penalty(dofmap, params)
        # the ghost penalty's three blocks per face kind against per-face normals and lengths
        want = _coo_accumulate_lexsort(dofmap.ndof, *_ghost_blocks_sorted(dofmap, params, True))
        assert abs(S - want).max() <= reference_tolerance(mesh, box, n) * abs(want).max(), shift
        for M in (K, A, S):
            assert (M != M.T).nnz == 0, shift


def _all_packed(dofmap):
    """Oracle: the dofmap with every active cell in the packed volume rule and no inside blocks,
    so that each consumer sums every cell by ``np.bincount`` over its points."""
    rules = dofmap.rules
    empty = [dataclasses.replace(r, cells=r.cells[:0]) for r in rules.inside]
    packed = dataclasses.replace(rules, volume=packed_volume_rule(rules), inside=tuple(empty))
    return dataclasses.replace(dofmap, rules=packed)


def _assert_inside_path_matches_the_packed_oracle(dofmap, params, problem, u_h, cutoff=True):
    """Stiffness bitwise; load, actions (with the cutoff if ``cutoff``) and error norms,
    refined and not, to 1e-12 relative."""
    packed = _all_packed(dofmap)
    K = assemble_stiffness(dofmap)
    assert _csr_bits(K) == _csr_bits(assemble_stiffness(packed))
    vectors = [lambda d: assemble_load(d, params, problem)]
    for p in (params, params.with_epsilon(0.1 * dofmap.mesh.h**2))[: 1 + cutoff]:
        vectors.append(lambda d, p=p: nitsche_action(d, p, problem))
    for vector in vectors:
        got, want = vector(dofmap), vector(packed)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    S = assemble_ghost_penalty(dofmap, params)
    u_packed = FeFunction(u_h.coefficients, packed)
    for levels in (0, 8):
        got = error_norms(problem, u_h, S, levels)
        want = error_norms(problem, u_packed, S, levels)
        for field in ("energy", "sh", "l2"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shift", [None, 3, 7, 13])
@pytest.mark.parametrize("n", [16, 64])
def test_inside_blocks_match_the_packed_rule_oracle(domain_mixed, n, shift):
    """The inside cells' per-block reductions against bincounts over their packed points."""
    offset = (0.0, 0.0) if shift is None else sweep_shifts((-1, -1, 1, 1), n, 20)[shift]
    dofmap, params = discretize(domain_mixed, n, shift=offset)
    rules = dofmap.rules
    assert all(len(r.cells) for r in rules.inside) and len(rules.volume.weights)
    problem = _problem("smooth-graded", domain_mixed, None)  # a source, refined at the junctions
    u_h = solve_standard(assemble_system(dofmap, params, problem), dofmap).solution
    _assert_inside_path_matches_the_packed_oracle(dofmap, params, problem, u_h)


def _level(domain, box, n):
    return build_dofmap(build_rules(classify(build_background(box, n), domain))), NitscheParams()


def test_fitted_square_without_cut_cells(rng):
    """A disk covering the n = 1 box: two inside cells, an empty cut rule, a nonzero stiffness."""
    domain = LevelSetDomain((0.0, 0.0), 2.0, ((0.0, math.pi),))
    dofmap, params = _level(domain, (-0.5, -0.5, 0.5, 0.5), 1)
    rules = dofmap.rules
    assert len(rules.volume.weights) == len(rules.dirichlet.weights) == len(rules.neumann.weights) == 0
    assert [len(r.cells) for r in rules.inside] == [1, 1]
    K = assemble_stiffness(dofmap).toarray()
    assert K.dtype == np.float64
    assert K.diagonal() == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-14)  # the unit square's hats
    assert np.abs(K @ np.ones(4)).max() <= 1e-15
    # a singular point within 2h of both cells: refined, they leave the inside blocks empty
    problem = dataclasses.replace(manufactured_smooth(domain), singular_points=((0.3, 0.2),))
    u_h = FeFunction(rng.standard_normal(dofmap.ndof), dofmap)
    _assert_inside_path_matches_the_packed_oracle(dofmap, params, problem, u_h)
    b = assemble_load(dofmap, params, problem)
    assert b.dtype == np.float64 and np.abs(b).max() > 0.0


def test_grid_without_inside_cells(domain_mixed, rng):
    """At n = 2 every active triangle has the disk's centre as a vertex and reaches past the disk.

    Its h is above the collar limit, as it is wherever no cell lies inside, so no cutoff is built.
    """
    dofmap, params = _level(domain_mixed, (-1.0, -1.0, 1.0, 1.0), 2)
    rules = dofmap.rules
    assert [len(r.cells) for r in rules.inside] == [0, 0]
    assert np.array_equal(np.unique(rules.volume.owner), np.arange(len(dofmap.topology.active)))
    problem = manufactured_singular(domain_mixed)
    u_h = FeFunction(rng.standard_normal(dofmap.ndof), dofmap)
    _assert_inside_path_matches_the_packed_oracle(dofmap, params, problem, u_h, cutoff=False)
