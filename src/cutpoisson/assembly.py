"""Assembly of the Nitsche bilinear forms, ghost-penalty stabilizer, and loads.

Matrix orientation: entry (i, j) is the form evaluated at trial function j and
test function i, so solving ``A x = b`` realizes "find u with form(u, v) =
load(v) for all v".  All boundary terms of a matrix reuse the same quadrature
rules, which makes the standard Nitsche matrix exactly symmetric in floating
point.  Volume terms need no barycentric coordinates, as a P1 function is
affine on each cell: a load comes from per-cell moments about the centroid c,
and u_h at a point x is its value at c plus its cell gradient dotted with x - c.
The load, the Nitsche action and the error norms each integrate over the volume
by one ``RuleSet.cell_sums`` call, which sums their integrand's columns per active
cell over the points of every layout; only the stiffness reads ``rules.inside``.
Every term reads ``dofmap.rules``, the rules the dofmap was numbered on.
Every grid triangle is a translate of triangle ``t & 1``, so hat gradients come
from the dofmap's two ``reference_gradients`` and the stiffness local block of
a cell is one of two fixed 3 x 3 Gram blocks times the cell's cut area.  Every
face is a translate of one of the three faces of vertex 0, so the ghost-penalty
block of a face is one of three fixed 4 x 4 blocks, one per face kind, and no
face normal or length is computed per face.  No per-cell geometry is stored: a
term over some cells (boundary points, refined cells) computes their
coordinates from the ids as ``mesh.triangle_coords(active[cells])``, and a
product over every cell gathers the gradients by parity for that product only.
The boundary terms read ``rules.dirichlet`` and ``rules.neumann`` apart, and
``_boundary_local`` is the one place that evaluates the hat values and normal
fluxes at their points: each term evaluates a rule once and builds its blocks
from those values.

Every coupling of a P1 form or a ghost face joins a vertex to one at one of
the 13 grid offsets of ``space.STENCIL``, so an operator is built as a stencil
array, entry (r, k) coupling dof r to the vertex at offset k from its own, over
every dof (stiffness) or the rows a boundary or face term touches, and it is
compressed once to CSR with no sort: columns ascending, exact zeros dropped as
a sparse sum drops them.  Each entry is summed from 0.0: the stiffness adds 18
slices, one per (parity, i, j) in that order, on a 13-row grid array over the
vertices of the active cells' index range; the boundary and face terms add in
insertion order (``np.bincount``).  So entries (i, j) and (j, i) of a symmetric
form see the same addends in the same order and stay bitwise equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from cutpoisson.geometry import collar, cutoff
from cutpoisson.mesh import FACE_ENDS, FACE_TRIANGLES, _point_triangle_distance
from cutpoisson.quadrature import REFINE_LEVELS, _barycentric, refine_rule_toward
from cutpoisson.space import CORNERS, PAIR_SLOTS, STENCIL, FeFunction, stencil_slot
from cutpoisson.space import hat_gradients  # noqa: F401 (re-export)


@dataclass(frozen=True)
class NitscheParams:
    """Penalty and stabilization parameters of the discrete forms.

    ``epsilon = 0`` selects the standard method; a positive value selects the
    regularized form whose Dirichlet flux term is weighted by the cutoff.
    Epsilon is held here only: each cutoff derives its collar, delta = h and
    ``epsilon``, with ``geometry.collar`` from the dofmap's mesh and domain,
    which rejects an epsilon past the admissible limit.
    """

    beta: float = 10.0
    sigma: float = 0.1
    epsilon: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")

    def with_epsilon(self, epsilon):
        return replace(self, epsilon=epsilon)


@dataclass
class SystemMatrices:
    """Assembled operator, stabilizer, and load of one discrete problem."""

    A: sp.csr_matrix
    S: sp.csr_matrix
    b: np.ndarray


def _scatter(dofmap, dofs, slots, blocks):
    """Stencil array of local blocks (m, k, k) on ``dofs`` (m, k), block entry (a, b) at ``slots``.

    Returns the array over the rows of the dofs touched only, and those dofs in ascending order;
    a negative dof, on a vertex off the active mesh, raises ``ValueError``.
    """
    if dofs.size and dofs.min() < 0:
        raise ValueError(f"a local block is placed on dof {dofs.min()}, off the active mesh")
    touched = np.zeros(dofmap.ndof, dtype=bool)
    touched[dofs] = True
    width = len(STENCIL)
    flat = (np.cumsum(touched) - 1)[dofs][:, :, None] * width + slots
    rows = np.flatnonzero(touched)
    sums = np.bincount(flat.ravel(), blocks.ravel(), minlength=len(rows) * width)
    return sums.astype(float, copy=False).reshape(-1, width), rows  # bincount of nothing is int


def _cell_scatter(dofmap, cells, blocks):
    """Stencil array of 3 x 3 blocks on the active cells ``cells``, and its rows' dofs."""
    dofs = dofmap.active_dofs[cells]
    return _scatter(dofmap, dofs, PAIR_SLOTS[dofmap.topology.active[cells] & 1], blocks)


def _compress(dofmap, stencil, rows=None):
    """CSR matrix of the stencil array of the dofs ``rows`` (all dofs if None) without its zeros;
    a column outside [0, ndof), on a vertex off the active mesh, raises ``ValueError``."""
    flat = np.flatnonzero(stencil != 0.0)
    row = flat // len(STENCIL) if rows is None else rows[flat // len(STENCIL)]
    offsets = STENCIL @ (dofmap.mesh.n + 1, 1)  # vertex id offsets
    cols = dofmap.vertex_to_dof[dofmap.dof_to_vertex[row] + offsets[flat % len(STENCIL)]]
    off = (cols < 0) | (cols >= dofmap.ndof)
    if off.any():
        raise ValueError(f"a stencil entry of dof {row[off][0]} has a column off the active mesh")
    indptr = np.r_[0, np.cumsum(np.bincount(row, minlength=dofmap.ndof))]
    return sp.csr_matrix((stencil.ravel()[flat], cols, indptr), shape=(dofmap.ndof, dofmap.ndof))


def _vector(ndof, dofs, values):
    """Global vector from local contributions (n, 3) on dofs (n, 3), over several parts."""
    return np.bincount(
        np.concatenate(dofs).ravel(), np.concatenate(values).ravel(), minlength=ndof
    )


def _cell_gradients(dofmap):
    """Hat gradients (m, 3, 2) of every active cell, gathered by parity from the two reference
    blocks for one all-cell product and not kept."""
    return np.take(dofmap.reference_gradients, dofmap.topology.active & 1, axis=0)


def _boundary_local(dofmap, rule):
    """Hat values and normal fluxes grad(phi_j) . n (both (nq, 3)) at a boundary rule's points."""
    cells = dofmap.topology.active[rule.owner]
    lam = _barycentric(dofmap.mesh.triangle_coords(cells), rule.points)
    grads = dofmap.reference_gradients[cells & 1]
    return lam, np.einsum("qd,qjd->qj", rule.normals, grads)


def _stiffness_stencil(dofmap):
    """Stencil array of the gradient-gradient form over the cut domain.

    Cell T adds ``G[T & 1] * |T cap Omega|``, ``G`` the bitwise symmetric Gram blocks of the
    reference gradients: entry (i, j) of parity p is one slice-add over the cells of the
    active cells' index range, the window the grid array covers.
    """
    mesh, active, rules = dofmap.mesh, dofmap.topology.active, dofmap.rules
    ref = dofmap.reference_gradients
    gram = ref @ ref.transpose(0, 2, 1)
    i, j = np.divmod(active >> 1, mesh.n)
    i0, j0 = i.min(initial=mesh.n), j.min(initial=mesh.n)  # an empty range without cells
    wi, wj = i.max(initial=i0 - 1) - i0 + 1, j.max(initial=j0 - 1) - j0 + 1
    mass = np.zeros((2, wi, wj))  # by parity
    where = (active & 1, i - i0, j - j0)
    mass[where] = np.bincount(rules.volume.owner, rules.volume.weights, minlength=len(active))
    for rule in rules.inside:
        mass[tuple(w[rule.cells] for w in where)] = np.cumsum(rule.weights)[-1]  # as bincount sums
    grid = np.zeros((len(STENCIL), wi + 1, wj + 1))
    for p, a, b in np.ndindex(2, 3, 3):
        di, dj = CORNERS[p, a]
        grid[PAIR_SLOTS[p, a, b], di : di + wi, dj : dj + wj] += gram[p, a, b] * mass[p]
    vi, vj = np.divmod(dofmap.dof_to_vertex, mesh.n + 1)
    return grid.reshape(len(STENCIL), -1).T[(vi - i0) * (wj + 1) + vj - j0]  # the rows of the dofs


def _mass_blocks(lam, w):
    """Local blocks (nq, 3, 3) of the boundary mass from hat values ``lam`` and weights ``w``."""
    scaled = lam * np.sqrt(w)[:, None]  # Gram form keeps the block bitwise symmetric
    return scaled[:, :, None] * scaled[:, None, :]


def _flux_blocks(lam, flux, w):
    """Local blocks (nq, 3, 3) of the boundary flux pairing (grad(phi_j) . n, phi_i)."""
    return lam[:, :, None] * (flux * w[:, None])[:, None, :]  # test i rows, trial j cols


def assemble_stiffness(dofmap):
    """Gradient-gradient form over the cut domain: (grad u, grad v) on each T cap Omega."""
    return _compress(dofmap, _stiffness_stencil(dofmap))


def assemble_boundary_mass(dofmap):
    """Mass matrix on the Dirichlet part of the boundary."""
    rule = dofmap.rules.dirichlet
    blocks = _mass_blocks(_boundary_local(dofmap, rule)[0], rule.weights)
    return _compress(dofmap, *_cell_scatter(dofmap, rule.owner, blocks))


def assemble_nitsche(dofmap, params):
    """Standard symmetric Nitsche operator with Dirichlet penalty, K - (B + B^T) + (beta / h) M.

    B^T is scattered from the transposed blocks of B; grouping the two flux terms keeps the
    matrix bitwise symmetric.
    """
    return _dirichlet_forms(dofmap, params, None)[0]


def _dirichlet_forms(dofmap, params, stabilizer):
    """The Nitsche operator of ``params`` and the energy Gram matrix with ``stabilizer``, in order;
    either is left out where its argument is None.

    Both are the stiffness stencil plus Dirichlet terms scattered on the rows of the rule's cells,
    compressed once: the operator's - (B + B^T) + (beta / h) M, the Gram matrix's M (1 / h), to
    which ``stabilizer`` is added as a sparse sum.  The two share one stiffness stencil and one
    evaluation of the Dirichlet rule.
    """
    rule, h = dofmap.rules.dirichlet, dofmap.mesh.h
    lam, grad_n = _boundary_local(dofmap, rule)
    mass, dofs = _cell_scatter(dofmap, rule.owner, _mass_blocks(lam, rule.weights))
    stiffness = _stiffness_stencil(dofmap)
    forms = []
    if params is not None:
        B = _flux_blocks(lam, grad_n, rule.weights)
        flux = _cell_scatter(dofmap, rule.owner, B)[0]
        flux += _cell_scatter(dofmap, rule.owner, B.transpose(0, 2, 1))[0]
        stencil = stiffness if stabilizer is None else stiffness.copy()
        stencil[dofs] = stencil[dofs] - flux + mass * (params.beta / h)
        forms.append(_compress(dofmap, stencil))
    if stabilizer is not None:
        stiffness[dofs] = stiffness[dofs] + mass * (1.0 / h)
        forms.append(_compress(dofmap, stiffness) + stabilizer)
    return forms


def _cutoff_weight(dofmap, params):
    """The cutoff of the regularized method as a weight on points."""
    if not params.epsilon > 0.0:
        raise ValueError("the cutoff needs a positive epsilon; epsilon = 0 is the standard method")
    domain = dofmap.topology.domain
    widths = collar(domain, dofmap.mesh.h, params.epsilon)
    return lambda pts: cutoff(domain, widths, pts)


def cutoff_flux_neumann(dofmap, params):
    """Cutoff-weighted flux pairing over the Neumann boundary only.

    This is exactly the difference between the standard and regularized
    operators, since the cutoff equals one on the Dirichlet part.  The cutoff
    vanishes outside a collar around the Dirichlet arcs, where a point's blocks
    are +-0, which add nothing to a sum and which ``_compress`` would drop: hat
    values and fluxes are evaluated, and blocks scattered, only at the points
    where the cutoff is nonzero, which gives the matrix of the whole rule bitwise.
    """
    rule = dofmap.rules.neumann
    chi = _cutoff_weight(dofmap, params)(rule.points)
    reached = chi != 0.0
    rule, chi = rule.select(reached), chi[reached]
    blocks = _flux_blocks(*_boundary_local(dofmap, rule), rule.weights * chi)
    return _compress(dofmap, *_cell_scatter(dofmap, rule.owner, blocks))


def assemble_regularized(A, dofmap, params):
    """Regularized Nitsche operator from the assembled standard operator ``A``.

    The Dirichlet flux term of the regularized form is weighted by the cutoff
    of ``params.epsilon``, which equals one on the Dirichlet part, so the operator
    is ``A`` minus the cutoff-weighted Neumann flux pairing.  At epsilon = 0 it
    is ``A`` itself.
    """
    if params.epsilon == 0.0:
        return A
    return (A - cutoff_flux_neumann(dofmap, params)).tocsr()


# The ghost faces of each kind k, from their low end: the grid offsets (4, 2) of their four
# vertices, ascending; whether corner c of their side s is vertex a, at [k, s, c, a]; and the
# stencil slot of vertex b from vertex a, at [k, a, b].
_corners = FACE_TRIANGLES[..., None, 1:] + CORNERS[FACE_TRIANGLES[..., 0]]  # (3, 2, 3, 2)
_FACE_OFFSETS = np.array([np.unique(c.reshape(-1, 2), axis=0) for c in _corners])
_FACE_IS_VERTEX = np.all(_corners[..., None, :] == _FACE_OFFSETS[:, None, None], axis=-1)
_FACE_SLOTS = stencil_slot(_FACE_OFFSETS[:, None] - _FACE_OFFSETS[:, :, None])
for _table in (_FACE_OFFSETS, _FACE_IS_VERTEX, _FACE_SLOTS):
    _table.flags.writeable = False


def assemble_ghost_penalty(dofmap, params):
    """Face-jump stabilizer sigma * h * sum_F int_F [grad_n u][grad_n v].

    The jump j of a face lives on four vertices: its two ends, where the one-sided fluxes of its
    two triangles are added in triangle order, and the apex of each triangle.  Every face of
    one kind (up, right, diagonal) is a translate of that kind's face at vertex 0, so the
    penalty is three constant blocks sigma h |F_k| j_k j_k^T, scattered on the vertices
    v + offsets[k] of each ghost face 3 v + k (``CutTopology.ghost_faces``).  A block is even
    in the normal, so the normal of a kind is its tangent turned clockwise, on either side.
    """
    mesh, n = dofmap.mesh, dofmap.mesh.n
    tangents = FACE_ENDS * mesh.reference_triangles[0, 2]
    lengths = np.linalg.norm(tangents, axis=1)
    normals = tangents[:, ::-1] * (1.0, -1.0) / lengths[:, None]
    flux = np.einsum("kscd,kd->ksc", dofmap.reference_gradients[FACE_TRIANGLES[..., 0]], normals)
    jumps = np.einsum("ksca,s,ksc->ka", _FACE_IS_VERTEX, [1.0, -1.0], flux)
    scale = params.sigma * mesh.h * lengths
    blocks = scale[:, None, None] * (jumps[:, :, None] * jumps[:, None, :])
    v, kind = np.divmod(dofmap.topology.ghost_faces, 3)
    dofs = dofmap.vertex_to_dof[v[:, None] + (_FACE_OFFSETS @ (n + 1, 1))[kind]]
    return _compress(dofmap, *_scatter(dofmap, dofs, _FACE_SLOTS[kind], blocks[kind]))


def assemble_load(dofmap, params, data):
    """Load vector with source, Neumann flux, and Dirichlet Nitsche data terms.

    The source adds m0 / 3 + grad(phi) . m1 per cell, with m0 = sum w f, m1 = sum w f (x - c).
    """
    dofs, rules = dofmap.active_dofs, dofmap.rules
    rule_n, rule_d = rules.neumann, rules.dirichlet
    lam_n, _ = _boundary_local(dofmap, rule_n)
    lam_d, flux_d = _boundary_local(dofmap, rule_d)
    gd = rule_d.weights * data.g_D(rule_d.points)

    def source(points, cells, offsets):
        f = data.f(points.reshape(-1, 2)).reshape(points.shape[:2])
        return f, f * offsets[..., 0], f * offsets[..., 1]

    moments = rules.cell_sums(source, None)  # m0, then m1 by component
    values = [
        lam_n * (rule_n.weights * data.g_N(rule_n.points))[:, None],
        (params.beta / dofmap.mesh.h) * lam_d * gd[:, None] - flux_d * gd[:, None],
        moments[0][:, None] / 3.0 + np.einsum("tkd,dt->tk", _cell_gradients(dofmap), moments[1:]),
    ]
    return _vector(dofmap.ndof, [dofs[rule_n.owner], dofs[rule_d.owner], dofs], values)


def _check_dirichlet_points(dofmap):
    """Raise ``ValueError`` if the rules hold no Dirichlet point: Neumann data fix u only up to
    a constant, so no standard system is solved."""
    if not len(dofmap.rules.dirichlet.weights):
        raise ValueError(f"level n = {dofmap.mesh.n}: the rules hold no Dirichlet point")


def assemble_system(dofmap, params, data):
    """Standard operator, stabilizer, and load of the discrete problem in one bundle.

    The regularized operator is ``assemble_regularized(system.A, ...)``; it
    shares the stabilizer and the load.
    """
    _check_dirichlet_points(dofmap)
    A = assemble_nitsche(dofmap, params)
    S = assemble_ghost_penalty(dofmap, params)
    b = assemble_load(dofmap, params, data)
    return SystemMatrices(A, S, b)


def nitsche_action(dofmap, params, problem):
    """Vector of the form of ``params`` applied to the solution of ``problem``.

    Entry i is form(u, phi_i), with the exact solution entering through its
    analytic values and gradients, ``problem.u_and_grad``, at the quadrature
    points.  A positive ``params.epsilon`` selects the cutoff-weighted form.
    """
    chi = _cutoff_weight(dofmap, params) if params.epsilon > 0.0 else None
    h, dofs, rules = dofmap.mesh.h, dofmap.active_dofs, dofmap.rules
    rule_d, rule_n = rules.dirichlet, rules.neumann

    def gradient(points, cells, offsets):
        g = problem.u_and_grad(points.reshape(-1, 2))[1].reshape(points.shape)
        return g[..., 0], g[..., 1]

    flux_int = rules.cell_sums(gradient, None)
    lam, flux = _boundary_local(dofmap, rule_d)
    w = rule_d.weights
    u, grad_u = problem.u_and_grad(rule_d.points)
    un = (grad_u * rule_d.normals).sum(axis=1)
    uv = w * u
    w_flux = w if chi is None else w * chi(rule_d.points)
    parts = [dofs, dofs[rule_d.owner]]
    values = [
        np.einsum("tkd,dt->tk", _cell_gradients(dofmap), flux_int),
        (params.beta / h) * lam * uv[:, None] - flux * uv[:, None] - lam * (w_flux * un)[:, None],
    ]
    if chi is not None:
        lam_n, _ = _boundary_local(dofmap, rule_n)
        un_n = (problem.u_and_grad(rule_n.points)[1] * rule_n.normals).sum(axis=1)
        parts.append(dofs[rule_n.owner])
        values.append(-lam_n * (rule_n.weights * chi(rule_n.points) * un_n)[:, None])
    return _vector(dofmap.ndof, parts, values)


def energy_gram(dofmap, stabilizer):
    """Gram matrix of the energy norm: gradient and Dirichlet trace parts plus ``stabilizer``.

    The trace part, the boundary mass times 1 / h, is added to the stiffness stencil before
    the one compression, which gives the entries of the sum of the two matrices bitwise.
    """
    return _dirichlet_forms(dofmap, None, stabilizer)[0]


def energy_norm(v, gram):
    """Energy norm of a finite element function from its Gram matrix."""
    x = v.coefficients if isinstance(v, FeFunction) else np.asarray(v)
    return float(np.sqrt(max(0.0, x @ (gram @ x))))


@dataclass
class ErrorNorms:
    """Error measures of a discrete solution against an analytic field."""

    energy: float
    sh: float
    l2: float


def _cells_near(points, topology, reach):
    """Per active cell, the index of the first point within ``reach`` of the closed triangle, or -1.

    Every vertex of grid cell (i, j) lies within h of its vertex 0, (xs[i], ys[j]), so a
    triangle within ``reach`` of z has its vertex 0 within reach + h of z: only the cells with
    vertex 0 within reach + 2h, which leaves room for rounding, are measured.
    """
    mesh, active = topology.mesh, topology.active
    near = np.full(len(active), -1)
    i, j = np.divmod(active >> 1, mesh.n)
    for k, z in enumerate(points):
        close = np.hypot(mesh.xs[i] - z[0], mesh.ys[j] - z[1]) <= reach + 2.0 * mesh.h
        candidates = np.flatnonzero((near < 0) & close)
        coords = mesh.triangle_coords(active[candidates])
        near[candidates[_point_triangle_distance(z, coords) <= reach]] = k
    return near


def error_norms(problem, u_h, stabilizer, refine_levels=REFINE_LEVELS):
    """Energy error (without stabilization), stabilizer seminorm, and L2 error.

    The energy error pairs the broken gradient over the cut volumes with the
    scaled Dirichlet trace mismatch.  Near points of reduced regularity (cells
    within 2h of one) the volume rules are refined ``refine_levels`` times
    (``quadrature.REFINE_LEVELS``, or none at 0) so the quadrature of the
    singular gradient does not pollute the reported norms; ``RuleSet.cell_sums``
    sums those cells over the refined rule in place of their own.  At a volume
    point u_h is its cell's affine function.
    """
    dofmap = u_h.dofmap
    mesh, topology, rules = dofmap.mesh, dofmap.topology, dofmap.rules
    refined = None
    if refine_levels and len(problem.singular_points):
        singular = np.asarray(problem.singular_points, dtype=float)
        target = _cells_near(singular, topology, 2.0 * mesh.h)
        cells = np.flatnonzero(target >= 0)
        coords, toward = mesh.triangle_coords(topology.active[cells]), singular[target[cells]]
        rule = refine_rule_toward(coords, topology.domain, toward, rules.tol, refine_levels)
        refined = replace(rule, owner=cells[rule.owner])
    vals = u_h.coefficients[dofmap.active_dofs]
    grad_h = np.einsum("tk,tkd->td", vals, _cell_gradients(dofmap))
    u_c = vals.sum(axis=1) / 3.0  # u_h at the centroid

    def errors(points, cells, offsets):
        u, grad_u = problem.u_and_grad(points.reshape(-1, 2))
        g = np.repeat(np.take(grad_h, cells, axis=0)[:, None], points.shape[1], axis=1)
        diff_grad = np.square(grad_u.reshape(points.shape) - g)
        g *= offsets  # the terms of grad(u_h) . (x - c)
        diff = u.reshape(points.shape[:2]) - u_c[cells, None] - g[..., 0] - g[..., 1]
        return diff_grad[..., 0] + diff_grad[..., 1], diff * diff

    grad_sq, l2_sq = rules.cell_sums(errors, refined).sum(axis=1)
    rule_d = rules.dirichlet
    lam_d, _ = _boundary_local(dofmap, rule_d)
    diff = problem.u_and_grad(rule_d.points)[0] - (lam_d * vals[rule_d.owner]).sum(axis=1)
    trace_sq = float(rule_d.weights @ diff**2)
    energy = float(np.sqrt(grad_sq + trace_sq / mesh.h))
    return ErrorNorms(energy, energy_norm(u_h, stabilizer), float(np.sqrt(l2_sq)))
