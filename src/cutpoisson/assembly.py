"""Assembly of the Nitsche bilinear forms, ghost-penalty stabilizer, and loads.

Matrix orientation: entry (i, j) is the form evaluated at trial function j and
test function i, so solving ``A x = b`` realizes "find u with form(u, v) =
load(v) for all v".  All boundary terms of a matrix reuse the same quadrature
rules, which makes the standard Nitsche matrix exactly symmetric in floating
point.  Volume terms need no barycentric coordinates, as a P1 function is
affine on each cell: a load comes from per-cell moments about the centroid c,
and u_h at a point x is its value at c plus its cell gradient dotted with x - c.
Every grid triangle is a translate of triangle ``t & 1``, so hat gradients come
from the dofmap's two ``reference_gradients`` and the stiffness local block of
a cell is one of two fixed 3 x 3 Gram blocks times the cell's cut area.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from cutpoisson.geometry import TubeParams, cutoff
from cutpoisson.mesh import _point_triangle_distance
from cutpoisson.quadrature import _barycentric, refine_rule_toward
from cutpoisson.space import FeFunction, face_normal, hat_gradients  # noqa: F401 (re-export)


@dataclass(frozen=True)
class NitscheParams:
    """Penalty and stabilization parameters of the discrete forms.

    ``epsilon = 0`` selects the standard method; a positive value selects the
    regularized form whose Dirichlet flux term is weighted by the cutoff.
    ``epsilon`` is copied into ``tube``, as None when it is zero, so the tube
    carries it to every cutoff evaluation and the standard method's tube
    holds no epsilon.
    """

    beta: float = 10.0
    sigma: float = 0.1
    epsilon: float = 0.0
    tube: TubeParams | None = None

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.epsilon > 0.0:
            if self.tube is None:
                raise ValueError("regularization requires tube parameters")
            if self.epsilon > self.tube.epsilon0:
                raise ValueError(
                    f"epsilon {self.epsilon} exceeds the admissible {self.tube.epsilon0}"
                )
        if self.tube is not None:
            object.__setattr__(self, "tube", replace(self.tube, epsilon=self.epsilon or None))

    def with_epsilon(self, epsilon):
        return NitscheParams(self.beta, self.sigma, epsilon, self.tube)


@dataclass
class SystemMatrices:
    """Assembled operator, stabilizer, and load of one discrete problem."""

    A: sp.csr_matrix
    S: sp.csr_matrix
    b: np.ndarray


def _coo_accumulate(ndof, dofs, blocks):
    """Scatter local blocks (n, k, k) on int64 dofs (n, k) into a global matrix.

    Duplicates are summed in a fixed order (row, col, insertion order), so
    symmetric pairs (i, j) and (j, i) accumulate bitwise-identical addend
    sequences, and operators built from symmetric local blocks stay exactly
    symmetric in floating point, independent of sparse library internals.
    """
    if not blocks.size:
        return sp.csr_matrix((ndof, ndof))
    key = (dofs[:, :, None] * ndof + dofs[:, None, :]).ravel()
    order = np.argsort(key, kind="stable")  # stable: equal keys keep insertion order
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sums = np.add.reduceat(blocks.ravel()[order], starts)
    key = key[starts]
    indptr = np.searchsorted(key, np.arange(ndof + 1) * ndof)
    return sp.csr_matrix((sums, key % ndof, indptr), shape=(ndof, ndof))


def _vector(ndof, dofs, values):
    """Global vector from local contributions (n, 3) on dofs (n, 3), over several parts."""
    return np.bincount(
        np.concatenate(dofs).ravel(), np.concatenate(values).ravel(), minlength=ndof
    )


# Volume points per batch of per-point work, which bounds the memory it takes.
_CHUNK = 1 << 16


def _chunks(rule, skip=()):
    """Views of ``_CHUNK`` or fewer points of a rule sorted by owner, without the cells ``skip``."""
    first, last = np.searchsorted(rule.owner, skip), np.searchsorted(rule.owner, skip, "right")
    for start, stop in zip(np.r_[0, last], np.r_[first, len(rule.owner)]):
        for lo in range(start, stop, _CHUNK):
            yield rule.select(slice(lo, min(lo + _CHUNK, stop)))


def _boundary_local(coords, grads, rule, weight=None):
    """Per-point boundary data: hat values, normal fluxes (both (nq, 3)), effective weights."""
    lam = _barycentric(coords, rule.points, rule.owner)
    flux = np.einsum("qd,qjd->qj", rule.normals, grads[rule.owner])  # grad(phi_j) . n
    w = rule.weights if weight is None else rule.weights * weight(rule.points)
    return lam, flux, w


def assemble_stiffness(dofmap, rules):
    """Gradient-gradient form over the cut domain: (grad u, grad v) on each T cap Omega.

    The local block of active cell T is ``G[T & 1] * |T cap Omega|`` with ``G`` the Gram
    blocks of the two reference gradients, which are bitwise symmetric, and so is the sum.
    """
    _, _, dofs = dofmap.active_cells
    ref = dofmap.reference_gradients
    masses = np.bincount(rules.volume.owner, rules.volume.weights, minlength=len(dofs))
    local = (ref @ ref.transpose(0, 2, 1))[dofmap.topology.active & 1] * masses[:, None, None]
    return _coo_accumulate(dofmap.ndof, dofs, local)


def assemble_boundary_mass(dofmap, rules):
    """Mass matrix on the Dirichlet part of the boundary."""
    coords, grads, dofs = dofmap.active_cells
    rule = rules.dirichlet
    lam, _, w = _boundary_local(coords, grads, rule)
    scaled = lam * np.sqrt(w)[:, None]  # Gram form keeps the block bitwise symmetric
    return _coo_accumulate(dofmap.ndof, dofs[rule.owner], scaled[:, :, None] * scaled[:, None, :])


def _flux_matrix(dofmap, rule, weight=None):
    """Entries (i, j) of the boundary flux pairing (grad(phi_j) . n, phi_i) over ``rule``."""
    coords, grads, dofs = dofmap.active_cells
    lam, flux, w = _boundary_local(coords, grads, rule, weight)
    local = lam[:, :, None] * (flux * w[:, None])[:, None, :]  # test i rows, trial j cols
    return _coo_accumulate(dofmap.ndof, dofs[rule.owner], local)


def assemble_nitsche(dofmap, rules, params):
    """Standard symmetric Nitsche operator with Dirichlet penalty."""
    h = dofmap.mesh.h
    K = assemble_stiffness(dofmap, rules)
    B = _flux_matrix(dofmap, rules.dirichlet)
    M = assemble_boundary_mass(dofmap, rules)
    # grouping the two flux terms keeps the matrix bitwise symmetric
    return (K - (B + B.T) + (params.beta / h) * M).tocsr()


def _cutoff_weight(domain, params):
    """The cutoff of the regularized method as a weight on points."""
    if not params.epsilon > 0.0:
        raise ValueError("the cutoff needs a positive epsilon; epsilon = 0 is the standard method")
    if domain is None:
        raise ValueError("the cutoff needs the domain geometry")
    return lambda pts: cutoff(domain, params.tube, pts)


def cutoff_flux_neumann(dofmap, rules, domain, params):
    """Cutoff-weighted flux pairing over the Neumann boundary only.

    This is exactly the difference between the standard and regularized
    operators, since the cutoff equals one on the Dirichlet part.
    """
    return _flux_matrix(dofmap, rules.neumann, weight=_cutoff_weight(domain, params))


def assemble_regularized(A, dofmap, rules, params, domain):
    """Regularized Nitsche operator from the assembled standard operator ``A``.

    The Dirichlet flux term of the regularized form is weighted by the cutoff
    of ``params.tube``, which equals one on the Dirichlet part, so the operator
    is ``A`` minus the cutoff-weighted Neumann flux pairing.  At epsilon = 0 it
    is ``A`` itself.
    """
    if params.epsilon == 0.0:
        return A
    return (A - cutoff_flux_neumann(dofmap, rules, domain, params)).tocsr()


def assemble_ghost_penalty(dofmap, rules, params):
    """Face-jump stabilizer sigma * h * sum_F int_F [grad_n u][grad_n v]."""
    mesh = dofmap.mesh
    faces = dofmap.topology.ghost_faces
    t1, t2 = mesh.face_tris[faces].T
    n1 = face_normal(mesh, faces, t1)
    vids = np.concatenate([mesh.triangles[t1], mesh.triangles[t2]], axis=1)
    ref = dofmap.reference_gradients
    flux = [np.einsum("fkd,fd->fk", ref[t & 1], n1) for t in (t1, t2)]
    flux = np.concatenate([flux[0], -flux[1]], axis=1)
    # combine the two shared vertices: the four distinct vertices in ascending order
    order = np.argsort(vids, axis=1, kind="stable")
    vids, flux = (np.take_along_axis(a, order, axis=1) for a in (vids, flux))
    first = np.c_[np.ones((len(faces), 1), dtype=bool), vids[:, 1:] != vids[:, :-1]]
    jump = np.zeros((len(faces), 4))
    np.add.at(jump, (np.arange(len(faces))[:, None], np.cumsum(first, axis=1) - 1), flux)
    scale = params.sigma * mesh.h * rules.face_lengths
    local = scale[:, None, None] * (jump[:, :, None] * jump[:, None, :])
    dofs = dofmap.vertex_to_dof[vids[first].reshape(-1, 4)]
    return _coo_accumulate(dofmap.ndof, dofs, local)


def assemble_load(dofmap, rules, params, data):
    """Load vector with source, Neumann flux, and Dirichlet Nitsche data terms.

    The source adds m0 / 3 + grad(phi) . m1 per cell, with m0 = sum w f, m1 = sum w f (x - c).
    """
    coords, grads, dofs = dofmap.active_cells
    rule_n, rule_d = rules.neumann, rules.dirichlet
    lam_n, _, w_n = _boundary_local(coords, grads, rule_n)
    lam_d, flux_d, w_d = _boundary_local(coords, grads, rule_d)
    gd = w_d * data.g_D(rule_d.points)
    centroids = np.einsum("tkd->td", coords) / 3.0
    moments = np.zeros((len(dofs), 3))  # m0 and m1
    for part in _chunks(rules.volume):
        wf = part.weights * data.f(part.points)
        offset = part.points - np.take(centroids, part.owner, axis=0)  # faster than fancy indexing
        for j, col in enumerate((wf, wf * offset[:, 0], wf * offset[:, 1])):
            moments[:, j] += np.bincount(part.owner, col, minlength=len(dofs))
    values = [
        lam_n * (w_n * data.g_N(rule_n.points))[:, None],
        (params.beta / dofmap.mesh.h) * lam_d * gd[:, None] - flux_d * gd[:, None],
        moments[:, :1] / 3.0 + np.einsum("tkd,td->tk", grads, moments[:, 1:]),
    ]
    return _vector(dofmap.ndof, [dofs[rule_n.owner], dofs[rule_d.owner], dofs], values)


def assemble_system(dofmap, rules, params, data):
    """Standard operator, stabilizer, and load of the discrete problem in one bundle.

    The regularized operator is ``assemble_regularized(system.A, ...)``; it
    shares the stabilizer and the load.
    """
    A = assemble_nitsche(dofmap, rules, params)
    S = assemble_ghost_penalty(dofmap, rules, params)
    b = assemble_load(dofmap, rules, params, data)
    return SystemMatrices(A, S, b)


def nitsche_action(dofmap, rules, params, u, grad_u, domain=None):
    """Vector of the form of ``params`` applied to an analytic field.

    Entry i is form(u, phi_i), with the exact solution entering through its
    analytic values and gradients at the quadrature points.  A positive
    ``params.epsilon`` selects the cutoff-weighted form, which needs ``domain``.
    """
    chi = _cutoff_weight(domain, params) if params.epsilon > 0.0 else None
    h = dofmap.mesh.h
    coords, grads, dofs = dofmap.active_cells
    vol, rule_d, rule_n = rules.volume, rules.dirichlet, rules.neumann
    wg = vol.weights[:, None] * grad_u(vol.points)
    flux_int = np.stack([np.bincount(vol.owner, g, minlength=len(dofs)) for g in wg.T], axis=1)
    lam, flux, w = _boundary_local(coords, grads, rule_d)
    un = (grad_u(rule_d.points) * rule_d.normals).sum(axis=1)
    uv = w * u(rule_d.points)
    w_flux = w if chi is None else w * chi(rule_d.points)
    parts = [dofs, dofs[rule_d.owner]]
    values = [
        np.einsum("tkd,td->tk", grads, flux_int),
        (params.beta / h) * lam * uv[:, None] - flux * uv[:, None] - lam * (w_flux * un)[:, None],
    ]
    if chi is not None:
        lam_n, _, w_n = _boundary_local(coords, grads, rule_n)
        un_n = (grad_u(rule_n.points) * rule_n.normals).sum(axis=1)
        parts.append(dofs[rule_n.owner])
        values.append(-lam_n * (w_n * chi(rule_n.points) * un_n)[:, None])
    return _vector(dofmap.ndof, parts, values)


def energy_gram(dofmap, rules, params, stabilizer=None, with_stabilization=True):
    """Gram matrix of the energy norm: gradient, stabilizer, and Dirichlet trace parts."""
    h = dofmap.mesh.h
    G = assemble_stiffness(dofmap, rules) + assemble_boundary_mass(dofmap, rules) / h
    if with_stabilization:
        if stabilizer is None:
            stabilizer = assemble_ghost_penalty(dofmap, rules, params)
        G = G + stabilizer
    return G.tocsr()


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


def _cells_near(points, coords, radius, h):
    """Per cell, the index of the first point within ``radius`` of the closed triangle, or -1."""
    near = np.full(len(coords), -1)
    centroids = np.einsum("tkd->td", coords) / 3.0
    reach = radius + h  # h bounds every diameter, so a triangle lies within h of its centroid
    for i, z in enumerate(points):
        candidates = np.flatnonzero((near < 0) & (np.linalg.norm(centroids - z, axis=1) <= reach))
        hit = _point_triangle_distance(z, coords[candidates]) <= radius
        near[candidates[hit]] = i
    return near


def error_norms(problem, u_h, rules, params, stabilizer, refine_levels=0):
    """Energy error (without stabilization), stabilizer seminorm, and L2 error.

    The energy error pairs the broken gradient over the cut volumes with the
    scaled Dirichlet trace mismatch.  Near points of reduced regularity (cells
    within 2h of one) the volume rules are refined so the quadrature of the
    singular gradient does not pollute the reported norms; the bulk rule skips
    those cells.  At a volume point u_h is its cell's affine function.
    """
    h = u_h.dofmap.mesh.h
    coords, grads, dofs = u_h.dofmap.active_cells
    parts = [(rules.volume, ())]
    if refine_levels and len(problem.singular_points):
        singular = np.asarray(problem.singular_points, dtype=float)
        target = _cells_near(singular, coords, 2.0 * h, h)
        cells = np.flatnonzero(target >= 0)
        refined = refine_rule_toward(
            coords[cells],
            problem.domain,
            singular[target[cells]],
            tol=rules.tol,
            levels=refine_levels,
        )
        parts = [(rules.volume, cells), (replace(refined, owner=cells[refined.owner]), ())]
    vals = u_h.coefficients[dofs]
    grad_h = np.einsum("tk,tkd->td", vals, grads)
    centroids, u_c = np.einsum("tkd->td", coords) / 3.0, vals.sum(axis=1) / 3.0  # u_h at c
    grad_sq = l2_sq = 0.0
    for part in (chunk for rule, skip in parts for chunk in _chunks(rule, skip)):
        g = np.take(grad_h, part.owner, axis=0)
        diff_grad = problem.grad_u(part.points) - g
        grad_sq += float(part.weights @ np.einsum("qd,qd->q", diff_grad, diff_grad))
        offset = part.points - np.take(centroids, part.owner, axis=0)
        diff = problem.u(part.points) - np.take(u_c, part.owner) - np.einsum("qd,qd->q", g, offset)
        l2_sq += float(part.weights @ diff**2)
    rule_d = rules.dirichlet
    lam_d = _barycentric(coords, rule_d.points, rule_d.owner)
    diff = problem.u(rule_d.points) - (lam_d * vals[rule_d.owner]).sum(axis=1)
    trace_sq = float(rule_d.weights @ diff**2)
    energy = float(np.sqrt(grad_sq + trace_sq / h))
    return ErrorNorms(energy, energy_norm(u_h, stabilizer), float(np.sqrt(l2_sq)))
