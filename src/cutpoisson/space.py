"""Continuous piecewise-affine finite element space on the active mesh.

Degrees of freedom sit at the vertices of active triangles.  Functions are
evaluated barycentrically, gradients are constant per triangle, and the
quasi-interpolant projects onto affine functions over vertex patches, which
reproduces affine functions while needing only point values of the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cutpoisson.geometry import cross2
from cutpoisson.mesh import CORNERS
from cutpoisson.quadrature import _barycentric, _full_triangle_points

# Grid offsets (di, dj) from vertex i (n + 1) + j to the vertices its P1 couplings and ghost
# faces reach, in ascending order of the id offset 0, +-1, +-n, +-(n+1), +-(n+2), +-(n+3), +-(2n+3).
STENCIL = np.array([(-2, -1), (-1, -2), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                    (1, -1), (1, 0), (1, 1), (1, 2), (2, 1)])
_SLOT_OF = np.full((5, 5), -1)
_SLOT_OF[tuple(STENCIL.T + 2)] = np.arange(len(STENCIL))


def stencil_slot(d):
    """Index in ``STENCIL`` of grid offsets ``d`` (..., 2)."""
    return _SLOT_OF[d[..., 0] + 2, d[..., 1] + 2]


PAIR_SLOTS = stencil_slot(CORNERS[:, None] - CORNERS[:, :, None])  # [p, a, b]: corner b from a
for _table in (STENCIL, _SLOT_OF, PAIR_SLOTS):
    _table.flags.writeable = False


@dataclass(frozen=True)
class DofMap:
    """One degree of freedom per vertex of the active mesh, and the ``rules`` of its level.

    A form reads its rules, and their cut topology ``rules.topology``, from the dofmap it
    scatters into.  No per-cell geometry is stored: triangle t's vertex coordinates are
    ``mesh.triangle_coords(t)`` and its hat gradients ``reference_gradients[t & 1]``; only the
    active cells' dofs, which every all-cell scatter reads, are cached.
    """

    rules: object
    vertex_to_dof: np.ndarray
    dof_to_vertex: np.ndarray

    @property
    def ndof(self):
        return len(self.dof_to_vertex)

    @property
    def topology(self):
        return self.rules.topology

    @property
    def mesh(self):
        return self.topology.mesh

    @cached_property
    def reference_gradients(self):
        """Hat gradients (2, 3, 2) of triangles 0 and 1, read-only.

        Triangle t of the grid is a translate of triangle ``t & 1``, so its hat
        gradients are ``reference_gradients[t & 1]``; this is the one
        ``hat_gradients`` call of a level.
        """
        ref = hat_gradients(self.mesh.triangle_coords(np.arange(2)))
        ref.flags.writeable = False
        return ref

    @cached_property
    def active_dofs(self):
        """Dofs (m, 3) of the active cells, computed once per dofmap and read-only."""
        dofs = self.vertex_to_dof[self.mesh.triangle_vertices(self.topology.active)]
        dofs.flags.writeable = False
        return dofs


def build_dofmap(rules):
    """Number the vertices of the active cells of ``rules.topology``; the dofmap keeps ``rules``."""
    topology, mesh = rules.topology, rules.topology.mesh
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[mesh.triangle_vertices(topology.active).ravel()] = True
    dof_to_vertex = np.flatnonzero(used)
    vertex_to_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vertex_to_dof[dof_to_vertex] = np.arange(len(dof_to_vertex))
    return DofMap(rules, vertex_to_dof, dof_to_vertex)


@dataclass
class FeFunction:
    """Nodal coefficient vector over the active-mesh vertex dofs."""

    coefficients: np.ndarray
    dofmap: DofMap

    def vertex_values(self, t):
        dofmap = self.dofmap
        if not dofmap.topology.is_active(t):
            raise ValueError(f"triangle {t} is not in the active mesh")
        return self.coefficients[dofmap.vertex_to_dof[dofmap.mesh.triangle_vertices(t)]]


def hat_gradients(coords):
    """Constant gradients of the three barycentric hat functions.

    ``coords`` has shape (..., 3, 2); the result has the same shape, with row
    i the gradient of the hat function of vertex i.
    """
    e = np.roll(coords, -2, axis=-2) - np.roll(coords, -1, axis=-2)  # edge opposite vertex i
    area2 = cross2(coords[..., 1, :] - coords[..., 0, :], coords[..., 2, :] - coords[..., 0, :])
    return np.stack([-e[..., 1], e[..., 0]], axis=-1) / area2[..., None, None]


def evaluate(f, t, x):
    """Value of ``f`` at points ``x`` inside active triangle ``t``.

    No solver path calls it; it is how library code reads a discrete solution at a point.
    """
    values = f.vertex_values(t)  # first, so that a triangle off the active mesh is named
    vals = _barycentric(f.dofmap.mesh.triangle_coords(t), x) @ values
    return vals if np.asarray(x).ndim > 1 else float(vals[0])


def gradient(f, t):
    """Gradient of ``f`` on active triangle ``t`` (constant per triangle).

    No solver path calls it; it is how library code reads a discrete gradient on a cell.
    """
    return f.vertex_values(t) @ hat_gradients(f.dofmap.mesh.triangle_coords(t))


def clement_interpolate(u, dofmap):
    """Quasi-interpolant of an analytic function onto the finite element space.

    The nodal value at a vertex is the value there of the L2 projection of
    ``u`` onto affine functions over the patch of active triangles containing
    the vertex.  Patches use full triangles, so ``u`` must be evaluable on the
    whole active mesh, including the parts outside the domain.

    Every (triangle, local vertex) pair contributes a 3 x 3 moment block and a
    right-hand side in the affine basis centred at the vertex and scaled by h,
    the diameter of every triangle; the blocks are summed per vertex and solved
    together.  A triangle is a translate of triangle ``t & 1``, so the blocks
    are the (2, 3, 3, 3) of the two reference triangles, and ``u`` is evaluated
    at each cell's vertex 0 plus the reference degree-4 points.
    """
    mesh, parity, dofs = dofmap.mesh, dofmap.topology.active & 1, dofmap.active_dofs
    local = mesh.reference_triangles
    points, weights = _full_triangle_points(local)  # (2, 6, 2), (2, 6)
    offsets = (points[:, None] - local[:, :, None]) / mesh.h  # (2, 3, 6, 2)
    basis = np.concatenate([np.ones(offsets.shape[:-1] + (1,)), offsets], axis=-1)
    weighted = weights[:, None, :, None] * basis
    blocks = np.einsum("piqa,piqb->piab", weighted, basis)[parity].reshape(-1, 9)
    origins = mesh.vertex_coords(dofmap.dof_to_vertex[dofs[:, 0]])
    values = u(origins[:, None] + points[parity])  # (m, 6)
    rhs = np.einsum("tiqa,tq->tia", weighted[parity], values).reshape(-1, 3)
    sums = np.stack(
        [np.bincount(dofs.ravel(), col, dofmap.ndof) for col in np.hstack([blocks, rhs]).T], axis=1
    )
    moments = sums[:, :9].reshape(-1, 3, 3)
    degenerate = np.flatnonzero(np.linalg.cond(moments) > 1e12)
    if degenerate.size:
        raise ValueError(
            f"degenerate patch moment matrix at vertex {dofmap.dof_to_vertex[degenerate[0]]}"
        )
    coeffs = np.linalg.solve(moments, sums[:, 9:, None])[:, 0, 0]
    return FeFunction(coeffs, dofmap)
