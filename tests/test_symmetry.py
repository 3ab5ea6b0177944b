"""Mirror-image checks: a level and its image under a symmetry of the grid agree.

On the box [-1, 1]^2 with no shift, sigma: (x, y) -> (y, x) and rho: (x, y) ->
(-x, -y) map the grid, its triangles and their (0, 0)-(1, 1) diagonals onto
themselves, vertex (i, j) onto (j, i) under sigma and onto (n - i, n - j) under
rho.  The disk with centre c and Dirichlet arcs [t0, t1) maps to the disk with
centre Q c and arcs [pi/2 - t1, pi/2 - t0) under sigma, [t0 + pi, t1 + pi)
under rho, and a solution u to u o Q^-1.  With the dofs renumbered by the
vertex map P, the image level's Nitsche operator A, ghost penalty S and load b
equal P A P^T, P S P^T and P b up to rounding, and its error norms equal the
level's, so no reference values are needed.  A fault in the orientation of
classification, face kinds (sigma swaps the up and right faces), fan triangles
or arc splitting breaks the match.
"""

import math

import numpy as np
import pytest

from cutpoisson import LevelSetDomain
from cutpoisson.assembly import assemble_system, error_norms
from cutpoisson.solve import solve_standard
from cutpoisson.study import ManufacturedProblem, discretize

DISKS = {
    "centred-mixed": ((0.0, 0.0), 0.7, ((0.0, math.pi),)),
    "off-centre": ((0.013, -0.021), 0.7, ((0.3, 1.7),)),
    # tangent to the grid lines x = +-0.5 between two vertices
    "tangent": ((0.0, 0.05), 0.5, ((0.0, math.pi),)),
    # tangent to the grid lines x = -0.25 and x = 0.75 between two vertices
    "tangent-off-centre": ((0.25, 0.1), 0.5, ((0.0, 2.0 * math.pi),)),
    # through the grid vertices (+-0.5, 0) and (0, +-0.5)
    "through-vertices": ((0.0, 0.0), 0.5, ((0.0, math.pi),)),
}
# each map as its matrix Q, an involution, the preimage (i', j') of image vertex (i, j) on the
# n-by-n grid, and the image of the Dirichlet arc [start, end)
MAPS = {
    "sigma": (
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        lambda i, j, n: (j, i),
        lambda start, end: (math.pi / 2 - end, math.pi / 2 - start),
    ),
    "rho": (
        -np.eye(2),
        lambda i, j, n: (n - i, n - j),
        lambda start, end: (start + math.pi, end + math.pi),
    ),
}


def _quadratic(pts):
    """u = 0.3 + x - 2 y + x^2 + 0.5 x y - 0.5 y^2, so -laplace(u) = -1, and its gradient."""
    x, y = np.moveaxis(np.asarray(pts, dtype=float), -1, 0)
    u = 0.3 + x - 2.0 * y + x * x + 0.5 * x * y - 0.5 * y * y
    return u, np.stack([1.0 + 2.0 * x + 0.5 * y, -2.0 + 0.5 * x - y], axis=-1)


def _f(pts):
    return np.full(np.shape(pts)[:-1], -1.0)


def _level(domain, u_and_grad, n):
    """A, S and b of the quadratic problem on ``domain`` at level n, and its error norms."""
    dofmap, params = discretize(domain, n)
    problem = ManufacturedProblem(domain, u_and_grad, _f, (), "quadratic")
    system = assemble_system(dofmap, params, problem)
    errors = error_norms(problem, solve_standard(system, dofmap).solution, system.S)
    return dofmap, system, errors


def _mirrored(Q, arc_map, center, radius, arcs):
    """The image of a disk given by its input arcs [start, end), and of the quadratic u.

    ``LevelSetDomain.dirichlet_arcs`` holds (start, span) pairs, so the image is
    built from the arcs as given, not from the stored ones.
    """

    def u_and_grad(pts):
        u, grad = _quadratic(np.asarray(pts) @ Q)  # Q^-1 = Q = Q^T
        return u, grad @ Q

    image = LevelSetDomain(tuple(Q @ center), radius, tuple(arc_map(*arc) for arc in arcs))
    return image, u_and_grad


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("disk", DISKS)
@pytest.mark.parametrize("symmetry", MAPS)
def test_operators_match_their_mirror_image(symmetry, disk, n):
    Q, vertex_map, arc_map = MAPS[symmetry]
    center, radius, arcs = DISKS[disk]
    dofmap, system, errors = _level(LevelSetDomain(center, radius, arcs), _quadratic, n)
    image, image_system, image_errors = _level(*_mirrored(Q, arc_map, center, radius, arcs), n)
    i, j = vertex_map(*np.divmod(image.dof_to_vertex, n + 1), n)
    preimage = dofmap.vertex_to_dof[i * (n + 1) + j]  # the dof that maps to each image dof
    assert image.ndof == dofmap.ndof and np.all(preimage >= 0)
    for K, K_image in ((system.A, image_system.A), (system.S, image_system.S)):
        mapped = K.tocsr()[preimage][:, preimage]  # P K P^T in the image's numbering
        assert mapped.nnz == K_image.nnz
        assert abs(mapped - K_image).max() <= 1e-12 * abs(K_image).max()
    b, b_image = system.b[preimage], image_system.b
    assert np.abs(b - b_image).max() <= 1e-9 * np.abs(b_image).max()
    for norm in ("energy", "l2", "sh"):
        got, want = getattr(image_errors, norm), getattr(errors, norm)
        assert abs(got - want) <= 1e-9 * want, norm
