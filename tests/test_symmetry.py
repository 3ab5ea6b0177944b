"""Mirror-image checks: a level and its image under the grid's diagonal reflection agree.

On the box [-1, 1]^2 with no shift, sigma: (x, y) -> (y, x) maps the grid, its
triangles and their (0, 0)-(1, 1) diagonals onto themselves, and vertex (i, j)
onto (j, i).  The disk with centre (a, b) and Dirichlet arcs [t0, t1) maps to
the disk with centre (b, a) and arcs [pi/2 - t1, pi/2 - t0).  With the dofs
renumbered by the vertex map P, the image level's Nitsche operator A and ghost
penalty S equal P A P^T and P S P^T up to rounding, so no reference values are
needed.  A fault in the orientation of classification, face kinds (sigma swaps
the up and right faces), fan triangles or arc splitting breaks the match.
"""

import math

import numpy as np
import pytest

from cutpoisson import LevelSetDomain
from cutpoisson.assembly import assemble_ghost_penalty, assemble_nitsche
from cutpoisson.study import discretize

RADIUS = 0.7
DISKS = {
    "centred-mixed": ((0.0, 0.0), ((0.0, math.pi),)),
    "off-centre": ((0.013, -0.021), ((0.3, 1.7),)),
}


def _level(center, arcs, n):
    dofmap, params = discretize(LevelSetDomain(center, RADIUS, arcs), n)
    return dofmap, assemble_nitsche(dofmap, params), assemble_ghost_penalty(dofmap, params)


def _mirrored(center, arcs):
    """sigma's image of a disk given by its input arcs [start, end).

    ``LevelSetDomain.dirichlet_arcs`` holds (start, span) pairs, so the image is
    built from the arcs as given, not from the stored ones.
    """
    return center[::-1], tuple((math.pi / 2 - end, math.pi / 2 - start) for start, end in arcs)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("disk", DISKS)
def test_operators_match_their_mirror_image(disk, n):
    center, arcs = DISKS[disk]
    dofmap, A, S = _level(center, arcs, n)
    image, A_image, S_image = _level(*_mirrored(center, arcs), n)
    i, j = np.divmod(image.dof_to_vertex, n + 1)
    preimage = dofmap.vertex_to_dof[j * (n + 1) + i]  # the dof that sigma maps to each image dof
    assert image.ndof == dofmap.ndof and np.all(preimage >= 0)
    for K, K_image in ((A, A_image), (S, S_image)):
        mapped = K.tocsr()[preimage][:, preimage]  # P K P^T in the image's numbering
        assert mapped.nnz == K_image.nnz
        assert abs(mapped - K_image).max() <= 1e-12 * abs(K_image).max()
