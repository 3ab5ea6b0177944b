"""Background simplicial mesh on a box in closed form, cut classification, and ghost faces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cutpoisson.geometry import LevelSetDomain, cross2, signed_distance

INSIDE = 0
CUT = 1
OUTSIDE = 2

# Grid offsets (di, dj) from vertex v00 of cell c to the corners of triangles 2c and 2c + 1.
CORNERS = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
# The faces of kind 0 (up), 1 (right) and 2 (diagonal) from vertex (i, j): the grid offset of
# their high end, and their two triangles, lower id first, as (parity p, di, dj): triangle p of
# cell (i + di, j + dj).
FACE_ENDS = np.array([(0, 1), (1, 0), (1, 1)])
FACE_TRIANGLES = np.array(
    [[(0, -1, 0), (1, 0, 0)], [(1, 0, -1), (0, 0, 0)], [(0, 0, 0), (1, 0, 0)]]
)
for _table in (CORNERS, FACE_ENDS, FACE_TRIANGLES):
    _table.flags.writeable = False


@dataclass(frozen=True)
class BackgroundMesh:
    """Structured triangulation of an axis-aligned box, held as its grid lines ``xs`` and ``ys``.

    Coordinates and connectivity are computed from ids when asked for: vertex
    v = i (n + 1) + j is ``(xs[i], ys[j])``, and cell c = i n + j holds
    triangles 2c and 2c + 1, below and above its diagonal, so triangle t is a
    translate of triangle ``t & 1`` and whatever depends only on a triangle's
    shape, such as its hat gradients, is computed on those two and indexed by
    parity.  Vertex v owns its faces of kind 0 (up, to v + 1), 1 (right, to
    v + n + 1) and 2 (diagonal, to v + n + 2), the high ends of ``FACE_ENDS``; a
    face of each kind is a translate of that kind's face at vertex 0, with the
    two triangles of ``FACE_TRIANGLES``.
    """

    n: int
    h: float
    xs: np.ndarray
    ys: np.ndarray

    @property
    def n_vertices(self):
        return (self.n + 1) ** 2

    @property
    def n_triangles(self):
        return 2 * self.n * self.n

    def vertex_coords(self, v):
        """Coordinates (..., 2) of the vertices ``v``."""
        i, j = np.divmod(v, self.n + 1)
        return np.stack([self.xs[i], self.ys[j]], axis=-1)

    def triangle_vertices(self, t):
        """Vertex ids (..., 3) of the triangles ``t``, counterclockwise from the cell's v00."""
        c = np.asarray(t) >> 1  # v00 = i (n + 1) + j = c + i
        corners = np.take(CORNERS @ (self.n + 1, 1), np.asarray(t) & 1, axis=0)
        return (c + c // self.n)[..., None] + corners

    def triangle_coords(self, t):
        return self.vertex_coords(self.triangle_vertices(t))

    @property
    def reference_triangles(self):
        """Corners (2, 3, 2) of triangles 0 and 1 relative to their vertex 0.

        Triangle t is a translate of ``reference_triangles[t & 1]``, so a quantity that depends
        only on a triangle's shape (its area, its quadrature weights) is computed on these two.
        """
        coords = self.triangle_coords(np.arange(2))
        return coords - coords[:, :1]


def build_background(box, n, shift=(0.0, 0.0)):
    """Structured n-by-n grid of squares on ``box``, each split into two triangles.

    ``box`` is (x0, y0, x1, y1); ``shift`` translates the whole grid, which is
    how cut-position sweeps move the boundary relative to the mesh.  The mesh
    parameter h is the cell diagonal, i.e. the diameter of every triangle.
    """
    h = cell_diagonal(box, n)
    x0, y0, x1, y1 = (float(v) for v in box)
    xs = np.linspace(x0, x1, n + 1) + float(shift[0])
    ys = np.linspace(y0, y1, n + 1) + float(shift[1])
    xs.flags.writeable = ys.flags.writeable = False
    mesh = BackgroundMesh(n, h, xs, ys)
    _check_shape_regularity(mesh)
    return mesh


def cell_diagonal(box, n):
    """Mesh parameter h of the n-by-n grid on ``box``: the cell diagonal (n >= 1, a proper box)."""
    if n < 1:
        raise ValueError(f"need at least one subdivision per side, got n={n}")
    x0, y0, x1, y1 = (float(v) for v in box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate box {box}")
    return float(np.hypot((x1 - x0) / n, (y1 - y0) / n))


def _check_shape_regularity(mesh):
    """Raise ``ValueError`` unless the grid is shape regular.

    Only the two triangles of cell 0 are tested.  Every triangle of the n-by-n
    grid is a translate of one of them, so the verdict depends only on the
    aspect ratio of the box's cells (that of the box itself), not on n or the
    shift; right triangles with legs in ratio above about 4.3 fail.  Both have
    the cell diagonal as diameter, so the grid is quasi-uniform as built.
    """
    coords = mesh.triangle_coords(np.arange(2))
    e = coords - np.roll(coords, -1, axis=1)
    lengths = np.linalg.norm(e, axis=2)
    diam = lengths.max(axis=1)
    areas = 0.5 * np.abs(cross2(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]))
    # min angle bounded below iff area is comparable to the product of edge lengths
    quality = 4.0 * areas / (diam * lengths.sum(axis=1))
    if quality.min() < 0.2:
        raise ValueError("mesh is not shape regular")


@dataclass(frozen=True)
class CutTopology:
    """Per-triangle inside/cut/outside tags against ``domain``, and the derived active mesh.

    ``ghost_faces`` holds each ghost face as the key 3 v + kind, with v its low end and kind
    its row of ``FACE_ENDS``, in ascending order.
    """

    mesh: BackgroundMesh
    domain: LevelSetDomain
    classification: np.ndarray
    active: np.ndarray
    ghost_faces: np.ndarray

    @property
    def cut(self):
        return np.flatnonzero(self.classification == CUT)

    def is_active(self, t):
        n_triangles = self.mesh.n_triangles
        if not 0 <= t < n_triangles:
            raise ValueError(f"triangle {t} is not on the grid of {n_triangles} triangles")
        return self.classification[t] != OUTSIDE


def _point_triangle_distance(p, coords):
    """Euclidean distance from point ``p`` to a closed triangle ``coords`` (3, 2).

    Broadcasts over leading axes: points (..., 2) against triangles (..., 3, 2).
    """
    p = np.asarray(p, dtype=float)[..., None, :]
    a = np.asarray(coords, dtype=float)
    ab = np.roll(a, -1, axis=-2) - a
    t = np.clip(((p - a) * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    dist = np.linalg.norm(p - (a + t[..., None] * ab), axis=-1).min(axis=-1)
    left = cross2(ab, p - a) >= 0.0
    inside = left.all(axis=-1) | ~left.any(axis=-1)
    return np.where(inside, 0.0, dist)


def classify(mesh, domain):
    """Tag every triangle as inside, cut, or outside the domain, and find the ghost faces.

    The domain is the open disk.  A triangle is inside when all its vertices are, and otherwise
    cut exactly when its distance from the disk center is below the radius.  So a triangle that
    the circle only touches, at a grid vertex on the circle or along a tangent edge, is outside:
    it meets the domain in a set of measure zero.  Phi is evaluated only on the window of cells
    that meet the disk's bounding box grown by h: every other cell is outside with all its
    vertices over h away.  A ghost face lies between a cut triangle and an active one; it is
    keyed as in ``CutTopology.ghost_faces``.
    """
    n, center, reach = mesh.n, domain.center_array, domain.radius + mesh.h
    (i0, i1), (j0, j1) = (
        (max(np.count_nonzero(g < c - reach) - 1, 0), min(np.count_nonzero(g < c + reach), n))
        for g, c in zip((mesh.xs, mesh.ys), center)
    )
    wi, wj = i1 - i0, j1 - j0
    points = np.empty((wi + 1, wj + 1, 2))
    points[..., 0], points[..., 1] = mesh.xs[i0 : i1 + 1, None], mesh.ys[j0 : j1 + 1]
    phi = signed_distance(domain, points)
    # phi at corner k of the window's triangles (3, wi, wj, 2), ordered as their ids
    phi_t = np.empty((3, wi, wj, 2))
    for (p, k), (a, b) in zip(np.ndindex(2, 3), CORNERS.reshape(-1, 2)):
        phi_t[k, ..., p] = phi[a : a + wi, b : b + wj]
    ids = (np.arange(i0, i1) * (2 * n))[:, None, None] + np.arange(2 * j0, 2 * j1).reshape(-1, 2)
    inside = np.maximum(np.maximum(phi_t[0], phi_t[1]), phi_t[2]) < 0.0  # the disk is convex
    near = ~inside & (np.minimum(np.minimum(phi_t[0], phi_t[1]), phi_t[2]) <= mesh.h)
    dist = _point_triangle_distance(center, mesh.triangle_coords(ids[near]))
    window = np.where(inside, INSIDE, OUTSIDE).astype(np.int8)
    window[near] = np.where(dist < domain.radius, CUT, OUTSIDE)

    cls = np.full(mesh.n_triangles, OUTSIDE, dtype=np.int8)
    cls.reshape(n, n, 2)[i0:i1, j0:j1] = window
    active = ids[window != OUTSIDE]

    # faces (i, j, kind) by the triangles on their two sides (``FACE_TRIANGLES``), keyed 3 v + kind
    # with v = i (n + 1) + j; the cells left of and below the window, padded, are outside
    act, cut = (np.pad(m, ((1, 0), (1, 0), (0, 0))) for m in (window != OUTSIDE, window == CUT))
    ghost = np.zeros((wi, wj, 3), dtype=bool)
    for k, sides in enumerate(FACE_TRIANGLES):
        a, b = (np.s_[1 + di : 1 + di + wi, 1 + dj : 1 + dj + wj, p] for p, di, dj in sides)
        ghost[..., k] = act[a] & act[b] & (cut[a] | cut[b])
    i, j, kind = np.nonzero(ghost)
    ghost_faces = 3 * ((i + i0) * (n + 1) + j + j0) + kind

    return CutTopology(mesh, domain, cls, active, ghost_faces)
