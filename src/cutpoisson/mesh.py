"""Background simplicial mesh on a box, cut classification, and active-mesh face sets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cutpoisson.geometry import LevelSetDomain, cross2, signed_distance

INSIDE = 0
CUT = 1
OUTSIDE = 2

TANGENCY_GUARD = 1e-12  # relative to h, the band around tangency where ``classify`` refuses


class AmbiguousCutError(RuntimeError):
    """Raised when a triangle is tangent to the boundary below the detection tolerance."""

    def __init__(self, triangle, gap):
        super().__init__(
            f"triangle {triangle}: boundary tangency within {gap:.3e} of the element, "
            "classification is ambiguous"
        )
        self.triangle = triangle


@dataclass(frozen=True)
class BackgroundMesh:
    """Structured triangulation of an axis-aligned box.

    Faces are stored once, with the two adjacent triangles ordered by index
    (-1 marks the outside of the box); this fixes the sign of normal-gradient
    jumps.  Every triangle t is a translate of triangle ``t & 1`` (cell 0's
    lower and upper triangle), so whatever depends only on a triangle's shape,
    such as its hat gradients, is computed on those two and indexed by parity.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    faces: np.ndarray
    face_tris: np.ndarray
    h: float

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def triangle_coords(self, t):
        return self.vertices[self.triangles[t]]

    def face_coords(self, f):
        return self.vertices[self.faces[f]]


def build_background(box, n, shift=(0.0, 0.0)):
    """Structured n-by-n grid of squares on ``box``, each split into two triangles.

    ``box`` is (x0, y0, x1, y1); ``shift`` translates the whole grid, which is
    how cut-position sweeps move the boundary relative to the mesh.  The mesh
    parameter h is the cell diagonal, i.e. the diameter of every triangle.
    Cell (i, j) holds triangles 2c and 2c + 1 with c = i * n + j, below and
    above its diagonal, so triangle t is a translate of triangle ``t & 1``.
    Faces and their triangles are written in closed form (``_grid_faces``).
    """
    if n < 1:
        raise ValueError(f"need at least one subdivision per side, got n={n}")
    x0, y0, x1, y1 = (float(v) for v in box)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate box {box}")
    xs = np.linspace(x0, x1, n + 1) + float(shift[0])
    ys = np.linspace(y0, y1, n + 1) + float(shift[1])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) has lower-left vertex i * (n + 1) + j and splits along its diagonal
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    faces, face_tris = _grid_faces(n)
    mesh = BackgroundMesh(vertices, triangles, faces, face_tris, cell_diagonal(box, n))
    _check_shape_regularity(mesh)
    return mesh


def _grid_faces(n):
    """Faces (vertex pairs) and their triangles (pairs, -1 marking the box) of the n-by-n grid.

    Faces are sorted by (low, high) vertex id: vertex v = i * (n + 1) + j owns its edges to
    v + 1 (up), v + n + 1 (right) and v + n + 2 (diagonal) where they exist.  So row i < n
    holds 3n + 1 faces, the three of each j < n and then the right edge of j = n, and row n
    holds its n up edges.  Cell c = i * n + j holds triangles 2c (below its diagonal) and
    2c + 1 (above), so the up edge lies between 2(c - n) and 2c + 1, the right edge between
    2c - 1 and 2c, the diagonal between 2c and 2c + 1; a box face keeps its one triangle
    first, with -1 after it.  Every entry is written in closed form, row by row in place.
    """
    faces = np.empty((3 * n * n + 2 * n, 2), dtype=np.int64)
    face_tris = np.empty_like(faces)
    rows, r = n * (3 * n + 1), np.arange(n)
    f_rows, t_rows = (a[:rows].reshape(n, 3 * n + 1, 2) for a in (faces, face_tris))
    f_cell, t_cell = f_rows[:, :-1].reshape(n, n, 3, 2), t_rows[:, :-1].reshape(n, n, 3, 2)
    v = (r[:, None] * (n + 1) + r)[..., None]
    c2 = (2 * (r[:, None] * n + r))[..., None]
    f_cell[..., 0] = v
    f_cell[..., 1] = v + np.array([1, n + 1, n + 2])
    t_cell[..., 0] = c2 + np.array([-2 * n, -1, 0])
    t_cell[..., 1] = c2 + np.array([1, 0, 1])
    none = np.full(n, -1)
    t_cell[0, :, 0] = np.c_[c2[0, :, 0] + 1, none]  # up edges of row 0
    t_cell[:, 0, 1] = np.c_[c2[:, 0, 0], none]  # right edges of column 0
    f_rows[:, -1, 0] = r * (n + 1) + n  # right edges of column n
    f_rows[:, -1, 1] = f_rows[:, -1, 0] + n + 1
    t_rows[:, -1] = np.c_[2 * (r * n + n) - 1, none]
    faces[rows:, 0] = n * (n + 1) + r  # up edges of row n
    faces[rows:, 1] = faces[rows:, 0] + 1
    face_tris[rows:] = np.c_[2 * ((n - 1) * n + r), none]
    return faces, face_tris


def cell_diagonal(box, n):
    """Mesh parameter h of the n-by-n grid on ``box``: the cell diagonal."""
    x0, y0, x1, y1 = (float(v) for v in box)
    return float(np.hypot((x1 - x0) / n, (y1 - y0) / n))


def _check_shape_regularity(mesh):
    """Raise ``ValueError`` unless the grid is quasi-uniform and shape regular.

    Only the two triangles of cell 0 are tested.  Every triangle of the n-by-n
    grid is a translate of one of them, so the verdict depends only on the
    aspect ratio of the box's cells (that of the box itself), not on n or the
    shift; right triangles with legs in ratio above about 4.3 fail.
    """
    coords = mesh.vertices[mesh.triangles[:2]]
    e = coords - np.roll(coords, -1, axis=1)
    lengths = np.linalg.norm(e, axis=2)
    diam = lengths.max(axis=1)
    if diam.max() / diam.min() > 2.0:
        raise ValueError("mesh is not quasi-uniform (diameter ratio exceeds 2)")
    areas = 0.5 * np.abs(cross2(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]))
    # min angle bounded below iff area is comparable to the product of edge lengths
    quality = 4.0 * areas / (diam * lengths.sum(axis=1))
    if quality.min() < 0.2:
        raise ValueError("mesh is not shape regular")


@dataclass(frozen=True)
class CutTopology:
    """Per-triangle inside/cut/outside tags against ``domain``, and the derived active mesh."""

    mesh: BackgroundMesh
    domain: LevelSetDomain
    classification: np.ndarray
    active: np.ndarray
    active_index: np.ndarray
    ghost_faces: np.ndarray

    @property
    def cut(self):
        return np.flatnonzero(self.classification == CUT)

    @property
    def inside(self):
        return np.flatnonzero(self.classification == INSIDE)

    def is_active(self, t):
        return self.active_index[t] >= 0

    @cached_property
    def active_coords(self):
        """Vertex coordinates (m, 3, 2) of the active triangles, gathered once and read-only."""
        coords = self.mesh.vertices[self.mesh.triangles[self.active]]
        coords.flags.writeable = False
        return coords


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
    """Tag every triangle as inside, cut, or outside the domain.

    Vertices exactly on the boundary count as inside, so the partition is
    deterministic.  A triangle whose vertices all lie outside is cut exactly
    when the disk reaches into it, which is decided by the exact distance from
    the disk center to the triangle; tangency within ``TANGENCY_GUARD * h`` of
    that threshold raises ``AmbiguousCutError``.  The per-triangle reductions
    over the three vertices (all inside, any inside, least phi) are formed column
    by column, which is exact and avoids slow reductions along a length-3 axis.
    """
    phi = signed_distance(domain, mesh.vertices)
    phi_t = [phi[mesh.triangles[:, k]] for k in range(3)]
    inside_v = [p <= 0.0 for p in phi_t]

    cls = np.full(mesh.n_triangles, OUTSIDE, dtype=np.int8)
    all_in = inside_v[0] & inside_v[1] & inside_v[2]
    any_in = inside_v[0] | inside_v[1] | inside_v[2]
    cls[all_in] = INSIDE  # disk is convex, so vertex containment is conclusive
    cls[any_in & ~all_in] = CUT

    center = domain.center_array
    near = np.minimum(np.minimum(phi_t[0], phi_t[1]), phi_t[2]) <= mesh.h
    candidates = np.flatnonzero(~any_in & near)
    dist = _point_triangle_distance(center, mesh.triangle_coords(candidates))
    gap = np.abs(dist - domain.radius)
    ambiguous = np.flatnonzero(gap <= TANGENCY_GUARD * mesh.h)
    if len(ambiguous):
        raise AmbiguousCutError(int(candidates[ambiguous[0]]), gap[ambiguous[0]])
    cls[candidates[dist < domain.radius]] = CUT

    active = np.flatnonzero(cls != OUTSIDE)
    active_index = np.full(mesh.n_triangles, -1, dtype=np.int64)
    active_index[active] = np.arange(len(active))

    # a box face stores -1 as its second triangle, so c1 is read from the last triangle there
    t0, t1 = mesh.face_tris.T
    c0, c1 = cls[t0], cls[t1]
    both_active = (t1 >= 0) & (c0 != OUTSIDE) & (c1 != OUTSIDE)
    ghost = np.flatnonzero(both_active & ((c0 == CUT) | (c1 == CUT)))

    return CutTopology(mesh, domain, cls, active, active_index, ghost)

