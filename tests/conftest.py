import functools
import math

import numpy as np
import pytest

from cutpoisson import LevelSetDomain, gradient
from cutpoisson.geometry import boundary_angle, is_dirichlet_angle, signed_distance
from cutpoisson.mesh import CUT, INSIDE, OUTSIDE, _point_triangle_distance
from cutpoisson.quadrature import PackedRule
from cutpoisson.study import discretize


@pytest.fixture(scope="session")
def domain_mixed():
    """Disk R=0.7 with Dirichlet upper half, Neumann lower half; junctions at 0 and pi."""
    return LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))


@pytest.fixture(scope="session")
def domain_dirichlet():
    return LevelSetDomain((0.0, 0.0), 0.7, ((0.0, 2.0 * math.pi),))


@pytest.fixture(scope="session")
def domain_unit_mixed():
    return LevelSetDomain((0.0, 0.0), 1.0, ((0.0, math.pi),))


@pytest.fixture(scope="session")
def disc_mixed_8(domain_mixed):
    return discretize(domain_mixed, 8)


@pytest.fixture(scope="session")
def disc_mixed_16(domain_mixed):
    return discretize(domain_mixed, 16)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


def boundary_is_dirichlet(domain, b, tol=1e-8):
    """Oracle: whether boundary point ``b`` carries the Dirichlet condition.

    Raises ``ValueError`` if ``b`` is not on the boundary within ``tol * radius``.
    """
    b = np.asarray(b, dtype=float)
    if abs(float(signed_distance(domain, b))) > tol * domain.radius:
        raise ValueError(f"point {b.tolist()} is not on the boundary")
    return bool(is_dirichlet_angle(domain, float(boundary_angle(domain, b))))


def packed_volume_rule(rules):
    """Oracle: the volume rule of every active cell as one packed rule sorted by owner.

    The cut cells' points are ``rules.volume``'s; each inside cell adds the six
    points and weights of its parity's reference rule in ``rules.inside``, moved to its vertex 0.
    """
    topo = rules.topology
    parts = [(rules.volume.points, rules.volume.weights, rules.volume.owner)]
    for r in rules.inside:
        points = topo.mesh.triangle_coords(topo.active[r.cells])[:, :1] + r.points
        parts.append((points.reshape(-1, 2), np.tile(r.weights, len(r.cells)), r.cells.repeat(6)))
    points, weights, owner = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(owner, kind="stable")
    return PackedRule(points[order], weights[order], owner[order])


def packed_boundary_rule(rules):
    """Oracle: the boundary rule of every cut cell as one packed rule sorted by owner.

    The two parts ``rules.dirichlet`` and ``rules.neumann`` are concatenated and
    stable-sorted by owner, so each cell's Dirichlet points come before its Neumann points.
    """
    parts = [(r.points, r.weights, r.owner, r.normals) for r in (rules.dirichlet, rules.neumann)]
    points, weights, owner, normals = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(owner, kind="stable")
    return PackedRule(points[order], weights[order], owner[order], normals[order])


def cell_geometry(dofmap):
    """The vertex coordinates and hat gradients (both (m, 3, 2)) and dofs (m, 3) of every active
    cell, from the ids: the gradients are the dofmap's reference gradients by parity."""
    active = dofmap.topology.active
    coords = dofmap.mesh.triangle_coords(active)
    return coords, dofmap.reference_gradients[active & 1], dofmap.active_dofs


def grid_arrays(mesh):
    """Oracle: the vertex (N, 2) and triangle (2 n^2, 3) arrays of the whole grid, built at once.

    Vertex i (n + 1) + j is ``(xs[i], ys[j])`` read from a meshgrid, and cell i n + j with
    lower-left vertex v00 splits along its diagonal into [v00, v10, v11] and [v00, v11, v01].
    """
    n = mesh.n
    X, Y = np.meshgrid(mesh.xs, mesh.ys, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
    return vertices, np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)


def dict_faces(triangles):
    """Oracle: faces and adjacent triangles built the plain way, through a dict of edges."""
    face_map = {}
    for t, tri in enumerate(triangles):
        for k in range(3):
            edge = (int(tri[k]), int(tri[(k + 1) % 3]))
            face_map.setdefault((min(edge), max(edge)), []).append(t)
    keys = sorted(face_map)
    face_tris = np.full((len(keys), 2), -1, dtype=np.int64)
    for f, key in enumerate(keys):
        adj = sorted(face_map[key])
        face_tris[f, : len(adj)] = adj
    return np.array(keys, dtype=np.int64), face_tris


def face_keys(n, ends):
    """Oracle: the keys 3 low + kind of the faces with vertex ends ``ends`` (..., 2), low id
    first, as ``CutTopology.ghost_faces`` holds them; kind 0, 1 or 2 for a step of 1, n + 1 or
    n + 2 from the low end to the high one.  The faces of ``dict_faces`` and ``masked_faces``
    come in ascending key order, so ``np.searchsorted`` on their keys locates a ghost face.
    """
    step = ends[..., 1] - ends[..., 0]
    return 3 * ends[..., 0] + np.select([step == 1, step == n + 1], [0, 1], 2)


@functools.cache
def masked_faces(n):
    """Oracle: faces and face triangles of the n-by-n grid through a (n + 1)^2 x 3 existence mask."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    v, c = i * (n + 1) + j, i * n + j
    exists = np.stack([j < n, i < n, (i < n) & (j < n)], axis=-1)
    ends = v[..., None] + np.array([0, 1, 0, n + 1, 0, n + 2])
    faces = ends.reshape(n + 1, n + 1, 3, 2)[exists]
    low = np.stack([np.where(i > 0, 2 * (c - n), -1), np.where(j > 0, 2 * c - 1, -1), 2 * c], -1)
    high = np.stack([np.where(i < n, 2 * c + 1, -1), np.where(j < n, 2 * c, -1), 2 * c + 1], -1)
    pairs = np.stack([low, high], axis=-1)[exists]
    return faces, np.where(pairs[:, :1] < 0, pairs[:, ::-1], pairs)


def box_classify(mesh, domain):
    """Oracle: classification, active triangles and ghost faces by a scan of the whole box.

    Phi is evaluated at every vertex of the grid.  A triangle is inside when its vertices all
    lie in the open disk, cut when one of them does or, failing that, when its distance from
    the centre is below R, and outside otherwise; a ghost face is a face of ``masked_faces``
    between two active triangles of which one is cut, keyed by ``face_keys``.
    """
    vertices, triangles = grid_arrays(mesh)
    phi_t = signed_distance(domain, vertices)[triangles]
    cls = np.full(len(triangles), OUTSIDE, dtype=np.int8)
    all_in, any_in = (phi_t < 0.0).all(axis=1), (phi_t < 0.0).any(axis=1)
    cls[all_in] = INSIDE
    cls[any_in & ~all_in] = CUT
    candidates = np.flatnonzero(~any_in & (phi_t.min(axis=1) <= mesh.h))
    dist = _point_triangle_distance(domain.center_array, vertices[triangles[candidates]])
    cls[candidates[dist < domain.radius]] = CUT
    faces, face_tris = masked_faces(mesh.n)
    t0, t1 = face_tris.T
    c0, c1 = cls[t0], cls[t1]
    ghost = (t1 >= 0) & (c0 != OUTSIDE) & (c1 != OUTSIDE) & ((c0 == CUT) | (c1 == CUT))
    return cls, np.flatnonzero(cls != OUTSIDE), face_keys(mesh.n, faces[ghost])


def face_normal(mesh, ends, t):
    """Oracle: unit normal of faces with vertex ends ``ends`` (..., 2), pointing out of triangles
    ``t``, from the coordinates of each face and triangle.

    The ends and the triangles are ids, as ``masked_faces`` gives them.
    """
    ends = mesh.vertex_coords(ends)
    p0, tangent = ends[..., 0, :], ends[..., 1, :] - ends[..., 0, :]
    n = np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    centroid = mesh.triangle_coords(t).mean(axis=-2)
    inward = ((centroid - p0) * n).sum(axis=-1) > 0.0
    return np.where(inward[..., None], -n, n)


def jump_normal_gradient(f, face):
    """Oracle: jump of the normal gradient of ``f`` across one interior face of the active mesh.

    ``face`` is a key of ``face_keys``; its ends and triangles are read from ``masked_faces``.
    The jump is the sum of the two one-sided normal derivatives with outward normals, so it
    vanishes for globally affine functions; the reported sign corresponds to the face
    orientation (lower triangle index first).
    """
    dofmap = f.dofmap
    mesh = dofmap.mesh
    faces, face_tris = masked_faces(mesh.n)
    keys = face_keys(mesh.n, faces)
    row = np.searchsorted(keys, face)
    if row == len(keys) or keys[row] != face:
        raise ValueError(f"face {face} is not on the grid")
    ends, (t1, t2) = faces[row], face_tris[row]
    if t1 < 0 or t2 < 0:
        raise ValueError(f"face {face} is on the mesh boundary")
    if not (dofmap.topology.is_active(t1) and dofmap.topology.is_active(t2)):
        raise ValueError(f"face {face} has an inactive neighbor")
    n1 = face_normal(mesh, ends, t1)
    return float(gradient(f, t1) @ n1 - gradient(f, t2) @ n1)


def reference_tolerance(mesh, box, n):
    """Relative bound on per-cell against reference hat gradients.

    A vertex coordinate x is rounded to within eps |x|, so the grid's cells are
    translates of cells 0 and 1 only to about eps |x| / (cell side) relative:
    1e-13 near the origin, more on boxes many cells away from it.
    """
    cell = min(box[2] - box[0], box[3] - box[1]) / n
    return max(1e-13, 4.0 * np.finfo(float).eps * max(np.abs(mesh.xs).max(), np.abs(mesh.ys).max()) / cell)


def exact_disk_triangle_area(tri, center, radius):
    """Oracle: area of a triangle's intersection with a disk, in closed form.

    Each edge (a, b) contributes the signed area of the disk's intersection
    with the triangle (center, a, b): straight where the edge runs inside the
    disk, a circular sector where it runs outside.  The sum cancels terms as
    large as radius * diameter, which costs a float64 sum up to about 1e-12
    of a small cell's area, so it runs in ``np.longdouble`` (see ``ORACLE_EPS``).
    """
    ld = np.longdouble
    tri = np.asarray(tri, dtype=float).astype(ld) - np.asarray(center, dtype=float).astype(ld)
    r2 = ld(radius) * ld(radius)
    total = ld(0.0)
    for a, b in zip(tri, np.roll(tri, -1, axis=0)):
        d = b - a
        qa, qb, qc = d @ d, 2 * (a @ d), a @ a - r2
        disc = qb * qb - 4 * qa * qc
        ts = [ld(0.0), ld(1.0)]
        if disc > 0:
            s = np.sqrt(disc)
            ts = sorted(ts + [t for t in ((-qb - s) / (2 * qa), (-qb + s) / (2 * qa)) if 0 < t < 1])
        for t0, t1 in zip(ts[:-1], ts[1:]):
            p, q = a + t0 * d, a + t1 * d
            mid = a + (t0 + t1) / 2 * d
            cross = p[0] * q[1] - p[1] * q[0]
            if mid @ mid <= r2:
                total += cross / 2
            else:
                total += r2 / 2 * np.arctan2(cross, p @ q)
    return float(abs(total))


# Unit roundoff of ``exact_disk_triangle_area``: about 1.1e-19 where long double is
# the x87 extended format, 1.1e-16 where it is plain float64.
ORACLE_EPS = float(np.finfo(np.longdouble).eps)
