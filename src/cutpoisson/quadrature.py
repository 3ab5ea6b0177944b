"""Quadrature over cut volumes and cut boundary arcs, packed for batched assembly.

Volume rules on cut triangles are built by recursive subdivision: subcells
fully inside the disk get a standard rule, and boundary subcells are resolved
by clipping with the chord through the circle crossings plus a product rule on
the circular segment between chord and arc, so the cell mass matches the exact
area up to the requested tolerance.  Boundary rules parameterize the
intersection arcs exactly by angle and split them at the boundary-condition
junctions, so every piece is purely Dirichlet or purely Neumann.

``build_rules`` packs the rules of all active cells into flat arrays with an
owner cell per point; triangles inside the domain get the degree-4 rule
through their affine maps, all at once.  Ghost faces keep only their lengths,
since the jump of a P1 normal gradient is constant on a face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cutpoisson.geometry import (
    TWO_PI,
    _wrap,
    cross2,
    is_dirichlet_angle,
    signed_distance,
)
from cutpoisson.mesh import CUT, _point_triangle_distance

DEFAULT_TOL = 1e-10

REGION_CUT_VOLUME = "cut-volume"
REGION_BOUNDARY_D = "cut-boundary-dirichlet"
REGION_BOUNDARY_N = "cut-boundary-neumann"


class QuadratureToleranceError(RuntimeError):
    """Raised when subdivision cannot reach the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved absolute error estimate {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class QuadRule:
    """Points and weights tagged with the region they integrate.

    Boundary rules carry the unit exterior normal at each point.  Weights are
    nonnegative for every region produced here, although signed weights are
    admissible in the container.
    """

    points: np.ndarray
    weights: np.ndarray
    region: str
    normals: np.ndarray | None = None

    @property
    def measure(self):
        return float(self.weights.sum())

    def __len__(self):
        return len(self.weights)


def _empty_rule(region, with_normals=False):
    return QuadRule(
        np.empty((0, 2)),
        np.empty(0),
        region,
        np.empty((0, 2)) if with_normals else None,
    )


# Six-point degree-4 rule on the reference triangle (barycentric form).
_D4_A1, _D4_W1 = 0.445948490915965, 0.223381589678011
_D4_A2, _D4_W2 = 0.091576213509771, 0.109951743655322
_D4_BARY = np.array(
    [
        [1.0 - 2.0 * _D4_A1, _D4_A1, _D4_A1],
        [_D4_A1, 1.0 - 2.0 * _D4_A1, _D4_A1],
        [_D4_A1, _D4_A1, 1.0 - 2.0 * _D4_A1],
        [1.0 - 2.0 * _D4_A2, _D4_A2, _D4_A2],
        [_D4_A2, 1.0 - 2.0 * _D4_A2, _D4_A2],
        [_D4_A2, _D4_A2, 1.0 - 2.0 * _D4_A2],
    ]
)
_D4_W = np.array([_D4_W1, _D4_W1, _D4_W1, _D4_W2, _D4_W2, _D4_W2])


def _tri_area(coords):
    """Area of a triangle, or of each triangle of a stack of shape (..., 3, 2)."""
    e = coords[..., 1:, :] - coords[..., :1, :]
    return 0.5 * np.abs(cross2(e[..., 0, :], e[..., 1, :]))


def _tri_diam(coords):
    """Diameter of a triangle, or of each triangle of a stack of shape (..., 3, 2)."""
    return np.linalg.norm(coords - np.roll(coords, -1, axis=-2), axis=-1).max(axis=-1)


def _full_triangle_points(coords):
    return _D4_BARY @ coords, _D4_W * _tri_area(coords)


def _barycentric(coords, pts, owner=None):
    """Barycentric coordinates (nq, 3) of ``pts`` in the triangle ``coords``, by Cramer's rule.

    With ``owner``, ``coords`` stacks triangles (m, 3, 2) and point q is taken
    in triangle ``owner[q]``.
    """
    pts = np.atleast_2d(pts)
    c = coords if owner is None else coords[owner]
    e1, e2, d = c[..., 1, :] - c[..., 0, :], c[..., 2, :] - c[..., 0, :], pts - c[..., 0, :]
    lam = np.column_stack([cross2(d, e2), cross2(e1, d)]) / cross2(e1, e2)[..., None]
    return np.column_stack([1.0 - lam.sum(axis=1), lam])


def _points_in_triangle(coords, pts, margin=0.0):
    lam = _barycentric(coords, pts)
    return np.all(lam >= -margin, axis=1)


def _circle_edge_roots(p0, p1, center, radius):
    """Parameters t of the circle crossings on the segment p0 + t (p1 - p0)."""
    d = p1 - p0
    f = p0 - center
    a = float(d @ d)
    b = 2.0 * float(f @ d)
    c = float(f @ f) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    s = math.sqrt(disc)
    return [(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)]


def _clip_halfplane(poly, origin, normal):
    """Keep the part of a convex polygon with (x - origin) . normal <= 0."""
    out = []
    n = len(poly)
    vals = [float((p - origin) @ normal) for p in poly]
    for i in range(n):
        j = (i + 1) % n
        vi, vj = vals[i], vals[j]
        if vi <= 0.0:
            out.append(poly[i])
        if (vi > 0.0) != (vj > 0.0) and vi != vj:
            t = vi / (vi - vj)
            if 0.0 < t < 1.0:
                out.append(poly[i] + t * (poly[j] - poly[i]))
    return out


def _segment_rule(center, radius, psi_a, alpha, n_psi, n_r=3):
    """Product rule on the circular segment between the chord and the minor arc.

    The segment is parameterized by the angle psi in [psi_a, psi_a + alpha]
    and the radius from the chord to the circle.
    """
    d_chord = radius * math.cos(0.5 * alpha)
    psi_mid = psi_a + 0.5 * alpha
    gn, gw = np.polynomial.legendre.leggauss(n_psi)
    rn, rw = np.polynomial.legendre.leggauss(n_r)
    psi = psi_mid + 0.5 * alpha * gn
    w_psi = 0.5 * alpha * gw
    pts = []
    wts = []
    for p, wp in zip(psi, w_psi):
        r0 = d_chord / math.cos(p - psi_mid)
        half = 0.5 * (radius - r0)
        r = r0 + half * (rn + 1.0)
        w = wp * half * rw * r
        e = np.array([math.cos(p), math.sin(p)])
        pts.append(center + r[:, None] * e)
        wts.append(w)
    area = 0.5 * radius * radius * (alpha - math.sin(alpha))
    return np.vstack(pts), np.concatenate(wts), area


def _segment_order(tol):
    return int(min(8, max(1, math.ceil(-math.log10(tol) / 2.0))))


def _try_chord_split(coords, domain, phi):
    """Chord crossings if the circle meets the triangle in a single clean arc."""
    center, radius = domain.center_array, domain.radius
    if np.any(np.abs(phi) <= 1e-13 * radius):
        return None
    crossings = []
    for k in range(3):
        p0, p1 = coords[k], coords[(k + 1) % 3]
        for t in _circle_edge_roots(p0, p1, center, radius):
            if -1e-9 <= t <= 1.0 + 1e-9:
                if not (1e-9 < t < 1.0 - 1e-9):
                    return None  # crossing at or too close to a vertex
                crossings.append(p0 + t * (p1 - p0))
    if len(crossings) != 2:
        return None
    p_a, p_b = crossings
    if np.linalg.norm(p_a - p_b) <= 1e-12 * radius:
        return None  # near-tangent double root
    psi_1 = math.atan2(*(p_a - center)[::-1])
    psi_2 = math.atan2(*(p_b - center)[::-1])
    alpha = _wrap(psi_2 - psi_1)
    if alpha <= math.pi:
        psi_a = psi_1
    else:
        psi_a, alpha = psi_2, TWO_PI - alpha
    if alpha > 0.8:
        return None  # keep the product rule on a gently curved arc
    samples = psi_a + alpha * np.linspace(0.05, 0.95, 9)
    arc_pts = center + radius * np.column_stack([np.cos(samples), np.sin(samples)])
    if not np.all(_points_in_triangle(coords, arc_pts, margin=1e-12)):
        return None
    return p_a, p_b, psi_a, alpha


def cut_volume_rule(triangle, domain, tol=DEFAULT_TOL, max_depth=48):
    """Quadrature over the intersection of a triangle with the domain.

    Uncut triangles get the standard degree-4 rule; cut triangles are resolved
    recursively so the rule mass matches the exact intersection area within
    ``tol`` times the triangle area.
    """
    coords = np.asarray(triangle, dtype=float)
    if cross2(coords[1] - coords[0], coords[2] - coords[0]) < 0.0:
        coords = coords[::-1]
    area0 = _tri_area(coords)
    diam0 = _tri_diam(coords)
    if area0 == 0.0:
        raise ValueError("degenerate triangle")

    sloppy_floor = max(tol * area0 / diam0, 1e-9 * diam0)
    budget_rate = tol  # per-leaf area budget, relative to the leaf area
    n_psi = _segment_order(tol)

    pts_out, wts_out = [], []
    err_estimate = 0.0

    stack = [(coords, 0)]
    while stack:
        tri, depth = stack.pop()
        phi = signed_distance(domain, tri)
        if np.all(phi <= 0.0):
            p, w = _full_triangle_points(tri)
            pts_out.append(p)
            wts_out.append(w)
            continue
        if np.all(phi > 0.0):
            if phi.min() > _tri_diam(tri):
                continue
            if _point_triangle_distance(domain.center_array, tri) >= domain.radius:
                continue
        diam = _tri_diam(tri)
        if diam <= sloppy_floor:
            centroid = tri.mean(axis=0)
            err_estimate += _tri_area(tri)
            if float(signed_distance(domain, centroid)) <= 0.0:
                p, w = _full_triangle_points(tri)
                pts_out.append(p)
                wts_out.append(w)
            continue
        split = _try_chord_split(tri, domain, phi)
        if split is not None:
            p_a, p_b, psi_a, alpha = split
            seg_pts, seg_wts, seg_area = _segment_rule(
                domain.center_array, domain.radius, psi_a, alpha, n_psi
            )
            leaf_area = _tri_area(tri)
            if abs(seg_wts.sum() - seg_area) <= max(budget_rate * leaf_area, 1e-16 * area0):
                chord = p_b - p_a
                normal = np.array([-chord[1], chord[0]])
                if float((domain.center_array - p_a) @ normal) > 0.0:
                    normal = -normal
                poly = _clip_halfplane(list(tri), p_a, normal)
                for k in range(1, len(poly) - 1):
                    sub = np.array([poly[0], poly[k], poly[k + 1]])
                    if _tri_area(sub) > 0.0:
                        p, w = _full_triangle_points(sub)
                        pts_out.append(p)
                        wts_out.append(w)
                pts_out.append(seg_pts)
                wts_out.append(seg_wts)
                err_estimate += abs(seg_wts.sum() - seg_area)
                continue
        if depth >= max_depth:
            raise QuadratureToleranceError(
                "cut volume rule ran out of subdivision depth", err_estimate
            )
        mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
        stack.append((np.array([tri[0], mids[0], mids[2]]), depth + 1))
        stack.append((np.array([tri[1], mids[1], mids[0]]), depth + 1))
        stack.append((np.array([tri[2], mids[2], mids[1]]), depth + 1))
        stack.append((mids, depth + 1))

    if not pts_out:
        return _empty_rule(REGION_CUT_VOLUME)
    return QuadRule(np.vstack(pts_out), np.concatenate(wts_out), REGION_CUT_VOLUME)


def _graded_breaks(a, b, toward_a, toward_b, levels):
    """Dyadic refinement of [a, b] toward the flagged endpoints."""
    breaks = {a, b}
    if toward_a and toward_b:
        breaks.add(0.5 * (a + b))
    width = (0.5 if toward_a and toward_b else 1.0) * (b - a)
    if toward_a:
        breaks.update(a + width * 2.0**-k for k in range(1, levels + 1))
    if toward_b:
        breaks.update(b - width * 2.0**-k for k in range(1, levels + 1))
    return np.array(sorted(breaks))


def cut_boundary_rule(
    triangle,
    domain,
    tol=DEFAULT_TOL,
    order=6,
    grade_angles=(),
    grade_levels=16,
    max_piece=math.pi / 8.0,
):
    """Quadrature over the boundary arcs inside a triangle, split by condition.

    Returns a (Dirichlet, Neumann) pair of rules.  Arcs are parameterized
    exactly by angle; they are split at the boundary-condition junctions so
    that each piece carries a single condition,
    and pieces abutting a ``grade_angles`` entry are refined dyadically toward
    it, which keeps the rules accurate for data that is singular there.
    Exterior unit normals are attached per point.
    """
    coords = np.asarray(triangle, dtype=float)
    center, radius = domain.center_array, domain.radius

    angles = set()
    for k in range(3):
        p0, p1 = coords[k], coords[(k + 1) % 3]
        for t in _circle_edge_roots(p0, p1, center, radius):
            if -1e-12 <= t <= 1.0 + 1e-12:
                p = p0 + min(1.0, max(0.0, t)) * (p1 - p0)
                angles.add(float(_wrap(math.atan2(*(p - center)[::-1]))))

    def in_tri(psi):
        pts = center + radius * np.column_stack([np.cos(psi), np.sin(psi)])
        return _points_in_triangle(coords, pts, margin=1e-12)

    if not angles:
        if bool(in_tri(np.array([0.0]))[0]):
            arcs = [(0.0, TWO_PI)]
        else:
            return (
                _empty_rule(REGION_BOUNDARY_D, with_normals=True),
                _empty_rule(REGION_BOUNDARY_N, with_normals=True),
            )
    else:
        sorted_angles = np.sort(np.array(sorted(angles)))
        sorted_angles = sorted_angles[np.r_[True, np.diff(sorted_angles) >= 1e-13]]
        arcs = []
        m = len(sorted_angles)
        for i in range(m):
            a = sorted_angles[i]
            b = sorted_angles[(i + 1) % m] if i + 1 < m else sorted_angles[0] + TWO_PI
            width = b - a
            if width < 1e-13:
                continue
            if bool(in_tri(np.array([a + 0.5 * width]))[0]):
                arcs.append((a, width))

    cut_points = list(domain.junction_angles)
    graded = [float(_wrap(g)) for g in grade_angles]

    pieces = []
    for a, width in arcs:
        interior = sorted(
            {
                a + _wrap(cp - a)
                for cp in cut_points
                if 1e-13 < _wrap(cp - a) < width - 1e-13
            }
        )
        bounds = [a] + interior + [a + width]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            n_sub = max(1, math.ceil((hi - lo) / max_piece))
            for s in range(n_sub):
                pieces.append((lo + (hi - lo) * s / n_sub, lo + (hi - lo) * (s + 1) / n_sub))

    def near(x, g):
        return min(abs(_wrap(x - g)), abs(_wrap(g - x))) < 1e-12

    gauss_n, gauss_w = np.polynomial.legendre.leggauss(order)
    parts = {True: ([], [], []), False: ([], [], [])}  # dirichlet -> pts, wts, normals
    for lo, hi in pieces:
        toward_lo = any(near(lo, g) for g in graded)
        toward_hi = any(near(hi, g) for g in graded)
        if toward_lo or toward_hi:
            breaks = _graded_breaks(lo, hi, toward_lo, toward_hi, grade_levels)
        else:
            breaks = np.array([lo, hi])
        for b0, b1 in zip(breaks[:-1], breaks[1:]):
            mid, half = 0.5 * (b0 + b1), 0.5 * (b1 - b0)
            psi = mid + half * gauss_n
            tag = bool(is_dirichlet_angle(domain, np.float64(_wrap(mid))))
            e = np.column_stack([np.cos(psi), np.sin(psi)])
            parts[tag][0].append(center + radius * e)
            parts[tag][1].append(radius * half * gauss_w)
            parts[tag][2].append(e)

    rules = []
    for tag, region in ((True, REGION_BOUNDARY_D), (False, REGION_BOUNDARY_N)):
        pts, wts, nrm = parts[tag]
        if pts:
            rules.append(
                QuadRule(np.vstack(pts), np.concatenate(wts), region, np.vstack(nrm))
            )
        else:
            rules.append(_empty_rule(region, with_normals=True))
    return rules[0], rules[1]


def refine_rule_toward(triangle, domain, point, tol=DEFAULT_TOL, levels=8):
    """Volume rule with extra subdivision toward a point of reduced regularity."""
    point = np.asarray(point, dtype=float)
    pts, wts = [], []
    stack = [(np.asarray(triangle, dtype=float), 0)]
    while stack:
        tri, depth = stack.pop()
        if depth < levels and _point_triangle_distance(point, tri) <= _tri_diam(tri):
            mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
            stack.append((np.array([tri[0], mids[0], mids[2]]), depth + 1))
            stack.append((np.array([tri[1], mids[1], mids[0]]), depth + 1))
            stack.append((np.array([tri[2], mids[2], mids[1]]), depth + 1))
            stack.append((mids, depth + 1))
            continue
        rule = cut_volume_rule(tri, domain, tol)
        if len(rule):
            pts.append(rule.points)
            wts.append(rule.weights)
    if not pts:
        return _empty_rule(REGION_CUT_VOLUME)
    return QuadRule(np.vstack(pts), np.concatenate(wts), REGION_CUT_VOLUME)


@dataclass(frozen=True)
class PackedRule:
    """Quadrature points of many cells in flat arrays.

    ``owner[q]`` is the position in ``topology.active`` of the cell that point
    q belongs to.  Boundary rules also carry the unit exterior normal and a
    Dirichlet flag per point; volume rules leave both None.
    """

    points: np.ndarray
    weights: np.ndarray
    owner: np.ndarray
    normals: np.ndarray | None = None
    dirichlet: np.ndarray | None = None

    def select(self, mask):
        """The points where ``mask`` holds, in the same order."""
        fields = (self.points, self.weights, self.owner, self.normals, self.dirichlet)
        return PackedRule(*(None if a is None else a[mask] for a in fields))


@dataclass(frozen=True)
class RuleSet:
    """Packed quadrature of one cut topology.

    ``volume`` integrates over every active cell's intersection with the
    domain, ``boundary`` over the boundary arcs; both are sorted by owner, with
    the Dirichlet points of a cell before its Neumann points.  ``face_lengths``
    is aligned with ``topology.ghost_faces``.
    """

    volume: PackedRule
    boundary: PackedRule
    face_lengths: np.ndarray
    tol: float = DEFAULT_TOL

    @property
    def dirichlet(self):
        return self.boundary.select(self.boundary.dirichlet)

    @property
    def neumann(self):
        return self.boundary.select(~self.boundary.dirichlet)


def build_rules(mesh, topology, domain, tol=DEFAULT_TOL, grade_levels=16):
    """Packed volume and boundary rules of the active cells, and ghost-face lengths.

    Boundary rules are split at the boundary-condition junctions and graded
    toward them, which serves both singular boundary data and the sharply
    supported cutoff weight.
    """
    coords = mesh.vertices[mesh.triangles[topology.active]]
    is_cut = topology.classification[topology.active] == CUT
    inside = np.flatnonzero(~is_cut)
    inner = coords[inside]
    # the batched map is bitwise equal to the per-cell rule
    w_inner = _D4_W * _tri_area(inner)[:, None]
    vol = [((_D4_BARY @ inner).reshape(-1, 2), w_inner.ravel(), inside.repeat(len(_D4_W)))]
    bnd = [(np.empty((0, 2)), np.empty(0), np.empty(0, int), np.empty((0, 2)), np.empty(0, bool))]
    junctions = tuple(domain.junction_angles)
    for k in np.flatnonzero(is_cut):
        rule = cut_volume_rule(coords[k], domain, tol)
        vol.append((rule.points, rule.weights, np.full(len(rule), k)))
        parts = cut_boundary_rule(
            coords[k], domain, tol, grade_angles=junctions, grade_levels=grade_levels
        )
        for r, tag in zip(parts, (True, False)):
            bnd.append((r.points, r.weights, np.full(len(r), k), r.normals, np.full(len(r), tag)))
    points, weights, owner = (np.concatenate(a) for a in zip(*vol))
    order = np.argsort(owner, kind="stable")
    volume = PackedRule(points[order], weights[order], owner[order])
    boundary = PackedRule(*(np.concatenate(a) for a in zip(*bnd)))
    ends = mesh.vertices[mesh.faces[topology.ghost_faces]]
    face_lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=-1)
    return RuleSet(volume, boundary, face_lengths, tol)
