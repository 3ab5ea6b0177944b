"""Quadrature over cut volumes and cut boundary arcs, packed for batched assembly.

Every rule is built for a whole stack of triangles (m, 3, 2) at once and comes
back as flat arrays with an owner index per point; ``cut_volume_rule`` and
``cut_boundary_rule`` are the one-cell calls of the same code.

Volume rules advance a breadth-first frontier of open leaves, one array step
per subdivision depth.  A leaf inside the disk gets the degree-4 rule, a leaf
certified outside is dropped, and a leaf below the sloppy floor is decided by
its centroid.  A boundary leaf that the circle crosses in one clean, gently
curved arc takes the chord split: the part of the leaf on the center's side of
the chord is fan-triangulated, and the circular segment between chord and arc
gets a product rule whose mass must match the exact segment area.  Every other
boundary leaf is split into four for the next step, so the mass of each cell
matches the exact intersection area up to the requested tolerance.

Boundary rules are a flat table of angular panels (owner, b0, b1): the arcs
between the circle's crossings of each triangle, split at the boundary-condition
junctions and into pieces of at most ``max_piece``, then graded dyadically
toward the ``grade_angles``.  One Gauss map turns all panels into points, and
every panel is purely Dirichlet or purely Neumann.

``build_rules`` packs the rules of all active cells.  Inside cells take the
degree-4 rule directly, so only cut cells enter the volume frontier, and ghost
faces keep only their lengths, since the jump of a P1 normal gradient is
constant on a face.  ``refine_rule_toward`` grades a whole stack of cells
toward their singular points and sends all their leaves through one frontier,
with owner the cell's position in the stack.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from cutpoisson.geometry import (
    TWO_PI,
    _gauss,
    _wrap,
    cross2,
    is_dirichlet_angle,
    signed_distance,
)
from cutpoisson.mesh import CUT, _point_triangle_distance

DEFAULT_TOL = 1e-10
# below this the crossing roots and the mass floor no longer hold the volume mass contract
MIN_TOL = 1e-12


class QuadratureToleranceError(RuntimeError):
    """Raised when subdivision cannot reach the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved absolute error estimate {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class PackedRule:
    """Quadrature points of many cells in flat arrays.

    ``owner[q]`` is the cell that point q belongs to: its position in
    ``topology.active`` in a ``RuleSet``, its position in the input stack for
    the batched rule functions.  Boundary rules also carry the unit exterior
    normal and a Dirichlet flag per point; volume rules leave both None.
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

# Fractions of the arc at which the chord split checks that the arc stays in the leaf.
_ARC_SAMPLES = np.linspace(0.05, 0.95, 9)


def _tri_area(coords):
    """Area of a triangle, or of each triangle of a stack of shape (..., 3, 2)."""
    e = coords[..., 1:, :] - coords[..., :1, :]
    return 0.5 * np.abs(cross2(e[..., 0, :], e[..., 1, :]))


def _tri_diam(coords):
    """Diameter of a triangle, or of each triangle of a stack of shape (..., 3, 2)."""
    return np.linalg.norm(coords - np.roll(coords, -1, axis=-2), axis=-1).max(axis=-1)


def _full_triangle_points(coords):
    """Degree-4 points (..., 6, 2) and weights (..., 6) of a triangle or a stack of them."""
    return _D4_BARY @ coords, _D4_W * _tri_area(coords)[..., None]


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


def _on_circle(domain, psi):
    """Unit directions and circle points at the angles ``psi``, each of shape psi.shape + (2,)."""
    e = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return e, domain.center_array + domain.radius * e


def _in_triangles(tris, pts, owner):
    """Whether point q lies in triangle ``owner[q]``, up to a 1e-12 barycentric margin."""
    return np.all(_barycentric(tris, pts, owner) >= -1e-12, axis=1)


def _edge_roots(tris, center, radius):
    """Circle crossings on the edges p_k + t (p_{k+1} - p_k) of a stack of triangles.

    Returns the parameters t (m, 3, 2), NaN where the edge's line misses or
    only touches the circle, and the edge vectors (m, 3, 2).
    """
    d = np.roll(tris, -1, axis=1) - tris
    f = tris - center
    a = (d * d).sum(axis=-1)
    b = 2.0 * (f * d).sum(axis=-1)
    c = (f * f).sum(axis=-1) - radius * radius
    disc = b * b - 4.0 * a * c
    s = np.sqrt(disc, out=np.full_like(disc, np.nan), where=disc > 0.0)
    return np.stack([(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)], axis=-1), d


def _subdivide(tris):
    """The four midpoint children (4m, 3, 2) of each triangle, parent by parent."""
    mids = 0.5 * (tris + np.roll(tris, -1, axis=1))
    t0, t1, t2 = tris[:, 0], tris[:, 1], tris[:, 2]
    m0, m1, m2 = mids[:, 0], mids[:, 1], mids[:, 2]
    children = [np.stack(c, axis=1) for c in ((t0, m0, m2), (t1, m1, m0), (t2, m2, m1))]
    return np.stack(children + [mids], axis=1).reshape(-1, 3, 2)


def _segment_order(tol):
    return int(min(8, max(1, math.ceil(-math.log10(tol) / 2.0))))


def _segment_rules(domain, psi_a, alpha, n_psi, n_r=3):
    """Product rules on the circular segments between the chords and the minor arcs.

    Each segment is parameterized by the angle psi in [psi_a, psi_a + alpha]
    and the radius from the chord to the circle.  Returns points (k, q, 2),
    weights (k, q) and the exact segment areas (k,).
    """
    radius = domain.radius
    gn, gw = _gauss(n_psi)
    rn, rw = _gauss(n_r)
    d_chord = radius * np.cos(0.5 * alpha)
    psi_mid = psi_a + 0.5 * alpha
    psi = psi_mid[:, None] + 0.5 * alpha[:, None] * gn
    w_psi = 0.5 * alpha[:, None] * gw
    r0 = d_chord[:, None] / np.cos(psi - psi_mid[:, None])
    half = 0.5 * (radius - r0)
    r = r0[..., None] + half[..., None] * (rn + 1.0)
    w = (w_psi * half)[..., None] * rw * r
    e, _ = _on_circle(domain, psi)
    pts = domain.center_array + r[..., None] * e[:, :, None, :]
    area = 0.5 * radius * radius * (alpha - np.sin(alpha))
    q = n_psi * n_r
    return pts.reshape(len(alpha), q, 2), w.reshape(len(alpha), q), area


def _chord_split(tris, phi, domain):
    """The leaves that the circle crosses in a single clean, gently curved arc.

    Returns their indices, the first chord end p_a and the chord direction
    (k, 2), and the start angle and angle of the minor arc between the ends.
    A leaf is refused when a vertex lies on the circle, a crossing falls at or
    near a vertex, the crossings are not exactly two or nearly coincide, both
    cross one edge with the leaf on the center's side of it, the arc is wider
    than 0.8, or the arc leaves the triangle.
    """
    center, radius = domain.center_array, domain.radius
    t, d = _edge_roots(tris, center, radius)
    t = t.reshape(len(tris), 6)
    hit = (t >= -1e-9) & (t <= 1.0 + 1e-9)
    clean = (t > 1e-9) & (t < 1.0 - 1e-9)
    keep = np.flatnonzero(
        ~np.any(np.abs(phi) <= 1e-13 * radius, axis=1)
        & ~np.any(hit & ~clean, axis=1)
        & (hit.sum(axis=1) == 2)
    )
    slot = np.argsort(~hit[keep], axis=1, kind="stable")[:, :2]  # the two crossings, in edge order
    edge = slot // 2
    rows = keep[:, None]
    ends = tris[rows, edge] + np.take_along_axis(t[keep], slot, axis=1)[..., None] * d[rows, edge]
    p_a, p_b = ends[:, 0], ends[:, 1]

    ok = np.linalg.norm(p_a - p_b, axis=-1) > 1e-12 * radius  # not a near-tangent double root
    # with both crossings on one edge, the leaf must lie beyond that edge from the center,
    # or the part kept on the center's side of the chord is not inside the disk
    base, along = tris[keep, edge[:, 0]], d[keep, edge[:, 0]]
    opposite = tris[keep, (edge[:, 0] + 2) % 3]
    beyond = cross2(along, opposite - base) * cross2(along, center - base) < 0.0
    same_edge = edge[:, 0] == edge[:, 1]
    ok &= ~same_edge | beyond
    # two crossings of one edge span that edge exactly; the difference of the rounded,
    # nearly coinciding ends would tilt the chord across the whole leaf
    chord = np.where(same_edge[:, None], along, p_b - p_a)
    rel = ends - center
    psi = np.arctan2(rel[..., 1], rel[..., 0])
    alpha = _wrap(psi[:, 1] - psi[:, 0])
    major = alpha > math.pi
    psi_a = np.where(major, psi[:, 1], psi[:, 0])
    alpha = np.where(major, TWO_PI - alpha, alpha)
    ok &= alpha <= 0.8  # keep the product rule on a gently curved arc
    _, arc = _on_circle(domain, psi_a[:, None] + alpha[:, None] * _ARC_SAMPLES)
    inside = _in_triangles(tris, arc.reshape(-1, 2), keep.repeat(len(_ARC_SAMPLES)))
    ok &= inside.reshape(len(keep), len(_ARC_SAMPLES)).all(axis=1)
    return keep[ok], p_a[ok], chord[ok], psi_a[ok], alpha[ok]


def _clip_fan(tris, origin, normal):
    """Fan triangles (k, 2, 3, 2) of the parts of ``tris`` where (x - origin) . normal <= 0.

    Also returns which of the two fan triangles exist and have positive area.
    """
    vi = ((tris - origin[:, None]) * normal[:, None]).sum(axis=-1)
    vj = np.roll(vi, -1, axis=1)
    nxt = np.roll(tris, -1, axis=1)
    t = np.divide(vi, vi - vj, out=np.zeros_like(vi), where=vi != vj)
    crossing = ((vi > 0.0) != (vj > 0.0)) & (vi != vj) & (0.0 < t) & (t < 1.0)
    cut = tris + t[..., None] * (nxt - tris)
    # polygon vertices in boundary order: each kept vertex, then its edge's crossing
    candidates = np.stack([tris, cut], axis=2).reshape(len(tris), 6, 2)
    kept = np.stack([vi <= 0.0, crossing], axis=2).reshape(len(tris), 6)
    order = np.argsort(~kept, axis=1, kind="stable")[:, :4]
    poly = np.take_along_axis(candidates, order[..., None], axis=1)
    fan = np.stack([poly[:, [0, 1, 2]], poly[:, [0, 2, 3]]], axis=1)
    valid = (kept.sum(axis=1)[:, None] >= (3, 4)) & (_tri_area(fan) > 0.0)
    return fan, valid


def cut_volume_rules(triangles, domain, tol=DEFAULT_TOL, max_depth=48):
    """Quadrature over the intersection of each triangle of a stack (m, 3, 2) with the domain.

    Returns a ``PackedRule`` sorted by owner, the triangle's position in the
    stack.  Uncut triangles get the degree-4 rule; the mass of each cut
    triangle's rule matches the exact intersection area within ``tol`` times
    the triangle's area; ``tol`` below ``MIN_TOL`` raises ``ValueError``.
    """
    if not tol >= MIN_TOL:
        raise ValueError(f"quadrature tolerance {tol:g} is below the floor {MIN_TOL:g}")
    tris = np.asarray(triangles, dtype=float).reshape(-1, 3, 2)
    e = tris[:, 1:] - tris[:, :1]
    tris = np.where((cross2(e[:, 0], e[:, 1]) < 0.0)[:, None, None], tris[:, ::-1], tris)
    area0 = _tri_area(tris)
    diam0 = _tri_diam(tris)
    if np.any(area0 == 0.0):
        raise ValueError("degenerate triangle")

    sloppy_floor = np.maximum(tol * area0 / diam0, 1e-9 * diam0)
    mass_floor = 1e-16 * area0
    n_psi = _segment_order(tol)
    center, radius = domain.center_array, domain.radius

    out = []  # (points (k, q, 2), weights (k, q), owner (k,)) per emitted block
    err_estimate = np.zeros(len(tris))

    def emit_full(leaves, owner):
        out.append((*_full_triangle_points(leaves), owner))

    owner = np.arange(len(tris))
    for depth in range(max_depth + 1):
        phi = signed_distance(domain, tris)
        diam = _tri_diam(tris)
        inside = np.all(phi <= 0.0, axis=1)
        emit_full(tris[inside], owner[inside])
        # a leaf with all vertices outside is dropped when the disk cannot reach it
        dropped = np.all(phi > 0.0, axis=1) & (
            (phi.min(axis=1) > diam) | (_point_triangle_distance(center, tris) >= radius)
        )
        live = ~inside & ~dropped

        sloppy = live & (diam <= sloppy_floor[owner])
        err_estimate += np.bincount(owner[sloppy], _tri_area(tris[sloppy]), len(err_estimate))
        filled = np.flatnonzero(sloppy)
        filled = filled[signed_distance(domain, tris[filled].mean(axis=1)) <= 0.0]
        emit_full(tris[filled], owner[filled])

        live &= ~sloppy
        tris, owner, phi = tris[live], owner[live], phi[live]
        split, p_a, chord, psi_a, alpha = _chord_split(tris, phi, domain)
        seg_pts, seg_wts, seg_area = _segment_rules(domain, psi_a, alpha, n_psi)
        seg_err = np.abs(seg_wts.sum(axis=1) - seg_area)
        budget = np.maximum(tol * _tri_area(tris[split]), mass_floor[owner[split]])
        within = seg_err <= budget
        split, p_a, chord = split[within], p_a[within], chord[within]
        normal = np.stack([-chord[:, 1], chord[:, 0]], axis=1)
        normal[((center - p_a) * normal).sum(axis=1) > 0.0] *= -1.0  # keep the center's side
        fan, valid = _clip_fan(tris[split], p_a, normal)
        sub, piece = np.nonzero(valid)
        emit_full(fan[sub, piece], owner[split][sub])
        out.append((seg_pts[within], seg_wts[within], owner[split]))
        err_estimate += np.bincount(owner[split], seg_err[within], len(err_estimate))

        rest = np.ones(len(tris), dtype=bool)
        rest[split] = False
        if not rest.any():
            break
        if depth == max_depth:
            raise QuadratureToleranceError(
                "cut volume rule ran out of subdivision depth",
                err_estimate[owner[rest][0]],
            )
        tris, owner = _subdivide(tris[rest]), owner[rest].repeat(4)

    points = np.concatenate([p.reshape(-1, 2) for p, _, _ in out])
    weights = np.concatenate([w.ravel() for _, w, _ in out])
    owners = np.concatenate([o.repeat(w.shape[1]) for _, w, o in out])
    order = np.argsort(owners, kind="stable")
    return PackedRule(points[order], weights[order], owners[order])


def cut_volume_rule(triangle, domain, tol=DEFAULT_TOL, max_depth=48):
    """Quadrature over the intersection of one triangle with the domain (see ``cut_volume_rules``)."""
    return cut_volume_rules(np.asarray(triangle)[None], domain, tol, max_depth)


def _arcs(tris, domain):
    """Arcs of the circle inside each triangle, as (owner, start angle, angular width)."""
    center = domain.center_array
    m = len(tris)
    t, d = _edge_roots(tris, center, domain.radius)
    hit = ((t >= -1e-12) & (t <= 1.0 + 1e-12)).reshape(m, 6)
    rel = (tris[:, :, None] + np.clip(t, 0.0, 1.0)[..., None] * d[:, :, None]).reshape(m, 6, 2)
    rel -= center
    angles = np.sort(np.where(hit, _wrap(np.arctan2(rel[..., 1], rel[..., 0])), np.nan), axis=1)
    distinct = ~np.isnan(angles)
    distinct[:, 1:] &= np.diff(angles, axis=1) >= 1e-13
    angles = np.sort(np.where(distinct, angles, np.nan), axis=1)
    count = distinct.sum(axis=1)
    # a triangle the circle never crosses holds all of it, probed at angle 0, or none of it
    whole = count == 0
    angles[whole, 0] = 0.0
    n_arcs = np.maximum(count, 1)

    # each crossing starts an arc that ends at the next one, the last wrapping to the first
    real = np.arange(6) < n_arcs[:, None]
    ends = np.column_stack([angles[:, 1:], np.zeros(m)])
    ends[np.arange(6) == n_arcs[:, None] - 1] = angles[:, 0] + TWO_PI
    owner = np.nonzero(real)[0]
    start = angles[real]
    width = ends[real] - start
    _, probe = _on_circle(domain, np.where(whole[owner], 0.0, start + 0.5 * width))
    keep = (width >= 1e-13) & _in_triangles(tris, probe, owner)
    return owner[keep], start[keep], width[keep]


def _split_pieces(owner, start, width, cuts, max_piece):
    """Split each arc at the angles ``cuts`` inside it, then into equal pieces of at most ``max_piece``."""
    off = _wrap(cuts[None, :] - start[:, None])
    inner = (off > 1e-13) & (off < width[:, None] - 1e-13)
    ends = np.column_stack([np.where(inner, start[:, None] + off, np.inf), start + width])
    ends.sort(axis=1)
    starts = np.column_stack([start, ends[:, :-1]])
    real = np.isfinite(ends)
    owner, lo, hi = owner.repeat(real.sum(axis=1)), starts[real], ends[real]
    n_sub = np.maximum(1, np.ceil((hi - lo) / max_piece)).astype(np.int64)
    s = np.arange(n_sub.sum()) - (np.cumsum(n_sub) - n_sub).repeat(n_sub)
    owner, lo, hi, n_sub = (a.repeat(n_sub) for a in (owner, lo, hi, n_sub))
    return owner, lo + (hi - lo) * s / n_sub, lo + (hi - lo) * (s + 1) / n_sub


def _graded_panels(owner, lo, hi, grade_angles, levels):
    """Panels (owner, b0, b1) of the pieces, refined dyadically toward ends that are grade angles."""
    graded = _wrap(np.asarray(grade_angles, dtype=float))

    def near(x):
        gap = _wrap(x[:, None] - graded)
        return np.any(np.minimum(gap, _wrap(graded - x[:, None])) < 1e-12, axis=1)

    toward_lo, toward_hi = near(lo), near(hi)
    both = toward_lo & toward_hi
    width = np.where(both, 0.5, 1.0) * (hi - lo)
    steps = 2.0 ** -np.arange(1, levels + 1)
    breaks = np.column_stack(
        [
            lo,
            hi,
            np.where(both, 0.5 * (lo + hi), np.nan),
            np.where(toward_lo[:, None], lo[:, None] + width[:, None] * steps, np.nan),
            np.where(toward_hi[:, None], hi[:, None] - width[:, None] * steps, np.nan),
        ]
    )
    breaks.sort(axis=1)
    distinct = ~np.isnan(breaks)
    distinct[:, 1:] &= np.diff(breaks, axis=1) != 0.0
    row, col = np.nonzero(distinct)
    b = breaks[row, col]
    panel = row[1:] == row[:-1]
    return owner[row[:-1][panel]], b[:-1][panel], b[1:][panel]


def cut_boundary_rules(
    triangles,
    domain,
    order=6,
    grade_angles=(),
    grade_levels=16,
    max_piece=math.pi / 8.0,
):
    """Quadrature over the boundary arcs inside each triangle of a stack (m, 3, 2).

    Arcs are parameterized exactly by angle and split at the boundary-condition
    junctions, so that each piece carries a single condition; pieces abutting
    a ``grade_angles`` entry are refined dyadically toward it, which keeps the
    rules accurate for data that is singular there.  Returns a ``PackedRule``
    with exterior unit normals and Dirichlet flags, sorted by owner (the
    triangle's position in the stack) with each cell's Dirichlet points first.
    """
    tris = np.asarray(triangles, dtype=float).reshape(-1, 3, 2)
    owner, start, width = _arcs(tris, domain)
    owner, lo, hi = _split_pieces(owner, start, width, domain.junction_angles, max_piece)
    owner, b0, b1 = _graded_panels(owner, lo, hi, grade_angles, grade_levels)

    mid, half = 0.5 * (b0 + b1), 0.5 * (b1 - b0)
    dirichlet = is_dirichlet_angle(domain, _wrap(mid))
    panels = np.lexsort((~dirichlet, owner))
    gauss_n, gauss_w = _gauss(order)
    e, points = _on_circle(domain, mid[panels, None] + half[panels, None] * gauss_n)
    weights = (domain.radius * half[panels])[:, None] * gauss_w
    return PackedRule(
        points.reshape(-1, 2),
        weights.ravel(),
        owner[panels].repeat(order),
        e.reshape(-1, 2),
        dirichlet[panels].repeat(order),
    )


def cut_boundary_rule(
    triangle,
    domain,
    order=6,
    grade_angles=(),
    grade_levels=16,
    max_piece=math.pi / 8.0,
):
    """(Dirichlet, Neumann) rules on the boundary arcs inside one triangle (see ``cut_boundary_rules``)."""
    rule = cut_boundary_rules(
        np.asarray(triangle)[None], domain, order, grade_angles, grade_levels, max_piece
    )
    return rule.select(rule.dirichlet), rule.select(~rule.dirichlet)


def refine_rule_toward(triangles, domain, points, tol=DEFAULT_TOL, levels=8):
    """Volume rules of a stack of triangles (m, 3, 2), each subdivided toward its own point.

    Triangle k is split ``levels`` times toward ``points[k]`` (shape (m, 2)),
    where the solution has reduced regularity, and all leaves of all triangles
    go through one ``cut_volume_rules`` frontier.  Returns one ``PackedRule``
    whose owner is the triangle's position in the stack; each triangle's leaves
    keep the order of their subdivision level, coarsest first.
    """
    tris = np.asarray(triangles, dtype=float).reshape(-1, 3, 2)
    targets = np.asarray(points, dtype=float).reshape(-1, 2)
    cell = np.arange(len(tris))
    leaves, cells = [], []
    for _ in range(levels):
        near = _point_triangle_distance(targets[cell], tris) <= _tri_diam(tris)
        leaves.append(tris[~near])
        cells.append(cell[~near])
        tris, cell = _subdivide(tris[near]), cell[near].repeat(4)
    cell = np.concatenate(cells + [cell])
    order = np.argsort(cell, kind="stable")
    rule = cut_volume_rules(np.concatenate(leaves + [tris])[order], domain, tol)
    return dataclasses.replace(rule, owner=cell[order][rule.owner])


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


def build_rules(mesh, topology, domain, tol=DEFAULT_TOL):
    """Packed volume and boundary rules of the active cells, and ghost-face lengths.

    Inside cells take the degree-4 rule directly; only cut cells enter the
    ``cut_volume_rules`` frontier and the boundary rules.  Boundary rules are
    split at the boundary-condition junctions and graded toward them, which
    serves both singular boundary data and the sharply supported cutoff weight.
    """
    coords = topology.active_coords
    is_cut = topology.classification[topology.active] == CUT
    inside, cut = np.flatnonzero(~is_cut), np.flatnonzero(is_cut)
    cut_volume = cut_volume_rules(coords[cut], domain, tol)
    points, weights = _full_triangle_points(coords[inside])
    owner = np.concatenate([inside.repeat(len(_D4_W)), cut[cut_volume.owner]])
    order = np.argsort(owner, kind="stable")
    volume = PackedRule(
        np.concatenate([points.reshape(-1, 2), cut_volume.points])[order],
        np.concatenate([weights.ravel(), cut_volume.weights])[order],
        owner[order],
    )
    boundary = cut_boundary_rules(coords[cut], domain, grade_angles=domain.junction_angles)
    boundary = dataclasses.replace(boundary, owner=cut[boundary.owner])
    ends = mesh.vertices[mesh.faces[topology.ghost_faces]]
    face_lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=-1)
    return RuleSet(volume, boundary, face_lengths, tol)
