"""Quadrature over cut volumes and cut boundary arcs, packed for batched assembly.

Every rule is built for a whole stack of triangles (m, 3, 2) at once and comes
back as flat arrays with an owner index per point; ``cut_volume_rule`` and
``cut_boundary_rule`` are the one-cell calls of the same code.

Volume rules are exact in their geometry and subdivide nothing.  A triangle
inside the disk takes the degree-4 rule.  For any other triangle T the set
T ∩ D is convex: its boundary is the parts of T's edges inside the disk and
the arcs of the circle inside T.  With each arc split into pieces of at most
0.25 rad and each piece replaced by its chord, T ∩ D is a convex polygon plus
one circular segment per piece.  The polygon's vertices are T's vertices
inside the disk, the edge crossings and the piece ends, in the order of a walk
around T from vertex 0; it is fan-triangulated from its first vertex and takes
the degree-4 rule.  Each segment takes a product Gauss rule, and its order in
the angle is all that the tolerance selects.  This is the construction of
Burman et al. (IJNME 2015) and Fries & Omerović (IJNME 2016) for a circle.

Boundary rules are a flat table of angular panels (owner, b0, b1): the arcs
between the circle's crossings of each triangle, split at the boundary-condition
junctions and into pieces of at most ``_BOUNDARY_PIECE``, then graded dyadically
toward the junctions.  Every panel is purely Dirichlet or purely Neumann, so the
rule comes as two packed rules, one per condition, each sorted by owner: every
boundary term of the Nitsche form reads one of them only.

``build_rules`` packs the rules of the cut cells only.  It is the one-topology
call of ``build_rules_batch``, which sends the cut cells of several topologies
of one domain, such as the shifted grids of a sweep, through one volume rule
and one boundary rule call: both work cell by cell and arc by arc, and each
topology's arcs are made to tile its circle on their own.  Every grid triangle
is a translate of triangle ``t & 1``, so an inside cell never becomes packed
points: its degree-4 points are its vertex 0 plus the reference points of its
parity, ``_full_triangle_points(mesh.reference_triangles)``, and its weights
and the offsets of its points from its centroid are those of the reference
triangle.  ``RuleSet.cell_sums`` integrates a consumer's integrand over every
active cell, the cut cells' packed points and blocks of the inside cells'
translates alike.  ``refine_rule_toward`` grades a whole stack of cells toward
their singular points and sends all their leaves through one
``cut_volume_rules`` call, with owner the cell's position in the stack.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from cutpoisson.geometry import TWO_PI, _gauss, _wrap, cross2, is_dirichlet_angle, signed_distance
from cutpoisson.mesh import CUT, _point_triangle_distance

DEFAULT_TOL = 1e-10
# the round-off floor: below it the rounding of the crossings and of the fan
# triangles, not the segment order, sets a cut cell's mass error
MIN_TOL = 1e-12
REFINE_LEVELS = 8  # the error norms' volume-rule subdivisions toward singular points


@dataclass(frozen=True)
class PackedRule:
    """Quadrature points of many cells in flat arrays.

    ``owner[q]`` is the cell that point q belongs to: its position in
    ``topology.active`` in a ``RuleSet``, its position in the input stack for
    the batched rule functions.  Boundary rules also carry the unit exterior
    normal per point; volume rules leave it None.
    """

    points: np.ndarray
    weights: np.ndarray
    owner: np.ndarray
    normals: np.ndarray | None = None

    def select(self, mask):
        """The points where ``mask`` holds, in the same order."""
        fields = (self.points, self.weights, self.owner, self.normals)
        return PackedRule(*(None if a is None else a[mask] for a in fields))


# Six-point degree-4 rule on the reference triangle (barycentric form).
_D4_A1, _D4_W1 = 0.445948490915965, 0.223381589678011
_D4_A2, _D4_W2 = 0.091576213509771, 0.109951743655322
_D4_BARY = np.array([np.roll([1.0 - 2.0 * a, a, a], k) for a in (_D4_A1, _D4_A2) for k in range(3)])
_D4_W = np.repeat([_D4_W1, _D4_W2], 3)

# Widest arc piece of a volume rule.  Every arc of the R = 0.7 disk on the
# n >= 16 grids of [-1, 1]^2, shifted or not, is at most 0.238 rad, so there
# each arc is one piece.
_MAX_PIECE = 0.25

# Relative mass error of the segment rule on a 0.25 rad piece, by its Gauss order
# in the angle (the three radial points integrate the Jacobian r exactly):
#   order   2        3        4        5        6
#   error   1.4e-3   3.2e-6   6.6e-9   1.3e-11  3.8e-14
# A segment lies in its cell, so the lowest order whose error is at most tol
# keeps the cell's mass within tol times its area: tolerances 1e-2, 1e-4 and
# 1e-6 take orders 2, 3 and 4, and 1e-8, 1e-10 and 1e-12 take 4, 5 and 6.
_SEGMENT_ERRORS = {2: 1.4e-3, 3: 3.2e-6, 4: 6.6e-9, 5: 1.3e-11, 6: 3.8e-14}
_SEGMENT_RADIAL = 3  # radial Gauss points of a segment rule

# Boundary rules: Gauss points per panel, the widest arc piece, and the number
# of dyadic grading levels toward a junction.
_BOUNDARY_ORDER = 6
_BOUNDARY_PIECE = math.pi / 8.0
_GRADE_LEVELS = 16


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


def _barycentric(coords, pts):
    """Barycentric coordinates (nq, 3) of ``pts`` in the triangle ``coords``, by Cramer's rule.

    ``coords`` is one triangle (3, 2) or a stack (nq, 3, 2), one per point.
    """
    pts = np.atleast_2d(pts)
    c0 = coords[..., 0, :]
    e1, e2, d = coords[..., 1, :] - c0, coords[..., 2, :] - c0, pts - c0
    lam = np.column_stack([cross2(d, e2), cross2(e1, d)]) / cross2(e1, e2)[..., None]
    return np.column_stack([1.0 - lam.sum(axis=1), lam])


def _on_circle(domain, psi):
    """Unit directions and circle points at the angles ``psi``, each of shape psi.shape + (2,)."""
    e = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    return e, domain.center_array + domain.radius * e


def _edge_roots(tris, center, radius):
    """Circle crossings on the edges p_k + t (p_{k+1} - p_k) of a stack of triangles.

    Each edge is solved once, from its lower end (by x, then y), so the two triangles of a
    shared edge get its crossing points bit for bit.  Returns the parameters t (m, 3, 2) in
    increasing order, NaN where the edge's line misses or only touches the circle, and the
    angles (m, 3, 2) of the crossing points clamped to the edge, NaN over 1e-12 off it.
    """
    nxt = np.roll(tris, -1, axis=1)
    dx, dy = np.moveaxis(nxt - tris, -1, 0)
    flip = ((dx < 0.0) | ((dx == 0.0) & (dy < 0.0)))[..., None]
    low = np.where(flip, nxt, tris)
    d = np.where(flip, tris, nxt) - low
    f = low - center
    a = (d * d).sum(axis=-1)
    b = 2.0 * (f * d).sum(axis=-1)
    c = (f * f).sum(axis=-1) - radius * radius
    disc = b * b - 4.0 * a * c
    root = np.sqrt(disc, out=np.full_like(disc, np.nan), where=disc > 0.0)
    s = np.stack([(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)], axis=-1)  # from the low end
    hit = (s >= -1e-12) & (s <= 1.0 + 1e-12)
    rel = (low[:, :, None] + np.clip(s, 0.0, 1.0)[..., None] * d[:, :, None])[hit] - center
    angles = np.full(s.shape, np.nan)
    angles[hit] = _wrap(np.arctan2(rel[:, 1], rel[:, 0]))  # not on NaN, where np.mod is slow
    return np.where(flip, 1.0 - s[..., ::-1], s), angles


def _subdivide(tris):
    """The four midpoint children (4m, 3, 2) of each triangle, parent by parent."""
    mids = 0.5 * (tris + np.roll(tris, -1, axis=1))
    t0, t1, t2 = tris[:, 0], tris[:, 1], tris[:, 2]
    m0, m1, m2 = mids[:, 0], mids[:, 1], mids[:, 2]
    children = [np.stack(c, axis=1) for c in ((t0, m0, m2), (t1, m1, m0), (t2, m2, m1))]
    return np.stack(children + [mids], axis=1).reshape(-1, 3, 2)


def _segment_order(tol):
    return next(n for n, err in _SEGMENT_ERRORS.items() if err <= tol)


def _segment_rules(domain, psi_a, alpha, n_psi):
    """Product rules on the circular segments between the chords and the minor arcs.

    Each segment is parameterized by the angle psi in [psi_a, psi_a + alpha]
    and the radius from the chord to the circle.  Returns points (k, q, 2) and
    weights (k, q).
    """
    radius = domain.radius
    gn, gw = _gauss(n_psi)
    rn, rw = _gauss(_SEGMENT_RADIAL)
    a = 0.5 * alpha[:, None]
    psi = psi_a[:, None] + a * (1.0 + gn)
    # half the depth R - r0 at psi of the segment behind the chord r0 = R cos(a) / cos(a gn),
    # written as a product so that it keeps its precision on narrow segments
    half = radius * np.sin(0.5 * a * (1.0 + gn)) * np.sin(0.5 * a * (1.0 - gn)) / np.cos(a * gn)
    r = radius - half[..., None] * (1.0 - rn)
    w = (a * gw * half)[..., None] * rw * r
    e, _ = _on_circle(domain, psi)
    pts = domain.center_array + r[..., None] * e[:, :, None, :]
    q = n_psi * _SEGMENT_RADIAL
    return pts.reshape(len(alpha), q, 2), w.reshape(len(alpha), q)


def _chord_polygons(tris, domain):
    """Degree-4 rules on the fan of each triangle's chord polygon, and the arc pieces beyond it.

    The polygon's vertices are the ends of each edge's part inside the disk
    and the inner piece ends of each arc.  T ∩ D is convex, so they go around
    it in the order of their angles about their mean; the fan starts where a
    walk around T from vertex 0 does.  The polygon is built relative to
    vertex 0, so that its fan areas keep the precision of the cell's size
    rather than of its coordinates.  Returns the fan points (f, 6, 2),
    weights (f, 6) and owners (f,), the pieces as (owner, start angle,
    end angle), and the arcs of ``_arcs``.
    """
    m, radius = len(tris), domain.radius
    origin = tris[:, 0]
    local = tris - origin[:, None]
    t, arcs = _arcs(tris, domain)
    inner = np.stack([np.maximum(t[..., 0], 0.0), np.minimum(t[..., 1], 1.0)], axis=-1)
    on = inner[..., 0] <= inner[..., 1]  # False where the edge's line misses the circle
    nxt = np.roll(local, -1, axis=1)[:, :, None]
    ends = (1.0 - inner[..., None]) * local[:, :, None] + inner[..., None] * nxt  # (m, 3, 2, 2)

    owner, start, width = arcs
    arc, lo, hi, step = _equal_pieces(start, start + width, _MAX_PIECE)
    # every piece start is a vertex but an arc's start on an edge; a circle inside T has none
    corner = (step > 0) | ~on.any(axis=1)[owner[arc]]
    center = domain.center_array - origin[owner[arc[corner]]]
    corners = center + radius * _on_circle(domain, lo[corner])[0]

    # in walk order first: edge k's inside part, k = 0, 1, 2, then the piece ends
    real = on.repeat(2, axis=1).ravel()
    vertices = np.concatenate([ends.reshape(-1, 2)[real], corners])
    cell = np.concatenate([np.arange(m).repeat(6)[real], owner[arc[corner]]])
    count = np.bincount(cell, minlength=m)
    mean = np.column_stack([np.bincount(cell, v, m) for v in vertices.T])[cell] / count[cell, None]
    rel = vertices - mean
    by_angle = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), cell))
    head = np.cumsum(count) - count
    rank = np.empty_like(by_angle)
    rank[by_angle] = np.arange(len(cell)) - head[cell[by_angle]]
    first = np.full(m, len(cell))
    np.minimum.at(first, cell, np.arange(len(cell)))
    turn = (rank - rank[first[cell]]) % count[cell]
    walk = np.empty_like(by_angle)
    walk[head[cell] + turn] = np.arange(len(cell))
    vertices, cell = vertices[walk], cell[walk]

    rank = np.arange(len(cell)) - head[cell]
    mid = np.flatnonzero((rank >= 1) & (rank <= count[cell] - 2))
    fans = np.stack([vertices[head[cell[mid]]], vertices[mid], vertices[mid + 1]], axis=1)
    kept = _tri_area(fans) > 0.0  # drops the fans of repeated vertices
    points, weights = _full_triangle_points(fans[kept])
    cell = cell[mid[kept]]
    return points + origin[cell, None], weights, cell, owner[arc], lo, hi, arcs


def cut_volume_rules(triangles, domain, tol=DEFAULT_TOL):
    """Quadrature over the intersection of each triangle of a stack (m, 3, 2) with the domain.

    Returns a ``PackedRule`` sorted by owner, the triangle's position in the
    stack.  A triangle inside the disk gets the degree-4 rule.  Any other
    triangle gets the degree-4 rule on the fan of its chord polygon and a
    segment rule on each arc piece; its mass matches the exact intersection
    area within ``tol`` times the triangle's area.  ``tol`` below ``MIN_TOL``
    raises ``ValueError``.
    """
    return _cut_volume_rules(triangles, domain, tol)[0]


def _cut_volume_rules(triangles, domain, tol):
    """``cut_volume_rules``, and the ``_arcs`` of its cut triangles, owned by stack position."""
    if not tol >= MIN_TOL:
        raise ValueError(f"quadrature tolerance {tol:g} is below the floor {MIN_TOL:g}")
    tris = np.asarray(triangles, dtype=float).reshape(-1, 3, 2)
    e = tris[:, 1:] - tris[:, :1]
    tris = np.where((cross2(e[:, 0], e[:, 1]) < 0.0)[:, None, None], tris[:, ::-1], tris)
    if np.any(_tri_area(tris) == 0.0):
        raise ValueError("degenerate triangle")

    inside = np.all(signed_distance(domain, tris) <= 0.0, axis=1)
    cut = np.flatnonzero(~inside)
    fan_points, fan_weights, fan_owner, piece_owner, lo, hi, arcs = _chord_polygons(
        tris[cut], domain
    )
    blocks = [
        (*_full_triangle_points(tris[inside]), np.flatnonzero(inside)),
        (fan_points, fan_weights, cut[fan_owner]),
        (*_segment_rules(domain, lo, hi - lo, _segment_order(tol)), cut[piece_owner]),
    ]
    points = np.concatenate([p.reshape(-1, 2) for p, _, _ in blocks])
    weights = np.concatenate([w.ravel() for _, w, _ in blocks])
    owners = np.concatenate([o.repeat(w.shape[1]) for _, w, o in blocks])
    order = np.argsort(owners, kind="stable")
    return PackedRule(points[order], weights[order], owners[order]), (cut[arcs[0]], *arcs[1:])


def cut_volume_rule(triangle, domain, tol=DEFAULT_TOL):
    """Quadrature over the intersection of one triangle with the domain (see ``cut_volume_rules``)."""
    return cut_volume_rules(np.asarray(triangle)[None], domain, tol)


def _arcs(tris, domain):
    """The t of ``_edge_roots``, and the circle's arcs in each triangle as (owner, start, width)."""
    m = len(tris)
    t, angles = _edge_roots(tris, domain.center_array, domain.radius)
    angles = np.sort(angles.reshape(m, 6), axis=1)
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
    keep = (width >= 1e-13) & np.all(_barycentric(tris[owner], probe) >= -1e-12, axis=1)
    return t, (owner[keep], start[keep], width[keep])


def _tiling_arcs(arcs):
    """The ``arcs`` of cells that tile the plane, with each angle in one arc only.

    Both cells of a shared edge within rounding of tangency may keep the arc along it, whose
    midpoint lies within the probe's 1e-12 of both.
    Swept by start, an arc that starts over 1e-13 inside the arcs before it (the last wrapping
    round) starts where they end; the other arcs keep their bits.
    """
    owner, start, width = arcs
    end, order = start + width, np.argsort(start, kind="stable")
    covered = np.empty_like(start)
    wrapped = np.max(end, initial=TWO_PI) - TWO_PI
    covered[order] = np.maximum.accumulate(np.r_[wrapped, end[order][:-1]])
    moved = covered - start > 1e-13
    start, width = np.where(moved, covered, start), np.where(moved, end - covered, width)
    return owner[width > 0.0], start[width > 0.0], width[width > 0.0]


def _equal_pieces(lo, hi, max_piece):
    """Split each interval [lo, hi] into equal pieces of at most ``max_piece``.

    Returns each piece's interval, its two ends and its position in its interval.
    """
    n_sub = np.maximum(1, np.ceil((hi - lo) / max_piece)).astype(np.int64)
    part = np.arange(len(lo)).repeat(n_sub)
    s = np.arange(len(part)) - (np.cumsum(n_sub) - n_sub)[part]
    lo, hi, n_sub = lo[part], hi[part], n_sub[part]
    return part, lo + (hi - lo) * s / n_sub, lo + (hi - lo) * (s + 1) / n_sub, s


def _split_pieces(arcs, cuts):
    """Split each of the ``arcs`` at ``cuts`` inside it, then into equal pieces of at most
    ``_BOUNDARY_PIECE``; returns the pieces as (owner, start angle, end angle)."""
    owner, start, width = arcs
    off = _wrap(cuts[None, :] - start[:, None])
    inner = (off > 1e-13) & (off < width[:, None] - 1e-13)
    ends = np.column_stack([np.where(inner, start[:, None] + off, np.inf), start + width])
    ends.sort(axis=1)
    starts = np.column_stack([start, ends[:, :-1]])
    real = np.isfinite(ends)
    part, lo, hi, _ = _equal_pieces(starts[real], ends[real], _BOUNDARY_PIECE)
    return owner.repeat(real.sum(axis=1))[part], lo, hi


def _graded_panels(pieces, angles):
    """Panels (owner, b0, b1) of the ``pieces``, refined dyadically toward ends at ``angles``."""
    owner, lo, hi = pieces
    graded = _wrap(angles)

    def near(x):
        gap = _wrap(x[:, None] - graded)
        return np.any(np.minimum(gap, _wrap(graded - x[:, None])) < 1e-12, axis=1)

    toward_lo, toward_hi = near(lo), near(hi)
    both = toward_lo & toward_hi
    width = np.where(both, 0.5, 1.0) * (hi - lo)
    steps = 2.0 ** -np.arange(1, _GRADE_LEVELS + 1)
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


def cut_boundary_rules(triangles, domain):
    """Quadrature over the boundary arcs inside each triangle of a stack (m, 3, 2).

    Arcs are parameterized exactly by angle and split at the boundary-condition
    junctions, so that each piece carries a single condition; pieces abutting
    a junction are refined dyadically toward it, which keeps the rules accurate
    for singular boundary data and for the sharply supported cutoff weight.
    Returns the (Dirichlet, Neumann) pair of ``PackedRule``s with exterior unit
    normals, each sorted by owner (the triangle's position in the stack).
    """
    tris = np.asarray(triangles, dtype=float).reshape(-1, 3, 2)
    return _boundary_rule(domain, _arcs(tris, domain)[1])


def _boundary_rule(domain, arcs):
    """The rules of ``cut_boundary_rules`` on the arcs (owner, start angle, angular width)."""
    pieces = _split_pieces(arcs, domain.junction_angles)
    owner, b0, b1 = _graded_panels(pieces, domain.junction_angles)

    mid, half = 0.5 * (b0 + b1), 0.5 * (b1 - b0)
    dirichlet = is_dirichlet_angle(domain, _wrap(mid))
    gauss_n, gauss_w = _gauss(_BOUNDARY_ORDER)
    rules = []
    for panels in (np.flatnonzero(dirichlet), np.flatnonzero(~dirichlet)):
        panels = panels[np.argsort(owner[panels], kind="stable")]
        e, points = _on_circle(domain, mid[panels, None] + half[panels, None] * gauss_n)
        weights = (domain.radius * half[panels])[:, None] * gauss_w
        owners = owner[panels].repeat(_BOUNDARY_ORDER)
        rules.append(PackedRule(points.reshape(-1, 2), weights.ravel(), owners, e.reshape(-1, 2)))
    return tuple(rules)


def cut_boundary_rule(triangle, domain):
    """(Dirichlet, Neumann) rules on the boundary arcs inside one triangle (see ``cut_boundary_rules``)."""
    return cut_boundary_rules(np.asarray(triangle)[None], domain)


def refine_rule_toward(triangles, domain, points, tol=DEFAULT_TOL, levels=REFINE_LEVELS):
    """Volume rules of a stack of triangles (m, 3, 2), each subdivided toward its own point.

    Triangle k is split ``levels`` times toward ``points[k]`` (shape (m, 2)),
    where the solution has reduced regularity, and all leaves of all triangles
    go through one ``cut_volume_rules`` call.  Returns one ``PackedRule``
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
class TranslatedRule:
    """The degree-4 rule of the inside cells of one parity, translates of one reference rule.

    Cell ``cells[k]`` (its position in ``topology.active``) has its points at
    its vertex 0 plus ``points``; vertex 0 of grid cell i n + j is
    ``(xs[i], ys[j])``, computed from the cell's id where the points are
    needed.  Every cell has the reference triangle's ``weights`` (6,) and the
    ``offsets`` (6, 2) of its points from its centroid.
    """

    cells: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray


# Inside cells per block of ``RuleSet.cell_sums``: 24,576 points, which bounds the
# memory of the per-point work on a block.  At 8192 cells ``error_norms`` on the
# singular n = 256 level took about 1,800 minor page faults per call as its block
# temporaries refaulted, against 0 at 4096, and the peak RSS of the smooth
# n = 32-128 convergence study fell by 1.2 MB.  The sums are bitwise the same.
_INSIDE_BLOCK = 1 << 12


@dataclass(frozen=True)
class RuleSet:
    """Quadrature of one cut topology, from ``build_rules(topology, tol)``.

    ``volume`` integrates over the cut cells' intersections with the domain,
    ``dirichlet`` and ``neumann`` over the two parts of the boundary; all three
    are packed and sorted by owner, the cell's position in ``topology.active``.
    The inside cells are not packed:
    ``inside`` holds them by parity as translates of two reference rules
    (see ``TranslatedRule`` and ``cell_sums``).  ``topology`` is the cut
    topology the rules were built on, and ``topology.domain`` their domain.
    No per-cell geometry is held: a cell's vertex 0 and centroid, where
    ``cell_sums`` needs them, come from its id.
    """

    volume: PackedRule
    inside: tuple
    dirichlet: PackedRule
    neumann: PackedRule
    topology: object
    tol: float = DEFAULT_TOL

    def cell_sums(self, fn, refined):
        """Per active cell, the weighted sums (k, m) over its volume points of ``fn``'s k columns.

        ``fn(points, cells, offsets)`` takes points (b, q, 2) of the cells (b,) and their offsets
        x - c from the cell's centroid, which broadcast against the points, and returns a tuple
        of k arrays that broadcast to (b, q); any other value raises ``TypeError``.  Packed rules
        come in with q = 1 and are summed by ``np.bincount``; their centroids come from the
        owners' ids, once per run of one owner.  The inside cells come in blocks of at most
        ``_INSIDE_BLOCK`` cells of one parity, as (m, 6, 2) points with their parity's (6, 2)
        offsets, and are reduced by ``@ weights``; their vertex 0 comes from their ids.  A cell
        with points in the packed rule ``refined`` (or None) is summed over those instead.
        """
        mesh, active = self.topology.mesh, self.topology.active
        drop = np.zeros(len(active), dtype=bool)
        packed = [self.volume]
        if refined is not None:
            drop[refined.owner] = True
            packed = [self.volume.select(~drop[self.volume.owner]), refined]
        sums = 0.0
        for rule in packed:
            points, owner = rule.points[:, None], rule.owner
            run = np.flatnonzero(np.diff(owner, prepend=-1))  # where each run of one owner starts
            centroids = np.einsum("tkd->td", mesh.triangle_coords(active[owner[run]])) / 3.0
            centroids = np.repeat(centroids, np.diff(run, append=len(owner)), axis=0)
            offsets = points - centroids[:, None]
            if not isinstance(columns := fn(points, owner, offsets), tuple):  # not one (b, q) array
                raise TypeError(f"an integrand returns a tuple, not {type(columns).__name__}")
            columns = [(rule.weights[:, None] * c).ravel() for c in columns]
            sums = sums + np.array([np.bincount(owner, c, len(drop)) for c in columns])
        for rule in self.inside:
            for lo in range(0, len(rule.cells), _INSIDE_BLOCK):
                cells = rule.cells[lo : lo + _INSIDE_BLOCK]
                cells = cells[~drop[cells]]
                i, j = np.divmod(active[cells] >> 1, mesh.n)  # vertex 0 is (xs[i], ys[j])
                origins = np.column_stack([mesh.xs[i], mesh.ys[j]])
                # as x + iy, a translate adds 6 entries per cell rather than 2 at a time
                points = origins.view(complex) + rule.points.view(complex).T
                points = points.view(float).reshape(-1, 6, 2)
                for total, column in zip(sums, fn(points, cells, rule.offsets)):
                    total[cells] = np.broadcast_to(column, points.shape[:2]) @ rule.weights
        return sums


def build_rules(topology, tol=DEFAULT_TOL):
    """Volume and boundary rules of the active cells: ``build_rules_batch`` of one topology."""
    return build_rules_batch([topology], tol)[0]


def build_rules_batch(topologies, tol):
    """The ``RuleSet`` of each cut topology of a list, all on one domain, bitwise ``build_rules``.

    The domain is the topologies' ``domain``; topologies of unequal domains raise
    ``ValueError``.  Only cut cells go through the rules, those of every topology in one
    ``_cut_volume_rules`` call and one ``_boundary_rule`` call, whose work is per cell and
    per arc: each cell's points come out bitwise as in a call of its own topology.  The
    boundary rule counts each arc in one cell by ``_tiling_arcs``, applied to each topology
    on its own, as it sweeps the arcs of one tiling.  The inside cells take the degree-4
    rule of the reference triangle of their parity, triangle 0 or 1 of the grid, moved to
    their vertex 0.
    """
    domain = topologies[0].domain
    if any(topology.domain != domain for topology in topologies):
        raise ValueError("the topologies of one batch of rules must share their domain")
    is_cut = [t.classification[t.active] == CUT for t in topologies]
    cuts = [np.flatnonzero(mask) for mask in is_cut]
    coords = [t.mesh.triangle_coords(t.active[cut]) for t, cut in zip(topologies, cuts)]
    volume, (owner, start, width) = _cut_volume_rules(np.concatenate(coords), domain, tol)
    # the cut cells of topology k are the stack positions [bounds[k], bounds[k + 1])
    bounds = np.cumsum([0] + [len(cut) for cut in cuts])
    ends = np.searchsorted(owner, bounds)  # the arcs of topology k are ends[k]:ends[k + 1]
    arcs = [_tiling_arcs((owner[a:b], start[a:b], width[a:b])) for a, b in zip(ends, ends[1:])]
    boundary = _boundary_rule(domain, tuple(np.concatenate(a) for a in zip(*arcs)))

    def split(rule, k):
        """The points of ``rule`` on topology k, owned by their position in its active cells."""
        a, b = np.searchsorted(rule.owner, bounds[k : k + 2])
        fields = (rule.points, rule.weights, rule.owner, rule.normals)
        points, weights, owner, normals = (None if f is None else f[a:b] for f in fields)
        return PackedRule(points, weights, cuts[k][owner - bounds[k]], normals)

    rules = []
    for k, topology in enumerate(topologies):
        local = topology.mesh.reference_triangles
        points, weights = _full_triangle_points(local)
        offsets = points - local.sum(axis=1, keepdims=True) / 3.0
        inside = []
        for p in range(2):
            cells = np.flatnonzero(~is_cut[k] & ((topology.active & 1) == p))
            inside.append(TranslatedRule(cells, points[p], weights[p], offsets[p]))
        dirichlet, neumann = (split(r, k) for r in boundary)
        rules.append(RuleSet(split(volume, k), tuple(inside), dirichlet, neumann, topology, tol))
    return rules
