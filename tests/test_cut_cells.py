"""Seeded random cut cells against closed-form oracles.

Every cell is a triangle cut by a disk whose boundary is half Dirichlet and
half Neumann.  The cells are drawn with numpy's generator from a fixed seed
and cover the configurations that broke cut quadrature before: vertices on
the circle or within 1e-15 to 1e-9 of it, edges within the same distance of
tangency, arcs wider than 0.8 rad, disks inside the cell, disks that poke out
of the cell by a sliver, slivers of disk inside the cell, and cells inside
the disk.  Each check runs one batched rule call per disk.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from cutpoisson import LevelSetDomain
from cutpoisson.geometry import signed_distance
from cutpoisson.mesh import OUTSIDE, build_background
from cutpoisson.quadrature import (
    DEFAULT_TOL,
    MIN_TOL,
    _tri_area,
    cut_boundary_rule,
    cut_volume_rule,
)
from cutpoisson.study import discretize
from tests.conftest import ORACLE_EPS, exact_disk_triangle_area, packed_boundary_rule

SEED = 20261018
N_DISKS = 4
CELLS_PER_KIND = 12
TOLS = (1e-2, 1e-6, 1e-10)
# Below MIN_TOL * area the check also allows the oracle's own rounding: its
# sum cancels terms up to radius * diameter, about 1e3 unit roundoffs of the
# cell area on the most eccentric cells here.
ORACLE_MARGIN = 1e3 * ORACLE_EPS
# An arc whose midpoint lies within this fraction of the cell's diameter of
# the cell's boundary may be counted as in the cell or not.
ARC_BAND = 2e-12
EPS = float(np.finfo(float).eps)

UNIT_MIXED = LevelSetDomain((0.0, 0.0), 1.0, ((0.0, math.pi),))

# cells the subdivision frontier used to refuse to split by a chord, on UNIT_MIXED
FALLBACK_CELLS = {
    # a vertex exactly on the circle
    "vertex_on_circle": [[1.0, 0.0], [1.3, 0.6], [0.4, 0.5]],
    # an edge 1e-9 inside the tangent line y = 1 adds two crossings, four in all
    "near_tangent_edge": [[-0.5, 1.0 - 1e-9], [0.5, 1.0 - 1e-9], [0.0, 0.5]],
    # a coarse cell whose arc spans about 1.5 rad
    "wide_arc": [[0.0, 0.9], [0.0, -0.9], [3.0, 0.0]],
}


def _unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def _near(rng, scale, exact=0.2):
    """0 with probability ``exact``, else +-scale * 10**U(-15, -9)."""
    if rng.random() < exact:
        return 0.0
    return float(rng.choice((-1.0, 1.0)) * scale * 10.0 ** rng.uniform(-15.0, -9.0))


def _roll(rng, tri):
    return np.roll(np.asarray(tri), rng.integers(3), axis=0)


def _generic(rng, c, R):
    h = R * 10.0 ** rng.uniform(-3.0, 0.0)
    mid = c + (R + h * rng.uniform(-1.0, 1.0)) * _unit(rng.uniform(0.0, 2 * math.pi))
    phi = rng.uniform(0.0, 2 * math.pi) + 2 * math.pi * np.arange(3) / 3 + rng.uniform(-0.5, 0.5, 3)
    return np.array([mid + h * rng.uniform(0.5, 1.0) * _unit(p) for p in phi])


def _vertex_near_circle(rng, c, R):
    h = R * 10.0 ** rng.uniform(-3.0, 0.0)
    v = c + (R + _near(rng, R)) * _unit(rng.uniform(0.0, 2 * math.pi))
    phi = rng.uniform(0.0, 2 * math.pi)
    psi = phi + rng.uniform(0.4, 2.7)
    return _roll(rng, [v, v + h * _unit(phi), v + h * rng.uniform(0.5, 1.5) * _unit(psi)])


def _near_tangent(rng, c, R):
    """An edge whose line lies within 1e-9 R of tangency, the cell on either side."""
    h = R * 10.0 ** rng.uniform(-3.0, 0.0)
    theta = rng.uniform(0.0, 2 * math.pi)
    e, t = _unit(theta), _unit(theta + 0.5 * math.pi)
    p = c + (R + _near(rng, R, exact=0.0)) * e
    side = rng.choice((-1.0, 1.0))
    apex = p + side * h * rng.uniform(0.3, 1.0) * e + h * rng.uniform(-0.5, 0.5) * t
    return _roll(rng, [p - h * rng.uniform(0.2, 1.0) * t, p + h * rng.uniform(0.2, 1.0) * t, apex])


def _wide_arc(rng, c, R):
    """A vertex inside the disk whose two edges leave it an arc of 0.8 to 2.5 rad apart."""
    a = c + R * rng.uniform(0.0, 0.5) * _unit(rng.uniform(0.0, 2 * math.pi))
    theta, width = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.8, 2.5)
    ends = [c + R * _unit(theta - 0.5 * width), c + R * _unit(theta + 0.5 * width)]
    return _roll(rng, [a] + [a + rng.uniform(1.2, 4.0) * (q - a) for q in ends])


def _circle_inside(rng, c, R):
    """A cell around the whole disk, or nearly around it."""
    phi = rng.uniform(0.0, 2 * math.pi) + 2 * math.pi * np.arange(3) / 3 + rng.uniform(-0.3, 0.3, 3)
    return np.array([c + R * rng.uniform(2.0, 4.0) * _unit(p) for p in phi])


def _cell_inside(rng, c, R):
    """A cell inside the disk, its vertices up to 1e-15 R from the circle."""
    phi = rng.uniform(0.0, 2 * math.pi) + 2 * math.pi * np.arange(3) / 3 + rng.uniform(-0.8, 0.8, 3)
    rho = [
        1.0 - 10.0 ** rng.uniform(-15.0, -1.0) if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
        for _ in phi
    ]
    return np.array([c + R * r * _unit(p) for r, p in zip(rho, phi)])


def _poke_out(rng, c, R):
    """The disk inside the cell but for a cap 1e-15 R to 1e-2 R deep beyond one edge."""
    theta = rng.uniform(0.0, 2 * math.pi)
    e, t = _unit(theta), _unit(theta + 0.5 * math.pi)
    p = c + R * (1.0 - 10.0 ** rng.uniform(-15.0, -2.0)) * e
    half = R * rng.uniform(2.5, 4.0)
    apex = c - R * rng.uniform(2.5, 4.0) * e + R * rng.uniform(-0.5, 0.5) * t
    return _roll(rng, [p - half * t, p + half * t, apex])


def _sliver_in(rng, c, R):
    """A cell beyond a line the disk crosses by 1e-15 R to 1e-6 R."""
    h = R * 10.0 ** rng.uniform(-3.0, 0.0)
    theta = rng.uniform(0.0, 2 * math.pi)
    e, t = _unit(theta), _unit(theta + 0.5 * math.pi)
    p = c + R * (1.0 - 10.0 ** rng.uniform(-15.0, -6.0)) * e
    apex = p + h * rng.uniform(0.3, 1.0) * e + h * rng.uniform(-0.5, 0.5) * t
    return _roll(rng, [p - h * rng.uniform(0.2, 1.0) * t, p + h * rng.uniform(0.2, 1.0) * t, apex])


KINDS = {
    "generic": _generic,
    "vertex_near_circle": _vertex_near_circle,
    "near_tangent": _near_tangent,
    "wide_arc": _wide_arc,
    "circle_inside": _circle_inside,
    "cell_inside": _cell_inside,
    "poke_out": _poke_out,
    "sliver_in": _sliver_in,
}


@dataclass
class Batch:
    """Cells cut by one disk, with their oracle values."""

    domain: LevelSetDomain
    names: list
    tris: np.ndarray
    area: np.ndarray
    exact: np.ndarray

    def failures(self, bad):
        return [self.names[k] for k in np.flatnonzero(bad)]


def _batch(domain, named_tris):
    names = [name for name, _ in named_tris]
    tris = np.array([tri for _, tri in named_tris], dtype=float)
    exact = [exact_disk_triangle_area(t, domain.center_array, domain.radius) for t in tris]
    return Batch(domain, names, tris, _tri_area(tris), np.array(exact))


def _tilted_sliver(theta):
    """A disk of radius 0.5 reaching 1e-14 past a tilted edge, about 1e-21 of the cell."""
    normal, along = _unit(theta), _unit(theta + 0.5 * math.pi)
    a = (0.5 - 1e-14) * normal - 0.1 * along
    return [a, a + 0.25 * along, a + 0.125 * along + 0.3 * normal]


@pytest.fixture(scope="module")
def batches():
    rng = np.random.default_rng(SEED)
    out = []
    for d in range(N_DISKS):
        c = rng.uniform(-1.0, 1.0, 2)
        R = 10.0 ** rng.uniform(-1.3, 0.3)
        start = rng.uniform(0.0, 2 * math.pi)
        domain = LevelSetDomain(tuple(c), R, ((start, start + math.pi),))
        cells = [
            (f"disk{d}/{kind}/{i}", draw(rng, c, R))
            for kind, draw in KINDS.items()
            for i in range(CELLS_PER_KIND)
        ]
        out.append(_batch(domain, cells))
    out.append(_batch(UNIT_MIXED, [(f"fallback/{k}", v) for k, v in FALLBACK_CELLS.items()]))
    out.append(
        _batch(
            LevelSetDomain((0.0, 0.0), 0.5, ()),
            [(f"tilted_sliver/{theta}", _tilted_sliver(theta)) for theta in (0.3, 1.1, 2.0)],
        )
    )
    poke = [[-2.0, -1.0], [2.0, -1.0], [0.0, 2.0]]
    out.append(_batch(LevelSetDomain((0.0, -0.5), 0.5 + 1e-13, ()), [("poke_1e-13", poke)]))
    return out


def _per_cell(rule, n, values=1.0):
    return np.bincount(rule.owner, rule.weights * values, minlength=n)


def test_the_draw_covers_every_configuration(batches):
    names = [name for b in batches for name in b.names]
    for kind in KINDS:
        assert sum(f"/{kind}/" in name for name in names) == N_DISKS * CELLS_PER_KIND
    empty = sum(int(np.sum(b.exact == 0.0)) for b in batches)
    full = sum(int(np.sum(b.exact == b.area)) for b in batches)
    assert 0 < empty and 0 < full < sum(len(b.names) for b in batches) // 4


@pytest.mark.parametrize("tol", TOLS)
def test_mass_matches_the_closed_form(batches, tol):
    """The mass of every cell's rule is its exact area of intersection within tol * area."""
    for b in batches:
        mass = _per_cell(cut_volume_rule(b.tris, b.domain, tol), len(b.tris))
        assert not b.failures(np.abs(mass - b.exact) > tol * b.area)


def test_mass_at_the_floor(batches):
    """At MIN_TOL the mass error stays within MIN_TOL * area, plus the oracle's margin."""
    for b in batches:
        mass = _per_cell(cut_volume_rule(b.tris, b.domain, MIN_TOL), len(b.tris))
        assert not b.failures(np.abs(mass - b.exact) > (MIN_TOL + ORACLE_MARGIN) * b.area)


def test_weights_nonnegative_and_points_in_cell_and_disk(batches):
    """No weight is negative, and every point lies in its cell and in the disk.

    Both hold up to 1e-12 of the cell's diameter, the margin within which an
    arc counts as in the cell, plus the rounding of coordinates as large as
    the cell's and the disk's.
    """
    for b in batches:
        rule = cut_volume_rule(b.tris, b.domain)
        assert rule.weights.min() >= 0.0
        reach = np.maximum(
            np.abs(b.tris).max(axis=(1, 2)), np.abs(b.domain.center_array).max() + b.domain.radius
        )
        slack = (1e-12 * _diameter(b.tris) + 4.0 * EPS * reach)[rule.owner]
        outside = np.maximum(
            _outside_distance(b.tris[rule.owner], rule.points),
            signed_distance(b.domain, rule.points),
        )
        assert not b.failures(np.bincount(rule.owner, outside > slack, len(b.tris)))


def test_every_point_carries_weight(batches):
    """No point of a volume or boundary rule has zero weight.

    A zero-weight point costs an integrand evaluation in every form and adds nothing.  A vertex
    inside the disk ends two edges' inside parts, so the chord polygon lists it twice, and the
    fans on such a repeat have zero area.  A vertex on the circle is a crossing of both its
    edges, so the crossings bound an arc of zero width, whose segment has none either.
    """
    for b in batches:
        for rule in (cut_volume_rule(b.tris, b.domain), *cut_boundary_rule(b.tris, b.domain)):
            assert not b.failures(np.bincount(rule.owner, rule.weights <= 0.0, len(b.tris)))


def test_a_clockwise_cell_gets_the_rules_of_its_counterclockwise_twin(batches):
    """Listing a cell's vertices clockwise moves no mass, first moment or arc length.

    Grid cells are counterclockwise, but nothing in the rules reads the orientation: the chord
    polygon is ordered by angle about its mean, and the arcs by angle about the centre.
    """
    for b in batches:
        n = len(b.tris)
        # a moment about vertex 0 also carries the rounding of the points' coordinates
        reach = 1e-14 * _diameter(b.tris) + 4.0 * EPS * np.abs(b.tris).max(axis=(1, 2))
        bound = b.area[:, None] * np.column_stack([np.full(n, 1e-14), reach, reach])
        masses, lengths = [], []
        for tris in (b.tris, b.tris[:, [0, 2, 1]]):
            rule = cut_volume_rule(tris, b.domain, MIN_TOL)
            rel = rule.points - tris[rule.owner, 0]
            masses.append(np.column_stack([_per_cell(rule, n, v) for v in (1, *rel.T)]))
            boundary = cut_boundary_rule(tris, b.domain)
            lengths.append(np.column_stack([_per_cell(r, n) for r in boundary]))
        assert not b.failures(np.any(np.abs(masses[0] - masses[1]) > bound, axis=1))
        moved = np.abs(lengths[0] - lengths[1]) > 1e-14 * b.domain.radius
        assert not b.failures(np.any(moved, axis=1))


def _diameter(tris):
    return np.linalg.norm(tris - np.roll(tris, 1, axis=-2), axis=-1).max(axis=-1)


def _outside_distance(tris, points):
    """How far each point lies outside its triangle (negative inside), up to the vertex regions."""
    v = np.roll(tris, -1, axis=1) - tris
    rel = points[:, None] - tris
    side = v[..., 0] * rel[..., 1] - v[..., 1] * rel[..., 0]
    e1, e2 = v[:, 0], tris[:, 2] - tris[:, 0]
    orient = np.sign(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return (-orient[:, None] * side / np.linalg.norm(v, axis=-1)).max(axis=1)


def _oracle_arcs(tri, domain):
    """Oracle: the arcs (start, width) between consecutive crossings of the circle with the edges
    of ``tri``, found in extended precision, each with how far its midpoint lies outside the cell.

    Also returns the float64 uncertainty of the lengths: an edge whose line
    cuts the circle in a chord of half-length l fixes its crossings only to
    about eps |f|^2 / l, with |f| the distance from the center to the edge.
    """
    ld = np.longdouble
    c, R = domain.center_array.astype(ld), ld(domain.radius)
    p = tri.astype(ld) - c
    angles, slack = [], 1e-12 * 2 * math.pi * domain.radius
    for a, b in zip(p, np.roll(p, -1, axis=0)):
        d = b - a
        qa, qb, qc = d @ d, 2 * (a @ d), a @ a - R * R
        disc = qb * qb - 4 * qa * qc
        if disc > 0:
            half_chord = float(np.sqrt(disc) / (2 * np.sqrt(qa)))
            for t in ((-qb - np.sqrt(disc)) / (2 * qa), (-qb + np.sqrt(disc)) / (2 * qa)):
                if -1e-12 <= t <= 1 + 1e-12:
                    x = a + min(max(t, ld(0)), ld(1)) * d
                    angles.append(np.arctan2(x[1], x[0]) % (2 * np.pi))
                    slack += 4 * EPS * float(max(a @ a, b @ b)) / half_chord
    angles = sorted(angles) or [ld(0.0)]
    arcs = []
    for start, end in zip(angles, angles[1:] + [angles[0] + 2 * np.pi]):
        width = end - start
        mid = domain.center_array + domain.radius * _unit(float(start + width / 2))
        arcs.append((start, width, float(_outside_distance(tri[None], mid[None])[0])))
    return arcs, slack


def _arc_bounds(tri, domain):
    """Oracle: the least and greatest (Dirichlet, Neumann) lengths of the arcs in ``tri``, and
    the uncertainty of ``_oracle_arcs``.

    An arc whose midpoint lies within ``ARC_BAND`` of the cell's diameter of the cell's
    boundary may be counted either way.
    """
    arcs, slack = _oracle_arcs(tri, domain)
    diam = _diameter(tri)
    bounds = np.zeros((2, 2))  # (dirichlet, neumann) x (least, greatest)
    for start, width, out in arcs:
        if out > ARC_BAND * diam:
            continue
        dirichlet = sum(
            _overlap(float(start), float(width), a, span) for a, span in domain.dirichlet_arcs
        )
        parts = np.array([dirichlet, float(width) - dirichlet]) * domain.radius
        bounds[:, 1] += parts
        if out < -ARC_BAND * diam:
            bounds[:, 0] += parts
    return bounds, slack


def test_wide_arcs_integrate_low_harmonics(batches):
    """On each wide-arc cell the boundary rule integrates cos k theta and sin k theta, k <= 4,
    within ``DEFAULT_TOL`` times the arc length of their closed forms.

    On a panel of width w, six Gauss points leave an error of about 2e-16 w^13 k^12: 2e-14 at
    the pi / 8 of ``_BOUNDARY_PIECE``, 5e-2 at 2 pi / 3.  Arcs of 0.8 to 2.5 rad need the cap.
    """
    for b in batches:
        wide = [k for k, name in enumerate(b.names) if "wide_arc" in name]
        if not wide:
            continue
        c, R = b.domain.center_array, b.domain.radius
        rules = cut_boundary_rule(b.tris[wide], b.domain)
        thetas = [np.arctan2(*(rule.points - c).T[::-1]) for rule in rules]
        arcs = []
        for tri in b.tris[wide]:
            inside = [(s, s + w) for s, w, out in _oracle_arcs(tri, b.domain)[0] if out < 0.0]
            arcs.append(np.array(inside, dtype=float).T)
        for k in range(1, 5):
            got = sum(
                np.column_stack([_per_cell(r, len(wide), f(k * t)) for f in (np.cos, np.sin)])
                for r, t in zip(rules, thetas)
            )
            for row, (lo, hi) in zip(got, arcs):
                exact = np.array([np.sin(k * hi) - np.sin(k * lo), np.cos(k * lo) - np.cos(k * hi)])
                error = np.abs(row - R / k * exact.sum(axis=1)).max()
                assert error <= DEFAULT_TOL * R * np.sum(hi - lo), k


def _overlap(start, width, a, span):
    """Angular length of [start, start + width] inside [a, a + span], modulo 2 pi."""
    return sum(
        max(0.0, min(start + width, a + span + k * 2 * math.pi) - max(start, a + k * 2 * math.pi))
        for k in (-1, 0, 1, 2)
    )


def test_boundary_lengths_and_their_split_match_the_arc_spans(batches):
    """Dirichlet and Neumann lengths of each cell equal R times its arc spans."""
    for b in batches:
        rules = cut_boundary_rule(b.tris, b.domain)
        got = np.column_stack([_per_cell(r, len(b.tris)) for r in rules])
        bad = []
        for k, tri in enumerate(b.tris):
            bounds, slack = _arc_bounds(tri, b.domain)
            if np.any(got[k] < bounds[:, 0] - slack) or np.any(got[k] > bounds[:, 1] + slack):
                bad.append(b.names[k])
        assert not bad


def test_divergence_identity_with_a_bubble_field(batches):
    """The volume rule integrates div F as the boundary rule integrates F . n on the arcs.

    F = b (x - c) with b the cell's cubic bubble, which vanishes on the cell's
    edges, so the flux is R times the arc integral of b and needs no edge term.
    """
    for b in batches:
        n = len(b.tris)
        vol = cut_volume_rule(b.tris, b.domain)
        lam, grad = _barycentric(b.tris, vol.points, vol.owner)
        bubble = lam.prod(axis=1)
        grad_b = sum(grad[:, i] * np.delete(lam, i, axis=1).prod(axis=1)[:, None] for i in range(3))
        div = (grad_b * (vol.points - b.domain.center_array)).sum(axis=1) + 2.0 * bubble
        lhs, rhs = _per_cell(vol, n, div), 0.0
        for bnd in cut_boundary_rule(b.tris, b.domain):
            on_arc = b.domain.radius * _barycentric(b.tris, bnd.points, bnd.owner)[0].prod(axis=1)
            rhs = rhs + _per_cell(bnd, n, on_arc)
        # |div F| <= |grad b| max |x - c| + 2 b <= max |x - c| sum |grad lam| / 4 + 2 / 27
        reach = np.linalg.norm(b.tris - b.domain.center_array, axis=-1).max(axis=1)
        grad_lam = _barycentric(b.tris, b.tris[:, 0], np.arange(n))[1]
        sup = reach * np.linalg.norm(grad_lam, axis=-1).sum(axis=1) / 4
        assert not b.failures(np.abs(lhs - rhs) > 1e-8 * b.area * (sup + 2.0 / 27.0))


def _barycentric(tris, points, owner):
    """Barycentric coordinates (q, 3) of points in their triangles, and their gradients (q, 3, 2)."""
    m = np.concatenate([np.swapaxes(tris, 1, 2), np.ones((len(tris), 1, 3))], axis=1)
    inv = np.linalg.inv(m)[owner]
    lam = np.einsum("qij,qj->qi", inv, np.column_stack([points, np.ones(len(points))]))
    return lam, inv[:, :, :2]


# Offsets of the disk's centre along one axis that put a vertex of the unshifted grid, where the
# circle crosses that axis, within rounding of the circle, and leave a grid line near tangency.
AXIS_OFFSETS = (1e-12, 3e-12, 1e-11, 3e-11, 1e-10)
# gaps g of a disk g h past a grid edge: from within rounding of tangency to clear of it
TANGENT_GAPS = (-1e-15, -1e-13, -1e-12, -1e-10, -1e-8)
TANGENT_CASES, TANGENT_EDGES = 12, 8


def _axis_perturbed_disks():
    arcs = ((0.0, math.pi),)
    for n in (8, 16, 32):
        for radius in (0.25, 0.5, 0.75):
            yield n, (0.0, 0.0), LevelSetDomain((0.0, 0.0), radius, arcs)
            for axis in (0, 1):
                for d in AXIS_OFFSETS:
                    for sign in (1.0, -1.0):
                        center = np.zeros(2)
                        center[axis] = sign * d
                        yield n, (0.0, 0.0), LevelSetDomain(tuple(center), radius, arcs)


def _near_tangent_disks():
    """Disks reaching g h past a random edge of a shifted grid, for g in ``TANGENT_GAPS``."""
    for k in range(TANGENT_CASES):
        rng = np.random.default_rng([SEED, k])
        n = int(rng.integers(13, 33))
        shift = tuple(rng.uniform(0.0, 2.0 / n, 2))
        radius = rng.uniform(0.3, 0.55)
        start = rng.uniform(0.0, 2 * math.pi)
        arcs = ((start, start + rng.uniform(0.5, 5.5)),)
        mesh = build_background((-1.0, -1.0, 1.0, 1.0), n, shift)
        for _ in range(TANGENT_EDGES):
            tri = mesh.triangle_coords(int(rng.integers(mesh.n_triangles)))
            a, b, apex = np.roll(tri, -int(rng.integers(3)), axis=0)
            normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
            normal *= -np.sign(normal @ (apex - a))
            p = a + rng.uniform(0.3, 0.7) * (b - a)
            for g in TANGENT_GAPS:
                center = p + (radius + g * mesh.h) * normal
                yield n, shift, LevelSetDomain(tuple(center), radius, arcs)


def _admitted_lengths(levels):
    """Each admitted level (n, centre, R) and its boundary length's relative defect from 2 pi R."""
    for n, shift, domain in levels:
        try:
            dofmap, _ = discretize(domain, n, shift=shift)
        except ValueError:  # h too coarse for the collar, or the disk leaves the extent
            continue
        length = 2.0 * math.pi * domain.radius
        got = packed_boundary_rule(dofmap.rules).weights.sum()
        yield (n, domain.center, domain.radius), abs(got - length) / length


def test_each_arc_is_counted_once_near_a_shared_edge():
    """The Dirichlet and Neumann lengths of a level add up to the circle's, tangencies and all.

    A disk that reaches 1e-15 h to 1e-8 h past a grid edge leaves that edge within rounding
    of tangency: its two cells must find the same crossings and claim each arc along it
    once.  Crossings solved from either end of the edge used to differ, which left up to
    3e-11 of the circle in no cell.  The axis family moves the disk 1e-12 to 1e-10 off an
    axis of the unshifted grid, which rounds a vertex onto the circle.  Its case n = 8,
    R = 0.5, centre (0, 3e-12) counted 5.3e-9 of the circle twice, in cells 88 and 105, when
    that vertex made cell 105 cut; under the open-disk rule cell 105 is outside.
    """
    for family, count in ((_axis_perturbed_disks, 168), (_near_tangent_disks, 120)):
        levels = list(_admitted_lengths(family()))
        assert len(levels) == count
        for level, defect in levels:
            assert defect <= 1e-13, (level, defect)
    pinned = LevelSetDomain((0.0, 3e-12), 0.5, ((0.0, math.pi),))
    assert discretize(pinned, 8)[0].topology.classification[105] == OUTSIDE
