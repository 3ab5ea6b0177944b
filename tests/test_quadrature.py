import dataclasses
import math

import numpy as np
import pytest

from cutpoisson import LevelSetDomain, build_rules, classify, cut_boundary_rule, cut_volume_rule
from cutpoisson.mesh import CUT, INSIDE, _point_triangle_distance, build_background
from cutpoisson.quadrature import (
    _BOUNDARY_ORDER,
    _MAX_PIECE,
    DEFAULT_TOL,
    MIN_TOL,
    _cut_volume_rules,
    _segment_order,
    _segment_rules,
    _tiling_arcs,
    _tri_area,
    build_rules_batch,
    refine_rule_toward,
)
from cutpoisson.study import manufactured_singular, sweep_shifts
from tests.conftest import (
    boundary_is_dirichlet,
    exact_disk_triangle_area,
    packed_boundary_rule,
    packed_volume_rule,
    reference_tolerance,
)


def disk_rules(domain, n, tol=1e-10, box=(-1.0, -1.0, 1.0, 1.0)):
    mesh = build_background(box, n)
    topo = classify(mesh, domain)
    return mesh, topo, build_rules(topo, tol)


def test_uncut_triangle_mass():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    big = LevelSetDomain((0.0, 0.0), 10.0, ((0.0, 2 * math.pi),))
    rule = cut_volume_rule(tri, big)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)


def test_disk_area_and_moment(rng):
    domain = LevelSetDomain((0.0, 0.0), 1.0, ((0.0, 2 * math.pi),))
    mesh, topo, rules = disk_rules(domain, 6, box=(-1.3, -1.3, 1.3, 1.3))
    vol = packed_volume_rule(rules)
    area = vol.weights.sum()
    assert area == pytest.approx(math.pi, rel=1e-8)
    moment = float(vol.weights @ (vol.points**2).sum(axis=1))
    assert moment == pytest.approx(math.pi / 2.0, rel=1e-7)


def test_boundary_measures(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    R = domain_mixed.radius
    r = packed_boundary_rule(rules)
    total = r.weights.sum()
    assert total == pytest.approx(2.0 * math.pi * R, rel=1e-10)
    d_part = rules.dirichlet.weights.sum()
    assert d_part == pytest.approx(math.pi * R, rel=1e-10)
    normal_integral = (r.weights[:, None] * r.normals).sum(axis=0)
    assert np.abs(normal_integral).max() < 1e-10


def test_boundary_normals_outward(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    r = packed_boundary_rule(rules)
    outward = (r.points - domain_mixed.center_array) / domain_mixed.radius
    assert np.allclose(r.normals, outward, atol=1e-12)
    assert np.allclose(np.linalg.norm(r.normals, axis=1), 1.0, atol=1e-12)


def test_boundary_points_classify_consistently(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    for p in rules.dirichlet.points:
        assert boundary_is_dirichlet(domain_mixed, p)
    for p in rules.neumann.points:
        assert not boundary_is_dirichlet(domain_mixed, p)


def test_divergence_theorem(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    volume = 2.0 * packed_volume_rule(rules).weights.sum()
    r = packed_boundary_rule(rules)
    boundary = float(r.weights @ (r.points * r.normals).sum(axis=1))
    assert abs(volume - boundary) < 1e-9


def test_area_error_decreases_with_tol(domain_mixed):
    """The mass contract holds at every tolerance and tightens across decades."""
    mesh = build_background((-1, -1, 1, 1), 8)
    topo = classify(mesh, domain_mixed)
    exact = math.pi * domain_mixed.radius**2
    errors = {}
    for tol in (1e-2, 1e-4, 1e-6, 1e-8):
        rules = build_rules(topo, tol)
        area = packed_volume_rule(rules).weights.sum()
        err = abs(area - exact)
        errors[tol] = err
        assert err <= tol * exact
    floor = 1e-12 * exact
    assert errors[1e-8] <= max(errors[1e-2] / 5.0, floor)


def test_degenerate_circle_inside_triangle():
    """Tiny disk strictly inside one background triangle: full circle handled."""
    domain = LevelSetDomain((0.26, 0.7), 0.04, ((0.0, 2 * math.pi),))
    mesh = build_background((0, 0, 1, 1), 1)
    topo = classify(mesh, domain)
    assert (topo.classification == 1).sum() == 1
    t = int(topo.cut[0])
    rule = cut_volume_rule(mesh.triangle_coords(t), domain)
    assert rule.weights.sum() == pytest.approx(math.pi * 0.04**2, rel=1e-9)
    rd, rn = cut_boundary_rule(mesh.triangle_coords(t), domain)
    assert rd.weights.sum() + rn.weights.sum() == pytest.approx(2 * math.pi * 0.04, rel=1e-9)


def test_edge_only_cut():
    """Circle dipping across a single edge, all vertices outside."""
    domain = LevelSetDomain((-0.1, 0.5), 0.15, ((0.0, 2 * math.pi),))
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rule = cut_volume_rule(tri, domain)
    # lens area: circular segment of the disk past the x = 0 line
    d = 0.1
    R = 0.15
    alpha = 2.0 * math.acos(d / R)
    seg = 0.5 * R * R * (alpha - math.sin(alpha))
    assert rule.weights.sum() == pytest.approx(seg, rel=1e-9)


def test_volume_weights_nonnegative(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    assert packed_volume_rule(rules).weights.min() >= 0.0


def _assert_translates_match(got, want, mesh, box, n):
    """Inside-cell rules as translates: points within 1e-15 of the box scale of the per-cell
    rule's, weights within ``reference_tolerance`` of the cell area (exact on a dyadic grid)."""
    scale = max(box[2] - box[0], box[3] - box[1])
    area = (box[2] - box[0]) * (box[3] - box[1]) / (2 * n * n)
    assert np.abs(got.points - want.points).max() <= 1e-15 * scale
    assert np.abs(got.weights - want.weights).max() <= reference_tolerance(mesh, box, n) * area


def test_packed_interior_rule_equals_cut_volume_rule(domain_mixed):
    """Inside cells are translates of two reference rules; each matches the per-cell rule."""
    box = (-1.0, -1.0, 1.0, 1.0)
    for shift in ((0.0, 0.0), (0.013, 0.021)):
        mesh = build_background(box, 16, shift)
        topo = classify(mesh, domain_mixed)
        rules = build_rules(topo)
        assert np.all(np.diff(rules.volume.owner) >= 0)
        inside = np.flatnonzero(topo.classification[topo.active] == INSIDE)
        assert len(inside) > 0
        assert np.array_equal(np.sort(np.concatenate([r.cells for r in rules.inside])), inside)
        assert not np.isin(rules.volume.owner, inside).any()
        vol = packed_volume_rule(rules)
        for k in inside:
            rule = cut_volume_rule(mesh.triangle_coords(topo.active[k]), domain_mixed)
            _assert_translates_match(vol.select(vol.owner == k), rule, mesh, box, 16)
        if shift == (0.0, 0.0):  # a dyadic grid: the translates are exact
            translates = vol.weights[np.isin(vol.owner, inside)]
            assert np.array_equal(translates, np.tile(rule.weights, len(inside)))


def test_segment_moments_match_their_closed_forms():
    """At ``MIN_TOL`` the segment rule integrates 1, x and x x^T over segments of every width up
    to ``_MAX_PIECE`` within ``MIN_TOL`` of their closed forms.

    About the centre, in the frame of its axis, a segment of half-angle a has mass
    R^2 (a - sin a cos a) and first moment 2/3 R^3 sin^3 a along the axis; its second moments are
    R^4 / 4 (a + sin a cos a - 2 cos^3 a sin a) along the axis and
    R^4 / 4 (a - sin a cos a - 2/3 sin^3 a cos a) across it.  Radially every integrand is r dr
    times a polynomial of degree at most 2, which two Gauss points integrate exactly and one
    does not.  The closed forms cancel like 1 / a^2, so they are taken in extended precision.
    """
    domain = LevelSetDomain((0.3, -0.2), 0.7, ())
    R = domain.radius
    alpha = np.geomspace(2e-3, _MAX_PIECE, 25)
    psi = np.linspace(0.0, 2.0 * math.pi, len(alpha), endpoint=False)
    points, weights = _segment_rules(domain, psi, alpha, _segment_order(MIN_TOL))
    axis = psi + 0.5 * alpha
    rel = points - domain.center_array
    u = rel[..., 0] * np.cos(axis)[:, None] + rel[..., 1] * np.sin(axis)[:, None]
    v = rel[..., 1] * np.cos(axis)[:, None] - rel[..., 0] * np.sin(axis)[:, None]
    got = np.column_stack([(weights * f).sum(axis=1) for f in (1.0, u, v, u * u, v * v, u * v)])
    a = 0.5 * alpha.astype(np.longdouble)
    sa, ca = np.sin(a), np.cos(a)
    mass = R**2 * (a - sa * ca)
    zero = 0.0 * a
    along = R**4 / 4 * (a + sa * ca - 2 * ca**3 * sa)
    across = R**4 / 4 * (a - sa * ca - 2 * sa**3 * ca / 3)
    exact = np.column_stack([mass, 2 * R**3 * sa**3 / 3, zero, along, across, zero]).astype(float)
    scale = MIN_TOL * np.outer(mass.astype(float), [1.0, R, R, R * R, R * R, R * R])
    assert np.all(np.abs(got - exact) <= scale)


UNIT_MIXED = LevelSetDomain((0.0, 0.0), 1.0, ((0.0, math.pi),))

def test_disk_poking_through_one_edge():
    """A disk inside the cell but for a 1e-13 sliver beyond one edge is not the whole cell.

    Both crossings lie on the bottom edge, and the minor arc between them stays
    within the barycentric margin of the cell.
    """
    domain = LevelSetDomain((0.0, -0.5), 0.5 + 1e-13, ())
    tri = np.array([[-2.0, -1.0], [2.0, -1.0], [0.0, 2.0]])
    exact = exact_disk_triangle_area(tri, domain.center_array, domain.radius)
    assert exact == pytest.approx(math.pi * domain.radius**2, rel=1e-12)
    assert abs(cut_volume_rule(tri, domain).weights.sum() - exact) <= 1e-10 * _tri_area(tri)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.0])
def test_near_tangent_sliver_keeps_the_mass_contract(theta):
    """A disk reaching 1e-14 past a tilted edge gives the cell almost no mass.

    Both crossings lie on that edge, about 2e-7 apart.  A chord through their
    rounded ends would tilt across the whole cell and cover about 1e-11 of it.
    The exact sliver area is about 1e-21.
    """
    radius = 0.5
    domain = LevelSetDomain((0.0, 0.0), radius, ())
    normal = np.array([math.cos(theta), math.sin(theta)])
    along = np.array([-normal[1], normal[0]])
    a = (radius - 1e-14) * normal - 0.1 * along
    tri = np.array([a, a + 0.25 * along, a + 0.125 * along + 0.3 * normal])
    assert cut_volume_rule(tri, domain, MIN_TOL).weights.sum() <= MIN_TOL * _tri_area(tri)


def test_tolerance_below_the_floor_raises(domain_mixed):
    tri = np.array([[0.0, 0.9], [0.0, -0.9], [3.0, 0.0]])
    exact = exact_disk_triangle_area(tri, UNIT_MIXED.center_array, UNIT_MIXED.radius)
    rule = cut_volume_rule(tri, UNIT_MIXED, MIN_TOL)
    assert abs(rule.weights.sum() - exact) <= MIN_TOL * _tri_area(tri)
    with pytest.raises(ValueError, match="below the floor"):
        cut_volume_rule(tri, UNIT_MIXED, 0.1 * MIN_TOL)
    with pytest.raises(ValueError, match="below the floor"):
        refine_rule_toward(tri, UNIT_MIXED, (1.0, 0.0), tol=0.1 * MIN_TOL)
    mesh = build_background((-1, -1, 1, 1), 4)
    with pytest.raises(ValueError, match="below the floor"):
        build_rules(classify(mesh, domain_mixed), 0.1 * MIN_TOL)


def test_junction_cell_lengths_equal_arc_spans():
    """A cell holding the junction at angle 0 splits its arc there into D and N parts."""
    tri = np.array([[0.6, -0.3], [1.5, 0.05], [0.6, 0.4]])
    angles = []
    for a, b in ((tri[0], tri[1]), (tri[1], tri[2])):
        # the one crossing of each edge that leaves the unit disk
        d = b - a
        qa, qb, qc = d @ d, 2.0 * (a @ d), a @ a - 1.0
        s = math.sqrt(qb * qb - 4.0 * qa * qc)
        (t,) = [t for t in ((-qb - s) / (2.0 * qa), (-qb + s) / (2.0 * qa)) if 0.0 < t < 1.0]
        p = a + t * d
        angles.append(math.atan2(p[1], p[0]))
    below, above = sorted(angles)
    assert below < 0.0 < above
    rd, rn = cut_boundary_rule(tri, UNIT_MIXED)
    assert rd.weights.sum() == pytest.approx(above, rel=1e-12)
    assert rn.weights.sum() == pytest.approx(-below, rel=1e-12)
    assert np.all(rd.points[:, 1] > 0.0) and np.all(rn.points[:, 1] < 0.0)
    exact = exact_disk_triangle_area(tri, UNIT_MIXED.center_array, UNIT_MIXED.radius)
    assert abs(cut_volume_rule(tri, UNIT_MIXED).weights.sum() - exact) <= 1e-10 * _tri_area(tri)


def test_one_cell_rules_are_slices_of_the_batched_rules(domain_mixed):
    """A one-cell call returns exactly that cell's points of each part of the batched call."""
    box = (-1.0, -1.0, 1.0, 1.0)
    mesh = build_background(box, 16, sweep_shifts(box, 16, 20)[7])
    topo = classify(mesh, domain_mixed)
    coords = mesh.triangle_coords(topo.active)
    cut = np.flatnonzero(topo.classification[topo.active] == CUT)
    volume = cut_volume_rule(coords, domain_mixed)
    boundary = cut_boundary_rule(coords[cut], domain_mixed)
    assert all(np.all(np.diff(part.owner) >= 0) for part in boundary)
    for i, k in enumerate(cut):
        rule = cut_volume_rule(coords[k], domain_mixed)
        assert np.array_equal(rule.points, volume.points[volume.owner == k])
        assert np.array_equal(rule.weights, volume.weights[volume.owner == k])
        for one, part in zip(cut_boundary_rule(coords[k], domain_mixed), boundary):
            mine = part.select(part.owner == i)
            assert np.array_equal(one.points, mine.points)
            assert np.array_equal(one.weights, mine.weights)
            assert np.array_equal(one.normals, mine.normals)
            assert np.array_equal(one.owner, np.zeros_like(mine.owner))


@pytest.mark.parametrize("shift_index", [None, 3, 7, 13])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("domain_name", ["domain_mixed", "domain_dirichlet"])
def test_build_rules_volume_equals_the_frontier_over_all_active_cells(
    request, domain_name, n, shift_index
):
    """Inside cells skip the chord polygons: the cut cells' points are bitwise the one-path
    rule's, and the inside cells' translates match it to rounding."""
    domain = request.getfixturevalue(domain_name)
    box = (-1.0, -1.0, 1.0, 1.0)
    shift = (0.0, 0.0) if shift_index is None else sweep_shifts(box, n, 20)[shift_index]
    mesh = build_background(box, n, shift)
    topo = classify(mesh, domain)
    volume = packed_volume_rule(build_rules(topo))
    oracle = cut_volume_rule(mesh.triangle_coords(topo.active), domain)
    assert np.array_equal(volume.owner, oracle.owner)
    cut = (topo.classification[topo.active] == CUT)[oracle.owner]
    assert np.array_equal(volume.points[cut], oracle.points[cut])
    assert np.array_equal(volume.weights[cut], oracle.weights[cut])
    _assert_translates_match(volume.select(~cut), oracle.select(~cut), mesh, box, n)


def test_batched_refinement_equals_one_cell_calls(domain_mixed):
    """One call over a stack gives each cell's one-cell rule, in stack order, owner = position."""
    box = (-1.0, -1.0, 1.0, 1.0)
    mesh = build_background(box, 16, sweep_shifts(box, 16, 20)[7])
    topo = classify(mesh, domain_mixed)
    coords = mesh.triangle_coords(topo.active)
    junctions = domain_mixed.junction_points
    near = np.flatnonzero(
        _point_triangle_distance(junctions[:, None], coords).min(axis=0) <= 2.0 * mesh.h
    )
    # cells near a junction, graded toward the nearer one, plus inside cells graded toward
    # a point far away (no subdivision) and toward their own vertex
    inside = np.flatnonzero(topo.classification[topo.active] == INSIDE)[:2]
    cells = np.r_[near, inside, inside]
    targets = np.vstack([
        junctions[np.argmin(_point_triangle_distance(junctions[:, None], coords[near]), axis=0)],
        np.full((len(inside), 2), 5.0),
        coords[inside, 0],
    ])
    batched = refine_rule_toward(coords[cells], domain_mixed, targets, levels=4)
    assert np.all(np.diff(batched.owner) >= 0)
    for k, (cell, target) in enumerate(zip(cells, targets)):
        one = refine_rule_toward(coords[cell], domain_mixed, target, levels=4)
        assert np.array_equal(one.owner, np.zeros_like(one.owner))
        assert np.array_equal(batched.points[batched.owner == k], one.points)
        assert np.array_equal(batched.weights[batched.owner == k], one.weights)


def test_cell_sums_rejects_an_integrand_that_returns_one_array(domain_mixed):
    """A lone (b, q) array would be read as b columns; a tuple of one array is one column."""
    rules = disk_rules(domain_mixed, 16)[2]
    with pytest.raises(TypeError, match="an integrand returns a tuple, not ndarray"):
        rules.cell_sums(lambda points, cells, offsets: np.ones(points.shape[:2]), None)
    sums = rules.cell_sums(lambda points, cells, offsets: (np.ones(points.shape[:2]),), None)
    assert sums.shape == (1, len(rules.topology.active))
    assert sums.sum() == pytest.approx(math.pi * domain_mixed.radius**2, rel=1e-12)


@pytest.mark.parametrize("n", [16, 64])
def test_build_rules_finds_the_arcs_of_the_cut_cells_once(domain_mixed, monkeypatch, n):
    """The volume and the boundary rule share one ``_arcs`` call, on the cut cells only."""
    import cutpoisson.quadrature as quadrature

    calls = []
    arcs = quadrature._arcs
    monkeypatch.setattr(quadrature, "_arcs", lambda tris, d: calls.append(len(tris)) or arcs(tris, d))
    _, topo, _ = disk_rules(domain_mixed, n)
    assert calls == [len(topo.cut)]


@pytest.mark.parametrize("n", [16, 64])
def test_batched_rules_are_bitwise_the_rules_of_each_topology(domain_dirichlet, domain_mixed, n):
    """20 shifted topologies in one batch: every array of every rule equals its own call's."""
    box = (-1.0, -1.0, 1.0, 1.0)
    for domain in (domain_dirichlet, domain_mixed):
        shifts = sweep_shifts(box, n, 20)
        topologies = [classify(build_background(box, n, shift), domain) for shift in shifts]
        batched = build_rules_batch(topologies, 1e-10)
        assert len(batched) == len(topologies)
        for rules, topology in zip(batched, topologies):
            alone = build_rules(topology, 1e-10)
            assert rules.topology is topology and rules.tol == alone.tol
            pairs = [(getattr(rules, f), getattr(alone, f)) for f in ("volume", "dirichlet", "neumann")]
            for got, want in pairs + list(zip(rules.inside, alone.inside)):
                for field in dataclasses.fields(want):
                    a, b = getattr(got, field.name), getattr(want, field.name)
                    assert (a is None) == (b is None)
                    if b is not None:
                        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_batched_rules_reject_topologies_of_two_domains(domain_dirichlet, domain_mixed):
    mesh = build_background((-1.0, -1.0, 1.0, 1.0), 16)
    topologies = [classify(mesh, domain_mixed), classify(mesh, domain_dirichlet)]
    with pytest.raises(ValueError, match="must share their domain"):
        build_rules_batch(topologies, 1e-10)


def _neumann_flux_ratio(rules, domain):
    """The singular problem's Neumann flux total over the rules, relative to the integral of |g_N|.

    u = sqrt(r) sin(theta / 2) about a junction is even about the diameter through it, which
    splits the circle into the Dirichlet and the Neumann half; so each half carries half of the
    total flux of a harmonic function, 0.
    """
    g = manufactured_singular(domain).g_N(rules.neumann.points)
    return abs(rules.neumann.weights @ g) / (rules.neumann.weights @ np.abs(g))


@pytest.mark.parametrize("n", [16, 64])
def test_junction_grading_resolves_the_singular_neumann_data(domain_mixed, n):
    """On the mixed disk the singular Neumann flux total stays below 3e-4 of the integral of |g_N|.

    g_N grows like a^(-1/2) in the distance a from a junction, so the pieces that end there are
    graded toward it: with 16 levels (``_GRADE_LEVELS``) the total reads 5.0e-5 and 3.1e-5 at
    n = 16 and 64, with 4 levels 3.2e-3 and 2.0e-3.
    """
    _, _, rules = disk_rules(domain_mixed, n)
    assert _neumann_flux_ratio(rules, domain_mixed) < 3e-4


def test_the_junction_panels_wherever_the_junctions_sit():
    """For 96 positions of the junction pair on the R = 0.7 disk at n = 16, no boundary panel is
    narrower than 1e-13 rad, and the singular Neumann flux total stays below 1e-3 of the integral
    of |g_N| (at most 3.7e-4).

    One position, an ulp below 5 pi / 4, puts the junctions within rounding of the circle's
    crossings with the grid diagonal y = x: splitting the arcs there would add panels of about
    1e-16 rad.  There the piece ends that the split puts at a junction also come out an ulp off
    its angle, and must still be graded toward it; ungraded, the flux total reads 4.8e-3.
    """
    mesh = build_background((-1.0, -1.0, 1.0, 1.0), 16)
    for start in np.linspace(0.0, 2.0 * math.pi, 97)[:-1]:
        domain = LevelSetDomain((0.0, 0.0), 0.7, ((start, start + math.pi),))
        rules = build_rules(classify(mesh, domain))
        for part in (rules.dirichlet, rules.neumann):
            widths = part.weights.reshape(-1, _BOUNDARY_ORDER).sum(axis=1) / domain.radius
            assert widths.min() > 1e-13, start
        assert _neumann_flux_ratio(rules, domain) < 1e-3, start


@pytest.mark.parametrize("n", [16, 64])
def test_tiling_keeps_the_bits_of_arcs_that_only_abut(n):
    """On shifted grids, where no two cells claim one arc, ``_tiling_arcs`` moves no arc.

    An arc ends at start + width, which can round an ulp past the next arc's start, and the last
    arc wraps round 2 pi; an overlap under 1e-13 is such rounding and moves no arc, so the
    boundary panels start where the volume rule's arc pieces do.
    """
    box = (-1.0, -1.0, 1.0, 1.0)
    for radius in (0.45, 0.7):
        domain = LevelSetDomain((0.0, 0.0), radius, ((0.0, math.pi),))
        for shift in sweep_shifts(box, n, 20):
            topo = classify(build_background(box, n, shift), domain)
            arcs = _cut_volume_rules(topo.mesh.triangle_coords(topo.cut), domain, DEFAULT_TOL)[1]
            assert all(np.array_equal(a, b) for a, b in zip(_tiling_arcs(arcs), arcs)), shift
