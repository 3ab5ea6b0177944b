import math

import numpy as np
import pytest

from cutpoisson import LevelSetDomain, build_rules, classify, cut_boundary_rule, cut_volume_rule
from cutpoisson.geometry import classify_boundary, DIRICHLET
from cutpoisson.mesh import INSIDE, build_background


def disk_rules(domain, n, tol=1e-10, box=(-1.0, -1.0, 1.0, 1.0)):
    mesh = build_background(box, n)
    topo = classify(mesh, domain)
    return mesh, topo, build_rules(mesh, topo, domain, tol)


def test_uncut_triangle_mass():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    big = LevelSetDomain((0.0, 0.0), 10.0, ((0.0, 2 * math.pi),))
    rule = cut_volume_rule(tri, big)
    assert rule.measure == pytest.approx(0.5, rel=1e-14)


def test_disk_area_and_moment(rng):
    domain = LevelSetDomain((0.0, 0.0), 1.0, ((0.0, 2 * math.pi),))
    mesh, topo, rules = disk_rules(domain, 6, box=(-1.3, -1.3, 1.3, 1.3))
    area = rules.volume.weights.sum()
    assert area == pytest.approx(math.pi, rel=1e-8)
    moment = float(rules.volume.weights @ (rules.volume.points**2).sum(axis=1))
    assert moment == pytest.approx(math.pi / 2.0, rel=1e-7)


def test_boundary_measures(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    R = domain_mixed.radius
    total = rules.boundary.weights.sum()
    assert total == pytest.approx(2.0 * math.pi * R, rel=1e-10)
    d_part = rules.dirichlet.weights.sum()
    assert d_part == pytest.approx(math.pi * R, rel=1e-10)
    r = rules.boundary
    normal_integral = (r.weights[:, None] * r.normals).sum(axis=0)
    assert np.abs(normal_integral).max() < 1e-10


def test_boundary_normals_outward(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    r = rules.boundary
    outward = (r.points - domain_mixed.center_array) / domain_mixed.radius
    assert np.allclose(r.normals, outward, atol=1e-12)
    assert np.allclose(np.linalg.norm(r.normals, axis=1), 1.0, atol=1e-12)


def test_boundary_points_classify_consistently(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    for p in rules.dirichlet.points:
        assert classify_boundary(domain_mixed, p) == DIRICHLET
    for p in rules.neumann.points:
        assert classify_boundary(domain_mixed, p) != DIRICHLET


def test_divergence_theorem(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    volume = 2.0 * rules.volume.weights.sum()
    r = rules.boundary
    boundary = float(r.weights @ (r.points * r.normals).sum(axis=1))
    assert abs(volume - boundary) < 1e-9


def test_area_error_decreases_with_tol(domain_mixed):
    """The mass contract holds at every tolerance and tightens across decades."""
    mesh = build_background((-1, -1, 1, 1), 8)
    topo = classify(mesh, domain_mixed)
    exact = math.pi * domain_mixed.radius**2
    errors = {}
    for tol in (1e-2, 1e-4, 1e-6, 1e-8):
        rules = build_rules(mesh, topo, domain_mixed, tol)
        area = rules.volume.weights.sum()
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
    assert rule.measure == pytest.approx(math.pi * 0.04**2, rel=1e-9)
    rd, rn = cut_boundary_rule(mesh.triangle_coords(t), domain)
    assert rd.measure + rn.measure == pytest.approx(2 * math.pi * 0.04, rel=1e-9)


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
    assert rule.measure == pytest.approx(seg, rel=1e-9)


def test_volume_weights_nonnegative(domain_mixed):
    mesh, topo, rules = disk_rules(domain_mixed, 8)
    assert rules.volume.weights.min() >= 0.0


def test_packed_interior_rule_equals_cut_volume_rule(domain_mixed):
    """Interior cells are mapped in one batch; each gets exactly the per-cell rule."""
    for shift in ((0.0, 0.0), (0.013, 0.021)):
        mesh = build_background((-1, -1, 1, 1), 16, shift)
        topo = classify(mesh, domain_mixed)
        rules = build_rules(mesh, topo, domain_mixed)
        vol = rules.volume
        assert np.all(np.diff(vol.owner) >= 0)
        inside = np.flatnonzero(topo.classification[topo.active] == INSIDE)
        assert len(inside) > 0
        for k in inside:
            rule = cut_volume_rule(mesh.triangle_coords(topo.active[k]), domain_mixed)
            assert np.array_equal(vol.points[vol.owner == k], rule.points)
            assert np.array_equal(vol.weights[vol.owner == k], rule.weights)
