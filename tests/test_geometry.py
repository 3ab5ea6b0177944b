import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from cutpoisson import LevelSetDomain, TubeParams
from cutpoisson.geometry import (
    boundary_angle,
    collar,
    cutoff,
    cutoff_conormal_integral,
    cutoff_gradient,
    is_dirichlet_angle,
    junction_arc_distance,
    log_model_integral,
    signed_distance,
)
from tests.conftest import boundary_is_dirichlet

UNIT = LevelSetDomain((0.0, 0.0), 1.0, ((0.0, math.pi),))
TUBE = TubeParams(delta=0.1, epsilon=0.01)


def closest_point(domain, x):
    """Oracle: projection onto the boundary along the radial direction.

    Undefined at the disk center, where every boundary point is equally close.
    """
    x = np.asarray(x, dtype=float)
    d = x - domain.center_array
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("closest point is undefined at the disk center")
    return domain.center_array + domain.radius * d / r[..., None]


class TubeMembership(NamedTuple):
    in_dirichlet_collar: np.ndarray
    in_junction_wedge: np.ndarray
    in_collar: np.ndarray


def tube_membership(domain, params, x):
    """Oracle: membership flags of points in the collar regions, which bound the cutoff's support.

    The Dirichlet collar collects points within ``delta`` of the boundary that
    project onto the Dirichlet part.  The junction wedge collects points
    projecting onto the Neumann part whose along-boundary distance to the
    nearest junction is below ``rho + epsilon`` at depth ``rho``.  The full
    collar is their union.
    """
    x = np.asarray(x, dtype=float)
    rho = np.abs(signed_distance(domain, x))
    theta = boundary_angle(domain, x)
    dirichlet = is_dirichlet_angle(domain, theta)
    arc_dist = junction_arc_distance(domain, theta)

    in_d = (rho < params.delta) & dirichlet
    in_wedge = (rho <= params.delta) & ~dirichlet & (arc_dist < rho + params.epsilon)
    return TubeMembership(in_d, in_wedge, in_d | in_wedge)


def test_signed_distance_reference_points():
    disk = LevelSetDomain((0.0, 0.0), 1.0)
    assert signed_distance(disk, (0.0, 0.0)) == -1.0
    assert signed_distance(disk, (1.0, 0.0)) == 0.0
    assert signed_distance(disk, (0.0, -2.0)) == 1.0


def test_closest_point_radial_projection():
    disk = LevelSetDomain((0.0, 0.0), 1.0)
    assert np.allclose(closest_point(disk, (0.5, 0.0)), (1.0, 0.0))
    assert np.allclose(closest_point(disk, (0.0, 3.0)), (0.0, 1.0))
    x = 0.9 * np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(closest_point(disk, x), np.array([1.0, 1.0]) / math.sqrt(2.0))
    with pytest.raises(ValueError):
        closest_point(disk, (0.0, 0.0))


def test_closest_point_matches_distance(rng):
    disk = LevelSetDomain((0.3, -0.2), 0.8)
    pts = rng.uniform(-1, 1, size=(200, 2))
    pts = pts[np.linalg.norm(pts - [0.3, -0.2], axis=1) > 1e-6]
    proj = closest_point(disk, pts)
    assert np.allclose(signed_distance(disk, proj), 0.0, atol=1e-14)
    assert np.allclose(
        np.linalg.norm(pts - proj, axis=1), np.abs(signed_distance(disk, pts)), atol=1e-14
    )


def test_closest_point_idempotent_along_normal(rng):
    disk = LevelSetDomain((0.0, 0.0), 1.0)
    delta0 = 0.75
    theta = rng.uniform(0.0, 2.0 * math.pi, 50)
    p = disk.boundary_point(theta)
    for s in (-0.5, -0.1, 0.3, 0.7):
        q = closest_point(disk, p + s * delta0 * p)
        assert np.allclose(q, p, atol=1e-12)


def test_boundary_classification_half_open_arcs():
    assert boundary_is_dirichlet(UNIT, (0.0, 1.0))
    assert not boundary_is_dirichlet(UNIT, (0.0, -1.0))
    # arc endpoint theta = 0 belongs to the half-open Dirichlet arc
    assert boundary_is_dirichlet(UNIT, (1.0, 0.0))
    assert not boundary_is_dirichlet(UNIT, (-1.0, 0.0))
    with pytest.raises(ValueError):
        boundary_is_dirichlet(UNIT, (0.5, 0.5))


def test_arc_normalization_merges_and_validates():
    two = LevelSetDomain((0, 0), 1.0, ((0.0, 1.0), (1.0, 2.0)))
    assert len(two.dirichlet_arcs) == 1
    assert np.allclose(two.junction_angles, [0.0, 2.0])
    full = LevelSetDomain((0, 0), 1.0, ((0.0, 2.0 * math.pi),))
    assert full.is_pure_dirichlet and len(full.junction_angles) == 0
    assert LevelSetDomain((0, 0), 1.0).is_pure_neumann
    with pytest.raises(ValueError):
        LevelSetDomain((0, 0), 1.0, ((0.0, 2.0), (1.0, 3.0)))


def test_membership_flags():
    m = tube_membership(UNIT, TUBE, np.array([0.0, 0.95]))
    assert (bool(m.in_dirichlet_collar), bool(m.in_junction_wedge), bool(m.in_collar)) == (
        True,
        False,
        True,
    )
    m = tube_membership(UNIT, TUBE, np.array([0.0, -0.95]))
    assert (bool(m.in_dirichlet_collar), bool(m.in_junction_wedge), bool(m.in_collar)) == (
        False,
        False,
        False,
    )
    # Neumann side, depth 0.05, arc distance 0.02 < 0.05 + 0.01
    x = 0.95 * np.array([math.cos(-0.02 / 0.95), math.sin(-0.02 / 0.95)])
    rho = abs(signed_distance(UNIT, x))
    a = junction_arc_distance(UNIT, math.atan2(x[1], x[0]))
    assert a < rho + TUBE.epsilon
    m = tube_membership(UNIT, TUBE, x)
    assert (bool(m.in_dirichlet_collar), bool(m.in_junction_wedge), bool(m.in_collar)) == (
        False,
        True,
        True,
    )


def test_cutoff_boundary_values():
    # one on the Dirichlet boundary
    theta = np.linspace(0.05, math.pi - 0.05, 20)
    assert np.allclose(cutoff(UNIT, TUBE, UNIT.boundary_point(theta)), 1.0)
    # zero outside the collar
    assert cutoff(UNIT, TUBE, np.array([0.0, 0.0])) == 0.0
    assert cutoff(UNIT, TUBE, np.array([0.0, 0.85])) == 0.0
    # zero on the Neumann part beyond the epsilon wedge
    z = UNIT.boundary_point(-2.0 * TUBE.epsilon)  # arc distance 2 eps from the junction
    assert cutoff(UNIT, TUBE, z) == 0.0
    # inside [0, 1] everywhere
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(2000, 2))
    vals = cutoff(UNIT, TUBE, pts)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_cutoff_support_in_collar(rng):
    pts = rng.uniform(-1.0, 1.0, size=(10000, 2))
    inside = signed_distance(UNIT, pts) < 0.0
    pts = pts[inside]
    vals = cutoff(UNIT, TUBE, pts)
    member = tube_membership(UNIT, TUBE, pts)
    positive = vals > 0.0
    assert np.all(member.in_collar[positive])


def test_cutoff_gradient_zero_outside_collar():
    for x in ([0.0, 0.0], [0.5, 0.0], [0.0, -0.5]):
        assert np.allclose(cutoff_gradient(UNIT, TUBE, np.array(x)), 0.0)


def test_cutoff_gradient_bound_on_dirichlet_collar(rng):
    # where the junction profile is locally one, |grad chi| <= max|w'| / delta
    theta = rng.uniform(0.3, math.pi - 0.3, 100)
    depth = rng.uniform(0.001, 0.099, 100)
    pts = (1.0 - depth)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    g = cutoff_gradient(UNIT, TUBE, pts)
    assert np.linalg.norm(g, axis=1).max() <= 1.5 / TUBE.delta + 1e-12


def test_cutoff_gradient_matches_finite_differences(rng):
    pts = []
    while len(pts) < 100:
        p = rng.uniform(-1.0, 1.0, 2)
        r = np.linalg.norm(p)
        if 0.05 < r < 0.999:
            pts.append(p)
    pts = np.array(pts)
    step = 1e-6
    grad = cutoff_gradient(UNIT, TUBE, pts)
    for axis, dv in enumerate((np.array([step, 0.0]), np.array([0.0, step]))):
        fd = (cutoff(UNIT, TUBE, pts + dv) - cutoff(UNIT, TUBE, pts - dv)) / (2.0 * step)
        assert np.abs(fd - grad[:, axis]).max() < 1e-7


def test_cutoff_gradient_wedge_bound(rng):
    """Inside the junction wedge the gradient is bounded by C / (rho + epsilon)."""
    z_angle = 0.0
    samples = []
    for _ in range(400):
        t = rng.uniform(0.0, TUBE.delta)
        a = rng.uniform(0.0, t + TUBE.epsilon)
        psi = z_angle - a  # into the Neumann side
        samples.append((1.0 - t) * np.array([math.cos(psi), math.sin(psi)]))
    pts = np.array(samples)
    g = np.linalg.norm(cutoff_gradient(UNIT, TUBE, pts), axis=1)
    rho = np.abs(signed_distance(UNIT, pts))
    bound = 4.0 / (rho + TUBE.epsilon)
    assert np.all(g <= bound)


def test_conormal_integral_tracks_log_bound(domain_unit_mixed):
    """Quotient against log(1 + delta/eps) stays within fixed constants over 3 decades."""
    delta = 0.3
    quotients = []
    for ratio in (10.0, 100.0, 1000.0):
        tube = TubeParams(delta, delta / ratio)
        z = domain_unit_mixed.junction_points[0]
        val = cutoff_conormal_integral(domain_unit_mixed, tube, z)
        quotients.append(val / math.log1p(ratio))
    spread = max(quotients) / min(quotients)
    assert spread < 3.0
    assert min(quotients) > 0.1 and max(quotients) < 10.0


def test_conormal_integral_bounded_for_wide_wedge(domain_unit_mixed):
    """With epsilon >> delta the integral stays below the explicit profile bound."""
    delta = 0.005
    eps = delta / 0.01  # ratio 0.01
    tube = TubeParams(delta, eps)
    z = domain_unit_mixed.junction_points[0]
    val = cutoff_conormal_integral(domain_unit_mixed, tube, z)
    R = domain_unit_mixed.radius
    bound = 1.5**2 * (R / (R - delta)) * math.log1p(delta / eps)
    assert val <= bound


def test_conormal_integral_doubling_follows_model(domain_unit_mixed):
    delta, eps = 0.1, 0.001
    z = domain_unit_mixed.junction_points[0]
    i1 = cutoff_conormal_integral(domain_unit_mixed, TubeParams(delta, eps), z)
    i2 = cutoff_conormal_integral(domain_unit_mixed, TubeParams(2.0 * delta, eps), z)
    model = math.log1p(2.0 * delta / eps) / math.log1p(delta / eps)
    assert abs(i2 / i1 - model) <= 0.3 * model


MIXED = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
TWO_ARCS = LevelSetDomain((0.0, 0.0), 0.7, ((0.3, 1.2), (2.5, 4.0)))
# Neumann arc length into which each junction's wedge runs, from the arc layouts above.
NEUMANN_LENGTH = {
    "mixed": [0.7 * math.pi] * 2,
    "two_arcs": [0.7 * a for a in (2.0 * math.pi - 3.7, 1.3, 1.3, 2.0 * math.pi - 3.7)],
}


def conormal_oracle(domain, params, junction, L):
    """Tensor Gauss rule for the conormal integral over ``cutoff_gradient``.

    Depth panels are dyadic from epsilon / 4 with breaks where the fiber end
    t + epsilon reaches L/2 and L; along the fiber a in [0, min(gamma, L/2)]
    (the wedge of ``junction``) and a in [max(L/2, L - gamma), min(gamma, L)]
    (the wedge of the arc's far junction) take 6 Gauss points each, exact for
    the quartic m'(q)^2, and the Dirichlet part past L adds nothing.
    """
    R, delta, eps = domain.radius, params.delta, params.epsilon
    theta = domain.junction_angles[junction]
    side = -1.0 if is_dirichlet_angle(domain, theta) else 1.0
    dyadic = [eps * 2.0**k for k in range(-2, 60) if eps * 2.0**k < delta]
    kinks = [b for b in (L / 2.0 - eps, L - eps) if 0.0 < b < delta]
    breaks = np.unique([0.0, delta, *dyadic, *kinks])
    xt, wt = np.polynomial.legendre.leggauss(20)
    mid, half = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * np.diff(breaks)
    t = (mid[:, None] + half[:, None] * xt).ravel()
    w_t = (half[:, None] * wt).ravel()
    gamma = t + eps
    lo = np.stack([np.zeros_like(t), np.maximum(L / 2.0, L - gamma)], axis=1)
    hi = np.stack([np.minimum(gamma, L / 2.0), np.minimum(gamma, L)], axis=1)
    hi = np.maximum(hi, lo)  # an empty piece
    xa, wa = np.polynomial.legendre.leggauss(6)
    a = 0.5 * (lo + hi)[..., None] + 0.5 * (hi - lo)[..., None] * xa
    weight = (w_t * (1.0 - t / R))[:, None, None] * 0.5 * (hi - lo)[..., None] * wa
    psi = theta + side * a / R
    radius = (R - t)[:, None, None]
    pts = domain.center_array + np.stack([radius * np.cos(psi), radius * np.sin(psi)], axis=-1)
    grad = cutoff_gradient(domain, params, pts.reshape(-1, 2)).reshape(pts.shape)
    conormal = grad[..., 1] * np.cos(psi) - grad[..., 0] * np.sin(psi)
    return float(np.sum(weight * conormal**2))


@pytest.mark.parametrize(
    "name, domain, ratios",
    [
        ("mixed", MIXED, (0.06, 0.12, 0.5, 1.0, 10.0, 1000.0)),
        ("two_arcs", TWO_ARCS, (0.5, 1.0, 10.0, 1000.0)),
    ],
)
def test_conormal_integral_matches_tensor_gauss_oracle(name, domain, ratios):
    """Agreement to 1e-12 at every junction, also where the wedge passes L/2 and L."""
    delta = 0.3 * domain.radius
    for ratio in ratios:
        params = TubeParams(delta, delta / ratio)
        for j, (z, L) in enumerate(zip(domain.junction_points, NEUMANN_LENGTH[name])):
            value = cutoff_conormal_integral(domain, params, z)
            assert value == pytest.approx(conormal_oracle(domain, params, j, L), rel=1e-12)


def test_conormal_integral_where_the_nearest_junction_switches():
    """Ratio 0.5 on the two-arc disk: the wedge at 1.2 passes the middle of the 0.91 arc."""
    params = TubeParams(0.21, 0.42)
    value = cutoff_conormal_integral(TWO_ARCS, params, TWO_ARCS.junction_points[1])
    assert value == pytest.approx(0.2196877674555, rel=1e-12)
    # the wedge at 4.0 passes the middle and the end of its 1.81 arc at ratio 0.12
    wide = TubeParams(0.21, 0.21 / 0.12)
    value = cutoff_conormal_integral(TWO_ARCS, wide, TWO_ARCS.junction_points[3])
    oracle = conormal_oracle(TWO_ARCS, wide, 3, NEUMANN_LENGTH["two_arcs"][3])
    assert value == pytest.approx(oracle, rel=1e-12)


def test_conormal_integral_rejects_a_wedge_that_laps_into_the_next_neumann_arc():
    """From 2.5 the Neumann arc (0.91) and the Dirichlet arc after it (0.63) end at 1.54."""
    params = TubeParams(0.21, 0.21 / 0.12)
    message = r"delta \+ epsilon = 1\.96 exceeds 1\.54, the Neumann arc at the junction at angle 2\.5 "
    with pytest.raises(ValueError, match=message):
        cutoff_conormal_integral(TWO_ARCS, params, TWO_ARCS.junction_points[2])


def test_log_model_integral_matches_closed_form():
    for ratio in (10.0, 100.0, 1000.0):
        delta = 0.3
        eps = delta / ratio
        assert abs(log_model_integral(delta, eps) - math.log1p(ratio)) < 1e-12


def test_tube_params_validation():
    for delta, epsilon in ((0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, -0.1)):
        with pytest.raises(ValueError, match="must be positive"):
            TubeParams(delta, epsilon)


@pytest.mark.parametrize(
    "center, radius, message",
    [
        ((math.nan, 0.0), 1.0, "center must be two finite numbers"),
        ((0.0, math.inf), 1.0, "center must be two finite numbers"),
        ((0.0, 0.0, 0.0), 1.0, "center must be two finite numbers"),
        (("0", "0"), 1.0, "center must be two finite numbers"),
        ((0.0, 0.0), math.inf, "radius must be positive and finite"),
        ((0.0, 0.0), math.nan, "radius must be positive and finite"),
        ((0.0, 0.0), 0.0, "radius must be positive and finite"),
    ],
)
def test_level_set_domain_rejects_a_malformed_disk(center, radius, message):
    with pytest.raises(ValueError, match=message):
        LevelSetDomain(center, radius)


@pytest.mark.parametrize(
    "arc",
    [(0.0, math.nan), (math.inf, 1.0), (0.0,), (0.0, 1.0, 2.0), ("0", "1"), (0.0, True), 5, "01"],
)
def test_level_set_domain_rejects_an_arc_that_is_not_a_pair_of_finite_numbers(arc):
    with pytest.raises(ValueError, match=re.escape(f"arc {arc!r} is not a pair of finite numbers")):
        LevelSetDomain((0.0, 0.0), 1.0, ((3.0, 4.0), arc))


def test_collar_admits_widths_up_to_three_quarters_of_the_radius():
    limit = 0.75 * UNIT.radius
    assert collar(UNIT, 0.1, 0.01) == TubeParams(0.1, 0.01)
    assert collar(UNIT, limit, limit) == TubeParams(limit, limit)
    with pytest.raises(ValueError, match="epsilon 0.76 exceeds the admissible 0.75"):
        collar(UNIT, 0.1, 0.76)
    with pytest.raises(ValueError, match="must be positive"):
        collar(UNIT, 0.1, 0.0)
