"""Seeded random disks on translated grids: cut classification and operator symmetry.

Each case draws a disk (centre, radius and one Dirichlet arc), a grid size n
and a sub-cell translation of the n-by-n grid of ``BOX`` with numpy's
generator from a fixed seed.  The disk stays inside the translated grid and
h <= 0.75 R, so every case discretizes.  Random cuts come nowhere near
tangency; ``test_classify_near_tangency_matches_the_box_scan`` places disks
within rounding of tangency with an edge on purpose.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from cutpoisson import LevelSetDomain, classify
from cutpoisson.assembly import assemble_ghost_penalty, assemble_nitsche
from cutpoisson.geometry import signed_distance
from cutpoisson.mesh import CUT, OUTSIDE, build_background
from cutpoisson.study import discretize
from tests.conftest import box_classify, grid_arrays

SEED = 20261019
N_CASES = 12
BOX = (-1.0, -1.0, 1.0, 1.0)
# samples on a ring just inside the circle: a cap of the disk deeper than
# about (2 pi R / RING)^2 / (8 R) < 2e-10 beyond a triangle's edge holds one
RING = 1 << 17


@dataclass(frozen=True)
class Case:
    domain: LevelSetDomain
    n: int
    shift: tuple


def _cases():
    rng = np.random.default_rng(SEED)
    cases = []
    for _ in range(N_CASES):
        n = int(rng.integers(13, 33))
        center = tuple(rng.uniform(-0.25, 0.25, 2))
        start = rng.uniform(0.0, 2 * math.pi)
        arc = ((start, start + rng.uniform(0.5, 5.5)),)
        shift = tuple(rng.uniform(0.0, 2.0 / n, 2))
        cases.append(Case(LevelSetDomain(center, rng.uniform(0.3, 0.55), arc), n, shift))
    return cases


CASES = _cases()


def _edge(rng, mesh):
    """A random triangle t, a point p inside one of its edges, and the edge's unit normal away from t."""
    t = int(rng.integers(mesh.n_triangles))
    a, b, apex = np.roll(mesh.triangle_coords(t), -int(rng.integers(3)), axis=0)
    normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
    normal *= -np.sign(normal @ (apex - a))
    return t, a + rng.uniform(0.3, 0.7) * (b - a), normal


def _sampled_active(domain, case, mesh):
    """Oracle: the triangles that hold a vertex or a sample of the open disk.

    The samples lie on a ring just inside the circle.  Each one inside the
    grid is located by its cell (i, j) and the side of the cell's diagonal:
    cell c = i n + j holds triangle 2c below the diagonal and 2c + 1 above it.
    """
    theta = np.linspace(0.0, 2 * math.pi, RING, endpoint=False)
    pts = domain.boundary_point(theta) * (1.0 - 1e-12) + domain.center_array * 1e-12
    assert np.all(signed_distance(domain, pts) < 0.0)
    local = (pts - np.array(BOX[:2]) - np.array(case.shift)) * (case.n / (BOX[2] - BOX[0]))
    ij = np.floor(local).astype(int)
    in_grid = np.all((ij >= 0) & (ij < case.n), axis=1)
    u, v = (local - ij)[in_grid].T
    active = np.zeros(mesh.n_triangles, dtype=bool)
    active[2 * (ij[in_grid, 0] * case.n + ij[in_grid, 1]) + (v > u)] = True
    vertices, triangles = grid_arrays(mesh)
    active |= (signed_distance(domain, vertices)[triangles] < 0.0).any(axis=1)
    return active


@pytest.mark.parametrize("k", range(N_CASES))
def test_classify_matches_the_sampling_oracle(k):
    """The case's disk, and disks that reach 1e-7 h to 0.1 h past a random edge or stop as short.

    A disk that reaches past an edge cuts the edge's triangle with all of its
    vertices outside, which random disks seldom do.
    """
    rng = np.random.default_rng([SEED, k, 0])
    case = CASES[k]
    mesh = build_background(BOX, case.n, case.shift)
    radius = case.domain.radius
    domains = [case.domain]
    for gap in np.array([-1.0, -1.0, 1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -1.0, 4):
        _, p, normal = _edge(rng, mesh)
        domains.append(LevelSetDomain(tuple(p + (radius + gap * mesh.h) * normal), radius))
    for domain in domains:
        want = np.flatnonzero(_sampled_active(domain, case, mesh))
        assert np.array_equal(classify(mesh, domain).active, want)


def _window_edge_disks(mesh, radius):
    """Disks whose window, the bounding box grown by h, is cut off by a side of the grid or ends
    on or next to a grid line, a disk covering the grid, and a disk off it."""
    x0, x1, y0, y1 = mesh.xs[0], mesh.xs[-1], mesh.ys[0], mesh.ys[-1]
    reach, i = radius + mesh.h, mesh.n // 3
    centers = [
        (x0 + 0.5 * radius, 0.0), (x1 - 0.5 * radius, 0.0), (0.0, y0 + 0.5 * radius),
        (0.0, y1 - 0.5 * radius), (x1 - reach, y0 + reach), (x0 + reach, y1 - reach),
        (mesh.xs[i] + reach, mesh.ys[i] + reach), (mesh.xs[-i] - reach, mesh.ys[i] + 0.3 * mesh.h),
    ]
    disks = [LevelSetDomain(c, radius) for c in centers]
    return disks + [LevelSetDomain((0.1, -0.2), 10.0), LevelSetDomain((5.0, 5.0), radius)]


@pytest.mark.parametrize("k", range(N_CASES))
def test_windowed_classify_matches_the_box_scan(k):
    """Tags, active triangles and ghost faces equal those of the scan of the whole box.

    Besides the case's disk, and disks shifted from it by up to one cell, the
    disks of ``_window_edge_disks`` clip the window or end it on a grid line.
    """
    rng = np.random.default_rng([SEED, k, 2])
    case = CASES[k]
    mesh = build_background(BOX, case.n, case.shift)
    radius = case.domain.radius
    shifted = [
        LevelSetDomain(tuple(case.domain.center_array + rng.uniform(-1.0, 1.0, 2) * mesh.h), radius)
        for _ in range(4)
    ]
    for domain in [case.domain, *shifted, *_window_edge_disks(mesh, radius)]:
        topo = classify(mesh, domain)
        cls, active, ghost = box_classify(mesh, domain)
        assert topo.classification.tobytes() == cls.tobytes()
        assert np.array_equal(topo.active, active)
        assert np.array_equal(topo.ghost_faces, ghost)


# gaps g of a disk g h past an edge: at tangency, within rounding of it, and clear of rounding
TANGENCY_BAND = (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-12, -1e-12)


@pytest.mark.parametrize("k", range(N_CASES))
def test_classify_near_tangency_matches_the_box_scan(k):
    """A disk placed g h past an edge classifies as the scan of the whole box does, bit for bit.

    The edge's triangle t has all its vertices outside the disk, which lies
    beyond the edge: t is cut once the disk reaches 1e-13 h into it (g <= -1e-13)
    and outside once it stops 1e-13 h short (g >= 1e-13).  Within rounding of
    tangency only the box scan's tag is asked for.
    """
    rng = np.random.default_rng([SEED, k, 1])
    case = CASES[k]
    mesh = build_background(BOX, case.n, case.shift)
    radius = case.domain.radius
    for _ in range(8):
        t, p, normal = _edge(rng, mesh)
        for g in TANGENCY_BAND:
            domain = LevelSetDomain(tuple(p + (radius + g * mesh.h) * normal), radius)
            topo = classify(mesh, domain)
            cls, active, ghost = box_classify(mesh, domain)
            assert topo.classification.tobytes() == cls.tobytes(), (t, g)
            assert np.array_equal(topo.active, active) and np.array_equal(topo.ghost_faces, ghost)
            if abs(g) >= 1e-13:
                assert topo.classification[t] == (CUT if g < 0.0 else OUTSIDE), (t, g)


@pytest.mark.parametrize("k", range(N_CASES))
def test_operators_are_bitwise_symmetric(k):
    case = CASES[k]
    dofmap, params = discretize(case.domain, case.n, shift=case.shift)
    A = assemble_nitsche(dofmap, params)
    S = assemble_ghost_penalty(dofmap, params)
    for M in (A, S, A + S):
        assert (M != M.T).nnz == 0
