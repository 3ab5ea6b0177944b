import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cutpoisson import LevelSetDomain, classify, mesh as mesh_mod, signed_distance
from cutpoisson.geometry import cross2
from cutpoisson.mesh import (
    CUT,
    FACE_ENDS,
    FACE_TRIANGLES,
    INSIDE,
    OUTSIDE,
    _point_triangle_distance,
    build_background,
)
from tests.conftest import box_classify, dict_faces, face_keys, grid_arrays, masked_faces


def test_build_background_counts():
    m1 = build_background((0, 0, 1, 1), 1)
    assert m1.n_triangles == 2 and m1.n_vertices == 4
    m2 = build_background((0, 0, 1, 1), 2)
    assert m2.n_triangles == 8 and m2.n_vertices == 9
    assert build_background((0, 0, 1, 1), 4).h == pytest.approx(math.sqrt(2.0) / 4.0)
    with pytest.raises(ValueError):
        build_background((0, 0, 1, 1), 0)


def _check_every_triangle(mesh):
    """Oracle: the shape check run over every triangle of the mesh."""
    vertices, triangles = grid_arrays(mesh)
    coords = vertices[triangles]
    e = coords - np.roll(coords, -1, axis=1)
    lengths = np.linalg.norm(e, axis=2)
    diam = lengths.max(axis=1)
    if diam.max() / diam.min() > 2.0:
        raise ValueError("mesh is not quasi-uniform (diameter ratio exceeds 2)")
    areas = 0.5 * np.abs(cross2(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]))
    quality = 4.0 * areas / (diam * lengths.sum(axis=1))
    if quality.min() < 0.2:
        raise ValueError("mesh is not shape regular")


def _verdict(check, mesh):
    try:
        check(mesh)
    except ValueError as exc:
        return str(exc)
    return None


def _right_triangle_quality(ratio):
    """The check's quality 4 area / (diam * perimeter) of a right triangle with legs ratio : 1."""
    hyp = math.hypot(ratio, 1.0)
    return 2.0 * ratio / (hyp * (ratio + 1.0 + hyp))


@pytest.mark.parametrize("ratio", [4.4, 10.0])
@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
def test_stretched_box_rejected(ratio, tall):
    box = (0.0, 0.0, 1.0, ratio) if tall else (0.0, 0.0, ratio, 1.0)
    with pytest.raises(ValueError, match="^mesh is not shape regular$"):
        build_background(box, 4)


@pytest.mark.parametrize("ratio", [1.0, 4.3])
@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
def test_moderate_box_accepted(ratio, tall):
    box = (0.0, 0.0, 1.0, ratio) if tall else (0.0, 0.0, ratio, 1.0)
    assert build_background(box, 4).n_triangles == 32


def test_shape_check_on_cell_0_matches_every_triangle(monkeypatch):
    """Every triangle is a translate of one of cell 0's two, so both checks agree."""
    check = mesh_mod._check_shape_regularity
    monkeypatch.setattr(mesh_mod, "_check_shape_regularity", lambda mesh: None)
    limit = brentq(lambda k: _right_triangle_quality(k) - 0.2, 1.0, 10.0)
    assert 4.3 < limit < 4.4
    ratios = np.geomspace(0.1, 10.0, 31)
    ratios = ratios[np.abs(np.maximum(ratios, 1.0 / ratios) - limit) > 1e-6]
    verdicts = []
    for n in (1, 2, 7, 64):
        for shift in ((0.0, 0.0), (0.03, -0.05), (1.7, -2.3)):
            for k in ratios:
                mesh = build_background((-1.0, -0.5, -1.0 + 2.0 * k, 1.5), n, shift)
                verdict = _verdict(check, mesh)
                assert verdict == _verdict(_check_every_triangle, mesh), (n, shift, k)
                verdicts.append(verdict)
    assert None in verdicts and "mesh is not shape regular" in verdicts


def _table_triangles(mesh, ends):
    """The triangles of the faces with vertex ends ``ends`` by ``FACE_TRIANGLES``, lower id
    first, a triangle off the grid -1 and last."""
    n = mesh.n
    i, j = np.divmod(ends[:, 0], n + 1)
    p, di, dj = np.moveaxis(FACE_TRIANGLES[face_keys(n, ends) % 3], -1, 0)
    ci, cj = i[:, None] + di, j[:, None] + dj
    t = np.where((ci >= 0) & (ci < n) & (cj >= 0) & (cj < n), 2 * (ci * n + cj) + p, -1)
    return np.where(t[:, :1] < 0, t[:, ::-1], t)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.013, -0.021), (1.7, -2.3)])
def test_closed_form_vertices_and_triangles_match_the_grid_arrays(n, shift):
    """Coordinates and corners from ids are bitwise those of the arrays built for the whole grid."""
    mesh = build_background((-1, -0.5, 1, 1.5), n, shift)
    vertices, triangles = grid_arrays(mesh)
    assert mesh.n_vertices == len(vertices) and mesh.n_triangles == len(triangles)
    assert mesh.vertex_coords(np.arange(mesh.n_vertices)).tobytes() == vertices.tobytes()
    assert np.array_equal(mesh.triangle_vertices(np.arange(mesh.n_triangles)), triangles)
    assert mesh.triangle_coords(np.arange(mesh.n_triangles)).tobytes() == vertices[triangles].tobytes()
    t = int(triangles.shape[0] // 2)
    assert np.array_equal(mesh.triangle_vertices(t), triangles[t])


@pytest.mark.parametrize(
    "n, shift",
    [
        (1, (0.0, 0.0)),
        (2, (0.0, 0.0)),
        (3, (0.0, 0.0)),
        (8, (0.0, 0.0)),
        (8, (0.03, -0.05)),
        (5, (0.07, 0.11)),
        (64, (0.0, 0.0)),
    ],
)
def test_face_map_matches_dict_oracle(n, shift):
    mesh = build_background((-1, -1, 1, 1), n, shift)
    faces, face_tris = dict_faces(grid_arrays(mesh)[1])
    assert np.array_equal(_table_triangles(mesh, faces), face_tris)
    # the masked oracle has the same faces, and their keys ascend (``face_keys`` locates by them)
    assert np.array_equal(masked_faces(n)[0], faces)
    assert np.all(np.diff(face_keys(n, faces)) > 0)


def _decode_keys(mesh, keys):
    """Vertex ends (..., 2) of the faces keyed 3 v + kind, decoded as the ghost penalty does."""
    v, kind = np.divmod(keys, 3)
    return np.stack([v, v + (FACE_ENDS @ (mesh.n + 1, 1))[kind]], axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 256])
@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.013, -0.021)], ids=["unshifted", "shifted"])
def test_closed_form_faces_match_masked_oracle(n, shift):
    """The keys 3 (i (n + 1) + j) + kind of every face (i, j, kind) of the grid ascend as the
    masked oracle's faces, decode to its ends, and give its triangles by ``FACE_TRIANGLES``."""
    mesh = build_background((-1, -1, 1, 1), n, shift)
    want, want_tris = masked_faces(n)
    i, j, kind = np.meshgrid(np.arange(n + 1), np.arange(n + 1), np.arange(3), indexing="ij")
    on_grid = (i + FACE_ENDS[kind, 0] <= n) & (j + FACE_ENDS[kind, 1] <= n)
    keys = (3 * (i * (n + 1) + j) + kind)[on_grid]
    assert keys.shape == (3 * n * n + 2 * n,)
    assert np.array_equal(keys, face_keys(n, want))
    got = _decode_keys(mesh, keys)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape == (3 * n * n + 2 * n, 2)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(_table_triangles(mesh, got), want_tris)
    # a single key reads as its row
    f = 3 * n * n // 2
    assert _decode_keys(mesh, keys[f]).tolist() == want[f].tolist()


def test_face_adjacency_counts():
    mesh = build_background((0, 0, 1, 1), 4)
    adjacency = (_table_triangles(mesh, masked_faces(4)[0]) >= 0).sum(axis=1)
    # interior faces have exactly two neighbors, box faces exactly one
    assert set(np.unique(adjacency)) == {1, 2}
    boundary_faces = (adjacency == 1).sum()
    assert boundary_faces == 4 * 4  # n segments on each of the four box sides


def test_classify_trivial_patterns(domain_mixed):
    mesh = build_background((-1, -1, 1, 1), 8)
    topo = classify(mesh, domain_mixed)
    vertices, triangles = grid_arrays(mesh)
    phi = signed_distance(domain_mixed, vertices)[triangles]
    all_in = (phi <= 0).all(axis=1)
    mixed = (phi <= 0).any(axis=1) & ~all_in
    assert np.all(topo.classification[all_in] == INSIDE)
    assert np.all(topo.classification[mixed] == CUT)
    counts = np.bincount(topo.classification, minlength=3)
    assert counts.sum() == mesh.n_triangles
    assert np.array_equal(np.sort(topo.active), np.flatnonzero(topo.classification != OUTSIDE))


def test_classify_matches_sampling_oracle(domain_mixed, rng):
    """Active set agrees with brute-force point sampling at 1e5 samples per triangle."""
    mesh = build_background((-1, -1, 1, 1), 8)
    topo = classify(mesh, domain_mixed)
    bary = rng.dirichlet(np.ones(3), size=100000)
    for t in range(mesh.n_triangles):
        pts = bary @ mesh.triangle_coords(t)
        sampled_active = bool(np.any(signed_distance(domain_mixed, pts) < 0.0))
        assert sampled_active == (topo.classification[t] != OUTSIDE), f"triangle {t}"


def test_classify_a_circle_tangent_to_a_grid_line():
    """The circle touches x = +-0.5 inside the edges of triangles 29 and 4, whose vertices are all
    outside; they meet the disk in a point, so they are outside, as the box scan tags them."""
    domain = LevelSetDomain((0.0, 0.25), 0.5, ((0.0, 2 * math.pi),))
    mesh = build_background((-1, -1, 1, 1), 4)
    topo = classify(mesh, domain)
    cls, active, ghost = box_classify(mesh, domain)
    for t in (29, 4):
        assert _point_triangle_distance(domain.center_array, mesh.triangle_coords(t)) == 0.5
        assert np.all(signed_distance(domain, mesh.triangle_coords(t)) > 0.0)
        assert topo.classification[t] == cls[t] == OUTSIDE
    assert topo.classification.tobytes() == cls.tobytes()
    assert np.array_equal(topo.active, active) and np.array_equal(topo.ghost_faces, ghost)


def _brute_force_ghost_faces(topo, faces, face_tris):
    """Oracle: the keys of the interior faces ``faces``, by their triangle pairs ``face_tris``,
    with both triangles active and one cut, in face order."""
    is_active = topo.classification != OUTSIDE
    expected = []
    for f, (t1, t2) in enumerate(face_tris):
        if t1 < 0 or t2 < 0:
            continue
        if not (is_active[t1] and is_active[t2]):
            continue
        if topo.classification[t1] == CUT or topo.classification[t2] == CUT:
            expected.append(f)
    return face_keys(topo.mesh.n, faces[expected])


def test_ghost_faces_brute_force(domain_mixed):
    mesh = build_background((-1, -1, 1, 1), 8)
    topo = classify(mesh, domain_mixed)
    faces, face_tris = dict_faces(grid_arrays(mesh)[1])
    assert topo.ghost_faces.dtype == np.int64
    assert np.array_equal(topo.ghost_faces, _brute_force_ghost_faces(topo, faces, face_tris))
    # every ghost face is interior to the active mesh with a cut neighbor
    for f in np.searchsorted(face_keys(mesh.n, faces), topo.ghost_faces):
        t1, t2 = face_tris[f]
        assert OUTSIDE not in (topo.classification[t1], topo.classification[t2])
        assert CUT in (topo.classification[t1], topo.classification[t2])


@pytest.mark.parametrize("n", [2, 5, 16, 64])
@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.013, -0.021)], ids=["unshifted", "shifted"])
def test_ghost_faces_match_the_masked_oracle(domain_mixed, n, shift):
    topo = classify(build_background((-1, -1, 1, 1), n, shift), domain_mixed)
    assert np.array_equal(topo.ghost_faces, _brute_force_ghost_faces(topo, *masked_faces(n)))


def test_ghost_faces_empty_for_fitted_case():
    # domain covering the whole box: no cut elements, no stabilized faces
    domain = LevelSetDomain((0.5, 0.5), 10.0, ((0.0, 2 * math.pi),))
    mesh = build_background((0, 0, 1, 1), 4)
    topo = classify(mesh, domain)
    assert np.all(topo.classification == INSIDE)
    assert len(topo.ghost_faces) == 0


def test_cut_count_growth(domain_mixed):
    counts = []
    for n in (8, 16, 32, 64, 128):
        topo = classify(build_background((-1, -1, 1, 1), n), domain_mixed)
        counts.append((topo.classification == CUT).sum())
    for coarse, fine in zip(counts, counts[1:]):
        assert 1.5 <= fine / coarse <= 2.5


def test_translation_sweep_stability(domain_dirichlet):
    from cutpoisson.study import sweep_shifts

    sizes = []
    for shift in sweep_shifts((-1, -1, 1, 1), 16, 20):
        mesh = build_background((-1, -1, 1, 1), 16, shift)
        topo = classify(mesh, domain_dirichlet)
        sizes.append(len(topo.active))
    cell = 2.0 / 16
    perimeter = 2.0 * math.pi * domain_dirichlet.radius
    assert max(sizes) - min(sizes) <= 6.0 * perimeter / cell


def test_point_triangle_distance_broadcasts(rng):
    tris = rng.random((40, 3, 2)) * 2.0 - 1.0
    pts = rng.random((40, 2)) * 3.0 - 1.5
    batched = _point_triangle_distance(pts, tris)
    single = [_point_triangle_distance(p, t) for p, t in zip(pts, tris)]
    assert np.array_equal(batched, single)
    # against dense sampling of each closed triangle
    s = np.linspace(0.0, 1.0, 201)
    u, v = np.meshgrid(s, s)
    keep = u + v <= 1.0
    lam = np.column_stack([1.0 - u[keep] - v[keep], u[keep], v[keep]])
    for p, t, d in zip(pts, tris, batched):
        sampled = np.linalg.norm(lam @ t - p, axis=1).min()
        assert d <= sampled + 1e-12
        assert sampled - d <= 2.0 * np.linalg.norm(t - np.roll(t, -1, axis=0), axis=1).max() / 200
