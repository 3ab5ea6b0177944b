"""Seeded fuzz of the config table: each config runs, is rejected by name, or fails a named check.

Each config is drawn field by field from ``cli._FIELDS`` with ``random.Random(SEED)``: a field
keeps its default or takes a value from its pool below, which mixes in circles near the mesh
edge, boxes inside the disk, empty and multi-arc Dirichlet parts, a low beta, sigma 0 and levels
n <= 32.  A config is loaded and its study run in process, and it must do one of these: run
with finite CSV values (``cutpoisson run`` exits 0), raise a ``ValueError`` that names a config
field (exit 2), or fail in the solver's check of the numerics, ``SolverError``, which names its
cause (exit 1).  The named configs below once ran to a meaningless answer or failed inside the
study; each now exits 2 before any level is built.
"""

import json
import math
import random

import numpy as np
import pytest

from cutpoisson import LevelSetDomain, cli, study
from cutpoisson.assembly import assemble_ghost_penalty, assemble_nitsche
from cutpoisson.cli import ConfigError, _run_study, load_config, run
from cutpoisson.solve import SolverError

SEED = 20261019
N_CONFIGS = 60
KINDS = ("convergence", "regularization", "inequalities", "cutoff_lemma", "condition_sweep")
# for each field, the values a config may take besides its default
POOLS = {
    "geometry.center": [[0.0, 0.0], [0.154, -0.279], [0.25, 0.1], [0.3, 0.0], [0.5, 0.5]],
    "geometry.radius": [0.2, 0.5, 0.7, 0.69, 3.0],
    "geometry.dirichlet_arcs": [[], [[0.0, math.pi]], [[0.3, 1.2], [2.5, 4.0]], [[5.0, 1.0]]],
    "mesh.box": [[-1.013, -0.979, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [-1.0, -0.8, 1.2, 1.0]],
    "mesh.levels": [[2, 4], [4, 8], [8, 16], [12, 32], [8], [16], [32], [4]],
    "mesh.shift_sweep_count": [1, 2, 3],
    "params.beta": [0.5, 2.0, 30.0],
    "params.sigma": [0.0, 0.01, 1.0],
    "params.epsilon_rule.kind": ["c_h2", "fixed"],
    "params.epsilon_rule.c": [0.01, 100.0],
    "params.epsilon_rule.value": [1e-3, 0.2],
    "problem.kind": ["smooth", "singular"],
    "problem.junction_index": [1, 3],
    "study.kind": list(KINDS),
    "study.ratios": [[10.0], [0.12, 10.0]],
    "output": ["results"],
    "quadrature_tol": [1e-12, 1e-6],
}
# levels a kind can run on, drawn most of the time so that most configs reach the study
RUNNABLE_LEVELS = {"convergence": [[4, 8], [8, 16], [8, 32]], "condition_sweep": [[4], [8]]}


def _draw(rng):
    raw = {}
    for field in cli._FIELDS:
        if rng.random() < 0.3:
            *sections, name = field.split(".")
            node = raw
            for section in sections:
                node = node.setdefault(section, {})
            node[name] = rng.choice(POOLS[field])
    kind = raw.get("study", {}).get("kind", "convergence")
    if rng.random() < 0.7:
        levels = RUNNABLE_LEVELS.get(kind, [[8], [16]])
        raw.setdefault("mesh", {})["levels"] = rng.choice(levels)
    return raw


def _outcome(path):
    """'ran', 'rejected' or 'failed', asserting what each of them must show."""
    try:
        _, _, rows, _ = _run_study(load_config(path))
    except SolverError:
        return "failed"
    except ValueError as exc:
        assert not isinstance(exc, np.linalg.LinAlgError), exc
        assert any(field in str(exc) for field in cli._FIELDS), str(exc)
        return "rejected"
    values = [v for row in rows for v in row if not isinstance(v, str) and v is not None]
    assert np.isfinite(values).all(), rows
    return "ran"


def test_the_pools_cover_the_field_table():
    assert set(POOLS) == set(cli._FIELDS)


def test_fuzzed_configs_run_or_are_rejected_by_name_or_fail_a_numerical_check(tmp_path):
    rng = random.Random(SEED)
    outcomes = []
    for i in range(N_CONFIGS):
        path = tmp_path / f"config{i}.json"
        raw = _draw(rng)
        path.write_text(json.dumps(raw))
        try:
            outcomes.append(_outcome(path))
        except AssertionError as exc:
            raise AssertionError(f"config {raw}: {exc}") from exc
    # the draw reaches the studies, not only the checks
    assert outcomes.count("ran") >= 15 and outcomes.count("rejected") >= 15, outcomes


def test_fuzzed_levels_match_their_mirror_image(tmp_path):
    """Each fuzzed config that builds a level gives the operators of its image under sigma.

    sigma: (x, y) -> (y, x) swaps the centre's and the box's coordinates and maps a config
    arc [a, b) to [pi/2 - b, pi/2 - a); it maps the grid of the box onto the grid of its
    image, vertex (i, j) onto (j, i), with the same cell diagonals.  The first level of each
    config and of its image must have the same ndof, and with the dofs renumbered by that
    vertex map, A and S must match within 1e-12 of their largest entry.
    """
    rng = random.Random(SEED)
    levels = 0
    for i in range(N_CONFIGS):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(_draw(rng)))
        try:
            cfg = load_config(path)
            tol, (n, *_) = cfg["quadrature_tol"], cfg["mesh"]["levels"]
            params = cfg["params"]["beta"], cfg["params"]["sigma"]
            box, geometry = cfg["mesh"]["box"], cfg["geometry"]
            dofmap, nitsche = study.discretize(cli.build_domain(cfg), n, *params, tuple(box), tol)
        except ValueError:  # rejected by name, or a level no study builds
            continue
        levels += 1
        image_domain = LevelSetDomain(
            tuple(geometry["center"][::-1]),
            geometry["radius"],
            [(math.pi / 2 - b, math.pi / 2 - a) for a, b in geometry["dirichlet_arcs"]],
        )
        image_box = (box[1], box[0], box[3], box[2])
        image, image_nitsche = study.discretize(image_domain, n, *params, image_box, tol)
        j, k = np.divmod(image.dof_to_vertex, n + 1)
        preimage = dofmap.vertex_to_dof[k * (n + 1) + j]  # the dof that maps to each image dof
        assert image.ndof == dofmap.ndof and np.all(preimage >= 0), cfg
        for assemble in (assemble_nitsche, assemble_ghost_penalty):
            K, K_image = assemble(dofmap, nitsche), assemble(image, image_nitsche)
            mapped = K.tocsr()[preimage][:, preimage]  # P K P^T in the image's numbering
            assert abs(mapped - K_image).max() <= 1e-12 * abs(K_image).max(), (assemble, cfg)
    assert levels == 24


NAMED = {
    "box inside the disk": (
        {"geometry": {"radius": 3.0}, "mesh": {"box": [0, 0, 1, 1], "levels": [4, 8]}},
        "mesh.box",
    ),
    "box inside an off-centre disk": (
        {
            "geometry": {"center": [0.508, -0.439], "radius": 3.0},
            "mesh": {"box": [-1.013, -0.979, 1.0, 1.0], "levels": [12, 32]},
        },
        "mesh.box",
    ),
    "pure Neumann": (
        {"geometry": {"dirichlet_arcs": []}, "mesh": {"levels": [8, 16]}},
        "geometry.dirichlet_arcs",
    ),
    "circle on a shifted mesh edge": (
        {
            "geometry": {"center": [0.154, -0.279]},
            "mesh": {"levels": [8]},
            "study": {"kind": "condition_sweep"},
        },
        "geometry.center",
    ),
    "level too coarse for the collar": (
        {"geometry": {"radius": 0.2}, "mesh": {"levels": [2, 4]}},
        "mesh.levels",
    ),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_ill_posed_config_exits_2_before_any_level_is_built(
    tmp_path, capsys, monkeypatch, name
):
    raw, field = NAMED[name]
    calls = []
    original = study.discretize
    monkeypatch.setattr(study, "discretize", lambda *a, **k: calls.append(a) or original(*a, **k))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, "output": str(tmp_path / "out")}))
    with pytest.raises(ConfigError, match=field):
        load_config(path)
    assert run(str(path), quiet=True) == 2
    assert field in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "out").exists()


def test_a_numerical_failure_inside_a_study_exits_1(tmp_path, capsys, monkeypatch):
    """``LinAlgError`` subclasses ``ValueError``, but the study failed here, not the config."""

    def fail(*args):
        raise np.linalg.LinAlgError("the leading minor of order 81 of B is not positive definite")

    monkeypatch.setattr(study, "run_convergence", fail)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mesh": {"levels": [8, 16]}, "output": str(tmp_path / "out")}))
    assert run(str(path), quiet=True) == 1
    assert "study failed: the leading minor" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_circle_tangent_to_a_grid_line_runs(tmp_path):
    """The circle of radius 0.5 centred at (0.25, 0.1) is tangent to the grid line x = 0.75
    between two vertices at every level; the singular mixed study runs on it."""
    raw = {
        "geometry": {"center": [0.25, 0.1], "radius": 0.5, "dirichlet_arcs": [[0.0, math.pi]]},
        "mesh": {"levels": [8, 16, 32, 64]},
        "problem": {"kind": "singular"},
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert run(str(path), quiet=True) == 0
    _, *rows = (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")
    assert [row.split(",")[0] for row in rows] == ["8", "16", "32", "64"]
    values = [float(v) for row in rows for v in row.split(",") if v]
    assert np.isfinite(values).all(), rows
