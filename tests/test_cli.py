import copy
import json
import math
import re
from pathlib import Path

import pytest

from cutpoisson import study
from cutpoisson import cli
from cutpoisson.cli import ConfigError, load_config, main, run
from cutpoisson.geometry import LevelSetDomain
from cutpoisson.study import condition_sweep


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = {
        "geometry": {
            "center": [0.0, 0.0],
            "radius": 0.7,
            "dirichlet_arcs": [[0.0, 2.0 * math.pi]],
        },
        "mesh": {"levels": [8, 16]},
        "problem": {"kind": "smooth"},
        "study": {"kind": "convergence"},
        "quadrature_tol": 1e-10,
    }
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_convergence_csv_schema(tmp_path):
    cfg = write_config(tmp_path, {"output": str(tmp_path / "out")})
    assert run(str(cfg), quiet=True) == 0
    csv = (tmp_path / "out" / "convergence.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "level,h,ndof,energy_err,sh_norm,l2_err,eoc_energy"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "8" and first[-1] == ""  # no EOC on the first level
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_negative_beta_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"params": {"beta": -1.0}})
    assert run(str(cfg), quiet=True) == 2
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("value, token", [(math.nan, "NaN"), (math.inf, "Infinity")])
@pytest.mark.parametrize("field", ["beta", "sigma"])
def test_non_finite_form_parameter_rejected_before_any_work(tmp_path, capsys, field, value, token):
    """JSON's NaN and Infinity are read as floats; either one in a form parameter exits 2."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"params": {field: value}, "output": str(out)})
    assert token in cfg.read_text()
    assert run(str(cfg), quiet=True) == 2
    assert f"params.{field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("mesh", "boxx", [0, 0, 1, 1]),
        # collar width and epsilon factors: the studies always use delta = h and 0, 1, 2, 4
        ("params", "delta_rule", {"kind": "fixed", "value": 0.05}),
        ("study", "eps_factors", [0.0, 1.0]),
    ],
    ids=["mesh.boxx", "params.delta_rule", "study.eps_factors"],
)
def test_unknown_field_rejected(tmp_path, capsys, section, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({section: {field: value}}))
    assert run(str(path), quiet=True) == 2
    assert f"{section}.{field}" in capsys.readouterr().err


def test_condition_sweep_follows_quadrature_tol(tmp_path):
    """The sweep's CSV holds the study's rows at the configured tolerance."""
    overrides = {
        "mesh": {"levels": [8], "shift_sweep_count": 2},
        "study": {"kind": "condition_sweep"},
        "quadrature_tol": 1e-12,
        "output": str(tmp_path / "out"),
    }
    assert run(str(write_config(tmp_path, overrides)), quiet=True) == 0
    lines = (tmp_path / "out" / "condition_sweep.csv").read_text().strip().split("\n")
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, 2.0 * math.pi),))
    report = condition_sweep(domain, 8, 2, tol=1e-12)
    want = [
        [i, *r.shift, r.lambda_min_energy, r.kappa_stabilized, r.kappa_unstabilized]
        for i, r in enumerate(report.rows)
    ]
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == want


def test_inequalities_csv_holds_the_library_constants(tmp_path):
    """The inequalities kind writes the exact constants of one level, byte-identical on rerun."""
    overrides = {
        "geometry": {"dirichlet_arcs": [[0.0, math.pi]]},
        "mesh": {"levels": [8]},
        "study": {"kind": "inequalities"},
    }
    cfg = write_config(tmp_path, overrides)
    assert run(str(cfg), out_dir=str(tmp_path / "a"), quiet=True) == 0
    assert run(str(cfg), out_dir=str(tmp_path / "b"), quiet=True) == 0
    a = (tmp_path / "a" / "inequalities.csv").read_bytes()
    assert a == (tmp_path / "b" / "inequalities.csv").read_bytes()
    lines = a.decode("utf-8").strip().split("\n")
    assert lines[0] == "inequality,max_constant"
    domain = LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))
    dofmap, params = study.discretize(domain, 8, tol=1e-10)
    report = study.verify_inequalities(dofmap, params)
    want = [report.full_gradient, report.boundary_flux, report.cut_trace]
    assert [float(line.split(",")[1]) for line in lines[1:]] == want


def test_quadrature_tol_below_the_floor_rejected(tmp_path):
    with pytest.raises(ConfigError, match="quadrature_tol"):
        load_config(write_config(tmp_path, {"quadrature_tol": 1e-13}))
    assert load_config(write_config(tmp_path, {"quadrature_tol": 1e-12}))["quadrature_tol"] == 1e-12


def test_unknown_study_kind_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"study": {"kind": "mystery"}})
    assert run(str(cfg), quiet=True) == 2
    assert "mystery" in capsys.readouterr().err


def test_infeasible_epsilon_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "mesh": {"levels": [8]},
            "study": {"kind": "regularization"},
            "params": {"epsilon_rule": {"kind": "fixed", "value": 10.0}},
        },
    )
    assert run(str(cfg), quiet=True) == 2
    assert "epsilon" in capsys.readouterr().err.lower()


def test_fixed_epsilon_checked_against_the_collar_limit(tmp_path, capsys):
    """epsilon0 = 0.75 * 0.7 rounds to 0.5249999999999999, so value 0.13125 is just too large."""
    overrides = {"mesh": {"levels": [8]}, "study": {"kind": "regularization"}}
    limit = 0.75 * 0.7 / 4.0
    rejected = write_config(
        tmp_path,
        {**overrides, "params": {"epsilon_rule": {"kind": "fixed", "value": 0.13125}}},
        name="rejected.json",
    )
    assert run(str(rejected), tmp_path / "rejected", quiet=True) == 2
    err = capsys.readouterr().err
    assert "largest admissible value is 0.13124999999999998" in err
    assert not (tmp_path / "rejected" / "regularization.csv").exists()
    accepted = write_config(
        tmp_path,
        {**overrides, "params": {"epsilon_rule": {"kind": "fixed", "value": limit}}},
        name="accepted.json",
    )
    assert run(str(accepted), tmp_path / "accepted", quiet=True) == 0
    csv = (tmp_path / "accepted" / "regularization.csv").read_text().splitlines()
    assert float(csv[-1].split(",")[0]) == 4.0 * limit == 0.75 * 0.7


@pytest.mark.parametrize("kind", ["regularization", "inequalities", "condition_sweep"])
def test_single_level_kinds_reject_several_levels(tmp_path, capsys, kind):
    """These kinds run on one level; a longer list is an error, not a silent use of the first."""
    cfg = write_config(tmp_path, {"mesh": {"levels": [8, 16]}, "study": {"kind": kind}})
    message = rf"study.kind '{kind}' runs on one mesh level, but mesh.levels is \[8, 16\]"
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    assert run(str(cfg), tmp_path / "out", quiet=True) == 2
    assert "[8, 16]" in capsys.readouterr().err
    assert not any((tmp_path / "out").glob("*.csv"))
    assert load_config(write_config(tmp_path, {"mesh": {"levels": [8]}, "study": {"kind": kind}}))


def test_convergence_rejects_one_level_naming_mesh_levels(tmp_path, capsys, monkeypatch):
    """A convergence study compares levels: one level is rejected at load, before any work."""
    calls = []
    monkeypatch.setattr(study, "discretize", _counting(calls, "discretize", study.discretize))
    cfg = write_config(tmp_path, {"mesh": {"levels": [8]}, "study": {"kind": "convergence"}})
    message = r"study.kind 'convergence' compares mesh levels, but mesh.levels is \[8\]"
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    assert run(str(cfg), tmp_path / "out", quiet=True) == 2
    assert "mesh.levels is [8]" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "out").exists()
    # so are levels that do not refine, which would otherwise be solved before the study failed
    for levels in ([32, 16], [16, 16]):
        cfg = write_config(tmp_path, {"mesh": {"levels": levels}, "study": {"kind": "convergence"}})
        message = rf"mesh.levels must be strictly increasing, got \[{levels[0]}, {levels[1]}\]"
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        assert run(str(cfg), tmp_path / "out", quiet=True) == 2
        assert "mesh.levels must be strictly increasing" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_c_h2_epsilon_checked_against_the_collar_limit_before_any_solve(
    tmp_path, capsys, monkeypatch
):
    """At n = 64, 4 * 100 * h^2 = 0.78 exceeds 0.75 * 0.7: rejected before any level is built."""
    calls = []
    for name in ("discretize", "solve_standard", "solve_regularized"):
        monkeypatch.setattr(study, name, _counting(calls, name, getattr(study, name)))
    overrides = {"mesh": {"levels": [64]}, "study": {"kind": "regularization"}}
    for c, message in (
        (
            100.0,
            "params.epsilon_rule.c 100.0: the study's largest epsilon 4 * c * h^2 = "
            "0.7812500000000002 exceeds the admissible 0.5249999999999999",
        ),
        (0.0, "params.epsilon_rule.c must be a finite number > 0, got 0.0"),
    ):
        rule = {"kind": "c_h2", "c": c}
        config = write_config(tmp_path, {**overrides, "params": {"epsilon_rule": rule}})
        assert run(str(config), tmp_path / "out", quiet=True) == 2
        assert message in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "regularization.csv").exists()
    config = write_config(tmp_path, {"mesh": {"levels": [8]}, "study": {"kind": "regularization"}})
    assert run(str(config), tmp_path / "out", quiet=True) == 0
    assert calls[:2] == ["discretize", "solve_standard"]  # the counters see a study that runs


def test_custom_problem_rejected(tmp_path):
    cfg = write_config(tmp_path, {"problem": {"kind": "custom"}})
    assert run(str(cfg), quiet=True) == 2


def test_missing_config_file(tmp_path):
    assert run(str(tmp_path / "absent.json"), quiet=True) == 2


def test_out_flag_overrides_output(tmp_path):
    cfg = write_config(tmp_path, {"output": str(tmp_path / "ignored")})
    code = main(["run", str(cfg), "--out", str(tmp_path / "flag"), "--quiet"])
    assert code == 0
    assert (tmp_path / "flag" / "convergence.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_identical_runs_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert run(str(cfg), out_dir=str(tmp_path / "a"), quiet=True) == 0
    assert run(str(cfg), out_dir=str(tmp_path / "b"), quiet=True) == 0
    a = (tmp_path / "a" / "convergence.csv").read_bytes()
    b = (tmp_path / "b" / "convergence.csv").read_bytes()
    assert a == b


def test_defaults_applied():
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "minimal.json"
        path.write_text("{}")
        cfg = load_config(str(path))
    assert cfg["params"]["beta"] == 10.0
    assert cfg["params"]["sigma"] == 0.1
    assert cfg["mesh"]["levels"] == [8, 16, 32, 64]
    assert cfg["study"]["kind"] == "convergence"


def test_lf_line_endings_and_utf8(tmp_path):
    cfg = write_config(tmp_path)
    assert run(str(cfg), out_dir=str(tmp_path / "o"), quiet=True) == 0
    raw = (tmp_path / "o" / "convergence.csv").read_bytes()
    assert b"\r" not in raw
    raw.decode("utf-8")


def test_truncated_disk_config_rejected(tmp_path, capsys):
    """A disk centred at (0.5, 0) with R = 0.7 leaves the box [-1, 1]^2."""
    cfg = write_config(tmp_path, {"geometry": {"center": [0.5, 0.0], "radius": 0.7}})
    with pytest.raises(ConfigError, match="truncated domain"):
        load_config(str(cfg))
    assert run(str(cfg), out_dir=str(tmp_path / "o"), quiet=True) == 2
    assert "meets the edge of the mesh extent" in capsys.readouterr().err
    assert not (tmp_path / "o" / "convergence.csv").exists()


def test_box_inside_disk_config_accepted(tmp_path):
    """The cutoff lemma builds no mesh, so a disk covering the box is fine there."""
    geometry = {"center": [0.0, 0.0], "radius": 10.0, "dirichlet_arcs": [[0.0, math.pi]]}
    cfg = write_config(tmp_path, {"geometry": geometry, "study": {"kind": "cutoff_lemma"}})
    assert load_config(str(cfg))["geometry"]["radius"] == 10.0


def test_disk_outside_the_box_rejected_before_anything_is_written(tmp_path, capsys):
    geometry = {"center": [5.0, 5.0], "radius": 0.5, "dirichlet_arcs": [[0.0, 3.14159]]}
    cfg = write_config(tmp_path, {"geometry": geometry})
    with pytest.raises(ConfigError, match=r"center \(5\.0, 5\.0\), radius 0\.5\) misses the mesh"):
        load_config(str(cfg))
    assert run(str(cfg), out_dir=str(tmp_path / "o"), quiet=True) == 2
    assert "misses the mesh extent (-1.0, -1.0, 1.0, 1.0)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("levels", [[8.5, 16], [8, "16"], [True, 16], [], 8])
def test_non_integer_levels_rejected(tmp_path, levels):
    cfg = write_config(tmp_path, {"mesh": {"levels": levels}})
    with pytest.raises(ConfigError, match="mesh.levels"):
        load_config(str(cfg))


@pytest.mark.parametrize(
    "box", [[-5.0, -1.0, 5.0, 1.0], [-1.0, -5.0, 1.0, 5.0]], ids=["wide", "tall"]
)
def test_stretched_box_rejected_before_anything_is_written(tmp_path, capsys, box):
    cfg = write_config(tmp_path, {"mesh": {"box": box}})
    with pytest.raises(ConfigError, match=r"mesh.box .*aspect ratio 5\b.*limit of about 4.3"):
        load_config(str(cfg))
    assert run(str(cfg), out_dir=str(tmp_path / "o"), quiet=True) == 2
    assert "mesh.box" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_box_at_the_aspect_limit_accepted(tmp_path):
    cfg = write_config(tmp_path, {"mesh": {"box": [-4.3, -1.0, 4.3, 1.0], "levels": [32, 64]}})
    assert load_config(str(cfg))["mesh"]["box"] == [-4.3, -1.0, 4.3, 1.0]


@pytest.mark.parametrize(
    "box", [[1.0, -1.0, -1.0, 1.0], [0, 0, 1], [0, 0, 1, "1"], [0, 0, True, 1], "0 0 1 1"]
)
def test_malformed_box_rejected(tmp_path, box):
    cfg = write_config(tmp_path, {"mesh": {"box": box}})
    with pytest.raises(ConfigError, match="mesh.box"):
        load_config(str(cfg))


LEMMA = {"geometry": {"dirichlet_arcs": [[0.0, math.pi]]}, "study": {"kind": "cutoff_lemma"}}


def test_cutoff_lemma_with_a_wedge_wider_than_the_neumann_arc(tmp_path):
    """At ratio 0.06 the wedge (0.21 + 3.5) runs past the whole Neumann arc (2.2)."""
    cfg = write_config(tmp_path, {**LEMMA, "study": {"kind": "cutoff_lemma", "ratios": [0.06, 10]}})
    assert run(str(cfg), out_dir=str(tmp_path / "o"), quiet=True) == 0
    lines = (tmp_path / "o" / "cutoff_lemma.csv").read_text().strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["0.059999999999999998", "10"]


@pytest.mark.parametrize(
    "geometry, ratios, message",
    [
        ({"center": [math.nan, 0.0]}, [10], "geometry.center"),
        ({"center": [0.0, 0.0, 0.0]}, [10], "geometry.center"),
        ({"radius": math.inf}, [10], "geometry.radius"),
        ({"radius": "0.7"}, [10], "geometry.radius"),
        ({}, [], "study.ratios"),
        ({}, "10", "study.ratios"),
        ({}, [math.nan], "study.ratios"),
        ({}, [True], "study.ratios"),
        ({}, [10, -1], "study.ratios"),
        # valid fields, but the wedge at 2.5 laps from its Neumann arc into the next one
        (
            {"dirichlet_arcs": [[0.3, 1.2], [2.5, 4.0]]},
            [10, 0.12],
            "study.ratios on geometry.dirichlet_arcs: width ratio 0.12: delta + epsilon = 1.96 "
            "exceeds 1.54, the Neumann arc at the junction at angle 2.5",
        ),
    ],
)
def test_rejected_config_exits_2_and_leaves_no_output_directory(
    tmp_path, capsys, geometry, ratios, message
):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "geometry": {**LEMMA["geometry"], **geometry},
            "study": {"kind": "cutoff_lemma", "ratios": ratios},
            "output": str(out),
        },
    )
    assert run(str(cfg), quiet=True) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_output_path_that_is_a_file_fails_once_the_study_is_done(tmp_path, capsys):
    blocker = tmp_path / "out"
    blocker.write_text("")
    cfg = write_config(tmp_path, LEMMA)
    assert run(str(cfg), out_dir=str(blocker), quiet=True) == 1
    assert "File exists" in capsys.readouterr().err
    assert blocker.is_file()


def _with(raw, field, value):
    """A copy of the config ``raw`` with ``field``, a dotted path, set to ``value``."""
    raw = copy.deepcopy(raw)
    *sections, name = field.split(".")
    obj = raw
    for section in sections:
        obj = obj.setdefault(section, {})
    obj[name] = value
    return raw


def _leaves(cfg, path=""):
    """(field, value) of every field of a loaded config."""
    for name, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{name}.")
        else:
            yield f"{path}{name}", value


def _numbers_to(value, number):
    """``value`` with each number replaced by ``number(x)``; a string becomes ``number(1)``."""
    if isinstance(value, list):
        return [_numbers_to(v, number) for v in value]
    return number(1 if isinstance(value, str) else value)


def _mutations(value):
    yield from (math.nan, math.inf, -math.inf, "text", True, False, None, 10**400)
    if isinstance(value, list):
        yield from (value[:-1], value + value[-1:])  # one item short, one too many
    else:
        yield [value]
    yield _numbers_to(value, lambda x: -x if x else -1)
    yield _numbers_to(value, lambda x: 0 * x)


def _load(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return load_config(path)


DEFAULTED = [field for field, (default, _) in cli._FIELDS.items() if default is not None]


@pytest.mark.parametrize("field", DEFAULTED)
def test_each_mutation_of_a_default_field_is_rejected_by_name_or_loads(tmp_path, field):
    """NaN, the infinities, a string, a bool, null, an int too large for a float, lists of
    the wrong length, a negative value and zero, in each field of the default config."""
    default = dict(_leaves(_load(tmp_path, {})))[field]
    for value in _mutations(default):
        try:
            got = dict(_leaves(_load(tmp_path, _with({}, field, value))))[field]
        except ConfigError as exc:
            assert field in str(exc), (value, str(exc))
        else:
            assert got == value and not isinstance(value, bool), (value, got)


TWO_JUNCTIONS = {
    "geometry": {"dirichlet_arcs": [[0.0, math.pi]]},
    "mesh": {"levels": [8, 16]},
    "problem": {"kind": "singular"},
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("quadrature_tol", "1e-10"),
        ("quadrature_tol", True),
        ("quadrature_tol", math.inf),
        ("geometry.dirichlet_arcs", [[0.0, math.nan]]),
        ("problem.junction_index", 9),
        ("problem.junction_index", -1),
        ("problem.junction_index", 1.7),
        ("mesh.shift_sweep_count", -3),
        ("mesh.shift_sweep_count", 2.9),
        ("mesh.box", [-1.0, -1.0, math.inf, 1.0]),
        ("params.beta", True),
        ("params.sigma", False),
        ("params.sigma", 0.0),
        ("params.epsilon_rule.c", True),
    ],
)
def test_faulty_field_exits_2_naming_it_before_any_work(tmp_path, capsys, field, value):
    """Each of these solved a different problem, crashed or misnamed its field."""
    out = tmp_path / "out"
    raw = _with({**TWO_JUNCTIONS, "output": str(out)}, field, value)
    with pytest.raises(ConfigError, match=re.escape(field)):
        _load(tmp_path, raw)
    assert run(str(tmp_path / "config.json"), quiet=True) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_readme_shows_the_loaded_defaults_and_every_field(tmp_path):
    """The README's defaults block and field table against ``load_config`` of ``{}``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("omitted fields take these defaults:\n\n```json\n")[1].split("```")[0]
    defaults = _load(tmp_path, {})
    assert json.loads(block) == defaults
    rows = re.findall(r"^\| `([\w.]+)` \| (?:`([^`]*)`|none) \|", readme, re.MULTILINE)
    loaded = dict(_leaves(defaults))
    assert [field for field, _ in rows] == list(cli._FIELDS)
    assert {field: json.loads(default) for field, default in rows if default} == loaded
