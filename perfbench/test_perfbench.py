"""Tests of the benchmark itself: metric names, output checks, tracing and span arithmetic.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.LAYER_METRICS


def test_self_time_is_duration_minus_child_coverage():
    rows = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 8.0, 0],
        ["c", 7.0, 9.0, 0],  # overlaps b: the union [5, 9] is covered once
        ["d", 9.5, 11.0, 0],  # runs past its parent: only [9.5, 10] counts
    ]
    assert spans.self_times(rows) == pytest.approx([10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 3.0, 2.0, 1.5])


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_recorder_nests_spans_and_counts_helpers():
    rec = spans.Recorder(clock=_fake_clock([0.0, 1.0, 3.0, 10.0]))
    helper = rec.counter("mod.helper", lambda x: x, timed=False)
    inner = rec.span("mod.inner", lambda: helper(1) + helper(2))
    outer = rec.span("mod.outer", lambda: inner())
    assert outer() == 3
    assert rec.spans == [["mod.outer", 0.0, 10.0, -1], ["mod.inner", 1.0, 3.0, 0]]
    assert spans.self_times(rec.spans) == [8.0, 2.0]
    assert rec.counts["mod.helper.calls"] == 2


def _run_tiny(name, full):
    workload = workloads.WORKLOADS[name]
    call = workload.prepare(0, "tiny")
    recorder = spans.Recorder()
    with spans.Instrumentation(recorder, full=full):
        result = call()
    return workload, result, recorder


def test_instrumentation_is_removed_and_traces_the_layers():
    import cutpoisson.assembly
    import cutpoisson.quadrature
    import cutpoisson.space

    originals = (cutpoisson.assembly.hat_gradients, cutpoisson.quadrature.signed_distance)
    _, _, recorder = _run_tiny("singular_n256", full=True)
    assert (cutpoisson.assembly.hat_gradients, cutpoisson.quadrature.signed_distance) == originals
    assert cutpoisson.assembly.hat_gradients is cutpoisson.space.hat_gradients

    metrics = spans.layer_metrics(recorder)
    assert set(metrics) == set(spans.LAYER_METRICS) - {"trace.overhead_frac"}
    assert metrics["quadrature.refine_rule_toward.calls"] > 0
    assert metrics["solve.method.splu"] == 1
    assert metrics["space.ndof"] > 0 and metrics["space.hat_gradients.calls"] > 0
    # the layer self times and the study's own time partition the root span
    root = recorder.spans[0]
    timed = sum(metrics[k] for k in spans.TIMED) + metrics["study.self_s"]
    assert timed == pytest.approx(root[2] - root[1], rel=1e-9)

    (row,) = spans.phase_rows(recorder)
    assert row["n"] == workloads.SINGULAR_N["tiny"] and row["method"] == "splu"
    assert spans.format_phase_row(row).startswith(f"| {row['n']} | {row['ndof']} | ")


# One output per workload, perturbed by far less than any acceptance band.
PERTURB = {
    "singular_n256": lambda r: setattr(r, "energy", r.energy * (1 + 1e-4)),
    "smooth_convergence": lambda r: setattr(r.levels[-1], "l2", r.levels[-1].l2 * (1 + 1e-4)),
    "shift_sweep": lambda r: setattr(r.rows[3], "lambda_min_energy", r.rows[3].lambda_min_energy * (1 + 1e-4)),
    "eps_sweep": lambda r: r.gaps.__setitem__(2, r.gaps[2] * (1 + 1e-4)),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_check_fails_when_an_output_is_perturbed(name):
    workload, result, recorder = _run_tiny(name, full=False)
    solves = spans.solve_records(recorder)
    reference = workload.measures(result)
    assert workloads.check(workload, result, solves, seed=0, reference=reference) == []

    perturbed = copy.deepcopy(result)
    PERTURB[name](perturbed)
    assert workloads.check(workload, perturbed, solves, seed=0, reference=reference)
    # at other seeds only the seed-independent checks apply
    assert workloads.check(workload, result, solves, seed=1, reference=None) == []


def test_seed_independent_checks():
    _, result, recorder = _run_tiny("shift_sweep", full=False)
    result.rows[0].lambda_min_energy = 0.05
    assert any("eigenvalue" in f for f in workloads.check(workloads.WORKLOADS["shift_sweep"], result, [], 1))
    assert workloads.solve_failures([("splu", 1e-3, 1.0)])
    assert not workloads.solve_failures([("splu", 1e-12, 1.0)])


def _bench(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


def test_every_workload_runs_and_prints_every_metric():
    proc = _bench(["--workload", "all", "--size", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == len(run.WORKLOADS)
    expected = {f"{w}.{m}": u for w in run.WORKLOADS for m, u in run.END_TO_END.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in run.END_TO_END.items():
        assert proc.stdout.count(f"{name} ") >= len(run.WORKLOADS)
        assert f" {unit} (n=" in proc.stdout
    assert proc.stdout.count("failed_frac") == len(run.WORKLOADS)


def test_traced_run_prints_every_layer_metric():
    proc = _bench(["--workload", "eps_sweep", "--size", "tiny", "--seed", "0", "--seconds", "0", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spans.LAYER_METRICS
    assert result["metrics"]["geometry.cutoff.points"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "shift_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
