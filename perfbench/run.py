"""Benchmark of the cutpoisson study harness.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  Each workload is one public ``cutpoisson.study`` call (see
``workloads.py``), run as a closed loop: one single-threaded worker process
per call, the next started when the previous has ended, as long as it is
expected to end within ``--seconds`` (at least one call).

With ``--trace 0`` the end-to-end metrics are reported: the median wall time
of the study call, the median set-up time of a fresh process (interpreter
start to the first pipeline call, sampled at least ``SETUP_SAMPLES`` times)
and the median peak resident memory of a worker.  With ``--trace 1`` traced
and untraced calls alternate, and the per-layer metrics of ``spans.py`` are
reported as medians over the traced calls, with the tracing overhead.

Every call's outputs are checked (``workloads.check``).  A call fails if it
raises or a check fails; failures are counted by type.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results with the run's context, and the spans of
traced calls, are written under ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("singular_n256", "smooth_convergence", "shift_sweep", "eps_sweep")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
# One BLAS/OpenMP thread per worker: the study code is single-threaded Python,
# and a fixed count keeps runs comparable across machines.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKER_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(min(THREADS, os.cpu_count() or 1))
    return env


def spawn(args):
    """Run one worker process to completion and return its JSON record."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["t_ready"] - started
    return record


def run_workload(name, seed, seconds, trace, size):
    """Closed loop of worker calls for one workload; returns the summary dict."""
    base = ["--workload", name, "--seed", str(seed), "--size", size]
    calls = []
    start = time.monotonic()
    while True:
        traced = trace and len(calls) % 2 == 1
        extra = ["--trace", "1" if traced else "0"]
        if traced:
            extra += ["--spans-out", str(OUT / f"spans-{name}-seed{seed}-{len(calls)}.json")]
        record = spawn(base + extra)
        record["traced"] = traced
        calls.append(record)
        elapsed = time.monotonic() - start
        # start another call only if it should end within the run's seconds
        if elapsed * (len(calls) + 1) / len(calls) > seconds and (not trace or len(calls) >= 2):
            break

    setups = [c["setup_s"] for c in calls if not c["traced"]]
    if not trace:
        for _ in range(SETUP_SAMPLES - len(setups)):
            setups.append(spawn(base + ["--setup-only"])["setup_s"])

    failures = Counter()
    messages = []
    for c in calls:
        if c["error"]:
            failures[c["error"]] += 1
        elif c["failures"]:
            failures["OutputCheck"] += 1
            messages += c["failures"]
    plain = [c for c in calls if not c["traced"]]
    summary = {
        "workload": name,
        "attempted": len(calls),
        "failed": sum(failures.values()),
        "failures_by_type": dict(failures),
        "failure_messages": messages,
        "versions": calls[0]["versions"],
        "samples": {
            "wall_s": [c["wall_s"] for c in plain],
            "setup_s": setups,
            "peak_rss_mb": [c["rss_mb"] for c in plain],
        },
    }
    if trace:
        traced = [c for c in calls if c["traced"]]
        layers = {
            key: statistics.median(c["layers"][key] for c in traced) for key in traced[0]["layers"]
        }
        traced_wall = statistics.median(c["wall_s"] for c in traced)
        layers["trace.overhead_frac"] = traced_wall / statistics.median(summary["samples"]["wall_s"]) - 1.0
        summary["layers"] = layers
        summary["samples"]["traced_wall_s"] = [c["wall_s"] for c in traced]
        median_call = sorted(traced, key=lambda c: c["wall_s"])[(len(traced) - 1) // 2]
        summary["phase_rows"] = median_call["phase_rows"]
    else:
        summary["metrics"] = {key: statistics.median(v) for key, v in summary["samples"].items()}
    return summary


def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def context(seed, versions):
    return {
        "nproc": os.cpu_count(),
        **versions,
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
        "commit": commit(),
        "seed": seed,
        "src_lines": src_line_count(),
    }


def report(summary, trace):
    """Human-readable lines for one workload."""
    name = summary["workload"]
    lines = [f"[{name}] {summary['attempted']} call(s)"]
    if trace:
        for key, unit in spans.LAYER_METRICS.items():
            lines.append(f"  {key:38s} {summary['layers'][key]:.6g} {unit}")
        if summary["phase_rows"]:
            lines.append("  | n | ndof | cut | mesh | classify | rules | A | S | load | solve | errors | total |")
            lines += ["  " + spans.format_phase_row(row) for row in summary["phase_rows"]]
    else:
        for key, unit in END_TO_END.items():
            values = summary["samples"][key]
            lines.append(
                f"  {key:12s} median {statistics.median(values):.6g} {unit} "
                f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})"
            )
    failed, attempted = summary["failed"], summary["attempted"]
    lines.append(
        f"  {'failed_frac':12s} {failed}/{attempted} = {failed / attempted:.3g} "
        f"by type {summary['failures_by_type']}"
    )
    lines += [f"  check failed: {m}" for m in summary["failure_messages"]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: reduced problem sizes for the benchmark's own tests, without reference outputs",
    )
    args = parser.parse_args(argv)
    if not (SRC / "cutpoisson" / "__init__.py").is_file():
        sys.exit(f"cutpoisson sources not found under {SRC}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.size) for n in names]
    ctx = context(args.seed, summaries[0]["versions"])
    print("context: " + json.dumps(ctx, sort_keys=True))

    units = spans.LAYER_METRICS if args.trace else END_TO_END
    metrics = {}
    for s in summaries:
        print("\n".join(report(s, args.trace)))
        path = OUT / f"results-{s['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"context": ctx, **s}, indent=1), encoding="utf-8")
        values = s["layers"] if args.trace else s["metrics"]
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    result = {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
