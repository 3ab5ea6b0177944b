"""One workload run in a fresh process; prints one JSON line for ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny \
        --trace 0|1 [--setup-only] [--spans-out PATH]

``t_ready`` is read from the monotonic clock that ``run.py`` also reads when
it starts this process, right before the first pipeline call: the difference
is the set-up time, which covers interpreter start, the imports of cutpoisson,
numpy and scipy, and building the domain and problem.
"""

import argparse
import json
import platform
import resource
import sys
import time

import numpy
import scipy

import spans
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    call = workload.prepare(args.seed, args.size)
    t_ready = time.monotonic()
    out = {
        "t_ready": t_ready,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    recorder = spans.Recorder()
    result, error = None, None
    with spans.Instrumentation(recorder, full=bool(args.trace)):
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed run is counted by type, not fatal
            error = type(exc).__name__
            print(f"{args.workload}: {error}: {exc}", file=sys.stderr)
        wall = time.perf_counter() - start
    out["wall_s"] = wall
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["error"] = error
    if result is not None:
        reference = workloads.load_reference()[workload.name] if args.size == "full" else None
        out["failures"] = workloads.check(
            workload, result, spans.solve_records(recorder), args.seed, reference
        )
    else:
        out["failures"] = []
    if args.trace:
        out["layers"] = spans.layer_metrics(recorder)
        out["phase_rows"] = spans.phase_rows(recorder)
        if args.spans_out:
            recorder.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
