"""Mutant ledger: does some test notice when a guard or an accuracy constant changes?

Each mutant is a file, an exact text that occurs once in it, its replacement, and the tests
expected to catch it.  For each mutant the script copies the checkout to a temporary
directory, applies the mutant there and runs pytest on the expected tests; if they pass, on
the rest of ``tests/`` with the golden snapshot apart; if that passes too, on the goldens.
It prints one markdown table row per mutant as it finishes: *caught* (a test other than
the goldens fails), *golden-only* (no test but the goldens says which number is right) or
*survived* (nothing fails: the guard is not needed, or nothing checks it), and marks a
mutant that its expected tests miss.  The unmutated copy runs first, since a failing tree
would make every mutant look caught.  One pytest runs at a time, on one BLAS and OpenMP
thread, and nothing is written in the checkout.

    python tools/mutant_ledger.py  # every mutant: about a minute on 2 vCPUs

The exit status is 0 when every mutant is caught.  ``tests/test_mutant_ledger.py`` checks
that each mutant's text occurs exactly once and that its expected tests exist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = "tests/test_golden.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


Q, A, S, M = (f"src/cutpoisson/{m}.py" for m in ("quadrature", "assembly", "solve", "mesh"))
QT, AT, ST, MT, CT = (
    f"tests/test_{m}.py" for m in ("quadrature", "assembly", "solve", "mesh", "cut_cells")
)
WIDE_ARCS = (f"{CT}::test_wide_arcs_integrate_low_harmonics",)
WEIGHTED = (f"{CT}::test_every_point_carries_weight",)
JUNCTIONS = (f"{QT}::test_the_junction_panels_wherever_the_junctions_sit",)
MUTANTS = (
    Mutant("GRADE_LEVELS 16 -> 4", Q, "_GRADE_LEVELS = 16", "_GRADE_LEVELS = 4",
           (f"{QT}::test_junction_grading_resolves_the_singular_neumann_data",)),
    Mutant("REFINE_LEVELS 8 -> 4", Q, "REFINE_LEVELS = 8  #", "REFINE_LEVELS = 4  #",
           (f"{AT}::test_refinement_toward_the_junction_resolves_the_singular_energy_error",)),
    Mutant("SEGMENT_RADIAL 2 -> 1", Q, "_SEGMENT_RADIAL = 2", "_SEGMENT_RADIAL = 1",
           (f"{QT}::test_segment_moments_match_their_closed_forms",)),
    Mutant("BOUNDARY_PIECE pi/8 -> 2pi/3", Q, "_BOUNDARY_PIECE = math.pi / 8.0",
           "_BOUNDARY_PIECE = 2.0 * math.pi / 3.0", WIDE_ARCS),
    Mutant("BOUNDARY_ORDER 6 -> 4", Q, "_BOUNDARY_ORDER = 6", "_BOUNDARY_ORDER = 4", WIDE_ARCS),
    Mutant("MAX_PIECE 0.25 -> 0.6", Q, "_MAX_PIECE = 0.25", "_MAX_PIECE = 0.6", (CT,)),
    Mutant("JACOBI_WEIGHT 0.7 -> 0.5", S, "_JACOBI_WEIGHT = 0.7", "_JACOBI_WEIGHT = 0.5", (ST,)),
    Mutant("CG_RTOL 0.05 -> 0.9", S, "_CG_RTOL = 0.05 * RESIDUAL_RTOL",
           "_CG_RTOL = 0.9 * RESIDUAL_RTOL", (ST,)),
    Mutant("load m0 / 3.00003", A, "moments[0][:, None] / 3.0", "moments[0][:, None] / 3.00003",
           (AT,)),
    Mutant("ghost penalty times h^2", A, "scale = params.sigma * mesh.h * lengths",
           "scale = params.sigma * mesh.h**3 * lengths", (AT,)),
    Mutant("Nitsche penalty times h^-1/2", A, "mass * (params.beta / h)",
           "mass * (params.beta / h**1.5)", (AT,)),
    Mutant("energy trace over h^2", A, "trace_sq / mesh.h))", "trace_sq / mesh.h**2))", (AT,)),
    Mutant("classify dist <= R", M, "np.where(dist < domain.radius, CUT, OUTSIDE)",
           "np.where(dist <= domain.radius, CUT, OUTSIDE)", (MT,)),
    Mutant("ghost faces between two cut cells", M, "act[a] & act[b] & (cut[a] | cut[b])",
           "act[a] & act[b] & (cut[a] & cut[b])", (MT,)),
    Mutant("arcs keep widths under 1e-13", Q, "keep = (width >= 1e-13) & np.all(", "keep = np.all(",
           WEIGHTED),
    Mutant("fans keep zero areas", Q, "kept = _tri_area(fans) > 0.0",
           "kept = _tri_area(fans) >= 0.0", WEIGHTED),
    Mutant("split margins 1e-13 -> 0", Q, "inner = (off > 1e-13) & (off < width[:, None] - 1e-13)",
           "inner = (off > 0.0) & (off < width[:, None])", JUNCTIONS),
    Mutant("grading ends exactly at junctions", Q, "< 1e-12, axis=1)", "== 0.0, axis=1)",
           JUNCTIONS),
    Mutant("tiling moves overlaps over 0", Q, "moved = covered - start > 1e-13",
           "moved = covered - start > 0",
           (f"{QT}::test_tiling_keeps_the_bits_of_arcs_that_only_abut",)),
)


def run_pytest(tree, args):
    """Run pytest on ``args`` in ``tree``; returns whether it passed and its first failure."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    out = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1, 2):  # 2: an error while collecting, as a broken import gives
        raise SystemExit(f"pytest {' '.join(args)} exited with {out.returncode}:\n{out.stdout}")
    lines = out.stdout.splitlines()
    failures = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return out.returncode == 0, failures[0] if failures else ""


def apply(tree, mutant):
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {text.count(mutant.old)} occurrences in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def verdict(tree, mutant):
    """(verdict, the first failing test) of the mutated ``tree``."""
    passed, failure = run_pytest(tree, mutant.tests)
    if not passed:
        return "caught", failure
    passed, failure = run_pytest(tree, ["tests", f"--ignore={GOLDEN}"])
    if not passed:
        return "caught", f"{failure} (not an expected test)"
    passed, failure = run_pytest(tree, [GOLDEN])
    return ("survived", "") if passed else ("golden-only", failure)


def main():
    all_caught = True
    with tempfile.TemporaryDirectory(prefix="mutant-ledger-") as tmp:
        base = Path(tmp) / "base"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")
        shutil.copytree(ROOT, base, ignore=skip)
        passed, failure = run_pytest(base, ["tests"])
        if not passed:
            raise SystemExit(f"the unmutated tree fails {failure}")
        print("| mutant | verdict | s | first failing test |\n|---|---|---|---|", flush=True)
        for k, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{k}"
            shutil.copytree(base, tree)
            apply(tree, mutant)
            start = time.perf_counter()
            result, failure = verdict(tree, mutant)
            seconds = time.perf_counter() - start
            print(f"| {mutant.name} | {result} | {seconds:.1f} | {failure or '-'} |", flush=True)
            all_caught &= result == "caught"
            shutil.rmtree(tree)
    return 0 if all_caught else 1


if __name__ == "__main__":
    sys.exit(main())
