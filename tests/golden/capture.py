"""Write the golden snapshot that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/golden/capture.py

One ``.npz`` file per configuration: the mixed disk (R = 0.7, upper half
Dirichlet) at n = 16, on the unshifted grid and at one cut-sweep offset.  The
committed files were captured from the program before the packed quadrature
layout; recapture them only in a change meant to alter the numerical results.

``cells_n64_*.npz`` hold per-cell quadrature measures of the same disk at
n = 64 (volume mass, first moments, Dirichlet and Neumann boundary lengths),
captured from the per-cell cut rules before they were batched.
"""

import math
import sys
from pathlib import Path

import numpy as np

from cutpoisson.assembly import (
    SystemMatrices,
    assemble_boundary_mass,
    assemble_ghost_penalty,
    assemble_load,
    assemble_nitsche,
    assemble_regularized,
    assemble_stiffness,
    error_norms,
    nitsche_action,
)
from cutpoisson.geometry import LevelSetDomain
from cutpoisson.quadrature import REFINE_LEVELS
from cutpoisson.solve import solve_standard
from cutpoisson.space import FeFunction
from cutpoisson.study import (
    discretize,
    manufactured_singular,
    manufactured_smooth,
    sweep_shifts,
    verify_inequalities,
)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1]))  # run as a script, the checkout's root is not on the path
from tests.conftest import packed_volume_rule  # noqa: E402

BOX = (-1.0, -1.0, 1.0, 1.0)
N = 16
TOL = 1e-10
EPS_FACTOR = 0.1  # epsilon = EPS_FACTOR * h**2
CONFIGS = {"unshifted": (0.0, 0.0), "shifted": sweep_shifts(BOX, N, 20)[7]}
CELL_N = 64
CELL_CONFIGS = {"unshifted": (0.0, 0.0), "shifted": sweep_shifts(BOX, CELL_N, 20)[7]}


def mixed_disk():
    return LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))


def mixed_level(shift, n=N):
    domain = mixed_disk()
    return (domain, *discretize(domain, n, box=BOX, tol=TOL, shift=shift))


def outputs(shift, u_singular=None):
    """Every snapshot array of one configuration.

    ``u_singular`` supplies the singular solution's coefficients; left None,
    they are solved for, which is what the capture does.
    """
    domain, dofmap, params = mixed_level(shift)
    smooth = manufactured_smooth(domain)
    singular = manufactured_singular(domain, 0)
    params_eps = params.with_epsilon(EPS_FACTOR * dofmap.mesh.h**2)

    A = assemble_nitsche(dofmap, params)
    S = assemble_ghost_penalty(dofmap, params)
    b_singular = assemble_load(dofmap, params, singular)
    if u_singular is None:
        system = SystemMatrices(A, S, b_singular)
        u_singular = solve_standard(system, dofmap).solution.coefficients
    u_h = FeFunction(np.asarray(u_singular, dtype=float), dofmap)
    errs = error_norms(singular, u_h, S, refine_levels=REFINE_LEVELS)
    ineq = verify_inequalities(dofmap, params)
    return {
        "u_singular": u_h.coefficients,
        "K": assemble_stiffness(dofmap).toarray(),
        "M": assemble_boundary_mass(dofmap).toarray(),
        "A": A.toarray(),
        "S": S.toarray(),
        "A_eps": assemble_regularized(A, dofmap, params_eps).toarray(),
        "b_smooth": assemble_load(dofmap, params, smooth),
        "b_singular": b_singular,
        "action": nitsche_action(dofmap, params, smooth),
        "action_chi": nitsche_action(dofmap, params_eps, smooth),
        "error_norms": np.array([errs.energy, errs.sh, errs.l2]),
        "inequalities": np.array([ineq.full_gradient, ineq.boundary_flux, ineq.cut_trace]),
    }


def cell_measures(shift):
    """Per active cell: volume mass, first moments, Dirichlet and Neumann lengths."""
    domain, dofmap, params = mixed_level(shift, CELL_N)
    rules, n_cells = dofmap.rules, len(dofmap.topology.active)

    def per_cell(rule, values=1.0):
        return np.bincount(rule.owner, rule.weights * values, minlength=n_cells)

    vol = packed_volume_rule(rules)
    return {
        "mass": per_cell(vol),
        "moment_x": per_cell(vol, vol.points[:, 0]),
        "moment_y": per_cell(vol, vol.points[:, 1]),
        "length_d": per_cell(rules.dirichlet),
        "length_n": per_cell(rules.neumann),
    }


def main():
    for name, shift in CONFIGS.items():
        snapshot = outputs(shift)
        np.savez_compressed(HERE / f"mixed_n{N}_{name}.npz", **snapshot)
        print(name, "error norms", snapshot["error_norms"])
        print(name, "inequalities", snapshot["inequalities"])
    for name, shift in CELL_CONFIGS.items():
        np.savez_compressed(HERE / f"cells_n{CELL_N}_{name}.npz", **cell_measures(shift))


if __name__ == "__main__":
    main()
