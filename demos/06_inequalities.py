# Numerical constants of the discrete inequalities behind the analysis.
#
# Three estimates carry the error analysis on cut meshes: the stabilized norm
# controls the gradient over whole (not only cut) elements, the h-weighted
# Dirichlet flux is controlled by gradients near the Dirichlet boundary, and
# the trace of a P1 function on the piece of boundary inside an element is
# controlled by h^{-1} times its element norm.  Each constant is the exact
# supremum of its quotient over the finite element space; their stability under
# refinement and under cut-position sweeps is exactly the robustness cut methods claim.

import math

import numpy as np

from cutpoisson import LevelSetDomain
from cutpoisson.study import discretize, sweep_shifts, verify_inequalities

domain = LevelSetDomain(center=(0.0, 0.0), radius=0.7, dirichlet_arcs=((0.0, math.pi),))


def constants(n, shift=(0.0, 0.0)):
    dofmap, params = discretize(domain, n, tol=1e-8, shift=shift)
    return verify_inequalities(dofmap, params)


print("constants under refinement")
print(f"{'n':>4} {'full gradient':>14} {'boundary flux':>14} {'cut trace':>10}")
for n in (8, 16, 32):
    rep = constants(n)
    print(f"{n:4d} {rep.full_gradient:14.3f} {rep.boundary_flux:14.3f} {rep.cut_trace:10.3f}")

print("\nconstants across a 20-position cut sweep at n = 8")
values = [
    constants(8, shift).full_gradient
    for shift in sweep_shifts((-1, -1, 1, 1), 8, 20)
]
print(f"full-gradient constant range: {min(values):.3f} .. {max(values):.3f}"
      f" (ratio {max(values) / min(values):.2f})")
print("bounded spread across the sweep is the cut-independence the stabilization buys")
