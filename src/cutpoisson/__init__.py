"""Cut finite element solver for the Poisson problem with mixed boundary conditions.

A background simplicial mesh covers a box containing an implicitly described
smooth domain; the finite element space lives on the active elements, Dirichlet
conditions are imposed weakly with Nitsche terms, and a ghost-penalty face
stabilization keeps coercivity and conditioning independent of how the
boundary cuts the cells.
"""

from cutpoisson.geometry import (
    LevelSetDomain,
    TubeParams,
    collar,
    cutoff,
    cutoff_conormal_integral,
    cutoff_gradient,
    signed_distance,
)
from cutpoisson.mesh import (
    INSIDE,
    CUT,
    OUTSIDE,
    BackgroundMesh,
    CutTopology,
    build_background,
    classify,
)
from cutpoisson.quadrature import (
    PackedRule,
    RuleSet,
    build_rules,
    cut_boundary_rule,
    cut_volume_rule,
)
from cutpoisson.space import (
    DofMap,
    FeFunction,
    build_dofmap,
    clement_interpolate,
)
from cutpoisson.assembly import (
    NitscheParams,
    SystemMatrices,
    assemble_ghost_penalty,
    assemble_load,
    assemble_nitsche,
    assemble_regularized,
    assemble_stiffness,
    assemble_system,
    energy_norm,
    error_norms,
)
from cutpoisson.solve import (
    SolveReport,
    condition_estimate,
    solve_regularized,
    solve_standard,
)
from cutpoisson.study import (
    ErrorReport,
    ManufacturedProblem,
    manufactured_singular,
    manufactured_smooth,
    regularization_study,
    run_convergence,
    verify_cutoff_lemma,
    verify_inequalities,
)

__version__ = "0.1.0"
