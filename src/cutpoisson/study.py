"""Manufactured solutions, convergence studies, and verification of the discrete estimates."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutpoisson import geometry
from cutpoisson.assembly import (
    NitscheParams,
    SystemMatrices,
    _boundary_local,
    _cells_near,
    _dirichlet_forms,
    assemble_ghost_penalty,
    assemble_load,
    assemble_regularized,
    assemble_stiffness,
    assemble_system,
    energy_gram,
    energy_norm,
    error_norms,
    nitsche_action,
)
from cutpoisson.geometry import (
    LevelSetDomain,
    TubeParams,
    cutoff_conormal_integral,
    log_model_integral,
    outward_normal,
)
from cutpoisson.mesh import build_background, cell_diagonal, classify
from cutpoisson.quadrature import (
    DEFAULT_TOL,
    REFINE_LEVELS,
    _tri_area,
    build_rules,
    build_rules_batch,
)
from cutpoisson.solve import (
    SolverError,
    _factor,
    condition_estimate,
    solve_regularized,
    solve_standard,
)
from cutpoisson.space import build_dofmap, clement_interpolate

DEFAULT_BOX = (-1.0, -1.0, 1.0, 1.0)


@dataclass(frozen=True)
class ManufacturedProblem:
    """Analytic solution of the mixed boundary value problem, with its source term.

    ``u_and_grad(pts)`` returns the solution and its gradient at ``pts``.  The boundary data
    are derived from it: the Dirichlet data ``g_D`` is u itself and the Neumann data ``g_N``
    is its outward normal derivative.
    """

    domain: LevelSetDomain
    u_and_grad: object
    f: object
    singular_points: tuple = ()
    label: str = "problem"

    def u(self, pts):
        """The solution at ``pts``."""
        return self.u_and_grad(pts)[0]

    g_D = u

    def g_N(self, pts):
        """The outward normal derivative of the solution at boundary points ``pts``."""
        return np.sum(self.u_and_grad(pts)[1] * outward_normal(self.domain, pts), axis=-1)


def manufactured_smooth(domain):
    """Smooth product of trigonometric factors; exercises the full-regularity regime."""

    def u_and_grad(pts):
        pts = np.asarray(pts, dtype=float)
        sx, cx = np.sin(math.pi * pts[..., 0]), np.cos(math.pi * pts[..., 0])
        sy, cy = np.sin(math.pi * pts[..., 1]), np.cos(math.pi * pts[..., 1])
        grad = np.stack([math.pi * cx * cy, -math.pi * sx * sy], axis=-1)
        return sx * cy, grad

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        return 2.0 * math.pi**2 * (np.sin(math.pi * pts[..., 0]) * np.cos(math.pi * pts[..., 1]))

    return ManufacturedProblem(domain, u_and_grad, f, (), "smooth")


def manufactured_singular(domain, junction_index=0):
    """Square-root singular harmonic solution anchored at a boundary-condition junction.

    In polar coordinates (r, theta) centered at the junction z0, with theta in
    [0, 2 pi) measured from the branch ray along the exterior normal (which
    misses the closed domain), the solution is sqrt(r) sin(theta / 2).  It is
    harmonic, continuous across the branch ray, and lies in H^s only for s
    below 3/2, which is the low-regularity regime of interest.

    It is evaluated as the imaginary part of one branch of a complex square
    root: with w = (x - z0) e^{-i theta0} = r e^{i theta}, where theta0 is the
    angle of the branch ray, s = i sqrt(-w) = sqrt(r) e^{i theta / 2} (the
    principal root of -w has its cut on the branch ray), and u = Im s, which
    is zero on the ray itself.  By the Cauchy-Riemann equations grad u = (Im G, Re G) with
    G = ds/dz = e^{-i theta0} / (2 s); at z0 it is set to 0.
    """
    junctions = domain.junction_points
    if len(junctions) == 0:
        raise ValueError("singular problem needs a Dirichlet/Neumann junction")
    if not (isinstance(junction_index, numbers.Integral) and 0 <= junction_index < len(junctions)):
        raise ValueError(
            f"junction_index must be an integer in [0, {len(junctions)}), got {junction_index!r}"
        )
    z0 = np.asarray(junctions[junction_index], dtype=float)
    direction = (z0 - domain.center_array) / domain.radius
    # The branch ray z0 + t * direction, t > 0, must stay outside the closure
    # of the domain; for an outward direction on a disk this always holds.
    if float(direction @ (z0 - domain.center_array)) <= 0.0:
        raise ValueError("branch cut would intersect the closure of the domain")
    rotation = complex(direction[0], -direction[1])  # e^{-i theta0}
    zc = complex(z0[0], z0[1])

    def root(pts):
        z = np.ascontiguousarray(pts, dtype=float).view(complex)[..., 0]
        return 1j * np.sqrt((z - zc) * -rotation)

    def u_and_grad(pts):
        s = root(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            G = (0.5 * rotation) / s
        g = np.stack([G.imag, G.real], axis=-1)
        return s.imag, np.where(np.isfinite(g), g, 0.0)

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(pts.shape[:-1])

    return ManufacturedProblem(domain, u_and_grad, f, ((float(z0[0]), float(z0[1])),), "singular")


# ``validate_problem``: points sampled inside, seed, relative tolerance
_VALIDATE_SAMPLES = 100
_VALIDATE_SEED = 20260810
_VALIDATE_RTOL = 1e-4


def validate_problem(problem):
    """Finite-difference PDE residual check.

    The Laplacian residual is normalized by the characteristic PDE scale of
    the sampled points, so it is insensitive to nodal lines of the solution.
    Samples are a fixed set of uniform points at r <= 0.9 R, less those within
    0.25 R of a singular point.  A NaN anywhere fails the check.
    """
    rng = np.random.default_rng(_VALIDATE_SEED)
    domain = problem.domain
    R = domain.radius
    r = 0.9 * R * np.sqrt(rng.random(_VALIDATE_SAMPLES))
    phi = rng.random(_VALIDATE_SAMPLES) * 2.0 * math.pi
    pts = domain.center_array + r[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
    for z in problem.singular_points:
        pts = pts[np.linalg.norm(pts - np.asarray(z), axis=1) >= 0.25 * R]

    step = 1e-4 * R
    u, grad = problem.u_and_grad(pts)
    f = problem.f(pts)
    lap = np.zeros(len(pts))
    for offset in (np.array([step, 0.0]), np.array([0.0, step])):
        lap += problem.u(pts + offset) + problem.u(pts - offset)
    lap = (lap - 4.0 * u) / step**2
    residual = np.abs(lap + f)
    scale = max(
        float(np.max(np.abs(f))),
        float(np.max(np.linalg.norm(grad, axis=-1))) / (0.1 * R),
        1e-12,
    )
    pde_rel = float(residual.max()) / scale
    if not pde_rel <= _VALIDATE_RTOL:
        raise ValueError(f"PDE residual check failed: {pde_rel:.3e} > {_VALIDATE_RTOL:.1e}")
    return pde_rel


@dataclass
class LevelResult:
    n: int
    h: float
    ndof: int
    energy: float
    sh: float
    l2: float


@dataclass
class ErrorReport:
    """Per-level error norms and estimated orders of convergence."""

    label: str
    levels: list = field(default_factory=list)
    eoc_energy: list = field(default_factory=list)
    eoc_l2: list = field(default_factory=list)

    def add_level(self, result):
        if self.levels and not result.h < self.levels[-1].h:
            raise ValueError("levels must be strictly refined")
        self.levels.append(result)
        if len(self.levels) > 1:
            prev = self.levels[-2]
            ratio = math.log(prev.h / result.h)

            def eoc(a, b):
                if a <= 0.0 or b <= 0.0:
                    return float("nan")
                return math.log(a / b) / ratio

            self.eoc_energy.append(eoc(prev.energy, result.energy))
            self.eoc_l2.append(eoc(prev.l2, result.l2))


def check_levels(domain, box, levels, shifts):
    """Raise ``ValueError`` unless the disk fits each level's mesh at each shift; builds none.

    Each level n needs its cell diagonal h at most ``geometry.COLLAR * R``.  Each shift needs
    the disk strictly inside ``box`` moved by the shift, bitwise the extent of
    ``build_background(box, n, shift)``: its center more than R inside every edge.
    """
    limit = geometry.COLLAR * domain.radius
    for n in levels:
        h = cell_diagonal(box, n)
        if h > limit:
            raise ValueError(f"level n = {n}: mesh size {h} exceeds the collar limit {limit}")
    (cx, cy), (x0, y0, x1, y1) = domain.center, (float(v) for v in box)
    for sx, sy in shifts:
        extent = (x0 + float(sx), y0 + float(sy), x1 + float(sx), y1 + float(sy))
        inside = min(cx - extent[0], cy - extent[1], extent[2] - cx, extent[3] - cy)
        if not inside > domain.radius:
            raise ValueError(
                f"the disk (center {domain.center}, radius {domain.radius}) misses the mesh extent "
                f"{extent} in whole or in part: its center is {inside} inside the nearest edge (a "
                "circle that meets the edge of the mesh extent leaves a truncated domain, and an "
                "extent inside the disk no boundary)"
            )


def discretize(
    domain, n, beta=10.0, sigma=0.1, box=DEFAULT_BOX, tol=DEFAULT_TOL, shift=(0.0, 0.0)
):
    """The dofmap and Nitsche parameters of one mesh level.

    The dofmap carries the level: its rules ``dofmap.rules``, built with ``tol``,
    and their cut topology and mesh, ``dofmap.topology`` (which holds ``domain``)
    and ``dofmap.mesh``.  A level that ``check_levels`` rejects raises ``ValueError``
    before any mesh is built: a box inside the disk reaches only a direct ``classify``.
    """
    check_levels(domain, box, [n], [shift])
    mesh = build_background(box, n, shift)
    return build_dofmap(build_rules(classify(mesh, domain), tol)), NitscheParams(beta, sigma)


def convergence_level(
    problem,
    n,
    beta=10.0,
    sigma=0.1,
    box=DEFAULT_BOX,
    tol=DEFAULT_TOL,
    shift=(0.0, 0.0),
    refine_levels=REFINE_LEVELS,
):
    """Classify, assemble, solve, and measure errors on a single mesh level."""
    dofmap, params = discretize(problem.domain, n, beta, sigma, box, tol, shift)
    system = assemble_system(dofmap, params, problem)
    solution = solve_standard(system, dofmap).solution
    errs = error_norms(problem, solution, system.S, refine_levels)
    return LevelResult(n, dofmap.mesh.h, dofmap.ndof, errs.energy, errs.sh, errs.l2)


def run_convergence(
    problem,
    levels,
    beta=10.0,
    sigma=0.1,
    box=DEFAULT_BOX,
    tol=DEFAULT_TOL,
    shift=(0.0, 0.0),
):
    """Solve the standard method on a refinement sequence and report error norms."""
    if len(levels) < 2:
        raise ValueError("a convergence study needs at least two levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {list(levels)!r}")
    check_levels(problem.domain, box, levels, [shift])
    validate_problem(problem)
    report = ErrorReport(label=problem.label)
    for n in levels:
        report.add_level(convergence_level(problem, n, beta, sigma, box, tol, shift))
    return report


def interpolation_study(problem, levels, box=DEFAULT_BOX, tol=DEFAULT_TOL, sigma=0.1):
    """Quasi-interpolation error of the exact solution in the energy norm."""
    check_levels(problem.domain, box, levels, [(0.0, 0.0)])
    report = ErrorReport(label=f"{problem.label}-interpolation")
    for n in levels:
        dofmap, params = discretize(problem.domain, n, sigma=sigma, box=box, tol=tol)
        S = assemble_ghost_penalty(dofmap, params)
        pi_u = clement_interpolate(problem.u, dofmap)
        errs = error_norms(problem, pi_u, S)
        report.add_level(LevelResult(n, dofmap.mesh.h, dofmap.ndof, errs.energy, errs.sh, errs.l2))
    return report


def consistency_residual(problem, n=16, beta=10.0, box=DEFAULT_BOX, tol=DEFAULT_TOL):
    """Scaled residual of the standard form at the exact solution over all test functions.

    The exact solution enters through analytic values and gradients at the
    quadrature points; up to quadrature error the residual vanishes by Green's
    identity when the data match the solution.  The form leaves out the ghost
    penalty, so of the Nitsche parameters only ``beta`` enters.
    """
    dofmap, params = discretize(problem.domain, n, beta, box=box, tol=tol)
    action = nitsche_action(dofmap, params, problem)
    load = assemble_load(dofmap, params, problem)
    scale = max(float(np.abs(action).max()), float(np.abs(load).max()), 1.0)
    return float(np.abs(action - load).max()) / scale


@dataclass
class InequalityReport:
    """Exact constants of the discrete inequalities: each is the supremum of its quotient."""

    full_gradient: float
    boundary_flux: float
    cut_trace: float


def _dirichlet_cells(dofmap):
    """Mask of the active cells that meet the Dirichlet arc.

    These are the cells holding a Dirichlet quadrature point, plus the cells
    that touch an end of a Dirichlet arc, within ``1e-12 * h``, without holding
    a piece of the arc (a junction on a grid line, say).
    """
    topology = dofmap.topology
    near = _cells_near(topology.domain.junction_points, topology, 1e-12 * dofmap.mesh.h) >= 0
    near[dofmap.rules.dirichlet.owner] = True
    return near


def verify_inequalities(dofmap, params):
    """Exact constants of the inverse and trace inequalities: the suprema of their quotients.

    (a) Full-cell gradient against K + S (stabilized norm equivalence): the top generalized
        eigenvalue with one dof pinned, since both forms vanish on constants.
    (b) h-weighted Dirichlet normal flux against the gradient on the cells meeting the
        Dirichlet arc: |Flux pinv(D)|_2^2 on their dofs, since the flux vanishes on the
        kernel of D; 0 when no cell meets the arc.  The flux rows are reduced to their
        triangular factor R first (Flux = QR), which keeps the spectral norm.
    (c) Boundary trace against h^{-1} times the P1 element norm: the top 3 x 3 generalized
        eigenvalue over the cells.
    """
    h, ndof, active, rules = dofmap.mesh.h, dofmap.ndof, dofmap.topology.active, dofmap.rules
    grads, dofs = dofmap.reference_gradients[active & 1], dofmap.active_dofs
    areas = _tri_area(dofmap.mesh.reference_triangles)[active & 1]
    # row 2t + d of D is sqrt(|T_t|) times the d-th gradient component on cell t
    D = sp.csr_matrix(
        ((np.sqrt(areas)[:, None, None] * grads).transpose(0, 2, 1).ravel(),
         (np.arange(2 * len(dofs)).repeat(3), np.repeat(dofs, 2, axis=0).ravel())),
        shape=(2 * len(dofs), ndof),
    )
    G = (assemble_stiffness(dofmap) + assemble_ghost_penalty(dofmap, params))[1:, 1:]
    try:
        G_inv = spla.LinearOperator(G.shape, _factor(G.tocsc()).solve)
    except SolverError as exc:  # sigma 0 and a dof whose cells meet the disk in slivers
        raise SolverError(f"level n = {dofmap.mesh.n}: K + S: {exc}") from exc
    c_full = spla.eigsh(
        (D.T @ D)[1:, 1:], 1, G, Minv=G_inv, which="LA", v0=np.ones(ndof - 1),
        return_eigenvectors=False,
    )[0]

    rule, near = rules.dirichlet, _dirichlet_cells(dofmap)
    c_flux = 0.0
    if near.any():
        flux = _boundary_local(dofmap, rule)[1]
        Flux = sp.csr_matrix(
            ((np.sqrt(h * rule.weights)[:, None] * flux).ravel(),
             (np.arange(len(flux)).repeat(3), dofs[rule.owner].ravel())),
            shape=(len(flux), ndof),
        )
        U = np.unique(dofs[near])
        grad_near = D[np.flatnonzero(near.repeat(2))][:, U].toarray()
        flux_r = np.linalg.qr(Flux[:, U].toarray(), mode="r")
        c_flux = np.linalg.norm(flux_r @ np.linalg.pinv(grad_near), 2) ** 2

    # the trace form of each cell against |T| / (12 h) (1 + I), through 1 + I = L L^T, summed
    # over the Dirichlet, then the Neumann points
    L_inv = np.linalg.inv(np.linalg.cholesky(np.ones((3, 3)) + np.eye(3)))
    trace = np.zeros((len(dofs), 3, 3))
    for bnd in (rules.dirichlet, rules.neumann):
        p = np.sqrt(bnd.weights)[:, None] * _boundary_local(dofmap, bnd)[0] @ L_inv.T
        np.add.at(trace, bnd.owner, p[:, :, None] * p[:, None, :])
    c_trace = (np.linalg.eigvalsh(trace)[:, -1] * 12.0 * h / areas).max()
    return InequalityReport(float(c_full), float(c_flux), float(c_trace))


@dataclass
class CutoffLemmaRow:
    ratio: float
    delta: float
    epsilon: float
    integral: float
    log_bound: float
    quotient: float


@dataclass
class CutoffLemmaReport:
    rows: list
    quotient_spread: float
    flagged: bool
    model_error: float


_LEMMA_DELTA = 0.3  # collar depth of ``verify_cutoff_lemma``, as a fraction of the radius


def verify_cutoff_lemma(domain, ratios):
    """Check that the conormal cutoff energy tracks log(1 + delta/epsilon).

    The collar depth is delta = ``_LEMMA_DELTA`` R and epsilon = delta / ratio.
    For each width ratio the wedge integral is evaluated numerically at every
    junction and compared against the logarithmic bound; the report flags a
    spread of the quotient beyond a factor of three.  The one-dimensional
    model integral is also evaluated numerically and compared with its closed
    form.
    """
    junctions = domain.junction_points
    if len(junctions) == 0:
        raise ValueError("cutoff lemma study needs boundary-condition junctions")
    delta = _LEMMA_DELTA * domain.radius
    rows = []
    model_err = 0.0
    for ratio in ratios:
        if not 0.0 < ratio < math.inf:
            raise ValueError(f"width ratios must be positive and finite, got {ratio!r}")
        eps = delta / ratio
        widths = TubeParams(delta, eps)
        try:
            integral = max(cutoff_conormal_integral(domain, widths, z) for z in junctions)
        except ValueError as exc:  # the wedge laps into the next Neumann arc
            raise ValueError(f"width ratio {ratio!r}: {exc}") from exc
        bound = math.log1p(ratio)
        rows.append(CutoffLemmaRow(ratio, delta, eps, integral, bound, integral / bound))
        model_err = max(model_err, abs(log_model_integral(delta, eps) - bound))
    quotients = [r.quotient for r in rows]
    spread = max(quotients) / min(quotients)
    return CutoffLemmaReport(rows, spread, spread > 3.0, model_err)


@dataclass
class RegularizationReport:
    eps_values: list
    gaps: list
    slope: float


def _regularization_gaps(problem, dofmap, params, eps_values):
    """Energy norms of the regularized minus the standard solution, one per epsilon.

    Every regularized solve updates the one standard factorization.
    """
    system = assemble_system(dofmap, params, problem)
    # the Gram matrix first, so that its assembly does not add to the factors' memory
    gram = energy_gram(dofmap, system.S)
    standard = solve_standard(system, dofmap)
    u_h = standard.solution.coefficients
    gaps = []
    for eps in eps_values:
        params_eps = params.with_epsilon(eps)
        A_eps = assemble_regularized(system.A, dofmap, params_eps)
        reg = solve_regularized(SystemMatrices(A_eps, system.S, system.b), dofmap, standard)
        gaps.append(energy_norm(reg.solution.coefficients - u_h, gram))
    return gaps


def regularization_study(
    problem, n, eps_values, beta=10.0, sigma=0.1, box=DEFAULT_BOX, tol=DEFAULT_TOL
):
    """Distance between the regularized and standard solutions across epsilon.

    Solves both discrete systems at fixed mesh size and reports the energy
    norm of the difference per epsilon together with the fitted log-log slope,
    which should be one for a linearly growing operator perturbation.
    """
    dofmap, params = discretize(problem.domain, n, beta, sigma, box, tol)
    gaps = _regularization_gaps(problem, dofmap, params, eps_values)
    positive = [(e, g) for e, g in zip(eps_values, gaps) if e > 0.0 and g > 0.0]
    slope = float("nan")
    if len(positive) >= 2:
        le = np.log([e for e, _ in positive])
        lg = np.log([g for _, g in positive])
        slope = float(np.polyfit(le, lg, 1)[0])
    return RegularizationReport(list(eps_values), gaps, slope)


@dataclass
class CouplingReport:
    levels: list
    gaps: list
    ratios: list


def regularization_coupling(
    problem, levels=(16, 32), coeff=0.1, beta=10.0, sigma=0.1, box=DEFAULT_BOX, tol=DEFAULT_TOL
):
    """Gap between regularized and standard solutions under epsilon = coeff * h**2."""
    check_levels(problem.domain, box, levels, [(0.0, 0.0)])
    gaps = []
    for n in levels:
        dofmap, params = discretize(problem.domain, n, beta, sigma, box, tol)
        gaps += _regularization_gaps(problem, dofmap, params, [coeff * dofmap.mesh.h**2])
    ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 1) if gaps[i] > 0.0]
    return CouplingReport(list(levels), gaps, ratios)


def sweep_shifts(box, n, n_shifts):
    """Deterministic sub-cell translations for cut-position sweeps.

    Unequal irrational direction factors keep the shifted grid lines off the
    rational positions of a typical configuration, such as a grid line through
    the centre or tangent to a circle of rational radius, so each shift cuts
    the cells at a generic position.
    """
    x0, y0, x1, y1 = box
    cell = ((x1 - x0) / n, (y1 - y0) / n)
    return [(k / n_shifts * cell[0] / math.sqrt(2.0), k / n_shifts * cell[1] / math.sqrt(3.0))
            for k in range(n_shifts)]


@dataclass
class ConditionRow:
    shift: tuple
    lambda_min_energy: float
    kappa_stabilized: float
    kappa_unstabilized: float


@dataclass
class ConditionSweepReport:
    rows: list

    @property
    def kappa_spread(self):
        ks = [r.kappa_stabilized for r in self.rows]
        return max(ks) / min(ks)

    @property
    def worst_blowup(self):
        return max(r.kappa_unstabilized / r.kappa_stabilized for r in self.rows)


# Cut cells of the shifts whose rules ``condition_sweep`` builds in one batch: a memory bound,
# as a cut cell takes about 30 packed points (21-24 volume and 6 boundary points on the R = 0.7
# disk), so the levels alive at once hold about 60,000 whatever the number of shifts.  The 20
# shifts of that disk at n = 16 have 1,509 cut cells.
_SWEEP_CUT_CELLS = 1 << 11


def condition_sweep(
    domain, n=16, n_shifts=20, beta=10.0, sigma=0.1, box=DEFAULT_BOX, tol=DEFAULT_TOL
):
    """Coercivity and conditioning across sub-cell translations of the background mesh.

    For each shift the smallest eigenvalue of the stabilized operator in the
    energy metric is computed, together with the spectral condition numbers
    with and without the ghost penalty.  Dense eigensolves serve as the oracle
    at this scale.  The shifts are classified in order and their rules built by
    ``build_rules_batch`` in consecutive batches of at most ``_SWEEP_CUT_CELLS``
    cut cells (one shift at least), so the memory held does not grow with
    ``n_shifts``; each level is bitwise the one ``discretize`` builds.  An error
    while classifying or building rules keeps its type, and its message begins
    with the level and the shift, or the first and last shift of the batch.
    """
    if domain.is_pure_neumann:
        raise ValueError("conditioning study needs a Dirichlet part")
    if not n_shifts >= 1:
        raise ValueError(f"n_shifts must be at least 1, got {n_shifts!r}")
    shifts = sweep_shifts(box, n, n_shifts)
    check_levels(domain, box, [n], shifts)
    params = NitscheParams(beta, sigma)

    def located(exc, where):
        """Prefix the message of ``exc`` with the level and the shifts ``where``."""
        exc.args = (f"level n = {n}, shift {' to '.join(map(str, where))}: {exc}", *exc.args[1:])

    def batches():
        batch, cut_cells = [], 0
        for shift in shifts:
            try:
                topology = classify(build_background(box, n, shift), domain)
            except ValueError as exc:
                located(exc, [shift])
                raise
            if batch and cut_cells + len(topology.cut) > _SWEEP_CUT_CELLS:
                yield batch
                batch, cut_cells = [], 0
            batch.append((shift, topology))
            cut_cells += len(topology.cut)
        yield batch

    rows = []
    for batch in batches():
        shifts_of, topologies = zip(*batch)
        try:
            rules = build_rules_batch(topologies, tol)
        except ValueError as exc:
            located(exc, dict.fromkeys((shifts_of[0], shifts_of[-1])))
            raise
        for shift, level_rules in zip(shifts_of, rules):
            dofmap = build_dofmap(level_rules)
            S = assemble_ghost_penalty(dofmap, params)
            A, G = _dirichlet_forms(dofmap, params, S)
            K = A + S
            try:
                lam = scipy.linalg.eigh(
                    K.toarray(), G.toarray(), eigvals_only=True, subset_by_index=[0, 0]
                )
            except np.linalg.LinAlgError as exc:  # with sigma 0, as in ``verify_inequalities``
                raise SolverError(f"level n = {n}, shift {shift}: {exc}; try sigma > 0") from exc
            kappa = condition_estimate(K)
            eig0 = np.abs(scipy.linalg.eigvalsh(A.toarray()))
            kappa0 = float(eig0.max() / max(eig0.min(), 1e-300))
            rows.append(ConditionRow(shift, float(lam[0]), kappa, kappa0))
    return ConditionSweepReport(rows)
