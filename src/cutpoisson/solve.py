"""Linear solution of the stabilized systems plus conditioning diagnostics.

A standard system is solved by one sparse LU factorization up to
``MULTIGRID_MIN_N`` cells per side.  A finer level, whose grid halves down to at
most ``_COARSEST_N`` cells per side, is solved by scipy's conjugate gradients
(``scipy.sparse.linalg.cg``) preconditioned with one V(1,1) multigrid cycle on
the nested background grids and started from a full-multigrid guess; only the
coarsest grid's Galerkin operator is factored.  The ghost penalty keeps the
conditioning independent of the cut position, so the cycle's damped Jacobi
smoother gives an iteration count that depends on neither h nor the cut
(12-16 at n = 256 over 5 grid shifts of the singular mixed and the smooth
Dirichlet disk, 16-19 at n = 512 over 2, with beta = 10 and sigma = 0.1).
Every solution is checked against ``RESIDUAL_RTOL`` by one mat-vec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutpoisson.space import FeFunction

RESIDUAL_RTOL = 1e-10  # largest residual of a solve relative to its load
# A grid with more cells per side than this is solved by multigrid CG.  n = 128
# stays factored because a regularization study reuses the factors for every
# epsilon (``solve_regularized``): one multigrid solve there is faster than LU
# (7.1 ms against 10.8 ms on the singular mixed level, one thread of a 2-vCPU x86
# host), but the study would then factor on top of it.
MULTIGRID_MIN_N = 128
# The grids halve while they are even and finer than ``_COARSEN_ABOVE`` cells per
# side, and the grid reached is factored; a level takes multigrid only if that grid
# has at most ``_COARSEST_N`` cells per side.  At n = 256 the 32-cell grid (481 dofs)
# factors in 1.1 ms and solves in 0.045 ms, the 64-cell one (1,737) in 3.5 and 0.10
# (one thread of a 2-vCPU x86 host).
_COARSEN_ABOVE = 32
_COARSEST_N = 64
_JACOBI_WEIGHT = 0.7
# CG stops inside the residual check's tolerance.  The residual weighs smooth error
# least, and from the full-multigrid start more of the error left at the stop is
# smooth than from x = 0, so the stop is a twentieth of the check: that keeps the
# n = 256 solution as close to the factored one as a tenth did from x = 0.
_CG_RTOL = 0.05 * RESIDUAL_RTOL
_CG_MAXIT = 300  # sigma = 0.01 takes up to 115 iterations at n = 256 (4 grid shifts)
CONDITION_RTOL = 0.01  # relative change of a Rayleigh quotient that stops a power iteration
CONDITION_MAXIT = 500  # power iterations without that stop raise ``SolverError``


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    """Solution, method and achieved residual of a solve.

    ``method`` is ``"splu"`` for a factored standard solve, ``"mgcg"`` for
    multigrid-preconditioned CG and ``"lowrank"`` for a regularized update.  A
    standard solve adds its ``operator``; the factored one adds its sparse LU
    ``factors`` too, and ``solve_regularized`` adds them to a multigrid report
    the first time it needs them.  ``iterations`` counts the CG iterations, 0
    for a direct solve.  ``columns`` maps each row r that ``solve_regularized``
    has perturbed to its column ``K0^{-1} e_r``, solved once with the factors
    and kept for the next regularized solve on this report.
    """

    solution: FeFunction
    method: str
    residual: float
    operator: object = None
    factors: object = None
    iterations: int = 0
    columns: dict = field(default_factory=dict)


# Factorization of the symmetric positive definite system: minimum degree on
# K + K^T with diagonal pivots, which keeps the fill, and so the memory, about
# half that of the default nonsymmetric ordering.  The supernodes of a 2D grid
# are small, so SuperLU's relaxed supernodes (``relax``, default 10 columns)
# and panels (``panel_size``, default 20 columns), sized for denser 3D fronts,
# are cut to 4 and 2.  This leaves the ordering and the fill unchanged and
# factors in 0.75-0.78 of the default time at n = 64, 128 and 256 (one thread
# on a 2-vCPU x86 host; the sweep's table is in CHANGES.md).
_SYMMETRIC_ORDERING = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "relax": 4,
    "panel_size": 2,
    "options": {"SymmetricMode": True},
}
_SPD_ADVICE = " The system may be indefinite; try a larger beta or sigma."


def _factor(K):
    """Sparse LU factors of the symmetric ``K`` (CSC); a failure raises ``SolverError``."""
    try:
        return spla.splu(K, **_SYMMETRIC_ORDERING)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}.{_SPD_ADVICE}") from exc


def _checked(K, x, b, dofmap, method, **fields):
    """Report of the solution ``x`` of ``K x = b``, plus ``fields``, after one residual check."""
    residual = float(np.linalg.norm(K @ x - b))
    scale = float(np.linalg.norm(b))
    if not np.all(np.isfinite(x)) or residual > RESIDUAL_RTOL * max(scale, 1e-300):
        raise SolverError(
            f"linear solve failed: residual {residual:.3e} vs tolerance "
            f"{RESIDUAL_RTOL * scale:.3e}.{_SPD_ADVICE}"
        )
    # a copy: cg returns a zero load itself, and an unperturbed update its standard solution
    return SolveReport(FeFunction(np.array(x, dtype=float), dofmap), method, residual, **fields)


def _takes_multigrid(n):
    """Whether grid n is finer than ``MULTIGRID_MIN_N`` and its coarsest grid (see
    ``_COARSEN_ABOVE``) has at most ``_COARSEST_N`` cells per side."""
    if n <= MULTIGRID_MIN_N:
        return False
    while n > _COARSEN_ABOVE and n % 2 == 0:
        n //= 2
    return n <= _COARSEST_N


def _multigrid_cg(K, b, dofmap):
    """Solution of ``K x = b`` by multigrid-preconditioned CG, and its iteration count.

    The Courant triangulation of grid n refines that of grid n / 2, so fine
    vertex (i, j) is the midpoint of coarse vertices (i // 2, j // 2) and
    (i // 2 + i % 2, j // 2 + j % 2), which coincide on an even vertex: the
    prolongation P takes 1/2 from each, one CSR row of two entries per fine
    dof.  The coarse dofs are the coarse vertices it reaches.  Each is a
    vertex of a coarse triangle that holds an active fine triangle, on whose
    vertices P reproduces the coarse function, so P has full rank and every
    Galerkin operator ``P^T K P`` is symmetric positive definite.  The grids
    halve while even and above ``_COARSEN_ABOVE`` cells per side, and the
    operator of the last is factored.  The preconditioner is one V(1,1) cycle
    with damped Jacobi smoothing, the same before and after the coarse
    correction, so it is symmetric.  CG starts from full multigrid (nested
    iteration): b is restricted to every grid and solved on the coarsest, and
    on each finer grid the prolonged solution is corrected by one V-cycle that
    starts on that grid, about 1.3 V-cycles in all.  scipy's ``cg`` runs the
    iteration from that ``x0`` and stops at a residual below
    ``_CG_RTOL * |b|``; the count returned is of CG iterations only, not of
    the start's cycles.  A zero load returns zeros at once.  cg
    tests the residual only before an iteration, so ``_CG_MAXIT`` iterations
    raise ``SolverError`` even when the last of them met the stop.
    """
    n, vertices, A = dofmap.mesh.n, dofmap.dof_to_vertex, K
    levels = []  # (operator, damped inverse diagonal, prolongation, restriction) per fine grid
    while n > _COARSEN_ABOVE and n % 2 == 0:
        i, j = np.divmod(vertices, n + 1)
        m = n // 2 + 1
        ends = np.stack([i // 2 * m + j // 2, (i // 2 + i % 2) * m + j // 2 + j % 2], axis=1)
        used = np.zeros(m * m, dtype=bool)
        used[ends] = True
        vertices = np.flatnonzero(used)
        cols = np.cumsum(used)[ends.ravel()] - 1
        P = sp.csr_matrix((np.full(len(cols), 0.5), cols, np.arange(0, len(cols) + 1, 2)),
                          shape=(len(i), len(vertices)))
        R = P.T.tocsr()
        levels.append((A, _JACOBI_WEIGHT / A.diagonal(), P, R))
        A = R @ (A @ P)
        n //= 2
    coarsest = _factor(A.tocsc())

    def vcycle(r, grids):
        """One V(1,1) cycle on ``grids``, the levels from the grid of ``r`` down."""
        smoothed = []
        for op, dinv, _, restrict in grids:
            x = dinv * r
            smoothed.append((r, x))
            r = restrict @ (r - op @ x)
        x = coarsest.solve(r)
        for (op, dinv, prolong, _), (r, x_smooth) in zip(grids[::-1], smoothed[::-1]):
            x = x_smooth + prolong @ x
            x += dinv * (r - op @ x)
        return x

    loads = [b]  # full multigrid start: b on every grid, solved on the coarsest, and on
    for *_, restrict in levels:  # each finer grid prolonged and corrected by one V-cycle
        loads.append(restrict @ loads[-1])
    x = coarsest.solve(loads[-1])
    for k in reversed(range(len(levels))):
        op, _, prolong, _ = levels[k]
        x = prolong @ x
        x += vcycle(loads[k] - op @ x, levels[k:])

    iterates = []  # cg calls back once per iteration
    M = spla.LinearOperator(K.shape, lambda r: vcycle(r, levels), dtype=float)
    x, info = spla.cg(K, b, x0=x, rtol=_CG_RTOL, maxiter=_CG_MAXIT, M=M, callback=iterates.append)
    if info:
        raise SolverError(
            f"multigrid CG did not converge in {_CG_MAXIT} iterations at n = {dofmap.mesh.n}."
            f"{_SPD_ADVICE}"
        )
    return x, len(iterates)


def solve_standard(matrices, dofmap):
    """Solve the symmetric stabilized system, by sparse LU or by multigrid CG.

    The operator ``K = A + S`` is a sparse sum, which keeps no exact zeros.  A
    grid of at most ``MULTIGRID_MIN_N`` cells per side, or one that does not
    halve to ``_COARSEST_N``, is factored: ``K`` is symmetric, so the arrays
    of its CSR form are those of its CSC form, and they are factored as they
    are with the symmetric ordering above; the residual check against ``K``
    fails if ``K`` is not symmetric.  A finer grid is solved by ``_multigrid_cg``.
    A nonpositive diagonal, a failed factorization or CG iteration, or a
    residual above ``RESIDUAL_RTOL * |b|`` raises ``SolverError`` advising a
    larger penalty.  The report holds the operator, and the factors of a
    factored solve, for ``solve_regularized``; a caller that needs only the
    solution keeps ``.solution`` and lets them go.
    """
    K, b = matrices.A + matrices.S, matrices.b
    if K.diagonal().min() <= 0.0:
        raise SolverError(
            f"nonpositive diagonal entry, the operator is not positive definite.{_SPD_ADVICE}"
        )
    if _takes_multigrid(dofmap.mesh.n):
        x, iterations = _multigrid_cg(K, b, dofmap)
        return _checked(K, x, b, dofmap, "mgcg", operator=K, iterations=iterations)
    lu = _factor(sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape))
    return _checked(K, lu.solve(b), b, dofmap, "splu", operator=K, factors=lu)


def solve_regularized(matrices, dofmap, standard):
    """Solve the regularized system as a low-rank update of ``standard`` (from ``solve_standard``).

    ``K = A + S`` differs from the standard operator ``K0`` in the k rows R
    the cutoff reaches.  With ``W`` those rows of ``K - K0`` and ``E`` the
    identity columns of R, the Woodbury identity gives
    ``x = x0 - Z (I + W Z)^{-1} W x0``, with ``x0 = K0^{-1} b`` the standard
    solution and ``Z = K0^{-1} E``.  Z depends on R only, not on epsilon:
    ``standard.columns`` keeps every column solved, so an update solves with
    the standard factors only the rows it does not hold yet, in one block, and
    then one k x k system; a study of many epsilons solves each perturbed row
    once.  A multigrid report holds no factors: ``K0`` is factored the first
    time a row is missing, and the factors are kept on ``standard`` too.  At
    epsilon = 0, k = 0 and ``x`` is ``x0``.  ``x`` is checked against ``K`` by one mat-vec;
    a singular ``I + W Z`` or a residual above ``RESIDUAL_RTOL * |b|`` raises
    ``SolverError``.
    """
    b = matrices.b
    K = matrices.A + matrices.S
    W = K - standard.operator  # a sparse difference keeps no exact zeros
    rows = np.flatnonzero(np.diff(W.indptr))
    x = standard.solution.coefficients
    if len(rows):
        W, columns = W[rows], standard.columns
        missing = [r for r in rows if r not in columns]
        if missing:
            E = np.zeros((len(b), len(missing)))
            E[missing, np.arange(len(missing))] = 1.0
            if standard.factors is None:
                standard.factors = _factor(standard.operator.tocsc())
            columns.update(zip(missing, standard.factors.solve(E).T))
        # column-major, as the factors return Z: the products with Z take the same bits
        Z = np.array([columns[r] for r in rows]).T
        try:
            y = np.linalg.solve(np.eye(len(rows)) + W @ Z, W @ x)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular capacitance matrix ({len(rows)} perturbed rows)") from exc
        x = x - Z @ y
    return _checked(K, x, b, dofmap, "lowrank")


def condition_estimate(K):
    """Lower estimate of the spectral condition number of a symmetric operator.

    The extreme eigenvalues are estimated by power iteration on the operator
    and on its inverse through a factorization, each stopped once its Rayleigh
    quotient changes by less than ``CONDITION_RTOL``.  For a positive definite
    operator a Rayleigh quotient never exceeds the largest eigenvalue, so the
    product is at most the true condition number and can fall well short of it
    when the top eigenvalues cluster: on the n = 16 Dirichlet disk sweep of 20
    shifts it reads 1.4-21 % below the dense value (61.67 against 78.21 at
    the worst shift).  A failed factorization raises ``SolverError``, and so
    does an iteration that has not stopped after ``CONDITION_MAXIT`` steps,
    carrying the partial estimate.
    """
    K = K.tocsc()

    def largest_eigenvalue(apply_op):
        x = np.ones(K.shape[0])
        x /= np.linalg.norm(x)
        lam = 0.0
        for it in range(CONDITION_MAXIT):
            y = apply_op(x)
            lam_new = float(x @ y)
            ny = np.linalg.norm(y)
            if ny == 0.0:
                return 0.0
            x = y / ny
            if it > 0 and abs(lam_new - lam) <= CONDITION_RTOL * abs(lam_new):
                return abs(lam_new)
            lam = lam_new
        raise SolverError(
            f"condition estimate did not converge in {CONDITION_MAXIT} iterations "
            f"(partial estimate {abs(lam):.3e})"
        )

    lam_max = largest_eigenvalue(lambda v: K @ v)
    lu = _factor(K)
    lam_inv = largest_eigenvalue(lu.solve)
    if lam_inv == 0.0:
        return np.inf
    return lam_max * lam_inv
