"""Linear solution of the stabilized systems plus conditioning diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from cutpoisson.space import FeFunction

RESIDUAL_RTOL = 1e-10


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    """Solution together with the residual actually achieved."""

    solution: FeFunction
    method: str
    residual: float
    n_dof: int


def _wrap_solution(x, dofmap):
    return FeFunction(np.asarray(x, dtype=float), dofmap)


def _check_residual(K, x, b, rtol, advice=""):
    residual = float(np.linalg.norm(K @ x - b))
    scale = float(np.linalg.norm(b))
    if not np.all(np.isfinite(x)) or residual > rtol * max(scale, 1e-300):
        raise SolverError(
            f"linear solve failed: residual {residual:.3e} vs tolerance "
            f"{rtol * scale:.3e}.{advice}"
        )
    return residual


def solve_standard(matrices, dofmap, rtol=RESIDUAL_RTOL):
    """Solve the symmetric stabilized system by one sparse LU factorization.

    The factorization orders the columns of K + K^T (minimum degree) and keeps
    the diagonal pivots, which suits the symmetric positive definite operator
    and keeps the fill, and so the memory, about half that of the default
    nonsymmetric ordering.  A nonpositive diagonal, a failed factorization or
    a residual above ``rtol`` raises ``SolverError`` advising a larger penalty.
    """
    K = (matrices.A + matrices.S).tocsc()
    b = matrices.b
    advice = " The system may be indefinite; try a larger beta."
    if not np.any(b):
        return SolveReport(_wrap_solution(np.zeros(dofmap.ndof), dofmap), "trivial", 0.0, dofmap.ndof)
    if K.diagonal().min() <= 0.0:
        raise SolverError(f"nonpositive diagonal entry, the operator is not positive definite.{advice}")
    try:
        x = spla.splu(
            K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        ).solve(b)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}.{advice}") from exc
    residual = _check_residual(K, x, b, rtol, advice)
    return SolveReport(_wrap_solution(x, dofmap), "splu", residual, dofmap.ndof)


def solve_regularized(matrices, dofmap, rtol=RESIDUAL_RTOL):
    """Solve the (nonsymmetric) regularized stabilized system directly."""
    K = (matrices.A + matrices.S).tocsc()
    b = matrices.b
    if not np.any(b):
        return SolveReport(_wrap_solution(np.zeros(dofmap.ndof), dofmap), "trivial", 0.0, dofmap.ndof)
    try:
        x = spla.splu(K).solve(b)
    except RuntimeError as exc:
        raise SolverError(f"regularized factorization failed: {exc}") from exc
    residual = _check_residual(K, x, b, rtol)
    return SolveReport(_wrap_solution(x, dofmap), "splu", residual, dofmap.ndof)


def solve_regularized_pivot(A_eps, S, b, u_h, dofmap, rtol=RESIDUAL_RTOL):
    """Regularized solve with the stabilizer applied to the standard solution.

    Realizes the variant where the face stabilization acts on the already
    computed standard solution, so only the regularized operator is inverted.
    """
    rhs = b - S @ u_h.coefficients
    try:
        x = spla.splu(A_eps.tocsc()).solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"regularized factorization failed: {exc}") from exc
    residual = _check_residual(A_eps, x, rhs, rtol)
    return SolveReport(_wrap_solution(x, dofmap), "splu", residual, dofmap.ndof)


def _power_iteration(apply_op, n, rtol, maxit, seed_vector=None):
    x = np.ones(n) if seed_vector is None else seed_vector.copy()
    x /= np.linalg.norm(x)
    lam = 0.0
    for it in range(maxit):
        y = apply_op(x)
        lam_new = float(x @ y)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0, it
        x = y / ny
        if it > 0 and abs(lam_new - lam) <= rtol * abs(lam_new):
            return abs(lam_new), it
        lam = lam_new
    raise _PowerIterationFailure(abs(lam))


class _PowerIterationFailure(Exception):
    def __init__(self, estimate):
        self.estimate = estimate


def condition_estimate(K, rtol=0.01, maxit=500):
    """Spectral condition number of a symmetric operator by power iteration.

    The extreme eigenvalues are estimated on the operator and on its inverse
    through a factorization; non-convergence raises ``SolverError`` carrying
    the partial estimate.
    """
    K = K.tocsc()
    n = K.shape[0]
    try:
        lam_max, _ = _power_iteration(lambda v: K @ v, n, rtol, maxit)
        lu = spla.splu(K)
        lam_inv, _ = _power_iteration(lambda v: lu.solve(v), n, rtol, maxit)
    except _PowerIterationFailure as exc:
        raise SolverError(
            f"condition estimate did not converge in {maxit} iterations "
            f"(partial estimate {exc.estimate:.3e})"
        ) from exc
    if lam_inv == 0.0:
        return np.inf
    return lam_max * lam_inv
