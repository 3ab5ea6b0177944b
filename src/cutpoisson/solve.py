"""Linear solution of the stabilized systems plus conditioning diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutpoisson.space import FeFunction

RESIDUAL_RTOL = 1e-10  # largest residual of a solve relative to its load


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    """Solution and achieved residual; a factored solve adds its operator and factors."""

    solution: FeFunction
    method: str
    residual: float
    operator: object = None
    factors: object = None


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


def _factor(K, advice=""):
    """Sparse LU factors of the symmetric ``K`` (CSC); a failure raises ``SolverError``."""
    try:
        return spla.splu(K, **_SYMMETRIC_ORDERING)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}.{advice}") from exc


def _checked(K, x, b, dofmap, method, advice=""):
    """Report of the solution ``x`` of ``K x = b`` after one residual check."""
    residual = float(np.linalg.norm(K @ x - b))
    scale = float(np.linalg.norm(b))
    if not np.all(np.isfinite(x)) or residual > RESIDUAL_RTOL * max(scale, 1e-300):
        raise SolverError(
            f"linear solve failed: residual {residual:.3e} vs tolerance "
            f"{RESIDUAL_RTOL * scale:.3e}.{advice}"
        )
    return SolveReport(FeFunction(np.asarray(x, dtype=float), dofmap), method, residual)


def solve_standard(matrices, dofmap):
    """Solve the symmetric stabilized system by one sparse LU factorization.

    The operator ``K = A + S`` is a sparse sum, which keeps no exact zeros.
    ``K`` is symmetric, so the arrays of its CSR form are those of its CSC
    form, and they are factored as they are with the symmetric ordering
    above; the residual check against ``K`` fails if ``K`` is not symmetric.
    A nonpositive diagonal, a failed factorization or a residual above
    ``RESIDUAL_RTOL * |b|`` raises ``SolverError`` advising a larger penalty.
    The report holds the factors for ``solve_regularized``; a caller that
    needs only the solution keeps ``.solution`` and lets them go.
    """
    K, b = matrices.A + matrices.S, matrices.b
    if K.diagonal().min() <= 0.0:
        raise SolverError(
            f"nonpositive diagonal entry, the operator is not positive definite.{_SPD_ADVICE}"
        )
    csc = sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape)
    lu = _factor(csc, _SPD_ADVICE)
    report = _checked(K, lu.solve(b), b, dofmap, "splu", _SPD_ADVICE)
    report.operator, report.factors = K, lu
    return report


def solve_regularized(matrices, dofmap, standard):
    """Solve the regularized system as a low-rank update of ``standard`` (from ``solve_standard``).

    ``K = A + S`` differs from the standard operator ``K0`` in the k rows R
    the cutoff reaches.  With ``W`` those rows of ``K - K0`` and ``E`` the
    identity columns of R, the Woodbury identity gives
    ``x = x0 - Z (I + W Z)^{-1} W x0``, with ``x0 = K0^{-1} b`` the standard
    solution and ``Z = K0^{-1} E``: k solves with the standard factors and one
    k x k solve, so nothing is factored and the cost grows with k.  At
    epsilon = 0, k = 0 and ``x`` is ``x0``.  ``x`` is checked against ``K``
    by one mat-vec; a singular ``I + W Z`` or a residual above
    ``RESIDUAL_RTOL * |b|`` raises ``SolverError``.
    """
    b = matrices.b
    K = matrices.A + matrices.S
    W = K - standard.operator  # a sparse difference keeps no exact zeros
    rows = np.flatnonzero(np.diff(W.indptr))
    x = standard.solution.coefficients
    if len(rows):
        W = W[rows]
        E = np.zeros((len(b), len(rows)))
        E[rows, np.arange(len(rows))] = 1.0
        Z = standard.factors.solve(E)
        try:
            y = np.linalg.solve(np.eye(len(rows)) + W @ Z, W @ x)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular capacitance matrix ({len(rows)} perturbed rows)") from exc
        x = x - Z @ y
    return _checked(K, x, b, dofmap, "lowrank")


def _power_iteration(apply_op, n, rtol, maxit):
    x = np.ones(n)
    x /= np.linalg.norm(x)
    lam = 0.0
    for it in range(maxit):
        y = apply_op(x)
        lam_new = float(x @ y)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
        if it > 0 and abs(lam_new - lam) <= rtol * abs(lam_new):
            return abs(lam_new)
        lam = lam_new
    raise SolverError(
        f"condition estimate did not converge in {maxit} iterations "
        f"(partial estimate {abs(lam):.3e})"
    )


def condition_estimate(K, rtol=0.01, maxit=500):
    """Lower estimate of the spectral condition number of a symmetric operator.

    The extreme eigenvalues are estimated by power iteration on the operator
    and on its inverse through a factorization, each stopped once its Rayleigh
    quotient changes by less than ``rtol``.  For a positive definite operator
    a Rayleigh quotient never exceeds the largest eigenvalue, so the product
    is at most the true condition number and can fall well short of it when
    the top eigenvalues cluster: on the n = 16 Dirichlet disk sweep of 20
    shifts it reads 1.4-21 % below the dense value (61.67 against 78.21 at
    the worst shift).  A failed factorization raises ``SolverError``, and so
    does non-convergence, carrying the partial estimate.
    """
    K = K.tocsc()
    n = K.shape[0]
    lam_max = _power_iteration(lambda v: K @ v, n, rtol, maxit)
    lu = _factor(K)
    lam_inv = _power_iteration(lu.solve, n, rtol, maxit)
    if lam_inv == 0.0:
        return np.inf
    return lam_max * lam_inv
