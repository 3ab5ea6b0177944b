import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutpoisson import LevelSetDomain
from cutpoisson import solve, study
from cutpoisson.assembly import (
    SystemMatrices,
    assemble_regularized,
    assemble_system,
    energy_gram,
    energy_norm,
)
from cutpoisson.geometry import COLLAR
from cutpoisson.solve import (
    SolverError,
    condition_estimate,
    solve_regularized,
    solve_standard,
)
from cutpoisson.study import (
    condition_sweep,
    convergence_level,
    discretize,
    error_norms,
    manufactured_singular,
    manufactured_smooth,
    regularization_study,
)


class FakeDofmap:
    """Stand-in dofmap of ``n`` dofs on a grid of one cell, which the factored solve takes."""

    mesh = SimpleNamespace(n=1)

    def __init__(self, n):
        self.ndof = n


def wrap(K, b):
    n = K.shape[0]
    return SystemMatrices(sp.csr_matrix(K), sp.csr_matrix((n, n)), b)


def test_zero_load_gives_zero_solution():
    """A zero load takes the factored solve, and its low-rank update stays zero too."""
    K = np.diag([2.0, 3.0, 4.0])
    report = solve_standard(wrap(K, np.zeros(3)), FakeDofmap(3))
    assert np.all(report.solution.coefficients == 0.0)
    assert report.residual == 0.0 and report.method == "splu"
    K[0, 1] = K[1, 0] = 0.5
    update = solve_regularized(wrap(K, np.zeros(3)), FakeDofmap(3), report)
    assert np.all(update.solution.coefficients == 0.0)
    assert update.residual == 0.0 and update.method == "lowrank"


def test_hand_three_by_three_system():
    """SPD system of the single-triangle Nitsche sanity problem, solved by hand."""
    K = np.array([[4.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])
    b = np.array([1.0, 2.0, 0.5])
    x_hand = np.linalg.solve(K, b)
    report = solve_standard(wrap(K, b), FakeDofmap(3))
    assert np.abs(report.solution.coefficients - x_hand).max() < 1e-12
    assert report.residual <= 1e-10 * np.linalg.norm(b)


def test_singular_pivot_system_raises():
    """A singular operator with a positive diagonal raises SolverError, not the factorization's error."""
    K = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverError, match="factorization failed"):
        solve_standard(wrap(K, np.ones(2)), FakeDofmap(2))


def test_indefinite_system_raises():
    K = np.diag([1.0, -1.0, 1e-18])
    with pytest.raises(SolverError, match="try a larger beta or sigma"):
        solve_standard(wrap(K, np.array([1.0, 1.0, 1.0])), FakeDofmap(3))


def test_monotone_refinement(domain_dirichlet):
    problem = manufactured_smooth(domain_dirichlet)
    e16 = convergence_level(problem, 16).energy
    e32 = convergence_level(problem, 32).energy
    assert e32 < e16


def test_singular_level_factors_with_the_pinned_fill(domain_mixed):
    """The singular mixed level at n = 64 factors with 49,710 L + U nonzeros.

    A stored zero that reached the factorization would count as a coupling
    and add fill (and time) without changing the solution.
    """
    problem = manufactured_singular(domain_mixed)
    dofmap, params = discretize(domain_mixed, 64)
    report = solve_standard(assemble_system(dofmap, params, problem), dofmap)
    assert report.factors.L.nnz + report.factors.U.nnz == 49710


def test_regularized_limit_matches_standard(domain_mixed):
    """At epsilon = 0 no row is perturbed: the standard solution comes back, checked, unsolved."""
    problem = manufactured_smooth(domain_mixed)
    dofmap, params = discretize(domain_mixed, 16)
    system = assemble_system(dofmap, params, problem)
    standard = solve_standard(system, dofmap)
    u_h = standard.solution
    A0 = assemble_regularized(system.A, dofmap, params)
    standard.factors = None  # a solve with the factors would raise
    reg = solve_regularized(SystemMatrices(A0, system.S, system.b), dofmap, standard)
    assert reg.method == "lowrank" and reg.residual <= solve.RESIDUAL_RTOL * np.linalg.norm(system.b)
    assert np.array_equal(reg.solution.coefficients, u_h.coefficients)
    assert not np.shares_memory(reg.solution.coefficients, u_h.coefficients)


@pytest.mark.parametrize(
    "n, eps_of",
    [
        (16, lambda h, radius: 0.1 * h**2),
        (16, lambda h, radius: 0.4 * h**2),
        # the largest admissible epsilon; at n = 16 it perturbs only 21 rows
        (64, lambda h, radius: COLLAR * radius),
    ],
    ids=["0.1h2", "0.4h2", "epsilon0"],
)
def test_low_rank_update_matches_a_direct_factorization(domain_mixed, n, eps_of):
    problem = manufactured_smooth(domain_mixed)
    dofmap, params = discretize(domain_mixed, n)
    mesh = dofmap.mesh
    system = assemble_system(dofmap, params, problem)
    standard = solve_standard(system, dofmap)
    eps = eps_of(mesh.h, domain_mixed.radius)
    A_eps = assemble_regularized(system.A, dofmap, params.with_epsilon(eps))
    K = (A_eps + system.S).tocsc()
    perturbed = np.flatnonzero(abs(K - standard.operator).sum(axis=1))
    assert len(perturbed) > (50 if n == 64 else 0)
    reg = solve_regularized(SystemMatrices(A_eps, system.S, system.b), dofmap, standard)
    oracle = spla.splu(K).solve(system.b)
    assert reg.method == "lowrank"
    assert np.abs(reg.solution.coefficients - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_zero_epsilon_gap_is_exactly_zero(domain_mixed):
    report = regularization_study(manufactured_smooth(domain_mixed), 16, [0.0])
    assert report.gaps == [0.0]


def test_singular_perturbation_raises():
    """A perturbation of one row that makes the operator singular is refused."""
    K0 = np.array([[4.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])
    b = np.array([1.0, 2.0, 0.5])
    standard = solve_standard(wrap(K0, b), FakeDofmap(3))
    K = K0.copy()
    K[0] = K[1] + K[2]
    with pytest.raises(SolverError):
        solve_regularized(wrap(K, b), FakeDofmap(3), standard)


def _multigrid_above_8(monkeypatch):
    """Levels finer than n = 8 take the multigrid path, down to an 8-cell coarsest grid."""
    monkeypatch.setattr(solve, "MULTIGRID_MIN_N", 8)
    monkeypatch.setattr(solve, "_COARSEST_N", 8)


def test_regularization_study_factors_once(domain_mixed, monkeypatch):
    """The standard operator is factored once: by the solve, or on a multigrid level by the
    first regularized solve, which keeps the factors for the others (beside the coarsest grid's)."""
    n = 16
    h = 2.0 * math.sqrt(2.0) / n
    ndof = discretize(domain_mixed, n)[0].ndof
    factor = solve._factor
    for multigrid in (False, True):
        sizes = []
        monkeypatch.setattr(solve, "_factor", lambda K, *a: sizes.append(K.shape[0]) or factor(K, *a))
        if multigrid:
            _multigrid_above_8(monkeypatch)
        eps_values = [0.0, 0.1 * h**2, 0.2 * h**2, 0.4 * h**2]
        regularization_study(manufactured_smooth(domain_mixed), n, eps_values)
        assert sizes.count(ndof) == 1 and len(sizes) == 1 + multigrid


class _CountingFactors:
    """Factors that record the number of columns of every block of right-hand sides they solve."""

    def __init__(self, lu, columns):
        self.lu, self.columns = lu, columns

    def solve(self, rhs):
        if rhs.ndim == 2:
            self.columns.append(rhs.shape[1])
        return self.lu.solve(rhs)


@pytest.mark.parametrize("multigrid", [False, True], ids=["splu", "mgcg"])
@pytest.mark.parametrize("rule", ["c_h2", "fixed"])
def test_a_study_solves_each_perturbed_row_once(domain_mixed, monkeypatch, multigrid, rule):
    """Across epsilon = 0, e, 2e, 4e the standard factors solve one column per row in the union
    of the perturbed rows: at e = 0.1 h^2 every epsilon perturbs the same rows, at a fixed e
    near the limit the rows grow with epsilon."""
    n = 16
    h = 2.0 * math.sqrt(2.0) / n
    base = 0.1 * h**2 if rule == "c_h2" else COLLAR * domain_mixed.radius / 4.0
    columns, perturbed = [], []
    factor = solve._factor
    monkeypatch.setattr(solve, "_factor", lambda K: _CountingFactors(factor(K), columns))
    if multigrid:
        _multigrid_above_8(monkeypatch)

    def recording(matrices, dofmap, standard):
        W = matrices.A + matrices.S - standard.operator
        perturbed.append(frozenset(np.flatnonzero(np.diff(W.indptr)).tolist()))
        return solve_regularized(matrices, dofmap, standard)

    monkeypatch.setattr(study, "solve_regularized", recording)
    regularization_study(manufactured_smooth(domain_mixed), n, [0.0, base, 2.0 * base, 4.0 * base])
    assert len(perturbed) == 4 and not perturbed[0] and perturbed[1] <= perturbed[2] <= perturbed[3]
    assert (perturbed[1] == perturbed[3]) == (rule == "c_h2")
    assert sum(columns) == len(frozenset().union(*perturbed)) > 0


def test_an_epsilon_that_reaches_no_neumann_point_returns_the_standard_solution(
    domain_mixed, monkeypatch
):
    """A multigrid report is not factored for an update that perturbs no row."""
    _multigrid_above_8(monkeypatch)
    dofmap, params = discretize(domain_mixed, 16)
    system = assemble_system(dofmap, params, manufactured_smooth(domain_mixed))
    standard = solve_standard(system, dofmap)
    A_eps = assemble_regularized(system.A, dofmap, params.with_epsilon(1e-12))
    monkeypatch.setattr(solve, "_factor", None)  # a factorization would raise
    reg = solve_regularized(SystemMatrices(A_eps, system.S, system.b), dofmap, standard)
    assert standard.method == "mgcg" and standard.factors is None and standard.columns == {}
    assert reg.method == "lowrank"
    assert np.array_equal(reg.solution.coefficients, standard.solution.coefficients)


def test_regularized_gap_bounded_and_stable(domain_mixed):
    """Gap grows linearly in epsilon and the regularized solutions stay bounded."""
    problem = manufactured_smooth(domain_mixed)
    n = 16
    h = 2.0 * math.sqrt(2.0) / n
    eps_values = [0.05 * h**2, 0.1 * h**2, 0.2 * h**2, 0.4 * h**2]
    report = regularization_study(problem, n, eps_values)
    assert 0.8 <= report.slope <= 1.2
    dofmap, params = discretize(domain_mixed, n)
    system = assemble_system(dofmap, params, problem)
    u_h = solve_standard(system, dofmap).solution
    gram = energy_gram(dofmap, system.S)
    base = energy_norm(u_h, gram)
    for eps, gap in zip(eps_values, report.gaps):
        assert gap <= 10.0 * eps / h * base
        # uniform stability: |||u_eps||| is within 10 percent of |||u_h|||
        # across the sweep by the triangle inequality
        assert gap <= 0.1 * base


def test_condition_estimate_reference_matrices():
    assert condition_estimate(sp.eye(40, format="csr")) == pytest.approx(1.0, rel=0.01)
    K = sp.diags([1.0, 1e4]).tocsr()
    assert condition_estimate(K) == pytest.approx(1e4, rel=0.01)


def test_condition_estimate_singular_operator_raises():
    """A singular operator raises SolverError, not the factorization's error."""
    K = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError, match="factorization failed"):
        condition_estimate(K)


def test_condition_estimate_that_does_not_converge_raises(monkeypatch):
    """One power iteration never meets the stopping test: SolverError with the partial estimate."""
    monkeypatch.setattr(solve, "CONDITION_MAXIT", 1)
    K = sp.diags([1.0, 2.0, 3.0]).tocsr()
    with pytest.raises(SolverError, match=r"did not converge in 1 iterations \(partial estimate"):
        condition_estimate(K)


def test_every_factorization_takes_the_symmetric_ordering(domain_mixed, monkeypatch):
    """solve_standard and condition_estimate factor with the same SuperLU options."""
    options = []
    splu = spla.splu
    monkeypatch.setattr(solve.spla, "splu", lambda K, **kw: options.append(kw) or splu(K, **kw))
    dofmap, params = discretize(domain_mixed, 8)
    system = assemble_system(dofmap, params, manufactured_smooth(domain_mixed))
    solve_standard(system, dofmap)
    condition_estimate(system.A + system.S)
    assert options == [solve._SYMMETRIC_ORDERING] * 2


def test_condition_estimate_matches_dense_oracle(domain_dirichlet):
    dofmap, params = discretize(domain_dirichlet, 8, tol=1e-8)
    from cutpoisson.assembly import assemble_ghost_penalty, assemble_nitsche

    K = (
        assemble_nitsche(dofmap, params)
        + assemble_ghost_penalty(dofmap, params)
    ).tocsr()
    eigs = np.abs(np.linalg.eigvalsh(K.toarray()))
    dense = eigs.max() / eigs.min()
    est = condition_estimate(K)
    assert est == pytest.approx(dense, rel=0.05)


def test_stabilization_controls_conditioning(domain_dirichlet):
    """Across a cut sweep the stabilized condition number is steady while the
    unstabilized one blows up at unfavorable cut positions."""
    report = condition_sweep(domain_dirichlet, n=16, n_shifts=10)
    lam = [r.lambda_min_energy for r in report.rows]
    assert min(lam) >= 0.1
    assert report.kappa_spread <= 10.0
    assert report.worst_blowup >= 100.0


def test_solver_determinism(domain_mixed, monkeypatch):
    problem = manufactured_smooth(domain_mixed)
    dofmap, params = discretize(domain_mixed, 16)
    system = assemble_system(dofmap, params, problem)
    for method in ("splu", "mgcg"):
        if method == "mgcg":
            _multigrid_above_8(monkeypatch)
        first, second = solve_standard(system, dofmap), solve_standard(system, dofmap)
        assert first.method == method
        assert np.array_equal(first.solution.coefficients, second.solution.coefficients)


def _level(domain, n, shift=(0.0, 0.0), problem=manufactured_singular):
    dofmap, params = discretize(domain, n, shift=shift)
    return dofmap, assemble_system(dofmap, params, problem(domain))


def test_multigrid_takes_only_grids_above_128_that_halve_to_64():
    assert [n for n in (64, 128, 129, 130, 192, 200, 256, 260, 512) if solve._takes_multigrid(n)] == [
        192, 200, 256, 512
    ]


@pytest.mark.parametrize("n", [32, 64])
def test_multigrid_matches_the_factored_solve(domain_mixed, monkeypatch, n):
    dofmap, system = _level(domain_mixed, n)
    factored = solve_standard(system, dofmap)
    _multigrid_above_8(monkeypatch)
    report = solve_standard(system, dofmap)
    x, oracle = report.solution.coefficients, factored.solution.coefficients
    assert (factored.method, factored.iterations) == ("splu", 0)
    assert report.method == "mgcg" and 0 < report.iterations <= 40 and report.factors is None
    assert report.residual <= 0.1 * solve.RESIDUAL_RTOL * np.linalg.norm(system.b)
    assert np.abs(x - oracle).max() <= 1e-9 * np.abs(oracle).max()


def test_multigrid_singular_n256_level_matches_the_factored_solve(domain_mixed, monkeypatch):
    """The solution and its error norms agree with the factored solve's to 1e-9.

    The L2 error (6.1e-4) moves by 1e-12 when the solution moves by 1e-12: the
    factored solution's own L2 error is 2.2e-9 off that of its twice refined
    solution, so the L2 errors are compared to 1e-12 absolute as well.
    """
    problem = manufactured_singular(domain_mixed)
    dofmap, system = _level(domain_mixed, 256)
    report = solve_standard(system, dofmap)
    monkeypatch.setattr(solve, "MULTIGRID_MIN_N", 256)
    factored = solve_standard(system, dofmap)
    assert (report.method, factored.method) == ("mgcg", "splu")
    x, oracle = report.solution.coefficients, factored.solution.coefficients
    assert np.abs(x - oracle).max() <= 1e-9 * np.abs(oracle).max()
    errs = error_norms(problem, report.solution, system.S)
    oracle_errs = error_norms(problem, factored.solution, system.S)
    assert errs.energy == pytest.approx(oracle_errs.energy, rel=1e-9, abs=0.0)
    assert errs.sh == pytest.approx(oracle_errs.sh, rel=1e-9, abs=0.0)
    assert errs.l2 == pytest.approx(oracle_errs.l2, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("problem", [manufactured_singular, manufactured_smooth])
def test_multigrid_iterations_do_not_depend_on_the_cut(domain_mixed, domain_dirichlet, problem):
    """At n = 256 the V-cycle preconditioned CG takes at most 40 iterations over seeded shifts."""
    domain = domain_mixed if problem is manufactured_singular else domain_dirichlet
    shifts = np.random.default_rng(20261020).random((2, 2)) * 2.0 / 256
    for shift in shifts:
        dofmap, system = _level(domain, 256, shift=tuple(shift), problem=problem)
        report = solve_standard(system, dofmap)
        assert report.method == "mgcg" and report.iterations <= 40


def test_multigrid_zero_load_gives_exact_zeros(domain_mixed, monkeypatch):
    _multigrid_above_8(monkeypatch)
    dofmap, system = _level(domain_mixed, 32)
    zero = SystemMatrices(system.A, system.S, np.zeros(dofmap.ndof))
    report = solve_standard(zero, dofmap)
    assert report.method == "mgcg" and report.iterations == 0 and report.residual == 0.0
    assert np.all(report.solution.coefficients == 0.0)
    assert not np.shares_memory(report.solution.coefficients, zero.b)


def test_multigrid_iteration_cap_raises(domain_mixed, monkeypatch):
    _multigrid_above_8(monkeypatch)
    monkeypatch.setattr(solve, "_CG_MAXIT", 2)
    dofmap, system = _level(domain_mixed, 32)
    with pytest.raises(SolverError, match=r"did not converge in 2 iterations at n = 32\..*beta or sigma"):
        solve_standard(system, dofmap)


def test_multigrid_meeting_the_stop_on_the_last_iteration_raises(domain_mixed, monkeypatch):
    """cg tests the residual only before an iteration, so the cap has to exceed the count."""
    _multigrid_above_8(monkeypatch)
    dofmap, system = _level(domain_mixed, 32)
    iterations = solve_standard(system, dofmap).iterations
    monkeypatch.setattr(solve, "_CG_MAXIT", iterations + 1)
    assert solve_standard(system, dofmap).iterations == iterations
    monkeypatch.setattr(solve, "_CG_MAXIT", iterations)
    with pytest.raises(SolverError, match=f"did not converge in {iterations} iterations"):
        solve_standard(system, dofmap)


def _reference_cg(K, b, rtol, maxiter, M, callback):
    """Preconditioned CG from x = 0, written out with ``spla.cg``'s signature, as the reference."""
    x, r = np.zeros(len(b)), np.array(b, dtype=float)
    stop = rtol * np.linalg.norm(b)
    p = z = M.matvec(r)
    rz = r @ z
    for _ in range(maxiter):
        q = K @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        callback(x)
        if np.linalg.norm(r) <= stop:
            return x, 0
        z = M.matvec(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x, maxiter


@pytest.mark.parametrize("n", [32, 256])
def test_multigrid_cg_matches_the_written_out_iteration_bitwise(domain_mixed, monkeypatch, n):
    """scipy's cg takes the reference loop's steps: the same solution bits and iteration count."""
    if n == 32:
        _multigrid_above_8(monkeypatch)
    dofmap, system = _level(domain_mixed, n)
    report = solve_standard(system, dofmap)
    monkeypatch.setattr(spla, "cg", _reference_cg)
    reference = solve_standard(system, dofmap)
    assert report.method == reference.method == "mgcg"
    assert report.iterations == reference.iterations > 0
    assert np.array_equal(report.solution.coefficients, reference.solution.coefficients)


@pytest.mark.parametrize("beta, n", [(10.0, 32), (1000.0, 32), (1000.0, 64)])
def test_multigrid_without_ghost_penalty_converges_or_raises(domain_dirichlet, monkeypatch, beta, n):
    """At sigma = 0 a multigrid level is solved and checked, or refused with SolverError.

    At beta = 10 a vertex whose cells barely meet the disk has a negative diagonal; at
    beta = 1000 these levels pass that check and CG takes 50-80 iterations.
    """
    _multigrid_above_8(monkeypatch)
    dofmap, params = discretize(domain_dirichlet, n, beta=beta, sigma=0.0, shift=(0.013, 0.029))
    system = assemble_system(dofmap, params, manufactured_smooth(domain_dirichlet))
    try:
        report = solve_standard(system, dofmap)
    except SolverError:
        return
    assert report.method == "mgcg" and report.iterations > 0
    x = report.solution.coefficients
    K = system.A + system.S
    assert np.linalg.norm(K @ x - system.b) <= solve.RESIDUAL_RTOL * np.linalg.norm(system.b)
