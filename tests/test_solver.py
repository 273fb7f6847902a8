import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from conftest import cr_dofmap, morley_dofmap
from ncfem.assembly import assembler
from ncfem.mesh import builtin_domain, refine
from ncfem.problems import ProblemKind, ProblemSpec, manufactured
from ncfem.interpolation import morley_interpolate
from ncfem.solve import (discrete_embedding_ratio, energy_dual_norm,
                         gamma_norm_lower_bound, infsup_constant,
                         kantorovich_report, newton_solve, sparse_solve)
from ncfem.spaces import DiscreteFunction, SpaceTag


def zero_load(pts):
    return np.zeros(np.shape(pts)[:-1])


NS = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY, f=zero_load)


def test_sparse_solve_identity():
    A = sp.identity(4, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(sparse_solve(A, rhs), rhs)


def test_sparse_solve_diagonal():
    A = sp.diags([2.0, 4.0]).tocsr()
    assert np.allclose(sparse_solve(A, np.array([2.0, 4.0])), [1.0, 1.0])


def test_sparse_solve_random_spd():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((50, 50))
    A = sp.csr_matrix(M @ M.T + 50 * np.eye(50))
    x = rng.standard_normal(50)
    rhs = A @ x
    sol = sparse_solve(A, rhs)
    assert np.abs(A @ sol - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


def test_sparse_solve_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RuntimeError, match="singular"):
        sparse_solve(A, np.array([1.0, 0.0]))


def test_energy_dual_norm_basics():
    G = sp.identity(3, format="csr")
    assert energy_dual_norm(np.zeros(3), G) == 0.0
    r = np.array([3.0, 4.0, 0.0])
    assert energy_dual_norm(r, G) == pytest.approx(5.0)
    assert energy_dual_norm(2 * r, G) == pytest.approx(10.0, rel=1e-12)


def test_energy_dual_norm_weighted():
    G = sp.diags([4.0, 1.0]).tocsr()
    assert energy_dual_norm(np.array([2.0, 0.0]), G) == pytest.approx(1.0)


def test_newton_linear_problem_one_iteration(square8):
    problem = manufactured("cr_sine").problem
    dm = cr_dofmap(square8)
    U, trace = newton_solve(square8, dm, problem)
    assert trace.converged
    assert trace.iterations == 1


def test_newton_fixed_point(square8):
    man = manufactured("ns_poly")
    dm = morley_dofmap(square8)
    U, trace = newton_solve(square8, dm, man.problem)
    assert trace.converged
    U2, trace2 = newton_solve(square8, dm, man.problem, U0=U)
    assert trace2.converged
    assert trace2.iterations == 0
    assert np.array_equal(U2.coeffs, U.coeffs)


def test_newton_from_interpolant_converges_quickly():
    man = manufactured("ns_poly")
    mesh = refine(builtin_domain("unit_square"), 3)  # h_max = sqrt(2)/8
    dm = morley_dofmap(mesh)
    U0 = morley_interpolate(mesh, dm, man.exact[0])
    U, trace = newton_solve(mesh, dm, man.problem, U0=U0, tol=1e-10)
    assert trace.converged
    assert trace.iterations <= 6


def test_newton_max_iter_reports_failure(square8):
    man = manufactured("ns_poly")
    dm = morley_dofmap(square8)
    _, trace = newton_solve(square8, dm, man.problem, max_iter=0)
    assert not trace.converged
    assert trace.iterations == 0


def test_newton_rejects_bad_tol(square8):
    with pytest.raises(ValueError):
        newton_solve(square8, morley_dofmap(square8),
                     manufactured("ns_poly").problem, tol=0.0)


def test_kantorovich_linear_degenerate(square8):
    problem = manufactured("cr_sine").problem
    rep = kantorovich_report(square8, cr_dofmap(square8), problem, n_samples=5)
    assert rep.gamma_norm_estimate == 0.0
    assert rep.m == 0.0 and rep.h == 0.0 and rep.r_minus == 0.0
    assert rep.rho == np.inf
    assert rep.condition_met


def test_kantorovich_beta0_of_energy_operator(square8):
    dm = morley_dofmap(square8)
    zero = DiscreteFunction(SpaceTag.MORLEY, 1, np.zeros(dm.n_free))
    rep = kantorovich_report(square8, dm, NS, zero, n_samples=10)
    assert rep.beta0 == pytest.approx(1.0, abs=1e-8)


def test_kantorovich_ns_manufactured_fine_mesh():
    man = manufactured("ns_poly")
    mesh = refine(builtin_domain("unit_square"), 3)
    dm = morley_dofmap(mesh)
    U0 = morley_interpolate(mesh, dm, man.exact[0])
    rep = kantorovich_report(mesh, dm, man.problem, U0, n_samples=300)
    assert rep.h < 0.5
    assert rep.condition_met
    assert 0.0 <= rep.r_minus <= rep.rho


def test_kantorovich_r_minus_nonnegative_identity():
    # (1 - sqrt(1 - 2h)) / m >= delta holds identically for h = delta m <= 1/2
    for delta, m in [(0.1, 3.0), (0.2, 2.4), (1e-6, 1.0)]:
        h = delta * m
        if h > 0.5:
            continue
        r_minus = (1 - np.sqrt(1 - 2 * h)) / m - delta
        assert r_minus >= -1e-15


def test_gamma_norm_estimate_is_lower_bound_and_grows_with_refinement(square8):
    dm = morley_dofmap(square8)
    lo = gamma_norm_lower_bound(square8, dm, NS, n_samples=50, seed=0,
                                refine_rounds=0)
    hi = gamma_norm_lower_bound(square8, dm, NS, n_samples=50, seed=0,
                                refine_rounds=6)
    assert 0.0 < lo <= hi


def test_infsup_trivial_identity():
    G = sp.identity(6, format="csr")
    assert infsup_constant(G, G, G) == pytest.approx(1.0, abs=1e-8)


def test_infsup_diag_epsilon():
    B = sp.diags([1.0, 1e-4]).tocsr()
    I2 = sp.identity(2, format="csr")
    assert infsup_constant(B, I2, I2) == pytest.approx(1e-4, rel=1e-8)


def test_infsup_rejects_nonsymmetric_gram():
    B = sp.identity(2, format="csr")
    G = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        infsup_constant(B, G, G)


def test_infsup_rejects_indefinite_gram():
    B = sp.identity(2, format="csr")
    G = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="positive definite"):
        infsup_constant(B, B, G)
    # zero diagonal: the LU needs a row swap, after which diag(U) = (1, 1)
    G = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        infsup_constant(B, B, G)


def test_infsup_basis_change_invariance(square32):
    problem = manufactured("cr_sine").problem
    dm = cr_dofmap(square32)
    asm = assembler(square32, dm, problem)
    B = (asm.a_matrix() + asm.b_matrix()).T.toarray()
    G = asm.gram().toarray()
    beta = infsup_constant(B, G, G)
    rng = np.random.default_rng(8)
    n = B.shape[0]
    T = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    beta2 = infsup_constant(T.T @ B, T.T @ G @ T, G)
    assert beta2 == pytest.approx(beta, abs=1e-8)


def test_infsup_iterative_path_matches_dense(square32):
    problem = manufactured("cr_sine").problem
    dm = cr_dofmap(square32)
    asm = assembler(square32, dm, problem)
    B = (asm.a_matrix() + asm.b_matrix()).T.tocsr()
    G = asm.gram()
    Bd, Gd = B.toarray(), G.toarray()
    A = Bd @ scipy.linalg.solve(Gd, Bd.T, assume_a="pos")
    lam = scipy.linalg.eigh(A, Gd, eigvals_only=True, subset_by_index=(0, 0))
    assert infsup_constant(B, G, G) == pytest.approx(np.sqrt(lam[0]), rel=1e-8)


def test_infsup_bitwise_deterministic(square32):
    problem = manufactured("cr_sine").problem
    dm = cr_dofmap(square32)
    asm = assembler(square32, dm, problem)
    B = (asm.a_matrix() + asm.b_matrix()).T.tocsr()
    G = asm.gram()
    first = infsup_constant(B, G, G)
    assert infsup_constant(B, G, G) == first
    # an unrelated ARPACK call in between must not shift the start vector
    scipy.sparse.linalg.eigsh(sp.diags(np.arange(1.0, 41.0)), k=2)
    assert infsup_constant(B, G, G) == first


@pytest.mark.parametrize("name, n", [("ns_poly", 961), ("vk_poly", 1922)])
def test_kantorovich_beta0_matches_dense_svd(name, n):
    man = manufactured(name)
    mesh = refine(builtin_domain("unit_square"), 4)
    dm = morley_dofmap(mesh)
    U0 = morley_interpolate(mesh, dm, man.exact)
    assert len(U0.coeffs) == n
    asm = assembler(mesh, dm, man.problem)
    J, G = asm.jacobian(U0).toarray(), asm.gram().toarray()
    L = scipy.linalg.cholesky(G, lower=True)
    K = scipy.linalg.solve_triangular(L, J, lower=True)
    K = scipy.linalg.solve_triangular(L, K.T, lower=True).T
    dense = scipy.linalg.svdvals(K)[-1]
    rep = kantorovich_report(mesh, dm, man.problem, U0, n_samples=5)
    assert rep.beta0 == pytest.approx(dense, rel=1e-8)


def test_embedding_ratio_positive_and_finite(square32):
    dm = morley_dofmap(square32)
    r = discrete_embedding_ratio(square32, dm, n_samples=20, seed=1)
    assert 0.0 < r < 10.0
