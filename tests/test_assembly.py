import numpy as np
import pytest

from conftest import cr_dofmap, morley_dofmap, random_function
from ncfem.assembly import Assembler, assembler, gamma_ns, gamma_vk
from ncfem.mesh import build_from_arrays, builtin_domain, refine
from ncfem.problems import ProblemKind, ProblemSpec, manufactured
from ncfem.solve import energy_dual_norm, fd_jacobian, sparse_solve
from ncfem.spaces import DiscreteFunction, SpaceTag, build_dofmap
from ncfem.interpolation import morley_interpolate


def zero_load(pts):
    return np.zeros(np.shape(pts)[:-1])


NS = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY, f=zero_load)
VK = ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY, f=zero_load)


def cr_problem(b=None, gamma=None):
    def ident(pts):
        out = np.zeros(np.shape(pts)[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        return out

    return ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR, f=zero_load, A=ident,
                       b=b, gamma=gamma)


def test_morley_a_pw_definite_and_symmetric(square8, square32, lshape):
    rng = np.random.default_rng(0)
    for mesh in (square8, square32, lshape):
        dm = morley_dofmap(mesh)
        A = assembler(mesh, dm, NS).a_matrix()
        dense = A.toarray()
        assert np.abs(dense - dense.T).max() < 1e-12
        assert np.linalg.eigvalsh(dense).min() > 0
        for _ in range(5):
            e = rng.standard_normal(dm.n_free)
            assert e @ (A @ e) > 0


def test_cr_stiffness_closed_form_reference_triangle():
    m = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    dm = cr_dofmap(m)
    asm = Assembler(m, dm, cr_problem())
    expected = np.array([[4.0, -2.0, -2.0], [-2.0, 2.0, 0.0], [-2.0, 0.0, 2.0]])
    assert np.allclose(asm.a_loc[0], expected, atol=1e-13)


def test_b_pw_zero_and_mass(square8):
    dm = cr_dofmap(square8)
    B0 = assembler(square8, dm, cr_problem()).b_matrix()
    assert B0.nnz == 0 or np.abs(B0.toarray()).max() == 0.0

    one = lambda pts: np.ones(np.shape(pts)[:-1])
    M = assembler(square8, dm, cr_problem(gamma=one)).b_matrix().toarray()
    assert np.abs(M - M.T).max() < 1e-12
    assert np.linalg.eigvalsh(M).min() > 0


def test_indefinite_symmetric_part(square32):
    mesh = refine(square32, 1)  # 128 triangles
    dm = cr_dofmap(mesh)
    problem = manufactured("cr_sine").problem
    asm = assembler(mesh, dm, problem)
    M = (asm.a_matrix() + asm.b_matrix()).toarray()
    sym = 0.5 * (M + M.T)
    assert np.linalg.eigvalsh(sym).min() < 0


def test_gamma_ns_antisymmetry(square8):
    rng = np.random.default_rng(1)
    dm = morley_dofmap(square8)
    for _ in range(100):
        eta, chi = random_function(dm, rng), random_function(dm, rng)
        scale = max(1.0, abs(gamma_ns(square8, dm, eta, eta, chi)))
        assert abs(gamma_ns(square8, dm, eta, chi, chi)) < 1e-12 * scale


def test_gamma_ns_skew_in_last_two_slots(square8):
    rng = np.random.default_rng(2)
    dm = morley_dofmap(square8)
    eta, chi, phi = (random_function(dm, rng) for _ in range(3))
    assert gamma_ns(square8, dm, eta, chi, phi) == pytest.approx(
        -gamma_ns(square8, dm, eta, phi, chi), abs=1e-12)
    zero = DiscreteFunction(SpaceTag.MORLEY, 1, np.zeros(dm.n_free))
    assert gamma_ns(square8, dm, zero, chi, phi) == 0.0
    assert gamma_ns(square8, dm, eta, zero, phi) == 0.0


def test_vk_bracket_symmetry(square8):
    rng = np.random.default_rng(3)
    dm = morley_dofmap(square8)
    asm = Assembler(square8, dm, VK)
    from ncfem.spaces import local_coefficients

    for _ in range(100):
        ce, cc, cp = (local_coefficients(dm, random_function(dm, rng))
                      for _ in range(3))
        assert asm.vk_b_pw(ce, cc, cp) == pytest.approx(
            asm.vk_b_pw(cc, ce, cp), abs=1e-12)


def test_vk_bracket_constant_hessian_value():
    # [u, u] = 2 det(H) for a quadratic with hessian H; interpolate with the
    # full dof vector since the quadratic is not clamped
    m = refine(builtin_domain("unit_square"), 1)
    dm = morley_dofmap(m)
    from ncfem.interpolation import morley_dof_values
    from ncfem.problems import polynomial_field

    # u = x^2 + 3xy - y^2 has constant hessian [[2, 3], [3, -2]], det = -13
    c = np.zeros((3, 3))
    c[2, 0], c[1, 1], c[0, 2] = 1.0, 3.0, -1.0
    cu = morley_dof_values(m, polynomial_field(c))[dm.element_dofs]
    vals = np.einsum("ti,tij,tj->t", cu, Assembler(m, dm, VK).Br, cu)
    assert np.allclose(vals, 2 * (-13.0), atol=1e-10)


def test_gamma_vk_structure(square8):
    rng = np.random.default_rng(4)
    dm = morley_dofmap(square8)
    Xi = random_function(dm, rng, n_components=2)
    Theta = random_function(dm, rng, n_components=2)
    # zero second components: only the first-equation couplings survive
    half = dm.n_free
    Xi0 = DiscreteFunction(SpaceTag.MORLEY, 2,
                           np.concatenate([Xi.coeffs[:half], np.zeros(half)]))
    Phi2 = DiscreteFunction(SpaceTag.MORLEY, 2,
                            np.concatenate([np.zeros(half),
                                            rng.standard_normal(half)]))
    asm = Assembler(square8, dm, VK)
    from ncfem.spaces import local_coefficients
    x1 = local_coefficients(dm, Xi0, 0)
    t1 = local_coefficients(dm, Theta, 0)
    p2 = local_coefficients(dm, Phi2, 1)
    expected = -asm.vk_b_pw(x1, t1, p2)
    assert gamma_vk(square8, dm, Xi0, Theta, Phi2) == pytest.approx(
        expected, abs=1e-12)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("problem", [NS, VK], ids=["ns", "vk"])
def test_gamma_gradient_matches_value(square32, problem, slot):
    # Gamma is linear in each slot, so its gradient there, dotted with that
    # slot's coefficients, gives Gamma back
    rng = np.random.default_rng(slot)
    dm = morley_dofmap(square32)
    args = [random_function(dm, rng, n_components=problem.n_components)
            for _ in range(3)]
    asm = Assembler(square32, dm, problem)
    value = (asm.gamma_ns_value if problem is NS else asm.gamma_vk_value)(*args)
    w = asm.gamma_gradient(slot, *args)
    assert w @ args[slot].coeffs == pytest.approx(value, rel=1e-12)
    assert abs(value) > 1e-3 * np.linalg.norm(w)


def test_residual_zero_state_zero_load(square8):
    dm = morley_dofmap(square8)
    U = DiscreteFunction(SpaceTag.MORLEY, 1, np.zeros(dm.n_free))
    assert np.abs(assembler(square8, dm, NS).residual(U)).max() == 0.0


def test_residual_vanishes_at_discrete_solution(square8):
    problem = manufactured("cr_sine").problem
    dm = cr_dofmap(square8)
    asm = assembler(square8, dm, problem)
    A = (asm.a_matrix() + asm.b_matrix()).tocsc()
    F = asm.load()
    u = DiscreteFunction(SpaceTag.CROUZEIX_RAVIART, 1, sparse_solve(A, F))
    r = asm.residual(u)
    assert np.abs(r).max() < 1e-10 * (1 + np.abs(F).max())


def test_residual_dual_norm_rate_at_interpolant():
    man = manufactured("ns_poly")
    mesh = refine(builtin_domain("unit_square"), 1)
    norms = []
    for _ in range(4):
        dm = morley_dofmap(mesh)
        U = morley_interpolate(mesh, dm, man.exact[0], edge_degree=10)
        asm = assembler(mesh, dm, man.problem)
        norms.append(energy_dual_norm(asm.residual(U), asm.gram()))
        mesh = refine(mesh, 1)
    rate = np.log2(norms[-2] / norms[-1])
    assert rate > 0.8


@pytest.mark.parametrize("name", ["cr_sine", "ns_poly", "vk_poly"])
def test_jacobian_matches_finite_differences(name, square8):
    problem = manufactured(name).problem
    space = (SpaceTag.CROUZEIX_RAVIART
             if problem.kind is ProblemKind.SECOND_ORDER_CR else SpaceTag.MORLEY)
    dm = build_dofmap(square8, space)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        U = random_function(dm, rng, n_components=problem.n_components,
                            scale=0.3)
        J = assembler(square8, dm, problem).jacobian(U).toarray()
        fd = fd_jacobian(square8, dm, problem, U)
        worst = max(worst, np.abs(J - fd).max() / max(1.0, np.abs(fd).max()))
    assert worst < 1e-6


def test_jacobian_at_zero_is_a_pw(square8):
    dm = morley_dofmap(square8)
    U0 = DiscreteFunction(SpaceTag.MORLEY, 1, np.zeros(dm.n_free))
    J = assembler(square8, dm, NS).jacobian(U0)
    A = assembler(square8, dm, NS).a_matrix()
    assert np.abs((J - A).toarray()).max() < 1e-14


def test_jacobian_affine_in_state(square8):
    rng = np.random.default_rng(6)
    dm = morley_dofmap(square8)
    U1, U2 = random_function(dm, rng), random_function(dm, rng)
    U12 = DiscreteFunction(SpaceTag.MORLEY, 1, U1.coeffs + U2.coeffs)
    U0 = DiscreteFunction(SpaceTag.MORLEY, 1, np.zeros(dm.n_free))
    asm = assembler(square8, dm, NS)
    combo = (asm.jacobian(U12) - asm.jacobian(U1) - asm.jacobian(U2)
             + asm.jacobian(U0))
    assert np.abs(combo.toarray()).max() < 1e-12


def test_cr_jacobian_independent_of_state(square8):
    problem = manufactured("cr_sine").problem
    dm = cr_dofmap(square8)
    rng = np.random.default_rng(7)
    asm = assembler(square8, dm, problem)
    J1 = asm.jacobian(random_function(dm, rng))
    J2 = asm.jacobian(random_function(dm, rng))
    assert np.abs((J1 - J2).toarray()).max() == 0.0


def test_spd_bounds_spot_check(square8):
    def bad_A(pts):
        out = np.zeros(np.shape(pts)[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 5.0   # violates declared upper bound
        return out

    problem = ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR, f=zero_load,
                          A=bad_A, lambda_bounds=(1.0, 2.0))
    with pytest.raises(ValueError, match="bounds"):
        Assembler(square8, cr_dofmap(square8), problem)


def test_piecewise_constant_coefficient_sampling(square8):
    # discontinuous along mesh lines: centroid sampling must not smear it
    def gamma(pts):
        pts = np.asarray(pts)
        return np.where(pts[..., 0] + pts[..., 1] < 1.0, 2.0, 3.0)

    def ident(pts):
        out = np.zeros(np.shape(pts)[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        return out

    p = ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR, f=zero_load, A=ident,
                    gamma=gamma, piecewise_constant=True)
    dm = cr_dofmap(square8)
    M = assembler(square8, dm, p).b_matrix().toarray()
    # mass matrix with elementwise-constant weight: compare against manual sum
    from ncfem.assembly import Assembler as _A
    asm = _A(square8, dm, p)
    cent = square8.vertices[square8.triangles].mean(axis=1)
    w = gamma(cent)
    assert set(np.round(np.unique(w), 12)) == {2.0, 3.0}
    assert np.abs(M - M.T).max() < 1e-12
