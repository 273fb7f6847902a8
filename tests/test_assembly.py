import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse

from conftest import (MorleyByInverse, b_pw, cr_dofmap, free_index,
                      morley_dofmap, random_function, volume_rule)
from ncfem.assembly import (Assembler, _scatter_matrix, _scatter_vector,
                            assembler)
from ncfem.mesh import build_from_arrays, builtin_domain, geometry, refine
from ncfem.problems import ProblemKind, ProblemSpec, manufactured
from ncfem.quadrature import quad_triangle
from ncfem.solve import _gram_factor, fd_jacobian, sparse_solve
from ncfem.spaces import element_dofs, local_coefficients
import ncfem.spaces
from ncfem.interpolation import interpolate


def zero_load(pts):
    return np.zeros(np.shape(pts)[:-1])


NS = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY, f=zero_load)
VK = ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY, f=zero_load)


def vk_b(asm, c_eta, c_chi, c_phi):
    """The von Karman form b(eta, chi, phi) = -1/2 sum_T (eta^T Br chi)(IV . phi)
    on local coefficients, written out apart from Assembler.gamma_gradient."""
    q = np.einsum("ti,tij,tj->t", c_eta, asm.Br, c_chi)
    return float(-0.5 * np.einsum("t,tk,tk->", q, asm.IV, c_phi))


def gamma_oracle(asm, x, y, z):
    """Gamma(x, y, z) summed elementwise from the factored element tensors:
    (tr H . x)(y^T S z) for Navier-Stokes, and for von Karman
    b(x1, y2, z1) + b(x2, y1, z1) - b(x1, y1, z2) from vk_b."""
    dm = asm.dofmap
    if asm.problem.kind is ProblemKind.NAVIER_STOKES_MORLEY:
        cx, cy, cz = (local_coefficients(dm, u) for u in (x, y, z))
        return float(((asm.trH * cx).sum(1)
                      * np.einsum("ti,tik,tk->t", cy, asm.S, cz)).sum())
    x1, x2 = (local_coefficients(dm, x, c) for c in (0, 1))
    y1, y2 = (local_coefficients(dm, y, c) for c in (0, 1))
    z1, z2 = (local_coefficients(dm, z, c) for c in (0, 1))
    return vk_b(asm, x1, y2, z1) + vk_b(asm, x2, y1, z1) - vk_b(asm, x1, y1, z2)


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
        A = assembler(mesh, NS).gram()
        dense = A.toarray()
        assert np.abs(dense - dense.T).max() < 1e-12
        assert np.linalg.eigvalsh(dense).min() > 0
        for _ in range(5):
            e = rng.standard_normal(dm.n_free)
            assert e @ (A @ e) > 0


def test_cr_stiffness_closed_form_reference_triangle():
    m = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    asm = Assembler(m, cr_problem())
    a_loc, _ = asm._init_cr(asm.tables.values_at(quad_triangle(4).points)[0])
    expected = np.array([[4.0, -2.0, -2.0], [-2.0, 2.0, 0.0], [-2.0, 0.0, 2.0]])
    assert np.allclose(a_loc[0], expected, atol=1e-13)


def test_b_pw_zero_and_mass(square8):
    B0 = b_pw(assembler(square8, cr_problem()))
    assert B0.nnz == 0 or np.abs(B0.toarray()).max() == 0.0

    one = lambda pts: np.ones(np.shape(pts)[:-1])
    M = b_pw(assembler(square8, cr_problem(gamma=one))).toarray()
    assert np.abs(M - M.T).max() < 1e-12
    assert np.linalg.eigvalsh(M).min() > 0


def test_cr_jacobian_is_one_matrix_a_pw_plus_b_pw(square32):
    """The CR problem is linear: set-up assembles J = a_pw + b_pw once, and
    jacobian hands that matrix out for every state."""
    asm = Assembler(refine(square32, 1), manufactured("cr_sine"))
    rng = np.random.default_rng(4)
    U, V = (rng.standard_normal(asm.dofmap.n_free) for _ in range(2))
    J = asm.jacobian(U)
    assert J is asm.jacobian(V) and J is asm.jacobian(None)
    ref = asm.gram() + b_pw(asm)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(J, attr), getattr(ref, attr))


def test_cr_jacobian_shares_the_index_arrays_of_g(square32):
    """J = a_pw + b_pw is built on G's pattern: its indices and indptr are
    G's own arrays, and it equals G + b_pw entry for entry."""
    asm = Assembler(refine(square32, 1), manufactured("cr_sine"))
    G, J = asm.gram(), asm.jacobian(None)
    assert np.shares_memory(J.indices, G.indices)
    assert np.shares_memory(J.indptr, G.indptr)
    assert not np.shares_memory(J.data, G.data)
    assert (J != G + b_pw(asm)).nnz == 0


def test_indefinite_symmetric_part(square32):
    mesh = refine(square32, 1)  # 128 triangles
    problem = manufactured("cr_sine")
    asm = assembler(mesh, problem)
    M = asm.jacobian(None).toarray()
    sym = 0.5 * (M + M.T)
    assert np.linalg.eigvalsh(sym).min() < 0


def test_gamma_ns_antisymmetry(square8):
    rng = np.random.default_rng(1)
    dm = morley_dofmap(square8)
    value = assembler(square8, NS).gamma_ns_value
    for _ in range(100):
        eta, chi = random_function(dm, rng), random_function(dm, rng)
        scale = max(1.0, abs(value(eta, eta, chi)))
        assert abs(value(eta, chi, chi)) < 1e-12 * scale


@pytest.mark.parametrize("mesh", ["lshape", "graded"])
def test_ns_element_tensors_match_quadrature(mesh, lshape, graded_lshape):
    """S from grad lambda and the bubble weights against the degree-4 rule
    (exact for the quadratic integrand) applied to grads_at, and the energy
    element matrices of _init_morley against the hessian pairing of the
    monomial dof-matrix oracle."""
    m = lshape if mesh == "lshape" else graded_lshape[1]
    asm = Assembler(m, NS)
    tab = asm.tables
    rule = quad_triangle(4)
    _, wdx = volume_rule(m, 4)
    g = tab.grads_at(rule.points)                          # (nt, nq, 6, 2)
    gx, gy = g[..., 0], g[..., 1]
    S = (np.einsum("tq,tqj,tqk->tjk", wdx, gy, gx)
         - np.einsum("tq,tqj,tqk->tjk", wdx, gx, gy))
    scale = np.abs(S).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(asm.S - S) <= 1e-12 * scale)
    assert np.array_equal(asm.S, -np.transpose(asm.S, (0, 2, 1)))
    a_loc = asm._init_morley(tab.bubble_weights())
    hess = MorleyByInverse(m).hess
    a = np.einsum("t,tiab,tjab->tij", asm.geom.area, hess, hess)
    scale = np.abs(a).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(a_loc - a) <= 1e-12 * scale)


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "ns_unit_load"])
def test_closed_forms_match_the_quadrature_of_the_oracle(name, graded_lshape):
    """The energy element matrices E, tr H and S (Navier-Stokes) or Br and
    IV (von Karman), and the loads, all from grad lambda and the bubble
    weights, against the degree-4 rule applied to the basis of the monomial
    dof-matrix oracle on the graded L-shape: exact for every integrand but
    the loads', which it samples at the same points.  Element tensors agree
    to 1e-12 of their largest entry, and each load entry to 1e-12 of the sum
    of its element contributions in absolute value."""
    m = graded_lshape[1]
    problem = manufactured(name)
    asm, ref = Assembler(m, problem), MorleyByInverse(m)
    dm, area, hess = asm.dofmap, asm.geom.area, ref.hess
    xq, wdx = volume_rule(m, 4)
    tris = np.arange(m.n_triangles)
    vals, grads = ref.values_at(tris, xq), ref.grads_at(tris, xq)

    def close(got, want):
        scale = np.abs(want).max(axis=tuple(range(1, want.ndim)), keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    close(asm._init_morley(asm.tables.bubble_weights()),
          np.einsum("t,tiab,tjab->tij", area, hess, hess))
    hxx, hxy, hyy = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
    if problem.kind is ProblemKind.NAVIER_STOKES_MORLEY:
        close(asm.trH, hxx + hyy)
        gx, gy = grads[..., 0], grads[..., 1]
        close(asm.S, np.einsum("tq,tqj,tqk->tjk", wdx, gy, gx)
              - np.einsum("tq,tqj,tqk->tjk", wdx, gx, gy))
    else:
        close(asm.Br, np.einsum("ti,tj->tij", hxx, hyy)
              + np.einsum("ti,tj->tij", hyy, hxx)
              - 2.0 * np.einsum("ti,tj->tij", hxy, hxy))
        close(asm.IV, np.einsum("tq,tqk->tk", wdx, vals))
    loads = [fn for fn in (problem.f, problem.g) if fn is not None]
    assert len(asm.load()) == problem.n_components * dm.n_free
    for c, fn in enumerate(loads):
        loc = np.einsum("tq,tqk->tk", wdx * fn(xq), vals)
        got = asm.load()[c * dm.n_free:(c + 1) * dm.n_free]
        scale = _scatter_vector(np.abs(loc), dm)
        assert np.all(np.abs(got - _scatter_vector(loc, dm)) <= 1e-12 * scale)


@pytest.mark.parametrize("mesh", ["lshape", "graded"])
def test_gamma_ns_value_matches_quadrature(mesh, lshape, graded_lshape):
    """gamma_ns_value against sum_T int_T Delta(eta) (chi_y phi_x - chi_x phi_y)
    by the degree-4 rule on grads_at (exact for the quadratic integrand), with
    the constant Laplacians of the monomial dof-matrix oracle, for random
    triples.  The L-shape is
    refined once: with no interior vertex Gamma vanishes on it.  The graded
    sum cancels (sum_T |Gamma_T| reaches 1300 |Gamma|), so the tolerance is
    relative to sum_T |Gamma_T|."""
    m = refine(lshape, 1) if mesh == "lshape" else graded_lshape[1]
    asm = Assembler(m, NS)
    dm, tab = asm.dofmap, asm.tables
    _, wdx = volume_rule(m, 4)
    g = tab.grads_at(quad_triangle(4).points)              # (nt, nq, 6, 2)
    hess = MorleyByInverse(m).hess
    lap = hess[:, :, 0, 0] + hess[:, :, 1, 1]             # (nt, 6)
    rng = np.random.default_rng(7)
    for _ in range(5):
        eta, chi, phi = (random_function(dm, rng) for _ in range(3))
        ce, cc, cp = (local_coefficients(dm, u) for u in (eta, chi, phi))
        gc = np.einsum("tqja,tj->tqa", g, cc)
        gp = np.einsum("tqja,tj->tqa", g, cp)
        cross = gc[..., 1] * gp[..., 0] - gc[..., 0] * gp[..., 1]
        per_t = (np.einsum("tj,tj->t", lap, ce)
                 * np.einsum("tq,tq->t", wdx, cross))
        exact, scale = per_t.sum(), np.abs(per_t).sum()
        assert abs(exact) > 1e-6 * scale
        assert abs(asm.gamma_ns_value(eta, chi, phi) - exact) <= 1e-12 * scale


def test_gamma_ns_skew_in_last_two_slots(square8):
    rng = np.random.default_rng(2)
    dm = morley_dofmap(square8)
    eta, chi, phi = (random_function(dm, rng) for _ in range(3))
    value = assembler(square8, NS).gamma_ns_value
    assert value(eta, chi, phi) == pytest.approx(
        -value(eta, phi, chi), abs=1e-12)
    zero = np.zeros(dm.n_free)
    assert value(zero, chi, phi) == 0.0
    assert value(eta, zero, phi) == 0.0


def test_vk_bracket_symmetry(square8):
    rng = np.random.default_rng(3)
    dm = morley_dofmap(square8)
    asm = Assembler(square8, VK)

    for _ in range(100):
        ce, cc, cp = (local_coefficients(dm, random_function(dm, rng))
                      for _ in range(3))
        assert vk_b(asm, ce, cc, cp) == pytest.approx(
            vk_b(asm, cc, ce, cp), abs=1e-12)


def test_vk_bracket_constant_hessian_value():
    # [u, u] = 2 det(H) for a quadratic with hessian H; interpolate with the
    # full dof vector since the quadratic is not clamped
    m = refine(builtin_domain("unit_square"), 1)
    dm = morley_dofmap(m)
    from ncfem.interpolation import dof_values
    from ncfem.problems import polynomial_field

    # u = x^2 + 3xy - y^2 has constant hessian [[2, 3], [3, -2]], det = -13
    c = np.zeros((3, 3))
    c[2, 0], c[1, 1], c[0, 2] = 1.0, 3.0, -1.0
    cu = dof_values(m, dm.space, polynomial_field(c))[0][element_dofs(m, dm.space)]
    vals = np.einsum("ti,tij,tj->t", cu, Assembler(m, VK).Br, cu)
    assert np.allclose(vals, 2 * (-13.0), atol=1e-10)


def test_gamma_vk_structure(square8):
    rng = np.random.default_rng(4)
    dm = morley_dofmap(square8)
    Xi = random_function(dm, rng, n_components=2)
    Theta = random_function(dm, rng, n_components=2)
    # zero second components: only the first-equation couplings survive
    half = dm.n_free
    Xi0 = np.concatenate([Xi[:half], np.zeros(half)])
    Phi2 = np.concatenate([np.zeros(half), rng.standard_normal(half)])
    asm = Assembler(square8, VK)
    x1 = local_coefficients(dm, Xi0, 0)
    t1 = local_coefficients(dm, Theta, 0)
    p2 = local_coefficients(dm, Phi2, 1)
    expected = -vk_b(asm, x1, t1, p2)
    assert asm.gamma_vk_value(Xi0, Theta, Phi2) == pytest.approx(
        expected, abs=1e-12)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("problem", [NS, VK], ids=["ns", "vk"])
def test_gamma_gradient_matches_value(square32, problem, slot):
    # Gamma is linear in each slot, so its gradient there, dotted with that
    # slot's coefficients, gives Gamma back; the written-out form is the
    # oracle, since the value methods contract the slot-2 gradient
    rng = np.random.default_rng(slot)
    dm = morley_dofmap(square32)
    args = [random_function(dm, rng, n_components=problem.n_components)
            for _ in range(3)]
    asm = Assembler(square32, problem)
    value = gamma_oracle(asm, *args)
    w = asm.gamma_gradient(slot, *args)
    assert w @ args[slot] == pytest.approx(value, rel=1e-12)
    assert abs(value) > 1e-3 * np.linalg.norm(w)


def _gamma_gradient_gathering_all(asm, slot, x, y, z):
    """Assembler.gamma_gradient's contractions, with the local coefficients
    of all three arguments gathered (the z coefficients and their integrals
    IV . z also for the vk slot 2, which reads neither)."""
    dm = asm.dofmap
    if asm.problem.kind is ProblemKind.NAVIER_STOKES_MORLEY:
        cx, cy, cz = (local_coefficients(dm, u) for u in (x, y, z))
        if slot == 0:
            sz = np.einsum("tjk,tk->tj", asm.S, cz)
            loc = asm.trH * np.einsum("tj,tj->t", cy, sz)[:, None]
        else:
            su = (np.einsum("tjk,tk->tj", asm.S, cz) if slot == 1
                  else np.einsum("tj,tjk->tk", cy, asm.S))
            loc = np.einsum("ti,ti->t", asm.trH, cx)[:, None] * su
        return _scatter_vector(loc, dm)
    p1, p2 = (local_coefficients(dm, z, c) for c in (0, 1))
    iv1 = np.einsum("tk,tk->t", asm.IV, p1)
    iv2 = np.einsum("tk,tk->t", asm.IV, p2)
    if slot < 2:
        o1, o2 = (local_coefficients(dm, y if slot == 0 else x, c)
                  for c in (0, 1))
        bo1 = np.einsum("tij,tj->ti", asm.Br, o1)
        bo2 = np.einsum("tij,tj->ti", asm.Br, o2)
        g1 = 0.5 * (iv2[:, None] * bo1 - iv1[:, None] * bo2)
        g2 = -0.5 * iv1[:, None] * bo1
    else:
        x1, x2 = (local_coefficients(dm, x, c) for c in (0, 1))
        by1, by2 = (np.einsum("tij,tj->ti", asm.Br, local_coefficients(dm, y, c))
                    for c in (0, 1))
        q12 = np.einsum("ti,ti->t", x1, by2)
        q21 = np.einsum("ti,ti->t", x2, by1)        # = y1^T Br x2
        q11 = np.einsum("ti,ti->t", x1, by1)
        g1 = -0.5 * (q12 + q21)[:, None] * asm.IV
        g2 = 0.5 * q11[:, None] * asm.IV
    return np.concatenate([_scatter_vector(g1, dm), _scatter_vector(g2, dm)])


@pytest.mark.parametrize("problem", [NS, VK], ids=["ns", "vk"])
def test_gamma_gradient_gathers_only_what_the_slot_reads(square32, problem,
                                                        monkeypatch):
    # skipping the unread gathers changes no bit of any gradient; an ns
    # gradient gathers two arguments, a vk one two arguments of two
    # components each
    rng = np.random.default_rng(7)
    dm = morley_dofmap(square32)
    asm = Assembler(square32, problem)
    calls = []

    def spy(*args):
        calls.append(args)
        return local_coefficients(*args)

    for _ in range(3):
        args = [random_function(dm, rng, n_components=problem.n_components)
                for _ in range(3)]
        for slot in range(3):
            expected = _gamma_gradient_gathering_all(asm, slot, *args)
            with monkeypatch.context() as mp:
                mp.setattr("ncfem.assembly.local_coefficients", spy)
                calls.clear()
                w = asm.gamma_gradient(slot, *args)
            assert np.array_equal(w, expected)
            assert len(calls) == (2 if problem is NS else 4)
            assert all(c[1] is not args[slot] for c in calls)


@pytest.mark.parametrize("problem", [NS, VK], ids=["ns", "vk"])
def test_gamma_gradient_at_y_is_x_matches_the_general_path(square32, problem):
    """The residual passes y is x; the gradient does not depend on whether
    its arguments are one object, so a copy of x gives the same bits."""
    dm = morley_dofmap(square32)
    asm = Assembler(square32, problem)
    U = random_function(dm, np.random.default_rng(13),
                        n_components=problem.n_components)
    assert np.array_equal(asm.gamma_gradient(2, U, U, None),
                          asm.gamma_gradient(2, U, U.copy(), None))


def test_residual_zero_state_zero_load(square8):
    dm = morley_dofmap(square8)
    U = np.zeros(dm.n_free)
    assert np.abs(assembler(square8, NS).residual(U)).max() == 0.0


def test_residual_vanishes_at_discrete_solution(square8):
    problem = manufactured("cr_sine")
    asm = assembler(square8, problem)
    A = asm.jacobian(None).tocsc()
    F = asm.load()
    u = sparse_solve(A, F)
    r = asm.residual(u)
    assert np.abs(r).max() < 1e-10 * (1 + np.abs(F).max())


def test_residual_dual_norm_rate_at_interpolant():
    man = manufactured("ns_poly")
    mesh = refine(builtin_domain("unit_square"), 1)
    norms = []
    for _ in range(4):
        dm = morley_dofmap(mesh)
        U = interpolate(mesh, dm, man.exact[0], edge_degree=10)
        asm = assembler(mesh, man)
        r = asm.residual(U)
        norms.append(np.sqrt(r @ _gram_factor(asm.gram()).solve(r)))
        mesh = refine(mesh, 1)
    rate = np.log2(norms[-2] / norms[-1])
    assert rate > 0.8


@pytest.mark.parametrize("name", ["cr_sine", "ns_poly", "vk_poly"])
def test_jacobian_matches_finite_differences(name, square8):
    problem = manufactured(name)
    asm = assembler(square8, problem)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        U = random_function(asm.dofmap, rng,
                            n_components=problem.n_components, scale=0.3)
        J = asm.jacobian(U).toarray()
        fd = fd_jacobian(asm, U)
        worst = max(worst, np.abs(J - fd).max() / max(1.0, np.abs(fd).max()))
    assert worst < 1e-6


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly"])
def test_jacobian_differentiates_the_one_gamma(name, square32):
    # the residual is a_pw(U, .) + Gamma(U, U, .) - F with Gamma the slot-2
    # gradient, so J(U) d = a_pw(d, .) + Gamma(d, U, .) + Gamma(U, d, .)
    problem = manufactured(name)
    asm = Assembler(square32, problem)
    rng = np.random.default_rng(8)
    U, d = (random_function(asm.dofmap, rng, n_components=problem.n_components)
            for _ in range(2))
    nonlinear = asm.gamma_gradient(2, d, U, None) + asm.gamma_gradient(2, U, d, None)
    Jd = asm.jacobian(U) @ d
    assert np.linalg.norm(Jd - asm.gram() @ d - nonlinear) <= (
        1e-12 * np.linalg.norm(Jd))
    assert np.linalg.norm(nonlinear) > 1e-3 * np.linalg.norm(Jd)


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly"])
@pytest.mark.parametrize("domain", ["square32", "lshape", "graded_lshape"])
def test_jacobian_operator_matches_the_assembled_jacobian(name, domain, request):
    """The element-wise product of jacobian_operator is the product with the
    assembled J(U), to round-off."""
    mesh = request.getfixturevalue(domain)
    if domain == "graded_lshape":
        mesh = mesh[1]
    problem = manufactured(name)
    asm = Assembler(mesh, problem)
    rng = np.random.default_rng(9)
    U, v = (random_function(asm.dofmap, rng, n_components=problem.n_components)
            for _ in range(2))
    Jv = asm.jacobian(U) @ v
    assert np.linalg.norm(Jv) > 0
    assert np.linalg.norm(asm.jacobian_operator(U) @ v - Jv) <= (
        1e-13 * np.linalg.norm(Jv))


@pytest.mark.parametrize("name", ["cr_sine", "ns_poly", "vk_poly"])
def test_jacobian_operator_matches_finite_differences(name, square8):
    problem = manufactured(name)
    asm = Assembler(square8, problem)
    rng = np.random.default_rng(10)
    U = random_function(asm.dofmap, rng, n_components=problem.n_components,
                        scale=0.3)
    J = asm.jacobian_operator(U) @ np.eye(len(U))
    fd = fd_jacobian(asm, U)
    assert np.abs(J - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_jacobian_at_zero_is_a_pw(square8):
    dm = morley_dofmap(square8)
    U0 = np.zeros(dm.n_free)
    J = assembler(square8, NS).jacobian(U0)
    A = assembler(square8, NS).gram()
    assert np.abs((J - A).toarray()).max() < 1e-14


def test_jacobian_affine_in_state(square8):
    rng = np.random.default_rng(6)
    dm = morley_dofmap(square8)
    U1, U2 = random_function(dm, rng), random_function(dm, rng)
    U12 = U1 + U2
    U0 = np.zeros(dm.n_free)
    asm = assembler(square8, NS)
    combo = (asm.jacobian(U12) - asm.jacobian(U1) - asm.jacobian(U2)
             + asm.jacobian(U0))
    assert np.abs(combo.toarray()).max() < 1e-12


def test_cr_jacobian_independent_of_state(square8):
    problem = manufactured("cr_sine")
    dm = cr_dofmap(square8)
    rng = np.random.default_rng(7)
    asm = assembler(square8, problem)
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
        Assembler(square8, problem)


@pytest.mark.parametrize("breach", ["bounds", "symmetry"])
def test_a_breach_on_a_later_block_raises_as_on_one_block(breach, square32,
                                                          monkeypatch):
    """A leaves its declared bounds, or its symmetry, only inside the last
    element: with blocks of 7 elements (the breach in the fifth) set-up
    raises the message of a single whole-mesh block, as the symmetry
    defect, max |A| and the eigenvalue range build up over the blocks and
    are judged once.  A grows with x, so the least eigenvalue of the
    message is not that of the fifth block."""
    p0, p1, p2 = square32.vertices[square32.triangles[-1]]
    to_bary = np.linalg.inv(np.stack([p1 - p0, p2 - p0]))

    def A(pts):
        lam = (np.asarray(pts) - p0) @ to_bary
        inside = (lam > 0).all(axis=-1) & (lam.sum(axis=-1) < 1)
        out = np.zeros(np.shape(pts)[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0 + 0.2 * np.asarray(pts)[..., 0]
        if breach == "bounds":
            out[..., 1, 1] += 3.0 * inside
        else:
            out[..., 0, 1] += 0.5 * inside
        return out

    problem = ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR, f=zero_load,
                          A=A, lambda_bounds=(1.0, 2.0))
    messages = []
    for block in (square32.n_triangles, 7):
        monkeypatch.setattr(ncfem.spaces, "ELEMENT_BLOCK", block)
        with pytest.raises(ValueError) as err:
            Assembler(square32, problem)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert ("violate the declared bounds [1, 2]" if breach == "bounds"
            else "not symmetric") in messages[0]


def test_piecewise_constant_coefficient_sampling(square8):
    # the jump line x = 0.3 cuts triangles: centroid sampling gives each
    # triangle one weight, quadrature-point sampling mixes both
    def gamma(pts):
        return np.where(np.asarray(pts)[..., 0] < 0.3, 2.0, 3.0)

    def ident(pts):
        out = np.zeros(np.shape(pts)[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        return out

    xs = square8.vertices[square8.triangles][..., 0]
    assert ((xs.min(axis=1) < 0.3) & (xs.max(axis=1) > 0.3)).any()
    p = ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR, f=zero_load, A=ident,
                    gamma=gamma, piecewise_constant=True)
    asm = Assembler(square8, p)
    M = b_pw(asm).toarray()
    # the CR local mass is |T|/3 I, so M is diagonal with entries
    # sum_T w_T |T| / 3 over the triangles of each free edge
    w = gamma(square8.vertices[square8.triangles].mean(axis=1))
    assert set(np.unique(w)) == {2.0, 3.0}
    diag = np.zeros(asm.dofmap.n_free + 1)                  # last slot: fixed
    np.add.at(diag, asm.dofmap.slots, (w * asm.geom.area / 3.0)[:, None])
    assert np.allclose(M, np.diag(diag[:-1]), rtol=1e-13, atol=1e-15)
    smeared = Assembler(square8, replace(p, piecewise_constant=False))
    assert np.abs(b_pw(smeared).toarray() - M).max() > 1e-3


def _buffer(a):
    """The ndarray that owns the buffer of a."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _ndarray_bytes(root, skip):
    """Bytes of the distinct ndarray buffers reachable from root through
    instance attributes, containers and sparse matrices, never through skip
    or a callable, and never those of skip's own ndarray fields, however
    they are reached: what root holds besides skip."""
    buffers = {id(_buffer(a)) for a in vars(skip).values()
               if isinstance(a, np.ndarray)}
    seen, total, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if obj is skip or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = _buffer(obj)
            if id(base) not in buffers:
                buffers.add(id(base))
                total += base.nbytes
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and not callable(obj):
            stack.extend(vars(obj).values())
    return total


# ndarray bytes per triangle that one level may hold besides its mesh, on
# refine(l_shape, 5): 5%, 5% and 10% above 884 (ns), 1172 (vk) and 264 (CR)
# measured with G, the load and (CR) J = a_pw + b_pw built.  The closed-form
# Morley table holds grad lambda and B, the CR table its gradients alone,
# and the dof map its intp slots alone; the mesh's own arrays count nowhere,
# also where the level reaches them through its unbuilt edge geometry.  A
# table of the basis hessians (192 more) or the monomial coefficients of a
# Morley dof-matrix inverse (144 more) breaks the ns and vk budgets, the
# int64 global element dofs kept beside the slots (48 more) or a G in the
# COO-long buffers of tocsr (149 more) the ns one; J with index arrays of
# its own (35 more), in the buffers of the sum A + B (88 more), or grad
# lambda and the first vertices kept on the CR table (64 more) break the CR
# one, and keeping the energy element matrices breaks each
LEVEL_BYTES_PER_TRIANGLE = {"ns_poly": 929, "vk_poly": 1231, "cr_sine": 290}


@pytest.mark.parametrize("name", sorted(LEVEL_BYTES_PER_TRIANGLE))
def test_a_level_keeps_only_what_its_solvers_read(name, lshape):
    mesh = refine(lshape, 5)
    problem = manufactured(name)
    asm = Assembler(mesh, problem)
    asm.gram(), asm.load()
    if problem.kind is ProblemKind.SECOND_ORDER_CR:
        asm.jacobian(None)
    per_triangle = _ndarray_bytes(asm, asm.mesh) / mesh.n_triangles
    assert per_triangle <= LEVEL_BYTES_PER_TRIANGLE[name]


def test_a_level_holds_more_once_its_edge_geometry_is_built(lshape):
    """A CR level builds no edge fields; reading nu_E adds h_E, nu_E and
    tau_E to it, and the measure of the budgets above must see that as more,
    not count the mesh arrays that the unbuilt geometry keeps as the
    level's own."""
    asm = Assembler(refine(lshape, 5), manufactured("cr_sine"))
    asm.gram(), asm.load(), asm.jacobian(None)
    before = _ndarray_bytes(asm, asm.mesh)
    asm.geom.nu_E
    assert _ndarray_bytes(asm, asm.mesh) > before


# tracemalloc bytes per triangle that building one level may peak at and
# keep, on refine(l_shape, 6) with its geometry built, edge fields included:
# measured 1900 and 830 (ns), 1916 and 1124 (vk), 876 and 250 (CR, budget
# 10% above; the CR peak is 542 since set-up samples by element blocks, see
# CR_SETUP_PEAK_BYTES_PER_TRIANGLE).  A hessian table on the basis tables, the (nt, nq, 6) value
# table of the old load and the loads sampled after G took ns to 3055 and
# 1198, vk to 3227 and 1388; a G kept in the COO-long buffers of tocsr takes
# ns to 1006 kept; a CR table that keeps grad lambda and the first vertices,
# J built as (G + b_pw).copy() and the quadrature points kept through the
# scatters took CR to 940 and 350
SETUP_BYTES_PER_TRIANGLE = {"ns_poly": (2100, 858), "vk_poly": (2800, 1200),
                            "cr_sine": (963, 275)}


@pytest.mark.parametrize("name", sorted(SETUP_BYTES_PER_TRIANGLE))
def test_a_morley_level_builds_within_its_memory_budget(name, lshape):
    mesh = refine(lshape, 6)
    geometry(mesh).nu_E             # the edge fields too
    problem = manufactured(name)
    tracemalloc.start()
    try:
        asm = Assembler(mesh, problem)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert asm.load().shape == (problem.n_components * asm.dofmap.n_free,)
    assert peak / mesh.n_triangles <= SETUP_BYTES_PER_TRIANGLE[name][0]
    assert kept / mesh.n_triangles <= SETUP_BYTES_PER_TRIANGLE[name][1]


# tracemalloc bytes per triangle that a CR set-up may peak at on
# refine(unit_square, 7) (32768 triangles, eight element blocks), its
# geometry built inside: measured 560, budget 10% above.  Sampling the
# coefficients and the load on the whole mesh at once took 892
CR_SETUP_PEAK_BYTES_PER_TRIANGLE = 615


def test_a_cr_set_up_samples_within_its_memory_budget():
    mesh = refine(builtin_domain("unit_square"), 7)
    tracemalloc.start()
    try:
        Assembler(mesh, manufactured("cr_sine"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / mesh.n_triangles <= CR_SETUP_PEAK_BYTES_PER_TRIANGLE


@pytest.mark.parametrize("name", ["cr_sine", "ns_poly"])
def test_scatter_matrix_matches_the_int64_assembly(name, square32):
    """The int32 scatter gives bitwise the CSR of a plain int64 COO build."""
    asm = Assembler(refine(square32, 1), manufactured(name))
    dm = asm.dofmap
    nt, nloc = dm.slots.shape
    loc = np.random.default_rng(3).standard_normal((nt, nloc, nloc))
    fo = free_index(asm.mesh, dm)                           # int64, -1 if fixed
    rows = np.repeat(fo[:, :, None], nloc, axis=2).ravel()
    cols = np.repeat(fo[:, None, :], nloc, axis=1).ravel()
    keep = (rows >= 0) & (cols >= 0)
    ref = sparse.coo_matrix((loc.ravel()[keep], (rows[keep], cols[keep])),
                            shape=(dm.n_free, dm.n_free)).tocsr()
    ref.sum_duplicates()
    ref.sort_indices()
    out = _scatter_matrix(loc, dm)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(out, attr), getattr(ref, attr))
    # canonical, with buffers of exactly nnz entries
    assert out.has_canonical_format
    for a in (out.indices, out.data):
        while isinstance(a.base, np.ndarray):
            a = a.base
        assert a.size == out.nnz
