import numpy as np
import pytest

from conftest import (MorleyByInverse, cr_dofmap, evaluate,
                      mean_gradient_by_parts, mean_hessian_by_parts,
                      interior_vertices, morley_dofmap, random_function,
                      vertex_lam)
from ncfem.assembly import Assembler
from ncfem.estimators import broken_energy_error
from ncfem.interpolation import (dof_values, interpolate, oscillation,
                                 transfer_morley)
from ncfem.mesh import builtin_domain, geometry, refine, uniform_refine
from ncfem.problems import Field, manufactured, polynomial_field
from ncfem.quadrature import quad_edge, quad_triangle
from ncfem.solve import newton_solve
from ncfem.spaces import (SpaceTag, basis_tables, build_dofmap, element_dofs,
                          function_from_element_values, local_coefficients,
                          physical_points, space_of)

RNG = np.random.default_rng(21)


def random_poly(max_deg, rng=RNG):
    c = np.zeros((max_deg + 1, max_deg + 1))
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            c[i, j] = rng.standard_normal()
    return polynomial_field(c)


def hessians_of(mesh, dm, u):
    """The elementwise hessians of u from the monomial dof-matrix oracle."""
    return np.einsum("tjab,tj->tab", MorleyByInverse(mesh).hess,
                     local_coefficients(dm, u))


def test_morley_interpolate_zero(square8):
    dm = morley_dofmap(square8)
    zero = Field(value=lambda p: np.zeros(np.shape(p)[:-1]),
                 gradient=lambda p: np.zeros(np.shape(p)))
    u = interpolate(square8, dm, zero)
    assert np.abs(u).max() == 0.0


def test_morley_reproduces_p2_dofs(square8):
    # duality: interpolation reproduces every quadratic at all dof functionals
    dm = morley_dofmap(square8)
    c = np.zeros((3, 3))
    c[0, 0], c[1, 0], c[2, 0], c[1, 1], c[0, 2] = 0.3, -1.0, 2.0, 0.7, -0.4
    fld = polynomial_field(c)
    u = interpolate(square8, dm, fld)
    for z in interior_vertices(square8):
        t = next(t for t in range(square8.n_triangles)
                 if z in square8.triangles[t])
        assert evaluate(square8, dm, u, t, vertex_lam(square8, t, z)) == pytest.approx(
            fld.value(square8.vertices[z][None, :])[0], abs=1e-11)


def test_commuting_identity_polynomials(square8):
    # D^2_pw I_M = Pi_0 D^2 for 20 random quartics, default degree-4 rules;
    # the full dof vector is used since the fields are not clamped
    dm = morley_dofmap(square8)
    hess = MorleyByInverse(square8).hess
    geom = geometry(square8)
    rule = quad_triangle(4)
    xq = physical_points(square8, rule.points)
    wdx = 2.0 * geom.area[:, None] * rule.weights
    worst = 0.0
    for _ in range(20):
        fld = random_poly(4)
        loc = dof_values(square8, dm.space, fld)[0][element_dofs(square8, dm.space)]
        H = np.einsum("tjab,tj->tab", hess, loc)
        mean = np.einsum("tq,tqab->tab", wdx, fld.hessian(xq)) / geom.area[:, None, None]
        worst = max(worst, np.abs(H - mean).max())
    assert worst < 1e-10


def test_morley_interpolation_stability(square8):
    # |D^2 I_M v| <= |D^2 v| elementwise-summed, from the projection property
    dm = morley_dofmap(square8)
    geom = geometry(square8)
    rule = quad_triangle(4)
    xq = physical_points(square8, rule.points)
    wdx = 2.0 * geom.area[:, None] * rule.weights
    hess = MorleyByInverse(square8).hess
    for _ in range(20):
        fld = random_poly(4)
        loc = dof_values(square8, dm.space, fld)[0][element_dofs(square8, dm.space)]
        H = np.einsum("tjab,tj->tab", hess, loc)
        lhs = np.sqrt(np.einsum("t,tab,tab->", geom.area, H, H))
        hq = fld.hessian(xq)
        rhs = np.sqrt(np.einsum("tq,tqab,tqab->", wdx, hq, hq))
        assert lhs <= rhs + 1e-10


def test_commuting_identity_smooth_field(square32):
    # the registry solution (degree 8) with edge rules that keep the edge
    # means exact; the element means come from the divergence theorem
    man = manufactured("ns_poly")
    dm = morley_dofmap(square32)
    u = interpolate(square32, dm, man.exact[0], edge_degree=12)
    mean = mean_hessian_by_parts(square32, man.exact[0])
    assert np.abs(hessians_of(square32, dm, u) - mean).max() < 1e-10


def test_cr_identity_polynomials(square8):
    dm = cr_dofmap(square8)
    tab = basis_tables(square8, SpaceTag.CROUZEIX_RAVIART)
    geom = geometry(square8)
    rule = quad_triangle(4)
    xq = physical_points(square8, rule.points)
    wdx = 2.0 * geom.area[:, None] * rule.weights
    worst = 0.0
    for _ in range(20):
        fld = random_poly(4)
        loc = dof_values(square8, dm.space, fld)[0][element_dofs(square8, dm.space)]
        gh = np.einsum("tjd,tj->td", tab.grads, loc)
        mean = np.einsum("tq,tqd->td", wdx, fld.gradient(xq)) / geom.area[:, None]
        worst = max(worst, np.abs(gh - mean).max())
    assert worst < 1e-10


def test_cr_identity_sine(square32):
    man = manufactured("cr_sine")
    dm = cr_dofmap(square32)
    u = interpolate(square32, dm, man.exact[0], edge_degree=12)
    tab = basis_tables(square32, SpaceTag.CROUZEIX_RAVIART)
    gh = np.einsum("tjd,tj->td", tab.grads, local_coefficients(dm, u))
    mean = mean_gradient_by_parts(square32, man.exact[0])
    assert np.abs(gh - mean).max() < 1e-10


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
def test_broken_error_splits_at_the_interpolant(name):
    """D^2_pw (u - I_M u) is orthogonal to piecewise-constant hessians, and
    grad_pw (u - I_CR u) to piecewise-constant gradients (cr_sine has
    A = I), so error_pw^2 = |u - I_h u|_pw^2 + |I_h u - u_h|_G^2.  A broken
    interpolant, broken_energy_error or G breaks it (the relative defect is
    the degree-6 rule on the exact solution: 3e-7 at most here)."""
    mesh = refine(builtin_domain("unit_square"), 3)
    asm = Assembler(mesh, manufactured(name))
    U, _ = newton_solve(asm)
    Ih = interpolate(mesh, asm.dofmap, asm.problem.exact)
    e = Ih - U
    error_sq = broken_energy_error(asm, U) ** 2
    split = broken_energy_error(asm, Ih) ** 2 + e @ (asm.gram() @ e)
    assert split == pytest.approx(error_sq, rel=1e-5)


def test_cr_interpolates_constant(square8):
    dm = cr_dofmap(square8)
    one = Field(value=lambda p: np.ones(np.shape(p)[:-1]))
    u = interpolate(square8, dm, one)
    # all free (interior-edge) dofs carry the constant value
    assert np.allclose(u, 1.0, atol=1e-14)


def degree6_rule(mesh):
    """The points and weights dx of the degree-6 rule of oscillation."""
    rule = quad_triangle(6)
    xq = physical_points(mesh, rule.points)
    return xq, 2.0 * geometry(mesh).area[:, None] * rule.weights


def osc(mesh, g, k, p):
    """oscillation of the function g, sampled on the degree-6 rule."""
    return oscillation(mesh, g(degree6_rule(mesh)[0]), k, p)


def test_oscillation_k0_is_element_variance(square8):
    """osc_0 per element is h^(2p) times the rule's weighted variance of g
    about its element mean."""
    fld = random_poly(3)
    xq, wdx = degree6_rule(square8)
    geom = geometry(square8)
    gq = fld.value(xq)
    mean = (wdx * gq).sum(axis=1) / geom.area
    var = (wdx * gq ** 2).sum(axis=1) - geom.area * mean ** 2
    for p in (1, 2):
        per_element, _ = osc(square8, fld.value, 0, p)
        assert np.allclose(per_element, geom.h_T ** (2 * p) * var,
                           rtol=1e-9, atol=1e-15)


def test_oscillation_k1_is_minimal(square8):
    """osc_1(g) per element is the norm h^2 || g - q ||^2 against the weighted
    least-squares P_1 fit q on the rule's points, and no larger than the same
    norm against a perturbed P_1 fit."""
    fld = random_poly(4)
    per_element, _ = osc(square8, fld.value, 1, 1)
    xq, wdx = degree6_rule(square8)
    gq = fld.value(xq)
    center = square8.vertices[square8.triangles].mean(axis=1)
    mono = np.concatenate([np.ones_like(gq)[..., None],
                           xq - center[:, None, :]], axis=-1)   # (nt, nq, 3)
    sw = np.sqrt(wdx)
    best = np.stack([np.linalg.lstsq(sw[t, :, None] * mono[t], sw[t] * gq[t],
                                     rcond=None)[0]
                     for t in range(square8.n_triangles)])

    def norm(coeffs):
        fit = np.einsum("tqi,ti->tq", mono, coeffs)
        return geometry(square8).h_T ** 2 * (wdx * (gq - fit) ** 2).sum(axis=1)

    assert np.allclose(per_element, norm(best), rtol=1e-9, atol=1e-15)
    rng = np.random.default_rng(4)
    for scale in (1e-4, 1e-2, 1.0):
        perturbed = best + scale * rng.standard_normal(best.shape)
        assert (per_element < norm(perturbed)).all()


def test_l2_project_reproduces_polynomials(square8):
    """The elementwise L2 projection Pi_k of oscillation reproduces random
    P_k data, k = 0, 1: osc_k is zero on every element, for p = 1 and 2."""
    for k in range(2):
        for p in (1, 2):
            per_element, total = osc(square8, random_poly(k).value, k, p)
            assert per_element.max() < 1e-26 and total < 1e-13


def test_oscillation_vanishes_on_polynomial_data(square8):
    const = Field(value=lambda p: 3.0 * np.ones(np.shape(p)[:-1]))
    _, total0 = osc(square8, const.value, k=0, p=2)
    assert total0 < 1e-13
    lin = polynomial_field([[1.0, 2.0], [-3.0, 0.0]])
    _, total1 = osc(square8, lin.value, k=1, p=1)
    assert total1 < 1e-13


def test_oscillation_rate():
    fld = Field(value=lambda p: np.sin(np.pi * np.asarray(p)[..., 0]))
    mesh = builtin_domain("unit_square")
    totals = []
    for _ in range(4):
        totals.append(osc(mesh, fld.value, k=0, p=1)[1])
        mesh = uniform_refine(mesh)
    rates = [np.log2(a / b) for a, b in zip(totals, totals[1:])]
    assert rates[-1] == pytest.approx(2.0, abs=0.25)


def test_oscillation_validates_power(square8):
    with pytest.raises(ValueError):
        osc(square8, random_poly(2).value, k=0, p=3)


def test_oscillation_rejects_samples_off_its_rule(square8):
    """The samples must lie on the degree-6 rule: one per point per element."""
    xq, _ = degree6_rule(square8)
    with pytest.raises(ValueError, match="samples of shape"):
        oscillation(square8, np.ones(xq.shape[:-1])[:, :-1], k=0, p=2)
    with pytest.raises(ValueError, match="samples of shape"):
        oscillation(square8, 1.0, k=0, p=2)


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
@pytest.mark.parametrize("domain", ["unit_square", "l_shape"])
def test_boundary_dof_values_are_the_constrained_ones(name, domain):
    """boundary_only gives the dof values at the constrained dofs of the
    clamped space, in order, and samples the field on the boundary only."""
    mesh = refine(builtin_domain(domain), 2)
    problem = manufactured(name)
    dm = build_dofmap(mesh, space_of(problem.kind))
    seen = []

    def record(fn):
        def sampled(pts):
            seen.append(np.asarray(pts).reshape(-1, 2))
            return fn(pts)
        return sampled
    fields = tuple(Field(value=record(f.value), gradient=record(f.gradient))
                   for f in problem.exact)
    bdry = dof_values(mesh, dm.space, fields, boundary_only=True)
    full = dof_values(mesh, dm.space, problem.exact)
    np.testing.assert_allclose(bdry, np.delete(full, dm.dof_of_free, axis=1),
                               rtol=1e-14, atol=1e-15)
    # the boundary vertices (Morley values) and the edge rule's points on
    # the boundary edges, each with a coordinate in {-1, 0, 1}
    pts = np.concatenate(seen)
    n_edge_pts = len(quad_edge(4).weights) * mesh.boundary_edge.sum()
    n_vertices = mesh.boundary_vertex.sum() * (dm.space is SpaceTag.MORLEY)
    assert len(pts) == len(fields) * (n_edge_pts + n_vertices)
    assert np.isclose(pts[:, :, None], [-1.0, 0.0, 1.0]).any(axis=(1, 2)).all()


def morley_level(mesh):
    """A level of the Navier-Stokes problem (any Morley problem would do)."""
    return Assembler(mesh, manufactured("ns_poly"))


def transfer(coarse, U, fine):
    """U carried from the coarse level onto the free dofs of the fine level,
    as the level driver does."""
    return function_from_element_values(
        fine.dofmap, transfer_morley(coarse, U, fine.mesh))


def test_transfer_preserves_shared_vertex_dofs(square32):
    coarse = morley_level(square32)
    dm_c = coarse.dofmap
    u = random_function(dm_c, RNG)
    fine = uniform_refine(square32)
    level_f = morley_level(fine)
    dm_f = level_f.dofmap
    v = transfer(coarse, u, level_f)
    # coarse interior vertices keep their values (Morley is continuous there)
    for z in interior_vertices(square32)[:10]:
        zf = int(np.flatnonzero(np.all(np.isclose(fine.vertices,
                                                  square32.vertices[z]),
                                       axis=1))[0])
        t_c = next(t for t in range(square32.n_triangles)
                   if z in square32.triangles[t])
        expect = evaluate(square32, dm_c, u, t_c, vertex_lam(square32, t_c, z))
        got = v[np.searchsorted(dm_f.dof_of_free, zf)]   # vertex dof zf
        assert got == pytest.approx(expect, abs=1e-11)


def test_transfer_requires_parent(square32):
    level = morley_level(square32)
    u = random_function(level.dofmap, RNG)
    with pytest.raises(ValueError, match="parent"):
        transfer_morley(level, u, square32)


def test_transfer_rejects_a_parent_map_onto_a_larger_mesh(square8, square32):
    # the fine mesh's parents index the 32 triangles of square32, not square8
    coarse = morley_level(square8)
    fine = uniform_refine(square32)
    with pytest.raises(ValueError, match="does not match the coarse mesh"):
        transfer_morley(coarse, np.zeros(coarse.dofmap.n_free), fine)


def test_transfer_rejects_a_parent_map_that_does_not_nest(square8, square32):
    # the parents of a refined square8 are valid indices into square32, but
    # the fine triangles do not lie in the square32 triangles they name
    coarse = morley_level(square32)
    fine = uniform_refine(square8)
    assert fine.parent.max() < square32.n_triangles
    with pytest.raises(ValueError, match="does not nest"):
        transfer_morley(coarse, np.zeros(coarse.dofmap.n_free), fine)


def test_transfer_of_a_pair_stacks_the_scalar_transfers(square32):
    # a von Karman pair is its two components concatenated, and each one
    # moves on its own
    coarse = morley_level(square32)
    U = random_function(coarse.dofmap, np.random.default_rng(4), n_components=2)
    fine = morley_level(uniform_refine(square32))
    n = coarse.dofmap.n_free
    pair = transfer_morley(coarse, U, fine.mesh)
    stacked = np.concatenate([transfer_morley(coarse, U[:n], fine.mesh),
                              transfer_morley(coarse, U[n:], fine.mesh)])
    assert pair.shape == (2, fine.mesh.n_vertices + fine.mesh.n_edges)
    assert np.array_equal(pair, stacked)
    assert len(transfer(coarse, U, fine)) == 2 * fine.dofmap.n_free


@pytest.mark.parametrize("length", [0, 1, 8, 10, 17])
def test_transfer_rejects_a_length_off_the_coarse_dofs(square8, length):
    coarse = morley_level(square8)
    assert coarse.dofmap.n_free == 9
    fine = uniform_refine(square8)
    with pytest.raises(ValueError, match="positive multiple"):
        transfer_morley(coarse, np.zeros(length), fine)


def test_transfer_rejects_a_cr_level(square8):
    # a CR fine map would take the Morley dof values of the wrong mesh
    # entities without an error: the restriction counts the values per row
    coarse = morley_level(square8)
    cr = manufactured("cr_sine")
    fine = Assembler(uniform_refine(square8), cr)
    values = transfer_morley(coarse, np.zeros(coarse.dofmap.n_free), fine.mesh)
    with pytest.raises(ValueError, match="values per row"):
        function_from_element_values(fine.dofmap, values)
    with pytest.raises(ValueError, match="Morley coarse level"):
        transfer_morley(Assembler(square8, cr), np.zeros(8), fine.mesh)


def test_transfer_keeps_interpolation_error_order(square8):
    # transferring the coarse interpolant must stay comparable, in the broken
    # energy metric, to the coarse interpolation error itself (it only has to
    # be a usable Newton starting iterate)
    from ncfem.estimators import broken_energy_error
    from ncfem.problems import ProblemKind, ProblemSpec

    man = manufactured("ns_poly")
    probe = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY,
                        f=lambda p: np.zeros(np.shape(p)[:-1]),
                        exact=man.exact)
    coarse = Assembler(square8, probe)
    u_c = interpolate(square8, coarse.dofmap, man.exact[0], edge_degree=10)
    fine = Assembler(uniform_refine(square8), probe)
    moved = transfer(coarse, u_c, fine)
    err_coarse = broken_energy_error(coarse, u_c)
    err_moved = broken_energy_error(fine, moved)
    assert err_moved <= 2.5 * err_coarse
