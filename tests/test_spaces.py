import numpy as np
import pytest

from conftest import cr_dofmap, morley_dofmap, random_function
from ncfem.mesh import bisect, builtin_domain, geometry
from ncfem.spaces import (DiscreteFunction, SpaceTag, basis_tables,
                          build_dofmap, element_basis, evaluate,
                          local_coefficients)


def test_dof_counts_bisected_square():
    m = bisect(builtin_domain("unit_square"), {0, 1})
    assert morley_dofmap(m).n_free == 5          # 1 vertex + 4 edges
    assert cr_dofmap(m).n_free == 4


def test_dof_counts_two_triangle_square(square2):
    assert morley_dofmap(square2).n_free == 1
    assert cr_dofmap(square2).n_free == 1
    assert build_dofmap(square2, SpaceTag.P1_CONFORMING).n_free == 0
    assert build_dofmap(square2, SpaceTag.P0).n_free == 2


def test_dimension_formula(square32, lshape):
    for m in (square32, lshape):
        assert morley_dofmap(m).n_free == (len(m.interior_vertices())
                                           + len(m.interior_edges()))
        assert cr_dofmap(m).n_free == len(m.interior_edges())
        assert build_dofmap(m, SpaceTag.P1_CONFORMING).n_free == len(
            m.interior_vertices())


def test_cr_basis_kronecker(square8):
    g = geometry(square8)
    for t in (0, 3):
        tri = square8.triangles[t]
        for j in range(3):
            e = square8.edge_of_triangle[t, j]
            mid = square8.vertices[square8.edges[e]].mean(axis=0)
            basis = element_basis(square8, g, SpaceTag.CROUZEIX_RAVIART, t, mid)
            expected = np.zeros(3)
            expected[j] = 1.0
            assert np.allclose(basis.values, expected, atol=1e-13)
            assert np.allclose(basis.hessians, 0.0)


def test_morley_dof_duality_every_element(square32, lshape):
    for m in (square32, lshape):
        tab = basis_tables(m, SpaceTag.MORLEY)
        defect = np.abs(np.einsum("tim,tmj->tij", tab.dof_matrix, tab.C)
                        - np.eye(6)).max()
        assert defect < 1e-12


def test_morley_hessian_constant(square8):
    g = geometry(square8)
    p1 = square8.vertices[square8.triangles[2]].mean(axis=0)
    p2 = 0.6 * p1 + 0.4 * square8.vertices[square8.triangles[2][0]]
    b1 = element_basis(square8, g, SpaceTag.MORLEY, 2, p1)
    b2 = element_basis(square8, g, SpaceTag.MORLEY, 2, p2)
    assert np.allclose(b1.hessians, b2.hessians, atol=1e-12)


def test_evaluate_zero_function(square8):
    dm = morley_dofmap(square8)
    u = DiscreteFunction(SpaceTag.MORLEY, 1, np.zeros(dm.n_free))
    pt = square8.vertices[square8.triangles[0]].mean(axis=0)
    assert evaluate(square8, dm, u, 0, pt) == 0.0
    assert np.allclose(evaluate(square8, dm, u, 0, pt, "gradient"), 0.0)


def test_morley_vertex_dof_continuity(square8):
    dm = morley_dofmap(square8)
    interior = square8.interior_vertices()
    z = interior[0]
    coeffs = np.zeros(dm.n_free)
    coeffs[dm.free_of_dof[z]] = 1.0
    u = DiscreteFunction(SpaceTag.MORLEY, 1, coeffs)
    adjacent = [t for t in range(square8.n_triangles)
                if z in square8.triangles[t]]
    assert len(adjacent) >= 3
    for t in adjacent:
        assert evaluate(square8, dm, u, t, square8.vertices[z]) == pytest.approx(
            1.0, abs=1e-12)


def test_morley_interelement_behavior(square32):
    rng = np.random.default_rng(3)
    dm = morley_dofmap(square32)
    u = random_function(dm, rng)
    g = geometry(square32)
    # value jumps vanish at interior vertices
    for z in square32.interior_vertices()[:8]:
        vals = [evaluate(square32, dm, u, t, square32.vertices[z])
                for t in range(square32.n_triangles)
                if z in square32.triangles[t]]
        assert np.ptp(vals) < 1e-10
    # edge means of the normal derivative agree (linear along the edge, so
    # the midpoint value is the mean)
    for e in square32.interior_edges()[:12]:
        t0, t1 = square32.triangles_of_edge[e]
        assert min(t0, t1) >= 0
        mid = square32.vertices[square32.edges[e]].mean(axis=0)
        g0 = evaluate(square32, dm, u, t0, mid, "gradient") @ g.nu_E[e]
        g1 = evaluate(square32, dm, u, t1, mid, "gradient") @ g.nu_E[e]
        assert g0 == pytest.approx(g1, abs=1e-10)


def test_cr_gradient_constant_per_element(square8):
    rng = np.random.default_rng(4)
    dm = cr_dofmap(square8)
    u = random_function(dm, rng)
    p = square8.vertices[square8.triangles[1]]
    g1 = evaluate(square8, dm, u, 1, p.mean(axis=0), "gradient")
    g2 = evaluate(square8, dm, u, 1, 0.5 * (p[0] + p[1]), "gradient")
    assert np.allclose(g1, g2, atol=1e-13)


def test_local_coefficients_zero_on_boundary(square8):
    rng = np.random.default_rng(5)
    dm = morley_dofmap(square8)
    u = random_function(dm, rng)
    loc = local_coefficients(dm, u)
    fo = dm.free_of_dof[dm.element_dofs]
    assert (loc[fo < 0] == 0.0).all()
