import numpy as np
import pytest

from conftest import cr_dofmap, evaluate, morley_dofmap, random_function
from ncfem.mesh import bisect, builtin_domain, geometry
from ncfem.quadrature import quad_triangle
from ncfem.spaces import (SpaceTag, basis_tables, local_coefficients,
                          morley_dof_matrix, physical_points)


def test_dof_counts_bisected_square():
    m = bisect(builtin_domain("unit_square"), {0, 1})
    assert morley_dofmap(m).n_free == 5          # 1 vertex + 4 edges
    assert cr_dofmap(m).n_free == 4


def test_dof_counts_two_triangle_square(square2):
    assert morley_dofmap(square2).n_free == 1
    assert cr_dofmap(square2).n_free == 1


def test_dimension_formula(square32, lshape):
    for m in (square32, lshape):
        assert morley_dofmap(m).n_free == (len(m.interior_vertices())
                                           + len(m.interior_edges()))
        assert cr_dofmap(m).n_free == len(m.interior_edges())


def test_cr_basis_kronecker(square8):
    tab = basis_tables(square8, SpaceTag.CROUZEIX_RAVIART)
    for t in (0, 3):
        for j in range(3):
            e = square8.edge_of_triangle[t, j]
            mid = square8.vertices[square8.edges[e]].mean(axis=0)
            values = tab.values_at(np.array([t]), mid[None, :])[0]
            expected = np.zeros(3)
            expected[j] = 1.0
            assert np.allclose(values, expected, atol=1e-13)
        # the basis is affine: every second difference vanishes
        c = square8.vertices[square8.triangles[t]].mean(axis=0)
        steps = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.0], [0.0, 0.1],
                          [0.0, -0.1], [0.1, 0.1], [-0.1, -0.1]])
        v = tab.values_at(np.full(7, t), c + steps)
        for i in (1, 3, 5):
            assert np.allclose(v[i] - 2.0 * v[0] + v[i + 1], 0.0, atol=1e-13)


def test_morley_dof_duality_every_element(square32, lshape):
    for m in (square32, lshape):
        tab = basis_tables(m, SpaceTag.MORLEY)
        defect = np.abs(np.einsum("tim,tmj->tij", morley_dof_matrix(m), tab.C)
                        - np.eye(6)).max()
        assert defect < 1e-12


def test_evaluate_zero_function(square8):
    dm = morley_dofmap(square8)
    u = np.zeros(dm.n_free)
    pt = square8.vertices[square8.triangles[0]].mean(axis=0)
    assert evaluate(square8, dm, u, 0, pt) == 0.0
    assert np.allclose(evaluate(square8, dm, u, 0, pt, "gradient"), 0.0)


def test_morley_vertex_dof_continuity(square8):
    dm = morley_dofmap(square8)
    interior = square8.interior_vertices()
    z = interior[0]
    coeffs = np.zeros(dm.n_free)
    coeffs[dm.free_of_dof[z]] = 1.0
    u = coeffs
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


def test_cr_grads_match_central_differences(square8, lshape):
    for m in (square8, lshape):
        tab = basis_tables(m, SpaceTag.CROUZEIX_RAVIART)
        tris = np.arange(m.n_triangles)
        centroid = m.vertices[m.triangles].mean(axis=1)
        step = 1e-3 * geometry(m).h_T
        fd = np.empty((m.n_triangles, 3, 2))
        for d in range(2):
            shift = np.zeros((m.n_triangles, 2))
            shift[:, d] = step
            fd[:, :, d] = ((tab.values_at(tris, centroid + shift)
                            - tab.values_at(tris, centroid - shift))
                           / (2.0 * step[:, None]))
        defect = np.abs(tab.grads - fd).max(axis=(1, 2))
        assert (defect <= 1e-8 * np.abs(tab.grads).max(axis=(1, 2))).all()


def morley_grads_by_central_differences(tab, tris, pts, step):
    """Central differences of values_at; exact up to round-off for the
    quadratic Morley basis.  step broadcasts against pts[..., 0]."""
    fd = np.empty(pts.shape[:-1] + (6, 2))
    for d in range(2):
        shift = np.zeros(pts.shape)
        shift[..., d] = step
        fd[..., d] = ((tab.values_at(tris, pts + shift)
                       - tab.values_at(tris, pts - shift))
                      / (2.0 * step[..., None]))
    return fd


@pytest.mark.parametrize("mesh", ["lshape", "graded"])
def test_morley_grads_match_central_differences(mesh, lshape, graded_lshape):
    m = lshape if mesh == "lshape" else graded_lshape[1]
    tab = basis_tables(m, SpaceTag.MORLEY)
    h = geometry(m).h_T
    # one point set per element: the degree-4 volume rule, (nt, nq, 2)
    tris = np.arange(m.n_triangles)
    pts = physical_points(m, quad_triangle(4).points)
    step = 1e-3 * h[:, None]
    # paired input: three random interior points per element, (n, 2)
    rng = np.random.default_rng(0)
    bary = rng.dirichlet(np.ones(3), size=3 * m.n_triangles)
    ptris = np.repeat(tris, 3)
    ppts = np.einsum("nk,nkd->nd", bary, m.vertices[m.triangles[ptris]])
    for t, x, s in ((tris, pts, step), (ptris, ppts, 1e-3 * h[ptris])):
        g = tab.grads_at(t, x)
        fd = morley_grads_by_central_differences(tab, t, x, s)
        assert g.shape == x.shape[:-1] + (6, 2)
        scale = np.abs(g).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(g - fd) <= 1e-8 * scale)


def test_local_coefficients_zero_on_boundary(square8):
    rng = np.random.default_rng(5)
    dm = morley_dofmap(square8)
    u = random_function(dm, rng)
    loc = local_coefficients(dm, u)
    fo = dm.free_of_dof[dm.element_dofs]
    assert (loc[fo < 0] == 0.0).all()
