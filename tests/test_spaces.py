from dataclasses import fields

import numpy as np
import pytest

from conftest import (MorleyByInverse, cr_dofmap, evaluate, free_index,
                      interior_edges, interior_vertices, midpoint_lam,
                      morley_dofmap, random_function, vertex_lam)
from ncfem.interpolation import _barycentric
from ncfem.mesh import bisect, builtin_domain, geometry
from ncfem.quadrature import quad_triangle
from ncfem.spaces import (SpaceTag, basis_tables, element_dofs,
                          local_coefficients, physical_points)


def test_dof_counts_bisected_square():
    m = bisect(builtin_domain("unit_square"), {0, 1})
    assert morley_dofmap(m).n_free == 5          # 1 vertex + 4 edges
    assert cr_dofmap(m).n_free == 4


def test_dof_counts_two_triangle_square(square2):
    assert morley_dofmap(square2).n_free == 1
    assert cr_dofmap(square2).n_free == 1


def test_dimension_formula(square32, lshape):
    for m in (square32, lshape):
        assert morley_dofmap(m).n_free == (len(interior_vertices(m))
                                           + len(interior_edges(m)))
        assert cr_dofmap(m).n_free == len(interior_edges(m))


def test_cr_basis_kronecker(square8):
    tab = basis_tables(square8, SpaceTag.CROUZEIX_RAVIART)
    # midpoint k of every element (edge k opposite vertex k)
    values = tab.values_at(0.5 * (1.0 - np.eye(3)))
    assert values.shape == (square8.n_triangles, 3, 3)
    assert np.abs(values - np.eye(3)).max() < 1e-13
    for t in (0, 3):
        # the basis is affine: every second difference vanishes, here along
        # physical steps from the centroid
        steps = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.0], [0.0, 0.1],
                          [0.0, -0.1], [0.1, 0.1], [-0.1, -0.1]])
        lam = 1.0 / 3.0 + steps @ (-0.5 * tab.grads[t]).T
        v = tab.values_at(lam)[t]
        for i in (1, 3, 5):
            assert np.allclose(v[i] - 2.0 * v[0] + v[i + 1], 0.0, atol=1e-13)


def test_cr_tables_keep_only_their_gradients(square8):
    """The CR table keeps grads = -2 grad lambda, not grad lambda beside it;
    neither table keeps the first vertices or maps physical points back to
    lambda, which only the Morley transfer does, from the coarse mesh."""
    tab = basis_tables(square8, SpaceTag.CROUZEIX_RAVIART)
    assert list(vars(tab)) == ["grads"]
    assert not hasattr(tab, "grad_lambda") and not hasattr(tab, "v0")
    assert tab.grads.shape == (square8.n_triangles, 3, 2)
    morley = basis_tables(square8, SpaceTag.MORLEY)
    assert not hasattr(morley, "v0") and not hasattr(morley, "bary_at")


def test_morley_dof_duality_every_element(square32, lshape):
    """The six functionals of the closed-form basis: values at the vertices,
    and normal derivatives against nu_E at the edge midpoints, which are the
    edge means since the gradients are affine."""
    for m in (square32, lshape):
        tab = basis_tables(m, SpaceTag.MORLEY)
        nu = geometry(m).nu_E[m.edge_of_triangle]
        dn = np.einsum("tkjd,tkd->tkj", tab.grads_at(0.5 * (1.0 - np.eye(3))), nu)
        functionals = np.concatenate([tab.values_at(np.eye(3)), dn], axis=1)
        assert np.abs(functionals - np.eye(6)).max() < 1e-12


@pytest.mark.parametrize("mesh", ["square32", "lshape", "graded_lshape"])
def test_morley_closed_form_matches_the_dof_matrix_inverse(mesh, request):
    """values_at, grads_at (shared and per-element barycentric input) and
    the hessians of each basis function equal the basis C = inv(D) of the
    monomial dof matrix, which works
    on physical points, to 1e-12 relative; the transfer's _barycentric maps
    the physical points back."""
    m = request.getfixturevalue(mesh)
    m = m[1] if mesh == "graded_lshape" else m
    tab, ref = basis_tables(m, SpaceTag.MORLEY), MorleyByInverse(m)
    assert np.abs(np.einsum("tim,tmj->tij", ref.D, ref.C) - np.eye(6)).max() < 1e-12
    nt = m.n_triangles
    tris = np.arange(nt)
    rng = np.random.default_rng(2)
    shared = rng.dirichlet(np.ones(3), size=5)                      # (5, 3)
    pts = physical_points(m, shared)                                # (nt, 5, 2)
    assert np.abs(_barycentric(m, tab.grad_lambda, np.repeat(tris, 5),
                               pts.reshape(-1, 2))
                  - np.tile(shared, (nt, 1))).max() < 1e-12
    # per element: two random physical points each, mapped by _barycentric
    epts = np.einsum("tqk,tkd->tqd", rng.dirichlet(np.ones(3), size=(nt, 2)),
                     m.vertices[m.triangles])                       # (nt, 2, 2)
    lam = _barycentric(m, tab.grad_lambda, np.repeat(tris, 2),
                       epts.reshape(-1, 2)).reshape(nt, 2, 3)

    def close(got, want):
        scale = np.abs(want).max(axis=tuple(range(1, want.ndim)))
        extra = (None,) * (want.ndim - 1)
        assert np.all(np.abs(got - want) <= 1e-12 * scale[(slice(None),) + extra])

    for lam_in, x in ((shared, pts), (lam, epts)):
        close(tab.values_at(lam_in), ref.values_at(tris, x))
        close(tab.grads_at(lam_in), ref.grads_at(tris, x))
    basis = np.broadcast_to(np.eye(6), (nt, 6, 6))
    close(np.stack([tab.hessians(basis[:, j]) for j in range(6)], axis=1),
          ref.hess)


def test_evaluate_zero_function(square8):
    dm = morley_dofmap(square8)
    u = np.zeros(dm.n_free)
    centroid = np.full(3, 1.0 / 3.0)
    assert evaluate(square8, dm, u, 0, centroid) == 0.0
    assert np.allclose(evaluate(square8, dm, u, 0, centroid, "gradient"), 0.0)


def test_morley_vertex_dof_continuity(square8):
    dm = morley_dofmap(square8)
    interior = interior_vertices(square8)
    z = interior[0]
    coeffs = np.zeros(dm.n_free)
    coeffs[np.searchsorted(dm.dof_of_free, z)] = 1.0   # vertex dof z is global dof z
    u = coeffs
    adjacent = [t for t in range(square8.n_triangles)
                if z in square8.triangles[t]]
    assert len(adjacent) >= 3
    for t in adjacent:
        assert evaluate(square8, dm, u, t, vertex_lam(square8, t, z)) == pytest.approx(
            1.0, abs=1e-12)


def test_morley_interelement_behavior(square32):
    rng = np.random.default_rng(3)
    dm = morley_dofmap(square32)
    u = random_function(dm, rng)
    g = geometry(square32)
    # value jumps vanish at interior vertices
    for z in interior_vertices(square32)[:8]:
        vals = [evaluate(square32, dm, u, t, vertex_lam(square32, t, z))
                for t in range(square32.n_triangles)
                if z in square32.triangles[t]]
        assert np.ptp(vals) < 1e-10
    # edge means of the normal derivative agree (linear along the edge, so
    # the midpoint value is the mean)
    for e in interior_edges(square32)[:12]:
        t0, t1 = square32.triangles_of_edge[e]
        assert min(t0, t1) >= 0
        g0, g1 = (evaluate(square32, dm, u, t, midpoint_lam(square32, t, e),
                           "gradient") @ g.nu_E[e] for t in (t0, t1))
        assert g0 == pytest.approx(g1, abs=1e-10)


def test_cr_grads_match_central_differences(square8, lshape):
    for m in (square8, lshape):
        tab = basis_tables(m, SpaceTag.CROUZEIX_RAVIART)
        step = 1e-3 * geometry(m).h_T
        fd = np.empty((m.n_triangles, 3, 2))
        for d in range(2):
            # the centroid moved by +-step e_d: lambda shifts by step grad lambda . e_d
            shift = step[:, None, None] * (-0.5 * tab.grads)[:, None, :, d]
            fd[:, :, d] = ((tab.values_at(1.0 / 3.0 + shift)
                            - tab.values_at(1.0 / 3.0 - shift))[:, 0]
                           / (2.0 * step[:, None]))
        defect = np.abs(tab.grads - fd).max(axis=(1, 2))
        assert (defect <= 1e-8 * np.abs(tab.grads).max(axis=(1, 2))).all()


def morley_grads_by_central_differences(tab, lam, step):
    """Central differences of values_at at the barycentric points lam,
    (nq, 3) or (nt, nq, 3), with the physical step (nt,) per element: a move
    by step e_d shifts lambda by step grad lambda . e_d.  Exact up to
    round-off for the quadratic Morley basis."""
    fd = np.empty((len(step), lam.shape[-2], 6, 2))
    for d in range(2):
        shift = step[:, None, None] * tab.grad_lambda[:, None, :, d]
        fd[..., d] = ((tab.values_at(lam + shift) - tab.values_at(lam - shift))
                      / (2.0 * step[:, None, None]))
    return fd


@pytest.mark.parametrize("mesh", ["lshape", "graded"])
def test_morley_grads_match_central_differences(mesh, lshape, graded_lshape):
    m = lshape if mesh == "lshape" else graded_lshape[1]
    tab = basis_tables(m, SpaceTag.MORLEY)
    step = 1e-3 * geometry(m).h_T
    # shared points: the degree-4 volume rule, (nq, 3); one set per element:
    # three random interior points each, (nt, 3, 3)
    rng = np.random.default_rng(0)
    for lam in (quad_triangle(4).points,
                rng.dirichlet(np.ones(3), size=(m.n_triangles, 3))):
        g = tab.grads_at(lam)
        fd = morley_grads_by_central_differences(tab, lam, step)
        assert g.shape == (m.n_triangles, lam.shape[-2], 6, 2)
        scale = np.abs(g).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(g - fd) <= 1e-8 * scale)


def test_local_coefficients_zero_on_boundary(square8):
    rng = np.random.default_rng(5)
    dm = morley_dofmap(square8)
    u = random_function(dm, rng)
    loc = local_coefficients(dm, u)
    assert (loc[dm.slots == dm.n_free] == 0.0).all()


@pytest.mark.parametrize("space", [SpaceTag.MORLEY, SpaceTag.CROUZEIX_RAVIART])
@pytest.mark.parametrize("mesh_name", ["square8", "lshape"])
def test_slots_index_the_free_dofs(space, mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    dm = morley_dofmap(mesh) if space is SpaceTag.MORLEY else cr_dofmap(mesh)
    dofs = element_dofs(mesh, space)
    assert dm.slots.dtype == np.intp
    assert dm.slots.shape == dofs.shape
    free = np.isin(dofs, dm.dof_of_free)
    assert not free.all() and free.any()
    assert np.array_equal(dm.slots == dm.n_free, ~free)
    assert np.array_equal(dm.dof_of_free[dm.slots[free]], dofs[free])


@pytest.mark.parametrize("space", [SpaceTag.MORLEY, SpaceTag.CROUZEIX_RAVIART])
def test_a_dof_map_holds_one_element_index(space, lshape):
    """The dof map keeps slots as its only (nt, nloc) array, in intp, and
    counts the global dofs instead of keeping their element numbering."""
    dm = morley_dofmap(lshape) if space is SpaceTag.MORLEY else cr_dofmap(lshape)
    tables = [f.name for f in fields(dm) if np.ndim(getattr(dm, f.name)) == 2]
    assert tables == ["slots"]
    assert dm.slots.shape[0] == lshape.n_triangles
    assert dm.slots.dtype == np.intp
    assert dm.n_dofs == element_dofs(lshape, space).max() + 1


@pytest.mark.parametrize("mesh_name", ["square8", "lshape"])
def test_local_coefficients_match_a_clip_and_mask_reference(mesh_name, request):
    """Both components of a von Karman pair, gathered through slots, equal
    the clipped gather through the int64 free index, masked to 0."""
    mesh = request.getfixturevalue(mesh_name)
    dm = morley_dofmap(mesh)
    u = random_function(dm, np.random.default_rng(11), n_components=2)
    fo = free_index(mesh, dm)
    for c in (0, 1):
        ref = u[c * dm.n_free:(c + 1) * dm.n_free][np.clip(fo, 0, None)]
        ref[fo < 0] = 0.0
        assert np.array_equal(local_coefficients(dm, u, c), ref)
