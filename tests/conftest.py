import numpy as np
import pytest

from ncfem.afem import afem_loop
from ncfem.mesh import builtin_domain, refine
from ncfem.problems import ns_unit_load
from ncfem.spaces import (SpaceTag, basis_tables, build_dofmap,
                          local_coefficients)


@pytest.fixture(scope="session")
def square2():
    return builtin_domain("unit_square")


@pytest.fixture(scope="session")
def square8():
    return refine(builtin_domain("unit_square"), 1)


@pytest.fixture(scope="session")
def square32():
    return refine(builtin_domain("unit_square"), 2)


@pytest.fixture(scope="session")
def lshape():
    return builtin_domain("l_shape")


@pytest.fixture(scope="module")
def graded_lshape():
    """Last level (1249 free dofs) of an adaptive NVB run of ns_unit_load on
    the L-shape: (problem, mesh, dofmap, solution)."""
    problem = ns_unit_load()
    meshes = []
    res = afem_loop(problem, builtin_domain("l_shape"), 0.5, 1000,
                    on_level=lambda asm, U, record: meshes.append(asm.mesh))
    assert res.records[-1].n_free == 1249
    mesh = meshes[-1]
    return problem, mesh, morley_dofmap(mesh), res.solutions[-1]


def random_function(dofmap, rng, n_components=1, scale=1.0):
    return scale * rng.standard_normal(n_components * dofmap.n_free)


def evaluate(mesh, dofmap, u, triangle, point, derivative="value"):
    """Value or (Morley) gradient of u at one point, from the polynomial of
    the given element; no inter-element continuity is assumed."""
    tab = basis_tables(mesh, dofmap.space)
    loc = local_coefficients(dofmap, u)[triangle]
    tris = np.asarray([triangle])
    pts = np.asarray(point, dtype=float)[None, :]
    if derivative == "value":
        return float(tab.values_at(tris, pts)[0] @ loc)
    return tab.grads_at(tris, pts)[0].T @ loc


def morley_dofmap(mesh):
    return build_dofmap(mesh, SpaceTag.MORLEY)


def cr_dofmap(mesh):
    return build_dofmap(mesh, SpaceTag.CROUZEIX_RAVIART)


def mean_gradient_by_parts(mesh, field, edge_degree=16):
    """Elementwise mean of grad(field) via the divergence theorem; an oracle
    that needs edge quadrature only and is exact to round-off for smooth
    fields once the edge rule resolves them."""
    from ncfem.mesh import geometry
    from ncfem.quadrature import quad_edge

    geom = geometry(mesh)
    rule = quad_edge(edge_degree)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    vals = field.value(pts)
    edge_int = (vals @ rule.weights) * geom.h_E
    out = np.zeros((mesh.n_triangles, 2))
    for t in range(mesh.n_triangles):
        cent = mesh.vertices[mesh.triangles[t]].mean(axis=0)
        for k in range(3):
            e = mesh.edge_of_triangle[t, k]
            va, vb = mesh.edges[e]
            evec = mesh.vertices[vb] - mesh.vertices[va]
            n = np.array([evec[1], -evec[0]]) / np.linalg.norm(evec)
            mid = 0.5 * (mesh.vertices[va] + mesh.vertices[vb])
            if np.dot(n, mid - cent) < 0:
                n = -n
            out[t] += edge_int[e] * n
    return out / geom.area[:, None]


def mean_hessian_by_parts(mesh, field, edge_degree=16):
    """Elementwise mean of the hessian via edge integrals of the gradient."""
    from ncfem.mesh import geometry
    from ncfem.quadrature import quad_edge

    geom = geometry(mesh)
    rule = quad_edge(edge_degree)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    grads = field.gradient(pts)
    edge_int = np.einsum("eqd,q->ed", grads, rule.weights) * geom.h_E[:, None]
    out = np.zeros((mesh.n_triangles, 2, 2))
    for t in range(mesh.n_triangles):
        cent = mesh.vertices[mesh.triangles[t]].mean(axis=0)
        for k in range(3):
            e = mesh.edge_of_triangle[t, k]
            va, vb = mesh.edges[e]
            evec = mesh.vertices[vb] - mesh.vertices[va]
            n = np.array([evec[1], -evec[0]]) / np.linalg.norm(evec)
            mid = 0.5 * (mesh.vertices[va] + mesh.vertices[vb])
            if np.dot(n, mid - cent) < 0:
                n = -n
            out[t] += np.outer(edge_int[e], n)
    out = 0.5 * (out + np.transpose(out, (0, 2, 1)))
    return out / geom.area[:, None, None]


def patch_newton(monkeypatch, fail_from_level=None):
    """Count the level driver's Newton solves and, from the given level on,
    make them report non-convergence.  Returns the list of calls."""
    import dataclasses

    import ncfem.afem

    real = ncfem.afem.newton_solve
    calls = []

    def newton_solve(*args, **kwargs):
        U, trace = real(*args, **kwargs)
        calls.append(None)
        if fail_from_level is not None and len(calls) > fail_from_level:
            trace = dataclasses.replace(trace, converged=False)
        return U, trace

    monkeypatch.setattr(ncfem.afem, "newton_solve", newton_solve)
    return calls
