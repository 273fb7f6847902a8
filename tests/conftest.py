import csv

import numpy as np
import pytest
import scipy.sparse.linalg

from ncfem.afem import ConvergenceRecord, afem_loop
from ncfem.assembly import VOLUME_QUAD_DEGREE, _scatter_matrix
from ncfem.estimators import _cr_apriori_integrands
from ncfem.mesh import builtin_domain, geometry, refine
from ncfem.problems import ProblemKind, ns_unit_load
from ncfem.quadrature import quad_triangle
from ncfem.spaces import (SpaceTag, basis_tables, build_dofmap, element_dofs,
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
    levels = []
    res = afem_loop(problem, builtin_domain("l_shape"), 0.5, 1000,
                    on_level=lambda asm, U, record: levels.append((asm.mesh, U)))
    assert res.records[-1].n_free == 1249
    mesh, U = levels[-1]
    return problem, mesh, morley_dofmap(mesh), U


# ---------------------------------------------------------------------------
# the Morley basis by inverting the monomial dof matrix: an oracle that shares
# nothing with the closed form in ncfem.spaces but the global edge normals

_MONO_HESS = np.zeros((6, 2, 2))
_MONO_HESS[3] = [[2.0, 0.0], [0.0, 0.0]]
_MONO_HESS[4] = [[0.0, 1.0], [1.0, 0.0]]
_MONO_HESS[5] = [[0.0, 0.0], [0.0, 2.0]]


def _mono_values(xi):
    """Monomials 1, a, b, a^2, ab, b^2 at local points (..., 2)."""
    a, b = xi[..., 0], xi[..., 1]
    return np.stack([np.ones_like(a), a, b, a * a, a * b, b * b], axis=-1)


def _mono_grads(xi):
    a, b = xi[..., 0], xi[..., 1]
    zero, one = np.zeros_like(a), np.ones_like(a)
    gx = np.stack([zero, one, zero, 2 * a, b, zero], axis=-1)
    gy = np.stack([zero, zero, one, zero, a, 2 * b], axis=-1)
    return np.stack([gx, gy], axis=-1)  # (..., 6, 2)


class MorleyByInverse:
    """Per-element Morley basis as C = inv(D), with D[t, i, m] the i-th dof
    functional (3 vertex values, then 3 edge-mean normal derivatives against
    the global edge normal, edge k opposite vertex k) of the m-th monomial
    in the local frame (x - center) / h_T.  Unlike the tables it works in
    physical coordinates: values_at / grads_at take paired points
    (tris (n,), pts (n, 2)) or a point set per listed element
    (tris (n,), pts (n, nq, 2))."""

    def __init__(self, mesh):
        p = mesh.vertices[mesh.triangles]           # (nt, 3, 2)
        self.center = p.mean(axis=1)
        self.scale = geometry(mesh).h_T
        D = np.empty((mesh.n_triangles, 6, 6))
        D[:, 0:3, :] = _mono_values(self._local(slice(None), p))
        for k in range(3):
            mid = 0.5 * (p[:, (k + 1) % 3] + p[:, (k + 2) % 3])
            grads = _mono_grads(self._local(slice(None), mid))
            nu = geometry(mesh).nu_E[mesh.edge_of_triangle[:, k]]
            D[:, 3 + k, :] = np.einsum("tmd,td->tm", grads, nu) / self.scale[:, None]
        self.D = D
        self.C = np.linalg.inv(D)
        self.hess = (np.einsum("tmj,mab->tjab", self.C, _MONO_HESS)
                     / (self.scale ** 2)[:, None, None, None])

    def _local(self, tris, pts):
        c, s = self.center[tris], self.scale[tris]
        if pts.ndim == 3:
            c, s = c[:, None], s[:, None]
        return (pts - c) / s[..., None]

    def _C(self, tris, pts):
        return self.C[tris][:, None] if pts.ndim == 3 else self.C[tris]

    def values_at(self, tris, pts):
        m = _mono_values(self._local(tris, pts))
        return (m[..., None, :] @ self._C(tris, pts))[..., 0, :]

    def grads_at(self, tris, pts):
        s = self.scale[tris][:, None] if pts.ndim == 3 else self.scale[tris]
        g = _mono_grads(self._local(tris, pts)) / s[..., None, None]
        return np.swapaxes(self._C(tris, pts), -1, -2) @ g


def random_function(dofmap, rng, n_components=1, scale=1.0):
    return scale * rng.standard_normal(n_components * dofmap.n_free)


def evaluate(mesh, dofmap, u, triangle, lam, derivative="value"):
    """Value or (Morley) gradient of u at the barycentric point lam (3,) of
    the given element, from its polynomial; no inter-element continuity is
    assumed."""
    tab = basis_tables(mesh, dofmap.space)
    loc = local_coefficients(dofmap, u)[triangle]
    lam = np.asarray(lam, dtype=float)[None, :]
    if derivative == "value":
        return float(tab.values_at(lam)[triangle, 0] @ loc)
    return tab.grads_at(lam)[triangle, 0].T @ loc


def vertex_lam(mesh, triangle, vertex):
    """Barycentric coordinates of a vertex of the given element."""
    return np.eye(3)[list(mesh.triangles[triangle]).index(vertex)]


def midpoint_lam(mesh, triangle, edge):
    """Barycentric coordinates of the midpoint of an edge of the element;
    local edge k is opposite local vertex k."""
    return 0.5 * (1.0 - np.eye(3)[list(mesh.edge_of_triangle[triangle]).index(edge)])


def interior_edges(mesh):
    return np.flatnonzero(~mesh.boundary_edge)


def interior_vertices(mesh):
    return np.flatnonzero(~mesh.boundary_vertex)


def read_records_csv(path):
    """The ConvergenceRecords of a CSV that write_records_csv wrote; an
    empty field reads as None."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            def fget(key, cast=float):
                return cast(row[key]) if row[key] not in ("", None) else None
            records.append(ConvergenceRecord(
                level=int(row["level"]), n_free=int(row["n_free"]),
                h_max=float(row["h_max"]), error_pw=fget("error_pw"),
                eta_total=float(row["eta_total"]),
                newton_iters=int(row["newton_iters"]),
                rate_error=fget("rate_error"), rate_eta=fget("rate_eta")))
    return records


def cr_apriori_terms(mesh, u_exact, problem):
    """The CR a priori terms || p - Pi_0 p || with p = A grad(u) + u b, and
    osc_1(f - gamma u), from the integrands that `estimate` sums."""
    if problem.kind is not ProblemKind.SECOND_ORDER_CR:
        raise ValueError("cr_apriori_terms applies to the CR problem")
    p_sq, _, osc1 = _cr_apriori_integrands(mesh, u_exact, problem)
    return float(np.sqrt(p_sq.sum())), osc1


def morley_dofmap(mesh):
    return build_dofmap(mesh, SpaceTag.MORLEY)


def cr_dofmap(mesh):
    return build_dofmap(mesh, SpaceTag.CROUZEIX_RAVIART)


def volume_rule(mesh, degree):
    """Points (nt, nq, 2) and weights (nt, nq) of the degree-exact volume
    rule on every element at once, the weights carrying the element area: a
    whole-mesh reference for the checks, apart from the element blocks that
    the package samples on."""
    rule = quad_triangle(degree)
    return (rule.points @ mesh.vertices[mesh.triangles],
            2.0 * geometry(mesh).area[:, None] * rule.weights)


def b_pw(asm):
    """The matrix of b_pw alone on the CR level asm: Assembler._init_cr's
    element matrices on the set-up's basis values, scattered as set-up
    scatters them before it adds G."""
    vals = 1.0 - 2.0 * quad_triangle(VOLUME_QUAD_DEGREE).points
    return _scatter_matrix(asm._init_cr(vals)[1], asm.dofmap)


def free_index(mesh, dofmap):
    """The free index of every element dof (nt, nloc) as int64, -1 where the
    dof is constrained, built from element_dofs and dof_of_free alone: a
    reference that shares nothing with DofMap.slots."""
    dofs = element_dofs(mesh, dofmap.space)
    index = np.full(dofs.max() + 1, -1)
    index[dofmap.dof_of_free] = np.arange(dofmap.n_free)
    return index[dofs]


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


class SplaSpy:
    """Stands in for scipy.sparse.linalg inside ncfem.solve, as the
    benchmark's tracer does, and records the calls its spans see and what
    they return, per name and in one ordered log of (name, args); `perturb`
    is added to the first spsolve solution."""

    def __init__(self, perturb=0.0):
        self.args = {"splu": [], "spsolve": []}
        self.results = {"splu": [], "spsolve": []}
        self.log = []
        self.perturb = perturb

    @property
    def calls(self):
        return {name: len(seen) for name, seen in self.args.items()}

    def __getattr__(self, name):
        fn = getattr(scipy.sparse.linalg, name)
        if name not in self.args:
            return fn

        def recorded(*args, **kwargs):
            self.args[name].append((args, kwargs))
            self.log.append((name, args))
            out = fn(*args, **kwargs)
            if name == "spsolve" and len(self.args[name]) == 1:
                out = out + self.perturb
            self.results[name].append(out)
            return out
        return recorded
