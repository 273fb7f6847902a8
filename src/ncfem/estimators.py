"""Explicit residual a posteriori estimators for the Morley schemes and the
Crouzeix-Raviart a priori diagnostic terms.

Navier-Stokes (Morley):
    eta_K^2 = h_K^4 || curl(-Lap u_M grad u_M) - f ||_{L2(K)}^2
    eta_E^2 = h_E   || [D^2 u_M]_E tau_E ||_{L2(E)}^2
            + h_E^3 || [Lap u_M grad u_M]_E . tau_E ||_{L2(E)}^2
            + h_E^3 || {Lap u_M grad u_M}_E . tau_E ||_{L2(E)}^2
The average contribution (third line) is reported separately as well: its
efficiency is unknown, only its decay is asserted.

Von Karman (Morley), with the optional verification load g in the second
equation:
    eta_K^2 = h_K^4 (|| [u,v] + f ||_{L2(K)}^2 + || [u,u] - 2g ||_{L2(K)}^2)
    eta_E^2 = h_E (|| [D^2 u]_E tau_E ||^2 + || [D^2 v]_E tau_E ||^2)

Jumps and averages on boundary edges are the traces themselves, and every
edge term is a closed form (README Notes).  osc_sq sums osc_0(.)^2 with
p = 2 over the loads that are set, f and then g.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import geometry
from .problems import ProblemKind, ProblemSpec
from .quadrature import quad_triangle
from .spaces import SpaceTag, element_blocks, local_coefficients
from .interpolation import OSCILLATION_DEGREE, oscillation

__all__ = [
    "EstimatorReport", "broken_energy_error", "estimate",
]

ESTIMATOR_VOLUME_DEGREE = OSCILLATION_DEGREE  # loads are sampled once for both
MORLEY_OSC_K = 0    # the Morley estimator reports osc_0 of its loads


@dataclass(frozen=True, eq=False)
class EstimatorReport:
    eta_K_sq: np.ndarray      # (nt,)
    eta_E_sq: np.ndarray      # (ne,)
    avg_term_S_sq: float      # NS only: the separately-tracked average term
    osc_sq: float             # oscillation of the data, k and p per problem
    eta_total: float          # sqrt(sum eta_K^2 + sum eta_E^2)


def _samples(mesh, *lead):
    """An empty float array (*lead, nt, nq) for values at the estimator's
    volume points, filled block by block."""
    nq = len(quad_triangle(ESTIMATOR_VOLUME_DEGREE).weights)
    return np.empty(lead + (mesh.n_triangles, nq))


def _centroid_gradients(tab, c_loc):
    """grad u (nt, 2) at the centroids, sum_i (c_v,i + w_i / 3) grad lambda_i,
    of the functions with local coefficients c_loc (nt, 6)."""
    cv, w = tab.barycentric_form(c_loc)
    return np.einsum("ti,tid->td", cv + w / 3.0, tab.grad_lambda)


def _hessian_jump_term(geom, H, t_plus, t_minus):
    """h_E || [D^2 u]_E tau_E ||^2_{L2(E)} per edge, exact for constants."""
    jump = H[t_plus].copy()
    interior = t_minus >= 0
    jump[interior] -= H[t_minus[interior]]
    vec = np.einsum("eab,eb->ea", jump, geom.tau_E)
    return geom.h_E ** 2 * np.einsum("ea,ea->e", vec, vec)


def _tangential_flux(H, g, cent, mids, tau, tris):
    """(a, b) (2, ne) of (Lap u grad u) . tau = a + b s from the side `tris`
    of the edges of midpoints mids and tangents tau (ne, 2), s the arc
    length from the midpoint; H are the per-element hessians of u and g
    (nt, 2) its gradients at the centroids cent (nt, 2): grad u is affine on
    each element, g_T + H_T (x - c_T)."""
    Ht = H[tris]
    # H is symmetric, so (m - c) . H tau is H (m - c) . tau
    Htau = np.einsum("eab,eb->ea", Ht, tau)
    a = (np.einsum("ed,ed->e", g[tris], tau)
         + np.einsum("ed,ed->e", mids - cent[tris], Htau))
    return (Ht[:, 0, 0] + Ht[:, 1, 1]) * np.stack(
        [a, np.einsum("ed,ed->e", tau, Htau)])


def _bracket(Ha, Hb):
    """[a, b] = a_xx b_yy + a_yy b_xx - 2 a_xy b_xy of hessians (n, 2, 2)."""
    return (Ha[:, 0, 0] * Hb[:, 1, 1] + Ha[:, 1, 1] * Hb[:, 0, 0]
            - 2.0 * Ha[:, 0, 1] * Hb[:, 0, 1])


def _estimate_morley(asm, U) -> EstimatorReport:
    """The residual estimator of the Morley function U on the level asm, with
    the loads f and g (None: unset) of its problem: one component u_M for
    Navier-Stokes, the pair (u, v) for von Karman."""
    mesh, dofmap, geom, tab = asm.mesh, asm.dofmap, asm.geom, asm.tables
    problem = asm.problem
    ns = problem.kind is ProblemKind.NAVIER_STOKES_MORLEY
    cs = [local_coefficients(dofmap, U, c) for c in range(problem.n_components)]
    Hs = [tab.hessians(c_loc) for c_loc in cs]

    lq = _samples(mesh, 1 + (problem.g is not None))   # f, then g if set
    vol = np.empty(mesh.n_triangles)    # sum of ||residual||^2_{L2(K)}
    for sl, xq, wdx in element_blocks(mesh, ESTIMATOR_VOLUME_DEGREE):
        lq[0, sl] = problem.f(xq)
        if problem.g is not None:
            lq[1, sl] = problem.g(xq)
        fq = lq[0, sl]
        if ns:
            # curl(-Lap u grad u) = -grad(Lap u) x grad u = 0 elementwise for P2
            residuals = (fq,)
        else:
            Hu, Hv = (H[sl] for H in Hs)
            res2 = _bracket(Hu, Hu)[:, None]
            if problem.g is not None:
                res2 = res2 - 2.0 * lq[1, sl]
            residuals = (_bracket(Hu, Hv)[:, None] + fq, res2)
        vol[sl] = sum((wdx * r ** 2).sum(axis=1) for r in residuals)
    eta_K_sq = geom.h_T ** 4 * vol

    t_plus, t_minus = mesh.triangles_of_edge.T    # t_minus < 0: boundary
    eta_E_sq = sum(_hessian_jump_term(geom, H, t_plus, t_minus) for H in Hs)
    avg_term_S_sq = 0.0
    if ns:
        mids = mesh.vertices[mesh.edges].mean(axis=1)
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        g = _centroid_gradients(tab, cs[0])
        interior = t_minus >= 0
        plus, minus = (_tangential_flux(Hs[0], g, cent, mids, geom.tau_E, t)
                       for t in (t_plus, np.where(interior, t_minus, t_plus)))
        # minus is plus on a boundary edge: the average there is the trace,
        # and so is the jump once minus is dropped.  h_E^3 times the squared
        # L2(E) norm of a + b s is h_E^4 (a^2 + b^2 h_E^2 / 12)
        h = geom.h_E
        jump_sq, avg_sq = (h ** 4 * (a ** 2 + b ** 2 * h ** 2 / 12.0)
                           for a, b in (plus - interior * minus,
                                        0.5 * (plus + minus)))
        eta_E_sq = eta_E_sq + jump_sq + avg_sq
        avg_term_S_sq = float(avg_sq.sum())

    osc_sq = sum((oscillation(mesh, q, k=MORLEY_OSC_K, p=2)[1] ** 2
                  for q in lq), 0.0)
    return EstimatorReport(eta_K_sq=eta_K_sq, eta_E_sq=eta_E_sq,
                           avg_term_S_sq=avg_term_S_sq, osc_sq=osc_sq,
                           eta_total=float(np.sqrt(eta_K_sq.sum()
                                                   + eta_E_sq.sum())))


def _cr_apriori_integrands(mesh, u_exact, problem: ProblemSpec):
    """Weighted quadrature values (nt, nq) of |p - Pi_0 p|^2 with
    p = A grad(u) + u b, and osc_1(f - gamma u) per element and in total.
    A Field's gradient is a fresh array, so p is built in place on it."""
    area = geometry(mesh).area
    data, p_sq = _samples(mesh), _samples(mesh)
    for sl, xq, wdx in element_blocks(mesh, ESTIMATOR_VOLUME_DEGREE):
        val = u_exact.value(xq)
        data[sl] = problem.f(xq)
        if problem.gamma is not None:
            data[sl] -= problem.gamma(xq) * val
        p = u_exact.gradient(xq)
        if problem.A is not None:
            p = np.einsum("tqab,tqb->tqa", problem.A(xq), p)
        if problem.b is not None:
            p += val[..., None] * problem.b(xq)
        p -= ((wdx[..., None] * p).sum(axis=1) / area[sl, None])[:, None, :]
        p_sq[sl] = wdx * np.einsum("tqa,tqa->tq", p, p)
    osc_el, osc1 = oscillation(mesh, data, k=1, p=1)
    return p_sq, osc_el, osc1


def broken_energy_error(asm, U):
    """Broken energy error of U on the level asm against the exact solution
    of its problem (problem.exact, one Field per component): the piecewise
    H^2 seminorm distance for Morley (summed over components), the
    A-weighted piecewise H^1 distance for CR."""
    dofmap, A, exact = asm.dofmap, asm.problem.A, asm.problem.exact
    if exact is None:
        raise ValueError("the broken energy error needs the exact solution, "
                         "and the problem has none")
    morley = dofmap.space is SpaceTag.MORLEY
    if morley:
        Ds = [asm.tables.hessians(local_coefficients(dofmap, U, comp))
              for comp in range(len(exact))]
    else:
        Ds = [np.einsum("tjd,tj->td", asm.tables.grads,
                        local_coefficients(dofmap, U))]
    sq = _samples(asm.mesh, len(exact))      # the integrand of each component
    for sl, xq, wdx in element_blocks(asm.mesh, ESTIMATOR_VOLUME_DEGREE):
        for fld, D, out in zip(exact, Ds, sq):
            if morley:
                diff = fld.hessian(xq) - D[sl, None, :, :]
                out[sl] = wdx * np.einsum("tqab,tqab->tq", diff, diff)
            else:
                diff = fld.gradient(xq)
                diff -= D[sl, None, :]
                Adiff = (diff if A is None
                         else np.einsum("tqab,tqb->tqa", A(xq), diff))
                out[sl] = wdx * np.einsum("tqa,tqa->tq", diff, Adiff)
    total = 0.0
    for out in sq:
        total += out.sum()
    return float(np.sqrt(total))


def estimate(asm, U) -> EstimatorReport:
    """Problem-dispatching estimate step of the level driver, for U on the
    level asm: the residual estimator for both Morley problems.

    For the CR problem the a priori diagnostic terms of problem.exact stand
    in as element indicators, by design: they never read U, which is only
    checked against the dof map.  Without an exact solution there is nothing
    to estimate a CR level by, and a ValueError is raised."""
    mesh, problem, n_free = asm.mesh, asm.problem, asm.dofmap.n_free
    cr = problem.kind is ProblemKind.SECOND_ORDER_CR
    if len(U) != problem.n_components * n_free:
        raise ValueError(f"{len(U)} coefficients are not {problem.n_components} "
                         f"{'CR' if cr else 'Morley'} component(s) of n_free = {n_free}")
    if not cr:
        return _estimate_morley(asm, U)
    if problem.exact is None:
        raise ValueError("a CR level is estimated by the a priori terms of "
                         "its exact solution, and the problem has none")
    p_sq, osc_el, osc1 = _cr_apriori_integrands(mesh, problem.exact[0],
                                                problem)
    eta_K_sq = p_sq.sum(axis=1) + osc_el
    return EstimatorReport(eta_K_sq=eta_K_sq, eta_E_sq=np.zeros(mesh.n_edges),
                           avg_term_S_sq=0.0, osc_sq=float(osc1 ** 2),
                           eta_total=float(np.sqrt(eta_K_sq.sum())))
