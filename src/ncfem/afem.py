"""Adaptive loop (solve, estimate, mark, refine) and uniform studies.

Marking uses Doerfler bulk criterion on combined element indicators
eta_K'^2 = eta_K^2 + sum over the element's edges of eta_E^2 / (number of
adjacent elements), i.e. edge terms split evenly between their neighbours.
The greedy minimal set is deterministic: ties break by ascending element
index.

Rate conventions: uniform studies report rates against h_max ratios,
rate = log2(e_prev / e_cur) / log2(h_prev / h_cur); the adaptive loop, where
h_max can stall under local refinement, reports rates against the free dof
count, rate = -2 log(q_e) / log(q_n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorReport, broken_energy_error, estimate
from .interpolation import transfer_morley
from .mesh import bisect, geometry, uniform_refine
from .problems import ProblemKind, ProblemSpec
from .solve import newton_solve
from .spaces import SpaceTag, build_dofmap

__all__ = [
    "ConvergenceRecord", "NewtonDivergence", "dorfler_mark", "afem_loop",
    "AfemResult", "uniform_study", "corner_fraction",
]


@dataclass
class ConvergenceRecord:
    level: int
    n_free: int
    h_max: float
    error_pw: float | None     # broken energy error, None without exact solution
    eta_total: float
    newton_iters: int
    rate_error: float | None = None
    rate_eta: float | None = None


class NewtonDivergence(RuntimeError):
    """Newton failed to converge at some level; carries the partial history."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records


def dorfler_mark(mesh, report: EstimatorReport, theta: float):
    """Greedy minimal bulk-marking set M with
    sum_{K in M} eta_K'^2 >= theta * sum_K eta_K'^2."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    ind = report.eta_K_sq.astype(float).copy()
    adj = mesh.triangles_of_edge.ravel()
    side = adj >= 0
    share = report.eta_E_sq / side.reshape(-1, 2).sum(axis=1)
    # unbuffered and in edge order: each ind[t] sums its edges' shares in
    # ascending edge order
    np.add.at(ind, adj[side], np.repeat(share, 2)[side])
    order = np.lexsort((np.arange(len(ind)), -ind))
    csum = np.cumsum(ind[order])
    total = csum[-1] if len(csum) else 0.0
    if total <= 0.0:
        return set()
    k = int(np.searchsorted(csum, theta * total * (1.0 - 1e-12))) + 1
    chosen = order[:k]
    return set(int(t) for t in chosen if ind[t] > 0.0)


def _space_for(problem: ProblemSpec):
    return (SpaceTag.CROUZEIX_RAVIART
            if problem.kind is ProblemKind.SECOND_ORDER_CR else SpaceTag.MORLEY)


def _solve_level(mesh, problem, prev, tol, records):
    dofmap = build_dofmap(mesh, _space_for(problem))
    U0 = None
    if prev is not None and dofmap.space is SpaceTag.MORLEY:
        prev_mesh, prev_dofmap, prev_U = prev
        U0 = transfer_morley(prev_mesh, prev_dofmap, prev_U, mesh, dofmap)
    U, trace = newton_solve(mesh, dofmap, problem, U0=U0, tol=tol)
    if not trace.converged:
        raise NewtonDivergence(
            f"Newton did not converge within {len(trace.residual_norms)} "
            f"iterations at n_free = {dofmap.n_free}", records)
    return dofmap, U, trace


def _rate(prev, cur, q_log):
    if prev is None or cur is None or prev <= 0 or cur <= 0 or q_log == 0:
        return None
    return math.log2(prev / cur) / q_log


@dataclass
class AfemResult:
    records: list
    meshes: list
    solutions: list


def afem_loop(problem: ProblemSpec, mesh0, theta: float, max_free_dofs: int,
              tol: float = 1e-10, exact=None) -> AfemResult:
    """Adaptive loop; stops once n_free exceeds max_free_dofs.  The previous
    solution is carried to the refined mesh as the Newton starting iterate
    (Morley spaces; the linear CR problem restarts from zero)."""
    records, meshes, solutions = [], [], []
    mesh = mesh0
    prev = None
    level = 0
    while True:
        dofmap, U, trace = _solve_level(mesh, problem, prev, tol, records)
        report = estimate(mesh, dofmap, problem, U, exact=exact)
        err = (broken_energy_error(mesh, dofmap, problem, U, exact)
               if exact is not None else None)
        rec = ConvergenceRecord(level=level, n_free=dofmap.n_free,
                                h_max=geometry(mesh).h_max, error_pw=err,
                                eta_total=report.eta_total,
                                newton_iters=trace.iterations)
        if records:
            q_log = 0.5 * math.log2(rec.n_free / records[-1].n_free)
            rec.rate_error = _rate(records[-1].error_pw, err, q_log)
            rec.rate_eta = _rate(records[-1].eta_total, rec.eta_total, q_log)
        records.append(rec)
        meshes.append(mesh)
        solutions.append(U)
        if dofmap.n_free > max_free_dofs:
            break
        marked = dorfler_mark(mesh, report, theta)
        if not marked:
            break
        prev = (mesh, dofmap, U)
        mesh = bisect(mesh, marked)
        level += 1
    return AfemResult(records=records, meshes=meshes, solutions=solutions)


def uniform_study(problem: ProblemSpec, mesh0, levels: int,
                  tol: float = 1e-10, exact=None, keep_all: bool = False):
    """Uniform-refinement convergence study over `levels` meshes (level 0 is
    mesh0).  Each level starts Newton from the transferred previous solution.

    Returns the records, or (records, AfemResult-like detail) with keep_all."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    records, meshes, solutions, traces, dofmaps = [], [], [], [], []
    mesh = mesh0
    prev = None
    for level in range(levels):
        dofmap, U, trace = _solve_level(mesh, problem, prev, tol, records)
        report = estimate(mesh, dofmap, problem, U, exact=exact)
        err = (broken_energy_error(mesh, dofmap, problem, U, exact)
               if exact is not None else None)
        h_max = geometry(mesh).h_max
        rec = ConvergenceRecord(level=level, n_free=dofmap.n_free,
                                h_max=h_max, error_pw=err,
                                eta_total=report.eta_total,
                                newton_iters=trace.iterations)
        if records:
            q_log = math.log2(records[-1].h_max / h_max)
            rec.rate_error = _rate(records[-1].error_pw, err, q_log)
            rec.rate_eta = _rate(records[-1].eta_total, rec.eta_total, q_log)
        records.append(rec)
        meshes.append(mesh)
        solutions.append(U)
        traces.append(trace)
        dofmaps.append(dofmap)
        if level + 1 < levels:
            prev = (mesh, dofmap, U)
            mesh = uniform_refine(mesh)
    if keep_all:
        return records, {"meshes": meshes, "solutions": solutions,
                         "traces": traces, "dofmaps": dofmaps}
    return records


def corner_fraction(mesh, center=(0.0, 0.0), radius: float = 0.1):
    """Fraction of triangles whose closure intersects the disc around
    `center` (distance from the disc center to the triangle <= radius)."""
    c = np.asarray(center, dtype=float)
    p = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    d2 = np.full(mesh.n_triangles, np.inf)
    for k in range(3):
        a = p[:, k]
        b = p[:, (k + 1) % 3]
        ab = b - a
        t = np.clip(np.einsum("td,td->t", c - a, ab)
                    / np.einsum("td,td->t", ab, ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d2 = np.minimum(d2, np.einsum("td,td->t", c - proj, c - proj))
    # points inside a triangle have distance zero
    v0 = p[:, 0]
    g = np.linalg.inv(np.stack([p[:, 1] - v0, p[:, 2] - v0], axis=-1))
    lam = np.einsum("tde,te->td", g, c - v0)
    inside = (lam[:, 0] >= -1e-12) & (lam[:, 1] >= -1e-12) \
        & (lam.sum(axis=1) <= 1 + 1e-12)
    d2[inside] = 0.0
    return float(np.count_nonzero(d2 <= radius ** 2) / mesh.n_triangles)
