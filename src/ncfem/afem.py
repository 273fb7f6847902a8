"""The one level driver (solve, estimate, mark, refine) of adaptive runs,
uniform studies and `ncfem solve`; a level's arrays leave it via on_level.

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

from .assembly import assembler
from .estimators import EstimatorReport, broken_energy_error, estimate
from .interpolation import dof_values, transfer_morley
from .mesh import bisect, uniform_refine
from .problems import ProblemSpec
from .solve import newton_solve
from .spaces import SpaceTag, function_from_element_values, space_of

__all__ = [
    "ConvergenceRecord", "NewtonDivergence", "dorfler_mark", "afem_loop",
    "AfemResult", "uniform_study", "corner_fraction",
]


@dataclass
class ConvergenceRecord:
    level: int
    n_free: int
    h_max: float
    error_pw: float | None     # broken energy error; None, see _run_levels
    eta_total: float
    newton_iters: int
    rate_error: float | None = None
    rate_eta: float | None = None


class NewtonDivergence(RuntimeError):
    """Newton failed to converge at some level; carries the partial history."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records


def _check_theta(theta):
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")


def dorfler_mark(mesh, report: EstimatorReport, theta: float):
    """Greedy minimal bulk-marking set M with
    sum_{K in M} eta_K'^2 >= theta * sum_K eta_K'^2, as its element indices
    in ascending order (an intp array)."""
    _check_theta(theta)
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
        return np.empty(0, dtype=np.intp)
    k = int(np.searchsorted(csum, theta * total * (1.0 - 1e-12))) + 1
    chosen = order[:k]
    return np.sort(chosen[ind[chosen] > 0.0])


def _rate(prev, cur, q_log):
    if prev is None or cur is None or prev <= 0 or cur <= 0 or q_log == 0:
        return None
    return math.log2(prev / cur) / q_log


def _clamped(mesh, dofmap, exact):
    """Whether the dof values of exact vanish (to 1e-8) at every constrained
    dof of dofmap: whether exact satisfies the clamped conditions on the
    domain of mesh, and so can solve its problem there."""
    rows = dof_values(mesh, dofmap.space, exact)
    return bool(np.abs(np.delete(rows, dofmap.dof_of_free, axis=1))
                .max(initial=0.0) <= 1e-8)


@dataclass
class AfemResult:
    """Per level: the record and the Newton trace.  No mesh or solution is
    kept; a caller takes those in the drivers' on_level callback."""
    records: list
    traces: list


def _run_levels(problem, mesh0, refine_step, q_log, tol,
                on_level=None) -> AfemResult:
    """SOLVE -> ESTIMATE -> (MARK ->) REFINE, once per mesh.

    The driver is each level's only owner: a level is one Assembler, built
    once per mesh and handed to Newton and the estimators.  transfer_morley
    takes U's Morley dof values on the next mesh, and the level is let go
    before the next one is set up and restricts them to Newton's start; the
    values go once restricted.  The linear CR problem starts every later
    level from zero.  So only the run's first level is a cold start (U0
    None, a direct first Newton step); every later one is warm and takes
    its steps by GMRES on the G factor (see solve).
    refine_step(record, mesh, report) returns the next mesh, or None to stop;
    q_log(prev_record, record) is the log2 ratio that the rates divide by.
    error_pw is measured only when the problem carries an exact solution
    whose dof values vanish at the constrained dofs of level 0, i.e. that
    satisfies the clamped conditions on this domain.
    on_level(asm, U, record), if given, is called once per level after its
    record is made; whatever it keeps of asm and U stays alive."""
    res = AfemResult(records=[], traces=[])
    mesh, values = mesh0, None
    measured = problem.exact is not None
    while mesh is not None:
        asm = assembler(mesh, problem)
        if not res.records:         # the run's one cold start
            measured = measured and _clamped(mesh, asm.dofmap, problem.exact)
            U0 = None
        elif values is None:        # CR: the linear problem starts from zero
            U0 = np.zeros(asm.dofmap.n_free)
        else:
            U0 = function_from_element_values(asm.dofmap, values)
        values = None
        U, trace = newton_solve(asm, U0=U0, tol=tol)
        if not trace.converged:
            raise NewtonDivergence(
                f"Newton did not converge within {len(trace.residual_norms)} "
                f"iterations at n_free = {asm.dofmap.n_free}", res.records)
        report = estimate(asm, U)
        err = broken_energy_error(asm, U) if measured else None
        rec = ConvergenceRecord(level=len(res.records),
                                n_free=asm.dofmap.n_free,
                                h_max=asm.geom.h_max, error_pw=err,
                                eta_total=report.eta_total,
                                newton_iters=trace.iterations)
        if res.records:
            prev = res.records[-1]
            q = q_log(prev, rec)
            rec.rate_error = _rate(prev.error_pw, err, q)
            rec.rate_eta = _rate(prev.eta_total, rec.eta_total, q)
        res.records.append(rec)
        res.traces.append(trace)
        if on_level is not None:
            on_level(asm, U, rec)
        mesh = refine_step(rec, mesh, report)
        if mesh is not None and asm.dofmap.space is SpaceTag.MORLEY:
            values = transfer_morley(asm, U, mesh)
        asm = report = None
    return res


def afem_loop(problem: ProblemSpec, mesh0, theta: float, max_free_dofs: int,
              tol: float = 1e-10, on_level=None) -> AfemResult:
    """Adaptive loop with Doerfler marking and bisection; stops once n_free
    exceeds max_free_dofs or nothing is marked.  on_level(asm, U, record)
    is called once per level (see _run_levels).  Morley problems only: the
    CR indicators are a priori terms of the exact solution that never read
    the discrete one, so nothing would drive the marking."""
    _check_theta(theta)
    if space_of(problem.kind) is not SpaceTag.MORLEY:
        raise ValueError("afem needs a Morley problem: the CR indicators do "
                         "not read the discrete solution")

    def mark_and_bisect(rec, mesh, report):
        if rec.n_free > max_free_dofs:
            return None
        marked = dorfler_mark(mesh, report, theta)
        return bisect(mesh, marked) if len(marked) else None

    return _run_levels(
        problem, mesh0, mark_and_bisect,
        lambda prev, rec: 0.5 * math.log2(rec.n_free / prev.n_free), tol,
        on_level)


def uniform_study(problem: ProblemSpec, mesh0, levels: int,
                  tol: float = 1e-10, on_level=None) -> AfemResult:
    """Uniform-refinement convergence study over `levels` meshes (level 0 is
    mesh0); on_level as in afem_loop."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return _run_levels(
        problem, mesh0,
        lambda rec, mesh, report: (uniform_refine(mesh)
                                   if rec.level + 1 < levels else None),
        lambda prev, rec: math.log2(prev.h_max / rec.h_max), tol, on_level)


def corner_fraction(mesh, center=(0.0, 0.0), radius: float = 0.1):
    """Fraction of triangles whose closure intersects the disc around
    `center` (distance from the disc center to the triangle <= radius)."""
    c = np.asarray(center, dtype=float)
    p = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    d2 = np.full(mesh.n_triangles, np.inf)
    cross = np.empty((3, mesh.n_triangles))
    for k in range(3):
        a = p[:, k]
        ab = p[:, (k + 1) % 3] - a
        ac = c - a
        t = np.clip(np.einsum("td,td->t", ac, ab)
                    / np.einsum("td,td->t", ab, ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d2 = np.minimum(d2, np.einsum("td,td->t", c - proj, c - proj))
        # twice the area of (a, b, c): 2|T| times lambda of the third vertex
        cross[k] = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    # points inside a (counterclockwise) triangle have distance zero; the
    # three crosses sum to 2|T|, so each lambda >= -1e-12 reads
    inside = (cross >= -1e-12 * cross.sum(axis=0)).all(axis=0)
    d2[inside] = 0.0
    return float(np.count_nonzero(d2 <= radius ** 2) / mesh.n_triangles)
