"""Command line driver.

    ncfem solve|afem|study|infsup|verify [--config FILE] [overrides...]
    python -m ncfem ...    (the same; python -m cProfile -m ncfem ... profiles it)

Config files are plain 'key = value' text (comments with '#'); command-line
flags override file entries.  Exit codes: 0 success, 1 numerical failure
(divergence or a failed verification check), 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import assembly, mesh as meshmod, solve as solvemod
from .afem import NewtonDivergence, afem_loop, corner_fraction, uniform_study
from .interpolation import dof_values, interpolate
from .problems import (ProblemKind, manufactured, polynomial_field,
                       registry_names)
from .reporting import emit_plots, write_records_csv
from .spaces import element_blocks, element_dofs

__all__ = ["main"]

USAGE_ERROR, NUMERICAL_ERROR = 2, 1


@dataclass
class RunConfig:
    command: str = "study"
    problem: str = registry_names()[0]     # ns_poly
    domain: str = "unit_square"
    levels: int = 4
    theta: float = 0.5
    tol: float = 1e-10
    max_free_dofs: int = 10000
    output_dir: str = "out"
    seed: int = 0
    base_refinements: int = 0

    def validate(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.base_refinements < 0:
            raise ValueError("base_refinements must be >= 0")
        if self.max_free_dofs < 1:
            raise ValueError("max_free_dofs must be >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.problem not in registry_names():
            raise ValueError(f"unknown problem {self.problem!r}; available: "
                             + ", ".join(registry_names()))


# the cast of each RunConfig field that a flag and a config key set: all
# but the subcommand
_SETTINGS = {f.name: {"int": int, "float": float, "str": str}[f.type]
             for f in fields(RunConfig) if f.name != "command"}


def _parse_config_file(path) -> dict:
    """Keys and cast values of a config file; each value is validated on its
    own, so an error names the path and line.  The subcommand is no key."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key](val)
            replace(RunConfig(), **{key: values[key]}).validate()
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _resolve_domain(name):
    if name in ("unit_square", "l_shape"):
        return meshmod.builtin_domain(name)
    if Path(name).exists():
        return meshmod.read_mesh(name)
    raise ValueError(f"unknown domain {name!r}: not a builtin "
                     "(unit_square, l_shape) and not a mesh file")


def _print_records(records):
    print(f"{'lvl':>3} {'n_free':>8} {'h_max':>10} {'error_pw':>12} "
          f"{'eta_total':>12} {'it':>3} {'r_err':>6} {'r_eta':>6}")
    for r in records:
        err = f"{r.error_pw:.4e}" if r.error_pw is not None else "-"
        re_ = f"{r.rate_error:.2f}" if r.rate_error is not None else "-"
        rn = f"{r.rate_eta:.2f}" if r.rate_eta is not None else "-"
        print(f"{r.level:>3} {r.n_free:>8} {r.h_max:>10.4e} {err:>12} "
              f"{r.eta_total:>12.4e} {r.newton_iters:>3} {re_:>6} {rn:>6}")


def _run_and_report(cfg: RunConfig, stem: str, drive, summary=None):
    """Shared body of `study` and `afem`: drive(problem, mesh) runs the
    levels; the records go to <stem>.csv, <stem>.svg and stdout, or to the
    CSV alone when Newton diverges.  summary(result) may print more."""
    problem = manufactured(cfg.problem)
    mesh = meshmod.refine(_resolve_domain(cfg.domain), cfg.base_refinements)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    try:
        result = drive(problem, mesh)
    except NewtonDivergence as exc:
        write_records_csv(exc.records, csv_path)
        print(f"numerical failure: {exc} (partial results in {csv_path})",
              file=sys.stderr)
        return NUMERICAL_ERROR
    write_records_csv(result.records, csv_path)
    emit_plots(result.records, out, stem=stem)
    _print_records(result.records)
    if summary is not None:
        summary(result)
    print(f"wrote {csv_path}")
    return 0


def _cmd_study(cfg: RunConfig):
    return _run_and_report(
        cfg, f"study_{cfg.problem}",
        lambda problem, mesh: uniform_study(problem, mesh, cfg.levels,
                                            tol=cfg.tol))


def _cmd_afem(cfg: RunConfig):
    # on the L-shape, each level's share of triangles near the re-entrant
    # corner, taken while the level is alive: the loop keeps no mesh
    l_shape = cfg.domain == "l_shape"
    fracs = []

    def on_level(asm, U, record):
        fracs.append(corner_fraction(asm.mesh))

    def corner_fractions(result):
        print("corner fraction per level: "
              + " ".join(f"{f:.3f}" for f in fracs))

    return _run_and_report(
        cfg, f"afem_{cfg.problem}_{Path(cfg.domain).stem}",
        lambda problem, mesh: afem_loop(
            problem, mesh, cfg.theta, cfg.max_free_dofs, tol=cfg.tol,
            on_level=on_level if l_shape else None),
        corner_fractions if l_shape else None)


def _cmd_solve(cfg: RunConfig):
    problem = manufactured(cfg.problem)
    mesh = meshmod.refine(_resolve_domain(cfg.domain),
                          cfg.base_refinements + cfg.levels - 1)
    kants = []

    def on_level(asm, U, record):
        # Newton-Kantorovich claims a discrete solution near I_h u; at the
        # converged u_h, delta is only Newton's residual, so without an exact
        # solution clamped on the domain the report stands for beta0 alone
        start = (U if record.error_pw is None
                 else interpolate(asm.mesh, asm.dofmap, problem.exact))
        kants.append(solvemod.kantorovich_report(asm, start))

    res = uniform_study(problem, mesh, 1, tol=cfg.tol, on_level=on_level)
    rec, trace, kant = res.records[0], res.traces[0], kants[0]
    print(f"problem {cfg.problem} on {cfg.domain}: "
          f"n_free = {rec.n_free}, "
          f"newton_iters = {trace.iterations}, "
          f"residual = {trace.residual_norms[-1]:.3e}, "
          f"krylov_iters = {sum(trace.krylov_iterations)}, "
          f"fallbacks = {trace.direct_fallbacks}")
    print(f"eta_total = {rec.eta_total:.6e}")
    if rec.error_pw is not None:
        print(f"error_pw = {rec.error_pw:.6e}")
    delta, h, met = (("n/a",) * 3 if rec.error_pw is None else
                     (f"{kant.delta:.3e}", f"{kant.h:.3e}", kant.condition_met))
    print(f"kantorovich: beta0 = {kant.beta0:.4e}, delta = {delta}, h = {h}, "
          f"condition_met = {met}, gamma_rounds = {kant.gamma_rounds}")
    return 0


def _cmd_infsup(cfg: RunConfig):
    problem = manufactured(cfg.problem)
    if problem.kind is not ProblemKind.SECOND_ORDER_CR:
        print("infsup expects a CR problem (e.g. cr_sine)", file=sys.stderr)
        return USAGE_ERROR
    mesh = meshmod.refine(_resolve_domain(cfg.domain), cfg.base_refinements)
    print(f"{'lvl':>3} {'n_free':>8} {'beta_h':>12}")
    rows = []
    for level in range(cfg.levels):
        asm = assembly.assembler(mesh, problem)
        beta = solvemod.infsup_constant(asm.jacobian(None).T, asm.gram())
        rows.append((level, asm.dofmap.n_free, beta))
        print(f"{level:>3} {asm.dofmap.n_free:>8} {beta:>12.6e}")
        asm = None     # let the level go before the next one is refined
        if level + 1 < cfg.levels:
            mesh = meshmod.uniform_refine(mesh)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"infsup_{cfg.problem}.csv"
    path.write_text("level,n_free,beta_h\n" + "".join(
        f"{level},{n},{beta!r}\n" for level, n, beta in rows))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# verify: the identity suite

def _verify_checks(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    mesh = meshmod.refine(_resolve_domain(cfg.domain), 1)
    from .quadrature import (quad_triangle,
                             reference_triangle_monomial_integral)
    from .mesh import geometry

    # quadrature exactness against the closed-form monomial integrals
    worst_q = 0.0
    for degree in range(1, 7):
        rule = quad_triangle(degree)
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                val = sum(w * (pt[1] ** p) * (pt[2] ** q)
                          for pt, w in zip(rule.points, rule.weights))
                worst_q = max(worst_q, abs(val - reference_triangle_monomial_integral(p, q)))
    yield "quadrature exactness", worst_q, 1e-12

    asm = assembly.assembler(mesh, manufactured("ns_poly"))
    dm, tab = asm.dofmap, asm.tables
    # the six functionals of the closed-form basis: values at the vertices,
    # normal derivatives at the edge midpoints (the edge means, as the
    # gradients are affine)
    nu = geometry(mesh).nu_E[mesh.edge_of_triangle]
    dn = np.einsum("tkjd,tkd->tkj", tab.grads_at(0.5 * (1 - np.eye(3))), nu)
    duality = np.abs(np.concatenate([tab.values_at(np.eye(3)), dn], axis=1)
                     - np.eye(6)).max()
    yield "morley dof duality", duality, 1e-12

    worst = 0.0
    for _ in range(100):
        eta, chi = rng.standard_normal(dm.n_free), rng.standard_normal(dm.n_free)
        scale = max(1.0, np.abs(eta).max() * np.abs(chi).max() ** 2)
        worst = max(worst, abs(asm.gamma_ns_value(eta, chi, chi)) / scale)
    yield "gamma antisymmetry (navier-stokes)", worst, 1e-12

    asm = assembly.assembler(mesh, manufactured("vk_poly"))
    zero = np.zeros(dm.n_free)

    def bracket(e, c, p):       # b(e, c, p) = Gamma((e, 0), (0, c), (p, 0))
        return asm.gamma_vk_value(np.r_[e, zero], np.r_[zero, c], np.r_[p, zero])

    worst = 0.0
    for _ in range(100):
        e, c, p = (rng.standard_normal(dm.n_free) for _ in range(3))
        worst = max(worst, abs(bracket(e, c, p) - bracket(c, e, p)))
    yield "bracket symmetry (von karman)", worst, 1e-12

    # commuting identities for random polynomials of degree <= 4
    def random_poly(max_deg):
        deg = np.add.outer(np.arange(max_deg + 1), np.arange(max_deg + 1))
        c = np.zeros(deg.shape)
        c[deg <= max_deg] = rng.standard_normal(np.count_nonzero(deg <= max_deg))
        return polynomial_field(c)

    area = geometry(mesh).area
    worst = 0.0
    for _ in range(20):
        fld = random_poly(4)
        loc = dof_values(mesh, dm.space, fld)[0][element_dofs(mesh, dm.space)]
        Him = tab.hessians(loc)
        for sl, xq, wdx in element_blocks(mesh, 4):
            mean = np.einsum("tq,tqab->tab", wdx, fld.hessian(xq)) / area[sl, None, None]
            worst = max(worst, np.abs(Him[sl] - mean).max())
    yield "morley commuting identity D2 I_M = Pi0 D2", worst, 1e-10

    asm_cr = assembly.assembler(mesh, manufactured("cr_sine"))
    dm_cr, grads_cr = asm_cr.dofmap, asm_cr.cr_gradients()
    worst = 0.0
    for _ in range(20):
        fld = random_poly(4)
        loc = dof_values(mesh, dm_cr.space, fld)[0][element_dofs(mesh, dm_cr.space)]
        g_h = np.einsum("tjd,tj->td", grads_cr, loc)
        for sl, xq, wdx in element_blocks(mesh, 4):
            mean = np.einsum("tq,tqd->td", wdx, fld.gradient(xq)) / area[sl, None]
            worst = max(worst, np.abs(g_h[sl] - mean).max())
    yield "cr commuting identity grad I_CR = Pi0 grad", worst, 1e-10

    # jacobian against central finite differences of the residual
    for name in ("cr_sine", "ns_poly", "vk_poly"):
        problem = manufactured(name)
        asm = assembly.assembler(mesh, problem)
        U = 0.1 * rng.standard_normal(asm.dofmap.n_free * problem.n_components)
        J = asm.jacobian(U).toarray()
        fd = solvemod.fd_jacobian(asm, U)
        defect = np.abs(J - fd).max() / max(1.0, np.abs(fd).max())
        yield f"jacobian vs finite differences ({name})", defect, 1e-6


def _cmd_verify(cfg: RunConfig):
    failures = 0
    for name, defect, threshold in _verify_checks(cfg):
        ok = defect <= threshold
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<48} "
              f"defect {defect:.3e}  threshold {threshold:.1e}")
    print(f"verify: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else NUMERICAL_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncfem",
        description="Nonconforming FEM toolkit: Morley / Crouzeix-Raviart "
                    "solvers, Newton-Kantorovich diagnostics, residual "
                    "estimators, adaptive bisection refinement.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"problem": f"one of: {', '.join(registry_names())}",
             "domain": "unit_square, l_shape or a mesh file"}
    for name, help_ in [("solve", "solve one problem and print diagnostics"),
                        ("afem", "adaptive refinement loop"),
                        ("study", "uniform-refinement convergence study"),
                        ("infsup", "discrete inf-sup constants across levels"),
                        ("verify", "run the identity suite")]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="key = value configuration file")
        for key, cast in _SETTINGS.items():
            flag = "--out" if key == "output_dir" else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=cast, help=helps.get(key))
    return parser


def load_config(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        cfg = replace(cfg, **_parse_config_file(args.config))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    dispatch = {"solve": _cmd_solve, "afem": _cmd_afem, "study": _cmd_study,
                "infsup": _cmd_infsup, "verify": _cmd_verify}
    try:
        cfg = load_config(args)
        return dispatch[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
