import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncfem
from conftest import patch_newton, read_records_csv
from ncfem.afem import ConvergenceRecord
from ncfem.assembly import Assembler
from ncfem.cli import RunConfig, main
from ncfem.mesh import builtin_domain, refine
from ncfem.problems import manufactured
from ncfem.reporting import emit_plots, write_records_csv
from ncfem.solve import kantorovich_report, newton_solve, sparse_solve


def records_sample():
    return [
        ConvergenceRecord(level=0, n_free=9, h_max=0.7071067811865476,
                          error_pw=0.0672460123, eta_total=1.2005712345,
                          newton_iters=1),
        ConvergenceRecord(level=1, n_free=49, h_max=0.3535533905932738,
                          error_pw=0.0517859321, eta_total=0.3304971234,
                          newton_iters=2, rate_error=0.3768898752629567,
                          rate_eta=1.8610090331694444),
    ]


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "records.csv"
    records = records_sample()
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert back == records


def test_csv_empty_fields(tmp_path):
    rec = ConvergenceRecord(level=0, n_free=5, h_max=1.0, error_pw=None,
                            eta_total=0.5, newton_iters=1)
    path = tmp_path / "r.csv"
    write_records_csv([rec], path)
    text = path.read_text()
    assert text.endswith("\n")
    assert ",,0.5," in text
    assert read_records_csv(path) == [rec]


def test_emit_plots_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    paths_a = emit_plots(records_sample(), a)
    paths_b = emit_plots(records_sample(), b)
    assert len(paths_a) == len(paths_b) == 1
    assert open(paths_a[0], "rb").read() == open(paths_b[0], "rb").read()
    assert b"<svg" in open(paths_a[0], "rb").read()


def test_emit_plots_empty_warns(tmp_path, capsys):
    assert emit_plots([], tmp_path) == []
    assert "nothing plotted" in capsys.readouterr().err


def test_cli_study_writes_csv(tmp_path):
    out = tmp_path / "out"
    code = main(["study", "--problem", "cr_sine", "--levels", "3",
                 "--out", str(out)])
    assert code == 0
    records = read_records_csv(out / "study_cr_sine.csv")
    assert len(records) == 3
    assert (out / "study_cr_sine.svg").exists()


def test_cli_study_single_level_empty_rates(tmp_path):
    out = tmp_path / "out"
    code = main(["study", "--problem", "cr_sine", "--levels", "1",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "study_cr_sine.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",,")


def test_cli_unknown_problem_is_usage_error(tmp_path, capsys):
    # verify runs fixed problems, but its --problem is checked all the same
    for command in ("study", "verify"):
        code = main([command, "--problem", "bogus", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("ns_poly", "vk_poly", "cr_sine"):
            assert name in err


def test_cli_bad_config_value(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    for text, key in (("theta = 1.5\n", "theta"),
                      ("problem = nope\n", "problem")):
        cfgfile.write_text(text)
        code = main(["study", "--config", str(cfgfile)])
        assert code == 2
        assert f"{cfgfile}:1: {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("levels = 2\ntol = small\n", "tol"),
    ("# levels as a word\nlevels = two\n", "levels"),
], ids=["float", "int"])
def test_cli_bad_config_cast_names_path_and_line(tmp_path, capsys, text, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert main(["verify", "--config", str(cfgfile)]) == 2
    assert f"{cfgfile}:2: {key}:" in capsys.readouterr().err


def test_cli_unknown_config_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("thetta = 0.5\n")
    assert main(["study", "--config", str(cfgfile)]) == 2


def test_cli_config_key_command_is_unknown(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("levels = 1\ncommand = afem\n")
    assert main(["infsup", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 2
    assert f"{cfgfile}:2: unknown key 'command'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["study", "--base-refinements", "-1"],
    ["afem", "--base-refinements", "-1"],
    ["solve", "--base-refinements", "-2"],
    ["afem", "--max-free-dofs", "-5"],
    ["afem", "--max-free-dofs", "0"],
])
def test_cli_bad_level_arguments_are_usage_errors(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_afem_refuses_a_cr_problem(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["afem", "--problem", "cr_sine", "--out", str(out)]) == 2
    assert "Morley problem" in capsys.readouterr().err
    assert not any(out.glob("*.csv"))


def test_cli_config_file_with_overrides(tmp_path):
    out = tmp_path / "o1"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# study configuration\nproblem = cr_sine\nlevels = 2\n"
        f"output_dir = {out}\nseed = 3\n")
    code = main(["study", "--config", str(cfgfile), "--levels", "3"])
    assert code == 0
    assert len(read_records_csv(out / "study_cr_sine.csv")) == 3


def test_cli_afem_on_lshape(tmp_path):
    out = tmp_path / "out"
    code = main(["afem", "--problem", "ns_unit_load", "--domain", "l_shape",
                 "--max-free-dofs", "300", "--out", str(out)])
    assert code == 0
    records = read_records_csv(out / "afem_ns_unit_load_l_shape.csv")
    assert records[-1].n_free > 300


def test_cli_infsup(tmp_path):
    out = tmp_path / "out"
    code = main(["infsup", "--problem", "cr_sine", "--levels", "2",
                 "--base-refinements", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "infsup_cr_sine.csv").read_text().strip().splitlines()
    assert lines[0] == "level,n_free,beta_h"
    assert len(lines) == 3


@pytest.mark.parametrize("command, expected", [
    ("solve", "kantorovich: beta0 = 1.6667e-01,"),
    ("infsup", "  0        1 1.666667e-01\n"),
])
def test_cli_single_free_dof(command, expected, tmp_path, capsys):
    # one CR dof: the 1x1 pencil has the closed form |b| / sqrt(gx gy)
    code = main([command, "--problem", "cr_sine", "--levels", "1",
                 "--base-refinements", "0", "--out", str(tmp_path)])
    assert code == 0
    assert expected in capsys.readouterr().out


def test_cli_infsup_eigensolver_failure_is_numerical_error(tmp_path, monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.empty(0), np.empty((0, 0)))
    monkeypatch.setattr("ncfem.solve.spla.eigsh", no_convergence)
    code = main(["infsup", "--problem", "cr_sine", "--levels", "2",
                 "--base-refinements", "1", "--out", str(tmp_path)])
    assert code == 1


def test_cli_infsup_wrong_problem(tmp_path):
    assert main(["infsup", "--problem", "ns_poly", "--out", str(tmp_path)]) == 2


# the fields that perfbench/checks.py reads from `solve` output, by its regexes
SOLVE_FIELDS = {
    "n_free": r"n_free = (\d+)",
    "eta_total": r"eta_total = (\S+)",
    "error_pw": r"error_pw = (\S+)",
    "beta0": r"beta0 = ([^,\s]+)",
    "delta": r"delta = ([^,\s]+)",
    "h": r"\bh = ([^,\s]+)",
}


def test_cli_solve(capsys):
    code = main(["solve", "--problem", "ns_poly", "--levels", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "newton_iters" in out and "eta_total" in out and "error_pw" in out
    for key, pattern in SOLVE_FIELDS.items():
        m = re.search(pattern, out)
        assert m is not None, f"solve output lacks {key}"
        value = float(m.group(1))
        assert np.isfinite(value) and value > 0, f"{key} = {value}"
    m = re.search(r"gamma_rounds = (\d+)", out)
    assert m is not None, "solve output lacks gamma_rounds"
    mesh = refine(builtin_domain("unit_square"), 1)
    problem = manufactured("ns_poly")
    asm = Assembler(mesh, problem)
    U, _ = newton_solve(asm)
    assert int(m.group(1)) == kantorovich_report(asm, U).gamma_rounds


@pytest.mark.parametrize("problem", ["ns_poly", "vk_poly"])
def test_cli_solve_reports_kantorovich_at_the_interpolant(problem, capsys,
                                                          monkeypatch):
    """solve takes its report at the start x0 = I_h u, where the theorem says
    something: the converged u_h lies within r_minus of the first Newton
    iterate x1 in the G-norm, and delta is far above Newton's tol (at u_h it
    would be Newton's residual).  CR is left out: its m = 0 gives
    r_minus = 0."""
    seen = []

    def spy(asm, U0=None):
        seen.append((asm, U0, kantorovich_report(asm, U0)))
        return seen[-1][2]
    monkeypatch.setattr(ncfem.solve, "kantorovich_report", spy)
    assert main(["solve", "--problem", problem, "--levels", "4"]) == 0
    delta = float(re.search(SOLVE_FIELDS["delta"],
                            capsys.readouterr().out).group(1))
    assert delta > 1e3 * RunConfig().tol
    [(asm, x0, rep)] = seen
    u_h, trace = newton_solve(asm, U0=x0)
    assert trace.converged
    e = u_h - (x0 + sparse_solve(asm.jacobian(x0), -asm.residual(x0)))
    assert np.sqrt(e @ (asm.gram() @ e)) <= rep.r_minus


def test_cli_solve_one_free_dof_stops_gamma_cleanly(tmp_path):
    # the unrefined square has one free dof, where every trilinear gradient
    # vanishes: the power method stops in round 1, and nothing (no 0/0
    # RuntimeWarning) reaches stderr
    src = str(Path(ncfem.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from ncfem.cli import main; "
            "sys.exit(max(main(['solve', '--problem', p, '--levels', '1', "
            "'--out', sys.argv[2]]) for p in ('ns_poly', 'vk_poly')))")
    proc = subprocess.run([sys.executable, "-c", code, src, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert re.findall(r"gamma_rounds = (\d+)", proc.stdout) == ["1", "1"]


def test_python_m_ncfem_runs_the_cli(tmp_path):
    """python -m ncfem reaches cli.main, so python -m cProfile -m ncfem
    profiles a run, not the import alone."""
    src = str(Path(ncfem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ncfem", "solve", "--levels",
                           "2", "--out", str(tmp_path)], capture_output=True,
                          text=True, cwd=tmp_path, env={**os.environ,
                                                        "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "kantorovich:" in proc.stdout


def test_cli_verify_passes(capsys):
    code = main(["verify", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 7


def test_cli_verify_corrupt_jacobian_fails(capsys, monkeypatch):
    # the finite differences read only the residual, so a Jacobian with one
    # entry off must fail its check
    jacobian = Assembler.jacobian

    def corrupted(self, U):
        J = jacobian(self, U).tolil()
        J[0, 0] += 1.0e-2 * (1.0 + abs(J[0, 0]))
        return J.tocsr()

    monkeypatch.setattr(Assembler, "jacobian", corrupted)
    code = main(["verify", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_verify_on_lshape(capsys):
    code = main(["verify", "--domain", "l_shape", "--seed", "2"])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_solve_reads_mesh_file(tmp_path, capsys):
    from ncfem.mesh import write_mesh
    path = tmp_path / "square.mesh"
    write_mesh(builtin_domain("unit_square"), path)
    code = main(["solve", "--problem", "cr_sine", "--domain", str(path),
                 "--levels", "2"])
    assert code == 0


ONE_TRIANGLE = "3 1\n0 0\n1 0\n0 1\n0 1 2\n"


@pytest.mark.parametrize("command, problem", [
    ("study", "ns_poly"), ("afem", "ns_unit_load"), ("solve", "vk_poly"),
    ("solve", "cr_sine"), ("infsup", "cr_sine"),
])
def test_cli_mesh_without_free_dofs_is_usage_error(command, problem, tmp_path,
                                                  capsys):
    # every dof of a single triangle lies on the boundary
    path = tmp_path / "tri.msh"
    path.write_text(ONE_TRIANGLE)
    code = main([command, "--problem", problem, "--domain", str(path),
                 "--levels", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no free dofs" in err and "--base-refinements 1" in err
    assert "Traceback" not in err


def test_cli_study_on_a_refined_single_triangle(tmp_path):
    path = tmp_path / "tri.msh"
    path.write_text(ONE_TRIANGLE)
    out = tmp_path / "out"
    assert main(["study", "--problem", "ns_poly", "--domain", str(path),
                 "--levels", "2", "--base-refinements", "1",
                 "--out", str(out)]) == 0
    records = read_records_csv(out / "study_ns_poly.csv")
    assert [r.n_free for r in records] == [3, 21]


# The adaptive run of scripts/afem_lshape.py up to 4000 free dofs, as the
# list-based adjacency tables produced it: marking and refinement must keep
# every mesh, and so every level, bitwise the same.
AFEM_LSHAPE_N_FREE = [5, 13, 17, 23, 29, 41, 65, 81, 129, 153, 213, 305, 375,
                      519, 701, 903, 1249, 1691, 2301, 3159, 4147]
AFEM_LSHAPE_ETA = [
    3.4641016151377584, 2.4669692944988215, 1.7677669529663702,
    1.389782445146911, 1.0801961240083455, 0.8367051135446859,
    0.6366684081240637, 0.4673012285212849, 0.36050890584914214,
    0.28416989498918366, 0.22458898292255544, 0.17345795123715563,
    0.14090066459934988, 0.11994296940274324, 0.09762529884726233,
    0.07982823354999953, 0.06454928082181023, 0.05351988874311628,
    0.04671088573188704, 0.038748974929143205, 0.03186182813522606,
]


def test_cli_afem_lshape_trajectory_pinned(tmp_path):
    out = tmp_path / "out"
    code = main(["afem", "--problem", "ns_unit_load", "--domain", "l_shape",
                 "--theta", "0.5", "--max-free-dofs", "4000",
                 "--out", str(out)])
    assert code == 0
    records = read_records_csv(out / "afem_ns_unit_load_l_shape.csv")
    assert [r.n_free for r in records] == AFEM_LSHAPE_N_FREE
    assert [r.eta_total for r in records] == pytest.approx(AFEM_LSHAPE_ETA,
                                                           rel=1e-12)


@pytest.mark.parametrize("argv, csv", [
    (["study", "--problem", "ns_poly", "--levels", "4"], "study_ns_poly.csv"),
    (["afem", "--problem", "ns_unit_load", "--domain", "l_shape",
      "--max-free-dofs", "300"], "afem_ns_unit_load_l_shape.csv"),
])
def test_cli_divergence_writes_partial_csv(argv, csv, tmp_path, monkeypatch,
                                           capsys):
    patch_newton(monkeypatch, fail_from_level=2)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: Newton did not converge" in err
    assert "partial results" in err
    assert [r.level for r in read_records_csv(out / csv)] == [0, 1]
    assert not list(out.glob("*.svg"))


def test_cli_solve_divergence_is_numerical_failure(tmp_path, monkeypatch,
                                                   capsys):
    patch_newton(monkeypatch, fail_from_level=0)
    assert main(["solve", "--problem", "ns_poly", "--levels", "2",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: Newton did not converge" in err
    assert "n_free = 9" in err


# meshes that parse but that build_from_arrays rejects, with its message
REJECTED_MESHES = {
    "stray_vertex": ("4 1\n0 0\n1 0\n0 1\n5 5\n0 1 2\n",
                     "vertex 3 belongs to no triangle"),
    "duplicate_vertex": ("4 1\n0 0\n1 0\n0 1\n0 0\n0 1 2\n",
                         "duplicate vertices"),
    "zero_area": ("3 1\n0 0\n1 0\n2 0\n0 1 2\n", "zero-area triangle"),
    # vertex 3 lies on the open edge 0-1 of triangle 0
    "hanging_vertex": ("5 3\n0 0\n2 0\n0 2\n1 0\n1 -1\n0 1 2\n0 3 4\n3 1 4\n",
                       "vertex 3 hangs on an edge"),
}


@pytest.mark.parametrize("name", sorted(REJECTED_MESHES))
def test_cli_rejected_mesh_names_its_file(name, tmp_path, capsys):
    text, message = REJECTED_MESHES[name]
    path = tmp_path / f"{name}.msh"
    path.write_text(text)
    assert main(["study", "--domain", str(path), "--levels", "1",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {path}: " in err and message in err
    assert "Traceback" not in err


def test_cli_os_errors_are_configuration_errors(tmp_path, capsys):
    # a directory given as the mesh file, and a file given as the output
    # directory
    assert main(["study", "--domain", str(tmp_path), "--levels", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["study", "--levels", "1", "--out", str(taken)]) == 2
    assert "configuration error" in capsys.readouterr().err


# The first 4 levels of the von Karman study of scripts/vk_convergence.py
# (its 6-level run in perfbench/reference.json): the two-component transfer
# and the h_max rates must keep every level the same.
VK_STUDY_N_FREE = [9, 49, 225, 961]
VK_STUDY_ERROR = [0.0950419326889216, 0.07322187834690867,
                  0.03868775636336803, 0.019760062280822416]
VK_STUDY_ETA = [2.671888423064828, 0.6958978594741206, 0.19809438580203353,
                0.06929244675157563]


def test_cli_vk_study_trajectory_pinned(tmp_path):
    out = tmp_path / "out"
    code = main(["study", "--problem", "vk_poly", "--levels", "4",
                 "--base-refinements", "1", "--out", str(out)])
    assert code == 0
    records = read_records_csv(out / "study_vk_poly.csv")
    assert [r.n_free for r in records] == VK_STUDY_N_FREE
    assert [r.error_pw for r in records] == pytest.approx(VK_STUDY_ERROR,
                                                          rel=1e-12)
    assert [r.eta_total for r in records] == pytest.approx(VK_STUDY_ETA,
                                                           rel=1e-12)


# The 6-level Crouzeix-Raviart study: one linear solve per level, direct on
# level 0 and by GMRES on the G factor from level 1 on.  GMRES stops at
# tol / 100, so the last digits of error_pw from level 1 on are the
# solver's rounding; they are pinned from the one-block Gram GMRES.
CR_STUDY_N_FREE = [1, 8, 40, 176, 736, 3008]
CR_STUDY_ERROR = [2.3094870300794033, 3.1244837823957257, 6.369934397339946,
                  1.9912952700989437, 0.3589544987726715, 0.11083244547363333]
CR_STUDY_ETA = [7.328201115334552, 1.0916441462364932, 0.6147582252195777,
                0.3042130939011316, 0.15241357786857707, 0.07626804301814682]


def test_cli_cr_study_trajectory_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["study", "--problem", "cr_sine", "--levels", "6",
                 "--out", str(out)]) == 0
    records = read_records_csv(out / "study_cr_sine.csv")
    assert [r.n_free for r in records] == CR_STUDY_N_FREE
    assert [r.error_pw for r in records] == pytest.approx(CR_STUDY_ERROR,
                                                          rel=1e-12)
    assert [r.eta_total for r in records] == pytest.approx(CR_STUDY_ETA,
                                                           rel=1e-12)


@pytest.mark.parametrize("problem, measured", [("ns_poly", False),
                                               ("cr_sine", True)])
def test_cli_error_pw_needs_an_exact_solution_clamped_on_the_domain(
        problem, measured, tmp_path, capsys):
    """The ns_poly bump is clamped on the unit square, not on the L-shape's
    edges x = -1 and y = -1, so it solves no problem there: study writes an
    empty error_pw column, and solve prints none and no Kantorovich delta.
    The cr_sine solution vanishes on every L-shape edge, so it keeps all."""
    out = tmp_path / "out"
    assert main(["study", "--problem", problem, "--domain", "l_shape",
                 "--levels", "2", "--out", str(out)]) == 0
    errors = [r.error_pw for r in read_records_csv(out / f"study_{problem}.csv")]
    assert all((e is not None and e > 0) is measured for e in errors)
    capsys.readouterr()
    assert main(["solve", "--problem", problem, "--domain", "l_shape"]) == 0
    out = capsys.readouterr().out
    assert ("error_pw = " in out) is measured
    assert ("delta = n/a, h = n/a, condition_met = n/a" in out) is not measured


@pytest.mark.parametrize("argv, csv", [
    (["afem", "--problem", "ns_unit_load", "--domain", "l_shape",
      "--theta", "0.5", "--max-free-dofs", "4000"],
     "afem_ns_unit_load_l_shape.csv"),
    (["study", "--problem", "vk_poly", "--levels", "4"], "study_vk_poly.csv"),
])
def test_cli_csv_repeats_bitwise(argv, csv, tmp_path):
    """Two runs in one process write the same CSV bytes."""
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        runs.append((out / csv).read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("text, line", [
    ("3 1\n0 0\n1 0\n0 1\n0 1\n", 5),                  # triangle row of 2 fields
    ("4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2 0\n0 2 3\n", 7),  # r on one row only
    ("4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3 1\n", 7),  # r on the other row only
    ("3 1\n0 0\n1 0 0\n0 1\n0 1 2\n", 3),              # vertex row of 3 fields
    ("3 1\n0 0\n1\n0 1\n0 1 2\n", 3),                  # vertex row of 1 field
    ("# header\n3 1 x\n0 0\n1 0\n0 1\n0 1 2\n", 2),    # header of 3 fields
    ("3 1\n0 0\n1 0\n0 1\n0 1 two\n", 5),              # non-integer index
])
def test_cli_malformed_mesh_file_is_usage_error(text, line, tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    code = main(["study", "--problem", "cr_sine", "--domain", str(path),
                 "--levels", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{path}:{line}:" in capsys.readouterr().err


# the unit square with vertex 4 in no triangle
STRAY_VERTEX = "5 2\n0 0\n1 0\n1 1\n0 1\n0.5 0.25\n0 1 2\n0 2 3\n"


@pytest.mark.parametrize("problem", ["ns_poly", "cr_sine"])
def test_cli_mesh_with_an_unused_vertex_is_usage_error(problem, tmp_path,
                                                      capsys):
    path = tmp_path / "stray.mesh"
    path.write_text(STRAY_VERTEX)
    code = main(["study", "--problem", problem, "--domain", str(path),
                 "--levels", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "vertex 4 belongs to no triangle" in err
    assert "Traceback" not in err


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_assignment(filename, name):
    """The right-hand side of the module-level `name = ...` in a perfbench
    file, parsed without importing it."""
    for node in ast.parse((PERFBENCH / filename).read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{filename} assigns no {name}")


def test_benchmark_spans_resolve():
    """Every span the benchmark requires names a public function of its ncfem
    module or a public Assembler method, so that the tracer wraps it; every
    span whose hit ratio it reports is an lru_cache'd function."""
    spans = [ast.literal_eval(k) for k in _perfbench_assignment("run.py", "REQUIRED_SPANS").keys]
    cached = ast.literal_eval(_perfbench_assignment("tracer.py", "CACHED"))
    assert spans and cached
    for span in spans:
        if span in ("solve.splu", "solve.spsolve"):   # scipy calls, proxied
            continue
        layer, name = span.split(".")
        assert not name.startswith("_"), span
        module = importlib.import_module(f"ncfem.{layer}")
        obj = getattr(module, name, None)
        if (inspect.isfunction(obj) or hasattr(obj, "cache_info")) \
                and obj.__module__ == module.__name__:
            continue
        assert layer == "assembly" and inspect.isfunction(vars(Assembler).get(name)), span
    for span in cached:
        layer, name = span.split(".")
        assert hasattr(getattr(importlib.import_module(f"ncfem.{layer}"), name), "cache_info"), span


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _without_out(argv):
    """argv without its `--out DIR` pair."""
    argv = list(argv)
    i = argv.index("--out")
    return argv[:i] + argv[i + 2:]


def _script_argvs(name):
    """The argv lists that scripts/<name> passes to main, in source order."""
    calls = [node for node in ast.walk(ast.parse((SCRIPTS / name).read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "main"]
    return [_without_out(ast.literal_eval(call.args[0]))
            for call in sorted(calls, key=lambda c: c.lineno)]


def _workload_argvs(name):
    """The argvs of one perfbench workload, read without importing it."""
    workloads = _perfbench_assignment("workloads.py", "WORKLOADS")
    [call] = [v for k, v in zip(workloads.keys, workloads.values)
              if ast.literal_eval(k) == name]
    [commands] = [kw.value for kw in call.keywords if kw.arg == "commands"]
    return [_without_out(argv) for argv in ast.literal_eval(commands)]


def test_benchmark_runs_the_scripts_tables():
    """uniform_studies runs the study argvs of the three convergence scripts
    and diagnostics the infsup half of cr_convergence.py, up to the output
    directory, as perfbench/workloads.py says."""
    ns, vk = _script_argvs("ns_convergence.py"), _script_argvs("vk_convergence.py")
    cr_study, cr_infsup = _script_argvs("cr_convergence.py")
    assert _workload_argvs("uniform_studies") == ns + vk + [cr_study]
    assert cr_infsup in _workload_argvs("diagnostics")
