import numpy as np
import pytest

from ncfem.afem import ConvergenceRecord
from ncfem.cli import main
from ncfem.reporting import emit_plots, read_records_csv, write_records_csv


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
    code = main(["study", "--problem", "bogus", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    for name in ("ns_poly", "vk_poly", "cr_sine"):
        assert name in err


def test_cli_bad_config_value(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("theta = 1.5\n")
    code = main(["study", "--config", str(cfgfile)])
    assert code == 2


def test_cli_unknown_config_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("thetta = 0.5\n")
    assert main(["study", "--config", str(cfgfile)]) == 2


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


def test_cli_solve(capsys):
    code = main(["solve", "--problem", "ns_poly", "--levels", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "newton_iters" in out and "eta_total" in out and "error_pw" in out


def test_cli_verify_passes(capsys):
    code = main(["verify", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 7


def test_cli_verify_corrupt_jacobian_fails(capsys):
    code = main(["verify", "--seed", "1", "--corrupt-jacobian"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_verify_on_lshape(capsys):
    code = main(["verify", "--domain", "l_shape", "--seed", "2"])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_solve_reads_mesh_file(tmp_path, capsys):
    from ncfem.mesh import builtin_domain, write_mesh
    path = tmp_path / "square.mesh"
    write_mesh(builtin_domain("unit_square"), path)
    code = main(["solve", "--problem", "cr_sine", "--domain", str(path),
                 "--levels", "2"])
    assert code == 0
