"""Command-line interface: config validation, subcommands, exit codes."""

import csv
import json

import pytest

from dbc import cli
from dbc.cli import ConfigError, load_config, main
from dbc.manufactured import bump_case


def write_config(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def study_config(tmp_path):
    out = tmp_path / "out"
    return write_config(
        tmp_path / "study.cfg",
        f"""
[problem]
case = bump

[study]
levels = 3x3, 6x6
output_dir = {out}
""",
    ), out


# -- config validation ----------------------------------------------------------


def test_load_config_validates_sections_and_keys(tmp_path):
    good = write_config(
        tmp_path / "ok.cfg", "[problem]\ncase = bump\nlambda = 1e-3\n"
    )
    cp = load_config(good)
    assert cp.get("problem", "case") == "bump"
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"))
    bad_section = write_config(tmp_path / "s.cfg", "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[mystery\]"):
        load_config(bad_section)
    bad_key = write_config(tmp_path / "k.cfg", "[problem]\nwavelength = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'wavelength'"):
        load_config(bad_key)


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["study"]) == 1  # missing --config
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,message",
    [
        ("[study]\nlevels =\noutput_dir = o\n", "levels must be nonempty"),
        ("[study]\nlevels = 8y6\noutput_dir = o\n", "expected NxM"),
        ("[study]\noutput_dir = o\n", "missing"),
        ("[problem]\ncase = typo\n[study]\nlevels = 2x2\n", "available: bump"),
        ("[problem]\nlambda = abc\n[study]\nlevels = 2x2\n", "not a number"),
        ("[solver]\nmax_outer = 1.5\n[study]\nlevels = 2x2\n", "not an integer"),
        ("levels = 2x2\n[study]\n", "malformed config"),
        ("[study]\nlevels = 2x2, eightx6\n", "bad level 'eightx6' (expected NxM)"),
        ("[study]\nlevels = 0x6\n", "subdivision count must be a positive"),
    ],
)
def test_config_errors_exit_one(tmp_path, capsys, body, message):
    cfg = write_config(tmp_path / "bad.cfg", body)
    assert main(["study", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


# -- study ------------------------------------------------------------------------


def test_study_writes_table_and_report(study_config, capsys):
    cfg, out = study_config
    assert main(["study", "--config", cfg]) == 0
    assert "study complete: 2 levels" in capsys.readouterr().out

    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["n", "M", "h", "k", "sigma"]
    assert len(rows) == 3
    assert rows[1][0] == "3" and rows[2][0] == "6"
    assert rows[1][6] == ""  # no rate on the first level
    float(rows[2][6])  # rates are numeric afterwards

    payload = json.loads((out / "report.json").read_text())
    assert payload["failure"] is None
    assert len(payload["levels"]) == 2


def test_study_outputs_are_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_config(
            tmp_path / f"{tag}.cfg",
            f"[study]\nlevels = 3x3\noutput_dir = {out}\n",
        )
        assert main(["study", "--config", cfg]) == 0
        outs.append((out / "table.csv").read_bytes())
    assert outs[0] == outs[1]


def test_study_nonconvergence_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "study.cfg",
        f"[study]\nlevels = 3x3\noutput_dir = {out}\n"
        "[solver]\nmax_outer = 0\n",
    )
    assert main(["study", "--config", cfg]) == 2
    assert "study failed" in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert "did not converge" in payload["failure"]


def test_study_slab_failure_exits_two(tmp_path, capsys, corrupt_slab_solve):
    """A wrong slab solve on the 6x6 level (25 interior vertices) stops the
    study with exit code 2; table.csv and report.json keep the 3x3 level."""
    corrupt_slab_solve(1, size=25)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "study.cfg", f"[study]\nlevels = 3x3, 6x6\noutput_dir = {out}\n"
    )
    assert main(["study", "--config", cfg]) == 2
    assert "study failed: level (n=6, M=6): slab 1 solve failed" in (
        capsys.readouterr().err
    )
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[:2] for row in rows[1:]] == [["3", "3"]]
    payload = json.loads((out / "report.json").read_text())
    assert "slab 1 solve failed" in payload["failure"]
    assert len(payload["levels"]) == 1


# -- check ------------------------------------------------------------------------


def test_check_subcommand_runs_selected_checks(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "check.cfg", "[check]\nchecks = adjoint, coercivity\nseed = 1\n"
    )
    assert main(["check", "--config", cfg]) == 0
    output = capsys.readouterr().out
    assert "pass  adjoint" in output
    assert "pass  coercivity" in output
    assert "gradient" not in output


def test_check_unknown_name_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "check.cfg", "[check]\nchecks = nope\n")
    assert main(["check", "--config", cfg]) == 1
    assert "unknown check" in capsys.readouterr().err


def test_check_selecting_no_check_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "check.cfg", "[check]\nchecks = , ,\n")
    assert main(["check", "--config", cfg]) == 1
    assert "selects no checks" in capsys.readouterr().err


def test_check_defaults_run_everything(tmp_path, capsys):
    cfg = write_config(tmp_path / "check.cfg", "[problem]\ncase = bump\n")
    assert main(["check", "--config", cfg]) == 0
    output = capsys.readouterr().out
    for name in ("adjoint", "coercivity", "gradient", "hessian"):
        assert f"pass  {name}" in output


# -- solve ------------------------------------------------------------------------


def test_solve_writes_snapshots_and_diagnostics(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "solve.cfg",
        f"[solve]\nn = 3\nm = 3\noutput_dir = {out}\n",
    )
    assert main(["solve", "--config", cfg, "--dump-matrices"]) == 0
    assert "solve complete" in capsys.readouterr().out

    with open(out / "snapshots" / "control.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # (M - 1) levels x 16 nodes plus the header.
    assert len(rows) == 1 + 2 * 16
    assert rows[0] == ["level", "t", "node", "x", "y", "value"]

    for name in ("state", "adjoint"):
        with open(out / "snapshots" / f"{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 16

    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["n"] == 3 and payload["m"] == 3
    assert payload["kkt"]["infeasibility"] == 0.0
    for matrix in ("mass", "stiffness", "control_seminorm"):
        assert (out / "matrices" / f"{matrix}.mtx").is_file()


def test_solve_wide_bounds_have_empty_active_sets(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "solve.cfg",
        "[problem]\nq_a = -1e6\nq_b = 1e6\n"
        f"[solve]\nn = 3\nm = 3\noutput_dir = {out}\n",
    )
    assert main(["solve", "--config", cfg]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["kkt"]["num_lower_active"] == 0
    assert payload["kkt"]["num_upper_active"] == 0
    assert payload["kkt"]["outer_iterations"] == 1


def test_solve_lambda_override_reaches_the_problem(tmp_path, monkeypatch):
    """``lambda`` in [problem] replaces the case's regularization weight in
    the problem that ``dbc solve`` solves."""
    solved = []
    setup_problem = cli.setup_problem

    def recorded(*args, **kwargs):
        problem = setup_problem(*args, **kwargs)
        solved.append(problem)
        return problem

    monkeypatch.setattr(cli, "setup_problem", recorded)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "solve.cfg",
        f"[problem]\nlambda = 0.02\n[solve]\nn = 3\nm = 3\noutput_dir = {out}\n",
    )
    assert main(["solve", "--config", cfg]) == 0
    (problem,) = solved
    assert problem.lam == 0.02
    assert bump_case().lam != 0.02


def test_solve_requires_level_keys(tmp_path, capsys):
    cfg = write_config(tmp_path / "solve.cfg", "[solve]\nn = 3\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "'n' and 'm'" in capsys.readouterr().err


def test_solve_nonconvergence_exits_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "solve.cfg",
        "[solve]\nn = 3\nm = 3\n[solver]\nmax_outer = 0\n",
    )
    assert main(["solve", "--config", cfg]) == 2
    assert "solver failure" in capsys.readouterr().err
