"""Command-line interface: config validation, subcommands, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from dbc import cli, optimizer
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


def test_usage_errors_exit_one(tmp_path, capsys, study_config):
    assert main([]) == 1
    assert main(["study"]) == 1  # missing --config
    assert "usage error" in capsys.readouterr().err
    cfg, out = study_config
    assert main(["study", "--config", cfg, "--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


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
        (
            "[solver]\ncg_tol = 1e-12\n[study]\nlevels = 2x2\n",
            "unknown key 'cg_tol'",
        ),
        (
            "[solver]\npdas_scaling = 10\n[study]\nlevels = 2x2\n",
            "unknown key 'pdas_scaling'",
        ),
        (
            "[problem]\nlambda = 0\n[study]\nlevels = 2x2\n",
            "key 'lambda' in [problem] must be a finite number > 0, got 0.0",
        ),
        (
            "[problem]\nlambda = inf\n[study]\nlevels = 2x2\n",
            "key 'lambda' in [problem] must be a finite number > 0, got inf",
        ),
        (
            "[problem]\nq_a = 0.1\n[study]\nlevels = 2x2\n",
            "key 'q_a' in [problem] must be a number <= 0, got 0.1",
        ),
        (
            "[problem]\nq_b = nan\n[study]\nlevels = 2x2\n",
            "key 'q_b' in [problem] must be a number >= 0, got nan",
        ),
        (
            "[solver]\ntol = -1\n[study]\nlevels = 2x2\n",
            "key 'tol' in [solver] must be a finite number > 0, got -1.0",
        ),
        (
            "[solver]\ntol = nan\n[study]\nlevels = 2x2\n",
            "key 'tol' in [solver] must be a finite number > 0, got nan",
        ),
        (
            "[solver]\nmax_outer = -1\n[study]\nlevels = 2x2\n",
            "key 'max_outer' in [solver] must be an integer >= 0, got -1",
        ),
    ],
)
def test_config_errors_exit_one(tmp_path, monkeypatch, capsys, body, message):
    # Run where the default output directory "out" would be made, so that
    # an output directory left behind by a rejected config shows.
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "bad.cfg", body)
    assert main(["study", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


@pytest.mark.parametrize(
    "command,body,message",
    [
        ("solve", "[problem]\nlambda = 0\n", "key 'lambda' in [problem]"),
        ("solve", "[solver]\ntol = nan\n", "key 'tol' in [solver]"),
        ("check", "[check]\nseed = -1\n", "key 'seed' in [check] must be an integer"),
    ],
)
def test_solve_and_check_reject_bad_numbers(
    tmp_path, monkeypatch, capsys, command, body, message
):
    """``dbc solve`` and ``dbc check`` reject a bad number with exit 1 and
    leave no output directory behind."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "bad.cfg", body + "[solve]\nn = 3\nm = 3\n")
    assert main([command, "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


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


def _break_cg(monkeypatch):
    def broken(*args, **kwargs):
        raise optimizer.CGBreakdownError("curvature lost positive definiteness", 1)

    monkeypatch.setattr(optimizer, "_pcg", broken)


def test_study_cg_breakdown_writes_the_report_and_exits_two(
    tmp_path, monkeypatch, capsys
):
    """A CG breakdown is a solver failure: ``dbc study`` exits 2, and
    table.csv and report.json name the level that failed."""
    _break_cg(monkeypatch)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "study.cfg", f"[study]\nlevels = 3x3\noutput_dir = {out}\n"
    )
    assert main(["study", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "study failed: level (n=3, M=3): curvature lost positive" in err
    with open(out / "table.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1
    payload = json.loads((out / "report.json").read_text())
    assert payload["failure"].startswith("level (n=3, M=3): curvature lost")
    assert payload["levels"] == []


def test_study_data_error_writes_the_report_and_exits_one(
    tmp_path, monkeypatch, capsys
):
    """A source that is NaN everywhere stops the study at its first level
    with a data error: exit 1, ``data error: level (n=3, M=3): …``, and
    table.csv and report.json written, the report's failure naming the
    level."""
    nan_source = lambda x, y, t: np.full_like(x * t, np.nan)
    monkeypatch.setitem(
        cli.CASES, "bump", lambda: dataclasses.replace(bump_case(), source=nan_source)
    )
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "study.cfg", f"[study]\nlevels = 3x3, 6x6\noutput_dir = {out}\n"
    )
    assert main(["study", "--config", cfg]) == 1
    err = capsys.readouterr().err
    failure = "level (n=3, M=3): the source is not finite at t = 0.0704416"
    assert f"data error: {failure}" in err
    assert "study failed" not in err
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 and rows[0][:2] == ["n", "M"]
    payload = json.loads((out / "report.json").read_text())
    assert payload["failure"] == failure
    assert payload["levels"] == []


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


def test_solve_infinite_bounds_leave_the_box_open(tmp_path):
    """``q_a = -inf`` and ``q_b = inf`` are a valid config: the box is open
    on both sides, so no bound is active and the solve takes one outer
    iteration."""
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "solve.cfg",
        "[problem]\nq_a = -inf\nq_b = inf\n"
        f"[solve]\nn = 3\nm = 3\noutput_dir = {out}\n",
    )
    assert main(["solve", "--config", cfg]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["kkt"]["num_lower_active"] == 0
    assert payload["kkt"]["num_upper_active"] == 0
    assert payload["kkt"]["infeasibility"] == 0.0
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


def test_data_that_is_not_finite_exits_one(tmp_path, monkeypatch, capsys):
    """A source that is NaN everywhere is a data error, not a solver
    failure: ``dbc solve`` exits 1 and names the source."""
    nan_source = lambda x, y, t: np.full_like(x * t, np.nan)
    monkeypatch.setitem(
        cli.CASES, "bump", lambda: dataclasses.replace(bump_case(), source=nan_source)
    )
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "solve.cfg", f"[solve]\nn = 8\nm = 6\noutput_dir = {out}\n"
    )
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "data error: the source is not finite at t = 0.0352208" in err
    assert "solver failure" not in err
    assert not out.exists()


def test_solve_cg_breakdown_exits_two(tmp_path, monkeypatch, capsys):
    _break_cg(monkeypatch)
    cfg = write_config(tmp_path / "solve.cfg", "[solve]\nn = 3\nm = 3\n")
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", cfg]) == 2
    assert "solver failure: curvature lost positive definiteness" in (
        capsys.readouterr().err
    )


def test_solve_nonconvergence_exits_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "solve.cfg",
        "[solve]\nn = 3\nm = 3\n[solver]\nmax_outer = 0\n",
    )
    assert main(["solve", "--config", cfg]) == 2
    assert "solver failure" in capsys.readouterr().err
