"""Command-line interface.

Three subcommands, all driven by an INI-style config file:

  dbc study --config study.cfg [--jobs N]   run a convergence study
  dbc check --config study.cfg              run verification checks
  dbc solve --config study.cfg              solve one level, dump fields

Exit codes: 0 success, 1 usage or config errors, 2 numerical nonconvergence
or failed checks.  The DBC_LOG environment variable sets the log level
(DEBUG, INFO, WARNING, ...).  Outputs are deterministic: identical config
and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import logging
import os
import sys

from .assembly import export_matrix_market
from .checks import CHECKS, run_checks
from .forward import SolverError
from .manufactured import CASES, run_study, setup_problem
from .mesh import MeshError
from .optimizer import PdasNonconvergence, pdas_solve

log = logging.getLogger("dbc.cli")


class ConfigError(Exception):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_SCHEMA = {
    "problem": {"case", "lambda", "q_a", "q_b"},
    "study": {"levels", "output_dir"},
    "solver": {"tol", "max_outer", "cg_tol", "pdas_scaling"},
    "solve": {"n", "m", "output_dir"},
    "check": {"checks", "seed"},
}


def load_config(path):
    """Parse and validate the config; returns a ConfigParser."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    return cp


def _get_float(cp, section, key, default=None):
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"key '{key}' in [{section}] is not a number: {raw!r}") from err


def _get_int(cp, section, key, default=None):
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as err:
        raise ConfigError(
            f"key '{key}' in [{section}] is not an integer: {raw!r}"
        ) from err


def _load_case(cp):
    name = cp.get("problem", "case", fallback="bump")
    if name not in CASES:
        raise ConfigError(
            f"unknown case '{name}'; available: {', '.join(sorted(CASES))}"
        )
    case = CASES[name]()
    overrides = {}
    lam = _get_float(cp, "problem", "lambda")
    if lam is not None:
        overrides["lam"] = lam
    q_a = _get_float(cp, "problem", "q_a")
    if q_a is not None:
        overrides["q_a"] = q_a
    q_b = _get_float(cp, "problem", "q_b")
    if q_b is not None:
        overrides["q_b"] = q_b
    return dataclasses.replace(case, **overrides) if overrides else case


def _parse_levels(raw):
    if raw is None:
        raise ConfigError("key 'levels' missing in section [study]")
    levels = []
    for item in raw.replace(";", ",").split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"bad level '{item}' (expected NxM, e.g. 8x6)")
        try:
            levels.append((int(parts[0]), int(parts[1])))
        except ValueError as err:
            raise ConfigError(f"bad level '{item}' (expected NxM)") from err
    if not levels:
        raise ConfigError("levels must be nonempty")
    return levels


def _solver_options(cp):
    return {
        "tol": _get_float(cp, "solver", "tol", 1e-9),
        "max_outer": _get_int(cp, "solver", "max_outer", 50),
        "cg_tol": _get_float(cp, "solver", "cg_tol", None),
        "active_set_scale": _get_float(cp, "solver", "pdas_scaling", None),
    }


def cmd_study(args):
    cp = load_config(args.config)
    case = _load_case(cp)
    levels = _parse_levels(cp.get("study", "levels", fallback=None))
    opts = _solver_options(cp)
    out_dir = cp.get("study", "output_dir", fallback="out")
    os.makedirs(out_dir, exist_ok=True)
    report = run_study(
        levels, case, tol=opts["tol"], max_outer=opts["max_outer"], jobs=args.jobs
    )
    report.write_csv(os.path.join(out_dir, "table.csv"))
    report.write_json(os.path.join(out_dir, "report.json"))
    if report.failure:
        print(f"study failed: {report.failure}", file=sys.stderr)
        return 2
    print(f"study complete: {len(report.records)} levels -> {out_dir}")
    return 0


def cmd_check(args):
    cp = load_config(args.config)
    raw = cp.get("check", "checks", fallback=",".join(sorted(CHECKS)))
    names = [item.strip() for item in raw.split(",") if item.strip()]
    if not names:
        raise ConfigError("key 'checks' in [check] selects no checks")
    seed = _get_int(cp, "check", "seed", 0)
    try:
        results = run_checks(names, seed=seed)
    except KeyError as err:
        raise ConfigError(str(err.args[0])) from err
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 2


def _write_snapshot_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_solve(args):
    cp = load_config(args.config)
    case = _load_case(cp)
    n = _get_int(cp, "solve", "n")
    M = _get_int(cp, "solve", "m")
    if n is None or M is None:
        raise ConfigError("section [solve] needs keys 'n' and 'm'")
    opts = _solver_options(cp)
    out_dir = cp.get("solve", "output_dir", fallback="out")
    problem = setup_problem(n, M, case)
    result = pdas_solve(
        problem,
        tol=opts["tol"],
        max_outer=opts["max_outer"],
        cg_tol=opts["cg_tol"],
        active_set_scale=opts["active_set_scale"],
    )

    mesh = problem.disc.mesh
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    xy = mesh.triangulation.vertices
    pts = mesh.time_partition.points

    def num(x):
        return f"{x:.8g}"

    rows = []
    for l in range(mesh.num_control_levels):
        t = pts[l + 1]
        for j in range(mesh.num_nodes):
            rows.append(
                [l + 1, num(t), j, num(xy[j, 0]), num(xy[j, 1]),
                 num(result.control.values[l, j])]
            )
    _write_snapshot_csv(
        os.path.join(snap_dir, "control.csv"),
        ["level", "t", "node", "x", "y", "value"],
        rows,
    )

    for name, fld in (("state", result.state), ("adjoint", result.adjoint)):
        full = fld.full_values()
        rows = []
        for m in range(mesh.num_slabs):
            t = pts[m + 1]
            for j in range(mesh.num_nodes):
                rows.append(
                    [m + 1, num(t), j, num(xy[j, 0]), num(xy[j, 1]),
                     num(full[m, j])]
                )
        _write_snapshot_csv(
            os.path.join(snap_dir, f"{name}.csv"),
            ["slab", "t", "node", "x", "y", "value"],
            rows,
        )

    with open(os.path.join(out_dir, "diagnostics.json"), "w") as fh:
        payload = {
            "n": n,
            "m": M,
            "sigma": mesh.sigma,
            "kkt": result.diagnostics.as_dict(),
        }
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if args.dump_matrices:
        export_matrix_market(problem.disc, os.path.join(out_dir, "matrices"))

    print(f"solve complete: n={n} m={M} -> {out_dir}")
    return 0


def build_parser():
    parser = _Parser(prog="dbc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", help="run a convergence study")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--jobs", type=int, default=1)
    p_study.set_defaults(func=cmd_study)

    p_check = sub.add_parser("check", help="run verification checks")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="solve a single level")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--dump-matrices", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("DBC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, MeshError) as err:
        # A MeshError here comes from the level sizes the config names.
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (PdasNonconvergence, SolverError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
