"""Command-line interface.

Three subcommands, all driven by an INI-style config file:

  dbc study --config study.cfg   run a convergence study
  dbc check --config study.cfg   run verification checks
  dbc solve --config study.cfg   solve one level, dump fields

Exit codes: 0 success, 1 usage, config or data errors, 2 numerical
nonconvergence or failed checks.  A study that stops at a level, on a data
error or a solver failure, still writes table.csv and report.json, whose
``failure`` names that level.  The DBC_LOG environment variable sets the
log level (DEBUG, INFO, WARNING, ...).  Outputs are deterministic: identical
config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import logging
import math
import os
import sys

from .assembly import export_matrix_market
from .checks import CHECKS, run_checks
from .forward import SolverError
from .kernels import AssemblyError
from .manufactured import CASES, run_study, setup_problem
from .mesh import MeshError, uniform_time_partition, unit_square_mesh
from .optimizer import CGBreakdownError, PdasNonconvergence, pdas_solve

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
    "solver": {"tol", "max_outer"},
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


def _get_number(cp, section, key, kind, default=None):
    """``kind(value)`` of the key, ``kind`` being float or int; ``default``
    when the key is missing."""
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError as err:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"key '{key}' in [{section}] is not {noun}: {raw!r}") from err


def _require(holds, section, key, value, condition):
    """Raise ``ConfigError`` naming the key unless its value ``holds``."""
    if not holds:
        raise ConfigError(
            f"key '{key}' in [{section}] must be {condition}, got {value!r}"
        )


def _load_case(cp):
    name = cp.get("problem", "case", fallback="bump")
    if name not in CASES:
        raise ConfigError(
            f"unknown case '{name}'; available: {', '.join(sorted(CASES))}"
        )
    overrides = {}
    for key, field in (("lambda", "lam"), ("q_a", "q_a"), ("q_b", "q_b")):
        value = _get_number(cp, "problem", key, float)
        if value is not None:
            overrides[field] = value
    case = dataclasses.replace(CASES[name](), **overrides)
    _require(math.isfinite(case.lam) and case.lam > 0, "problem", "lambda",
             case.lam, "a finite number > 0")
    # The zero control must be admissible: q_a <= 0 <= q_b.  An infinite
    # bound leaves that side of the box open; a NaN fails both comparisons.
    _require(case.q_a <= 0, "problem", "q_a", case.q_a, "a number <= 0")
    _require(case.q_b >= 0, "problem", "q_b", case.q_b, "a number >= 0")
    return case


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
    tol = _get_number(cp, "solver", "tol", float, 1e-9)
    _require(math.isfinite(tol) and tol > 0, "solver", "tol", tol,
             "a finite number > 0")
    max_outer = _get_number(cp, "solver", "max_outer", int, 50)
    _require(max_outer >= 0, "solver", "max_outer", max_outer, "an integer >= 0")
    return {"tol": tol, "max_outer": max_outer}


def cmd_study(args):
    cp = load_config(args.config)
    case = _load_case(cp)
    levels = _parse_levels(cp.get("study", "levels", fallback=None))
    opts = _solver_options(cp)
    out_dir = cp.get("study", "output_dir", fallback="out")
    # The mesh's own checks reject a bad level size before out_dir is made.
    for n, M in levels:
        unit_square_mesh(n)
        uniform_time_partition(M)
    os.makedirs(out_dir, exist_ok=True)
    report = run_study(levels, case, **opts)
    report.write_csv(os.path.join(out_dir, "table.csv"))
    report.write_json(os.path.join(out_dir, "report.json"))
    if isinstance(report.error, AssemblyError):
        print(f"data error: {report.failure}", file=sys.stderr)
        return 1
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
    seed = _get_number(cp, "check", "seed", int, 0)
    _require(seed >= 0, "check", "seed", seed, "an integer >= 0")
    try:
        results = run_checks(names, seed=seed)
    except KeyError as err:
        raise ConfigError(str(err.args[0])) from err
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 2


def _write_snapshot_csv(path, index, values, times, xy):
    """One row per time of ``times`` and vertex: the time's 1-based number
    in the column named ``index``, t, the vertex, its coordinates and its
    value in ``values``, one row per time."""

    def num(x):
        return f"{x:.8g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([index, "t", "node", "x", "y", "value"])
        for i, t in enumerate(times):
            writer.writerows(
                [i + 1, num(t), j, num(x), num(y), num(value)]
                for j, ((x, y), value) in enumerate(zip(xy, values[i]))
            )


def cmd_solve(args):
    cp = load_config(args.config)
    case = _load_case(cp)
    n = _get_number(cp, "solve", "n", int)
    M = _get_number(cp, "solve", "m", int)
    if n is None or M is None:
        raise ConfigError("section [solve] needs keys 'n' and 'm'")
    opts = _solver_options(cp)
    out_dir = cp.get("solve", "output_dir", fallback="out")
    problem = setup_problem(n, M, case)
    result = pdas_solve(problem, **opts)

    mesh = problem.disc.mesh
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    xy = mesh.triangulation.vertices
    pts = mesh.time_partition.points
    _write_snapshot_csv(
        os.path.join(snap_dir, "control.csv"), "level", result.control.values,
        pts[1:-1], xy,
    )
    for name, fld in (("state", result.state), ("adjoint", result.adjoint)):
        _write_snapshot_csv(
            os.path.join(snap_dir, f"{name}.csv"), "slab", fld.full_values(),
            pts[1:], xy,
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
    except AssemblyError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 1
    except (CGBreakdownError, PdasNonconvergence, SolverError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
