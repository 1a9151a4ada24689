"""One iteration of a benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 \
        --reference FILE --run-id ID --workdir DIR --out FILE
    python3 perfbench/workload.py --capture FILE

The first form imports ``dbc`` (``src`` must be on PYTHONPATH), runs the
workload once, checks the answer against the reference and writes a JSON
result: phase times, wall time, peak resident memory, the check's findings
and, with --trace 1, the spans and the per-layer metrics.  ``run.py`` starts
it once per iteration.

The second form writes the reference answers of the benchmark workloads,
solved from the zero start (seed 0); ``reference.json`` was written this way
from the code the benchmark was defined on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import traceback

import spans

# Outer PDAS tolerance of every workload: the CLI and library default.
TOL = 1e-9

# "levels" makes a study through ``dbc study``; "n"/"m" one solve.  With
# "q_b" the upper bound is lowered until part of the trace is active, and
# the seed picks the PDAS start there: seed 0 is the default zero start,
# seed s > 0 a start drawn uniformly in [q_a, q_b].  The "tiny-" workloads
# are small copies of the benchmark's for selftest.py.
WORKLOADS = {
    "study": {"levels": [[4, 4], [8, 6], [16, 12], [32, 23]]},
    "solve-64x46": {"n": 64, "m": 46},
    "active-48x34": {"n": 48, "m": 34, "q_b": 0.045},
    "tiny-study": {"levels": [[4, 4], [8, 6]]},
    "tiny-solve-8x6": {"n": 8, "m": 6},
    "tiny-active-16x12": {"n": 16, "m": 12, "q_b": 0.045},
}

BENCHMARK_WORKLOADS = ["study", "solve-64x46", "active-48x34"]


def start_seed(name, seed):
    """The seed that draws the PDAS start, or None for the zero start."""
    return seed if "q_b" in WORKLOADS[name] and seed > 0 else None


def _level_answer(err_state, err_adjoint, err_control, kkt):
    # Errors as the 8 significant digits table.csv prints.
    return {
        "err_state": f"{err_state:.8g}",
        "err_adjoint": f"{err_adjoint:.8g}",
        "err_control": f"{err_control:.8g}",
        "lower": kkt["num_lower_active"],
        "upper": kkt["num_upper_active"],
        "outer": kkt["outer_iterations"],
        "stationarity": kkt["stationarity"],
        "complementarity": kkt["complementarity"],
    }


def _study(spec, workdir):
    """Write the config now; return the timed part: ``dbc study`` on it."""
    from dbc import cli

    out_dir = os.path.join(workdir, "out")
    config = os.path.join(workdir, "study.cfg")
    levels = ", ".join(f"{n}x{m}" for n, m in spec["levels"])
    with open(config, "w") as fh:
        fh.write(
            "[problem]\ncase = bump\n\n"
            f"[study]\nlevels = {levels}\noutput_dir = {out_dir}\n\n"
            f"[solver]\ntol = {TOL}\nmax_outer = 50\n"
        )

    def run():
        code = cli.main(["study", "--config", config])
        with open(os.path.join(out_dir, "table.csv"), newline="") as fh:
            table = fh.read()
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        return {
            "exit_code": code,
            "table_csv": table,
            "levels": [
                _level_answer(r["err_state"], r["err_adjoint"], r["err_control"],
                              r["kkt"])
                for r in report["levels"]
            ],
        }

    return run


def _solve(spec, q_seed):
    """Return the timed part: set-up, PDAS solve and the three error norms."""
    import numpy as np

    from dbc import manufactured, optimizer

    def run():
        case = manufactured.bump_case()
        if "q_b" in spec:
            case = dataclasses.replace(case, q_b=spec["q_b"])
        problem = manufactured.setup_problem(spec["n"], spec["m"], case)
        q_init = None
        if q_seed is not None:
            q_init = np.random.default_rng(q_seed).uniform(
                case.q_a, case.q_b, problem.trace_dim
            )
        result = optimizer.pdas_solve(problem, q_init=q_init, tol=TOL)
        disc = problem.disc
        return {
            "exit_code": 0,
            "table_csv": None,
            "levels": [_level_answer(
                manufactured.energy_error_state(disc, case, result.state,
                                                result.control),
                manufactured.energy_error_adjoint(disc, case, result.adjoint),
                manufactured.control_error(disc, case, result.control),
                result.diagnostics.as_dict(),
            )],
        }

    return run


def prepare(name, seed, workdir):
    spec = WORKLOADS[name]
    if "levels" in spec:
        return _study(spec, workdir)
    return _solve(spec, start_seed(name, seed))


def check(answer, reference, seeded_start):
    """Differences between an answer and its reference, as messages.

    Errors, active-set sizes and outer iterations must equal the reference,
    and stationarity and complementarity must be at most TOL.  The outer
    iteration count belongs to the reference's zero start, so it is not
    compared when the seed chose another start."""
    problems = []
    if answer["exit_code"] != 0:
        problems.append(f"exit code {answer['exit_code']}")
    table = reference["table_csv"]
    if table is not None and answer["table_csv"] != table:
        problems.append("table.csv differs from the reference")
    if len(answer["levels"]) != len(reference["levels"]):
        problems.append(
            f"{len(answer['levels'])} levels, reference has {len(reference['levels'])}"
        )
    for i, (got, want) in enumerate(zip(answer["levels"], reference["levels"])):
        for key, value in want.items():
            if key == "outer" and seeded_start:
                continue
            if got[key] != value:
                problems.append(f"level {i}: {key} {got[key]} != reference {value}")
        for key in ("stationarity", "complementarity"):
            if not got[key] <= TOL:
                problems.append(f"level {i}: {key} {got[key]:.3e} above {TOL:g}")
    return problems


def _versions():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_iteration(name, seed, trace, reference, run_id, workdir):
    recorder = spans.Recorder(run_id)
    spans.install(recorder, spans.PHASES + (spans.LAYERS if trace else []))
    workload = prepare(name, seed, workdir)

    def checked():
        answer = workload()
        seeded = start_seed(name, seed) is not None
        return answer, check(answer, reference, seeded)

    start = time.perf_counter()
    answer = None
    try:
        answer, problems = recorder.wrap("bench.run", checked)()
    except Exception:
        problems = ["raised: " + traceback.format_exc(limit=3)]
    total = time.perf_counter() - start
    result = {
        "run_id": run_id,
        "workload": name,
        "seed": seed,
        "trace": trace,
        "total_s": total,
        **spans.phase_seconds(recorder.spans),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems,
        "levels": answer["levels"] if answer else None,
        "versions": _versions(),
    }
    if trace:
        result["layer_metrics"] = spans.layer_metrics(recorder.spans)
        result["spans"] = recorder.spans
    return result


def capture(path, workdir, names=BENCHMARK_WORKLOADS):
    """Write the reference answers of the named workloads at seed 0."""
    refs = {}
    for name in names:
        answer = prepare(name, 0, workdir)()
        if answer["exit_code"] != 0:
            raise SystemExit(f"{name}: exit code {answer['exit_code']}")
        for level in answer["levels"]:
            del level["stationarity"], level["complementarity"]
        del answer["exit_code"]
        refs[name] = answer
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--out")
    parser.add_argument("--capture", metavar="FILE")
    args = parser.parse_args(argv)
    if args.capture:
        capture(args.capture, args.workdir)
        return 0
    if not (args.workload and args.reference and args.out):
        parser.error("--workload, --reference and --out are required")
    with open(args.reference) as fh:
        reference = json.load(fh)[args.workload]
    result = run_iteration(args.workload, args.seed, args.trace, reference,
                           args.run_id, args.workdir)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
