"""Benchmark of the dbc solver: one workload, timed end to end or by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it solves with the ``dbc`` package in
``src``.  Each iteration runs in a fresh Python process
(``perfbench/workload.py``) with every BLAS thread variable set to 1, so
peak memory is that of one workload process.  Iterations run one after
another (a closed loop with one client) for S seconds: after the first
MIN_ITERATIONS, no iteration starts that a typical one says would end past
S.  Every iteration's answer is checked against ``perfbench/reference.json``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the iterations.  --trace 1 alternates traced and untraced iterations
and reports the per-layer metrics: times as medians over the traced
iterations, counts after checking that every traced iteration gave the same
count, and the tracing overhead as the difference of the median wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and raw
per-iteration results go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_ITERATIONS = 3
# A run must end within 180 s; no iteration starts that could end later.
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Per-layer metrics that must repeat exactly across traced iterations.
EXACT_UNITS = ("count", "bytes", "ratio")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload, seed, trace, reference, run_id, timeout):
    """One iteration in its own process; returns its result dict and the
    wall time of the process."""
    workdir = tempfile.mkdtemp(prefix=f"{run_id}-", dir=WORK)
    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--reference",
           str(reference), "--run-id", run_id, "--workdir", workdir,
           "--out", out]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            return {"problems": [f"exit code {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}"]}, wall
        with open(out) as fh:
            return json.load(fh), wall
    except subprocess.TimeoutExpired:
        wall = time.perf_counter() - start
        return {"problems": [f"no result within {timeout:.0f} s"]}, wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed, seconds, trace, reference):
    """Run iterations for ``seconds``: once the minimum is done, no iteration
    starts that a typical iteration says would end later.  Returns the
    per-iteration results."""
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        walls = [r["process_s"] for r in results]
        traced = sum(1 for r in results if r["trace"])
        enough = (traced >= 2 and len(results) - traced >= 1) if trace else (
            len(results) >= MIN_ITERATIONS)
        if enough and elapsed + statistics.median(walls) > seconds:
            break
        if results and elapsed + 1.5 * max(walls) > DEADLINE_S:
            break
        this_trace = int(trace and len(results) % 2 == 0)
        run_id = f"{workload}-s{seed}-i{len(results)}"
        result, wall = run_child(workload, seed, this_trace, reference, run_id,
                                 DEADLINE_S + 10 - elapsed)
        result["trace"] = this_trace
        result["process_s"] = wall
        results.append(result)
    return results


def _median(results, key):
    return statistics.median(r[key] for r in results if key in r)


def end_to_end(results, spec):
    return {m["name"]: _median(results, m["name"]) for m in spec["end_to_end"]}


def per_layer(results, spec, problems):
    traced = [r for r in results if r.get("trace") and "layer_metrics" in r]
    untraced = [r for r in results if not r.get("trace") and "total_s" in r]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "tracing_overhead_s":
            out[name] = _median(traced, "total_s") - _median(untraced, "total_s")
            continue
        values = [r["layer_metrics"][name] for r in traced]
        if m["unit"] in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs across traced runs: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dbc" / "__init__.py").is_file():
        print(f"perfbench: no dbc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with open(args.reference) as fh:
        if args.workload not in json.load(fh):
            print(f"perfbench: no reference for workload {args.workload!r}",
                  file=sys.stderr)
            return 2
    WORK.mkdir(exist_ok=True)

    load_before = os.getloadavg()[0]
    results = measure(args.workload, args.seed, args.seconds, args.trace,
                      args.reference)
    load_after = os.getloadavg()[0]

    failed = [r for r in results if r["problems"]]
    timed = [r for r in results if "total_s" in r]
    problems = [p for r in failed for p in r["problems"]]
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    try:
        metrics = (per_layer(results, spec, problems) if args.trace
                   else end_to_end(timed, spec))
    except statistics.StatisticsError:
        metrics = None
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **(timed[0]["versions"] if timed else {}),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"{tag}.json", "w") as fh:
        json.dump({"env": env, "results": results}, fh)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(results)} "
          f"({sum(1 for r in results if r.get('trace'))} traced)")
    for p in dict.fromkeys(problems):
        print(f"  FAILED: {p}")
    if metrics is None:
        print("perfbench: no iteration produced timings", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  {'failed_frac':36s} {len(failed) / len(results):14.6f} "
          f"({len(failed)} of {len(results)})")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
