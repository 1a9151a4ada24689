"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs ``run.py`` on small copies of the three workloads (a 4x4 + 8x6 study,
an unconstrained 8x6 solve, and a 16x12 solve with q_b = 0.045), against
reference answers captured here at seed 0, and checks that:

1. every metric named in BENCHMARK.json is emitted, with its unit;
2. an answer check given a deliberately wrong reference reports a failure;
3. the trace's self times are non-negative and sum to at most the wall
   time of the run that recorded them;
4. a seed s > 0 changes ``optimizer.cg_iterations`` but not the checked
   answers.

It also checks that predictions.json names only metrics and workloads that
BENCHMARK.json defines.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

TINY = ["tiny-study", "tiny-solve-8x6", "tiny-active-16x12"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []
_runs = {}


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def bench(name, seed, trace, reference):
    """run.py with the shortest run; returns (result line, per-run file)."""
    key = (name, seed, trace, str(reference))
    if key not in _runs:
        _runs[key] = _bench(name, seed, trace, reference)
    return _runs[key]


def _bench(name, seed, trace, reference):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--reference",
         str(reference)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {name} exited {proc.returncode}: {proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (run.WORK / f"{name}-seed{seed}-trace{trace}.json").read_text())
    return line, detail


def check_metrics(reference):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        for name in TINY:
            line, _ = bench(name, 0, trace, reference)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}
                   and got == want
                   and all(isinstance(v["value"], (int, float))
                           for v in line["metrics"].values()),
                   f"{name} trace {trace}: every {group} metric, with its unit")
            expect(line["correct"] and line["failed"] == 0,
                   f"{name} trace {trace}: answers match the reference")


def check_wrong_reference(reference, scratch):
    refs = json.loads(reference.read_text())
    refs["tiny-solve-8x6"]["levels"][0]["err_control"] = "1.2345678"
    refs["tiny-study"]["table_csv"] += "\n"
    wrong = scratch / "wrong-reference.json"
    wrong.write_text(json.dumps(refs))
    for name in ("tiny-solve-8x6", "tiny-study"):
        line, _ = bench(name, 0, 0, wrong)
        expect(not line["correct"] and line["failed"] == line["attempted"] > 0,
               f"{name}: a wrong reference counts every run as failed")


def check_self_times(reference):
    _, detail = bench("tiny-active-16x12", 0, 1, reference)
    for result in detail["results"]:
        if not result["trace"]:
            continue
        own = spans.self_times(result["spans"])
        expect(min(own.values()) >= 0.0,
               f"{result['run_id']}: every self time is non-negative")
        expect(sum(own.values()) <= result["total_s"] <= result["process_s"],
               f"{result['run_id']}: self times sum to {sum(own.values()):.4f} s, "
               f"within the run's {result['total_s']:.4f} s")


def check_seeded_start(reference):
    runs = {}
    for seed in (0, 1):
        line, detail = bench("tiny-active-16x12", seed, 1, reference)
        answers = [r["levels"] for r in detail["results"]]
        runs[seed] = (line, answers)
        expect(line["correct"], f"tiny-active-16x12 seed {seed}: answers match")
    cg = {s: runs[s][0]["metrics"]["optimizer.cg_iterations"]["value"] for s in runs}
    expect(cg[0] != cg[1],
           f"seed 1 changes optimizer.cg_iterations ({cg[0]} -> {cg[1]})")
    checked = ("err_state", "err_adjoint", "err_control", "lower", "upper")
    digest = {s: {json.dumps([{k: lv[k] for k in checked} for lv in a])
                  for a in runs[s][1]} for s in runs}
    expect(len(digest[0]) == 1 and digest[0] == digest[1],
           "seed 1 leaves errors and active sets unchanged")


def check_predictions():
    pred = json.loads((HERE / "predictions.json").read_text())
    metrics = {m["name"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    named = set()
    for p in pred["predictions"]:
        named.update(p["metrics"] + p["moves"])
        bad_workloads = set(p["workloads"]) - workloads
        expect(not bad_workloads, f"prediction for {p['layer']}: workloads defined")
    expect(named <= metrics, f"predictions name only defined metrics "
                             f"(unknown: {sorted(named - metrics)})")


def main():
    run.WORK.mkdir(exist_ok=True)
    scratch = run.WORK / "selftest"
    scratch.mkdir(exist_ok=True)
    reference = scratch / "reference.json"
    workload.capture(reference, str(scratch), TINY)
    check_metrics(reference)
    check_wrong_reference(reference, scratch)
    check_self_times(reference)
    check_seeded_start(reference)
    check_predictions()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
