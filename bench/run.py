"""organstop benchmark: one workload per run, timed or traced.

    python3 bench/run.py --workload readme_cli --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from
``src/``.  The timed run (``--trace 0``) runs whole passes of the workload
while they fit in ``--seconds`` (at least one) and reports the end-to-end
metrics; the traced run (``--trace 1``) reports the per-module metrics.
Every metric is printed as a table line with its unit and sample count;
the last line of standard output is the JSON summary.  Details, input
hashes and the environment go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("readme_cli", "grid_cli", "library_mix")

#: one BLAS thread on every commit, set before numpy loads, so timings compare
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _metric_map() -> dict:
    with open(os.path.join(BENCH, "metric_map.json")) as fh:
        return json.load(fh)


def _require_emitted(names, report):
    missing = [name for name in names if name not in report.rows]
    if missing:
        raise RuntimeError(f"run did not emit {missing}")


def timed_run(workload, seed, seconds, work, inputs_, ledger, report):
    import cli_workloads
    import library_mix
    from harness import median, self_peak_rss_mb

    walls = []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + median(walls) <= seconds):
        if workload == "library_mix":
            walls.append(library_mix.run_pass(inputs_, ledger, report))
            report.add("peak_rss_mb", self_peak_rss_mb(), "MB")
        else:
            walls.append(cli_workloads.run_pass(workload, seed, work, inputs_,
                                                ledger, report))
    report.extend("wall_s", walls, "s")


def traced_run(workload, seed, work, inputs_, ledger, report):
    import cli_workloads
    import library_mix
    from harness import import_times

    import_times(work, report)
    if workload == "library_mix":
        T = library_mix.traced_pass(inputs_, ledger, report)
    else:
        T = cli_workloads.traced_pass(workload, seed, work, inputs_, ledger,
                                      report)
    _require_emitted([name for name, where in _metric_map()["metrics"].items()
                      if workload in where["workloads"]], report)
    return [vars(s) for s in T.spans]


def run_all(args) -> int:
    """Each workload in its own interpreter; one combined summary line."""
    import subprocess
    summaries = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        print(out.stdout, end="", flush=True)
        if out.returncode != 0:
            print(out.stderr, end="", file=sys.stderr)
            return out.returncode
        summaries[workload] = json.loads(out.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}.{name}": m for w, s in summaries.items()
                    for name, m in s["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(SRC, "organstop")):
        print(f"error: no organstop sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    import cli_workloads
    import harness
    import library_mix

    declared = _declared()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(harness.OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    report, ledger = harness.Report(), harness.Ledger()
    prepare = library_mix.prepare if args.workload == "library_mix" \
        else cli_workloads.prepare
    spans = []
    try:
        records, inputs_ = harness.set_up(args.workload, args.seed, work,
                                          report, prepare)
        if args.workload != "library_mix":
            # compile organstop's bytecode before anything is timed
            harness.python_child("import organstop.cli", work)
        if args.trace:
            spans = traced_run(args.workload, args.seed, work, inputs_, ledger,
                               report)
        else:
            timed_run(args.workload, args.seed, args.seconds, work, inputs_,
                      ledger, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.add("ops_failed_frac", ledger.failed / max(ledger.attempted, 1),
               "1")
    if not args.trace:
        e2e = _metric_map()["end_to_end"]
        _require_emitted(e2e["all"] + e2e[args.workload], report)
    env = harness.environment()
    for line in report.lines():
        print(line)
    for rec in records:
        print(f"input {rec['path']} bytes={rec['bytes']} sha256={rec['sha256']}")
    print("env " + json.dumps(env, sort_keys=True))
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}")
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "attempted": ledger.attempted, "failures": ledger.failures,
              "inputs": records, "environment": env,
              "metrics": report.as_dict(), "spans": spans}
    path = os.path.join(harness.OUT, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)

    metrics = {m["name"]: {"value": report.value(m["name"]), "unit": m["unit"]}
               for m in wanted}
    if "peak_rss_mb" in metrics:
        metrics["peak_rss_mb"]["value"] = max(report.rows["peak_rss_mb"][0])
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
