"""The ``readme_cli`` and ``grid_cli`` workloads.

Each command runs in a fresh interpreter, one after another, exactly as a
user would type it.  The traced pass replays the public calls each
``organstop.cli`` command makes, in-process and inside spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

import checks
import inputs
from harness import (Ledger, Report, probe_s, require, require_ifr, run_child,
                     spec_from_section)
from spans import Tracer, module_self_times

LAUNCH = ('import sys; from organstop.cli import entry; '
          'sys.argv[0] = "organstop"; entry()')

README_TRAJECTORIES = 200_000
README_TOL = 1e-10
GRID_TOL = 1e-8  # the CLI default
CURVE_T_MAX, CURVE_STEP = 40.0, 0.1


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    if workload == "readme_cli":
        return [
            ("solve", ["--input", "model.json", "--output", "solved.json",
                       "--tol", repr(README_TOL)]),
            ("analyze", ["--input", "solved.json", "--output", "analysis.json"]),
            ("simulate", ["--input", "model.json", "--output", "sim.json",
                          "--trajectories", str(README_TRAJECTORIES),
                          "--seed", str(seed)]),
            ("continuous", ["--input", "ct.json", "--output", "curve.json",
                            "--t-max", repr(CURVE_T_MAX),
                            "--grid-step", repr(CURVE_STEP)]),
            ("plot", ["--input", "analysis.json", "--output", "plot.svg"]),
        ]
    return [
        ("solve", ["--input", "grid.json", "--output", "solved.json"]),
        ("analyze", ["--input", "solved.json", "--output", "analysis.json"]),
        ("plot", ["--input", "analysis.json", "--output", "plot.svg"]),
    ]


def prepare(docs: dict) -> dict:
    """Validate the model the CLI will read (its kernel is IFR); keep only
    the arrays the output checks need."""
    model = docs["model.json" if "model.json" in docs else "grid.json"]["model"]
    require_ifr(spec_from_section(model))
    return checks.base_arrays(model)


def run_pass(workload: str, seed: int, work: str, model: dict,
             ledger: Ledger, report: Report) -> float:
    """One pass of every command; returns its wall time."""
    results = {}
    t0 = time.perf_counter()
    for name, args in commands(workload, seed):
        results[name] = run_child([sys.executable, "-c", LAUNCH, name] + args,
                                  work)
    wall = time.perf_counter() - t0
    for name, res in results.items():
        report.add(f"cli_{name}_s", res.wall_s, "s")
    report.add("peak_rss_mb", max(r.maxrss_mb for r in results.values()), "MB")
    check = OutputChecks(workload, work, model, ledger)
    for name, res in results.items():
        check(name, res)
    return wall


class OutputChecks:
    """Counts each command once, in pass order; a failed exit or a wrong
    output fails it.  Later commands are compared with the solve output."""

    def __init__(self, workload: str, work: str, model: dict, ledger: Ledger):
        self.m = model
        self.tol = README_TOL if workload == "readme_cli" else GRID_TOL
        self.path = functools.partial(os.path.join, work)
        self.ledger = ledger
        self.solved = {}

    def __call__(self, name: str, res):
        self.ledger.record(f"cli {name}", self._check, name, res)

    def _check(self, name, res):
        require(res.code == 0, f"exit code {res.code}: {res.stderr[-300:]}")
        require(name == "solve" or name == "continuous" or self.solved,
                "no solve output to compare")
        getattr(self, name)()

    def solve(self):
        doc = checks.check_solve_doc(self.path("solved.json"), self.m, self.tol)
        self.solved.update(policy=doc["policy"],
                           value0=doc["marginal_values"][0])

    def analyze(self):
        checks.check_analysis_doc(self.path("analysis.json"),
                                  self.solved["policy"])
        checks.check_region_csv(self.path("analysis.csv"), self.solved["policy"])

    def simulate(self):
        checks.check_simulate_doc(self.path("sim.json"), README_TRAJECTORIES,
                                  self.solved["value0"])

    def continuous(self):
        checks.check_curve_doc(self.path("curve.json"), inputs.README_PLATEAU,
                               int(round(CURVE_T_MAX / CURVE_STEP)) + 1)

    def plot(self):
        checks.check_region_svg(self.path("plot.svg"), self.solved["policy"])


# ---------------------------------------------------------------------------
# traced pass

class Replay:
    """The public calls each ``cli.cmd_*`` makes, in the same order, one
    method per command, with outputs written under ``dst``."""

    def __init__(self, workload: str, seed: int, src: str, dst: str):
        readme = workload == "readme_cli"
        self.seed = seed
        self.model_in = os.path.join(src, "model.json" if readme else "grid.json")
        self.ct_in = os.path.join(src, "ct.json")
        self.out = functools.partial(os.path.join, dst)
        self.tol = README_TOL if readme else GRID_TOL
        self.found = {}

    def run(self, name: str, T: Tracer):
        T.op = name
        with T.span("cli", name):
            getattr(self, name)(T)

    def solve(self, T):
        from organstop import docio
        from organstop.model import validate_model
        from organstop.solver import SolveOptions, solve_value_iteration
        doc = T.call("docio", docio.load_document, self.model_in)
        spec = T.call("model", validate_model, doc.spec)
        vf, pol = T.call("solver", solve_value_iteration, spec,
                         SolveOptions(tolerance=self.tol))
        res = T.call("docio", docio.solve_results_document, spec, vf, pol)
        T.call("docio", docio.dump_document, res, self.out("solved.json"))
        self.found.update(spec=spec, vf=vf, policy=pol)

    def analyze(self, T):
        from organstop import docio, structure
        from organstop.model import Policy
        raw = T.call("docio", checks.load_json, self.out("solved.json"),
                     name="load_solve_doc")
        spec = T.call("docio", docio.parse_model_section, raw["model"])
        pol = Policy(spec.variant, np.asarray(raw["policy"], dtype=np.int64))
        report = T.call("structure", structure.analyze_policy, spec, pol)
        doc = T.call("docio", docio.structure_results_document, spec, pol,
                     report)
        T.call("docio", docio.dump_document, doc, self.out("analysis.json"))
        T.call("docio", docio.write_region_csv, self.out("analysis.csv"),
               report.regions)

    def simulate(self, T):
        from organstop import docio, simulate
        from organstop.solver import SolveOptions, solve_value_iteration
        doc = T.call("docio", docio.load_document, self.model_in)
        vf, pol = T.call("solver", solve_value_iteration, doc.spec,
                         SolveOptions())
        est = T.call("simulate", simulate.estimate_policy_value, doc.spec, pol,
                     README_TRAJECTORIES, self.seed)
        res = T.call("docio", docio.simulate_results_document, est)
        res["solver_value"] = float(vf.marginal[0])
        T.call("docio", docio.dump_document, res, self.out("sim.json"))
        self.found["estimate"] = est

    def continuous(self, T):
        from organstop import ctime, docio
        doc = T.call("docio", docio.load_document, self.ct_in)
        curve = T.call("ctime", ctime.poisson_lambda_ode, doc.continuous,
                       CURVE_T_MAX, CURVE_STEP)
        res = T.call("docio", docio.curve_results_document, curve)
        T.call("docio", docio.dump_document, res, self.out("curve.json"))

    def plot(self, T):
        from organstop import svgplot
        raw = T.call("docio", checks.load_json, self.out("analysis.json"),
                     name="load_analysis_doc")
        svg = T.call("svgplot", svgplot.render_region_svg,
                     np.asarray(raw["policy"]))
        with open(self.out("plot.svg"), "w") as fh:
            fh.write(svg)


#: calls a replay makes beyond what the CLI command itself makes
EXTRA_SPANS = {"validate_model"}


def traced_pass(workload: str, seed: int, work: str, model: dict,
                ledger: Ledger, report: Report):
    """Per-module numbers for a CLI workload; returns the tracer.

    Command by command: the CLI run gives its wall time and is checked,
    then the replay runs untraced and traced.  Probes then time single
    calls.
    """
    from organstop import bellman_backup, greedy_policy
    from organstop.simulate import simulate_trajectory, trajectory_rng

    dst = os.path.join(work, "replay")
    os.makedirs(dst, exist_ok=True)
    replay = Replay(workload, seed, work, dst)
    T, untraced = Tracer(), Tracer(enabled=False)
    check = OutputChecks(workload, work, model, ledger)
    results, plain_s, traced_s = {}, 0.0, 0.0
    for name, args in commands(workload, seed):
        results[name] = run_child([sys.executable, "-c", LAUNCH, name] + args,
                                  work)
        report.add(f"cli_{name}_s", results[name].wall_s, "s")
        # checking loads the command's output, which also warms this
        # process's heap before either replay allocates the same amount
        check(name, results[name])
        t0 = time.perf_counter()
        replay.run(name, untraced)
        t1 = time.perf_counter()
        replay.run(name, T)
        plain_s += t1 - t0
        traced_s += time.perf_counter() - t1
    report.add("trace.overhead_ratio", traced_s / plain_s, "ratio")
    for module, own in module_self_times(T.spans).items():
        report.add(f"self_s.{module}", own, "s")

    start_s = report.value("import.python_s") + report.value("import.organstop_s")
    for root in (s for s in T.spans if s.parent is None):
        inside = sum(s.duration for s in T.spans
                     if s.parent == root.sid and s.name not in EXTRA_SPANS)
        report.add(f"cli.unexplained_s.{root.name}",
                   results[root.name].wall_s - start_s - inside, "s")

    found = replay.found
    spec, vf, pol = found["spec"], found["vf"], found["policy"]
    backup_ms = probe_s(bellman_backup, spec, vf.values, repeats=20) * 1e3
    greedy_ms = probe_s(greedy_policy, spec, vf.values, repeats=10) * 1e3
    validate_s = T.total("validate_model", "solve")
    solve_s = T.total("solve_value_iteration", "solve")
    report.add("model.validate_s", validate_s, "s")
    report.add("solver.backup_ms", backup_ms, "ms")
    report.add("solver.solve_s", solve_s, "s")
    report.add("solver.greedy_ms", greedy_ms, "ms")
    report.add("solver.iterations", vf.iterations, "count")

    if workload == "grid_cli":
        report.add("model.validate_s.2001", validate_s, "s")
        report.add("solver.backup_ms.2001", backup_ms, "ms")
        report.add("solver.iterations.2001", vf.iterations, "count")
        report.add("solver.solve_s.2001", solve_s, "s")
        report.add("solver.greedy_ms.2001", greedy_ms, "ms")
        report.add("docio.load_model_s", T.total("load_document", "solve"), "s")
        report.add("docio.build_solve_doc_s",
                   T.total("solve_results_document", "solve"), "s")
        report.add("docio.dump_solve_doc_s", T.total("dump_document", "solve"), "s")
        report.add("docio.solve_doc_mb",
                   os.path.getsize(os.path.join(work, "solved.json")) / 1e6, "MB")
        report.add("docio.load_solve_doc_s",
                   T.total("load_solve_doc", "analyze")
                   + T.total("parse_model_section", "analyze"), "s")
        report.add("docio.analysis_doc_s",
                   sum(T.total(n, "analyze") for n in (
                       "structure_results_document", "dump_document",
                       "write_region_csv")), "s")
        report.add("structure.analyze_s.2001",
                   T.total("analyze_policy", "analyze"), "s")
        report.add("svgplot.region_svg_s.2001",
                   T.total("render_region_svg", "plot"), "s")
        report.add("svgplot.svg_mb",
                   os.path.getsize(os.path.join(work, "plot.svg")) / 1e6, "MB")
        return T

    est = found["estimate"]
    report.add("simulate.traj_us.readme",
               T.total("estimate_policy_value") / README_TRAJECTORIES * 1e6, "us")
    epochs, truncated = [], est.truncated
    for i in range(2000):
        rec = simulate_trajectory(spec, pol, trajectory_rng(seed, i))
        epochs.append(rec.epochs)
        truncated += rec.terminal == "truncated"
    report.add("simulate.epochs_per_traj.readme", float(np.mean(epochs)), "count")
    report.add("simulate.truncated", truncated, "count")
    report.add("ctime.ode_s.readme", T.total("poisson_lambda_ode"), "s")
    return T
