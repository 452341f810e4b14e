"""Command-line surface: solve, analyze, simulate, continuous, plot.

Exit codes:
  0  success
  2  document or model validation error
  3  solver did not reach the residual target
  4  continuous-time computation truncated, hit a stiffness guard or gave a
     non-finite curve
  5  usage error: missing file, unknown document kind, bad options
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ctime, docio, simulate, structure
from .ctime import FixedInstants, StiffnessError
from .model import ModelValidationError, Policy
from .solver import SolveOptions, solve_value_iteration
from .svgplot import render_curve_svg, render_region_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_TRUNCATED = 4
EXIT_USAGE = 5


_OPTIONS = {
    "--tol": dict(type=float, default=1e-8, help="solver residual target"),
    "--max-iters": dict(type=int, default=100_000,
                        help="value-iteration cap"),
    "--trajectories": dict(type=int, default=10_000,
                           help="simulation sample size"),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--t-max": dict(type=float, default=10.0,
                    help="time horizon for continuous curves"),
    "--grid-step": dict(type=float, default=0.01,
                        help="time-grid step for continuous curves"),
    "--format": dict(choices=["csv"], default=None,
                     help="also write the curve as CSV next to the output"),
}


class _Parser(argparse.ArgumentParser):
    """Bad usage exits EXIT_USAGE; argparse's own 2 means validation here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parser():
    p = _Parser(prog="organstop",
                description="Solve and analyze organ-acceptance stopping models.")
    sub = p.add_subparsers(dest="command", required=True)
    solver = ("--tol", "--max-iters")
    for name, handler, helptext, options in [
        ("solve", cmd_solve, "value-iterate a model document", solver),
        ("analyze", cmd_analyze,
         "extract policy structure from a model or solve output", solver),
        ("simulate", cmd_simulate, "Monte Carlo evaluation of the solved policy",
         solver + ("--trajectories", "--seed")),
        ("continuous", cmd_continuous,
         "continuous-time threshold curve and critical times",
         ("--t-max", "--grid-step", "--format")),
        ("plot", cmd_plot, "render a results document as SVG", ()),
    ]:
        q = sub.add_parser(name, help=helptext)
        q.set_defaults(handler=handler)
        q.add_argument("--input", required=True, help="input document path")
        q.add_argument("--output", required=True, help="output path")
        for flag in options:
            q.add_argument(flag, **_OPTIONS[flag])
    return p


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        print(f"error: input file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    except json.JSONDecodeError as exc:
        print(f"error: $: not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION) from None
    if not isinstance(raw, dict):
        raise docio.DocumentError("$", "document root must be an object")
    return raw


def _solve_from_args(doc, args):
    if doc.spec is None:
        print("error: document has no model section", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    opts = SolveOptions(tolerance=args.tol, max_iterations=args.max_iters)
    return solve_value_iteration(doc.spec, opts)


def cmd_solve(args) -> int:
    doc = docio.parse_document(_load_json(args.input))
    vf, policy = _solve_from_args(doc, args)
    docio.dump_document(
        docio.solve_results_document(doc.spec, vf, policy), args.output)
    return EXIT_OK if vf.converged else EXIT_NO_CONVERGENCE


def cmd_analyze(args) -> int:
    raw = _load_json(args.input)
    if raw.get("kind") == "solve_results":
        spec = docio.parse_model_section(docio._require(raw, "model", "$"))
        policy = Policy(spec.variant, np.asarray(
            docio._require(raw, "policy", "$"), dtype=np.int64))
    else:
        doc = docio.parse_document(raw)
        _, policy = _solve_from_args(doc, args)
        spec = doc.spec
    report = structure.analyze_policy(spec, policy)
    docio.dump_document(
        docio.structure_results_document(spec, policy, report), args.output)
    docio.write_region_csv(_sibling(args.output, ".csv"), report.regions)
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc = docio.parse_document(_load_json(args.input))
    vf, policy = _solve_from_args(doc, args)
    est = simulate.estimate_policy_value(doc.spec, policy, args.trajectories,
                                         args.seed)
    out = docio.simulate_results_document(est)
    out["solver_value"] = docio.json_data(float(_initial_value(doc.spec, vf)))
    docio.dump_document(out, args.output)
    return EXIT_OK


def _initial_value(spec, vf):
    """Offer-averaged value of the first live state, in regime 0."""
    start = 0 if spec.death_index != 0 else 1
    return np.reshape(vf.marginal, (-1, spec.n_patient))[0, start]


def cmd_continuous(args) -> int:
    doc = docio.parse_document(_load_json(args.input))
    cspec = doc.continuous
    if cspec is None:
        print("error: document has no continuous section", file=sys.stderr)
        return EXIT_VALIDATION
    truncated = False
    if isinstance(cspec.arrivals, FixedInstants):
        lam = ctime.finite_horizon_thresholds(cspec)
        curve = ctime.ThresholdCurve(cspec.arrivals.times, lam)
    elif isinstance(cspec.arrivals, ctime.RenewalArrivals):
        curve = ctime.renewal_lambda(cspec, args.t_max, args.grid_step)
        truncated = curve.truncated
    else:
        try:
            curve = ctime.poisson_lambda_ode(cspec, args.t_max, args.grid_step)
        except StiffnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TRUNCATED
        truncated = curve.truncated
    if not np.isfinite(curve.values).all():
        print("error: the threshold curve has non-finite values",
              file=sys.stderr)
        return EXIT_TRUNCATED

    critical = offer_values = None
    if isinstance(cspec.offers, ctime.FiniteOffers) and curve.is_nonincreasing():
        offer_values = cspec.offers.values
        critical = ctime.critical_times(curve, offer_values)
    docio.dump_document(
        docio.curve_results_document(curve, critical, offer_values),
        args.output)
    if args.format == "csv":
        docio.write_curve_csv(_sibling(args.output, ".csv"), curve)
    return EXIT_TRUNCATED if truncated else EXIT_OK


def cmd_plot(args) -> int:
    raw = _load_json(args.input)
    kind = raw.get("kind")
    if kind in ("solve_results", "structure_results"):
        svg = render_region_svg(np.asarray(docio._require(raw, "policy", "$")))
    elif kind == "curve_results":
        critical = [float(t) for t in raw.get("critical_times", [])
                    if t != "inf"]
        svg = render_curve_svg(docio._require(raw, "times", "$"),
                               docio._require(raw, "values", "$"), critical)
    else:
        print(f"error: unknown document kind {kind!r}", file=sys.stderr)
        return EXIT_USAGE
    with open(args.output, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def _sibling(path: str, suffix: str) -> str:
    base = path[:-5] if path.endswith(".json") else path
    return base + suffix


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except docio.DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ModelValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())
