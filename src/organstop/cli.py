"""Command-line surface: solve, analyze, simulate, continuous, plot.

Exit codes:
  0  success
  2  document or model validation error
  3  solver did not reach the residual target
  4  continuous-time computation truncated, hit a stiffness guard or gave a
     non-finite curve; or a non-finite simulate result
  5  usage error: missing file, unknown document kind, bad options

Each command imports the modules it runs when it runs, so a command loads
only ``docio``, ``model`` and its own modules.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import docio
from .model import (VARIANT_RULES, Action, ModelValidationError, Policy,
                    validate_policy)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_TRUNCATED = 4
EXIT_USAGE = 5


def _bounded(kind, low, high=math.inf):
    """An option type: an integer in [low, high), or a finite float > low.
    Anything else is a usage error, which argparse reports naming the option."""
    expected = (f"a finite number > {low}" if kind is float
                else f"an integer in [{low}, {high})" if high < math.inf
                else f"an integer >= {low}")

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (low <= value < high and (kind is int or value > low)):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive = _bounded(float, 0)
_OPTIONS = {
    "--tol": dict(type=_positive, default=1e-8, help="solver residual target"),
    "--max-iters": dict(type=_bounded(int, 1), default=100_000,
                        help="value-iteration cap"),
    # one trajectory has no standard error: its interval would be infinite
    "--trajectories": dict(type=_bounded(int, 2, 2**32), default=10_000,
                           help="simulation sample size"),
    "--seed": dict(type=_bounded(int, 0, 2**128), default=0,
                   help="master seed, the Philox key"),
    "--t-max": dict(type=_positive, default=10.0,
                    help="time horizon for continuous curves"),
    "--grid-step": dict(type=_positive, default=0.01,
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
        return docio.load_json(path)
    except FileNotFoundError:
        print(f"error: input file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _solve_from_args(doc, args):
    from .solver import SolveOptions, solve_value_iteration
    if doc.spec is None:
        print("error: document has no model section", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    opts = SolveOptions(tolerance=args.tol, max_iterations=args.max_iters)
    return solve_value_iteration(doc.spec, opts)


def cmd_solve(args) -> int:
    doc = docio.parse_document(_load_json(args.input))
    vf, policy = _solve_from_args(doc, args)
    docio.dump_document(
        docio._solve_document(doc.spec, vf, policy), args.output)
    return EXIT_OK if vf.converged else EXIT_NO_CONVERGENCE


def _policy_codes(raw):
    """The ``policy`` array of a results document: integers, or an error."""
    policy = docio._require(raw, "policy", "$")
    try:
        actions = np.asarray(policy)
    except (TypeError, ValueError) as exc:
        raise docio.DocumentError("$.policy",
                                  f"not an integer array: {exc}") from None
    if actions.dtype.kind not in "iu":
        raise docio.DocumentError("$.policy", "not an integer array")
    return actions


def _solved_policy(raw):
    """The model of a ``solve_results`` document and its policy, checked to
    fit the model: its shape and a legal action in every cell."""
    spec = docio.parse_model_section(docio._require(raw, "model", "$"))
    actions = _policy_codes(raw)
    shape = VARIANT_RULES[spec.variant].value_shape(spec)
    if actions.shape != shape:
        raise docio.DocumentError(
            "$.policy", f"shape {actions.shape} does not fit the model, "
            f"expected {shape}")
    try:
        return spec, validate_policy(spec, Policy(spec.variant, actions))
    except ModelValidationError as exc:
        raise docio.DocumentError("$.policy", "; ".join(exc.errors)) from None


def cmd_analyze(args) -> int:
    from .structure import analyze_policy
    raw = _load_json(args.input)
    if raw.get("kind") == "solve_results":
        spec, policy = _solved_policy(raw)
        del raw
    else:
        doc = docio.parse_document(raw)
        del raw
        _, policy = _solve_from_args(doc, args)
        spec = doc.spec
    report = analyze_policy(spec, policy)
    docio.dump_document(
        docio._structure_document(spec, policy, report), args.output)
    docio.write_region_csv(_sibling(args.output, ".csv"), report.regions)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import estimate_policy_value
    doc = docio.parse_document(_load_json(args.input))
    vf, policy = _solve_from_args(doc, args)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        est = estimate_policy_value(doc.spec, policy, args.trajectories,
                                    args.seed)
    value = float(_initial_value(doc.spec, vf))
    if not np.isfinite([est.mean, est.std_error, value]).all():
        print("error: non-finite estimate or solver value", file=sys.stderr)
        return EXIT_TRUNCATED
    out = docio.simulate_results_document(est)
    out["solver_value"] = docio.json_data(value)
    docio.dump_document(out, args.output)
    return EXIT_OK


def _initial_value(spec, vf):
    """Offer-averaged value of the first live state, in regime 0."""
    start = 0 if spec.death_index != 0 else 1
    return np.reshape(vf.marginal, (-1, spec.n_patient))[0, start]


def cmd_continuous(args) -> int:
    from . import ctime
    doc = docio.parse_document(_load_json(args.input))
    cspec = doc.continuous
    if cspec is None:
        print("error: document has no continuous section", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if isinstance(cspec.arrivals, ctime.FixedInstants):
            lam = ctime.finite_horizon_thresholds(cspec)
            curve = ctime.ThresholdCurve(cspec.arrivals.times, lam)
        elif isinstance(cspec.arrivals, ctime.RenewalArrivals):
            curve = ctime.renewal_lambda(cspec, args.t_max, args.grid_step)
        else:
            curve = ctime.poisson_lambda_ode(cspec, args.t_max, args.grid_step)
    except ctime.StiffnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
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
    return EXIT_TRUNCATED if curve.truncated else EXIT_OK


def _curve_points(raw):
    """The times, values and finite critical times of a ``curve_results``
    document: equal-length non-empty lists of finite numbers, and a list of
    numbers or "inf"."""
    arrays = {}
    for key in ("times", "values"):
        field = docio._require(raw, key, "$")
        try:
            arr = arrays[key] = np.asarray(field, dtype=float)
        except (TypeError, ValueError):
            arr = arrays[key] = np.array([np.nan])
        if arr.shape != arrays["times"].shape or arr.ndim != 1 \
                or not arr.size or not np.isfinite(arr).all():
            raise docio.DocumentError(f"$.{key}", "expected a non-empty list "
                                      "of finite numbers, one per time")
    critical = raw.get("critical_times", [])
    if not isinstance(critical, list) or not all(
            t == "inf" or type(t) in (int, float) for t in critical):
        raise docio.DocumentError("$.critical_times",
                                  'expected a list of numbers or "inf"')
    return (arrays["times"], arrays["values"],
            [float(t) for t in critical if t != "inf"])


def cmd_plot(args) -> int:
    from .svgplot import render_curve_svg, render_region_svg
    raw = _load_json(args.input)
    kind = raw.get("kind")
    if kind == "solve_results":
        actions = _solved_policy(raw)[1].actions
    elif kind == "structure_results":
        # no model to fit: a grid of action codes is all that can be checked
        actions = _policy_codes(raw)
        if actions.ndim != 2 or not np.isin(actions, list(Action)).all():
            raise docio.DocumentError(
                "$.policy", "expected a 2-D array of action codes")
    elif kind == "curve_results":
        points = _curve_points(raw)
    else:
        print(f"error: unknown document kind {kind!r}", file=sys.stderr)
        return EXIT_USAGE
    del raw
    svg = (render_curve_svg(*points) if kind == "curve_results"
           else render_region_svg(actions))
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
    except ValueError as exc:  # DocumentError and ModelValidationError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
