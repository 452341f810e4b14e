"""The ``library_mix`` workload: one warm interpreter calling the library.

Six parts run in order: a batch of small solves of every variant plus the
two risk recursions, repeated 401x201 solves, a robust sweep, brute-force
enumeration, continuous-time curves, and Monte Carlo on the 401x201 policy.
"""

from __future__ import annotations

import math
import time

import numpy as np

import checks
from harness import (Ledger, Report, median, probe_s, require, require_ifr,
                     spec_from_section)
from spans import Tracer, module_self_times

SMALL_TOL = 1e-8
BRUTE_TOL = 1e-12


def prepare(docs: dict) -> dict:
    """Build the validated organstop objects the mix calls the library with."""
    from organstop import (AmbiguitySpec, ContinuousModelSpec, PoissonArrivals,
                           RenewalArrivals, RiskSpec, UniformOffers,
                           erlang_lifetime, exponential_interarrival)
    doc = docs["library.json"]
    small = []
    for item in doc["small"]:
        spec = spec_from_section(item["model"])
        if "risk" in item:
            risk = RiskSpec(item["risk"]["risk_coefficient"],
                            np.asarray(item["risk"]["lifetime_pmf"]))
            small += [("risk_ce", spec, risk, None),
                      ("risk_lifetime", spec, risk, None)]
        else:
            base = checks.base_arrays(item["model"]) \
                if item["model"]["variant"] == "base" else None
            small.append(("solve", spec, None, base))
    grid = spec_from_section(doc["grid401"])
    chain = spec_from_section(doc["robust"]["model"])
    require_ifr(grid)
    require_ifr(chain)
    alive = np.arange(chain.n_patient) != chain.death_index
    c = doc["curves"]
    offers = UniformOffers(c["offers"]["low"], c["offers"]["high"])
    life = erlang_lifetime(c["erlang"]["shape"], c["erlang"]["rate"])
    return {
        "small": small,
        "grid": grid,
        "grid_arrays": checks.base_arrays(doc["grid401"]),
        "grid_repeats": doc["grid401_repeats"],
        "chain": chain,
        "radii": doc["robust"]["radii"],
        "ambiguity": [AmbiguitySpec(np.where(alive, r, 0.0))
                      for r in doc["robust"]["radii"]],
        "brute": spec_from_section(doc["brute_force"]),
        "ode_spec": ContinuousModelSpec(offers=offers,
                                        arrivals=PoissonArrivals(c["rate"]),
                                        lifetime=life),
        "renewal_spec": ContinuousModelSpec(
            offers=offers, lifetime=life,
            arrivals=RenewalArrivals(exponential_interarrival(c["rate"]))),
        "ode": c["ode"], "renewal": c["renewal"],
        "critical_values": c["critical_values"],
        "mc": doc["mc"],
    }


def _timed(T: Tracer, module: str, fn, *args):
    t0 = time.perf_counter()
    out = T.call(module, fn, *args)
    return out, time.perf_counter() - t0


def small_batch(mix, ledger, report, T, found) -> float:
    """(a) every small spec once; the risk specs through both recursions."""
    from organstop import (lifetime_value_iteration,
                           risk_sensitive_value_iteration, solve_value_iteration)
    times = []
    for kind, spec, risk, base in mix["small"]:
        if kind == "solve":
            (vf, pol), dt = _timed(T, "solver", solve_value_iteration, spec)
            found["small_iterations"].append(vf.iterations)
        elif kind == "risk_ce":
            (vf, pol), dt = _timed(T, "risk", risk_sensitive_value_iteration,
                                   spec, risk)
            found["risk_iterations"].append(vf.iterations)
        else:
            (vf, pol), dt = _timed(T, "risk", lifetime_value_iteration,
                                   spec, risk)
            found["risk_iterations"].append(vf.iterations)
        times.append(dt)
        ledger.record(f"small {kind}", _check_small, vf, pol, base)
    report.extend("small_solve_ms", [t * 1e3 for t in times], "ms")
    return sum(times)


def grid_solves(mix, ledger, report, T, found) -> float:
    """(b) the 401x201 solve, repeated."""
    from organstop import solve_value_iteration
    wall, first = 0.0, None
    for _ in range(mix["grid_repeats"]):
        (vf, pol), dt = _timed(T, "solver", solve_value_iteration, mix["grid"])
        report.add("grid_solve_s", dt, "s")
        wall += dt
        ledger.record("grid solve", _check_grid, mix["grid_arrays"], vf, pol,
                      first)
        if first is None:
            first = vf
    found.update(grid_vf=first, grid_policy=pol)
    return wall


def robust_sweep(mix, ledger, report, T, found) -> float:
    """(c) the robust chain at each radius, checked against the nominal."""
    from organstop import robust_value_iteration, solve_value_iteration
    chain = mix["chain"]
    nominal, _ = solve_value_iteration(chain)
    sweep, robust = 0.0, []
    for amb in mix["ambiguity"]:
        res, dt = _timed(T, "robust", robust_value_iteration, chain, amb)
        robust.append(res)
        sweep += dt
    report.add("robust_sweep_s", sweep, "s")
    for i in range(len(robust)):
        ledger.record(f"robust r={mix['radii'][i]}", _check_robust, chain,
                      nominal, robust[:i + 1])
    found["robust"] = robust
    return sweep


def brute_force(mix, ledger, report, T, found) -> float:
    """(d) exhaustive policy enumeration on the 12-cell combined spec."""
    from organstop import brute_force_optimal
    (values, _), dt = _timed(T, "simulate", brute_force_optimal, mix["brute"])
    report.add("brute_force_s", dt, "s")
    ledger.record("brute force", _check_brute, mix["brute"], values)
    return dt


def curves(mix, ledger, report, T, found) -> float:
    """(e) Erlang-lifetime ODE, renewal equation and critical times."""
    from organstop import critical_times, poisson_lambda_ode, renewal_lambda
    ode, t_ode = _timed(T, "ctime", poisson_lambda_ode, mix["ode_spec"],
                        mix["ode"]["t_max"], mix["ode"]["step"])
    ren, t_ren = _timed(T, "ctime", renewal_lambda, mix["renewal_spec"],
                        mix["renewal"]["t_max"], mix["renewal"]["step"])
    crit, t_crit = _timed(T, "ctime", critical_times, ode,
                          mix["critical_values"])
    report.add("curve_s", t_ode + t_ren + t_crit, "s")
    ledger.record("ode curve", _check_ode, ode)
    ledger.record("renewal curve", _check_renewal, ode, ren)
    ledger.record("critical times", _check_critical, ode, crit,
                  mix["critical_values"])
    return t_ode + t_ren + t_crit


def monte_carlo(mix, ledger, report, T, found) -> float:
    """(f) Monte Carlo evaluation of the solved 401x201 policy."""
    from organstop import estimate_policy_value
    n, seed = mix["mc"]["trajectories"], mix["mc"]["seed"]
    est, dt = _timed(T, "simulate", estimate_policy_value, mix["grid"],
                     found["grid_policy"], n, seed)
    report.add("mc_traj_us", dt / n * 1e6, "us")
    ledger.record("monte carlo", _check_mc, est, n,
                  float(found["grid_vf"].marginal[0]))
    found["estimate"] = est
    return dt


PARTS = (small_batch, grid_solves, robust_sweep, brute_force, curves,
         monte_carlo)


def _found() -> dict:
    return {"small_iterations": [], "risk_iterations": []}


def run_pass(mix: dict, ledger: Ledger, report: Report) -> float:
    """One pass of all six parts; returns the time spent in library calls.

    Every call is checked after it is timed.
    """
    found, untraced = _found(), Tracer(enabled=False)
    return sum(part(mix, ledger, report, untraced, found) for part in PARTS)


# ---------------------------------------------------------------------------
# checks

def _check_small(vf, pol, base):
    require(vf.converged, "not converged")
    require(vf.residual <= SMALL_TOL, f"residual {vf.residual:.3g}")
    if base is not None:
        checks.check_base_solution(base, vf.values, pol.actions, SMALL_TOL, 1e-12)


def _check_grid(m, vf, pol, first):
    require(vf.converged, "not converged")
    if first is None:
        checks.check_base_solution(m, vf.values, pol.actions, SMALL_TOL, 1e-12)
    else:
        require(np.array_equal(vf.values, first.values), "repeat differs")


def _check_robust(chain, nominal, sweep):
    """Robust values below nominal; transplant sets grow with the radius."""
    from organstop import Action
    vf, pol = sweep[-1]
    require(vf.converged, "not converged")
    require((vf.values <= nominal.values + 1e-9).all(), "robust above nominal")
    take = np.asarray(pol.actions) == Action.TRANSPLANT_LIVING
    if len(sweep) > 1:
        prev = np.asarray(sweep[-2][1].actions) == Action.TRANSPLANT_LIVING
        require((prev <= take).all(), "transplant sets not nested")
        require((vf.values <= sweep[-2][0].values + 1e-9).all(),
                "values not falling with the radius")


def _check_brute(spec, values):
    from organstop import SolveOptions, solve_value_iteration
    vf, _ = solve_value_iteration(spec, SolveOptions(tolerance=BRUTE_TOL))
    gap = float(np.abs(vf.values - values).max())
    require(gap <= 1e-7, f"solver and enumeration differ by {gap:.3g}")


def _check_ode(ode):
    require(np.isfinite(ode.values).all(), "non-finite curve")
    require(not ode.truncated, "truncated")
    require(ode.is_nonincreasing(), "curve increases")


def _check_renewal(ode, ren):
    """Exponential interarrivals make the renewal equation the ODE's."""
    early = ren.times <= 6.0
    gap = float(np.abs(ode(ren.times[early]) - ren.values[early]).max())
    require(gap <= 2e-3, f"ODE and renewal differ by {gap:.3g}")


def _check_critical(ode, crit, values):
    crit = np.asarray(crit)
    require((np.diff(crit) >= 0).all(), "critical times not ordered")
    for t, x in zip(crit, values):
        if 0 < t < math.inf:
            require(abs(float(ode(t)) - x) <= 1e-6, f"no crossing at {t}")


def _check_mc(est, n, value):
    require(est.n == n, "sample size")
    require(est.truncated == 0, "truncated trajectories")
    gap = abs(est.mean - value)
    require(gap <= 4 * est.std_error,
            f"mean off by {gap:.3g} > 4 SE ({est.std_error:.3g})")


# ---------------------------------------------------------------------------
# traced pass

def traced_pass(mix: dict, ledger: Ledger, report: Report) -> Tracer:
    """Each part untraced, then traced; then probes of single calls."""
    from organstop import (bellman_backup, greedy_policy, kl_worst_case,
                           legal_actions, robust_backup, validate_model)
    from organstop.simulate import simulate_trajectory, trajectory_rng

    # part by part, untraced then traced, so both see the same machine
    scratch, found = Report(), _found()
    T, untraced = Tracer(), Tracer(enabled=False)
    plain_s = traced_s = 0.0
    for part in PARTS:
        t0 = time.perf_counter()
        part(mix, ledger, scratch, untraced, found)
        t1 = time.perf_counter()
        T.op = part.__name__
        part(mix, ledger, scratch, T, found)
        plain_s += t1 - t0
        traced_s += time.perf_counter() - t1
    report.add("trace.overhead_ratio", traced_s / plain_s, "ratio")
    for module, own in module_self_times(T.spans).items():
        report.add(f"self_s.{module}", own, "s")

    spec, vf, pol = mix["grid"], found["grid_vf"], found["grid_policy"]
    with T.span("model", "validate_model"):
        validate_model(spec)
    backup_ms = probe_s(bellman_backup, spec, vf.values, repeats=50) * 1e3
    report.add("model.validate_s", T.total("validate_model"), "s")
    report.add("solver.backup_ms", backup_ms, "ms")
    report.add("solver.solve_s",
               median([s.duration for s in T.named("solve_value_iteration",
                                                   "grid_solves")]), "s")
    report.add("solver.greedy_ms",
               probe_s(greedy_policy, spec, vf.values, repeats=20) * 1e3, "ms")
    report.add("solver.iterations", vf.iterations, "count")
    report.add("solver.backup_ms.401", backup_ms, "ms")
    report.add("solver.iterations.401", vf.iterations, "count")
    report.add("solver.small_iterations",
               float(np.mean(found["small_iterations"])), "count")

    est = found["estimate"]
    n, seed = mix["mc"]["trajectories"], mix["mc"]["seed"]
    report.add("simulate.traj_us.401",
               T.total("estimate_policy_value") / n * 1e6, "us")
    epochs, truncated = [], est.truncated
    for i in range(300):
        rec = simulate_trajectory(spec, pol, trajectory_rng(seed, i))
        epochs.append(rec.epochs)
        truncated += rec.terminal == "truncated"
    report.add("simulate.epochs_per_traj.401", float(np.mean(epochs)), "count")
    report.add("simulate.truncated", truncated, "count")
    report.add("simulate.brute_force_s", T.total("brute_force_optimal"), "s")
    brute = mix["brute"]
    report.add("simulate.policies_enumerated", math.prod(
        len(legal_actions(brute, (h, k))) for h in brute.live_patients()
        for k in range(brute.n_organ)), "count")

    chain = mix["chain"]
    vf_r, _ = found["robust"][1]
    amb = mix["ambiguity"][1]
    live = [h for h in range(chain.n_patient) if h != chain.death_index]
    kl = []
    for _ in range(5):
        for h in live:
            t0 = time.perf_counter()
            kl_worst_case(chain.transition[h], vf_r.values, float(amb.levels[h]))
            kl.append(time.perf_counter() - t0)
    report.add("robust.kl_worst_case_us", median(kl) * 1e6, "us")
    report.add("robust.backup_ms",
               probe_s(robust_backup, chain, amb, vf_r.values, repeats=5) * 1e3,
               "ms")
    report.add("robust.iterations",
               sum(v.iterations for v, _ in found["robust"]), "count")

    report.add("risk.ce_solve_ms", median([
        s.duration for s in T.named("risk_sensitive_value_iteration")]) * 1e3, "ms")
    report.add("risk.lifetime_solve_ms", median([
        s.duration for s in T.named("lifetime_value_iteration")]) * 1e3, "ms")
    report.add("risk.iterations", float(np.mean(found["risk_iterations"])),
               "count")

    report.add("ctime.ode_s.erlang", T.total("poisson_lambda_ode"), "s")
    report.add("ctime.renewal_s", T.total("renewal_lambda"), "s")
    report.add("ctime.critical_ms", T.total("critical_times") * 1e3, "ms")
    return T
