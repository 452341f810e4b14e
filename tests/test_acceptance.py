"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line for its criterion so the suite can be
read as a release checklist.  Criteria:

1. value iteration matches exhaustive policy enumeration (1e-7)
2. monotone models yield monotone values and control-limit policies
3. the hand-built counterexample policies classify exactly as designed
4. robust values are dominated by myopic ones with nested transplant sets
5. vanishing risk aversion recovers the risk-neutral lifetime solution
6. the fixed-instants recursion reproduces hand-derived thresholds
7. the constant-rate threshold ODE plateaus at its closed-form root
   and agrees with the renewal back-induction
8. simulated values of computed policies match solver values, and
   threshold perturbations never win beyond confidence bounds
9. aging-lifetime fixtures give nonincreasing thresholds with ordered
   critical times
"""

import math
import time

import numpy as np
import pytest

from organstop import (
    Action,
    AmbiguitySpec,
    ContinuousModelSpec,
    FixedInstants,
    PoissonArrivals,
    RenewalArrivals,
    RiskSpec,
    SolveOptions,
    UniformOffers,
    FiniteOffers,
    brute_force_optimal,
    check_am2ro,
    check_am3r,
    check_ifr,
    check_monotone_rewards,
    continuous_time_simulate,
    critical_times,
    erlang_lifetime,
    estimate_policy_value,
    exponential_interarrival,
    exponential_lifetime,
    extract_organ_control_limits,
    extract_patient_control_limits,
    finite_horizon_thresholds,
    lifetime_value_iteration,
    poisson_lambda_ode,
    policy_from_organ_limits,
    region_connectivity,
    renewal_lambda,
    risk_sensitive_value_iteration,
    robust_value_iteration,
    solve_value_iteration,
    threshold_1d,
)
from organstop.ctime import _offer_value_expectation

from helpers import (
    disconnected_regions,
    patient_limit_only,
    random_base_spec,
    random_living_donor_spec,
    risk_base_spec,
    structured_base_spec,
)

TIGHT = SolveOptions(tolerance=1e-10)


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}", flush=True)
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_solver_matches_enumeration():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        spec = random_base_spec(
            rng,
            n_live=int(rng.integers(1, 4)),
            n_offered=int(rng.integers(1, 3)),
            discount=float(rng.uniform(0.5, 0.95)),
        )
        vf, _ = solve_value_iteration(spec, TIGHT)
        exact, _ = brute_force_optimal(spec)
        worst = max(worst, float(np.max(np.abs(vf.values - exact))))
    elapsed = time.time() - start
    report(1, f"solver vs enumeration, max gap {worst:.2e} "
              f"({elapsed:.1f}s)", worst < 1e-7 and elapsed < 30)


def test_criterion_2_monotone_models_have_threshold_structure():
    rng = np.random.default_rng(202)
    start = time.time()
    ok = True
    for _ in range(100):
        spec = structured_base_spec(rng)
        assert check_ifr(spec.transition).holds
        assert check_monotone_rewards(spec).monotone
        vf, pol = solve_value_iteration(spec, TIGHT)
        v = vf.values
        monotone = (np.diff(v, axis=0) <= 1e-9).all() and \
                   (np.diff(v, axis=1) <= 1e-9).all()
        pat = extract_patient_control_limits(spec, pol)
        org = extract_organ_control_limits(spec, pol)
        ok = ok and monotone and pat.is_control_limit and org.is_control_limit
    elapsed = time.time() - start
    report(2, f"monotone values and control limits on 100 structured "
              f"models ({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_3_counterexample_fixtures_classify_exactly():
    spec1, pol1 = patient_limit_only()
    fig1 = (extract_patient_control_limits(spec1, pol1).is_control_limit
            and not extract_organ_control_limits(spec1, pol1).is_control_limit)

    spec3, pol3 = disconnected_regions()
    both_1d = (extract_patient_control_limits(spec3, pol3).is_control_limit
               and extract_organ_control_limits(spec3, pol3).is_control_limit)
    regions = region_connectivity(spec3, pol3)
    fig3 = both_1d and len(regions) > 3 and check_am3r(spec3, pol3).disconnected

    report(3, f"patient-only fixture and {len(regions)}-region fixture "
              "classified exactly", fig1 and fig3)


def test_criterion_4_robust_dominance_and_nesting():
    rng = np.random.default_rng(404)
    start = time.time()
    radii = [0.0, 0.05, 0.1, 0.2]
    ok = True
    for _ in range(50):
        spec = random_living_donor_spec(rng)
        vf_myopic, pol_myopic = solve_value_iteration(spec, TIGHT)
        myopic_limit = threshold_1d(pol_myopic.actions, spec.death_index)
        prev_accept = None
        for radius in radii:
            amb = AmbiguitySpec(np.full(spec.n_patient, radius))
            vf_rob, pol_rob = robust_value_iteration(spec, amb, TIGHT)
            ok = ok and (vf_rob.values <= vf_myopic.values + 1e-9).all()
            accept = np.asarray(pol_rob.actions) == Action.TRANSPLANT_LIVING
            if prev_accept is not None:
                ok = ok and bool(np.all(prev_accept <= accept))
            prev_accept = accept
            robust_limit = threshold_1d(pol_rob.actions, spec.death_index)
            if myopic_limit is not None and robust_limit is not None:
                ok = ok and robust_limit <= myopic_limit
    elapsed = time.time() - start
    report(4, f"robust dominance and nested transplant sets on 50 chains "
              f"x {len(radii)} radii ({elapsed:.1f}s)", ok and elapsed < 60)


def _deterministic_chain_spec():
    from organstop import DiscreteModelSpec, Variant, validate_model
    return validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=3, death_index=2,
        n_organ=2, no_offer_index=1,
        transition=np.array([[0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0],
                             [0.0, 0.0, 1.0]]),
        offer_prob=np.tile([0.0, 1.0], (3, 1)),
        wait_reward=np.array([1.0, 1.0, 0.0]),
        transplant_reward=np.zeros((3, 2)),
        discount=0.9,
    ))


def test_criterion_5_risk_neutral_limit():
    rng = np.random.default_rng(505)
    start = time.time()
    worst = 0.0
    for _ in range(10):
        spec = risk_base_spec(rng)
        pmf = rng.dirichlet(np.ones(5), size=(spec.n_patient, spec.n_organ))
        vf_risk, _ = risk_sensitive_value_iteration(
            spec, RiskSpec(1e-6, pmf), SolveOptions(tolerance=1e-12))
        vf_neutral, _ = lifetime_value_iteration(
            spec, RiskSpec(1e-6, pmf), SolveOptions(tolerance=1e-12))
        worst = max(worst, float(np.max(np.abs(
            vf_risk.values - vf_neutral.values))))

    spec = _deterministic_chain_spec()
    pmf = np.zeros((3, 2, 3))
    pmf[..., 0] = 1.0
    exact = True
    for gamma in [1e-6, 0.5, 2.0]:
        vf, _ = risk_sensitive_value_iteration(
            spec, RiskSpec(gamma, pmf), SolveOptions(tolerance=1e-13))
        exact = exact and abs(vf.values[0, 0] - 2.0) < 1e-9 \
            and abs(vf.values[1, 0] - 1.0) < 1e-9
    elapsed = time.time() - start
    report(5, f"risk-neutral limit gap {worst:.2e}, deterministic chain "
              f"exact ({elapsed:.1f}s)",
           worst < 1e-3 and exact and elapsed < 10)


def _uniform_fixed_instants(n, alpha=1.0):
    return ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=FixedInstants(np.arange(1.0, n + 1.0)),
        survival_alphas=np.full(n, alpha),
    )


def test_criterion_6_fixed_instants_hand_values():
    lam = finite_horizon_thresholds(_uniform_fixed_instants(5))
    ok = abs(lam[-2] - 0.5) < 1e-9 and abs(lam[-3] - 0.625) < 1e-9
    report(6, f"hand-derived rejection values 0.5 / 0.625 "
              f"(got {lam[-2]:.12f} / {lam[-3]:.12f})", ok)


def test_criterion_7_ode_plateau_and_renewal_agreement():
    start = time.time()
    offers = UniformOffers(0.0, 1.0)
    life = exponential_lifetime(0.5)
    spec = ContinuousModelSpec(offers=offers, arrivals=PoissonArrivals(1.0),
                               lifetime=life)
    curve = poisson_lambda_ode(spec, t_max=40.0, step=0.1)
    root = (3 - math.sqrt(5)) / 2
    plateau_gap = abs(curve(1.0) - root)

    ode = poisson_lambda_ode(spec, t_max=12.0, step=0.05)
    ren = renewal_lambda(
        ContinuousModelSpec(offers=offers,
                            arrivals=RenewalArrivals(
                                exponential_interarrival(1.0)),
                            lifetime=life),
        t_max=12.0, step=0.05)
    early = ode.times <= 6.0
    agreement = float(np.max(np.abs(ode.values[early] - ren.values[early])))
    elapsed = time.time() - start
    report(7, f"plateau gap {plateau_gap:.2e}, ODE-vs-renewal gap "
              f"{agreement:.2e} ({elapsed:.1f}s)",
           plateau_gap < 1e-4 and agreement < 2e-3 and elapsed < 10)


def test_criterion_8_simulated_threshold_optimality():
    start = time.time()
    ok = True

    # discrete: the solved policy's estimate brackets the solver value and
    # shifting every organ control limit by +-1 never wins beyond the CIs.
    rng = np.random.default_rng(808)
    spec = structured_base_spec(rng, n_live=4, n_offered=3)
    vf, pol = solve_value_iteration(spec, TIGHT)
    base = estimate_policy_value(spec, pol, n_trajectories=200_000, seed=88)
    solver_value = float(vf.marginal[0])
    ok = ok and abs(base.mean - solver_value) <= 3 * base.std_error
    limits = extract_organ_control_limits(spec, pol).thresholds
    n_offered = spec.n_organ - 1
    for shift in (-1, 1):
        shifted = np.clip(limits + shift, -1, n_offered - 1)
        perturbed = policy_from_organ_limits(spec, shifted)
        est = estimate_policy_value(spec, perturbed,
                                    n_trajectories=200_000, seed=88)
        ok = ok and est.ci_low <= base.ci_high

    # continuous: same bracket + perturbation test with the fixed-instants
    # rejection values scaled by +-10%.
    cspec = _uniform_fixed_instants(10, alpha=0.9)
    lam = finite_horizon_thresholds(cspec)
    value0 = 0.9 * _offer_value_expectation(cspec.offers, lam[0], 1.0)
    cbase = continuous_time_simulate(cspec, lam,
                                     n_trajectories=100_000, seed=99)
    ok = ok and abs(cbase.mean - value0) <= 3 * cbase.std_error
    for scale in (0.9, 1.1):
        est = continuous_time_simulate(cspec, lam * scale,
                                       n_trajectories=100_000, seed=99)
        ok = ok and est.ci_low <= cbase.ci_high

    elapsed = time.time() - start
    report(8, f"simulated values bracket solver values; perturbed "
              f"thresholds never win beyond CI ({elapsed:.1f}s)",
           ok and elapsed < 120)


def test_criterion_9_aging_lifetime_monotone_thresholds():
    start = time.time()
    ok = True
    for shape, rate, mu in [(3, 1.0, 1.0), (2, 0.8, 0.5)]:
        spec = ContinuousModelSpec(
            offers=UniformOffers(0.0, 1.0),
            arrivals=PoissonArrivals(mu),
            lifetime=erlang_lifetime(shape, rate),
        )
        curve = poisson_lambda_ode(spec, t_max=60.0, step=0.1)
        ok = ok and curve.is_nonincreasing()
        top = curve(0.0) + 0.1   # x_1 above lambda(0) forces t_1 = 0
        values = np.array([top, 0.6 * top, 0.3 * top, 0.1 * top])
        times = critical_times(curve, values)
        finite = times[np.isfinite(times)]
        ok = ok and times[0] == 0.0 and bool(np.all(np.diff(times) >= 0.0)) \
            and bool(np.all(finite <= curve.times[-1]))
    elapsed = time.time() - start
    report(9, f"nonincreasing thresholds and ordered critical times "
              f"({elapsed:.1f}s)", ok and elapsed < 5)
