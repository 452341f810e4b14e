"""Value iteration against closed forms and the enumeration oracle."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from organstop import (
    Action,
    AmbiguitySpec,
    DiscreteModelSpec,
    ModelValidationError,
    RiskSpec,
    SolveOptions,
    TieBreak,
    Variant,
    bellman_backup,
    build_continuous_analog_spec,
    greedy_policy,
    lifetime_value_iteration,
    risk_sensitive_value_iteration,
    robust_value_iteration,
    solve_value_iteration,
    validate_model,
)
from organstop.model import VARIANT_RULES
from organstop.simulate import brute_force_optimal
from organstop.solver import (STALL_WINDOW, _Continuation, _grid, _solve,
                              marginal_values, zero_values)

import reference_solver
from helpers import (
    random_base_spec,
    random_dialysis_spec,
    random_lifetime_pmf,
    random_living_donor_spec,
    random_spec,
    risk_base_spec,
)

TIGHT = SolveOptions(tolerance=1e-12)


def single_state_spec(r=1.0, survive=0.8, discount=0.9, transplant=0.0):
    return validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=2, death_index=1,
        n_organ=2, no_offer_index=1,
        transition=np.array([[survive, 1 - survive], [0.0, 1.0]]),
        offer_prob=np.array([[0.5, 0.5], [0.5, 0.5]]),
        wait_reward=np.array([r, 0.0]),
        transplant_reward=np.array([[transplant, 0.0], [0.0, 0.0]]),
        discount=discount,
    ))


def test_wait_only_geometric_series():
    r, q, beta = 1.0, 0.8, 0.9
    spec = single_state_spec(r, q, beta)
    vf, policy = solve_value_iteration(spec, TIGHT)
    expected = r / (1 - beta * q)
    assert vf.converged
    assert abs(vf.values[0, 0] - expected) < 1e-9
    assert abs(vf.values[0, 1] - expected) < 1e-9
    assert policy.actions[0, 0] == Action.WAIT


def test_dominant_transplant_accepts_everywhere():
    spec = single_state_spec(transplant=100.0)
    vf, policy = solve_value_iteration(spec, TIGHT)
    assert policy.actions[0, 0] == Action.TRANSPLANT
    assert abs(vf.values[0, 0] - 100.0) < 1e-9


def test_death_rows_stay_zero():
    spec = random_base_spec(np.random.default_rng(0))
    vf, policy = solve_value_iteration(spec)
    assert np.all(vf.values[spec.death_index] == 0.0)
    assert np.all(policy.actions[spec.death_index] == Action.NONE)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_backup_is_a_contraction(variant):
    rng = np.random.default_rng(1)
    for _ in range(20):
        spec = random_spec(rng, variant, n_live=3, n_offered=2)
        shape = zero_values(spec).shape
        U = rng.uniform(0, 10, shape)
        V = rng.uniform(0, 10, shape)
        for arr in (U, V):  # zero at death along the patient axis
            np.moveaxis(arr, -2 if arr.ndim > 1 else 0, 0)[spec.death_index] = 0.0
        gap = np.max(np.abs(bellman_backup(spec, U) - bellman_backup(spec, V)))
        assert gap <= spec.discount * np.max(np.abs(U - V)) + 1e-12


def test_residual_certificate_bounds_value_error():
    rng = np.random.default_rng(2)
    spec = random_base_spec(rng, discount=0.9)
    loose, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-4))
    tight, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-12))
    bound = loose.residual / (1 - spec.discount)
    assert np.max(np.abs(loose.values - tight.values)) <= bound + 1e-9


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.COMBINED])
def test_matches_brute_force(variant):
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = random_base_spec(rng, n_live=3, n_offered=2, variant=variant)
        vf, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
        oracle_vals, _ = brute_force_optimal(spec)
        assert np.max(np.abs(vf.values - oracle_vals)) < 1e-7


def test_dialysis_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(10):
        spec = random_dialysis_spec(rng, n_live=2, n_offered=1)
        vf, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
        oracle_vals, _ = brute_force_optimal(spec)
        assert np.max(np.abs(vf.values - oracle_vals)) < 1e-7


def test_dialysis_switch_is_irreversible_in_values():
    # once on dialysis, medication continuation can't be used, so the
    # dialysis-regime value never exceeds the medication-regime value
    rng = np.random.default_rng(5)
    for _ in range(10):
        spec = random_dialysis_spec(rng)
        vf, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
        assert np.all(vf.values[1] <= vf.values[0] + 1e-9)


def test_living_donor_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = random_living_donor_spec(rng)
        vf, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
        oracle_vals, _ = brute_force_optimal(spec)
        assert np.max(np.abs(vf.values - oracle_vals)) < 1e-7


def test_tie_break_is_honored():
    # exactly representable numbers so the tie is bit-exact:
    # v = 0.75 / (1 - 0.5 * 0.5) = 1, and cont = 0.75 + 0.25 * 1 = 1
    r, q, beta = 0.75, 0.5, 0.5
    spec = single_state_spec(r, q, beta, transplant=1.0)
    values = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(bellman_backup(spec, values), values)
    pol_w = greedy_policy(spec, values, TieBreak.PREFER_WAIT)
    pol_t = greedy_policy(spec, values, TieBreak.PREFER_TRANSPLANT)
    assert pol_w.actions[0, 0] == Action.WAIT
    assert pol_t.actions[0, 0] == Action.TRANSPLANT

    # the same tie in every other greedy rule; each case lists its tied
    # cells with the (prefer-wait, prefer-transplant) winners
    for spec, values, ties in tie_cases():
        assert np.array_equal(bellman_backup(spec, values), values)
        pol_w = greedy_policy(spec, values, TieBreak.PREFER_WAIT)
        pol_t = greedy_policy(spec, values, TieBreak.PREFER_TRANSPLANT)
        for cell, (wait_wins, transplant_wins) in ties.items():
            assert pol_w.actions[cell] == wait_wins, (spec.variant, cell)
            assert pol_t.actions[cell] == transplant_wins, (spec.variant, cell)

    # robust chain at radius zero: the worst case is the nominal row
    spec = tie_cases()[0][0]
    for tie_break, expect in ((TieBreak.PREFER_WAIT, Action.WAIT),
                              (TieBreak.PREFER_TRANSPLANT,
                               Action.TRANSPLANT_LIVING)):
        vf, pol = robust_value_iteration(
            spec, AmbiguitySpec(np.zeros(2)),
            SolveOptions(tolerance=1e-12, tie_break=tie_break))
        assert np.array_equal(vf.values, [1.0, 0.0])
        assert pol.actions[0] == expect

    # both risk recursions: transplanting yields exactly one epoch, as
    # does waiting from a state that dies next epoch
    spec = tie_spec(Variant.BASE, transition=[[0.0, 1.0], [0.0, 1.0]],
                    wait=[1.0, 0.0], reward=[[0.0, 0.0], [0.0, 0.0]],
                    discount=0.9)
    pmf = np.zeros((2, 2, 2))
    pmf[0, :, 1] = pmf[1, :, 0] = 1.0
    for solver in (risk_sensitive_value_iteration, lifetime_value_iteration):
        for tie_break, expect in ((TieBreak.PREFER_WAIT, Action.WAIT),
                                  (TieBreak.PREFER_TRANSPLANT,
                                   Action.TRANSPLANT)):
            _, pol = solver(spec, RiskSpec(0.5, pmf),
                            SolveOptions(tolerance=1e-12, tie_break=tie_break))
            assert pol.actions[0, 0] == expect, solver.__name__
            assert pol.actions[0, 1] == Action.WAIT


def tie_spec(variant, transition=((0.5, 0.5), (0.0, 1.0)), wait=(0.75, 0.0),
             reward=((1.0, 0.0), (0.0, 0.0)), discount=0.5, **extra):
    return validate_model(DiscreteModelSpec(
        variant=variant, n_patient=2, death_index=1, n_organ=2,
        no_offer_index=1, transition=np.array(transition, dtype=float),
        offer_prob=np.full((2, 2), 0.5), wait_reward=np.array(wait),
        transplant_reward=np.array(reward), discount=discount, **extra))


def tie_cases():
    """Specs whose continuation at ``values`` is exactly 0.75 + 0.25 = 1,
    the same as every terminal reward offered at the live state."""
    W, T, TL = Action.WAIT, Action.TRANSPLANT, Action.TRANSPLANT_LIVING
    M, D = Action.MEDICATION, Action.DIALYSIS
    chain = tie_spec(Variant.LIVING_DONOR, living_donor_state=0)
    combined = tie_spec(Variant.COMBINED, living_donor_state=0)
    stay = ((0.5, 0.5), (0.0, 1.0))
    dialysis = tie_spec(Variant.DIALYSIS, transition=(stay, stay),
                        wait=((0.75, 0.0), (0.75, 0.0)))
    grid = np.array([[1.0, 1.0], [0.0, 0.0]])
    return [
        (chain, np.array([1.0, 0.0]), {(0,): (W, TL)}),
        (combined, grid, {(0, 0): (W, T), (0, 1): (W, TL)}),
        # medication wins the no-offer tie under both tie-breaks
        (dialysis, np.stack([grid, grid]),
         {(0, 0, 0): (M, T), (0, 0, 1): (M, M),
          (1, 0, 0): (D, T), (1, 0, 1): (D, D)}),
    ]


def test_continuous_analog_build_and_solve():
    spec = build_continuous_analog_spec(
        transition_density=lambda hp, h: np.exp(-abs(hp - 0.9 * h)),
        offer_density=lambda k: 1.0,
        success_prob=lambda h, k: min(1.0, 0.3 + 0.5 * h * k),
        success_reward=10.0,
        alive_reward=1.0,
        discount=0.9,
        patient_grid=np.linspace(0.1, 0.9, 3),
        organ_grid=np.array([0.2, 0.8]),
    )
    assert spec.variant is Variant.CONTINUOUS_ANALOG
    vf, policy = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
    assert vf.converged
    # reward accrues even in transplanting states, so live values exceed u
    live = spec.live_patients()
    assert np.all(vf.values[live, :] >= 1.0 - 1e-12)
    oracle_vals, _ = brute_force_optimal(spec)
    assert np.max(np.abs(vf.values - oracle_vals)) < 1e-7


def test_solve_stall_guard_runs_without_a_discount_only():
    # u -> 1 - u never contracts: every step has size 1
    spec = single_state_spec()
    problem = _Continuation(spec, VARIANT_RULES[spec.variant].terminal_rewards(spec))
    flip = lambda u, _: 1.0 - u
    opts = SolveOptions(max_iterations=2 * STALL_WINDOW + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vf, _ = _solve(problem, flip, opts, discount=spec.discount)
    assert (vf.iterations, vf.converged, vf.residual) == (opts.max_iterations,
                                                          False, 1.0)
    with pytest.warns(UserWarning, match="not contracting"):
        vf, _ = _solve(problem, flip, opts)
    assert (vf.iterations, vf.converged, vf.residual) == (STALL_WINDOW + 1,
                                                          False, 1.0)
    assert vf.error_bound is None


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.LIVING_DONOR])
def test_one_step_operators_refuse_a_wrong_value_shape(variant):
    spec = random_spec(np.random.default_rng(5), variant, 3, 2)
    H = spec.n_patient
    for shape in [(H, 1), (1,), (H + 1,), (H, spec.n_organ + 1)]:
        for operator in (bellman_backup, greedy_policy):
            with pytest.raises(ModelValidationError, match="value shape"):
                operator(spec, np.zeros(shape))


def test_non_convergence_is_flagged():
    spec = random_base_spec(np.random.default_rng(8), discount=0.95)
    vf, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-12,
                                                     max_iterations=3))
    assert not vf.converged
    assert vf.iterations == 3


# ---------------------------------------------------------------------------
# the continuation-space iteration against the full-grid reference

SOLVERS = [v.value for v in Variant] + ["robust", "risk_ce", "lifetime"]


def solver_case(kind, rng, n_live, n_offered, zeroed=()):
    """(library solve, reference solve, spec) taking SolveOptions; the
    reward fields in ``zeroed`` are set to zero."""
    if kind == "robust":
        spec = random_living_donor_spec(rng, n_live)
        radii = np.append(rng.uniform(0.0, 0.5, n_live), 0.0)
        amb = AmbiguitySpec(radii)
        return (lambda o: robust_value_iteration(spec, amb, o),
                lambda o: reference_solver.robust_solve(spec, amb, o), spec)
    if kind in ("risk_ce", "lifetime"):
        spec = risk_base_spec(rng, n_live, n_offered)
        risk = RiskSpec(float(rng.uniform(0.05, 2.0)),
                        random_lifetime_pmf(rng, spec))
        lib, ref = ((risk_sensitive_value_iteration, reference_solver.risk_ce_solve)
                    if kind == "risk_ce" else
                    (lifetime_value_iteration, reference_solver.lifetime_solve))
        return (lambda o: lib(spec, risk, o), lambda o: ref(spec, risk, o),
                spec)
    spec = random_spec(rng, Variant(kind), n_live, n_offered)
    if zeroed:
        zeros = {name: 0.0 * getattr(spec, name) for name in zeroed}
        if "transplant_reward" in zeroed and spec.success_reward is not None:
            zeros["success_reward"] = 0.0
        spec = validate_model(replace(spec, **zeros))
    return (lambda o: solve_value_iteration(spec, o),
            lambda o: reference_solver.solve(spec, o), spec)


def assert_matches_reference(result, reference):
    (vf, policy), ((values, marginal, residual, iterations, converged),
                   ref_policy) = result, reference
    assert (vf.iterations, vf.converged) == (iterations, converged)
    assert np.array_equal(policy.actions, ref_policy.actions)
    tol = 1e-11 * max(1.0, float(np.abs(values).max()))
    assert np.abs(vf.values - values).max() <= tol
    assert np.abs(vf.marginal - marginal).max() <= tol
    assert abs(vf.residual - residual) <= tol


@given(st.sampled_from(SOLVERS), st.integers(0, 2**32 - 1),
       st.integers(1, 6), st.integers(1, 5),
       st.sampled_from([(), ("wait_reward",),
                        ("wait_reward", "transplant_reward")]),
       st.sampled_from(list(TieBreak)))
def test_solvers_match_the_grid_reference(kind, seed, n_live, n_offered,
                                          zeroed, tie_break):
    """Zero wait rewards make the first step's grid move differ from its
    decline-value move; zero rewards stop the iteration at step 1."""
    solve, reference, _ = solver_case(kind, np.random.default_rng(seed),
                                      n_live, n_offered, zeroed)
    opts = SolveOptions(tie_break=tie_break)
    assert_matches_reference(solve(opts), reference(opts))


@pytest.mark.parametrize("tie_break", list(TieBreak))
def test_exact_ties_match_the_grid_reference(tie_break):
    opts = SolveOptions(tolerance=1e-12, tie_break=tie_break)
    for spec, _, _ in tie_cases():
        assert_matches_reference(solve_value_iteration(spec, opts),
                                 reference_solver.solve(spec, opts))
    chain = tie_cases()[0][0]
    amb = AmbiguitySpec(np.zeros(2))
    assert_matches_reference(robust_value_iteration(chain, amb, opts),
                             reference_solver.robust_solve(chain, amb, opts))
    spec = tie_spec(Variant.BASE, transition=[[0.0, 1.0], [0.0, 1.0]],
                    wait=[1.0, 0.0], reward=[[0.0, 0.0], [0.0, 0.0]])
    pmf = np.zeros((2, 2, 2))
    pmf[0, :, 1] = pmf[1, :, 0] = 1.0
    risk = RiskSpec(0.5, pmf)
    assert_matches_reference(risk_sensitive_value_iteration(spec, risk, opts),
                             reference_solver.risk_ce_solve(spec, risk, opts))
    assert_matches_reference(lifetime_value_iteration(spec, risk, opts),
                             reference_solver.lifetime_solve(spec, risk, opts))


@given(st.sampled_from(list(Variant)), st.integers(0, 2**32 - 1),
       st.integers(1, 6), st.integers(1, 5))
def test_declined_counts_match_sorted_rows(variant, seed, n_live, n_offered):
    """j(h) from the one searchsorted call against a direct count, with
    integer rewards and decline values so that ties are common."""
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant, n_live, n_offered)
    rule = VARIANT_RULES[variant]
    G, H, C = rule.grid(spec)
    terminals = {t.action: rng.integers(0, 4, (H, C)).astype(float)
                 for t in rule.terminals}
    problem = _Continuation(spec, terminals)
    u = rng.choice([-1.0, 0.0, 1.0, 1.5, 2.0, 3.0, 5.0], size=(G, H))
    j = problem.declined(u) - np.arange(H) * (C + 1)
    rows = np.sort(problem.off, axis=1)
    assert np.array_equal(j, (rows[None] <= u[:, :, None]).sum(axis=-1))
    assert (j[:, spec.death_index] == C).all()
    grid = _grid(spec, problem.off, u)
    expected = marginal_values(spec, grid).reshape(G, H)
    assert np.allclose(problem.expect(u, problem.declined(u)), expected,
                       rtol=1e-12, atol=1e-12)


@given(st.sampled_from([Variant.BASE, Variant.DIALYSIS]),
       st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_declined_searches_each_sorted_row(variant, seed, n_live, n_offered):
    """One and two regimes, tied values, -inf rows and columns, and u at the
    row's own keys, at 0 and between keys: the accept index is h (C + 1)
    plus the place of u(g, h) in the sorted row h of T_off."""
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant, n_live, n_offered)
    rule = VARIANT_RULES[variant]
    G, H, C = rule.grid(spec)
    grid = rng.choice([-np.inf, -1.0, 0.0, 1.0, 2.5], size=(H, C))
    grid[rng.random(H) < 0.3] = -np.inf
    grid[:, rng.random(C) < 0.3] = -np.inf
    problem = _Continuation(spec, {t.action: grid for t in rule.terminals})
    rows = np.sort(problem.off, axis=1)
    u = np.empty((G, H))
    for h, row in enumerate(rows):
        finite = np.unique(row[np.isfinite(row)])
        between = np.concatenate([finite[:1] - 0.5, (finite[1:] + finite[:-1]) / 2,
                                  finite[-1:] + 0.5])
        u[:, h] = rng.choice(np.concatenate([row, [0.0], between]), size=G)
    places = [np.searchsorted(row, u[:, h], side="right") for h, row in enumerate(rows)]
    assert np.array_equal(problem.declined(u),
                          np.arange(H) * (C + 1) + np.transpose(places))


@given(st.sampled_from([v.value for v in Variant] + ["robust"]),
       st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
       st.sampled_from([1e-3, 1e-6, 1e-8]))
def test_error_bound_covers_the_tight_solution(kind, seed, n_live, n_offered,
                                               tolerance):
    solve, _, spec = solver_case(kind, np.random.default_rng(seed), n_live,
                                 n_offered)
    vf, _ = solve(SolveOptions(tolerance=tolerance))
    tight, _ = solve(SolveOptions(tolerance=1e-13))
    assert vf.error_bound == vf.residual / (1.0 - spec.discount)
    # the tight solution is itself within its own bound of the fixed point
    gap = np.abs(vf.values - tight.values).max()
    assert gap <= vf.error_bound + tight.error_bound


def test_risk_recursions_have_no_error_bound():
    spec = risk_base_spec(np.random.default_rng(12))
    risk = RiskSpec(0.5, random_lifetime_pmf(np.random.default_rng(13), spec))
    for solver in (risk_sensitive_value_iteration, lifetime_value_iteration):
        assert solver(spec, risk)[0].error_bound is None
