"""Monte Carlo estimator against solver values and closed forms."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from organstop import (
    Action,
    ContinuousModelSpec,
    DeterministicInterarrival,
    DiscreteModelSpec,
    FiniteOffers,
    FixedInstants,
    ModelValidationError,
    NonhomogeneousPoissonArrivals,
    Policy,
    PoissonArrivals,
    RenewalArrivals,
    SolveOptions,
    UniformOffers,
    Variant,
    brute_force_optimal,
    continuous_time_simulate,
    erlang_lifetime,
    estimate_policy_value,
    exponential_interarrival,
    exponential_lifetime,
    finite_horizon_thresholds,
    infinite_horizon_limit,
    simulate_trajectory,
    solve_value_iteration,
    validate_model,
)
from organstop import simulate
from organstop.model import VARIANT_RULES, Action
from organstop.simulate import trajectory_rng

from helpers import random_base_spec, random_dialysis_spec, random_spec
from reference_brute_force import brute_force_reference
from reference_simulate import reference_trajectory


def deterministic_chain():
    """h0 -> h1 -> death with certainty; wait everywhere."""
    return validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=3, death_index=2,
        n_organ=2, no_offer_index=1,
        transition=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        offer_prob=np.tile([0.5, 0.5], (3, 1)),
        wait_reward=np.array([1.0, 0.5, 0.0]),
        transplant_reward=np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
        discount=0.9,
    ))


def wait_policy(spec):
    actions = np.full((spec.n_patient, spec.n_organ), int(Action.WAIT))
    actions[spec.death_index] = Action.NONE
    return Policy(spec.variant, actions)


def test_zero_reward_spec_gives_zero():
    spec = deterministic_chain()
    zeroed = validate_model(DiscreteModelSpec(
        **{**{f: getattr(spec, f) for f in (
            "variant", "n_patient", "death_index", "n_organ", "no_offer_index",
            "transition", "offer_prob", "discount")},
           "wait_reward": np.zeros(3), "transplant_reward": np.zeros((3, 2))}))
    est = estimate_policy_value(zeroed, wait_policy(zeroed), 50, seed=1)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_deterministic_path_reward_is_exact():
    spec = deterministic_chain()
    est = estimate_policy_value(spec, wait_policy(spec), 100, seed=2)
    assert est.std_error <= 1e-12  # identical paths, up to summation noise
    assert est.mean == pytest.approx(1.0 + 0.9 * 0.5, abs=1e-12)


def test_trajectory_streams_are_stable():
    spec = random_base_spec(np.random.default_rng(12))
    _, policy = solve_value_iteration(spec)
    a = estimate_policy_value(spec, policy, 200, seed=7)
    b = estimate_policy_value(spec, policy, 200, seed=7)
    assert a.mean == b.mean
    # trajectory i does not depend on how many others run
    r_small = [simulate_trajectory(spec, policy, trajectory_rng(7, i)).reward
               for i in range(5)]
    r_large = [simulate_trajectory(spec, policy, trajectory_rng(7, i)).reward
               for i in range(5)]
    assert r_small == r_large


def test_estimate_covers_solver_value():
    spec = random_base_spec(np.random.default_rng(13), n_live=3, n_offered=2)
    vf, policy = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
    est = estimate_policy_value(spec, policy, 20_000, seed=5)
    start_value = vf.marginal[0]
    assert abs(est.mean - start_value) <= 3 * est.std_error


def test_brute_force_certifies_optimality():
    rng = np.random.default_rng(14)
    spec = random_base_spec(rng, n_live=3, n_offered=2)
    opt_vals, _ = brute_force_optimal(spec)
    opt_start = float((spec.offer_prob[0] * opt_vals[0]).sum())
    # no alternative policy's estimate may beat the certified optimum
    for limits in ([-1, -1, -1], [0, 0, 0], [1, 1, 1], [-1, 0, 1]):
        from organstop import policy_from_organ_limits
        pol = policy_from_organ_limits(spec, limits)
        est = estimate_policy_value(spec, pol, 4000, seed=6)
        assert est.mean <= opt_start + 3 * est.std_error


def test_brute_force_bounds():
    spec = random_base_spec(np.random.default_rng(15), n_live=5, n_offered=3)
    with pytest.raises(ValueError):
        brute_force_optimal(spec)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_brute_force_matches_per_policy_reference(variant):
    # combined and dialysis specs mix cells with 2 and 3 legal actions
    n_live, n_offered = (2, 1) if variant is Variant.DIALYSIS else (3, 2)
    spec = random_spec(np.random.default_rng(17), variant, n_live, n_offered)
    rule = VARIANT_RULES[variant]
    n_regimes, _, n_columns = rule.grid(spec)
    counts = {len(rule.legal(spec, g, k)) for g in range(n_regimes)
              for k in range(n_columns)}
    if variant in (Variant.COMBINED, Variant.DIALYSIS):
        assert {2, 3} <= counts
    values, policy = brute_force_optimal(spec)
    ref_values, ref_actions = brute_force_reference(spec, batch=97)
    assert values.tobytes() == ref_values.tobytes()
    np.testing.assert_array_equal(np.asarray(policy.actions), ref_actions)


def assert_brute_force_matches_reference(spec):
    values, policy = brute_force_optimal(spec)
    ref_values, ref_actions = brute_force_reference(spec, batch=97)
    assert values.tobytes() == ref_values.tobytes()
    np.testing.assert_array_equal(np.asarray(policy.actions), ref_actions)


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.DIALYSIS],
                         ids=lambda v: v.value)
def test_brute_force_keeps_a_sure_death_wait_a_wait(variant):
    """A live state that dies surely has an all-zero wait row, like a
    terminal's: its wait must still be enumerated as a wait."""
    spec = random_spec(np.random.default_rng(18), variant, 2, 1)
    trans = np.array(spec.transition)
    trans[..., 0, :] = 0.0
    trans[..., 0, spec.death_index] = 1.0
    spec = validate_model(dataclasses.replace(spec, transition=trans))
    rows = simulate._cell_dynamics(spec)[3]
    assert not rows[0, 0].any()  # cell (0, 0, 0) waits into certain death
    assert_brute_force_matches_reference(spec)


def test_brute_force_ties_between_terminals_follow_the_reference():
    spec = random_spec(np.random.default_rng(19), Variant.COMBINED, 3, 2)
    reward = np.array(spec.transplant_reward)
    # every offered organ pays what the living donor pays: exact ties
    reward[:, :spec.no_offer_index] = reward[:, [spec.living_donor_state]]
    spec = validate_model(dataclasses.replace(spec, transplant_reward=reward))
    _, policy = brute_force_optimal(spec)
    assert (np.asarray(policy.actions) == Action.TRANSPLANT).any()
    assert_brute_force_matches_reference(spec)


@given(st.sampled_from(list(Variant)), st.integers(0, 2**32 - 1),
       st.integers(1, 6), st.integers(1, 5))
def test_brute_force_matches_the_reference_on_small_specs(variant, seed,
                                                          n_live, n_offered):
    rule = VARIANT_RULES[variant]
    G, _, C = rule.grid(random_spec(np.random.default_rng(0), variant, 1,
                                    n_offered))
    assume(G * n_live * C <= 6)
    assert_brute_force_matches_reference(
        random_spec(np.random.default_rng(seed), variant, n_live, n_offered))


def test_seed_batches_have_consistent_variance():
    spec = random_base_spec(np.random.default_rng(16))
    _, policy = solve_value_iteration(spec)
    ests = [estimate_policy_value(spec, policy, 500, seed=s).mean
            for s in range(20)]
    within = estimate_policy_value(spec, policy, 500, seed=0).std_error
    ratio = np.std(ests, ddof=1) / within
    assert 0.5 < ratio < 2.0


def random_policy(spec, rng):
    """A legal policy with a uniformly drawn action at every live cell."""
    rule = VARIANT_RULES[spec.variant]
    actions = np.full(rule.grid(spec), int(Action.NONE))
    for g, h, k in np.ndindex(actions.shape):
        if h != spec.death_index:
            actions[g, h, k] = rng.choice(rule.legal(spec, g, k))
    return Policy(spec.variant, actions.reshape(rule.value_shape(spec)))


def scalar_rewards(spec, policy, seed, indices, max_epochs=simulate.MAX_EPOCHS):
    records = [reference_trajectory(spec, policy, trajectory_rng(seed, i),
                                    max_epochs=max_epochs) for i in indices]
    return (np.array([r.reward for r in records]),
            sum(r.terminal == "truncated" for r in records))


def long_path_cases(variant):
    """(spec, seed, trajectories) whose paths run long at beta near 1, where
    beta ** t and the walkers' running product part in the last bit."""
    if variant is Variant.BASE:
        return [(random_base_spec(np.random.default_rng(10)), 3, 50)] + [
            (random_base_spec(np.random.default_rng(s), discount=0.99), s, 200)
            for s in range(30)]
    if variant is Variant.DIALYSIS:
        return [(random_dialysis_spec(np.random.default_rng(11)), 3, 50)]
    return []


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_trajectories_match_the_variant_ladder(variant):
    # solved and random legal policies; cut at once, early, or not at all
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(2):
        spec = random_spec(rng, variant, n_live=3, n_offered=2)
        policies = [solve_value_iteration(spec)[1], random_policy(spec, rng),
                    random_policy(spec, rng)]
        cases += [(spec, policy, seed, max_epochs, 40)
                  for policy, seed, max_epochs in itertools.product(
                      policies, (1, 2 ** 40 + 3), (1, 3, simulate.MAX_EPOCHS))]
    cases += [(spec, solve_value_iteration(spec)[1], seed, simulate.MAX_EPOCHS, n)
              for spec, seed, n in long_path_cases(variant)]
    for spec, policy, seed, max_epochs, n in cases:
        for i in range(n):
            got = simulate_trajectory(spec, policy, trajectory_rng(seed, i),
                                      max_epochs)
            want = reference_trajectory(spec, policy, trajectory_rng(seed, i),
                                        max_epochs)
            # repr tells the field types apart too: int from np.int64
            assert repr((got.reward, got.epochs, got.terminal)) == repr(
                (want.reward, want.epochs, want.terminal))


@pytest.mark.filterwarnings("error")  # uint64 wrap-around must stay silent
@pytest.mark.parametrize("variant", list(Variant))
def test_batched_rollout_is_bit_identical(variant, monkeypatch):
    rng = np.random.default_rng(17)
    spec = random_spec(rng, variant, n_live=3, n_offered=2)
    policies = [solve_value_iteration(spec)[1], random_policy(spec, rng),
                random_policy(spec, rng)]
    for policy in policies:
        for seed in (7, 2 ** 40 + 3, 2 ** 127 + 5):
            for max_epochs in (2, simulate.MAX_EPOCHS):
                got = simulate._simulate_rewards(spec, policy, 60, seed,
                                                 max_epochs)
                want = scalar_rewards(spec, policy, seed, range(60),
                                      max_epochs)
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    # the trajectories on both sides of a block boundary
    n = simulate._BLOCK + 3
    rewards, _ = simulate._simulate_rewards(spec, policies[1], n, 5,
                                            simulate.MAX_EPOCHS)
    near = range(n - 6, n)
    assert np.array_equal(rewards[n - 6:],
                          scalar_rewards(spec, policies[1], 5, near)[0])
    # many small blocks give the same numbers
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    small = simulate._simulate_rewards(spec, policies[1], 30, 5,
                                       simulate.MAX_EPOCHS)
    assert np.array_equal(small[0], rewards[:30])
    assert np.array_equal(small[0],
                          scalar_rewards(spec, policies[1], 5, range(30))[0])


@pytest.mark.filterwarnings("error")  # uint64 wrap-around must stay silent
def test_philox_streams_match_numpy():
    for seed in (0, 7, 88, 2 ** 32, 2 ** 64 + 3, 2 ** 127 + 5, 2 ** 128 - 1):
        for i in (0, 1, 2, 16_383, 16_384, 2 ** 32 - 1):
            streams = simulate._PhiloxStreams(seed, i, 1)
            rng = trajectory_rng(seed, i)
            for d in range(9):
                got = streams.random(d, np.array([0]))[0]
                assert got.tobytes() == np.float64(rng.random()).tobytes()
            # the seed is the key: any trajectory is plain numpy
            keyed = np.random.Generator(
                np.random.Philox(key=seed, counter=[0, i, 0, 0]))
            assert trajectory_rng(seed, i).random(9).tobytes() == \
                keyed.random(9).tobytes()
    spec = random_base_spec(np.random.default_rng(12))
    _, policy = solve_value_iteration(spec)
    continuous = ContinuousModelSpec(offers=UniformOffers(0.0, 1.0),
                                     arrivals=PoissonArrivals(rate=1.0),
                                     lifetime=exponential_lifetime(1.0))
    for seed in (-1, 2 ** 128):  # a key has 128 bits
        with pytest.raises(ValueError, match="seed"):
            estimate_policy_value(spec, policy, 10, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            continuous_time_simulate(continuous, lambda t: 0.0, 10, seed=seed)
    with pytest.raises(TypeError):
        estimate_policy_value(spec, policy, 10, seed=7.0)
    # a numpy integer seed is the same seed
    assert estimate_policy_value(spec, policy, 50, seed=np.uint64(2 ** 63)) \
        == estimate_policy_value(spec, policy, 50, seed=2 ** 63)


def test_estimates_do_not_load_numpy_random():
    # importing numpy.random adds about 5 MB to a process's peak memory, and
    # the batched streams need only the seed, which is their Philox key
    code = ("import sys\n"
            "import numpy as np\n"
            "from organstop import (DiscreteModelSpec, Variant,\n"
            "                       estimate_policy_value, solve_value_iteration)\n"
            "spec = DiscreteModelSpec(\n"
            "    variant=Variant.BASE, n_patient=3, death_index=2, n_organ=3,\n"
            "    no_offer_index=2, transition=np.array(\n"
            "        [[0.7, 0.2, 0.1], [0.0, 0.8, 0.2], [0.0, 0.0, 1.0]]),\n"
            "    offer_prob=np.tile([0.3, 0.3, 0.4], (3, 1)),\n"
            "    wait_reward=np.array([1.0, 0.6, 0.0]),\n"
            "    transplant_reward=np.array(\n"
            "        [[8.0, 5.0, 0.0], [7.0, 4.0, 0.0], [0.0, 0.0, 0.0]]),\n"
            "    discount=0.9)\n"
            "policy = solve_value_iteration(spec)[1]\n"
            "print(estimate_policy_value(spec, policy, 100, 2 ** 127 + 5).n,\n"
            "      'numpy.random' in sys.modules)")
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.split() == ["100", "False"]


class ConstantDraws:
    """Stub generator and rollout draws: every uniform draw returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size, rows=None):
        # Generator.random(size), or the rollout's random(draw, rows)
        return np.full(size if rows is None else len(rows), self.u)


def test_sample_index_is_clamped_to_last_possible_state():
    # rows summing to 1 - 5e-10 pass validation; a draw above their last
    # cumsum must land on the last entry with positive probability
    spec = validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=3, death_index=2,
        n_organ=3, no_offer_index=2,
        transition=np.array([[0.7, 0.2999999995, 0.0], [0.0, 0.8, 0.2],
                             [0.0, 0.0, 1.0]]),
        offer_prob=np.tile([0.3, 0.3, 0.3999999995], (3, 1)),
        wait_reward=np.array([1.0, 0.6, 0.0]),
        transplant_reward=np.array([[2.0, 1.0, 0.0], [1.0, 0.5, 0.0],
                                    [0.0, 0.0, 0.0]]),
        discount=0.9,
    ))
    policy = wait_policy(spec)
    draws = ConstantDraws(1.0 - 1e-12)
    # offer 2 twice (no organ), then patients 0, 1 and death
    rec = simulate_trajectory(spec, policy, draws)
    assert rec.epochs == 2 and rec.terminal == "death"
    assert rec.reward == 1.0 + 0.9 * 0.6
    rewards, truncated, stopped, epochs = simulate._rollout(
        spec, policy, draws, 4, simulate.MAX_EPOCHS)
    assert np.all(rewards == rec.reward)
    assert (truncated, stopped, epochs) == (0, 0, 2)


@pytest.mark.parametrize("action, cell", [
    (Action.MEDICATION, (0, 0)), (Action.TRANSPLANT, (0, 1))],
    ids=["medication-in-base", "transplant-without-offer"])
def test_one_trajectory_refuses_an_illegal_policy(action, cell):
    """simulate_trajectory refuses the policy estimate_policy_value
    refuses, rather than walking the illegal action as a transplant."""
    spec = deterministic_chain()
    actions = np.array(wait_policy(spec).actions)
    actions[cell] = action
    policy = Policy(spec.variant, actions)
    for walk in (lambda: simulate_trajectory(spec, policy, trajectory_rng(7, 0)),
                 lambda: estimate_policy_value(spec, policy, 10, 7)):
        with pytest.raises(ModelValidationError) as exc:
            walk()
        assert exc.value.errors == [f"illegal action {action.name} at cell {cell}"]


def test_sample_size_is_validated():
    # one trajectory has no standard error
    spec = deterministic_chain()
    continuous = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=PoissonArrivals(rate=1.0),
        lifetime=exponential_lifetime(1.0),
    )
    for n in (1, 0, -3, 2 ** 32):
        with pytest.raises(ValueError, match="n_trajectories"):
            estimate_policy_value(spec, wait_policy(spec), n, seed=1)
        with pytest.raises(ValueError, match="n_trajectories"):
            continuous_time_simulate(continuous, lambda t: 0.0, n, seed=1)


# --- continuous time ----------------------------------------------------------

def test_zero_arrival_rate_means_zero_reward():
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=PoissonArrivals(rate=0.0),
        lifetime=exponential_lifetime(1.0),
    )
    est = continuous_time_simulate(spec, lambda t: 0.0, 500, seed=1)
    assert est.mean == 0.0


def test_single_instant_accept_all_mean():
    alpha = 0.6
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=FixedInstants(np.array([1.0])),
        survival_alphas=np.array([alpha]),
    )
    est = continuous_time_simulate(spec, np.array([0.0]), 40_000, seed=2)
    assert abs(est.mean - alpha * 0.5) <= 3 * est.std_error


def test_fixed_instants_rule_value_matches_recursion():
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=FixedInstants(np.arange(1.0, 9.0)),
        survival_alphas=np.full(8, 0.9),
    )
    lam = finite_horizon_thresholds(spec)
    est = continuous_time_simulate(spec, lam, 40_000, seed=3)
    # value of the rule = alpha_0 E[max(X, lam_0)] with uniform offers
    expected = 0.9 * (1 + lam[0] ** 2) / 2
    assert abs(est.mean - expected) <= 3 * est.std_error


def test_thinning_requires_rate_bound():
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=NonhomogeneousPoissonArrivals(rate_fn=lambda t: 1.0),
        lifetime=exponential_lifetime(1.0),
    )
    with pytest.raises(ValueError):
        continuous_time_simulate(spec, lambda t: 0.0, 10, seed=4)


@pytest.mark.parametrize("bound", [0.0, math.inf])
def test_thinning_refuses_a_bound_that_draws_no_gaps(bound):
    # the bound is the rate of the exponential gaps thinning draws
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=NonhomogeneousPoissonArrivals(rate_fn=lambda t: 0.0,
                                               rate_bound=bound),
        lifetime=exponential_lifetime(1.0),
    )
    with pytest.raises(ValueError, match="interarrival rate must be finite"):
        continuous_time_simulate(spec, lambda t: 0.0, 10, seed=4)

@pytest.mark.parametrize("rate", [2.0, math.inf, math.nan, -0.5])
def test_thinning_refuses_a_rate_outside_its_bound(rate):
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=NonhomogeneousPoissonArrivals(rate_fn=lambda t: rate,
                                               rate_bound=1.0),
        lifetime=exponential_lifetime(1.0),
    )
    with pytest.raises(ValueError, match=rf"rate {rate} at time \d"):
        continuous_time_simulate(spec, lambda t: 0.0, 10, seed=4)


def test_thinning_matches_homogeneous():
    offers = UniformOffers(0.0, 1.0)
    life = exponential_lifetime(0.5)
    rule = lambda t: 0.3
    homo = continuous_time_simulate(
        ContinuousModelSpec(offers=offers, arrivals=PoissonArrivals(1.0),
                            lifetime=life),
        rule, 40_000, seed=5)
    thin = continuous_time_simulate(
        ContinuousModelSpec(
            offers=offers,
            arrivals=NonhomogeneousPoissonArrivals(rate_fn=lambda t: 1.0,
                                                   rate_bound=4.0),
            lifetime=life),
        rule, 40_000, seed=6)
    gap = abs(homo.mean - thin.mean)
    assert gap <= 3 * math.hypot(homo.std_error, thin.std_error)


def test_renewal_rule_value_matches_stationary_limit():
    # offers every d time units to a patient with an exponential lifetime:
    # fixed instants with survival exp(-mu d) each, whose optimal rule
    # accepts above gamma and is worth gamma
    d, mu = 0.5, 0.4
    offers = FiniteOffers(np.array([3.0, 1.5, 0.5]), np.array([0.2, 0.3, 0.5]))
    gamma = float(infinite_horizon_limit(offers, math.exp(-mu * d)))
    spec = ContinuousModelSpec(
        offers=offers,
        arrivals=RenewalArrivals(DeterministicInterarrival(d)),
        lifetime=exponential_lifetime(mu),
    )
    est = continuous_time_simulate(spec, lambda t: gamma, 40_000, seed=12)
    assert est.truncated == 0
    assert abs(est.mean - gamma) <= 4 * est.std_error


def test_continuous_simulation_counts_truncated_trajectories():
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=PoissonArrivals(1.0),
        lifetime=exponential_lifetime(0.5),
    )
    n, m = 20_000, 3
    # rejecting every offer, a trajectory is open after m arrivals iff it
    # outlives them: probability (mu / (mu + r))^m = (2/3)^3
    never = continuous_time_simulate(spec, lambda t: 2.0, n, seed=10,
                                     max_arrivals=m)
    p = (2.0 / 3.0) ** m
    assert never.mean == 0.0
    assert abs(never.truncated - n * p) <= 4 * math.sqrt(n * p * (1 - p))
    assert continuous_time_simulate(spec, lambda t: 2.0, n,
                                    seed=10).truncated == 0
    # accepting every offer, the first arrival or death ends each trajectory
    always = continuous_time_simulate(spec, lambda t: 0.0, n, seed=11,
                                      max_arrivals=1)
    assert always.truncated == 0
    assert always == continuous_time_simulate(spec, lambda t: 0.0, n, seed=11)


def test_continuous_estimate_reads_trajectory_zero_of_its_seed():
    # one instant, every offer accepted: survival draws, then offer draws,
    # all from trajectory_rng(seed, 0)
    spec = ContinuousModelSpec(offers=UniformOffers(0.0, 1.0),
                               arrivals=FixedInstants(np.array([1.0])),
                               survival_alphas=np.array([0.6]))
    n, seed = 1000, 2 ** 127 + 5
    rng = np.random.Generator(np.random.Philox(key=seed))
    alive = rng.random(n) < 0.6
    rewards = np.zeros(n)
    rewards[alive] = spec.discount_fn(1.0) * spec.offers.sample(
        rng, int(alive.sum()))
    est = continuous_time_simulate(spec, np.array([0.0]), n, seed)
    assert est.mean == float(rewards.mean())


FIXED_3 = ContinuousModelSpec(offers=UniformOffers(0.0, 1.0),
                              arrivals=FixedInstants(np.arange(1.0, 4.0)),
                              survival_alphas=np.full(3, 0.9))
POISSON = ContinuousModelSpec(offers=UniformOffers(0.0, 1.0),
                              arrivals=PoissonArrivals(1.0),
                              lifetime=exponential_lifetime(0.5))


@pytest.mark.parametrize("spec, threshold, error", [
    # an array needs fixed instants and one value per instant
    (FIXED_3, np.zeros(1), ValueError),
    (FIXED_3, np.zeros(4), ValueError),
    (FIXED_3, np.zeros((1, 3)), ValueError),
    (POISSON, np.zeros(3), ValueError),
    # anything else must be callable
    (FIXED_3, 0.5, TypeError),
    (FIXED_3, [0.0, 0.0, 0.0], TypeError),
    (POISSON, 0.5, TypeError),
], ids=["short", "long", "2d", "poisson-array", "float", "list",
        "poisson-float"])
def test_continuous_estimate_refuses_a_malformed_threshold(spec, threshold,
                                                          error):
    with pytest.raises(error, match="threshold"):
        continuous_time_simulate(spec, threshold, 10, seed=1)


def test_continuous_simulation_reproducible():
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=PoissonArrivals(1.0),
        lifetime=exponential_lifetime(0.5),
    )
    a = continuous_time_simulate(spec, lambda t: 0.4, 1000, seed=9)
    b = continuous_time_simulate(spec, lambda t: 0.4, 1000, seed=9)
    assert a.mean == b.mean


def _pinned_spec(arrivals, lifetime=exponential_lifetime(0.5)):
    return ContinuousModelSpec(offers=UniformOffers(0.0, 1.0),
                               arrivals=arrivals, lifetime=lifetime)


_PINNED_FIXED = ContinuousModelSpec(
    offers=FiniteOffers(np.array([3.0, 1.5, 0.5]), np.array([0.2, 0.3, 0.5])),
    arrivals=FixedInstants(np.arange(1.0, 6.0)),
    survival_alphas=np.full(5, 0.85),
    discount_fn=lambda t: math.exp(-0.1 * t))

# (spec, threshold, max_arrivals or None for the default, the estimate's
# repr((mean, std_error, truncated)) for n = 3000 and seed 2024)
_PINNED_ESTIMATES = {
    "poisson": (_pinned_spec(PoissonArrivals(1.0)), lambda t: 0.4, None,
                "(0.3679313439856217, 0.006790380965491924, 0)"),
    "poisson-zero": (_pinned_spec(PoissonArrivals(0.0)), lambda t: 0.4, None,
                     "(0.0, 0.0, 0)"),
    "deterministic": (
        _pinned_spec(RenewalArrivals(DeterministicInterarrival(0.7))),
        lambda t: 0.5, None, "(0.39326167941480467, 0.0070569530029063006, 0)"),
    "exponential": (
        _pinned_spec(RenewalArrivals(exponential_interarrival(2.0)),
                     erlang_lifetime(3, 1.5)),
        lambda t: 0.6, None, "(0.57291037615457, 0.006841859707842392, 0)"),
    "thinned": (
        _pinned_spec(NonhomogeneousPoissonArrivals(
            lambda t: 1.0 + math.sin(t), rate_bound=2.5)),
        lambda t: 0.3 * math.exp(-0.2 * t), None,
        "(0.42028867050509267, 0.006282110386021177, 0)"),
    "fixed-array": (_PINNED_FIXED, np.array([1.2, 1.0, 0.8, 0.4, 0.0]), None,
                    "(1.2817191882280055, 0.017394852426180232, 0)"),
    "fixed-callable": (_PINNED_FIXED, lambda t: max(0.0, 1.5 - 0.3 * t), None,
                       "(1.2702207102067524, 0.017447033253113642, 0)"),
    "max-arrivals-3": (_pinned_spec(PoissonArrivals(1.0)), lambda t: 0.9, 3,
                       "(0.12081749142266698, 0.0057785608656338375, 585)"),
}


@pytest.mark.parametrize("case", list(_PINNED_ESTIMATES))
def test_continuous_estimate_keeps_its_pinned_numbers(case):
    """The estimator's draw order and float operations, pinned: any change
    moves these exact numbers, which a statistical test would let pass."""
    spec, threshold, max_arrivals, pinned = _PINNED_ESTIMATES[case]
    extra = {} if max_arrivals is None else {"max_arrivals": max_arrivals}
    est = continuous_time_simulate(spec, threshold, 3000, seed=2024, **extra)
    assert repr((est.mean, est.std_error, est.truncated)) == pinned
