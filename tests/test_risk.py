"""Exponential-utility certainty equivalents and the lifetime recursions."""

import numpy as np
import pytest

from organstop import (
    Action,
    ModelValidationError,
    RiskSpec,
    SolveOptions,
    certainty_equivalent,
    exp_utility,
    exp_utility_inverse,
    lifetime_value_iteration,
    risk_sensitive_value_iteration,
)

from helpers import random_lifetime_pmf, risk_base_spec


def test_utility_round_trip():
    # precision degrades as u approaches 1, so keep gamma * x moderate
    for gamma in [1e-8, 1e-3, 0.5, 2.0]:
        x = np.linspace(0, min(50.0, 12.0 / gamma), 101)
        np.testing.assert_allclose(
            exp_utility_inverse(exp_utility(x, gamma), gamma), x,
            rtol=1e-9, atol=1e-11)


def test_utility_small_gamma_is_nearly_linear():
    x = np.array([0.5, 1.0, 10.0])
    np.testing.assert_allclose(exp_utility(x, 1e-9) / 1e-9, x, rtol=1e-6)


def test_certainty_equivalent_definition():
    values = np.array([0.0, 10.0])
    probs = np.array([0.5, 0.5])
    gamma = 0.7
    ce = certainty_equivalent(values, probs, gamma)
    # direct inversion of the expected utility
    eu = 0.5 * (1 - np.exp(0)) + 0.5 * (1 - np.exp(-7.0))
    assert ce == pytest.approx(-np.log(1 - eu) / gamma, rel=1e-12)
    # risk aversion: below the mean, above the minimum
    assert 0.0 < ce < 5.0


def test_certainty_equivalent_deterministic_is_exact():
    assert certainty_equivalent(np.array([7.0]), np.array([1.0]), 0.3) \
        == pytest.approx(7.0, abs=1e-12)


def test_certainty_equivalent_approaches_mean():
    values = np.array([2.0, 8.0])
    probs = np.array([0.25, 0.75])
    ce = certainty_equivalent(values, probs, 1e-9)
    assert ce == pytest.approx(6.5, abs=1e-6)


def test_certainty_equivalent_saturation_warns():
    with pytest.warns(UserWarning, match="saturated"):
        ce = certainty_equivalent(np.array([1e6]), np.array([1.0]), 5.0)
    assert ce == 1e6


def test_riskspec_validates_pmf_rows():
    with pytest.raises(ModelValidationError):
        RiskSpec(risk_coefficient=1.0,
                 lifetime_pmf=np.array([[[0.5, 0.2]]]))
    with pytest.raises(ModelValidationError):
        RiskSpec(risk_coefficient=-1.0,
                 lifetime_pmf=np.array([[[1.0, 0.0]]]))


def test_requires_unit_wait_rewards():
    rng = np.random.default_rng(0)
    spec = risk_base_spec(rng)
    bad = risk_base_spec(rng)
    object.__setattr__(bad, "wait_reward", np.append(
        np.full(spec.n_patient - 1, 2.0), 0.0))
    risk = RiskSpec(1.0, random_lifetime_pmf(rng, spec))
    with pytest.raises(ModelValidationError):
        risk_sensitive_value_iteration(bad, risk)


def chain_spec():
    """Deterministic two-epoch chain: h0 -> h1 -> death, offers never taken."""
    from organstop import DiscreteModelSpec, Variant, validate_model
    return validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=3, death_index=2,
        n_organ=2, no_offer_index=1,
        transition=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        offer_prob=np.tile([0.5, 0.5], (3, 1)),
        wait_reward=np.array([1.0, 1.0, 0.0]),
        transplant_reward=np.zeros((3, 2)),
        discount=0.9,
    ))


def test_deterministic_chain_matches_exact_lifetime():
    spec = chain_spec()
    pmf = np.zeros((3, 2, 3))
    pmf[..., 0] = 1.0  # transplanting yields zero residual lifetime
    for gamma in [1e-6, 0.5, 2.0]:
        risk = RiskSpec(gamma, pmf)
        vf, pol = risk_sensitive_value_iteration(
            spec, risk, SolveOptions(tolerance=1e-13))
        # waiting from h0 gives exactly 2 epochs, from h1 exactly 1
        assert vf.values[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert vf.values[1, 0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(pol.actions[:2] == Action.WAIT)


def test_lifetime_recursion_geometric_closed_form():
    # single live state surviving with probability q: E[epochs] = 1/(1-q)
    from organstop import DiscreteModelSpec, Variant, validate_model
    q = 0.8
    spec = validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=2, death_index=1,
        n_organ=2, no_offer_index=1,
        transition=np.array([[q, 1 - q], [0.0, 1.0]]),
        offer_prob=np.tile([0.5, 0.5], (2, 1)),
        wait_reward=np.array([1.0, 0.0]),
        transplant_reward=np.zeros((2, 2)),
        discount=0.9,
    ))
    pmf = np.zeros((2, 2, 2))
    pmf[..., 0] = 1.0
    vf, _ = lifetime_value_iteration(spec, RiskSpec(1.0, pmf),
                                     SolveOptions(tolerance=1e-12))
    assert vf.values[0, 0] == pytest.approx(1.0 / (1 - q), abs=1e-9)


def test_lifetime_residual_is_the_bellman_residual():
    rng = np.random.default_rng(0)
    spec = risk_base_spec(rng, n_live=2, n_offered=2)
    risk = RiskSpec(1.0, random_lifetime_pmf(rng, spec))
    vf, _ = lifetime_value_iteration(spec, risk, SolveOptions(tolerance=1e-3))
    # the lifetime operator written out: one epoch per wait, undiscounted
    V = vf.values
    stay = 1.0 + spec.transition @ (spec.offer_prob * V).sum(axis=1)
    image = np.maximum(risk.lifetime_pmf @ np.arange(risk.lifetime_pmf.shape[-1]),
                       stay[:, None])
    image[:, spec.no_offer_index] = stay
    image[spec.death_index] = 0.0
    assert vf.residual == pytest.approx(np.max(np.abs(image - V)), rel=1e-9)


def test_small_gamma_matches_risk_neutral():
    rng = np.random.default_rng(1)
    for _ in range(5):
        spec = risk_base_spec(rng)
        risk = RiskSpec(1e-6, random_lifetime_pmf(rng, spec))
        vf_r, _ = risk_sensitive_value_iteration(
            spec, risk, SolveOptions(tolerance=1e-11))
        vf_n, _ = lifetime_value_iteration(
            spec, risk, SolveOptions(tolerance=1e-11))
        assert np.max(np.abs(vf_r.values - vf_n.values)) < 1e-3


def test_risk_aversion_lowers_values():
    rng = np.random.default_rng(2)
    spec = risk_base_spec(rng)
    pmf = random_lifetime_pmf(rng, spec)
    prev = None
    for gamma in [1e-6, 0.1, 0.5, 2.0]:
        vf, _ = risk_sensitive_value_iteration(
            spec, RiskSpec(gamma, pmf), SolveOptions(tolerance=1e-11))
        if prev is not None:
            assert np.all(vf.values <= prev + 1e-8)
        prev = vf.values


def test_unreachable_death_flagged_non_converged():
    from organstop import DiscreteModelSpec, Variant, validate_model
    spec = validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=2, death_index=1,
        n_organ=2, no_offer_index=1,
        transition=np.array([[1.0, 0.0], [0.0, 1.0]]),
        offer_prob=np.tile([0.5, 0.5], (2, 1)),
        wait_reward=np.array([1.0, 0.0]),
        transplant_reward=np.zeros((2, 2)),
        discount=0.9,
    ))
    pmf = np.zeros((2, 2, 2))
    pmf[..., 0] = 1.0
    with pytest.warns(UserWarning, match="saturated"):
        vf, _ = risk_sensitive_value_iteration(
            spec, RiskSpec(1.0, pmf),
            SolveOptions(tolerance=1e-13, max_iterations=200))
    assert not vf.converged


def immortal_state_spec():
    """State 0 never dies, and its offers give at most two epochs, so
    waiting there forever is worth an unbounded lifetime."""
    from organstop import DiscreteModelSpec, Variant, validate_model
    reward = np.zeros((4, 2))
    reward[:3, 0] = 2.0
    return validate_model(DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=4, death_index=3,
        n_organ=2, no_offer_index=1,
        transition=np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.3, 0.1, 0.1],
                             [0.0, 0.3, 0.5, 0.2], [0.0, 0.0, 0.0, 1.0]]),
        offer_prob=np.full((4, 2), 0.5),
        wait_reward=np.array([1.0, 1.0, 1.0, 0.0]),
        transplant_reward=reward,
        discount=0.9,
    )), np.broadcast_to([0.2, 0.3, 0.5], (4, 2, 3))


@pytest.mark.parametrize("gamma", [0.1, 1.0, 5.0])
def test_frozen_expected_utility_flagged_saturated(gamma):
    """At gamma = 0.1 the iterate freezes a few ulps below 1, where one more
    epoch alive no longer moves the expected utility."""
    spec, pmf = immortal_state_spec()
    with pytest.warns(UserWarning, match="saturated"):
        vf, _ = risk_sensitive_value_iteration(spec, RiskSpec(gamma, pmf))
    assert not vf.converged


def test_lifetime_recursion_that_never_dies_stalls():
    spec, pmf = immortal_state_spec()
    with pytest.warns(UserWarning, match="not contracting"):
        vf, _ = lifetime_value_iteration(spec, RiskSpec(1.0, pmf))
    assert not vf.converged
    assert vf.iterations < 2000
    assert vf.error_bound is None
