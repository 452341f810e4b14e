"""Generated properties: the variant rules over random tiny specs of every
variant, and the threshold theorems on models that meet their premises."""

import numpy as np
from hypothesis import given, settings, strategies as st

from organstop import (
    ContinuousModelSpec,
    FiniteOffers,
    PoissonArrivals,
    SolveOptions,
    TieBreak,
    UniformOffers,
    Variant,
    analyze_policy,
    brute_force_optimal,
    check_ifr,
    check_monotone_rewards,
    erlang_lifetime,
    greedy_policy,
    poisson_lambda_ode,
    solve_value_iteration,
    validate_policy,
)

from helpers import random_spec, reversed_spec, structured_base_spec

TIGHT = SolveOptions(tolerance=1e-10)


@st.composite
def tiny_specs(draw):
    """Specs small enough to enumerate: at most 12 live cells."""
    variant = draw(st.sampled_from(list(Variant)))
    n_live = draw(st.integers(1, 3))
    wide = variant is not Variant.DIALYSIS or n_live < 3
    n_offered = draw(st.integers(1, 2 if wide else 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_spec(np.random.default_rng(seed), variant, n_live, n_offered)


@given(tiny_specs())
def test_greedy_policy_is_legal(spec):
    vf, _ = solve_value_iteration(spec)
    for values in (vf.values, np.zeros_like(vf.values)):
        for tie_break in TieBreak:
            validate_policy(spec, greedy_policy(spec, values, tie_break))


@given(tiny_specs())
def test_solver_matches_brute_force(spec):
    vf, _ = solve_value_iteration(spec, TIGHT)
    exact, _ = brute_force_optimal(spec)
    assert np.max(np.abs(vf.values - exact)) < 1e-7


@st.composite
def threshold_specs(draw):
    """Base specs on the threshold theorem's premises (Alagoz et al. 2007),
    as ``structured_base_spec`` states them: an IFR kernel, offers that do
    not depend on health, a wait reward nonincreasing in sickness and a
    transplant reward that depends on the organ only, nonincreasing in its
    index."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_live, n_offered = draw(st.integers(1, 39)), draw(st.integers(1, 39))
    discount = draw(st.floats(0.5, 0.999))
    return structured_base_spec(np.random.default_rng(seed), n_live,
                                n_offered, discount)


@given(threshold_specs())
def test_threshold_theorem(spec):
    """Monotone values and a control limit on both axes, with nondecreasing
    thresholds: a sicker patient accepts more organs.  The reversed labels
    of the same model give the same verdicts and thresholds."""
    assert check_ifr(spec.transition).holds
    assert check_monotone_rewards(spec).monotone
    vf, pol = solve_value_iteration(spec, TIGHT)
    assert (np.diff(vf.values, axis=0) <= 1e-9).all()
    assert (np.diff(vf.values, axis=1) <= 1e-9).all()
    report = analyze_policy(spec, pol)
    axes = (report.patient_based, report.organ_based)
    for axis in axes:
        assert axis.is_control_limit and axis.thresholds is not None
        assert (np.diff(axis.thresholds) >= 0).all()
    rev_spec = reversed_spec(spec)
    flipped = analyze_policy(rev_spec, solve_value_iteration(rev_spec, TIGHT)[1])
    for axis, rev in zip(axes, (flipped.patient_based, flipped.organ_based)):
        assert rev.is_control_limit
        np.testing.assert_array_equal(rev.thresholds, axis.thresholds)


@st.composite
def aging_models(draw):
    """Continuous-time models on David and Yechiali's (1985) premises: an
    IFR (Erlang) lifetime, a constant Poisson arrival rate, and uniform or
    finite offers at scales from 1e-3 to 1e6."""
    lifetime = erlang_lifetime(draw(st.integers(1, 5)), draw(st.floats(0.1, 3)))
    arrivals = PoissonArrivals(draw(st.floats(0.1, 5)))
    scale = 10.0 ** draw(st.floats(-3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        offers = UniformOffers(scale * rng.uniform(0, 0.9), scale)
    else:
        values = np.unique(rng.uniform(0.01, 1, draw(st.integers(1, 5))))
        offers = FiniteOffers(scale * values[::-1],
                              rng.dirichlet(np.ones(len(values))))
    return ContinuousModelSpec(offers=offers, arrivals=arrivals,
                               lifetime=lifetime)


@settings(max_examples=20)
@given(aging_models())
def test_aging_lifetime_thresholds_are_nonincreasing(spec):
    assert poisson_lambda_ode(spec, 10, 0.1).is_nonincreasing()
