"""Properties of the variant rules over random tiny specs of every variant."""

import numpy as np
from hypothesis import given, strategies as st

from organstop import (
    SolveOptions,
    TieBreak,
    Variant,
    brute_force_optimal,
    greedy_policy,
    solve_value_iteration,
    validate_policy,
)
from organstop.solver import zero_values

from helpers import random_spec


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
    for values in (vf.values, zero_values(spec)):
        for tie_break in TieBreak:
            validate_policy(spec, greedy_policy(spec, values, tie_break))


@given(tiny_specs())
def test_solver_matches_brute_force(spec):
    vf, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
    exact, _ = brute_force_optimal(spec)
    assert np.max(np.abs(vf.values - exact)) < 1e-7
