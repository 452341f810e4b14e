"""KL worst-case oracle checks and robust-vs-myopic dominance."""

import numpy as np
import pytest

from organstop import (
    Action,
    AmbiguitySpec,
    SolveOptions,
    compare_robust_myopic,
    kl_divergence,
    kl_worst_case,
    robust_value_iteration,
    solve_value_iteration,
)

from helpers import random_living_donor_spec


def simplex_grid(n_atoms, steps):
    """All distributions on n_atoms atoms with masses that are multiples
    of 1/steps -- a brute-force search set for the inner problem."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n_atoms - 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i)

    rec([], steps)
    return np.array(out, dtype=float) / steps


def test_kl_divergence_basics():
    p = np.array([0.5, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) \
        == pytest.approx(np.log(2))
    assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == np.inf


def test_worst_case_radius_zero_is_nominal():
    q = np.array([0.3, 0.5, 0.2])
    v = np.array([1.0, 4.0, 2.0])
    p, worst = kl_worst_case(q, v, 0.0)
    np.testing.assert_allclose(p, q)
    assert worst == pytest.approx(float(q @ v))


def test_worst_case_feasible_and_optimal_against_grid_search():
    rng = np.random.default_rng(0)
    grid = simplex_grid(3, 60)
    for _ in range(20):
        q = rng.dirichlet(np.ones(3))
        v = rng.uniform(0, 10, 3)
        radius = rng.uniform(0.01, 0.5)
        p, worst = kl_worst_case(q, v, radius)
        assert kl_divergence(p, q) <= radius + 1e-9
        assert p.sum() == pytest.approx(1.0)
        feasible = [row @ v for row in grid
                    if kl_divergence(row, q) <= radius]
        # the analytic optimum can't be beaten by any feasible grid point
        assert worst <= min(feasible) + 1e-6


def test_worst_case_monotone_in_radius():
    q = np.array([0.4, 0.4, 0.2])
    v = np.array([5.0, 1.0, 3.0])
    worsts = [kl_worst_case(q, v, r)[1] for r in np.linspace(0, 3, 30)]
    assert all(b <= a + 1e-12 for a, b in zip(worsts, worsts[1:]))
    assert worsts[0] == pytest.approx(float(q @ v))


def test_worst_case_vertex_for_large_radius():
    q = np.array([0.4, 0.4, 0.2])
    v = np.array([5.0, 1.0, 3.0])
    # beyond -log q_min the ball contains the minimizing vertex
    p, worst = kl_worst_case(q, v, 2.0)
    assert worst == pytest.approx(1.0)
    np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-12)


def test_worst_case_respects_support():
    q = np.array([0.5, 0.0, 0.5])
    v = np.array([4.0, 0.0, 6.0])
    p, worst = kl_worst_case(q, v, 10.0)
    assert p[1] == 0.0
    assert worst == pytest.approx(4.0)


def test_worst_case_constant_values():
    q = np.array([0.3, 0.7])
    p, worst = kl_worst_case(q, np.array([2.0, 2.0]), 0.5)
    assert worst == pytest.approx(2.0)
    np.testing.assert_allclose(p, q)


# --- robust value iteration -------------------------------------------------

def test_zero_radius_matches_nominal_solve():
    rng = np.random.default_rng(1)
    for _ in range(10):
        spec = random_living_donor_spec(rng)
        amb = AmbiguitySpec(np.zeros(spec.n_patient))
        vf_r, pol_r = robust_value_iteration(spec, amb,
                                             SolveOptions(tolerance=1e-12))
        vf_n, pol_n = solve_value_iteration(spec, SolveOptions(tolerance=1e-12))
        np.testing.assert_allclose(vf_r.values, vf_n.values, atol=1e-9)
        np.testing.assert_array_equal(pol_r.actions, pol_n.actions)


def test_robust_value_below_nominal():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec = random_living_donor_spec(rng)
        amb = AmbiguitySpec(np.full(spec.n_patient, 0.1))
        vf_r, _ = robust_value_iteration(spec, amb, SolveOptions(tolerance=1e-10))
        vf_n, _ = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
        assert np.all(vf_r.values <= vf_n.values + 1e-8)


def test_robust_values_monotone_in_radius():
    spec = random_living_donor_spec(np.random.default_rng(3))
    prev = None
    for radius in [0.0, 0.05, 0.1, 0.2, 0.5]:
        amb = AmbiguitySpec(np.full(spec.n_patient, radius))
        vf, _ = robust_value_iteration(spec, amb, SolveOptions(tolerance=1e-10))
        if prev is not None:
            assert np.all(vf.values <= prev + 1e-8)
        prev = vf.values


def test_compare_robust_myopic_report():
    rng = np.random.default_rng(4)
    for _ in range(10):
        spec = random_living_donor_spec(rng)
        amb = AmbiguitySpec(np.full(spec.n_patient, 0.2))
        rep = compare_robust_myopic(spec, amb)
        assert rep.transplant_subset_holds, rep.subset_violations
        assert rep.limit_comparison in ("holds", "inapplicable")
        assert np.all(rep.robust_values <= rep.myopic_values + 1e-8)


def test_ambiguity_radius_grows_transplant_set():
    rng = np.random.default_rng(5)
    for _ in range(10):
        spec = random_living_donor_spec(rng)
        prev = None
        for radius in [0.0, 0.05, 0.1, 0.2]:
            amb = AmbiguitySpec(np.full(spec.n_patient, radius))
            _, pol = robust_value_iteration(spec, amb,
                                            SolveOptions(tolerance=1e-10))
            accept = np.asarray(pol.actions) == Action.TRANSPLANT_LIVING
            if prev is not None:
                assert np.all(prev <= accept)  # nested nondecreasing
            prev = accept
