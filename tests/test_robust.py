"""KL worst-case oracle checks and robust-vs-myopic dominance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from organstop import (
    Action,
    AmbiguitySpec,
    SolveOptions,
    compare_robust_myopic,
    kl_divergence,
    kl_worst_case,
    robust_backup,
    robust_value_iteration,
    solve_value_iteration,
)
from organstop import robust
from organstop.robust import kl_worst_cases

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


def vertex_distance(q, v):
    """KL distance from q to q conditioned on its least supported values."""
    support = q > 0
    argmin = support & (v <= v[support].min() + 1e-15)
    return -np.log(q[argmin].sum())


@st.composite
def kl_problems(draw):
    """Rows with zero-mass atoms and tied minima, one shared value vector,
    and per row a radius at 0, inside, at or past the vertex distance."""
    n = draw(st.integers(2, 6))
    levels = st.sampled_from([0.0, 0.5, 1.0, 2.5])  # ties, at the minimum too
    v = np.array(draw(st.lists(levels | st.floats(0.0, 10.0),
                               min_size=n, max_size=n)))
    mass = st.sampled_from([0.0, 0.0, 1e-6]) | st.floats(0.01, 1.0)
    rows, radii = [], []
    for _ in range(draw(st.integers(1, 5))):
        w = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
        w[draw(st.integers(0, n - 1))] += 0.1
        q = w / w.sum()
        kv = max(vertex_distance(q, v), 0.0)  # rows sum to 1 up to rounding
        where = draw(st.sampled_from(["zero", "inside", "at", "past"]))
        radii.append({"zero": 0.0,
                      "inside": kv * draw(st.floats(1e-6, 0.999)),
                      "at": kv,
                      "past": kv + draw(st.floats(0.0, 3.0))}[where])
        rows.append(q)
    return np.array(rows), v, np.array(radii)


@given(kl_problems())
def test_batched_worst_case_properties(problem):
    q, v, radii = problem
    p, worst = kl_worst_cases(q, v, radii)
    for i in range(len(q)):
        support = q[i] > 0
        assert p[i].sum() == pytest.approx(1.0, abs=1e-12)
        assert (p[i][~support] == 0).all()
        assert kl_divergence(p[i], q[i]) <= radii[i] + 1e-9
        assert worst[i] <= q[i] @ v + 1e-12 * (1 + abs(q[i] @ v))
        flat = np.ptp(v[support]) < 1e-15  # flat values keep the row
        if not flat and radii[i] >= vertex_distance(q[i], v):
            assert worst[i] == v[support].min()
        p_one, worst_one = kl_worst_case(q[i], v, radii[i])
        assert p_one.tobytes() == p[i].tobytes()
        assert worst_one == worst[i]


def test_worst_case_raises_rather_than_return_an_unconverged_tilt(monkeypatch):
    monkeypatch.setattr(robust, "KL_MAX_STEPS", 1)
    with pytest.raises(ValueError, match="not converged"):
        kl_worst_case(np.array([0.4, 0.4, 0.2]), np.array([5.0, 1.0, 3.0]), 0.3)


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


def test_robust_residual_is_the_robust_bellman_residual():
    # a loose tolerance on a long horizon stops with a residual well above
    # rounding
    spec = random_living_donor_spec(np.random.default_rng(4), discount=0.99)
    for radius in (0.0, 0.02, 0.1, 0.3):
        amb = AmbiguitySpec(np.full(spec.n_patient, radius))
        vf, _ = robust_value_iteration(spec, amb, SolveOptions(tolerance=1e-3))
        image = robust_backup(spec, amb, vf.values)
        assert image.shape == vf.values.shape
        assert vf.residual > 1e-6
        assert vf.residual == pytest.approx(np.max(np.abs(image - vf.values)),
                                            rel=1e-9)


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


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n_live=st.integers(1, 6),
       radii=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
def test_robust_values_below_nominal_and_falling_in_radius(seed, n_live, radii):
    spec = random_living_donor_spec(np.random.default_rng(seed), n_live)
    opts = SolveOptions(tolerance=1e-10)
    prev, _ = solve_value_iteration(spec, opts)
    for radius in sorted(radii):
        amb = AmbiguitySpec(np.full(spec.n_patient, radius))
        vf, _ = robust_value_iteration(spec, amb, opts)
        assert np.all(vf.values <= prev.values + 1e-8)
        prev = vf


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
