"""Threshold curves: recursion, fixed points, ODE, and critical times."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special, stats

import organstop
from organstop import (
    ContinuousModelSpec,
    ContinuousOffers,
    DeterministicInterarrival,
    FiniteOffers,
    FixedInstants,
    Lifetime,
    NonhomogeneousPoissonArrivals,
    PoissonArrivals,
    RenewalArrivals,
    StiffnessError,
    ThresholdCurve,
    UniformOffers,
    critical_times,
    erlang_lifetime,
    exponential_interarrival,
    exponential_lifetime,
    finite_horizon_thresholds,
    infinite_horizon_limit,
    poisson_lambda_ode,
    renewal_lambda,
)
from organstop.ctime import _offer_value_expectation


# --- offer distributions ----------------------------------------------------

def test_uniform_offers_against_quadrature():
    off = UniformOffers(0.2, 1.4)
    pdf = lambda x: 1.0 / 1.2
    for c in [0.0, 0.2, 0.5, 1.0, 1.4, 2.0]:
        exc, _ = integrate.quad(lambda x: (x - c) * pdf(x), max(c, 0.2), 1.4)
        assert off.excess_integral(np.asarray(c)) == pytest.approx(
            exc if c < 1.4 else 0.0, abs=1e-12)


def test_finite_offers_hand_values():
    off = FiniteOffers(values=np.array([3.0, 2.0, 1.0]),
                       probs=np.array([0.2, 0.3, 0.5]))
    assert off.excess_integral(np.asarray(1.5)) == pytest.approx(
        1.5 * 0.2 + 0.5 * 0.3)


def test_finite_offers_validation():
    with pytest.raises(ValueError):
        FiniteOffers(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        FiniteOffers(np.array([2.0, 1.0]), np.array([0.7, 0.7]))


def test_generic_offers_match_uniform():
    gen = ContinuousOffers(pdf=lambda x: 1.0, support=(0.0, 1.0))
    uni = UniformOffers(0.0, 1.0)
    for c in [0.0, 0.3, 0.9]:
        assert gen.excess_integral(c) == pytest.approx(
            uni.excess_integral(np.asarray(c)), abs=1e-9)


def test_generic_offers_build_their_sampling_table_once():
    calls = []
    off = ContinuousOffers(pdf=lambda x: calls.append(x) or 2.0 * x,
                           support=(0.0, 1.0))
    first = off.sample(np.random.default_rng(3), 5)
    second = off.sample(np.random.default_rng(3), 5)
    assert len(calls) == 4097
    np.testing.assert_array_equal(first, second)
    # the density 2x has the inverse CDF sqrt(u)
    np.testing.assert_allclose(
        first, np.sqrt(np.random.default_rng(3).random(5)), atol=1e-3)


# E[max(beta X, lam)] is read only through E[(X - c)+]; check it against the
# expectation written out directly, for lam >= 0 and beta in (0, 1].
lams = st.floats(0.0, 20.0)
betas = st.floats(0.0, 1.0, exclude_min=True)


def quad_value_expectation(pdf, lo, hi, lam, beta):
    """Quadrature of max(beta x, lam) f(x) over [lo, hi], split at the kink."""
    kink = lam / beta
    points = [kink] if lo < kink < hi else None
    val, _ = integrate.quad(lambda x: max(beta * x, lam) * pdf(x), lo, hi,
                            points=points, epsabs=1e-13, epsrel=1e-13)
    return val


@st.composite
def finite_offers(draw):
    values = draw(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6,
                           unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(values),
                            max_size=len(values)))
    probs = np.array(weights) / sum(weights)
    return FiniteOffers(np.sort(values)[::-1], probs)


@given(finite_offers(), lams, betas)
def test_offer_value_expectation_finite_is_the_direct_sum(off, lam, beta):
    direct = float(off.probs @ np.maximum(beta * off.values, lam))
    assert abs(_offer_value_expectation(off, lam, beta) - direct) <= 1e-12


@given(st.floats(0.0, 5.0), st.floats(0.1, 5.0), lams, betas)
def test_offer_value_expectation_uniform_matches_quadrature(low, width, lam,
                                                            beta):
    off = UniformOffers(low, low + width)
    exact = quad_value_expectation(lambda x: 1.0 / width, off.lower,
                                   off.upper, lam, beta)
    assert abs(_offer_value_expectation(off, lam, beta) - exact) <= 1e-12


@given(st.floats(0.0, 3.0), st.floats(0.1, 3.0), st.floats(-2.0, 2.0), lams,
       betas)
def test_offer_value_expectation_generic_matches_quadrature(low, width, rate,
                                                            lam, beta):
    # truncated exponential density exp(-rate x) on [low, low + width]
    high = low + width
    mass = math.exp(-rate * low) * width * special.exprel(-rate * width)
    pdf = lambda x: math.exp(-rate * x) / mass
    off = ContinuousOffers(pdf=pdf, support=(low, high))
    exact = quad_value_expectation(pdf, low, high, lam, beta)
    assert abs(_offer_value_expectation(off, lam, beta) - exact) <= 1e-12


# --- lifetimes ---------------------------------------------------------------

def test_exponential_failure_rate_constant():
    life = exponential_lifetime(0.7)
    ts = np.array([0.0, 1.0, 5.0])
    np.testing.assert_allclose(life.failure_rate(ts), 0.7, rtol=1e-9)
    # memorylessness
    assert life.survival(5.0) / life.survival(3.0) == pytest.approx(
        math.exp(-1.4), rel=1e-12)


def test_erlang_failure_rate_increases():
    life = erlang_lifetime(3, 1.0)
    rates = [float(life.failure_rate(np.asarray(t)))
             for t in np.linspace(0.1, 10.0, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def _exact_erlang(shape, x):
    """The last Poisson term x^(k-1)/(k-1)! and the partial sum S, exactly."""
    term = total = Fraction(1)
    for j in range(1, shape):
        term = term * Fraction(x) / j
        total += term
    return term, total


@pytest.mark.parametrize("shape, rate, t", [(200, 1e3, 5.0), (800, 1.0, 750.0)])
def test_erlang_with_a_large_shape_matches_exact_sums(shape, rate, t):
    """S past the float range: the terms are summed on a power-of-two scale,
    so the failure rate and the survival are finite and exact to rounding."""
    life = erlang_lifetime(shape, rate)
    last, total = _exact_erlang(shape, rate * t)
    assert float(life.failure_rate(t)) == pytest.approx(
        float(Fraction(rate) * last / total), rel=1e-13, abs=0)
    with localcontext() as ctx:
        ctx.prec = 40
        survival = float(Decimal(total.numerator) / Decimal(total.denominator)
                         * Decimal(-rate * t).exp())
    assert float(life.survival(t)) == pytest.approx(survival, rel=1e-12,
                                                    abs=1e-300)
    assert np.asarray(life.failure_rate(np.array([0.0, t]))).tolist()[1] \
        == float(life.failure_rate(t))


def scipy_erlang(shape, rate):
    return (stats.expon(scale=1.0 / rate) if shape == 1
            else stats.erlang(shape, scale=1.0 / rate))


@given(st.integers(1, 7), st.floats(-3.0, 3.0),
       st.lists(st.floats(0.0, 600.0), min_size=1, max_size=8))
def test_closed_form_lifetime_matches_scipy(shape, log_rate, xs):
    rate = 10.0 ** log_rate
    t = np.array(xs) / rate
    life, dist = erlang_lifetime(shape, rate), scipy_erlang(shape, rate)
    sf = dist.sf(t)
    np.testing.assert_allclose(life.survival(t), sf, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(life.failure_rate(t), dist.pdf(t) / sf,
                               rtol=1e-12, atol=0.0)
    assert life.survival(t[0]) == pytest.approx(sf[0], rel=1e-12, abs=0.0)


@given(st.integers(1, 7), st.floats(-3.0, 3.0), st.integers(0, 2**64 - 1),
       st.integers(0, 50))
def test_closed_form_sampling_draws_what_scipy_draws(shape, log_rate, seed, n):
    rate = 10.0 ** log_rate
    rng = lambda: np.random.Generator(np.random.Philox(seed))
    expected = scipy_erlang(shape, rate).rvs(size=n, random_state=rng())
    np.testing.assert_array_equal(erlang_lifetime(shape, rate).sample(rng(), n),
                                  expected)
    if shape == 1:
        np.testing.assert_array_equal(
            exponential_interarrival(rate).sample(rng(), n), expected)
        s = np.array([0.0, 1e-9, 0.5, 3.0, 40.0]) / rate
        np.testing.assert_allclose(exponential_interarrival(rate).cdf(s),
                                   stats.expon(scale=1.0 / rate).cdf(s),
                                   rtol=1e-12, atol=0.0)


# --- fixed arrival instants --------------------------------------------------

def uniform_fixed_spec(n, alpha=1.0):
    return ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=FixedInstants(np.arange(1.0, n + 1.0)),
        survival_alphas=np.full(n, alpha),
    )


def test_backward_recursion_hand_values():
    lam = finite_horizon_thresholds(uniform_fixed_spec(5))
    # last offer always accepted; one before worth E[X] = 1/2;
    # one before that E[max(X, 1/2)] = 5/8
    assert lam[4] == 0.0
    assert lam[3] == pytest.approx(0.5, abs=1e-12)
    assert lam[2] == pytest.approx(0.625, abs=1e-12)
    # thresholds grow as more offers remain
    assert np.all(np.diff(lam) <= 0)


def test_recursion_with_survival_probability():
    lam = finite_horizon_thresholds(uniform_fixed_spec(3, alpha=0.8))
    assert lam[1] == pytest.approx(0.8 * 0.5, abs=1e-12)


def test_stationary_limit_degenerate_is_max_offer():
    assert infinite_horizon_limit(UniformOffers(0.0, 1.0), 1.0) \
        == pytest.approx(1.0)


def test_stationary_limit_quadratic_root():
    # gamma = a (1 + gamma^2) / 2 with a = 1/2 gives gamma = 2 - sqrt(3)
    gamma = infinite_horizon_limit(UniformOffers(0.0, 1.0), 0.5)
    assert gamma == pytest.approx(2 - math.sqrt(3), abs=1e-9)


def test_finite_recursion_converges_to_stationary_limit():
    lam = finite_horizon_thresholds(uniform_fixed_spec(200, alpha=0.7))
    gamma = infinite_horizon_limit(UniformOffers(0.0, 1.0), 0.7)
    assert lam[0] == pytest.approx(gamma, abs=1e-9)


def test_nonstationary_limit_sequence():
    offers = UniformOffers(0.0, 1.0)
    alphas = np.array([0.9, 0.8, 0.7, 0.7, 0.7])
    gammas = infinite_horizon_limit(offers, alphas)
    assert gammas.shape == (5,)
    # each entry is the one-step backup of its successor
    for j in range(3):
        expected = alphas[j + 1] * (gammas[j + 1] * gammas[j + 1]
                                    + (1 - gammas[j + 1] ** 2) / 2)
        assert gammas[j] == pytest.approx(expected, abs=1e-9)


def test_underflowing_discount_keeps_thresholds_finite():
    # exp(-t) is exactly 0 from t = 746 on: an offer there is worth nothing,
    # so E[max(beta X, lam)] is lam, not 0/0
    offers = FiniteOffers(np.array([1.0, 0.5]), np.array([0.5, 0.5]))

    def spec(n):
        return ContinuousModelSpec(
            offers=offers, arrivals=FixedInstants(np.arange(1.0, n + 1.0)),
            survival_alphas=np.full(n, 0.999), discount_fn=lambda t: math.exp(-t))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lam = finite_horizon_thresholds(spec(800))
    assert np.isfinite(lam).all()
    assert lam[0] > 0 and (lam[744:] == 0.0).all()
    # instants past 700 add less than exp(-700) to the early thresholds
    np.testing.assert_allclose(lam[:600], finite_horizon_thresholds(spec(700))[:600],
                               rtol=1e-12, atol=0.0)
    assert np.array_equal(
        _offer_value_expectation(offers, np.array([0.3, 0.0]), np.zeros(2)),
        [0.3, 0.0])


def test_ode_with_underflowing_discount_stays_finite():
    # exp(-7t) is exactly 0 past t = 106: the ODE must not divide by it
    spec = ContinuousModelSpec(offers=UniformOffers(0.0, 1.0),
                               arrivals=PoissonArrivals(1.0),
                               lifetime=exponential_lifetime(0.5),
                               discount_fn=lambda t: math.exp(-7.0 * t))
    curve = poisson_lambda_ode(spec, 110.0, 1.0)
    assert np.isfinite(curve.values).all() and curve.values[-1] == 0.0
    shorter = poisson_lambda_ode(spec, 100.0, 1.0)
    np.testing.assert_allclose(curve.values[:50], shorter.values[:50],
                               rtol=1e-12, atol=0.0)


# --- renewal and ODE curves --------------------------------------------------

def test_renewal_deterministic_gap_memoryless_plateau():
    # exponential lifetime + fixed gap d: stationary lambda solves
    # lambda = a (1 + lambda^2) / 2 with a = exp(-r d)
    r, d = 0.4, 1.0
    a = math.exp(-r * d)
    expected = (1 - math.sqrt(1 - a * a)) / a
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=RenewalArrivals(DeterministicInterarrival(d)),
        lifetime=exponential_lifetime(r),
    )
    curve = renewal_lambda(spec, t_max=40.0, step=0.5)
    assert curve.is_nonincreasing()
    assert curve(1.0) == pytest.approx(expected, abs=1e-6)


def test_renewal_deterministic_gap_shorter_than_the_step():
    # the next offer lands between lambda(t) and lambda(t + step): the
    # equation's fixed point, not the interpolant through a stale 0
    d = 0.05
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=RenewalArrivals(DeterministicInterarrival(d)),
        lifetime=exponential_lifetime(0.5),
    )
    curve = renewal_lambda(spec, t_max=20.0, step=0.1)
    limit = infinite_horizon_limit(UniformOffers(0.0, 1.0), math.exp(-0.5 * d))
    assert curve.values[0] == pytest.approx(limit, abs=1e-3)


def test_renewal_fixed_point_that_does_not_settle_raises():
    # a gap of 1e-4 in a step of 0.1 leaves the fixed point a contraction
    # too weak to settle in 100 iterations: raise, naming the grid time
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=RenewalArrivals(DeterministicInterarrival(1e-4)),
        lifetime=exponential_lifetime(0.5),
    )
    with pytest.raises(StiffnessError, match=r"at t = 0\.9 "):
        renewal_lambda(spec, t_max=1.0, step=0.1)


def test_renewal_curve_scales_with_the_offers():
    # the fixed point settles in the offers' unit: one ulp of a lambda near
    # 1e10 is about 2e-6, far above an absolute 1e-13
    def curve(high):
        return renewal_lambda(ContinuousModelSpec(
            offers=UniformOffers(0.0, high),
            arrivals=RenewalArrivals(exponential_interarrival(1.0)),
            lifetime=exponential_lifetime(0.5)), t_max=5.0, step=0.1)
    unit, scaled = curve(1.0), curve(1e10)
    assert np.allclose(scaled.values, 1e10 * unit.values, rtol=1e-14, atol=0)


def test_renewal_refuses_unbounded_offers():
    spec = ContinuousModelSpec(
        offers=ContinuousOffers(pdf=lambda x: math.exp(-x),
                                support=(0.0, math.inf)),
        arrivals=RenewalArrivals(exponential_interarrival(1.0)),
        lifetime=exponential_lifetime(0.5))
    with pytest.raises(ValueError, match="offer support must be bounded"):
        renewal_lambda(spec, t_max=1.0, step=0.1)


def test_ode_plateau_at_quadratic_root():
    # failure rate r = mu/2 balances at lambda^2 - 3 lambda + 1 = 0
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=PoissonArrivals(rate=1.0),
        lifetime=exponential_lifetime(0.5),
    )
    curve = poisson_lambda_ode(spec, t_max=40.0, step=0.1)
    assert curve.is_nonincreasing()
    assert curve(1.0) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-6)


def test_ode_curve_scales_with_the_offers():
    def curve(high):
        return poisson_lambda_ode(ContinuousModelSpec(
            offers=UniformOffers(0.0, high), arrivals=PoissonArrivals(1.0),
            lifetime=exponential_lifetime(0.5)), t_max=5.0, step=0.1)
    unit, scaled = curve(1.0), curve(1e10)
    assert np.allclose(scaled.values, 1e10 * unit.values, rtol=1e-14, atol=0)


def test_ode_refuses_unbounded_offers():
    spec = ContinuousModelSpec(
        offers=ContinuousOffers(pdf=lambda x: math.exp(-x),
                                support=(0.0, math.inf)),
        arrivals=PoissonArrivals(1.0), lifetime=exponential_lifetime(0.5))
    with pytest.raises(ValueError, match="offer support must be bounded"):
        poisson_lambda_ode(spec, t_max=1.0, step=0.1)


def test_ode_and_renewal_agree_for_poisson_arrivals():
    offers = UniformOffers(0.0, 1.0)
    life = exponential_lifetime(0.5)
    ode = poisson_lambda_ode(
        ContinuousModelSpec(offers=offers, arrivals=PoissonArrivals(1.0),
                            lifetime=life),
        t_max=12.0, step=0.05)
    ren = renewal_lambda(
        ContinuousModelSpec(offers=offers,
                            arrivals=RenewalArrivals(exponential_interarrival(1.0)),
                            lifetime=life),
        t_max=12.0, step=0.05)
    early = ode.times <= 6.0
    assert np.max(np.abs(ode.values[early] - ren.values[early])) < 2e-3


@pytest.mark.parametrize("life", [exponential_lifetime(0.5),
                                  erlang_lifetime(3, 1.0)],
                         ids=["exponential", "erlang"])
def test_ode_and_renewal_agree_up_to_t_max(life):
    # both count an offer after the last grid time as worth nothing
    offers = UniformOffers(0.0, 1.0)
    ode = poisson_lambda_ode(
        ContinuousModelSpec(offers=offers, arrivals=PoissonArrivals(1.0),
                            lifetime=life),
        t_max=12.0, step=0.05)
    ren = renewal_lambda(
        ContinuousModelSpec(offers=offers,
                            arrivals=RenewalArrivals(exponential_interarrival(1.0)),
                            lifetime=life),
        t_max=12.0, step=0.05)
    assert ren.values[-1] == 0.0
    assert np.max(np.abs(ode.values - ren.values)) < 2e-4


def test_truncation_flag():
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=PoissonArrivals(1.0),
        lifetime=exponential_lifetime(0.5),
    )
    assert poisson_lambda_ode(spec, t_max=5.0, step=0.1).truncated
    assert not poisson_lambda_ode(spec, t_max=40.0, step=0.5).truncated


def test_ode_evaluates_each_node_once():
    calls = []

    def rate(t):
        calls.append(t)
        return 1.0

    offers, life = UniformOffers(0.0, 1.0), erlang_lifetime(3, 1.0)
    curve = poisson_lambda_ode(
        ContinuousModelSpec(offers=offers, lifetime=life,
                            arrivals=NonhomogeneousPoissonArrivals(rate)),
        t_max=1.0, step=0.1)
    # one step-doubling pass per interval: 5 distinct nodes, not 12 calls
    assert len(calls) == 5 * 10
    same = poisson_lambda_ode(
        ContinuousModelSpec(offers=offers, lifetime=life,
                            arrivals=PoissonArrivals(1.0)),
        t_max=1.0, step=0.1)
    assert np.array_equal(curve.values, same.values)


def test_nan_rate_raises_instead_of_hanging():
    # a NaN step error compares false with the tolerance: only an explicit
    # check keeps the ODE from refining every interval to 1024 substeps
    code = textwrap.dedent("""\
        import math
        from organstop import ctime
        spec = ctime.ContinuousModelSpec(
            offers=ctime.UniformOffers(0.0, 1.0),
            arrivals=ctime.NonhomogeneousPoissonArrivals(lambda t: math.nan),
            lifetime=ctime.exponential_lifetime(0.5))
        try:
            ctime.poisson_lambda_ode(spec, 40.0, 0.1)
        except ctime.StiffnessError as exc:
            print("StiffnessError:", exc)
        try:
            ctime.PoissonArrivals(math.nan)
        except ValueError as exc:
            print("ValueError:", exc)
        """)
    src = os.path.dirname(os.path.dirname(organstop.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    lines = run.stdout.splitlines()
    assert lines[0].startswith("StiffnessError: non-finite step error")
    assert lines[1].startswith("ValueError: Poisson arrival rate")


def test_stiffness_guard_trips():
    # uniform lifetime: failure rate explodes approaching the endpoint
    spec = ContinuousModelSpec(
        offers=UniformOffers(0.0, 1.0),
        arrivals=PoissonArrivals(1.0),
        lifetime=Lifetime(stats.uniform(0, 1.0)),
    )
    with pytest.raises(StiffnessError):
        poisson_lambda_ode(spec, t_max=1.0 - 1e-9, step=0.01)


# --- critical times -----------------------------------------------------------

def linear_curve():
    t = np.linspace(0.0, 1.0, 101)
    return ThresholdCurve(t, 1.0 - t)


def test_critical_times_linear_hand_case():
    out = critical_times(linear_curve(), [0.75, 0.25])
    assert out[0] == pytest.approx(0.25, abs=1e-8)
    assert out[1] == pytest.approx(0.75, abs=1e-8)
    assert np.all(np.diff(out) >= 0)


def test_critical_times_zero_and_infinity():
    out = critical_times(linear_curve(), [2.0, -0.5])
    assert out[0] == 0.0          # starts below the best offer
    assert out[1] == math.inf     # never drops below a negative value


def segment_crossing(t, lam, x):
    """Where the linear interpolant reaches x on the segment ending at the
    first grid time below x."""
    k = next(k for k, v in enumerate(lam) if v < x)
    return t[k - 1] + (t[k] - t[k - 1]) * (lam[k - 1] - x) / (lam[k - 1] - lam[k])


def test_critical_times_are_the_exact_segment_crossings():
    t = np.array([0.0, 0.3, 1.1, 1.7, 2.9, 4.0, 5.3])
    lam = np.array([3.7, 3.1, 2.2, 2.2, 1.3, 0.45, 0.0])
    xs = [3.5, 2.9, 2.3, 1.9, 1.0, 0.3, 0.01]
    out = critical_times(ThresholdCurve(t, lam), xs)
    for got, x in zip(out, xs):
        want = segment_crossing(t, lam, x)
        assert abs(got - want) <= np.spacing(want), (x, got, want)


def test_critical_time_of_a_plateau_at_the_value_is_its_last_grid_time():
    t = np.arange(6.0)
    out = critical_times(ThresholdCurve(t, np.array([3.0, 2.0, 2.0, 2.0, 1.0, 0.0])),
                         [2.0])
    assert out[0] == 3.0


def test_critical_times_take_the_first_segment_below_past_a_tiny_bump():
    # the curve rises by 5e-10, which is_nonincreasing allows, back above x
    t = np.arange(5.0)
    lam = np.array([2.0, 1.0 - 2.5e-10, 1.0 + 2.5e-10, 0.5, 0.0])
    curve = ThresholdCurve(t, lam)
    assert curve.is_nonincreasing()
    out = critical_times(curve, [1.0])
    assert 0.0 < out[0] < 1.0
    assert abs(out[0] - segment_crossing(t, lam, 1.0)) <= np.spacing(out[0])


def test_critical_times_requires_monotone_curve():
    t = np.linspace(0, 1, 11)
    bumpy = ThresholdCurve(t, np.abs(np.sin(8 * t)))
    with pytest.raises(ValueError):
        critical_times(bumpy, [0.5])


def test_threshold_curve_interpolation():
    curve = linear_curve()
    assert curve(0.5) == pytest.approx(0.5)
    assert curve(-1.0) == pytest.approx(1.0)   # clamped left
    assert curve(5.0) == 0.0                   # zero beyond the grid
