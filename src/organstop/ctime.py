"""Threshold computations for the continuous-time offer-arrival model.

The patient has a random remaining lifetime; offers arrive at random times
carrying i.i.d. positive bounded values; accepting the offer at time t with
value k yields reward beta(t) * k.  The acceptance threshold is
lambda(t) / beta(t), where lambda is the continuation value of rejecting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

QUAD_TOL = 1e-10
TRUNCATION_SURVIVAL = 1e-6


# ---------------------------------------------------------------------------
# offer-value distributions

class OfferDistribution:
    """Distribution of offer values on a bounded positive support.

    The threshold recursions read the distribution only through
    ``excess_integral``; simulation reads ``sample``.
    """

    lower: float
    upper: float

    def excess_integral(self, c) -> float:
        """E[(X - c)+] = integral of (1 - F(x)) dx over (c, infinity)."""
        raise NotImplementedError

    def sample(self, rng, n):
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteOffers(OfferDistribution):
    """Finitely many values x_1 > ... > x_m > 0 with probabilities p_i."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.ndim != 1 or v.size == 0 or p.shape != v.shape:
            raise ValueError("offer values and probs must be non-empty "
                             "vectors of equal length")
        if not np.isfinite(v).all():
            raise ValueError("offer values must be finite")
        if not np.isfinite(p).all():
            raise ValueError("offer probabilities must be finite")
        if (np.diff(v) >= 0).any():
            raise ValueError("offer values must be strictly decreasing")
        if v[-1] <= 0:
            raise ValueError("offer values must be positive")
        if abs(p.sum() - 1.0) > 1e-9 or (p < 0).any():
            raise ValueError("offer probabilities must form a distribution")
        for name, arr in (("values", v), ("probs", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def lower(self):
        return float(self.values[-1])

    @property
    def upper(self):
        return float(self.values[0])

    def excess_integral(self, c):
        c = np.asarray(c, dtype=float)
        gaps = np.clip(self.values - c[..., None], 0.0, None)
        return (gaps * self.probs).sum(axis=-1)

    def sample(self, rng, n):
        return rng.choice(self.values, size=n, p=self.probs)


@dataclass(frozen=True)
class UniformOffers(OfferDistribution):
    low: float
    high: float

    def __post_init__(self):
        if not (0 <= self.low < self.high < math.inf):
            raise ValueError("uniform offers need 0 <= low < high < inf")

    @property
    def lower(self):
        return self.low

    @property
    def upper(self):
        return self.high

    def excess_integral(self, c):
        c = np.asarray(c, dtype=float)
        c_in = np.clip(c, self.low, self.high)
        inside = (self.high - c_in) ** 2 / (2.0 * (self.high - self.low))
        return inside + np.clip(self.low - c, 0.0, None)

    def sample(self, rng, n):
        return rng.uniform(self.low, self.high, size=n)


@dataclass(frozen=True)
class ContinuousOffers(OfferDistribution):
    """Generic continuous offers backed by a density on bounded support."""

    pdf: Callable[[float], float]
    support: tuple[float, float]

    @property
    def lower(self):
        return self.support[0]

    @property
    def upper(self):
        return self.support[1]

    def excess_integral(self, c):
        from scipy.integrate import quad

        def one(c0):
            lo = max(c0, self.lower)
            if lo >= self.upper:
                return 0.0
            val, _ = quad(lambda x: (x - c0) * self.pdf(x), lo, self.upper,
                          epsabs=QUAD_TOL)
            return val
        return np.vectorize(one)(c)[()]

    def sample(self, rng, n):
        # inverse transform through a dense CDF table
        xs = np.linspace(self.lower, self.upper, 4097)
        dens = np.array([self.pdf(x) for x in xs])
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5
                                               * np.diff(xs))])
        cdf /= cdf[-1]
        return np.interp(rng.random(n), cdf, xs)


# ---------------------------------------------------------------------------
# lifetimes and arrivals

def _positive_rate(rate: float, what: str) -> None:
    if not (0 < rate < math.inf):
        raise ValueError(f"{what} rate must be finite and > 0, got {rate!r}")


class LifetimeDistribution:
    """Remaining-lifetime distribution.

    The threshold recursions read ``survival`` and ``failure_rate`` (both
    taking a time or an array of times); simulation reads ``sample``.
    """

    def survival(self, t):
        raise NotImplementedError

    def failure_rate(self, t):
        raise NotImplementedError

    def sample(self, rng, n):
        raise NotImplementedError

    def conditional_survival(self, s, t):
        """P(tau > t + s | tau > t); 0 once survival past t is negligible."""
        sf_t = self.survival(t)
        if sf_t < 1e-12:
            return 0.0
        return float(self.survival(t + s) / sf_t)


@dataclass(frozen=True)
class Lifetime(LifetimeDistribution):
    """Remaining lifetime given by any frozen scipy distribution.

    Every call goes to scipy, point by point; the exponential and Erlang
    families have the closed form :class:`ErlangLifetime` instead, which
    needs no scipy.
    """

    dist: object

    def survival(self, t):
        return self.dist.sf(t)

    def failure_rate(self, t):
        sf = self.dist.sf(t)
        return np.where(sf > 1e-300, self.dist.pdf(t) / np.maximum(sf, 1e-300),
                        np.inf)[()]

    def sample(self, rng, n):
        return self.dist.rvs(size=n, random_state=rng)


@dataclass(frozen=True)
class ErlangLifetime(LifetimeDistribution):
    """Erlang(shape k, rate) lifetime in closed form; k = 1 is exponential.

    With x = rate * t (t >= 0) and the Poisson partial sum
    S = sum_{j<k} x^j / j!, survival is e^(-x) * S and the failure rate is
    rate * (x^(k-1) / (k-1)!) / S, a ratio that never underflows.
    """

    shape: int
    rate: float

    def __post_init__(self):
        if not float(self.shape).is_integer() or self.shape < 1:
            raise ValueError(f"erlang shape must be an integer >= 1, "
                             f"got {self.shape!r}")
        object.__setattr__(self, "shape", int(self.shape))
        _positive_rate(self.rate, "lifetime")

    def _poisson_terms(self, t):
        """x, the last term x^(k-1)/(k-1)! and the partial sum S at t."""
        x = self.rate * np.asarray(t, dtype=float)
        term = total = np.ones_like(x)
        for j in range(1, self.shape):
            term = term * x / j
            total = total + term
        return x, term, total

    def survival(self, t):
        x, _, total = self._poisson_terms(t)
        return (np.exp(-x) * total)[()]

    def failure_rate(self, t):
        _, last, total = self._poisson_terms(t)
        return (self.rate * last / total)[()]

    def sample(self, rng, n):
        # the draws of scipy's erlang ``rvs`` on the same generator, and of
        # expon's for shape 1: numpy's standard_gamma(1) is its
        # standard_exponential
        return rng.standard_gamma(self.shape, n) * (1.0 / self.rate)


def exponential_lifetime(rate: float) -> ErlangLifetime:
    return ErlangLifetime(1, rate)


def erlang_lifetime(shape: int, rate: float) -> ErlangLifetime:
    return ErlangLifetime(shape, rate)


@dataclass(frozen=True)
class DeterministicInterarrival:
    gap: float

    def __post_init__(self):
        if not (0 < self.gap < math.inf):
            raise ValueError(f"interarrival gap must be finite and > 0, "
                             f"got {self.gap!r}")

    def cdf(self, s):
        return (np.asarray(s, dtype=float) >= self.gap).astype(float)

    def sample(self, rng, n):
        return np.full(n, self.gap)


@dataclass(frozen=True)
class ExponentialInterarrival:
    rate: float

    def __post_init__(self):
        _positive_rate(self.rate, "interarrival")

    def cdf(self, s):
        return -np.expm1(-self.rate * np.asarray(s, dtype=float))

    def sample(self, rng, n):
        return rng.standard_exponential(n) * (1.0 / self.rate)


def exponential_interarrival(rate: float) -> ExponentialInterarrival:
    return ExponentialInterarrival(rate)


@dataclass(frozen=True)
class FixedInstants:
    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if not np.isfinite(t).all():
            raise ValueError("arrival instants must be finite")
        if (np.diff(t) <= 0).any():
            raise ValueError("arrival instants must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)


@dataclass(frozen=True)
class RenewalArrivals:
    interarrival: object


@dataclass(frozen=True)
class PoissonArrivals:
    rate: float

    def __post_init__(self):
        # rate 0 is allowed: no offer ever arrives
        if not (0 <= self.rate < math.inf):
            raise ValueError(f"Poisson arrival rate must be finite and >= 0, "
                             f"got {self.rate!r}")


@dataclass(frozen=True)
class NonhomogeneousPoissonArrivals:
    rate_fn: Callable[[float], float]
    rate_bound: float | None = None  # required for simulation by thinning


@dataclass(frozen=True)
class ContinuousModelSpec:
    """Continuous-time model data.

    ``survival_alphas`` applies to fixed instants: alphas[j] is the
    probability of surviving to instant j given survival to instant j - 1
    (alphas[0] = survival to the first instant).  The other arrival patterns
    carry an explicit ``lifetime`` distribution instead.
    """

    offers: OfferDistribution
    arrivals: object
    lifetime: LifetimeDistribution | None = None
    discount_fn: Callable[[float], float] = field(default=lambda t: 1.0)
    survival_alphas: np.ndarray | None = None

    def __post_init__(self):
        if self.survival_alphas is not None:
            a = np.asarray(self.survival_alphas, dtype=float)
            if not ((a >= 0) & (a <= 1)).all():
                raise ValueError("survival probabilities must lie in [0, 1]")
            a.setflags(write=False)
            object.__setattr__(self, "survival_alphas", a)
        if isinstance(self.arrivals, FixedInstants):
            if self.survival_alphas is None:
                raise ValueError("fixed instants require survival_alphas")
            if len(self.survival_alphas) != len(self.arrivals.times):
                raise ValueError("need one survival probability per instant")
        elif self.lifetime is None:
            raise ValueError("this arrival pattern requires a lifetime "
                             "distribution")
        # light monotonicity check of the discount function
        grid = np.linspace(0.0, 100.0, 41)
        vals = np.array([self.discount_fn(t) for t in grid])
        if (np.diff(vals) > 1e-12).any() or not ((vals > 0) & (vals <= 1)).all():
            raise ValueError("discount function must be nonincreasing with "
                             "values in (0, 1]")


@dataclass
class ThresholdCurve:
    """Continuation value lambda(t) on a time grid, linearly interpolated.

    The horizon ends at the last grid time: beyond it the curve is 0, and
    the recursions count an offer arriving after it as worth nothing (the
    backward boundary of both the ODE and the renewal equation).  Before
    the first grid time the curve is clamped at lambda(times[0]).
    """

    times: np.ndarray
    values: np.ndarray
    truncated: bool = False

    def __call__(self, t):
        return np.interp(t, self.times, self.values,
                         left=self.values[0], right=0.0)

    def is_nonincreasing(self, slack: float = 1e-9) -> bool:
        return bool((np.diff(self.values) <= slack).all())


# ---------------------------------------------------------------------------
# fixed arrival instants

def _offer_value_expectation(offers, lam, beta):
    """E[max(beta * X, lam)] = lam + beta * E[(X - lam/beta)+].

    Where the discount beta is 0 this is lam, the exact limit, since offer
    support is bounded (an underflowing exponential discount gets there).
    """
    beta = np.asarray(beta, dtype=float)
    live = beta > 0
    # a subnormal beta overflows lam / beta to inf, where psi(inf) = 0 is exact
    with np.errstate(over="ignore"):
        c = np.where(live, np.asarray(lam, dtype=float) / np.where(live, beta, 1.0),
                     offers.upper)
    return lam + beta * offers.excess_integral(c)


def finite_horizon_thresholds(spec: ContinuousModelSpec,
                              n_instants: int | None = None) -> np.ndarray:
    """Backward recursion for the fixed-instants rejection values.

    Returns lambda[j] for j = 0..N, where the j-th offer should be accepted
    iff its value exceeds lambda[j] / beta(U_j); the process terminates by
    itself at the final instant, so lambda[N] = 0.
    """
    if not isinstance(spec.arrivals, FixedInstants):
        raise ValueError("finite_horizon_thresholds requires fixed instants")
    if spec.offers.upper == math.inf:
        raise ValueError("offer support must be bounded")
    times = spec.arrivals.times
    n = len(times) if n_instants is None else n_instants
    alphas = spec.survival_alphas
    betas = np.array([spec.discount_fn(t) for t in times[:n]])
    lam = np.zeros(n)
    for j in range(n - 2, -1, -1):
        lam[j] = alphas[j + 1] * _offer_value_expectation(
            spec.offers, lam[j + 1], betas[j + 1])
    return lam


def infinite_horizon_limit(offers: OfferDistribution,
                           alpha,
                           step_discount=1.0,
                           tol: float = 1e-9):
    """Stationary limit of the fixed-instants thresholds as the horizon grows.

    ``step_discount`` is the per-arrival discount ratio beta(U_{j+1}) /
    beta(U_j); with stationary data (scalar alpha and ratio) the limit
    gamma solves gamma = alpha * delta * (gamma + E[(X - gamma)+])
    and the optimal rule accepts iff the offer exceeds gamma.  Sequence
    inputs take the flagged slower path: the tail (last values, repeated) is
    solved as a fixed point and the finite prefix recursed backward from it,
    returning the whole gamma_j sequence.
    """
    alpha_arr = np.atleast_1d(np.asarray(alpha, dtype=float))
    delta_arr = np.atleast_1d(np.asarray(step_discount, dtype=float))
    stationary = alpha_arr.size == 1 and delta_arr.size == 1

    def phi(gamma, a, d):
        return a * d * (gamma + offers.excess_integral(gamma))

    def stationary_root(a, d):
        if a * d == 0.0:
            return 0.0
        hi = offers.upper
        g = lambda x: x - phi(x, a, d)
        if g(hi) <= 0:
            return hi
        from scipy.optimize import brentq
        return float(brentq(g, 0.0, hi, xtol=tol))

    if stationary:
        return stationary_root(float(alpha_arr[0]), float(delta_arr[0]))

    n = max(alpha_arr.size, delta_arr.size)
    alphas = np.resize(alpha_arr, n)
    deltas = np.resize(delta_arr, n)
    gammas = np.empty(n)
    tail = stationary_root(float(alphas[-1]), float(deltas[-1]))
    gammas[-1] = phi(tail, alphas[-1], deltas[-1])
    for j in range(n - 2, -1, -1):
        gammas[j] = phi(gammas[j + 1], alphas[j + 1], deltas[j + 1])
    return gammas


# ---------------------------------------------------------------------------
# renewal arrivals

def renewal_lambda(spec: ContinuousModelSpec, t_max: float,
                   step: float) -> ThresholdCurve:
    """Solve the renewal-arrival integral equation backward on a grid.

    lambda(t) = integral over interarrival s of
    Gbar(s | t) * E[max(beta(t+s) X, lambda(t+s))] dH(s), where an arrival
    after the last grid time contributes 0 (see :class:`ThresholdCurve`), so
    lambda is 0 at t_max.  Under an IFR lifetime the returned curve is
    nonincreasing.
    """
    if not isinstance(spec.arrivals, RenewalArrivals):
        raise ValueError("renewal_lambda requires renewal arrivals")
    lifetime = spec.lifetime
    truncated = lifetime.survival(t_max) > TRUNCATION_SURVIVAL

    times = np.arange(0.0, t_max + 0.5 * step, step)
    n = len(times)
    lam = np.zeros(n)
    inter = spec.arrivals.interarrival

    def w_at(u_times, lam_interp, beta_u):
        """offer expectation at times u, discounted by beta_u there."""
        lam_u = np.interp(u_times, times, lam_interp)
        return np.where(u_times <= times[-1],
                        _offer_value_expectation(spec.offers, lam_u, beta_u),
                        0.0)

    if isinstance(inter, DeterministicInterarrival):
        d = inter.gap
        for i in range(n - 1, -1, -1):
            t = times[i]
            gbar = lifetime.conditional_survival(d, t)
            lam[i] = gbar * w_at(np.array([t + d]), lam,
                                 np.array([spec.discount_fn(t + d)]))[0]
        return ThresholdCurve(times, lam, truncated=truncated)

    # continuous interarrivals: trapezoid over the s-grid, midpoint masses
    s_edges = np.arange(0.0, _interarrival_horizon(inter) + step, step)
    s_mids = 0.5 * (s_edges[1:] + s_edges[:-1])
    masses = np.diff(np.asarray(inter.cdf(s_edges), dtype=float))
    keep = masses > 0
    s_mids, masses = s_mids[keep], masses[keep]

    for i in range(n - 1, -1, -1):
        t = times[i]
        sf_t = lifetime.survival(t)
        if sf_t < 1e-12:
            lam[i] = 0.0
            continue
        u = t + s_mids
        weights = np.asarray(lifetime.survival(u), dtype=float) / sf_t * masses
        beta_u = np.array([spec.discount_fn(x) for x in u])  # once per t
        # the first midpoint may interpolate lambda(t) itself: fixed point
        guess = lam[i + 1] if i + 1 < n else 0.0
        for _ in range(100):
            lam[i] = guess
            new = float(np.sum(weights * w_at(u, lam, beta_u)))
            if abs(new - guess) <= 1e-13:
                guess = new
                break
            guess = new
        lam[i] = guess
    return ThresholdCurve(times, lam, truncated=truncated)


def _interarrival_horizon(inter, tiny=1e-9):
    hi = 1.0
    for _ in range(80):
        if 1.0 - float(inter.cdf(hi)) <= tiny:
            return hi
        hi *= 2.0
    raise ValueError("interarrival distribution tail does not decay")


# ---------------------------------------------------------------------------
# nonhomogeneous Poisson arrivals

class StiffnessError(RuntimeError):
    """Failure rate too large for the step integrator."""


def poisson_lambda_ode(spec: ContinuousModelSpec, t_max: float,
                       step: float) -> ThresholdCurve:
    """Integrate the threshold ODE backward from lambda(t_max) = 0.

    lambda'(t) = r(t) lambda(t) - beta(t) mu(t) E[(X - lambda(t)/beta(t))+],
    solved with classical fourth-order steps; each grid interval is
    subdivided until the step-doubling error estimate is below 1e-8.  A
    failure rate above 1e6, a non-finite error estimate or 1024 substeps
    raise :class:`StiffnessError`.
    """
    arrivals = spec.arrivals
    if isinstance(arrivals, PoissonArrivals):
        rate_fn = lambda t: arrivals.rate
    elif isinstance(arrivals, NonhomogeneousPoissonArrivals):
        rate_fn = arrivals.rate_fn
    else:
        raise ValueError("poisson_lambda_ode requires Poisson arrivals")
    lifetime = spec.lifetime
    truncated = lifetime.survival(t_max) > TRUNCATION_SURVIVAL

    def coefficients(nodes):
        """r, mu and beta at each node, once; the stiffness guard on r."""
        r = np.asarray(lifetime.failure_rate(nodes), dtype=float)
        bad = ~np.isfinite(r) | (r > 1e6)
        if bad.any():
            i = int(np.argmax(bad))
            raise StiffnessError(f"failure rate {r[i]:.3g} at t={nodes[i]:.6g} "
                                 "exceeds 1e6")
        ts = nodes.tolist()
        return (r.tolist(), [rate_fn(u) for u in ts],
                [spec.discount_fn(u) for u in ts])

    def rhs(i, lam):
        # beta * psi(lam / beta) = E[max(beta X, lam)] - lam
        gain = _offer_value_expectation(spec.offers, lam, beta[i]) - lam
        return r[i] * lam - mu[i] * float(gain)

    def rk4(m, d, lam, h):
        """Classical step of length h from node m, over node m + d (its
        midpoint) to node m + 2d."""
        k1 = rhs(m, lam)
        k2 = rhs(m + d, lam + 0.5 * h * k1)
        k3 = rhs(m + d, lam + 0.5 * h * k2)
        k4 = rhs(m + 2 * d, lam + h * k3)
        return lam + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    times = np.arange(0.0, t_max + 0.5 * step, step)
    lam = np.zeros(len(times))
    value = 0.0
    for i in range(len(times) - 1, 0, -1):
        t1, t0 = times[i], times[i - 1]
        n_sub = 1
        while True:
            h = (t0 - t1) / n_sub  # negative: integrating backward
            # node m sits at t1 + m h / 4: the full steps use every fourth
            # node and their midpoints, the half steps every second and theirs
            r, mu, beta = coefficients(t1 + (h / 4) * np.arange(4 * n_sub + 1))
            full = value
            for j in range(n_sub):
                full = rk4(4 * j, 2, full, h)
            half = value
            for j in range(2 * n_sub):
                half = rk4(2 * j, 1, half, h / 2)
            err = abs(half - full) / 15.0
            if not math.isfinite(err):
                raise StiffnessError(
                    f"non-finite step error between t={t0:.6g} and {t1:.6g}")
            if err <= 1e-8 or n_sub >= 1024:
                if err > 1e-8:
                    raise StiffnessError(
                        f"step-size underflow between t={t0:.6g} and {t1:.6g}")
                value = half
                break
            n_sub *= 2
        lam[i - 1] = value
    return ThresholdCurve(times, lam, truncated=truncated)


# ---------------------------------------------------------------------------
# critical times

def critical_times(curve: ThresholdCurve, values: Sequence[float],
                   time_tol: float = 1e-9) -> np.ndarray:
    """First times at which the curve drops below each offer value.

    ``values`` must be strictly decreasing (x_1 > ... > x_m).  Entry i is 0
    when the curve starts below x_i, infinity when it never reaches x_i,
    and otherwise the crossing time located by bisection on the linear
    interpolant.  The result is nondecreasing.
    """
    if not curve.is_nonincreasing():
        raise ValueError("critical times require a nonincreasing curve")
    xs = np.asarray(values, dtype=float)
    if (np.diff(xs) >= 0).any():
        raise ValueError("offer values must be strictly decreasing")
    out = np.empty(len(xs))
    t_lo, t_hi = float(curve.times[0]), float(curve.times[-1])
    inf_lambda = float(curve.values.min())
    for i, x in enumerate(xs):
        if inf_lambda >= x:
            out[i] = np.inf
        elif curve.values[0] < x:
            out[i] = 0.0
        else:
            lo, hi = t_lo, t_hi
            while hi - lo > time_tol:
                mid = 0.5 * (lo + hi)
                if curve(mid) < x:
                    hi = mid
                else:
                    lo = mid
            out[i] = hi
    return out
