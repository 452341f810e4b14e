"""Monte Carlo evaluation and exact small-model policy enumeration."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    ANALOG_ORGAN,
    Action,
    DiscreteModelSpec,
    Policy,
    VARIANT_RULES,
    validate_policy,
)

if TYPE_CHECKING:
    from .ctime import ContinuousModelSpec

MAX_EPOCHS = 1_000_000
MAX_BRUTE_FORCE_CELLS = 12
BRUTE_FORCE_CHUNK = 2048


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated history under a fixed policy."""

    reward: float
    epochs: int
    terminal: str  # "death", "transplant" or "truncated"


@dataclass(frozen=True)
class EvalEstimate:
    """Sample mean with its normal-approximation uncertainty."""

    mean: float
    std_error: float
    n: int
    truncated: int = 0

    @property
    def ci_low(self) -> float:
        return self.mean - 1.96 * self.std_error

    @property
    def ci_high(self) -> float:
        return self.mean + 1.96 * self.std_error


def _last_positive(prob):
    """Index of the last positive entry of each row of ``prob``."""
    return prob.shape[-1] - 1 - np.argmax(prob[..., ::-1] > 0, axis=-1)


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Stream of trajectory ``index``: ``Philox(key=seed)`` with ``index`` in
    word 1 of its counter.  Philox is counter-based (Salmon et al. 2011):
    any 128-bit key is valid and distinct keys give independent streams.
    Trajectory i reads the blocks at counters (1, i, 0, 0), (2, i, 0, 0),
    ..., so no two trajectories share a block in their first 2**64."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, index, 0, 0]))


class _Dynamics:
    """One epoch of a variant as arrays, read by the one discrete walker.

    A live patient h in regime g draws an offer column k (k = 0 without an
    organ axis) and takes a = actions[g, h, k], with actions reshaped to
    ``grid``.  A wait action leads to regime g' = wait_regime[a] and reads
    row block g' of :meth:`VariantRule.wait_arrays`: it earns
    wait_reward[g', h] and moves the patient by row g' * H + h of
    ``cum_trans``, the stacked transitions cumulated and laid out as rows.
    A terminal action has wait_regime -1 and
    earns terminal_reward[terminal_of[a], h, k].  The analog's transplant
    earns its epoch's w[h] there and then draws its success
    (``success_draw``), which pays beta * success_reward.
    """

    def __init__(self, spec: DiscreteModelSpec):
        rule = VARIANT_RULES[spec.variant]
        self.grid = rule.grid(spec)
        self.organ_axis = rule.organ_axis
        waits = {w.action: w.regime for regime in rule.regimes for w in regime}
        self.wait_regime = np.full(len(Action), -1)
        self.wait_regime[list(waits)] = list(waits.values())
        self.wait_reward, transitions = rule.wait_arrays(spec)
        self.cum_trans = np.cumsum(transitions, axis=2).reshape(
            -1, spec.n_patient)
        self.last_trans = _last_positive(transitions).ravel()
        terminals = rule.terminal_rewards(spec)
        self.success_draw = ANALOG_ORGAN in rule.terminals
        if self.success_draw:
            terminals[Action.TRANSPLANT] = spec.wait_reward[:, None]
        self.terminal_of = np.full(len(Action), -1)
        self.terminal_of[list(terminals)] = range(len(terminals))
        self.terminal_reward = np.stack([np.broadcast_to(r, self.grid[1:])
                                         for r in terminals.values()])
        self.cum_offer = np.cumsum(spec.offer_prob, axis=1)
        self.last_offer = _last_positive(spec.offer_prob)


def simulate_trajectory(spec: DiscreteModelSpec, policy: Policy,
                        rng: np.random.Generator,
                        max_epochs: int = MAX_EPOCHS) -> TrajectoryRecord:
    """Roll out one history and return its realized discounted reward: the
    batched rollout on one trajectory, which draws from ``rng``, of a policy
    checked legal as by :func:`estimate_policy_value`."""
    validate_policy(spec, policy)
    # the next len(rows) uniforms, whatever the draw; random(0) takes none
    draws = SimpleNamespace(random=lambda draw, rows: rng.random(len(rows)))
    rewards, truncated, stopped, epochs = _rollout(spec, policy, draws, 1,
                                                   max_epochs)
    terminal = ("truncated" if truncated else
                "transplant" if stopped else "death")
    return TrajectoryRecord(float(rewards[0]), epochs, terminal)


def estimate_policy_value(spec: DiscreteModelSpec, policy: Policy,
                          n_trajectories: int, seed: int,
                          max_epochs: int = MAX_EPOCHS) -> EvalEstimate:
    """Mean discounted reward from the initial state under the policy.

    Trajectory ``i`` draws from ``trajectory_rng(seed, i)``: Philox keyed
    by the seed, with ``i`` in word 1 of the counter.  Its reward is the one
    :func:`simulate_trajectory`, the same rollout, returns on that stream,
    and does not depend on ``n_trajectories``; trajectories are stepped
    together in blocks whose size changes no number.  ``seed`` is an integer
    in [0, 2**128) and ``2 <= n_trajectories < 2**32``.
    """
    validate_policy(spec, policy)
    _check_sample_size(n_trajectories)
    seed = _check_seed(seed)
    return _estimate(*_simulate_rewards(spec, policy, n_trajectories, seed,
                                        max_epochs))


# ---------------------------------------------------------------------------
# batched rollouts on the trajectories' Philox counters

_BLOCK = 16_384  # trajectories stepped together: bounds memory, not results

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _simulate_rewards(spec, policy, n, seed, max_epochs):
    """Reward of each trajectory ``0 .. n - 1`` and how many were cut."""
    rewards = np.empty(n)
    truncated = 0
    for first in range(0, n, _BLOCK):
        count = min(_BLOCK, n - first)
        rewards[first:first + count], cut, _, _ = _rollout(
            spec, policy, _PhiloxStreams(seed, first, count), count, max_epochs)
        truncated += cut
    return rewards, truncated


def _mulhilo(a, m):
    """High and low 64-bit words of the 128-bit products a * m."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = (a_lo * m_lo >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * m


def _philox4x64(counter: int, index: np.ndarray,
                key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counters (counter, index[j], 0, 0) under one
    two-word key: four 64-bit words per index, shape (4, n)."""
    c0 = np.full(len(index), np.uint64(counter))
    c1 = index
    c2, c3 = (np.zeros(len(index), dtype=np.uint64) for _ in range(2))
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + _PHILOX_W  # an array sum: wraps without a warning
        k0, k1 = key
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3])


class _PhiloxStreams:
    """The streams of trajectories ``first .. first + count - 1``.

    All streams share one key, the seed as two 64-bit words, low first;
    computing it needs no ``numpy.random``.  Draw d of trajectory i is word
    d % 4 of Philox4x64-10 at counter (d // 4 + 1, i, 0, 0), as 53-bit
    double: what ``trajectory_rng(seed, i).random()`` returns on its d-th
    call.  Rows index the trajectories from 0; each four-word block is
    computed once per row and reused by the next three draws.
    """

    def __init__(self, seed: int, first: int, count: int):
        self._key = np.array([seed & 2 ** 64 - 1, seed >> 64], dtype=np.uint64)
        self._index = np.arange(first, first + count, dtype=np.uint64)
        self._block = np.empty((4, count), dtype=np.uint64)
        self._fresh = np.zeros(count, dtype=bool)  # block holds _counter
        self._counter = 0

    def random(self, draw: int, rows: np.ndarray) -> np.ndarray:
        counter = draw // 4 + 1
        if counter != self._counter:
            self._counter = counter
            self._fresh[:] = False
        stale = rows[~self._fresh[rows]]
        if stale.size:
            self._block[:, stale] = _philox4x64(counter, self._index[stale],
                                                 self._key)
            self._fresh[stale] = True
        return (self._block[draw % 4, rows] >> np.uint64(11)) * 2.0 ** -53


def _sample_rows(cum, last, row, u):
    """``np.searchsorted(cum[r], u, side="right")`` for each pair (r, u),
    clamped to ``last[r]``: a row summing to a little under 1 sends the top
    of [0, 1) to its last possible index.  It takes numpy's halving steps,
    so it agrees with numpy even on an unsorted row.
    """
    n_columns = cum.shape[1]
    lo = np.zeros(len(u), dtype=np.intp)
    hi = np.full(len(u), n_columns)
    for _ in range(n_columns.bit_length()):
        mid = (lo + hi) >> 1
        right = cum[row, np.minimum(mid, n_columns - 1)] <= u
        searching = lo < hi
        lo = np.where(searching & right, mid + 1, lo)
        hi = np.where(searching & ~right, mid, hi)
    return np.minimum(lo, last[row])


def _rollout(spec, policy, streams, n, max_epochs):
    """Rewards of n trajectories stepped together; how many were cut at
    ``max_epochs`` and how many stopped by a terminal action; the epoch at
    which the loop ended (``max_epochs`` if it never broke).

    The one discrete walker.  A live trajectory draws its offer, then its
    success or its transition; live trajectories have all made the same
    number of draws at the start of an epoch.
    """
    dyn = _Dynamics(spec)
    actions = policy.actions.reshape(dyn.grid)
    draws = 1 + dyn.organ_axis  # per epoch
    beta, death, n_patient = spec.discount, spec.death_index, spec.n_patient

    rewards = np.zeros(n)
    rows = np.arange(n)
    h = np.full(n, 0 if death != 0 else 1)
    g = np.zeros(n, dtype=np.intp)
    disc, acc = np.ones(n), np.zeros(n)
    stopped = 0
    for epoch in range(max_epochs):
        alive = h != death
        if not alive.all():
            rewards[rows[~alive]] = acc[~alive]
            rows, h, g, disc, acc = (x[alive] for x in (rows, h, g, disc, acc))
        if not rows.size:
            break
        d = epoch * draws
        k = (_sample_rows(dyn.cum_offer, dyn.last_offer, h,
                          streams.random(d, rows))
             if dyn.organ_axis else np.zeros(len(rows), dtype=np.intp))
        a = actions[g, h, k]
        g = dyn.wait_regime[a]
        stop = g < 0
        if stop.any():
            s_rows, s_h, s_k, s_disc = rows[stop], h[stop], k[stop], disc[stop]
            s_acc = acc[stop] + s_disc * dyn.terminal_reward[
                dyn.terminal_of[a[stop]], s_h, s_k]
            if dyn.success_draw:
                won = streams.random(d + 1, s_rows) < spec.success_prob[s_h, s_k]
                s_acc[won] += s_disc[won] * beta * spec.success_reward
            rewards[s_rows] = s_acc
            stopped += len(s_rows)
            go = ~stop
            rows, h, g, disc, acc = (x[go] for x in (rows, h, g, disc, acc))
        acc = acc + disc * dyn.wait_reward[g, h]
        h = _sample_rows(dyn.cum_trans, dyn.last_trans, g * n_patient + h,
                         streams.random(d + draws - 1, rows))
        disc = disc * beta
    else:
        epoch = max_epochs
    rewards[rows] = acc
    return rewards, len(rows), stopped, epoch


# ---------------------------------------------------------------------------
# exact enumeration on tiny models

def _cell_dynamics(spec):
    """Classes, rewards and next-cell rows of every live cell.

    Cells are (regime, patient, offer column) triples in the order of
    :meth:`VariantRule.grid`.  A cell's classes are its wait actions, then,
    if it has a terminal, the first of its best terminals, whose row is
    zero.  Returns (cells, the action of each class per cell, rewards
    (cell, class), rows (cell, class, cell)); unused classes are zero.
    ValueError past MAX_BRUTE_FORCE_CELLS live cells.
    """
    rule = VARIANT_RULES[spec.variant]
    n_regimes, n_patient, n_columns = rule.grid(spec)
    live = spec.live_patients()
    offer = spec.offer_prob[live] if rule.organ_axis \
        else np.ones((len(live), 1))
    terminals = rule.terminal_rewards(spec)
    wait_rewards, transitions = rule.wait_arrays(spec)
    waits = {a.action: a.regime for regime in rule.regimes for a in regime}
    cells = [(g, h, k) for g in range(n_regimes) for h in live
             for k in range(n_columns)]
    legal = [rule.legal(spec, g, k) for g, _, k in cells]
    n, m = len(cells), max(map(len, legal))
    if n > MAX_BRUTE_FORCE_CELLS:
        raise ValueError(f"{n} live cells exceeds the enumeration bound "
                         f"{MAX_BRUTE_FORCE_CELLS}")
    block = offer.size  # cells per regime

    classes, rewards, rows = [], np.zeros((n, m)), np.zeros((n, m, n))
    for i, ((g, h, k), acts) in enumerate(zip(cells, legal)):
        ends = {a: np.broadcast_to(terminals[a], (n_patient, n_columns))[h, k]
                for a in acts if a in terminals}
        best = (max(ends, key=ends.get),) if ends else ()  # the first best
        classes.append(acts[:len(acts) - len(ends)] + best)
        for j, a in enumerate(classes[-1]):
            if a in ends:
                rewards[i, j] = ends[a]
            else:
                rewards[i, j] = wait_rewards[waits[a], h]
                start = waits[a] * block
                rows[i, j, start:start + block] = (
                    (spec.discount * transitions[waits[a], h, live])[:, None]
                    * offer).ravel()
    return cells, classes, rewards, rows


def brute_force_optimal(spec: DiscreteModelSpec) -> tuple[np.ndarray, Policy]:
    """Exact optimal values, one linear system per stationary wait pattern.

    Each cell chooses among its classes (see :func:`_cell_dynamics`): its
    wait actions and its best terminal.  Under fixed waits,
    V = (I - beta P)^-1 r rises with r, the inverse being a nonnegative
    Neumann series (Puterman 1994, 6.1), so the best terminals win at every
    cell at once.  The optimal value is the pointwise maximum of the
    directly solved systems, with no iteration error, and the returned
    policy attains it everywhere.  Only meant for tiny models: at most 12
    live cells, and every variant has at most 3 actions per cell.  Pattern
    j is the j-th of ``itertools.product`` over the cells' classes, read
    from j in mixed radix, solved BRUTE_FORCE_CHUNK at a time.
    """
    cells, classes, rewards, rows = _cell_dynamics(spec)
    rule = VARIANT_RULES[spec.variant]
    radix = np.array([len(c) for c in classes])
    total, n = math.prod(radix.tolist()), len(cells)
    strides = total // np.cumprod(radix)  # the last cell varies fastest
    best_vals = np.full(n, -np.inf)
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        index = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total))
        pick = (np.arange(n), index[:, None] // strides % radix)  # (pattern, cell)
        vals = np.linalg.solve(np.eye(n) - rows[pick], rewards[pick][:, :, None])
        best_vals = np.maximum(best_vals, vals[:, :, 0].max(axis=0))

    # the pointwise maximum is attained by the policy that is greedy with
    # respect to it
    assign = []
    for i, acts in enumerate(classes):
        qs = [rewards[i, j] + rows[i, j] @ best_vals for j in range(len(acts))]
        assign.append(acts[int(np.argmax(qs))])

    at = tuple(np.array(cells).T)
    values = np.zeros(rule.grid(spec))
    values[at] = best_vals
    actions = np.full(rule.grid(spec), int(Action.NONE), dtype=np.int64)
    actions[at] = [int(a) for a in assign]
    shape = rule.value_shape(spec)
    return values.reshape(shape), validate_policy(
        spec, Policy(spec.variant, actions.reshape(shape)))


# ---------------------------------------------------------------------------
# continuous-time rollouts

def continuous_time_simulate(spec: ContinuousModelSpec, threshold,
                             n_trajectories: int, seed: int,
                             max_arrivals: int = 100_000) -> EvalEstimate:
    """Mean reward of the rule "accept the offer at time t iff its value
    exceeds threshold(t) / beta(t)".

    ``threshold`` is a :class:`ThresholdCurve`, a callable t -> lambda(t),
    or (fixed instants only) an array of per-instant rejection values.
    Rewards are beta(t) * value at acceptance and 0 on death; a trajectory
    still open after ``max_arrivals`` arrivals scores 0 and is counted in
    ``truncated``.  All trajectories read ``trajectory_rng(seed, 0)``.
    Arrival gaps come from one sampler: a renewal's interarrival, or
    :class:`ExponentialInterarrival` at the Poisson rate or, for a
    time-varying rate, at its ``rate_bound``, the only case thinned.
    ``2 <= n_trajectories < 2**32``; thinning refuses a bound that is
    missing, 0 or infinite and a rate that is not in [0, rate_bound].
    """
    _check_sample_size(n_trajectories)
    from .ctime import (ExponentialInterarrival, FixedInstants,
                        NonhomogeneousPoissonArrivals, RenewalArrivals)
    rng = trajectory_rng(_check_seed(seed), 0)
    rewards = np.zeros(n_trajectories)
    fixed = isinstance(spec.arrivals, FixedInstants)
    if isinstance(threshold, np.ndarray):
        if not fixed or threshold.shape != spec.arrivals.times.shape:
            raise ValueError("threshold: an array needs fixed instants, one "
                             f"value each, got shape {threshold.shape}")
    elif not callable(threshold):
        raise TypeError("threshold: neither callable nor an array")
    if fixed:
        times = spec.arrivals.times
        lam = (threshold if isinstance(threshold, np.ndarray)
               else np.array([threshold(t) for t in times]))
        alive = np.ones(n_trajectories, dtype=bool)
        done = np.zeros(n_trajectories, dtype=bool)
        for j, t in enumerate(times):
            alive &= rng.random(n_trajectories) < spec.survival_alphas[j]
            active = alive & ~done
            if not active.any():
                break
            x = spec.offers.sample(rng, int(active.sum()))
            beta = spec.discount_fn(t)
            accept = x > lam[j] / beta
            idx = np.flatnonzero(active)
            rewards[idx[accept]] = beta * x[accept]
            done[idx[accept]] = True
        return _estimate(rewards)

    tau = spec.lifetime.sample(rng, n_trajectories)
    t = np.zeros(n_trajectories)
    open_ = np.ones(n_trajectories, dtype=bool)

    arrivals = spec.arrivals
    thinned = isinstance(arrivals, NonhomogeneousPoissonArrivals)
    if isinstance(arrivals, RenewalArrivals):
        sampler = arrivals.interarrival
    elif not thinned:
        if arrivals.rate == 0.0:
            return _estimate(rewards)  # no offers ever arrive
        sampler = ExponentialInterarrival(arrivals.rate)
    elif arrivals.rate_bound is None:
        raise ValueError("thinning needs an explicit rate bound")
    else:
        sampler = ExponentialInterarrival(arrivals.rate_bound)

    for _ in range(max_arrivals):
        if not open_.any():
            break
        idx = np.flatnonzero(open_)
        m = len(idx)
        t[idx] += np.asarray(sampler.sample(rng, m), dtype=float)
        now = t[idx]
        dead = now >= tau[idx]
        open_[idx[dead]] = False
        hit = ~dead
        if thinned:
            rates = np.array([arrivals.rate_fn(u) for u in now], dtype=float)
            bad = ~((rates >= 0) & (rates <= arrivals.rate_bound))
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"thinning: rate {rates[j]} at time {now[j]} "
                                 f"outside [0, rate_bound {arrivals.rate_bound}]")
            hit &= rng.random(m) < rates / arrivals.rate_bound
        if not hit.any():
            continue
        at = idx[hit]
        x = np.asarray(spec.offers.sample(rng, len(at)), dtype=float)
        betas = np.array([spec.discount_fn(u) for u in t[at]])
        lams = np.array([threshold(u) for u in t[at]])
        take = x > lams / betas
        rewards[at[take]] = betas[take] * x[take]
        open_[at[take]] = False
    return _estimate(rewards, int(open_.sum()))


def _check_sample_size(n_trajectories):
    # a standard error needs two trajectories
    if not 2 <= n_trajectories < 2 ** 32:
        raise ValueError(f"n_trajectories {n_trajectories} outside [2, 2**32)")


def _check_seed(seed):
    seed = operator.index(seed)  # numpy integers too; a float is refused
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed {seed} outside [0, 2**128)")
    return seed


def _estimate(rewards, truncated=0):
    n = len(rewards)
    mean = rewards.mean()
    deviations = rewards - mean
    # squared in place on a power-of-two scale (exact), so deviations near
    # 1e300 keep a finite square; ordinary ones keep scale 1, numpy's std
    # bits and its one array of work space
    largest = max(deviations.max(), -deviations.min())
    scale = 2.0 ** max(0, math.frexp(largest)[1] - 500)
    deviations /= scale
    std = np.sqrt(np.square(deviations, out=deviations).sum() / (n - 1)) * scale
    return EvalEstimate(mean=float(mean), std_error=float(std / math.sqrt(n)),
                        n=n, truncated=truncated)
