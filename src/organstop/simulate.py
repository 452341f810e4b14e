"""Monte Carlo evaluation and exact small-model policy enumeration."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    ANALOG_ORGAN,
    Action,
    DiscreteModelSpec,
    Policy,
    VARIANT_RULES,
    validate_model,
    validate_policy,
)

if TYPE_CHECKING:
    from .ctime import ContinuousModelSpec

MAX_EPOCHS = 1_000_000
MAX_BRUTE_FORCE_CELLS = 12
MAX_BRUTE_FORCE_ACTIONS = 3
BRUTE_FORCE_CHUNK = 2048


@dataclass
class TrajectoryRecord:
    """One simulated history under a fixed policy."""

    reward: float
    epochs: int
    terminal: str  # "death", "transplant" or "truncated"
    states: list = field(default_factory=list)    # patient (or (regime, h))
    offers: list = field(default_factory=list)    # organ index per epoch
    actions: list = field(default_factory=list)   # Action codes per epoch
    success: bool | None = None                   # continuous-analog attempt


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


def _sample_row(rng, cum_row, last):
    # a row summing to a little less than 1 (within ROW_SUM_TOL) leaves the
    # top of [0, 1) past its cumsum: that mass goes to the last possible index
    return min(int(np.searchsorted(cum_row, rng.random(), side="right")),
               int(last))


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Stream of trajectory ``index`` of a run: numpy's ``Philox(master_seed)``
    with ``index`` in word 1 of its counter, so index 0 is that plain stream.
    Philox is counter-based (Salmon et al. 2011): trajectory i reads the
    blocks at counters (1, i, 0, 0), (2, i, 0, 0), ..., so no two
    trajectories share a block in their first 2**64."""
    return np.random.Generator(
        np.random.Philox(master_seed, counter=[0, index, 0, 0]))


class _Dynamics:
    """One epoch of a variant as arrays, read by every discrete walker.

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
        self.regime_axis, self.organ_axis = self.grid[0] > 1, rule.organ_axis
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
                        max_epochs: int = MAX_EPOCHS,
                        record_path: bool = False) -> TrajectoryRecord:
    """Roll out one history and return its realized discounted reward."""
    dyn = _Dynamics(spec)
    actions = policy.actions.reshape(dyn.grid)
    beta, death = spec.discount, spec.death_index
    h, g, k = (0 if death != 0 else 1), 0, 0
    disc = 1.0
    reward = 0.0
    record = TrajectoryRecord(reward=0.0, epochs=0, terminal="truncated")

    for epoch in range(max_epochs):
        if h == death:
            record.terminal = "death"
            break
        if dyn.organ_axis:
            k = _sample_row(rng, dyn.cum_offer[h], dyn.last_offer[h])
        a = int(actions[g, h, k])
        if record_path:
            record.states.append((g, h) if dyn.regime_axis else h)
            if dyn.organ_axis:
                record.offers.append(k)
            record.actions.append(a)
        record.epochs = epoch + 1
        g = int(dyn.wait_regime[a])
        if g < 0:
            reward += disc * dyn.terminal_reward[dyn.terminal_of[a], h, k]
            if dyn.success_draw:
                record.success = rng.random() < spec.success_prob[h, k]
                if record.success:
                    reward += disc * beta * spec.success_reward
            record.terminal = "transplant"
            break
        reward += disc * dyn.wait_reward[g, h]
        row = g * spec.n_patient + h
        h = _sample_row(rng, dyn.cum_trans[row], dyn.last_trans[row])
        disc *= beta

    record.reward = reward
    return record


def recompute_reward(spec: DiscreteModelSpec, record: TrajectoryRecord) -> float:
    """Replay a logged path and re-derive its discounted reward."""
    if not record.actions:
        raise ValueError("record was simulated without record_path=True")
    dyn = _Dynamics(spec)
    beta = spec.discount
    reward = 0.0
    for t, a in enumerate(record.actions):
        disc = beta ** t
        h = record.states[t][1] if dyn.regime_axis else record.states[t]
        g = dyn.wait_regime[a]
        if g >= 0:
            reward += disc * dyn.wait_reward[g, h]
            continue
        k = record.offers[t] if dyn.organ_axis else 0
        reward += disc * dyn.terminal_reward[dyn.terminal_of[a], h, k]
        if dyn.success_draw and record.success:
            reward += disc * beta * spec.success_reward
    return reward


def estimate_policy_value(spec: DiscreteModelSpec, policy: Policy,
                          n_trajectories: int, seed: int,
                          max_epochs: int = MAX_EPOCHS) -> EvalEstimate:
    """Mean discounted reward from the initial state under the policy.

    Trajectory ``i`` draws from ``trajectory_rng(seed, i)``: numpy's
    ``Philox(seed)`` with ``i`` in word 1 of the counter.  Its reward is the
    one :func:`simulate_trajectory` returns on that stream, bit for bit, and
    does not depend on ``n_trajectories``; trajectories are stepped together
    in blocks whose size changes no number.  ``seed`` is a non-negative
    integer and ``2 <= n_trajectories < 2**32``.
    """
    validate_model(spec)
    validate_policy(spec, policy)
    _check_sample_size(n_trajectories)
    seed = operator.index(seed)  # numpy integers too; a float is refused
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return _estimate(*_simulate_rewards(spec, policy, n_trajectories, seed,
                                        max_epochs))


# ---------------------------------------------------------------------------
# batched rollouts on the trajectories' Philox counters

_BLOCK = 16_384  # trajectories stepped together: bounds memory, not results

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_M32 = 0xFFFFFFFF
_LOW32, _SHIFT32 = np.uint64(_M32), np.uint64(32)
# numpy.random.SeedSequence: hash (init, multiplier) pairs and mix multipliers
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _simulate_rewards(spec, policy, n, seed, max_epochs):
    """Reward of each trajectory ``0 .. n - 1`` and how many were cut."""
    rewards = np.empty(n)
    truncated = 0
    for first in range(0, n, _BLOCK):
        count = min(_BLOCK, n - first)
        rewards[first:first + count], cut = _rollout(
            spec, policy, _PhiloxStreams(seed, first, count), count, max_epochs)
        truncated += cut
    return rewards, truncated


def _hasher(init, mult):
    """SeedSequence's hashmix: call k XORs in init * mult**k and multiplies
    by init * mult**(k + 1), modulo 2**32."""
    const = init

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _philox_key(seed: int) -> np.ndarray:
    """The key of numpy's ``Philox(seed)``, the first two uint64 words of
    ``SeedSequence(seed).generate_state``, hashed on Python ints: asking
    numpy would import ``numpy.random``, about 5 MB more peak memory for a
    process that only estimates."""
    hashmix = _hasher(*_HASH_A)

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    # the seed's 32-bit words, low first, padded to the pool of four
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    state = list(map(_hasher(*_HASH_B), pool))
    return np.array([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    dtype=np.uint64)


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

    All streams share the key of numpy's ``Philox(seed)``.  Draw d of
    trajectory i is word d % 4 of Philox4x64-10 at counter
    (d // 4 + 1, i, 0, 0), as 53-bit double: what
    ``trajectory_rng(seed, i).random()`` returns on its d-th call.  Rows
    index the trajectories from 0; each four-word block is computed once per
    row and reused by the next three draws.
    """

    def __init__(self, seed: int, first: int, count: int):
        self._key = _philox_key(seed)
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
    clamped to ``last[r]`` as :func:`_sample_row` does.  It takes numpy's
    halving steps, so it agrees with numpy even on an unsorted row.
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
    """Rewards of n trajectories stepped together, and how many were cut
    at ``max_epochs``.

    Each live trajectory makes the draws :func:`simulate_trajectory` makes
    (offer, then success or transition) in the same order and with the same
    float operations, so its reward is bit-identical.  Live trajectories
    have all made the same number of draws at the start of an epoch.
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
            go = ~stop
            rows, h, g, disc, acc = (x[go] for x in (rows, h, g, disc, acc))
        acc = acc + disc * dyn.wait_reward[g, h]
        h = _sample_rows(dyn.cum_trans, dyn.last_trans, g * n_patient + h,
                         streams.random(d + draws - 1, rows))
        disc = disc * beta
    rewards[rows] = acc
    return rewards, len(rows)


# ---------------------------------------------------------------------------
# exact enumeration on tiny models

def _cell_dynamics(spec):
    """Legal actions, rewards and next-cell rows of every live cell.

    Cells are (regime, patient, offer column) triples in the order of
    :meth:`VariantRule.grid`.  Returns (cells, legal actions per cell, rewards
    (cell, slot), rows (cell, slot, cell)): slot j is the j-th legal action,
    and terminal actions and unused slots have zero rows.  ValueError past
    the enumeration bounds.
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
    if m > MAX_BRUTE_FORCE_ACTIONS:
        raise ValueError("more than 3 actions at some cell")
    block = offer.size  # cells per regime

    rewards, rows = np.zeros((n, m)), np.zeros((n, m, n))
    for i, ((g, h, k), acts) in enumerate(zip(cells, legal)):
        for j, a in enumerate(acts):
            if a in terminals:
                rewards[i, j] = np.broadcast_to(
                    terminals[a], (n_patient, n_columns))[h, k]
            else:
                rewards[i, j] = wait_rewards[waits[a], h]
                start = waits[a] * block
                rows[i, j, start:start + block] = (
                    (spec.discount * transitions[waits[a], h, live])[:, None]
                    * offer).ravel()
    return cells, legal, rewards, rows


def brute_force_optimal(spec: DiscreteModelSpec) -> tuple[np.ndarray, Policy]:
    """Exact optimal values by enumerating every stationary policy.

    Each candidate policy is evaluated by solving its linear fixed-point
    system directly, so the result carries no iteration error; the optimal
    value is the pointwise maximum and the returned policy attains it
    everywhere.  Only meant for tiny models: at most 12 live cells and 3
    actions per cell.  Policy j is the j-th of ``itertools.product`` over
    the cells' legal actions, read from j in mixed radix; the systems are
    gathered from the stacked dynamics and solved BRUTE_FORCE_CHUNK at a time.
    """
    validate_model(spec)
    cells, acts_per_cell, rewards, rows = _cell_dynamics(spec)
    counts = np.array([len(a) for a in acts_per_cell])
    total, n = math.prod(counts.tolist()), len(cells)
    strides = total // np.cumprod(counts)  # the last cell varies fastest
    best_vals = np.full(n, -np.inf)
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        index = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total))
        slots = index[:, None] // strides % counts  # (policy, cell)
        vals = np.linalg.solve(np.eye(n) - rows[np.arange(n), slots],
                               rewards[np.arange(n), slots][:, :, None])[:, :, 0]
        best_vals = np.maximum(best_vals, vals.max(axis=0))

    # the pointwise maximum is attained by the policy that is greedy with
    # respect to it
    assign = []
    for i, acts in enumerate(acts_per_cell):
        qs = [rewards[i, j] + rows[i, j] @ best_vals for j in range(len(acts))]
        assign.append(acts[int(np.argmax(qs))])

    rule = VARIANT_RULES[spec.variant]
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
    ``truncated``.  ``2 <= n_trajectories < 2**32``; thinning refuses a
    rate that is not in [0, rate_bound].
    """
    _check_sample_size(n_trajectories)
    from .ctime import (FixedInstants, NonhomogeneousPoissonArrivals,
                        PoissonArrivals, RenewalArrivals)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rewards = np.zeros(n_trajectories)

    if isinstance(spec.arrivals, FixedInstants):
        times = spec.arrivals.times
        if isinstance(threshold, np.ndarray):
            lam = threshold
        else:
            lam = np.array([threshold(t) for t in times])
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

    lam_fn = threshold if callable(threshold) else threshold.__call__
    tau = spec.lifetime.sample(rng, n_trajectories)
    t = np.zeros(n_trajectories)
    open_ = np.ones(n_trajectories, dtype=bool)

    arrivals = spec.arrivals
    if isinstance(arrivals, NonhomogeneousPoissonArrivals) \
            and arrivals.rate_bound is None:
        raise ValueError("thinning needs an explicit rate bound")
    if isinstance(arrivals, PoissonArrivals) and arrivals.rate == 0.0:
        return _estimate(rewards)  # no offers ever arrive

    for _ in range(max_arrivals):
        if not open_.any():
            break
        idx = np.flatnonzero(open_)
        m = len(idx)
        if isinstance(arrivals, RenewalArrivals):
            gaps = np.asarray(arrivals.interarrival.sample(rng, m), dtype=float)
            real = np.ones(m, dtype=bool)
        elif isinstance(arrivals, PoissonArrivals):
            gaps = rng.exponential(1.0 / arrivals.rate, m)
            real = np.ones(m, dtype=bool)
        else:
            gaps = rng.exponential(1.0 / arrivals.rate_bound, m)
            cand = t[idx] + gaps
            rates = np.array([arrivals.rate_fn(u) for u in cand], dtype=float)
            bad = ~((rates >= 0) & (rates <= arrivals.rate_bound))
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"thinning: rate {rates[j]} at time {cand[j]} "
                                 f"outside [0, rate_bound {arrivals.rate_bound}]")
            real = rng.random(m) < rates / arrivals.rate_bound
        t[idx] += gaps
        dead = t[idx] >= tau[idx]
        open_[idx[dead]] = False
        hit = ~dead & real
        if not hit.any():
            continue
        at = idx[hit]
        x = np.asarray(spec.offers.sample(rng, len(at)), dtype=float)
        betas = np.array([spec.discount_fn(u) for u in t[at]])
        lams = np.array([lam_fn(u) for u in t[at]])
        take = x > lams / betas
        rewards[at[take]] = betas[take] * x[take]
        open_[at[take]] = False
    return _estimate(rewards, int(open_.sum()))


def _check_sample_size(n_trajectories):
    # a standard error needs two trajectories
    if not 2 <= n_trajectories < 2 ** 32:
        raise ValueError(f"n_trajectories {n_trajectories} outside [2, 2**32)")


def _estimate(rewards, truncated=0):
    n = len(rewards)
    return EvalEstimate(mean=float(rewards.mean()),
                        std_error=float(rewards.std(ddof=1) / math.sqrt(n)),
                        n=n, truncated=truncated)
