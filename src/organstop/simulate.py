"""Monte Carlo evaluation and exact small-model policy enumeration."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Action,
    DIALYSIS_REGIME,
    DiscreteModelSpec,
    MEDICATION_REGIME,
    Policy,
    VARIANT_RULES,
    Variant,
    validate_model,
    validate_policy,
)
from .ctime import (
    ContinuousModelSpec,
    FixedInstants,
    NonhomogeneousPoissonArrivals,
    PoissonArrivals,
    RenewalArrivals,
    ThresholdCurve,
)

MAX_EPOCHS = 1_000_000
MAX_BRUTE_FORCE_CELLS = 12
MAX_BRUTE_FORCE_ACTIONS = 3


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
    """Independent stream for trajectory ``index`` of a run."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(master_seed,
                                                spawn_key=(index,))))


def simulate_trajectory(spec: DiscreteModelSpec, policy: Policy,
                        rng: np.random.Generator,
                        max_epochs: int = MAX_EPOCHS,
                        record_path: bool = False) -> TrajectoryRecord:
    """Roll out one history and return its realized discounted reward."""
    beta = spec.discount
    death, nooff = spec.death_index, spec.no_offer_index
    cum_offer = np.cumsum(spec.offer_prob, axis=1)
    last_offer = _last_positive(spec.offer_prob)
    cum_trans = np.cumsum(spec.transition, axis=-1)
    last_trans = _last_positive(spec.transition)

    h = 0 if spec.death_index != 0 else 1
    regime = MEDICATION_REGIME
    disc = 1.0
    reward = 0.0
    record = TrajectoryRecord(reward=0.0, epochs=0, terminal="truncated")

    for epoch in range(max_epochs):
        if h == death:
            record.terminal = "death"
            break

        if spec.variant is Variant.LIVING_DONOR:
            a = Action(policy.actions[h])
            if record_path:
                record.states.append(h)
                record.actions.append(int(a))
            if a is Action.TRANSPLANT_LIVING:
                reward += disc * spec.living_donor_reward()[h]
                record.terminal = "transplant"
                record.epochs = epoch + 1
                break
            reward += disc * spec.wait_reward[h]
            h = _sample_row(rng, cum_trans[h], last_trans[h])
            disc *= beta
            record.epochs = epoch + 1
            continue

        k = _sample_row(rng, cum_offer[h], last_offer[h])
        if spec.variant is Variant.DIALYSIS:
            a = Action(policy.actions[regime, h, k])
        else:
            a = Action(policy.actions[h, k])
        if record_path:
            record.states.append((regime, h) if spec.variant is Variant.DIALYSIS
                                 else h)
            record.offers.append(k)
            record.actions.append(int(a))

        if a is Action.TRANSPLANT and spec.variant is Variant.CONTINUOUS_ANALOG:
            reward += disc * spec.wait_reward[h]
            success = rng.random() < spec.success_prob[h, k]
            if success:
                reward += disc * beta * spec.success_reward
            record.success = success
            record.terminal = "transplant"
            record.epochs = epoch + 1
            break
        if a is Action.TRANSPLANT:
            reward += disc * spec.transplant_reward[h, k]
            record.terminal = "transplant"
            record.epochs = epoch + 1
            break
        if a is Action.TRANSPLANT_LIVING:
            reward += disc * spec.living_donor_reward()[h]
            record.terminal = "transplant"
            record.epochs = epoch + 1
            break

        # waiting actions
        if spec.variant is Variant.DIALYSIS:
            regime = MEDICATION_REGIME if a is Action.MEDICATION \
                else DIALYSIS_REGIME
            reward += disc * spec.wait_reward[regime, h]
            h = _sample_row(rng, cum_trans[regime, h], last_trans[regime, h])
        else:
            reward += disc * spec.wait_reward[h]
            h = _sample_row(rng, cum_trans[h], last_trans[h])
        disc *= beta
        record.epochs = epoch + 1

    record.reward = reward
    return record


def recompute_reward(spec: DiscreteModelSpec, record: TrajectoryRecord) -> float:
    """Replay a logged path and re-derive its discounted reward."""
    if not record.actions:
        raise ValueError("record was simulated without record_path=True")
    beta = spec.discount
    reward = 0.0
    for t, a in enumerate(record.actions):
        a = Action(a)
        disc = beta ** t
        state = record.states[t]
        if spec.variant is Variant.DIALYSIS:
            regime, h = state
        else:
            regime, h = None, state
        if a is Action.TRANSPLANT and spec.variant is Variant.CONTINUOUS_ANALOG:
            reward += disc * spec.wait_reward[h]
            if record.success:
                reward += disc * beta * spec.success_reward
        elif a is Action.TRANSPLANT:
            reward += disc * spec.transplant_reward[h, record.offers[t]]
        elif a is Action.TRANSPLANT_LIVING:
            reward += disc * spec.living_donor_reward()[h]
        elif a is Action.MEDICATION:
            reward += disc * spec.wait_reward[MEDICATION_REGIME, h]
        elif a is Action.DIALYSIS:
            reward += disc * spec.wait_reward[DIALYSIS_REGIME, h]
        else:
            reward += disc * (spec.wait_reward[h] if regime is None
                              else spec.wait_reward[regime, h])
    return reward


def estimate_policy_value(spec: DiscreteModelSpec, policy: Policy,
                          n_trajectories: int, seed: int,
                          max_epochs: int = MAX_EPOCHS) -> EvalEstimate:
    """Mean discounted reward from the initial state under the policy.

    Trajectory ``i`` draws from ``trajectory_rng(seed, i)``: numpy's Philox
    keyed by ``SeedSequence(seed, spawn_key=(i,))``.  Its reward is the one
    :func:`simulate_trajectory` returns on that stream, bit for bit, and does
    not depend on ``n_trajectories``; trajectories are stepped together in
    blocks whose size changes no number.  ``seed`` is a non-negative
    integer and ``1 <= n_trajectories < 2**32``.
    """
    validate_model(spec)
    validate_policy(spec, policy)
    if not 1 <= n_trajectories < 2 ** 32:
        raise ValueError(f"n_trajectories {n_trajectories} outside [1, 2**32)")
    return _estimate(*_simulate_rewards(spec, policy, n_trajectories, seed,
                                        max_epochs))


# ---------------------------------------------------------------------------
# batched rollouts on numpy's per-trajectory Philox streams

_BLOCK = 16_384  # trajectories stepped together: bounds memory, not results

_M32 = 0xFFFFFFFF
# numpy.random.SeedSequence: hash constants, pool size and mixing shift
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
# Philox4x64-10 multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(_M32), np.uint64(32)


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


def _spawn_keys(seed: int, index: np.ndarray) -> np.ndarray:
    """Philox keys, shape (2, n): column j is
    ``SeedSequence(seed, spawn_key=(index[j],)).generate_state(2, uint64)``.

    numpy pads the seed's 32-bit words to the pool size, appends the spawn
    word and hashes them into the pool; only the last round reads the spawn
    word, so all earlier rounds run on length-1 arrays.  Arithmetic stays on
    uint32 arrays, which wrap modulo 2**32 as numpy's uint32_t code does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.asarray(index, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    hash_const = _INIT_B
    state = []
    for w in pool:
        w = w ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        w = w * np.uint32(hash_const)
        state.append((w ^ (w >> _XSHIFT)).astype(np.uint64))
    return np.stack([state[0] | state[1] << _SHIFT32,
                     state[2] | state[3] << _SHIFT32])


def _mulhilo(a, m):
    """High and low 64-bit words of the 128-bit products a * m."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = (a_lo * m_lo >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * m


def _philox4x64(counter: int, keys: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counter (counter, 0, 0, 0) under each key
    column: four 64-bit words per key, shape (4, n)."""
    n = keys.shape[1]
    c0 = np.full(n, np.uint64(counter))
    c1, c2, c3 = (np.zeros(n, dtype=np.uint64) for _ in range(3))
    k0, k1 = keys
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3])


class _PhiloxStreams:
    """The streams of trajectories ``first .. first + count - 1``.

    Draw d of a stream is word d % 4 of Philox4x64-10 at counter d // 4 + 1,
    as 53-bit double: what ``trajectory_rng(seed, i).random()`` returns on
    its d-th call.  Rows index the trajectories from 0; each four-word
    block is computed once per row and reused by the next three draws.
    """

    def __init__(self, seed: int, first: int, count: int):
        self._keys = _spawn_keys(seed, np.arange(first, first + count))
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
            self._block[:, stale] = _philox4x64(counter, self._keys[:, stale])
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
    rule = VARIANT_RULES[spec.variant]
    grid = rule.grid(spec)
    n_patient = spec.n_patient
    actions = policy.actions.reshape(grid)
    # each wait action once: going on dialysis is legal in both regimes
    waits = list({w.action: w for regime in rule.regimes for w in regime}.values())
    wait_of = np.full(len(Action), -1)
    wait_of[[w.action for w in waits]] = range(len(waits))
    wait_reward = np.stack([w.arrays(spec)[0] for w in waits])
    trans = np.stack([w.arrays(spec)[1] for w in waits]).reshape(-1, n_patient)
    cum_trans, last_trans = np.cumsum(trans, axis=1), _last_positive(trans)
    next_regime = np.array([w.regime or 0 for w in waits])
    terminals = rule.terminal_rewards(spec)
    terminal_of = np.full(len(Action), -1)
    terminal_of[list(terminals)] = range(len(terminals))
    terminal_reward = np.stack([np.broadcast_to(r, grid[1:])
                                for r in terminals.values()])
    if rule.organ_axis:
        cum_offer = np.cumsum(spec.offer_prob, axis=1)
        last_offer = _last_positive(spec.offer_prob)
    # the analog's transplant draws its success instead of paying w + beta*R
    success_draw = spec.variant is Variant.CONTINUOUS_ANALOG
    draws = 1 + rule.organ_axis  # per epoch
    beta, death = spec.discount, spec.death_index

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
        k = (_sample_rows(cum_offer, last_offer, h, streams.random(d, rows))
             if rule.organ_axis else np.zeros(len(rows), dtype=np.intp))
        a = actions[g, h, k]
        j = wait_of[a]
        stop = j < 0
        if stop.any():
            s_rows, s_h, s_k, s_disc = rows[stop], h[stop], k[stop], disc[stop]
            if success_draw:
                s_acc = acc[stop] + s_disc * spec.wait_reward[s_h]
                won = streams.random(d + 1, s_rows) < spec.success_prob[s_h, s_k]
                s_acc[won] += s_disc[won] * beta * spec.success_reward
            else:
                s_acc = acc[stop] + s_disc * terminal_reward[
                    terminal_of[a[stop]], s_h, s_k]
            rewards[s_rows] = s_acc
            go = ~stop
            rows, h, g, disc, acc, j = (x[go] for x in (rows, h, g, disc, acc, j))
        acc = acc + disc * wait_reward[j, h]
        h = _sample_rows(cum_trans, last_trans, j * n_patient + h,
                         streams.random(d + draws - 1, rows))
        g = next_regime[j]
        disc = disc * beta
    rewards[rows] = acc
    return rewards, len(rows)


# ---------------------------------------------------------------------------
# exact enumeration on tiny models

def _cell_dynamics(spec):
    """Legal actions, reward and next-cell distribution of every live cell.

    Cells are (regime, patient, offer column) triples in the order of
    :meth:`VariantRule.grid`.  Returns (cells, legal actions per cell,
    rewards dict, transition dict); terminal actions map to an all-zero
    transition row.
    """
    rule = VARIANT_RULES[spec.variant]
    n_regimes, n_patient, n_columns = rule.grid(spec)
    live = spec.live_patients()
    offer = spec.offer_prob[live] if rule.organ_axis \
        else np.ones((len(live), 1))
    terminals = rule.terminal_rewards(spec)
    waits = {a.action: a for regime in rule.regimes for a in regime}
    cells = [(g, h, k) for g in range(n_regimes) for h in live
             for k in range(n_columns)]
    block = offer.size  # cells per regime

    legal, rewards, rows = [], {}, {}
    for c in cells:
        g, h, k = c
        legal.append(rule.legal(spec, g, k))
        for a in legal[-1]:
            row = np.zeros(len(cells))
            if a in terminals:
                r = np.broadcast_to(terminals[a], (n_patient, n_columns))[h, k]
            else:
                wait_reward, transition = waits[a].arrays(spec)
                r = wait_reward[h]
                start = (waits[a].regime or 0) * block
                row[start:start + block] = (
                    (spec.discount * transition[h, live])[:, None] * offer).ravel()
            rewards[(c, a)] = float(r)
            rows[(c, a)] = row
    return cells, legal, rewards, rows


def brute_force_optimal(spec: DiscreteModelSpec,
                        batch: int = 2048) -> tuple[np.ndarray, Policy]:
    """Exact optimal values by enumerating every stationary policy.

    Each candidate policy is evaluated by solving its linear fixed-point
    system directly, so the result carries no iteration error; the optimal
    value is the pointwise maximum and the returned policy attains it
    everywhere.  Only meant for tiny models: at most 12 live cells and 3
    actions per cell.
    """
    validate_model(spec)
    cells, acts_per_cell, rewards, rows = _cell_dynamics(spec)
    n = len(cells)
    if n > MAX_BRUTE_FORCE_CELLS:
        raise ValueError(f"{n} live cells exceeds the enumeration bound "
                         f"{MAX_BRUTE_FORCE_CELLS}")
    if max(len(a) for a in acts_per_cell) > MAX_BRUTE_FORCE_ACTIONS:
        raise ValueError("more than 3 actions at some cell")

    eye = np.eye(n)
    best_vals = np.full(n, -np.inf)
    combo_iter = itertools.product(*acts_per_cell)
    while True:
        chunk = list(itertools.islice(combo_iter, batch))
        if not chunk:
            break
        mats = np.empty((len(chunk), n, n))
        rhs = np.empty((len(chunk), n))
        for j, assign in enumerate(chunk):
            for i, (c, a) in enumerate(zip(cells, assign)):
                mats[j, i] = -rows[(c, a)]
                rhs[j, i] = rewards[(c, a)]
            mats[j] += eye
        vals = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
        best_vals = np.maximum(best_vals, vals.max(axis=0))

    # the pointwise maximum is attained by the policy that is greedy with
    # respect to it
    assign = []
    for c, acts in zip(cells, acts_per_cell):
        qs = [rewards[(c, a)] + rows[(c, a)] @ best_vals for a in acts]
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
    ``truncated``.
    """
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
            accept_p = np.array([arrivals.rate_fn(u) for u in cand]) \
                / arrivals.rate_bound
            real = rng.random(m) < accept_p
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


def _estimate(rewards, truncated=0):
    n = len(rewards)
    se = float(rewards.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return EvalEstimate(mean=float(rewards.mean()), std_error=se, n=n,
                        truncated=truncated)
