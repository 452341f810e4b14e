"""Monte Carlo evaluation and exact small-model policy enumeration."""

from __future__ import annotations

import itertools
import math
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


def _sample_row(rng, cum_row):
    return int(np.searchsorted(cum_row, rng.random(), side="right"))


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
    if spec.variant is Variant.DIALYSIS:
        cum_trans = np.cumsum(spec.transition, axis=2)
    else:
        cum_trans = np.cumsum(np.atleast_2d(spec.transition), axis=1)

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
            h = _sample_row(rng, cum_trans[h])
            disc *= beta
            record.epochs = epoch + 1
            continue

        k = _sample_row(rng, cum_offer[h])
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
            h = _sample_row(rng, cum_trans[regime, h])
        else:
            reward += disc * spec.wait_reward[h]
            h = _sample_row(rng, cum_trans[h])
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

    Each trajectory gets its own counter-based stream derived from ``seed``,
    so estimates are reproducible and trajectory ``i`` is identical no
    matter how many others are run.
    """
    validate_model(spec)
    validate_policy(spec, policy)
    rewards = np.empty(n_trajectories)
    truncated = 0
    for i in range(n_trajectories):
        rec = simulate_trajectory(spec, policy, trajectory_rng(seed, i),
                                  max_epochs=max_epochs)
        rewards[i] = rec.reward
        truncated += rec.terminal == "truncated"
    se = float(rewards.std(ddof=1) / math.sqrt(n_trajectories)) \
        if n_trajectories > 1 else float("inf")
    return EvalEstimate(mean=float(rewards.mean()), std_error=se,
                        n=n_trajectories, truncated=truncated)


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
    Rewards are beta(t) * value at acceptance and 0 on death.
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
    return _estimate(rewards)


def _estimate(rewards):
    n = len(rewards)
    se = float(rewards.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return EvalEstimate(mean=float(rewards.mean()), std_error=se, n=n)
