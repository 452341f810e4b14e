"""Reference walkers: the per-variant ``if`` ladders that the dynamics
table of ``organstop.simulate`` replaced.

``reference_trajectory`` rolls one history out and ``reference_replay``
re-derives its reward, each branching on the variant and the action by
hand.  The tests hold ``simulate_trajectory`` and ``recompute_reward`` to
them: every record field and every replayed reward, bit for bit.
"""

import numpy as np

from organstop.model import (
    Action,
    DIALYSIS_REGIME,
    DiscreteModelSpec,
    MEDICATION_REGIME,
    Policy,
    Variant,
)
from organstop.simulate import MAX_EPOCHS, TrajectoryRecord


def _last_positive(prob):
    """Index of the last positive entry of each row of ``prob``."""
    return prob.shape[-1] - 1 - np.argmax(prob[..., ::-1] > 0, axis=-1)


def _sample_row(rng, cum_row, last):
    # a row summing to a little less than 1 (within ROW_SUM_TOL) leaves the
    # top of [0, 1) past its cumsum: that mass goes to the last possible index
    return min(int(np.searchsorted(cum_row, rng.random(), side="right")),
               int(last))


def reference_trajectory(spec: DiscreteModelSpec, policy: Policy,
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


def reference_replay(spec: DiscreteModelSpec, record: TrajectoryRecord) -> float:
    """Replay a logged path and re-derive its discounted reward."""
    if not record.actions:
        raise ValueError("record was simulated without record_path=True")
    beta = spec.discount
    reward = 0.0
    for t, a in enumerate(record.actions):
        a = Action(a)
        disc = 1.0 if t == 0 else disc * beta
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
