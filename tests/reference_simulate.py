"""Reference walker: the per-variant ``if`` ladder that the dynamics table
of ``organstop.simulate`` replaced.

``reference_trajectory`` rolls one history out on a generator, branching on
the variant and the action by hand, and returns its own record.  The tests
hold ``simulate_trajectory`` (the batched rollout on one trajectory) and,
through it, the batched estimator to it: the reward bit for bit, the epoch
count and the way the history ended.
"""

from dataclasses import dataclass

import numpy as np

from organstop.model import (
    Action,
    DIALYSIS_REGIME,
    DiscreteModelSpec,
    MEDICATION_REGIME,
    Policy,
    Variant,
)
from organstop.simulate import MAX_EPOCHS


@dataclass(frozen=True)
class ReferenceRecord:
    reward: float
    epochs: int
    terminal: str  # "death", "transplant" or "truncated"


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
                         max_epochs: int = MAX_EPOCHS) -> ReferenceRecord:
    """Roll out one history and return its realized discounted reward."""
    beta = spec.discount
    death = spec.death_index
    cum_offer = np.cumsum(spec.offer_prob, axis=1)
    last_offer = _last_positive(spec.offer_prob)
    cum_trans = np.cumsum(spec.transition, axis=-1)
    last_trans = _last_positive(spec.transition)

    h = 0 if spec.death_index != 0 else 1
    regime = MEDICATION_REGIME
    disc = 1.0
    reward = 0.0
    epochs, terminal = 0, "truncated"

    for epoch in range(max_epochs):
        if h == death:
            terminal = "death"
            break

        if spec.variant is Variant.LIVING_DONOR:
            a = Action(policy.actions[h])
            epochs = epoch + 1
            if a is Action.TRANSPLANT_LIVING:
                reward += disc * spec.living_donor_reward()[h]
                terminal = "transplant"
                break
            reward += disc * spec.wait_reward[h]
            h = _sample_row(rng, cum_trans[h], last_trans[h])
            disc *= beta
            continue

        k = _sample_row(rng, cum_offer[h], last_offer[h])
        if spec.variant is Variant.DIALYSIS:
            a = Action(policy.actions[regime, h, k])
        else:
            a = Action(policy.actions[h, k])
        epochs = epoch + 1

        if a is Action.TRANSPLANT and spec.variant is Variant.CONTINUOUS_ANALOG:
            reward += disc * spec.wait_reward[h]
            if rng.random() < spec.success_prob[h, k]:
                reward += disc * beta * spec.success_reward
            terminal = "transplant"
            break
        if a is Action.TRANSPLANT:
            reward += disc * spec.transplant_reward[h, k]
            terminal = "transplant"
            break
        if a is Action.TRANSPLANT_LIVING:
            reward += disc * spec.living_donor_reward()[h]
            terminal = "transplant"
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

    return ReferenceRecord(float(reward), epochs, terminal)
