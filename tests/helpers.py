"""Shared random-model generators for the test suite.

All generators emit canonical specs (larger index = worse, death row last,
no-offer column last) so structure checks can be applied directly.
"""

from dataclasses import replace

import numpy as np

from organstop import (
    DiscreteModelSpec,
    Orientation,
    Variant,
    check_ifr,
    validate_model,
)


def random_transition(rng, n_live, min_death=0.02):
    """Random live->state kernel with an absorbing death state appended."""
    H = n_live + 1
    trans = np.zeros((H, H))
    for i in range(n_live):
        row = rng.dirichlet(np.ones(H))
        row = (1 - min_death) * row
        row[-1] += min_death
        trans[i] = row
    trans[-1, -1] = 1.0
    return trans


def ifr_transition(rng, n_live, min_death=0.02):
    """IFR kernel: each row is a worsening mixture of the previous one.

    Row i+1 mixes row i with a point mass at death and a one-step shift
    toward worse states, so tail sums grow row by row.
    """
    H = n_live + 1
    trans = np.zeros((H, H))
    row = rng.dirichlet(np.ones(H))
    row = (1 - min_death) * row
    row[-1] += min_death
    trans[0] = row
    for i in range(1, n_live):
        m = rng.uniform(0.02, 0.15)
        m2 = rng.uniform(0.05, 0.3)
        shifted = np.zeros(H)
        shifted[1:] += trans[i - 1][:-1]
        shifted[-1] += trans[i - 1][-1]
        trans[i] = (1 - m - m2) * trans[i - 1] + m2 * shifted
        trans[i, -1] += m
    trans[-1, -1] = 1.0
    assert check_ifr(trans).holds
    return trans


def random_offer(rng, n_live, n_offered, no_offer_mass=None):
    """Offer kernel with identical rows (offers independent of health)."""
    H, K = n_live + 1, n_offered + 1
    row = rng.dirichlet(np.ones(K))
    if no_offer_mass is not None:
        row[:-1] *= (1 - no_offer_mass) / row[:-1].sum()
        row[-1] = no_offer_mass
    return np.tile(row, (H, 1))


def random_base_spec(rng, n_live=3, n_offered=2, discount=None,
                     variant=Variant.BASE):
    """Unstructured random spec of the requested shape."""
    H, K = n_live + 1, n_offered + 1
    discount = discount if discount is not None else rng.uniform(0.5, 0.95)
    wait = np.append(rng.uniform(0.1, 1.0, n_live), 0.0)
    reward = np.zeros((H, K))
    reward[:-1, :-1] = rng.uniform(0.0, 15.0, (n_live, n_offered))
    offer = np.zeros((H, K))
    for i in range(H):
        offer[i] = rng.dirichlet(np.ones(K))
    kwargs = {}
    if variant is Variant.COMBINED:
        kwargs["living_donor_state"] = n_offered - 1
    spec = DiscreteModelSpec(
        variant=variant,
        n_patient=H, death_index=n_live,
        n_organ=K, no_offer_index=n_offered,
        transition=random_transition(rng, n_live),
        offer_prob=offer, wait_reward=wait, transplant_reward=reward,
        discount=discount, **kwargs,
    )
    return validate_model(spec)


def structured_base_spec(rng, n_live=5, n_offered=4, discount=0.9):
    """Spec satisfying the IFR/monotone-reward premises of the threshold
    theorem: IFR patient kernel, health-independent offers, wait reward
    nonincreasing in sickness, transplant reward depending on the organ
    only and nonincreasing in its index.
    """
    H, K = n_live + 1, n_offered + 1
    wait = np.append(np.sort(rng.uniform(0.1, 1.0, n_live))[::-1], 0.0)
    organ_reward = np.sort(rng.uniform(1.0, 15.0, n_offered))[::-1]
    reward = np.zeros((H, K))
    reward[:-1, :-1] = organ_reward[None, :]
    spec = DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=H, death_index=n_live,
        n_organ=K, no_offer_index=n_offered,
        transition=ifr_transition(rng, n_live),
        offer_prob=random_offer(rng, n_live, n_offered),
        wait_reward=wait, transplant_reward=reward, discount=discount,
    )
    return validate_model(spec)


def random_living_donor_spec(rng, n_live=4, discount=None):
    """Living-donor chain: one offered column (the donor) plus no-offer."""
    H = n_live + 1
    discount = discount if discount is not None else rng.uniform(0.5, 0.95)
    wait = np.append(rng.uniform(0.1, 1.0, n_live), 0.0)
    reward = np.zeros((H, 2))
    reward[:-1, 0] = np.sort(rng.uniform(1.0, 12.0, n_live))[::-1]
    offer = np.tile([0.5, 0.5], (H, 1))
    spec = DiscreteModelSpec(
        variant=Variant.LIVING_DONOR,
        n_patient=H, death_index=n_live,
        n_organ=2, no_offer_index=1,
        transition=random_transition(rng, n_live),
        offer_prob=offer, wait_reward=wait, transplant_reward=reward,
        discount=discount, living_donor_state=0,
    )
    return validate_model(spec)


def random_dialysis_spec(rng, n_live=2, n_offered=1, discount=None):
    H, K = n_live + 1, n_offered + 1
    discount = discount if discount is not None else rng.uniform(0.5, 0.95)
    trans = np.stack([random_transition(rng, n_live),
                      random_transition(rng, n_live)])
    wait = np.stack([np.append(rng.uniform(0.1, 1.0, n_live), 0.0),
                     np.append(rng.uniform(0.1, 1.0, n_live), 0.0)])
    reward = np.zeros((H, K))
    reward[:-1, :-1] = rng.uniform(0.0, 15.0, (n_live, n_offered))
    spec = DiscreteModelSpec(
        variant=Variant.DIALYSIS,
        n_patient=H, death_index=n_live,
        n_organ=K, no_offer_index=n_offered,
        transition=trans, offer_prob=random_offer(rng, n_live, n_offered),
        wait_reward=wait, transplant_reward=reward, discount=discount,
    )
    return validate_model(spec)


def random_analog_spec(rng, n_live=3, n_offered=2, discount=None):
    """Continuous-analog spec: transplant reward = success_prob * reward."""
    H, K = n_live + 1, n_offered + 1
    discount = discount if discount is not None else rng.uniform(0.5, 0.95)
    success = np.zeros((H, K))
    success[:-1, :-1] = rng.uniform(0.0, 1.0, (n_live, n_offered))
    success_reward = float(rng.uniform(5.0, 15.0))
    spec = DiscreteModelSpec(
        variant=Variant.CONTINUOUS_ANALOG,
        n_patient=H, death_index=n_live,
        n_organ=K, no_offer_index=n_offered,
        transition=random_transition(rng, n_live),
        offer_prob=random_offer(rng, n_live, n_offered),
        wait_reward=np.append(rng.uniform(0.1, 1.0, n_live), 0.0),
        transplant_reward=success * success_reward, discount=discount,
        success_prob=success, success_reward=success_reward,
    )
    return validate_model(spec)


def random_spec(rng, variant, n_live=2, n_offered=1):
    """Random spec of any variant; the living-donor chain ignores
    ``n_offered`` (its one column is the donor)."""
    if variant is Variant.LIVING_DONOR:
        return random_living_donor_spec(rng, n_live)
    if variant is Variant.DIALYSIS:
        return random_dialysis_spec(rng, n_live, n_offered)
    if variant is Variant.CONTINUOUS_ANALOG:
        return random_analog_spec(rng, n_live, n_offered)
    return random_base_spec(rng, n_live, n_offered, variant=variant)


def banded_spec(spec, width=1):
    """The spec with every live row of its transition(s) cut to the band
    |h' - h| <= ``width`` plus the death column and renormalized: a sparse
    kernel like a health chain's."""
    states = np.arange(spec.n_patient)
    near = np.abs(states[:, None] - states[None, :]) <= width
    near[:, spec.death_index] = True
    trans = spec.transition * near
    return validate_model(replace(
        spec, transition=trans / trans.sum(axis=-1, keepdims=True)))


def reversal_permutations(spec):
    """Old patient and organ indices of :func:`reversed_spec`'s states."""
    return ([spec.death_index] + spec.live_patients()[::-1].tolist(),
            [spec.no_offer_index] + spec.offered_organs()[::-1].tolist())


def reversed_spec(spec):
    """Same 2-D model with death and no-offer moved to index 0, both live
    axes reversed and the orientation flags flipped."""
    perm_h, perm_k = reversal_permutations(spec)
    cells = np.ix_(perm_h, perm_k)
    return validate_model(replace(
        spec,
        death_index=0, no_offer_index=0,
        transition=spec.transition[np.ix_(perm_h, perm_h)],
        offer_prob=spec.offer_prob[cells],
        wait_reward=spec.wait_reward[perm_h],
        transplant_reward=spec.transplant_reward[cells],
        success_prob=(None if spec.success_prob is None
                      else spec.success_prob[cells]),
        living_donor_state=(None if spec.living_donor_state is None
                            else perm_k.index(spec.living_donor_state)),
        patient_orientation=Orientation.LARGER_IS_BETTER,
        organ_orientation=Orientation.LARGER_IS_BETTER,
    ))


def risk_base_spec(rng, n_live=3, n_offered=2, min_death=0.1):
    """Base spec with unit wait rewards and guaranteed death mass, as the
    risk-sensitive recursion requires."""
    H, K = n_live + 1, n_offered + 1
    wait = np.append(np.ones(n_live), 0.0)
    reward = np.zeros((H, K))
    reward[:-1, :-1] = rng.uniform(1.0, 10.0, (n_live, n_offered))
    spec = DiscreteModelSpec(
        variant=Variant.BASE,
        n_patient=H, death_index=n_live,
        n_organ=K, no_offer_index=n_offered,
        transition=random_transition(rng, n_live, min_death=min_death),
        offer_prob=random_offer(rng, n_live, n_offered),
        wait_reward=wait, transplant_reward=reward, discount=0.9,
    )
    return validate_model(spec)


def random_lifetime_pmf(rng, spec, max_j=6):
    pmf = rng.dirichlet(np.ones(max_j + 1), size=(spec.n_patient, spec.n_organ))
    pmf[spec.death_index, :, :] = 0.0
    pmf[spec.death_index, :, 0] = 1.0
    return pmf
