"""Hand-built policies that separate the one-dimensional structure notions.

Each fixture returns a small valid model together with a legal stationary
policy chosen for its shape, not for optimality.  They witness that:

* a policy can have patient-axis control limits for every organ yet fail
  the organ-axis property (``patient_limit_only``);
* both one-dimensional checks can pass while the acceptance regions are
  disconnected and the row structure fails (``disconnected_regions``);
* the full row structure can hold with exactly one region per action
  (``connected_regions``).
"""

from __future__ import annotations

import numpy as np

from .model import (
    Action,
    DiscreteModelSpec,
    Policy,
    Variant,
    validate_policy,
)

W = int(Action.WAIT)
T = int(Action.TRANSPLANT)
L = int(Action.TRANSPLANT_LIVING)
N = int(Action.NONE)


def _uniform_spec(variant, n_live_patient, n_offered, living_donor=False):
    """Valid model of the requested shape with bland uniform dynamics."""
    H = n_live_patient + 1
    K = n_offered + 1
    trans = np.zeros((H, H))
    trans[:-1, :] = 1.0 / H
    trans[:-1, -1] += 1.0 - trans[:-1, :].sum(axis=1)
    trans[-1, -1] = 1.0
    offer = np.zeros((H, K))
    offer[:, :-1] = 0.9 / n_offered
    offer[:, -1] = 0.1
    wait = np.ones(H)
    wait[-1] = 0.0
    reward = np.zeros((H, K))
    reward[:-1, :-1] = 10.0 - np.arange(n_offered)[None, :]
    return DiscreteModelSpec(
        variant=variant,
        n_patient=H, death_index=H - 1,
        n_organ=K, no_offer_index=K - 1,
        transition=trans, offer_prob=offer, wait_reward=wait,
        transplant_reward=reward, discount=0.9,
        living_donor_state=(n_offered - 1) if living_donor else None,
    )


def _with_death(spec, grid):
    actions = np.full((spec.n_patient, spec.n_organ), N, dtype=np.int64)
    actions[:-1, :] = grid
    return validate_policy(spec, Policy(spec.variant, actions))


def patient_limit_only():
    """Patient-axis limits hold for every organ; organ-axis limits fail.

    The middle row accepts a middle band of organs, so scanning along the
    organ axis splits the wait action into two runs.
    """
    spec = _uniform_spec(Variant.BASE, 3, 5)
    grid = np.array([
        [W, W, W, W, W, W],
        [W, T, T, W, W, W],
        [W, T, T, T, W, W],
    ])
    return spec, _with_death(spec, grid)


def disconnected_regions():
    """Both one-dimensional checks pass, yet there are four regions.

    The living-donor cell in the far corner is isolated from the other
    living-donor cells, and the first row breaks the transplant-prefix
    row structure.
    """
    spec = _uniform_spec(Variant.COMBINED, 3, 3, living_donor=True)
    grid = np.array([
        [L, L, W, W],
        [T, W, W, W],
        [T, T, L, L],
    ])
    return spec, _with_death(spec, grid)


def connected_regions():
    """Transplant-prefix rows with monotone limits: one region per action."""
    spec = _uniform_spec(Variant.COMBINED, 4, 3, living_donor=True)
    grid = np.array([
        [T, W, W, W],
        [T, W, W, W],
        [T, T, L, L],
        [T, T, T, L],
    ])
    return spec, _with_death(spec, grid)
