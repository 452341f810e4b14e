"""Seeded benchmark inputs, built without the organstop package.

Every document is drawn from the seed with Python's ``random`` or numpy's
seeded generator, turned into plain lists and written with the standard
``json`` module, so two commits of organstop see byte-identical inputs for
the same seed.  The grid models satisfy the premises of the
threshold theorem: a banded IFR patient kernel, health-independent offers,
and rewards that fall as health or organ quality worsens.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

# the README's 3x3 model, as written there
README_MODEL = {
    "variant": "base",
    "n_patient": 3, "death_index": 2,
    "n_organ": 3, "no_offer_index": 2,
    "transition": [[0.7, 0.2, 0.1], [0.0, 0.8, 0.2], [0.0, 0.0, 1.0]],
    "offer_prob": [[0.3, 0.3, 0.4]] * 3,
    "wait_reward": [1.0, 0.6, 0.0],
    "transplant_reward": [[8.0, 5.0, 0.0], [7.0, 4.0, 0.0], [0.0, 0.0, 0.0]],
    "discount": 0.9,
}

# the README's continuous model: Uniform(0,1) offers, Poisson rate 1,
# Exp(0.5) lifetime
README_CONTINUOUS = {
    "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
    "arrivals": {"kind": "poisson", "rate": 1.0},
    "lifetime": {"family": "exponential", "rate": 0.5},
}

#: plateau lambda = (3 - sqrt 5) / 2 of the README continuous model
README_PLATEAU = (3.0 - math.sqrt(5.0)) / 2.0


def grid_model(seed: int, n_live: int, n_offered: int, discount: float,
               band: int = 4) -> dict:
    """Model section of a banded IFR grid with small seeded jitter.

    Row i moves to i..i+band (clamped at the sickest live state) with
    seed-drawn band weights and dies with a probability that grows in i, so
    each row is stochastically larger than the one before it.  The jitter is
    small, so the solver does about the same work for every seed.
    """
    rng = random.Random(seed)
    H, K = n_live + 1, n_offered + 1
    death = n_live
    weights = [1.0 + 0.05 * rng.random() for _ in range(band + 1)]
    total = sum(weights)
    weights = [w / total for w in weights]
    d0 = 0.002 * (1.0 + 0.05 * rng.random())
    d1 = 0.05 * (1.0 + 0.05 * rng.random())
    transition = [_chain_row(i, n_live, weights,
                             d0 + (d1 - d0) * i / max(n_live - 1, 1))
                  for i in range(n_live)]
    transition.append([0.0] * n_live + [1.0])

    no_offer = 0.7 + 0.02 * rng.random()
    raw = [1.0 + 0.1 * rng.random() for _ in range(n_offered)]
    scale = (1.0 - no_offer) / sum(raw)
    offer_row = [p * scale for p in raw] + [no_offer]
    offer_row[-1] = 1.0 - sum(offer_row[:-1])

    w_hi = 1.0 + 0.02 * rng.random()
    wait = [w_hi * (1.0 - 0.5 * i / n_live) for i in range(n_live)] + [0.0]
    # transplant reward depends on the organ only, as the theorem assumes
    r_hi = 200.0 * (1.0 + 0.02 * rng.random())
    organ = [r_hi * (1.0 - 0.8 * k / n_offered) for k in range(n_offered)]
    reward = [organ + [0.0] for _ in range(n_live)] + [[0.0] * K]
    return {
        "variant": "base",
        "n_patient": H, "death_index": death,
        "n_organ": K, "no_offer_index": n_offered,
        "transition": transition,
        "offer_prob": [offer_row] * H,
        "wait_reward": wait,
        "transplant_reward": reward,
        "discount": discount,
    }


def _chain_row(i, n_live, weights, d):
    """Banded row: move i -> i..i+band (clamped), die with probability d."""
    row = [0.0] * (n_live + 1)
    for j, w in enumerate(weights):
        row[min(i + j, n_live - 1)] += (1.0 - d) * w
    row[n_live] = d
    return row


def _dirichlet_rows(rng, n_rows, n_cols, min_death):
    """Random live rows with at least ``min_death`` mass on the last column."""
    rows = rng.dirichlet(np.ones(n_cols), size=n_rows) * (1.0 - min_death)
    rows[:, -1] += min_death
    return rows


def _random_transition(rng, n_live, min_death=0.02):
    H = n_live + 1
    trans = np.zeros((H, H))
    trans[:n_live] = _dirichlet_rows(rng, n_live, H, min_death)
    trans[-1, -1] = 1.0
    return trans


def _offer_rows(rng, H, K):
    return np.tile(rng.dirichlet(np.ones(K)), (H, 1))


def small_model(rng, variant: str) -> dict:
    """One small random model (2-30 live states) of the given variant."""
    n_live = int(rng.integers(2, 31))
    n_off = int(rng.integers(1, 7))
    H, K = n_live + 1, n_off + 1
    discount = float(rng.uniform(0.5, 0.9))
    wait = np.append(rng.uniform(0.1, 1.0, n_live), 0.0)
    reward = np.zeros((H, K))
    reward[:-1, :-1] = rng.uniform(0.0, 15.0, (n_live, n_off))
    model = {"variant": variant, "n_patient": H, "death_index": n_live,
             "n_organ": K, "no_offer_index": n_off, "discount": discount}
    offer = _offer_rows(rng, H, K)
    trans = _random_transition(rng, n_live)
    if variant == "living_donor":
        K = 2
        model.update(n_organ=2, no_offer_index=1, living_donor_state=0)
        reward = np.zeros((H, 2))
        reward[:-1, 0] = np.sort(rng.uniform(1.0, 12.0, n_live))[::-1]
        offer = np.tile([0.5, 0.5], (H, 1))
    elif variant == "combined":
        model["living_donor_state"] = n_off - 1
    elif variant == "dialysis":
        trans = np.stack([trans, _random_transition(rng, n_live)])
        wait = np.stack([wait, np.append(rng.uniform(0.1, 1.0, n_live), 0.0)])
    elif variant == "continuous_analog":
        success = np.zeros((H, K))
        success[:-1, :-1] = rng.uniform(0.2, 1.0, (n_live, n_off))
        s_reward = float(rng.uniform(5.0, 15.0))
        reward = success * s_reward
        model.update(success_prob=success.tolist(), success_reward=s_reward)
    model.update(transition=trans.tolist(), offer_prob=offer.tolist(),
                 wait_reward=wait.tolist(), transplant_reward=reward.tolist())
    return model


def risk_model(rng) -> tuple[dict, dict]:
    """Base model with unit wait rewards and a lifetime pmf per cell."""
    n_live = int(rng.integers(2, 31))
    n_off = int(rng.integers(1, 7))
    H, K = n_live + 1, n_off + 1
    reward = np.zeros((H, K))
    reward[:-1, :-1] = rng.uniform(1.0, 10.0, (n_live, n_off))
    pmf = rng.dirichlet(np.ones(7), size=(H, K))
    pmf[-1] = 0.0
    pmf[-1, :, 0] = 1.0
    model = {"variant": "base", "n_patient": H, "death_index": n_live,
             "n_organ": K, "no_offer_index": n_off, "discount": 0.9,
             "transition": _random_transition(rng, n_live, 0.1).tolist(),
             "offer_prob": _offer_rows(rng, H, K).tolist(),
             "wait_reward": [1.0] * n_live + [0.0],
             "transplant_reward": reward.tolist()}
    risk = {"risk_coefficient": float(rng.uniform(0.05, 0.5)),
            "lifetime_pmf": pmf.tolist()}
    return model, risk


def robust_chain(seed: int, n_live: int = 40) -> dict:
    """Living-donor chain with a banded IFR kernel and falling rewards."""
    rng = random.Random(seed)
    weights = [1.0 + 0.1 * rng.random() for _ in range(4)]
    weights = [w / sum(weights) for w in weights]
    transition = [_chain_row(i, n_live, weights, 0.02 + 0.1 * i / n_live)
                  for i in range(n_live)]
    transition.append([0.0] * n_live + [1.0])
    donor = [2.3 * (1.0 + 0.02 * rng.random()) * (1.0 - 0.3 * i / n_live)
             for i in range(n_live)]
    return {
        "variant": "living_donor",
        "n_patient": n_live + 1, "death_index": n_live,
        "n_organ": 2, "no_offer_index": 1, "living_donor_state": 0,
        "transition": transition,
        "offer_prob": [[0.5, 0.5]] * (n_live + 1),
        "wait_reward": [1.0 - 0.5 * i / n_live for i in range(n_live)] + [0.0],
        "transplant_reward": [[r, 0.0] for r in donor] + [[0.0, 0.0]],
        "discount": 0.75,
    }


SMALL_VARIANTS = ("base", "combined", "living_donor", "dialysis",
                  "continuous_analog")
SMALL_PER_VARIANT = 300
RISK_SPECS = 50
ROBUST_RADII = (0.05, 0.1, 0.2)
MC_TRAJECTORIES = 3000
GRID_401_REPEATS = 20


def library_document(seed: int) -> dict:
    """Every input of the library mix, as one plain-JSON document."""
    rng = np.random.default_rng(seed)
    small = [{"model": small_model(rng, v)}
             for _ in range(SMALL_PER_VARIANT) for v in SMALL_VARIANTS]
    for _ in range(RISK_SPECS):
        model, risk = risk_model(rng)
        small.append({"model": model, "risk": risk})
    # 3 live states x (3 offers + no offer) = 12 cells to enumerate
    brute = small_model(rng, "combined")
    while brute["n_patient"] != 4 or brute["n_organ"] != 4:
        brute = small_model(rng, "combined")
    jitter = float(rng.uniform(-0.02, 0.02))
    return {
        "small": small,
        "grid401": grid_model(seed, 400, 200, 0.99),
        "grid401_repeats": GRID_401_REPEATS,
        "robust": {"model": robust_chain(seed), "radii": list(ROBUST_RADII)},
        "brute_force": brute,
        "curves": {
            "offers": {"family": "uniform", "low": 0.0, "high": 1.0},
            "rate": 1.0 + jitter,
            "erlang": {"shape": 3, "rate": 1.0},
            "ode": {"t_max": 60.0, "step": 0.1},
            "renewal": {"t_max": 12.0, "step": 0.05},
            "critical_values": [0.8 + jitter, 0.5 + jitter, 0.2 + jitter],
        },
        "mc": {"trajectories": MC_TRAJECTORIES, "seed": seed},
    }


def documents(workload: str, seed: int) -> dict[str, dict]:
    """File name -> JSON document for every input of ``workload``."""
    if workload == "readme_cli":
        return {"model.json": {"model": README_MODEL},
                "ct.json": {"continuous": README_CONTINUOUS}}
    if workload == "grid_cli":
        return {"grid.json": {"model": grid_model(seed, 2000, 200, 0.999)}}
    if workload == "library_mix":
        return {"library.json": library_document(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def write_json(obj, path: str) -> dict:
    """Write ``obj`` with plain json; return the file's size and sha256."""
    data = json.dumps(obj, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return {"path": os.path.basename(path), "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}
