"""Output checks, computed independently of organstop where it matters.

Values in result documents are rounded to 12 significant digits, so the
residual and greedy checks allow ``ROUNDING`` times the value scale on top
of the solver tolerance.  Flags are compared by truth value: the documents
write booleans as 0 and 1.
"""

from __future__ import annotations

import json

import numpy as np

from harness import require

ROUNDING = 2e-11
WAIT, TRANSPLANT, NONE = 0, 1, 5


def base_arrays(model: dict) -> dict:
    return {k: np.asarray(model[k], dtype=float)
            for k in ("transition", "offer_prob", "wait_reward",
                      "transplant_reward")} | {
        "discount": float(model["discount"]),
        "death": model["death_index"], "nooff": model["no_offer_index"]}


def base_continuation(m: dict, values: np.ndarray) -> np.ndarray:
    vbar = (m["offer_prob"] * values).sum(axis=1)
    return m["wait_reward"] + m["discount"] * (m["transition"] @ vbar)


def base_backup(m: dict, values: np.ndarray) -> np.ndarray:
    """Bellman operator of the base variant, written out from the model."""
    cont = base_continuation(m, values)
    out = np.maximum(m["transplant_reward"], cont[:, None])
    out[:, m["nooff"]] = cont
    out[m["death"], :] = 0.0
    return out


def check_base_solution(m: dict, values, policy, tol: float, slack: float):
    """Bellman residual within ``tol`` and the policy greedy for ``values``."""
    values = np.asarray(values, dtype=float)
    policy = np.asarray(policy)
    require(values.shape == m["transplant_reward"].shape, "value shape")
    require(policy.shape == values.shape, "policy shape")
    require(np.isfinite(values).all(), "non-finite values")
    eps = tol + slack * max(1.0, float(np.abs(values).max()))
    resid = float(np.abs(base_backup(m, values) - values).max())
    require(resid <= eps, f"Bellman residual {resid:.3g} above {eps:.3g}")
    cont = base_continuation(m, values)[:, None]
    R = m["transplant_reward"]
    live = np.ones(values.shape[0], dtype=bool)
    live[m["death"]] = False
    offered = np.ones(values.shape[1], dtype=bool)
    offered[m["nooff"]] = False
    grid = policy[live][:, offered]
    gain = (R - cont)[live][:, offered]
    require(np.isin(grid, (WAIT, TRANSPLANT)).all(), "illegal action")
    require((gain[grid == TRANSPLANT] >= -eps).all(),
            "transplants where waiting is better")
    require((gain[grid == WAIT] <= eps).all(),
            "waits where transplanting is better")
    require((policy[live, m["nooff"]] == WAIT).all(), "no-offer column")
    require((policy[m["death"]] == NONE).all(), "death row")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_solve_doc(path: str, m: dict, tol: float) -> dict:
    doc = load_json(path)
    require(doc.get("kind") == "solve_results", "kind")
    require(doc["converged"], "not converged")
    require(doc["residual"] <= tol, f"reported residual {doc['residual']}")
    check_base_solution(m, doc["values"], doc["policy"], tol, ROUNDING)
    return doc


def check_analysis_doc(path: str, policy) -> None:
    """Same policy, regions partition the live offered grid, control limits.

    The benchmark models meet the threshold theorem's premises, so both
    control-limit forms must hold.
    """
    doc = load_json(path)
    policy = np.asarray(policy)
    require(doc.get("kind") == "structure_results", "kind")
    require(np.array_equal(np.asarray(doc["policy"]), policy), "policy changed")
    require(doc["patient_based"]["is_control_limit"], "no patient control limit")
    require(doc["organ_based"]["is_control_limit"], "no organ control limit")
    H, K = policy.shape
    seen = np.zeros((H, K), dtype=int)
    for region in doc["regions"]:
        cells = np.asarray(region["cells"], dtype=int).reshape(-1, 2)
        np.add.at(seen, (cells[:, 0], cells[:, 1]), 1)
        require((policy[cells[:, 0], cells[:, 1]] == region["action"]).all(),
                "region action")
    require(doc["region_count"] == len(doc["regions"]), "region count")
    require((seen[:-1, :-1] == 1).all() and seen[-1].sum() == 0
            and seen[:, -1].sum() == 0, "regions do not partition the grid")


def check_region_csv(path: str, policy) -> None:
    H, K = np.asarray(policy).shape
    with open(path) as fh:
        header = fh.readline().strip()
        rows = sum(1 for _ in fh)
    require(header == "h,k,action,region_id", "csv header")
    require(rows == (H - 1) * (K - 1), f"csv has {rows} rows")


def check_region_svg(path: str, policy) -> None:
    with open(path) as fh:
        svg = fh.read()
    require(svg.startswith("<svg") and svg.rstrip().endswith("</svg>"),
            "not an svg document")
    labels = {WAIT: ">W<", TRANSPLANT: ">T<", NONE: ">-<"}
    for a in np.unique(np.asarray(policy)):
        require(labels.get(int(a), "") in svg, f"action {a} missing")


def check_simulate_doc(path: str, n: int, value: float) -> None:
    """Sample mean within 4 standard errors of the solver value."""
    doc = load_json(path)
    require(doc.get("kind") == "simulate_results", "kind")
    require(doc["n"] == n, "sample size")
    require(doc.get("truncated", 0) == 0, "truncated trajectories")
    require(abs(doc["solver_value"] - value) <= 1e-6, "solver value")
    gap = abs(doc["mean"] - doc["solver_value"])
    require(gap <= 4 * doc["std_error"],
            f"mean off by {gap:.3g} > 4 SE ({doc['std_error']:.3g})")


def check_curve_doc(path: str, plateau: float, n_times: int) -> None:
    doc = load_json(path)
    require(doc.get("kind") == "curve_results", "kind")
    require(len(doc["times"]) == n_times, "time grid")
    require(not doc["truncated"], "truncated")
    require(doc["nonincreasing"], "curve increases")
    gap = abs(doc["values"][0] - plateau)
    require(gap <= 1e-4, f"plateau off by {gap:.3g}")
