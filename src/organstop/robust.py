"""Robust value iteration over Kullback-Leibler ambiguity balls.

The robust model is defined for the living-donor (one-dimensional) chain:
each patient state's transition row is the center of a KL ball whose radius
is that state's ambiguity level, and the wait value takes the worst case
over the ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Action,
    DiscreteModelSpec,
    ModelValidationError,
    Policy,
    VARIANT_RULES,
    ValueFunction,
    Variant,
    non_finite_errors,
    validate_model,
)
from .solver import (SolveOptions, _backup, _Continuation, _solve,
                     _value_array, solve_value_iteration)
from .structure import threshold_1d

# a tilt is accepted at |KL(p || q) - radius| <= KL_RESIDUAL_TOL
KL_RESIDUAL_TOL = 1e-12
KL_MAX_STEPS = 200


@dataclass(frozen=True)
class AmbiguitySpec:
    """Per-state KL radii around the spec's (maximum-likelihood) rows."""

    levels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.levels, dtype=float)
        errors = non_finite_errors("ambiguity levels", arr)
        if errors:
            raise ModelValidationError(errors)
        if (arr < 0).any():
            raise ModelValidationError(["ambiguity level negative"])
        arr.setflags(write=False)
        object.__setattr__(self, "levels", arr)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    mask = p > 0
    if (q[mask] <= 0).any():
        return np.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_worst_case(nominal: np.ndarray, values: np.ndarray,
                  radius: float) -> tuple[np.ndarray, float]:
    """Worst expectation of ``values`` in one KL ball: see :func:`kl_worst_cases`."""
    p, worst = kl_worst_cases(np.asarray(nominal, dtype=float)[None], values, [radius])
    return p[0], float(worst[0])


def kl_worst_cases(nominal: np.ndarray, values: np.ndarray,
                   radii) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, minimize the expectation of ``values`` over a KL ball.

    Row i solves inf_p p . v s.t. D(p || q) <= r, q = nominal[i], r = radii[i],
    p vanishing wherever q does.  A zero radius or flat values keep q; a radius
    reaching the KL distance to the minimizing vertex (q conditioned on its
    least values) gives the vertex.  Otherwise p is the tilt q exp(-v/theta)/Z
    with KL(p || q) = r, where the dual max_theta -theta r - theta log Z is
    stationary (Iyengar 2005; Nilim and El Ghaoui 2005).  All such rows run
    Newton on s = log theta together (dKL/ds = -Var_p(v / theta)), bisecting
    their own brackets when a step leaves them, until |KL - r| <=
    KL_RESIDUAL_TOL or the bracket has no midpoint left (the last feasible
    tilt is kept); a row still open after KL_MAX_STEPS raises ValueError.
    """
    q, v, r = (np.asarray(a, dtype=float) for a in (nominal, values, radii))
    if (r < 0).any():
        raise ValueError("radius must be nonnegative")
    support = q > 0
    vmin = np.where(support, v, np.inf).min(axis=1)
    moves = (r > 0) & (np.where(support, v, -np.inf).max(axis=1) - vmin >= 1e-15)
    argmin = support & (v <= vmin[:, None] + 1e-15)
    vertex_mass = np.where(argmin, q, 0.0).sum(axis=1)
    vertex = moves & (r >= -np.log(vertex_mass) - 1e-12)
    p = q.copy()
    p[vertex] = np.where(argmin, q, 0.0)[vertex] / vertex_mass[vertex, None]

    t = np.flatnonzero(moves & ~vertex)
    q_t, r_t = q[t], r[t]
    gaps = np.where(support, v - vmin[:, None], 0.0)[t]  # shifted by the minimum
    mean = (q_t * gaps).sum(axis=1)
    # each row's deviations on a power-of-two scale 2^k (exact), so gaps
    # near 1e300 keep a finite square; k = 0 for ordinary rows
    dev = gaps - mean[:, None]
    k = np.maximum(0, np.frexp(np.abs(dev).max(axis=1))[1] - 500)
    var = (q_t * np.ldexp(dev, -k[:, None]) ** 2).sum(axis=1)
    # start at the small-radius asymptote KL ~ Var_q(gaps) / (2 theta^2)
    s = 0.5 * (np.log(np.maximum(var, 1e-300)) + 2 * k * np.log(2.0)
               - np.log(2.0 * r_t))
    lo, hi, live = np.full(len(t), -np.inf), np.full(len(t), np.inf), np.arange(len(t))
    for _ in range(KL_MAX_STEPS):
        if not len(live):
            break
        x = np.minimum(gaps[live] / np.exp(s[live, None]), 1e300)
        w = q_t[live] * np.exp(-x)
        z = w.sum(axis=1)
        pt = w / z[:, None]
        mean = (pt * x).sum(axis=1)
        excess = -mean - np.log(z) - r_t[live]  # KL(pt || q) - r
        var = (pt * (x - mean[:, None]) ** 2).sum(axis=1)
        over = excess > 0  # theta too small
        lo[live] = np.where(over, s[live], lo[live])
        hi[live] = np.where(over, hi[live], s[live])
        done = np.abs(excess) <= KL_RESIDUAL_TOL
        p[t[live[done | ~over]]] = pt[done | ~over]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = s[live] + np.clip(excess / var, -64.0, 64.0)
            mid = 0.5 * (lo[live] + hi[live])
        inside = (newton > lo[live]) & (newton < hi[live])
        s[live] = np.where(inside | ~np.isfinite(mid), newton, mid)
        done |= (s[live] <= lo[live]) | (s[live] >= hi[live])
        live = live[~done]
    if len(live):
        raise ValueError(f"KL tilt not converged in {KL_MAX_STEPS} steps")
    return p, np.where(vertex, vmin, (p * v).sum(axis=1))


def _worst_case_wait(spec, ambiguity, live, values):
    """Wait value (1, H) under the worst row in each KL ball; ``live``
    lists the states other than death."""
    _, worst = kl_worst_cases(spec.transition[live], values, ambiguity.levels[live])
    cont = np.zeros((1, spec.n_patient))
    cont[0, live] = spec.wait_reward[live] + spec.discount * worst
    return cont


def _check_chain(spec, ambiguity):
    """What the robust solver and its operator both refuse."""
    if spec.variant is not Variant.LIVING_DONOR:
        raise ModelValidationError(
            ["robust solving is defined for the living_donor variant only"])
    if ambiguity.levels.shape != (spec.n_patient,):
        raise ModelValidationError(["ambiguity levels length mismatch"])


def robust_backup(spec: DiscreteModelSpec, ambiguity: AmbiguitySpec,
                  values: np.ndarray) -> np.ndarray:
    """One application of the robust Bellman operator."""
    _check_chain(spec, ambiguity)
    return _backup(spec, _worst_case_wait(spec, ambiguity, spec.live_patients(),
                                          _value_array(spec, values)),
                   VARIANT_RULES[spec.variant].terminal_rewards(spec))


def robust_value_iteration(spec: DiscreteModelSpec, ambiguity: AmbiguitySpec,
                           opts: SolveOptions = SolveOptions()
                           ) -> tuple[ValueFunction, Policy]:
    """Worst-case value function and greedy policy for the robust chain."""
    validate_model(spec)
    _check_chain(spec, ambiguity)
    live = spec.live_patients()
    problem = _Continuation(spec, VARIANT_RULES[spec.variant].terminal_rewards(spec))
    # the chain has no organ axis: its value is the decline value u itself
    return _solve(problem,
                  lambda u, _: _worst_case_wait(spec, ambiguity, live, u[0]),
                  opts, discount=spec.discount)


@dataclass(frozen=True)
class RobustComparison:
    """Dominance report between the robust and myopic solutions."""

    transplant_subset_holds: bool
    subset_violations: list[int]
    myopic_limit: int | None
    robust_limit: int | None
    limit_comparison: str        # "holds" | "violated" | "inapplicable"
    robust_values: np.ndarray
    myopic_values: np.ndarray


def compare_robust_myopic(spec: DiscreteModelSpec, ambiguity: AmbiguitySpec,
                          opts: SolveOptions = SolveOptions()) -> RobustComparison:
    """Check the robust-vs-myopic dominance properties.

    (a) the myopic transplant set must be a subset of the robust transplant
    set; (b) when both policies are single-threshold, the robust control
    limit must not exceed the myopic one.  Non-threshold policies make (b)
    inapplicable, which is reported rather than raised.
    """
    vf_myopic, pol_myopic = solve_value_iteration(spec, opts)
    if not vf_myopic.converged:
        raise ModelValidationError(["myopic solve did not converge"])
    vf_robust, pol_robust = robust_value_iteration(spec, ambiguity, opts)
    if not vf_robust.converged:
        raise ModelValidationError(["robust solve did not converge"])

    myo = np.asarray(pol_myopic.actions) == Action.TRANSPLANT_LIVING
    rob = np.asarray(pol_robust.actions) == Action.TRANSPLANT_LIVING
    violations = [h for h in range(spec.n_patient) if myo[h] and not rob[h]]

    lim_m = threshold_1d(pol_myopic.actions, spec.death_index)
    lim_r = threshold_1d(pol_robust.actions, spec.death_index)
    if lim_m is None or lim_r is None:
        comparison = "inapplicable"
    else:
        comparison = "holds" if lim_r <= lim_m else "violated"

    return RobustComparison(
        transplant_subset_holds=not violations,
        subset_violations=violations,
        myopic_limit=lim_m, robust_limit=lim_r,
        limit_comparison=comparison,
        robust_values=vf_robust.values, myopic_values=vf_myopic.values,
    )
