"""Robust value iteration over Kullback-Leibler ambiguity balls.

The robust model is defined for the living-donor (one-dimensional) chain:
each patient state's transition row is the center of a KL ball whose radius
is that state's ambiguity level, and the wait value takes the worst case
over the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
from .solver import SolveOptions, _backup, _solve, solve_value_iteration
from .structure import threshold_1d

KL_RESIDUAL_TOL = 1e-10


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
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if (q[mask] <= 0).any():
        return np.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_worst_case(nominal: np.ndarray, values: np.ndarray,
                  radius: float) -> tuple[np.ndarray, float]:
    """Minimize the expectation of ``values`` over the KL ball.

    Solves inf_p sum_i p_i v_i subject to D(p || nominal) <= radius.  The
    ball is support-restricted: p must vanish wherever nominal does.  The
    minimizer is the exponentially tilted distribution
    p_i proportional to q_i exp(-v_i / theta), with theta found by bisection
    on the KL constraint; when the radius reaches the KL distance to the
    minimizing vertex, the vertex is returned.
    """
    q = np.asarray(nominal, dtype=float)
    v = np.asarray(values, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    support = q > 0
    vs = v[support]
    qs = q[support]
    vmin = vs.min()

    if radius == 0.0 or vs.max() - vmin < 1e-15:
        return q.copy(), float(q @ v)

    # vertex: nominal conditioned on the minimum-value support
    argmin = vs <= vmin + 1e-15
    vertex_mass = qs[argmin].sum()
    kl_vertex = -np.log(vertex_mass)
    if radius >= kl_vertex - 1e-12:
        p = np.zeros_like(q)
        ps = np.zeros_like(qs)
        ps[argmin] = qs[argmin] / vertex_mass
        p[support] = ps
        return p, float(vmin)

    def tilt(theta):
        w = qs * np.exp(-(vs - vmin) / theta)
        return w / w.sum()

    def kl_at(theta):
        return kl_divergence(tilt(theta), qs)

    lo, hi = 1.0, 1.0
    while kl_at(hi) > radius:
        hi *= 2.0
    while kl_at(lo) < radius:
        lo /= 2.0
        if lo < 1e-300:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl_at(mid) > radius:
            lo = mid
        else:
            hi = mid
        if abs(kl_at(hi) - radius) <= KL_RESIDUAL_TOL:
            break
    ps = tilt(hi)  # hi side satisfies KL <= radius
    p = np.zeros_like(q)
    p[support] = ps
    return p, float(ps @ vs)


def _worst_case_wait(spec, ambiguity, values):
    """Wait value per patient state under the worst row in each KL ball."""
    cont = np.zeros(spec.n_patient)
    for h in range(spec.n_patient):
        if h == spec.death_index:
            continue
        _, worst = kl_worst_case(spec.transition[h], values,
                                 float(ambiguity.levels[h]))
        cont[h] = spec.wait_reward[h] + spec.discount * worst
    return {Action.WAIT: cont}


def robust_backup(spec: DiscreteModelSpec, ambiguity: AmbiguitySpec,
                  values: np.ndarray) -> np.ndarray:
    return _backup(spec, _worst_case_wait(spec, ambiguity, values),
                   VARIANT_RULES[spec.variant].terminal_rewards(spec))


def robust_value_iteration(spec: DiscreteModelSpec, ambiguity: AmbiguitySpec,
                           opts: SolveOptions = SolveOptions()
                           ) -> tuple[ValueFunction, Policy]:
    """Worst-case value function and greedy policy for the robust chain."""
    validate_model(spec)
    if spec.variant is not Variant.LIVING_DONOR:
        raise ModelValidationError(
            ["robust solving is defined for the living_donor variant only"])
    if len(np.asarray(ambiguity.levels)) != spec.n_patient:
        raise ModelValidationError(["ambiguity levels length mismatch"])
    return _solve(spec, partial(_worst_case_wait, spec, ambiguity),
                  VARIANT_RULES[spec.variant].terminal_rewards(spec), opts)


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
