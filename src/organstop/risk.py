"""Risk-sensitive certainty-equivalent value iteration.

Risk-averse patients maximize expected exponential utility of lifetime;
rewards are measured in epochs alive (one unit per epoch waited), so both
recursions here are undiscounted and converge only if death is reached:
:func:`organstop.solver._solve` stops either on a stalled step, with a
warning, and flags it non-converged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Action,
    DiscreteModelSpec,
    ModelValidationError,
    Policy,
    ROW_SUM_TOL,
    ValueFunction,
    Variant,
    non_finite_errors,
    validate_model,
)
from .solver import SolveOptions, _Continuation, _solve


@dataclass(frozen=True)
class RiskSpec:
    """Exponential-utility risk model.

    ``lifetime_pmf[h, k, j]`` is the probability of surviving j epochs after
    transplanting organ k in patient state h, j = 0..J.
    """

    risk_coefficient: float
    lifetime_pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.lifetime_pmf, dtype=float)
        errors = (non_finite_errors("risk_coefficient", self.risk_coefficient)
                  + non_finite_errors("lifetime_pmf", pmf))
        if errors:
            raise ModelValidationError(errors)
        if self.risk_coefficient <= 0:
            raise ModelValidationError(["risk_coefficient must be positive"])
        sums = pmf.sum(axis=-1)
        if np.abs(sums - 1.0).max() > ROW_SUM_TOL:
            raise ModelValidationError(
                ["lifetime_pmf rows must sum to 1 "
                 f"(worst deviation {np.abs(sums - 1.0).max():.3g})"])
        pmf.setflags(write=False)
        object.__setattr__(self, "lifetime_pmf", pmf)


def exp_utility(x, gamma):
    """u(x) = 1 - exp(-gamma x), computed without cancellation."""
    return -np.expm1(-gamma * np.asarray(x, dtype=float))


def exp_utility_inverse(y, gamma):
    return -np.log1p(-np.asarray(y, dtype=float)) / gamma


def certainty_equivalent(values, probs, gamma: float) -> float:
    """Deterministic outcome whose utility equals the expected utility.

    Always lies in [min(values), max(values)] and below the mean (u is
    concave).  If the expected utility numerically reaches 1, the result
    saturates at the maximum outcome and a warning is issued.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    eu = float(probs @ exp_utility(values, gamma))
    if eu >= 1.0 - 1e-300:
        warnings.warn("expected utility reached 1; certainty equivalent "
                      "saturated at the maximum outcome")
        return float(values.max())
    return float(exp_utility_inverse(eu, gamma))


def _transplant_ce(spec, risk):
    """Certainty-equivalent post-transplant lifetime per (h, k)."""
    gamma = risk.risk_coefficient
    j = np.arange(risk.lifetime_pmf.shape[-1])
    eu = risk.lifetime_pmf @ exp_utility(j, gamma)
    eu = np.clip(eu, 0.0, 1.0 - 1e-16)
    return exp_utility_inverse(eu, gamma)


def risk_sensitive_value_iteration(spec: DiscreteModelSpec, risk: RiskSpec,
                                   opts: SolveOptions = SolveOptions()
                                   ) -> tuple[ValueFunction, Policy]:
    """Fixed point of the certainty-equivalent recursion.

    Divergence is flagged via ``converged=False`` and a warning rather than
    an exception: a stalled step, or a wait-value expected utility so near 1
    that one more epoch alive no longer moves it (the iterate freezes).
    """
    validate_model(spec)
    _check_2d(spec)
    gamma = risk.risk_coefficient
    live = spec.live_patients()
    epoch = exp_utility(1.0, gamma)  # an epoch more: ew -> ew + (1 - ew) epoch
    saturated = False
    # utility is increasing: the organs declined at u are those whose
    # utility of 1 + T is at most u's, so the offer average splits alike
    problem = _Continuation(spec, {Action.TRANSPLANT: _transplant_ce(spec, risk)},
                            payoff=lambda t: exp_utility(1.0 + t, gamma))

    def waits(u, declined):
        nonlocal saturated
        # the expected utility given h', carried back one epoch
        ew = problem.carry(problem.expect(exp_utility(1.0 + u, gamma), declined))
        # an epoch's gain below the float spacing under 1 is no move at all
        saturated = saturated or bool(((1.0 - ew[:, live]) * epoch <= 2**-53).any())
        return exp_utility_inverse(np.clip(ew, 0.0, 1.0 - 1e-16), gamma)

    vf, policy = _solve(problem, waits, opts)
    if saturated:
        warnings.warn("wait-value expected utility saturated at 1; the "
                      "recursion likely diverges (is death reachable?)")
        vf = replace(vf, converged=False)
    return vf, policy


def lifetime_value_iteration(spec: DiscreteModelSpec, risk: RiskSpec,
                             opts: SolveOptions = SolveOptions()
                             ) -> tuple[ValueFunction, Policy]:
    """Risk-neutral counterpart: maximize expected lifetime in epochs.

    Serves as the gamma -> 0 reference for the risk-sensitive solver; a
    stalled step is flagged as there.
    """
    validate_model(spec)
    _check_2d(spec)
    j = np.arange(risk.lifetime_pmf.shape[-1])
    problem = _Continuation(spec, {Action.TRANSPLANT: risk.lifetime_pmf @ j})

    def waits(u, declined):  # one epoch alive, undiscounted
        return 1.0 + problem.carry(problem.expect(u, declined))

    return _solve(problem, waits, opts)


def _check_2d(spec):
    if spec.variant not in (Variant.BASE,):
        raise ModelValidationError(
            ["risk-sensitive solving expects the base variant with unit wait "
             f"rewards, got {spec.variant.value}"])
    live = spec.live_patients()
    if np.abs(spec.wait_reward[live] - 1.0).max() > 0:
        raise ModelValidationError(
            ["risk-sensitive rewards are fixed at one unit per epoch alive; "
             "set wait_reward to 1 on live states"])
