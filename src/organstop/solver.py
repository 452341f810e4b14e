"""Value iteration and greedy policy extraction for every discrete variant.

The backup and the greedy choice below are the only code that turns a
:class:`~organstop.model.VariantRule` into numbers, and :func:`fixed_point`
is the only iteration loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce

import numpy as np

from .model import (
    Action,
    DiscreteModelSpec,
    ModelValidationError,
    Orientation,
    Policy,
    VARIANT_RULES,
    ValueFunction,
    Variant,
    validate_model,
)


class TieBreak(str, Enum):
    PREFER_WAIT = "prefer_wait"
    PREFER_TRANSPLANT = "prefer_transplant"


@dataclass(frozen=True)
class SolveOptions:
    tolerance: float = 1e-8
    max_iterations: int = 100_000
    tie_break: TieBreak = TieBreak.PREFER_WAIT

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def fixed_point(step, x0: np.ndarray, opts: SolveOptions,
                stall_window: int | None = None):
    """Iterate ``x <- step(x)`` from ``x0`` until a step moves x by at most
    ``opts.tolerance`` in sup-norm.

    Returns ``(x, iterations, converged, residual)`` with residual
    max |step(x) - x| at the returned x.  Reaching ``opts.max_iterations``
    returns the last iterate flagged non-converged.  For recursions not
    known to contract, ``stall_window`` iterations in a row without a new
    smallest step also stop the iteration, with a warning.
    """
    x = x0
    iterations = 0
    converged = False
    best_step, since_best = np.inf, 0
    for iterations in range(1, opts.max_iterations + 1):
        x_next = step(x)
        delta = float(np.max(np.abs(x_next - x)))
        x = x_next
        if delta <= opts.tolerance:
            converged = True
            break
        if stall_window is None:
            continue
        if delta < best_step - 1e-15:
            best_step, since_best = delta, 0
        else:
            since_best += 1
            if since_best >= stall_window:
                warnings.warn("recursion is not contracting; returning the "
                              "last iterate flagged non-converged")
                break
    residual = float(np.max(np.abs(step(x) - x)))
    return x, iterations, converged, residual


def zero_values(spec: DiscreteModelSpec) -> np.ndarray:
    return np.zeros(VARIANT_RULES[spec.variant].value_shape(spec))


def marginal_values(spec: DiscreteModelSpec, values: np.ndarray) -> np.ndarray:
    """Expectation of V(h, k) over the offer distribution: sum_k V(h,k) K(k|h).

    Values without an organ axis (the living-donor chain) are returned as is.
    """
    if not VARIANT_RULES[spec.variant].organ_axis:
        return np.asarray(values, dtype=float).copy()
    return (spec.offer_prob * values).sum(axis=-1)


def _wait_values(spec, values):
    """Continuation value per patient state of every wait action."""
    rule = VARIANT_RULES[spec.variant]
    vbar = marginal_values(spec, values).reshape(len(rule.regimes), -1)
    out = {}
    for regime in rule.regimes:
        for wait in regime:
            reward, transition = wait.arrays(spec)
            out[wait.action] = reward + spec.discount * (
                transition @ vbar[wait.regime or 0])
    return out


def _backup(spec, waits, terminals):
    """Bellman image from continuation values and terminal rewards.

    ``waits`` maps each wait action of the variant's rule to its value per
    patient state and ``terminals`` each terminal action to its reward
    grid; robust and risk-sensitive solvers pass their own.
    """
    rule = VARIANT_RULES[spec.variant]
    out = np.empty(rule.value_shape(spec))
    grid = out.reshape(rule.grid(spec))
    first, *rest = [terminals[t.action] for t in rule.terminals]
    for regime, image in zip(rule.regimes, grid):
        wait = reduce(np.maximum, [waits[a.action] for a in regime])
        np.maximum(first, wait[:, None], out=image)
        for reward in rest:
            np.maximum(image, reward, out=image)
        if rule.organ_axis:  # no offer: waits and unconditional terminals only
            column = spec.no_offer_index
            image[:, column] = reduce(np.maximum, [wait] + [
                np.broadcast_to(terminals[t.action], image.shape)[:, column]
                for t in rule.terminals if not t.offered_only])
    grid[:, spec.death_index] = 0.0
    return out


def _greedy(spec, waits, terminals, tie_break):
    """Greedy policy for the same inputs as :func:`_backup`."""
    rule = VARIANT_RULES[spec.variant]
    grid = rule.grid(spec)
    no_offer = rule.organ_axis and np.arange(grid[2]) == spec.no_offer_index
    stop = [(t.action, np.where(no_offer & t.offered_only, -np.inf,
                                terminals[t.action]))
            for t in rule.terminals]
    actions = np.empty(rule.value_shape(spec), dtype=np.int64)
    for regime, chosen in zip(rule.regimes, actions.reshape(grid)):
        stay = [(a.action, waits[a.action][:, None]) for a in regime]
        ranked = stop + stay if tie_break is TieBreak.PREFER_TRANSPLANT \
            else stay + stop
        values = np.stack([np.broadcast_to(v, grid[1:]) for _, v in ranked])
        codes = np.array([int(a) for a, _ in ranked])
        # argmax takes the first maximum: exact ties go to the earlier action
        chosen[...] = codes[np.argmax(values, axis=0)]
    actions.reshape(grid)[:, spec.death_index] = Action.NONE
    return Policy(spec.variant, actions)


def _solve(spec, waits, terminals, opts, stall_window=None):
    """Iterate :func:`_backup` with continuation values ``waits(V)`` to its
    fixed point; return the value function and its greedy policy."""
    V, iterations, converged, residual = fixed_point(
        lambda V: _backup(spec, waits(V), terminals), zero_values(spec), opts,
        stall_window)
    vf = ValueFunction(values=V, marginal=marginal_values(spec, V),
                       residual=residual, iterations=iterations,
                       converged=converged)
    return vf, _greedy(spec, waits(V), terminals, opts.tie_break)


def bellman_backup(spec: DiscreteModelSpec, values: np.ndarray) -> np.ndarray:
    """One application of the variant's Bellman operator.

    ``values`` must be zero at death states; the image keeps death at zero
    and is a discount-factor contraction in sup-norm.
    """
    values = np.asarray(values, dtype=float)
    rule = VARIANT_RULES[spec.variant]
    if values.shape != rule.value_shape(spec):
        raise ModelValidationError(
            [f"value shape {values.shape} does not match variant {spec.variant.value}"])
    return _backup(spec, _wait_values(spec, values), rule.terminal_rewards(spec))


def greedy_policy(spec: DiscreteModelSpec, values: np.ndarray,
                  tie_break: TieBreak = TieBreak.PREFER_WAIT) -> Policy:
    """Policy greedy with respect to ``values`` under the given tie-break.

    PREFER_WAIT resolves exact ties toward the non-transplant action (and
    TRANSPLANT over TRANSPLANT_LIVING among transplants); PREFER_TRANSPLANT
    is the reverse.
    """
    return _greedy(spec, _wait_values(spec, values),
                   VARIANT_RULES[spec.variant].terminal_rewards(spec), tie_break)


def solve_value_iteration(spec: DiscreteModelSpec,
                          opts: SolveOptions = SolveOptions()
                          ) -> tuple[ValueFunction, Policy]:
    """Iterate the Bellman operator to its fixed point.

    Returns the value function (with achieved sup-norm Bellman residual and
    iteration count) and the greedy policy.  If ``max_iterations`` is hit
    before the residual target, the best iterate is returned flagged
    non-converged.
    """
    validate_model(spec)
    return _solve(spec, partial(_wait_values, spec),
                  VARIANT_RULES[spec.variant].terminal_rewards(spec), opts)


def build_continuous_analog_spec(
    transition_density,
    offer_density,
    success_prob,
    success_reward: float,
    alive_reward: float,
    discount: float,
    patient_grid: np.ndarray,
    organ_grid: np.ndarray,
) -> DiscreteModelSpec:
    """Discretize the continuous-state model onto a rectangular grid.

    ``patient_grid`` / ``organ_grid`` are cell midpoints in ascending state
    value (larger = better, matching that model's convention).  The
    transition density is interpolated piecewise-constant: row masses are
    density values at midpoints, renormalized, which keeps the backup a
    contraction.  A death state with no inflow is appended so the result is
    a valid spec.
    """
    hs = np.asarray(patient_grid, dtype=float)
    ks = np.asarray(organ_grid, dtype=float)
    nh, nk = len(hs), len(ks)

    trans = np.zeros((nh + 1, nh + 1))
    for i, h in enumerate(hs):
        row = np.array([max(transition_density(hp, h), 0.0) for hp in hs])
        total = row.sum()
        if total <= 0:
            raise ValueError(f"transition density vanishes on the grid at h={h}")
        trans[i, :nh] = row / total
    trans[nh, nh] = 1.0

    offer_row = np.array([max(offer_density(k), 0.0) for k in ks])
    if offer_row.sum() <= 0:
        raise ValueError("offer density vanishes on the grid")
    offer = np.zeros((nh + 1, nk + 1))
    offer[:, :nk] = offer_row / offer_row.sum()

    p = np.zeros((nh + 1, nk + 1))
    for i, h in enumerate(hs):
        for j, k in enumerate(ks):
            p[i, j] = min(max(success_prob(h, k), 0.0), 1.0)

    wait = np.full(nh + 1, float(alive_reward))
    wait[nh] = 0.0

    spec = DiscreteModelSpec(
        variant=Variant.CONTINUOUS_ANALOG,
        n_patient=nh + 1, death_index=nh,
        n_organ=nk + 1, no_offer_index=nk,
        patient_orientation=Orientation.LARGER_IS_BETTER,
        organ_orientation=Orientation.LARGER_IS_BETTER,
        transition=trans, offer_prob=offer, wait_reward=wait,
        transplant_reward=p * success_reward,
        discount=discount,
        success_prob=p, success_reward=float(success_reward),
    )
    return validate_model(spec)
