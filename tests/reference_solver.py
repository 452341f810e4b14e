"""Reference value iteration on the full value grid: the iteration that
``organstop.solver`` replaced with its continuation-space step.

Every step here forms the whole (regimes, H, K) value grid, averages it over
the offers with ``(K * V).sum(-1)``, multiplies by the dense transition and
patches the no-offer column regime by regime.  The robust and risk
recursions pass their own wait values, as the library did.  The tests hold
the library's iterations, flags and policies to this exactly and its
numbers to a rounding tolerance; the greedy read-back here is the
per-regime stack-and-argmax that the library's single ranked argmax
replaced.
"""

import warnings
from functools import reduce

import numpy as np

from organstop.model import VARIANT_RULES, Action, Policy
from organstop.risk import _transplant_ce, exp_utility, exp_utility_inverse
from organstop.robust import kl_worst_cases
from organstop.solver import TieBreak


def fixed_point(step, x0, opts, stall_window=None):
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


def marginal_values(spec, values):
    if not VARIANT_RULES[spec.variant].organ_axis:
        return np.asarray(values, dtype=float).copy()
    return (spec.offer_prob * values).sum(axis=-1)


def _wait_values(spec, values):
    rule = VARIANT_RULES[spec.variant]
    vbar = marginal_values(spec, values).reshape(len(rule.regimes), -1)
    stacked = spec.transition.ndim == 3  # dialysis: one block per regime
    out = {}
    for regime in rule.regimes:
        for wait in regime:
            reward, transition = (
                (spec.wait_reward[wait.regime], spec.transition[wait.regime])
                if stacked else (spec.wait_reward, spec.transition))
            out[wait.action] = reward + spec.discount * (
                transition @ vbar[wait.regime])
    return out


def _greedy(spec, waits, terminals, tie_break):
    """Per regime, stack the regime's waits and the legal terminals in tie
    order and take the first argmax; death cells get NONE.  ``waits`` is
    (G, H), row g the value of waiting into regime g."""
    rule = VARIANT_RULES[spec.variant]
    grid = rule.grid(spec)
    no_offer = rule.organ_axis and np.arange(grid[2]) == spec.no_offer_index
    stop = [(t.action, np.where(no_offer & t.offered_only, -np.inf,
                                terminals[t.action]))
            for t in rule.terminals]
    actions = np.empty(rule.value_shape(spec), dtype=np.int64)
    for regime, chosen in zip(rule.regimes, actions.reshape(grid)):
        stay = [(a.action, waits[a.regime][:, None]) for a in regime]
        ranked = stop + stay if tie_break is TieBreak.PREFER_TRANSPLANT \
            else stay + stop
        values = np.stack([np.broadcast_to(v, grid[1:]) for _, v in ranked])
        codes = np.array([int(a) for a, _ in ranked])
        # argmax takes the first maximum: exact ties go to the earlier action
        chosen[...] = codes[np.argmax(values, axis=0)]
    actions.reshape(grid)[:, spec.death_index] = Action.NONE
    return Policy(spec.variant, actions)


def _by_regime(spec, waits):
    """The per-action wait values as the library's ``_greedy`` reads them:
    row g is the value of the wait action leading to regime g."""
    rule = VARIANT_RULES[spec.variant]
    into = {a.regime: waits[a.action] for regime in rule.regimes for a in regime}
    return np.stack([into[g] for g in range(len(rule.regimes))])


def _backup(spec, waits, terminals):
    rule = VARIANT_RULES[spec.variant]
    out = np.empty(rule.value_shape(spec))
    grid = out.reshape(rule.grid(spec))
    first, *rest = [terminals[t.action] for t in rule.terminals]
    for regime, image in zip(rule.regimes, grid):
        wait = reduce(np.maximum, [waits[a.action] for a in regime])
        np.maximum(first, wait[:, None], out=image)
        for reward in rest:
            np.maximum(image, reward, out=image)
        if rule.organ_axis:
            column = spec.no_offer_index
            image[:, column] = reduce(np.maximum, [wait] + [
                np.broadcast_to(terminals[t.action], image.shape)[:, column]
                for t in rule.terminals if not t.offered_only])
    grid[:, spec.death_index] = 0.0
    return out


def _solve(spec, waits, terminals, opts, stall_window=None):
    """(values, marginal, residual, iterations, converged), policy."""
    V, iterations, converged, residual = fixed_point(
        lambda V: _backup(spec, waits(V), terminals),
        np.zeros(VARIANT_RULES[spec.variant].value_shape(spec)), opts,
        stall_window)
    solution = (V, marginal_values(spec, V), residual, iterations, converged)
    return solution, _greedy(spec, _by_regime(spec, waits(V)), terminals,
                             opts.tie_break)


def solve(spec, opts):
    return _solve(spec, lambda V: _wait_values(spec, V),
                  VARIANT_RULES[spec.variant].terminal_rewards(spec), opts)


def robust_solve(spec, ambiguity, opts):
    live = np.array([h for h in range(spec.n_patient) if h != spec.death_index])

    def waits(values):
        _, worst = kl_worst_cases(spec.transition[live], values,
                                  ambiguity.levels[live])
        cont = np.zeros(spec.n_patient)
        cont[live] = spec.wait_reward[live] + spec.discount * worst
        return {Action.WAIT: cont}

    return _solve(spec, waits,
                  VARIANT_RULES[spec.variant].terminal_rewards(spec), opts)


def risk_ce_solve(spec, risk, opts, stall_window=1000):
    gamma = risk.risk_coefficient

    def waits(V):
        m = (spec.offer_prob * exp_utility(1.0 + V, gamma)).sum(axis=1)
        ew = np.clip(spec.transition @ m, 0.0, 1.0 - 1e-16)
        return {Action.WAIT: exp_utility_inverse(ew, gamma)}

    return _solve(spec, waits, {Action.TRANSPLANT: _transplant_ce(spec, risk)},
                  opts, stall_window)


def lifetime_solve(spec, risk, opts, stall_window=1000):
    j = np.arange(risk.lifetime_pmf.shape[-1])
    return _solve(
        spec,
        lambda V: {Action.WAIT: 1.0 + spec.transition @ marginal_values(spec, V)},
        {Action.TRANSPLANT: risk.lifetime_pmf @ j}, opts, stall_window)
