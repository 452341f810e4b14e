"""Value iteration and greedy policy extraction for every discrete variant.

Every solver iterates in continuation space: one decline value per regime
and patient state, from which the value grid, its offer average and the
greedy policy follow (:class:`_Continuation`).  The terminal split, the
backup and the greedy choice below are the only code that turns a
:class:`~organstop.model.VariantRule` into numbers, and :func:`_solve` holds
the only iteration loop: the nominal, robust, risk-sensitive and lifetime
solvers all run it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial

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
        if not self.tolerance > 0:  # NaN too
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


#: steps in a row without a new smallest one that stop an undiscounted solve
STALL_WINDOW = 1000


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
    """Continuation value (G, H) of waiting into each regime, from a value
    grid."""
    rule = VARIANT_RULES[spec.variant]
    rewards, transitions = rule.wait_arrays(spec)
    vbar = marginal_values(spec, values).reshape(len(rule.regimes), -1)
    return rewards + spec.discount * np.stack(
        [transition @ v for transition, v in zip(transitions, vbar)])


def _terminal_split(spec, terminals):
    """(T_off, T_unc): the best terminal legal with an offer, (H, C), -inf
    in the no-offer column and the death row; and per patient state the
    best terminal legal without one, -inf where there is none."""
    rule = VARIANT_RULES[spec.variant]
    off, unc = np.full((2,) + rule.grid(spec)[1:], -np.inf)
    for t in rule.terminals:
        into = off if t.offered_only else unc
        np.maximum(into, terminals[t.action], out=into)
    if rule.organ_axis:
        off[:, spec.no_offer_index] = -np.inf
    off[spec.death_index] = -np.inf
    return off, unc[:, spec.no_offer_index if rule.organ_axis else 0]


def _decline(waits, reads, unc, death):
    """u(g, h): the best of unc and regime g's wait values, read from the
    flat ``waits`` at each of ``reads``; zero at death."""
    flat = waits.ravel()
    u = np.maximum(unc, flat[reads[0]])
    for more in reads[1:]:
        np.maximum(u, flat[more], out=u)
    u[:, death] = 0.0
    return u


def _grid(spec, off, u):
    """The value grid max(T_off, u) in the variant's value shape."""
    return np.maximum(off, u[:, :, None]).reshape(
        VARIANT_RULES[spec.variant].value_shape(spec))


def _backup(spec, waits, terminals):
    """Bellman image from continuation values and terminal rewards.

    ``waits`` holds, per regime g and patient state, the value of waiting
    into g, and ``terminals`` maps each terminal action to its reward grid;
    robust and risk-sensitive solvers pass their own.
    """
    off, unc = _terminal_split(spec, terminals)
    H = spec.n_patient
    reads = VARIANT_RULES[spec.variant].wait_slots[0][:, :, None] * H + np.arange(H)
    return _grid(spec, off, _decline(waits, reads, unc, spec.death_index))


class _Continuation:
    """One solve's stopping problem, iterated on the decline value u.

    V(g, h, k) = max(T_off(h, k), u(g, h)): organ k is accepted in state h
    iff T_off(h, k) > u(g, h), a control limit, so u alone carries value
    iteration.  The offer expectation of payoff(V), for an increasing
    payoff, is exact in its comparisons: each row of T_off is sorted once,
    and with j(h) = #{k : T_off(h, k) <= u(h)} it is payoff(u) F[h, j] +
    S[h, j], F the prefix offer mass and S the suffix sum of K payoff(T_off)
    along the sorted row.  The sorted rows are kept as the complex keys
    h + i T_off(h, k), which numpy orders by (row, value), so one
    ``searchsorted`` of h + i u(h) gives h C + j, and adding h the flat
    index h (C + 1) + j.  The stacked wait transitions are kept as
    their nonzero (rows, cols, data), rows and cols flat (regime, patient)
    indices, so one ``bincount`` carries every regime.
    """

    def __init__(self, spec: DiscreteModelSpec, terminals: dict,
                 payoff=lambda t: t):
        rule = VARIANT_RULES[spec.variant]
        self.spec, self.terminals, self.discount = spec, terminals, spec.discount
        self.off, unc = _terminal_split(spec, terminals)
        G, H, C = rule.grid(spec)
        order = self.off.argsort(axis=1, kind="stable")
        rewards = np.take_along_axis(self.off, order, axis=1)
        offer = spec.offer_prob if rule.organ_axis else np.ones((H, 1))
        mass = np.take_along_axis(offer, order, axis=1)
        # set part by part: 1j * -inf has a NaN real part
        self._keys = np.empty(H * C, complex)
        self._keys.real, self._keys.imag = np.arange(H).repeat(C), rewards.ravel()
        accepted = rewards > -np.inf
        terms = np.where(accepted, mass * payoff(np.where(accepted, rewards, 0.0)),
                         0.0)
        tables = np.zeros((2, H, C + 1))
        np.add.accumulate(mass, axis=1, out=tables[0, :, 1:])
        np.add.accumulate(terms[:, ::-1], axis=1, out=tables[1, :, C - 1::-1])
        self.prefix, self.suffix = tables.reshape(2, -1)
        self._h = h = np.arange(G * H).reshape(G, H) % H
        self.decline = partial(_decline, reads=tuple(
            rule.wait_slots[0][:, :, None] * H + h), unc=unc[h],
            death=spec.death_index)
        #: j = C in every row: the zero value grid, everything declined
        self.everything_declined = h * (C + 1) + C
        self.wait_reward, transitions = rule.wait_arrays(spec)
        nonzero = transitions.ravel().nonzero()[0]
        rows, cols = np.divmod(nonzero, H)
        self._nonzero = (rows, rows - rows % H + cols, transitions.ravel()[nonzero])

    def declined(self, u: np.ndarray) -> np.ndarray:
        """Flat (h, j(h)) index into the F and S tables, per regime."""
        query = np.empty(u.shape, complex)
        query.real, query.imag = self._h, u
        return self._keys.searchsorted(query, side="right") + self._h

    def expect(self, x, declined) -> np.ndarray:
        """x F[h, j] + S[h, j]: the offer expectation of payoff(V) for
        x = payoff(u)."""
        return x * self.prefix[declined] + self.suffix[declined]

    def carry(self, x: np.ndarray) -> np.ndarray:
        """sum_h' P[g, h, h'] x(g, h') for every regime g, x being (G, H)."""
        rows, cols, data = self._nonzero
        return np.bincount(rows, weights=data * x.ravel()[cols],
                           minlength=x.size).reshape(x.shape)

    def nominal_waits(self, u, declined) -> np.ndarray:
        """w + beta P vbar for waiting into each regime: the nominal
        recursion."""
        return self.wait_reward + self.discount * self.carry(
            self.expect(u, declined))


def _greedy(spec, waits, terminals, tie_break):
    """Greedy policy for the same inputs as :func:`_backup`: each cell takes
    the first maximum of its actions ranked regime waits + terminals, or
    terminals + regime waits under PREFER_TRANSPLANT."""
    rule = VARIANT_RULES[spec.variant]
    G, H, C = rule.grid(spec)
    into, codes = rule.wait_slots
    R = len(into)
    ranked = np.empty((R + len(rule.terminals), G, H, C))
    stay, stop = ((slice(None, R), slice(R, None)) if tie_break is
                  TieBreak.PREFER_WAIT else (slice(-R, None), slice(None, -R)))
    ranked[stay] = waits.take(into, axis=0)[..., None]
    for value, t in zip(ranked[stop], rule.terminals):
        value[...] = terminals[t.action]
        if t.offered_only and rule.organ_axis:
            value[..., spec.no_offer_index] = -np.inf
    code = np.empty((len(ranked), G), dtype=np.int64)
    code[stay], code[stop] = codes, [[t.action] for t in rule.terminals]
    actions = code.ravel()[ranked.argmax(axis=0) * G + np.arange(G)[:, None, None]]
    actions[:, spec.death_index] = Action.NONE
    return Policy(spec.variant, actions.reshape(rule.value_shape(spec)))


def _solve(problem, waits, opts, discount=None):
    """Iterate the decline value to its fixed point; return the value
    function and its greedy policy.

    ``waits(u, declined)`` gives the (G, H) values of waiting into each
    regime, ``declined`` being :meth:`_Continuation.declined` of u.  A step
    is measured on the value grid: iteration 1 steps from the zero grid, and
    after it the move is max |u' - u| exactly, the no-offer column being u.
    A step of at most ``opts.tolerance`` converges.  A ``discount`` makes
    the step a contraction with error bound residual / (1 - discount);
    without one, STALL_WINDOW steps in a row without a new smallest one also
    stop the iteration, non-converged, with a warning.  The residual and the
    greedy policy read the wait values at the returned u.
    """
    spec = problem.spec
    u = problem.decline(waits(np.zeros(problem.everything_declined.shape),
                              problem.everything_declined))
    delta = float(np.max(np.abs(_grid(spec, problem.off, u))))
    best, since_best = np.inf, 0
    for iterations in range(1, opts.max_iterations + 1):
        if iterations > 1:
            u_next = problem.decline(waits(u, problem.declined(u)))
            delta = float(np.maximum.reduce(np.abs(u_next - u), axis=None))
            u = u_next
        if delta <= opts.tolerance:
            break
        if discount is None:
            best, since_best = ((delta, 0) if delta < best - 1e-15
                                else (best, since_best + 1))
            if since_best >= STALL_WINDOW:
                warnings.warn("recursion is not contracting; returning the "
                              "last iterate flagged non-converged")
                break
    last = waits(u, problem.declined(u))
    residual = float(np.maximum.reduce(np.abs(problem.decline(last) - u), axis=None))
    V = _grid(spec, problem.off, u)
    vf = ValueFunction(
        values=V, marginal=marginal_values(spec, V), residual=residual,
        iterations=iterations, converged=delta <= opts.tolerance,
        error_bound=None if discount is None else residual / (1.0 - discount))
    return vf, _greedy(spec, last, problem.terminals, opts.tie_break)


def _value_array(spec, values):
    """``values`` as floats, refused unless in the variant's value shape:
    the check every one-step operator makes."""
    values = np.asarray(values, dtype=float)
    if values.shape != VARIANT_RULES[spec.variant].value_shape(spec):
        raise ModelValidationError(
            [f"value shape {values.shape} does not match variant {spec.variant.value}"])
    return values


def bellman_backup(spec: DiscreteModelSpec, values: np.ndarray) -> np.ndarray:
    """One application of the variant's Bellman operator.

    ``values`` must be zero at death states; the image keeps death at zero
    and is a discount-factor contraction in sup-norm.
    """
    return _backup(spec, _wait_values(spec, _value_array(spec, values)),
                   VARIANT_RULES[spec.variant].terminal_rewards(spec))


def greedy_policy(spec: DiscreteModelSpec, values: np.ndarray,
                  tie_break: TieBreak = TieBreak.PREFER_WAIT) -> Policy:
    """Policy greedy with respect to ``values`` under the given tie-break.

    PREFER_WAIT resolves exact ties toward the non-transplant action (and
    TRANSPLANT over TRANSPLANT_LIVING among transplants); PREFER_TRANSPLANT
    is the reverse.
    """
    return _greedy(spec, _wait_values(spec, _value_array(spec, values)),
                   VARIANT_RULES[spec.variant].terminal_rewards(spec), tie_break)


def solve_value_iteration(spec: DiscreteModelSpec,
                          opts: SolveOptions = SolveOptions()
                          ) -> tuple[ValueFunction, Policy]:
    """Iterate the Bellman operator to its fixed point.

    Returns the value function (with achieved sup-norm Bellman residual,
    its error bound and iteration count) and the greedy policy.  If
    ``max_iterations`` is hit before the residual target, the best iterate
    is returned flagged non-converged.
    """
    validate_model(spec)
    problem = _Continuation(spec, VARIANT_RULES[spec.variant].terminal_rewards(spec))
    return _solve(problem, problem.nominal_waits, opts, discount=spec.discount)


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
