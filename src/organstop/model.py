"""Domain types for the discrete-time organ-acceptance models.

A model is a finite optimal-stopping MDP over (patient state, offer state)
with one reserved absorbing death index on the patient axis and one reserved
"no offer" index on the organ axis.  All probability data is plain numpy;
a spec validates itself when built, and validation seals the arrays read-only.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np

ROW_SUM_TOL = 1e-9
ORDER_TOL = 1e-12

MEDICATION_REGIME = 0
DIALYSIS_REGIME = 1


class Variant(str, Enum):
    BASE = "base"
    LIVING_DONOR = "living_donor"
    COMBINED = "combined"
    DIALYSIS = "dialysis"
    CONTINUOUS_ANALOG = "continuous_analog"


class Orientation(str, Enum):
    LARGER_IS_WORSE = "larger_is_worse"
    LARGER_IS_BETTER = "larger_is_better"


class Action(IntEnum):
    WAIT = 0
    TRANSPLANT = 1          # accept the offered (deceased-donor) organ
    TRANSPLANT_LIVING = 2   # accept the living-donor organ
    MEDICATION = 3          # dialysis variant: stay on medication
    DIALYSIS = 4            # dialysis variant: be (or go) on dialysis
    NONE = 5                # no-op assigned to death cells


@dataclass(frozen=True)
class WaitAction:
    """A non-terminal action leading to regime ``regime``: it earns and
    moves the patient by row block ``regime`` of
    :meth:`VariantRule.wait_arrays`."""

    action: Action
    regime: int = 0


@dataclass(frozen=True)
class TerminalCandidate:
    """A stopping action and its reward, broadcastable to (H, K)."""

    action: Action
    offered_only: bool      # illegal in the no-offer column
    reward: Callable[[DiscreteModelSpec], np.ndarray]


OFFERED_ORGAN = TerminalCandidate(
    Action.TRANSPLANT, True, lambda spec: spec.transplant_reward)
LIVING_DONOR_ORGAN = TerminalCandidate(
    Action.TRANSPLANT_LIVING, False,
    lambda spec: spec.living_donor_reward()[:, None])
# the analog's epoch reward accrues on the transplant epoch too, and a
# successful transplant pays one (discounted) epoch later
ANALOG_ORGAN = TerminalCandidate(
    Action.TRANSPLANT, True,
    lambda spec: spec.wait_reward[:, None]
    + spec.discount * spec.transplant_reward)


@dataclass(frozen=True)
class VariantRule:
    """One variant as a stopping problem.

    In regime g, V(g, h, k) is the best of the terminal rewards legal at
    (h, k) and the continuation values of regime g's wait actions.  A wait
    action leading to regime g' continues with
    w[g', h] + beta * sum_h' P[g', h, h'] vbar(g', h'), with (w, P) the
    stacked :meth:`wait_arrays` and vbar the value averaged over the offer
    distribution (the value itself without an organ axis).  Exact ties go
    to the earliest action in regime waits + terminals under PREFER_WAIT,
    and in terminals + regime waits under PREFER_TRANSPLANT.  The terminals
    also decide the optional spec fields: a living-donor state exactly with
    LIVING_DONOR_ORGAN, the success fields exactly with ANALOG_ORGAN.
    """

    regimes: tuple[tuple[WaitAction, ...], ...]
    terminals: tuple[TerminalCandidate, ...]
    organ_axis: bool = True

    def grid(self, spec: DiscreteModelSpec) -> tuple[int, int, int]:
        """(regimes, patient states, offer columns): values as a 3-D array."""
        return (len(self.regimes), spec.n_patient,
                spec.n_organ if self.organ_axis else 1)

    def value_shape(self, spec: DiscreteModelSpec) -> tuple[int, ...]:
        """Shape of value and policy arrays: (H,), (H, K) or (2, H, K)."""
        n_regimes, n_patient, n_columns = self.grid(spec)
        return ((n_regimes,) * (n_regimes > 1) + (n_patient,)
                + (n_columns,) * self.organ_axis)

    def wait_shapes(self, n_patient: int) -> tuple[tuple[int, ...],
                                                   tuple[int, ...]]:
        """Shapes of ``transition`` and ``wait_reward``: (H, H) and (H,),
        stacked over the regimes when the rule has more than one."""
        stack = (len(self.regimes),) * (len(self.regimes) > 1)
        return stack + (n_patient, n_patient), stack + (n_patient,)

    def wait_arrays(self, spec: DiscreteModelSpec):
        """The stacked wait arrays, rewards (G, H) and transitions (G, H, H):
        row block g is what waiting into regime g earns and moves by."""
        shape = (len(self.regimes), spec.n_patient)
        return (np.asarray(spec.wait_reward).reshape(shape),
                np.asarray(spec.transition).reshape(shape + shape[1:]))

    @cached_property
    def wait_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(regime led to, action code), (R, G) each: slot r of regime g is
        its r-th wait action, the last one repeated in shorter regimes."""
        slots = [[regime[min(r, len(regime) - 1)] for regime in self.regimes]
                 for r in range(max(map(len, self.regimes)))]
        into, codes = (np.array([[getattr(a, name) for a in row] for row in slots])
                       for name in ("regime", "action"))
        into.flags.writeable = codes.flags.writeable = False  # shared by all
        return into, codes

    def legal(self, spec: DiscreteModelSpec, regime: int,
              column: int) -> tuple[Action, ...]:
        """Legal actions at a live cell, in prefer-wait order."""
        offered = not self.organ_axis or column != spec.no_offer_index
        return tuple(a.action for a in self.regimes[regime]) + tuple(
            t.action for t in self.terminals if offered or not t.offered_only)

    def terminal_rewards(self, spec: DiscreteModelSpec) -> dict[Action, np.ndarray]:
        return {t.action: t.reward(spec) for t in self.terminals}


_WAIT_ONLY = ((WaitAction(Action.WAIT),),)
_ON_DIALYSIS = WaitAction(Action.DIALYSIS, DIALYSIS_REGIME)

VARIANT_RULES = {
    Variant.BASE: VariantRule(_WAIT_ONLY, (OFFERED_ORGAN,)),
    Variant.LIVING_DONOR: VariantRule(_WAIT_ONLY, (LIVING_DONOR_ORGAN,),
                                      organ_axis=False),
    Variant.COMBINED: VariantRule(_WAIT_ONLY, (OFFERED_ORGAN, LIVING_DONOR_ORGAN)),
    # switching to dialysis is irreversible
    Variant.DIALYSIS: VariantRule(
        ((WaitAction(Action.MEDICATION, MEDICATION_REGIME), _ON_DIALYSIS),
         (_ON_DIALYSIS,)),
        (OFFERED_ORGAN,)),
    Variant.CONTINUOUS_ANALOG: VariantRule(_WAIT_ONLY, (ANALOG_ORGAN,)),
}


class ModelValidationError(ValueError):
    """Raised when a model spec violates an invariant.

    ``errors`` holds one message per violation, each naming the offending
    field and index.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class DiscreteModelSpec:
    """Full parametrization of one discrete-time model variant.

    ``transition`` is (H, H) row-stochastic, or (2, H, H) for the dialysis
    variant (index 0 = medication regime, 1 = dialysis regime).
    ``wait_reward`` is (H,), or (2, H) for dialysis.  ``offer_prob`` rows are
    conditional offer distributions given the (next) patient state.
    ``transplant_reward[h, k]`` is the terminal reward of accepting organ k
    in patient state h; the ``living_donor_state`` column doubles as the
    living-donor reward column.  A spec is valid once built: construction,
    and ``replace``, raise :class:`ModelValidationError` with every message.
    A built spec holds its arrays read-only.  A contiguous float64 array is
    kept without a copy, so the caller's own array is sealed; lists and
    other dtypes are copied.
    """

    variant: Variant
    n_patient: int
    death_index: int
    n_organ: int
    no_offer_index: int
    transition: np.ndarray
    offer_prob: np.ndarray
    wait_reward: np.ndarray
    transplant_reward: np.ndarray
    discount: float
    patient_orientation: Orientation = Orientation.LARGER_IS_WORSE
    organ_orientation: Orientation = Orientation.LARGER_IS_WORSE
    living_donor_state: int | None = None
    # continuous-analog extras: transplant_reward == success_prob * success_reward
    success_prob: np.ndarray | None = None
    success_reward: float | None = None

    def __post_init__(self):
        validate_model(self)

    def live_patients(self) -> np.ndarray:
        return np.flatnonzero(np.arange(self.n_patient) != self.death_index)

    def offered_organs(self) -> np.ndarray:
        return np.flatnonzero(np.arange(self.n_organ) != self.no_offer_index)

    def living_donor_reward(self) -> np.ndarray:
        return self.transplant_reward[:, self.living_donor_state]

    def is_canonical(self) -> bool:
        return (
            self.patient_orientation is Orientation.LARGER_IS_WORSE
            and self.organ_orientation is Orientation.LARGER_IS_WORSE
            and self.death_index == self.n_patient - 1
            and self.no_offer_index == self.n_organ - 1
        )


@dataclass(frozen=True)
class Policy:
    """Stationary decision rule.

    ``actions`` holds :class:`Action` codes: shape (H, K) for the
    two-dimensional variants, (H,) for the living-donor chain and
    (2, H, K) for the dialysis variant (leading regime axis).
    """

    variant: Variant
    actions: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.actions, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "actions", arr)


@dataclass(frozen=True)
class ValueFunction:
    """Value per state with its Bellman-residual certificate.

    Every solver reports the same ``residual``: max |T(V) - V| over all
    states, where V is ``values`` and T is the operator the solver iterates.
    For a beta-contraction T (the nominal and robust solvers),
    ``error_bound`` = residual / (1 - beta) bounds max |V - V*| to its
    fixed point; it is None for the undiscounted risk recursions.
    """

    values: np.ndarray
    marginal: np.ndarray | None
    residual: float
    iterations: int
    converged: bool
    error_bound: float | None = None


def _check_stochastic_rows(matrix, name, errors, axis_name="patient state"):
    """Row by row, a message for a sum off 1 and one for the first entry
    outside [0, 1]; the whole matrix is checked at once through per-row
    sums, minima and maxima, and only bad rows are visited."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    sums = np.add.reduce(matrix, axis=1)
    if (np.maximum.reduce(np.abs(sums - 1.0), axis=None) <= ROW_SUM_TOL
            and np.minimum.reduce(matrix, axis=None) >= -ROW_SUM_TOL
            and np.maximum.reduce(matrix, axis=None) <= 1.0 + ROW_SUM_TOL):
        return  # every row is fine: the common case, in fewer calls
    off_sum = np.abs(sums - 1.0) > ROW_SUM_TOL
    bad_entry = ((np.minimum.reduce(matrix, axis=1) < -ROW_SUM_TOL)
                 | (np.maximum.reduce(matrix, axis=1) > 1.0 + ROW_SUM_TOL))
    for i in (off_sum | bad_entry).nonzero()[0].tolist():
        if off_sum[i]:
            errors.append(f"{name}: row sum {sums[i]:.12g} at {axis_name} {i}")
        if bad_entry[i]:
            row = matrix[i]
            j = int(np.argmax((row < -ROW_SUM_TOL) | (row > 1.0 + ROW_SUM_TOL)))
            errors.append(f"{name}: entry {row[j]:.12g} outside [0,1] "
                          f"at ({i},{j})")


def non_finite_errors(name: str, values) -> list[str]:
    """A message naming ``name`` and its first NaN or infinite entry, if any."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if finite.all():
        return []
    index = tuple(int(i) for i in np.argwhere(~finite)[0])
    where = f" at {index[0] if len(index) == 1 else index}" if index else ""
    return [f"{name}: non-finite entry {arr[index]}{where}"]


def validation_errors(spec: DiscreteModelSpec) -> list[str]:
    """Check every spec invariant, returning one message per violation:
    ``[]`` for a built spec, the ``errors`` of a refused construction."""
    errors: list[str] = []
    H, K = spec.n_patient, spec.n_organ
    death, nooff = spec.death_index, spec.no_offer_index

    if not (0 <= death < H):
        errors.append(f"death_index {death} outside [0,{H})")
        return errors
    if not (0 <= nooff < K):
        errors.append(f"no_offer_index {nooff} outside [0,{K})")
        return errors
    for name in ("transition", "offer_prob", "wait_reward", "transplant_reward",
                 "success_prob", "success_reward"):
        if getattr(spec, name) is not None:
            errors += non_finite_errors(name, getattr(spec, name))
    if errors:
        return errors

    rule = VARIANT_RULES[spec.variant]
    shapes = dict(zip(("transition", "wait_reward"), rule.wait_shapes(H)),
                  offer_prob=(H, K), transplant_reward=(H, K))
    if ANALOG_ORGAN in rule.terminals and spec.success_prob is not None:
        shapes["success_prob"] = (H, K)
    for name, expected in shapes.items():
        shape = np.shape(getattr(spec, name))
        if shape != expected:
            errors.append(f"{name}: shape {shape}, expected {expected}")
    if errors:
        return errors

    wait, trans = rule.wait_arrays(spec)
    for g, mat in enumerate(trans):
        name = "transition" if len(trans) == 1 else f"transition[{g}]"
        _check_stochastic_rows(mat, name, errors)
        if abs(mat[death, death] - 1.0) > ROW_SUM_TOL:
            errors.append(f"{name}: death row not absorbing "
                          f"(transition(death->death) = {mat[death, death]:.12g})")
    _check_stochastic_rows(spec.offer_prob, "offer_prob", errors)

    if np.minimum.reduce(wait, axis=None) < 0:
        errors.append("wait_reward: negative entry")
    if any(wait[:, death].tolist()):
        errors.append(f"wait_reward: nonzero reward {np.max(np.abs(wait[:, death])):.12g} "
                      "at death state")

    R = np.asarray(spec.transplant_reward, dtype=float)
    if np.minimum.reduce(R, axis=None) < 0:
        errors.append("transplant_reward: negative entry")
    if any(R[death].tolist()):
        errors.append(f"transplant_reward: nonzero reward at death state "
                      f"(max {np.abs(R[death]).max():.12g})")

    top = float(np.maximum.reduce(wait, axis=None))
    if not (0.0 < spec.discount < 1.0):
        errors.append(f"discount {spec.discount} outside (0,1)")
    # V <= max(max w / (1 - beta), max terminal <= max w + max R)
    elif not np.isfinite(max(top / (1.0 - float(spec.discount)),
                             top + float(np.maximum.reduce(R, axis=None)))):
        errors.append("wait_reward and transplant_reward: value bound max(max "
                      "wait / (1 - discount), max wait + max transplant) overflows")

    if LIVING_DONOR_ORGAN in rule.terminals:
        if spec.living_donor_state is None:
            errors.append(f"living donor state required for {spec.variant.value}")
        elif not (0 <= spec.living_donor_state < K):
            errors.append(f"living_donor_state {spec.living_donor_state} outside [0,{K})")
        elif spec.living_donor_state == nooff:
            errors.append("living_donor_state collides with no_offer_index")
    elif spec.living_donor_state is not None:
        errors.append(f"living_donor_state: living donor forbidden for {spec.variant.value}")

    if ANALOG_ORGAN in rule.terminals:
        missing = [name for name in ("success_prob", "success_reward")
                   if getattr(spec, name) is None]
        if missing:
            errors.append(f"{' and '.join(missing)} required for "
                          f"{spec.variant.value}")
        else:
            p = np.asarray(spec.success_prob, dtype=float)
            if (p < -ROW_SUM_TOL).any() or (p > 1 + ROW_SUM_TOL).any():
                errors.append("success_prob: entry outside [0,1]")
            elif spec.success_reward < 0:
                errors.append(f"success_reward {spec.success_reward} negative")
            elif np.abs(p * spec.success_reward - R).max() > 1e-9 * max(1.0, abs(spec.success_reward)):
                errors.append("transplant_reward inconsistent with success_prob * success_reward")
    elif spec.success_prob is not None or spec.success_reward is not None:
        errors.append(f"success fields forbidden for {spec.variant.value}")

    return errors


def validate_model(spec: DiscreteModelSpec) -> DiscreteModelSpec:
    """Return the spec with arrays sealed read-only, or raise.

    Raises :class:`ModelValidationError` listing every violated invariant.
    Every spec runs it when built; a further call re-checks a built spec.
    """
    errors = validation_errors(spec)
    if errors:
        raise ModelValidationError(errors)
    for name in ("transition", "offer_prob", "wait_reward", "transplant_reward",
                 "success_prob"):
        arr = getattr(spec, name)
        if arr is None:
            continue
        arr = np.ascontiguousarray(arr, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(spec, name, arr)
    return spec


@dataclass(frozen=True)
class IfrReport:
    holds: bool
    # smallest violating (row i, row i+1, tail start l), in input coordinates
    witness: tuple[int, int, int] | None = None


def check_ifr(matrix: np.ndarray,
              ordering: Orientation = Orientation.LARGER_IS_WORSE) -> IfrReport:
    """Check the discrete IFR property of a row-stochastic matrix.

    Rows must be nondecreasing in the usual stochastic order: under the
    worse-is-larger orientation, tail sums sum_{j>=l} P(j|i) nondecreasing
    in i for every l.  The opposite orientation is checked by flipping both
    axes first.
    """
    m = np.asarray(matrix, dtype=float)
    flipped = ordering is Orientation.LARGER_IS_BETTER
    if flipped:
        m = m[::-1, ::-1]
    tails = np.cumsum(m[:, ::-1], axis=1)[:, ::-1]  # tails[i, l] = sum_{j >= l}
    bad = tails[:-1] > tails[1:] + ORDER_TOL  # bad[i, l]: row i beats row i+1
    if not bad.any():
        return IfrReport(True, None)
    i, l = divmod(int(np.argmax(bad)), bad.shape[1])  # smallest i, then l
    if flipped:
        n, k = m.shape
        return IfrReport(False, (n - 2 - i, n - 1 - i, k - 1 - l))
    return IfrReport(False, (i, i + 1, l))


@dataclass(frozen=True)
class MonotonicityReport:
    wait_monotone: bool
    transplant_monotone: bool
    # first violation per function, as (description, index pair) or None
    wait_violation: tuple | None = None
    transplant_violation: tuple | None = None

    @property
    def monotone(self) -> bool:
        return self.wait_monotone and self.transplant_monotone


def check_monotone_rewards(spec: DiscreteModelSpec) -> MonotonicityReport:
    """Report whether rewards are nonincreasing as health/quality worsens.

    The spec is canonicalized internally; violation indices refer to the
    canonical ordering (larger index = worse, death/no-offer last).
    """
    c = canonicalize_orientation(spec)
    live_h = c.n_patient - 1
    live_k = c.n_organ - 1

    d_w = np.diff(VARIANT_RULES[c.variant].wait_arrays(c)[0][:, :live_h])
    wait_viol = None
    if (d_w > ORDER_TOL).any():
        i = int(np.argwhere(d_w > ORDER_TOL)[0, 1])
        wait_viol = ("wait_reward", i, i + 1)

    R = c.transplant_reward[:live_h, :live_k]
    trans_viol = None
    d_h = np.diff(R, axis=0)
    d_k = np.diff(R, axis=1)
    if (d_h > ORDER_TOL).any():
        i, k = np.argwhere(d_h > ORDER_TOL)[0]
        trans_viol = ("transplant_reward patient axis", int(i), int(k))
    elif (d_k > ORDER_TOL).any():
        i, k = np.argwhere(d_k > ORDER_TOL)[0]
        trans_viol = ("transplant_reward organ axis", int(i), int(k))

    return MonotonicityReport(
        wait_monotone=wait_viol is None,
        transplant_monotone=trans_viol is None,
        wait_violation=wait_viol,
        transplant_violation=trans_viol,
    )


def _canonical_permutations(spec: DiscreteModelSpec):
    """Old patient and organ indices in canonical order: live states from
    best to worst, then the death or no-offer index."""
    def order(n, special_index, orientation):
        live = [i for i in range(n) if i != special_index]
        if orientation is Orientation.LARGER_IS_BETTER:
            live = live[::-1]
        return np.array(live + [special_index])

    return (order(spec.n_patient, spec.death_index, spec.patient_orientation),
            order(spec.n_organ, spec.no_offer_index, spec.organ_orientation))


def canonicalize_orientation(spec: DiscreteModelSpec) -> DiscreteModelSpec:
    """Return an equivalent spec in canonical index order.

    Canonical form: larger index = worse on both axes, death is the last
    patient index, no-offer the last organ index.  Idempotent; the returned
    spec's value function is the input's under the same index permutation.
    """
    if spec.is_canonical():
        return spec
    perm_h, perm_k = _canonical_permutations(spec)

    inv_k = np.argsort(perm_k)
    return replace(
        spec,
        death_index=spec.n_patient - 1,
        no_offer_index=spec.n_organ - 1,
        patient_orientation=Orientation.LARGER_IS_WORSE,
        organ_orientation=Orientation.LARGER_IS_WORSE,
        transition=spec.transition[..., perm_h[:, None], perm_h[None, :]],
        offer_prob=spec.offer_prob[perm_h[:, None], perm_k[None, :]],
        wait_reward=spec.wait_reward[..., perm_h],
        transplant_reward=spec.transplant_reward[perm_h[:, None], perm_k[None, :]],
        living_donor_state=(None if spec.living_donor_state is None
                            else int(inv_k[spec.living_donor_state])),
        success_prob=(None if spec.success_prob is None
                      else spec.success_prob[perm_h[:, None], perm_k[None, :]]),
    )


def legal_actions(spec: DiscreteModelSpec, cell) -> tuple[Action, ...]:
    """Legal actions at a cell, in prefer-wait order.

    Cells are (h, k) for the 2-D variants, (h,) for the living-donor chain
    and (h, regime, k) for dialysis.  Death cells get the no-op only.
    """
    if cell[0] == spec.death_index:
        return (Action.NONE,)
    rule = VARIANT_RULES[spec.variant]
    return rule.legal(spec, cell[1] if len(rule.regimes) > 1 else 0, cell[-1])


def validate_policy(spec: DiscreteModelSpec, policy: Policy) -> Policy:
    """Check every assigned action is legal for its cell; raise otherwise."""
    if policy.variant is not spec.variant:
        raise ModelValidationError([f"policy variant {policy.variant.value} != "
                                    f"spec variant {spec.variant.value}"])
    rule = VARIANT_RULES[spec.variant]
    actions = policy.actions.reshape(rule.grid(spec))
    legal = np.empty(actions.shape, dtype=bool)
    for g, k in np.ndindex(legal.shape[0], legal.shape[2]):
        legal[g, :, k] = np.isin(actions[g, :, k], rule.legal(spec, g, k))
    legal[:, spec.death_index] = actions[:, spec.death_index] == Action.NONE
    if not legal.all():
        g, h, k = (int(i) for i in np.argwhere(~legal)[0])
        cell = (h,) + (g,) * (len(rule.regimes) > 1) + (k,) * rule.organ_axis
        code = int(actions[g, h, k])
        name = {int(a): a.name for a in Action}.get(code, code)
        raise ModelValidationError([f"illegal action {name} at cell {cell}"])
    return policy
