"""Validation, IFR checks, and orientation canonicalization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from organstop import (
    Action,
    AmbiguitySpec,
    DiscreteModelSpec,
    ModelValidationError,
    Orientation,
    Policy,
    RiskSpec,
    Variant,
    canonicalize_orientation,
    check_ifr,
    check_monotone_rewards,
    legal_actions,
    validate_model,
    validate_policy,
    validation_errors,
)
from organstop import docio, model
from organstop.risk import risk_sensitive_value_iteration
from organstop.robust import robust_value_iteration
from organstop.solver import SolveOptions, TieBreak, solve_value_iteration

from helpers import (
    random_analog_spec,
    random_base_spec,
    random_dialysis_spec,
    random_lifetime_pmf,
    random_living_donor_spec,
    random_spec,
    reversal_permutations,
    reversed_spec,
    structured_base_spec,
)


def tiny_spec(**overrides):
    base = dict(
        variant=Variant.BASE,
        n_patient=3, death_index=2,
        n_organ=2, no_offer_index=1,
        transition=np.array([[0.6, 0.2, 0.2], [0.1, 0.5, 0.4], [0.0, 0.0, 1.0]]),
        offer_prob=np.array([[0.7, 0.3], [0.5, 0.5], [0.5, 0.5]]),
        wait_reward=np.array([1.0, 0.5, 0.0]),
        transplant_reward=np.array([[8.0, 0.0], [5.0, 0.0], [0.0, 0.0]]),
        discount=0.9,
    )
    base.update(overrides)
    return DiscreteModelSpec(**base)


def refusal(build, *args, **kwargs):
    """The messages of the ModelValidationError that ``build(*args,
    **kwargs)`` raises, or [] when it builds a spec."""
    try:
        build(*args, **kwargs)
    except ModelValidationError as exc:
        return exc.errors
    return []


def test_valid_spec_passes():
    assert validation_errors(tiny_spec()) == []


def test_row_sum_violation_is_reported_with_location():
    msgs = refusal(tiny_spec, transition=np.array(
        [[0.6, 0.3, 0.2], [0.1, 0.5, 0.4], [0.0, 0.0, 1.0]]))
    assert any("transition" in m and "row sum" in m and " 0" in m for m in msgs)


def test_death_row_must_absorb():
    msgs = refusal(tiny_spec, transition=np.array(
        [[0.6, 0.2, 0.2], [0.1, 0.5, 0.4], [0.5, 0.0, 0.5]]))
    assert any("absorbing" in m for m in msgs)


def test_discount_one_rejected():
    msgs = refusal(tiny_spec, discount=1.0)
    assert any("discount" in m for m in msgs)


def test_reward_at_death_rejected():
    msgs = refusal(tiny_spec, wait_reward=np.array([1.0, 0.5, 0.3]))
    assert any("death" in m for m in msgs)


def test_living_donor_forbidden_for_base():
    msgs = refusal(tiny_spec, living_donor_state=0)
    assert any("living donor" in m.lower() for m in msgs)


@pytest.mark.parametrize("field, index, bad", [
    ("transition", (0, 1), np.nan),
    ("offer_prob", (1, 0), -np.inf),
    ("wait_reward", 0, np.nan),
    ("transplant_reward", (0, 0), np.nan),
    ("transplant_reward", (1, 0), np.inf),
    ("success_prob", (0, 1), np.nan),
    ("success_reward", None, np.nan),
    ("ambiguity levels", 1, np.nan),
    ("risk_coefficient", None, np.nan),
    ("lifetime_pmf", (0, 1, 0), np.nan),
], ids=lambda v: v if isinstance(v, str) else str(v).replace(" ", ""))
def test_non_finite_input_is_rejected(field, index, bad):
    where = () if index is None else index
    if field == "ambiguity levels":
        levels = np.zeros(3)
        levels[where] = bad
        with pytest.raises(ModelValidationError) as exc:
            AmbiguitySpec(levels)
        errors = exc.value.errors
    elif field in ("risk_coefficient", "lifetime_pmf"):
        pmf = np.zeros((3, 2, 2))
        pmf[..., 0] = 1.0
        coefficient = bad if field == "risk_coefficient" else 1.0
        if field == "lifetime_pmf":
            pmf[where] = bad
        with pytest.raises(ModelValidationError) as exc:
            RiskSpec(coefficient, pmf)
        errors = exc.value.errors
    else:
        spec = random_analog_spec(np.random.default_rng(0)) \
            if field.startswith("success") else tiny_spec()
        value = np.array(getattr(spec, field), dtype=float)
        value[where] = bad
        errors = refusal(replace, spec,
                         **{field: value if value.ndim else float(value)})
    at = "" if index is None else f" at {index}"
    assert f"{field}: non-finite entry {bad}{at}" in errors


@pytest.mark.parametrize("missing", [("success_prob",), ("success_reward",),
                                     ("success_prob", "success_reward")],
                         ids=["prob", "reward", "both"])
def test_analog_requires_success_fields(missing):
    spec = random_analog_spec(np.random.default_rng(0))
    errors = refusal(replace, spec, **dict.fromkeys(missing))
    assert f"{' and '.join(missing)} required for continuous_analog" in errors


@pytest.mark.parametrize("present", [True, False], ids=["set", "unset"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_optional_fields_follow_the_variant_terminals(variant, present):
    """A living-donor state exactly for a living-donor organ, success fields
    exactly for the analog's organ; otherwise the field is refused."""
    spec = random_spec(np.random.default_rng(3), variant)
    name = variant.value
    donor = variant in (Variant.LIVING_DONOR, Variant.COMBINED)
    analog = variant is Variant.CONTINUOUS_ANALOG
    if present:
        donor_errors = [] if donor else [
            f"living_donor_state: living donor forbidden for {name}"]
        success_errors = [] if analog else [
            f"success fields forbidden for {name}"]
        success = dict(success_prob=spec.success_prob,
                       success_reward=spec.success_reward) if analog else \
            dict(success_prob=np.zeros((spec.n_patient, spec.n_organ)),
                 success_reward=1.0)
    else:
        donor_errors = [f"living donor state required for {name}"] if donor \
            else []
        success_errors = [f"success_prob and success_reward required for "
                          f"{name}"] if analog else []
        success = dict(success_prob=None, success_reward=None)
    assert refusal(replace, spec, living_donor_state=0 if present else None
                   ) == donor_errors
    assert refusal(replace, spec, **success) == success_errors


def test_validate_model_raises_and_seals():
    """A built spec holds sealed float arrays, also when it was given
    lists, and ``validate_model`` passes it through.  A contiguous float64
    array is kept without a copy, so the caller's own array is sealed;
    lists and other dtypes are copied."""
    with pytest.raises(ModelValidationError):
        tiny_spec(discount=1.5)
    fields = ("transition", "offer_prob", "wait_reward", "transplant_reward")
    spec = tiny_spec(**{name: getattr(tiny_spec(), name).tolist()
                        for name in fields})
    for name in fields:
        array = getattr(spec, name)
        assert type(array) is np.ndarray and array.dtype == float
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        spec.transition[0, 0] = 0.5
    assert validate_model(spec) is spec
    mine = np.array([[0.6, 0.2, 0.2], [0.1, 0.5, 0.4], [0.0, 0.0, 1.0]])
    assert tiny_spec(transition=mine).transition is mine
    assert not mine.flags.writeable
    ints = np.array([[1, 0], [1, 0], [1, 0]])
    listed = [[8.0, 0.0], [5.0, 0.0], [0.0, 0.0]]
    spec = tiny_spec(offer_prob=ints, transplant_reward=listed)
    assert spec.offer_prob is not ints and ints.flags.writeable
    assert spec.transplant_reward is not listed
    assert listed == [[8.0, 0.0], [5.0, 0.0], [0.0, 0.0]]


def bumped(spec, field, index, value, **others):
    """``spec`` with ``field[index]`` set to ``value`` and ``others``
    replaced."""
    array = np.array(getattr(spec, field))
    array[index] = value
    return replace(spec, **{field: array}, **others)


def donor_spec():
    return random_living_donor_spec(np.random.default_rng(0))


def analog_spec():
    return random_analog_spec(np.random.default_rng(0))


@pytest.mark.parametrize("refused, message", [
    (lambda: replace(tiny_spec(), offer_prob=np.full((3, 3), 1 / 3)),
     "offer_prob: shape (3, 3), expected (3, 2)"),
    (lambda: bumped(tiny_spec(), "wait_reward", 0, -0.5),
     "wait_reward: negative entry"),
    (lambda: bumped(tiny_spec(), "transplant_reward", (1, 0), -2.0),
     "transplant_reward: negative entry"),
    (lambda: bumped(tiny_spec(), "transplant_reward", (2, 0), 3.0),
     "transplant_reward: nonzero reward at death state (max 3)"),
    (lambda: replace(donor_spec(), living_donor_state=2),
     "living_donor_state 2 outside [0,2)"),
    (lambda: replace(donor_spec(), living_donor_state=1),
     "living_donor_state collides with no_offer_index"),
    (lambda: replace(analog_spec(),
                     success_prob=analog_spec().success_prob[:, :2]),
     "success_prob: shape (4, 2), expected (4, 3)"),
    (lambda: bumped(analog_spec(), "success_prob", (0, 0), 1.5),
     "success_prob: entry outside [0,1]"),
    (lambda: replace(analog_spec(), success_reward=-1.0),
     "success_reward -1.0 negative"),
    (lambda: bumped(analog_spec(), "transplant_reward", (0, 0), 20.0),
     "transplant_reward inconsistent with success_prob * success_reward"),
    # no operator can be handed a refused spec: a NaN transition entry or a
    # discount above 1 once built, and the backup returned NaN or values
    (lambda: bumped(tiny_spec(), "transition", (0, 1), np.nan),
     "transition: non-finite entry nan at (0, 1)"),
    (lambda: tiny_spec(discount=1.5), "discount 1.5 outside (0,1)"),
    (lambda: replace(tiny_spec(), discount=1.5), "discount 1.5 outside (0,1)"),
    (lambda: AmbiguitySpec(np.array([0.1, -0.1, 0.0])),
     "ambiguity level negative"),
    (lambda: robust_value_iteration(tiny_spec(), AmbiguitySpec(np.zeros(3))),
     "robust solving is defined for the living_donor variant only"),
    (lambda: robust_value_iteration(donor_spec(), AmbiguitySpec(np.zeros(3))),
     "ambiguity levels length mismatch"),
    (lambda: risk_sensitive_value_iteration(donor_spec(), RiskSpec(
        1.0, random_lifetime_pmf(np.random.default_rng(0), donor_spec()))),
     "risk-sensitive solving expects the base variant with unit wait "
     "rewards, got living_donor"),
    # every shape is checked before any value: the bad transition row of
    # the first field goes unreported next to the shape fault
    (lambda: bumped(tiny_spec(), "transition", (0, 0), 0.9,
                    wait_reward=np.zeros(2)),
     "wait_reward: shape (2,), expected (3,)"),
], ids=["offer-shape", "negative-wait", "negative-transplant",
        "transplant-at-death", "donor-state-range", "donor-state-no-offer",
        "success-shape", "success-range", "negative-success-reward",
        "inconsistent-transplant", "nan-transition", "discount-above-one",
        "replace-into-refused", "robust-negative-level",
        "robust-variant", "robust-levels-length", "risk-variant",
        "shapes-first"])
def test_refusals_name_their_fault(refused, message):
    with pytest.raises(ModelValidationError) as exc:
        refused()
    assert exc.value.errors == [message]


def test_legal_actions_respects_no_offer():
    spec = tiny_spec()
    assert Action.TRANSPLANT in legal_actions(spec, (0, 0))
    assert Action.TRANSPLANT not in legal_actions(spec, (0, 1))
    assert legal_actions(spec, (2, 0)) == (Action.NONE,)


def test_validate_policy_rejects_transplant_without_offer():
    spec = tiny_spec()
    actions = np.array([[1, 1], [0, 0], [5, 5]])
    with pytest.raises(ModelValidationError):
        validate_policy(spec, Policy(spec.variant, actions))


# --- IFR -------------------------------------------------------------------

def test_ifr_identity_holds():
    assert check_ifr(np.eye(3)).holds


def test_ifr_violation_witness():
    m = np.array([[0.2, 0.8, 0.0],
                  [0.9, 0.1, 0.0],
                  [0.0, 0.0, 1.0]])
    rep = check_ifr(m)
    assert not rep.holds
    i, i1, l = rep.witness
    assert (i, i1) == (0, 1)
    # the witness tail really does decrease
    assert m[i, l:].sum() > m[i1, l:].sum()


def test_ifr_brute_force_agreement():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.dirichlet(np.ones(4), size=4)
        rep = check_ifr(m)
        # brute-force tail comparison
        holds = True
        for i in range(3):
            for l in range(4):
                if m[i, l:].sum() > m[i + 1, l:].sum() + 1e-12:
                    holds = False
        assert rep.holds == holds


def test_ifr_flipped_orientation():
    # larger index = better: state 1 must transition stochastically better
    m = np.array([[0.4, 0.6], [0.1, 0.9]])
    assert check_ifr(m, Orientation.LARGER_IS_BETTER).holds
    assert not check_ifr(m[::-1], Orientation.LARGER_IS_BETTER).holds


# --- monotone rewards ------------------------------------------------------

def test_monotone_rewards_on_structured_spec():
    spec = structured_base_spec(np.random.default_rng(3))
    assert check_monotone_rewards(spec).monotone


def test_monotone_rewards_violation():
    spec = tiny_spec(wait_reward=np.array([0.5, 1.0, 0.0]))
    rep = check_monotone_rewards(spec)
    assert not rep.wait_monotone
    assert rep.wait_violation[0] == "wait_reward"


# --- canonicalization ------------------------------------------------------

def test_canonicalize_is_identity_on_canonical():
    spec = random_base_spec(np.random.default_rng(0))
    c = canonicalize_orientation(spec)
    assert np.allclose(c.transition, spec.transition)
    assert c.is_canonical()


def test_canonicalize_recovers_reversed_spec():
    spec = random_base_spec(np.random.default_rng(1))
    back = canonicalize_orientation(reversed_spec(spec))
    assert back.is_canonical()
    assert np.allclose(back.transition, spec.transition)
    assert np.allclose(back.offer_prob, spec.offer_prob)
    assert np.allclose(back.transplant_reward, spec.transplant_reward)


@given(variant=st.sampled_from([Variant.BASE, Variant.COMBINED,
                                 Variant.CONTINUOUS_ANALOG]),
       n_live=st.integers(1, 4), n_offered=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       tie_break=st.sampled_from(list(TieBreak)))
def test_canonicalize_preserves_optimal_values(variant, n_live, n_offered,
                                               seed, tie_break):
    spec = random_spec(np.random.default_rng(seed), variant, n_live, n_offered)
    opts = SolveOptions(tolerance=1e-10, tie_break=tie_break)
    vf_a, pol_a = solve_value_iteration(spec, opts)
    vf_b, pol_b = solve_value_iteration(reversed_spec(spec), opts)
    # canonical (h, k) sits at (inv_h[h], inv_k[k]) in the reversed spec
    inv_h, inv_k = (np.argsort(p) for p in reversal_permutations(spec))
    np.testing.assert_allclose(vf_b.values[np.ix_(inv_h, inv_k)], vf_a.values,
                               rtol=0, atol=1e-9)
    np.testing.assert_array_equal(pol_b.actions[np.ix_(inv_h, inv_k)],
                                  pol_a.actions)


def test_dialysis_spec_shapes_validate():
    spec = random_dialysis_spec(np.random.default_rng(5))
    assert spec.transition.shape == (2, spec.n_patient, spec.n_patient)
    assert validation_errors(spec) == []


@pytest.mark.parametrize("variant", list(Variant))
def test_array_shapes_come_from_the_variant_table(variant):
    spec = random_spec(np.random.default_rng(11), variant, n_live=2)
    H = spec.n_patient
    stack = (2,) if variant is Variant.DIALYSIS else ()
    tshape, wshape = stack + (H, H), stack + (H,)
    assert model.VARIANT_RULES[variant].wait_shapes(H) == (tshape, wshape)
    cut = spec.transition[..., :-1]
    assert refusal(replace, spec, transition=cut) == [
        f"transition: shape {cut.shape}, expected {tshape}"]
    cut = spec.wait_reward[..., :-1]
    assert refusal(replace, spec, wait_reward=cut) == [
        f"wait_reward: shape {cut.shape}, expected {wshape}"]
    section = docio.model_section(spec)
    for name, dims in (("transition", len(tshape)), ("wait_reward", len(wshape))):
        stacked = {**section, name: [section[name]]}
        with pytest.raises(docio.DocumentError) as err:
            docio.parse_model_section(stacked)
        assert str(err.value) == (f"model.{name}: expected a {dims}-dimensional "
                                  f"array, got {dims + 1} dimensions")


def row_loop_check(matrix, name, errors, axis_name="patient state"):
    """The row-at-a-time stochastic-row check the array check replaced."""
    matrix = np.asarray(matrix, dtype=float)
    for i, row in enumerate(matrix):
        s = row.sum()
        if abs(s - 1.0) > model.ROW_SUM_TOL:
            errors.append(f"{name}: row sum {s:.12g} at {axis_name} {i}")
        if (row < -model.ROW_SUM_TOL).any() or (row > 1.0 + model.ROW_SUM_TOL).any():
            j = int(np.argmax((row < -model.ROW_SUM_TOL)
                              | (row > 1.0 + model.ROW_SUM_TOL)))
            errors.append(f"{name}: entry {row[j]:.12g} outside [0,1] at ({i},{j})")


@given(st.sampled_from([Variant.BASE, Variant.DIALYSIS]),
       st.integers(0, 2**32 - 1))
def test_row_checks_give_the_row_loop_messages(variant, seed):
    """Several bad rows per matrix: sums off one, entries below 0 or above
    1, both in one row; the messages and their order are the row loop's."""
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, variant, n_live=int(rng.integers(2, 6)),
                       n_offered=int(rng.integers(1, 4)))
    trans, offer = spec.transition.copy(), spec.offer_prob.copy()
    for matrix in (trans.reshape(-1, spec.n_patient), offer):
        rows = rng.choice(len(matrix), size=min(3, len(matrix)), replace=False)
        for n, i in enumerate(rows):
            j, j2 = rng.choice(matrix.shape[1], size=2, replace=False)
            kind = 0 if n == 0 else rng.integers(5)
            if kind == 4:  # entries outside [0, 1], the sum kept
                matrix[i, j] -= 1.2
                matrix[i, j2] += 1.2
            else:
                matrix[i, j] = [1.5, -0.5, matrix[i, j] + 0.25,
                                matrix[i, j] + 1e-10][kind]
    errors = refusal(replace, spec, transition=trans, offer_prob=offer)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_check_stochastic_rows", row_loop_check)
        assert errors == refusal(replace, spec, transition=trans,
                                 offer_prob=offer)
    assert errors
