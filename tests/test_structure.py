"""Control-limit extraction, region geometry, and the fixture policies."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from organstop import (
    Action,
    ModelValidationError,
    Policy,
    Variant,
    analyze_policy,
    check_am2ro,
    check_am3r,
    extract_organ_control_limits,
    extract_patient_control_limits,
    policy_from_organ_limits,
    reconstruct_policy,
    region_connectivity,
    solve_value_iteration,
    threshold_1d,
    validate_model,
)
from organstop.counterexamples import (
    connected_regions,
    disconnected_regions,
    patient_limit_only,
)
from organstop.structure import action_runs

from helpers import (random_base_spec, random_living_donor_spec,
                     reversal_permutations, reversed_spec,
                     structured_base_spec)
from reference_structure import reference_analysis

W, T, L, N = (int(Action.WAIT), int(Action.TRANSPLANT),
              int(Action.TRANSPLANT_LIVING), int(Action.NONE))


def test_action_runs_basic():
    assert action_runs(np.array([W, W, T, T, W])) == \
        [(W, 0, 2), (T, 2, 4), (W, 4, 5)]
    assert action_runs(np.array([T])) == [(T, 0, 1)]


def test_all_wait_policy_is_single_region():
    spec = random_base_spec(np.random.default_rng(0))
    pol = policy_from_organ_limits(spec, [-1] * (spec.n_patient - 1))
    report = analyze_policy(spec, pol)
    assert report.patient_based.is_control_limit
    assert report.organ_based.is_control_limit
    assert len(report.regions) == 1
    assert report.regions[0].action == W


def test_staircase_policy_passes_everything():
    spec = random_base_spec(np.random.default_rng(1), n_live=4, n_offered=3)
    pol = policy_from_organ_limits(spec, [-1, 0, 1, 2])
    report = analyze_policy(spec, pol)
    assert report.patient_based.is_control_limit
    assert report.organ_based.is_control_limit
    assert len(report.regions) == 2
    # thresholds recover the staircase
    np.testing.assert_array_equal(report.organ_based.thresholds, [-1, 0, 1, 2])


def test_reconstruct_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        spec = random_base_spec(rng, n_live=4, n_offered=3)
        limits = np.sort(rng.integers(-1, 3, size=4))
        pol = policy_from_organ_limits(spec, limits)
        rep = extract_organ_control_limits(spec, pol)
        grid = reconstruct_policy(spec, rep)
        live = spec.live_patients()
        offered = spec.offered_organs()
        np.testing.assert_array_equal(
            grid, np.asarray(pol.actions)[np.ix_(live, offered)])


def test_rejects_one_dimensional_variants():
    spec = random_living_donor_spec(np.random.default_rng(3))
    pol = Policy(spec.variant, np.array([W, W, W, L, N]))
    with pytest.raises(ModelValidationError):
        extract_patient_control_limits(spec, pol)


def test_threshold_1d():
    assert threshold_1d(np.array([W, W, L, L, N]), 4) == 2
    assert threshold_1d(np.array([W, W, W, W, N]), 4) == 4
    assert threshold_1d(np.array([L, L, L, L, N]), 4) == 0
    assert threshold_1d(np.array([W, L, W, L, N]), 4) is None


# --- fixtures ---------------------------------------------------------------

def test_patient_limit_only_fixture():
    spec, pol = patient_limit_only()
    rep = analyze_policy(spec, pol)
    assert rep.patient_based.is_control_limit
    assert not rep.organ_based.is_control_limit
    # the witness names a row whose wait action splits into two runs
    idx, action, run1, run2 = rep.organ_based.witness
    assert action == W
    assert run1 != run2


def test_disconnected_fixture():
    spec, pol = disconnected_regions()
    rep = analyze_policy(spec, pol)
    assert rep.patient_based.is_control_limit
    assert rep.organ_based.is_control_limit
    assert len(rep.regions) == 4
    assert rep.am3r.disconnected
    assert not rep.am2ro.holds


def test_connected_fixture():
    spec, pol = connected_regions()
    rep = analyze_policy(spec, pol)
    assert rep.am2ro.holds
    np.testing.assert_array_equal(rep.am2ro.limits, [0, 0, 1, 2])
    assert rep.am3r.holds
    assert rep.am3r.region_count == 3
    assert not rep.am3r.disconnected


def test_region_connectivity_counts_by_flood_fill():
    # checkerboard: both diagonal cells of each action are separated
    spec = random_base_spec(np.random.default_rng(4), n_live=2, n_offered=2)
    actions = np.full((spec.n_patient, spec.n_organ), W)
    actions[0, 0] = actions[1, 1] = T
    actions[spec.death_index] = N
    regions = region_connectivity(spec, Policy(spec.variant, actions))
    assert len(regions) == 4


def test_am2ro_requires_combined():
    spec, _ = patient_limit_only()
    pol = policy_from_organ_limits(spec, [0, 1, 2])
    with pytest.raises(ModelValidationError):
        check_am2ro(spec, pol)


def test_am3r_witness_column():
    spec, _ = connected_regions()
    grid = np.array([
        [T, W, W, W],
        [T, T, W, W],
        [W, T, L, L],   # wait reappears below the transplant block
        [T, T, T, L],
    ])
    actions = np.full((spec.n_patient, spec.n_organ), N)
    actions[:-1] = grid
    rep = check_am3r(spec, Policy(spec.variant, actions))
    assert not rep.holds
    assert rep.witness_column == 0


# --- the run table against the reference, and orientation --------------------

@st.composite
def combined_policies(draw):
    """A canonical combined-variant spec with a policy over 1-4 actions:
    random cells, a checkerboard, or organ-limit rows with a constant tail."""
    n_live, n_offered = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    codes = draw(st.lists(st.sampled_from([W, T, L, N]), min_size=1,
                          max_size=4, unique=True))
    kind = draw(st.sampled_from(["random", "checkerboard", "limits"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = random_base_spec(rng, n_live, n_offered, variant=Variant.COMBINED)
    H, K = spec.n_patient, spec.n_organ
    if kind == "random":
        actions = rng.choice(codes, size=(H, K))
    elif kind == "checkerboard":
        parity = np.add.outer(np.arange(H), np.arange(K)) % 2
        actions = np.where(parity, codes[0], codes[-1])
    else:
        limits = np.sort(rng.integers(-1, n_offered, H))
        actions = np.where(np.arange(K) <= limits[:, None], T, codes[0])
    actions[spec.death_index] = N
    return spec, Policy(spec.variant, actions)


def assert_same(a, b, path="report"):
    """Field-for-field equality of reports, arrays compared with dtype."""
    if hasattr(a, "__dataclass_fields__"):
        assert type(a) is type(b), path
        for name in a.__dataclass_fields__:
            assert_same(getattr(a, name), getattr(b, name), f"{path}.{name}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype, path
        np.testing.assert_array_equal(a, b, err_msg=path)
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


@given(combined_policies())
def test_analysis_matches_reference(case):
    spec, pol = case
    assert_same(analyze_policy(spec, pol), reference_analysis(spec, pol))


def reversed_case(spec, pol):
    """The reversed spec, its copy of the policy, and the canonical-to-
    reversed label maps of both axes."""
    perm_h, perm_k = reversal_permutations(spec)
    flipped = Policy(spec.variant, pol.actions[np.ix_(perm_h, perm_k)])
    return reversed_spec(spec), flipped, np.argsort(perm_h), np.argsort(perm_k)


def relabelled(report, to_h, to_k):
    """A canonical report with every input label mapped by to_h / to_k."""
    def scan(rep, to):
        return replace(
            rep,
            lines=tuple(replace(line, index=int(to[line.index]))
                        for line in rep.lines),
            witness=rep.witness and (int(to[rep.witness[0]]),) + rep.witness[1:])

    return replace(
        report,
        patient_based=scan(report.patient_based, to_k),
        organ_based=scan(report.organ_based, to_h),
        regions=[replace(r, cells=tuple(sorted(
            (int(to_h[h]), int(to_k[k])) for h, k in r.cells)))
            for r in report.regions])


@given(combined_policies())
def test_reversed_orientation_gives_the_canonical_analysis(case):
    spec, pol = case
    rev_spec, rev_pol, to_h, to_k = reversed_case(spec, pol)
    assert_same(analyze_policy(rev_spec, rev_pol),
                relabelled(analyze_policy(spec, pol), to_h, to_k))


def test_reversed_threshold_model_keeps_its_thresholds():
    spec = structured_base_spec(np.random.default_rng(5), n_live=8, n_offered=5)
    spec = validate_model(replace(spec, variant=Variant.COMBINED,
                                  living_donor_state=4))
    _, pol = solve_value_iteration(spec)
    rev_spec, rev_pol, to_h, to_k = reversed_case(spec, pol)
    np.testing.assert_array_equal(solve_value_iteration(rev_spec)[1].actions,
                                  rev_pol.actions)
    canonical, flipped = analyze_policy(spec, pol), analyze_policy(rev_spec, rev_pol)
    assert canonical.organ_based.thresholds is not None
    assert canonical.am2ro.holds and canonical.am3r.holds
    assert_same(flipped, relabelled(canonical, to_h, to_k))
    # limits read in canonical order rebuild the reversed policy
    np.testing.assert_array_equal(
        policy_from_organ_limits(rev_spec, flipped.am2ro.limits).actions,
        np.where(rev_pol.actions == L, W, rev_pol.actions))
