"""The package's public surface: every exported name, loaded on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import organstop

# the names ``organstop`` exports, by the module that defines them
EXPORTS = {
    "model": [
        "Action", "DIALYSIS_REGIME", "DiscreteModelSpec", "IfrReport",
        "MEDICATION_REGIME", "ModelValidationError", "MonotonicityReport",
        "Orientation", "Policy", "ValueFunction", "Variant",
        "canonicalize_orientation", "check_ifr", "check_monotone_rewards",
        "legal_actions", "validate_model", "validate_policy",
        "validation_errors"],
    "solver": [
        "SolveOptions", "TieBreak", "bellman_backup",
        "build_continuous_analog_spec", "greedy_policy", "marginal_values",
        "solve_value_iteration"],
    "structure": [
        "Am2roReport", "Am3rReport", "ControlLimitReport", "StructureReport",
        "analyze_policy", "check_am2ro", "check_am3r",
        "extract_organ_control_limits", "extract_patient_control_limits",
        "policy_from_organ_limits", "reconstruct_policy",
        "region_connectivity", "threshold_1d"],
    "robust": [
        "AmbiguitySpec", "RobustComparison", "compare_robust_myopic",
        "kl_divergence", "kl_worst_case", "robust_backup",
        "robust_value_iteration"],
    "risk": [
        "RiskSpec", "certainty_equivalent", "exp_utility",
        "exp_utility_inverse", "lifetime_value_iteration",
        "risk_sensitive_value_iteration"],
    "ctime": [
        "ContinuousModelSpec", "ContinuousOffers", "DeterministicInterarrival",
        "FiniteOffers", "FixedInstants", "Lifetime",
        "NonhomogeneousPoissonArrivals", "PoissonArrivals", "RenewalArrivals",
        "StiffnessError", "ThresholdCurve", "UniformOffers", "critical_times",
        "erlang_lifetime", "exponential_interarrival", "exponential_lifetime",
        "finite_horizon_thresholds", "infinite_horizon_limit",
        "poisson_lambda_ode", "renewal_lambda"],
    "simulate": [
        "EvalEstimate", "TrajectoryRecord", "brute_force_optimal",
        "continuous_time_simulate", "estimate_policy_value",
        "simulate_trajectory"],
    "docio": ["DocumentError", "ModelDocument", "load_document",
              "parse_document"],
}
SUBMODULES = sorted([*EXPORTS, "cli", "svgplot"])
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names]


@pytest.mark.parametrize("module, name", NAMES,
                         ids=[name for _, name in NAMES])
def test_each_export_is_its_module_object(module, name):
    scope = {}
    exec(f"from organstop import {name}", scope)
    home = importlib.import_module(f"organstop.{module}")
    assert scope[name] is getattr(home, name)
    assert getattr(organstop, name) is getattr(home, name)


def test_all_and_dir_list_the_exports():
    names = sorted(name for _, name in NAMES)
    assert len(names) == 81
    assert sorted(organstop.__all__) == names
    assert set(names) <= set(dir(organstop))
    assert organstop.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        organstop.no_such_name
    with pytest.raises(ImportError):
        exec("from organstop import no_such_name", {})
    with pytest.raises(ImportError):
        exec("import organstop.counterexamples", {})


def test_submodules_resolve_after_a_bare_import():
    # a fresh interpreter, where no submodule has been imported yet; a name
    # is cached in the package once its module is loaded
    code = ("import sys, organstop\n"
            "assert [m for m in sys.modules if m.startswith('organstop.')]"
            " == []\n"
            "assert 'Policy' not in vars(organstop)\n"
            "assert organstop.Policy is sys.modules['organstop.model'].Policy\n"
            "assert vars(organstop)['Policy'] is organstop.Policy\n"
            f"for name in {SUBMODULES!r}:\n"
            "    assert getattr(organstop, name) is sys.modules["
            "'organstop.' + name], name\n"
            "print('ok')")
    src = os.path.dirname(os.path.dirname(organstop.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert (run.returncode, run.stdout) == (0, "ok\n"), run.stderr
