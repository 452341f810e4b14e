"""Solvers and analysis tools for organ-acceptance optimal-stopping models.

The package covers the discrete-time acceptance models (deceased-donor,
living-donor, combined, dialysis-regime and a discretized continuous-state
analog), their robust and risk-sensitive extensions, continuous-time
threshold curves, Monte Carlo evaluation, and policy-structure analysis.

``import organstop`` loads no submodule: each public name is imported from
its module on first use (PEP 562), so a program loads only what it runs.
"""

import importlib

_EXPORTS = {
    "model": (
        "Action", "DIALYSIS_REGIME", "DiscreteModelSpec", "IfrReport",
        "MEDICATION_REGIME", "ModelValidationError", "MonotonicityReport",
        "Orientation", "Policy", "ValueFunction", "Variant",
        "canonicalize_orientation", "check_ifr", "check_monotone_rewards",
        "legal_actions", "validate_model", "validate_policy",
        "validation_errors"),
    "solver": (
        "SolveOptions", "TieBreak", "bellman_backup",
        "build_continuous_analog_spec", "greedy_policy", "marginal_values",
        "solve_value_iteration"),
    "structure": (
        "Am2roReport", "Am3rReport", "ControlLimitReport", "StructureReport",
        "analyze_policy", "check_am2ro", "check_am3r",
        "extract_organ_control_limits", "extract_patient_control_limits",
        "policy_from_organ_limits", "reconstruct_policy",
        "region_connectivity", "threshold_1d"),
    "robust": (
        "AmbiguitySpec", "RobustComparison", "compare_robust_myopic",
        "kl_divergence", "kl_worst_case", "robust_backup",
        "robust_value_iteration"),
    "risk": (
        "RiskSpec", "certainty_equivalent", "exp_utility",
        "exp_utility_inverse", "lifetime_value_iteration",
        "risk_sensitive_value_iteration"),
    "ctime": (
        "ContinuousModelSpec", "ContinuousOffers", "DeterministicInterarrival",
        "FiniteOffers", "FixedInstants", "Lifetime",
        "NonhomogeneousPoissonArrivals", "PoissonArrivals", "RenewalArrivals",
        "StiffnessError", "ThresholdCurve", "UniformOffers", "critical_times",
        "erlang_lifetime", "exponential_interarrival", "exponential_lifetime",
        "finite_horizon_thresholds", "infinite_horizon_limit",
        "poisson_lambda_ode", "renewal_lambda"),
    "simulate": (
        "EvalEstimate", "TrajectoryRecord", "brute_force_optimal",
        "continuous_time_simulate", "estimate_policy_value",
        "simulate_trajectory"),
    "docio": ("DocumentError", "ModelDocument", "load_document",
              "parse_document"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "svgplot"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
