"""Solvers and analysis tools for organ-acceptance optimal-stopping models.

The package covers the discrete-time acceptance models (deceased-donor,
living-donor, combined, dialysis-regime and a discretized continuous-state
analog), their robust and risk-sensitive extensions, continuous-time
threshold curves, Monte Carlo evaluation, and policy-structure analysis.
"""

from .model import (
    Action,
    DIALYSIS_REGIME,
    DiscreteModelSpec,
    IfrReport,
    MEDICATION_REGIME,
    ModelValidationError,
    MonotonicityReport,
    Orientation,
    Policy,
    ValueFunction,
    Variant,
    canonicalize_orientation,
    check_ifr,
    check_monotone_rewards,
    legal_actions,
    validate_model,
    validate_policy,
    validation_errors,
)
from .solver import (
    SolveOptions,
    TieBreak,
    bellman_backup,
    build_continuous_analog_spec,
    greedy_policy,
    marginal_values,
    solve_value_iteration,
)
from .structure import (
    Am2roReport,
    Am3rReport,
    ControlLimitReport,
    StructureReport,
    analyze_policy,
    check_am2ro,
    check_am3r,
    extract_organ_control_limits,
    extract_patient_control_limits,
    policy_from_organ_limits,
    reconstruct_policy,
    region_connectivity,
    threshold_1d,
)
from .robust import (
    AmbiguitySpec,
    RobustComparison,
    compare_robust_myopic,
    kl_divergence,
    kl_worst_case,
    robust_backup,
    robust_value_iteration,
)
from .risk import (
    RiskSpec,
    certainty_equivalent,
    exp_utility,
    exp_utility_inverse,
    lifetime_value_iteration,
    risk_sensitive_value_iteration,
)
from .ctime import (
    ContinuousModelSpec,
    ContinuousOffers,
    DeterministicInterarrival,
    FiniteOffers,
    FixedInstants,
    Lifetime,
    NonhomogeneousPoissonArrivals,
    PoissonArrivals,
    RenewalArrivals,
    StiffnessError,
    ThresholdCurve,
    UniformOffers,
    critical_times,
    erlang_lifetime,
    exponential_interarrival,
    exponential_lifetime,
    finite_horizon_thresholds,
    infinite_horizon_limit,
    poisson_lambda_ode,
    renewal_lambda,
)
from .simulate import (
    EvalEstimate,
    TrajectoryRecord,
    brute_force_optimal,
    continuous_time_simulate,
    estimate_policy_value,
    recompute_reward,
    simulate_trajectory,
)
from .docio import DocumentError, ModelDocument, load_document, parse_document

__version__ = "0.1.0"
