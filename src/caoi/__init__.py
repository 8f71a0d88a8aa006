"""Carbon-aware age-of-information toolkit.

Closed-form AoI for M/M/1 FCFS and preemptive LCFS sources, carbon
footprint accounting against step carbon-intensity profiles, sampling
rates constrained by carbon budgets, power caps, or QoS floors, and a
seeded discrete-event simulator for validating the formulas.
"""

from .carbon import (
    J_PER_KWH,
    CarbonLedger,
    CiProfile,
    ConstraintSet,
    EnergyModel,
    LinkBudget,
    avg_cf,
    cumulative_cf,
    joules_to_kwh,
    kwh_to_joules,
    lambda_kappa,
    lambda_p_max,
    lambda_qos_max,
    min_rate_for_snr,
)
from .cidata import (
    builtin_profile_si2024,
    parse_ci_csv,
    parse_ci_records,
    resample,
    serialize_ci_csv,
)
from .dessim import (
    CfMode,
    ReplicationSummary,
    SimConfig,
    SimulationTrace,
    empirical_packet_count_check,
    replicate,
    run,
)
from .errors import (
    CaoiError,
    ConfigError,
    DomainError,
    Infeasible,
    MissingConstraint,
    ParseError,
    ValidationError,
)
from .optimizer import (
    BindingConstraint,
    OptimizationResult,
    SweepRow,
    solve_cf_constrained,
    solve_power_constrained,
    solve_qos_constrained,
    sweep_cf_budget,
    sweep_lambda,
    sweep_months,
    sweep_surface,
)
from .queueing import (
    ConstrainedAoi,
    Discipline,
    QueueSpec,
    SaturationEpsilon,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
    constrained_aoi_mm1,
    optimal_utilization_mm1,
)

__version__ = "0.1.0"

__all__ = [
    "J_PER_KWH",
    "BindingConstraint",
    "CaoiError",
    "CarbonLedger",
    "CfMode",
    "CiProfile",
    "ConfigError",
    "ConstrainedAoi",
    "ConstraintSet",
    "Discipline",
    "DomainError",
    "EnergyModel",
    "Infeasible",
    "LinkBudget",
    "MissingConstraint",
    "OptimizationResult",
    "ParseError",
    "QueueSpec",
    "ReplicationSummary",
    "SaturationEpsilon",
    "SimConfig",
    "SimulationTrace",
    "SweepRow",
    "ValidationError",
    "avg_aoi_mm1",
    "avg_aoi_mm1_star",
    "avg_cf",
    "builtin_profile_si2024",
    "constrained_aoi_mm1",
    "cumulative_cf",
    "empirical_packet_count_check",
    "joules_to_kwh",
    "kwh_to_joules",
    "lambda_kappa",
    "lambda_p_max",
    "lambda_qos_max",
    "min_rate_for_snr",
    "optimal_utilization_mm1",
    "parse_ci_csv",
    "parse_ci_records",
    "replicate",
    "resample",
    "run",
    "serialize_ci_csv",
    "solve_cf_constrained",
    "solve_power_constrained",
    "solve_qos_constrained",
    "sweep_cf_budget",
    "sweep_lambda",
    "sweep_months",
    "sweep_surface",
]
