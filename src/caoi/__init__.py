"""Carbon-aware age-of-information toolkit.

Closed-form AoI for M/M/1 FCFS and preemptive LCFS sources, carbon
footprint accounting against step carbon-intensity profiles, sampling
rates constrained by carbon budgets, power caps, or QoS floors, and a
seeded discrete-event simulator for validating the formulas.

The package exports what the README examples and the scripts use, and
the error types; everything else is imported from its submodule
(caoi.carbon, caoi.cidata, caoi.dessim, caoi.optimizer, caoi.queueing).
"""

from .carbon import CiProfile, ConstraintSet, EnergyModel
from .cidata import builtin_profile_si2024
from .dessim import SimConfig, replicate, run
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
    solve_cf_constrained,
    sweep_cf_budget,
    sweep_lambda,
    sweep_months,
    sweep_surface,
)
from .queueing import (
    Discipline,
    QueueSpec,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
    optimal_utilization_mm1,
)

__version__ = "0.1.0"

__all__ = [
    "CaoiError",
    "CiProfile",
    "ConfigError",
    "ConstraintSet",
    "Discipline",
    "DomainError",
    "EnergyModel",
    "Infeasible",
    "MissingConstraint",
    "ParseError",
    "QueueSpec",
    "SimConfig",
    "ValidationError",
    "avg_aoi_mm1",
    "avg_aoi_mm1_star",
    "builtin_profile_si2024",
    "optimal_utilization_mm1",
    "replicate",
    "run",
    "solve_cf_constrained",
    "sweep_cf_budget",
    "sweep_lambda",
    "sweep_months",
    "sweep_surface",
]
