"""Carbon-aware age-of-information toolkit.

Closed-form AoI for M/M/1 FCFS and preemptive LCFS sources, carbon
footprint accounting against step carbon-intensity profiles, sampling
rates constrained by carbon budgets, power caps, or QoS floors, and a
seeded discrete-event simulator for validating the formulas.

The package exports what the README examples and the scripts use, and
the error types; everything else is imported from its submodule
(caoi.carbon, caoi.cidata, caoi.dessim, caoi.optimizer, caoi.queueing).
An export loads its submodule on first use (PEP 562), so importing one
submodule, such as caoi.cli, loads only what that submodule imports:
the simulator and numpy.random stay unloaded until something uses them.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "carbon": ("CiProfile", "ConstraintSet", "EnergyModel"),
    "cidata": ("builtin_profile_si2024",),
    "dessim": ("SimConfig", "replicate", "run"),
    "errors": ("CaoiError", "ConfigError", "DomainError", "Infeasible", "MissingConstraint",
               "ParseError", "ValidationError"),
    "optimizer": ("solve_cf_constrained", "sweep_cf_budget", "sweep_lambda", "sweep_months",
                  "sweep_surface"),
    "queueing": ("Discipline", "QueueSpec", "avg_aoi_mm1", "avg_aoi_mm1_star",
                 "optimal_utilization_mm1"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # An AttributeError, not an ImportError, for any other name, so that
    # `from caoi import dessim` falls back to importing the submodule.
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCE[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
