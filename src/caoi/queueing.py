"""Closed-form average age of information for two status-update disciplines.

The FCFS M/M/1 queue keeps every update and serves them in order; its
average age is finite only for utilization below one.  The preemptive
LCFS variant (written mm1star throughout) always serves the newest
update, discarding whatever was in service, and stays stable at any
load.  Rates are in packets per second and ages in seconds.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError


class Discipline(Enum):
    FCFS_MM1 = "mm1"
    LCFS_PREEMPTIVE = "mm1star"


def check_discipline(discipline) -> Discipline:
    """discipline, refused unless it is a Discipline: a string such as "mm1"
    would otherwise take the non-FCFS branch of every dispatch."""
    if not isinstance(discipline, Discipline):
        raise DomainError(f"discipline must be a Discipline, got {discipline!r}")
    return discipline


def _check_rates(lam: float, mu: float) -> None:
    """Refuse an arrival or a service rate that is not positive and finite."""
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"arrival rate must be positive and finite, got {lam}")
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"service rate must be positive and finite, got {mu}")


@dataclass(frozen=True)
class QueueSpec:
    """Arrival/service rate pair for one discipline.

    Positivity is always enforced.  Stability (rho < 1) is only required
    where the formula demands it, because the preemptive discipline has a
    finite average age even at rho >= 1.
    """

    discipline: Discipline
    lam: float
    mu: float

    def __post_init__(self) -> None:
        check_discipline(self.discipline)
        _check_rates(self.lam, self.mu)

    @property
    def rho(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True)
class SaturationEpsilon:
    """Distance from saturation used by the preemptive optimum rho = 1 - eps."""

    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 0.1):
            raise DomainError(f"epsilon must lie in (0, 0.1), got {self.epsilon}")


DEFAULT_EPS = SaturationEpsilon()


@dataclass(frozen=True)
class ConstrainedAoi:
    """Result of minimizing average age under an arrival-rate cap."""

    aoi: float
    lambda_used: float
    binding: bool


def mm1_age(lam, mu):
    """(1/mu)(1 + 1/rho + rho^2/(1-rho)), the FCFS M/M/1 age, unchecked.

    The one statement of the formula, for floats and float64 arrays alike:
    each operation rounds the same on both.  An array rho that underflows
    to 0 gives inf (with numpy's divide warning); a float one divides by
    zero, which avg_aoi heads off.
    """
    rho = lam / mu
    return (1.0 / mu) * (1.0 + 1.0 / rho + rho * rho / (1.0 - rho))


def mm1_star_age(lam, mu):
    """1/mu + 1/lambda, the preemptive LCFS age, unchecked; floats or arrays."""
    return 1.0 / mu + 1.0 / lam


def avg_aoi(discipline: Discipline, lam: float, mu: float, mode: str = "exact") -> float:
    """Average age of either discipline: the near-saturation 2/lam, unchecked,
    for preemptive LCFS in mode "paper", else the closed form, once the rates
    pass QueueSpec's checks and, for FCFS, rho < 1.  A discipline that is
    not a Discipline is refused, in either mode."""
    if discipline is not Discipline.FCFS_MM1:
        if not isinstance(discipline, Discipline):
            check_discipline(discipline)        # raises
        if mode == "paper":
            return 2.0 / lam
        _check_rates(lam, mu)
        return mm1_star_age(lam, mu)
    _check_rates(lam, mu)
    rho = lam / mu
    if rho >= 1.0:
        raise DomainError(f"FCFS average age diverges for rho={rho:.6g} >= 1")
    if rho == 0.0:
        # lam is so far below mu that rho underflows; the age term 1/rho is unbounded.
        return math.inf
    return mm1_age(lam, mu)


def avg_aoi_mm1(spec: QueueSpec) -> float:
    """Average age of the FCFS M/M/1 queue, (1/mu)(1 + 1/rho + rho^2/(1-rho))."""
    return avg_aoi(Discipline.FCFS_MM1, spec.lam, spec.mu)


def avg_aoi_mm1_star(spec: QueueSpec) -> float:
    """Average age of the preemptive LCFS queue, 1/mu + 1/lambda.

    Finite for any positive rates, including rho >= 1.
    """
    return avg_aoi(Discipline.LCFS_PREEMPTIVE, spec.lam, spec.mu)


def optimal_utilization_mm1() -> float:
    """Utilization minimizing the FCFS average age, about 0.53101.

    The root in (0, 1) of rho^4 - 2 rho^3 + rho^2 - 2 rho + 1 = 0.  Divided
    by rho^2 that reads (rho + 1/rho)^2 - 2 (rho + 1/rho) - 1 = 0, so
    rho + 1/rho = s = 1 + sqrt(2), and rho is the smaller root of
    rho^2 - s rho + 1 = 0, written 2 / (s + sqrt(s^2 - 4)) to avoid
    cancellation.  It is the correctly rounded root.
    """
    s = 1.0 + math.sqrt(2.0)
    return 2.0 / (s + math.sqrt(s * s - 4.0))


# rho', computed once: the solvers read it on every call.
OPT_RHO_MM1 = optimal_utilization_mm1()


def constrained_aoi_mm1(mu: float, lambda_bound: float) -> ConstrainedAoi:
    """Minimal FCFS average age subject to lambda <= lambda_bound at fixed mu.

    When the cap exceeds the free optimum rho'*mu the cap is slack and the
    unconstrained optimum is returned (ties count as slack).  Otherwise the
    cap binds and the closed form is evaluated at the cap.  The optimizer
    applies the same slack rule to both disciplines in _pick_rate.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"service rate must be positive and finite, got {mu}")
    if not (lambda_bound > 0):
        raise DomainError(f"lambda bound must be positive, got {lambda_bound}")
    lam_free = OPT_RHO_MM1 * mu
    binding = lambda_bound < lam_free
    lam = lambda_bound if binding else lam_free
    return ConstrainedAoi(avg_aoi(Discipline.FCFS_MM1, lam, mu), lam, binding)

