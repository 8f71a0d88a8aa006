"""Frozen per-cell reference for the solvers in caoi.optimizer.

These are the three solve_* functions and _pick_rate as they were before
the month solvers shared optimizer._month_point and one free-rate rule.
Each solver computes its own rate cap with carbon.lambda_kappa,
lambda_p_max or lambda_qos_max, and the FCFS rate comes from
constrained_aoi_mm1.  The age path is a frozen copy too: QueueSpec's
checks, avg_aoi_mm1, avg_aoi_mm1_star and constrained_aoi_mm1 as they
were when each age was evaluated on a QueueSpec built per call, and
avg_aoi, queueing.avg_aoi's dispatch over them.  So the reference shares
no per-point check, age check or slack rule with the code under test.
Tests compare the solvers, the sweeps' per-cell loops and
queueing.avg_aoi against these copies: equal fields of equal types, and
the same exception type.  One change was made on purpose since: a
missing SNR floor raises MissingConstraint, as a missing power cap does,
where it raised DomainError.
"""

import math
from dataclasses import dataclass

from caoi.carbon import (
    J_PER_KWH,
    CiProfile,
    ConstraintSet,
    EnergyModel,
    lambda_kappa,
    lambda_p_max,
    lambda_qos_max,
    min_rate_for_snr,
    slot_grams,
)
from caoi.errors import DomainError, Infeasible, MissingConstraint
from caoi.optimizer import MU_RULES, BindingConstraint, OptimizationResult
from caoi.queueing import DEFAULT_EPS, Discipline, SaturationEpsilon, optimal_utilization_mm1


def _check_mu_rule(mu_rule: str) -> None:
    if mu_rule not in MU_RULES:
        raise DomainError(f"mu_rule must be one of {MU_RULES}, got {mu_rule!r}")


@dataclass(frozen=True)
class QueueSpec:
    discipline: Discipline
    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise DomainError(f"arrival rate must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise DomainError(f"service rate must be positive and finite, got {self.mu}")


def avg_aoi_mm1(spec: QueueSpec) -> float:
    rho = spec.lam / spec.mu
    if rho >= 1.0:
        raise DomainError(f"FCFS average age diverges for rho={rho:.6g} >= 1")
    if rho == 0.0:
        return math.inf
    return (1.0 / spec.mu) * (1.0 + 1.0 / rho + rho * rho / (1.0 - rho))


def avg_aoi_mm1_star(spec: QueueSpec) -> float:
    return 1.0 / spec.mu + 1.0 / spec.lam


def avg_aoi(discipline: Discipline, lam: float, mu: float, mode: str = "exact") -> float:
    if discipline is Discipline.FCFS_MM1:
        return avg_aoi_mm1(QueueSpec(discipline, lam, mu))
    if mode == "paper":
        return 2.0 / lam
    return avg_aoi_mm1_star(QueueSpec(discipline, lam, mu))


def constrained_aoi_mm1(mu: float, lambda_bound: float):
    """(aoi, lambda_used, binding), the fields of queueing.ConstrainedAoi."""
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"service rate must be positive and finite, got {mu}")
    if not (lambda_bound > 0):
        raise DomainError(f"lambda bound must be positive, got {lambda_bound}")
    lam_free = optimal_utilization_mm1() * mu
    binding = lambda_bound < lam_free
    lam = lambda_bound if binding else lam_free
    return avg_aoi_mm1(QueueSpec(Discipline.FCFS_MM1, lam, mu)), lam, binding


def _check_mode(mode: str) -> None:
    if mode not in ("paper", "exact"):
        raise DomainError(f"mode must be 'paper' or 'exact', got {mode!r}")


def _check_power_cap(constraint: ConstraintSet, energy: EnergyModel) -> None:
    if constraint.power_cap is not None and constraint.power_cap > energy.p_max:
        raise DomainError(
            f"power cap {constraint.power_cap} exceeds hardware p_max {energy.p_max}"
        )


def _pick_rate(discipline: Discipline, mu: float, bound: float, mode: str,
               eps: SaturationEpsilon, mu_rule: str):
    """Returns (lambda_star, mu_star, aoi, binding)."""
    _check_mode(mode)
    if mu_rule == "fixed" and not mu > 0:
        raise DomainError(f"service rate must be positive, got {mu}")
    if math.isnan(bound) or bound <= 0:
        raise Infeasible(f"rate bound is not positive: {bound}")
    if mu_rule == "track_opt_rho":
        if bound == math.inf:
            raise Infeasible("an unbounded budget has no optimum under track_opt_rho")
        lam = bound
        if discipline is Discipline.FCFS_MM1:
            mu_star = lam / optimal_utilization_mm1()
        else:
            mu_star = lam / (1.0 - eps.epsilon)
        return lam, mu_star, avg_aoi(discipline, lam, mu_star, mode), True
    if discipline is Discipline.FCFS_MM1:
        aoi, lam, binding = constrained_aoi_mm1(mu, bound)
        return lam, mu, aoi, binding
    lam_free = (1.0 - eps.epsilon) * mu
    binding = bound < lam_free
    lam = bound if binding else lam_free
    return lam, mu, avg_aoi(discipline, lam, mu, mode), binding


def solve_cf_constrained(mu: float, constraint: ConstraintSet, profile: CiProfile,
                         energy: EnergyModel, discipline: Discipline,
                         mode: str = "exact",
                         eps: SaturationEpsilon = DEFAULT_EPS) -> OptimizationResult:
    """Minimize average age subject to the slot carbon budget.

    The rate cap comes from the long-term mean intensity of the profile;
    the reported cf is the expected slot emission at the chosen rate.
    """
    bound = lambda_kappa(constraint, profile, energy)
    lam, mu_star, aoi, binding = _pick_rate(discipline, mu, bound, mode, eps, "fixed")
    cf = slot_grams(profile.long_term_average, energy.e_p_kwh(),
                    constraint.success_prob_a, lam, constraint.horizon_tn)
    label = BindingConstraint.CF_BUDGET if binding else BindingConstraint.NONE
    return OptimizationResult(discipline, lam, mu_star, aoi, cf, label, mode, bound)


def solve_power_constrained(constraint: ConstraintSet, month_ci: float,
                            energy: EnergyModel, discipline: Discipline,
                            mode: str = "exact", mu_rule: str = "fixed",
                            mu: float | None = None,
                            eps: SaturationEpsilon = DEFAULT_EPS) -> OptimizationResult:
    """Minimize average age for one month, transmitting at the power cap.

    The default service rate is the hardware rate 1/t_p.  Emissions are
    accounted at the cap power, matching the rate bound.
    """
    _check_mu_rule(mu_rule)
    _check_power_cap(constraint, energy)
    bound = lambda_p_max(constraint, month_ci, energy)
    mu_eff = (1.0 / energy.t_p) if mu is None else mu
    lam, mu_star, aoi, binding = _pick_rate(discipline, mu_eff, bound, mode, eps, mu_rule)
    e_kwh = constraint.power_cap * energy.t_p / J_PER_KWH
    cf = slot_grams(month_ci, e_kwh, constraint.success_prob_a, lam,
                    constraint.horizon_tn)
    label = BindingConstraint.POWER if binding else BindingConstraint.NONE
    return OptimizationResult(discipline, lam, mu_star, aoi, cf, label, mode, bound)


def solve_qos_constrained(constraint: ConstraintSet, month_ci: float,
                          energy: EnergyModel, discipline: Discipline,
                          mode: str = "exact",
                          eps: SaturationEpsilon = DEFAULT_EPS) -> OptimizationResult:
    """Minimize average age for one month at the SNR-floor operating point.

    The SNR floor fixes the minimal rate B*log2(1+snr), which sets both
    the packet time t_p = mtu/rate and the service rate mu = 1/t_p, and
    the minimal transmit power.  Higher floors mean faster service but a
    tighter emission-feasible rate cap, which is what produces the
    interior age optimum in floor sweeps.
    """
    if constraint.snr_min is None:
        raise MissingConstraint("solve_qos_constrained needs constraint.snr_min")
    link = min_rate_for_snr(energy, constraint.snr_min)
    bound = lambda_qos_max(constraint, month_ci, energy, t_p_override=link.t_p)
    mu_eff = 1.0 / link.t_p
    lam, mu_star, aoi, binding = _pick_rate(discipline, mu_eff, bound, mode, eps, "fixed")
    e_kwh = link.p_t_min * link.t_p / J_PER_KWH
    cf = slot_grams(month_ci, e_kwh, constraint.success_prob_a, lam,
                    constraint.horizon_tn)
    label = BindingConstraint.QOS if binding else BindingConstraint.NONE
    return OptimizationResult(discipline, lam, mu_star, aoi, cf, label, mode, bound)

