"""Rate selection under carbon, power, and quality-of-service constraints.

Every solver reduces to the same shape: compute the largest admissible
arrival rate for the active constraint, compare it with the rate the
sender would pick freely, and evaluate the discipline's average age at
the smaller of the two.  Ties count as slack, so the binding flag is
true only when the constraint strictly lowers the rate.

mode "paper" evaluates the preemptive age with the near-saturation
approximation 2/lambda and "exact" with the full closed form; the FCFS
age is the same in both.

Service-rate selection is controlled by mu_rule:

* "fixed" (default): the caller-supplied service rate stays put; the
  hardware transmission time bounds how fast the server can be.
* "track_opt_rho": the service rate follows the arrival rate so the
  queue always sits at its age-optimal utilization.  Under this rule a
  faster server is always better, so the constraint always binds.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .carbon import (
    CiProfile,
    ConstraintSet,
    EnergyModel,
    J_PER_KWH,
    avg_cf,
    lambda_kappa,
    lambda_p_max,
    lambda_qos_max,
    min_rate_for_snr,
)
from .errors import DomainError, Infeasible
from .queueing import (
    DEFAULT_EPS,
    Discipline,
    QueueSpec,
    SaturationEpsilon,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
    constrained_aoi_mm1,
    optimal_utilization_mm1,
)

MU_RULES = ("fixed", "track_opt_rho")

BOTH_DISCIPLINES = (Discipline.FCFS_MM1, Discipline.LCFS_PREEMPTIVE)


class BindingConstraint(Enum):
    NONE = "none"
    CF_BUDGET = "cf_budget"
    POWER = "power"
    QOS = "qos"


@dataclass(frozen=True)
class OptimizationResult:
    discipline: Discipline
    lambda_star: float
    mu_star: float
    aoi: float
    cf: float
    binding_constraint: BindingConstraint
    mode: str
    lambda_bound: float


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep, in long format (one row per model)."""

    x: float
    model: str
    aoi: float                      # inf marks an infeasible grid point
    cf: float | None
    lambda_bound: float | None
    binding: str                    # none|cf_budget|power|qos|infeasible
    month: int | None = None


def _check_mu_rule(mu_rule: str) -> None:
    if mu_rule not in MU_RULES:
        raise DomainError(f"mu_rule must be one of {MU_RULES}, got {mu_rule!r}")


def _evaluate_aoi(discipline: Discipline, lam: float, mu: float, mode: str) -> float:
    if discipline is Discipline.FCFS_MM1:
        return avg_aoi_mm1(QueueSpec(discipline, lam, mu))
    if mode == "paper":
        return 2.0 / lam
    return avg_aoi_mm1_star(QueueSpec(discipline, lam, mu))


def _pick_rate(discipline: Discipline, mu: float, bound: float, mode: str,
               eps: SaturationEpsilon, mu_rule: str):
    """Returns (lambda_star, mu_star, aoi, binding)."""
    if mode not in ("paper", "exact"):
        raise DomainError(f"mode must be 'paper' or 'exact', got {mode!r}")
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
        return lam, mu_star, _evaluate_aoi(discipline, lam, mu_star, mode), True
    if discipline is Discipline.FCFS_MM1:
        res = constrained_aoi_mm1(mu, bound)
        return res.lambda_used, mu, res.aoi, res.binding
    lam_free = (1.0 - eps.epsilon) * mu
    binding = bound < lam_free
    lam = bound if binding else lam_free
    return lam, mu, _evaluate_aoi(discipline, lam, mu, mode), binding


def _achieved_cf(ci: float, e_kwh: float, a: float, lam: float, tn: float) -> float:
    return ci * e_kwh * a * lam * tn


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
    cf = _achieved_cf(profile.long_term_average, energy.e_p_kwh(),
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
    if constraint.power_cap is not None and constraint.power_cap > energy.p_max:
        raise DomainError(
            f"power cap {constraint.power_cap} exceeds hardware p_max {energy.p_max}"
        )
    bound = lambda_p_max(constraint, month_ci, energy)
    mu_eff = (1.0 / energy.t_p) if mu is None else mu
    lam, mu_star, aoi, binding = _pick_rate(discipline, mu_eff, bound, mode, eps, mu_rule)
    e_kwh = constraint.power_cap * energy.t_p / J_PER_KWH
    cf = _achieved_cf(month_ci, e_kwh, constraint.success_prob_a, lam,
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
        raise DomainError("solve_qos_constrained needs constraint.snr_min")
    link = min_rate_for_snr(energy, constraint.snr_min)
    bound = lambda_qos_max(constraint, month_ci, energy, t_p_override=link.t_p)
    mu_eff = 1.0 / link.t_p
    lam, mu_star, aoi, binding = _pick_rate(discipline, mu_eff, bound, mode, eps, "fixed")
    e_kwh = link.p_t_min * link.t_p / J_PER_KWH
    cf = _achieved_cf(month_ci, e_kwh, constraint.success_prob_a, lam,
                      constraint.horizon_tn)
    label = BindingConstraint.QOS if binding else BindingConstraint.NONE
    return OptimizationResult(discipline, lam, mu_star, aoi, cf, label, mode, bound)


def _check_grid(grid) -> list:
    values = [float(x) for x in grid]
    if not values:
        raise DomainError("grid must not be empty")
    prev = -math.inf
    for v in values:
        if v <= prev:
            raise DomainError(f"grid must be strictly increasing, got {v} after {prev}")
        prev = v
    return values


def sweep_lambda(mu: float, lambda_grid, disciplines=BOTH_DISCIPLINES,
                 mode: str = "exact", profile: CiProfile | None = None,
                 energy: EnergyModel | None = None,
                 constraint: ConstraintSet | None = None) -> list:
    """Evaluate average age and slot emissions along an arrival-rate grid.

    FCFS grid points at or beyond the service rate are reported as
    explicit infeasible rows (aoi = inf) rather than skipped.  The cf
    column needs profile, energy, and constraint; it is omitted (None)
    when they are not given.
    """
    values = _check_grid(lambda_grid)
    rows = []
    for lam in values:
        if lam <= 0:
            raise DomainError(f"arrival rates must be positive, got {lam}")
        for disc in disciplines:
            cf = None
            if profile is not None and energy is not None and constraint is not None:
                cf = avg_cf(profile, energy, lam, constraint)
            if disc is Discipline.FCFS_MM1 and lam >= mu:
                rows.append(SweepRow(lam, disc.value, math.inf, cf, None, "infeasible"))
                continue
            aoi = _evaluate_aoi(disc, lam, mu, mode)
            rows.append(SweepRow(lam, disc.value, aoi, cf, None, "none"))
    return rows


def _sweep(cells, disciplines, solve) -> list:
    """The one cell x discipline row loop behind every solved sweep.

    cells holds (month, x, ci, constraint) tuples and solve(constraint, ci,
    discipline) returns an OptimizationResult.  An Infeasible solve becomes
    an explicit infeasible row with aoi = inf.
    """
    rows = []
    for month, x, ci, constraint in cells:
        for disc in disciplines:
            try:
                res = solve(constraint, ci, disc)
            except Infeasible:
                rows.append(SweepRow(x, disc.value, math.inf, None, None,
                                     "infeasible", month))
                continue
            rows.append(SweepRow(x, disc.value, res.aoi, res.cf, res.lambda_bound,
                                 res.binding_constraint.value, month))
    return rows


def _month_solver(problem: str, energy: EnergyModel, mode: str, mu: float | None,
                  eps: SaturationEpsilon):
    """solve(constraint, month_ci, discipline) for a per-month problem."""
    if problem == "power":
        return lambda c, ci, disc: solve_power_constrained(c, ci, energy, disc, mode,
                                                           "fixed", mu, eps)
    if problem == "qos":
        return lambda c, ci, disc: solve_qos_constrained(c, ci, energy, disc, mode, eps)
    raise DomainError(f"problem must be 'power' or 'qos', got {problem!r}")


def _months(profile: CiProfile) -> list:
    if len(profile.samples) != 12:
        raise DomainError(
            f"month sweeps need a 12-step profile, got {len(profile.samples)} steps"
        )
    return list(enumerate(profile.values, start=1))


def sweep_cf_budget(mu: float, k_grid, profile: CiProfile, energy: EnergyModel,
                    tn: float, disciplines=BOTH_DISCIPLINES, mode: str = "exact",
                    success_prob_a: float = 1.0, per_month: bool = False,
                    eps: SaturationEpsilon = DEFAULT_EPS) -> list:
    """Solve the budget-constrained problem along a budget grid.

    With per_month=False each budget is solved once against the profile
    mean intensity (a Pareto curve of age versus budget).  With
    per_month=True each (month, budget) cell is solved against that
    month's intensity, yielding the month-by-budget surface.
    """
    grid = [(k, ConstraintSet(budget_k=k, horizon_tn=tn, success_prob_a=success_prob_a))
            for k in _check_grid(k_grid)]
    if per_month:
        months = [(i + 1, CiProfile.constant(v, profile.horizon))
                  for i, v in enumerate(profile.values)]
    else:
        months = [(None, profile)]
    cells = [(month, k, prof, c) for month, prof in months for k, c in grid]
    return _sweep(cells, disciplines, lambda c, prof, disc: solve_cf_constrained(
        mu, c, prof, energy, disc, mode, eps))


def sweep_months(constraint: ConstraintSet, profile: CiProfile, energy: EnergyModel,
                 disciplines=BOTH_DISCIPLINES, mode: str = "exact",
                 problem: str = "power", mu: float | None = None,
                 eps: SaturationEpsilon = DEFAULT_EPS) -> list:
    """Solve one constrained problem per calendar month of a 12-step profile."""
    months = _months(profile)
    solve = _month_solver(problem, energy, mode, mu, eps)
    cells = [(month, float(month), ci, constraint) for month, ci in months]
    return _sweep(cells, disciplines, solve)


def sweep_surface(problem: str, grid, profile: CiProfile, energy: EnergyModel,
                  disciplines=BOTH_DISCIPLINES, mode: str = "exact",
                  mu: float | None = None,
                  eps: SaturationEpsilon = DEFAULT_EPS) -> list:
    """Solve a power or qos problem on every (month, grid point) cell.

    grid holds (x, ConstraintSet) pairs: x is only the row label (a budget
    in grams, an SNR floor in dB), the constraint is what gets solved.
    Rows run month by month, then along the grid, then over disciplines.
    """
    months = _months(profile)
    solve = _month_solver(problem, energy, mode, mu, eps)
    grid = list(grid)
    cells = [(month, x, ci, c) for month, ci in months for x, c in grid]
    return _sweep(cells, disciplines, solve)
