"""Rate selection under carbon, power, and quality-of-service constraints.

Every solver reduces to the same shape: compute the largest admissible
arrival rate for the active constraint, compare it with the rate the
sender would pick freely, and evaluate the discipline's average age at
the smaller of the two.  Ties count as slack, so the binding flag is
true only when the constraint strictly lowers the rate.

mode "paper" evaluates the preemptive age with the near-saturation
approximation 2/lambda and "exact" with the full closed form; the FCFS
age is the same in both.

The solve_* functions work on one cell, on plain floats.  The sweeps
(sweep_lambda, sweep_cf_budget, sweep_months, sweep_surface) evaluate
all their cells at once on float64 arrays in _pick_rates, the array form
of _pick_rate, and build their SweepRow tuples in bulk.  Both paths use
the same free rate (_free_rho) and unchecked formulas (queueing.mm1_age
and mm1_star_age, carbon.kappa_cap, energy_cap and slot_grams), whose
operations round the same on floats and arrays, so a sweep equals a loop
of per-cell solves bit for bit, with an Infeasible solve as an aoi = inf
row.  The power and qos solvers and sweep_surface share one point's
checks in _month_point, which a sweep runs once per point, on floats.

Service-rate selection is controlled by mu_rule:

* "fixed" (default): the caller-supplied service rate stays put; the
  hardware transmission time bounds how fast the server can be.
* "track_opt_rho": mu* = lambda* / rho follows the arrival rate, and mu
  is unused, so the queue sits at its age-optimal utilization.  A faster
  server is then always better, so the constraint always binds.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, cycle, repeat
from typing import NamedTuple

import numpy as np

from .carbon import (
    CiProfile,
    ConstraintSet,
    EnergyModel,
    as_float64,
    energy_cap,
    joules_to_kwh,
    kappa_cap,
    lambda_kappa,
    min_rate_for_snr,
    slot_grams,
)
from .errors import DomainError, Infeasible, MissingConstraint
from .queueing import (
    DEFAULT_EPS,
    Discipline,
    QueueSpec,
    SaturationEpsilon,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
    mm1_age,
    mm1_star_age,
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


class SweepRow(NamedTuple):
    """One grid point of a sweep, in long format (one row per model)."""

    x: float
    model: str
    aoi: float                      # inf marks an infeasible grid point
    cf: float | None
    lambda_bound: float | None
    binding: str                    # none|cf_budget|power|qos|infeasible
    month: int | None = None


def _evaluate_aoi(discipline: Discipline, lam: float, mu: float, mode: str) -> float:
    if discipline is Discipline.FCFS_MM1:
        return avg_aoi_mm1(QueueSpec(discipline, lam, mu))
    if mode == "paper":
        return 2.0 / lam
    return avg_aoi_mm1_star(QueueSpec(discipline, lam, mu))


def _check_mode(mode: str) -> None:
    if mode not in ("paper", "exact"):
        raise DomainError(f"mode must be 'paper' or 'exact', got {mode!r}")


def _free_rho(discipline: Discipline, eps: SaturationEpsilon) -> float:
    """The utilization where the rate cap is slack: rho' (FCFS) or 1 - eps (LCFS)."""
    if discipline is Discipline.FCFS_MM1:
        return optimal_utilization_mm1()
    return 1.0 - eps.epsilon


def _pick_rate(discipline: Discipline, mu: float, bound: float, mode: str,
               eps: SaturationEpsilon, mu_rule: str):
    """Returns (lambda_star, mu_star, aoi, binding)."""
    if mu_rule == "fixed" and not mu > 0:
        raise DomainError(f"service rate must be positive, got {mu}")
    if math.isnan(bound) or bound <= 0:
        raise Infeasible(f"rate bound is not positive: {bound}")
    rho = _free_rho(discipline, eps)
    if mu_rule == "track_opt_rho":
        if bound == math.inf:
            raise Infeasible("an unbounded budget has no optimum under track_opt_rho")
        mu_star = bound / rho
        return bound, mu_star, _evaluate_aoi(discipline, bound, mu_star, mode), True
    lam_free = rho * mu
    binding = bound < lam_free
    lam = bound if binding else lam_free
    return lam, mu, _evaluate_aoi(discipline, lam, mu, mode), binding


def solve_cf_constrained(mu: float, constraint: ConstraintSet, profile: CiProfile,
                         energy: EnergyModel, discipline: Discipline,
                         mode: str = "exact",
                         eps: SaturationEpsilon = DEFAULT_EPS) -> OptimizationResult:
    """Minimize average age subject to the slot carbon budget.

    The rate cap comes from the long-term mean intensity of the profile;
    the reported cf is the expected slot emission at the chosen rate.
    """
    bound = lambda_kappa(constraint, profile, energy)
    _check_mode(mode)
    lam, mu_star, aoi, binding = _pick_rate(discipline, mu, bound, mode, eps, "fixed")
    cf = slot_grams(profile.long_term_average, energy.e_p_kwh(),
                    constraint.success_prob_a, lam, constraint.horizon_tn)
    label = BindingConstraint.CF_BUDGET if binding else BindingConstraint.NONE
    return OptimizationResult(discipline, lam, mu_star, aoi, cf, label, mode, bound)


_MONTH_PROBLEMS = {"power": BindingConstraint.POWER, "qos": BindingConstraint.QOS}


def _month_point(problem: str, constraint: ConstraintSet, energy: EnergyModel,
                 mu: float | None, mode: str):
    """(kWh per transmitted packet, service rate) at one grid point.

    Every check that depends only on the point, for the month solvers
    and sweep_surface alike.
    """
    if problem == "power":
        if constraint.power_cap is not None and constraint.power_cap > energy.p_max:
            raise DomainError(
                f"power cap {constraint.power_cap} exceeds hardware p_max {energy.p_max}")
        if constraint.power_cap is None:
            raise MissingConstraint("lambda_p_max needs constraint.power_cap")
        e_kwh = joules_to_kwh(constraint.power_cap * energy.t_p)
        mu = (1.0 / energy.t_p) if mu is None else mu
    else:
        if constraint.snr_min is None:
            raise DomainError("solve_qos_constrained needs constraint.snr_min")
        link = min_rate_for_snr(energy, constraint.snr_min)
        if not link.t_p > 0:
            raise DomainError(f"transmission time must be positive, got {link.t_p}")
        e_kwh = joules_to_kwh(link.p_t_min * link.t_p)
        mu = 1.0 / link.t_p
    _check_mode(mode)
    return e_kwh, mu


def _solve_month(problem: str, constraint: ConstraintSet, month_ci: float,
                 energy: EnergyModel, discipline: Discipline, mode: str, mu_rule: str,
                 mu: float | None, eps: SaturationEpsilon) -> OptimizationResult:
    """One power or qos cell: the rate cap at month_ci, then _pick_rate."""
    if mu_rule not in MU_RULES:
        raise DomainError(f"mu_rule must be one of {MU_RULES}, got {mu_rule!r}")
    e_kwh, mu = _month_point(problem, constraint, energy, mu, mode)
    if not month_ci > 0:
        raise DomainError(f"month intensity must be positive, got {month_ci}")
    bound = energy_cap(constraint.budget_k, month_ci, e_kwh, constraint.horizon_tn)
    lam, mu_star, aoi, binding = _pick_rate(discipline, mu, bound, mode, eps, mu_rule)
    cf = slot_grams(month_ci, e_kwh, constraint.success_prob_a, lam, constraint.horizon_tn)
    label = _MONTH_PROBLEMS[problem] if binding else BindingConstraint.NONE
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
    return _solve_month("power", constraint, month_ci, energy, discipline, mode, mu_rule,
                        mu, eps)


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
    return _solve_month("qos", constraint, month_ci, energy, discipline, mode, "fixed",
                        None, eps)


def _check_grid(grid) -> np.ndarray:
    """grid as a float64 array, raising for the first point that does not increase.

    Each point is compared with the one before it, and the first with
    -inf, so NaN, which compares false, passes, as does the point after it.
    """
    values = as_float64(grid)
    if not len(values):
        raise DomainError("grid must not be empty")
    prev = np.append(-math.inf, values[:-1])
    unordered = values <= prev
    if np.count_nonzero(unordered):
        i = int(unordered.argmax())
        raise DomainError(f"grid must be strictly increasing, "
                          f"got {float(values[i])} after {float(prev[i])}")
    return values


def _fcfs_mask(disciplines):
    return np.array([d is Discipline.FCFS_MM1 for d in disciplines], dtype=bool)


def _pick_rates(disciplines, mode: str, cap, lam_free, mu, emission=None):
    """_pick_rate under a fixed service rate, for many cells at once.

    cap, lam_free and mu broadcast to cells x disciplines, the last axis
    in the order of `disciplines`; lam_free is the rate taken where the
    cap is slack, and emission holds the (ci, e_kwh, a, tn) factors of
    slot_grams.  Returns float64 arrays of the age and the cf at lambda*
    (None without emission) and the binding and infeasible masks.  A cap
    that is not positive, or NaN, makes a cell infeasible, with age inf.
    A service rate that is not positive raises, as in _pick_rate.
    """
    cap, lam_free, mu = (np.asarray(v, dtype=float) for v in (cap, lam_free, mu))
    if not np.all(mu > 0):
        raise DomainError("service rates must be positive")
    fcfs = _fcfs_mask(disciplines)
    paper = mode == "paper"
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        feasible = cap > 0
        binding = cap < lam_free
        lam = np.where(binding, cap, lam_free)
        # What the scalar path rejects past its mu check: QueueSpec a service
        # or arrival rate that is not finite (FCFS, exact LCFS), avg_aoi_mm1
        # an FCFS rate at or above mu, and paper LCFS a zero rate.
        ok = np.isfinite(mu) & np.isfinite(lam)
        bad = np.where(fcfs, ~ok | (lam >= mu), ~(paper | ok) | (lam == 0))
        if np.any(feasible & bad):
            raise DomainError("service and arrival rates must be positive and finite, "
                              "with an FCFS rate below the service rate")
        infeasible = ~feasible
        lcfs_age = 2.0 / lam if paper else mm1_star_age(lam, mu)
        aoi = np.where(infeasible, np.inf, np.where(fcfs, mm1_age(lam, mu), lcfs_age))
        lam, binding, infeasible = (np.broadcast_to(v, aoi.shape)
                                    for v in (lam, binding, infeasible))
        cf = None
        if emission is not None:
            ci, e_kwh, a, tn = emission
            cf = slot_grams(ci, e_kwh, a, lam, tn)
    return aoi, cf, binding, infeasible


def _unless(infeasible, values) -> list:
    """values in row order as Python floats, None where a cell is infeasible."""
    column = np.broadcast_to(values, infeasible.shape).astype(object)
    column[infeasible] = None
    return column.ravel().tolist()


def _labels(infeasible, binding, label: BindingConstraint) -> list:
    """The binding column in row order: infeasible, label, or none.

    Indexing an object array hands out the same three str objects, where
    a numpy string array would make one str per row.
    """
    names = np.array(["none", label.value, "infeasible"], dtype=object)
    return names[np.where(infeasible, 2, binding.astype(np.intp))].ravel().tolist()


def _rows(months, xs, disciplines, aoi, cf, bound, binding) -> list:
    """SweepRows in bulk, one per (month, x, discipline) cell, in that order.

    aoi is a months x xs x disciplines array (the month axis may be left
    out when there is one month); cf, bound and binding are lists in row
    order, or endless iterators, since zip stops with the other columns.
    Every field comes out a Python float, int, str or None.
    """
    d, per_month = len(disciplines), len(xs) * len(disciplines)
    columns = zip(
        chain.from_iterable(repeat(x, d) for _ in months for x in xs),
        cycle([disc.value for disc in disciplines]),
        aoi.ravel().tolist(), cf, bound, binding,
        chain.from_iterable(repeat(m, per_month) for m in months))
    # tuple.__new__ is what SweepRow._make calls, minus a Python frame per row.
    return list(map(tuple.__new__, repeat(SweepRow), columns))


def sweep_lambda(mu: float, lambda_grid, disciplines=BOTH_DISCIPLINES,
                 mode: str = "exact", profile: CiProfile | None = None,
                 energy: EnergyModel | None = None,
                 constraint: ConstraintSet | None = None) -> list:
    """Evaluate average age and slot emissions along an arrival-rate grid.

    FCFS grid points at or beyond the service rate are reported as
    explicit infeasible rows (aoi = inf) rather than skipped.  The cf
    column needs profile, energy, and constraint; it is omitted (None)
    when none is given, and some without the others raise DomainError.
    A rate that is not positive and finite (None, NaN, inf) raises
    DomainError for every discipline and mode.
    """
    lam = _check_grid(lambda_grid)[:, None]
    _check_mode(mode)
    disciplines = tuple(disciplines)
    missing = [v is None for v in (profile, energy, constraint)]
    if any(missing) and not all(missing):
        raise DomainError("the cf column needs all of profile, energy and constraint")
    emission = None
    if not any(missing):
        emission = (profile.long_term_average, energy.e_p_kwh(),
                    constraint.success_prob_a, constraint.horizon_tn)
    # The grid check passes NaN and inf, where no age or cf is defined.
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise DomainError("arrival rates must be positive and finite")
    # FCFS has no age at or above the service rate: a NaN cap makes those
    # cells infeasible rows and leaves their rate, and cf, at the grid point.
    with np.errstate(invalid="ignore"):
        cap = np.where(_fcfs_mask(disciplines) & (lam >= mu), math.nan, math.inf)
    aoi, cf, binding, infeasible = _pick_rates(disciplines, mode, cap, lam, mu, emission)
    cf = repeat(None) if cf is None else cf.ravel().tolist()
    return _rows([None], lam.ravel().tolist(), disciplines, aoi, cf, repeat(None),
                 _labels(infeasible, binding, BindingConstraint.NONE))


def _sweep(months, xs, disciplines, mode, eps, cap, mu, emission, label) -> list:
    """The rows of a solved sweep over months x grid points.

    months and xs label the two axes.  cap, mu and the slot_grams factors
    in emission broadcast to months x grid points.  Where the cap is slack
    the rate is _free_rho * mu, as in _pick_rate.
    """
    def per_discipline(v):
        return np.asarray(v, dtype=float)[..., None]

    mu = per_discipline(mu)
    cap = per_discipline(np.broadcast_to(cap, (len(months), len(xs))))
    rho = np.array([_free_rho(d, eps) for d in disciplines])
    aoi, cf, binding, infeasible = _pick_rates(
        disciplines, mode, cap, rho * mu, mu, tuple(map(per_discipline, emission)))
    return _rows(months, xs, disciplines, aoi, _unless(infeasible, cf),
                 _unless(infeasible, cap), _labels(infeasible, binding, label))


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
    ks = _check_grid(k_grid)
    # A loop of ConstraintSet(k, tn, a) raises for the first budget, whose
    # checks include tn and a, or else for the first budget not above 0.
    for i in (0, int(np.argmax(~(ks > 0)))):
        ConstraintSet(budget_k=float(ks[i]), horizon_tn=tn, success_prob_a=success_prob_a)
    if per_month:
        # The mean of each month's CiProfile.constant(v, h), (v * h) / h, not v.
        months, h = list(range(1, len(profile.values) + 1)), profile.horizon
        with np.errstate(over="ignore"):
            means = np.array(profile.values) * h / h
    else:
        months, means = [None], [profile.long_term_average]
    _check_mode(mode)
    ci = np.array(means)[:, None]
    e_kwh = energy.e_p_kwh()
    cap = kappa_cap(ks, tn, ci, e_kwh, success_prob_a)
    return _sweep(months, ks.tolist(), tuple(disciplines), mode, eps, cap, mu,
                  (ci, e_kwh, success_prob_a, tn), BindingConstraint.CF_BUDGET)


def sweep_months(constraint: ConstraintSet, profile: CiProfile, energy: EnergyModel,
                 disciplines=BOTH_DISCIPLINES, mode: str = "exact",
                 problem: str = "power", mu: float | None = None,
                 eps: SaturationEpsilon = DEFAULT_EPS) -> list:
    """Solve one constrained problem per calendar month of a 12-step profile.

    The one-point surface of sweep_surface, with each row's x its month.
    """
    rows = sweep_surface(problem, [(None, constraint)], profile, energy, disciplines,
                         mode, mu, eps)
    return [r._replace(x=float(r.month)) for r in rows]


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
    if problem not in _MONTH_PROBLEMS:
        raise DomainError(f"problem must be 'power' or 'qos', got {problem!r}")
    grid = list(grid)
    constraints = [c for _, c in grid]
    points = [_month_point(problem, c, energy, mu, mode) for c in constraints]
    e_kwh = np.array([e for e, _ in points])
    budget, a, tn = (np.array([getattr(c, name) for c in constraints])
                     for name in ("budget_k", "success_prob_a", "horizon_tn"))
    ci = np.array([v for _, v in months])[:, None]
    return _sweep([m for m, _ in months], [x for x, _ in grid], tuple(disciplines),
                  mode, eps, energy_cap(budget, ci, e_kwh, tn),
                  np.array([m for _, m in points]), (ci, e_kwh, a, tn),
                  _MONTH_PROBLEMS[problem])
