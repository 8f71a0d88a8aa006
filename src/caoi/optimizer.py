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
of _pick_rate, and return a SweepTable of those arrays, laid out months
x grid points x disciplines, whose SweepRows are built only when read.
Both paths use the same free rate (_free_rho) and unchecked formulas
(queueing.mm1_age and mm1_star_age, carbon.kappa_cap, energy_cap and
slot_grams), whose operations round the same on floats and arrays, so a
sweep's rows equal a loop of per-cell solves bit for bit, with an
Infeasible solve as an aoi = inf row.  The
power and qos solvers and sweep_surface share one point's checks in
_month_point, which a sweep runs once per point, on floats.

Service-rate selection is controlled by mu_rule:

* "fixed" (default): the caller-supplied service rate stays put; the
  hardware transmission time bounds how fast the server can be.
* "track_opt_rho": mu* = lambda* / rho follows the arrival rate, and mu
  is unused, so the queue sits at its age-optimal utilization.  A faster
  server is then always better, so the constraint always binds.
"""

import math
import operator
from enum import Enum
from itertools import repeat
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
    min_rate_for_snr,
    slot_grams,
)
from .errors import DomainError, Infeasible, MissingConstraint
from .queueing import (
    DEFAULT_EPS,
    Discipline,
    OPT_RHO_MM1,
    SaturationEpsilon,
    avg_aoi,
    mm1_age,
    mm1_star_age,
)

MU_RULES = ("fixed", "track_opt_rho")

BOTH_DISCIPLINES = (Discipline.FCFS_MM1, Discipline.LCFS_PREEMPTIVE)


class BindingConstraint(Enum):
    NONE = "none"
    CF_BUDGET = "cf_budget"
    POWER = "power"
    QOS = "qos"


class OptimizationResult(NamedTuple):
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

    x: float | None                 # None in a month sweep
    model: str
    aoi: float                      # inf marks an infeasible grid point
    cf: float | None                # None only where lambda_bound is
    lambda_bound: float | None
    binding: str                    # none|cf_budget|power|qos|infeasible
    month: int | None = None


# Rows built, or formatted for a CSV file, at a time; a block holds a few MB.
BLOCK_ROWS = 1 << 12


def row_blocks(n: int):
    """Consecutive slices of range(n), BLOCK_ROWS long or less."""
    for i in range(0, n, BLOCK_ROWS):
        yield slice(i, min(i + BLOCK_ROWS, n))


class SweepTable:
    """A sweep's cells as columns, in row order: month, then x, then model.

    The axes are months, xs and models (the discipline values); a sweep
    over the profile mean has months (None,), and a month sweep xs
    (None,).  The columns hold one read-only entry per cell: aoi, cf and
    lambda_bound in float64 (lambda_bound is None when the sweep has no
    such column, as in sweep_lambda's), the mask infeasible (aoi = inf)
    and binding, each cell's index into labels ("none", the constraint's
    name, "infeasible").  A table with a lambda_bound column reads cf and
    lambda_bound as None in its infeasible cells (the mask blank);
    sweep_lambda's keeps its cf.

    len, indexing (an int gives a SweepRow, a slice a list of them) and
    iteration build rows on demand, each equal to the per-cell solve's row
    in value and Python type.  No row is kept, so a table holds only its
    columns.
    """

    def __init__(self, months, xs, models, aoi, cf, lambda_bound, infeasible, binding,
                 label: BindingConstraint):
        self.months, self.xs, self.models = tuple(months), tuple(xs), tuple(models)
        self.labels = ("none", label.value, "infeasible")
        shape = np.shape(aoi)
        self.aoi, self.cf = _column(aoi, float, shape), _column(cf, float, shape)
        self.lambda_bound = None if lambda_bound is None else _column(lambda_bound, float, shape)
        self.infeasible = _column(infeasible, bool, shape)
        self.binding = _column(np.where(infeasible, 2, binding), np.uint8, shape)
        # The axes as object arrays, which an index array reads in C.
        self._axes = tuple(np.fromiter(v, dtype=object, count=len(v)) for v in
                           (self.months, self.xs, self.models, self.labels))

    def __len__(self) -> int:
        return len(self.aoi)

    def __repr__(self) -> str:
        return (f"<SweepTable of {len(self)} rows: {len(self.months)} months x "
                f"{len(self.xs)} points x {len(self.models)} models>")

    @property
    def blank(self):
        """The mask of cells whose cf and lambda_bound read None, or None
        when no cell's do."""
        return None if self.lambda_bound is None else self.infeasible

    def cell_axes(self, cells):
        """The month, x and model indices of the cells at the given row indices."""
        point, model = np.divmod(cells, len(self.models))
        month, x = np.divmod(point, len(self.xs))
        return month, x, model

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._rows(np.arange(len(self))[key])
        i = operator.index(key)
        if not -len(self) <= i < len(self):
            raise IndexError(f"row {i} out of range for a table of {len(self)} rows")
        return self._rows(np.array([i % len(self)]))[0]

    def __iter__(self):
        for cells in row_blocks(len(self)):
            yield from self._rows(np.arange(cells.start, cells.stop))

    def _blank(self, column, cells):
        """column's values at cells as Python floats, None where blank."""
        if column is None:
            return repeat(None)
        if self.blank is None:
            return column[cells].tolist()
        values = column[cells].astype(object)
        values[self.blank[cells]] = None
        return values.tolist()

    def _rows(self, cells) -> list:
        """The SweepRows of the cells at the given row indices."""
        month, x, model = self.cell_axes(cells)
        months_o, xs_o, models_o, labels_o = self._axes
        columns = zip(xs_o[x].tolist(), models_o[model].tolist(), self.aoi[cells].tolist(),
                      self._blank(self.cf, cells), self._blank(self.lambda_bound, cells),
                      labels_o[self.binding[cells]].tolist(), months_o[month].tolist())
        # tuple.__new__ is what SweepRow._make calls, minus a Python frame per row.
        return list(map(tuple.__new__, repeat(SweepRow), columns))


def _column(values, dtype, shape) -> np.ndarray:
    """values broadcast to shape, as a read-only copy in row order."""
    column = np.array(np.broadcast_to(values, shape), dtype=dtype).ravel()
    column.flags.writeable = False
    return column


def _check_mode(mode: str) -> None:
    if mode not in ("paper", "exact"):
        raise DomainError(f"mode must be 'paper' or 'exact', got {mode!r}")


def _free_rho(discipline: Discipline, eps: SaturationEpsilon) -> float:
    """The utilization where the rate cap is slack: rho' (FCFS) or 1 - eps (LCFS)."""
    if discipline is Discipline.FCFS_MM1:
        return OPT_RHO_MM1
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
        return bound, mu_star, avg_aoi(discipline, bound, mu_star, mode), True
    lam_free = rho * mu
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
    bound = kappa_cap(constraint.budget_k, constraint.horizon_tn, profile.long_term_average,
                      energy.e_p_kwh(), constraint.success_prob_a)
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
            raise MissingConstraint("solve_power_constrained needs constraint.power_cap")
        e_kwh = joules_to_kwh(constraint.power_cap * energy.t_p)
        mu = (1.0 / energy.t_p) if mu is None else mu
    else:
        if constraint.snr_min is None:
            raise MissingConstraint("solve_qos_constrained needs constraint.snr_min")
        link = min_rate_for_snr(energy, constraint.snr_min)
        if not link.t_p > 0:
            raise DomainError(f"transmission time must be positive, got {link.t_p}")
        e_kwh = joules_to_kwh(link.p_t_min * link.t_p)
        mu = 1.0 / link.t_p
    if not e_kwh > 0:
        # A cap with a zero energy per packet divides by zero.
        raise DomainError(f"energy per packet must be positive, got {e_kwh} kWh")
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


def _pick_rates(disciplines, mode: str, cap, lam_free, mu, emission):
    """_pick_rate under a fixed service rate, for many cells at once.

    cap, lam_free and mu broadcast to cells x disciplines, the last axis
    in the order of `disciplines`; lam_free is the rate taken where the
    cap is slack, and emission holds the (ci, e_kwh, a, tn) factors of
    slot_grams.  Returns float64 arrays of the age and the cf at lambda*
    and the binding and infeasible masks.  A cap that is not positive, or
    NaN, makes a cell infeasible, with age inf.  A service rate that is
    not positive raises, as in _pick_rate.
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
        ci, e_kwh, a, tn = emission
        cf = slot_grams(ci, e_kwh, a, lam, tn)
    return aoi, cf, binding, infeasible


def sweep_lambda(mu: float, lambda_grid, disciplines=BOTH_DISCIPLINES,
                 mode: str = "exact", *, profile: CiProfile, energy: EnergyModel,
                 constraint: ConstraintSet) -> SweepTable:
    """Evaluate average age and slot emissions along an arrival-rate grid.

    FCFS grid points at or beyond the service rate are reported as
    explicit infeasible rows (aoi = inf) rather than skipped.  The cf
    column prices each rate at the profile mean, with the energy and the
    constraint's success probability and slot length.  A rate that is not
    positive and finite (None, NaN, inf) raises DomainError for every
    discipline and mode.
    """
    lam = _check_grid(lambda_grid)[:, None]
    _check_mode(mode)
    disciplines = tuple(disciplines)
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
    return SweepTable([None], lam.ravel().tolist(), [d.value for d in disciplines], aoi, cf,
                      None, infeasible, binding, BindingConstraint.NONE)


def _sweep(months, xs, disciplines, mode, eps, cap, mu, emission, label) -> SweepTable:
    """The table of a solved sweep over months x grid points.

    months and xs label the two axes, as in SweepTable.  cap holds
    months x grid points, and mu and the slot_grams factors in emission
    broadcast to it.  Where the cap is slack the rate is _free_rho * mu,
    as in _pick_rate.
    """
    def per_discipline(v):
        return np.asarray(v, dtype=float)[..., None]

    mu = per_discipline(mu)
    cap = per_discipline(cap)
    rho = np.array([_free_rho(d, eps) for d in disciplines])
    aoi, cf, binding, infeasible = _pick_rates(
        disciplines, mode, cap, rho * mu, mu, tuple(map(per_discipline, emission)))
    return SweepTable(months, xs, [d.value for d in disciplines], aoi, cf, cap, infeasible,
                      binding, label)


def _months(profile: CiProfile) -> list:
    if len(profile.values) != 12:
        raise DomainError(
            f"month sweeps need a 12-step profile, got {len(profile.values)} steps"
        )
    return list(enumerate(profile.values, start=1))


def sweep_cf_budget(mu: float, k_grid, profile: CiProfile, energy: EnergyModel,
                    tn: float, disciplines=BOTH_DISCIPLINES, mode: str = "exact",
                    success_prob_a: float = 1.0, per_month: bool = False,
                    eps: SaturationEpsilon = DEFAULT_EPS) -> SweepTable:
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
    with np.errstate(over="ignore"):       # inf, silently, as on the scalar path
        cap = kappa_cap(ks, tn, ci, e_kwh, success_prob_a)
    cap = np.broadcast_to(cap, (len(ci), len(ks)))      # a = 0 gives a scalar inf
    return _sweep(months, ks.tolist(), tuple(disciplines), mode, eps, cap, mu,
                  (ci, e_kwh, success_prob_a, tn), BindingConstraint.CF_BUDGET)


def sweep_months(constraint: ConstraintSet, profile: CiProfile, energy: EnergyModel,
                 disciplines=BOTH_DISCIPLINES, mode: str = "exact",
                 problem: str = "power", mu: float | None = None,
                 eps: SaturationEpsilon = DEFAULT_EPS) -> SweepTable:
    """Solve one constrained problem per calendar month of a 12-step profile.

    The one-point surface of sweep_surface, whose x is None.
    """
    return sweep_surface(problem, [(None, constraint)], profile, energy, disciplines, mode,
                         mu, eps)


def sweep_surface(problem: str, grid, profile: CiProfile, energy: EnergyModel,
                  disciplines=BOTH_DISCIPLINES, mode: str = "exact",
                  mu: float | None = None,
                  eps: SaturationEpsilon = DEFAULT_EPS) -> SweepTable:
    """Solve a power or qos problem on every (month, grid point) cell.

    grid holds (x, ConstraintSet) pairs: x is only the row label (a budget
    in grams, an SNR floor in dB), the constraint is what gets solved.
    Rows run month by month, then along the grid, then over disciplines.
    """
    months = _months(profile)
    if problem not in _MONTH_PROBLEMS:
        raise DomainError(f"problem must be 'power' or 'qos', got {problem!r}")
    grid = list(grid)
    if not grid:
        raise DomainError("grid must not be empty")
    constraints = [c for _, c in grid]
    points = [_month_point(problem, c, energy, mu, mode) for c in constraints]
    e_kwh = np.array([e for e, _ in points])
    budget, a, tn = (np.array([getattr(c, name) for c in constraints])
                     for name in ("budget_k", "success_prob_a", "horizon_tn"))
    ci = np.array([v for _, v in months])[:, None]
    with np.errstate(over="ignore"):       # inf, silently, as on the scalar path
        cap = energy_cap(budget, ci, e_kwh, tn)
    return _sweep([m for m, _ in months], [x for x, _ in grid], tuple(disciplines), mode,
                  eps, cap, np.array([m for _, m in points]), (ci, e_kwh, a, tn),
                  _MONTH_PROBLEMS[problem])
