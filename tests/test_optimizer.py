import csv
import io
import math

import numpy as np
import optimizer_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caoi import cli, optimizer
from caoi.carbon import CiProfile, ConstraintSet, EnergyModel, LinkBudget, avg_cf, min_rate_for_snr
from caoi.cidata import builtin_profile_si2024
from caoi.errors import CaoiError, DomainError, Infeasible, MissingConstraint
from caoi.optimizer import (
    BOTH_DISCIPLINES,
    BindingConstraint,
    OptimizationResult,
    SweepRow,
    _check_grid,
    solve_cf_constrained,
    solve_power_constrained,
    solve_qos_constrained,
    sweep_cf_budget,
    sweep_lambda,
    sweep_months,
    sweep_surface,
)
from caoi.queueing import (
    Discipline,
    QueueSpec,
    SaturationEpsilon,
    avg_aoi,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
    optimal_utilization_mm1,
)

ENERGY = EnergyModel()
OPT_RHO = 0.5310100564595692


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def budget_for_bound(bound, xi=198.0, tn=3600.0, a=1.0):
    """Budget K that makes lambda_kappa equal `bound` at CI `xi`."""
    return bound * xi * ENERGY.e_p_kwh() * tn * a


def cf_constraint(bound, xi=198.0, tn=3600.0):
    return ConstraintSet(budget_k=budget_for_bound(bound, xi, tn), horizon_tn=tn)


FLAT198 = CiProfile.constant(198.0, 12 * 30 * 86400.0)
# sweep_lambda's keyword-only inputs that price its rates.
PRICING = dict(profile=FLAT198, energy=ENERGY,
               constraint=ConstraintSet(budget_k=math.inf, horizon_tn=3600.0))


class TestCfConstrained:
    def test_slack_solution_sits_at_optimum(self):
        res = solve_cf_constrained(1.0, cf_constraint(10.0), FLAT198, ENERGY,
                                   Discipline.FCFS_MM1)
        assert res.binding_constraint is BindingConstraint.NONE
        assert res.lambda_star == pytest.approx(0.53101, abs=5e-5)
        assert res.aoi == pytest.approx(3.4844, abs=1e-4)
        assert res.mu_star == 1.0

    def test_binding_solution_at_the_bound(self):
        res = solve_cf_constrained(1.0, cf_constraint(0.2), FLAT198, ENERGY,
                                   Discipline.FCFS_MM1)
        assert res.binding_constraint is BindingConstraint.CF_BUDGET
        assert res.lambda_star == pytest.approx(0.2, rel=1e-12)
        assert res.aoi == pytest.approx(6.05, abs=1e-9)

    def test_disciplines_converge_when_bound_is_tiny(self):
        # Far below mu the wait is negligible, so both queue rules give
        # roughly 1/mu + 1/lambda.
        fcfs = solve_cf_constrained(1.0, cf_constraint(0.2), FLAT198, ENERGY,
                                    Discipline.FCFS_MM1, mode="exact")
        lcfs = solve_cf_constrained(1.0, cf_constraint(0.2), FLAT198, ENERGY,
                                    Discipline.LCFS_PREEMPTIVE, mode="exact")
        assert abs(fcfs.aoi - lcfs.aoi) / lcfs.aoi < 0.05

    def test_feasibility_invariant(self):
        for bound in (0.1, 0.5, 2.0, 50.0):
            c = cf_constraint(bound)
            for disc in (Discipline.FCFS_MM1, Discipline.LCFS_PREEMPTIVE):
                res = solve_cf_constrained(1.0, c, FLAT198, ENERGY, disc)
                assert res.cf <= c.budget_k + 1e-12
                assert 0 < res.lambda_star / res.mu_star < 1

    def test_reported_cf_matches_rate(self):
        c = cf_constraint(0.3)
        res = solve_cf_constrained(1.0, c, FLAT198, ENERGY, Discipline.FCFS_MM1)
        assert res.cf == pytest.approx(
            198.0 * ENERGY.e_p_kwh() * res.lambda_star * 3600.0, rel=1e-12)

    def test_fcfs_beats_any_grid_point(self):
        # Brute-force oracle: the returned AoI must not exceed the best of
        # a dense feasible grid.
        rng = np.random.default_rng(2024)
        for _ in range(100):
            mu = float(rng.uniform(0.1, 50.0))
            bound = float(rng.uniform(0.01, 2.0)) * mu
            res = solve_cf_constrained(mu, cf_constraint(bound), FLAT198,
                                       ENERGY, Discipline.FCFS_MM1)
            lam = np.linspace(1e-6, min(bound, mu * 0.999999), 10_000)
            rho = lam / mu
            grid = (1.0 / mu) * (1.0 + 1.0 / rho + rho**2 / (1.0 - rho))
            assert res.aoi <= grid.min() + 1e-9

    def test_paper_mode_lcfs_is_two_over_lambda(self):
        res = solve_cf_constrained(1.0, cf_constraint(0.25), FLAT198, ENERGY,
                                   Discipline.LCFS_PREEMPTIVE, mode="paper")
        assert res.aoi == pytest.approx(2.0 / 0.25, rel=1e-12)


class TestPowerConstrained:
    def constraint(self, k=5e-4, cap=1.0):
        return ConstraintSet(budget_k=k, horizon_tn=3600.0, power_cap=cap)

    def test_bound_reference_months(self):
        lo = solve_power_constrained(self.constraint(), 108.0, ENERGY,
                                     Discipline.FCFS_MM1)
        hi = solve_power_constrained(self.constraint(), 308.0, ENERGY,
                                     Discipline.FCFS_MM1)
        assert lo.lambda_bound == pytest.approx(38.58, abs=0.05)
        assert hi.lambda_bound == pytest.approx(13.53, abs=0.02)
        assert hi.lambda_bound / lo.lambda_bound == pytest.approx(108.0 / 308.0,
                                                                  rel=1e-12)
        assert hi.aoi > lo.aoi

    def test_higher_ci_hurts_both_disciplines(self):
        for disc in (Discipline.FCFS_MM1, Discipline.LCFS_PREEMPTIVE):
            lo = solve_power_constrained(self.constraint(), 108.0, ENERGY, disc)
            hi = solve_power_constrained(self.constraint(), 308.0, ENERGY, disc)
            assert hi.aoi > lo.aoi

    def test_cap_cannot_exceed_hardware(self):
        with pytest.raises(DomainError):
            solve_power_constrained(self.constraint(cap=2.0), 108.0, ENERGY,
                                    Discipline.FCFS_MM1)

    def test_default_mu_is_hardware_rate(self):
        res = solve_power_constrained(self.constraint(), 108.0, ENERGY,
                                      Discipline.FCFS_MM1)
        assert res.mu_star == pytest.approx(1.0 / ENERGY.t_p, rel=1e-12)
        assert res.binding_constraint is BindingConstraint.POWER

    def test_track_opt_rho_rule(self):
        res = solve_power_constrained(self.constraint(), 108.0, ENERGY,
                                      Discipline.FCFS_MM1,
                                      mu_rule="track_opt_rho")
        assert res.lambda_star == res.lambda_bound
        assert res.lambda_star / res.mu_star == pytest.approx(OPT_RHO, rel=1e-12)

    def test_unknown_rule_rejected(self):
        with pytest.raises(DomainError):
            solve_power_constrained(self.constraint(), 108.0, ENERGY,
                                    Discipline.FCFS_MM1, mu_rule="greedy")

    def test_needs_power_cap(self):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0)
        with pytest.raises(MissingConstraint, match="solve_power_constrained"):
            solve_power_constrained(c, 108.0, ENERGY, Discipline.FCFS_MM1)

    def test_binding_paper_lcfs_tracks_ci_ratio(self):
        nov = solve_power_constrained(self.constraint(), 308.0, ENERGY,
                                      Discipline.LCFS_PREEMPTIVE, mode="paper")
        may = solve_power_constrained(self.constraint(), 108.0, ENERGY,
                                      Discipline.LCFS_PREEMPTIVE, mode="paper")
        assert nov.aoi / may.aoi == pytest.approx(308.0 / 108.0, rel=1e-12)

    @given(k=st.floats(1e-5, 1e-2))
    def test_doubling_budget_never_halves_exact_lcfs(self, k):
        # The 1/mu floor does not scale with the bound.
        r1 = solve_power_constrained(self.constraint(k=k), 308.0, ENERGY,
                                     Discipline.LCFS_PREEMPTIVE, mode="exact")
        r2 = solve_power_constrained(self.constraint(k=2 * k), 308.0, ENERGY,
                                     Discipline.LCFS_PREEMPTIVE, mode="exact")
        if r1.binding_constraint is BindingConstraint.POWER and \
                r2.binding_constraint is BindingConstraint.POWER:
            assert 1.0 < r1.aoi / r2.aoi < 2.0


class TestQosConstrained:
    def constraint(self, snr, k=6e-5):
        return ConstraintSet(budget_k=k, horizon_tn=3600.0, snr_min=snr)

    def test_mu_follows_snr(self):
        res = solve_qos_constrained(self.constraint(1.0), 198.0, ENERGY,
                                    Discipline.FCFS_MM1)
        assert res.mu_star == pytest.approx(83.333, abs=0.01)

    def test_needs_snr_floor(self):
        c = ConstraintSet(budget_k=6e-5, horizon_tn=3600.0)
        with pytest.raises(MissingConstraint, match="solve_qos_constrained"):
            solve_qos_constrained(c, 198.0, ENERGY, Discipline.FCFS_MM1)

    def test_u_shape_over_grid(self):
        aois = []
        for db in range(-10, 31):
            res = solve_qos_constrained(self.constraint(10.0 ** (db / 10)),
                                        108.0, ENERGY, Discipline.FCFS_MM1,
                                        mode="paper")
            aois.append(res.aoi)
        imin = aois.index(min(aois))
        assert 0 < imin < len(aois) - 1
        diffs = [b - a for a, b in zip(aois, aois[1:])]
        signs = [d > 0 for d in diffs if d != 0]
        changes = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
        assert changes == 1

    def test_binding_ratio_tracks_ci(self):
        # In the binding regime at the same floor, paper-mode LCFS AoI
        # scales with the CI ratio.
        snr = 10.0 ** 2.5
        hi = solve_qos_constrained(self.constraint(snr), 300.0, ENERGY,
                                   Discipline.LCFS_PREEMPTIVE, mode="paper")
        lo = solve_qos_constrained(self.constraint(snr), 100.0, ENERGY,
                                   Discipline.LCFS_PREEMPTIVE, mode="paper")
        assert hi.binding_constraint is BindingConstraint.QOS
        assert lo.binding_constraint is BindingConstraint.QOS
        assert hi.aoi / lo.aoi == pytest.approx(3.0, rel=1e-9)


class TestSweeps:
    def test_lambda_sweep_shape(self):
        grid = [0.1 * i for i in range(1, 10)]
        rows = sweep_lambda(1.0, grid, **PRICING)
        assert len(rows) == 2 * len(grid)
        assert [r.x for r in rows[::2]] == grid
        fcfs = [r for r in rows if r.model == "mm1"]
        best = min(fcfs, key=lambda r: r.aoi)
        assert abs(best.x - OPT_RHO) <= 0.1 + 1e-12

    def test_lcfs_exact_monotone_down_the_grid(self):
        grid = [0.1 * i for i in range(1, 10)]
        rows = [r for r in sweep_lambda(1.0, grid, **PRICING) if r.model == "mm1star"]
        aois = [r.aoi for r in rows]
        assert aois == sorted(aois, reverse=True)

    def test_cf_column_strictly_increasing(self):
        grid = [0.1 * i for i in range(1, 10)]
        c = ConstraintSet(budget_k=math.inf, horizon_tn=3600.0)
        rows = [r for r in sweep_lambda(1.0, grid, profile=FLAT198,
                                        energy=ENERGY, constraint=c)
                if r.model == "mm1"]
        cfs = [r.cf for r in rows]
        assert all(b > a for a, b in zip(cfs, cfs[1:]))

    def test_unstable_rows_marked_not_dropped(self):
        rows = sweep_lambda(1.0, [0.5, 1.0, 1.5], **PRICING)
        flagged = [r for r in rows if r.model == "mm1" and r.x >= 1.0]
        assert all(r.binding == "infeasible" and math.isinf(r.aoi)
                   for r in flagged)
        assert len(rows) == 6

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            sweep_lambda(1.0, [0.5, 0.4], **PRICING)
        with pytest.raises(DomainError):
            sweep_lambda(1.0, [], **PRICING)

    @pytest.mark.parametrize("given", [(), ("profile",), ("energy", "constraint")])
    def test_lambda_sweep_needs_its_pricing_inputs(self, given):
        # Every table has a cf column: the three inputs are required, and
        # by keyword only.
        with pytest.raises(TypeError, match="required keyword-only"):
            sweep_lambda(1.0, [0.5], **{key: PRICING[key] for key in given})
        with pytest.raises(TypeError, match="positional"):
            sweep_lambda(1.0, [0.5], BOTH_DISCIPLINES, "exact", *PRICING.values())

    def test_lambda_sweep_checks_the_mode(self):
        with pytest.raises(DomainError, match="mode must be"):
            sweep_lambda(1.0, [0.5], mode="papr", **PRICING)

    @pytest.mark.parametrize("grid", [[None, 0.5], [math.nan, 0.5], [0.5, math.nan],
                                      [0.5, math.inf], [-1.0, 0.5], [0.0, 0.5]])
    def test_lambda_sweep_rejects_rates_not_positive_and_finite(self, grid):
        # The grid check passes NaN (and None, as NaN) and inf: paper-mode
        # LCFS alone once gave rows with aoi nan or 0.0 for them.
        for disciplines in ((Discipline.LCFS_PREEMPTIVE,), (Discipline.FCFS_MM1,),
                            BOTH_DISCIPLINES):
            for mode in ("paper", "exact"):
                with pytest.raises(DomainError,
                                   match="arrival rates must be positive and finite"):
                    sweep_lambda(1.0, grid, disciplines, mode, **PRICING)

    def test_budget_sweep_monotone_every_month(self, builtin):
        k_grid = [5e-4 + 5e-5 * i for i in range(11)]
        rows = sweep_cf_budget(40.0, k_grid, builtin, ENERGY, 3600.0,
                               mode="paper", per_month=True)
        assert len(rows) == 11 * 12 * 2
        for month in range(1, 13):
            for model in ("mm1", "mm1star"):
                col = [r.aoi for r in rows
                       if r.month == month and r.model == model]
                assert all(b <= a + 1e-12 for a, b in zip(col, col[1:]))

    def test_lcfs_paper_halves_exactly_in_binding_regime(self):
        rows = sweep_cf_budget(1.0, [1e-5, 2e-5], FLAT198, ENERGY, 3600.0,
                               mode="paper")
        lcfs = [r for r in rows if r.model == "mm1star"]
        assert all(r.binding == "cf_budget" for r in lcfs)
        assert lcfs[0].aoi / lcfs[1].aoi == pytest.approx(2.0, rel=1e-12)

    def test_fcfs_constant_once_unbound(self):
        rows = sweep_cf_budget(1.0, [0.1, 0.2, 0.4], FLAT198, ENERGY, 3600.0)
        fcfs = [r for r in rows if r.model == "mm1"]
        assert all(r.binding == "none" for r in fcfs)
        assert len({r.aoi for r in fcfs}) == 1

    def test_month_sweep_power(self, builtin):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        rows = sweep_months(c, builtin, ENERGY, mode="paper", problem="power")
        assert len(rows) == 24
        assert [r.month for r in rows[::2]] == list(range(1, 13))
        by_ci = sorted(
            (r for r in rows if r.model == "mm1star"),
            key=lambda r: builtin.values[r.month - 1])
        aois = [r.aoi for r in by_ci]
        assert aois == sorted(aois)

    @pytest.mark.parametrize("problem,solver", [("power", "solve_power_constrained"),
                                                ("qos", "solve_qos_constrained")])
    def test_month_sweeps_need_their_constraint(self, builtin, problem, solver):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0)
        with pytest.raises(MissingConstraint, match=solver):
            sweep_months(c, builtin, ENERGY, problem=problem)
        with pytest.raises(MissingConstraint, match=solver):
            sweep_surface(problem, [(1.0, c)], builtin, ENERGY)

    def test_empty_surface_grid_raises_like_the_other_sweeps(self, builtin):
        for sweep in (lambda: sweep_lambda(1.0, [], **PRICING),
                      lambda: sweep_cf_budget(1.0, [], builtin, ENERGY, 3600.0),
                      lambda: sweep_surface("power", [], builtin, ENERGY),
                      lambda: sweep_surface("qos", iter(()), builtin, ENERGY)):
            with pytest.raises(DomainError, match="^grid must not be empty$"):
                sweep()

    def test_month_sweep_of_one_row(self):
        # A one-row profile is one month, as optimize --month 1 reads it.
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        rows = sweep_months(c, FLAT198, ENERGY, problem="power")
        assert_rows_equal(rows, per_cell([(1, None, 198.0, c)], lambda c, ci, disc:
                                         solve_power_constrained(c, ci, ENERGY, disc)))

    @pytest.mark.parametrize("n", [1, 3, 24])
    @pytest.mark.parametrize("problem", ["power", "qos"])
    def test_month_sweeps_run_over_every_row(self, n, problem):
        # Month m is row m, whatever the number of rows: the sweeps equal a
        # loop of month solves at profile.values[m - 1].
        month = 30 * 86400.0
        values = np.random.default_rng(n).uniform(10.0, 1000.0, n)
        profile = CiProfile([(i * month, v) for i, v in enumerate(values)], n * month)
        extra = {"power_cap": 0.5} if problem == "power" else {"snr_min": 10.0}
        grid = [(k, ConstraintSet(budget_k=k, horizon_tn=tn, **extra))
                for k, tn in ((5e-324, 1e12), (1e-6, 3600.0), (5e-4, 3600.0), (1.0, 3600.0))]
        solver = solve_power_constrained if problem == "power" else solve_qos_constrained

        def solve(c, ci, disc):
            return solver(c, ci, ENERGY, disc)

        rows = sweep_surface(problem, grid, profile, ENERGY)
        assert rows.months == tuple(range(1, n + 1))
        cells = [(m, k, ci, c) for m, ci in enumerate(profile.values, start=1) for k, c in grid]
        assert_rows_equal(rows, per_cell(cells, solve))
        for k, c in grid:
            cells = [(m, None, ci, c) for m, ci in enumerate(profile.values, start=1)]
            assert_rows_equal(sweep_months(c, profile, ENERGY, problem=problem),
                              per_cell(cells, solve))

    def test_qos_sweeps_refuse_mu(self, builtin):
        # The SNR floor sets each cell's service rate, so a mu is refused, not ignored.
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, snr_min=10.0)
        with pytest.raises(DomainError, match="the SNR floor sets the service rate"):
            sweep_surface("qos", [(10.0, c)], builtin, ENERGY, mu=40.0)
        with pytest.raises(DomainError, match="the SNR floor sets the service rate"):
            sweep_months(c, builtin, ENERGY, problem="qos", mu=40.0)

    def test_month_sweep_cells_are_capped_before_solving(self, monkeypatch):
        # Months x grid points, not grid points alone: a year of hourly rows
        # times 137 budgets is 1200120 cells, refused before any is solved.
        def no_solve(*args):
            raise AssertionError("solved past the cap")

        monkeypatch.setattr(optimizer, "_sweep", no_solve)
        hourly = CiProfile([(3600.0 * i, 198.0) for i in range(8760)], 8760 * 3600.0)
        grid = [(k, ConstraintSet(budget_k=k, horizon_tn=3600.0, power_cap=1.0))
                for k in np.linspace(1e-6, 1e-1, 137)]
        with pytest.raises(DomainError, match="^8760 months x 137 grid points exceed the cap "
                                              "of 1200000 cells$"):
            sweep_surface("power", grid, hourly, ENERGY)

    def test_month_sweep_cell_cap_edge(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_SWEEP_CELLS", 6)
        three = CiProfile([(0.0, 228.0), (1.0, 150.5), (2.0, 310.0)], 3.0)
        grid = [(k, ConstraintSet(budget_k=k, horizon_tn=3600.0, power_cap=1.0))
                for k in (1e-4, 5e-4, 1e-3)]
        assert len(sweep_surface("power", grid[:2], three, ENERGY)) == 3 * 2 * 2
        with pytest.raises(DomainError, match="3 months x 3 grid points exceed the cap of 6"):
            sweep_surface("power", grid, three, ENERGY)

    def test_month_sweep_rejects_unknown_problem(self, builtin):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        three = CiProfile([(0.0, 228.0), (1.0, 150.5), (2.0, 310.0)], 3.0)
        for profile in (builtin, three):
            with pytest.raises(DomainError, match="^problem must be 'power' or 'qos', got 'cf'$"):
                sweep_months(c, profile, ENERGY, problem="cf")


class TestInfeasibility:
    def test_unbounded_rate_is_slack_under_fixed_mu(self):
        # a = 0 removes the budget coupling entirely, so the rate cap is
        # infinite and the solver just sits at the unconstrained optimum.
        c = ConstraintSet(budget_k=0.05, horizon_tn=3600.0, success_prob_a=0.0)
        res = solve_cf_constrained(1.0, c, FLAT198, ENERGY, Discipline.FCFS_MM1)
        assert res.binding_constraint is BindingConstraint.NONE
        assert math.isinf(res.lambda_bound)
        assert res.cf == 0.0

    def test_degenerate_bounds_raise(self):
        from caoi.optimizer import _pick_rate
        from caoi.queueing import DEFAULT_EPS
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(Infeasible):
                _pick_rate(Discipline.FCFS_MM1, 1.0, bad, "exact",
                           DEFAULT_EPS, "fixed")
        # The tracking rule has no finite optimum against an infinite bound.
        with pytest.raises(Infeasible):
            _pick_rate(Discipline.FCFS_MM1, 1.0, math.inf, "exact",
                       DEFAULT_EPS, "track_opt_rho")


NOT_A_DISCIPLINE = "^discipline must be a Discipline, got 'mm1'$"


class TestDisciplineRefusal:
    """A string where a Discipline belongs is refused by every layer, not
    answered as preemptive LCFS (the non-FCFS branch) or as FCFS."""

    @pytest.mark.parametrize("mode", ["paper", "exact"])
    def test_avg_aoi(self, mode):
        # Once 3.0 in exact mode, the LCFS age; FCFS gives 3.5.
        with pytest.raises(DomainError, match=NOT_A_DISCIPLINE):
            avg_aoi("mm1", 0.5, 1.0, mode)

    @pytest.mark.parametrize("solve", ["cf", "power", "qos"])
    def test_scalar_solves(self, solve):
        c = ConstraintSet(budget_k=1e-3, horizon_tn=3600.0, power_cap=1.0, snr_min=10.0)
        call = {"cf": lambda: solve_cf_constrained(40.0, c, FLAT198, ENERGY, "mm1"),
                "power": lambda: solve_power_constrained(c, 198.0, ENERGY, "mm1"),
                "qos": lambda: solve_qos_constrained(c, 198.0, ENERGY, "mm1")}[solve]
        with pytest.raises(DomainError, match=NOT_A_DISCIPLINE):
            call()

    def test_scalar_solve_refuses_before_infeasible(self):
        # An unbounded budget has no optimum under track_opt_rho (Infeasible),
        # but the discipline is refused first.
        c = ConstraintSet(budget_k=math.inf, horizon_tn=3600.0, power_cap=1.0)
        with pytest.raises(DomainError, match=NOT_A_DISCIPLINE):
            solve_power_constrained(c, 198.0, ENERGY, "mm1", mu_rule="track_opt_rho")

    def test_queue_spec_and_sim_config(self):
        from caoi.dessim import SimConfig
        # Once accepted, then run on the FCFS kernel at rho = 2.
        with pytest.raises(DomainError, match=NOT_A_DISCIPLINE):
            SimConfig(QueueSpec("mm1", 2.0, 1.0), 100.0, 1)
        with pytest.raises(DomainError, match=NOT_A_DISCIPLINE):
            QueueSpec("mm1", 0.5, 1.0)

    @pytest.mark.parametrize("sweep", ["lambda", "cf_budget", "months"])
    def test_sweeps(self, sweep, builtin):
        disciplines = (Discipline.FCFS_MM1, "mm1")
        c = ConstraintSet(budget_k=1e-3, horizon_tn=3600.0, power_cap=1.0)
        call = {"lambda": lambda: sweep_lambda(1.0, [0.1, 0.2], disciplines, **PRICING),
                "cf_budget": lambda: sweep_cf_budget(40.0, [1e-4, 1e-3], builtin, ENERGY,
                                                     3600.0, disciplines),
                "months": lambda: sweep_months(c, builtin, ENERGY, disciplines)}[sweep]
        # sweep_lambda once raised AttributeError.
        with pytest.raises(DomainError, match=NOT_A_DISCIPLINE):
            call()


class TestCapEdges:
    def test_energy_that_underflows_is_refused_by_solver_and_sweep(self):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=5e-324)
        with pytest.raises(DomainError, match="energy per packet"):
            solve_power_constrained(c, 108.0, ENERGY, Discipline.FCFS_MM1)
        with pytest.raises(DomainError, match="energy per packet"):
            sweep_surface("power", [(5e-4, c)], builtin_profile_si2024(), ENERGY)

    def test_denominator_that_underflows_is_refused_by_solver_and_sweep(self):
        # Positive factors whose product xi * E * t_N (times a) rounds to 0.
        # Tier-1 turns a leaked numpy divide warning into an error.
        profile = builtin_profile_si2024()
        power = ConstraintSet(budget_k=5e-4, horizon_tn=5e-324, power_cap=1e-3)
        qos = ConstraintSet(budget_k=5e-4, horizon_tn=5e-324, snr_min=2.0)
        for solve in (lambda d: solve_power_constrained(power, 108.0, ENERGY, d),
                      lambda d: solve_qos_constrained(qos, 108.0, ENERGY, d)):
            for d in BOTH_DISCIPLINES:
                with pytest.raises(DomainError, match="underflows to 0"):
                    solve(d)
        for problem, c in (("power", power), ("qos", qos)):
            with pytest.raises(DomainError, match="underflows to 0"):
                sweep_surface(problem, [(5e-4, c)], profile, ENERGY)
        for tn, a in ((5e-324, 1.0), (3600.0, 5e-324)):
            c = ConstraintSet(budget_k=5e-4, horizon_tn=tn, success_prob_a=a)
            with pytest.raises(DomainError, match="underflows to 0"):
                solve_cf_constrained(40.0, c, profile, ENERGY, Discipline.FCFS_MM1)
            for per_month in (False, True):
                with pytest.raises(DomainError, match="underflows to 0"):
                    sweep_cf_budget(40.0, [1e-4, 2e-4], profile, ENERGY, tn,
                                    success_prob_a=a, per_month=per_month)

    def test_zero_success_probability_keeps_an_infinite_cap(self):
        # a = 0 emits nothing, so the cap stays inf where t_N alone would underflow.
        profile = builtin_profile_si2024()
        rows = sweep_cf_budget(40.0, [1e-4, 2e-4], profile, ENERGY, 5e-324, success_prob_a=0.0)
        assert [r.lambda_bound for r in rows] == [math.inf] * 4
        c = ConstraintSet(budget_k=1e-4, horizon_tn=5e-324, success_prob_a=0.0)
        assert solve_cf_constrained(40.0, c, profile, ENERGY,
                                    Discipline.FCFS_MM1).lambda_bound == math.inf

    def test_cap_that_overflows_is_inf_without_a_warning(self):
        # A huge budget over a short slot: each cap overflows to inf, as the
        # scalar solver's does, and no numpy warning leaks (tier-1 turns a
        # RuntimeWarning into an error).
        profile = builtin_profile_si2024()
        c = ConstraintSet(budget_k=1e300, horizon_tn=1e-3, power_cap=1.0)
        rows = sweep_surface("power", [(1e300, c)], profile, ENERGY)
        assert [r.lambda_bound for r in rows] == [math.inf] * 24
        assert solve_power_constrained(c, profile.values[0], ENERGY,
                                       Discipline.FCFS_MM1).lambda_bound == math.inf
        rows = sweep_cf_budget(40.0, [1e300, 1e301], profile, ENERGY, 1e-3)
        assert [r.lambda_bound for r in rows] == [math.inf] * 4
        assert {r.binding for r in rows} == {"none"}


def per_cell(cells, solve, disciplines=BOTH_DISCIPLINES):
    """The month x grid x discipline loop with one direct solve per cell.

    Kept as the reference for the shared sweep loop: cells holds
    (month, x, ci, constraint); an Infeasible solve is an aoi = inf row.
    """
    rows = []
    for month, x, ci, constraint in cells:
        for disc in disciplines:
            try:
                res = solve(constraint, ci, disc)
            except Infeasible:
                rows.append((month, x, disc.value, math.inf, None, None, "infeasible"))
                continue
            rows.append((month, x, disc.value, res.aoi, res.cf, res.lambda_bound,
                         res.binding_constraint.value))
    return rows


def fmt(*values):
    return tuple(v if isinstance(v, str) else cli.fmt_float(v) for v in values)


def fmt_sweep_rows(rows):
    return [fmt(r.month, r.x, r.model, r.aoi, r.cf, r.lambda_bound, r.binding)
            for r in rows]


class TestOneSweepLoop:
    """Every solved sweep equals a per-cell loop of the frozen reference
    solvers in optimizer_reference, row for row.

    A 5e-324 g budget underflows the rate cap to 0 once the slot is long,
    so each case mixes infeasible cells with feasible ones.
    """

    def cli_surface(self, tmp_path, *args):
        out = tmp_path / "surface.csv"
        assert cli.main(["sweep", *args, "--ci", "builtin", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == list(cli.SWEEP_HEADER)
        return [tuple(r) for r in rows[1:]]

    def test_cli_k_surface(self, tmp_path, builtin):
        rows = self.cli_surface(tmp_path, "--surface", "k", "--k-grid", "5e-324:1e-3:4",
                                "--tn", "1e12")
        cells = [(m, k, ci, ConstraintSet(budget_k=k, horizon_tn=1e12, power_cap=1.0))
                 for m, ci in enumerate(builtin.values, start=1)
                 for k in cli.parse_grid("5e-324:1e-3:4")]
        expected = per_cell(cells, lambda c, ci, disc: ref.solve_power_constrained(
            c, ci, ENERGY, disc, mode="paper"))
        assert rows == [fmt(str(m), x, model, aoi, b) for m, x, model, aoi, _, _, b in expected]
        assert {r[4] for r in rows} == {"infeasible", "power"}

    def test_cli_snr_surface(self, tmp_path, builtin):
        rows = self.cli_surface(tmp_path, "--surface", "snr", "--snr-grid-db=-10:30:9",
                                "--budget-k", "5e-324", "--tn", "1e9", "--mode", "exact")
        cells = [(m, db, ci, ConstraintSet(budget_k=5e-324, horizon_tn=1e9,
                                           snr_min=10.0 ** (db / 10.0)))
                 for m, ci in enumerate(builtin.values, start=1)
                 for db in cli.parse_grid("-10:30:9")]
        expected = per_cell(cells, lambda c, ci, disc: ref.solve_qos_constrained(
            c, ci, ENERGY, disc, mode="exact"))
        assert rows == [fmt(str(m), x, model, aoi, b) for m, x, model, aoi, _, _, b in expected]
        assert {r[4] for r in rows} >= {"infeasible", "qos"}

    @pytest.mark.parametrize("problem,constraint", [
        ("power", ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)),
        ("power", ConstraintSet(budget_k=5e-324, horizon_tn=2.78e8, power_cap=1.0)),
        ("qos", ConstraintSet(budget_k=6e-5, horizon_tn=3600.0, snr_min=10.0)),
        ("qos", ConstraintSet(budget_k=5e-324, horizon_tn=1e12, snr_min=10.0)),
    ])
    def test_sweep_months(self, builtin, problem, constraint):
        rows = sweep_months(constraint, builtin, ENERGY, mode="paper", problem=problem)
        if problem == "power":
            def solve(c, ci, disc):
                return ref.solve_power_constrained(c, ci, ENERGY, disc, mode="paper")
        else:
            def solve(c, ci, disc):
                return ref.solve_qos_constrained(c, ci, ENERGY, disc, mode="paper")
        cells = [(m, None, ci, constraint)
                 for m, ci in enumerate(builtin.values, start=1)]
        assert fmt_sweep_rows(rows) == [fmt(*r) for r in per_cell(cells, solve)]

    def test_sweep_cf_budget_per_month(self, builtin):
        k_grid = [5e-324, 1e-4, 5e-4]
        rows = sweep_cf_budget(40.0, k_grid, builtin, ENERGY, 1e12, mode="paper",
                               per_month=True)
        cells = [(m, k, CiProfile.constant(ci, builtin.horizon),
                  ConstraintSet(budget_k=k, horizon_tn=1e12))
                 for m, ci in enumerate(builtin.values, start=1) for k in k_grid]
        expected = per_cell(cells, lambda c, prof, disc: ref.solve_cf_constrained(
            40.0, c, prof, ENERGY, disc, mode="paper"))
        assert fmt_sweep_rows(rows) == [fmt(*r) for r in expected]
        assert {r.binding for r in rows} == {"infeasible", "cf_budget"}


BUILTIN = builtin_profile_si2024()
FCFS, LCFS = BOTH_DISCIPLINES


def per_point(mu, grid, disciplines, mode, profile, constraint):
    """The per-point loop sweep_lambda ran before its array engine, as its oracle."""
    rows = []
    for lam in grid:
        for disc in disciplines:
            cf = avg_cf(profile, ENERGY, lam, constraint)
            if disc is FCFS and lam >= mu:
                rows.append((None, lam, disc.value, math.inf, cf, None, "infeasible"))
                continue
            if disc is FCFS:
                aoi = avg_aoi_mm1(QueueSpec(disc, lam, mu))
            elif mode == "paper":
                aoi = 2.0 / lam
            else:
                aoi = avg_aoi_mm1_star(QueueSpec(disc, lam, mu))
            rows.append((None, lam, disc.value, aoi, cf, None, "none"))
    return rows


def assert_rows_equal(rows, expected):
    """Field by field: equal values of the same Python type."""
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert type(row) is SweepRow
        got = (row.month, row.x, row.model, row.aoi, row.cf, row.lambda_bound, row.binding)
        for v, w in zip(got, ref):
            assert type(v) is type(w) and v == w, (got, ref)


def increasing(values, max_size=8):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(sorted)


# 5e-324 g over a long slot underflows the rate cap to 0: an infeasible cell.
BUDGETS = st.one_of(st.just(5e-324), st.floats(1e-7, 1e-2))
SLOTS = st.sampled_from([3600.0, 2.78e8, 1e12])
SUCCESS = st.sampled_from([0.0, 0.5, 1.0])      # a = 0 makes lambda_kappa inf
MODES = st.sampled_from(["exact", "paper"])
ORDERS = st.sampled_from([BOTH_DISCIPLINES, (FCFS,), (LCFS,), (LCFS, FCFS)])
EPS = st.sampled_from([SaturationEpsilon(), SaturationEpsilon(0.05)])


@st.composite
def profiles(draw):
    """The built-in year, or 1 to 24 random monthly steps over a random horizon.

    A month's mean intensity (v * h) / h need not round back to v.
    """
    if draw(st.booleans()):
        return BUILTIN
    values = draw(st.lists(st.floats(10.0, 1000.0), min_size=1, max_size=24))
    horizon = draw(st.floats(1e6, 1e9))
    return CiProfile(tuple((i * horizon / len(values), v) for i, v in enumerate(values)),
                     horizon)


class TestArrayEngine:
    """The array sweeps equal per-cell loops of the frozen reference
    solvers in every field and type.

    The grids reach FCFS rates at and above mu, rate caps that underflow
    to 0, infinite caps (a = 0), both modes and both month problems.
    """

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(0.05, 2.0), grid=increasing(st.floats(1e-3, 3.0), 40),
           disciplines=ORDERS, mode=MODES, a=SUCCESS, tn=SLOTS)
    def test_sweep_lambda(self, mu, grid, disciplines, mode, a, tn):
        c = ConstraintSet(budget_k=math.inf, horizon_tn=tn, success_prob_a=a)
        rows = sweep_lambda(mu, grid, disciplines, mode, profile=BUILTIN, energy=ENERGY,
                            constraint=c)
        assert_rows_equal(rows, per_point(mu, grid, disciplines, mode, BUILTIN, c))

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(0.5, 50.0), k_grid=increasing(BUDGETS), tn=SLOTS, a=SUCCESS,
           per_month=st.booleans(), disciplines=ORDERS, mode=MODES, eps=EPS,
           profile=profiles())
    @example(mu=40.0, k_grid=[5e-324, 1e-4], tn=1e12, a=1.0, per_month=True,
             disciplines=BOTH_DISCIPLINES, mode="paper", eps=SaturationEpsilon(),
             profile=BUILTIN)
    @example(mu=1.0, k_grid=[1e-4], tn=3600.0, a=0.0, per_month=False,
             disciplines=BOTH_DISCIPLINES, mode="exact", eps=SaturationEpsilon(),
             profile=BUILTIN)
    def test_sweep_cf_budget(self, mu, k_grid, tn, a, per_month, disciplines, mode, eps,
                             profile):
        rows = sweep_cf_budget(mu, k_grid, profile, ENERGY, tn, disciplines, mode, a,
                               per_month, eps)
        if per_month:
            months = [(m, CiProfile.constant(v, profile.horizon))
                      for m, v in enumerate(profile.values, start=1)]
        else:
            months = [(None, profile)]
        cells = [(m, k, prof, ConstraintSet(budget_k=k, horizon_tn=tn, success_prob_a=a))
                 for m, prof in months for k in k_grid]
        expected = per_cell(cells, lambda c, prof, disc: ref.solve_cf_constrained(
            mu, c, prof, ENERGY, disc, mode, eps), disciplines)
        assert_rows_equal(rows, expected)

    @staticmethod
    def constraints(problem):
        extra = ({"power_cap": st.floats(0.05, 1.0)} if problem == "power"
                 else {"snr_min": st.floats(0.01, 1e4)})
        return st.builds(ConstraintSet, budget_k=BUDGETS, horizon_tn=SLOTS,
                         success_prob_a=SUCCESS, **extra)

    @staticmethod
    def month_solver(problem, mode, mu, eps):
        if problem == "power":
            return lambda c, ci, disc: ref.solve_power_constrained(c, ci, ENERGY, disc, mode,
                                                                   "fixed", mu, eps)
        return lambda c, ci, disc: ref.solve_qos_constrained(c, ci, ENERGY, disc, mode, eps)

    @pytest.mark.parametrize("problem", ["power", "qos"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), disciplines=ORDERS, mode=MODES, eps=EPS, profile=profiles())
    def test_sweep_surface_and_months(self, problem, data, disciplines, mode, eps, profile):
        # qos refuses a mu: the SNR floor sets the service rate.
        mu = data.draw(st.none() if problem == "qos" else
                       st.one_of(st.none(), st.floats(0.5, 1e5)))
        constraints = data.draw(st.lists(self.constraints(problem), min_size=1, max_size=6))
        grid = list(enumerate(constraints))
        solve = self.month_solver(problem, mode, mu, eps)
        rows = sweep_surface(problem, grid, profile, ENERGY, disciplines, mode, mu, eps)
        cells = [(m, x, ci, c) for m, ci in enumerate(profile.values, start=1)
                 for x, c in grid]
        assert_rows_equal(rows, per_cell(cells, solve, disciplines))
        rows = sweep_months(constraints[0], profile, ENERGY, disciplines, mode, problem,
                            mu, eps)
        cells = [(m, None, ci, constraints[0])
                 for m, ci in enumerate(profile.values, start=1)]
        assert_rows_equal(rows, per_cell(cells, solve, disciplines))

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_bad_service_rate_raises_like_the_solvers(self, mu):
        # Paper-mode LCFS evaluates 2 / lambda and builds no QueueSpec, so
        # the service rate is checked on its own, before the rate cap: the
        # 5e-324 g budget over 1e12 s would make every cell infeasible.
        k_grid = [5e-324, 1e-4]
        cells = [(None, k, BUILTIN, ConstraintSet(budget_k=k, horizon_tn=1e12))
                 for k in k_grid]
        with pytest.raises(DomainError, match="service rate"):
            per_cell(cells, lambda c, prof, disc: ref.solve_cf_constrained(
                mu, c, prof, ENERGY, disc, "paper"), (LCFS,))
        with pytest.raises(DomainError, match="service rate"):
            sweep_cf_budget(mu, k_grid, BUILTIN, ENERGY, 1e12, (LCFS,), "paper")
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        cells = [(m, None, ci, c) for m, ci in enumerate(BUILTIN.values, start=1)]
        with pytest.raises(DomainError, match="service rate"):
            per_cell(cells, self.month_solver("power", "paper", mu, SaturationEpsilon()),
                     (LCFS,))
        with pytest.raises(DomainError, match="service rate"):
            sweep_months(c, BUILTIN, ENERGY, (LCFS,), "paper", "power", mu)
        for disciplines in ((LCFS,), (FCFS,)):
            for mode in ("paper", "exact"):
                with pytest.raises(DomainError, match="service rate"):
                    sweep_lambda(mu, [0.5, 1.0], disciplines, mode, **PRICING)

    def test_tie_is_slack(self):
        # A service rate whose slack LCFS rate (1 - eps) mu equals the
        # month-1 cap exactly: the cap does not bind, as in _pick_rate.
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        cap = solve_power_constrained(c, BUILTIN.values[0], ENERGY, LCFS).lambda_bound
        eps = SaturationEpsilon()
        candidates = [cap / (1.0 - eps.epsilon)]
        for _ in range(8):
            candidates.append(math.nextafter(candidates[-1], math.inf))
        mu = next(m for m in candidates if (1.0 - eps.epsilon) * m == cap)
        rows = sweep_months(c, BUILTIN, ENERGY, (LCFS,), "exact", "power", mu, eps)
        assert rows[0].binding == "none" and rows[0].lambda_bound == cap
        solve = self.month_solver("power", "exact", mu, eps)
        cells = [(m, None, ci, c) for m, ci in enumerate(BUILTIN.values, start=1)]
        assert_rows_equal(rows, per_cell(cells, solve, (LCFS,)))


class TestSweepTable:
    """A sweep's SweepTable builds each row on demand, equal to the per-cell
    solve's row in value and type, and the CLI writes CSV from its columns."""

    # 5e-324 g over 1e12 s underflows the cap to 0.
    K_GRID = cli.parse_grid("5e-324:5e-4:3")

    def surface(self, disciplines=BOTH_DISCIPLINES):
        grid = [(k, ConstraintSet(budget_k=k, horizon_tn=1e12, power_cap=1.0))
                for k in self.K_GRID]
        table = sweep_surface("power", grid, BUILTIN, ENERGY, disciplines, "paper")
        cells = [(m, k, ci, c) for m, ci in enumerate(BUILTIN.values, start=1)
                 for k, c in grid]
        expected = per_cell(cells, lambda c, ci, disc: ref.solve_power_constrained(
            c, ci, ENERGY, disc, mode="paper"), disciplines)
        return table, expected

    def test_len_and_indexing(self):
        table, expected = self.surface()
        assert len(table) == len(expected) == 12 * 3 * 2
        assert_rows_equal([table[0]], expected[:1])
        assert_rows_equal([table[-1]], expected[-1:])
        assert_rows_equal([table[len(table) - 1], table[-len(table)]],
                          [expected[-1], expected[0]])
        for i in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[1.0]

    def test_slices_are_lists_of_rows(self):
        table, expected = self.surface()
        for key in (slice(None, None, 2), slice(5, 30, 7), slice(None, None, -3),
                    slice(70, 80), slice(3, 3)):
            rows = table[key]
            assert type(rows) is list
            assert_rows_equal(rows, expected[key])

    @pytest.mark.parametrize("disciplines", [BOTH_DISCIPLINES, (LCFS,)])
    def test_iteration_is_the_per_cell_loop(self, disciplines, monkeypatch):
        table, expected = self.surface(disciplines)
        assert_rows_equal(list(table), expected)
        # Rows are built in blocks while iterating: a block edge inside the
        # table changes nothing.
        monkeypatch.setattr(optimizer, "BLOCK_ROWS", 5)
        assert_rows_equal(list(table), expected)
        assert {r.binding for r in table} == {"infeasible", "power"}

    def test_columns(self):
        table, expected = self.surface()
        assert table.months == tuple(range(1, 13))
        assert table.xs == tuple(self.K_GRID) and table.models == ("mm1", "mm1star")
        assert table.aoi.dtype == np.float64 and not table.aoi.flags.writeable
        assert table.aoi.tolist() == [r[3] for r in expected]
        assert table.infeasible.tolist() == [r[6] == "infeasible" for r in expected]
        assert [table.labels[b] for b in table.binding] == [r[6] for r in expected]
        assert table.blank.tolist() == table.infeasible.tolist()

    def test_sweep_months_x_is_none(self):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        table = sweep_months(c, BUILTIN, ENERGY, mode="paper", problem="power")
        assert table.months == tuple(range(1, 13)) and table.xs == (None,)
        assert repr(table) == "<SweepTable of 24 rows: 12 months x 1 points x 2 models>"
        assert [row.month for row in table] == [m for m in range(1, 13) for _ in "ab"]
        assert all(row.x is None for row in (*table, table[-1]))

    def test_lambda_table_keeps_cf_in_infeasible_cells(self):
        c = ConstraintSet(budget_k=math.inf, horizon_tn=3600.0)
        table = sweep_lambda(1.0, [0.5, 1.0], profile=BUILTIN, energy=ENERGY, constraint=c)
        assert table.lambda_bound is None and table.blank is None
        assert table[2].binding == "infeasible" and table[2].cf == table[3].cf > 0
        assert_rows_equal(table[:], per_point(1.0, [0.5, 1.0], BOTH_DISCIPLINES, "exact",
                                              BUILTIN, c))

    @staticmethod
    def csv_bytes(header, rows) -> bytes:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue().encode()

    def test_analyze_csv_bytes(self, tmp_path):
        out = tmp_path / "k.csv"
        assert cli.main(["analyze", "--model", "both", "--mu", "40", "--k-grid",
                         "5e-324:1e-3:4", "--tn", "1e12", "--ci", "builtin",
                         "--out", str(out)]) == 0
        cells = [(None, k, BUILTIN, ConstraintSet(budget_k=k, horizon_tn=1e12))
                 for k in cli.parse_grid("5e-324:1e-3:4")]
        expected = per_cell(cells, lambda c, prof, disc: ref.solve_cf_constrained(
            40.0, c, prof, ENERGY, disc, mode="paper"))
        rows = [fmt(x, model, aoi, cf, bound, b) for _, x, model, aoi, cf, bound, b in expected]
        assert out.read_bytes() == self.csv_bytes(cli.ANALYZE_HEADER, rows)
        assert rows[0][3:] == ("", "", "infeasible") and rows[-1][5] == "cf_budget"

        out = tmp_path / "lambda.csv"
        assert cli.main(["analyze", "--model", "both", "--mu", "1", "--lambda-grid",
                         "0.5:1.5:3", "--ci", "builtin", "--out", str(out)]) == 0
        c = ConstraintSet(budget_k=math.inf, horizon_tn=3600.0)
        rows = [fmt(x, model, aoi, cf, bound, b) for _, x, model, aoi, cf, bound, b
                in per_point(1.0, [0.5, 1.0, 1.5], BOTH_DISCIPLINES, "exact", BUILTIN, c)]
        assert out.read_bytes() == self.csv_bytes(cli.ANALYZE_HEADER, rows)
        assert rows[2][2:] == ("inf", rows[2][3], "", "infeasible") and rows[2][3]

    def test_sweep_csv_bytes(self, tmp_path, monkeypatch):
        table, expected = self.surface()
        rows = [fmt(str(m), x, model, aoi, b) for m, x, model, aoi, _, _, b in expected]
        want = self.csv_bytes(cli.SWEEP_HEADER, rows)
        # Blocks of 4 rows end inside a month, and one of the 3 x 2 cells of each.
        for block_rows in (optimizer.BLOCK_ROWS, 4):
            monkeypatch.setattr(optimizer, "BLOCK_ROWS", block_rows)
            out = tmp_path / f"surface{block_rows}.csv"
            assert cli.main(["sweep", "--surface", "k", "--k-grid", "5e-324:5e-4:3",
                             "--tn", "1e12", "--ci", "builtin", "--out", str(out)]) == 0
            assert out.read_bytes() == want

    def test_month_table_csv_bytes(self, tmp_path, monkeypatch):
        # A sweep_months table's x is None: the CLI's column writer leaves
        # the x field empty, as fmt_float writes None.
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        table = sweep_months(c, BUILTIN, ENERGY, mode="paper", problem="power")
        cells = [(m, None, ci, c) for m, ci in enumerate(BUILTIN.values, start=1)]
        expected = per_cell(cells, lambda c, ci, disc: ref.solve_power_constrained(
            c, ci, ENERGY, disc, mode="paper"))
        rows = [fmt(str(m), x, model, aoi, b) for m, x, model, aoi, _, _, b in expected]
        assert rows[0][:2] == ("1", "") and rows[-1][:2] == ("12", "")
        for block_rows in (optimizer.BLOCK_ROWS, 3):
            monkeypatch.setattr(optimizer, "BLOCK_ROWS", block_rows)
            out = tmp_path / f"months{block_rows}.csv"
            cli.write_csv(str(out), cli.SWEEP_HEADER,
                          cli.table_blocks(table, cli.SWEEP_HEADER))
            assert out.read_bytes() == self.csv_bytes(cli.SWEEP_HEADER, rows)


def outcome(solve, *args):
    """Each field of solve's result as (type, repr), or the type of what it raises."""
    try:
        res = solve(*args)
    except (CaoiError, ArithmeticError, TypeError) as exc:
        return type(exc)
    return [(type(v), repr(v)) for v in tuple(res)]


def mostly(valid, odd):
    """valid in about three draws of four, else one of the odd values."""
    return st.one_of(valid, valid, valid, st.sampled_from(odd))


SOLVER_MUS = mostly(st.floats(1e-3, 1e5), [0.0, -1.0, math.nan, math.inf, 5e-324, None])
SOLVER_CIS = mostly(st.floats(10.0, 1000.0), [0.0, -5.0, math.nan, 1e-300, 1e300, math.inf])
SOLVER_MODES = st.sampled_from(["paper", "exact"] * 3 + ["papr"])
SOLVER_BUDGETS = st.one_of(st.sampled_from([5e-324, 1e300, math.inf]),
                           st.floats(1e-9, 1.0), st.floats(5e-324, math.inf))


class TestFrozenSolvers:
    """Each solve_* equals its frozen copy in optimizer_reference: the same
    fields of the same types, or the same exception type."""

    @staticmethod
    def constraints(**extra):
        return st.builds(ConstraintSet, budget_k=SOLVER_BUDGETS, horizon_tn=SLOTS,
                         success_prob_a=SUCCESS, **extra)

    @settings(max_examples=150, deadline=None)
    @given(mu=SOLVER_MUS, c=constraints(), profile=profiles(),
           disc=st.sampled_from(BOTH_DISCIPLINES), mode=SOLVER_MODES, eps=EPS)
    def test_cf(self, mu, c, profile, disc, mode, eps):
        args = (mu, c, profile, ENERGY, disc, mode, eps)
        assert outcome(solve_cf_constrained, *args) == outcome(ref.solve_cf_constrained, *args)

    @settings(max_examples=300, deadline=None)
    @given(c=constraints(power_cap=mostly(st.floats(1e-6, 1.0), [None, 2.0])),
           ci=SOLVER_CIS, disc=st.sampled_from(BOTH_DISCIPLINES), mode=SOLVER_MODES,
           mu_rule=st.sampled_from(["fixed", "track_opt_rho"] * 3 + ["greedy"]),
           mu=SOLVER_MUS, eps=EPS)
    def test_power(self, c, ci, disc, mode, mu_rule, mu, eps):
        args = (c, ci, ENERGY, disc, mode, mu_rule, mu, eps)
        assert outcome(solve_power_constrained, *args) == \
            outcome(ref.solve_power_constrained, *args)

    @settings(max_examples=300, deadline=None)
    @given(c=constraints(snr_min=mostly(st.floats(1e-3, 1e4), [None, 1e-20])),
           ci=SOLVER_CIS, disc=st.sampled_from(BOTH_DISCIPLINES), mode=SOLVER_MODES, eps=EPS)
    def test_qos(self, c, ci, disc, mode, eps):
        args = (c, ci, ENERGY, disc, mode, eps)
        assert outcome(solve_qos_constrained, *args) == outcome(ref.solve_qos_constrained, *args)


class TestResultTuples:
    """OptimizationResult and LinkBudget are NamedTuples: fields in their
    order, read-only, and copied with a field changed by _replace."""

    CASES = {
        "OptimizationResult": (
            lambda: solve_qos_constrained(ConstraintSet(budget_k=6e-5, horizon_tn=3600.0,
                                                        snr_min=10.0),
                                          198.0, ENERGY, Discipline.FCFS_MM1, "paper"),
            OptimizationResult,
            ("discipline", "lambda_star", "mu_star", "aoi", "cf", "binding_constraint",
             "mode", "lambda_bound")),
        "LinkBudget": (lambda: min_rate_for_snr(ENERGY, 10.0), LinkBudget,
                       ("rate_min", "p_t_min", "t_p")),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_contract(self, name):
        make, cls, fields = self.CASES[name]
        value = make()
        assert type(value) is cls and cls._fields == fields
        assert tuple(value) == tuple(getattr(value, f) for f in fields)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 1.0)
        last = fields[-1]
        changed = value._replace(**{last: 7.0})
        assert type(changed) is cls and getattr(changed, last) == 7.0
        assert changed[:-1] == value[:-1] and getattr(value, last) != 7.0


def loop_grid(grid) -> list:
    """_check_grid as the per-point loop computed it."""
    values = [float(x) for x in grid]
    if not values:
        raise DomainError("grid must not be empty")
    prev = -math.inf
    for v in values:
        if v <= prev:
            raise DomainError(f"grid must be strictly increasing, got {v} after {prev}")
        prev = v
    return values


def loop_budgets(ks, tn, a) -> None:
    """sweep_cf_budget's checks of its grid as the loops made them: the grid,
    then one ConstraintSet per budget."""
    for k in loop_grid(ks):
        ConstraintSet(budget_k=k, horizon_tn=tn, success_prob_a=a)


def raised(f, *args):
    """(type, message) of what f raises, or None."""
    try:
        f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


GRID_CONTAINERS = [list, tuple, lambda g: (x for x in g), lambda g: np.array(g, dtype=float)]
POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                   st.floats(-1e3, 1e3), st.integers(-3, 3))


class TestGridChecks:
    """The float64 array checks of the sweep grids against their loops."""

    @given(grid=st.one_of(st.lists(POINTS, max_size=8), increasing(POINTS.filter(
        lambda x: x == x))), make=st.sampled_from(GRID_CONTAINERS))
    def test_grid_check_is_the_loop(self, grid, make):
        want = raised(loop_grid, make(grid))
        assert raised(_check_grid, make(grid)) == want
        if want is None:
            got = _check_grid(make(grid))
            assert got.dtype == np.float64 and got.ndim == 1
            assert got.tobytes() == np.array(loop_grid(make(grid))).tobytes()

    @given(ks=increasing(st.one_of(st.sampled_from([math.inf, 5e-324]), st.floats(1e-7, 1e-2))),
           bad=st.none() | st.tuples(st.integers(0, 7),
                                     st.sampled_from([math.nan, 0.0, -1.0, -math.inf])),
           tn=st.sampled_from([3600.0, 2.78e8, 1e12, 0.0, math.nan]),
           a=st.sampled_from([1.0, 0.0, 0.5, 1.5, math.nan]),
           make=st.sampled_from(GRID_CONTAINERS))
    def test_budget_check_is_the_loop(self, ks, bad, tn, a, make):
        if bad is not None and bad[0] < len(ks):
            ks[bad[0]] = bad[1]
        want = raised(loop_budgets, make(ks), tn, a)
        got = raised(sweep_cf_budget, 40.0, make(ks), BUILTIN, ENERGY, tn,
                     BOTH_DISCIPLINES, "paper", a)
        assert got == want
