import math
import re
import struct

import optimizer_reference as ref
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from caoi.carbon import J_PER_KWH, CiProfile, ConstraintSet, EnergyModel
from caoi.errors import DomainError
from caoi.optimizer import (
    BindingConstraint,
    _pick_rate,
    solve_cf_constrained,
    solve_power_constrained,
    solve_qos_constrained,
)
from caoi.queueing import (
    DEFAULT_EPS,
    OPT_RHO_MM1,
    ConstrainedAoi,
    Discipline,
    QueueSpec,
    SaturationEpsilon,
    avg_aoi,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
    constrained_aoi_mm1,
    optimal_utilization_mm1,
)

# Root of rho^4 - 2 rho^3 + rho^2 - 2 rho + 1 in (0, 1), solved offline with
# bisection to 1e-15; the age at that utilization follows by substitution.
OPT_RHO = 0.5310100564595692
AOI_AT_OPT = 3.484435331765857
LCFS = Discipline.LCFS_PREEMPTIVE


def fcfs(lam, mu=1.0):
    return QueueSpec(Discipline.FCFS_MM1, lam, mu)


def lcfs(lam, mu=1.0):
    return QueueSpec(Discipline.LCFS_PREEMPTIVE, lam, mu)


class TestSpecValidation:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(DomainError):
            QueueSpec(Discipline.FCFS_MM1, 0.0, 1.0)
        with pytest.raises(DomainError):
            QueueSpec(Discipline.FCFS_MM1, 1.0, -2.0)
        with pytest.raises(DomainError):
            QueueSpec(Discipline.FCFS_MM1, math.nan, 1.0)

    def test_rho(self):
        assert fcfs(0.25, 0.5).rho == 0.5

    def test_epsilon_window(self):
        assert SaturationEpsilon(1e-3).epsilon == 1e-3
        with pytest.raises(DomainError):
            SaturationEpsilon(0.0)
        with pytest.raises(DomainError):
            SaturationEpsilon(0.1)


class TestClosedForms:
    def test_mm1_spot_value(self):
        # (1/1) * (1 + 1/0.5 + 0.25/0.5) = 3.5
        assert avg_aoi_mm1(fcfs(0.5)) == 3.5

    def test_mm1_star_spot_value(self):
        assert avg_aoi_mm1_star(lcfs(1.0)) == 2.0

    def test_mm1_at_optimum(self):
        assert avg_aoi_mm1(fcfs(OPT_RHO)) == pytest.approx(AOI_AT_OPT, abs=1e-12)

    def test_mm1_needs_stability(self):
        with pytest.raises(DomainError):
            avg_aoi_mm1(fcfs(1.0))
        with pytest.raises(DomainError):
            avg_aoi_mm1(fcfs(1.3))

    def test_mm1_underflowing_rho_is_unbounded(self):
        # A subnormal rate far below mu makes rho underflow to 0.
        assert avg_aoi_mm1(fcfs(5e-324, 8333.0)) == math.inf

    @pytest.mark.parametrize("rho", [0.3, 1.5])
    @pytest.mark.parametrize("mode", ["exact", "paper"])
    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_avg_aoi_is_the_formula_it_dispatches_to(self, discipline, mode, rho):
        # Paper-mode LCFS is 2/lam; FCFS is the same in both modes.
        lam, mu = rho * 2.0, 2.0
        # The frozen copies: avg_aoi_mm1 and avg_aoi_mm1_star now call avg_aoi.
        if discipline is LCFS:
            formula = (lambda: 2.0 / lam) if mode == "paper" else (
                lambda: ref.avg_aoi_mm1_star(ref.QueueSpec(LCFS, lam, mu)))
        else:
            formula = lambda: ref.avg_aoi_mm1(ref.QueueSpec(discipline, lam, mu))

        def outcome(f):
            try:
                return f()
            except DomainError as exc:
                return f"DomainError: {exc}"

        expected = outcome(formula)
        assert outcome(lambda: avg_aoi(discipline, lam, mu, mode)) == expected
        assert isinstance(expected, str) == (discipline is not LCFS and rho > 1)

    def test_mm1_star_finite_past_saturation(self):
        assert avg_aoi_mm1_star(lcfs(3.0)) == pytest.approx(1 + 1 / 3, rel=1e-15)

    @given(rho=st.floats(0.01, 0.98), mu=st.floats(1e-3, 1e3),
           c=st.floats(1e-3, 1e3))
    def test_scale_invariance(self, rho, mu, c):
        # AoI carries units of time: scaling both rates by c divides it by c.
        base = avg_aoi_mm1(fcfs(rho * mu, mu))
        scaled = avg_aoi_mm1(fcfs(rho * mu * c, mu * c))
        assert scaled * c == pytest.approx(base, rel=1e-12)
        base = avg_aoi_mm1_star(lcfs(rho * mu, mu))
        scaled = avg_aoi_mm1_star(lcfs(rho * mu * c, mu * c))
        assert scaled * c == pytest.approx(base, rel=1e-12)

    @given(rho=st.floats(0.01, 0.99), mu=st.floats(1e-3, 1e3))
    def test_preemption_never_hurts(self, rho, mu):
        # Eq-by-eq difference is rho^2 / (mu (1 - rho)) >= 0.
        spec_f = fcfs(rho * mu, mu)
        spec_l = lcfs(rho * mu, mu)
        assert avg_aoi_mm1(spec_f) >= avg_aoi_mm1_star(spec_l) - 1e-12


class TestOptimalUtilization:
    def test_root_value(self):
        assert optimal_utilization_mm1() == pytest.approx(OPT_RHO, abs=1e-12)

    def test_quartic_residual(self):
        r = optimal_utilization_mm1()
        residual = r**4 - 2 * r**3 + r**2 - 2 * r + 1
        assert abs(residual) < 1e-12

    def test_closed_form_is_the_correctly_rounded_root(self):
        # The bisection-and-Newton solver it replaced gave these bits too.
        assert optimal_utilization_mm1().hex() == "0x1.0fe08cd4ae92cp-1"

    @given(rho=st.floats(0.005, 0.995))
    def test_root_is_the_argmin(self, rho):
        best = avg_aoi_mm1(fcfs(optimal_utilization_mm1()))
        assert avg_aoi_mm1(fcfs(rho)) >= best - 1e-12

    @given(pair=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)))
    def test_unimodal_sides(self, pair):
        # Strictly decreasing left of the optimum, increasing right of it.
        lo, hi = sorted(pair)
        if lo == hi:
            return
        opt = optimal_utilization_mm1()
        if hi <= opt:
            assert avg_aoi_mm1(fcfs(lo)) > avg_aoi_mm1(fcfs(hi))
        elif lo >= opt:
            assert avg_aoi_mm1(fcfs(lo)) < avg_aoi_mm1(fcfs(hi))


class TestConstrainedFcfs:
    def test_slack_branch(self):
        res = constrained_aoi_mm1(1.0, 10.0)
        assert not res.binding
        assert res.lambda_used == pytest.approx(OPT_RHO, abs=1e-12)
        assert res.aoi == pytest.approx(AOI_AT_OPT, abs=1e-12)

    def test_binding_branch(self):
        # Eq. at rho = 0.2: 1 + 5 + 0.04/0.8 = 6.05
        res = constrained_aoi_mm1(1.0, 0.2)
        assert res.binding
        assert res.lambda_used == 0.2
        assert res.aoi == pytest.approx(6.05, abs=1e-12)

    def test_tie_is_slack(self):
        bound = optimal_utilization_mm1() * 2.0
        res = constrained_aoi_mm1(2.0, bound)
        assert not res.binding
        assert res.lambda_used == bound

    def test_infinite_bound_is_slack(self):
        assert not constrained_aoi_mm1(1.0, math.inf).binding

    @given(mu=st.floats(0.01, 1e3), frac=st.floats(0.01, 0.99))
    def test_binding_always_below_optimum_rate(self, mu, frac):
        bound = frac * optimal_utilization_mm1() * mu
        res = constrained_aoi_mm1(mu, bound)
        assert res.binding
        assert res.lambda_used == bound
        # Constraining can only cost age.
        assert res.aoi >= constrained_aoi_mm1(mu, math.inf).aoi - 1e-12

    @given(mu=st.floats(0.01, 1e3),
           pair=st.tuples(st.floats(0.01, 0.95), st.floats(0.01, 0.95)))
    @example(mu=411.0, pair=(0.010000000000000002, 0.01))
    def test_monotone_in_bound(self, mu, pair):
        lo, hi = sorted(pair)
        # Near rho = 0.5 the age moves about 0.1x as much as the bound, in
        # relative terms, so bounds a few ulps apart can round to one age.
        # A relative gap of 1e-9 moves the age by about 1e5 ulps.
        assume(hi - lo > 1e-9 * hi)
        a_lo = constrained_aoi_mm1(mu, lo * optimal_utilization_mm1() * mu).aoi
        a_hi = constrained_aoi_mm1(mu, hi * optimal_utilization_mm1() * mu).aoi
        assert a_lo > a_hi

    def test_paper_and_exact_agree_for_fcfs(self):
        # Paper mode only approximates the preemptive age; FCFS has no
        # saturation knob, so the optimizer's two modes coincide for it.
        for bound in (0.1, 0.4, 5.0):
            assert _pick_rate(Discipline.FCFS_MM1, 1.0, bound, "paper", DEFAULT_EPS, "fixed") \
                == _pick_rate(Discipline.FCFS_MM1, 1.0, bound, "exact", DEFAULT_EPS, "fixed")

    def test_unknown_mode_rejected(self):
        # The optimizer, which owns the paper/exact choice, validates it in
        # each solver before it picks a rate.
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0, snr_min=10.0)
        profile = CiProfile.constant(198.0, 3600.0)
        for disc in (Discipline.FCFS_MM1, Discipline.LCFS_PREEMPTIVE):
            with pytest.raises(DomainError, match="mode"):
                solve_cf_constrained(1.0, c, profile, EnergyModel(), disc, "fast")
            with pytest.raises(DomainError, match="mode"):
                solve_power_constrained(c, 198.0, EnergyModel(), disc, "fast")
            with pytest.raises(DomainError, match="mode"):
                solve_qos_constrained(c, 198.0, EnergyModel(), disc, "fast")


def result(f, *args):
    """The bits of each float f returns (a float, a ConstrainedAoi's fields or
    a tuple), or the type and message of what f raises."""
    try:
        value = f(*args)
    except (DomainError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(value, ConstrainedAoi):
        value = (value.aoi, value.lambda_used, value.binding)
    return tuple(struct.pack("<d", v) if type(v) is float else v
                 for v in (value if isinstance(value, tuple) else (value,)))


# 0, negatives, NaN and +-inf; 5e-324 over a rate of 2 or more underflows rho to 0.
ODD_RATES = [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan, 5e-324, 1e-300, 1.0, 2.0,
             1e300]
RATES = st.one_of(st.sampled_from(ODD_RATES), st.floats(), st.floats(1e-3, 1e3))


class TestFrozenAgePath:
    """avg_aoi, and the functions that now go through it, against the frozen
    copy in optimizer_reference of the path that built a QueueSpec per call:
    the same bits, or the same exception type and message."""

    @settings(max_examples=400)
    @given(discipline=st.sampled_from(list(Discipline)), lam=RATES, mu=RATES,
           mode=st.sampled_from(["exact", "paper", "papr"]))
    @example(discipline=Discipline.FCFS_MM1, lam=5e-324, mu=8333.0, mode="exact")
    @example(discipline=Discipline.FCFS_MM1, lam=1.5, mu=1.0, mode="paper")
    @example(discipline=LCFS, lam=0.0, mu=1.0, mode="paper")
    @example(discipline=LCFS, lam=3.0, mu=math.nan, mode="paper")
    @example(discipline=LCFS, lam=3.0, mu=1.0, mode="exact")
    def test_avg_aoi_is_the_frozen_path(self, discipline, lam, mu, mode):
        want = result(ref.avg_aoi, discipline, lam, mu, mode)
        assert result(avg_aoi, discipline, lam, mu, mode) == want
        try:
            spec = QueueSpec(discipline, lam, mu)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                ref.QueueSpec(discipline, lam, mu)
            return
        frozen_spec = ref.QueueSpec(discipline, lam, mu)
        assert result(avg_aoi_mm1, spec) == result(ref.avg_aoi_mm1, frozen_spec)
        assert result(avg_aoi_mm1_star, spec) == result(ref.avg_aoi_mm1_star, frozen_spec)

    @given(mu=RATES, bound=RATES)
    @example(mu=8333.0, bound=5e-324)
    def test_constrained_aoi_mm1_is_the_frozen_path(self, mu, bound):
        assert result(constrained_aoi_mm1, mu, bound) == \
            result(ref.constrained_aoi_mm1, mu, bound)

    def test_opt_rho_is_the_root_function(self):
        assert OPT_RHO_MM1.hex() == optimal_utilization_mm1().hex()


class TestConstrainedLcfs:
    """Preemptive LCFS under a rate cap, which optimizer._pick_rate solves.

    Without the cap the sender runs at (1 - eps) * mu; the cap binds only
    when it is strictly lower.
    """

    def test_binding_paper_mode(self):
        lam, mu, aoi, binding = _pick_rate(LCFS, 10.0, 5.0, "paper", DEFAULT_EPS, "fixed")
        assert binding
        assert (lam, mu) == (5.0, 10.0)
        assert aoi == pytest.approx(2 / 5.0, rel=1e-15)

    def test_binding_exact_mode_resaturates(self):
        # Under track_opt_rho mu re-tightens to lambda/(1-eps) at the
        # power-cap bound of 5/s: aoi = (1-eps)/5 + 1/5.
        energy = EnergyModel()
        ci, tn = 200.0, 3600.0
        budget = 5.0 * ci * (1.0 * energy.t_p / J_PER_KWH) * tn
        c = ConstraintSet(budget_k=budget, horizon_tn=tn, power_cap=1.0)
        res = solve_power_constrained(c, ci, energy, LCFS, mode="exact",
                                      mu_rule="track_opt_rho",
                                      eps=SaturationEpsilon(1e-3))
        assert res.binding_constraint is BindingConstraint.POWER
        assert res.lambda_star == res.lambda_bound == pytest.approx(5.0, rel=1e-12)
        assert res.aoi == pytest.approx((1 - 1e-3) / 5.0 + 1 / 5.0, rel=1e-12)

    def test_slack_branch(self):
        lam, mu, aoi, binding = _pick_rate(LCFS, 2.0, 100.0, "paper", DEFAULT_EPS, "fixed")
        assert not binding
        assert (lam, mu) == ((1 - DEFAULT_EPS.epsilon) * 2.0, 2.0)
        assert aoi == pytest.approx(2 / lam, rel=1e-12)

    def test_tie_is_slack(self):
        free = (1 - DEFAULT_EPS.epsilon) * 3.0
        assert not _pick_rate(LCFS, 3.0, free, "paper", DEFAULT_EPS, "fixed")[3]

    @given(mu=st.floats(0.01, 1e3), frac=st.floats(0.01, 0.99))
    def test_paper_mode_inverse_in_bound(self, mu, frac):
        bound = frac * (1 - DEFAULT_EPS.epsilon) * mu
        lam, _, aoi, binding = _pick_rate(LCFS, mu, bound, "paper", DEFAULT_EPS, "fixed")
        assert binding
        assert aoi * bound == pytest.approx(2.0, rel=1e-12)
