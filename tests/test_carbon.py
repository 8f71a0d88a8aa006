import math
import tracemalloc
from bisect import bisect_right
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from dessim_reference import _ProfileArrays
from hypothesis import example, given
from hypothesis import strategies as st

from caoi.carbon import (
    J_PER_KWH,
    _power_steps,
    CarbonLedger,
    CiProfile,
    ConstraintSet,
    EnergyModel,
    avg_cf,
    cumulative_cf,
    joules_to_kwh,
    lambda_kappa,
    lambda_p_max,
    lambda_qos_max,
    min_rate_for_snr,
    slot_grid,
)
from caoi.errors import DomainError, MissingConstraint, ValidationError

TWO_STEP = CiProfile(((0.0, 100.0), (1800.0, 300.0)), 3600.0)


def xi_integral(profile, a, b):
    """Integral of xi over [a, b] in g*s/kWh, from cumulative_cf.

    J_PER_KWH watts drawn over [a, b) emit, in grams, the g*s/kWh integral.
    """
    steps = dict(((0.0, 0.0), (a, J_PER_KWH), (b, 0.0)))
    return cumulative_cf(profile, tuple(steps.items()), profile.horizon)


def const_profile(value, horizon=12 * 30 * 86400.0):
    return CiProfile.constant(value, horizon)


class TestUnits:
    def test_boundary_constant(self):
        assert J_PER_KWH == 3.6e6

    def test_known_conversion(self):
        assert joules_to_kwh(3.6e6) == 1.0


class TestCiProfile:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            CiProfile((), 10.0)
        with pytest.raises(ValidationError):
            CiProfile(((5.0, 100.0),), 10.0)       # must start at 0
        with pytest.raises(ValidationError):
            CiProfile(((0.0, 100.0), (0.0, 50.0)), 10.0)
        with pytest.raises(ValidationError):
            CiProfile(((0.0, 100.0), (20.0, 50.0)), 10.0)
        with pytest.raises(ValidationError):
            CiProfile(((0.0, -1.0),), 10.0)

    def test_step_lookup(self):
        assert TWO_STEP.value_at(0.0) == 100.0
        assert TWO_STEP.value_at(1799.999) == 100.0
        assert TWO_STEP.value_at(1800.0) == 300.0
        assert TWO_STEP.value_at(3600.0) == 300.0
        # Past the horizon the final step extends.
        assert TWO_STEP.value_at(1e9) == 300.0

    @pytest.mark.parametrize("tau", [-1.0, -math.inf, math.nan])
    def test_value_at_refuses_a_time_that_is_not_non_negative(self, tau):
        # NaN once took the final step's value.
        with pytest.raises(DomainError, match=f"^time must be non-negative, got {tau}$"):
            TWO_STEP.value_at(tau)

    def test_constant_factory(self):
        p = CiProfile.constant(42.0, 100.0)
        assert p.values == (42.0,)
        assert p.long_term_average == 42.0

    def test_duration_weighted_average(self):
        p = CiProfile(((0.0, 100.0), (3000.0, 400.0)), 4000.0)
        # 100 for 3000 s, 400 for 1000 s.
        assert p.long_term_average == pytest.approx(175.0, rel=1e-15)

    def test_integrate_pieces(self):
        assert xi_integral(TWO_STEP, 0.0, 1800.0) == pytest.approx(180000.0)
        assert xi_integral(TWO_STEP, 0.0, 2700.0) == pytest.approx(180000.0 + 270000.0)
        assert xi_integral(TWO_STEP, 900.0, 900.0) == 0.0

    @given(a=st.floats(0, 3600), b=st.floats(0, 3600), c=st.floats(0, 3600))
    def test_integrate_additive(self, a, b, c):
        x, y, z = sorted((a, b, c))
        whole = xi_integral(TWO_STEP, x, z)
        split = xi_integral(TWO_STEP, x, y) + xi_integral(TWO_STEP, y, z)
        assert whole == pytest.approx(split, rel=1e-12, abs=1e-9)


class TestCumulativeCf:
    def test_two_step_hand_integral(self):
        # (100*1800 + 300*1800) J-weighted grams / 3.6e6 = 0.2 g
        assert cumulative_cf(TWO_STEP, 1.0, 3600.0) == 0.2

    def test_partial_windows(self):
        assert cumulative_cf(TWO_STEP, 1.0, 1800.0) == pytest.approx(0.05, rel=1e-15)
        assert cumulative_cf(TWO_STEP, 1.0, 2700.0) == pytest.approx(0.125, rel=1e-15)

    def test_power_scales(self):
        assert cumulative_cf(TWO_STEP, 3.0, 3600.0) == pytest.approx(0.6, rel=1e-12)

    @pytest.mark.parametrize("power", [np.int64(3), np.float32(3.0), np.float64(3.0),
                                       np.uint8(3), np.float16(3.0)])
    def test_numpy_scalar_power_is_a_constant(self, power):
        # Once np.int64 and np.float32 raised TypeError: not iterable.
        assert cumulative_cf(TWO_STEP, power, 3600.0) == cumulative_cf(TWO_STEP, 3.0, 3600.0)

    @pytest.mark.parametrize("power", [np.int64(0), np.float32(-1.0), np.float64(math.nan)])
    def test_numpy_scalar_power_must_be_positive(self, power):
        with pytest.raises(DomainError, match="^power must be positive, got "):
            cumulative_cf(TWO_STEP, power, 3600.0)

    def test_upto_domain(self):
        with pytest.raises(DomainError):
            cumulative_cf(TWO_STEP, 1.0, 0.0)
        with pytest.raises(DomainError):
            cumulative_cf(TWO_STEP, 1.0, 3600.1)

    @given(upto=st.floats(1.0, 3600.0))
    def test_monotone_in_time(self, upto):
        assert cumulative_cf(TWO_STEP, 1.0, upto) <= cumulative_cf(TWO_STEP, 1.0, 3600.0)


class TestEnergyModel:
    def test_defaults(self, energy):
        assert energy.t_p == pytest.approx(12000.0 / 1e8, rel=1e-15)
        assert energy.e_p() == pytest.approx(1.2e-4, rel=1e-15)
        assert energy.e_p_kwh() == pytest.approx(1.2e-4 / 3.6e6, rel=1e-15)

    def test_transmit_power_capped(self):
        with pytest.raises(ValidationError):
            EnergyModel(p_t=2.0, p_max=1.0)

    @given(mtu=st.floats(1.0, 1e6), rate=st.floats(1.0, 1e12))
    def test_t_p_follows_rate(self, mtu, rate):
        energy = EnergyModel(mtu=mtu, rate=rate)
        assert energy.t_p == mtu / rate
        assert energy.e_p() == energy.p_t * (mtu / rate)
        with pytest.raises(TypeError):
            EnergyModel(t_p=1.2e-4)         # derived, not a field
        with pytest.raises(ValidationError, match="t_p must be positive"):
            EnergyModel(mtu=1e-300, rate=1e300)


class TestSlotCount:
    # A count of 0 is a slot that does not tile the horizon.
    @pytest.mark.parametrize("horizon, slot, count", [
        (100.0, 1.0, 100), (0.7, 0.7 / 3, 3), (100.0, 100.0, 1), (1.0, 3e-8, 0),
        (100.0, 7.5, 0), (100.0, math.nextafter(100.0, math.inf), 0), (100.0, 0.0, 0),
        (100.0, -1.0, 0), (100.0, math.nan, 0), (100.0, math.inf, 0), (100.0, 1e-320, 0),
    ])
    def test_count(self, horizon, slot, count):
        if count:
            assert slot_grid(horizon, slot, DomainError) == count
        else:
            with pytest.raises(DomainError, match=f"^slot length {slot} does not tile "
                                                  f"horizon {horizon}$"):
                slot_grid(horizon, slot, DomainError)

    def test_over_the_cap(self):
        assert slot_grid(1e7, 1.0, DomainError) == 10**7
        with pytest.raises(ValidationError, match=r"^1e\+07 slots exceed the cap of 10000000; "
                                                  "use a longer slot$"):
            slot_grid(1e7 + 1, 1.0, ValidationError)


class TestConstraintSet:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ConstraintSet(budget_k=-1.0, horizon_tn=3600.0)
        with pytest.raises(ValidationError):
            ConstraintSet(budget_k=1.0, horizon_tn=0.0)
        with pytest.raises(ValidationError):
            ConstraintSet(budget_k=1.0, horizon_tn=3600.0, success_prob_a=1.5)
        with pytest.raises(ValidationError):
            ConstraintSet(budget_k=1.0, horizon_tn=3600.0, snr_min=0.0)


class TestRateBounds:
    def test_lambda_kappa_reference_point(self, energy):
        c = ConstraintSet(budget_k=0.05, horizon_tn=3600.0)
        got = lambda_kappa(c, const_profile(198.0), energy)
        oracle = 0.05 / (198.0 * (1.2e-4 / 3.6e6) * 3600.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(2104.38, abs=0.05)

    def test_lambda_kappa_second_point(self, energy):
        c = ConstraintSet(budget_k=0.01, horizon_tn=3600.0)
        got = lambda_kappa(c, const_profile(198.0), energy)
        assert got == pytest.approx(420.8754208754209, rel=1e-12)

    def test_lambda_kappa_zero_success_probability(self, energy):
        c = ConstraintSet(budget_k=0.05, horizon_tn=3600.0, success_prob_a=0.0)
        assert lambda_kappa(c, const_profile(198.0), energy) == math.inf

    def test_lambda_p_max_reference_points(self, energy):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
        lo = lambda_p_max(c, 108.0, energy)
        hi = lambda_p_max(c, 308.0, energy)
        assert lo == pytest.approx(5e-4 / (108.0 * (1.2e-4 / 3.6e6) * 3600.0), rel=1e-12)
        assert lo == pytest.approx(38.58, abs=0.05)
        assert hi == pytest.approx(13.53, abs=0.02)
        assert hi / lo == pytest.approx(108.0 / 308.0, rel=1e-12)

    def test_lambda_p_max_refuses_an_energy_that_underflows(self, energy):
        # 5e-324 W for t_p seconds is 0 kWh: the cap once divided by zero.
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=5e-324)
        with pytest.raises(DomainError, match="energy per packet"):
            lambda_p_max(c, 108.0, energy)

    def test_caps_refuse_a_denominator_that_underflows(self, energy):
        # Every factor is positive, but xi * E * t_N (times a) rounds to 0.
        for tn, a in ((5e-324, 1.0), (3600.0, 5e-324)):
            c = ConstraintSet(budget_k=5e-4, horizon_tn=tn, success_prob_a=a)
            with pytest.raises(DomainError, match="underflows to 0"):
                lambda_kappa(c, const_profile(198.0), energy)
        c = ConstraintSet(budget_k=5e-4, horizon_tn=5e-324, power_cap=1e-3, snr_min=2.0)
        with pytest.raises(DomainError, match="underflows to 0"):
            lambda_p_max(c, 108.0, energy)
        with pytest.raises(DomainError, match="underflows to 0"):
            lambda_qos_max(c, 108.0, energy)

    def test_lambda_p_max_needs_cap(self, energy):
        c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0)
        with pytest.raises(MissingConstraint):
            lambda_p_max(c, 108.0, energy)

    def test_lambda_qos_reference_point(self, energy):
        snr = 3.1623
        c = ConstraintSet(budget_k=0.05, horizon_tn=3600.0, snr_min=snr)
        got = lambda_qos_max(c, 198.0, energy, t_p_override=1.2e-4)
        p_min = snr * 1e-4 / 1.0
        oracle = 0.05 / (198.0 * (p_min * 1.2e-4 / 3.6e6) * 3600.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(6.6547e6, abs=1e3)

    def test_lambda_qos_needs_floor(self, energy):
        c = ConstraintSet(budget_k=0.05, horizon_tn=3600.0)
        with pytest.raises(MissingConstraint):
            lambda_qos_max(c, 198.0, energy)

    @given(k=st.floats(1e-6, 10.0), scale=st.floats(0.1, 10.0))
    def test_bounds_linear_in_budget(self, energy, k, scale):
        c1 = ConstraintSet(budget_k=k, horizon_tn=3600.0, power_cap=1.0, snr_min=2.0)
        c2 = ConstraintSet(budget_k=k * scale, horizon_tn=3600.0, power_cap=1.0,
                           snr_min=2.0)
        prof = const_profile(150.0)
        assert lambda_kappa(c2, prof, energy) == \
            pytest.approx(scale * lambda_kappa(c1, prof, energy), rel=1e-9)
        assert lambda_p_max(c2, 150.0, energy) == \
            pytest.approx(scale * lambda_p_max(c1, 150.0, energy), rel=1e-9)
        assert lambda_qos_max(c2, 150.0, energy) == \
            pytest.approx(scale * lambda_qos_max(c1, 150.0, energy), rel=1e-9)

    @given(ci=st.floats(10.0, 1000.0), scale=st.floats(0.1, 10.0))
    def test_bounds_inverse_in_ci(self, energy, ci, scale):
        c = ConstraintSet(budget_k=0.05, horizon_tn=3600.0, power_cap=1.0, snr_min=2.0)
        assert lambda_kappa(c, const_profile(ci * scale), energy) * scale == \
            pytest.approx(lambda_kappa(c, const_profile(ci), energy), rel=1e-9)
        assert lambda_p_max(c, ci * scale, energy) * scale == \
            pytest.approx(lambda_p_max(c, ci, energy), rel=1e-9)

    @given(snr=st.floats(0.1, 100.0), scale=st.floats(0.1, 10.0))
    def test_qos_bound_inverse_in_snr_at_fixed_tp(self, energy, snr, scale):
        c1 = ConstraintSet(budget_k=0.05, horizon_tn=3600.0, snr_min=snr)
        c2 = ConstraintSet(budget_k=0.05, horizon_tn=3600.0, snr_min=snr * scale)
        b1 = lambda_qos_max(c1, 198.0, energy, t_p_override=1.2e-4)
        b2 = lambda_qos_max(c2, 198.0, energy, t_p_override=1.2e-4)
        assert b2 * scale == pytest.approx(b1, rel=1e-9)


class TestLinkBudget:
    def test_min_rate_reference_point(self, energy):
        link = min_rate_for_snr(energy, 3.1623)
        assert link.rate_min == pytest.approx(1e6 * math.log2(1 + 3.1623), rel=1e-12)
        assert link.rate_min == pytest.approx(2.0574e6, abs=1e2)
        assert link.p_t_min == pytest.approx(3.1623e-4, rel=1e-12)
        assert link.t_p == pytest.approx(12000.0 / link.rate_min, rel=1e-12)

    def test_zero_db_service_rate(self, energy):
        link = min_rate_for_snr(energy, 1.0)
        assert 1.0 / link.t_p == pytest.approx(83.333, abs=0.01)

    @given(snr=st.floats(0.01, 1e4))
    def test_rate_monotone_in_snr(self, energy, snr):
        assert min_rate_for_snr(energy, snr * 2).rate_min > \
            min_rate_for_snr(energy, snr).rate_min

    def test_floor_that_rounds_away_is_rejected(self, energy):
        # 1 + 1e-17 rounds to 1, so the Shannon rate would be 0.
        with pytest.raises(DomainError, match="too small"):
            min_rate_for_snr(energy, 1e-17)
        assert min_rate_for_snr(energy, 1e-15).rate_min > 0


class TestAvgCf:
    def test_oracle_value(self, energy):
        c = ConstraintSet(budget_k=1.0, horizon_tn=3600.0, success_prob_a=0.9)
        got = avg_cf(const_profile(198.0), energy, 100.0, c)
        assert got == pytest.approx(198.0 * (1.2e-4 / 3.6e6) * 0.9 * 100.0 * 3600.0,
                                    rel=1e-12)

    @given(lam=st.floats(1e-3, 1e4), scale=st.floats(0.1, 10.0))
    def test_linear_in_rate(self, energy, lam, scale):
        c = ConstraintSet(budget_k=1.0, horizon_tn=3600.0)
        prof = const_profile(198.0)
        assert avg_cf(prof, energy, lam * scale, c) == \
            pytest.approx(scale * avg_cf(prof, energy, lam, c), rel=1e-12)


class TestCarbonLedger:
    def test_validation(self):
        assert CarbonLedger([]).total == 0.0
        assert CarbonLedger([-0.0]).total.hex() == (-0.0).hex()     # as np.cumsum sums it
        for bad in (-0.1, -math.inf, math.nan):
            with pytest.raises(ValidationError):
                CarbonLedger([bad])

    @given(st.lists(st.floats(0.0, 1e6), max_size=50))
    def test_total_is_the_float_sum(self, grams):
        led = CarbonLedger(grams)
        acc = 0.0
        for g in grams:
            acc += g
        assert type(led.total) is float
        assert led.total == acc
        assert len(led) == len(grams)
        assert led.grams.dtype == np.float64

    def test_entries_are_read_only_copies(self):
        grams = np.array([0.1, 0.2])
        led = CarbonLedger(grams)
        grams[0] = 5.0
        assert led.total == 0.1 + 0.2
        assert led.grams.tolist() == [0.1, 0.2]
        with pytest.raises(ValueError):
            led.grams[0] = 5.0

    def test_a_read_only_float64_array_is_kept(self):
        # run hands over its slot grams read-only, so they are not copied.
        grams = np.array([0.1, 0.2])
        grams.flags.writeable = False
        assert CarbonLedger(grams).grams is grams
        # A read-only view of a writeable array could change under the total.
        view = np.array([0.1, 0.2])[:]
        view.flags.writeable = False
        for other in (view, np.array([0.1, 0.2]), np.array([1, 2]), [0.1, 0.2]):
            led = CarbonLedger(other)
            assert led.grams is not other and not led.grams.flags.writeable

    @pytest.mark.parametrize("n", [0, 1, 5, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 10 ** 6 + 3])
    def test_total_is_one_cumsum_bit_for_bit(self, n):
        # The total is summed a block of 2**16 at a time; the blocks' seams
        # must not change one addition.  The values span 10 decades.
        grams = 10.0 ** np.random.default_rng(n).uniform(-5.0, 5.0, n)
        expected = float(np.cumsum(grams)[-1]) if n else 0.0
        assert CarbonLedger(grams).total.hex() == expected.hex()

    def test_total_builds_no_full_length_temporary(self):
        # The ledger keeps an 8 MB copy of 10**6 entries; one full-length
        # cumsum for the total took the peak to 17 MB.
        grams = np.ones(10 ** 6)
        tracemalloc.start()
        try:
            led = CarbonLedger(grams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert led.total == 1e6
        assert peak <= 10e6

    def test_first_bad_entry_is_reported(self):
        with pytest.raises(ValidationError, match="non-negative, got -0.5"):
            CarbonLedger([0.1, -0.5, -0.1])
        # NaN fails the comparison, so it is refused as well.
        with pytest.raises(ValidationError, match="non-negative, got nan"):
            CarbonLedger([0.1, math.nan, -0.1])


@st.composite
def step_profiles(draw, max_steps=50):
    """A profile of 1..max_steps steps, with starts anywhere in [0, horizon)."""
    horizon = draw(st.floats(1e-3, 1e9))
    inner = draw(st.lists(st.floats(0.0, horizon, exclude_min=True, exclude_max=True),
                          max_size=max_steps - 1, unique=True))
    starts = [0.0] + sorted(inner)
    values = draw(st.lists(st.floats(1e-3, 1e6), min_size=len(starts),
                           max_size=len(starts)))
    return CiProfile(tuple(zip(starts, values)), horizon)


@st.composite
def profile_and_times(draw):
    """A profile with query times on its starts, inside it and past the horizon."""
    prof = draw(step_profiles())
    h = prof.horizon
    times = list(prof.starts) + [h, 2 * h, 1e6 * h]
    times += draw(st.lists(st.floats(0.0, 3 * h), max_size=20))
    return prof, np.array(times)


def parent_mean(profile):
    """The duration-weighted mean as a left-to-right float sum, step by step."""
    total = 0.0
    ends = profile.starts[1:] + (profile.horizon,)
    for start, end, value in zip(profile.starts, ends, profile.values):
        total += value * (end - start)
    return total / profile.horizon


def parent_cumulative_cf(profile, steps, upto):
    """cumulative_cf as a per-segment loop over the merged breakpoints."""
    power_starts = tuple(t for t, _ in steps)
    breakpoints = sorted({0.0, upto, *(t for t in profile.starts if t < upto),
                          *(t for t in power_starts if t < upto)})
    total = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        xi = profile.values[bisect_right(profile.starts, lo) - 1]
        watts = steps[bisect_right(power_starts, lo) - 1][1]
        total += xi * joules_to_kwh(watts * (hi - lo))
    return total


class TestStepCore:
    """CiProfile's arrays against scalar lookups and the former loops, bit for bit."""

    @given(profile_and_times())
    def test_values_at_is_value_at(self, case):
        prof, times = case
        got = prof.values_at(times)
        assert got.dtype == np.float64
        assert got.tolist() == [prof.value_at(t) for t in times.tolist()]
        assert got.tolist() == [prof.values[bisect_right(prof.starts, t) - 1]
                                for t in times.tolist()]
        assert type(prof.value_at(times[-1])) is float

    @given(profile_and_times())
    def test_integral_to_is_the_reference_copy(self, case):
        prof, times = case
        assert np.array_equal(prof.integral_to(times),
                              _ProfileArrays(prof).integral_to(times))

    @given(step_profiles())
    def test_mean_is_the_step_sum(self, prof):
        assert prof.long_term_average == parent_mean(prof)
        assert prof.long_term_average * prof.horizon == \
            pytest.approx(float(prof.integral_to(prof.horizon)), rel=1e-12)

    def test_overflowing_mean_is_inf_without_warning(self):
        prof = CiProfile(((0.0, 1e308), (1.0, 1e308)), 10.0)
        assert prof.long_term_average == math.inf

    @given(data=st.data(), prof=step_profiles(max_steps=20))
    def test_cumulative_cf_is_the_segment_loop(self, data, prof):
        h = prof.horizon
        inner = data.draw(st.lists(st.floats(0.0, 1.5 * h, exclude_min=True),
                                   max_size=20, unique=True))
        starts = [0.0] + sorted(inner)
        watts = data.draw(st.lists(st.floats(0.0, 1e3), min_size=len(starts),
                                   max_size=len(starts)))
        steps = tuple(zip(starts, watts))
        on_breakpoint = [t for t in prof.starts + tuple(starts) if 0 < t <= h] + [h]
        upto = data.draw(st.one_of(st.sampled_from(on_breakpoint),
                                   st.floats(0.0, h, exclude_min=True)))
        assert cumulative_cf(prof, steps, upto) == parent_cumulative_cf(prof, steps, upto)
        constant = data.draw(st.floats(1e-3, 1e3))
        assert cumulative_cf(prof, constant, upto) == \
            parent_cumulative_cf(prof, ((0.0, constant),), upto)
        assert type(cumulative_cf(prof, constant, upto)) is float


def loop_profile(samples, horizon):
    """CiProfile's checks and arrays as the per-sample loop computed them.

    Returns (samples, prefix), or raises what the loop raised.
    """
    samples = tuple((float(t), float(v)) for t, v in samples)
    if not samples:
        raise ValidationError("a profile needs at least one sample")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValidationError(f"horizon must be positive, got {horizon}")
    if samples[0][0] != 0.0:
        raise ValidationError(f"first step must start at 0, got {samples[0][0]}")
    prev = -math.inf
    for start, value in samples:
        if start <= prev:
            raise ValidationError(f"step starts must increase, got {start} after {prev}")
        if start >= horizon:
            raise ValidationError(f"step start {start} is not inside the horizon")
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"carbon intensity must be positive, got {value}")
        prev = start
    starts, values = zip(*samples)
    t, xi = np.array(starts), np.array(values)
    prefix = np.zeros(len(samples) + 1)
    with np.errstate(over="ignore"):
        np.cumsum(xi * (np.array(starts[1:] + (horizon,)) - t), out=prefix[1:])
    return samples, prefix


def loop_power_steps(power) -> tuple:
    """_power_steps as the per-step loop computed it."""
    if isinstance(power, (int, float)):
        if not power > 0:
            raise DomainError(f"power must be positive, got {power}")
        return ((0.0, float(power)),)
    steps = tuple((float(t), float(p)) for t, p in power)
    if not steps or steps[0][0] != 0.0:
        raise DomainError("power steps must start at 0")
    prev = -math.inf
    for t, p in steps:
        if t <= prev:
            raise DomainError("power step starts must increase")
        if p < 0:
            raise DomainError(f"power must be non-negative, got {p}")
        prev = t
    return steps


def outcome(f, *args):
    """(True, result) or (False, (exception type, message))."""
    try:
        return True, f(*args)
    except (ValueError, TypeError) as exc:
        return False, (type(exc), str(exc))


CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda rows: (row for row in rows),
    "ndarray": lambda rows: np.array(rows, dtype=np.float64),
}


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# A few start and value candidates, so that draws repeat and reorder starts,
# hit the horizon and cross zero.
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0, -3.0, 1e-300]),
                   st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def finite_steps(draw):
    """(horizon, rows): finite (start, value) rows of a profile, often with
    up to two entries replaced, an empty list, or a bad horizon."""
    horizon = draw(st.one_of(st.sampled_from([1.0, 3600.0]), st.floats(1e-3, 1e7)))
    inner = draw(st.lists(st.floats(0.0, horizon, exclude_min=True, exclude_max=True),
                          max_size=7, unique=True))
    starts = [0.0] + sorted(inner)
    values = draw(st.lists(st.floats(1e-3, 1e6), min_size=len(starts), max_size=len(starts)))
    rows = [[t, v] for t, v in zip(starts, values)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, 1))] = draw(
            st.one_of(FINITE, st.sampled_from([horizon, rows[i - 1][0]])))
    if draw(st.integers(0, 9)) == 9:
        rows = []
    if draw(st.integers(0, 9)) == 9:
        horizon = draw(FINITE)
    return horizon, [tuple(row) for row in rows]


class TestArrayChecks:
    """The float64 array checks of CiProfile and _power_steps against their loops."""

    @given(case=finite_steps(), kind=st.sampled_from(sorted(CONTAINERS)))
    @example(case=(10.0, [(0.0, 1.0), (10.0, 2.0)]), kind="tuple")
    def test_profile_is_the_loop(self, case, kind):
        horizon, rows = case
        make = CONTAINERS[kind]
        ok, want = outcome(loop_profile, make(rows), horizon)
        got_ok, got = outcome(CiProfile, make(rows), horizon)
        assert got_ok == ok
        if not ok:
            assert got == want
            return
        samples, prefix = want
        assert got.samples == samples
        assert all(type(x) is float for pair in got.samples for x in pair)
        assert got.starts == tuple(t for t, _ in samples)
        assert got.values == tuple(v for _, v in samples)
        assert bits(got._prefix) == bits(prefix)
        assert got.long_term_average == float(prefix[-1]) / horizon

    @given(case=finite_steps(), kind=st.sampled_from(sorted(CONTAINERS)), data=st.data())
    def test_power_steps_are_the_loop(self, case, kind, data):
        _, rows = case
        make = CONTAINERS[kind]
        ok, want = outcome(loop_power_steps, make(rows))
        got_ok, got = outcome(_power_steps, make(rows))
        assert got_ok == ok
        if not ok:
            assert got == want
            return
        assert got.dtype == np.float64 and got.shape == (len(want), 2)
        assert bits(got) == bits(want)
        prof = data.draw(step_profiles(max_steps=10))
        upto = data.draw(st.floats(0.0, prof.horizon, exclude_min=True))
        assert cumulative_cf(prof, make(rows), upto) == \
            parent_cumulative_cf(prof, want, upto)

    @given(st.one_of(FINITE, st.integers(-5, 5)))
    def test_constant_power_is_the_loop(self, power):
        ok, want = outcome(loop_power_steps, power)
        got_ok, got = outcome(_power_steps, power)
        assert got_ok == ok
        assert got == want if not ok else bits(got) == bits(want)

    def test_rows_of_another_width_are_refused(self):
        with pytest.raises(ValueError, match="shape"):
            CiProfile(((0.0, 1.0, 2.0),), 10.0)
        with pytest.raises(ValueError, match="shape"):
            cumulative_cf(TWO_STEP, [0.0, 1.0], 10.0)

    @given(step_profiles(max_steps=10), st.data())
    def test_a_non_finite_entry_is_refused(self, prof, data):
        rows = [list(pair) for pair in prof.samples]
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i][data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(ValidationError):
            CiProfile(rows, prof.horizon)
        with pytest.raises(DomainError):
            cumulative_cf(prof, rows, prof.horizon)

    def test_non_finite_steps_are_refused(self):
        # The loop took a NaN start, and NaN or inf watts, and gave NaN or inf.
        with pytest.raises(ValidationError, match="got nan after 0.0"):
            CiProfile(((0, 100), (math.nan, 200), (5, 300)), 10)
        for steps, message in [(((0, 1.0), (math.nan, 2.0)), "increase"),
                               (((0, 1.0), (5.0, math.nan)), r"finite, got \(5.0, nan\)"),
                               (((0, math.inf),), r"finite, got \(0.0, inf\)"),
                               (((0, 1.0), (math.inf, 2.0)), r"finite, got \(inf, 2.0\)"),
                               (math.inf, r"finite, got \(0.0, inf\)")]:
            with pytest.raises(DomainError, match=message):
                cumulative_cf(TWO_STEP, steps, 3600.0)


@st.composite
def valid_steps(draw):
    """(horizon, rows) that make a profile; a start or value may be an int."""
    horizon = draw(st.floats(1e-3, 1e9))
    inner = draw(st.lists(st.floats(0.0, horizon, exclude_min=True, exclude_max=True),
                          max_size=9, unique=True))
    starts = [draw(st.sampled_from([0, 0.0, -0.0]))] + sorted(inner)
    values = draw(st.lists(st.one_of(st.floats(1e-3, 1e6), st.integers(1, 10 ** 6)),
                           min_size=len(starts), max_size=len(starts)))
    return horizon, list(zip(starts, values))


# Every refusal of CiProfile's check, with its exception type and message.
BAD_PROFILES = [
    ((), 10.0, ValidationError, "a profile needs at least one sample"),
    (((0.0, 1.0),), 0.0, ValidationError, "horizon must be positive, got 0.0"),
    (((0.0, 1.0),), math.inf, ValidationError, "horizon must be positive, got inf"),
    (((0.0, 1.0),), math.nan, ValidationError, "horizon must be positive, got nan"),
    (((5.0, 100.0),), 10.0, ValidationError, "first step must start at 0, got 5.0"),
    (((0.0, 100.0), (0.0, 50.0)), 10.0, ValidationError,
     "step starts must increase, got 0.0 after 0.0"),
    (((0.0, 100.0), (math.nan, 50.0)), 10.0, ValidationError,
     "step starts must increase, got nan after 0.0"),
    (((0.0, 100.0), (20.0, 50.0)), 10.0, ValidationError,
     "step start 20.0 is not inside the horizon"),
    (((0.0, -1.0),), 10.0, ValidationError, "carbon intensity must be positive, got -1.0"),
    (((0.0, 1.0), (1.0, math.inf)), 10.0, ValidationError,
     "carbon intensity must be positive, got inf"),
    (((0.0, 1.0, 2.0),), 10.0, ValueError, "expected shape (-1, 2), got (1, 3)"),
]


class TestProfileContract:
    """What a profile keeps and shows, whatever container its steps came in."""

    @given(case=valid_steps(), kind=st.sampled_from(sorted(CONTAINERS)))
    def test_contract(self, case, kind):
        horizon, rows = case
        profile = CiProfile(CONTAINERS[kind](rows), horizon)
        pairs = tuple((float(t), float(v)) for t, v in rows)
        assert profile.samples == pairs == tuple(zip(profile.starts, profile.values))
        assert all(type(x) is float for pair in profile.samples for x in pair)
        again = CiProfile(profile.samples, profile.horizon)
        assert again == profile and hash(again) == hash(profile)
        assert CiProfile(rows, 2 * horizon) != profile
        assert repr(profile) == f"CiProfile(samples={pairs!r}, horizon={horizon!r})"
        for name in ("samples", "starts", "values", "horizon", "_t", "_mean", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(profile, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(profile, name)
        assert profile == again

    def test_repr_is_the_dataclass_text(self):
        text = "CiProfile(samples=((0.0, 100.0), (1800.0, 300.0)), horizon=3600.0)"
        assert repr(TWO_STEP) == text
        assert eval(text) == TWO_STEP

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    @pytest.mark.parametrize("samples, horizon, error, message", BAD_PROFILES,
                             ids=[case[-1] for case in BAD_PROFILES])
    def test_refusals_keep_their_messages(self, samples, horizon, error, message, kind):
        with pytest.raises(ValueError) as refused:
            CiProfile(CONTAINERS[kind](samples), horizon)
        assert refused.type is error and str(refused.value) == message

    def test_a_profile_keeps_each_step_once(self):
        # Per step a profile keeps three float64 arrays, the starts, the
        # values and the prefix integral (3 * 8 B), and two tuples of floats,
        # an 8 B slot and a 24 B float object per entry (2 * 32 B): 88 B.  A
        # tuple of (start, value) pairs on top, an 8 B slot and a 56 B pair
        # per step, took it to 152 B.
        n = 10 ** 5
        steps = np.column_stack((np.arange(n) * 2.0, np.linspace(1.0, 2.0, n)))
        CiProfile(steps[:10], 2.0 * n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            profile = CiProfile(steps, 2.0 * n)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(profile.values) == n
        assert held <= 96 * n
