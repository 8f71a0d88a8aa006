import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caoi.carbon import MAX_SLOTS, CiProfile, cumulative_cf
from caoi.cidata import MONTH_SECONDS, parse_ci_csv, resample, serialize_ci_csv
from caoi.dessim import SimConfig
from caoi.errors import ConfigError, DomainError, ParseError, ValidationError
from caoi.queueing import Discipline, QueueSpec

BUILTIN_VALUES = (228.0, 218.0, 188.0, 148.0, 108.0, 128.0, 158.0, 178.0,
                  208.0, 248.0, 308.0, 258.0)

SMALL = """period,ci_g_per_kwh
# winter block
1,220
2,180
3,140
"""


def months(values, period=MONTH_SECONDS) -> CiProfile:
    """values as consecutive steps of one period each."""
    return CiProfile(tuple((i * period, v) for i, v in enumerate(values)),
                     period * len(values))


class TestParsing:
    def test_basic_parse(self):
        prof = parse_ci_csv(SMALL)
        assert prof.values == (220.0, 180.0, 140.0)
        assert prof == months((220.0, 180.0, 140.0))

    def test_year_month_periods(self):
        text = "period,ci_g_per_kwh\n2024-01,100\n2024-02,250\n"
        assert parse_ci_csv(text) == months((100.0, 250.0))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_endings(self, newline):
        # The line endings a file read as text would have turned into \n.
        assert parse_ci_csv(SMALL.replace("\n", newline)) == parse_ci_csv(SMALL)

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_ci_csv("month,value\n1,100\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_ci_csv("period,ci_g_per_kwh\n1,100\n2,n/a\n")
        assert "3" in str(err.value)

    def test_month_range_checked(self):
        with pytest.raises(ValidationError):
            parse_ci_csv("period,ci_g_per_kwh\n13,100\n")

    @pytest.mark.parametrize("period", ["2024-13", "2024-00", "0000-99"])
    def test_year_month_range_checked(self, period):
        # The month of a label is checked as a month index is.
        with pytest.raises(ValidationError, match=f"line 3: period {period}: month outside"):
            parse_ci_csv(f"period,ci_g_per_kwh\n2024-12,100\n{period},100\n")

    def test_duplicate_period_rejected(self):
        with pytest.raises(ValidationError):
            parse_ci_csv("period,ci_g_per_kwh\n4,100\n4,200\n")

    @pytest.mark.parametrize("rows, line, label, row, expected", [
        ("3,300\n1,100\n2,200\n", 2, "3", 1, "1"),   # once loaded: --month 1 solved row 3
        ("1,100\n1,200\n", 3, "1", 2, "2"),          # a duplicate
        ("# note\n1,100\n02,200\n4,400\n", 5, "4", 3, "3"),
        ("2024-01,100\n2024-03,300\n", 3, "2024-03", 2, "2024-02"),   # once two steps
        ("2024-02,100\n2024-01,300\n", 3, "2024-01", 2, "2024-03"),
        ("2024-05,100\n2024-05,300\n", 3, "2024-05", 2, "2024-06"),
        ("2023-12,100\n2023-01,300\n", 3, "2023-01", 2, "2024-01"),
        ("2023-11,100\n2023-12,200\n2025-01,300\n", 4, "2025-01", 3, "2024-01"),
        ("1,100\n2024-02,200\n", 3, "2024-02", 2, "2"),   # one kind of label per file
        ("2024-01,100\n2,200\n", 3, "2", 2, "2024-02"),
    ])
    def test_period_must_name_its_row(self, rows, line, label, row, expected):
        with pytest.raises(ValidationError, match=f"^line {line}: period {label} on data "
                                                  f"row {row}, expected {expected}$"):
            parse_ci_csv("period,ci_g_per_kwh\n" + rows)

    def test_year_month_crosses_new_year(self):
        # Any start month, and December followed by January of the next year;
        # the rows count the months, so 14 of them load.
        labels = [f"{2023 + (m - 1) // 12}-{(m - 1) % 12 + 1:02d}" for m in range(11, 25)]
        text = "period,ci_g_per_kwh\n" + "".join(f"{p},{i + 1}\n" for i, p in enumerate(labels))
        assert parse_ci_csv(text) == months(tuple(float(i + 1) for i in range(14)))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    def test_intensity_not_positive_and_finite_rejected_at_its_line(self, value):
        # CiProfile refuses inf too, but its message names no line.
        with pytest.raises(ValidationError, match="^line 3: period 2: intensity must be "
                                                  "positive and finite$"):
            parse_ci_csv(f"period,ci_g_per_kwh\n1,228\n2,{value}\n")


class TestProfileConstruction:
    def test_equal_length_steps(self):
        prof = parse_ci_csv(SMALL)
        assert prof.starts == (0.0, MONTH_SECONDS, 2 * MONTH_SECONDS)
        assert prof.horizon == 3 * MONTH_SECONDS
        assert prof.value_at(1.5 * MONTH_SECONDS) == 180.0

    def test_default_period_is_thirty_days(self):
        assert MONTH_SECONDS == 30 * 86400
        prof = parse_ci_csv(SMALL)
        assert prof.horizon == 3 * MONTH_SECONDS


class TestSerialize:
    @given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                    min_size=1, max_size=12))
    def test_csv_round_trip(self, values):
        prof = months(values)
        assert parse_ci_csv(serialize_ci_csv(prof)) == prof

    def test_more_than_twelve_periods_rejected(self):
        prof = CiProfile(tuple((float(i), 100.0) for i in range(13)), 13.0)
        with pytest.raises(ValidationError):
            serialize_ci_csv(prof)

    def test_horizon_other_than_whole_months_rejected(self, builtin):
        # Six-month steps would read back as two 30-day months: 5184000 s.
        with pytest.raises(ValidationError, match="2 periods need horizon 5184000.0 s, "
                                                  "got 31104000.0"):
            serialize_ci_csv(resample(builtin, 6 * MONTH_SECONDS))

    def test_step_other_than_a_month_rejected(self):
        # Two steps over two months' horizon, the second starting a day late.
        prof = CiProfile(((0.0, 100.0), (MONTH_SECONDS + 86400.0, 200.0)), 2 * MONTH_SECONDS)
        with pytest.raises(ValidationError, match="period 2 needs start 2592000.0 s, "
                                                  "got 2678400.0"):
            serialize_ci_csv(prof)


class TestBuiltinProfile:
    def test_values(self, builtin):
        assert builtin.values == BUILTIN_VALUES
        assert len(builtin.samples) == 12
        assert builtin.horizon == 12 * MONTH_SECONDS

    def test_long_term_average(self, builtin):
        # Equal-duration months, so the mean is the flat average.
        assert builtin.long_term_average == 198.0

    def test_seasonal_spread(self, builtin):
        # November/May contrast drives the month-ratio experiments.
        assert max(builtin.values) / min(builtin.values) == \
            pytest.approx(308.0 / 108.0, rel=1e-12)
        assert abs(308.0 / 108.0 - 2.852) < 1e-3

    def test_round_trip_through_csv(self, builtin):
        again = parse_ci_csv(serialize_ci_csv(builtin))
        assert again.samples == builtin.samples
        assert again.horizon == builtin.horizon


class TestResample:
    def test_refines_to_finer_grid(self, builtin):
        day = 86400.0
        fine = resample(builtin, day)
        assert len(fine.samples) == 360
        assert fine.value_at(0.0) == builtin.value_at(0.0)
        assert fine.value_at(31 * day) == builtin.value_at(31 * day)

    def test_preserves_integral_on_aligned_grid(self, builtin):
        fine = resample(builtin, 86400.0)
        for upto in (builtin.horizon, MONTH_SECONDS * 3):
            assert cumulative_cf(fine, 1.0, upto) == \
                pytest.approx(cumulative_cf(builtin, 1.0, upto), rel=1e-12)

    def test_coarse_grid_takes_start_values(self, builtin):
        # Coarsening samples the value at each new slot start; it is a
        # lookup convention, not an averaging one.
        half_year = 6 * MONTH_SECONDS
        coarse = resample(builtin, half_year)
        assert len(coarse.samples) == 2
        assert coarse.values == (builtin.value_at(0.0), builtin.value_at(half_year))

    @given(values=st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=30),
           slot=st.sampled_from([0.7, 0.35, 0.1, 0.7 / 3, 0.05, None]))
    def test_equals_a_per_slot_lookup(self, values, slot):
        # Slots that tile 0.7 s periods, and one slot over the whole horizon.
        prof = months(values, 0.7)
        slot = prof.horizon if slot is None else slot
        got = resample(prof, slot)
        n = round(prof.horizon / slot)
        assert got.samples == tuple((i * slot, prof.value_at(i * slot)) for i in range(n))
        assert got.horizon == prof.horizon

    def test_grid_must_tile_horizon(self, builtin):
        with pytest.raises(DomainError):
            resample(builtin, builtin.horizon / 7.5)

    @pytest.mark.parametrize("slot", [1e-320, 5e-324, math.inf, math.nan, 0.0, -1.0])
    def test_slot_without_a_count_is_refused(self, builtin, slot):
        # 1e-320 once overflowed round() with an OverflowError.
        with pytest.raises(DomainError):
            resample(builtin, slot)

    def test_slot_past_the_horizon_is_refused(self, builtin):
        # One ulp longer than the horizon: fewer than one slot, as SimConfig rules.
        with pytest.raises(DomainError, match="does not tile"):
            resample(builtin, math.nextafter(builtin.horizon, math.inf))

    @pytest.mark.parametrize("slot", [1e-300, 1.0])
    def test_slot_count_over_the_cap_is_refused(self, builtin, slot):
        # 1e-300 s tiles the year in about 3e307 slots; 1 s in 3.1e7.  Both
        # are refused before any array is made, at the cap SimConfig uses.
        assert builtin.horizon / slot > MAX_SLOTS
        with pytest.raises(DomainError, match=f"exceed the cap of {MAX_SLOTS}"):
            resample(builtin, slot)

    def test_cap_is_the_simulators(self):
        # One slot over the cap: resample raises DomainError, SimConfig
        # ConfigError, both for the same count.
        horizon = float(MAX_SLOTS + 1)
        with pytest.raises(DomainError, match="exceed the cap"):
            resample(CiProfile.constant(198.0, horizon), 1.0)
        spec = QueueSpec(Discipline.FCFS_MM1, 0.5, 1.0)
        with pytest.raises(ConfigError, match="exceed the cap"):
            SimConfig(spec, horizon, seed=1, slot_length=1.0)
        SimConfig(spec, float(MAX_SLOTS), seed=1, slot_length=1.0)
