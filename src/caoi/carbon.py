"""Carbon-footprint accounting for status-update transmitters.

Conventions used throughout:

* carbon intensity xi is stored in gCO2eq per kWh and modeled as a
  right-open step function of time,
* energy is tracked in joules internally and converted to kWh exactly
  once, at the 1 kWh = 3.6e6 J boundary, when it meets an intensity,
* emissions are grams of CO2 equivalent.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, MissingConstraint, ValidationError

J_PER_KWH = 3.6e6


def joules_to_kwh(joules: float) -> float:
    return joules / J_PER_KWH


def kwh_to_joules(kwh: float) -> float:
    return kwh * J_PER_KWH


@dataclass(frozen=True)
class CiProfile:
    """Step-function carbon intensity over [0, horizon).

    samples holds (start_s, ci_g_per_kwh) pairs; each value applies from
    its start until the next start (right-open).  The first start must be
    0 and starts must be strictly increasing.  Lookups past the horizon
    clamp to the final step, which lets simulations drain their queues a
    little beyond the modeled window.  starts, values and the
    duration-weighted mean are computed once, at construction.
    """

    samples: tuple
    horizon: float

    def __post_init__(self) -> None:
        samples = tuple((float(t), float(v)) for t, v in self.samples)
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise ValidationError("a profile needs at least one sample")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if samples[0][0] != 0.0:
            raise ValidationError(f"first step must start at 0, got {samples[0][0]}")
        prev = -math.inf
        for start, value in samples:
            if start <= prev:
                raise ValidationError(f"step starts must increase, got {start} after {prev}")
            if start >= self.horizon:
                raise ValidationError(f"step start {start} is not inside the horizon")
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"carbon intensity must be positive, got {value}")
            prev = start
        starts = tuple(t for t, _ in samples)
        values = tuple(v for _, v in samples)
        total = 0.0
        for start, end, value in zip(starts, starts[1:] + (self.horizon,), values):
            total += value * (end - start)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_mean", total / self.horizon)

    @classmethod
    def constant(cls, ci: float, horizon: float) -> "CiProfile":
        return cls(((0.0, ci),), horizon)

    @property
    def starts(self) -> tuple:
        return self._starts

    @property
    def values(self) -> tuple:
        return self._values

    def value_at(self, tau: float) -> float:
        if tau < 0:
            raise DomainError(f"time must be non-negative, got {tau}")
        idx = bisect_right(self._starts, tau) - 1
        return self._values[idx]

    @property
    def long_term_average(self) -> float:
        """Duration-weighted mean intensity over the whole horizon."""
        return self._mean


@dataclass(frozen=True)
class EnergyModel:
    """Radio energy parameters.  Defaults follow the bundled experiments.

    Either t_p or rate may be omitted; the missing one is derived from
    t_p = mtu / rate.  When both are given they must agree.
    """

    p_t: float = 1.0            # transmit power, W
    p_max: float = 1.0          # hardware power cap, W
    mtu: float = 12000.0        # packet size, bits
    rate: float | None = 1e8    # link rate, bits/s
    t_p: float | None = None    # transmission time per packet, s
    bandwidth: float = 1e6      # Hz
    channel_gain: float = 1.0   # |h|^2, dimensionless
    noise_power: float = 1e-4   # sigma^2, W

    def __post_init__(self) -> None:
        if self.t_p is None and self.rate is None:
            raise ValidationError("one of t_p or rate is required")
        if self.t_p is None:
            object.__setattr__(self, "t_p", self.mtu / self.rate)
        elif self.rate is None:
            object.__setattr__(self, "rate", self.mtu / self.t_p)
        elif not math.isclose(self.t_p, self.mtu / self.rate, rel_tol=1e-9):
            raise ValidationError(
                f"t_p={self.t_p} disagrees with mtu/rate={self.mtu / self.rate}"
            )
        for name in ("p_t", "p_max", "mtu", "rate", "t_p", "bandwidth",
                     "channel_gain", "noise_power"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if self.p_t > self.p_max:
            raise ValidationError(f"p_t={self.p_t} exceeds p_max={self.p_max}")

    def e_p(self) -> float:
        """Energy per transmitted packet in joules."""
        return self.p_t * self.t_p

    def e_p_kwh(self) -> float:
        return joules_to_kwh(self.e_p())


@dataclass(frozen=True)
class ConstraintSet:
    """Operating constraints for a reporting slot of length horizon_tn."""

    budget_k: float                 # CF budget per slot, g
    horizon_tn: float               # slot length, s
    power_cap: float | None = None  # optional transmit power cap, W
    snr_min: float | None = None    # optional linear receive-SNR floor
    success_prob_a: float = 1.0     # fraction of arrivals actually transmitted

    def __post_init__(self) -> None:
        if not self.budget_k > 0:
            raise ValidationError(f"budget must be positive, got {self.budget_k}")
        if not (math.isfinite(self.horizon_tn) and self.horizon_tn > 0):
            raise ValidationError(f"slot length must be positive, got {self.horizon_tn}")
        if self.power_cap is not None and not self.power_cap > 0:
            raise ValidationError(f"power cap must be positive, got {self.power_cap}")
        if self.snr_min is not None and not self.snr_min > 0:
            raise ValidationError(f"snr floor must be positive, got {self.snr_min}")
        if not 0.0 <= self.success_prob_a <= 1.0:
            raise ValidationError(
                f"success probability must lie in [0, 1], got {self.success_prob_a}"
            )


class CarbonLedger:
    """Ordered emission entries with a running cumulative total."""

    def __init__(self, times: Sequence[float], grams: Sequence[float]):
        times = tuple(float(t) for t in times)
        grams = tuple(float(g) for g in grams)
        if len(times) != len(grams):
            raise ValidationError("times and grams must have equal length")
        prev = 0.0
        for t, g in zip(times, grams):
            if t <= 0 or t < prev:
                raise ValidationError(f"entry times must be positive and ordered, got {t}")
            if g < 0:
                raise ValidationError(f"emissions must be non-negative, got {g}")
            prev = t
        self.times = times
        self.grams = grams
        running = []
        acc = 0.0
        for g in grams:
            acc += g
            running.append(acc)
        self._running = tuple(running)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def total(self) -> float:
        return self._running[-1] if self._running else 0.0

    def cumulative(self, tau: float) -> float:
        """Emissions recorded at or before tau; zero at tau = 0."""
        if tau < 0:
            raise DomainError(f"time must be non-negative, got {tau}")
        idx = bisect_right(self.times, tau)
        return self._running[idx - 1] if idx else 0.0


def _power_steps(power) -> tuple:
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


def cumulative_cf(profile: CiProfile, power, upto: float) -> float:
    """Emissions of a piecewise-constant power draw over [0, upto], in grams.

    power is either a constant in watts or a sequence of (start_s, watts)
    steps with the same right-open convention as the profile.  The
    integral is evaluated exactly on the merged breakpoint grid.

    upto past the horizon is rejected: the profile is not modelled there.
    The simulator alone extends the final step past the horizon, on
    purpose, so that work drained after the horizon is still charged.
    """
    if not (0 < upto <= profile.horizon):
        raise DomainError(f"upto must lie in (0, {profile.horizon}], got {upto}")
    steps = _power_steps(power)
    power_starts = tuple(t for t, _ in steps)
    breakpoints = sorted({0.0, upto, *(t for t in profile.starts if t < upto),
                          *(t for t in power_starts if t < upto)})
    total = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        xi = profile.value_at(lo)
        watts = steps[bisect_right(power_starts, lo) - 1][1]
        total += xi * joules_to_kwh(watts * (hi - lo))
    return total


# The three formulas below are unchecked arithmetic on floats or float64
# arrays alike.  Their operations run left to right in the same order on
# both, so a sweep over arrays matches the checked scalar functions bit
# for bit.

def slot_grams(ci, e_kwh, a, lam, tn):
    """Slot emissions xi * E_p * a * lam * t_N, in grams."""
    return ci * e_kwh * a * lam * tn


def kappa_cap(budget, tn, mean_ci, e_kwh, a: float):
    """K / (t_N * mean(xi) * E_p * a); inf for a success probability of 0."""
    if a == 0.0:
        return math.inf
    return budget / (tn * mean_ci * e_kwh * a)


def energy_cap(budget, ci, e_kwh, tn):
    """K / (xi * E * t_N): the rate cap at E kWh per transmitted packet."""
    return budget / (ci * e_kwh * tn)


def avg_cf(profile: CiProfile, energy: EnergyModel, lam: float,
           constraint: ConstraintSet) -> float:
    """Expected emissions of one reporting slot at arrival rate lam, in grams.

    Long-run approximation: mean intensity times per-packet energy times
    the number of transmitted packets a * lam * t_N.
    """
    if not lam > 0:
        raise DomainError(f"arrival rate must be positive, got {lam}")
    return slot_grams(profile.long_term_average, energy.e_p_kwh(),
                      constraint.success_prob_a, lam, constraint.horizon_tn)


def lambda_kappa(constraint: ConstraintSet, profile: CiProfile,
                 energy: EnergyModel) -> float:
    """Largest arrival rate whose slot emissions stay within the budget.

    K / (t_N * mean(xi) * E_p); the success probability divides through
    when below one because only transmitted packets emit.  A success
    probability of zero means no emissions at any rate, returned as inf.
    """
    return kappa_cap(constraint.budget_k, constraint.horizon_tn,
                     profile.long_term_average, energy.e_p_kwh(),
                     constraint.success_prob_a)


def lambda_p_max(constraint: ConstraintSet, month_ci: float,
                 energy: EnergyModel) -> float:
    """Budget-feasible rate cap when transmitting at the power cap.

    Evaluated against a single month's intensity month_ci.
    """
    if constraint.power_cap is None:
        raise MissingConstraint("lambda_p_max needs constraint.power_cap")
    if not month_ci > 0:
        raise DomainError(f"month intensity must be positive, got {month_ci}")
    e_cap_kwh = joules_to_kwh(constraint.power_cap * energy.t_p)
    return energy_cap(constraint.budget_k, month_ci, e_cap_kwh, constraint.horizon_tn)


def lambda_qos_max(constraint: ConstraintSet, month_ci: float,
                   energy: EnergyModel, t_p_override: float | None = None) -> float:
    """Budget-feasible rate cap when transmitting at the SNR-floor power.

    The minimal transmit power meeting the floor is snr_min * sigma^2 /
    |h|^2.  t_p_override substitutes the transmission time implied by a
    rate other than the nominal one (used by the QoS-coupled optimizer).
    """
    if constraint.snr_min is None:
        raise MissingConstraint("lambda_qos_max needs constraint.snr_min")
    if not month_ci > 0:
        raise DomainError(f"month intensity must be positive, got {month_ci}")
    t_p = energy.t_p if t_p_override is None else t_p_override
    if not t_p > 0:
        raise DomainError(f"transmission time must be positive, got {t_p}")
    p_min = constraint.snr_min * energy.noise_power / energy.channel_gain
    e_min_kwh = joules_to_kwh(p_min * t_p)
    return energy_cap(constraint.budget_k, month_ci, e_min_kwh, constraint.horizon_tn)


@dataclass(frozen=True)
class LinkBudget:
    """Rate floor and its implied power and packet time for an SNR floor."""

    rate_min: float   # bits/s
    p_t_min: float    # W
    t_p: float        # s


def min_rate_for_snr(energy: EnergyModel, snr_min: float) -> LinkBudget:
    """Shannon rate floor B*log2(1 + snr_min) plus the implied link budget."""
    if not snr_min > 0:
        raise DomainError(f"snr floor must be positive, got {snr_min}")
    rate_min = energy.bandwidth * math.log2(1.0 + snr_min)
    p_t_min = snr_min * energy.noise_power / energy.channel_gain
    return LinkBudget(rate_min, p_t_min, energy.mtu / rate_min)
