"""Carbon-footprint accounting for status-update transmitters.

Conventions used throughout:

* carbon intensity xi is stored in gCO2eq per kWh and modeled as a
  right-open step function of time, whose one lookup and integral are
  CiProfile's, on float64 arrays built once at construction,
* energy is tracked in joules internally and converted to kWh exactly
  once, at the 1 kWh = 3.6e6 J boundary, when it meets an intensity,
* emissions are grams of CO2 equivalent.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, MissingConstraint, ValidationError

J_PER_KWH = 3.6e6


def as_float64(values, width: int | None = None) -> np.ndarray:
    """values as a float64 array: flat, or rows of `width` numbers.

    values may be a sequence, an ndarray or a one-pass iterable.  Numbers
    convert as float() converts them, and None becomes NaN.  An empty input
    gives an empty array of the asked shape; any other shape raises
    ValueError.
    """
    if not isinstance(values, (tuple, list, np.ndarray)):
        values = list(values)
    array = np.asarray(values, dtype=np.float64)
    shape = (-1,) if width is None else (-1, width)
    if array.size and (array.ndim != len(shape) or array.shape[1:] != shape[1:]):
        raise ValueError(f"expected shape {shape}, got {array.shape}")
    return array.reshape(shape)


def joules_to_kwh(joules: float) -> float:
    return joules / J_PER_KWH


# The longest slot grid a simulation or a resampled profile may have.
MAX_SLOTS = 10 ** 7


def slot_count(horizon: float, slot: float) -> int:
    """How many slots of length slot tile [0, horizon), or 0 if none do.

    horizon / slot may miss a whole number by 1e-9 of itself.  A slot that is
    not positive, or a ratio below 1, infinite or NaN, gives 0."""
    if not slot > 0:
        return 0
    n = horizon / slot
    if not 1 <= n < math.inf:
        return 0
    count = round(n)
    return count if abs(n - count) <= 1e-9 * n else 0


@dataclass(frozen=True)
class CiProfile:
    """Step-function carbon intensity over [0, horizon).

    samples holds (start_s, ci_g_per_kwh) pairs, given as a sequence, an
    iterable or an (n, 2) array and kept as a tuple of float pairs; each
    value applies from its start until the next start (right-open).  The
    first start must be 0, starts must be strictly increasing and inside
    the horizon, and every intensity positive and finite: one check on
    float64 arrays reports the first bad step, as a loop over the steps
    would, and rejects a NaN start.  Lookups past the horizon take the
    final step, which lets simulations drain their queues a little beyond
    the modeled window.  Construction builds float64 arrays of the starts
    and values and the prefix integral of xi at each start, summed left to
    right with np.cumsum; its last entry over the horizon is the
    duration-weighted mean.  starts and values are tuples.
    """

    samples: tuple
    horizon: float

    def __post_init__(self) -> None:
        steps = as_float64(self.samples, width=2)
        if not len(steps):
            raise ValidationError("a profile needs at least one sample")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        t, xi = steps[:, 0].copy(), steps[:, 1].copy()
        if t[0] != 0.0:
            raise ValidationError(f"first step must start at 0, got {float(t[0])}")
        # The first bad step fails these checks in the order a loop over the
        # steps makes them.  A NaN start fails the comparison: it does not increase.
        bad = t >= self.horizon
        bad |= ~(xi > 0) | np.isinf(xi)
        bad[1:] |= ~(t[1:] > t[:-1])
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            start, value = float(t[i]), float(xi[i])
            if i and not start > t[i - 1]:
                raise ValidationError(
                    f"step starts must increase, got {start} after {float(t[i - 1])}")
            if start >= self.horizon:
                raise ValidationError(f"step start {start} is not inside the horizon")
            raise ValidationError(f"carbon intensity must be positive, got {value}")
        starts, values = tuple(t.tolist()), tuple(xi.tolist())
        object.__setattr__(self, "samples", tuple(zip(starts, values)))
        prefix = np.zeros(len(t) + 1)
        with np.errstate(over="ignore"):    # a huge intensity gives an inf integral
            np.cumsum(xi * (np.append(t[1:], self.horizon) - t), out=prefix[1:])
        vars(self).update(_starts=starts, _values=values, _t=t, _xi=xi, _prefix=prefix,
                          _mean=float(prefix[-1]) / self.horizon)

    @classmethod
    def constant(cls, ci: float, horizon: float) -> "CiProfile":
        return cls(((0.0, ci),), horizon)

    @property
    def starts(self) -> tuple:
        return self._starts

    @property
    def values(self) -> tuple:
        return self._values

    # The lookups take with mode "wrap": the step indices are in range, and
    # mode "raise" would write out= through a copy.

    def values_at(self, t, out=None):
        """xi in force at each time t >= 0, as float64; written into out,
        a float64 array as long as t, when given."""
        return np.take(self._xi, self._steps(t), out=out, mode="wrap")

    def integral_to(self, t, out=None, scratch=None):
        """The integral of xi over [0, t] for each t >= 0, in g*s/kWh.

        Given out and scratch, float64 arrays as long as t, the integral is
        written into out and scratch is overwritten; no float array is built.
        """
        i = self._steps(t)
        out = np.subtract(t, np.take(self._t, i, out=out, mode="wrap"), out=out)
        out *= np.take(self._xi, i, out=scratch, mode="wrap")
        out += np.take(self._prefix, i, out=scratch, mode="wrap")
        return out

    def _steps(self, t):
        """The index of the step in force at each time t >= 0."""
        i = np.searchsorted(self._t, t, side="right")
        i -= 1
        return i

    def value_at(self, tau: float) -> float:
        if tau < 0:
            raise DomainError(f"time must be non-negative, got {tau}")
        return float(self.values_at(tau))

    @property
    def long_term_average(self) -> float:
        """Duration-weighted mean intensity over the whole horizon."""
        return self._mean


@dataclass(frozen=True)
class EnergyModel:
    """Radio energy parameters.  Defaults follow the bundled experiments.

    The transmission time per packet, t_p, is mtu / rate, and is checked
    positive and finite along with the fields.
    """

    p_t: float = 1.0            # transmit power, W
    p_max: float = 1.0          # hardware power cap, W
    mtu: float = 12000.0        # packet size, bits
    rate: float = 1e8           # link rate, bits/s
    bandwidth: float = 1e6      # Hz
    channel_gain: float = 1.0   # |h|^2, dimensionless
    noise_power: float = 1e-4   # sigma^2, W

    def __post_init__(self) -> None:
        for name in ("p_t", "p_max", "mtu", "rate", "t_p", "bandwidth",
                     "channel_gain", "noise_power"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if self.p_t > self.p_max:
            raise ValidationError(f"p_t={self.p_t} exceeds p_max={self.p_max}")

    @property
    def t_p(self) -> float:
        """Transmission time per packet, s."""
        return self.mtu / self.rate

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
    """Emissions per reporting slot, in grams: grams as a read-only float64
    array, kept as given if it is one that owns its data and else copied,
    and total as their left-to-right np.cumsum.  The first negative or NaN
    entry is refused.  A trace's slot_length gives each slot's time."""

    def __init__(self, grams: Sequence[float]):
        if not (isinstance(grams, np.ndarray) and grams.dtype == np.float64
                and grams.flags.owndata and not grams.flags.writeable):
            grams = np.array(grams, dtype=np.float64)
        # min propagates NaN and, unlike a mask, builds no temporary.
        if len(grams) and not grams.min() >= 0:
            bad = ~(grams >= 0)
            raise ValidationError(f"emissions must be non-negative, got {grams[bad.argmax()]}")
        grams.flags.writeable = False
        self.grams = grams
        # np.cumsum a block at a time behind the running total in slot 0: the same
        # additions in order, with no full-length temporary.  -0.0 + x is x for any x.
        scratch, total = np.empty((1 << 16) + 1), -0.0
        for part in np.split(grams, range(1 << 16, len(grams), 1 << 16)):
            block = scratch[:len(part) + 1]
            block[0], block[1:] = total, part
            total = np.cumsum(block, out=block)[-1]
        self.total = float(total) if len(grams) else 0.0

    def __len__(self) -> int:
        return len(self.grams)


def _power_steps(power) -> np.ndarray:
    """power, a constant or (start_s, watts) steps, as checked (n, 2) float64 steps."""
    if isinstance(power, (int, float)):
        if not power > 0:
            raise DomainError(f"power must be positive, got {power}")
        power = ((0.0, power),)
    steps = as_float64(power, width=2)
    if not len(steps) or steps[0, 0] != 0.0:
        raise DomainError("power steps must start at 0")
    t, watts = steps.T
    bad = watts < 0
    bad |= ~np.isfinite(t) | ~np.isfinite(watts)
    bad[1:] |= ~(t[1:] > t[:-1])
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        start, w = float(t[i]), float(watts[i])
        if i and not start > t[i - 1]:
            raise DomainError("power step starts must increase")
        if w < 0:
            raise DomainError(f"power must be non-negative, got {w}")
        raise DomainError(f"power steps must be finite, got ({start}, {w})")
    return steps


def cumulative_cf(profile: CiProfile, power, upto: float) -> float:
    """Emissions of a piecewise-constant power draw over [0, upto], in grams.

    power is either a constant in watts or (start_s, watts) steps, as a
    sequence, an iterable or an (n, 2) array, with the same right-open
    convention as the profile.  The steps are checked as one float64
    array: they start at 0 and increase, and every start and wattage is
    finite and no wattage negative; a constant must be positive.  The
    integral is evaluated exactly on the merged breakpoint grid, and the
    segments are summed left to right.

    upto past the horizon is rejected: the profile is not modelled there.
    The simulator alone extends the final step past the horizon, on
    purpose, so that work drained after the horizon is still charged.
    """
    if not (0 < upto <= profile.horizon):
        raise DomainError(f"upto must lie in (0, {profile.horizon}], got {upto}")
    steps = _power_steps(power)
    # Sorted, not np.unique, whose hash table leaves the heap fragmented.
    starts = np.sort(np.concatenate((profile._t, steps[:, 0])))
    lo = starts[(starts < upto) & np.append(True, starts[1:] > starts[:-1])]
    watts = steps[np.searchsorted(steps[:, 0], lo, side="right") - 1, 1]
    with np.errstate(over="ignore"):
        grams = profile.values_at(lo) * (watts * np.diff(lo, append=upto) / J_PER_KWH)
        return float(np.cumsum(grams)[-1])


# The three formulas below are arithmetic on floats or float64 arrays
# alike.  Their operations run left to right in the same order on both, so
# a sweep over arrays matches the checked scalar functions bit for bit.
# The two caps refuse a denominator that underflows to 0, with one plain
# comparison for a float and one check of a whole array.

def _denominator(product, name: str):
    """product, a rate cap's denominator; DomainError where it is 0.

    Its factors are checked positive before, so 0 means the product
    underflowed, and the budget over it would divide by zero.
    """
    if not (product.all() if isinstance(product, np.ndarray) else product):
        raise DomainError(f"the rate cap's denominator {name} underflows to 0")
    return product


def slot_grams(ci, e_kwh, a, lam, tn):
    """Slot emissions xi * E_p * a * lam * t_N, in grams."""
    return ci * e_kwh * a * lam * tn


def kappa_cap(budget, tn, mean_ci, e_kwh, a: float):
    """K / (t_N * mean(xi) * E_p * a); inf for a success probability of 0."""
    if a == 0.0:
        return math.inf
    return budget / _denominator(tn * mean_ci * e_kwh * a, "t_N * mean(xi) * E_p * a")


def energy_cap(budget, ci, e_kwh, tn):
    """K / (xi * E * t_N): the rate cap at E kWh per transmitted packet."""
    return budget / _denominator(ci * e_kwh * tn, "xi * E * t_N")


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
    if not e_cap_kwh > 0:
        raise DomainError(f"energy per packet must be positive, got {e_cap_kwh} kWh")
    return energy_cap(constraint.budget_k, month_ci, e_cap_kwh, constraint.horizon_tn)


def lambda_qos_max(constraint: ConstraintSet, month_ci: float,
                   energy: EnergyModel, t_p_override: float | None = None) -> float:
    """Budget-feasible rate cap when transmitting at the SNR-floor power.

    The minimal transmit power meeting the floor is snr_min * sigma^2 /
    |h|^2.  t_p_override substitutes another rate's transmission time;
    the optimizer's QoS cap calls energy_cap on its link instead.
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
    if not rate_min > 0:
        raise DomainError(f"snr floor {snr_min} is too small: B*log2(1 + snr) rounds to 0")
    p_t_min = snr_min * energy.noise_power / energy.channel_gain
    return LinkBudget(rate_min, p_t_min, energy.mtu / rate_min)
