"""Whole-array reference for the chunked simulator in caoi.dessim.

This is the simulator as it was before `run` streamed fixed chunks: it
draws every arrival and service time of a run at once, runs each queue
kernel over the full arrays (the finite buffer as an event loop), and
integrates the age and bins the slots in one pass.  Tests compare `run`
against `reference_run`: sample paths, counts and the final age must be
equal, the mean age and the ledger equal up to summation order.
`_ProfileArrays` is a separate copy of the profile's step lookup and
prefix integral, so the reference shares no profile code with `run`.
"""

import math

import numpy as np

from caoi.carbon import CarbonLedger, CiProfile, EnergyModel, J_PER_KWH
from caoi.dessim import CfMode, SimConfig, SimulationTrace
from caoi.errors import ConfigError
from caoi.queueing import Discipline


def _draw_arrivals(rng: np.random.Generator, lam: float, horizon: float) -> np.ndarray:
    chunks = []
    t = 0.0
    est = max(int(lam * horizon * 1.05) + 16, 64)
    while True:
        gaps = rng.exponential(1.0 / lam, size=est)
        times = np.cumsum(gaps) + t
        chunks.append(times)
        t = float(times[-1])
        if t > horizon:
            break
        est = max(est // 4, 64)
    a = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return a[a < horizon]


def _age_average(d: np.ndarray, u: np.ndarray, warmup: float, horizon: float):
    """Time-average age over [warmup, horizon] given delivery times/origins."""
    i0 = int(np.searchsorted(d, warmup, side="right"))
    anchor0 = float(u[i0 - 1]) if i0 > 0 else 0.0
    i1 = int(np.searchsorted(d, horizon, side="right"))
    dd = d[i0:i1]
    uu = u[i0:i1]
    times = np.empty(len(dd) + 2)
    times[0] = warmup
    times[1:-1] = dd
    times[-1] = horizon
    anchors = np.empty(len(dd) + 1)
    anchors[0] = anchor0
    anchors[1:] = uu
    t0 = times[:-1]
    t1 = times[1:]
    integral = float(np.sum((t1 - t0) * (0.5 * (t0 + t1) - anchors)))
    final_age = horizon - float(anchors[-1])
    return integral / (horizon - warmup), final_age


def _slot_bincount(times: np.ndarray, weights, slot: float, n_slots: int,
                   horizon: float):
    """Bin event times into right-open slots; the final in-horizon slot is
    closed at the horizon, and drained events past it extend the grid."""
    idx = np.floor(times / slot).astype(np.int64)
    clamp = (times <= horizon) & (idx >= n_slots)
    idx[clamp] = n_slots - 1
    length = max(n_slots, int(idx.max()) + 1 if len(idx) else 0)
    return np.bincount(idx, weights=weights, minlength=length)


class _ProfileArrays:
    """Vectorized step lookup and prefix integral for a CiProfile."""

    def __init__(self, profile: CiProfile):
        self.starts = np.asarray(profile.starts)
        self.values = np.asarray(profile.values)
        ends = np.append(self.starts[1:], profile.horizon)
        self.prefix = np.concatenate(([0.0], np.cumsum(self.values * (ends - self.starts))))

    def value_at(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.starts, t, side="right") - 1
        return self.values[idx]

    def integral_to(self, t: np.ndarray) -> np.ndarray:
        # Clamps past the horizon by extending the final step.
        idx = np.searchsorted(self.starts, t, side="right") - 1
        return self.prefix[idx] + self.values[idx] * (t - self.starts[idx])


def reference_run(config: SimConfig, profile: CiProfile,
                  energy: EnergyModel) -> SimulationTrace:
    """The whole-array run: every per-packet array of the run at once."""
    spec = config.spec
    if profile.horizon < config.horizon:
        raise ConfigError(
            f"profile horizon {profile.horizon} is shorter than the run horizon {config.horizon}"
        )
    if (spec.discipline is Discipline.FCFS_MM1 and config.buffer is None
            and spec.rho >= 1.0):
        raise ConfigError(
            f"FCFS with an unbounded buffer needs rho < 1, got rho={spec.rho:.6g}"
        )

    ss = np.random.SeedSequence(config.seed)
    arr_ss, svc_ss = ss.spawn(2)
    rng_arrival = np.random.default_rng(arr_ss)
    rng_service = np.random.default_rng(svc_ss)

    a = _draw_arrivals(rng_arrival, spec.lam, config.horizon)

    if spec.discipline is Discipline.LCFS_PREEMPTIVE:
        kern = _kernel_lcfs(a, rng_service, spec.mu, config.horizon, config.drain)
    elif config.buffer is None:
        kern = _kernel_fcfs_infinite(a, rng_service, spec.mu, config.horizon, config.drain)
    else:
        kern = _kernel_fcfs_finite(a, rng_service, spec.mu, config.buffer,
                                   config.horizon, config.drain)
    d, u, preemptions, drops, busy_start, busy_end, tx_a = kern

    warmup = config.effective_warmup
    slot = config.effective_slot
    n_slots = int(round(config.horizon / slot))
    time_avg, final_age = _age_average(d, u, warmup, config.horizon)

    counts = _slot_bincount(d, None, slot, n_slots, config.horizon).astype(np.int64)

    pa = _ProfileArrays(profile)
    ep_kwh = energy.e_p_kwh()
    if config.cf_mode is CfMode.ARRIVAL_CHARGED:
        charge_t = tx_a
        charge_g = pa.value_at(tx_a) * ep_kwh
    elif config.cf_mode is CfMode.COMPLETION_CHARGED:
        charge_t = d
        charge_g = pa.value_at(d) * ep_kwh
    else:
        charge_t = busy_end
        charge_g = (pa.integral_to(busy_end) - pa.integral_to(busy_start)) \
            * (energy.p_t / J_PER_KWH)
    slot_grams = _slot_bincount(charge_t, charge_g, slot, n_slots, config.horizon)
    ledger = CarbonLedger(slot_grams.tolist())

    arrivals = len(a)
    completions = len(d)
    empirical_a = completions / arrivals if arrivals else 1.0
    return SimulationTrace(
        time_avg_aoi=time_avg,
        final_age=final_age,
        n_tx_per_slot=counts,
        slot_length=slot,
        horizon=config.horizon,
        empirical_a=empirical_a,
        ledger=ledger,
        arrivals=arrivals,
        completions=completions,
        preemptions=preemptions,
        drops=drops,
        delivery_times=d if config.keep_events else None,
        delivery_gen_times=u if config.keep_events else None,
    )


def _kernel_fcfs_infinite(a, rng_service, mu, horizon, drain):
    n = len(a)
    s = rng_service.exponential(1.0 / mu, size=n)
    if n == 0:
        empty = np.empty(0)
        return empty, empty, 0, 0, empty, empty, empty
    total = np.cumsum(s)
    # d_i = S_i + max_{j<=i} (a_j - S_{j-1})
    offsets = a - (total - s)
    d = total + np.maximum.accumulate(offsets)
    start = d - s
    if drain:
        keep = np.ones(n, dtype=bool)
    else:
        keep = d <= horizon
    busy_start = start[start < horizon] if not drain else start
    busy_end = np.minimum(d[start < horizon], horizon) if not drain else d
    return d[keep], a[keep], 0, 0, busy_start, busy_end, a


def _kernel_lcfs(a, rng_service, mu, horizon, drain):
    n = len(a)
    s = rng_service.exponential(1.0 / mu, size=n)
    if n == 0:
        empty = np.empty(0)
        return empty, empty, 0, 0, empty, empty, empty
    next_a = np.append(a[1:], np.inf)
    c = a + s
    completed = c < next_a          # else preempted at the next arrival
    preemptions = int(n - completed.sum())
    if drain:
        keep = completed
    else:
        keep = completed & (c <= horizon)
    busy_end = np.minimum(c, next_a)
    if not drain:
        busy_end = np.minimum(busy_end, horizon)
    return c[keep], a[keep], preemptions, 0, a.copy(), busy_end, a


def _kernel_fcfs_finite(a, rng_service, mu, capacity, horizon, drain):
    n = len(a)
    s_all = rng_service.exponential(1.0 / mu, size=n)
    svc_idx = 0
    queue = []                  # generation times of waiting packets
    in_service = None           # (gen_time, service_start, completion)
    deliveries_t = []
    deliveries_u = []
    busy_s = []
    busy_e = []
    admitted = []
    drops = 0
    i = 0
    while True:
        next_arrival = a[i] if i < n else math.inf
        next_departure = in_service[2] if in_service else math.inf
        t = min(next_arrival, next_departure)
        if t == math.inf:
            break
        if not drain and t > horizon:
            break
        if next_departure <= next_arrival:
            gen, start, dep = in_service
            deliveries_t.append(dep)
            deliveries_u.append(gen)
            busy_s.append(start)
            busy_e.append(dep)
            if queue:
                gen2 = queue.pop(0)
                dur = s_all[svc_idx]
                svc_idx += 1
                in_service = (gen2, dep, dep + dur)
            else:
                in_service = None
        else:
            size = (1 if in_service else 0) + len(queue)
            if size >= capacity:
                drops += 1
            elif in_service is None:
                dur = s_all[svc_idx]
                svc_idx += 1
                in_service = (t, t, t + dur)
                admitted.append(t)
            else:
                queue.append(t)
                admitted.append(t)
            i += 1
    if not drain and in_service is not None and in_service[2] > horizon:
        # partially served work up to the horizon still burns energy
        busy_s.append(in_service[1])
        busy_e.append(horizon)
    return (np.asarray(deliveries_t), np.asarray(deliveries_u), 0, drops,
            np.asarray(busy_s), np.asarray(busy_e), np.asarray(admitted))
