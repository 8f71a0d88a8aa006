"""Seeded discrete-event simulation of the two status-update disciplines.

The event dynamics are computed from exact per-packet recursions instead
of a heap-based loop: for FCFS the departure times follow the Lindley
recursion d_i = max(a_i, d_{i-1}) + s_i, and for preemptive LCFS a packet
completes exactly when its service draw finishes before the next arrival.
This is the same sample path a conventional event loop would produce and
keeps million-arrival validation runs cheap.  A sequential kernel covers
the finite-buffer case, whose admission decisions are state-dependent.

Randomness: the seed feeds a SeedSequence whose first spawned child
drives interarrival draws and whose second drives service draws.  The
service stream is consumed once per admitted packet, in admission order,
so rejected arrivals do not perturb it.

The age process starts at zero (a fresh update is assumed delivered at
t = 0), grows at slope one, and drops to t - u whenever a packet
generated at u is delivered.  Statistics cover [warmup, horizon] only.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .carbon import CarbonLedger, CiProfile, EnergyModel, J_PER_KWH
from .errors import ConfigError, DomainError
from .queueing import Discipline, QueueSpec


class CfMode(Enum):
    """Where the ledger charges per-packet emissions.

    arrival_charged books xi(t_arrival) * E_p for every admitted arrival,
    matching the long-run accounting that counts offered packets; packets
    rejected by a full buffer are never transmitted and cost nothing.
    completion_charged books the same energy at delivery instants instead.
    service_time_charged integrates p_t * xi over actual busy time, so
    partially served work that was preempted still costs energy.
    """

    ARRIVAL_CHARGED = "arrival"
    COMPLETION_CHARGED = "completion"
    SERVICE_TIME_CHARGED = "service_time"


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    buffer is the system capacity including the packet in service; None
    means unbounded.  The preemptive discipline holds at most one packet
    by construction, so buffer is ignored there.  drain lets the server
    finish admitted work after arrivals stop at the horizon; statistics
    still cover [warmup, horizon] but counts and the ledger include the
    drained work.
    """

    spec: QueueSpec
    horizon: float
    seed: int
    warmup: float | None = None         # None -> 1% of horizon
    slot_length: float | None = None    # None -> horizon / 1000
    cf_mode: CfMode = CfMode.ARRIVAL_CHARGED
    buffer: int | None = None
    drain: bool = False
    keep_events: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        if self.warmup is not None and not (0 <= self.warmup < self.horizon):
            raise ConfigError(f"warmup must lie in [0, horizon), got {self.warmup}")
        slot = self.effective_slot
        n = self.horizon / slot
        if n < 1 or abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(
                f"slot length {slot} does not tile horizon {self.horizon}"
            )
        if self.buffer is not None and self.buffer < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {self.buffer}")

    @property
    def effective_warmup(self) -> float:
        return 0.01 * self.horizon if self.warmup is None else self.warmup

    @property
    def effective_slot(self) -> float:
        return self.horizon / 1000.0 if self.slot_length is None else self.slot_length


@dataclass
class SimulationTrace:
    """Summary of one run."""

    time_avg_aoi: float
    final_age: float
    n_tx_per_slot: np.ndarray
    slot_length: float
    horizon: float
    empirical_a: float
    ledger: CarbonLedger
    arrivals: int
    completions: int
    preemptions: int
    drops: int
    arrival_times: np.ndarray | None = None
    delivery_times: np.ndarray | None = None
    delivery_gen_times: np.ndarray | None = None


@dataclass
class ReplicationSummary:
    """Aggregate over independent replications (seed, seed+1, ...)."""

    mean_aoi: float
    ci95_halfwidth: float
    mean_a: float
    mean_cf_g: float
    traces: list


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


def _slot_bincount(times: np.ndarray, weights, slot: float, n_slots: int,
                   horizon: float):
    """Bin event times into right-open slots; the final in-horizon slot is
    closed at the horizon, and drained events past it extend the grid."""
    idx = np.floor(times / slot).astype(np.int64)
    clamp = (times <= horizon) & (idx >= n_slots)
    idx[clamp] = n_slots - 1
    length = max(n_slots, int(idx.max()) + 1 if len(idx) else 0)
    return np.bincount(idx, weights=weights, minlength=length)


def run(config: SimConfig, profile: CiProfile, energy: EnergyModel) -> SimulationTrace:
    """Simulate one seeded sample path and summarize it."""
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
    entry_times = (np.arange(len(slot_grams)) + 1) * slot
    ledger = CarbonLedger(entry_times.tolist(), slot_grams.tolist())

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
        arrival_times=a if config.keep_events else None,
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


def replicate(config: SimConfig, profile: CiProfile, energy: EnergyModel,
              n_reps: int) -> ReplicationSummary:
    """Run n_reps independent replications seeded seed, seed+1, ...

    The 95% halfwidth uses the normal approximation 1.96 * s / sqrt(n).
    """
    if n_reps < 2:
        raise DomainError(f"need at least 2 replications, got {n_reps}")
    traces = []
    for r in range(n_reps):
        traces.append(run(replace(config, seed=config.seed + r), profile, energy))
    aois = [t.time_avg_aoi for t in traces]
    mean = sum(aois) / n_reps
    var = sum((x - mean) ** 2 for x in aois) / (n_reps - 1)
    half = 1.96 * math.sqrt(var / n_reps)
    mean_a = sum(t.empirical_a for t in traces) / n_reps
    mean_cf = sum(t.ledger.total for t in traces) / n_reps
    return ReplicationSummary(mean, half, mean_a, mean_cf, traces)


def empirical_packet_count_check(trace: SimulationTrace, lam: float, t_n: float) -> float:
    """Relative gap between binned transmissions and a_hat * lam * t_n."""
    if not (lam > 0 and t_n > 0):
        raise DomainError("lam and t_n must be positive")
    total = float(np.sum(trace.n_tx_per_slot))
    expected = trace.empirical_a * lam * t_n
    return abs(total - expected) / (lam * t_n)
