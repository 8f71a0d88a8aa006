"""Seeded discrete-event simulation of the two status-update disciplines.

The event dynamics are computed from exact per-packet recursions instead
of a heap-based loop: for FCFS the departure times follow the Lindley
recursion d_i = max(a_i, d_{i-1}) + s_i, and for preemptive LCFS a packet
completes exactly when its service draw finishes before the next arrival.
A finite buffer admits an arrival only while fewer than `buffer` earlier
packets are still in the system, and an admitted packet then follows the
same recursion.  This is the same sample path a conventional event loop
would produce.

`run` streams the arrivals in fixed chunks of 2**16: it draws one chunk
of arrivals and their service times, runs the discipline's kernel on it,
and adds the chunk's share of the age integral, the slot counts and the
slot emissions before it draws the next.  Each kernel carries its state
across chunks (the FCFS service sum and Lindley max, the LCFS arrival
whose successor is not drawn yet, the departures still in a finite
buffer), so memory does not grow with the number of arrivals, except
that `keep_events` keeps every arrival and delivery.  The chunk size is
part of the seeded sample-path contract: arrival, service, delivery and
slot outputs do not depend on it, but the age integral is summed chunk
by chunk, so another size changes the last digits of the mean age.
A kernel yields each chunk's uncut sample path, and `run` alone applies
the horizon: without drain, nothing is delivered after it, and work in
service at the horizon is charged only up to it.  Emissions use the
profile's own arrays (CiProfile.values_at, integral_to), and the slot
grams go into the CarbonLedger as float64 arrays.

Randomness: the seed feeds a SeedSequence whose first spawned child
drives interarrival draws and whose second drives service draws.  The
service stream is consumed once per admitted packet, in admission order,
so rejected arrivals do not perturb it.

The age process starts at zero (a fresh update is assumed delivered at
t = 0), grows at slope one, and drops to t - u whenever a packet
generated at u is delivered.  Statistics cover [warmup, horizon] only.
"""

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .carbon import MAX_SLOTS, CarbonLedger, CiProfile, EnergyModel, J_PER_KWH, slot_count
from .errors import ConfigError, DomainError
from .queueing import Discipline, QueueSpec

_CHUNK = 1 << 16                # arrivals per chunk; see the module docstring
_MAX_EVENT_ARRIVALS = 10 ** 7   # keep_events cap on expected arrivals, lam * horizon


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

    Memory grows with the run only through the slot grid and keep_events,
    so both are capped before anything is allocated: at most 10**7 slots,
    and with keep_events at most 10**7 expected arrivals (lam * horizon).
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
        n = slot_count(self.horizon, slot)
        if not n:
            raise ConfigError(f"slot length {slot} does not tile horizon {self.horizon}")
        if n > MAX_SLOTS:
            raise ConfigError(f"{self.horizon / slot:.6g} slots exceed the cap of {MAX_SLOTS}; "
                              "use a longer slot")
        if self.buffer is not None and self.buffer < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {self.buffer}")
        expected = self.spec.lam * self.horizon
        if self.keep_events and expected > _MAX_EVENT_ARRIVALS:
            raise ConfigError(
                f"keeping events of {expected:.6g} expected arrivals exceeds the cap "
                f"of {_MAX_EVENT_ARRIVALS}; shorten the horizon"
            )

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
    ci95_halfwidth: float | None    # None for one replication
    mean_a: float
    mean_cf_g: float
    traces: list


def _arrival_chunks(rng: np.random.Generator, lam: float, horizon: float):
    """Yield the arrival times below the horizon, _CHUNK draws at a time.

    Each chunk's running sum starts from the last time of the chunk
    before, so the times equal one running sum over all the gaps.
    """
    t = 0.0
    while True:
        a = rng.exponential(1.0 / lam, size=_CHUNK)
        a[0] += t
        np.cumsum(a, out=a)
        if a[-1] < horizon:
            yield a
            t = float(a[-1])
            continue
        end = int(np.searchsorted(a, horizon))
        if end:
            yield a[:end]
        return


class _Out(NamedTuple):
    """One kernel step, uncut at the horizon: deliveries, busy intervals up
    to their natural end, and charged arrivals."""

    d: np.ndarray               # delivery times, ascending
    u: np.ndarray               # generation times of those deliveries
    busy_start: np.ndarray
    busy_end: np.ndarray        # ascending; every delivery is one of them
    admitted: np.ndarray        # arrival times charged in arrival mode
    preemptions: int = 0
    drops: int = 0


def _fcfs(chunks, rng_service, mu):
    """Unbounded FCFS: d_i = S_i + max_{j<=i} (a_j - S_{j-1}), where S is
    the running service sum.  S and the running max carry across chunks."""
    total, peak = 0.0, -math.inf
    for a in chunks:
        s = rng_service.exponential(1.0 / mu, size=len(a))
        run_sum = s.copy()
        run_sum[0] += total
        np.cumsum(run_sum, out=run_sum)
        offsets = a - (run_sum - s)
        offsets[0] = max(offsets[0], peak)
        np.maximum.accumulate(offsets, out=offsets)
        total, peak = float(run_sum[-1]), float(offsets[-1])
        d = run_sum + offsets
        yield _Out(d, a, d - s, d, a)


def _lcfs(chunks, rng_service, mu):
    """Preemptive LCFS: a packet completes iff a + s beats the next arrival.
    The last arrival of each chunk waits for the next chunk's first."""

    def settle(a, s, next_a):
        c = a + s
        completed = c < next_a      # else preempted at the next arrival
        return _Out(c[completed], a[completed], a, np.minimum(c, next_a), a,
                    preemptions=len(a) - int(completed.sum()))

    held_a = held_s = np.empty(0)
    for a in chunks:
        s = rng_service.exponential(1.0 / mu, size=len(a))
        a = np.concatenate((held_a, a))
        s = np.concatenate((held_s, s))
        held_a, held_s = a[-1:].copy(), s[-1:].copy()
        yield settle(a[:-1], s[:-1], a[1:])
    yield settle(held_a, held_s, np.full(len(held_a), math.inf))


def _fcfs_finite(chunks, rng_service, mu, capacity):
    """FCFS with room for `capacity` packets, the one in service included.

    An arrival finds in the system the admitted packets that depart after
    it (a departure at the same instant leaves first).  If there are fewer
    than capacity, it is admitted, starts at max(a, d_prev) and departs
    at start + s.  The departures still in the system carry across chunks,
    and service draws are taken in _CHUNK blocks as admissions use them.
    """
    system = deque()            # departures of the packets in the system
    last = -math.inf            # departure of the last admitted packet
    pool, k = [], 0
    for a in chunks:
        admitted, starts, deps = [], [], []
        drops = 0
        for t in a.tolist():
            while system and system[0] <= t:
                system.popleft()
            if len(system) >= capacity:
                drops += 1
                continue
            if k == len(pool):
                pool, k = rng_service.exponential(1.0 / mu, size=_CHUNK).tolist(), 0
            start = last if last > t else t
            last = start + pool[k]
            k += 1
            system.append(last)
            admitted.append(t)
            starts.append(start)
            deps.append(last)
        admitted = np.array(admitted, dtype=float)
        d = np.array(deps, dtype=float)
        yield _Out(d, admitted, np.array(starts, dtype=float), d, admitted, drops=drops)


class _AgeIntegral:
    """Running integral of the age over [warmup, horizon], fed deliveries
    (times d, origins u) in ascending order, one chunk at a time."""

    def __init__(self, warmup: float, horizon: float):
        self.warmup = warmup
        self.horizon = horizon
        self.t = warmup         # last delivery in the window, or warmup
        self.anchor = 0.0       # origin of the last delivery, or 0
        self.area = 0.0

    def add(self, d: np.ndarray, u: np.ndarray) -> None:
        i0 = int(np.searchsorted(d, self.warmup, side="right"))
        i1 = int(np.searchsorted(d, self.horizon, side="right"))
        if i0 > 0:
            self.anchor = float(u[i0 - 1])
        if i1 <= i0:
            return
        t1 = d[i0:i1]
        t0 = np.empty_like(t1)
        t0[0] = self.t
        t0[1:] = t1[:-1]
        anchors = np.empty_like(t1)
        anchors[0] = self.anchor
        anchors[1:] = u[i0:i1 - 1]
        self.area += float(np.sum((t1 - t0) * (0.5 * (t0 + t1) - anchors)))
        self.t = float(t1[-1])
        self.anchor = float(u[i1 - 1])

    def result(self):
        """(time-average age, age at the horizon)."""
        t0, t1 = self.t, self.horizon
        area = self.area + (t1 - t0) * (0.5 * (t0 + t1) - self.anchor)
        return area / (t1 - self.warmup), t1 - self.anchor


class _SlotSums:
    """Per-slot sums over right-open slots.  The final in-horizon slot is
    closed at the horizon, and drained events past it extend the grid."""

    def __init__(self, slot: float, n_slots: int, horizon: float, dtype):
        self.slot = slot
        self.n_slots = n_slots
        self.horizon = horizon
        self.sums = np.zeros(n_slots, dtype)

    def add(self, times: np.ndarray, weights) -> None:
        if not len(times):
            return
        idx = np.floor(times / self.slot).astype(np.int64)
        top = int(idx.max())
        if top >= self.n_slots:
            idx[(times <= self.horizon) & (idx >= self.n_slots)] = self.n_slots - 1
            top = int(idx.max())
        grow = top + 1 - len(self.sums)
        if grow > 0:
            self.sums = np.concatenate((self.sums, np.zeros(grow, self.sums.dtype)))
        # add.at adds in event order, so no slot sum depends on the chunk size.
        np.add.at(self.sums, idx, weights)


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
    horizon = config.horizon
    arrivals = 0
    drawn = []                  # arrival chunks, kept for keep_events only

    def arrival_stream():
        nonlocal arrivals
        for a in _arrival_chunks(rng_arrival, spec.lam, horizon):
            arrivals += len(a)
            if config.keep_events:
                drawn.append(a)
            yield a

    if spec.discipline is Discipline.LCFS_PREEMPTIVE:
        steps = _lcfs(arrival_stream(), rng_service, spec.mu)
    elif config.buffer is None:
        steps = _fcfs(arrival_stream(), rng_service, spec.mu)
    else:
        steps = _fcfs_finite(arrival_stream(), rng_service, spec.mu, config.buffer)

    slot = config.effective_slot
    n_slots = slot_count(horizon, slot)
    age = _AgeIntegral(config.effective_warmup, horizon)
    counts = _SlotSums(slot, n_slots, horizon, np.int64)
    grams = _SlotSums(slot, n_slots, horizon, np.float64)
    ep_kwh = energy.e_p_kwh()
    completions = preemptions = drops = 0
    delivered = []              # (d, u) per step, kept for keep_events only
    for out in steps:
        if not config.drain and len(out.busy_end) and out.busy_end[-1] > horizon:
            # Nothing is delivered after the horizon, and work then in service
            # is charged up to it; work that would start later never starts.
            keep = out.d <= horizon
            busy = out.busy_start < horizon
            out = out._replace(d=out.d[keep], u=out.u[keep], busy_start=out.busy_start[busy],
                               busy_end=np.minimum(out.busy_end[busy], horizon))
        age.add(out.d, out.u)
        counts.add(out.d, 1)
        if config.cf_mode is CfMode.ARRIVAL_CHARGED:
            grams.add(out.admitted, profile.values_at(out.admitted) * ep_kwh)
        elif config.cf_mode is CfMode.COMPLETION_CHARGED:
            grams.add(out.d, profile.values_at(out.d) * ep_kwh)
        else:
            burned = profile.integral_to(out.busy_end) - profile.integral_to(out.busy_start)
            grams.add(out.busy_end, burned * (energy.p_t / J_PER_KWH))
        completions += len(out.d)
        preemptions += out.preemptions
        drops += out.drops
        if config.keep_events:
            delivered.append((out.d, out.u))

    time_avg, final_age = age.result()
    ledger = CarbonLedger((np.arange(len(grams.sums)) + 1) * slot, grams.sums)
    events = {}
    if config.keep_events:
        events = {
            "arrival_times": np.concatenate([np.empty(0)] + drawn),
            "delivery_times": np.concatenate([np.empty(0)] + [d for d, _ in delivered]),
            "delivery_gen_times": np.concatenate([np.empty(0)] + [u for _, u in delivered]),
        }
    return SimulationTrace(
        time_avg_aoi=time_avg,
        final_age=final_age,
        n_tx_per_slot=counts.sums,
        slot_length=slot,
        horizon=horizon,
        empirical_a=completions / arrivals if arrivals else 1.0,
        ledger=ledger,
        arrivals=arrivals,
        completions=completions,
        preemptions=preemptions,
        drops=drops,
        **events,
    )


# Two-sided 95% Student-t quantiles t(0.975, df) at the listed df.
_T975 = (
    (1, 12.7062047), (2, 4.30265273), (3, 3.18244631), (4, 2.77644511),
    (5, 2.57058184), (6, 2.44691185), (7, 2.36462425), (8, 2.30600414),
    (9, 2.26215716), (10, 2.22813885), (11, 2.20098516), (12, 2.17881283),
    (13, 2.16036866), (14, 2.14478669), (15, 2.13144955), (16, 2.11990530),
    (17, 2.10981558), (18, 2.10092204), (19, 2.09302405), (20, 2.08596345),
    (25, 2.05953855), (30, 2.04227246), (40, 2.02107539), (60, 2.00029782),
    (120, 1.97993041),
)
_T975_DF = [df for df, _ in _T975]


def _t975(df: int) -> float:
    """t(0.975, df) from the table, read at the largest listed df <= df.

    The quantile falls as df grows, so a df between rows gets the larger,
    conservative value.
    """
    return _T975[bisect_right(_T975_DF, df) - 1][1]


def replicate(config: SimConfig, profile: CiProfile, energy: EnergyModel,
              n_reps: int) -> ReplicationSummary:
    """Run n_reps >= 1 independent replications seeded seed, seed+1, ...

    The 95% halfwidth is the Student-t interval t(0.975, n-1) * s / sqrt(n),
    and None for one replication, which has no spread to measure.
    keep_events applies to the first replication only: traces[1:] carry no
    events, so their memory does not grow with the run.
    """
    if n_reps < 1:
        raise DomainError(f"need at least 1 replication, got {n_reps}")
    traces = []
    for r in range(n_reps):
        rep = replace(config, seed=config.seed + r, keep_events=config.keep_events and r == 0)
        traces.append(run(rep, profile, energy))
    aois = [t.time_avg_aoi for t in traces]
    mean = sum(aois) / n_reps
    half = None
    if n_reps > 1:
        var = sum((x - mean) ** 2 for x in aois) / (n_reps - 1)
        half = _t975(n_reps - 1) * math.sqrt(var / n_reps)
    mean_a = sum(t.empirical_a for t in traces) / n_reps
    mean_cf = sum(t.ledger.total for t in traces) / n_reps
    return ReplicationSummary(mean, half, mean_a, mean_cf, traces)
