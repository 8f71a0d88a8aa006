"""Seeded discrete-event simulation of the two status-update disciplines.

The event dynamics are computed from exact per-packet recursions instead
of a heap-based loop: for FCFS the departure times follow the Lindley
recursion d_i = max(a_i, d_{i-1}) + s_i, and for preemptive LCFS a packet
completes exactly when its service draw finishes before the next arrival.
A finite buffer admits an arrival only while fewer than `buffer` earlier
packets are still in the system, that is, unless the buffer-th last
admitted departure is after it, and an admitted packet then follows the
same recursion.  This is the same sample path a conventional event loop
would produce.

`run` streams the arrivals in fixed chunks of 2**16: it draws one chunk
of arrivals and their service times, runs the discipline's kernel on it,
and adds the chunk's share of the age integral, the slot counts and the
slot emissions before it draws the next.  Each kernel carries its state
across chunks (the FCFS service sum and Lindley max, the LCFS arrival
whose successor is not drawn yet, the recent departures of a finite
buffer), so memory does not grow with the number of arrivals, except
that `keep_events` keeps every arrival and delivery.  The chunk size is
part of the seeded sample-path contract: arrival, service, delivery and
slot outputs do not depend on it, but the age integral is summed chunk
by chunk, so another size changes the last digits of the mean age.
A kernel yields each chunk's uncut sample path, and `run` alone applies
the horizon: without drain, nothing is delivered after it, and work in
service at the horizon is charged only up to it.  Each generator in the
chain drops its arrays once its step is used, and the busy intervals are
built only for service-time charging, so a run of 2**20 arrivals charged
at arrival peaks near five chunk arrays (tracemalloc).  Emissions use the
profile's own arrays (CiProfile.values_at, integral_to), and the slot
grams go into the CarbonLedger as float64 arrays.

`replicate` runs its replications concurrently, on the calling thread
and one helper thread per further usable core, and gives the outputs of
a sequential loop bit for bit whatever the core count; each concurrent
replication adds about one run's working set to the peak memory.

Randomness: the seed feeds a SeedSequence whose first spawned child
drives interarrival draws and whose second drives service draws.  The
service stream is consumed once per admitted packet, in admission order,
so rejected arrivals do not perturb it.

The age process starts at zero (a fresh update is assumed delivered at
t = 0), grows at slope one, and drops to t - u whenever a packet
generated at u is delivered.  Statistics cover [warmup, horizon] only.
"""

import math
import os
import sys
import threading
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .carbon import MAX_SLOTS, CarbonLedger, CiProfile, EnergyModel, J_PER_KWH, slot_count
from .errors import ConfigError, DomainError
from .queueing import Discipline, QueueSpec

_CHUNK = 1 << 16                # arrivals per chunk; see the module docstring
_MAX_EVENT_ARRIVALS = 10 ** 7   # keep_events cap on expected arrivals, lam * horizon
_MAX_REPS = 10 ** 4             # replicate's cap on replications; see replicate


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

    seed is a non-negative integer, as numpy's SeedSequence takes.  buffer
    is the system capacity including the packet in service, an integer
    >= 1; None means unbounded.  The preemptive discipline holds at most
    one packet by construction, so buffer is ignored there.  drain lets
    the server finish admitted work after arrivals stop at the horizon;
    statistics still cover [warmup, horizon] but counts and the ledger
    include the drained work.

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
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
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
        if self.buffer is not None and not (isinstance(self.buffer, (int, np.integer))
                                            and self.buffer >= 1):
            raise ConfigError(f"buffer capacity must be an integer >= 1, got {self.buffer!r}")
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
    """Aggregate over independent replications (seed, seed+1, ...).

    traces[r] is the replication seeded seed + r, and the means and the
    halfwidth are summed in that order, so they do not depend on how
    many replications ran at once.
    """

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
        if a[-1] >= horizon:
            end = int(np.searchsorted(a, horizon))
            if end:
                yield a[:end]
            return
        t = float(a[-1])
        yield a
        del a           # before the next chunk is drawn


class _Out(NamedTuple):
    """One kernel step, uncut at the horizon: deliveries, charged arrivals
    and the busy intervals up to their natural end.  Only service-time
    charging reads the busy intervals, so the kernels build them only when
    asked and a step of the other modes holds two arrays fewer."""

    d: np.ndarray               # delivery times, ascending
    u: np.ndarray               # generation times of those deliveries
    admitted: np.ndarray        # arrival times charged in arrival mode, ascending
    busy_start: np.ndarray | None = None
    busy_end: np.ndarray | None = None      # ascending; every delivery is one of them
    preemptions: int = 0
    drops: int = 0


def _fcfs(chunks, rng_service, mu, busy):
    """Unbounded FCFS: d_i = S_i + max_{j<=i} (a_j - S_{j-1}), where S is
    the running service sum.  S and the running max carry across chunks.

    The offsets become the departures in place and, for service-time
    charging, the service draws become the busy starts.
    """
    total, peak = 0.0, -math.inf
    for a in chunks:
        s = rng_service.exponential(1.0 / mu, size=len(a))
        run_sum = s.copy()
        run_sum[0] += total
        np.cumsum(run_sum, out=run_sum)
        d = np.subtract(run_sum, s)     # S_{i-1}
        np.subtract(a, d, out=d)        # the offsets
        d[0] = max(d[0], peak)
        np.maximum.accumulate(d, out=d)
        total, peak = float(run_sum[-1]), float(d[-1])
        d += run_sum
        del run_sum
        s = np.subtract(d, s, out=s) if busy else None
        yield _Out(d, a, a, s, d if busy else None)
        del a, s, d     # before the next chunk is drawn


def _lcfs(chunks, rng_service, mu, busy):
    """Preemptive LCFS: a packet completes iff a + s beats the next arrival.
    The last arrival of each chunk waits for the next chunk's first, but
    every arrival is charged in its own chunk's step."""

    def settle(a, c, next_a, admitted):
        completed = c < next_a      # else preempted at the next arrival
        d = c[completed]
        return _Out(d, a[completed], admitted, a if busy else None,
                    np.minimum(c, next_a, out=c) if busy else None,
                    preemptions=len(a) - len(d))

    held_a = held_c = np.empty(0)
    for a in chunks:
        c = rng_service.exponential(1.0 / mu, size=len(a))
        c += a                      # completion if not preempted
        joined = np.concatenate((held_a, a))
        c = np.concatenate((held_c, c))
        held_a, held_c = joined[-1:].copy(), c[-1:].copy()
        out = settle(joined[:-1], c[:-1], joined[1:], a)
        del joined, c
        yield out
        del a, out      # before the next chunk is drawn
    yield settle(held_a, held_c, np.full(len(held_a), math.inf), held_a[:0])


def _fcfs_finite(chunks, rng_service, mu, busy, capacity):
    """FCFS with room for `capacity` packets, the one in service included.

    Packets depart in admission order, so an arrival at t is dropped iff
    the capacity-th last admitted departure is after t (one at the same
    instant leaves first).  `recent` holds the last capacity departures,
    less any before the chunk's first arrival.  An admitted packet starts
    at max(t, last) and departs s later, s drawn in _CHUNK blocks as needed.
    """
    recent = deque(maxlen=min(capacity, sys.maxsize))
    service = chain.from_iterable(rng_service.exponential(1.0 / mu, size=_CHUNK).tolist()
                                  for _ in repeat(None))
    last = -math.inf            # departure of the last admitted packet
    for a in chunks:
        first = last
        while recent and recent[0] <= a[0]:
            recent.popleft()
        admitted, deps = [], []
        for t in a.tolist():
            if len(recent) == capacity and recent[0] > t:
                continue
            last = (last if last > t else t) + next(service)
            recent.append(last)
            admitted.append(t)
            deps.append(last)
        admitted = np.array(admitted, dtype=float)
        d = np.array(deps, dtype=float)
        del deps
        starts = np.maximum(admitted, np.append(first, d[:-1])) if busy else None
        yield _Out(d, admitted, admitted, starts, d if busy else None,
                   drops=len(a) - len(d))
        del a, admitted, starts, d  # before the next chunk is drawn


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
        # The area of each step, (t1 - t0) * (0.5 * (t0 + t1) - anchor),
        # in two buffers.
        t1 = d[i0:i1]
        mid = np.empty_like(t1)
        mid[0] = self.t
        mid[1:] = t1[:-1]
        width = np.subtract(t1, mid)
        mid += t1
        mid *= 0.5
        mid[0] -= self.anchor
        mid[1:] -= u[i0:i1 - 1]
        width *= mid
        self.area += float(np.sum(width))
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

    def add(self, times: np.ndarray, weights=None) -> None:
        """Add weights at times, or count the times when weights is None."""
        if not len(times):
            return
        # Times are non-negative, so the cast's truncation is the floor.
        idx = np.divide(times, self.slot, out=np.empty(len(times), np.int64),
                        casting="unsafe")
        top = int(idx.max())
        if top >= self.n_slots:
            idx[(times <= self.horizon) & (idx >= self.n_slots)] = self.n_slots - 1
            top = int(idx.max())
        grow = top + 1 - len(self.sums)
        if grow > 0:
            self.sums = np.concatenate((self.sums, np.zeros(grow, self.sums.dtype)))
        if weights is None:
            lo = int(idx.min())
            idx -= lo
            counts = np.bincount(idx)
            self.sums[lo:lo + len(counts)] += counts
        else:
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
            del a       # before the next chunk is drawn

    busy = config.cf_mode is CfMode.SERVICE_TIME_CHARGED
    if spec.discipline is Discipline.LCFS_PREEMPTIVE:
        steps = _lcfs(arrival_stream(), rng_service, spec.mu, busy)
    elif config.buffer is None:
        steps = _fcfs(arrival_stream(), rng_service, spec.mu, busy)
    else:
        steps = _fcfs_finite(arrival_stream(), rng_service, spec.mu, busy, config.buffer)

    slot = config.effective_slot
    n_slots = slot_count(horizon, slot)
    age = _AgeIntegral(config.effective_warmup, horizon)
    counts = _SlotSums(slot, n_slots, horizon, np.int64)
    grams = _SlotSums(slot, n_slots, horizon, np.float64)
    ep_kwh = energy.e_p_kwh()
    completions = preemptions = drops = 0
    delivered = []              # (d, u) per step, kept for keep_events only
    for out in steps:
        last = out.busy_end if busy else out.d
        if not config.drain and len(last) and last[-1] > horizon:
            # Nothing is delivered after the horizon, and work then in service
            # is charged up to it; work that would start later never starts.
            keep = out.d <= horizon
            out = out._replace(d=out.d[keep], u=out.u[keep])
            if busy:
                started = out.busy_start < horizon
                out = out._replace(busy_start=out.busy_start[started],
                                   busy_end=np.minimum(out.busy_end[started], horizon))
        age.add(out.d, out.u)
        counts.add(out.d)
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
        del out, last   # before the next chunk is drawn

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


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replicate(config: SimConfig, profile: CiProfile, energy: EnergyModel,
              n_reps: int) -> ReplicationSummary:
    """Run n_reps >= 1 independent replications seeded seed, seed+1, ...

    The replications run concurrently: the calling thread and up to one
    helper thread per further usable core take them in index order, and
    each trace is stored at its index, so every output is the one a
    sequential loop gives, whatever the core count.  numpy releases the
    GIL in the draws and kernels, and each concurrent replication adds
    about one run's working set to the peak memory.  If a replication
    fails, no further one starts, and the error of the lowest failing
    index is raised once every started replication has ended.

    The 95% halfwidth is the Student-t interval t(0.975, n-1) * s / sqrt(n),
    and None for one replication, which has no spread to measure.
    keep_events applies to the first replication only: traces[1:] carry no
    events, so their memory does not grow with the run.  Every trace keeps
    its slot arrays, so n_reps is capped before anything is allocated: at
    most 10**4 replications, and at most 10**7 slots over all of them
    (n_reps times the run's slot count).  A summary that kept per-run
    scalars instead of traces would lift the second cap.
    """
    if n_reps < 1:
        raise DomainError(f"need at least 1 replication, got {n_reps}")
    if n_reps > _MAX_REPS:
        raise DomainError(f"{n_reps} replications exceed the cap of {_MAX_REPS}")
    slots = n_reps * slot_count(config.horizon, config.effective_slot)
    if slots > MAX_SLOTS:
        raise DomainError(f"{n_reps} replications keep {slots} slots, over the cap of "
                          f"{MAX_SLOTS}; use fewer replications or a longer slot")
    traces = [None] * n_reps
    errors = {}
    pending = iter(range(n_reps))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                r = None if errors else next(pending, None)
            if r is None:
                return
            rep = replace(config, seed=config.seed + r, keep_events=config.keep_events and r == 0)
            try:
                traces[r] = run(rep, profile, energy)
            except BaseException as exc:
                with lock:
                    errors[r] = exc
                return

    # The calling thread takes a share itself: each thread's allocator
    # arena keeps its own high-water mark, so a thread costs memory.
    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(n_reps, _usable_cores()) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    aois = [t.time_avg_aoi for t in traces]
    mean = sum(aois) / n_reps
    half = None
    if n_reps > 1:
        var = sum((x - mean) ** 2 for x in aois) / (n_reps - 1)
        half = _t975(n_reps - 1) * math.sqrt(var / n_reps)
    mean_a = sum(t.empirical_a for t in traces) / n_reps
    mean_cf = sum(t.ledger.total for t in traces) / n_reps
    return ReplicationSummary(mean, half, mean_a, mean_cf, traces)
