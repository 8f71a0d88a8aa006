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
that `keep_events` keeps every delivery.  The chunk size is part of the
seeded sample-path contract: arrival, service, delivery and slot
outputs do not depend on it, but the age integral is summed chunk by
chunk, so another size changes the last digits of the mean age.
A kernel yields each chunk's uncut sample path, and `run` alone applies
the horizon: without drain, nothing is delivered after it, and work in
service at the horizon is charged only up to it.

A run owns its chunk buffers: the arrival stream, each kernel and the
age, charge and slot stages allocate their arrays once per run, one
chunk long, and write every chunk into them with out= (a short run
leaves most pages unwritten, never resident).  A run of 2**20 arrivals
peaks below nine chunk arrays in every cf mode (4.1 to 4.7 MB under
tracemalloc).  A kernel yields views that the next chunk overwrites, and
keep_events copies the deliveries.  Every stage's times ascend, so the
horizon cut is a slice, and a chunk's slot sums take one weighted
bincount plus an in-order cumsum onto the slot carried over.  The slot
counts and grams share one grid, which drained work extends for both;
the grams become the CarbonLedger uncopied.

`replicate` runs its replications concurrently and gives a sequential
loop's outputs bit for bit whatever the core count; only its first
replication keeps the config's slot grid and events.

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
# Cap on any run's expected arrivals, above the README's runs of 10**8 (10**9 take
# about 20 s); at lam = 1e300, gaps of 1e-300 s would need 10**303 draws: no end.
_MAX_ARRIVALS = 10 ** 10
_MAX_REPS = 10 ** 4             # replicate's cap on replications; see replicate
_BLOCK = 1 << 12                # arrivals per pass of the finite-buffer admission loop


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
    statistics still cover [warmup, horizon] but the slot counts and grams
    include the drained work, on one slot grid extended past the horizon.

    Memory grows with the run only through the slot grid and keep_events,
    which keeps every delivery and its origin but not the arrivals, so both
    are capped before anything is allocated: at most 10**7 slots, and with
    keep_events at most 10**7 expected arrivals (lam * horizon).  Time
    grows with the arrivals, so any run is capped at 10**10 of them.
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
        if not expected <= _MAX_ARRIVALS:
            raise ConfigError(f"{expected:.6g} expected arrivals exceed the cap of "
                              f"{_MAX_ARRIVALS}; shorten the horizon")

    @property
    def effective_warmup(self) -> float:
        return 0.01 * self.horizon if self.warmup is None else self.warmup

    @property
    def effective_slot(self) -> float:
        return self.horizon / 1000.0 if self.slot_length is None else self.slot_length


@dataclass
class SimulationTrace:
    """Summary of one run; n_tx_per_slot and ledger.grams share one slot grid."""

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
    delivery_times: np.ndarray | None = None
    delivery_gen_times: np.ndarray | None = None


@dataclass
class ReplicationSummary:
    """Aggregate over independent replications (seed, seed+1, ...); only
    traces[0] has the config's slot grid and events (see replicate).  The
    means and the halfwidth are summed in index order, so they do not
    depend on how many replications ran at once.
    """

    mean_aoi: float
    ci95_halfwidth: float | None    # None for one replication
    mean_a: float
    mean_cf_g: float
    traces: list


def _exponential(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """rng.exponential(scale, len(out)), drawn into out: the same stream,
    bit for bit, since numpy scales each standard draw by scale."""
    rng.standard_exponential(out=out)
    out *= scale
    return out


def _arrival_chunks(rng: np.random.Generator, lam: float, horizon: float):
    """Yield the arrival times below the horizon, _CHUNK draws at a time.

    Each chunk t is a view of one buffer, valid until the next is drawn:
    t[1:] holds the chunk's arrivals and t[0] the last arrival before
    them (0 before the first chunk).  The running sum starts from t[0],
    so the times equal one running sum over all the gaps.  A chunk is
    drawn in pieces until it is full or past the horizon: the first sized
    by the expected arrivals left plus a Poisson margin, each further one
    twice the last, so a short run draws few gaps beyond its own.
    """
    buf = np.zeros(_CHUNK + 1)
    while True:
        e = lam * (horizon - buf[0])
        piece, n = int(min(e + 6 * math.sqrt(e), _CHUNK)) + 16, 0
        while n < _CHUNK and buf[n] < horizon:
            k = min(piece, _CHUNK - n)
            _exponential(rng, 1.0 / lam, buf[n + 1:n + k + 1])
            np.cumsum(buf[n:n + k + 1], out=buf[n:n + k + 1])
            n, piece = n + k, 2 * piece
        if buf[n] >= horizon:
            end = int(np.searchsorted(buf[1:n + 1], horizon))
            if end:
                yield buf[:end + 1]
            return
        yield buf
        buf[0] = buf[-1]


class _Out(NamedTuple):
    """One kernel step, uncut at the horizon: deliveries, charged arrivals
    and the busy intervals up to their natural end, as views of the
    kernel's buffers that the next step overwrites.  Every step has its
    busy intervals: service-time charging prices them, and the horizon
    cut reads their last end."""

    d: np.ndarray               # delivery times, ascending
    u: np.ndarray               # generation times of those deliveries
    admitted: np.ndarray        # arrival times charged in arrival mode, ascending
    busy_start: np.ndarray      # ascending
    busy_end: np.ndarray        # ascending; every delivery is one of them
    preemptions: int = 0
    drops: int = 0


def _fcfs(chunks, rng_service, mu):
    """Unbounded FCFS: d_i = S_i + max_{j<=i} (a_j - S_{j-1}), where S is
    the running service sum.  S and the running max carry across chunks.

    s[0] and run_sum[0] hold the service sum before the chunk, so one
    cumsum gives S; the service draws, spent, become the busy starts.
    """
    s, run_sum, d = np.empty(_CHUNK + 1), np.empty(_CHUNK + 1), np.empty(_CHUNK)
    s[0], peak = 0.0, -math.inf
    for t in chunks:
        a = t[1:]
        n = len(a)
        draws = _exponential(rng_service, 1.0 / mu, s[1:n + 1])
        total = np.cumsum(s[:n + 1], out=run_sum[:n + 1])[1:]     # S_i
        dn = np.subtract(total, draws, out=d[:n])      # S_{i-1}
        np.subtract(a, dn, out=dn)                      # the offsets
        dn[0] = max(dn[0], peak)
        np.maximum.accumulate(dn, out=dn)
        peak = float(dn[-1])
        dn += total
        s[0] = total[-1]
        yield _Out(dn, a, a, np.subtract(dn, draws, out=draws), dn)


def _lcfs(chunks, rng_service, mu):
    """Preemptive LCFS: a packet completes iff a + s beats the next arrival.

    c[i] is the completion, if not preempted, of the packet that arrived
    at t[i], so the packets t[:-1] settle against their successors t[1:]
    in place; the chunk's last arrival waits in t[0] and c[0] for the
    next chunk's first.  Every arrival is charged in its own chunk's step.
    """
    c, ok = np.empty(_CHUNK + 1), np.empty(_CHUNK, bool)
    d, u = np.empty(_CHUNK), np.empty(_CHUNK)
    lo, held = 1, None              # before the first chunk, t[0] is no packet
    for t in chunks:
        n = len(t) - 1
        _exponential(rng_service, 1.0 / mu, c[1:n + 1])
        c[1:n + 1] += t[1:]
        # Else preempted.  np.compress(out=) would copy through two
        # temporaries; one index array serves both takes, and mode "clip"
        # writes straight into out.
        done = np.flatnonzero(np.less(c[lo:n], t[lo + 1:], out=ok[lo:n]))
        m = len(done)
        np.take(c[lo:n], done, out=d[:m], mode="clip")
        np.take(t[lo:n], done, out=u[:m], mode="clip")
        del done                # before the run's charge takes its own index
        yield _Out(d[:m], u[:m], t[1:], t[lo:n], np.minimum(c[lo:n], t[lo + 1:], out=c[lo:n]),
                   preemptions=n - lo - m)
        c[0], held, lo = c[n], t[n], 0
    if held is not None:            # the last arrival, with no successor
        d[0], u[0] = c[0], held
        yield _Out(d[:1], u[:1], t[:0], u[:1], d[:1])


def _fcfs_finite(chunks, rng_service, mu, capacity):
    """FCFS with room for `capacity` packets, the one in service included.

    Packets depart in admission order, so an arrival at t is dropped iff
    the capacity-th last admitted departure is after t (one at the same
    instant leaves first).  `recent` holds the last capacity departures,
    less any before the chunk's first arrival.  An admitted packet starts
    at max(t, last) and departs s later.  The admission loop runs in
    Python, over blocks of _BLOCK arrivals and service draws, so its lists
    stay small beside the run's buffers.
    deps[0] holds the last departure before the chunk, so deps[:-1] are
    the departures before each admitted packet.
    """
    draws, admitted, deps = np.empty(_BLOCK), np.empty(_CHUNK), np.empty(_CHUNK + 1)
    starts = np.empty(_CHUNK)
    recent = deque(maxlen=min(capacity, sys.maxsize))
    service = chain.from_iterable(_exponential(rng_service, 1.0 / mu, draws).tolist()
                                  for _ in repeat(None))
    last = -math.inf            # departure of the last admitted packet
    for t in chunks:
        a = t[1:]
        deps[0] = last
        while recent and recent[0] <= a[0]:
            recent.popleft()
        m = 0
        for lo in range(0, len(a), _BLOCK):
            times, ends = [], []
            for x in a[lo:lo + _BLOCK].tolist():
                if len(recent) == capacity and recent[0] > x:
                    continue
                last = (last if last > x else x) + next(service)
                recent.append(last)
                times.append(x)
                ends.append(last)
            k = len(ends)
            admitted[m:m + k], deps[m + 1:m + k + 1] = times, ends
            m += k
        d = deps[1:m + 1]
        np.maximum(admitted[:m], deps[:m], out=starts[:m])
        yield _Out(d, admitted[:m], admitted[:m], starts[:m], d, drops=len(a) - m)


class _AgeIntegral:
    """Running integral of the age over [warmup, horizon], fed deliveries
    (times d, origins u) in ascending order, one chunk at a time."""

    def __init__(self, warmup: float, horizon: float):
        self.warmup = warmup
        self.horizon = horizon
        self.t = warmup         # last delivery in the window, or warmup
        self.anchor = 0.0       # origin of the last delivery, or 0
        self.area = 0.0

    def add(self, d: np.ndarray, u: np.ndarray, mid: np.ndarray, width: np.ndarray) -> None:
        """Add the deliveries d, u, using mid and width, at least as long,
        as scratch."""
        i0 = int(np.searchsorted(d, self.warmup, side="right"))
        i1 = int(np.searchsorted(d, self.horizon, side="right"))
        if i0 > 0:
            self.anchor = float(u[i0 - 1])
        if i1 <= i0:
            return
        # The area of each step, (t1 - t0) * (0.5 * (t0 + t1) - anchor).
        t1 = d[i0:i1]
        mid = mid[:len(t1)]
        mid[0] = self.t
        mid[1:] = t1[:-1]
        width = np.subtract(t1, mid, out=width[:len(t1)])
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
    """Per-slot counts and grams on one grid of right-open slots.  The final
    in-horizon slot is closed at the horizon; drained events past it extend
    the grid of both, so a slot only one of them reaches reads 0 in the other.

    Events arrive in ascending time, so each add's slot indices ascend and
    every slot past its first is still empty: those slots take one
    bincount (or, for counts, searchsorted edges), and the first, which
    may carry a sum from the add before, one in-order cumsum onto it.
    Each slot's sum is thus added in event order, as np.add.at would, and
    does not depend on the chunk size.
    """

    def __init__(self, slot: float, n_slots: int, horizon: float):
        self.slot = slot
        self.n_slots = n_slots
        self.horizon = horizon
        self.counts = np.zeros(n_slots, np.int64)
        self.grams = np.zeros(n_slots)

    def add(self, times: np.ndarray, idx: np.ndarray, weights=None) -> None:
        """Add weights at ascending times to the grams, or count the times
        when weights is None.  idx, at least as long as times, is int64
        scratch; the weights are overwritten."""
        n = len(times)
        if not n:
            return
        # Times are non-negative, so the cast's truncation is the floor.
        idx = np.divide(times, self.slot, out=idx[:n], casting="unsafe")
        if idx[-1] >= self.n_slots:
            end = int(np.searchsorted(times, self.horizon, side="right"))
            np.minimum(idx[:end], self.n_slots - 1, out=idx[:end])
        lo, top = int(idx[0]), int(idx[-1])
        grow = top + 1 - len(self.counts)
        if grow > 0:
            self.counts = np.concatenate((self.counts, np.zeros(grow, np.int64)))
            self.grams = np.concatenate((self.grams, np.zeros(grow)))
        if weights is None:
            # ends[j]: the events up to slot lo + j, so slot lo + j holds
            # ends[j] - ends[j - 1] of them.
            ends = np.searchsorted(idx, np.arange(lo, top + 1), side="right")
            self.counts[lo:top + 1] += ends
            self.counts[lo + 1:top + 1] -= ends[:-1]
            return
        first = int(np.searchsorted(idx, lo, side="right"))
        weights[0] += self.grams[lo]
        self.grams[lo] = np.cumsum(weights[:first], out=weights[:first])[-1]
        if first < n:
            rest = idx[first:]
            rest -= lo + 1
            self.grams[lo + 1:top + 1] += np.bincount(rest, weights=weights[first:n])


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
    busy = config.cf_mode is CfMode.SERVICE_TIME_CHARGED
    if busy and not math.isfinite(profile.long_term_average):
        raise ConfigError("service-time charging subtracts integrals of the carbon intensity, "
                          f"which overflow over the profile horizon {profile.horizon}")

    arr_ss, svc_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng_service = np.random.default_rng(svc_ss)
    horizon = config.horizon
    chunks = _arrival_chunks(np.random.default_rng(arr_ss), spec.lam, horizon)
    if spec.discipline is Discipline.LCFS_PREEMPTIVE:
        steps = _lcfs(chunks, rng_service, spec.mu)
    elif config.buffer is None:
        steps = _fcfs(chunks, rng_service, spec.mu)
    else:
        steps = _fcfs_finite(chunks, rng_service, spec.mu, config.buffer)

    slot = config.effective_slot
    n_slots = slot_count(horizon, slot)
    age = _AgeIntegral(config.effective_warmup, horizon)
    slots = _SlotSums(slot, n_slots, horizon)
    ep_kwh = energy.e_p_kwh()
    # Scratch of the age integral, the charges and the slot indices; no step
    # holds more than a chunk.  The slot indices are dead between the counts
    # and the grams, so their bytes serve as the second integral's scratch.
    weights, scratch, idx = np.empty(_CHUNK), np.empty(_CHUNK), np.empty(_CHUNK, np.int64)
    spare = idx.view(np.float64)
    arrivals = completions = preemptions = drops = 0
    delivered = [(np.empty(0), np.empty(0))]    # copies of (d, u), for keep_events only
    for out in steps:
        # Each arrival is admitted or dropped in exactly one step.
        arrivals += len(out.admitted) + out.drops
        if not config.drain and len(out.busy_end) and out.busy_end[-1] > horizon:
            # Nothing is delivered after the horizon, and work then in service
            # is charged up to it; work that would start later never starts.
            # The times ascend, so each cut keeps a leading slice.
            kept = int(np.searchsorted(out.d, horizon, side="right"))
            started = int(np.searchsorted(out.busy_start, horizon))
            end = out.busy_end[:started]
            out = out._replace(d=out.d[:kept], u=out.u[:kept],
                               busy_start=out.busy_start[:started],
                               busy_end=np.minimum(end, horizon, out=end))
        age.add(out.d, out.u, weights, scratch)
        slots.add(out.d, idx)
        if busy:
            times = out.busy_end
            n = len(times)
            # The last step goes on past the horizon: a drained charge can overflow.
            with np.errstate(over="ignore", invalid="ignore"):
                charge = profile.integral_to(times, weights[:n], scratch[:n])
                charge -= profile.integral_to(out.busy_start, scratch[:n], spare[:n])
                charge *= energy.p_t / J_PER_KWH
        else:
            times = out.admitted if config.cf_mode is CfMode.ARRIVAL_CHARGED else out.d
            charge = profile.values_at(times, weights[:len(times)])
            charge *= ep_kwh
        slots.add(times, idx, charge)
        completions += len(out.d)
        preemptions += out.preemptions
        drops += out.drops
        if config.keep_events:
            delivered.append((out.d.copy(), out.u.copy()))

    # max propagates NaN, and builds no temporary.
    if busy and not math.isfinite(slots.grams.max()):
        raise ConfigError("service-time charging of drained work ran past the point where "
                          "the integral of the carbon intensity overflows")
    time_avg, final_age = age.result()
    slots.grams.flags.writeable = False     # so the ledger keeps it uncopied
    events = {}
    if config.keep_events:
        d, u = (np.concatenate(parts) for parts in zip(*delivered))
        events = {"delivery_times": d, "delivery_gen_times": u}
    return SimulationTrace(
        time_avg_aoi=time_avg,
        final_age=final_age,
        n_tx_per_slot=slots.counts,
        slot_length=slot,
        horizon=horizon,
        empirical_a=completions / arrivals if arrivals else 1.0,
        ledger=CarbonLedger(slots.grams),
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

    Only the first replication keeps detail: traces[0] runs config as
    given, and traces[r] for r >= 1 runs it seeded seed + r on the default
    slot grid (horizon / 1000) and without events.  The CLI writes the
    first trace's slots and events and reads only scalars of the rest, so
    a further replication holds about 16 kB, not a copy of a fine grid,
    and only the count is capped, at 10**4.  A ledger total depends on its
    grid in its last digits only.

    The replications run concurrently: the calling thread and up to one
    helper thread per further usable core take them in index order, and
    each trace is stored at its index, so every output is the one a
    sequential loop gives, whatever the core count.  numpy releases the
    GIL in the draws, the infinite-buffer kernels and the slot sums.  The
    finite buffer's admission loop (_fcfs_finite) is Python and holds it,
    so a finite-buffer config gains little from the helpers: at K = 10,
    rho = 0.5 and 10**6 arrivals, 2 replications take about twice one run
    with or without them.  Each concurrent replication adds one run's
    chunk buffers to the peak memory.  If one
    fails, no further one starts, and the error of the lowest failing
    index is raised once every started replication has ended.

    The 95% halfwidth is the Student-t interval t(0.975, n-1) * s / sqrt(n),
    and None for one replication, which has no spread to measure.
    """
    if not isinstance(n_reps, (int, np.integer)):
        raise DomainError(f"the replication count must be an integer, got {n_reps!r}")
    if n_reps < 1:
        raise DomainError(f"need at least 1 replication, got {n_reps}")
    if n_reps > _MAX_REPS:
        raise DomainError(f"{n_reps} replications exceed the cap of {_MAX_REPS}")
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
            rep = config if r == 0 else replace(config, seed=config.seed + r,
                                                keep_events=False, slot_length=None)
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
