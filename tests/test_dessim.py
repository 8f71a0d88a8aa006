import math
import sys
import threading
import time
import tracemalloc
from bisect import bisect_right
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from dessim_reference import reference_run
from hypothesis import given, settings
from hypothesis import strategies as st

from caoi import dessim
from caoi.carbon import J_PER_KWH, CarbonLedger, CiProfile, EnergyModel
from caoi.dessim import (
    CfMode,
    SimConfig,
    _arrival_chunks,
    _t975,
    replicate,
    run,
)
from caoi.errors import ConfigError, DomainError
from caoi.queueing import Discipline, QueueSpec

FLAT = CiProfile.constant(150.0, 1e8)
ENERGY = EnergyModel()


def cfg(discipline, lam, mu, horizon, seed, **kw):
    return SimConfig(spec=QueueSpec(discipline, lam, mu), horizon=horizon,
                     seed=seed, **kw)


def assert_same_trace(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        elif isinstance(x, CarbonLedger):
            assert np.array_equal(x.times, y.times) and np.array_equal(x.grams, y.grams)
        else:
            assert x == y, f.name


def replay_streams(lam, mu, horizon, seed):
    """Re-derive the exact arrival times and service stream of a run."""
    ss = np.random.SeedSequence(seed)
    arr_ss, svc_ss = ss.spawn(2)
    a = np.concatenate(list(_arrival_chunks(np.random.default_rng(arr_ss), lam, horizon)))
    rng_service = np.random.default_rng(svc_ss)
    return a, rng_service


def naive_fcfs(a, s):
    d = []
    prev = 0.0
    for ai, si in zip(a, s):
        prev = max(ai, prev) + si
        d.append(prev)
    return np.asarray(d)


def naive_lcfs(a, s):
    """Newest packet preempts; a packet survives only if it finishes
    before the next arrival."""
    d, u = [], []
    for i in range(len(a)):
        finish = a[i] + s[i]
        nxt = a[i + 1] if i + 1 < len(a) else math.inf
        if finish < nxt:
            d.append(finish)
            u.append(a[i])
    return np.asarray(d), np.asarray(u)


def naive_finite(a, service_draws, capacity):
    """Single-server FCFS with at most `capacity` packets in the system;
    departures are processed before a simultaneous arrival."""
    draws = iter(service_draws)
    queue = []
    departures = []
    busy_until = -math.inf
    system = []              # (gen, dep) of packets present
    d, u = [], []
    for t in a:
        while system and system[0][1] <= t:
            gen, dep = system.pop(0)
            d.append(dep)
            u.append(gen)
        if len(system) >= capacity:
            continue
        start = max(t, system[-1][1]) if system else t
        dep = start + next(draws)
        system.append((t, dep))
    while system:
        gen, dep = system.pop(0)
        d.append(dep)
        u.append(gen)
    return np.asarray(d), np.asarray(u)


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, -1.0, 0)
        with pytest.raises(ConfigError):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, math.inf, 0)

    def test_bad_warmup(self):
        with pytest.raises(ConfigError):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0, warmup=100.0)

    def test_slot_must_tile(self):
        with pytest.raises(ConfigError):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0, slot_length=7.0)

    @pytest.mark.parametrize("slot", [0.0, math.nan, 1e-320, math.inf,
                                      math.nextafter(100.0, math.inf)])
    def test_slot_without_a_count_is_refused(self, slot):
        # 0, NaN and 1e-320 once raised ZeroDivisionError, ValueError and
        # OverflowError from the tiling arithmetic.
        with pytest.raises(ConfigError, match="does not tile"):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0, slot_length=slot)

    def test_buffer_floor(self):
        with pytest.raises(ConfigError):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0, buffer=0)

    def test_defaults(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 0)
        assert c.effective_warmup == 10.0
        assert c.effective_slot == 1.0

    def test_unstable_fcfs_rejected(self):
        c = cfg(Discipline.FCFS_MM1, 2.0, 1.0, 1000.0, 0)
        with pytest.raises(ConfigError):
            run(c, FLAT, ENERGY)

    def test_short_profile_rejected(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 0)
        with pytest.raises(ConfigError):
            run(c, CiProfile.constant(100.0, 500.0), ENERGY)


class TestSamplePathAgainstNaiveLoop:
    @pytest.mark.parametrize("lam,mu,seed", [(0.5, 1.0, 1), (0.9, 1.0, 2),
                                             (2.0, 3.0, 3)])
    def test_fcfs_departures(self, lam, mu, seed):
        horizon = 4000.0 / lam
        c = cfg(Discipline.FCFS_MM1, lam, mu, horizon, seed,
                keep_events=True, drain=True)
        trace = run(c, FLAT, ENERGY)
        a, rng = replay_streams(lam, mu, horizon, seed)
        s = rng.exponential(1.0 / mu, size=len(a))
        np.testing.assert_allclose(trace.delivery_times, naive_fcfs(a, s),
                                   rtol=1e-12)
        np.testing.assert_allclose(trace.delivery_gen_times, a, rtol=1e-12)

    @pytest.mark.parametrize("lam,mu,seed", [(1.0, 1.0, 4), (3.0, 1.0, 5),
                                             (0.4, 2.0, 6)])
    def test_lcfs_departures(self, lam, mu, seed):
        horizon = 4000.0 / lam
        c = cfg(Discipline.LCFS_PREEMPTIVE, lam, mu, horizon, seed,
                keep_events=True, drain=True)
        trace = run(c, FLAT, ENERGY)
        a, rng = replay_streams(lam, mu, horizon, seed)
        s = rng.exponential(1.0 / mu, size=len(a))
        d_ref, u_ref = naive_lcfs(a, s)
        np.testing.assert_allclose(trace.delivery_times, d_ref, rtol=1e-12)
        np.testing.assert_allclose(trace.delivery_gen_times, u_ref, rtol=1e-12)
        assert trace.preemptions == len(a) - len(d_ref)

    @pytest.mark.parametrize("capacity,seed", [(1, 7), (2, 8), (5, 9)])
    def test_finite_buffer_departures(self, capacity, seed):
        lam, mu = 0.9, 1.0
        horizon = 3000.0
        c = cfg(Discipline.FCFS_MM1, lam, mu, horizon, seed, buffer=capacity,
                keep_events=True, drain=True)
        trace = run(c, FLAT, ENERGY)
        a, rng = replay_streams(lam, mu, horizon, seed)
        draws = rng.exponential(1.0 / mu, size=len(a))
        d_ref, u_ref = naive_finite(a, draws, capacity)
        np.testing.assert_allclose(trace.delivery_times, d_ref, rtol=1e-12)
        np.testing.assert_allclose(trace.delivery_gen_times, u_ref, rtol=1e-12)
        assert trace.drops == len(a) - len(d_ref)


class TestAgeIntegration:
    def test_against_dense_grid(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 2000.0, 11, keep_events=True)
        trace = run(c, FLAT, ENERGY)
        d = trace.delivery_times
        u = trace.delivery_gen_times
        warmup = c.effective_warmup
        grid = np.linspace(warmup, 2000.0, 2_000_001)
        idx = np.searchsorted(d, grid, side="right") - 1
        anchors = np.where(idx >= 0, u[np.clip(idx, 0, None)], 0.0)
        ages = grid - anchors
        numeric = np.trapezoid(ages, grid) / (2000.0 - warmup)
        assert trace.time_avg_aoi == pytest.approx(numeric, rel=1e-4)

    def test_no_deliveries_means_linear_growth(self):
        # lam tiny: window [0, horizon] very likely empty of deliveries;
        # engineered seed gives zero arrivals, so age is t and avg is T/2.
        c = cfg(Discipline.FCFS_MM1, 1e-9, 1.0, 100.0, 1, warmup=0.0)
        trace = run(c, FLAT, ENERGY)
        assert trace.arrivals == 0
        assert trace.time_avg_aoi == pytest.approx(50.0, rel=1e-12)
        assert trace.final_age == pytest.approx(100.0, rel=1e-12)

    def test_final_age_resets_to_last_origin(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 2000.0, 12, keep_events=True)
        trace = run(c, FLAT, ENERGY)
        last_u = trace.delivery_gen_times[trace.delivery_times <= 2000.0][-1]
        assert trace.final_age == pytest.approx(2000.0 - last_u, rel=1e-12)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        c = cfg(Discipline.LCFS_PREEMPTIVE, 1.0, 1.0, 5000.0, 42)
        t1 = run(c, FLAT, ENERGY)
        t2 = run(c, FLAT, ENERGY)
        assert t1.time_avg_aoi == t2.time_avg_aoi
        assert t1.ledger.total == t2.ledger.total
        assert np.array_equal(t1.n_tx_per_slot, t2.n_tx_per_slot)

    def test_different_seed_differs(self):
        c1 = cfg(Discipline.LCFS_PREEMPTIVE, 1.0, 1.0, 5000.0, 42)
        c2 = cfg(Discipline.LCFS_PREEMPTIVE, 1.0, 1.0, 5000.0, 43)
        assert run(c1, FLAT, ENERGY).time_avg_aoi != run(c2, FLAT, ENERGY).time_avg_aoi

    def test_buffer_does_not_shift_arrival_stream(self):
        base = cfg(Discipline.FCFS_MM1, 0.9, 1.0, 2000.0, 13, keep_events=True)
        capped = cfg(Discipline.FCFS_MM1, 0.9, 1.0, 2000.0, 13, buffer=1,
                     keep_events=True)
        t1 = run(base, FLAT, ENERGY)
        t2 = run(capped, FLAT, ENERGY)
        np.testing.assert_array_equal(t1.arrival_times, t2.arrival_times)


class TestLedger:
    def test_constant_profile_identity(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 50000.0, 21)
        trace = run(c, FLAT, ENERGY)
        expected = trace.arrivals * 150.0 * ENERGY.e_p_kwh()
        assert trace.ledger.total == pytest.approx(expected, rel=1e-12)

    def test_drops_are_not_charged(self):
        c = cfg(Discipline.FCFS_MM1, 0.9, 1.0, 20000.0, 22, buffer=1)
        trace = run(c, FLAT, ENERGY)
        admitted = trace.arrivals - trace.drops
        assert trace.drops > 0
        assert trace.ledger.total == pytest.approx(
            admitted * 150.0 * ENERGY.e_p_kwh(), rel=1e-12)

    def test_step_profile_charges_at_arrival_value(self):
        steps = CiProfile(((0.0, 100.0), (500.0, 400.0)), 1000.0)
        c = cfg(Discipline.LCFS_PREEMPTIVE, 1.0, 1.0, 1000.0, 23,
                keep_events=True)
        trace = run(c, steps, ENERGY)
        a = trace.arrival_times
        expected = ENERGY.e_p_kwh() * (100.0 * np.sum(a < 500.0)
                                       + 400.0 * np.sum(a >= 500.0))
        assert trace.ledger.total == pytest.approx(expected, rel=1e-12)

    def test_cumulative_is_a_step_function_on_slots(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 24)
        trace = run(c, FLAT, ENERGY)
        led = trace.ledger
        assert led.cumulative(0.0) == 0.0
        mid = led.cumulative(500.0)
        assert 0.0 < mid < led.total
        assert led.cumulative(1000.0) == pytest.approx(led.total, rel=1e-12)

    def test_mode_totals_match_when_service_time_equals_tp(self):
        # With mu = 1/t_p the expected busy time per packet equals t_p, so
        # the energy-integral mode agrees with per-packet accounting.
        mu = 1.0 / ENERGY.t_p
        lam = 0.5 * mu
        totals = {}
        for mode in CfMode:
            c = cfg(Discipline.FCFS_MM1, lam, mu, 50.0, 25, cf_mode=mode,
                    slot_length=0.05)
            totals[mode] = run(c, FLAT, ENERGY).ledger.total
        arr = totals[CfMode.ARRIVAL_CHARGED]
        assert totals[CfMode.COMPLETION_CHARGED] == pytest.approx(arr, rel=0.02)
        assert totals[CfMode.SERVICE_TIME_CHARGED] == pytest.approx(arr, rel=0.05)

    def test_service_mode_scales_with_actual_busy_time(self):
        # Service lasting 10x t_p must burn about 10x the per-packet energy.
        mu = 0.1 / ENERGY.t_p
        lam = 0.5 * mu
        c_arr = cfg(Discipline.FCFS_MM1, lam, mu, 500.0, 26,
                    cf_mode=CfMode.ARRIVAL_CHARGED)
        c_svc = cfg(Discipline.FCFS_MM1, lam, mu, 500.0, 26,
                    cf_mode=CfMode.SERVICE_TIME_CHARGED)
        ratio = run(c_svc, FLAT, ENERGY).ledger.total / \
            run(c_arr, FLAT, ENERGY).ledger.total
        assert ratio == pytest.approx(10.0, rel=0.1)


def xi_at(profile, t):
    """The intensity in force at t, the final step extended past the horizon."""
    return profile.values[bisect_right(profile.starts, t) - 1]


def xi_between(profile, lo, hi):
    """The integral of the intensity over [lo, hi], summed over the steps it overlaps."""
    ends = profile.starts[1:] + (math.inf,)
    return math.fsum(v * (min(hi, end) - max(lo, start))
                     for start, end, v in zip(profile.starts, ends, profile.values)
                     if start < hi and end > lo)


def packet_charges(trace, discipline, mode, profile, energy):
    """Each packet's grams, recomputed from the events of a drained run.

    Drained, every admitted packet is delivered, so the admitted arrivals
    are the generation times of the deliveries, except under preemption,
    where every arrival is admitted and a preempted one is served until
    the next arrival.
    """
    a, d, u = trace.arrival_times, trace.delivery_times, trace.delivery_gen_times
    lcfs = discipline is Discipline.LCFS_PREEMPTIVE
    if mode is CfMode.ARRIVAL_CHARGED:
        return [xi_at(profile, t) * energy.e_p_kwh() for t in (a if lcfs else u)]
    if mode is CfMode.COMPLETION_CHARGED:
        return [xi_at(profile, t) * energy.e_p_kwh() for t in d]
    if lcfs:
        done = dict(zip(u.tolist(), d.tolist()))
        nxt = a[1:].tolist() + [math.inf]
        busy = [(t, done.get(t, n)) for t, n in zip(a.tolist(), nxt)]
    else:
        busy = [(max(t, prev), end) for t, prev, end
                in zip(u.tolist(), [-math.inf] + d[:-1].tolist(), d.tolist())]
    return [xi_between(profile, lo, hi) * energy.p_t / J_PER_KWH for lo, hi in busy]


class TestLedgerCharges:
    """In every mode the ledger total is the sum of per-packet charges."""

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(list(CfMode)),
           kernel=st.sampled_from([(Discipline.FCFS_MM1, None), (Discipline.FCFS_MM1, 2),
                                   (Discipline.LCFS_PREEMPTIVE, None)]),
           rho=st.floats(0.1, 0.9), mu=st.floats(0.5, 4.0),
           cuts=st.lists(st.floats(1.0, 199.0), max_size=3, unique=True),
           values=st.lists(st.floats(10.0, 1000.0), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_total_is_the_sum_of_packet_charges(self, mode, kernel, rho, mu, cuts,
                                                values, seed):
        discipline, buffer = kernel
        starts = [0.0] + sorted(cuts)
        profile = CiProfile(tuple(zip(starts, values)), 200.0)
        c = cfg(discipline, rho * mu, mu, 200.0, seed, cf_mode=mode, buffer=buffer,
                drain=True, keep_events=True)
        trace = run(c, profile, ENERGY)
        charges = packet_charges(trace, discipline, mode, profile, ENERGY)
        assert trace.ledger.total == pytest.approx(math.fsum(charges), rel=1e-9, abs=0.0)
        if discipline is not Discipline.LCFS_PREEMPTIVE:
            assert len(charges) == trace.arrivals - trace.drops


class TestCountsAndSuccess:
    def test_lcfs_success_fraction(self):
        c = cfg(Discipline.LCFS_PREEMPTIVE, 2.0, 1.0, 30000.0, 31)
        trace = run(c, FLAT, ENERGY)
        # Completion beats the next arrival with probability mu/(lam+mu).
        assert trace.empirical_a == pytest.approx(1 / 3, abs=0.02)
        # At most the final packet can still be in flight at the horizon.
        gap = trace.arrivals - trace.completions - trace.preemptions
        assert gap in (0, 1)
        drained = run(cfg(Discipline.LCFS_PREEMPTIVE, 2.0, 1.0, 30000.0, 31,
                          drain=True), FLAT, ENERGY)
        assert drained.completions + drained.preemptions == drained.arrivals

    def test_fcfs_drain_delivers_everything(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 10000.0, 32, drain=True)
        trace = run(c, FLAT, ENERGY)
        assert trace.completions == trace.arrivals
        assert trace.empirical_a == 1.0

    def test_finite_drain_conserves_packets(self):
        c = cfg(Discipline.FCFS_MM1, 0.9, 1.0, 10000.0, 33, buffer=2,
                drain=True)
        trace = run(c, FLAT, ENERGY)
        assert trace.completions == trace.arrivals - trace.drops

    def test_slot_counts_cover_completions(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 10000.0, 34)
        trace = run(c, FLAT, ENERGY)
        assert int(np.sum(trace.n_tx_per_slot)) == trace.completions
        assert len(trace.n_tx_per_slot) == 1000

    def test_packet_count_check(self):
        # Poisson arrivals: lam * horizon = 5e4 expected, standard deviation 224.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100000.0, 35)
        trace = run(c, FLAT, ENERGY)
        assert abs(trace.arrivals - 0.5 * 100000.0) < 0.02 * 0.5 * 100000.0

    def test_events_hidden_by_default(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 36)
        trace = run(c, FLAT, ENERGY)
        assert trace.arrival_times is None
        assert trace.delivery_times is None


class TestReplicate:
    def test_summary_fields(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 20000.0, 40)
        summary = replicate(c, FLAT, ENERGY, 5)
        assert len(summary.traces) == 5
        aois = [t.time_avg_aoi for t in summary.traces]
        assert min(aois) <= summary.mean_aoi <= max(aois)
        assert summary.ci95_halfwidth > 0
        assert 0 < summary.mean_a <= 1

    def test_replications_use_consecutive_seeds(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 20000.0, 40)
        summary = replicate(c, FLAT, ENERGY, 3)
        solo = run(cfg(Discipline.FCFS_MM1, 0.5, 1.0, 20000.0, 41), FLAT, ENERGY)
        assert summary.traces[1].time_avg_aoi == solo.time_avg_aoi

    def test_every_config_field_reaches_each_replication(self):
        c = cfg(Discipline.FCFS_MM1, 0.9, 1.0, 2000.0, 50, warmup=100.0,
                slot_length=4.0, cf_mode=CfMode.SERVICE_TIME_CHARGED, buffer=3,
                drain=True, keep_events=True)
        summary = replicate(c, FLAT, ENERGY, 3)
        for r, trace in enumerate(summary.traces):
            # keep_events reaches the first replication only.
            expected = replace(c, seed=50 + r, keep_events=r == 0)
            assert_same_trace(trace, run(expected, FLAT, ENERGY))

    def test_events_kept_for_the_first_replication_only(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 4000.0, 70, keep_events=True)
        summary = replicate(c, FLAT, ENERGY, 3)
        assert_same_trace(summary.traces[0], run(c, FLAT, ENERGY))
        for trace in summary.traces[1:]:
            assert trace.arrival_times is None
            assert trace.delivery_times is None
            assert trace.delivery_gen_times is None

    def test_extra_replications_hold_no_events(self, monkeypatch):
        # With 2e5 arrivals per replication, five replications peak less
        # than half of one run's event arrays above two replications.  One
        # core runs them one at a time, so the peaks differ by held events
        # only, not by which runs happened to overlap.
        monkeypatch.setattr(dessim, "_usable_cores", lambda: 1)
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 4e5, 71, keep_events=True)
        peaks = []
        tracemalloc.start()
        try:
            for n_reps in (2, 5):
                tracemalloc.reset_peak()
                first = replicate(c, FLAT, ENERGY, n_reps).traces[0]
                peaks.append(tracemalloc.get_traced_memory()[1])
                events = sum(a.nbytes for a in (first.arrival_times, first.delivery_times,
                                                first.delivery_gen_times))
                del first
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * events

    def test_one_replication_is_a_run(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 40, keep_events=True)
        summary = replicate(c, FLAT, ENERGY, 1)
        trace = run(c, FLAT, ENERGY)
        assert len(summary.traces) == 1
        assert_same_trace(summary.traces[0], trace)
        assert summary.mean_aoi == trace.time_avg_aoi
        assert summary.mean_a == trace.empirical_a
        assert summary.mean_cf_g == trace.ledger.total
        assert summary.ci95_halfwidth is None
        for n_reps in (0, -1):
            with pytest.raises(DomainError):
                replicate(c, FLAT, ENERGY, n_reps)


def sequential(config, profile, n_reps):
    """The replications of `replicate`, run one after another."""
    return [run(replace(config, seed=config.seed + r,
                        keep_events=config.keep_events and r == 0), profile, ENERGY)
            for r in range(n_reps)]


class TestConcurrentReplicate:
    """replicate runs its replications on up to one thread per usable core;
    its output is the sequential loop's, whatever the core count."""

    @pytest.mark.parametrize("drain", [False, True])
    @pytest.mark.parametrize("mode", list(CfMode))
    @pytest.mark.parametrize("kernel", ["fcfs", "lcfs", "buffer2"])
    def test_equals_the_sequential_loop(self, monkeypatch, kernel, mode, drain):
        discipline, buffer, lam = KERNELS[kernel]
        c = cfg(discipline, lam, 1.0, 3000.0 / lam, 80, slot_length=30.0 / lam,
                cf_mode=mode, buffer=buffer, drain=drain, keep_events=True)
        expected = sequential(c, STEPS, 5)
        for cores in (1, 4):
            monkeypatch.setattr(dessim, "_usable_cores", lambda: cores)
            for n_reps in (1, 2, 3, 5):
                summary = replicate(c, STEPS, ENERGY, n_reps)
                assert len(summary.traces) == n_reps
                for trace, want in zip(summary.traces, expected):
                    assert_same_trace(trace, want)
                aois = [t.time_avg_aoi for t in expected[:n_reps]]
                mean = sum(aois) / n_reps
                assert summary.mean_aoi == mean
                assert summary.mean_a == sum(t.empirical_a for t in expected[:n_reps]) / n_reps
                assert summary.mean_cf_g == sum(t.ledger.total
                                                for t in expected[:n_reps]) / n_reps
                if n_reps == 1:
                    assert summary.ci95_halfwidth is None
                else:
                    var = sum((x - mean) ** 2 for x in aois) / (n_reps - 1)
                    assert summary.ci95_halfwidth == _t975(n_reps - 1) * math.sqrt(var / n_reps)

    def test_each_replication_runs_once_at_its_index(self, monkeypatch):
        # More threads than cores and a short switch interval, so a lost or
        # repeated hand-out of an index would show.
        started = []
        lock = threading.Lock()

        def fake(config, profile, energy):
            with lock:
                started.append(config.seed)
            return SimpleNamespace(time_avg_aoi=float(config.seed), empirical_a=1.0,
                                   ledger=SimpleNamespace(total=0.0))

        monkeypatch.setattr(dessim, "run", fake)
        monkeypatch.setattr(dessim, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            summary = replicate(cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0), FLAT, ENERGY, 500)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(started) == list(range(500))
        assert [t.time_avg_aoi for t in summary.traces] == list(range(500))

    @staticmethod
    def failing_run(fail, started, delays):
        """A stand-in for run that records each seed, sleeps delays[seed]
        seconds, and raises for the seeds in fail."""
        lock = threading.Lock()

        def fake(config, profile, energy):
            with lock:
                started.append(config.seed)
            time.sleep(delays.get(config.seed, 0.0))
            if config.seed in fail:
                raise ValueError(config.seed)

        return fake

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_raises_the_lowest_failing_index(self, monkeypatch, cores):
        # Where the replications overlap, seed 3 fails before seed 2; seed 2,
        # which the sequential loop reaches first, is the one raised.
        started = []
        delays = {0: 0.05, 1: 0.05, 2: 0.1, 4: 0.05, 5: 0.05}
        monkeypatch.setattr(dessim, "run", self.failing_run({2, 3}, started, delays))
        monkeypatch.setattr(dessim, "_usable_cores", lambda: cores)
        threads = threading.active_count()
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0)
        with pytest.raises(ValueError) as info:
            replicate(c, FLAT, ENERGY, 6)
        assert info.value.args == (2,)
        assert threading.active_count() == threads
        assert {0, 1, 2} <= set(started) <= {0, 1, 2, 3}

    def test_no_replication_starts_after_a_failure(self, monkeypatch):
        # Seed 0 fails at once; the other thread ends the replication it
        # took and takes no other.
        started = []
        delays = {r: 0.05 for r in range(1, 40)}
        monkeypatch.setattr(dessim, "run", self.failing_run({0}, started, delays))
        monkeypatch.setattr(dessim, "_usable_cores", lambda: 2)
        threads = threading.active_count()
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0)
        with pytest.raises(ValueError) as info:
            replicate(c, FLAT, ENERGY, 40)
        assert info.value.args == (0,)
        assert threading.active_count() == threads
        assert set(started) <= {0, 1}

STEPS = CiProfile(((0.0, 100.0), (1000.0, 400.0), (2500.0, 250.0)), 1e5)
KERNELS = {
    "fcfs": (Discipline.FCFS_MM1, None, 0.9),
    "lcfs": (Discipline.LCFS_PREEMPTIVE, None, 1.5),
    "buffer1": (Discipline.FCFS_MM1, 1, 0.9),
    "buffer2": (Discipline.FCFS_MM1, 2, 1.2),
    "buffer5": (Discipline.FCFS_MM1, 5, 0.95),
}


def assert_matches_reference(config, profile=STEPS):
    trace = run(config, profile, ENERGY)
    ref = reference_run(config, profile, ENERGY)
    for name in ("arrival_times", "delivery_times", "delivery_gen_times",
                 "n_tx_per_slot"):
        x, y = getattr(trace, name), getattr(ref, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("arrivals", "completions", "preemptions", "drops", "final_age",
                 "empirical_a", "slot_length", "horizon"):
        assert getattr(trace, name) == getattr(ref, name), name
    assert trace.time_avg_aoi == pytest.approx(ref.time_avg_aoi, rel=1e-12, abs=0)
    # Slot emissions are added in event order, so they are bit-identical.
    assert np.array_equal(trace.ledger.times, ref.ledger.times)
    assert np.array_equal(trace.ledger.grams, ref.ledger.grams)
    return trace


class TestChunkSeams:
    """`run` against the whole-array reference, with chunks far smaller than
    a run so that every kernel's carried state crosses many seams."""

    @pytest.mark.parametrize("drain", [False, True])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("chunk", [1, 7, 64, 4096])
    def test_matches_whole_array_reference(self, monkeypatch, chunk, kernel, drain):
        monkeypatch.setattr(dessim, "_CHUNK", chunk)
        discipline, buffer, lam = KERNELS[kernel]
        horizon = 2000.0 / lam
        for mode in CfMode:
            # The warm-up ends inside a chunk for every chunk size but 4096.
            c = cfg(discipline, lam, 1.0, horizon, 61, warmup=0.137 * horizon,
                    slot_length=horizon / 100, cf_mode=mode, buffer=buffer,
                    drain=drain, keep_events=True)
            trace = assert_matches_reference(c)
            assert trace.arrivals > 4 * chunk or chunk == 4096

    @pytest.mark.parametrize("chunk", [1, 64])
    def test_drained_work_extends_the_slot_grid(self, monkeypatch, chunk):
        monkeypatch.setattr(dessim, "_CHUNK", chunk)
        # Heavy load, so work is queued at the horizon in both runs.
        for buffer, lam in ((None, 0.99), (3, 3.0)):
            c = cfg(Discipline.FCFS_MM1, lam, 1.0, 500.0, 62, slot_length=0.05,
                    cf_mode=CfMode.COMPLETION_CHARGED, buffer=buffer, drain=True,
                    keep_events=True)
            trace = assert_matches_reference(c)
            assert len(trace.n_tx_per_slot) > 10000

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_no_arrivals(self, monkeypatch, chunk):
        monkeypatch.setattr(dessim, "_CHUNK", chunk)
        for discipline, buffer, _ in KERNELS.values():
            for drain in (False, True):
                c = cfg(discipline, 1e-9, 1.0, 100.0, 1, warmup=0.0, buffer=buffer,
                        drain=drain, keep_events=True)
                trace = assert_matches_reference(c)
                assert trace.arrivals == 0

    def test_default_chunk_on_a_multi_chunk_run(self):
        for discipline, buffer, lam in KERNELS.values():
            c = cfg(discipline, lam, 1.0, 2.5e5 / lam, 63, buffer=buffer,
                    cf_mode=CfMode.SERVICE_TIME_CHARGED, keep_events=True)
            assert_matches_reference(c, FLAT)

    def test_memory_does_not_grow_with_arrivals(self):
        peaks = []
        tracemalloc.start()
        try:
            for n in (2e5, 2e6):
                c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, n / 0.5, 64)
                tracemalloc.reset_peak()
                run(c, FLAT, ENERGY)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 16e6
        assert abs(peaks[1] - peaks[0]) < 1e6

    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_working_set_of_one_run(self, discipline):
        # A run of 2**20 arrivals holds at most nine chunk arrays at once,
        # so a replication running beside another adds little memory.
        c = cfg(discipline, 0.5, 1.0, 2 ** 20 / 0.5, 66)
        tracemalloc.start()
        try:
            run(c, FLAT, ENERGY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * dessim._CHUNK * 8

    def test_slot_ledger_is_held_as_arrays(self):
        # 10**6 slots: the trace holds the counts and the ledger's times,
        # grams and running total, 8 bytes per slot each.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1e6, 65, slot_length=1.0,
                cf_mode=CfMode.SERVICE_TIME_CHARGED)
        tracemalloc.start()
        try:
            trace = run(c, CiProfile.constant(150.0, 1e6), ENERGY)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace.ledger) == 10 ** 6
        assert held < 40e6


class TestFiniteBufferOracle:
    @pytest.mark.parametrize("rho", [0.3, 1.0, 3.0])
    def test_mm11_age(self, rho):
        # M/M/1/1 average age, Costa, Codreanu & Ephremides (2016).
        lam, mu = rho, 1.0
        closed = 1 / lam + 2 / mu - 1 / (lam + mu)
        c = cfg(Discipline.FCFS_MM1, lam, mu, 2e5 / lam, 3, buffer=1)
        trace = run(c, FLAT, ENERGY)
        assert trace.arrivals > 3 * dessim._CHUNK
        assert trace.time_avg_aoi == pytest.approx(closed, rel=0.02)


class TestStudentT:
    def test_known_quantiles(self):
        assert _t975(1) == pytest.approx(12.706, abs=5e-4)     # n = 2
        assert _t975(19) == pytest.approx(2.093, abs=5e-4)     # n = 20

    def test_between_rows_is_conservative(self):
        assert _t975(35) == _t975(30)
        assert _t975(10 ** 6) == _t975(120) > 1.96

    def test_replicate_halfwidth(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 2000.0, 40)
        summary = replicate(c, FLAT, ENERGY, 2)
        x, y = (t.time_avg_aoi for t in summary.traces)
        s = abs(x - y) / math.sqrt(2)
        assert summary.ci95_halfwidth == pytest.approx(12.706 * s / math.sqrt(2),
                                                       rel=1e-4)
