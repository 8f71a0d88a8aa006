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
from dessim_reference import _ProfileArrays, reference_run
from hypothesis import given, settings
from hypothesis import strategies as st

from caoi import dessim
from caoi.carbon import J_PER_KWH, MAX_SLOTS, CarbonLedger, CiProfile, EnergyModel
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
            assert np.array_equal(x.grams, y.grams) and x.total == y.total
        else:
            assert x == y, f.name


def replication_seeds(seed, r):
    """The SeedSequence of replication r: the seed's own for r = 0, else
    spawn key (3, r), apart from run's children (0,) and (1,) and from (2,)."""
    return np.random.SeedSequence(seed, spawn_key=(3, r) if r else ())


def replication_index(seeds):
    return seeds.spawn_key[1] if seeds.spawn_key else 0


def replay_streams(lam, mu, horizon, seed):
    """Re-derive the exact arrival times and service stream of a run."""
    ss = np.random.SeedSequence(seed)
    arr_ss, svc_ss = ss.spawn(2)
    chunks = _arrival_chunks(np.random.default_rng(arr_ss), lam, horizon)
    a = np.concatenate([np.empty(0)] + [t[1:].copy() for t in chunks])
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

    @pytest.mark.parametrize("buffer", [10.0, 2.5, math.inf, math.nan])
    def test_buffer_must_be_an_integer(self, buffer):
        # The kernel sizes a deque by the capacity, which takes an int only.
        with pytest.raises(ConfigError, match="integer"):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0, buffer=buffer)

    @pytest.mark.parametrize("seed", [-1, 1.0, "1", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy's SeedSequence raised ValueError or TypeError for these
        # from inside run.
        with pytest.raises(ConfigError, match="seed"):
            cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, seed)

    def test_expected_arrivals_are_capped(self):
        # lam = 1e300 drew gaps of 1e-300 s, and the run never reached its
        # horizon.  The cap holds without keep_events; with it, its own
        # lower cap speaks first.
        lam = 10.0 ** 10 / 1e3
        cfg(Discipline.LCFS_PREEMPTIVE, lam, 1.0, 1e3, 0)
        for lam in (math.nextafter(lam, math.inf), 1e300):
            with pytest.raises(ConfigError, match="expected arrivals exceed the cap of "
                                                  "10000000000; shorten the horizon"):
                cfg(Discipline.LCFS_PREEMPTIVE, lam, 1.0, 1e3, 0)
            with pytest.raises(ConfigError, match="keeping events of .* exceeds the cap "
                                                  "of 10000000;"):
                cfg(Discipline.LCFS_PREEMPTIVE, lam, 1.0, 1e3, 0, keep_events=True)

    def test_defaults(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 0)
        assert c.effective_warmup == 10.0
        assert c.effective_slot == 1.0

    def test_unstable_fcfs_rejected(self):
        with pytest.raises(ConfigError, match="needs rho < 1"):
            cfg(Discipline.FCFS_MM1, 2.0, 1.0, 1000.0, 0)

    def test_short_profile_rejected(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 0)
        with pytest.raises(ConfigError):
            run(c, CiProfile.constant(100.0, 500.0), ENERGY)

    def test_service_time_charging_needs_a_finite_integral(self, monkeypatch):
        # The integral of 1e308 g/kWh over 1000 s overflows, so each busy
        # interval's charge would be inf - inf = NaN.
        huge = CiProfile.constant(1e308, 1000.0)
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 0,
                cf_mode=CfMode.SERVICE_TIME_CHARGED)
        monkeypatch.setattr(dessim, "_arrival_chunks", None)    # nothing is drawn
        with pytest.raises(ConfigError, match="which overflow over the profile horizon 1000.0"):
            run(c, huge, ENERGY)
        monkeypatch.undo()
        for mode in (CfMode.ARRIVAL_CHARGED, CfMode.COMPLETION_CHARGED):
            total = run(replace(c, cf_mode=mode), huge, ENERGY).ledger.total
            assert math.isfinite(total) and total > 1e300

    @pytest.mark.parametrize("buffer,seed", [(57, 13), (100, 1)])
    def test_drained_service_time_charges_must_stay_finite(self, buffer, seed):
        # The integral over the horizon is finite, but past it the final step
        # goes on and overflows near 1057 s.  Drained work once ran past that
        # point: with buffer 57 a busy interval across it was charged inf,
        # and with buffer 100 later ones inf - inf, with RuntimeWarnings
        # (errors in this suite) and then ValidationError for a NaN entry.
        huge = CiProfile.constant(1.7e305, 1000.0)
        c = cfg(Discipline.FCFS_MM1, 3.0, 1.0, 1000.0, seed, buffer=buffer, drain=True,
                cf_mode=CfMode.SERVICE_TIME_CHARGED)
        with pytest.raises(ConfigError, match="drained work ran past the point where "
                                              "the integral of the carbon intensity overflows"):
            run(c, huge, ENERGY)
        total = run(replace(c, cf_mode=CfMode.ARRIVAL_CHARGED), huge, ENERGY).ledger.total
        assert math.isfinite(total) and total > 1e297


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
        # Drained, the admitted arrivals are the deliveries' generation
        # times: all of the seed's stream unbuffered, a subset of it with
        # a buffer of 1.
        a, _ = replay_streams(0.9, 1.0, 2000.0, 13)
        for buffer in (None, 1):
            c = cfg(Discipline.FCFS_MM1, 0.9, 1.0, 2000.0, 13, buffer=buffer,
                    drain=True, keep_events=True)
            trace = run(c, FLAT, ENERGY)
            u = trace.delivery_gen_times
            assert trace.arrivals == len(a)
            assert len(u) == len(a) - trace.drops
            assert np.array_equal(u, a) if buffer is None else np.isin(u, a).all()


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
        c = cfg(Discipline.LCFS_PREEMPTIVE, 1.0, 1.0, 1000.0, 23)
        trace = run(c, steps, ENERGY)
        a, _ = replay_streams(1.0, 1.0, 1000.0, 23)
        expected = ENERGY.e_p_kwh() * (100.0 * np.sum(a < 500.0)
                                       + 400.0 * np.sum(a >= 500.0))
        assert trace.ledger.total == pytest.approx(expected, rel=1e-12)

    def test_cumulative_is_a_step_function_on_slots(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1000.0, 24)
        trace = run(c, FLAT, ENERGY)
        led = trace.ledger
        # Slot i ends at (i + 1) * slot_length, so the emissions up to 500 s
        # are the running sum at the 500th slot.
        running = np.cumsum(led.grams)
        assert len(running) == 1000 and trace.slot_length == 1.0
        mid = running[499]
        assert 0.0 < mid < led.total
        assert running[-1] == led.total

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


def packet_charges(config, trace, profile, energy):
    """Each packet's grams, recomputed from the events of a drained run.

    Drained, every admitted packet is delivered, so the admitted arrivals
    are the generation times of the deliveries, except under preemption,
    where every arrival is admitted and a preempted one is served until
    the next arrival.
    """
    spec, mode = config.spec, config.cf_mode
    a, _ = replay_streams(spec.lam, spec.mu, config.horizon, config.seed)
    d, u = trace.delivery_times, trace.delivery_gen_times
    discipline = spec.discipline
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
        charges = packet_charges(c, trace, profile, ENERGY)
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
        assert trace.delivery_times is None
        assert trace.delivery_gen_times is None


class TestReplicate:
    def test_summary_fields(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 20000.0, 40)
        summary = replicate(c, FLAT, ENERGY, 5)
        assert len(summary.traces) == 5
        aois = [t.time_avg_aoi for t in summary.traces]
        assert min(aois) <= summary.mean_aoi <= max(aois)
        assert summary.ci95_halfwidth > 0
        assert 0 < summary.mean_a <= 1

    def test_replications_use_their_own_spawn_keys(self):
        # Replication 1 once ran seed 41, so seed 41's run was seed 40's second path.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 20000.0, 40)
        summary = replicate(c, FLAT, ENERGY, 3)
        for r, trace in enumerate(summary.traces):
            solo = run(c, FLAT, ENERGY, _seeds=replication_seeds(40, r))
            assert trace.time_avg_aoi == solo.time_avg_aoi
        assert summary.traces[0].time_avg_aoi == run(c, FLAT, ENERGY).time_avg_aoi
        next_seed = run(replace(c, seed=41), FLAT, ENERGY)
        assert next_seed.time_avg_aoi not in [t.time_avg_aoi for t in summary.traces]

    def test_streams_of_nearby_seeds_are_distinct(self, monkeypatch):
        # Every stream run draws from, for seeds 0-50 with 20 replications
        # each, comes from its own (entropy, spawn key) pair.  With seed + r,
        # seeds 1 and 2 shared 19 of their 20 paths.
        streams, default_rng = [], np.random.default_rng

        def recording(seeds):
            streams.append((seeds.entropy, seeds.spawn_key))
            return default_rng(seeds)

        monkeypatch.setattr(np.random, "default_rng", recording)
        for seed in range(51):
            replicate(cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1.0, seed), FLAT, ENERGY, 20)
        assert len(streams) == 51 * 20 * 2
        assert len(set(streams)) == len(streams)

    def test_every_config_field_reaches_each_replication(self):
        # Every field but the slot and keep_events: only the first
        # replication keeps detail, and the rest run on the default grid.
        c = cfg(Discipline.FCFS_MM1, 0.9, 1.0, 2000.0, 50, warmup=100.0,
                slot_length=4.0, cf_mode=CfMode.SERVICE_TIME_CHARGED, buffer=3,
                drain=True, keep_events=True)
        summary = replicate(c, FLAT, ENERGY, 3)
        assert_same_trace(summary.traces[0], run(c, FLAT, ENERGY))
        for r, trace in enumerate(summary.traces[1:], start=1):
            expected = replace(c, keep_events=False, slot_length=None)
            assert_same_trace(trace, run(expected, FLAT, ENERGY, _seeds=replication_seeds(50, r)))
            assert trace.slot_length == 2.0 and trace.delivery_times is None

    def test_events_kept_for_the_first_replication_only(self):
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 4000.0, 70, keep_events=True)
        summary = replicate(c, FLAT, ENERGY, 3)
        assert_same_trace(summary.traces[0], run(c, FLAT, ENERGY))
        for trace in summary.traces[1:]:
            assert trace.delivery_times is None
            assert trace.delivery_gen_times is None

    def test_extra_replications_hold_no_events(self, monkeypatch):
        # With 2e5 arrivals per replication, five replications peak less
        # than half of one run's two event arrays above two replications.  One
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
                events = first.delivery_times.nbytes + first.delivery_gen_times.nbytes
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

    @pytest.mark.parametrize("n_reps", [2.0, math.nan, "2", None])
    def test_replication_count_must_be_an_integer(self, n_reps):
        # 2.0 and NaN once raised TypeError from building the trace list.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0)
        with pytest.raises(DomainError, match="must be an integer"):
            replicate(c, FLAT, ENERGY, n_reps)

    def test_replications_hold_two_slot_arrays_each(self):
        # 10**6 slots: the first trace holds its counts and its ledger's
        # grams, 16 MB; the others hold the default grid's 1000 slots of
        # each, 16 kB.  Each trace once kept the 10**6 slots, 48 MB in all.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1e6, 68, slot_length=1.0)
        profile = CiProfile.constant(150.0, 1e6)
        tracemalloc.start()
        try:
            summary = replicate(c, profile, ENERGY, 3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [len(t.ledger) for t in summary.traces] == [10 ** 6, 1000, 1000]
        assert [len(t.n_tx_per_slot) for t in summary.traces] == [10 ** 6, 1000, 1000]
        assert held < 20e6

    def test_later_replications_add_no_slot_memory(self):
        # A summary of 4 replications of 10**6 slots holds within 1 MB of a
        # summary of 1; with every trace on the config's grid it held
        # about 16 MB more per further replication.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1e6, 72, slot_length=1.0)
        profile = CiProfile.constant(150.0, 1e6)
        held = []
        tracemalloc.start()
        try:
            for n_reps in (1, 4):
                base = tracemalloc.get_traced_memory()[0]
                summary = replicate(c, profile, ENERGY, n_reps)
                held.append(tracemalloc.get_traced_memory()[0] - base)
                del summary
        finally:
            tracemalloc.stop()
        assert held[0] > 16e6
        assert held[1] - held[0] < 1e6

    @staticmethod
    def stub_run(started):
        def fake(config, profile, energy, _seeds):
            started.append((replication_index(_seeds), config))
            return SimpleNamespace(time_avg_aoi=1.0, empirical_a=1.0,
                                   ledger=SimpleNamespace(total=0.0))
        return fake

    def test_replications_are_capped_before_any_starts(self, monkeypatch):
        # Only the count is capped.  Replications after the first run on
        # the default grid, so two of a run of 6 * 10**6 slots start, though
        # they exceed 10**7 slots on the first one's grid.
        started = []
        monkeypatch.setattr(dessim, "run", self.stub_run(started))
        one_slot = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0, slot_length=100.0)
        with pytest.raises(DomainError, match="10001 replications exceed the cap of 10000"):
            replicate(one_slot, FLAT, ENERGY, 10 ** 4 + 1)
        assert started == []
        wide = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 6e6, 0, slot_length=1.0)
        assert len(replicate(wide, FLAT, ENERGY, 2).traces) == 2
        assert sorted((r, c.effective_slot) for r, c in started) == [(0, 1.0), (1, 6000.0)]

    def test_replications_up_to_the_caps_run(self, monkeypatch):
        started = []
        monkeypatch.setattr(dessim, "run", self.stub_run(started))
        # 10**4 replications: the cap exactly.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 100.0, 0)
        assert len(replicate(c, FLAT, ENERGY, 10 ** 4).traces) == 10 ** 4
        wide = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 2.5e6, 0, slot_length=1.0)
        assert len(replicate(wide, FLAT, ENERGY, 4).traces) == 4
        assert sorted(r for r, _ in started) == sorted([*range(10 ** 4), *range(4)])


def sequential(config, profile, n_reps):
    """The replications of `replicate`, run one after another: the first
    as configured, the rest on the default slot grid without events."""
    return [run(config if r == 0 else replace(config, keep_events=False, slot_length=None),
                profile, ENERGY, _seeds=replication_seeds(config.seed, r))
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

        def fake(config, profile, energy, _seeds):
            with lock:
                started.append(replication_index(_seeds))
            return SimpleNamespace(time_avg_aoi=float(replication_index(_seeds)), empirical_a=1.0,
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
        """A stand-in for run that records each replication r, sleeps
        delays[r] seconds, and raises for the replications in fail."""
        lock = threading.Lock()

        def fake(config, profile, energy, _seeds):
            r = replication_index(_seeds)
            with lock:
                started.append(r)
            time.sleep(delays.get(r, 0.0))
            if r in fail:
                raise ValueError(r)

        return fake

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_raises_the_lowest_failing_index(self, monkeypatch, cores):
        # Where the replications overlap, replication 3 fails before 2; 2,
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
        # Replication 0 fails at once; the other thread ends the replication it
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
    for name in ("delivery_times", "delivery_gen_times"):
        x, y = getattr(trace, name), getattr(ref, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    # The reference's two slot grids may differ in length; `run` pads the
    # shorter with 0 to one grid.
    n_tx, grams = ref.n_tx_per_slot, ref.ledger.grams
    n = max(len(n_tx), len(grams))
    n_tx, grams = (np.concatenate((v, np.zeros(n - len(v), v.dtype))) for v in (n_tx, grams))
    assert trace.n_tx_per_slot.dtype == n_tx.dtype
    assert np.array_equal(trace.n_tx_per_slot, n_tx)
    for name in ("arrivals", "completions", "preemptions", "drops", "final_age",
                 "empirical_a", "slot_length", "horizon"):
        assert getattr(trace, name) == getattr(ref, name), name
    assert trace.time_avg_aoi == pytest.approx(ref.time_avg_aoi, rel=1e-12, abs=0)
    # Slot emissions are added in event order, so they are bit-identical.
    assert np.array_equal(trace.ledger.grams, grams)
    assert trace.ledger.total == ref.ledger.total
    return trace


class TestChargingLeavesThePathAlone:
    """Every cf mode cuts each step at the horizon by the same rule, so the
    charge is the only thing the mode changes."""

    @pytest.mark.parametrize("drain", [False, True])
    @pytest.mark.parametrize("kernel", ["fcfs", "lcfs", "buffer2"])
    def test_modes_differ_only_in_the_ledger(self, monkeypatch, kernel, drain):
        # Small chunks, so the path crosses seams, and heavy load, so work
        # is in service at the horizon.
        monkeypatch.setattr(dessim, "_CHUNK", 64)
        discipline, buffer, lam = KERNELS[kernel]
        traces = [run(cfg(discipline, lam, 1.0, 3000.0 / lam, 82, slot_length=30.0 / lam,
                          cf_mode=mode, buffer=buffer, drain=drain, keep_events=True),
                      STEPS, ENERGY) for mode in CfMode]
        first = traces[0]
        assert first.completions > 0
        for trace in traces[1:]:
            assert_same_trace(replace(trace, ledger=first.ledger), first)
            assert not np.array_equal(trace.ledger.grams, first.ledger.grams)


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

    def test_work_in_service_at_the_horizon_fits_a_grid_at_the_cap(self):
        # 10**7 one-second slots, the cap exactly.  At seed 0 a packet is in
        # service at the horizon and charged up to it: a cap check on the last
        # time alone refused the run, though the clamp puts that charge in the
        # last slot.
        c = cfg(Discipline.LCFS_PREEMPTIVE, 1e-3, 1e-3, 1e7, 0, slot_length=1.0,
                cf_mode=CfMode.SERVICE_TIME_CHARGED)
        trace = run(c, CiProfile.constant(198.0, 1e7), ENERGY)
        assert len(trace.n_tx_per_slot) == len(trace.ledger.grams) == MAX_SLOTS
        assert trace.n_tx_per_slot.sum() == trace.completions
        assert trace.ledger.grams[-1] > 0

    @pytest.mark.parametrize("drain", [False, True])
    @pytest.mark.parametrize("mode", list(CfMode))
    @pytest.mark.parametrize("kernel", ["fcfs", "lcfs", "buffer2"])
    def test_counts_and_grams_share_one_slot_grid(self, kernel, mode, drain):
        # Heavy load and short slots, so drained work crosses into slots past
        # the horizon, where it may be counted but not charged, or charged
        # but not counted.
        discipline, buffer, lam = KERNELS[kernel]
        c = cfg(discipline, lam, 1.0, 500.0, 67, slot_length=0.05, cf_mode=mode,
                buffer=buffer, drain=drain)
        trace = run(c, STEPS, ENERGY)
        assert len(trace.n_tx_per_slot) == len(trace.ledger)
        assert len(trace.ledger) == 10000 or drain

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

    @pytest.mark.parametrize("buffer", [None, 10, 10 ** 30])
    def test_memory_does_not_grow_with_arrivals(self, buffer):
        # A buffer far beyond the run never fills, and the finite kernel
        # must not keep a departure per admitted packet to find that out.
        peaks = []
        tracemalloc.start()
        try:
            for n in (2e5, 2e6):
                c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, n / 0.5, 64, buffer=buffer)
                tracemalloc.reset_peak()
                trace = run(c, FLAT, ENERGY)
                peaks.append(tracemalloc.get_traced_memory()[1])
                if buffer == 10 ** 30:
                    assert trace.drops == 0
        finally:
            tracemalloc.stop()
        assert max(peaks) < 16e6
        assert abs(peaks[1] - peaks[0]) < 1e6

    @pytest.mark.parametrize("mode", list(CfMode))
    @pytest.mark.parametrize("discipline", list(Discipline))
    def test_working_set_of_one_run(self, discipline, mode):
        # A run of 2**20 arrivals holds at most nine chunk arrays at once,
        # so a replication running beside another adds little memory.
        c = cfg(discipline, 0.5, 1.0, 2 ** 20 / 0.5, 66, cf_mode=mode)
        tracemalloc.start()
        try:
            run(c, FLAT, ENERGY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * dessim._CHUNK * 8

    def test_slot_ledger_is_held_as_arrays(self):
        # 10**6 slots: the trace holds two arrays, the counts and the
        # ledger's grams, 8 bytes per slot each.  The ledger keeps the run's
        # read-only slot grams uncopied; a copy took the peak to 27.7 MB,
        # and a full-length cumsum for the ledger's total once to 36 MB.
        c = cfg(Discipline.FCFS_MM1, 0.5, 1.0, 1e6, 65, slot_length=1.0,
                cf_mode=CfMode.SERVICE_TIME_CHARGED)
        tracemalloc.start()
        try:
            trace = run(c, CiProfile.constant(150.0, 1e6), ENERGY)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.ledger) == 10 ** 6
        assert held < 20e6
        assert peak <= 23e6


def kernel_steps(kernel, lam, horizon, seed):
    """Copies of each step a kernel yields on the run's own streams."""
    discipline, buffer, _ = KERNELS[kernel]
    arr_ss, svc_ss = np.random.SeedSequence(seed).spawn(2)
    chunks = dessim._arrival_chunks(np.random.default_rng(arr_ss), lam, horizon)
    rng_service = np.random.default_rng(svc_ss)
    if discipline is Discipline.LCFS_PREEMPTIVE:
        steps = dessim._lcfs(chunks, rng_service, 1.0)
    elif buffer is None:
        steps = dessim._fcfs(chunks, rng_service, 1.0)
    else:
        steps = dessim._fcfs_finite(chunks, rng_service, 1.0, buffer)
    return [{k: v.copy() if isinstance(v, np.ndarray) else v
             for k, v in out._asdict().items()} for out in steps]


class TestRunOwnedBuffers:
    """The pieces `run` builds its chunk stages from, each against the
    numpy call it replaces."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1])
    @pytest.mark.parametrize("scale", [1.0, 1 / 0.3, 1 / 0.9, 1 / 1.5, 2.5e-7, 3e5])
    def test_draws_equal_generator_exponential(self, seed, scale):
        expected = np.random.default_rng(seed).exponential(scale, 1000)
        rng = np.random.default_rng(seed)
        got = np.empty(1000)
        for lo, hi in ((0, 1), (1, 8), (8, 8), (8, 500), (500, 1000)):     # seams
            dessim._exponential(rng, scale, got[lo:hi])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_short_run_draws_only_the_gaps_it_needs(self, seed):
        # lam * horizon = 1000: the times equal those of one full-chunk
        # draw, from a small share of its 2**16 gaps.
        class Counting:
            def __init__(self, rng):
                self.rng, self.drawn = rng, 0

            def standard_exponential(self, out):
                self.drawn += len(out)
                return self.rng.standard_exponential(out=out)

        lam, horizon = 2.0, 500.0
        rng = Counting(np.random.default_rng(seed))
        got = np.concatenate([t[1:].copy() for t in _arrival_chunks(rng, lam, horizon)])
        full = np.cumsum(np.random.default_rng(seed).exponential(1.0 / lam, dessim._CHUNK))
        assert np.array_equal(got, full[full < horizon])
        assert len(got) <= rng.drawn < dessim._CHUNK // 16

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rho=st.floats(0.2, 0.95))
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("kernel", ["fcfs", "lcfs", "buffer2"])
    def test_kernel_times_ascend_across_chunks(self, chunk, kernel, seed, rho):
        # The slot sums and the horizon cut need d, admitted and busy_end
        # non-decreasing over the whole run, seams included.
        arrivals = 3 * chunk + 50 if chunk < 100 else 2.2 * chunk
        saved = dessim._CHUNK
        dessim._CHUNK = chunk
        try:
            steps = kernel_steps(kernel, rho, arrivals / rho, seed)
        finally:
            dessim._CHUNK = saved
        assert len(steps) > 2
        for name in ("d", "admitted", "busy_end"):
            times = np.concatenate([step[name] for step in steps])
            assert np.all(np.diff(times) >= 0), name

    @settings(max_examples=60, deadline=None)
    @given(gaps=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=80),
           cuts=st.lists(st.integers(0, 80), max_size=6),
           weights=st.lists(st.floats(0.0, 1e3), min_size=80, max_size=80),
           n_slots=st.integers(1, 40), slot=st.sampled_from([0.1, 0.25, 1 / 3]),
           at_horizon=st.booleans())
    def test_slot_sums_equal_add_at_and_bincount(self, gaps, cuts, weights, n_slots, slot,
                                                 at_horizon):
        # Times ascend past the horizon (drained growth) and may hit it
        # exactly (the clamp); cuts split slots across adds (a carried
        # first slot).  Sums follow event order, so they are bit-equal.
        horizon = n_slots * slot
        times = np.cumsum(gaps)
        if at_horizon:
            times = np.sort(np.append(times, horizon))
        w = np.array(weights[:len(times)])
        idx = np.floor(times / slot).astype(np.int64)
        idx[(times <= horizon) & (idx >= n_slots)] = n_slots - 1
        size = max(n_slots, int(idx.max()) + 1)
        grams = np.zeros(size)
        np.add.at(grams, idx, w)
        counts = np.bincount(idx, minlength=size)
        got = dessim._SlotSums(slot, n_slots, horizon)
        scratch = np.empty(len(times), np.int64)
        edges = [0, *sorted(c for c in cuts if c < len(times)), len(times)]
        for lo, hi in zip(edges, edges[1:]):
            got.add(times[lo:hi], scratch)
            got.add(times[lo:hi], scratch, w[lo:hi].copy())
        assert got.counts.dtype == np.int64
        assert np.array_equal(got.counts, counts)
        assert np.array_equal(got.grams, grams)

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=40),
           values=st.lists(st.floats(1.0, 900.0), min_size=40, max_size=40),
           points=st.lists(st.floats(0.0, 1.2), max_size=200),
           on_starts=st.booleans())
    def test_lookups_into_buffers_equal_the_reference(self, widths, values, points,
                                                      on_starts):
        # Many steps per call, times on step starts and past the horizon;
        # out and scratch are longer than the times, as a run's buffers are.
        starts = np.concatenate(([0.0], np.cumsum(widths)[:-1]))
        horizon = float(np.sum(widths))
        profile = CiProfile(tuple(zip(starts.tolist(), values)), horizon)
        t = np.array(points) * horizon
        if on_starts:
            t = np.concatenate((t, starts))
        t = np.sort(t)
        n = len(t)
        reference = _ProfileArrays(profile)
        out, scratch = np.full(n + 3, np.nan), np.full(n + 3, np.nan)
        into = out[:n]
        got = profile.values_at(t, into)
        assert got is into
        assert np.array_equal(got, reference.value_at(t))
        got = profile.integral_to(t, into, scratch[:n])
        assert got is into
        assert np.array_equal(got, reference.integral_to(t))
        assert np.isnan(out[n:]).all() and np.isnan(scratch[n:]).all()

    def test_lookups_into_buffers_build_no_float_array(self):
        # A chunk's lookup allocates its int64 step index and nothing else,
        # however many steps the profile has.
        n = dessim._CHUNK
        starts = np.arange(n) * 2.0
        profile = CiProfile(np.column_stack((starts, 100.0 + starts % 7)), 2.0 * n)
        t = np.sort(np.random.default_rng(4).uniform(0.0, 2.2 * n, n))
        out, scratch = np.empty(n), np.empty(n)
        tracemalloc.start()
        try:
            profile.values_at(t, out)
            profile.integral_to(t, out, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * n * 8


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
