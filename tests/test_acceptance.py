"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line once its assertions hold, so a
verbose run yields one line per criterion either way.  Tolerances are
part of the contract and are asserted exactly as stated, not loosened.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from caoi.carbon import CiProfile, ConstraintSet, EnergyModel, cumulative_cf
from caoi.cidata import builtin_profile_si2024
from caoi.dessim import SimConfig, replicate, run
from caoi.optimizer import (
    BindingConstraint,
    solve_power_constrained,
    solve_qos_constrained,
    sweep_cf_budget,
)
from caoi.carbon import lambda_kappa, lambda_p_max, lambda_qos_max
from caoi.queueing import (
    Discipline,
    QueueSpec,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
    optimal_utilization_mm1,
)

ENERGY = EnergyModel()
FCFS = Discipline.FCFS_MM1
LCFS = Discipline.LCFS_PREEMPTIVE


def done(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def age_curve(rho):
    return 1.0 + 1.0 / rho + rho * rho / (1.0 - rho)


def golden_section(f, lo, hi, tol=1e-10):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


def test_criterion_01_optimal_utilization_root():
    root = optimal_utilization_mm1()
    assert root == pytest.approx(0.531, abs=5e-4)
    residual = root**4 - 2 * root**3 + root**2 - 2 * root + 1
    assert abs(residual) < 1e-9
    argmin = golden_section(age_curve, 0.01, 0.99)
    assert abs(root - argmin) < 1e-6
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        optimal_utilization_mm1()
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 1e-3
    done(1, "optimal utilization root")


def test_criterion_02_closed_form_spot_values():
    assert avg_aoi_mm1(QueueSpec(FCFS, 0.5, 1.0)) == 3.5
    assert avg_aoi_mm1_star(QueueSpec(LCFS, 1.0, 1.0)) == 2.0
    at_opt = avg_aoi_mm1(QueueSpec(FCFS, optimal_utilization_mm1(), 1.0))
    assert at_opt == pytest.approx(3.4844, abs=1e-4)
    done(2, "closed-form spot values")


def test_criterion_03_simulation_matches_analysis():
    t0 = time.perf_counter()
    profile = CiProfile.constant(198.0, 4e6)
    for discipline in (FCFS, LCFS):
        for rho in (0.3, 0.5, 0.9):
            spec = QueueSpec(discipline, rho, 1.0)
            horizon = math.ceil(1e6 / rho)
            config = SimConfig(spec=spec, horizon=float(horizon), seed=1000,
                               slot_length=float(horizon) / 1000.0)
            summary = replicate(config, profile, ENERGY, 20)
            closed = avg_aoi_mm1(spec) if discipline is FCFS \
                else avg_aoi_mm1_star(spec)
            rel = abs(summary.mean_aoi - closed) / closed
            assert rel < 0.02, (discipline, rho, summary.mean_aoi, closed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    done(3, f"simulation within 2% of closed forms in {elapsed:.1f}s")


def test_criterion_04_cf_bookkeeping_identity():
    profile = CiProfile.constant(150.0, 3e5)
    config = SimConfig(spec=QueueSpec(FCFS, 0.5, 1.0), horizon=2e5, seed=7)
    trace = run(config, profile, ENERGY)
    expected = trace.arrivals * 150.0 * ENERGY.e_p_kwh()
    assert abs(trace.ledger.total - expected) <= 1e-12 * expected
    two_step = CiProfile(((0.0, 100.0), (1800.0, 300.0)), 3600.0)
    # (100*1800 + 300*1800) / 3.6e6 by hand
    assert cumulative_cf(two_step, 1.0, 3600.0) == 0.2
    done(4, "carbon ledger identities")


def test_criterion_05_rate_bound_formulas():
    c = ConstraintSet(budget_k=0.05, horizon_tn=3600.0)
    bound = lambda_kappa(c, CiProfile.constant(198.0, 1e8), ENERGY)
    assert bound == pytest.approx(2104.38, abs=0.05)

    rng = np.random.default_rng(99)
    for _ in range(50):
        k = float(rng.uniform(1e-5, 1.0))
        xi = float(rng.uniform(50.0, 500.0))
        cap = float(rng.uniform(0.1, 1.0))
        snr = float(rng.uniform(0.1, 50.0))
        scale = float(rng.uniform(1.5, 8.0))
        prof = CiProfile.constant(xi, 1e8)
        prof_s = CiProfile.constant(xi * scale, 1e8)
        c1 = ConstraintSet(budget_k=k, horizon_tn=3600.0, power_cap=cap,
                           snr_min=snr)
        c2 = ConstraintSet(budget_k=k * scale, horizon_tn=3600.0,
                           power_cap=cap, snr_min=snr)
        c3 = ConstraintSet(budget_k=k, horizon_tn=3600.0, power_cap=cap * scale,
                           snr_min=snr * scale)
        # linear in K
        assert lambda_kappa(c2, prof, ENERGY) == \
            pytest.approx(scale * lambda_kappa(c1, prof, ENERGY), rel=1e-9)
        assert lambda_p_max(c2, xi, ENERGY) == \
            pytest.approx(scale * lambda_p_max(c1, xi, ENERGY), rel=1e-9)
        assert lambda_qos_max(c2, xi, ENERGY, t_p_override=1.2e-4) == \
            pytest.approx(scale * lambda_qos_max(c1, xi, ENERGY,
                                                 t_p_override=1.2e-4), rel=1e-9)
        # inverse in mean CI
        assert lambda_kappa(c1, prof_s, ENERGY) * scale == \
            pytest.approx(lambda_kappa(c1, prof, ENERGY), rel=1e-9)
        assert lambda_p_max(c1, xi * scale, ENERGY) * scale == \
            pytest.approx(lambda_p_max(c1, xi, ENERGY), rel=1e-9)
        # inverse in the power cap and the SNR floor
        if cap * scale <= 1.0:
            assert lambda_p_max(c3, xi, ENERGY) * scale == \
                pytest.approx(lambda_p_max(c1, xi, ENERGY), rel=1e-9)
        assert lambda_qos_max(c3, xi, ENERGY, t_p_override=1.2e-4) * scale == \
            pytest.approx(lambda_qos_max(c1, xi, ENERGY, t_p_override=1.2e-4),
                          rel=1e-9)
    done(5, "rate bound formulas and scalings")


def test_criterion_06_budget_surface_monotone():
    builtin = builtin_profile_si2024()
    k_grid = [5e-4 + i * 5e-5 for i in range(11)]          # 0.5 .. 1.0 mg
    rows = sweep_cf_budget(40.0, k_grid, builtin, ENERGY, 3600.0,
                           mode="paper", per_month=True)
    for month in range(1, 13):
        for model in ("mm1", "mm1star"):
            col = [(r.aoi, r.binding) for r in rows
                   if r.month == month and r.model == model]
            aois = [a for a, _ in col]
            assert all(b <= a + 1e-12 for a, b in zip(aois, aois[1:])), \
                (month, model)
            if model == "mm1":
                unbound = [a for a, binding in col if binding == "none"]
                assert max(unbound) - min(unbound) <= 1e-15 * max(unbound)
    # the unbinding threshold is actually crossed inside the grid somewhere
    fcfs_bindings = {r.month: [x.binding for x in rows
                               if x.month == r.month and x.model == "mm1"]
                     for r in rows}
    crossing = [m for m, bs in fcfs_bindings.items()
                if "cf_budget" in bs and "none" in bs]
    assert crossing, "grid never crosses the unbinding threshold"
    done(6, "AoI non-increasing in budget, flat once slack")


def test_criterion_07_u_shape_in_snr():
    for discipline in (FCFS, LCFS):
        for ci in builtin_profile_si2024().values:
            aois = []
            for db in range(-10, 31):
                c = ConstraintSet(budget_k=6e-5, horizon_tn=3600.0,
                                  snr_min=10.0 ** (db / 10.0))
                res = solve_qos_constrained(c, ci, ENERGY, discipline,
                                            mode="paper")
                aois.append(res.aoi)
            imin = aois.index(min(aois))
            assert 0 < imin < len(aois) - 1, (discipline, ci, imin)
            diffs = [b - a for a, b in zip(aois, aois[1:])]
            signs = [d > 0 for d in diffs if d != 0]
            changes = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
            assert changes == 1, (discipline, ci, changes)
    done(7, "AoI U-shaped over the SNR grid for every month")


def test_criterion_08_ci_ratio_transfer():
    builtin = builtin_profile_si2024()
    c = ConstraintSet(budget_k=5e-4, horizon_tn=3600.0, power_cap=1.0)
    november = solve_power_constrained(c, builtin.values[10], ENERGY, LCFS,
                                       mode="paper")
    may = solve_power_constrained(c, builtin.values[4], ENERGY, LCFS,
                                  mode="paper")
    assert november.binding_constraint is BindingConstraint.POWER
    assert may.binding_constraint is BindingConstraint.POWER
    ratio = november.aoi / may.aoi
    assert ratio == pytest.approx(2.852, abs=1e-3)
    assert ratio == pytest.approx(308.0 / 108.0, rel=1e-12)
    done(8, "November/May AoI ratio equals the CI ratio")


def test_criterion_09_nonlinear_pareto():
    c_of = lambda k: ConstraintSet(budget_k=k, horizon_tn=3600.0,
                                   power_cap=1.0)
    ks = np.geomspace(5e-4, 5e-3, 20)
    for k in ks:
        r1 = solve_power_constrained(c_of(float(k)), 308.0, ENERGY, LCFS,
                                     mode="exact")
        r2 = solve_power_constrained(c_of(float(2 * k)), 308.0, ENERGY, LCFS,
                                     mode="exact")
        assert r1.binding_constraint is BindingConstraint.POWER
        assert r2.binding_constraint is BindingConstraint.POWER
        assert r1.aoi / r2.aoi < 2.0, float(k)
        assert r1.aoi / r2.aoi > 1.0
    done(9, "doubling the budget never halves the age")


def test_criterion_10_success_probability():
    flat = CiProfile.constant(198.0, 4e6)
    lcfs = run(SimConfig(spec=QueueSpec(LCFS, 1.0, 1.0), horizon=2e6,
                         seed=301), flat, ENERGY)
    assert lcfs.empirical_a == pytest.approx(0.5, abs=0.01)
    fcfs = run(SimConfig(spec=QueueSpec(FCFS, 0.5, 1.0), horizon=2e5,
                         seed=302, drain=True), flat, ENERGY)
    assert fcfs.empirical_a == 1.0
    finite = run(SimConfig(spec=QueueSpec(FCFS, 0.9, 1.0), horizon=2e5,
                           seed=303, buffer=1), flat, ENERGY)
    assert finite.empirical_a < 1.0
    assert finite.drops > 0
    done(10, "success probabilities by discipline and buffer")


def test_criterion_11_cli_determinism(tmp_path):
    env = dict(os.environ)
    env.pop("CAOI_DEFAULT_CI", None)

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "caoi", *args],
                              capture_output=True, text=True, env=env)

    jobs = {
        "analyze": (["analyze", "--model", "both", "--mu", "1.0",
                     "--lambda-grid", "0.05:0.95:19",
                     "--out", str(tmp_path / "an.csv")],
                    ["an.csv"]),
        "optimize": (["optimize", "--problem", "power", "--model", "mm1star",
                      "--mode", "paper", "--budget-k", "0.5mg",
                      "--p-max", "1", "--month", "11",
                      "--out", str(tmp_path / "op.json")],
                     ["op.json"]),
        "simulate": (["simulate", "--model", "mm1", "--lambda", "0.5",
                      "--mu", "1", "--horizon", "5000", "--seed", "11",
                      "--reps", "2", "--out", str(tmp_path / "si.json"),
                      "--slots-out", str(tmp_path / "slots.csv"),
                      "--events-out", str(tmp_path / "events.csv")],
                     ["si.json", "slots.csv", "events.csv"]),
        "sweep": (["sweep", "--surface", "k", "--k-grid", "0.0005:0.001:6",
                   "--mu", "40", "--out", str(tmp_path / "sw.csv")],
                  ["sw.csv"]),
    }
    for name, (args, outputs) in jobs.items():
        res = cli(*args)
        assert res.returncode == 0, (name, res.stderr)
        manifest = tmp_path / f"{outputs[0]}.manifest.json"
        assert manifest.exists(), name
        redo = tmp_path / f"redo_{name}"
        res = cli("replay", str(manifest), "--out-dir", str(redo))
        assert res.returncode == 0, (name, res.stderr)
        for out in outputs:
            assert (redo / out).read_bytes() == (tmp_path / out).read_bytes(), \
                (name, out)
        body = json.loads(manifest.read_text())
        assert body["command"] == name
    done(11, "manifest replays are byte-identical")
