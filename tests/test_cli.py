import argparse
import codecs
import copy
import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys

from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from caoi import cidata, cli, optimizer
from caoi.carbon import EnergyModel
from caoi.dessim import SimConfig, run
from caoi.queueing import Discipline, QueueSpec

BUILTIN_CSV = """period,ci_g_per_kwh
1,228
2,218
3,188
4,148
5,108
6,128
7,158
8,178
9,208
10,248
11,308
12,258
"""


def caoi(*args, env_extra=None, cwd=None, timeout=None):
    env = dict(os.environ)
    env.pop("CAOI_DEFAULT_CI", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "caoi", *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFloatRule:
    # Every CSV float goes through '%.17g' in a row template, and a blank
    # cell's '%.0s' takes its value and prints nothing.
    @given(st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))
    @example(0.0)
    @example(-0.0)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(5e-324)
    @example(sys.float_info.max)
    def test_percent_g_is_fmt_float(self, x):
        assert "%.17g" % x == format(x, ".17g") == cli.fmt_float(x)
        assert "%.0s" % x == ""


class TestAnalyze:
    def test_lambda_grid_csv(self, tmp_path):
        out = tmp_path / "fig.csv"
        res = caoi("analyze", "--model", "both", "--mu", "1.0",
                   "--lambda-grid", "0.1:0.9:9", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_rows(out)
        assert rows[0] == ["x", "model", "aoi_s", "cf_g", "lambda_bound",
                           "binding"]
        assert len(rows) == 1 + 9 * 2
        assert rows[1][1] == "mm1"
        assert rows[2][1] == "mm1star"
        # spot value: FCFS at rho 0.5 is 3.5
        mid = [r for r in rows[1:] if r[0].startswith("0.5") and r[1] == "mm1"]
        assert float(mid[0][2]) == 3.5

    def test_k_grid_defaults_to_paper_mode(self, tmp_path):
        out = tmp_path / "k.csv"
        res = caoi("analyze", "--model", "mm1star", "--mu", "1.0",
                   "--k-grid", "1e-5:2e-5:2", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_rows(out)
        # binding paper-mode LCFS: aoi = 2/bound, halves when K doubles
        assert float(rows[1][2]) / float(rows[2][2]) == pytest.approx(2.0)
        manifest = json.loads((tmp_path / "k.csv.manifest.json").read_text())
        assert manifest["params"]["mode"] == "paper"

    def test_requires_exactly_one_grid(self, tmp_path):
        res = caoi("analyze", "--model", "both", "--mu", "1.0",
                   "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        res = caoi("analyze", "--model", "both", "--mu", "1.0",
                   "--lambda-grid", "0.1:0.9:9", "--k-grid", "0.1:0.9:9",
                   "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2

    def test_bad_grid_string(self, tmp_path):
        res = caoi("analyze", "--model", "both", "--mu", "1.0",
                   "--lambda-grid", "zero:one:5", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2

    def test_everything_infeasible_exits_3(self, tmp_path):
        res = caoi("analyze", "--model", "mm1", "--mu", "1.0",
                   "--lambda-grid", "1.5:2.0:3", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3

    def test_missing_ci_file_exits_4(self, tmp_path):
        res = caoi("analyze", "--model", "both", "--mu", "1.0",
                   "--lambda-grid", "0.1:0.9:9",
                   "--ci", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 4


class TestOptimize:
    def test_cf_paper_example(self, tmp_path):
        out = tmp_path / "opt.json"
        res = caoi("optimize", "--problem", "cf", "--model", "mm1star",
                   "--mode", "paper", "--budget-k", "0.05", "--tn", "3600",
                   "--mu", "2104.38", "--out", str(out))
        assert res.returncode == 0, res.stderr
        body = json.loads(out.read_text())
        assert body["status"] == "ok"
        assert body["binding"] == "none"
        assert body["lambda_star"] == pytest.approx(2104.38 * 0.999, rel=1e-4)
        assert body["cf_g"] <= 0.05
        assert body["aoi_s"] == pytest.approx(2.0 / body["lambda_star"], rel=1e-12)

    def test_stdout_when_no_out(self):
        res = caoi("optimize", "--problem", "cf", "--model", "mm1",
                   "--budget-k", "0.05", "--mu", "1.0")
        assert res.returncode == 0
        body = json.loads(res.stdout)
        assert body["model"] == "mm1"
        assert body["mode"] == "exact"

    def test_budget_suffixes(self):
        grams = caoi("optimize", "--problem", "power", "--model", "mm1",
                     "--budget-k", "0.0005", "--p-max", "1", "--month", "11")
        milli = caoi("optimize", "--problem", "power", "--model", "mm1",
                     "--budget-k", "0.5mg", "--p-max", "1", "--month", "11")
        micro = caoi("optimize", "--problem", "power", "--model", "mm1",
                     "--budget-k", "500ug", "--p-max", "1", "--month", "11")
        assert grams.stdout == milli.stdout == micro.stdout
        body = json.loads(grams.stdout)
        assert body["lambda_star"] == pytest.approx(13.528, abs=2e-3)
        assert body["binding"] == "power"

    def test_qos_snr_in_db(self):
        res = caoi("optimize", "--problem", "qos", "--model", "mm1",
                   "--budget-k", "6e-5", "--snr-min-db", "0", "--ci-value",
                   "198")
        assert res.returncode == 0, res.stderr
        body = json.loads(res.stdout)
        assert body["mu_star"] == pytest.approx(83.333, abs=0.01)

    def test_power_needs_cap(self):
        res = caoi("optimize", "--problem", "power", "--model", "mm1",
                   "--budget-k", "0.0005")
        assert res.returncode == 2

    def test_qos_needs_floor(self):
        res = caoi("optimize", "--problem", "qos", "--model", "mm1",
                   "--budget-k", "6e-5")
        assert res.returncode == 2

    def test_month_out_of_range(self):
        res = caoi("optimize", "--problem", "cf", "--model", "mm1",
                   "--budget-k", "0.05", "--mu", "1.0", "--month", "13")
        assert res.returncode == 2

    @staticmethod
    def monthly_csv(path, values):
        """values as YYYY-MM rows from 2023-01 on."""
        path.write_text("period,ci_g_per_kwh\n" + "".join(
            f"{2023 + i // 12}-{i % 12 + 1:02d},{v}\n" for i, v in enumerate(values)))
        return str(path)

    def test_month_is_any_row_of_the_profile(self, tmp_path, capsys):
        # Month m is the m-th data row, past 12 too: row 13 of two years
        # solves as row 1 of the same rows with the years swapped.
        first, second = [100 + 10 * m for m in range(12)], [400 + 10 * m for m in range(12)]
        solved = {}
        for name, values in (("y24", first + second), ("swapped", second + first)):
            ci = self.monthly_csv(tmp_path / f"{name}.csv", values)
            for month in (1, 13):
                assert cli.main(["optimize", "--problem", "cf", "--model", "mm1",
                                 "--budget-k", "0.05", "--mu", "1", "--ci", ci,
                                 "--month", str(month)]) == 0
                solved[name, month] = json.loads(capsys.readouterr().out)
        assert solved["y24", 13] == solved["swapped", 1] != solved["y24", 1]
        assert solved["y24", 13]["lambda_bound"] == pytest.approx(
            solved["y24", 1]["lambda_bound"] / 4, rel=1e-12)

    @pytest.mark.parametrize("month", [0, 25])
    def test_month_outside_the_profile_exits_2(self, tmp_path, capsys, month):
        ci = self.monthly_csv(tmp_path / "y24.csv", [200] * 24)
        assert cli.main(["optimize", "--problem", "cf", "--model", "mm1", "--budget-k", "0.05",
                         "--mu", "1", "--ci", ci, "--month", str(month)]) == 2
        assert capsys.readouterr() == ("", f"error: --month must be 1..24, got {month}\n")

    @pytest.mark.parametrize("flags,message", [
        (["--problem", "qos", "--snr-min-db", "0", "--mu", "40"], "--problem qos"),
        (["--problem", "cf", "--mu-rule", "track_opt_rho"], "track_opt_rho applies only"),
        (["--problem", "qos", "--snr-min-db", "0", "--mu-rule", "track_opt_rho"],
         "track_opt_rho applies only"),
        (["--problem", "power", "--p-max", "1", "--mu-rule", "track_opt_rho", "--mu", "-1"],
         "under --mu-rule track_opt_rho"),
        (["--problem", "power", "--p-max", "1", "--mu-rule", "track_opt_rho", "--mu", "40"],
         "under --mu-rule track_opt_rho"),
        (["--problem", "cf", "--mu", "40", "--p-max", "1"], "--p-max does not apply"),
        (["--problem", "qos", "--snr-min-db", "0", "--p-max", "1"], "--p-max does not apply"),
        (["--problem", "cf", "--mu", "40", "--snr-min-db", "3"],
         "--snr-min-db does not apply to --problem cf"),
        (["--problem", "power", "--p-max", "1", "--snr-min-db", "3"],
         "--snr-min-db does not apply to --problem power"),
        # The refusals that came first still do.
        (["--problem", "qos", "--snr-min-db", "0", "--mu", "40", "--p-max", "1"],
         "--problem qos: the SNR floor"),
    ])
    def test_ignored_flags_exit_2(self, tmp_path, capsys, flags, message):
        # Each of these once exited 0 with the bytes of the run without the flag.
        code = cli.main(["optimize", "--model", "mm1", "--budget-k", "0.5mg",
                         "--ci", "builtin", "--month", "11", *flags,
                         "--out", str(tmp_path / "opt.json")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_replayed_manifest_with_an_ignored_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        assert cli.main(["optimize", "--problem", "qos", "--model", "mm1",
                         "--budget-k", "60ug", "--snr-min-db", "0", "--ci", "builtin",
                         "--out", str(out)]) == 0
        manifest = tmp_path / "opt.json.manifest.json"
        body = json.loads(manifest.read_text())
        body["params"]["mu"] = 40.0
        manifest.write_text(json.dumps(body))
        assert cli.main(["replay", str(manifest), "--out-dir", str(tmp_path / "redo")]) == 2
        assert "--problem qos" in capsys.readouterr().err
        assert not any((tmp_path / "redo").iterdir())

    @pytest.mark.parametrize("mu", ["0", "-1", "nan"])
    @pytest.mark.parametrize("model,mode", [("mm1star", "paper"), ("mm1star", "exact"),
                                            ("mm1", "paper")])
    def test_bad_service_rate_exits_2(self, tmp_path, capsys, mu, model, mode):
        code = cli.main(["optimize", "--problem", "cf", "--model", model, "--mode", mode,
                         f"--mu={mu}", "--budget-k", "0.5mg", "--ci-value", "198",
                         "--out", str(tmp_path / "opt.json")])
        assert code == 2
        assert "service rate must be positive" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--problem", "power", "--p-max", "5e-324"], "energy per packet"),
        (["--problem", "qos", "--snr-min-db", "4000"], "transmission time"),
    ])
    def test_cap_that_would_divide_by_zero_exits_2(self, tmp_path, capsys, flags, message):
        # A traceback once: a power whose energy underflows to 0 kWh, and an
        # SNR floor whose linear value overflows.
        code = cli.main(["optimize", "--model", "mm1", "--budget-k", "0.5mg", "--ci", "builtin",
                         *flags, "--out", str(tmp_path / "opt.json")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--problem", "power", "--budget-k", "1e300", "--tn", "1e-3", "--p-max", "1",
         "--month", "1"],
        ["--problem", "cf", "--budget-k", "0.5mg", "--a", "0", "--mu", "40"],
    ])
    def test_infinite_bound_is_written_as_strict_json(self, capsys, flags):
        assert cli.main(["optimize", "--model", "mm1", "--ci", "builtin", *flags]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        body = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert body["lambda_bound"] == "inf"

    def test_snr_floor_that_rounds_away_exits_2(self, tmp_path, capsys):
        code = cli.main(["optimize", "--problem", "qos", "--model", "mm1",
                         "--budget-k", "60ug", "--snr-min-db=-170", "--ci-value", "198",
                         "--out", str(tmp_path / "opt.json")])
        assert code == 2
        assert "too small" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSimulate:
    def test_summary_json(self, tmp_path):
        out = tmp_path / "sim.json"
        res = caoi("simulate", "--model", "mm1", "--lambda", "0.5", "--mu",
                   "1", "--horizon", "20000", "--seed", "5", "--reps", "3",
                   "--out", str(out))
        assert res.returncode == 0, res.stderr
        body = json.loads(out.read_text())
        assert body["reps"] == 3
        assert body["closed_form_aoi_s"] == 3.5
        assert body["rel_dev_from_closed_form"] < 0.05
        assert body["ci95_halfwidth_s"] > 0
        assert body["empirical_a"] > 0.99

    def test_single_rep_has_no_interval(self):
        res = caoi("simulate", "--model", "mm1star", "--lambda", "1", "--mu",
                   "1", "--horizon", "5000", "--seed", "2")
        body = json.loads(res.stdout)
        assert body["ci95_halfwidth_s"] is None
        assert body["closed_form_aoi_s"] == 2.0

    def test_slots_and_events_written(self, tmp_path):
        out = tmp_path / "sim.json"
        slots = tmp_path / "slots.csv"
        events = tmp_path / "events.csv"
        res = caoi("simulate", "--model", "mm1", "--lambda", "0.5", "--mu",
                   "1", "--horizon", "1000", "--seed", "9",
                   "--out", str(out), "--slots-out", str(slots),
                   "--events-out", str(events))
        assert res.returncode == 0, res.stderr
        srows = read_rows(slots)
        assert srows[0] == ["slot_start_s", "n_tx", "cf_g"]
        assert len(srows) == 1 + 1000
        erows = read_rows(events)
        assert erows[0] == ["t_deliver_s", "t_generated_s", "age_after_s"]
        ages = [float(r[2]) for r in erows[1:]]
        assert all(a > 0 for a in ages)
        body = json.loads(out.read_text())
        assert len(erows) - 1 == int(body["completions"])

    @pytest.mark.parametrize("block_rows", [optimizer.BLOCK_ROWS, 7])
    def test_slot_and_event_bytes_are_the_row_loop(self, tmp_path, monkeypatch, block_rows):
        # Drained arrival-charged work ends past the horizon, so deliveries
        # are counted in slots past it, where the ledger reads 0.
        monkeypatch.setattr(optimizer, "BLOCK_ROWS", block_rows)
        slots, events = tmp_path / "slots.csv", tmp_path / "events.csv"
        assert cli.main(["simulate", "--model", "mm1", "--lambda", "0.95", "--mu", "1",
                         "--horizon", "500", "--slot", "1", "--seed", "5", "--drain",
                         "--buffer", "50", "--ci", "builtin", "--slots-out", str(slots),
                         "--events-out", str(events)]) == 0
        config = SimConfig(QueueSpec(Discipline.FCFS_MM1, 0.95, 1.0), 500.0, seed=5,
                           slot_length=1.0, buffer=50, drain=True, keep_events=True)
        trace = run(config, cidata.builtin_profile_si2024(), EnergyModel())
        assert len(trace.n_tx_per_slot) == len(trace.ledger.grams) > 500
        assert not trace.ledger.grams[500:].any()
        pairs = zip(trace.n_tx_per_slot.tolist(), trace.ledger.grams.tolist())
        expected = [cli.SLOTS_HEADER] + [
            (cli.fmt_float(i * 1.0), str(n), cli.fmt_float(g)) for i, (n, g) in enumerate(pairs)]
        assert slots.read_text() == "".join(",".join(r) + "\n" for r in expected)
        expected = [cli.EVENTS_HEADER] + [
            (cli.fmt_float(t), cli.fmt_float(u), cli.fmt_float(t - u))
            for t, u in zip(trace.delivery_times.tolist(), trace.delivery_gen_times.tolist())]
        assert events.read_text() == "".join(",".join(r) + "\n" for r in expected)

    def test_replicated_events_are_the_first_replication(self, tmp_path):
        # Only the first replication keeps its events, and it is the run
        # that --reps 1 makes with the same seed.
        for reps in ("1", "3"):
            assert cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                             "--horizon", "2000", "--seed", "9", "--reps", reps,
                             "--ci-value", "198",
                             "--events-out", str(tmp_path / f"events{reps}.csv")]) == 0
        one = (tmp_path / "events1.csv").read_bytes()
        assert one.count(b"\n") > 900
        assert (tmp_path / "events3.csv").read_bytes() == one

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_exits_2(self, tmp_path, capsys, reps):
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "100", "--reps", reps, "--ci-value", "198",
                         "--out", str(tmp_path / "sim.json"),
                         "--slots-out", str(tmp_path / "slots.csv")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: need at least 1 replication, got {reps}\n"
        assert not any(tmp_path.iterdir())

    def test_service_time_charging_with_an_overflowing_integral_exits_2(self, tmp_path,
                                                                         capsys):
        # Each busy interval's charge was inf - inf: the run warned twice and
        # wrote a total of NaN.
        argv = ["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                "--horizon", "1000", "--ci-value", "1e308"]
        code = cli.main(argv + ["--cf-mode", "service_time",
                                "--out", str(tmp_path / "sim.json")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: service-time charging subtracts integrals")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())
        for mode in ("arrival", "completion"):
            out = tmp_path / f"{mode}.json"
            assert cli.main(argv + ["--cf-mode", mode, "--out", str(out)]) == 0
            total = json.loads(out.read_text())["total_cf_g"]
            assert math.isfinite(total) and total > 1e300

    @pytest.mark.parametrize("buffer,seed", [("57", "13"), ("100", "1")])
    def test_drained_service_time_charges_past_the_overflow_exit_2(self, tmp_path, capsys,
                                                                    buffer, seed):
        # Drained work past the point where the integral overflows was charged
        # inf (exit 0, "total_cf_g": "inf") or NaN (two warnings, then an
        # error that named no cause).
        argv = ["simulate", "--model", "mm1", "--lambda", "3", "--mu", "1", "--horizon",
                "1000", "--buffer", buffer, "--drain", "--ci-value", "1.7e305",
                "--seed", seed]
        code = cli.main(argv + ["--cf-mode", "service_time",
                                "--out", str(tmp_path / "sim.json")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: service-time charging of drained work ran past")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())
        out = tmp_path / "arrival.json"
        assert cli.main(argv + ["--cf-mode", "arrival", "--out", str(out)]) == 0
        assert math.isfinite(json.loads(out.read_text())["total_cf_g"])

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # numpy's SeedSequence once ended this in a traceback with exit 1.
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "100", "--seed", "-1", "--ci-value", "198",
                         "--out", str(tmp_path / "sim.json"),
                         "--slots-out", str(tmp_path / "slots.csv")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not any(tmp_path.iterdir())

    def test_reps_over_the_cap_exits_2(self, tmp_path, capsys):
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "100", "--slot", "100", "--reps", "10001",
                         "--ci-value", "198", "--out", str(tmp_path / "sim.json")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 10001 replications exceed the cap of 10000\n"
        assert not any(tmp_path.iterdir())

    def test_unstable_fcfs_exits_2(self):
        res = caoi("simulate", "--model", "mm1", "--lambda", "2", "--mu", "1",
                   "--horizon", "1000", "--seed", "1")
        assert res.returncode == 2

    def test_finite_buffer_flag(self):
        res = caoi("simulate", "--model", "mm1", "--lambda", "0.9", "--mu",
                   "1", "--horizon", "20000", "--seed", "4", "--buffer", "1")
        body = json.loads(res.stdout)
        assert body["drops"] > 0
        assert body["empirical_a"] < 1
        assert body["closed_form_aoi_s"] is None

    def test_buffer_with_mm1star_exits_2(self, tmp_path, capsys):
        # Once exited 0 and recorded a buffer the preemptive kernel never read.
        argv = ["simulate", "--model", "mm1star", "--lambda", "1", "--mu", "1",
                "--horizon", "100", "--seed", "1", "--ci-value", "198",
                "--out", str(tmp_path / "sim.json")]
        assert cli.main([*argv, "--buffer", "5"]) == 2
        assert "a buffer does not apply to preemptive LCFS" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        assert cli.main([*argv, "--buffer", "inf"]) == 0
        manifest = tmp_path / "sim.json.manifest.json"
        body = json.loads(manifest.read_text())
        body["params"]["buffer"] = 5
        manifest.write_text(json.dumps(body))
        assert cli.main(["replay", str(manifest), "--out-dir", str(tmp_path / "redo")]) == 2
        assert "a buffer does not apply" in capsys.readouterr().err
        assert not any((tmp_path / "redo").iterdir())

    def test_oversized_slot_grid_exits_2(self, tmp_path, capsys):
        # 10^12 slots: rejected by the config check before any allocation.
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "1e6", "--slot", "1e-6", "--seed", "1",
                         "--ci-value", "198", "--out", str(tmp_path / "sim.json")])
        assert code == 2
        assert "slots exceed the cap" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # LCFS at mu = 1e-10 asked numpy for 54.9 GiB: a MemoryError traceback.
        ["--model", "mm1star", "--lambda", "1.2", "--mu", "1e-10", "--horizon", "100"],
        # At mu = 1e-300 the int64 cast of the slot index warned, and n_tx
        # summed to 0 for one completion.
        ["--model", "mm1star", "--lambda", "1.2", "--mu", "1e-300", "--horizon", "100"],
        # 3.0e7 slots, three times the cap, at 731 MB peak RSS.
        ["--model", "mm1", "--lambda", "3", "--mu", "1", "--horizon", "1e5", "--slot", "0.01",
         "--buffer", "1000000000"],
    ])
    def test_drained_work_past_the_slot_cap_exits_2(self, tmp_path, capsys, argv):
        code = cli.main(["simulate", *argv, "--drain", "--ci-value", "198",
                         "--out", str(tmp_path / "sim.json"),
                         "--slots-out", str(tmp_path / "slots.csv")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: drained work up to ") and err.count("\n") == 1, err
        assert "needs more than 10000000 slots" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("out,slots_out", [("a/s.out", "b/s.out"),
                                               ("same.csv", "same.csv")])
    def test_outputs_sharing_a_file_name_exit_2(self, tmp_path, capsys, out, slots_out):
        # Both exited 0: the first one's replay wrote both outputs to
        # <out-dir>/s.out, and the second left only the CSV.
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "100", "--ci-value", "198",
                         "--out", str(tmp_path / out), "--slots-out", str(tmp_path / slots_out)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: each output needs its own file name") \
            and err.count("\n") == 1
        assert not any(p.is_file() for p in tmp_path.rglob("*"))

    @pytest.mark.parametrize("slot", ["0", "nan", "1e-320"])
    def test_slot_without_a_count_exits_2(self, tmp_path, capsys, slot):
        # Once a ZeroDivisionError, ValueError and OverflowError traceback.
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "100", "--slot", slot, "--ci-value", "198",
                         "--out", str(tmp_path / "sim.json")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: slot length ") and err.endswith(" does not tile horizon 100.0\n")
        assert not any(tmp_path.iterdir())

    def test_run_that_cannot_finish_exits_2(self, tmp_path):
        # Gaps of 1e-300 s: the run drew gaps until a 60 s timeout killed
        # it.  A subprocess, so that a run without end fails on the timeout.
        res = caoi("simulate", "--model", "mm1star", "--lambda", "1e300", "--mu", "1",
                   "--horizon", "1e3", "--out", str(tmp_path / "s.json"), timeout=30)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: 1e+303 expected arrivals exceed the cap of "
                              "10000000000; shorten the horizon\n")
        assert not any(tmp_path.iterdir())

    def test_many_replications_of_a_fine_grid_run(self, capsys):
        # 20 replications of 10**6 slots were refused as 2 * 10**7 slots;
        # replications after the first now run on the default grid.
        assert cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "1e6", "--slot", "1", "--reps", "20",
                         "--ci-value", "198"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["reps"] == 20 and body["slot_s"] == 1.0

    def test_oversized_event_record_exits_2(self, tmp_path, capsys):
        # 10^8 expected arrivals with every event kept.
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "100", "--mu", "1000",
                         "--horizon", "1e6", "--seed", "1", "--ci-value", "198",
                         "--events-out", str(tmp_path / "events.csv")])
        assert code == 2
        assert "expected arrivals exceeds the cap" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSweep:
    def test_k_surface(self, tmp_path):
        out = tmp_path / "surf.csv"
        res = caoi("sweep", "--surface", "k", "--k-grid", "0.0005:0.001:6",
                   "--mu", "40", "--model", "both", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_rows(out)
        assert rows[0] == ["month", "x", "model", "aoi_s", "binding"]
        assert len(rows) == 1 + 12 * 6 * 2
        months = {r[0] for r in rows[1:]}
        assert months == {str(m) for m in range(1, 13)}

    def test_snr_surface(self, tmp_path):
        out = tmp_path / "snr.csv"
        res = caoi("sweep", "--surface", "snr", "--snr-grid-db=-10:30:41",
                   "--budget-k", "6e-5", "--model", "mm1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_rows(out)
        for month in range(1, 13):
            col = [float(r[3]) for r in rows[1:] if r[0] == str(month)]
            imin = col.index(min(col))
            assert 0 < imin < len(col) - 1

    @pytest.mark.parametrize("mu", ["0", "-1", "nan"])
    def test_bad_service_rate_exits_2(self, tmp_path, capsys, mu):
        code = cli.main(["sweep", "--surface", "k", "--k-grid", "4e-4:8e-4:3",
                         f"--mu={mu}", "--model", "mm1star", "--mode", "paper",
                         "--ci", "builtin", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "service rates must be positive" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("surface", [
        ["--surface", "k", "--k-grid", "4e-4:8e-4:3"],
        ["--surface", "snr", "--snr-grid-db=-10:30:5", "--budget-k", "60ug"],
    ])
    @pytest.mark.parametrize("p_max", ["nan", "inf", "-5", "0", "5"])
    def test_p_max_outside_the_hardware_cap_exits_2(self, tmp_path, capsys, surface, p_max):
        # --surface snr does not use --p-max, but checks it as --surface k does.
        code = cli.main(["sweep", *surface, f"--p-max={p_max}", "--ci", "builtin",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --p-max must be positive and at most the hardware p_max "
                       f"1.0 W, got {float(p_max)}\n")
        assert not any(tmp_path.iterdir())

    def test_snr_surface_refuses_mu(self, tmp_path, capsys):
        # The SNR floor sets each cell's service rate; --mu was once ignored.
        code = cli.main(["sweep", "--surface", "snr", "--snr-grid-db=-10:30:5",
                         "--budget-k", "60ug", "--mu", "40", "--ci", "builtin",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--surface snr" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_snr_grid_reaching_a_vanishing_rate_exits_2(self, tmp_path, capsys):
        code = cli.main(["sweep", "--surface", "snr", "--snr-grid-db=-170:-10:3",
                         "--budget-k", "60ug", "--ci", "builtin",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "too small" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--surface", "k", "--k-grid", "4e-4:8e-4:3", "--snr-grid-db=-10:30:5"],
         "--snr-grid-db does not apply to --surface k"),
        (["--surface", "k", "--k-grid", "4e-4:8e-4:3", "--budget-k", "60ug"],
         "--budget-k does not apply to --surface k"),
        (["--surface", "snr", "--snr-grid-db=-10:30:5", "--budget-k", "60ug",
          "--k-grid", "4e-4:8e-4:3"], "--k-grid does not apply to --surface snr"),
        (["--surface", "k", "--k-grid", "4e-4:8e-4:3", "--p-max", "5e-324"],
         "energy per packet"),
        (["--surface", "snr", "--snr-grid-db", "4000:5000:2", "--budget-k", "60ug"],
         "transmission time"),
    ])
    def test_refused_flags_exit_2(self, tmp_path, capsys, flags, message):
        code = cli.main(["sweep", *flags, "--ci", "builtin", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_profile_of_three_periods_exits_2(self, tmp_path, capsys):
        # The 12-step rule is the month sweep's own, as for a caller in Python.
        ci = tmp_path / "ci.csv"
        ci.write_text("period,ci_g_per_kwh\n2024-01,228\n2024-02,150.5\n2024-03,310\n")
        code = cli.main(["sweep", "--surface", "k", "--k-grid", "4e-4:8e-4:3", "--ci", str(ci),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr() == ("", "error: month sweeps need a 12-step profile, "
                                           "got 3 steps\n")
        assert [p.name for p in tmp_path.iterdir()] == ["ci.csv"]

    def test_snr_surface_needs_budget(self, tmp_path):
        res = caoi("sweep", "--surface", "snr", "--snr-grid-db=-10:30:41",
                   "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2


class TestManifestsAndReplay:
    def test_rerun_is_byte_identical(self, tmp_path):
        a1 = tmp_path / "a1.csv"
        a2 = tmp_path / "a2.csv"
        for out in (a1, a2):
            res = caoi("analyze", "--model", "both", "--mu", "1.0",
                       "--lambda-grid", "0.05:0.95:19", "--out", str(out))
            assert res.returncode == 0
        assert a1.read_bytes() == a2.read_bytes()

    def test_manifest_has_no_volatile_fields(self, tmp_path):
        out = tmp_path / "a.csv"
        caoi("analyze", "--model", "both", "--mu", "1.0",
             "--lambda-grid", "0.1:0.9:9", "--out", str(out))
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["tool"] == "caoi"
        assert manifest["command"] == "analyze"
        assert "time" not in json.dumps(manifest).lower()
        assert manifest["outputs"] == ["a.csv"]

    def test_replay_analyze(self, tmp_path):
        out = tmp_path / "a.csv"
        caoi("analyze", "--model", "both", "--mu", "1.0",
             "--lambda-grid", "0.1:0.9:9", "--out", str(out))
        res = caoi("replay", str(tmp_path / "a.csv.manifest.json"),
                   "--out-dir", str(tmp_path / "again"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "again" / "a.csv").read_bytes() == out.read_bytes()

    def test_replay_simulation_reproduces_everything(self, tmp_path):
        args = ["simulate", "--model", "mm1star", "--lambda", "1", "--mu",
                "1", "--horizon", "2000", "--seed", "77",
                "--out", str(tmp_path / "s.json"),
                "--slots-out", str(tmp_path / "slots.csv"),
                "--events-out", str(tmp_path / "events.csv")]
        assert caoi(*args).returncode == 0
        res = caoi("replay", str(tmp_path / "s.json.manifest.json"),
                   "--out-dir", str(tmp_path / "redo"))
        assert res.returncode == 0, res.stderr
        for name in ("s.json", "slots.csv", "events.csv"):
            assert (tmp_path / "redo" / name).read_bytes() == \
                (tmp_path / name).read_bytes()

    def test_replay_detects_changed_input(self, tmp_path):
        ci = tmp_path / "ci.csv"
        ci.write_text(BUILTIN_CSV)
        out = tmp_path / "a.csv"
        assert caoi("analyze", "--model", "both", "--mu", "1.0",
                    "--lambda-grid", "0.1:0.9:9", "--ci", str(ci),
                    "--out", str(out)).returncode == 0
        ci.write_text(BUILTIN_CSV.replace("308", "309"))
        res = caoi("replay", str(tmp_path / "a.csv.manifest.json"),
                   "--out-dir", str(tmp_path / "redo"))
        assert res.returncode == 2
        assert "changed" in res.stderr


class TestOutputPlan:
    """One plan of every command's outputs, checked before anything runs."""

    COMMANDS = {
        "analyze": ["analyze", "--model", "mm1", "--mu", "1", "--lambda-grid", "0.1:0.9:3"],
        "optimize": ["optimize", "--problem", "cf", "--model", "mm1", "--mu", "1",
                     "--budget-k", "0.05"],
        "simulate": ["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                     "--horizon", "100"],
        "sweep": ["sweep", "--surface", "k", "--mu", "1", "--k-grid", "0.01:0.1:3"],
    }

    @staticmethod
    def refused(tmp_path, capsys, argv, message):
        """argv exits 2 with one error line and leaves tmp_path as it was."""
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("error: ") and message in err, err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_output_over_the_ci_input_exits_2(self, tmp_path, capsys, command):
        # Each exited 0, and the output overwrote the profile its manifest digests.
        ci = tmp_path / "prof.csv"
        ci.write_text(BUILTIN_CSV)
        self.refused(tmp_path, capsys, [*self.COMMANDS[command], "--ci", str(ci),
                                        "--out", str(tmp_path / "." / "prof.csv")],
                     f"would overwrite the --ci input {ci}")

    @pytest.mark.parametrize("flag", ["--out", "--slots-out", "--events-out"])
    def test_manifest_over_the_ci_input_exits_2(self, tmp_path, capsys, flag):
        ci = tmp_path / "prof.manifest.json"
        ci.write_text(BUILTIN_CSV)
        self.refused(tmp_path, capsys, [*self.COMMANDS["simulate"], "--ci", str(ci),
                                        flag, str(tmp_path / "prof")],
                     f"error: {flag} {tmp_path / 'prof'} or its manifest would overwrite")

    def test_output_named_as_a_manifest_exits_2(self, tmp_path, capsys):
        # Exited 0: the manifest of s.json overwrote the slots CSV.
        out, slots = str(tmp_path / "s.json"), str(tmp_path / "s.json.manifest.json")
        self.refused(tmp_path, capsys, [*self.COMMANDS["simulate"], "--ci-value", "198",
                                        "--out", out, "--slots-out", slots],
                     f"error: --slots-out {slots} is the manifest of --out {out}\n")

    def test_replay_into_the_input_directory_exits_2(self, tmp_path, capsys):
        ci = tmp_path / "prof.csv"
        ci.write_text(BUILTIN_CSV)
        (tmp_path / "runs").mkdir()
        assert cli.main([*self.COMMANDS["sweep"], "--ci", str(ci),
                         "--out", str(tmp_path / "runs" / "prof.csv")]) == 0
        manifest = tmp_path / "runs" / "prof.csv.manifest.json"
        self.refused(tmp_path, capsys, ["replay", str(manifest), "--out-dir", str(tmp_path)],
                     f"error: --out {ci} or its manifest would overwrite the --ci input {ci}\n")

    def test_a_failed_output_leaves_no_manifest(self, tmp_path, capsys):
        # The JSON is written; the slots CSV's directory does not exist.
        code = cli.main([*self.COMMANDS["simulate"], "--ci-value", "198",
                         "--out", str(tmp_path / "ok.json"),
                         "--slots-out", str(tmp_path / "missing_dir" / "s.csv")])
        assert code == 4
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["ok.json"]


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestStrictJson:
    """A param that is not finite goes into the manifest as fmt_float's
    string, which strict JSON parsers read, and replays to the same bytes."""

    @pytest.mark.parametrize("argv,key,value", [
        (["optimize", "--problem", "cf", "--model", "mm1", "--budget-k", "inf", "--mu", "40",
          "--ci", "builtin", "--out", "o.json"], "budget_k", "inf"),
        (["sweep", "--surface", "snr", "--snr-grid-db", "0:1:2", "--budget-k", "inf",
          "--ci", "builtin", "--out", "s.csv"], "budget_k", "inf"),
        (["sweep", "--surface", "k", "--k-grid", "inf:inf:1", "--ci", "builtin",
          "--out", "k.csv"], "k_grid", ["inf"]),
        (["analyze", "--model", "both", "--mu", "40", "--k-grid", "inf:inf:1",
          "--ci", "builtin", "--out", "a.csv"], "grid", ["inf"]),
        # A string flag keeps the text "nan": only float flags read it back as a float.
        (["optimize", "--problem", "cf", "--model", "mm1", "--budget-k", "1", "--mu", "40",
          "--ci", "builtin", "--out", "nan"], "out", "nan"),
    ])
    def test_manifest_is_strict_json_and_replays(self, tmp_path, monkeypatch, argv, key,
                                                  value):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0
        out = argv[-1]
        text = (tmp_path / f"{out}.manifest.json").read_text()
        assert json.loads(text, parse_constant=_refuse_constant)["params"][key] == value
        assert cli.main(["replay", f"{out}.manifest.json", "--out-dir", "redo"]) == 0
        for name in (out, f"{out}.manifest.json"):
            assert (tmp_path / "redo" / name).read_bytes() == (tmp_path / name).read_bytes()


DELETE = object()


class TestReplayChecks:
    """A replay refuses a manifest the parser could not have produced."""

    @pytest.fixture(scope="class")
    def bodies(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("base")
        runs = {
            "analyze": ["analyze", "--model", "both", "--mu", "1", "--lambda-grid",
                        "0.1:0.9:3", "--ci", "builtin", "--out", str(d / "a.csv")],
            "optimize": ["optimize", "--problem", "qos", "--model", "mm1", "--budget-k",
                         "60ug", "--snr-min-db", "0", "--ci", "builtin",
                         "--out", str(d / "o.json")],
            "simulate": ["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "100", "--ci-value", "198", "--out", str(d / "s.json")],
            "sweep_k": ["sweep", "--surface", "k", "--k-grid", "4e-4:8e-4:3", "--ci",
                        "builtin", "--out", str(d / "k.csv")],
            "sweep_snr": ["sweep", "--surface", "snr", "--snr-grid-db=-10:30:5",
                          "--budget-k", "60ug", "--ci", "builtin", "--out", str(d / "snr.csv")],
            "optimize_power": ["optimize", "--problem", "power", "--model", "mm1",
                               "--budget-k", "0.5mg", "--p-max", "1", "--ci", "builtin",
                               "--out", str(d / "p.json")],
        }
        out = {}
        for name, argv in runs.items():
            assert cli.main(argv) == 0
            out[name] = json.loads(Path(argv[-1] + ".manifest.json").read_text())
        return out

    @staticmethod
    def replay(tmp_path, text):
        manifest = tmp_path / "m.manifest.json"
        manifest.write_text(text)
        return cli.main(["replay", str(manifest), "--out-dir", str(tmp_path / "redo")])

    @staticmethod
    def edited(bodies, name, **params):
        body = copy.deepcopy(bodies[name])
        for key, value in params.items():
            if value is DELETE:
                del body["params"][key]
            else:
                body["params"][key] = value
        return json.dumps(body)

    MALFORMED = {
        "not-json": lambda b: '{"command": ',
        "json-list": lambda b: json.dumps([b["optimize"]]),
        "unknown-command": lambda b: json.dumps(dict(b["optimize"], command="transmogrify")),
        "missing-key": ("optimize", {"eps": DELETE}),
        "extra-key": ("optimize", {"speed": 1.0}),
        "problem-foo": ("optimize", {"problem": "foo"}),
        "simulate-model-both": ("simulate", {"model": "both"}),
        "cf-mode-x": ("simulate", {"cf_mode": "x"}),
        "reps-fraction": ("simulate", {"reps": 1.5}),
        "seed-string": ("simulate", {"seed": "7"}),
        "mu-null": ("simulate", {"mu": None}),
        "grid-string": ("analyze", {"grid": "abc"}),
        "grid-over-cap": ("analyze", {"grid": [float(i) for i in range(10**5 + 1)]}),
        "grid-decreasing": ("sweep_k", {"k_grid": [8e-4, 4e-4, 5e-4]}),
        "grid-uneven": ("analyze", {"grid": [0.1, 0.2, 0.9]}),
        "grid-ints": ("analyze", {"grid": [1, 2, 3]}),
        "mu-int": ("simulate", {"mu": 1}),
        "drain-int": ("simulate", {"drain": 1}),
        "out-nan-token": ("simulate", {"out": math.nan}),     # json writes NaN
        "ci-constant-for-analyze": ("analyze", {"ci": {"kind": "constant", "value": 50.0}}),
        "ci-unknown-kind": ("analyze", {"ci": {"kind": "url", "path": "https://x"}}),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, bodies, case):
        make = self.MALFORMED[case]
        text = make(bodies) if callable(make) else self.edited(bodies, make[0], **make[1])
        assert self.replay(tmp_path, text) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()] == ["m.manifest.json"]

    @pytest.mark.parametrize("name,key,value,message", [
        ("optimize", "p_max", 1.0, "--p-max does not apply to --problem qos"),
        ("optimize_power", "snr_min_db", 3.0, "--snr-min-db does not apply to --problem power"),
        ("sweep_k", "budget_k", 6e-5, "--budget-k does not apply to --surface k"),
        ("sweep_k", "snr_grid_db", [0.0], "--snr-grid-db does not apply to --surface k"),
        ("sweep_snr", "k_grid", [4e-4], "--k-grid does not apply to --surface snr"),
        ("analyze", "grid_kind", "both", "exactly one of --lambda-grid or --k-grid"),
    ])
    def test_manifest_with_an_ignored_value_exits_2(self, tmp_path, capsys, bodies, name,
                                                     key, value, message):
        assert self.replay(tmp_path, self.edited(bodies, name, **{key: value})) == 2
        assert message in capsys.readouterr().err
        assert not any((tmp_path / "redo").iterdir())

    @pytest.mark.parametrize("name", ["sweep_k", "sweep_snr"])
    @pytest.mark.parametrize("p_max", [math.nan, math.inf, -5.0, 0.0, 5.0])
    def test_manifest_with_a_p_max_outside_the_cap_exits_2(self, tmp_path, capsys, bodies,
                                                           name, p_max):
        # json writes nan and inf as the tokens NaN and Infinity, which it reads back.
        assert self.replay(tmp_path, self.edited(bodies, name, p_max=p_max)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --p-max must be positive") and err.count("\n") == 1
        assert not any((tmp_path / "redo").iterdir())

    def test_manifest_with_reps_below_one_exits_2(self, tmp_path, capsys, bodies):
        assert self.replay(tmp_path, self.edited(bodies, "simulate", reps=0)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need at least 1 replication, got 0\n"
        assert not any((tmp_path / "redo").iterdir())

    def test_manifest_with_a_negative_seed_exits_2(self, tmp_path, capsys, bodies):
        assert self.replay(tmp_path, self.edited(bodies, "simulate", seed=-1)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not any((tmp_path / "redo").iterdir())

    def test_unedited_manifests_replay(self, tmp_path, bodies):
        for name, body in bodies.items():
            (tmp_path / name).mkdir()
            assert self.replay(tmp_path / name, json.dumps(body)) == 0


class TestRateCapUnderflow:
    """A rate cap whose denominator xi * E * t_N (times a) rounds to 0 is
    refused on every path, with no traceback and no numpy warning."""

    @pytest.mark.parametrize("argv", [
        ["optimize", "--problem", "power", "--model", "mm1", "--budget-k", "0.5mg",
         "--tn", "5e-324", "--p-max", "1e-3", "--ci", "builtin"],
        ["optimize", "--problem", "qos", "--model", "mm1", "--budget-k", "0.5mg",
         "--tn", "5e-324", "--snr-min-db", "3", "--ci", "builtin"],
        ["optimize", "--problem", "cf", "--model", "mm1", "--budget-k", "0.5mg",
         "--mu", "40", "--tn", "5e-324", "--ci", "builtin"],
        ["optimize", "--problem", "cf", "--model", "mm1", "--budget-k", "0.5mg",
         "--mu", "40", "--a", "5e-324", "--ci", "builtin"],
        ["sweep", "--surface", "k", "--k-grid", "1e-4:2e-4:3", "--tn", "5e-324",
         "--p-max", "1e-3", "--ci", "builtin"],
        ["sweep", "--surface", "snr", "--snr-grid-db=-10:30:5", "--budget-k", "60ug",
         "--tn", "5e-324", "--ci", "builtin"],
        ["analyze", "--model", "both", "--mu", "40", "--k-grid", "1e-4:2e-4:3",
         "--tn", "5e-324", "--ci", "builtin"],
        ["analyze", "--model", "both", "--mu", "40", "--k-grid", "1e-4:2e-4:3",
         "--a", "5e-324", "--ci", "builtin"],
    ])
    def test_exits_2(self, tmp_path, capsys, argv):
        # Tier-1 turns a RuntimeWarning into an error, which main does not catch.
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "underflows to 0" in err
        assert not any(tmp_path.iterdir())


class TestGridCap:
    def test_parse_grid_refuses_more_points_than_the_cap(self):
        assert len(cli.parse_grid(f"0:1:{cli.MAX_GRID_POINTS}")) == cli.MAX_GRID_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match="exceeds the cap"):
            cli.parse_grid(f"0:1:{cli.MAX_GRID_POINTS + 1}")

    def test_grid_flag_over_the_cap_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--model", "both", "--mu", "1.0",
                      f"--lambda-grid=0.1:0.9:{cli.MAX_GRID_POINTS + 1}",
                      "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestCiResolution:
    def test_env_var_default(self, tmp_path):
        ci = tmp_path / "flat.csv"
        ci.write_text("period,ci_g_per_kwh\n" +
                      "".join(f"{m},500\n" for m in range(1, 13)))
        out = tmp_path / "o.json"
        res = caoi("optimize", "--problem", "cf", "--model", "mm1star",
                   "--mode", "paper", "--budget-k", "0.05", "--mu", "9000",
                   "--out", str(out), env_extra={"CAOI_DEFAULT_CI": str(ci)})
        assert res.returncode == 0, res.stderr
        body = json.loads(out.read_text())
        # bound at 500 g/kWh: 0.05 / (500 * e_p_kwh * 3600)
        assert body["lambda_bound"] == pytest.approx(
            0.05 / (500.0 * (1.2e-4 / 3.6e6) * 3600.0), rel=1e-9)
        manifest = json.loads((tmp_path / "o.json.manifest.json").read_text())
        assert manifest["params"]["ci"]["kind"] == "file"

    def test_explicit_flag_beats_env(self, tmp_path):
        ci = tmp_path / "flat.csv"
        ci.write_text("period,ci_g_per_kwh\n1,500\n")
        res = caoi("optimize", "--problem", "cf", "--model", "mm1",
                   "--budget-k", "0.05", "--mu", "1.0", "--ci", "builtin",
                   env_extra={"CAOI_DEFAULT_CI": str(ci)})
        body = json.loads(res.stdout)
        assert body["lambda_bound"] == pytest.approx(2104.377, abs=1e-3)

    def test_periods_out_of_row_order_exit_2(self, tmp_path, capsys):
        # This file once loaded, and --month 1 solved with the row labelled 3.
        ci = tmp_path / "shuffled.csv"
        ci.write_text("period,ci_g_per_kwh\n3,300\n1,100\n2,200\n")
        code = cli.main(["optimize", "--problem", "power", "--model", "mm1", "--budget-k",
                         "0.5", "--mu", "40", "--p-max", "1", "--month", "1", "--ci", str(ci)])
        assert code == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == "error: line 2: period 3 on data row 1, expected 1\n"

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        ci = tmp_path / "latin1.csv"
        ci.write_bytes("period,ci_g_per_kwh\n# Málaga\n1,500\n".encode("latin-1"))
        out = tmp_path / "out" / "o.json"
        out.parent.mkdir()
        code = cli.main(["optimize", "--problem", "cf", "--model", "mm1", "--budget-k",
                         "0.5mg", "--mu", "40", "--ci", str(ci), "--out", str(out)])
        assert code == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: input {ci.resolve()} is not UTF-8: ") and err.count("\n") == 1
        assert not any(out.parent.iterdir())

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one.  The digest stays
        # that of the bytes on disk.
        for name, bom in (("plain", b""), ("bom", codecs.BOM_UTF8)):
            ci = tmp_path / f"{name}_ci.csv"
            ci.write_bytes(bom + BUILTIN_CSV.encode())
            assert cli.main(["analyze", "--model", "both", "--mu", "40", "--k-grid",
                             "1e-4:1e-3:5", "--ci", str(ci),
                             "--out", str(tmp_path / f"{name}.csv")]) == 0
        out = tmp_path / "bom.csv"
        assert out.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        manifest = tmp_path / "bom.csv.manifest.json"
        assert json.loads(manifest.read_text())["params"]["ci"]["sha256"] == \
            hashlib.sha256((tmp_path / "bom_ci.csv").read_bytes()).hexdigest()
        assert cli.main(["replay", str(manifest), "--out-dir", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "bom.csv").read_bytes() == out.read_bytes()

    def test_file_is_read_once_and_parsed_as_hashed(self, tmp_path, monkeypatch):
        ci = tmp_path / "ci.csv"
        ci.write_bytes(BUILTIN_CSV.replace("258", "258.5").encode())
        spec = cli.resolve_ci_spec(str(ci), None)
        reads, parsed = [], []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self) or read_bytes(self))
        monkeypatch.setattr(cli, "parse_ci_csv",
                            lambda text: parsed.append(text) or cidata.parse_ci_csv(text))
        profile = cli.load_ci(spec)
        assert reads == [Path(spec["path"])]
        assert parsed == [BUILTIN_CSV.replace("258", "258.5")]
        assert profile.values[-1] == 258.5

    @pytest.mark.parametrize("argv", [
        ["optimize", "--problem", "cf", "--model", "mm1", "--budget-k", "1mg", "--mu", "40"],
        ["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1", "--horizon", "100"],
    ], ids=["optimize", "simulate"])
    @pytest.mark.parametrize("ci", ["missing.csv", "builtin"])
    def test_ci_with_ci_value_exits_2(self, tmp_path, capsys, argv, ci):
        # Both once exited 0 and ignored --ci, even a file that is not there.
        code = cli.main([*argv, "--ci", str(tmp_path / ci) if ci.endswith(".csv") else ci,
                         "--ci-value", "198", "--out", str(tmp_path / "o.json")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --ci and --ci-value are exclusive: give one CI source\n"
        assert not any(tmp_path.iterdir())

    def test_ci_value_shortcut(self):
        res = caoi("optimize", "--problem", "cf", "--model", "mm1",
                   "--budget-k", "0.05", "--mu", "1.0", "--ci-value", "99")
        body = json.loads(res.stdout)
        assert body["lambda_bound"] == pytest.approx(
            0.05 / (99.0 * (1.2e-4 / 3.6e6) * 3600.0), rel=1e-9)


# Run in a fresh interpreter: the modules caoi.cli loads, then those loaded
# after cli.main(argv) and its exit code, as JSON on stdout.
FOOTPRINT = """
import json, sys
import caoi.cli

def loaded():
    return sorted(m for m in ("caoi.dessim", "numpy.random", "hashlib") if m in sys.modules)

on_import = loaded()
try:
    code = caoi.cli.main(sys.argv[1:])
except SystemExit as exc:       # --version exits through argparse
    code = exc.code
print(json.dumps([on_import, code, loaded()]))
"""


class TestImportFootprint:
    """A command loads only the modules it runs: the simulator, with
    numpy.random, for simulate alone, and hashlib for a --ci file alone."""

    @staticmethod
    def footprint(*argv):
        res = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1])

    COMMANDS = {
        "version": ["--version"],
        "analyze": ["analyze", "--model", "both", "--mu", "1", "--lambda-grid", "0.1:0.9:3",
                    "--ci", "builtin", "--out", "{d}/a.csv"],
        "optimize": ["optimize", "--problem", "qos", "--model", "mm1", "--budget-k", "60ug",
                     "--snr-min-db", "0", "--ci", "builtin", "--out", "{d}/o.json"],
        "sweep": ["sweep", "--surface", "k", "--k-grid", "4e-4:8e-4:3", "--ci", "builtin",
                  "--out", "{d}/k.csv"],
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_commands_but_simulate_load_no_simulator(self, tmp_path, name):
        argv = [a.replace("{d}", str(tmp_path)) for a in self.COMMANDS[name]]
        assert self.footprint(*argv) == [[], 0, []]

    def test_replay_loads_no_simulator(self, tmp_path):
        assert cli.main(["sweep", "--surface", "snr", "--snr-grid-db=-10:30:5",
                         "--budget-k", "60ug", "--ci", "builtin",
                         "--out", str(tmp_path / "snr.csv")]) == 0
        assert self.footprint("replay", str(tmp_path / "snr.csv.manifest.json"),
                              "--out-dir", str(tmp_path / "redo")) == [[], 0, []]

    def test_simulate_loads_the_simulator(self, tmp_path):
        on_import, code, loaded = self.footprint(
            "simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1", "--horizon", "100",
            "--ci-value", "198", "--out", str(tmp_path / "s.json"))
        assert (on_import, code) == ([], 0)
        assert {"caoi.dessim", "numpy.random"} <= set(loaded)

    def test_a_ci_file_loads_hashlib(self, tmp_path):
        ci = tmp_path / "ci.csv"
        ci.write_text(BUILTIN_CSV)
        assert self.footprint("optimize", "--problem", "cf", "--model", "mm1",
                              "--budget-k", "0.05", "--mu", "1", "--ci", str(ci),
                              "--out", str(tmp_path / "o.json")) == [[], 0, ["hashlib"]]


class TestMisc:
    def test_version_flag(self):
        res = caoi("--version")
        assert res.returncode == 0
        assert "caoi" in res.stdout

    def test_unknown_command(self):
        assert caoi("transmogrify").returncode == 2

    def test_help_exits_zero(self):
        assert caoi("--help").returncode == 0
        assert caoi("simulate", "--help").returncode == 0
