import csv
import json
import math
import os
import subprocess
import sys

import pytest

from caoi import cli

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


def caoi(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("CAOI_DEFAULT_CI", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "caoi", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    def test_oversized_slot_grid_exits_2(self, tmp_path, capsys):
        # 10^12 slots: rejected by the config check before any allocation.
        code = cli.main(["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                         "--horizon", "1e6", "--slot", "1e-6", "--seed", "1",
                         "--ci-value", "198", "--out", str(tmp_path / "sim.json")])
        assert code == 2
        assert "slots exceed the cap" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    def test_snr_grid_reaching_a_vanishing_rate_exits_2(self, tmp_path, capsys):
        code = cli.main(["sweep", "--surface", "snr", "--snr-grid-db=-170:-10:3",
                         "--budget-k", "60ug", "--ci", "builtin",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "too small" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    def test_ci_value_shortcut(self):
        res = caoi("optimize", "--problem", "cf", "--model", "mm1",
                   "--budget-k", "0.05", "--mu", "1.0", "--ci-value", "99")
        body = json.loads(res.stdout)
        assert body["lambda_bound"] == pytest.approx(
            0.05 / (99.0 * (1.2e-4 / 3.6e6) * 3600.0), rel=1e-9)


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
