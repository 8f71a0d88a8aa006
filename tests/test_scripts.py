"""Both figure scripts at small sizes, make_sweep_datasets.py and
validate_against_simulation.py, and bench_record.py's summary on
synthetic runs and its workload list, loaded by path as CI runs them."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from caoi import builtin_profile_si2024

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_sweep_datasets(tmp_path):
    load("make_sweep_datasets").main(["--out-dir", str(tmp_path)])
    tables = {name: read_csv(tmp_path / name) for name in (
        "lambda_sweep.csv", "budget_sweep.csv", "snr_sweep.csv", "month_power.csv")}
    # 98 rates, 12 months x 60 budgets, 12 months x 41 floors, 12 months; 2 models each.
    expected = {
        "lambda_sweep.csv": (["lambda", "model", "aoi_s", "cf_g", "binding"], 196),
        "budget_sweep.csv": (["month", "budget_g", "model", "aoi_s", "binding"], 1440),
        "snr_sweep.csv": (["month", "snr_db", "model", "aoi_s", "binding"], 984),
        "month_power.csv": (["month", "model", "aoi_s", "binding"], 24),
    }
    assert {name: (rows[0], len(rows) - 1) for name, rows in tables.items()} == expected
    # Under a binding 1 W cap the paper-mode preemptive age scales with the
    # month's intensity, so November/May is the CI ratio.
    age = {int(month): float(aoi) for month, model, aoi, binding
           in tables["month_power.csv"][1:] if model == "mm1star"}
    values = builtin_profile_si2024().values
    assert age[11] / age[5] == pytest.approx(values[10] / values[4], rel=1e-12)


@pytest.mark.parametrize("bad", [["--mu", "0"], ["--horizon", "-1"]])
def test_sweep_datasets_refuse_bad_input_before_any_file(tmp_path, capsys, bad):
    # --mu 0 once wrote lambda_sweep.csv before a traceback; --horizon -1
    # ended in a traceback.
    out_dir = tmp_path / "out"
    assert load("make_sweep_datasets").main(["--out-dir", str(out_dir), *bad]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out_dir.exists()


def test_validation_at_a_small_size(tmp_path):
    script = load("validate_against_simulation")
    out = tmp_path / "validation.csv"
    argv = ["--rho", "0.3", "0.5", "--arrivals", "2e4", "--reps", "3", "--out", str(out)]
    assert script.main(argv) == 0
    rows = read_csv(out)
    assert rows[0] == ["model", "rho", "closed_form_aoi_s", "simulated_aoi_s",
                       "ci95_halfwidth_s", "rel_dev"]
    assert [tuple(r[:2]) for r in rows[1:]] == [
        (model, rho) for model in ("mm1", "mm1star") for rho in ("0.29999999999999999", "0.5")]
    # A tolerance no finite sample meets fails every cell.
    assert script.main([*argv, "--tol", "0"]) == 1


@pytest.mark.parametrize("bad", [["--seed", "-1"], ["--reps", "10001"], ["--rho", "1.5"]])
def test_validation_refuses_bad_input_before_the_table(capsys, bad):
    # A negative seed, too many replications and an unstable FCFS cell each
    # exit 2 with one error line, as the CLI does, and print no table.
    argv = ["--rho", "0.5", "--arrivals", "100", "--reps", "1", *bad]
    assert load("validate_against_simulation").main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def synthetic_runs(values: dict) -> list:
    """bench_record results, one per run, from {metric: [value per run]}."""
    count = len(next(iter(values.values())))
    return [{"correct": True, "exit_code": 0, "attempted": 10, "failed": 0,
             "metrics": {name: {"value": v[i], "unit": "u"} for name, v in values.items()}}
            for i in range(count)]


def test_bench_record_compares_the_sides_pair_by_pair():
    script = load("bench_record")
    parent = script.summarize(synthetic_runs({"work_per_ref": [10.0, 12.0, 11.0],
                                              "op_tail_ref": [2.0, 2.0, 2.0],
                                              "trace.spans": [5.0, 5.0, 5.0]}))
    change = script.summarize(synthetic_runs({"work_per_ref": [11.0, 11.5, 13.0],
                                              "op_tail_ref": [1.0, 2.5, 1.5],
                                              "trace.spans": [1.0, 1.0, 1.0]}))
    lines = script.comparison({"surfaces": {"parent": parent, "change": change}},
                              {"work_per_ref": "higher", "op_tail_ref": "lower",
                               "peak_rss_mb": "lower"})
    # A per-layer metric and one neither side reported print nothing.
    assert lines == [
        "surfaces work_per_ref (higher is better): parent 11, change 11.5, +4.5%, "
        "change won 2 of 3",
        "surfaces op_tail_ref (lower is better): parent 2, change 1.5, -25.0%, "
        "change won 2 of 3",
    ]
    # A run that reported no value leaves the pairs unknown, not shifted.
    runs = synthetic_runs({"work_per_ref": [11.0, 9.0, 13.0]})
    del runs[1]["metrics"]["work_per_ref"]
    lines = script.comparison({"surfaces": {"parent": parent, "change": script.summarize(runs)}},
                              {"work_per_ref": "higher"})
    assert lines == ["surfaces work_per_ref (higher is better): parent 11, change 12, +9.1%, "
                     "pairs unknown: a run reported no value"]


def test_bench_record_reads_the_directions_without_writing():
    script = load("bench_record")
    path = script.ROOT / "BENCHMARK.json"
    before = path.read_bytes()
    better = script.directions()
    assert better["work_per_ref"] == "higher" and better["op_tail_ref"] == "lower"
    assert set(better.values()) == {"higher", "lower"}
    assert path.read_bytes() == before


def test_bench_record_takes_its_workloads_from_benchmark_json(tmp_path, monkeypatch, capsys):
    script = load("bench_record")
    declared = [{"name": name, "why": "w"} for name in ("a", "b", "c", "fourth")]
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"workloads": declared, "end_to_end": []}))
    assert script.workloads(path) == ["a", "b", "c", "fourth"]
    # A workload the file declares is a choice of --workload, with no edit
    # to the script; the run then stops at the --pairs check.
    declared_in = script.workloads
    monkeypatch.setattr(script, "workloads", lambda: declared_in(path))
    for name, message in (("fourth", "--pairs must be at least 1"), ("fifth", "invalid choice")):
        with pytest.raises(SystemExit):
            script.main(["--pr", "0", "--parent", str(tmp_path), "--pairs", "0",
                         "--workload", name])
        assert message in capsys.readouterr().err
