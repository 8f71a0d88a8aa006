#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py      # the same checks under pytest

Runs every workload once with --trace 0 and once with --trace 1, each at
--seconds 1, the shortest run a workload allows (it still completes its
minimum number of cycles; see README.md for why sim_validate cannot be
made smaller).  Checks that the command exits 0, that its last line is the
result object with exactly the expected keys, and that every metric named
in BENCHMARK.json is printed with its unit.  The file name keeps it out of
the default pytest collection, so the library's test suite does not run it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, trace: int) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in wanted}, set(printed) ^ {m["name"] for m in wanted}
    for m in wanted:
        entry = printed[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)
        assert f"metric {m['name']} = " in done.stdout, m["name"]
    return result


def _check(workload):
    for trace in (0, 1):
        run_once(workload, trace)


def test_sim_validate():
    _check("sim_validate")


def test_surfaces():
    _check("surfaces")


def test_cli_roundtrip():
    _check("cli_roundtrip")


def test_every_workload_is_covered():
    assert {w["name"] for w in SPEC["workloads"]} == {"sim_validate", "surfaces",
                                                      "cli_roundtrip"}


if __name__ == "__main__":
    test_every_workload_is_covered()
    for w in SPEC["workloads"]:
        _check(w["name"])
        print(f"smoke {w['name']}: ok", flush=True)
