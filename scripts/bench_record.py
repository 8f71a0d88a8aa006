#!/usr/bin/env python3
"""Record end-to-end benchmark medians into BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr 6 --parent ../caoi-parent

For each workload BENCHMARK.json declares, or each that --workload
names, this runs `perfbench/run.py --trace 0`, at run.py's
own run length, of this checkout (the change) and of another checkout
(the parent) in alternating pairs: the parent runs first in even pairs
and second in odd ones.  Both checkouts must be committed, with no
uncommitted change to a tracked file, so the record names the commit
each side ran.  From each run it keeps the final JSON line and the host
facts that run.py prints, and it writes to BENCH_<pr>.json in this
checkout, per workload and side, every run's metrics, their median and
their quartiles.  It then prints, per workload and end-to-end metric,
the parent's and the change's medians, the relative change and how many
pairs the change won, taking each metric's better direction from
BENCHMARK.json.  The exit status is nonzero if any run failed or
reported an incorrect result; the file is written either way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py --trace 0` of checkout: its result line and host facts."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    return {"host": host, "result": result}


def uncommitted(checkout: Path) -> str:
    """`git status` of checkout's tracked files, empty when they are all committed."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else proc.stderr.strip()


def summarize(runs: list) -> dict:
    """Every run's metric values, with their median and quartiles."""
    names = sorted({name for r in runs for name in r["metrics"]})
    values = {name: [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
              for name in names}

    def quartiles(v):
        return statistics.quantiles(v, n=4)[::2] if len(v) > 1 else [v[0], v[0]]

    return {
        "correct": [r["correct"] and r["exit_code"] == 0 for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "units": {name: next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
                  for name in names},
        "runs": values,
        "median": {name: statistics.median(v) for name, v in values.items()},
        "quartiles": {name: quartiles(v) for name, v in values.items()},
    }


def workloads(path: Path = ROOT / "BENCHMARK.json") -> list:
    """The names of the workloads BENCHMARK.json declares, in its order."""
    return [w["name"] for w in json.loads(path.read_text())["workloads"]]


def directions(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """Each end-to-end metric's better direction, "higher" or "lower"."""
    return {m["name"]: m["better"] for m in json.loads(path.read_text())["end_to_end"]}


def comparison(workloads: dict, better: dict) -> list:
    """One line per workload and end-to-end metric of both sides: the parent
    and change medians, the relative change, and the pairs the change won.

    workloads maps a workload to its {"parent": ..., "change": ...}
    summaries; the i-th runs of the two sides make pair i, so the pairs
    are counted only when every run reported the metric.
    """
    lines = []
    for workload, sides in workloads.items():
        parent, change = sides["parent"], sides["change"]
        for name, direction in better.items():
            if name not in parent["median"] or name not in change["median"]:
                continue
            before, after = parent["median"][name], change["median"][name]
            olds, news = parent["runs"][name], change["runs"][name]
            if len(olds) == len(parent["correct"]) and len(news) == len(change["correct"]):
                won = sum(c > p if direction == "higher" else c < p for p, c in zip(olds, news))
                tally = f"change won {won} of {len(olds)}"
            else:   # a run without the metric would shift every later pair
                tally = "pairs unknown: a run reported no value"
            relative = f"{(after - before) / before:+.1%}" if before else "n/a"
            lines.append(f"{workload} {name} ({direction} is better): parent {before:.6g}, "
                         f"change {after:.6g}, {relative}, {tally}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    names = workloads()
    parser.add_argument("--workload", choices=names, nargs="+", default=names)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"change": ROOT, "parent": args.parent.resolve()}
    for side, checkout in sides.items():
        status = uncommitted(checkout)
        if status:
            parser.error(f"the {side} checkout {checkout} is not committed:\n{status}")
    record = {"pr": args.pr,
              "command": f"perfbench/run.py --trace 0 --seed {args.seed}",
              "pairs": args.pairs, "order": "parent first in even pairs", "host": {},
              "commits": {}, "workloads": {}}
    ok = True
    for workload in args.workload:
        results = {side: [] for side in sides}
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 else list(reversed(sides))
            for side in order:
                out = run_once(sides[side], workload, args.seed)
                result = out["result"]
                results[side].append(result)
                if out["host"]:
                    record["commits"][side] = out["host"].pop("commit")
                    record["host"] = out["host"]
                ok &= result["correct"] and result["exit_code"] == 0
                work = result["metrics"].get("work_per_ref", {}).get("value")
                print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                      f"work_per_ref={work}", flush=True)
        record["workloads"][workload] = {side: summarize(runs) for side, runs in results.items()}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for line in comparison(record["workloads"], directions()):
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
