#!/usr/bin/env python3
"""caoi benchmark: one command that runs a workload, checks it, prints metrics.

    python3 perfbench/run.py --workload sim_validate --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):
  sim_validate   criterion-03 grid through dessim.replicate
  surfaces       figure datasets and profile calls, in-process
  cli_roundtrip  fresh `python -m caoi` processes, then byte-compared replays

--trace 0 measures the end-to-end metrics with no tracing; --trace 1 runs
the traced passes and prints the per-layer metrics.  Human-readable report
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 only
when every check passed.

Everything the benchmark writes stays inside the checkout: a scratch
directory .perfbench_work/ (removed at the end) and the span files of
traced runs in .perfbench_out/.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from procs import run_timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sim_validate", "surfaces", "cli_roundtrip")
DEFAULT_SEED = 1
SETUP_PROBES = 5            # probe pairs behind setup_s, before and after the run
SETUP_REFERENCE = ["-c", "import numpy"]    # the process each set-up probe is paired with
SETUP_SCALE_S = 0.13        # setup_s = median(set-up / reference) x this many seconds
STARTUP_PROBES = 5          # fresh processes per traced run behind cli.*_s
TAIL_BEYOND = 10            # op_tail_s: percentile with this many ops beyond
REF_WINDOW = 5              # reference times per operation ratio
RSS_SAMPLE_S = 0.005        # peak_rss_mb: tree sampling interval
DEADLINE_S = 170.0          # the whole command must end within 180 s

THROUGHPUT_NAME = {"sim_validate": "arrivals_per_s",
                   "surfaces": "grid_points_per_s",
                   "cli_roundtrip": "commands_per_s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def report(line: str) -> None:
    print(line, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CAOI_DEFAULT_CI", None)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


# ---------------------------------------------------------------- processes

def _tree_rss_bytes(pid: int) -> int:
    """Resident bytes of pid and all its descendants, read from /proc."""
    total = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) * 1024
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue                # the process ended between reads
    return total


def run_tree(argv, env, timeout: float):
    """Run argv in its own session; return (exit code, seconds, peak bytes).

    Peak bytes is the larger of two readings that both count children: the
    highest sum of resident memory over the process tree, sampled every
    RSS_SAMPLE_S, and ru_maxrss from wait4, which is the high-water mark
    of the largest single process in the tree (it catches short peaks the
    sampler misses).  On timeout the whole session is killed and reaped.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, cwd=ROOT, start_new_session=True)
    peak = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > timeout:
                raise BenchError(f"{' '.join(map(str, argv[:4]))} ran past {timeout:.0f} s")
            peak = max(peak, _tree_rss_bytes(proc.pid))
            time.sleep(RSS_SAMPLE_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, max(peak, usage.ru_maxrss * 1024)


def timed_start(argv, env, n: int, deadline: float) -> list:
    """Spawn-to-exit seconds of n fresh processes, one after another."""
    times = []
    for _ in range(n):
        code, seconds, err = run_timed(argv, _left(deadline, 60.0), env=env, cwd=ROOT)
        if code != 0:
            sys.stderr.write(err.decode(errors="replace"))
            raise BenchError(f"{' '.join(map(str, argv[:5]))} exited with {code}")
        times.append(seconds)
    return times


def setup_pairs(probe, env, n: int, deadline: float) -> list:
    """n (set-up seconds, reference seconds) pairs, each timed back to back."""
    reference = [sys.executable, *SETUP_REFERENCE]
    return [(timed_start(probe, env, 1, deadline)[0],
             timed_start(reference, env, 1, deadline)[0]) for _ in range(n)]


def _left(deadline: float, cap: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("out of time")
    return min(cap, left)


# ---------------------------------------------------------------- host facts

def host_facts() -> dict:
    def first(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    mem_kib = first("/proc/meminfo", "MemTotal").split()[0]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total_mb": round(int(mem_kib) / 1024) if mem_kib.isdigit() else None,
        "python": platform.python_version(),
        "commit": git_commit(),
        "tuning": "none: no CPU pinning, no frequency governor, no cache drop",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------- metrics

def tail(times: list, p: int):
    """Nearest-rank percentile p of times and the number of times beyond it.

    Each workload fixes p as the highest whole percentile that leaves at
    least TAIL_BEYOND operations beyond it in its shortest allowed run, so
    the same percentile is reported whatever the number of operations.
    """
    rank = math.ceil(p / 100 * len(times))
    return sorted(times)[rank - 1], len(times) - rank


def end_to_end(name, pairs, result, peak_bytes):
    """End-to-end metrics of an untraced run.

    Operation times go into the result line divided by the reference time
    measured right before each operation (unit "ref"); the report lines
    also give them in seconds.
    """
    run = result["run"]
    ops = run["ops"]
    attempted = len(ops)
    failed = sum(1 for op in ops if op[2])
    seconds = [op[1] for op in ops]
    refs = [op[3] for op in ops]
    # Each operation is divided by the median of the REF_WINDOW reference
    # times around it: close enough in time to follow the host's speed,
    # wide enough that one jittery reference does not move the ratio.
    half = REF_WINDOW // 2
    ratios = [t / statistics.median(refs[max(0, i - half):i + half + 1])
              for i, t in enumerate(seconds)]
    p = result["tail_percentile"]
    tail_s, beyond = tail(seconds, p)
    tail_ref, _ = tail(ratios, p)
    if beyond < TAIL_BEYOND:
        raise BenchError(f"{attempted} operations leave {beyond} beyond p{p}")
    work, unit = run["work"], result["work_unit"]
    setup_ratio = statistics.median(s / r for s, r in pairs)
    metrics = {
        "setup_s": (setup_ratio * SETUP_SCALE_S, "s",
                    f"median over {len(pairs)} probes of set-up / adjacent "
                    f"`python {' '.join(SETUP_REFERENCE)}` = {setup_ratio:.4f}, "
                    f"x {SETUP_SCALE_S} s"),
        "op_p50_ref": (statistics.median(ratios), "ref",
                       f"median over {attempted} operations of op time / nearby reference time"),
        "op_tail_ref": (tail_ref, "ref", f"p{p} of the same {attempted} ratios"),
        "work_per_ref": (work / sum(ratios), "1/ref",
                         f"{work} {unit} / {sum(ratios):.4f} reference units"),
        "peak_rss_mb": (peak_bytes / 1e6, "MB",
                        "workload process tree incl. children, MB = 10^6 bytes"),
    }
    extra = {
        "setup_wall_s": (statistics.median(s for s, _ in pairs), "s",
                         f"median of {len(pairs)} set-up probes: "
                         + ", ".join(f"{s:.4f}" for s, _ in pairs)),
        "setup_reference_s": (statistics.median(r for _, r in pairs), "s",
                              f"median of the {len(pairs)} adjacent reference processes"),
        "op_p50_s": (statistics.median(seconds), "s", f"median of {attempted} operations"),
        "op_tail_s": (tail_s, "s", f"p{p} of {attempted} operations, {beyond} beyond it"),
        THROUGHPUT_NAME[name]: (work / sum(seconds), "1/s",
                                f"{work} {unit} / {sum(seconds):.4f} s of operations"),
        "reference_p50_s": (statistics.median(refs), "s",
                            f"median of {len(refs)} reference runs, one before each op"),
        "error_rate": (failed / attempted, "ratio", f"{failed} failed / {attempted} attempted"),
    }
    extra.update(by_kind(ops))
    return metrics, attempted, failed, run["problems"], extra


def by_kind(ops) -> dict:
    """Report-only median time of each operation kind, with its count."""
    times = {}
    for kind, seconds, *_ in ops:
        times.setdefault(kind, []).append(seconds)
    return {f"op[{kind}].p50_s": (statistics.median(t), "s", f"median of {len(t)} operations")
            for kind, t in times.items()}


def per_layer(result, startup):
    """Per-layer metrics of a traced run.

    Returns (json metrics, report-only metrics).  Layer times go into the
    JSON divided by the median reference time of the traced pass (unit
    "ref"), as operation times are in the end-to-end metrics, so they follow
    the layer's code rather than the host's speed; the report lines give
    them in seconds.
    """
    groups = result["groups"]
    counts = result["counts"]
    wall = result["traced_wall_s"]
    refs = [op[3] for op in result["traced"]["ops"]]
    ref = statistics.median(refs)
    untraced_wall = result["untraced_wall_s"]
    untraced_ref = statistics.median(op[3] for op in result["untraced"]["ops"])
    base_ref = f"/ reference {ref:.6f} s (median of {len(refs)} in the traced pass)"

    def g(group, key="busy_s"):
        return groups.get(group, {}).get(key, 0.0)

    def calls(group):
        return groups.get(group, {}).get("calls", 0)

    def ratio(num, den, unit, scale=1.0, base=""):
        return (num * scale / den if den else None, unit, base)

    js = {}
    rep = {}
    interp = statistics.median(startup["interpreter"])
    imported = statistics.median(startup["import"])
    js["cli.interpreter_s"] = (interp, "s", f"median of {len(startup['interpreter'])} "
                               "fresh `python -c pass`")
    js["cli.import_s"] = (imported - interp, "s",
                          f"median `import caoi.cli` {imported:.4f} s minus interpreter")
    js["trace.wall_s"] = (wall, "s", "traced pass: set-up plus "
                          f"{result['traced']['cycles']} cycles, references excluded")
    js["trace.untraced_wall_s"] = (untraced_wall, "s",
                                   "same pass without tracing, references excluded")
    # Each wall time in units of its own pass's reference, so that a change
    # of host speed between the passes does not show as tracing overhead.
    js["trace.overhead_ratio"] = ((wall / ref) / (untraced_wall / untraced_ref), "ratio",
                                  f"({wall:.4f} s / {ref:.6f} s) / "
                                  f"({untraced_wall:.4f} s / {untraced_ref:.6f} s reference)")
    js["trace.spans"] = (result["spans"], "count", "spans kept in memory")

    arrivals = counts.get("dessim.arrivals", 0)
    rows = counts.get("optimizer.rows", 0)
    replays = counts.get("cli.replays", 0)
    for key in ("dessim.arrivals", "dessim.completions", "dessim.preemptions",
                "dessim.drops", "optimizer.rows", "optimizer.feasible_rows",
                "cli.bytes_written", "cli.replays", "cli.replays_identical"):
        js[key] = (counts.get(key, 0), "count", "summed over the traced pass")

    timed = [("dessim.run", "busy_s"), ("dessim.replicate", "busy_s"),
             ("carbon.ledger", "busy_s"), ("carbon.rate_cap", "busy_s"),
             ("carbon.avg_cf", "busy_s"), ("carbon.profile", "busy_s"),
             ("carbon.value_at", "busy_s"), ("carbon.cumulative_cf", "busy_s"),
             ("queueing.aoi", "busy_s"), ("optimizer.solve", "self_s"),
             ("optimizer.sweep", "self_s"), ("cidata.parse", "busy_s"),
             ("cidata.resample", "busy_s"), ("cidata.serialize", "busy_s"),
             ("cli.analyze", "busy_s"), ("cli.optimize", "busy_s"),
             ("cli.simulate", "busy_s"), ("cli.sweep", "busy_s"),
             ("cli.replay", "busy_s"), ("cli.write_csv", "busy_s"),
             ("cli.write_manifest", "busy_s")]
    for group, key in timed:
        seconds = g(group, key)
        js[f"{group}.calls"] = (calls(group), "count", "spans in the traced pass")
        js[f"{group}.{key[:-2]}_ref"] = (seconds / ref, "ref", f"{seconds:.6f} s {base_ref}")
        rep[f"{group}.busy_s"] = (g(group), "s", f"{calls(group)} calls, outermost spans")
        rep[f"{group}.self_s"] = (g(group, "self_s"), "s", "minus time in child spans")

    run_busy = g("dessim.run")
    rep["dessim.ns_per_arrival"] = ratio(run_busy, arrivals, "ns", 1e9,
                                         f"{run_busy:.4f} s / {arrivals} arrivals")
    rep["dessim.useful_ratio"] = ratio(counts.get("dessim.completions", 0), arrivals,
                                       "ratio", 1.0, f"completions / {arrivals} arrivals")
    biggest = counts.get("dessim.max_run_arrivals", 0)
    rep["dessim.rss_bytes_per_arrival"] = ratio(
        result["rss_growth_bytes"], biggest, "B", 1.0,
        f"peak RSS growth {result['rss_growth_bytes']} B / {biggest} arrivals "
        "of the largest run")
    opt_busy = result["optimizer_busy_s"]
    rep["optimizer.us_per_point"] = ratio(opt_busy, rows, "us", 1e6,
                                          f"{opt_busy:.4f} s / {rows} rows")
    rep["optimizer.feasible_ratio"] = ratio(counts.get("optimizer.feasible_rows", 0),
                                            rows, "ratio", 1.0, f"feasible / {rows} rows")
    rep["cli.replay_identical_ratio"] = ratio(counts.get("cli.replays_identical", 0),
                                              replays, "ratio", 1.0,
                                              f"identical / {replays} replays")
    rep["trace.reference_s"] = (ref, "s", f"median of {len(refs)} references, "
                                "one before each traced operation")
    for key, (seconds, n) in sorted(result["per_kind"].items()):
        rep[f"{key}.per_call_s"] = (seconds / n, "s", f"{seconds:.4f} s / {n} calls")
    return js, rep


# ---------------------------------------------------------------- main

def run_worker(mode, args, work_dir, deadline):
    result_path = work_dir / f"{mode}.json"
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    argv = [sys.executable, str(WORKER), mode, args.workload, str(args.seed),
            repr(args.seconds), str(work_dir / "w"), str(result_path), str(spans_path)]
    code, _, peak = run_tree(argv, child_env(), timeout=_left(deadline, DEADLINE_S))
    if code != 0 or not result_path.is_file():
        raise BenchError(f"the {mode} worker exited with {code} and no result")
    return json.loads(result_path.read_text()), peak


def measure(args, work_dir, deadline):
    """Returns (result-line metrics, report-only metrics, attempted, failed,
    problems, raw worker result)."""
    env = child_env()
    if args.trace == 0:
        # Half the set-up probes run before the workload and half after it,
        # so their median spans the run instead of one moment of it.
        probe = [sys.executable, str(WORKER), "setup", args.workload, str(args.seed),
                 "0", str(work_dir / "setup"), "-"]
        pairs = setup_pairs(probe, env, SETUP_PROBES, deadline)
        result, peak = run_worker("run", args, work_dir, deadline)
        pairs += setup_pairs(probe, env, SETUP_PROBES, deadline)
        metrics, attempted, failed, problems, extra = end_to_end(
            args.workload, pairs, result, peak)
        return metrics, extra, attempted, failed, problems, result

    startup = {
        "interpreter": timed_start([sys.executable, "-c", "pass"], env,
                                   STARTUP_PROBES, deadline),
        "import": timed_start([sys.executable, "-c", "import caoi.cli"], env,
                              STARTUP_PROBES, deadline),
    }
    result, _ = run_worker("trace", args, work_dir, deadline)
    metrics, extra = per_layer(result, startup)
    passes = (result["untraced"], result["traced"])
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for op in p["ops"] if op[2])
    problems = [m for p in passes for m in p["problems"]]
    extra["error_rate"] = (failed / attempted, "ratio",
                           f"{failed} failed / {attempted} attempted, both passes")
    return metrics, extra, attempted, failed, problems, result


def _fmt(value):
    return "n/a" if value is None else repr(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "caoi" / "__init__.py").is_file():
        print(f"perfbench: no caoi package under {SRC}; run it from a caoi checkout",
              file=sys.stderr)
        return 2

    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, extra, attempted, failed, problems, result = measure(args, work_dir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()           # only when no other run is using it
        except OSError:
            pass

    facts = dict(host_facts(), numpy=result["numpy"])
    report(f"perfbench workload={args.workload} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace}")
    report("host " + json.dumps(facts))
    for name, (value, unit, base) in list(metrics.items()) + list(extra.items()):
        report(f"metric {name} = {_fmt(value)} {unit}  [{base}]")
    for problem in problems[:20]:
        report(f"FAILED {problem}")
    if len(problems) > 20:
        report(f"FAILED ... {len(problems) - 20} more")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
