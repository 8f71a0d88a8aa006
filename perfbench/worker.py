"""Runs one workload in a fresh process and writes its raw results as JSON.

    python worker.py MODE WORKLOAD SEED SECONDS WORK_DIR RESULT_PATH [SPANS_PATH]

MODE is one of
  setup  import caoi and caoi.cli, load the built-in profile, make the
         inputs from SEED, and exit (run.py times this from spawn to exit);
  run    warm up, then run whole cycles until SECONDS have passed and the
         workload's minimum number of cycles is done, timing the workload's
         reference before each operation;
  trace  warm up, run trace_cycles untraced, then set up again and run the
         same cycles with the tracing wrappers installed; both passes time
         the reference before each operation.

run.py starts this script with PYTHONPATH pointing at the checkout's src/.
"""

import json
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _status_kib(field: str) -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def run_pass(workload, tracer=None, cycles=None, seconds=0.0, reference=False):
    """Whole cycles: exactly `cycles`, or until `seconds` and min_cycles.

    Each op is recorded as [kind, seconds, failed, reference seconds]; with
    reference=True the workload's reference is timed right before the op,
    after one untimed call.  pass_s is the pass's wall time without the
    references.
    """
    ops = []
    work = 0
    problems = []
    ref_s = 0.0
    if reference:
        workload.reference()
    start = perf_counter()
    c = 0
    while True:
        if cycles is not None:
            if c >= cycles:
                break
        elif c >= workload.min_cycles and perf_counter() - start >= seconds:
            break
        for op in workload.cycle(c):
            ref_elapsed = None
            if reference:
                t0 = perf_counter()
                workload.reference()
                ref_elapsed = perf_counter() - t0
                ref_s += ref_elapsed
            if tracer is not None:
                tracer.op = len(ops)
                span = tracer.open(op.span)
            t0 = perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:        # recorded as a failed operation
                traceback.print_exc()
                error = f"{op.kind}: {exc!r}"
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            if error is None:
                try:
                    done, error = op.check(result)
                except Exception as exc:    # a check that cannot run fails the op
                    traceback.print_exc()
                    done, error = 0, f"{op.kind}: check raised {exc!r}"
                work += done
            if error is not None:
                problems.append(error)
            ops.append([op.kind, elapsed, error is not None, ref_elapsed])
        workload.end_cycle(c)
        c += 1
    for kind, problem in workload.finish():
        problems.append(problem)
        for entry in ops:
            if entry[0] == kind:
                entry[2] = True
    return {"ops": ops, "work": work, "problems": problems, "cycles": c,
            "pass_s": perf_counter() - start - ref_s}


def setup(cls, seed, work_dir, in_process):
    """What setup_s times after the imports: the built-in profile and the inputs."""
    from caoi import cidata

    cidata.builtin_profile_si2024()
    return cls(seed, work_dir, in_process)


def main(argv) -> int:
    mode, name, seed, seconds, work_dir, result_path = argv[:6]
    seed, seconds, work_dir = int(seed), float(seconds), Path(work_dir)

    import caoi
    import caoi.cli  # noqa: F401  (part of set-up: the CLI front end)
    import numpy

    import workloads

    src = Path(caoi.__file__).resolve().parent.parent
    if src != Path(os.environ["PERFBENCH_SRC"]).resolve():
        print(f"caoi was imported from {src}, not the checkout", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[name]
    in_process = mode == "trace"

    if mode == "setup":
        setup(cls, seed, work_dir, in_process)
        return 0

    out = {"workload": name, "mode": mode, "work_unit": cls.work_unit,
           "tail_percentile": cls.tail_percentile, "numpy": numpy.__version__}
    rss_before = _status_kib("VmRSS")
    workload = setup(cls, seed, work_dir, in_process)
    try:
        workload.warmup()
        if mode == "run":
            out["run"] = run_pass(workload, seconds=seconds, reference=True)
        else:
            out.update(trace(cls, seed, work_dir, rss_before, argv[6]))
    finally:
        workload.close()
    Path(result_path).write_text(json.dumps(out))
    return 0


def trace(cls, seed, work_dir, rss_before_kib, spans_path):
    import tracing
    import workloads

    # Both passes time the reference before each operation, so that
    # run.py can take the host's speed out of the traced/untraced ratio.
    t0 = perf_counter()
    fresh = setup(cls, seed, work_dir / "untraced", True)
    t1 = perf_counter()
    untraced = run_pass(fresh, cycles=cls.trace_cycles, reference=True)
    untraced_wall = (t1 - t0) + untraced["pass_s"]
    fresh.close()
    rss_peak_kib = _status_kib("VmHWM")

    tracer = tracing.Tracer()
    undo = tracing.install(tracer, extra_modules=[workloads])
    try:
        t0 = perf_counter()
        span = tracer.open("setup")
        traced_workload = setup(cls, seed, work_dir / "traced", True)
        tracer.close(span)
        t1 = perf_counter()
        traced = run_pass(traced_workload, tracer=tracer, cycles=cls.trace_cycles,
                          reference=True)
        # The references and the untimed call before them are not the
        # workload's: leave them out of both wall times.
        traced_wall = (t1 - t0) + traced["pass_s"]
    finally:
        tracing.uninstall(undo)
    traced_workload.close()
    tracing.write_spans(Path(spans_path), tracer.spans)

    extra = {}
    if isinstance(traced_workload, workloads.CliRoundtrip):
        extra = {"cli.bytes_written": traced_workload.bytes_written,
                 "cli.replays": traced_workload.replays,
                 "cli.replays_identical": traced_workload.replays_identical}
    # Per-call time of the heaviest layers, split by the operation that
    # made the call, for comparison with single-call baselines.
    kinds = [entry[0] for entry in traced["ops"]]
    per_kind = {}
    for name, start, end, _parent, op in tracer.spans:
        group = tracing.group_of(name)
        if op >= 0 and group in ("dessim.run", "optimizer.sweep"):
            entry = per_kind.setdefault(f"{group}[{kinds[op]}]", [0.0, 0])
            entry[0] += end - start
            entry[1] += 1
    return {
        "per_kind": per_kind,
        "untraced": untraced,
        "traced": traced,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "groups": tracing.aggregate(tracer.spans),
        # optimizer.us_per_point: all time inside optimizer, nested calls once.
        "optimizer_busy_s": tracing.aggregate(tracer.spans, key=tracing.module_of)
                            .get("optimizer", {}).get("busy_s", 0.0),
        "counts": dict(tracer.counts, **extra),
        "spans": len(tracer.spans),
        "rss_growth_bytes": max(0, rss_peak_kib - rss_before_kib) * 1024,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
