"""Spans recorded from outside the library, around calls into each caoi layer.

`install(tracer)` wraps the public functions listed in TARGETS.  A name
bound with ``from .x import y`` is a separate reference in the importing
module, so every loaded ``caoi`` module (and every extra module passed in)
that holds the original object gets the wrapper too.  Methods and the one
property are patched on their class.  `uninstall` puts the originals back.

Each span is ``[name, start, end, parent, op]``: perf_counter seconds, the
index of the enclosing span (-1 at top level) and the operation id the
benchmark set.  Spans stay in memory until `write_spans` at the end.
"""

import functools
import gzip
import sys
from time import perf_counter

# span name -> layer group whose metrics it feeds
TARGETS = {
    # (module, attribute) or (module, class, attribute)
    ("caoi.queueing", "avg_aoi_mm1"): "queueing.aoi",
    ("caoi.queueing", "avg_aoi_mm1_star"): "queueing.aoi",
    ("caoi.queueing", "constrained_aoi_mm1"): "queueing.aoi",
    ("caoi.carbon", "lambda_kappa"): "carbon.rate_cap",
    ("caoi.carbon", "lambda_p_max"): "carbon.rate_cap",
    ("caoi.carbon", "lambda_qos_max"): "carbon.rate_cap",
    ("caoi.carbon", "min_rate_for_snr"): "carbon.rate_cap",
    ("caoi.carbon", "avg_cf"): "carbon.avg_cf",
    ("caoi.carbon", "cumulative_cf"): "carbon.cumulative_cf",
    ("caoi.carbon", "CiProfile", "__init__"): "carbon.profile",
    ("caoi.carbon", "CiProfile", "long_term_average"): "carbon.profile",
    ("caoi.carbon", "CiProfile", "value_at"): "carbon.value_at",
    ("caoi.carbon", "CarbonLedger", "__init__"): "carbon.ledger",
    ("caoi.optimizer", "solve_cf_constrained"): "optimizer.solve",
    ("caoi.optimizer", "solve_power_constrained"): "optimizer.solve",
    ("caoi.optimizer", "solve_qos_constrained"): "optimizer.solve",
    ("caoi.optimizer", "sweep_lambda"): "optimizer.sweep",
    ("caoi.optimizer", "sweep_cf_budget"): "optimizer.sweep",
    ("caoi.optimizer", "sweep_months"): "optimizer.sweep",
    ("caoi.dessim", "run"): "dessim.run",
    ("caoi.dessim", "replicate"): "dessim.replicate",
    ("caoi.cidata", "parse_ci_csv"): "cidata.parse",
    ("caoi.cidata", "builtin_profile_si2024"): "cidata.parse",
    ("caoi.cidata", "resample"): "cidata.resample",
    ("caoi.cidata", "serialize_ci_csv"): "cidata.serialize",
    ("caoi.cli", "write_csv"): "cli.write_csv",
    ("caoi.cli", "write_manifest"): "cli.write_manifest",
}

# The benchmark opens the other spans itself: "setup", "op:<kind>" per
# operation, and "cli.<subcommand>" per in-process CLI call.


def group_of(name: str) -> str:
    if name in _NAME_TO_GROUP:
        return _NAME_TO_GROUP[name]
    return name.split(":", 1)[0]


def _span_name(target) -> str:
    return target[0].removeprefix("caoi.") + "." + ".".join(target[1:])


_NAME_TO_GROUP = {_span_name(t): g for t, g in TARGETS.items()}


class Tracer:
    """In-memory span store with per-group counters filled by result hooks."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = -1
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, group: str) -> bool:
        """True when an open span belongs to group."""
        return any(group_of(self.spans[i][0]) == group for i in self._stack)


def _count_run(tracer, result, error):
    if error is None:
        tracer.count("dessim.arrivals", result.arrivals)
        tracer.count("dessim.completions", result.completions)
        tracer.count("dessim.preemptions", result.preemptions)
        tracer.count("dessim.drops", result.drops)
        previous = tracer.counts.get("dessim.max_run_arrivals", 0)
        tracer.counts["dessim.max_run_arrivals"] = max(previous, result.arrivals)


def _count_sweep(tracer, result, error):
    if error is None:
        tracer.count("optimizer.rows", len(result))
        tracer.count("optimizer.feasible_rows",
                     sum(1 for row in result if row.binding != "infeasible"))


def _count_solve(tracer, result, error):
    # A solve inside a sweep is already one of that sweep's rows.
    if tracer.inside("optimizer.sweep"):
        return
    tracer.count("optimizer.rows")
    if error is None:
        tracer.count("optimizer.feasible_rows")


_HOOKS = {
    "dessim.run": _count_run,
    "optimizer.sweep": _count_sweep,
    "optimizer.solve": _count_solve,
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = _HOOKS.get(_NAME_TO_GROUP[name])

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(index)
            if hook is not None:
                hook(tracer, None, exc)
            raise
        tracer.close(index)
        if hook is not None:
            hook(tracer, result, None)
        return result

    return traced


def install(tracer: Tracer, extra_modules=()):
    """Wrap every target; returns the list of undo records for uninstall."""
    undo = []
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "caoi" or n.startswith("caoi."))]
    modules.extend(extra_modules)
    for target in TARGETS:
        name = _span_name(target)
        owner = sys.modules[target[0]]
        if len(target) == 3:
            cls = getattr(owner, target[1])
            original = cls.__dict__[target[2]]
            if isinstance(original, property):
                replacement = property(_wrap(tracer, name, original.fget),
                                       doc=original.__doc__)
            else:
                replacement = _wrap(tracer, name, original)
            setattr(cls, target[2], replacement)
            undo.append((cls, target[2], original))
            continue
        original = getattr(owner, target[1])
        replacement = _wrap(tracer, name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def module_of(name: str) -> str:
    return group_of(name).split(".", 1)[0]


def aggregate(spans, key=group_of):
    """Calls, busy seconds and self seconds per key (group by default).

    busy counts only spans with no ancestor under the same key, so nested
    calls within one layer are not counted twice; self is a span's
    duration minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    keys = [key(s[0]) for s in spans]
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out = {}
    for i, (_name, start, end, parent, _op) in enumerate(spans):
        k = keys[i]
        stats = out.setdefault(k, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and keys[p] != k:
            p = spans[p][3]
        if p < 0:
            stats["busy_s"] += end - start
    return out


def write_spans(path, spans) -> None:
    """Write spans as gzip CSV: id,name,start_s,end_s,parent,op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        fh.write("id,name,start_s,end_s,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")
