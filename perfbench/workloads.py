"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload is a closed loop driven by one process: an operation starts
only after the previous one finished, and at most one CLI child process
exists at a time.  `cycle(c)` returns the operations of cycle c; the
same (seed, c) always gives the same inputs.  An operation's `call` is
what is timed; its `check` runs after the clock stops and returns the
work done (arrivals, grid points or commands) and a problem message, or
None when the output is correct.  `finish()` runs checks that pool all
operations of a pass, such as the per-cell 2% criterion of sim_validate.

Before each timed operation a timed run measures the workload's
`reference()`: a fixed computation of the same kind as the workload's work
that calls no caoi code.  The host's speed swings by up to 2x within a
minute, so the benchmark reports operation times divided by the adjacent
reference time; those ratios move with caoi's code, not with the host.

Library calls go through module attributes (``optimizer.sweep_lambda``)
so that the tracing wrappers, once installed, see them.
"""

import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from caoi import carbon, cidata, cli, dessim, optimizer, queueing
from procs import run_timed

# sim_validate: criterion 03 runs 20 replications of ~1M arrivals per
# cell and asks for 2% agreement with the closed form.  One operation is
# one replicate call of REPS_PER_OP replications; a pass runs at least
# CELL_REPS / REPS_PER_OP cycles and the 2% check pools each cell's
# replications, so the check keeps the statistical power of criterion 03.
SIM_ARRIVALS = 1e6
SIM_CI = 198.0
SIM_RHOS = (0.3, 0.5, 0.9)
REPS_PER_OP = 2
CELL_REPS = 20
SIM_TOL = 0.02

# surfaces: sizes of the figure datasets, with a dense rate grid.
LAMBDA_POINTS = 10_000
BUDGET_POINTS = 60
SNR_POINTS = 41
HOUR = 3600.0

def _derive(*parts) -> int:
    """A 31-bit integer seed that depends only on parts."""
    return random.Random(":".join(str(p) for p in parts)).randrange(2**31)


class Op:
    """One timed operation: call() is timed, check(result) is not."""

    __slots__ = ("kind", "span", "call", "check")

    def __init__(self, kind, call, check, span=None):
        self.kind = kind
        self.span = span or f"op:{kind}"
        self.call = call
        self.check = check


class Workload:
    name = ""
    work_unit = ""          # what one unit of work_per_ref counts
    min_cycles = 1          # fewest whole cycles in a timed pass
    tail_percentile = 50    # op_tail_*; min_cycles leaves >= 10 ops beyond it
    trace_cycles = 1        # cycles in each pass of a traced run

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def reference(self) -> None:
        """The fixed computation each operation time is divided by."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed calls that let lazy set-up finish before timing."""

    def end_cycle(self, c: int) -> None:
        """Called after the checks of cycle c."""

    def finish(self) -> list:
        """Pooled checks over the pass: a list of (kind, problem)."""
        return []

    def close(self) -> None:
        """Release what the workload created on disk."""


# ---------------------------------------------------------------- sim_validate

class _Cell:
    def __init__(self, discipline, rho):
        self.spec = queueing.QueueSpec(discipline, rho, 1.0)
        self.horizon = float(math.ceil(SIM_ARRIVALS / rho))
        self.kind = f"{discipline.value}_rho{rho}"
        if discipline is queueing.Discipline.FCFS_MM1:
            self.closed = queueing.avg_aoi_mm1(self.spec)
        else:
            self.closed = queueing.avg_aoi_mm1_star(self.spec)


class SimValidate(Workload):
    """The criterion-03 grid through dessim.replicate, one cell per op."""

    name = "sim_validate"
    work_unit = "arrivals"
    min_cycles = CELL_REPS // REPS_PER_OP     # 60 operations
    tail_percentile = 83
    trace_cycles = CELL_REPS // REPS_PER_OP

    def __init__(self, seed: int, work_dir: Path, in_process: bool):
        self.seed = seed
        self.energy = carbon.EnergyModel()
        self.profile = carbon.CiProfile.constant(SIM_CI, 4e6)
        self.grams_per_packet = SIM_CI * self.energy.e_p_kwh()
        self.cells = [_Cell(d, rho) for d in queueing.Discipline for rho in SIM_RHOS]
        self.pooled = {cell.kind: [] for cell in self.cells}

    def reference(self):
        # 1M fixed draws and a Lindley-style prefix max over them: numpy work
        # of the same shape as the arrival draw and the queue kernels.  The
        # arrays are made afresh and freed on each call, so the reference
        # adds nothing to set-up or to the memory held during a run.
        gaps = np.random.default_rng(0).exponential(1.0, 1_000_000)
        a = np.cumsum(gaps)
        return float(np.maximum.accumulate(a - gaps)[-1])

    def cycle(self, c):
        ops = []
        for i, cell in enumerate(self.cells):
            config = dessim.SimConfig(spec=cell.spec, horizon=cell.horizon,
                                      seed=_derive(self.seed, "sim", c, i),
                                      slot_length=cell.horizon / 1000.0)
            ops.append(Op(cell.kind, self._caller(config),
                          lambda summary, cell=cell: self._check(cell, summary)))
        return ops

    def _caller(self, config):
        return lambda: dessim.replicate(config, self.profile, self.energy, REPS_PER_OP)

    def warmup(self):
        self.cycle(-1)[0].call()

    def _check(self, cell, summary):
        arrivals = sum(t.arrivals for t in summary.traces)
        for t in summary.traces:
            expected = t.arrivals * self.grams_per_packet
            if not (t.arrivals > 0 and abs(t.ledger.total - expected) <= 1e-9 * expected):
                return arrivals, (f"{cell.kind}: ledger total {t.ledger.total!r} g "
                                  f"!= arrivals x g/packet {expected!r} g")
        self.pooled[cell.kind].append(summary.mean_aoi)
        return arrivals, None

    def finish(self):
        problems = []
        for cell in self.cells:
            means = self.pooled[cell.kind]
            reps = REPS_PER_OP * len(means)
            if reps < CELL_REPS:
                problems.append((cell.kind, f"{cell.kind}: {reps} replications, "
                                            f"criterion 03 needs {CELL_REPS}"))
                continue
            mean = sum(means) / len(means)
            rel = abs(mean - cell.closed) / cell.closed
            if not rel < SIM_TOL:
                problems.append((cell.kind, f"{cell.kind}: mean age {mean:.6g} over "
                                            f"{reps} replications is {rel:.4%} from "
                                            f"the closed form {cell.closed:.6g}"))
        self.pooled = {cell.kind: [] for cell in self.cells}
        return problems


# ---------------------------------------------------------------- surfaces

@dataclass(frozen=True)
class _Point:
    a: float
    b: float


class Surfaces(Workload):
    """The figure datasets and profile calls, rebuilt in-process."""

    name = "surfaces"
    work_unit = "grid points"
    min_cycles = 25         # 225 operations
    tail_percentile = 95
    trace_cycles = 3

    def __init__(self, seed: int, work_dir: Path, in_process: bool):
        rng = random.Random(f"surfaces:{seed}")
        self.energy = carbon.EnergyModel()
        self.builtin = cidata.builtin_profile_si2024()
        lo, hi = 0.01, 1.99
        self.lambda_step = (hi - lo) / LAMBDA_POINTS
        self.lambda_grid = [lo + (i + rng.uniform(0.05, 0.95)) * self.lambda_step
                            for i in range(LAMBDA_POINTS)]
        k0 = 2e-4 * rng.uniform(1.0, 1.1)
        self.k_grid = [k0 + i * 2e-5 for i in range(BUDGET_POINTS)]
        snr0 = -10.0 + rng.uniform(0.0, 0.5)
        self.snr_grid_db = [snr0 + i for i in range(SNR_POINTS)]
        n_hours = round(self.builtin.horizon / HOUR)
        self.power_steps = [(i * HOUR, rng.uniform(0.2, 1.0)) for i in range(n_hours)]
        self.unconstrained = carbon.ConstraintSet(budget_k=math.inf, horizon_tn=HOUR)
        self.power_capped = carbon.ConstraintSet(budget_k=5e-4, horizon_tn=HOUR,
                                                 power_cap=1.0)
        self.qos_floor = carbon.ConstraintSet(budget_k=6e-5, horizon_tn=HOUR,
                                              snr_min=10.0)
        self.csv_text = "period,ci_g_per_kwh\n" + "".join(
            f"{i},{v:.17g}\n" for i, v in enumerate(self.builtin.values, start=1))
        self.opt_rho = queueing.optimal_utilization_mm1()

    def cycle(self, c):
        b, e = self.builtin, self.energy
        return [
            Op("lambda_sweep",
               lambda: optimizer.sweep_lambda(1.0, self.lambda_grid, mode="exact",
                                              profile=b, energy=e,
                                              constraint=self.unconstrained),
               self._check_lambda),
            Op("budget_surface",
               lambda: optimizer.sweep_cf_budget(40.0, self.k_grid, b, e, HOUR,
                                                 mode="paper", per_month=True),
               self._check_budget),
            Op("snr_surface", self._snr_surface, self._check_snr),
            Op("month_power",
               lambda: optimizer.sweep_months(self.power_capped, b, e, mode="paper",
                                              problem="power"),
               self._check_month_power),
            Op("month_qos",
               lambda: optimizer.sweep_months(self.qos_floor, b, e, mode="paper",
                                              problem="qos"),
               self._check_month_qos),
            Op("resample_hourly", lambda: cidata.resample(b, HOUR), self._check_resample),
            Op("cumulative_cf_hourly",
               lambda: carbon.cumulative_cf(b, self.power_steps, b.horizon),
               self._check_cumulative),
            Op("serialize_csv", lambda: cidata.serialize_ci_csv(b), self._check_serialize),
            Op("parse_csv", lambda: cidata.parse_ci_csv(self.csv_text), self._check_parse),
        ]

    def warmup(self):
        for op in self.cycle(-1):
            op.call()

    def reference(self):
        # Small frozen dataclasses and float math, as in the sweeps.
        items = [_Point(i * 0.5, i + 1.0) for i in range(20_000)]
        return sum(math.sqrt(p.a * p.a + p.b) / p.b for p in items)

    def _snr_surface(self):
        rows = []
        for month, ci in enumerate(self.builtin.values, start=1):
            for db in self.snr_grid_db:
                constraint = carbon.ConstraintSet(budget_k=6e-5, horizon_tn=HOUR,
                                                  snr_min=10.0 ** (db / 10.0))
                for disc in optimizer.BOTH_DISCIPLINES:
                    res = optimizer.solve_qos_constrained(constraint, ci, self.energy,
                                                          disc, mode="paper")
                    rows.append((month, db, disc.value, res.aoi,
                                 res.binding_constraint.value))
        return rows

    def _month_ci(self, t):
        return self.builtin.values[int(t // cidata.MONTH_SECONDS)]

    def _check_lambda(self, rows):
        if len(rows) != 2 * LAMBDA_POINTS:
            return len(rows), f"lambda_sweep: {len(rows)} rows"
        per_lambda = self.builtin.long_term_average * self.energy.e_p_kwh() * HOUR
        best = (math.inf, None)
        for r in rows:
            if not abs(r.cf - r.x * per_lambda) <= 1e-12 * r.x * per_lambda:
                return len(rows), f"lambda_sweep: cf {r.cf!r} at lambda {r.x!r}"
            if r.model == "mm1":
                if (r.x >= 1.0) != (r.binding == "infeasible"):
                    return len(rows), f"lambda_sweep: FCFS row {r.x!r} is {r.binding}"
                if r.aoi < best[0]:
                    best = (r.aoi, r.x)
        age, lam = best
        if not (abs(self.opt_rho - 0.531) < 5e-4
                and abs(lam - self.opt_rho) <= self.lambda_step
                and abs(age - 3.4844) < 1e-4):
            return len(rows), f"lambda_sweep: FCFS optimum at {lam!r} with age {age!r}"
        return len(rows), None

    @staticmethod
    def _columns(rows, key):
        cols = {}
        for r in rows:
            cols.setdefault(key(r), []).append(r)
        return cols

    def _check_budget(self, rows):
        for (month, model), col in self._columns(rows, lambda r: (r.month, r.model)).items():
            ages = [r.aoi for r in col]
            if not all(b <= a + 1e-12 for a, b in zip(ages, ages[1:])):
                return len(rows), f"budget_surface: month {month} {model} rises in budget"
        return len(rows), None

    def _check_snr(self, rows):
        for (month, model), col in self._columns(rows, lambda r: (r[0], r[2])).items():
            ages = [r[3] for r in col]
            imin = ages.index(min(ages))
            if not 0 < imin < len(ages) - 1:
                return len(rows), f"snr_surface: month {month} {model} minimum at edge"
        return len(rows), None

    def _check_month_power(self, rows):
        lcfs = {r.month: r for r in rows if r.model == "mm1star"}
        nov, may = lcfs[11], lcfs[5]
        ratio = nov.aoi / may.aoi
        ci_ratio = self.builtin.values[10] / self.builtin.values[4]
        if not (nov.binding == may.binding == "power"
                and abs(ratio - ci_ratio) <= 1e-12 * ci_ratio
                and abs(ratio - 2.852) <= 1e-3):
            return len(rows), f"month_power: November/May age ratio {ratio!r}"
        return len(rows), None

    def _check_month_qos(self, rows):
        # Preemptive LCFS in paper mode: the SNR floor binds in every month
        # and the age scales with the month's intensity.
        lcfs = [r for r in rows if r.model == "mm1star"]
        scale = lcfs[0].aoi / self.builtin.values[0]
        for r in lcfs:
            s = r.aoi / self.builtin.values[r.month - 1]
            if not (r.binding == "qos" and abs(s - scale) <= 1e-12 * scale):
                return len(rows), f"month_qos: month {r.month} age {r.aoi!r} ({r.binding})"
        return len(rows), None

    def _check_resample(self, prof):
        expected = [self._month_ci(t) for t, _ in self.power_steps]
        if not (prof.horizon == self.builtin.horizon and list(prof.values) == expected
                and list(prof.starts) == [t for t, _ in self.power_steps]):
            return 0, "resample_hourly: hourly profile differs from the monthly steps"
        return 0, None

    def _check_cumulative(self, grams):
        expected = math.fsum(self._month_ci(t) * w * HOUR for t, w in self.power_steps)
        expected /= carbon.J_PER_KWH
        if not abs(grams - expected) <= 1e-9 * expected:
            return 0, f"cumulative_cf_hourly: {grams!r} g, expected {expected!r} g"
        return 0, None

    def _check_serialize(self, text):
        if text != self.csv_text:
            return 0, "serialize_csv: text differs from the expected CSV"
        return 0, None

    def _check_parse(self, prof):
        if prof.samples != self.builtin.samples or prof.horizon != self.builtin.horizon:
            return 0, "parse_csv: parsed profile differs from the built-in one"
        return 0, None


# ---------------------------------------------------------------- cli_roundtrip

class CliRoundtrip(Workload):
    """Fresh `python -m caoi` processes, one at a time, then replays.

    Every write names its outputs; after the writes each manifest is
    replayed into its own directory and every output is byte-compared.
    A traced run calls cli.main(argv) in-process instead, so the tracing
    wrappers see the layers.
    """

    name = "cli_roundtrip"
    work_unit = "CLI commands"
    min_cycles = 3          # 57 operations
    tail_percentile = 82
    trace_cycles = 1

    def __init__(self, seed: int, work_dir: Path, in_process: bool):
        self.seed = seed
        self.work_dir = work_dir
        self.in_process = in_process
        self.bytes_written = 0
        self.replays = 0
        self.replays_identical = 0

    def _writes(self, c):
        r = random.Random(f"cli_roundtrip:{self.seed}:{c}")
        month = str(r.randint(1, 12))
        k0 = r.uniform(4e-4, 6e-4)
        writes = [
            ("analyze", ["analyze", "--model", "both", "--mu", "1.0",
                         f"--lambda-grid=0.05:0.95:{r.randint(150, 250)}",
                         "--ci", "builtin", "--out", "{d}/analyze.csv"],
             ["analyze.csv"]),
            ("optimize_cf", ["optimize", "--problem", "cf", "--model", "mm1",
                             "--budget-k", f"{r.uniform(0.3, 0.8):.6f}mg", "--mu", "40",
                             "--ci", "builtin", "--month", month,
                             "--out", "{d}/opt_cf.json"],
             ["opt_cf.json"]),
            ("optimize_power", ["optimize", "--problem", "power", "--model", "mm1star",
                                "--mode", "paper",
                                "--budget-k", f"{r.uniform(0.3, 0.8):.6f}mg",
                                "--p-max", "1", "--ci", "builtin", "--month", month,
                                "--out", "{d}/opt_power.json"],
             ["opt_power.json"]),
            ("optimize_qos", ["optimize", "--problem", "qos", "--model", "mm1",
                              "--budget-k", f"{r.uniform(40, 80):.6f}ug",
                              f"--snr-min-db={r.uniform(0, 20):.4f}",
                              "--ci", "builtin", "--month", month,
                              "--out", "{d}/opt_qos.json"],
             ["opt_qos.json"]),
            ("sweep_k", ["sweep", "--surface", "k",
                         f"--k-grid={k0:.6g}:{2 * k0:.6g}:{r.randint(20, 40)}",
                         "--mu", "40", "--ci", "builtin", "--out", "{d}/sweep_k.csv"],
             ["sweep_k.csv"]),
            ("sweep_snr", ["sweep", "--surface", "snr",
                           f"--snr-grid-db={r.uniform(-10.0, -9.5):.4f}:30:41",
                           "--budget-k", "60ug", "--ci", "builtin",
                           "--out", "{d}/sweep_snr.csv"],
             ["sweep_snr.csv"]),
        ]
        for buffer, lam, horizon, reps in ((1, 0.9, 20000, 1), (2, 0.9, 20000, 2),
                                           (10, 1.0, 100000, 1)):
            stem = f"simulate_b{buffer}"
            writes.append((stem, [
                "simulate", "--model", "mm1", "--lambda", str(lam), "--mu", "1",
                "--horizon", str(horizon), "--seed", str(r.randrange(2**31)),
                "--reps", str(reps), "--buffer", str(buffer),
                "--cf-mode", "service_time", "--ci", "builtin",
                "--out", f"{{d}}/{stem}.json",
                "--slots-out", f"{{d}}/{stem}_slots.csv",
                "--events-out", f"{{d}}/{stem}_events.csv",
            ], [f"{stem}.json", f"{stem}_slots.csv", f"{stem}_events.csv"]))
        return writes

    def cycle(self, c):
        d = self.work_dir / f"c{c}"
        d.mkdir(parents=True, exist_ok=True)
        ops = []
        replays = []
        for kind, argv, outputs in self._writes(c):
            argv = [a.replace("{d}", str(d)) for a in argv]
            ops.append(Op(kind, self._caller(argv),
                          lambda code, d=d, outputs=outputs: self._check_write(d, outputs, code),
                          span=f"cli.{argv[0]}"))
            manifest = d / f"{outputs[0]}.manifest.json"
            redo = d / f"replay_{kind}"
            replays.append(Op(f"replay_{kind}",
                              self._caller(["replay", str(manifest), "--out-dir", str(redo)]),
                              lambda code, d=d, redo=redo, outputs=outputs:
                                  self._check_replay(d, redo, outputs, code),
                              span="cli.replay"))
        # `--version` is the bare start-up of the CLI; it also makes the
        # number of operation kinds odd, so the median falls inside a kind.
        version = Op("version", self._caller(["--version"]),
                     lambda code: (1, None if code == 0 else f"--version: exit code {code}"),
                     span="cli.version")
        return [version] + ops + replays

    def warmup(self):
        # Only the in-process passes of a traced run warm up: a fresh CLI
        # process pays its start-up on every run, as users do.
        if self.in_process:
            for op in self.cycle(-1):
                op.call()
            self.end_cycle(-1)

    def reference(self):
        # A fresh interpreter that imports numpy: process start-up and module
        # loading of the same kind as a CLI command, none of it caoi's.
        code, _, err = run_timed([sys.executable, "-c", "import numpy"], timeout=60)
        if code != 0:
            raise RuntimeError(f"reference process exited with {code}: {err[-500:]!r}")

    def _caller(self, argv):
        if self.in_process:
            return lambda: _main_in_process(argv)
        return lambda: _spawn_cli(argv)

    def _check_write(self, d, outputs, code):
        if code != 0:
            return 1, f"{outputs[0]}: exit code {code}, expected 0"
        for name in outputs:
            for path in (d / name, d / f"{name}.manifest.json"):
                if not path.is_file():
                    return 1, f"{path.name} was not written"
                self.bytes_written += path.stat().st_size
        return 1, None

    def _check_replay(self, d, redo, outputs, code):
        self.replays += 1
        if code != 0:
            return 1, f"replay of {outputs[0]}: exit code {code}, expected 0"
        for name in outputs:
            again = redo / name
            if not again.is_file() or again.read_bytes() != (d / name).read_bytes():
                return 1, f"replay of {name} is not byte-identical"
        self.replays_identical += 1
        for name in outputs:
            self.bytes_written += (redo / name).stat().st_size
        return 1, None

    def end_cycle(self, c):
        shutil.rmtree(self.work_dir / f"c{c}", ignore_errors=True)

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _spawn_cli(argv):
    # The child inherits this process's environment, which the benchmark
    # prepared: PYTHONPATH points at the checkout's src/.
    code, _, err = run_timed([sys.executable, "-m", "caoi", *argv], timeout=120)
    if code != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return code


def _main_in_process(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


WORKLOADS = {w.name: w for w in (SimValidate, Surfaces, CliRoundtrip)}
