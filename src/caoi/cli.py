"""Command line front end.

Subcommands: analyze (closed-form sweeps to CSV), optimize (single
constrained solve to JSON), simulate (seeded simulation summary to
JSON), sweep (month-by-grid surfaces to CSV), and replay (re-run a
manifest).  Every file the tool writes is accompanied by a
``<name>.manifest.json`` recording the fully resolved parameters, seeds,
version, and input digests; replaying a manifest reproduces the outputs
byte for byte.  Numbers in CSV output are printed with 17 significant
digits so equal results are equal bytes.

Exit codes: 0 success, 2 usage or validation error, 3 infeasible
problem, 4 I/O failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .carbon import CiProfile, ConstraintSet, EnergyModel
from .cidata import builtin_profile_si2024, parse_ci_csv
from .dessim import CfMode, SimConfig, replicate, run
from .errors import CaoiError, Infeasible, ParseError, ValidationError
from .optimizer import (
    BOTH_DISCIPLINES,
    sweep_cf_budget,
    sweep_lambda,
    sweep_surface,
    solve_cf_constrained,
    solve_power_constrained,
    solve_qos_constrained,
)
from .queueing import (
    Discipline,
    QueueSpec,
    SaturationEpsilon,
    avg_aoi_mm1,
    avg_aoi_mm1_star,
)

ENV_DEFAULT_CI = "CAOI_DEFAULT_CI"

ANALYZE_HEADER = ("x", "model", "aoi_s", "cf_g", "lambda_bound", "binding")
SWEEP_HEADER = ("month", "x", "model", "aoi_s", "binding")
SLOTS_HEADER = ("slot_start_s", "n_tx", "cf_g")
EVENTS_HEADER = ("t_deliver_s", "t_generated_s", "age_after_s")


def fmt_float(x) -> str:
    if x is None:
        return ""
    xf = float(x)
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return format(xf, ".17g")


def snr_db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def parse_budget(text: str) -> float:
    """Budget in grams; accepts unit suffixes g, mg, ug."""
    raw = text.strip()
    scale = 1.0
    for suffix, s in (("mg", 1e-3), ("ug", 1e-6), ("g", 1.0)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            scale = s
            break
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget {text!r}") from None
    return value * scale


def parse_grid(text: str):
    """Parse 'start:stop:count' into an inclusive evenly spaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if count == 1:
        if start != stop:
            raise argparse.ArgumentTypeError("a 1-point grid needs start == stop")
        return [start]
    if stop <= start:
        raise argparse.ArgumentTypeError("grid stop must exceed start")
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def parse_buffer(text: str):
    if text.lower() in ("inf", "infinite", "none"):
        return None
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"buffer must be an integer or 'inf', got {text!r}") from None
    return n


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def resolve_ci_spec(ci_arg, ci_value) -> dict:
    """Turn --ci/--ci-value flags into a manifest-ready source record."""
    if ci_value is not None:
        return {"kind": "constant", "value": float(ci_value)}
    if ci_arg is None:
        ci_arg = os.environ.get(ENV_DEFAULT_CI) or "builtin"
    if ci_arg == "builtin":
        return {"kind": "builtin"}
    path = str(Path(ci_arg).resolve())
    return {"kind": "file", "path": path, "sha256": _sha256(path)}


def load_ci(spec: dict, horizon: float = 1.0, full_year: bool = False) -> CiProfile:
    kind = spec["kind"]
    if kind == "constant":
        return CiProfile.constant(spec["value"], horizon)
    if kind == "builtin":
        return builtin_profile_si2024()
    digest = _sha256(spec["path"])
    if spec.get("sha256") and digest != spec["sha256"]:
        raise ValidationError(
            f"input {spec['path']} changed since the manifest was written"
        )
    return parse_ci_csv(Path(spec["path"]), full_year=full_year)


def _disciplines(model: str):
    return {
        "mm1": (Discipline.FCFS_MM1,),
        "mm1star": (Discipline.LCFS_PREEMPTIVE,),
        "both": BOTH_DISCIPLINES,
    }[model]


def _redirect(path, out_dir):
    if path is None or out_dir is None:
        return path
    return str(Path(out_dir) / Path(path).name)


def write_manifest(command: str, params: dict, outputs: list) -> None:
    body = {
        "tool": "caoi",
        "version": __version__,
        "command": command,
        "params": params,
        "outputs": [str(Path(p).name) for p in outputs],
    }
    text = json.dumps(body, indent=2) + "\n"
    for out in outputs:
        Path(str(out) + ".manifest.json").write_text(text)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------- analyze

def resolve_analyze(args) -> dict:
    if (args.lambda_grid is None) == (args.k_grid is None):
        raise ValidationError("analyze needs exactly one of --lambda-grid or --k-grid")
    grid_kind = "lambda" if args.lambda_grid is not None else "k"
    mode = args.mode or ("exact" if grid_kind == "lambda" else "paper")
    return {
        "model": args.model,
        "mu": args.mu,
        "grid_kind": grid_kind,
        "grid": args.lambda_grid if grid_kind == "lambda" else args.k_grid,
        "mode": mode,
        "tn": args.tn,
        "a": args.a,
        "eps": args.eps,
        "ci": resolve_ci_spec(args.ci, None),
        "out": str(args.out),
    }


def run_analyze(params: dict, out_dir=None) -> None:
    out_path = _redirect(params["out"], out_dir)
    profile = load_ci(params["ci"])
    energy = EnergyModel()
    eps = SaturationEpsilon(params["eps"])
    disciplines = _disciplines(params["model"])
    if params["grid_kind"] == "lambda":
        constraint = ConstraintSet(budget_k=math.inf, horizon_tn=params["tn"],
                                   success_prob_a=params["a"])
        rows = sweep_lambda(params["mu"], params["grid"], disciplines,
                            params["mode"], profile, energy, constraint)
    else:
        rows = sweep_cf_budget(params["mu"], params["grid"], profile, energy,
                               params["tn"], disciplines, params["mode"],
                               params["a"], per_month=False, eps=eps)
    if rows and all(r.binding == "infeasible" for r in rows):
        raise Infeasible("every grid point is infeasible")
    out_rows = [
        (fmt_float(r.x), r.model, fmt_float(r.aoi), fmt_float(r.cf),
         fmt_float(r.lambda_bound), r.binding)
        for r in rows
    ]
    write_csv(out_path, ANALYZE_HEADER, out_rows)
    write_manifest("analyze", params, [out_path])


# ---------------------------------------------------------------- optimize

def resolve_optimize(args) -> dict:
    if args.problem == "power" and args.p_max is None:
        raise ValidationError("--problem power needs --p-max")
    if args.problem == "qos" and args.snr_min_db is None:
        raise ValidationError("--problem qos needs --snr-min-db")
    return {
        "problem": args.problem,
        "model": args.model,
        "mode": args.mode,
        "budget_k": args.budget_k,
        "tn": args.tn,
        "mu": args.mu,
        "mu_rule": args.mu_rule,
        "eps": args.eps,
        "a": args.a,
        "month": args.month,
        "p_max": args.p_max,
        "snr_min_db": args.snr_min_db,
        "ci": resolve_ci_spec(args.ci, args.ci_value),
        "out": None if args.out is None else str(args.out),
    }


def run_optimize(params: dict, out_dir=None) -> int:
    out_path = _redirect(params["out"], out_dir)
    profile = load_ci(params["ci"])
    energy = EnergyModel()
    eps = SaturationEpsilon(params["eps"])
    discipline = _disciplines(params["model"])[0]
    mode = params["mode"]
    mu = params["mu"] if params["mu"] is not None else 1.0 / energy.t_p

    if params["month"] is not None:
        if not 1 <= params["month"] <= 12:
            raise ValidationError(f"--month must be 1..12, got {params['month']}")
        if len(profile.samples) < params["month"]:
            raise ValidationError(
                f"profile has only {len(profile.samples)} periods, no month {params['month']}"
            )
        month_ci = profile.values[params["month"] - 1]
    else:
        month_ci = profile.long_term_average

    try:
        if params["problem"] == "cf":
            prof = profile if params["month"] is None \
                else CiProfile.constant(month_ci, profile.horizon)
            constraint = ConstraintSet(budget_k=params["budget_k"],
                                       horizon_tn=params["tn"],
                                       success_prob_a=params["a"])
            res = solve_cf_constrained(mu, constraint, prof, energy,
                                       discipline, mode, eps)
        elif params["problem"] == "power":
            constraint = ConstraintSet(budget_k=params["budget_k"],
                                       horizon_tn=params["tn"],
                                       power_cap=params["p_max"],
                                       success_prob_a=params["a"])
            res = solve_power_constrained(constraint, month_ci, energy,
                                          discipline, mode, params["mu_rule"],
                                          params["mu"], eps)
        else:
            constraint = ConstraintSet(budget_k=params["budget_k"],
                                       horizon_tn=params["tn"],
                                       snr_min=snr_db_to_linear(params["snr_min_db"]),
                                       success_prob_a=params["a"])
            res = solve_qos_constrained(constraint, month_ci, energy,
                                        discipline, mode, eps)
    except Infeasible as exc:
        write_json(out_path, {"status": "infeasible", "reason": str(exc)})
        if out_path is not None:
            write_manifest("optimize", params, [out_path])
        return 3

    write_json(out_path, {
        "status": "ok",
        "problem": params["problem"],
        "model": res.discipline.value,
        "mode": res.mode,
        "lambda_star": res.lambda_star,
        "mu_star": res.mu_star,
        "aoi_s": res.aoi,
        "cf_g": res.cf,
        "lambda_bound": res.lambda_bound,
        "binding": res.binding_constraint.value,
    })
    if out_path is not None:
        write_manifest("optimize", params, [out_path])
    return 0


# ---------------------------------------------------------------- simulate

def resolve_simulate(args) -> dict:
    return {
        "model": args.model,
        "lam": args.lam,
        "mu": args.mu,
        "horizon": args.horizon,
        "seed": args.seed,
        "reps": args.reps,
        "warmup": args.warmup,
        "slot": args.slot,
        "cf_mode": args.cf_mode,
        "buffer": args.buffer,
        "drain": bool(args.drain),
        "ci": resolve_ci_spec(args.ci, args.ci_value),
        "out": None if args.out is None else str(args.out),
        "slots_out": None if args.slots_out is None else str(args.slots_out),
        "events_out": None if args.events_out is None else str(args.events_out),
    }


def run_simulate(params: dict, out_dir=None) -> None:
    out_path, slots_path, events_path = (
        _redirect(params[key], out_dir) for key in ("out", "slots_out", "events_out"))
    discipline = _disciplines(params["model"])[0]
    spec = QueueSpec(discipline, params["lam"], params["mu"])
    config = SimConfig(
        spec=spec,
        horizon=params["horizon"],
        seed=params["seed"],
        warmup=params["warmup"],
        slot_length=params["slot"],
        cf_mode=CfMode(params["cf_mode"]),
        buffer=params["buffer"],
        drain=params["drain"],
        keep_events=events_path is not None,
    )
    profile = load_ci(params["ci"], horizon=params["horizon"])
    energy = EnergyModel()

    if params["reps"] >= 2:
        summary = replicate(config, profile, energy, params["reps"])
        first = summary.traces[0]
        mean_aoi = summary.mean_aoi
        ci95 = summary.ci95_halfwidth
        mean_a = summary.mean_a
        mean_cf = summary.mean_cf_g
        n = params["reps"]
        arrivals = sum(t.arrivals for t in summary.traces) / n
        completions = sum(t.completions for t in summary.traces) / n
        preemptions = sum(t.preemptions for t in summary.traces) / n
        drops = sum(t.drops for t in summary.traces) / n
    else:
        first = run(config, profile, energy)
        mean_aoi = first.time_avg_aoi
        ci95 = None
        mean_a = first.empirical_a
        mean_cf = first.ledger.total
        arrivals = float(first.arrivals)
        completions = float(first.completions)
        preemptions = float(first.preemptions)
        drops = float(first.drops)

    if discipline is Discipline.FCFS_MM1:
        # The closed form models the unbounded queue; a buffer cap changes
        # the system, so no reference value is reported there.
        modeled = params["buffer"] is None and spec.rho < 1.0
        closed = avg_aoi_mm1(spec) if modeled else None
    else:
        closed = avg_aoi_mm1_star(spec)
    rel_dev = None if closed is None else abs(mean_aoi - closed) / closed

    write_json(out_path, {
        "model": params["model"],
        "lambda": params["lam"],
        "mu": params["mu"],
        "horizon_s": params["horizon"],
        "warmup_s": config.effective_warmup,
        "slot_s": config.effective_slot,
        "seed": params["seed"],
        "reps": params["reps"],
        "cf_mode": params["cf_mode"],
        "buffer": params["buffer"],
        "drain": params["drain"],
        "mean_aoi_s": mean_aoi,
        "ci95_halfwidth_s": ci95,
        "empirical_a": mean_a,
        "total_cf_g": mean_cf,
        "closed_form_aoi_s": closed,
        "rel_dev_from_closed_form": rel_dev,
        "arrivals": arrivals,
        "completions": completions,
        "preemptions": preemptions,
        "drops": drops,
    })

    outputs = [] if out_path is None else [out_path]
    if slots_path is not None:
        slot = first.slot_length
        counts = first.n_tx_per_slot.tolist()
        grams = first.ledger.grams.tolist()
        rows = []
        for i in range(max(len(counts), len(grams))):
            n_tx = int(counts[i]) if i < len(counts) else 0
            g = grams[i] if i < len(grams) else 0.0
            rows.append((fmt_float(i * slot), str(n_tx), fmt_float(g)))
        write_csv(slots_path, SLOTS_HEADER, rows)
        outputs.append(slots_path)
    if events_path is not None:
        # Rows are formatted as they are written, one delivery at a time.
        rows = ((fmt_float(t), fmt_float(u), fmt_float(t - u))
                for t, u in zip(first.delivery_times, first.delivery_gen_times))
        write_csv(events_path, EVENTS_HEADER, rows)
        outputs.append(events_path)
    if outputs:
        write_manifest("simulate", params, outputs)


# ---------------------------------------------------------------- sweep

def resolve_sweep(args) -> dict:
    if args.surface == "k" and args.k_grid is None:
        raise ValidationError("--surface k needs --k-grid")
    if args.surface == "snr":
        if args.snr_grid_db is None:
            raise ValidationError("--surface snr needs --snr-grid-db")
        if args.budget_k is None:
            raise ValidationError("--surface snr needs --budget-k")
    return {
        "surface": args.surface,
        "model": args.model,
        "mode": args.mode,
        "k_grid": args.k_grid,
        "snr_grid_db": args.snr_grid_db,
        "budget_k": args.budget_k,
        "p_max": args.p_max,
        "mu": args.mu,
        "tn": args.tn,
        "eps": args.eps,
        "a": args.a,
        "ci": resolve_ci_spec(args.ci, None),
        "out": str(args.out),
    }


def run_sweep(params: dict, out_dir=None) -> None:
    out_path = _redirect(params["out"], out_dir)
    profile = load_ci(params["ci"], full_year=True)
    tn, a = params["tn"], params["a"]
    if params["surface"] == "k":
        problem = "power"
        grid = [(k, ConstraintSet(budget_k=k, horizon_tn=tn, power_cap=params["p_max"],
                                  success_prob_a=a))
                for k in params["k_grid"]]
    else:
        problem = "qos"
        grid = [(db, ConstraintSet(budget_k=params["budget_k"], horizon_tn=tn,
                                   snr_min=snr_db_to_linear(db), success_prob_a=a))
                for db in params["snr_grid_db"]]
    rows = sweep_surface(problem, grid, profile, EnergyModel(),
                         _disciplines(params["model"]), params["mode"], params["mu"],
                         SaturationEpsilon(params["eps"]))
    if rows and all(r.binding == "infeasible" for r in rows):
        raise Infeasible("every grid cell is infeasible")
    out_rows = [(str(r.month), fmt_float(r.x), r.model, fmt_float(r.aoi), r.binding)
                for r in rows]
    write_csv(out_path, SWEEP_HEADER, out_rows)
    write_manifest("sweep", params, [out_path])


# ---------------------------------------------------------------- replay

# subcommand -> (parsed arguments to manifest params, run from params); run
# returns the exit code, or None for success.
_COMMANDS = {
    "analyze": (resolve_analyze, run_analyze),
    "optimize": (resolve_optimize, run_optimize),
    "simulate": (resolve_simulate, run_simulate),
    "sweep": (resolve_sweep, run_sweep),
}


def run_replay(manifest_path: str, out_dir) -> int:
    body = json.loads(Path(manifest_path).read_text())
    command = body.get("command")
    if command not in _COMMANDS:
        raise ValidationError(f"manifest names unknown command {command!r}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    return _COMMANDS[command][1](body.get("params", {}), out_dir) or 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caoi",
        description="Carbon-aware age-of-information analysis",
    )
    parser.add_argument("--version", action="version", version=f"caoi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="closed-form sweeps over lambda or budget")
    pa.add_argument("--model", choices=["mm1", "mm1star", "both"], required=True)
    pa.add_argument("--mu", type=float, required=True, help="service rate, packets/s")
    pa.add_argument("--lambda-grid", type=parse_grid, metavar="A:B:N")
    pa.add_argument("--k-grid", type=parse_grid, metavar="A:B:N",
                    help="budget grid in grams")
    pa.add_argument("--ci", help="CI profile CSV path, or 'builtin'")
    pa.add_argument("--mode", choices=["paper", "exact"],
                    help="default: exact for --lambda-grid, paper for --k-grid")
    pa.add_argument("--tn", type=float, default=3600.0, help="slot length, s")
    pa.add_argument("--a", type=float, default=1.0, help="success probability")
    pa.add_argument("--eps", type=float, default=1e-3)
    pa.add_argument("--out", required=True)

    po = sub.add_parser("optimize", help="solve one constrained problem")
    po.add_argument("--problem", choices=["cf", "power", "qos"], required=True)
    po.add_argument("--model", choices=["mm1", "mm1star"], required=True)
    po.add_argument("--mode", choices=["paper", "exact"], default="exact")
    po.add_argument("--budget-k", type=parse_budget, required=True,
                    metavar="GRAMS[g|mg|ug]")
    po.add_argument("--tn", type=float, default=3600.0)
    po.add_argument("--mu", type=float, help="service rate; default 1/t_p")
    po.add_argument("--mu-rule", choices=["fixed", "track_opt_rho"], default="fixed")
    po.add_argument("--eps", type=float, default=1e-3)
    po.add_argument("--a", type=float, default=1.0)
    po.add_argument("--month", type=int, help="evaluate one month of the profile")
    po.add_argument("--ci", help="CI profile CSV path, or 'builtin'")
    po.add_argument("--ci-value", type=float, help="constant CI, g/kWh")
    po.add_argument("--p-max", type=float, help="power cap, W (problem power)")
    po.add_argument("--snr-min-db", type=float, help="SNR floor, dB (problem qos)")
    po.add_argument("--out")

    ps = sub.add_parser("simulate", help="seeded event simulation")
    ps.add_argument("--model", choices=["mm1", "mm1star"], required=True)
    ps.add_argument("--lambda", dest="lam", type=float, required=True)
    ps.add_argument("--mu", type=float, required=True)
    ps.add_argument("--horizon", type=float, required=True, help="seconds")
    ps.add_argument("--seed", type=int, default=1)
    ps.add_argument("--reps", type=int, default=1)
    ps.add_argument("--warmup", type=float, help="default: 1%% of horizon")
    ps.add_argument("--slot", type=float, help="default: horizon/1000")
    ps.add_argument("--cf-mode", choices=["arrival", "completion", "service_time"],
                    default="arrival")
    ps.add_argument("--buffer", type=parse_buffer, default=None,
                    help="system capacity, or 'inf'")
    ps.add_argument("--drain", action="store_true",
                    help="serve admitted work past the horizon")
    ps.add_argument("--ci", help="CI profile CSV path, or 'builtin'")
    ps.add_argument("--ci-value", type=float)
    ps.add_argument("--out")
    ps.add_argument("--slots-out", help="per-slot transmission CSV")
    ps.add_argument("--events-out", help="per-delivery CSV")

    pw = sub.add_parser("sweep", help="month-by-grid surfaces")
    pw.add_argument("--surface", choices=["k", "snr"], required=True)
    pw.add_argument("--k-grid", type=parse_grid, metavar="A:B:N")
    pw.add_argument("--snr-grid-db", type=parse_grid, metavar="A:B:N")
    pw.add_argument("--budget-k", type=parse_budget, metavar="GRAMS[g|mg|ug]",
                    help="fixed budget for --surface snr")
    pw.add_argument("--p-max", type=float, default=1.0)
    pw.add_argument("--mu", type=float, help="service rate; default 1/t_p")
    pw.add_argument("--tn", type=float, default=3600.0)
    pw.add_argument("--model", choices=["mm1", "mm1star", "both"], default="both")
    pw.add_argument("--mode", choices=["paper", "exact"], default="paper")
    pw.add_argument("--eps", type=float, default=1e-3)
    pw.add_argument("--a", type=float, default=1.0)
    pw.add_argument("--ci", help="12-month CI profile CSV path, or 'builtin'")
    pw.add_argument("--out", required=True)

    pr = sub.add_parser("replay", help="re-run a manifest")
    pr.add_argument("manifest")
    pr.add_argument("--out-dir", help="redirect outputs into this directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return run_replay(args.manifest, args.out_dir)
        resolve, execute = _COMMANDS[args.command]
        return execute(resolve(args)) or 0
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except CaoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
