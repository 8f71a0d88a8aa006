"""Command line front end.

Subcommands: analyze (closed-form sweeps to CSV), optimize (single
constrained solve to JSON), simulate (seeded simulation summary to
JSON), sweep (month-by-grid surfaces to CSV), and replay (re-run a
manifest).  Every file the tool writes is accompanied by a
``<name>.manifest.json`` recording the fully resolved parameters, seeds,
version, and input digests; replaying a manifest reproduces the outputs
byte for byte.  A replay takes the path of a fresh command: its manifest
is refused unless the parser could have produced every value, and the
same run_* checks and runs both.  Every CSV row is formatted by one %
over a row template (template_blocks), with each float as '%.17g', 17
significant digits, so equal results are equal bytes.  A command loads
only the modules it runs: caoi.dessim, and numpy.random with it, for
simulate alone, and hashlib for a --ci file's digest alone.

Exit codes: 0 success, 2 usage or validation error, 3 infeasible
problem, 4 I/O failure.
"""

import argparse
import json
import math
import os
import reprlib
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .carbon import CiProfile, ConstraintSet, EnergyModel
from .cidata import builtin_profile_si2024, parse_ci_csv
from .errors import CaoiError, Infeasible, ParseError, ValidationError
from .optimizer import (
    BOTH_DISCIPLINES,
    SweepTable,
    row_blocks,
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
    avg_aoi,
)

ENV_DEFAULT_CI = "CAOI_DEFAULT_CI"

# Points in one grid, from a flag or a replayed manifest; a longer grid is
# refused before any list is built.  A 10^5-point sweep --surface k, 2.4M
# cells, peaks at about 210 MB, most of it in the solve's float64 arrays.
MAX_GRID_POINTS = 10**5

ANALYZE_HEADER = ("x", "model", "aoi_s", "cf_g", "lambda_bound", "binding")
SWEEP_HEADER = ("month", "x", "model", "aoi_s", "binding")
SLOTS_HEADER = ("slot_start_s", "n_tx", "cf_g")
EVENTS_HEADER = ("t_deliver_s", "t_generated_s", "age_after_s")


def fmt_float(x) -> str:
    """x with 17 significant digits ("inf", "-inf", "nan" as such), "" for None."""
    return "" if x is None else format(float(x), ".17g")


def snr_db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:       # past about 3083 dB; the SNR checks refuse inf
        return math.inf


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
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid count {count} exceeds the cap of {MAX_GRID_POINTS} points")
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
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"buffer must be an integer or 'inf', got {text!r}") from None


def resolve_ci_spec(ci_arg, ci_value) -> dict:
    """Turn --ci/--ci-value flags into a manifest-ready source record."""
    if ci_value is not None and ci_arg is not None:
        raise ValidationError("--ci and --ci-value are exclusive: give one CI source")
    if ci_value is not None:
        return {"kind": "constant", "value": float(ci_value)}
    if ci_arg is None:
        ci_arg = os.environ.get(ENV_DEFAULT_CI) or "builtin"
    if ci_arg == "builtin":
        return {"kind": "builtin"}
    import hashlib
    path = Path(ci_arg).resolve()
    return {"kind": "file", "path": str(path),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _is_ci_spec(spec, constant: bool) -> bool:
    """Whether spec has one of the forms resolve_ci_spec writes, the
    constant one only if the command has --ci-value."""
    fields = {"builtin": {}, "constant": {"value": float}, "file": {"path": str, "sha256": str}}
    kind = spec.get("kind") if isinstance(spec, dict) else None
    return isinstance(kind, str) and kind in fields and (constant or kind != "constant") \
        and spec.keys() == {"kind", *fields[kind]} \
        and all(type(spec[key]) is t for key, t in fields[kind].items())


def load_ci(spec: dict, horizon: float = 1.0) -> CiProfile:
    """The profile of a source record.  A file's bytes are read once: the
    bytes checked against the recorded digest are the bytes parsed."""
    kind = spec["kind"]
    if kind == "constant":
        return CiProfile.constant(spec["value"], horizon)
    if kind == "builtin":
        return builtin_profile_si2024()
    import hashlib
    data = Path(spec["path"]).read_bytes()
    if hashlib.sha256(data).hexdigest() != spec["sha256"]:
        raise ValidationError(
            f"input {spec['path']} changed since the manifest was written"
        )
    try:
        text = data.decode("utf-8-sig")     # skips a leading byte-order mark
    except UnicodeDecodeError as exc:
        raise ParseError(f"input {spec['path']} is not UTF-8: {exc}") from None
    return parse_ci_csv(text)


def _disciplines(model: str):
    return BOTH_DISCIPLINES if model == "both" else (Discipline(model),)


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
    for out in outputs:
        write_json(str(out) + ".manifest.json", body)


def write_csv(path: str, header, blocks) -> None:
    """Write header, then each block: the text of whole rows, each ending
    in a newline.

    blocks may be a generator, which formats each block as it is written.
    No field is quoted: each is a number, a model or a binding label, none
    of which holds a comma, a quote or a line break.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def template_blocks(template, n: int, columns_at):
    """n rows, a block of row_blocks at a time, for write_csv: a block's
    template % the items of its columns, row by row.  template is one
    row's, or a function of the cells that gives the block's;
    columns_at(cells) gives the columns of a block as arrays."""
    for cells in row_blocks(n):
        rows = zip(*(column.tolist() for column in columns_at(cells)))
        block = template(cells) if callable(template) else template * (cells.stop - cells.start)
        yield block % tuple(chain.from_iterable(rows))


def table_blocks(table: SweepTable, columns):
    """The rows of table's columns, a block of row_blocks at a time, for write_csv.

    columns names each one: month, x, model, aoi_s, cf_g, lambda_bound or
    binding.  Each month, x, model and binding is text, formatted once;
    every float goes through '%.17g', fmt_float's rule.  A column the
    table lacks (sweep_lambda's lambda_bound) is an empty field, and in a
    blank cell '%.0s' takes cf_g's and lambda_bound's value and prints
    nothing.
    """
    text = {name: np.array(values, dtype=object) for name, values in (
        ("month", table.months), ("x", list(map(fmt_float, table.xs))),
        ("model", table.models), ("binding", table.labels))}
    floats = {"aoi_s": table.aoi, "cf_g": table.cf, "lambda_bound": table.lambda_bound}
    rows = tuple(",".join("%s" if name in text else "" if floats[name] is None
                          else "%.0s" if blank and name != "aoi_s" else "%.17g"
                          for name in columns) + "\n" for blank in (False, True))
    present = [name for name in columns if name in text or floats[name] is not None]

    blank = table.blank
    template = rows[0] if blank is None else (
        lambda cells: "".join(map(rows.__getitem__, blank[cells].tolist())))

    def columns_at(cells):
        at = dict(zip(("month", "x", "model"), table.cell_axes(np.arange(cells.start, cells.stop))),
                  binding=table.binding[cells])
        return [text[name][at[name]] if name in text else floats[name][cells] for name in present]

    return template_blocks(template, len(table), columns_at)


def _strict(value):
    """value with each float that is not finite, at any depth, as fmt_float's
    string: json.dumps would write Infinity or NaN, tokens that strict JSON
    parsers reject."""
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return list(map(_strict, value))
    return fmt_float(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, obj) -> None:
    text = json.dumps(_strict(obj), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------- analyze

class _AnalyzeGrid(argparse.Action):
    """--lambda-grid or --k-grid: the grid goes to `grid` and the flag's kind
    to `grid_kind`, which reads "both" once the two flags are given."""

    def __call__(self, parser, namespace, values, option_string=None):
        kind = self.option_strings[0][len("--"):-len("-grid")]
        namespace.grid_kind = kind if namespace.grid_kind in (None, kind) else "both"
        namespace.grid = values


def run_analyze(params: dict, out_dir=None) -> None:
    if params["grid_kind"] not in ("lambda", "k") or params["grid"] is None:
        raise ValidationError("analyze needs exactly one of --lambda-grid or --k-grid")
    if params["mode"] is None:
        params = dict(params, mode="exact" if params["grid_kind"] == "lambda" else "paper")
    out_path = _redirect(params["out"], out_dir)
    profile = load_ci(params["ci"])
    energy = EnergyModel()
    eps = SaturationEpsilon(params["eps"])
    disciplines = _disciplines(params["model"])
    if params["grid_kind"] == "lambda":
        constraint = ConstraintSet(budget_k=math.inf, horizon_tn=params["tn"],
                                   success_prob_a=params["a"])
        table = sweep_lambda(params["mu"], params["grid"], disciplines, params["mode"],
                             profile=profile, energy=energy, constraint=constraint)
    else:
        table = sweep_cf_budget(params["mu"], params["grid"], profile, energy,
                                params["tn"], disciplines, params["mode"],
                                params["a"], per_month=False, eps=eps)
    if table.infeasible.all():
        raise Infeasible("every grid point is infeasible")
    write_csv(out_path, ANALYZE_HEADER, table_blocks(table, ANALYZE_HEADER))
    write_manifest("analyze", params, [out_path])


# ---------------------------------------------------------------- optimize

def run_optimize(params: dict, out_dir=None) -> int:
    problem = params["problem"]
    if problem == "power" and params["p_max"] is None:
        raise ValidationError("--problem power needs --p-max")
    if problem == "qos" and params["snr_min_db"] is None:
        raise ValidationError("--problem qos needs --snr-min-db")
    # Flags the chosen problem would ignore are refused, so that no output
    # or manifest records a value that did not take part.
    if params["mu_rule"] == "track_opt_rho" and problem != "power":
        raise ValidationError("--mu-rule track_opt_rho applies only to --problem power")
    if params["mu"] is not None and problem == "qos":
        raise ValidationError("--mu does not apply to --problem qos: "
                              "the SNR floor sets the service rate")
    if params["mu"] is not None and params["mu_rule"] == "track_opt_rho":
        raise ValidationError("--mu does not apply under --mu-rule track_opt_rho: "
                              "the rule sets the service rate")
    for key, owner in (("p_max", "power"), ("snr_min_db", "qos")):
        if params[key] is not None and problem != owner:
            raise ValidationError(f"--{key.replace('_', '-')} does not apply to --problem {problem}")
    out_path = _redirect(params["out"], out_dir)
    profile = load_ci(params["ci"])
    energy = EnergyModel()
    eps = SaturationEpsilon(params["eps"])
    discipline = Discipline(params["model"])
    mode = params["mode"]
    mu = params["mu"] if params["mu"] is not None else 1.0 / energy.t_p

    if params["month"] is not None:
        if not 1 <= params["month"] <= len(profile.values):
            raise ValidationError(
                f"--month must be 1..{len(profile.values)}, got {params['month']}")
        month_ci = profile.values[params["month"] - 1]
    else:
        month_ci = profile.long_term_average

    snr_db = params["snr_min_db"]
    constraint = ConstraintSet(budget_k=params["budget_k"], horizon_tn=params["tn"],
                               power_cap=params["p_max"],
                               snr_min=None if snr_db is None else snr_db_to_linear(snr_db),
                               success_prob_a=params["a"])
    try:
        if problem == "cf":
            prof = profile if params["month"] is None \
                else CiProfile.constant(month_ci, profile.horizon)
            res = solve_cf_constrained(mu, constraint, prof, energy,
                                       discipline, mode, eps)
        elif problem == "power":
            res = solve_power_constrained(constraint, month_ci, energy,
                                          discipline, mode, params["mu_rule"],
                                          params["mu"], eps)
        else:
            res = solve_qos_constrained(constraint, month_ci, energy,
                                        discipline, mode, eps)
    except Infeasible as exc:
        code, body = 3, {"status": "infeasible", "reason": str(exc)}
    else:
        code, body = 0, {
            "status": "ok",
            "problem": problem,
            "model": res.discipline.value,
            "mode": res.mode,
            "lambda_star": res.lambda_star,
            "mu_star": res.mu_star,
            "aoi_s": res.aoi,
            "cf_g": res.cf,
            "lambda_bound": res.lambda_bound,
            "binding": res.binding_constraint.value,
        }
    write_json(out_path, body)
    if out_path is not None:
        write_manifest("optimize", params, [out_path])
    return code


# ---------------------------------------------------------------- simulate

def run_simulate(params: dict, out_dir=None) -> None:
    from .dessim import CfMode, SimConfig, replicate     # loaded for simulate alone

    # As in run_optimize: the preemptive kernel never reads the buffer.
    if params["model"] == "mm1star" and params["buffer"] is not None:
        raise ValidationError("--buffer does not apply to --model mm1star: "
                              "preemption keeps one packet in the system")
    out_path, slots_path, events_path = (
        _redirect(params[key], out_dir) for key in ("out", "slots_out", "events_out"))
    discipline = Discipline(params["model"])
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

    summary = replicate(config, profile, energy, params["reps"])
    traces = summary.traces
    first = traces[0]

    # The FCFS closed form models the unbounded queue; a buffer cap changes
    # the system, so no reference value is reported there.
    modeled = discipline is Discipline.LCFS_PREEMPTIVE or (
        params["buffer"] is None and spec.rho < 1.0)
    closed = avg_aoi(discipline, spec.lam, spec.mu) if modeled else None
    rel_dev = None if closed is None else abs(summary.mean_aoi - closed) / closed

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
        "mean_aoi_s": summary.mean_aoi,
        "ci95_halfwidth_s": summary.ci95_halfwidth,
        "empirical_a": summary.mean_a,
        "total_cf_g": summary.mean_cf_g,
        "closed_form_aoi_s": closed,
        "rel_dev_from_closed_form": rel_dev,
        **{key: sum(getattr(t, key) for t in traces) / len(traces)
           for key in ("arrivals", "completions", "preemptions", "drops")},
    })

    # '%.17g' % x is format(x, ".17g"), fmt_float's rule.
    outputs = [] if out_path is None else [out_path]
    if slots_path is not None:
        n_tx, grams, slot = first.n_tx_per_slot, first.ledger.grams, first.slot_length
        write_csv(slots_path, SLOTS_HEADER, template_blocks("%.17g,%d,%.17g\n", len(n_tx), (
            lambda cells: (np.arange(cells.start, cells.stop) * slot, n_tx[cells], grams[cells]))))
        outputs.append(slots_path)
    if events_path is not None:
        t, u = first.delivery_times, first.delivery_gen_times
        write_csv(events_path, EVENTS_HEADER, template_blocks("%.17g,%.17g,%.17g\n", len(t), (
            lambda cells: (t[cells], u[cells], t[cells] - u[cells]))))
        outputs.append(events_path)
    if outputs:
        write_manifest("simulate", params, outputs)


# ---------------------------------------------------------------- sweep

def run_sweep(params: dict, out_dir=None) -> None:
    surface = params["surface"]
    if surface == "k" and params["k_grid"] is None:
        raise ValidationError("--surface k needs --k-grid")
    if surface == "snr":
        if params["snr_grid_db"] is None:
            raise ValidationError("--surface snr needs --snr-grid-db")
        if params["budget_k"] is None:
            raise ValidationError("--surface snr needs --budget-k")
        if params["mu"] is not None:
            raise ValidationError("--mu does not apply to --surface snr: "
                                  "the SNR floor sets the service rate")
    # --p-max is checked under either surface, though --surface snr does not
    # use it: its default, 1 W, cannot be told from a use, but a value the
    # power solve would refuse is refused.
    energy = EnergyModel()
    if not 0 < params["p_max"] <= energy.p_max:
        raise ValidationError(f"--p-max must be positive and at most the hardware p_max "
                              f"{energy.p_max} W, got {params['p_max']}")
    for key in ("snr_grid_db", "budget_k") if surface == "k" else ("k_grid",):
        if params[key] is not None:
            raise ValidationError(f"--{key.replace('_', '-')} does not apply to --surface {surface}")
    out_path = _redirect(params["out"], out_dir)
    profile = load_ci(params["ci"])
    tn, a = params["tn"], params["a"]
    if surface == "k":
        problem = "power"
        grid = [(k, ConstraintSet(budget_k=k, horizon_tn=tn, power_cap=params["p_max"],
                                  success_prob_a=a))
                for k in params["k_grid"]]
    else:
        problem = "qos"
        grid = [(db, ConstraintSet(budget_k=params["budget_k"], horizon_tn=tn,
                                   snr_min=snr_db_to_linear(db), success_prob_a=a))
                for db in params["snr_grid_db"]]
    table = sweep_surface(problem, grid, profile, energy,
                          _disciplines(params["model"]), params["mode"], params["mu"],
                          SaturationEpsilon(params["eps"]))
    if table.infeasible.all():
        raise Infeasible("every grid cell is infeasible")
    write_csv(out_path, SWEEP_HEADER, table_blocks(table, SWEEP_HEADER))
    write_manifest("sweep", params, [out_path])


# ---------------------------------------------------------------- params

# subcommand -> (its manifest keys in manifest order, run from params); run
# returns the exit code, or None for success.  Each key is the dest of the
# flag that sets it, except ci (the record resolve_ci_spec writes) and
# analyze's grid_kind (set by _AnalyzeGrid, checked by run_analyze).
_COMMANDS = {
    "analyze": (("model", "mu", "grid_kind", "grid", "mode", "tn", "a", "eps", "ci", "out"),
                run_analyze),
    "optimize": (("problem", "model", "mode", "budget_k", "tn", "mu", "mu_rule", "eps", "a",
                  "month", "p_max", "snr_min_db", "ci", "out"), run_optimize),
    "simulate": (("model", "lam", "mu", "horizon", "seed", "reps", "warmup", "slot",
                  "cf_mode", "buffer", "drain", "ci", "out", "slots_out", "events_out"),
                 run_simulate),
    "sweep": (("surface", "model", "mode", "k_grid", "snr_grid_db", "budget_k", "p_max",
               "mu", "tn", "eps", "a", "ci", "out"), run_sweep),
}


def resolve(command: str, args) -> dict:
    """The params of a fresh command, read off its parsed flags."""
    params = {key: getattr(args, key) for key in _COMMANDS[command][0]}
    params["ci"] = resolve_ci_spec(args.ci, getattr(args, "ci_value", None))
    return params


def _producible(action: argparse.Action, value) -> bool:
    """Whether parsing action's flag, or leaving it out, can give value."""
    if value is None:
        return action.default is None and not action.required
    if action.choices is not None:
        return isinstance(value, str) and value in action.choices
    if action.type is parse_grid:       # the grid that its ends and length spell
        try:
            return (isinstance(value, list) and len(value) >= 1
                    and all(type(x) is float for x in value)
                    and parse_grid(f"{value[0]!r}:{value[-1]!r}:{len(value)}") == value)
        except argparse.ArgumentTypeError:
            return False
    # A flag without a type parses to a str, a store_true flag (nargs 0) to a bool.
    parsed = {float: float, parse_budget: float, int: int, parse_buffer: int}
    return type(value) is (bool if action.nargs == 0 else parsed.get(action.type, str))


# The strings write_json writes for the floats that are not finite.
_NON_FINITE = {fmt_float(x): x for x in (math.inf, -math.inf, math.nan)}


def _non_finite_back(action, value):
    """value with write_json's "inf", "-inf" and "nan" read back as floats,
    where action's flag parses to a float (float, parse_budget) or to a grid
    of floats; other values, as a string flag's, are left as they are."""
    def back(v):
        return _NON_FINITE.get(v, v) if isinstance(v, str) else v

    kind = getattr(action, "type", None)
    if kind is parse_grid and isinstance(value, list):
        return list(map(back, value))
    return back(value) if kind in (float, parse_budget) else value


def read_manifest(path: str, parser: argparse.ArgumentParser):
    """(command, params) of a manifest, refused unless the parser could have
    produced every value, so that a replay runs every check a command runs."""
    try:
        body = json.loads(Path(path).read_text())
    except ValueError as exc:       # includes a file that is not UTF-8
        raise ValidationError(f"manifest {path} is not JSON: {exc}") from None
    command = body.get("command") if isinstance(body, dict) else None
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValidationError(f"manifest names unknown command {command!r}")
    keys, params = _COMMANDS[command][0], body.get("params")
    if not isinstance(params, dict) or params.keys() != set(keys):
        raise ValidationError(f"manifest params of {command} must have exactly the keys "
                              f"{', '.join(keys)}")
    subparsers = next(a for a in parser._actions if a.dest == "command")
    actions = {a.dest: a for a in subparsers.choices[command]._actions}
    for key in keys:
        value = params[key] = _non_finite_back(actions.get(key), params[key])
        if not (_is_ci_spec(value, "ci_value" in actions) if key == "ci"
                else key not in actions or _producible(actions[key], value)):
            raise ValidationError(f"manifest param {key} = {reprlib.repr(value)} "
                                  f"is not a value caoi {command} writes")
    return command, {key: params[key] for key in keys}


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caoi",
        description="Carbon-aware age-of-information analysis",
    )
    parser.add_argument("--version", action="version", version=f"caoi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags two or more commands share, each declared once.
    ci = argparse.ArgumentParser(add_help=False)
    ci.add_argument("--ci", help="CI profile CSV path, or 'builtin' (sweep: 12 months)")
    ci_value = argparse.ArgumentParser(add_help=False)
    ci_value.add_argument("--ci-value", type=float, help="constant CI, g/kWh")
    tn_a_eps = argparse.ArgumentParser(add_help=False)
    tn_a_eps.add_argument("--tn", type=float, default=3600.0, help="slot length, s")
    tn_a_eps.add_argument("--a", type=float, default=1.0, help="success probability")
    tn_a_eps.add_argument("--eps", type=float, default=1e-3)

    pa = sub.add_parser("analyze", help="closed-form sweeps over lambda or budget",
                        parents=[ci, tn_a_eps])
    pa.add_argument("--model", choices=["mm1", "mm1star", "both"], required=True)
    pa.add_argument("--mu", type=float, required=True, help="service rate, packets/s")
    pa.add_argument("--lambda-grid", dest="grid", action=_AnalyzeGrid, type=parse_grid,
                    metavar="A:B:N")
    pa.add_argument("--k-grid", dest="grid", action=_AnalyzeGrid, type=parse_grid,
                    metavar="A:B:N", help="budget grid in grams")
    pa.set_defaults(grid_kind=None)
    pa.add_argument("--mode", choices=["paper", "exact"],
                    help="default: exact for --lambda-grid, paper for --k-grid")
    pa.add_argument("--out", required=True)

    po = sub.add_parser("optimize", help="solve one constrained problem",
                        parents=[ci, ci_value, tn_a_eps])
    po.add_argument("--problem", choices=["cf", "power", "qos"], required=True)
    po.add_argument("--model", choices=["mm1", "mm1star"], required=True)
    po.add_argument("--mode", choices=["paper", "exact"], default="exact")
    po.add_argument("--budget-k", type=parse_budget, required=True,
                    metavar="GRAMS[g|mg|ug]")
    po.add_argument("--mu", type=float, help="service rate; default 1/t_p")
    po.add_argument("--mu-rule", choices=["fixed", "track_opt_rho"], default="fixed")
    po.add_argument("--month", type=int, help="evaluate one month of the profile")
    po.add_argument("--p-max", type=float, help="power cap, W (problem power)")
    po.add_argument("--snr-min-db", type=float, help="SNR floor, dB (problem qos)")
    po.add_argument("--out")

    ps = sub.add_parser("simulate", help="seeded event simulation", parents=[ci, ci_value])
    ps.add_argument("--model", choices=["mm1", "mm1star"], required=True)
    ps.add_argument("--lambda", dest="lam", type=float, required=True)
    ps.add_argument("--mu", type=float, required=True)
    ps.add_argument("--horizon", type=float, required=True, help="seconds")
    ps.add_argument("--seed", type=int, default=1)
    ps.add_argument("--reps", type=int, default=1, help="replications, at least 1")
    ps.add_argument("--warmup", type=float, help="default: 1%% of horizon")
    ps.add_argument("--slot", type=float, help="default: horizon/1000")
    ps.add_argument("--cf-mode", choices=["arrival", "completion", "service_time"],
                    default="arrival")
    ps.add_argument("--buffer", type=parse_buffer, default=None,
                    help="system capacity, or 'inf'")
    ps.add_argument("--drain", action="store_true",
                    help="serve admitted work past the horizon")
    ps.add_argument("--out")
    ps.add_argument("--slots-out", help="per-slot transmission CSV")
    ps.add_argument("--events-out", help="per-delivery CSV")

    pw = sub.add_parser("sweep", help="month-by-grid surfaces", parents=[ci, tn_a_eps])
    pw.add_argument("--surface", choices=["k", "snr"], required=True)
    pw.add_argument("--k-grid", type=parse_grid, metavar="A:B:N")
    pw.add_argument("--snr-grid-db", type=parse_grid, metavar="A:B:N")
    pw.add_argument("--budget-k", type=parse_budget, metavar="GRAMS[g|mg|ug]",
                    help="fixed budget for --surface snr")
    pw.add_argument("--p-max", type=float, default=1.0)
    pw.add_argument("--mu", type=float, help="service rate; default 1/t_p")
    pw.add_argument("--model", choices=["mm1", "mm1star", "both"], default="both")
    pw.add_argument("--mode", choices=["paper", "exact"], default="paper")
    pw.add_argument("--out", required=True)

    pr = sub.add_parser("replay", help="re-run a manifest")
    pr.add_argument("manifest")
    pr.add_argument("--out-dir", help="redirect outputs into this directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            command, params = read_manifest(args.manifest, parser)
            if args.out_dir is not None:
                Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        else:
            command, params = args.command, resolve(args.command, args)
        return _COMMANDS[command][1](params, getattr(args, "out_dir", None)) or 0
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
