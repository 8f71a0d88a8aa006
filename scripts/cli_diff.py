#!/usr/bin/env python3
"""Compare the CLI of this checkout with another checkout's, byte for byte.

    python3 scripts/cli_diff.py --parent ../caoi-parent

Runs a fixed list of `python -m caoi` commands and each checkout's own
two scripts with PYTHONPATH set to its src/, then replays every
manifest the commands wrote, and two hand-made ones that no command
could write, which a replay must refuse.
`--parent .` compares the checkout with itself, so it fails when a
command or a replay writes other bytes from one run to the next.
Both sides run in the same work directory, one after the other, so the
paths the CLI resolves (a CSV profile's, for one) are the same.  Every
output file, and each command's stdout, stderr and exit code, is
compared, as are each script's; each difference is printed, and the
exit status is 1 if there is any.
"""

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROFILE_CSV = "period,ci_g_per_kwh\n2024-01,228\n2024-02,150.5\n2024-03,310\n"
YEAR_CSV = "period,ci_g_per_kwh\n# 12 periods, as a month sweep needs\n" + "".join(
    f"2023-{m:02d},{v}\n" for m, v in enumerate(
        ("231", "219.5", "190", "151", "110", "126", "160", "175.25", "205", "250", "311",
         "262"), start=1))
# 24 periods: --month takes any row, and a month sweep refuses it.
TWO_YEAR_CSV = YEAR_CSV.replace("# 12 periods, as a month sweep needs\n", "") + "".join(
    f"2024-{m:02d},{100 + 15 * m}\n" for m in range(1, 13))


def commands() -> list:
    """(label, argv) pairs, run in order in the work directory."""
    cmds = [
        # The README's command-line examples.
        ("readme-analyze", ["analyze", "--model", "both", "--mu", "1.0",
                            "--lambda-grid", "0.05:0.95:19", "--out", "age.csv"]),
        ("readme-optimize", ["optimize", "--problem", "cf", "--model", "mm1",
                             "--budget-k", "0.5mg", "--ci", "builtin", "--month", "11",
                             "--mu", "40", "--out", "nov.json"]),
        ("readme-simulate", ["simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1",
                             "--horizon", "200000", "--seed", "7", "--reps", "20",
                             "--ci-value", "198", "--out", "sim.json",
                             "--slots-out", "slots.csv"]),
        ("readme-sweep", ["sweep", "--surface", "snr", "--snr-grid-db=-10:30:41",
                          "--budget-k", "60ug", "--ci", "builtin", "--out", "snr.csv"]),
    ]
    for mode in ("exact", "paper"):
        cmds += [
            (f"analyze-lambda-{mode}", ["analyze", "--model", "both", "--mu", "1.0",
                                        "--lambda-grid", "0.05:1.5:30", "--mode", mode,
                                        "--a", "0", "--ci", "builtin",
                                        "--out", f"lambda_{mode}.csv"]),
            (f"analyze-k-{mode}", ["analyze", "--model", "both", "--mu", "40",
                                   "--k-grid", "5e-324:1e-3:12", "--mode", mode,
                                   "--a", "0", "--ci", "profile.csv",
                                   "--out", f"k_{mode}.csv"]),
        ]
    problems = {"cf": ["--mu", "40"], "power": ["--p-max", "1"],
                "qos": ["--snr-min-db", "3"]}
    for problem, extra in problems.items():
        for model in ("mm1", "mm1star"):
            for mode in ("exact", "paper"):
                stem = f"opt_{problem}_{model}_{mode}"
                cmds.append((stem, ["optimize", "--problem", problem, "--model", model,
                                    "--mode", mode, "--budget-k", "0.5mg", *extra,
                                    "--ci", "builtin", "--month", "5",
                                    "--out", f"{stem}.json"]))
    cmds += [
        ("opt-csv-profile", ["optimize", "--problem", "power", "--model", "mm1star",
                             "--budget-k", "0.5mg", "--p-max", "0.5", "--ci", "profile.csv",
                             "--month", "3", "--out", "opt_csv.json"]),
        # A profile whose lines end in \r, as the CLI reads it.
        ("opt-cr-profile", ["optimize", "--problem", "cf", "--model", "mm1", "--mu", "40",
                            "--budget-k", "0.5mg", "--ci", "profile_cr.csv", "--month", "2",
                            "--out", "opt_cr.json"]),
        ("opt-track", ["optimize", "--problem", "power", "--model", "mm1",
                       "--mu-rule", "track_opt_rho", "--budget-k", "0.5mg", "--p-max", "1",
                       "--ci", "builtin", "--out", "opt_track.json"]),
        ("opt-infeasible", ["optimize", "--problem", "power", "--model", "mm1",
                            "--budget-k", "5e-324", "--tn", "1e12", "--p-max", "1",
                            "--ci", "builtin", "--out", "opt_infeasible.json"]),
        ("opt-stdout", ["optimize", "--problem", "qos", "--model", "mm1star",
                        "--budget-k", "6e-5", "--snr-min-db", "0", "--ci-value", "198"]),
        # Flags the problem does not use.
        ("opt-qos-mu", ["optimize", "--problem", "qos", "--model", "mm1",
                        "--budget-k", "60ug", "--snr-min-db", "0", "--mu", "40",
                        "--out", "opt_qos_mu.json"]),
        ("opt-cf-track", ["optimize", "--problem", "cf", "--model", "mm1",
                          "--mu-rule", "track_opt_rho", "--budget-k", "0.5mg",
                          "--mu", "40", "--out", "opt_cf_track.json"]),
        ("opt-qos-track", ["optimize", "--problem", "qos", "--model", "mm1",
                           "--mu-rule", "track_opt_rho", "--budget-k", "60ug",
                           "--snr-min-db", "0", "--out", "opt_qos_track.json"]),
        ("opt-track-mu", ["optimize", "--problem", "power", "--model", "mm1",
                          "--mu-rule", "track_opt_rho", "--mu", "-1", "--budget-k", "0.5mg",
                          "--p-max", "1", "--out", "opt_track_mu.json"]),
        ("sweep-snr-mu", ["sweep", "--surface", "snr", "--snr-grid-db=-10:30:5",
                          "--budget-k", "60ug", "--mu", "40", "--out", "sweep_snr_mu.csv"]),
        # Month sweeps of a CSV profile: 12 periods, and 3 and 24, which are refused.
        ("sweep-k-csv", ["sweep", "--surface", "k", "--k-grid", "4e-4:8e-4:3", "--mu", "40",
                         "--ci", "year.csv", "--out", "sweep_k_csv.csv"]),
        ("sweep-snr-csv", ["sweep", "--surface", "snr", "--snr-grid-db=-10:30:9",
                           "--budget-k", "60ug", "--ci", "year.csv",
                           "--out", "sweep_snr_csv.csv"]),
        ("sweep-three-periods", ["sweep", "--surface", "k", "--k-grid", "4e-4:8e-4:3",
                                 "--ci", "profile.csv", "--out", "sweep_three.csv"]),
        ("sweep-two-years", ["sweep", "--surface", "k", "--k-grid", "4e-4:8e-4:3",
                             "--ci", "two_years.csv", "--out", "sweep_two_years.csv"]),
        # Month 13 of the 24: --month is bounded by the profile's rows.
        ("opt-month-13", ["optimize", "--problem", "cf", "--model", "mm1", "--budget-k", "0.05",
                          "--mu", "1", "--ci", "two_years.csv", "--month", "13",
                          "--out", "opt_month13.json"]),
        # CSVs written in more than one 4096-row block: 4800 and 5000 rows.
        ("sweep-k-blocks", ["sweep", "--surface", "k", "--k-grid", "1e-6:1e-3:200",
                            "--ci", "builtin", "--out", "sweep_k_blocks.csv"]),
        ("analyze-lambda-blocks", ["analyze", "--model", "both", "--mu", "1",
                                   "--lambda-grid", "0.01:0.99:2500", "--ci", "builtin",
                                   "--out", "lambda_blocks.csv"]),
    ]
    for mode in ("exact", "paper"):
        cmds += [
            (f"sweep-k-{mode}", ["sweep", "--surface", "k", "--k-grid", "5e-324:1e-3:6",
                                 "--tn", "1e12", "--mu", "40", "--mode", mode,
                                 "--out", f"sweep_k_{mode}.csv"]),
            (f"sweep-snr-{mode}", ["sweep", "--surface", "snr", "--snr-grid-db=-10:30:9",
                                   "--budget-k", "5e-324", "--tn", "1e9", "--mode", mode,
                                   "--ci", "builtin", "--out", f"sweep_snr_{mode}.csv"]),
        ]
    for buffer in ("1", "2", "10"):
        cmds.append((f"simulate-b{buffer}", [
            "simulate", "--model", "mm1", "--lambda", "0.9", "--mu", "1", "--horizon", "20000",
            "--seed", "3", "--reps", "2", "--buffer", buffer, "--ci", "builtin",
            "--out", f"sim_b{buffer}.json", "--slots-out", f"slots_b{buffer}.csv"]))
    for model, buffer, cf_mode in (("mm1", "5", "completion"),
                                   ("mm1star", "inf", "service_time")):
        cmds.append((f"simulate-{cf_mode}", [
            "simulate", "--model", model, "--lambda", "1.2", "--mu", "1", "--horizon", "5000",
            "--seed", "5", "--cf-mode", cf_mode, "--drain", "--buffer", buffer,
            "--ci", "profile.csv", "--out", f"sim_{cf_mode}.json",
            "--events-out", f"events_{cf_mode}.csv"]))
    # Without --drain: deliveries and busy time are cut at the horizon, in
    # every kernel, with work in service there.
    for stem, model, lam, buffer, cf_mode, reps in (
            ("lcfs-service", "mm1star", "1.2", "inf", "service_time", "1"),
            ("fcfs-completion", "mm1", "0.9", "inf", "completion", "2"),
            ("fcfs-service", "mm1", "0.9", "inf", "service_time", "2"),
            ("b5-service", "mm1", "1.2", "5", "service_time", "2")):
        cmds.append((f"simulate-cut-{stem}", [
            "simulate", "--model", model, "--lambda", lam, "--mu", "1", "--horizon", "5000",
            "--seed", "6", "--reps", reps, "--cf-mode", cf_mode, "--buffer", buffer,
            "--ci", "profile.csv", "--out", f"sim_cut_{stem}.json",
            "--slots-out", f"slots_cut_{stem}.csv", "--events-out", f"events_cut_{stem}.csv"]))
    # With --drain: drained work can reach slots past the horizon that only
    # the counts or only the grams reach, and the other reads 0 there.
    for stem, model, lam, buffer, cf_mode in (
            ("b5-completion", "mm1", "1.2", "5", "completion"),
            ("fcfs-service", "mm1", "0.9", "inf", "service_time"),
            ("lcfs-service", "mm1star", "1.2", "inf", "service_time"),
            ("b2-arrival", "mm1", "3.0", "2", "arrival")):
        cmds.append((f"simulate-drain-{stem}", [
            "simulate", "--model", model, "--lambda", lam, "--mu", "1", "--horizon", "5000",
            "--slot", "50", "--seed", "7", "--reps", "2", "--cf-mode", cf_mode, "--drain",
            "--buffer", buffer, "--ci", "profile.csv", "--out", f"sim_drain_{stem}.json",
            "--slots-out", f"slots_drain_{stem}.csv"]))
    cmds += [
        # A buffer that never fills, with the busy starts the kernel derives.
        ("simulate-huge-buffer", [
            "simulate", "--model", "mm1", "--lambda", "1.2", "--mu", "1", "--horizon", "5000",
            "--seed", "8", "--cf-mode", "service_time",
            "--buffer", "1000000000000000000000000000000", "--ci", "profile.csv",
            "--out", "sim_huge.json", "--slots-out", "slots_huge.csv",
            "--events-out", "events_huge.csv"]),
        ("simulate-negative-seed", [
            "simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1", "--horizon", "100",
            "--seed", "-1", "--ci-value", "198", "--out", "sim_negative_seed.json"]),
        # Refused by SimConfig, not by the CLI: a buffer preemption never fills.
        ("simulate-mm1star-buffer", [
            "simulate", "--model", "mm1star", "--lambda", "0.5", "--mu", "1", "--horizon", "100",
            "--buffer", "5", "--ci-value", "198", "--out", "sim_mm1star_buffer.json"]),
        # Two outputs of one file name, which a replay would write to one path.
        ("simulate-same-name", [
            "simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1", "--horizon", "100",
            "--ci-value", "198", "--out", "same.csv", "--slots-out", "same.csv"]),
        # Drained work past the slot cap.  Not mu = 1e-10: a checkout that
        # grows the grid unchecked asks numpy for 55 GiB there.
        ("simulate-drain-past-cap", [
            "simulate", "--model", "mm1star", "--lambda", "1.2", "--mu", "1e-300",
            "--horizon", "100", "--drain", "--ci-value", "198", "--out", "sim_past_cap.json"]),
        # An output named as another output's manifest.
        ("simulate-output-is-a-manifest", [
            "simulate", "--model", "mm1", "--lambda", "0.5", "--mu", "1", "--horizon", "100",
            "--ci-value", "198", "--out", "s.json", "--slots-out", "s.json.manifest.json"]),
    ]
    # An output over its own --ci input, which run_side writes for it alone:
    # where it is not refused, the command overwrites that input.
    for command, argv in CLOBBERS.items():
        cmds.append((f"{command}-over-its-ci", [
            command, *argv, "--ci", f"clobber_{command}.csv", "--out", f"clobber_{command}.csv"]))
    return cmds


CLOBBERS = {
    "analyze": ["--model", "mm1", "--mu", "1", "--lambda-grid", "0.1:0.9:3"],
    "optimize": ["--problem", "cf", "--model", "mm1", "--mu", "1", "--budget-k", "0.05"],
    "simulate": ["--model", "mm1", "--lambda", "0.5", "--mu", "1", "--horizon", "100"],
    "sweep": ["--surface", "k", "--mu", "1", "--k-grid", "0.01:0.1:3"],
}


# Manifests no command writes, by output name: a k grid that decreases,
# and a constant CI for analyze, which has no --ci-value.  A replay of
# either must exit 2 and write nothing.
REFUSED = {
    "refused_k_grid.csv": ("sweep", {
        "surface": "k", "model": "both", "mode": "paper", "k_grid": [8e-4, 4e-4, 5e-4],
        "snr_grid_db": None, "budget_k": None, "p_max": 1.0, "mu": None, "tn": 3600.0,
        "eps": 1e-3, "a": 1.0, "ci": {"kind": "builtin"}}),
    "refused_constant_ci.csv": ("analyze", {
        "model": "both", "mu": 1.0, "grid_kind": "lambda", "grid": [0.1, 0.5, 0.9],
        "mode": "exact", "tn": 3600.0, "a": 1.0, "eps": 1e-3,
        "ci": {"kind": "constant", "value": 50.0}}),
}


def refused_manifest(name: str) -> str:
    command, params = REFUSED[name]
    return json.dumps({"tool": "caoi", "command": command, "params": dict(params, out=name),
                       "outputs": [name]}, indent=2)


# (label, argv) of the scripts in each checkout's scripts/, run after the
# commands.  The validation cells are small: a script change that alters a
# byte shows up, not whether the cells pass.
SCRIPTS = [
    ("script-datasets", ["make_sweep_datasets.py", "--out-dir", "datasets"]),
    ("script-validation", ["validate_against_simulation.py", "--arrivals", "2e4",
                           "--reps", "3", "--out", "validation.csv"]),
]


def run_side(checkout: Path, work: Path, log: Path) -> None:
    """Every command and script, then a replay of every manifest, from
    checkout's src/ in work.

    Each run's exit code, stdout and stderr go to log as <label>.code,
    .stdout and .stderr; a replay's label is replay-<output name>.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("CAOI_DEFAULT_CI", None)
    work.mkdir()
    log.mkdir(parents=True)
    (work / "profile.csv").write_text(PROFILE_CSV)
    (work / "year.csv").write_text(YEAR_CSV)
    (work / "two_years.csv").write_text(TWO_YEAR_CSV)
    (work / "profile_cr.csv").write_bytes(PROFILE_CSV.replace("\n", "\r").encode())
    for command in CLOBBERS:
        (work / f"clobber_{command}.csv").write_text(YEAR_CSV)
    for name in REFUSED:
        (work / f"{name}.manifest.json").write_text(refused_manifest(name))

    def run(label, argv):
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env, capture_output=True)
        stem = log / label
        Path(f"{stem}.code").write_text(f"{proc.returncode}\n")
        Path(f"{stem}.stdout").write_bytes(proc.stdout)
        Path(f"{stem}.stderr").write_bytes(proc.stderr)

    for label, argv in commands():
        run(label, ["-m", "caoi", *argv])
    for label, (script, *argv) in SCRIPTS:
        run(label, [str(checkout / "scripts" / script), *argv])
    for manifest in sorted(work.glob("*.manifest.json")):
        name = manifest.name[:-len(".manifest.json")]
        run(f"replay-{name}", ["-m", "caoi", "replay", manifest.name,
                               "--out-dir", f"replay/{name}"])


def files(tree: Path) -> dict:
    return {p.relative_to(tree).as_posix(): p for p in sorted(tree.rglob("*")) if p.is_file()}


def compare_trees(parent: Path, change: Path) -> list:
    """One line, or a short text diff, per file that differs between the trees."""
    a, b = files(parent), files(change)
    out = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            out.append(f"only in parent: {name}")
        elif name not in a:
            out.append(f"only in change: {name}")
        elif a[name].read_bytes() != b[name].read_bytes():
            old, new = a[name].read_bytes(), b[name].read_bytes()
            try:
                lines = difflib.unified_diff(old.decode().splitlines(),
                                             new.decode().splitlines(),
                                             f"parent/{name}", f"change/{name}", lineterm="")
                out.append("\n".join(list(lines)[:12]))
            except UnicodeDecodeError:
                out.append(f"bytes differ: {name}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        tmp = Path(tmp)
        work = tmp / "work"
        for side, checkout in (("parent", args.parent.resolve()), ("change", ROOT)):
            run_side(checkout, work, tmp / side / "log")
            shutil.move(str(work), str(tmp / side / "out"))
        diffs = compare_trees(tmp / "parent", tmp / "change")
        n_files = len(files(tmp / "change"))
    for d in diffs:
        print(d)
    print(f"{len(commands())} commands, {len(SCRIPTS)} scripts, {n_files} files compared, "
          f"{len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
