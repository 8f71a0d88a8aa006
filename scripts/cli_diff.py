#!/usr/bin/env python3
"""Compare the CLI of this checkout with another checkout's, byte for byte.

    python3 scripts/cli_diff.py --parent ../caoi-parent

Runs a fixed list of `python -m caoi` commands with PYTHONPATH set to
each checkout's src/, then replays every manifest the commands wrote.
Both sides run in the same work directory, one after the other, so the
paths the CLI resolves (a CSV profile's, for one) are the same.  Every
output file, and each command's stdout, stderr and exit code, is
compared; each difference is printed, and the exit status is 1 if there
is any.
"""

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROFILE_CSV = "period,ci_g_per_kwh\n2024-01,228\n2024-02,150.5\n2024-03,310\n"


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
    return cmds


def run_side(checkout: Path, work: Path, log: Path) -> None:
    """Every command, then a replay of every manifest, from checkout's src/ in work.

    Each command's exit code, stdout and stderr go to log as <label>.code,
    .stdout and .stderr; a replay's label is replay-<output name>.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("CAOI_DEFAULT_CI", None)
    work.mkdir()
    log.mkdir(parents=True)
    (work / "profile.csv").write_text(PROFILE_CSV)

    def run(label, argv):
        proc = subprocess.run([sys.executable, "-m", "caoi", *argv], cwd=work, env=env,
                              capture_output=True)
        stem = log / label
        Path(f"{stem}.code").write_text(f"{proc.returncode}\n")
        Path(f"{stem}.stdout").write_bytes(proc.stdout)
        Path(f"{stem}.stderr").write_bytes(proc.stderr)

    for label, argv in commands():
        run(label, argv)
    for manifest in sorted(work.glob("*.manifest.json")):
        name = manifest.name[:-len(".manifest.json")]
        run(f"replay-{name}", ["replay", manifest.name, "--out-dir", f"replay/{name}"])


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
    print(f"{len(commands())} commands, {n_files} files compared, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
