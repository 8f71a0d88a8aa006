#!/usr/bin/env python3
"""Cross-check the closed-form age formulas against the event simulator.

For each (model, utilization) cell this runs independent replications,
prints the simulated mean age with its 95% half-width next to the
closed form, and flags cells whose relative deviation exceeds --tol.
Exit status is nonzero if any cell fails, so the script doubles as a
slow self-test.
"""

import argparse
import math
import sys

import numpy as np

from caoi import cli
from caoi.carbon import CiProfile, EnergyModel
from caoi.dessim import SimConfig, replicate
from caoi.errors import CaoiError
from caoi.queueing import Discipline, QueueSpec, avg_aoi


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rho", type=float, nargs="+",
                        default=[0.3, 0.5, 0.531, 0.7, 0.9])
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--arrivals", type=float, default=1e6,
                        help="target expected arrivals per replication")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--tol", type=float, default=0.02)
    parser.add_argument("--out", help="optional CSV of the comparison table")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")

    energy = EnergyModel()
    rows = []
    # Every cell runs before the table is printed, so bad input exits 2
    # with one error line and no partial table.
    try:
        for discipline in Discipline:
            for rho in args.rho:
                spec = QueueSpec(discipline, rho * args.mu, args.mu)
                horizon = math.ceil(args.arrivals / spec.lam)
                profile = CiProfile.constant(198.0, 2.0 * horizon)
                config = SimConfig(spec=spec, horizon=float(horizon),
                                   seed=args.seed,
                                   slot_length=horizon / 1000.0)
                summary = replicate(config, profile, energy, args.reps)
                closed = avg_aoi(discipline, spec.lam, spec.mu)
                rel = abs(summary.mean_aoi - closed) / closed
                rows.append((discipline.value, rho, closed, summary.mean_aoi,
                             summary.ci95_halfwidth, rel))
    except CaoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    print(f"{'model':8} {'rho':>6} {'closed':>10} {'simulated':>10} "
          f"{'ci95':>8} {'rel_dev':>8}")
    for name, rho, closed, mean, half, rel in rows:
        bad = rel > args.tol
        failures += bad
        flag = "  FAIL" if bad else ""
        half_text = "-" if half is None else f"{half:.4f}"   # None for one replication
        print(f"{name:8} {rho:6.3f} {closed:10.4f} "
              f"{mean:10.4f} {half_text:>8} "
              f"{rel:8.5f}{flag}")

    if args.out:
        header = ("model", "rho", "closed_form_aoi_s", "simulated_aoi_s",
                  "ci95_halfwidth_s", "rel_dev")
        # One replication has no half-width: '%.0s' takes its None and
        # prints nothing, as fmt_float writes None.
        row = "%s,%.17g,%.17g,%.17g," + ("%.0s" if args.reps == 1 else "%.17g") + ",%.17g\n"
        columns = np.array(rows, dtype=object).T
        cli.write_csv(args.out, header, cli.template_blocks(
            row, len(rows), lambda cells: columns[:, cells]))
        print(f"wrote {args.out}")

    if failures:
        print(f"{failures} cell(s) above tolerance {args.tol}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
