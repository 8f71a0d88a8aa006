#!/usr/bin/env python3
"""Generate the sweep datasets behind the figures.

Writes four CSV files into --out-dir:

  lambda_sweep.csv   age vs arrival rate for both queue models, no budget
  budget_sweep.csv   age vs carbon budget per calendar month, both models
  snr_sweep.csv      age vs SNR floor per month under a tight budget
  month_power.csv    age vs month under a power cap, both models

All outputs are plain CSV with repr-precision floats so downstream
plotting does not depend on this script's formatting choices.
"""

import argparse
import csv
import math
import os
import sys

from caoi.carbon import ConstraintSet, EnergyModel
from caoi.cidata import builtin_profile_si2024
from caoi.errors import CaoiError
from caoi.optimizer import sweep_cf_budget, sweep_lambda, sweep_months, sweep_surface


def write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])
    print(f"wrote {path}")


def build_tables(args) -> list:
    """The four tables as (file name, header, rows), each built in full."""
    energy = EnergyModel()
    builtin = builtin_profile_si2024()

    # 1. Unconstrained age vs arrival rate, mu = 1. The FCFS curve has its
    #    interior minimum near rho = 0.531; the preemptive one is monotone.
    unconstrained = ConstraintSet(budget_k=math.inf, horizon_tn=args.horizon)
    lam_grid = [0.02 + i * (1.96 / 97) for i in range(98)]
    rows = [(r.x, r.model, r.aoi, r.cf, r.binding)
            for r in sweep_lambda(1.0, lam_grid, mode="exact",
                                  profile=builtin, energy=energy,
                                  constraint=unconstrained)]
    tables = [("lambda_sweep.csv", ["lambda", "model", "aoi_s", "cf_g", "binding"], rows)]

    # 2. Age vs budget, one column per month. Non-increasing in the budget;
    #    FCFS goes flat once the budget stops binding.
    k_grid = [2e-4 + i * 2e-5 for i in range(60)]
    rows = [(r.month, r.x, r.model, r.aoi, r.binding)
            for r in sweep_cf_budget(args.mu, k_grid, builtin, energy,
                                     args.horizon, mode="paper",
                                     per_month=True)]
    tables.append(("budget_sweep.csv", ["month", "budget_g", "model", "aoi_s", "binding"], rows))

    # 3. Age vs SNR floor under a budget small enough that the minimum sits
    #    inside the grid for every month.
    grid = [(float(db), ConstraintSet(budget_k=6e-5, horizon_tn=args.horizon,
                                      snr_min=10.0 ** (db / 10.0)))
            for db in range(-10, 31)]
    rows = [(r.month, r.x, r.model, r.aoi, r.binding)
            for r in sweep_surface("qos", grid, builtin, energy, mode="paper")]
    tables.append(("snr_sweep.csv", ["month", "snr_db", "model", "aoi_s", "binding"], rows))

    # 4. Age by month when a 1 W cap binds: the curve is the CI profile
    #    rescaled, so November/May equals the CI ratio.
    capped = ConstraintSet(budget_k=5e-4, horizon_tn=args.horizon,
                           power_cap=1.0)
    rows = [(r.month, r.model, r.aoi, r.binding)
            for r in sweep_months(capped, builtin, energy, mode="paper",
                                  problem="power")]
    tables.append(("month_power.csv", ["month", "model", "aoi_s", "binding"], rows))
    return tables


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="datasets")
    parser.add_argument("--mu", type=float, default=40.0,
                        help="service rate for the budget sweep")
    parser.add_argument("--horizon", type=float, default=3600.0,
                        help="accounting horizon t_N in seconds")
    args = parser.parse_args(argv)
    # Every table is built before any file is written, so bad input exits 2
    # with one error line and no partial output.
    try:
        tables = build_tables(args)
    except CaoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    for name, header, rows in tables:
        write_rows(os.path.join(args.out_dir, name), header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
