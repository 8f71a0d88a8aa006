#!/usr/bin/env python3
"""Generate the sweep datasets behind the figures.

Writes four CSV files into --out-dir:

  lambda_sweep.csv   age vs arrival rate for both queue models, no budget
  budget_sweep.csv   age vs carbon budget per calendar month, both models
  snr_sweep.csv      age vs SNR floor per month under a tight budget
  month_power.csv    age vs month under a power cap, both models

All outputs are plain CSV with repr-precision floats so downstream
plotting does not depend on this script's formatting choices.  They are
written from the tables' columns by the CLI's writer, as `caoi analyze`
and `caoi sweep` write theirs.
"""

import argparse
import math
import os
import sys

from caoi import cli
from caoi.carbon import ConstraintSet, EnergyModel
from caoi.cidata import builtin_profile_si2024
from caoi.errors import CaoiError
from caoi.optimizer import sweep_cf_budget, sweep_lambda, sweep_months, sweep_surface

SURFACE_COLUMNS = ("month", "x", "model", "aoi_s", "binding")


def build_tables(args) -> list:
    """The four tables as (file name, SweepTable, header name of its x
    column, columns), each built in full."""
    energy = EnergyModel()
    builtin = builtin_profile_si2024()

    # 1. Unconstrained age vs arrival rate, mu = 1. The FCFS curve has its
    #    interior minimum near rho = 0.531; the preemptive one is monotone.
    unconstrained = ConstraintSet(budget_k=math.inf, horizon_tn=args.horizon)
    lam_grid = [0.02 + i * (1.96 / 97) for i in range(98)]
    table = sweep_lambda(1.0, lam_grid, mode="exact", profile=builtin, energy=energy,
                         constraint=unconstrained)
    tables = [("lambda_sweep.csv", table, "lambda", ("x", "model", "aoi_s", "cf_g", "binding"))]

    # 2. Age vs budget, one column per month. Non-increasing in the budget;
    #    FCFS goes flat once the budget stops binding.
    k_grid = [2e-4 + i * 2e-5 for i in range(60)]
    table = sweep_cf_budget(args.mu, k_grid, builtin, energy, args.horizon, mode="paper",
                            per_month=True)
    tables.append(("budget_sweep.csv", table, "budget_g", SURFACE_COLUMNS))

    # 3. Age vs SNR floor under a budget small enough that the minimum sits
    #    inside the grid for every month.
    grid = [(db, ConstraintSet(budget_k=6e-5, horizon_tn=args.horizon,
                               snr_min=cli.snr_db_to_linear(db)))
            for db in map(float, range(-10, 31))]
    table = sweep_surface("qos", grid, builtin, energy, mode="paper")
    tables.append(("snr_sweep.csv", table, "snr_db", SURFACE_COLUMNS))

    # 4. Age by month when a 1 W cap binds: the curve is the CI profile
    #    rescaled, so November/May equals the CI ratio.
    capped = ConstraintSet(budget_k=5e-4, horizon_tn=args.horizon,
                           power_cap=1.0)
    table = sweep_months(capped, builtin, energy, mode="paper", problem="power")
    tables.append(("month_power.csv", table, None, ("month", "model", "aoi_s", "binding")))
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
    for name, table, x_name, columns in tables:
        path = os.path.join(args.out_dir, name)
        header = [x_name if c == "x" else c for c in columns]
        cli.write_csv(path, header, cli.table_blocks(table, columns))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
