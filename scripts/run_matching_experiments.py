#!/usr/bin/env python3
"""Reproduce the fleet-consumption comparison: fly-direct vs greedy vs
optimal matching, for both direction-deviation cases, across UAV counts.

Writes results/experiment_case{1,2}.csv plus a short gap summary to stdout.
"""

import argparse
import os

from uavhitch import GeneratorParams, case_theta_range, run_experiment
from uavhitch.scenario_io import write_csv
from uavhitch.simlab import EXPERIMENT_CSV_HEADER

UAV_COUNTS = [5, 10, 15, 20, 25, 30, 35, 40]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--vehicles", type=int, default=40)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    for case in (1, 2):
        params = GeneratorParams(
            n_uavs=0, n_vehicles=args.vehicles, theta_range=case_theta_range(case)
        )
        rows = run_experiment(params, args.trials, UAV_COUNTS, master_seed=args.seed)
        path = os.path.join(args.outdir, f"experiment_case{case}.csv")
        write_csv(path, EXPERIMENT_CSV_HEADER, [r.as_csv_row() for r in rows])
        last = rows[-1]
        delta = last.mean_saving_msa - last.mean_saving_greedy
        print(
            f"case {case}: wrote {path}; at I={last.uav_count} the optimal matcher "
            f"saves {delta / last.mean_direct:.1%} of the direct total more than greedy "
            f"({delta / last.mean_saving_greedy:.1%} of greedy's saving)"
        )


if __name__ == "__main__":
    main()
