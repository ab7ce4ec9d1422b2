#!/usr/bin/env python3
"""Emit the four curve tables behind the standard figures:

  speed    optimal consumption vs vehicle speed (ride-only, threshold at
           v = (1-omega)*u)
  gamma    optimal consumption vs charging rate
  surface  optimal consumption over the (speed, rate) grid
  battery  optimal riding distance vs battery headroom

One CSV per table under results/.
"""

import argparse
import os

from uavhitch import sweep_curves
from uavhitch.scenario_io import csv_text

SWEEPS = {
    "speed": dict(x=5.0, u=60.0, omega=0.8, v_min=5.0, v_max=80.0, points=151),
    "gamma": dict(x=5.0, u=60.0, v=30.0, omega=0.3, points=121),
    "surface": dict(x=5.0, u=60.0, omega=0.8, v_min=20.0, v_max=80.0,
                    v_points=61, gamma_min=0.0, gamma_max=0.5, gamma_points=51),
    "battery": dict(x=5.0, u=60.0, v=30.0, omega=0.8, gamma=0.3,
                    delta_e_max=0.2, points=201),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    for kind, grid in SWEEPS.items():
        header, rows = sweep_curves(kind, **grid)
        path = os.path.join(args.outdir, f"sweep_{kind}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text(header, rows))
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
