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
from uavhitch.simlab import SWEEP_KINDS

# Only the battery table departs from sweep_curves' defaults: it spans a
# wider headroom range, more finely.
OVERRIDES = {"battery": dict(delta_e_max=0.2, points=201)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    for kind in SWEEP_KINDS:
        header, rows = sweep_curves(kind, **OVERRIDES.get(kind, {}))
        path = os.path.join(args.outdir, f"sweep_{kind}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text(header, rows))
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
