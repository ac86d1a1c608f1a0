#!/usr/bin/env python3
"""Regenerate the shipped default diffusivities.

Runs ``patina calibrate`` once with the default settings against
data/thickness_measures.csv: the exact solution's warm start (the weighted
sqrt(t) amplitude split by ``oxide_share``), bounds [1e-10, 1e-3], budget
200, std-weighted objective, Gauss-Newton fit on the exact totals of the
parameters the starting Jacobian shows the data can determine (``d_s`` on
the shipped data; ``d_g`` and ``d_o`` keep their warm-start values), then
one solver run at the result.  The full result
goes under out/calibrate_defaults/; the fitted values are read back from
the ``# d_*`` lines of its calibration.csv and printed, ready to paste into
config.py, with a marker on each one that differs from the shipped
DEFAULT_DIFFUSIVITIES by more than 1e-3 relative.
"""

import os
import sys

from patina.cli import run_main
from patina.config import DEFAULT_DIFFUSIVITIES

OUT = "out/calibrate_defaults"


def read_fitted(path: str) -> dict[str, float]:
    """The ``# d_name = value`` header lines of a calibration.csv."""
    fitted = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# d_"):
                name, value = line[2:].split("=")
                fitted[name.strip()] = float(value)
    return fitted


def main() -> int:
    status = run_main(["calibrate", "--measurements", "data/thickness_measures.csv",
                       "--out", OUT])
    if status not in (0, 2):    # 2: budget exhausted, best-so-far still written
        return status
    fitted = read_fitted(os.path.join(OUT, "calibration.csv"))
    print("fitted values:")
    for name in ("d_g", "d_s", "d_o"):
        value = fitted[name]
        shipped = DEFAULT_DIFFUSIVITIES[name]
        marker = "" if abs(value / shipped - 1.0) < 1e-3 else "   <- differs from shipped"
        print(f'    "{name}": {value:.6g},{marker}')
    return status


if __name__ == "__main__":
    sys.exit(main())
