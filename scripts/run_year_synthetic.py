#!/usr/bin/env python3
"""One-year run on a synthetic urban environment series.

Generates a deterministic hourly CSV (seasonal and daily temperature and
humidity cycles, low ambient SO2) under out/year/, then runs the model on
it.  Useful as a template when real monitoring data are at hand: replace
the generated CSV with a file in the same format.  The model reads the
``time_hours`` and ``so2_ugm3`` columns alone; the temperature and humidity
columns are written so that older versions of the reader, which required
them, read the same file.
"""

import os
import sys

import numpy as np

from patina.cli import run_main

OUT_DIR = "out/year"


def write_series(path) -> None:
    hours = np.arange(8760)
    day = hours / 24.0
    temp = 12.5 + 8.0 * np.sin(2 * np.pi * (day - 105) / 365.0) \
        + 4.0 * np.sin(2 * np.pi * (hours % 24) / 24.0 - 0.7)
    rh = 65.0 - 15.0 * np.sin(2 * np.pi * (day - 105) / 365.0) \
        + 10.0 * np.sin(2 * np.pi * (hours % 24) / 24.0 + 2.0)
    so2 = 12.0 + 6.0 * np.cos(2 * np.pi * (day - 20) / 365.0) \
        + 3.0 * np.sin(2 * np.pi * (hours % 24) / 24.0)
    rh = np.clip(rh, 5.0, 100.0)
    so2 = np.clip(so2, 0.0, None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_hours,so2_ugm3,temp_c,rh_percent\n")
        for h in hours:
            fh.write(f"{h},{so2[h]:.3f},{temp[h]:.3f},{rh[h]:.3f}\n")


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)
    env_csv = os.path.join(OUT_DIR, "synthetic_year.csv")
    write_series(env_csv)
    sys.exit(run_main(["simulate", "--env", env_csv,
                       "--horizon-hours", "8760", "--out", OUT_DIR,
                       *sys.argv[1:]]))
