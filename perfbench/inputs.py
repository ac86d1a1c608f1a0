"""Seeded inputs of the benchmark workloads."""

import math
import random

YEAR_HOURS = 8760
TEMP_RANGE_C = (0.0, 45.0)      # validity range of the saturated-vapour fit
RH_RANGE_PERCENT = (5.0, 100.0)


def year_series(seed: int) -> list[tuple[int, float, float, float]]:
    """Hourly (hour, SO2 ug/m3, temperature C, RH %) rows for one year.

    The deterministic seasonal and daily cycles are those of
    scripts/run_year_synthetic.py; the seed adds hourly noise (temperature
    sd 1.5 C, RH sd 5 %, SO2 a log-normal factor with sd 0.2), and the
    result is kept within 0-45 C, 5-100 % RH and non-negative SO2.
    """
    rng = random.Random(seed)
    rows = []
    for h in range(YEAR_HOURS):
        season = math.sin(2 * math.pi * (h / 24.0 - 105) / 365.0)
        daily = 2 * math.pi * (h % 24) / 24.0
        temp = 12.5 + 8.0 * season + 4.0 * math.sin(daily - 0.7) + rng.gauss(0.0, 1.5)
        rh = 65.0 - 15.0 * season + 10.0 * math.sin(daily + 2.0) + rng.gauss(0.0, 5.0)
        so2 = (12.0 + 6.0 * math.cos(2 * math.pi * (h / 24.0 - 20) / 365.0)
               + 3.0 * math.sin(daily)) * math.exp(rng.gauss(0.0, 0.2))
        rows.append((h, max(so2, 0.0), min(max(temp, TEMP_RANGE_C[0]), TEMP_RANGE_C[1]),
                     min(max(rh, RH_RANGE_PERCENT[0]), RH_RANGE_PERCENT[1])))
    return rows


def write_year_csv(path, seed: int) -> None:
    """The seeded year series in the program's environment-CSV format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_hours,so2_ugm3,temp_c,rh_percent\n")
        for h, so2, temp, rh in year_series(seed):
            fh.write(f"{h},{so2:.3f},{temp:.3f},{rh:.3f}\n")
