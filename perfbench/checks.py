"""Output checks of the benchmark jobs.

Each check compares a job's output with measured data or with a property
the method must have, never with a stored copy of an earlier output.  A
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import bisect
import csv
import math

# Handbook solid densities (g/cm3) over molar masses (g/mol): copper,
# cuprite (Cu2O) and brochantite (Cu4SO4(OH)6), in mol/cm3.
MU_COPPER = 8.94 / 63.55
MU_CUPRITE = 6.00 / 143.09
MU_BROCHANTITE = 3.97 / 452.3

MOLE_RATIO_TOLERANCE = 5e-3     # relative deviation of both ratios from 2
SQRT_GROWTH_TOLERANCE = 1e-2    # |total(40 h)/total(10 h) - 2|
CHAMBER_BOUND_SLACK = 1e-6      # relative slack of the cycles <= chamber check
RESIDUAL_PRINT_RTOL = 1e-4      # header residual against the recomputed one
YEAR_WINDOW_HOURS = 24.0


def read_csv(path) -> list[dict[str, float]]:
    """Rows of a numeric CSV with a header line; ``#`` lines are skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def read_header(path) -> dict[str, str]:
    """``# key = value`` lines at the top of a CSV."""
    header = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
    return header


def read_measurements(path) -> list[tuple[float, float, float]]:
    """(time h, mean cm, std cm) rows of the measured thickness file."""
    return [(r["time_hours"], r["thickness_cm"], r["std_cm"]) for r in read_csv(path)]


def interpolate(rows, column: str, t_hours: float) -> float:
    """Linear interpolation of ``column`` at ``t_hours`` over the rows."""
    times = [r["t_hours"] for r in rows]
    i = bisect.bisect_left(times, t_hours)
    if i < len(times) and times[i] == t_hours:
        return rows[i][column]
    if i == 0 or i == len(times):
        raise ValueError(f"{t_hours} h lies outside the output ({times[0]}-{times[-1]} h)")
    lo, hi = rows[i - 1], rows[i]
    w = (t_hours - lo["t_hours"]) / (hi["t_hours"] - lo["t_hours"])
    return lo[column] + w * (hi[column] - lo[column])


def mole_ratios(row) -> tuple[float, float]:
    """Copper/cuprite and cuprite/brochantite mole ratios of one output row.

    Copper wasted is a*mu_c, cuprite formed the retained layer (a - beta)
    plus the consumed b, cuprite wasted b*mu_p and brochantite formed the
    layer (beta - gamma); both ratios are 2 for consistent fronts.
    """
    a, b, beta, gamma = row["a_cm"], row["b_cm"], row["beta_cm"], row["gamma_cm"]
    copper_cuprite = a * MU_COPPER / ((a - beta + b) * MU_CUPRITE)
    cuprite_brochantite = b * MU_CUPRITE / ((beta - gamma) * MU_BROCHANTITE)
    return copper_cuprite, cuprite_brochantite


def check_simulation(rows, horizon_hours: float) -> list[str]:
    """Checks every simulate output must pass."""
    if not rows:
        return ["the output has no rows"]
    failures = []
    for r in rows:
        if not r["gamma_cm"] < r["beta_cm"] < r["a_cm"]:
            failures.append(f"front order gamma < beta < a broken at {r['t_hours']} h")
            break
    for prev, r in zip(rows, rows[1:]):
        if r["t_hours"] <= prev["t_hours"]:
            failures.append(f"time does not rise after {prev['t_hours']} h")
            break
        if r["a_cm"] < prev["a_cm"] or r["b_cm"] < prev["b_cm"]:
            failures.append(f"a or b decreases at {r['t_hours']} h")
            break
        if r["gamma_cm"] > prev["gamma_cm"]:
            failures.append(f"gamma increases at {r['t_hours']} h")
            break
    last = rows[-1]["t_hours"]
    if not math.isclose(last, horizon_hours, rel_tol=1e-6):
        failures.append(f"last row at {last} h, not at the horizon {horizon_hours} h")
    if not failures:
        worst = max(abs(ratio / 2.0 - 1.0) for r in rows for ratio in mole_ratios(r))
        if not worst <= MOLE_RATIO_TOLERANCE:
            failures.append(f"a mole ratio deviates {worst:.3g} from 2")
    return failures


def check_chamber(rows, measurements) -> list[str]:
    """The 40 h chamber run against the measured thicknesses."""
    failures = check_simulation(rows, 40.0)
    if failures:
        return failures
    for t, mean, std in measurements:
        total = interpolate(rows, "total_cm", t)
        if abs(total - mean) > std:
            failures.append(f"total {total:.4g} cm at {t} h is outside "
                            f"{mean:.4g} +- {std:.4g} cm")
    ratio = interpolate(rows, "total_cm", 40.0) / interpolate(rows, "total_cm", 10.0)
    if abs(ratio - 2.0) > SQRT_GROWTH_TOLERANCE:
        failures.append(f"total(40 h)/total(10 h) = {ratio:.6g}, not the sqrt(t) 2")
    return failures


def check_cycles(rows, chamber_rows, wet_hours: float, dry_hours: float,
                 horizon_hours: float) -> list[str]:
    """Wet/dry cycling against a continuous chamber run of the same length."""
    failures = check_simulation(rows, horizon_hours)
    if failures:
        return failures
    worst = max(r["total_cm"] / interpolate(chamber_rows, "total_cm", r["t_hours"])
                for r in rows)
    if worst > 1.0 + CHAMBER_BOUND_SLACK:
        failures.append(f"the cycled total exceeds the chamber total {worst:.6g}-fold")
    period = wet_hours + dry_hours
    grown = {True: 0.0, False: 0.0}
    hours = {True: 0.0, False: 0.0}
    for prev, r in zip(rows, rows[1:]):
        wet = (0.5 * (prev["t_hours"] + r["t_hours"])) % period < wet_hours
        grown[wet] += (r["beta_cm"] - r["gamma_cm"]) - (prev["beta_cm"] - prev["gamma_cm"])
        hours[wet] += r["t_hours"] - prev["t_hours"]
    wet_rate, dry_rate = grown[True] / hours[True], grown[False] / hours[False]
    if not wet_rate > dry_rate:
        failures.append(f"brochantite grows {wet_rate:.3g} cm/h wet, not faster "
                        f"than {dry_rate:.3g} cm/h dry")
    return failures


def lowest_measured_rate(measurements) -> float:
    """Slowest mean growth (cm/h) between consecutive measurements, from 0 at 0 h."""
    points = [(0.0, 0.0)] + [(t, mean) for t, mean, _ in measurements]
    return min((m1 - m0) / (t1 - t0) for (t0, m0), (t1, m1) in zip(points, points[1:]))


def check_year(rows, measurements, horizon_hours: float) -> list[str]:
    """Ambient exposure grows slower than the chamber did in any 24 h window."""
    failures = check_simulation(rows, horizon_hours)
    if failures:
        return failures
    limit = lowest_measured_rate(measurements)
    start = 0.0
    while start + YEAR_WINDOW_HOURS <= horizon_hours:
        end = start + YEAR_WINDOW_HOURS
        rate = (interpolate(rows, "total_cm", end)
                - interpolate(rows, "total_cm", start)) / YEAR_WINDOW_HOURS
        if rate >= limit:
            failures.append(f"growth {rate:.3g} cm/h over {start}-{end} h is not below "
                            f"the measured chamber rate {limit:.3g} cm/h")
            break
        start = end
    return failures


def check_calibration(path, measurements) -> list[str]:
    """A calibration CSV: every prediction within one std, residual consistent."""
    header = read_header(path)
    rows = read_csv(path)
    if len(rows) != len(measurements):
        return [f"{len(rows)} calibration rows for {len(measurements)} measurements"]
    failures = []
    recomputed = 0.0
    for r, (t, mean, std) in zip(rows, measurements):
        if not (math.isclose(r["time_hours"], t, rel_tol=1e-5)
                and math.isclose(r["measured_cm"], mean, rel_tol=1e-5)
                and math.isclose(r["std_cm"], std, rel_tol=1e-5)):
            failures.append(f"calibration row at {r['time_hours']} h does not repeat "
                            f"the measurement ({t}, {mean}, {std})")
        if abs(r["predicted_cm"] - mean) > std:
            failures.append(f"prediction {r['predicted_cm']:.4g} cm at {t} h is outside "
                            f"{mean:.4g} +- {std:.4g} cm")
        recomputed += ((r["predicted_cm"] - mean) / std) ** 2
    try:
        reported = float(header["residual"])
    except (KeyError, ValueError):
        return failures + ["no '# residual' header"]
    if not math.isclose(reported, recomputed, rel_tol=RESIDUAL_PRINT_RTOL):
        failures.append(f"header residual {reported:.6g} differs from the recomputed "
                        f"{recomputed:.6g}")
    return failures
