"""Least-squares fit of the diffusivities to measured patina thicknesses.

The data are a handful of total-thickness measurements; the objective is the
std-weighted sum of squared deviations of the simulated total thickness
(a - gamma, what a cross-section actually shows) at the measurement times.
Parameters are searched in log10 space with a Nelder-Mead simplex; box
bounds are enforced by reflecting the coordinates back into the box, so the
objective is continuous and the reported optimum always lies inside.
Every evaluation is one solver run; the best one is kept, so reporting the
fit costs no further run.

With total thickness alone the three diffusivities are not identifiable:
the oxygen field stays near its boundary value for any plausible D_o, and
D_g trades off against D_s along a flat valley (both layers grow like
sqrt(t)).  The default initial guess therefore comes from a closed-form
quasi-steady estimate (``reduced_model_initial_guess``) that fits the
sqrt(t) amplitude and assigns a configurable share of the patina to the
oxide layer.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .materials import swelling_ratios
from .pde_core import Diffusivities, stefan_constants
from .simulation import SimulationConfig, SimulationError, SimulationOutput, run

__all__ = [
    "ThicknessMeasurement",
    "CalibrationResult",
    "Residual",
    "MEASUREMENTS_CSV_HEADER",
    "load_measurements",
    "predict_total_thickness",
    "weighted_residual",
    "residual",
    "reduced_model_initial_guess",
    "calibrate",
]

log = logging.getLogger("patina.calibration")

MEASUREMENTS_CSV_HEADER = ("time_hours", "thickness_cm", "std_cm")


@dataclass(frozen=True)
class ThicknessMeasurement:
    """Measured mean patina thickness and its standard deviation, in cm."""

    time_hours: float
    mean_cm: float
    std_cm: float

    def __post_init__(self):
        if self.time_hours <= 0.0:
            raise ValueError(f"measurement time must be positive, got {self.time_hours}")
        if self.mean_cm <= 0.0:
            raise ValueError(f"measured thickness must be positive, got {self.mean_cm}")
        if self.std_cm < 0.0:
            raise ValueError(f"standard deviation must be non-negative, got {self.std_cm}")


def load_measurements(path) -> tuple[ThicknessMeasurement, ...]:
    """Read a ``time_hours,thickness_cm,std_cm`` CSV (# comments allowed)."""
    rows: list[ThicknessMeasurement] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh, start=1)
                 if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty measurements file")
    header = tuple(h.strip() for h in lines[0][1].strip().split(","))
    if header != MEASUREMENTS_CSV_HEADER:
        raise ValueError(f"{path}: bad header; expected {','.join(MEASUREMENTS_CSV_HEADER)!r}")
    for lineno, line in lines[1:]:
        parts = next(csv.reader([line]))
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 fields")
        try:
            rows.append(ThicknessMeasurement(*(float(p) for p in parts)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no measurement rows")
    return tuple(rows)


def _run_through(d: Diffusivities, cfg: SimulationConfig,
                 times: np.ndarray) -> SimulationOutput:
    """One run at ``d``, extended to the last of ``times`` if need be."""
    horizon = max(cfg.horizon_hours, float(times.max()))
    return run(replace(cfg, diffusivities=d, horizon_hours=horizon))


def predict_total_thickness(d: Diffusivities, cfg: SimulationConfig,
                            times_hours) -> np.ndarray:
    """Simulated total thickness (cm) at the given hours, one run."""
    times = np.asarray(times_hours, dtype=float)
    return _run_through(d, cfg, times).thickness_at(times)


def _weights(measurements, weighting: str) -> np.ndarray:
    if weighting == "std":
        # fall back to the mean where no std is available
        return np.array([m.std_cm if m.std_cm > 0.0 else m.mean_cm
                         for m in measurements])
    if weighting == "raw":
        return np.ones(len(measurements))
    raise ValueError(f"unknown weighting {weighting!r}; expected 'std' or 'raw'")


def weighted_residual(predicted_cm, measurements, weighting: str = "std") -> float:
    """Sum of squared weighted deviations of predicted totals (cm) from the
    measurements, in measurement order."""
    if not measurements:
        raise ValueError("measurements must be non-empty")
    means = np.array([m.mean_cm for m in measurements])
    w = _weights(measurements, weighting)
    return float(np.sum(((np.asarray(predicted_cm) - means) / w) ** 2))


class Residual(float):
    """A weighted residual that also carries the run it scores.

    ``output`` is that run, or None when the run failed and the residual is
    infinite.
    """

    output: SimulationOutput | None

    def __new__(cls, value: float, output: SimulationOutput | None = None):
        self = super().__new__(cls, value)
        self.output = output
        return self


def residual(d: Diffusivities, measurements, cfg: SimulationConfig,
             weighting: str = "std") -> Residual:
    """Weighted residual of one run at ``d``; infinite when the run fails."""
    if not measurements:
        raise ValueError("measurements must be non-empty")
    times = np.array([m.time_hours for m in measurements])
    try:
        out = _run_through(d, cfg, times)
    except (SimulationError, ValueError) as exc:
        log.warning("residual evaluation rejected at %s: %s", d, exc)
        return Residual(math.inf)
    return Residual(weighted_residual(out.thickness_at(times), measurements, weighting),
                    out)


def reduced_model_initial_guess(measurements, cfg: SimulationConfig,
                                oxide_share: float = 0.1) -> Diffusivities:
    """Warm start from the quasi-steady sqrt(t) growth law.

    Quasi-steady profiles make both layers grow like sqrt(t):
    total(t) ~ (c_p + (1+omega_b)*k_b) * sqrt(tau) with
    b = k_b*sqrt(tau) set by Omega_s and the oxide thickness c_p*sqrt(tau)
    set by Omega_g through c_p^2 + k_b*c_p = 2*(1+omega_p)*Omega_g.  The
    amplitude is fitted to the measurements by weighted least squares, the
    oxide share of the total is fixed at ``oxide_share``, and the two Stefan
    groups are inverted for D_s and D_g.  D_o keeps its configured value
    (no measurable effect).
    """
    if not 0.0 < oxide_share < 1.0:
        raise ValueError("oxide_share must lie in (0, 1)")
    sw = swelling_ratios(cfg.materials)
    scales = cfg.scales
    mat = cfg.materials

    # Weighted LS amplitude of total_nd = C*sqrt(tau) (tau in units of t_r).
    tau = np.array([m.time_hours * 3600.0 / scales.t_r for m in measurements])
    totals_nd = np.array([m.mean_cm / scales.lam for m in measurements])
    w = _weights(measurements, "std") / scales.lam
    amplitude = float(np.sum(totals_nd * np.sqrt(tau) / w**2) / np.sum(tau / w**2))

    c_p = oxide_share * amplitude
    k_b = (1.0 - oxide_share) * amplitude / (1.0 + sw.omega_b)

    from .simulation import _build_model  # boundary values at t = 0

    s_hat, o_hat = _build_model(cfg).forcing_hat(0.0)
    if s_hat <= 0.0 or o_hat <= 0.0:
        raise ValueError("reduced-model guess needs nonzero SO2 and O2 forcing")

    omega_s = k_b**2 * (1.0 + sw.omega_b) / (2.0 * s_hat)
    omega_g = (c_p**2 + k_b * c_p) / (2.0 * (1.0 + sw.omega_p) * o_hat)

    # Invert the Stefan groups at unit hatted diffusivity to get D_s, D_g.
    unit = Diffusivities(1.0, 1.0, 1.0).hatted(scales)
    ref = stefan_constants(mat, unit, scales)
    d_s = omega_s / ref.omega_s
    d_g = omega_g / ref.omega_g
    return Diffusivities(d_g=d_g, d_s=d_s, d_o=cfg.diffusivities.d_o)


@dataclass(frozen=True)
class CalibrationResult:
    """Fit outcome: best diffusivities, objective value, per-point comparison.

    ``output`` is the solver run at the best diffusivities, the one the
    predictions come from.
    """

    diffusivities: Diffusivities
    residual: float
    times_hours: tuple[float, ...]
    measured_cm: tuple[float, ...]
    predicted_cm: tuple[float, ...]
    evaluations: int
    converged: bool
    output: SimulationOutput


def _reflect_into(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold unconstrained coordinates into [lo, hi] by reflection at the walls."""
    span = hi - lo
    t = np.mod(x - lo, 2.0 * span)
    return lo + (span - np.abs(t - span))


def calibrate(initial: Diffusivities, bounds: tuple[float, float],
              measurements, cfg: SimulationConfig, *,
              budget: int = 200, spread_tol: float = 1e-3, simplex_steps=0.25,
              weighting: str = "std") -> CalibrationResult:
    """Nelder-Mead over log10 (d_g, d_s, d_o) with reflective box bounds.

    Stops when the simplex spread drops below ``spread_tol`` in log space or
    when the evaluation ``budget`` is exhausted (best-so-far returned with
    ``converged=False``).  ``simplex_steps`` sets the initial simplex extent
    in decades, a scalar or one value per parameter; a small step
    effectively holds a parameter that the data carry no information about.
    The result is the lowest-residual evaluation, the point Nelder-Mead
    reports on convergence; its run is kept rather than repeated.
    """
    lo, hi = bounds
    if not (0.0 < lo < hi):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got {bounds}")
    if not measurements:
        raise ValueError("measurements must be non-empty")
    llo, lhi = math.log10(lo), math.log10(hi)
    init = [initial.d_g, initial.d_s, initial.d_o]
    for value in init:
        if not (lo <= value <= hi):
            raise ValueError(f"initial diffusivity {value} outside bounds {bounds}")
    x0 = np.log10(np.array(init))

    best, best_d = Residual(math.inf), initial

    def objective(x: np.ndarray) -> float:
        nonlocal best, best_d
        d = Diffusivities(*(10.0 ** _reflect_into(x, llo, lhi)))
        value = residual(d, measurements, cfg, weighting=weighting)
        if value < best:
            best, best_d = value, d
        return value

    # Deterministic initial simplex, a fixed number of decades per coordinate.
    n = x0.size
    steps = np.broadcast_to(np.asarray(simplex_steps, dtype=float), (n,))
    if np.any(steps <= 0.0):
        raise ValueError("simplex_steps must be positive")
    simplex = np.tile(x0, (n + 1, 1))
    for k in range(n):
        simplex[k + 1, k] += steps[k]

    # imported here so that loading the package for a plain run skips it
    from scipy import optimize

    result = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options=dict(
            initial_simplex=simplex,
            maxfev=budget,
            xatol=spread_tol,
            fatol=math.inf,     # spread-only stopping
            adaptive=False,
        ),
    )
    if best.output is None:
        raise SimulationError(f"all {result.nfev} calibration runs failed")
    times = tuple(m.time_hours for m in measurements)
    return CalibrationResult(
        diffusivities=best_d,
        residual=float(best),
        times_hours=times,
        measured_cm=tuple(m.mean_cm for m in measurements),
        predicted_cm=tuple(float(p) for p in best.output.thickness_at(times)),
        evaluations=int(result.nfev),
        converged=bool(result.success),
        output=best.output,
    )
