"""Least-squares fit of the diffusivities to measured patina thicknesses.

The objective is the std-weighted sum of squared deviations of the total
thickness (a - gamma, what a cross-section shows) at the measurement times;
measurements with no std are weighted by their mean.  Total thickness alone
cannot identify the three diffusivities: the oxygen field stays near its
boundary value for any plausible D_o, and D_g trades off against D_s (both
layers grow like sqrt(t)).  So ``calibrate``, a projected Gauss-Newton fit
in log10 diffusivities on numpy alone, first measures the singular values
of a forward-difference Jacobian at the start point and fits only the
parameters they show the data determine (``subset_selection``).  Under
constant forcing it scores points by the exact sqrt(t) solution's totals
and makes one solver run at the result; under any other forcing each point
is a solver run (``residual``).  The default start (``warm_start``) is the
exact solution's fit to the data, with a configurable oxide share.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .convergence import chamber_at_start, exact_diffusivities, exact_fronts
from .environment import rows_after_header
from .materials import swelling_ratios
from .pde_core import Diffusivities
from .simulation import SimulationConfig, SimulationError, SimulationOutput, run

__all__ = [
    "ThicknessMeasurement",
    "CalibrationResult",
    "Residual",
    "MEASUREMENTS_CSV_HEADER",
    "load_measurements",
    "weighted_residual",
    "residual",
    "warm_start",
    "calibrate",
]

MEASUREMENTS_CSV_HEADER = ("time_hours", "thickness_cm", "std_cm")


@dataclass(frozen=True)
class ThicknessMeasurement:
    """Measured mean patina thickness and its standard deviation, in cm."""

    time_hours: float
    mean_cm: float
    std_cm: float

    def __post_init__(self):
        for name in ("time_hours", "mean_cm", "std_cm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"measurement {name} must be finite, got {getattr(self, name)}")
        if self.time_hours <= 0.0:
            raise ValueError(f"measurement time must be positive, got {self.time_hours}")
        if self.mean_cm <= 0.0:
            raise ValueError(f"measured thickness must be positive, got {self.mean_cm}")
        if self.std_cm < 0.0:
            raise ValueError(f"standard deviation must be non-negative, got {self.std_cm}")


def load_measurements(path) -> tuple[ThicknessMeasurement, ...]:
    """Read a ``time_hours,thickness_cm,std_cm`` CSV (# comments allowed)."""
    rows: list[ThicknessMeasurement] = []
    # utf-8-sig: a byte-order mark, as spreadsheet exports write, is not text
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, _, parts in rows_after_header(path, fh, MEASUREMENTS_CSV_HEADER):
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 fields")
            try:
                rows.append(ThicknessMeasurement(*(float(p) for p in parts)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no measurement rows; the file is empty or has only a header")
    return tuple(rows)


def _weights(measurements) -> np.ndarray:
    # fall back to the mean where no std is available
    return np.array([m.std_cm if m.std_cm > 0.0 else m.mean_cm for m in measurements])


class Residual(float):
    """A weighted residual that also carries its deviations and the run it scores.

    ``deviations`` are the std-weighted deviations of the predicted totals
    from the measurements, in measurement order, and the value is the sum
    of their squares.  ``output`` is the run, or None when no run was made
    or it failed; a failed run's deviations and value are infinite.
    """

    deviations: np.ndarray
    output: SimulationOutput | None

    def __new__(cls, deviations: np.ndarray, output: SimulationOutput | None = None):
        self = super().__new__(cls, np.sum(deviations ** 2))
        self.deviations = deviations
        self.output = output
        return self


def weighted_residual(predicted_cm, measurements) -> Residual:
    """Weighted residual of predicted totals (cm), given in measurement
    order, with its deviation vector and no run."""
    if not measurements:
        raise ValueError("measurements must be non-empty")
    means = np.array([m.mean_cm for m in measurements])
    return Residual((np.asarray(predicted_cm) - means) / _weights(measurements))


def _rejected(d: Diffusivities, measurements, exc: Exception) -> Residual:
    print(f"patina: warning: residual evaluation rejected at {d}: {exc}", file=sys.stderr)
    return Residual(np.full(len(measurements), math.inf))


def residual(d: Diffusivities, measurements, cfg: SimulationConfig) -> Residual:
    """Weighted residual of one run at ``d``, extended to the last measurement
    time if need be; infinite when the run fails.  The run lands on the
    measurement times and keeps a record at each, so its predictions are its
    own values there, whatever the output stride."""
    if not measurements:
        raise ValueError("measurements must be non-empty")
    times = np.array([m.time_hours for m in measurements])
    horizon = max(cfg.horizon_hours, float(times.max()))
    try:
        out = run(replace(cfg, diffusivities=d, horizon_hours=horizon),
                  record_hours=times.tolist())
    except (SimulationError, ValueError) as exc:
        return _rejected(d, measurements, exc)
    return Residual(weighted_residual(out.thickness_at(times), measurements).deviations, out)


def _exact_residual(d: Diffusivities, measurements, cfg: SimulationConfig) -> Residual:
    """Weighted residual of the exact solution's totals at ``d``; infinite where it has none.

    The totals are at exposure t, while the run ``calibrate`` reports has row t
    at exposure t + SEED_HOURS (the README's two clocks): on the shipped data
    the fit scores 0.154844 where that run gives 0.156428."""
    hours = [m.time_hours for m in measurements]
    try:
        totals = exact_fronts(replace(cfg, diffusivities=d), hours)[2]
    except ValueError as exc:
        return _rejected(d, measurements, exc)
    return weighted_residual(totals, measurements)


def warm_start(measurements, cfg: SimulationConfig, oxide_share: float = 0.1) -> Diffusivities:
    """The exact solution's weighted least-squares fit; raises the ValueErrors of ``similarity``.

    Its totals are K*sqrt(t), K the sum of the cuprite layer (1+omega_p)*K_a - K_b,
    which takes ``oxide_share`` of K, and the brochantite layer (1+omega_b)*K_b.
    D_o keeps its configured value; non-constant forcing is taken at t = 0.
    """
    if not 0.0 < oxide_share < 1.0:
        raise ValueError("oxide_share must lie in (0, 1)")
    hours = np.array([m.time_hours for m in measurements])
    means, w = np.array([m.mean_cm for m in measurements]), _weights(measurements)
    amplitude = float(np.sum(means * np.sqrt(hours) / w**2) / np.sum(hours / w**2))
    sw = swelling_ratios(cfg.materials)
    k_b = (1.0 - oxide_share) * amplitude / (1.0 + sw.omega_b)
    k_a = (oxide_share * amplitude + k_b) / (1.0 + sw.omega_p)
    return exact_diffusivities(chamber_at_start(cfg), k_a, k_b)


PARAMETERS = ("d_g", "d_s", "d_o")

# Directions of the starting Jacobian whose singular value is below this
# fraction of the largest are held.  Under constant forcing the exact totals
# are K*sqrt(t), so every column of their Jacobian is a multiple of
# sqrt(t)/std: on the shipped data the singular values are 8.16, 1.3e-14
# and 4.6e-15 (rounding).  Total thickness sees the sqrt(t) amplitude, not
# the split of d_g and d_s, and not d_o.
RANK_RTOL = 1e-2

# Forward-difference step of the Jacobian, in decades of a diffusivity.  The
# exact totals are smooth, and a solver run (non-constant forcing) lands on
# the measurement times, so its totals there carry no interpolation noise
# between output records, which once made a short step show a spurious
# second direction.  On solver runs of the shipped chamber data the second
# singular value is 2.1e-9 of the largest at this step and 2.2e-9 at a
# 1e-3-decade step (grid 25; 1.9e-8 and 2.0e-8 at grid 100), against 2.8e-3
# and 6.6e-2 when the totals were read between records.
JACOBIAN_STEP = 0.05

# The fit stops once it has scored a step shorter than this, in decades.
STEP_TOL = 1e-3

# Longest Gauss-Newton step, in decades of any one diffusivity; a longer
# step is scaled down along its direction.  The linear model of the
# forward-difference Jacobian held to about 0.1 decade where it was
# measured (grid 40, 8 h, 3e-4 cm at 4 h and 5e-4 cm at 8 h): on 6 h wet /
# 18 h dry cycles the uncapped steps were 2.9-6.0 decades, each halved about
# ten times before it lowered the residual, and no step above 0.125 decades
# lowered it at any cap.  Uncapped, that fit stopped at a residual of 0.783
# after 181 evaluations, when halving reached STEP_TOL; capped, it converged
# to 0.742 (247 evaluations at 0.5, 209 at 0.25, 166 at 0.125).  A small cap
# costs steps where the model holds: fits one and two decades from their
# optimum took 15 and 23 evaluations uncapped, 14 and 23 at 0.5, 20 and 35
# at 0.25, 32 and 56 at 0.125.  The chamber fit's step (3e-16) and those on
# 2 h / 2 h cycles (at most 0.071) are below any of these caps.
MAX_STEP_DECADES = 0.5


def subset_selection(jac: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Singular values of ``jac``, largest first, and the columns it determines.

    The rank is the number of singular values above ``RANK_RTOL`` times the
    largest.  That many columns are chosen by greedy column pivoting, the
    Businger-Golub rule of a column-pivoted QR (Golub & Van Loan, subset
    selection): take the column of largest norm, remove its direction from
    the others, and repeat.
    """
    sv = np.linalg.svd(jac, compute_uv=False)
    rank = int(np.count_nonzero(sv > RANK_RTOL * sv[0]))
    rest = np.array(jac, dtype=float)
    columns = []
    for _ in range(rank):
        k = int(np.argmax(np.linalg.norm(rest, axis=0)))
        q = rest[:, k] / np.linalg.norm(rest[:, k])
        rest -= np.outer(q, q @ rest)
        columns.append(k)
    return sv, columns


@dataclass(frozen=True)
class CalibrationResult:
    """Fit outcome: best diffusivities, objective value, predictions in measurement order.

    ``output`` is the solver run at the best diffusivities, the one the
    predictions and the residual come from.  ``evaluations`` counts the
    points the fit scored: exact solutions under constant forcing, solver
    runs otherwise.  ``singular_values`` are those of the weighted
    residual's Jacobian in log10 diffusivities at the start point, largest
    first; ``fitted`` names the parameters the fit was free to move, the
    others keep their start values.
    """

    diffusivities: Diffusivities
    residual: float
    predicted_cm: tuple[float, ...]
    evaluations: int
    converged: bool
    output: SimulationOutput
    singular_values: tuple[float, ...]
    fitted: tuple[str, ...]


class _BudgetExhausted(Exception):
    pass


def calibrate(initial: Diffusivities, bounds: tuple[float, float],
              measurements, cfg: SimulationConfig, *,
              budget: int = 200) -> CalibrationResult:
    """Projected Gauss-Newton fit of the identifiable log10 diffusivities.

    A forward-difference Jacobian at ``initial`` (one evaluation per
    parameter beyond the base point) decides which parameters the data
    determine (``subset_selection``); only those are fitted within
    ``bounds``, the rest keep their ``initial`` values.  Each step is the least-squares
    solution on the forward-difference Jacobian at the current point,
    scaled down to at most ``MAX_STEP_DECADES`` in any parameter and clipped
    to the box; the step point is kept only if it lowers the
    residual, and a longer step that does not is halved.  The fit stops once
    it has scored a step shorter than ``STEP_TOL`` decades, or when
    ``budget`` evaluations, the Jacobian's included, are spent (best-so-far
    returned with ``converged=False``).  The result is the lowest-residual
    point that keeps the held parameters at their start values, with its
    solver run: the one scored, or one made at the end.
    """
    lo, hi = bounds
    if not (0.0 < lo < hi):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got {bounds}")
    if not measurements:
        raise ValueError("measurements must be non-empty")
    llo, lhi = math.log10(lo), math.log10(hi)
    init = [getattr(initial, name) for name in PARAMETERS]
    for value in init:
        if not (lo <= value <= hi):
            raise ValueError(f"initial diffusivity {value} outside bounds {bounds}")
    n = len(PARAMETERS)
    if budget < n + 1:
        raise ValueError(f"budget {budget} cannot cover the {n + 1} evaluations of the "
                         "starting Jacobian")
    x0 = np.log10(np.array(init))
    times = np.array([m.time_hours for m in measurements])

    score = _exact_residual if cfg.forcing.constant else residual
    vectors: dict[bytes, np.ndarray] = {}
    best, best_d = math.inf, initial
    # a point can be the result only where every held parameter keeps its start
    # value; all are held until the starting Jacobian has been measured
    held = np.ones(n, dtype=bool)

    def vector(x: np.ndarray) -> np.ndarray:
        """Weighted residual vector at log10 point ``x``, scored once per point."""
        nonlocal best, best_d
        key = x.tobytes()
        if key not in vectors:
            if len(vectors) == budget:
                raise _BudgetExhausted
            # a coordinate at its start value runs that value exactly
            d = Diffusivities(*(v if xk == sk else float(10.0 ** xk)
                                for v, xk, sk in zip(init, x, x0)))
            value = score(d, measurements, cfg)
            vectors[key] = value.deviations
            if value < best and np.array_equal(x[held], x0[held]):
                best, best_d = value, d
        return vectors[key]

    def jacobian(x: np.ndarray, columns) -> np.ndarray:
        """Forward differences of ``vector`` at ``x`` along ``columns``,
        stepping down where a step up would leave the box; a column whose
        evaluation fails is zero, so the fit does not move along it."""
        base = vector(x)
        jac = np.zeros((base.size, len(columns)))
        for j, k in enumerate(columns):
            h = JACOBIAN_STEP if x[k] + JACOBIAN_STEP <= lhi else -JACOBIAN_STEP
            xh = x.copy()
            xh[k] += h
            column = (vector(xh) - base) / h
            if np.all(np.isfinite(column)):
                jac[:, j] = column
        return jac

    if not np.all(np.isfinite(vector(x0))):
        raise SimulationError(f"calibration start {initial} has no finite residual")
    sv, free = subset_selection(jacobian(x0, range(n)))
    held[free] = False

    def embed(z: np.ndarray) -> np.ndarray:
        x = x0.copy()
        x[free] = z
        return x

    converged = True
    try:
        z = x0[free]
        while free:
            f = vector(embed(z))
            step = np.linalg.lstsq(jacobian(embed(z), free), -f, rcond=None)[0]
            longest = np.max(np.abs(step))
            if longest > MAX_STEP_DECADES:
                step *= MAX_STEP_DECADES / longest
            trial = np.clip(z + step, llo, lhi)
            while True:
                lower = np.sum(vector(embed(trial)) ** 2) < np.sum(f ** 2)
                short = np.linalg.norm(trial - z) < STEP_TOL
                if lower or short:
                    break
                trial = 0.5 * (z + trial)
            if lower:
                z = trial
            if short:
                break
    except _BudgetExhausted:
        converged = False
    if score is _exact_residual:
        best = residual(best_d, measurements, cfg)
        if best.output is None:
            raise SimulationError(f"calibration result {best_d} failed to run")
    return CalibrationResult(
        diffusivities=best_d,
        residual=float(best),
        predicted_cm=tuple(float(p) for p in best.output.thickness_at(times)),
        evaluations=len(vectors),
        converged=converged,
        output=best.output,
        singular_values=tuple(float(v) for v in sv),
        fitted=tuple(PARAMETERS[k] for k in sorted(free)),
    )
