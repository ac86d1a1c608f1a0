"""Full simulation runs: seeding, the time loop, output records.

Every run starts on the exact solution at ``convergence.SEED_HOURS`` of its
forcing at t = 0 (``convergence.exact_seed``), so a forcing without one is
an input error raised before any step.  A run advances the packed buffer
of :class:`patina.stepper.PackedLayout` and a :class:`FrontState` with
the extrapolated implicit Euler step of :mod:`patina.stepper` and emits
one record per output row: the front positions and layer thicknesses in
cm, exactly the columns of ``simulation.csv``.  A run is solved in the
units of those records, cm and hours, with concentrations in g/cm3.  The
run totals (steps attempted and rejected, clamps and landings) are kept
once, on the :class:`SimulationOutput`.

Step control.  This module alone decides how long a step is.  A step is
accepted when its error estimate, the largest relative difference of a, b
and the cuprite layer a - beta between its two results, is at most
``tolerance``; the next step is then dt*min(2, 0.9*(tol/err)^(1/2)).  A
rejected step, or one whose fronts overshoot or whose solve fails, is
retried at dt*max(0.2, 0.9*(tol/err)^(1/2)).  Every step, the first
included, is min(dt, ``dt_max``, the horizon left, ``MAX_STEP_FRACTION``
of the exposure), and the controller starts at that cap on the seed.  No
step crosses a breakpoint of the forcing (a cycle switch or a time-series
sample, :func:`patina.environment.breakpoints`) or a time the caller asks
a record at: a step that would reach one ends on it (a landing), with time
set to the breakpoint itself.  A step cut short by a landing or a cap
leaves the controller's dt as it was, so the controller depends on the
run's own history, never on the breakpoints ahead.  A row is kept every
``output_stride`` accepted steps that no landing cut short, so two runs
that agree up to a breakpoint print the same rows up to it.  A run whose
step control cuts dt below ``MIN_STEP_FRACTION`` of the exposure fails at
once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .convergence import SEED_HOURS, exact_front_errors, exact_seed
from .environment import Forcing, breakpoints, forcing_at
from .materials import MaterialTable, swelling_ratios
from .pde_core import Diffusivities, FrontState, stefan_constants
from .stepper import (
    Model,
    TridiagonalError,
    imex_midpoint_step,
    refresh_state,
)

__all__ = [
    "SimulationConfig",
    "SimulationError",
    "OutputRecord",
    "SimulationOutput",
    "OUTPUT_CSV_HEADER",
    "initialize",
    "run",
    "write_output_csv",
    "exact_temporal_errors",
    "default_dt_max",
]


# Step control of ``run`` (see the module docstring).  An accepted step lets
# the next grow by at most MAX_GROWTH, a rejected one is retried at no less
# than MIN_SHRINK of its length.
MAX_GROWTH = 2.0
MIN_SHRINK = 0.2
SAFETY = 0.9
# No step is longer than this fraction of the exposure (the run's time plus
# SEED_HOURS).  The fronts grow like sqrt(t), so such a step moves them by
# about 0.5 %.  Under constant forcing the error estimate lets a step grow
# to 3.6 % of the exposure at tolerance 1e-4: the chamber run then ends
# 1.25e-5 from exact, but is 3.6e-5 off at 8 h, and a cycles run keeps that
# error once its first dry phase stops the growth, so the 48 h cycles run's
# b ends 2.6e-5 from a refined run, over the 1e-5 of
# test_cycles_match_a_refined_run.  At 1 % it ends 8.8e-6 off, the chamber
# run 2.7e-6, for 446 more chamber steps and 414 more on the benchmark's
# seed-1 year.  A tolerance of 3e-5 without this cap reaches 8.4e-6 too, but
# takes 1732 more steps on that year (18 %).  Nor does the fields' part of
# the estimate do it, the largest interior difference of the two results'
# fields, put into the norm beside the fronts' terms: under constant forcing
# it stays at 1/195 of them (3.9e-7 against 7.6e-5), so without this cap
# the chamber run takes the same 291 steps and the 48 h cycles run's b still
# ends 2.6e-5 off; scaled up until it binds, it is a tighter front
# tolerance.  And at a dry switch it reads 1.0e-5 for every step from 0.25
# down to 1e-6, because the full substep holds O(1) and G(0) from the step
# start where the halves refresh them at the midpoint, so the refined run at
# tolerance 1e-6 collapses there.
MAX_STEP_FRACTION = 0.01
# The step cap, in hours, of a blank dt_max under chamber and cycles
# forcing.  It stays under the error-controlled step for a measured reason:
# without it the 480 h cycles run ends with a and b 1.7e-5 from the
# converged run (2.4e-6 and 3.3e-6 with it), and the 48 h cycles run's b
# 1.02e-5 from a refined one, over the 1e-5 of
# test_cycles_match_a_refined_run (8.8e-6 with it).  With neither this cap
# nor MAX_STEP_FRACTION, the literature set's a ends 1.46e-5 from exact,
# over criterion 4's 1e-5 (7.15e-6 with this cap alone); under the cap by
# exposure, lifting this one moves it from 2.68e-6 to 3.10e-6 only.
CHAMBER_DT_MAX = 0.25
# A run fails once a rejected step leaves dt below this fraction of the
# exposure.  The shipped jobs' smallest step is 3.7e-5 of it (the seed-1
# year, a landing) and their smallest rejected one 8.1e-4, so this lies over
# three decades below any step a healthy run takes; at MIN_SHRINK per
# rejection, a run that rejects every step fails within about a dozen
# attempts rather than spending its whole max_steps budget.
MIN_STEP_FRACTION = 1e-8

# exact_temporal_errors' fixed-step ladder: the step of its first rung in
# hours, the divisors k of that step, the grid and the horizon in hours
LADDER_DT = 0.05
LADDER_DIVISORS = (1, 2, 4, 8, 16)
LADDER_N = 25
LADDER_HOURS = 4.0


def default_dt_max(forcing: Forcing) -> float:
    """The step cap, in hours, that a blank ``[time] dt_max`` stands for.

    A time series of two or more samples steps at most from one sample to
    the next, so its cap is the longest interval between samples (1 h for
    hourly data); every other forcing takes CHAMBER_DT_MAX.
    """
    times = forcing.times
    if forcing.mode != "time-series" or len(times) < 2:
        return CHAMBER_DT_MAX
    return max(later - earlier for earlier, later in zip(times, times[1:]))


class SimulationError(RuntimeError):
    """Solver failure, annotated with the step index and simulated time."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a run needs; immutable so runs can share it concurrently.

    The diffusivities are in cm2/s, as configured, and ``dt_max`` is in
    hours.
    """

    diffusivities: Diffusivities
    materials: MaterialTable
    forcing: Forcing
    n_z: int
    n_y: int
    dt_max: float
    tolerance: float
    horizon_hours: float
    output_stride: int
    max_steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon_hours < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.n_z < 3 or self.n_y < 3:
            raise ValueError("grids need at least 3 intervals")
        if not (0.0 < self.dt_max < math.inf and 0.0 < self.tolerance < math.inf):
            raise ValueError("dt_max and tolerance must be positive and finite")
        if self.output_stride < 1 or self.max_steps < 1:
            raise ValueError("output_stride and max_steps must be at least 1")


class OutputRecord(NamedTuple):
    """One row of ``simulation.csv``: time in hours, positions and layer
    thicknesses in cm."""

    t_hours: float
    a_cm: float
    b_cm: float
    beta_cm: float
    gamma_cm: float
    h_p_cm: float
    h_b_cm: float
    total_cm: float


OUTPUT_CSV_HEADER = ",".join(OutputRecord._fields)


@dataclass
class SimulationOutput:
    """Ordered records plus the run totals (see the module docstring).

    ``steps`` counts every step attempted, ``rejected`` those of them the
    step control rejected.
    """

    records: list[OutputRecord]
    steps: int
    rejected: int
    velocity_clamps: int
    field_clamps: int
    landings: int

    def thickness_at(self, t_hours) -> np.ndarray:
        """Total patina thickness (cm) interpolated at the given hours."""
        times = np.array([r.t_hours for r in self.records])
        totals = np.array([r.total_cm for r in self.records])
        return np.interp(np.asarray(t_hours, dtype=float), times, totals)


def _build_model(cfg: SimulationConfig) -> Model:
    d = cfg.diffusivities.per_hour()
    return Model(d=d, sc=stefan_constants(cfg.materials, d), sw=swelling_ratios(cfg.materials),
                 n_z=cfg.n_z, n_y=cfg.n_y, forcing=cfg.forcing)


def initialize(cfg: SimulationConfig) -> tuple[np.ndarray, FrontState, Model]:
    """The packed buffer ``u`` and the fronts of ``convergence.exact_seed``, and the model."""
    model = _build_model(cfg)
    u, a0, b0 = exact_seed(cfg)
    fronts, _ = refresh_state(u, a0, b0, model, forcing_at(cfg.forcing, 0.0))
    return u, fronts, model


def _record(t: float, fronts: FrontState) -> OutputRecord:
    a, beta, gamma = fronts.a, fronts.beta, fronts.gamma
    return OutputRecord(t, a, fronts.b, beta, gamma, a - beta, beta - gamma, a - gamma)


def run(cfg: SimulationConfig, record_hours=()) -> SimulationOutput:
    """Integrate from the seed to the horizon and collect output records.

    Steps also land on each of ``record_hours`` inside the run, and a record
    is kept there, so the records hold the run's own values at those times.
    """
    u, fronts, model = initialize(cfg)
    field_clamps = velocity_clamps = landings = rejected = 0
    t_end = cfg.horizon_hours
    records = [_record(0.0, fronts)]

    # where the forcing breaks or a record is asked for, latest first, so the
    # next one is breaks[-1]; kept in the float64 array of breakpoints, 8
    # bytes a time, where a list or set would box each of a year's samples
    kept = {t for t in record_hours if 0.0 < t < t_end}
    breaks = breakpoints(cfg.forcing, t_end)
    for t in kept:
        i = bisect_left(breaks, t)
        if i == len(breaks) or breaks[i] != t:
            breaks.insert(i, t)
    breaks.reverse()
    tol = cfg.tolerance

    t = 0.0
    step_index = counted = 0
    t_stop = t_end * (1.0 - 1e-12)
    # the first step is the cap by exposure on the seed: an L-stable step
    # needs no stability bound, only a size on the run's own time scale
    dt = MAX_STEP_FRACTION * SEED_HOURS
    while t < t_stop:
        # the exposure, t + SEED_HOURS, caps the step
        step = min(dt, cfg.dt_max, t_end - t, MAX_STEP_FRACTION * (t + SEED_HOURS))
        remaining = breaks[-1] - t if breaks else math.inf
        lands, cut = remaining <= step, remaining < step
        if lands:
            step = remaining
        step_index += 1
        failure = None
        try:
            new, fronts_new, error, fields_clamped, fronts_clamped = imex_midpoint_step(
                u, fronts, t, step, model)
        except (ValueError, TridiagonalError) as exc:
            error, failure = math.inf, exc    # a front overshoot or a singular solve
        except Exception as exc:
            raise SimulationError(
                f"step {step_index} at t = {t:.6g} h (dt = {step:.3g} h): {exc}"
            ) from exc
        if error <= tol:
            u, fronts = new, fronts_new
            field_clamps += fields_clamped
            velocity_clamps += fronts_clamped
            landings += lands
            t = breaks.pop() if lands else t + step
            # the local error goes as step^2; a step cut short by a landing or
            # a cap leaves dt as it was
            grown = step * (min(MAX_GROWTH, SAFETY * math.sqrt(tol / error)) if error > 0.0
                            else MAX_GROWTH)
            dt = grown if step == dt else max(dt, grown)
            # a row every output_stride steps that no breakpoint cut short, so
            # runs that agree up to a breakpoint print the same rows up to it
            counted += not cut
            if (not cut and counted % cfg.output_stride == 0
                    or lands and t in kept) and t < t_end:
                records.append(_record(t, fronts))
        else:
            rejected += 1
            dt = step * max(MIN_SHRINK, SAFETY * math.sqrt(tol / error))
            if dt < MIN_STEP_FRACTION * (t + SEED_HOURS):
                raise SimulationError(
                    f"step collapse at t = {t:.6g} h: the step control "
                    f"cut dt to {dt:.3g} h") from failure
        if step_index >= cfg.max_steps:
            raise SimulationError(f"step budget {cfg.max_steps} exhausted at t = {t:.6g} h")
    records.append(_record(t, fronts))
    return SimulationOutput(records=records, steps=step_index, rejected=rejected,
                            velocity_clamps=velocity_clamps, field_clamps=field_clamps,
                            landings=landings)


def write_output_csv(output: SimulationOutput, path) -> None:
    """Write the fixed 8-column output CSV with 6-significant-digit formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(OUTPUT_CSV_HEADER + "\n")
        for row in output.records:
            fh.write(",".join(f"{v:.6g}" for v in row) + "\n")


def exact_temporal_errors(cfg: SimulationConfig) -> list[tuple[float, float]]:
    """(1/k, error) of chamber runs in fixed steps of about LADDER_DT/k.

    Each rung, one per k of LADDER_DIVISORS, runs on a LADDER_N x LADDER_N
    grid and steps ``imex_midpoint_step`` itself, without step control,
    from the seed to LADDER_HOURS in equal steps, the fewest of at most
    LADDER_DT/k hours that end on it.  The error is the largest of
    ``exact_front_errors`` at that horizon.
    """
    rung = replace(cfg, n_z=LADDER_N, n_y=LADDER_N, horizon_hours=LADDER_HOURS)
    seed, seed_fronts, model = initialize(rung)
    errors = []
    for k in LADDER_DIVISORS:
        count = math.ceil(k * LADDER_HOURS / LADDER_DT * (1.0 - 1e-12))
        h = LADDER_HOURS / count
        u, fronts = seed, seed_fronts
        for i in range(count):
            u, fronts, *_ = imex_midpoint_step(u, fronts, i * h, h, model)
        errors.append((1.0 / k, max(map(abs, exact_front_errors(
            rung, _record(LADDER_HOURS, fronts))))))
    return errors
