"""Full simulation runs: seeding, the time loop, re-dimensionalized output.

Every run starts on the exact solution at ``convergence.SEED_HOURS`` of its
forcing at t = 0 (``convergence.exact_seed``), so a forcing without one is
an input error raised before any step.  A run non-dimensionalizes the
boundary forcing each step, advances the coupled field/front system with the
IMEX midpoint stepper under an advective CFL bound, and emits one record per
output row: the front positions and layer thicknesses in cm, exactly the
columns of ``simulation.csv``.  The run state is the packed buffer of
:class:`patina.stepper.PackedLayout` and a :class:`FrontState`; the run
totals (steps, the clamp counts each step returns, and the landings and
splits of the step control below) are kept once, on the
:class:`SimulationOutput`.

Step control.  Each step is the CFL bound capped by ``dt_max`` and by the
horizon.  No step crosses a breakpoint of the forcing (a cycle switch or a
time-series sample, :func:`patina.environment.breakpoints`): a step that
would reach one ends on it, and time is set to the breakpoint itself.  When
the next breakpoint lies between one and two steps ahead, the step covers
half the distance, so no sliver step is left before it: the midpoint stage
is not L-stable, and a sliver followed by a long step lets the stiff modes
ring.  The horizon gets no such split, as no step follows it.  Under
constant forcing there are no breakpoints.  A run counts the steps that
end on a breakpoint (landings) and the steps it halved (splits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .convergence import exact_front_errors, exact_seed
from .environment import Forcing, breakpoints, forcing_at
from .materials import MaterialTable, swelling_ratios
from .pde_core import (
    SECONDS_PER_HOUR,
    Diffusivities,
    FrontState,
    Scales,
    stefan_constants,
)
from .stepper import NondimModel, imex_midpoint_step, refresh_state, select_dt

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
]


class SimulationError(RuntimeError):
    """Solver failure, annotated with the step index and simulated time."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a run needs; immutable so runs can share it concurrently."""

    scales: Scales
    diffusivities: Diffusivities
    materials: MaterialTable
    forcing: Forcing
    n_z: int
    n_y: int
    dt_max: float
    cfl_target: float
    horizon_hours: float
    output_stride: int
    max_steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon_hours < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.n_z < 3 or self.n_y < 3:
            raise ValueError("grids need at least 3 intervals")
        if not (0.0 < self.dt_max < math.inf and 0.0 < self.cfl_target < math.inf):
            raise ValueError("dt_max and cfl_target must be positive and finite")
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
    """Ordered records plus the run totals (landings and splits: see the module docstring)."""

    records: list[OutputRecord]
    steps: int
    velocity_clamps: int
    field_clamps: int
    landings: int
    splits: int

    def thickness_at(self, t_hours) -> np.ndarray:
        """Total patina thickness (cm) interpolated at the given hours."""
        times = np.array([r.t_hours for r in self.records])
        totals = np.array([r.total_cm for r in self.records])
        return np.interp(np.asarray(t_hours, dtype=float), times, totals)


def _build_model(cfg: SimulationConfig) -> NondimModel:
    d_hat = cfg.diffusivities.hatted(cfg.scales)
    sc = stefan_constants(cfg.materials, d_hat, cfg.scales)
    sw = swelling_ratios(cfg.materials)
    scales = cfg.scales
    forcing = cfg.forcing
    hours_per_tau = scales.t_r / SECONDS_PER_HOUR

    def forcing_hat(tau: float) -> tuple[float, float]:
        s, o = forcing_at(forcing, tau * hours_per_tau)
        return s / scales.s_r, o / scales.o_r

    return NondimModel(d_hat=d_hat, sc=sc, sw=sw, n_z=cfg.n_z, n_y=cfg.n_y,
                       forcing_hat=forcing_hat)


def initialize(cfg: SimulationConfig) -> tuple[np.ndarray, FrontState, NondimModel]:
    """The packed buffer ``u`` and the fronts of ``convergence.exact_seed``, and the model."""
    model = _build_model(cfg)
    u, a0, b0 = exact_seed(cfg)
    fronts, _ = refresh_state(u, a0, b0, model, model.forcing_hat(0.0))
    return u, fronts, model


def _record(cfg: SimulationConfig, tau: float, fronts: FrontState) -> OutputRecord:
    # positions go to cm first, thicknesses are differences of the cm values
    lam = cfg.scales.lam
    a, b, beta, gamma = fronts.a * lam, fronts.b * lam, fronts.beta * lam, fronts.gamma * lam
    return OutputRecord(tau * cfg.scales.t_r / SECONDS_PER_HOUR, a, b, beta, gamma,
                        a - beta, beta - gamma, a - gamma)


def run(cfg: SimulationConfig) -> SimulationOutput:
    """Integrate from the seed to the horizon and collect output records."""
    u, fronts, model = initialize(cfg)
    field_clamps = velocity_clamps = landings = splits = 0
    tau_end = cfg.horizon_hours * SECONDS_PER_HOUR / cfg.scales.t_r
    records = [_record(cfg, 0.0, fronts)]

    # where the forcing breaks, latest first, so the next one is breaks[-1]
    breaks = [t * SECONDS_PER_HOUR / cfg.scales.t_r
              for t in reversed(breakpoints(cfg.forcing, cfg.horizon_hours))]

    tau = 0.0
    step_index = 0
    tau_stop = tau_end * (1.0 - 1e-12)
    while tau < tau_stop:
        dt = select_dt(fronts, model.dz, model.dy, cfg.cfl_target, cfg.dt_max,
                       model.sw.omega_p)
        dt = min(dt, tau_end - tau)
        lands = False
        if breaks:
            remaining = breaks[-1] - tau
            lands = remaining <= dt
            if lands:
                dt = remaining
                landings += 1
            elif remaining < 2.0 * dt:
                dt = 0.5 * remaining     # no sliver step before the break
                splits += 1
        try:
            u, fronts, fields_clamped, fronts_clamped = imex_midpoint_step(
                u, fronts, tau, dt, model)
        except Exception as exc:
            t_hours = tau * cfg.scales.t_r / SECONDS_PER_HOUR
            raise SimulationError(
                f"step {step_index} at t = {t_hours:.6g} h (dt = {dt:.3g}): {exc}"
            ) from exc
        field_clamps += fields_clamped
        velocity_clamps += fronts_clamped
        tau = breaks.pop() if lands else tau + dt
        step_index += 1
        if step_index % cfg.output_stride == 0 and tau < tau_end:
            records.append(_record(cfg, tau, fronts))
        if step_index >= cfg.max_steps:
            t_hours = tau * cfg.scales.t_r / SECONDS_PER_HOUR
            raise SimulationError(
                f"step budget {cfg.max_steps} exhausted at t = {t_hours:.6g} h"
            )
    records.append(_record(cfg, tau, fronts))
    return SimulationOutput(records=records, steps=step_index,
                            velocity_clamps=velocity_clamps, field_clamps=field_clamps,
                            landings=landings, splits=splits)


def write_output_csv(output: SimulationOutput, path) -> None:
    """Write the fixed 8-column output CSV with 6-significant-digit formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(OUTPUT_CSV_HEADER + "\n")
        for row in output.records:
            fh.write(",".join(f"{v:.6g}" for v in row) + "\n")


def exact_temporal_errors(cfg: SimulationConfig, divisors=(1, 2, 4, 8, 16),
                          n: int = 25, horizon_hours: float = 4.0
                          ) -> list[tuple[float, float]]:
    """(1/k, error) of chamber runs on an n x n grid with cfl_target and dt_max over k.

    The error is the largest of ``exact_front_errors`` at the horizon.
    """
    rungs = [replace(cfg, n_z=n, n_y=n, horizon_hours=horizon_hours,
                     cfl_target=cfg.cfl_target / k, dt_max=cfg.dt_max / k,
                     max_steps=k * cfg.max_steps) for k in divisors]
    return [(1.0 / k, max(map(abs, exact_front_errors(rung, run(rung).records[-1]))))
            for k, rung in zip(divisors, rungs)]
