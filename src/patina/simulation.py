"""Full simulation runs: seeding, the time loop, re-dimensionalized output.

A run non-dimensionalizes the boundary forcing each step, advances the
coupled field/front system with the IMEX midpoint stepper under an advective
CFL bound, and emits records of the front positions (cm), layer thicknesses
(cm) and diagnostic counters.  The final record carries the stoichiometry
report used by the validation gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import Forcing, forcing_at
from .materials import (
    MaterialTable,
    MoleReport,
    mole_balance,
    swelling_ratios,
)
from .pde_core import (
    Diffusivities,
    FrontState,
    LayerFields,
    Scales,
    stefan_constants,
)
from .stepper import NondimModel, StepCounters, imex_midpoint_step, refresh_state, select_dt

__all__ = [
    "SimulationConfig",
    "SimulationError",
    "OutputRecord",
    "SimulationOutput",
    "OUTPUT_CSV_HEADER",
    "initialize",
    "run",
    "write_output_csv",
]

SECONDS_PER_HOUR = 3600.0

OUTPUT_CSV_HEADER = "t_hours,a_cm,b_cm,beta_cm,gamma_cm,h_p_cm,h_b_cm,total_cm"


class SimulationError(RuntimeError):
    """Solver failure, annotated with the step index and simulated time."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a run needs; immutable so runs can share it concurrently."""

    scales: Scales
    diffusivities: Diffusivities
    materials: MaterialTable
    forcing: Forcing
    n_z: int = 100
    n_y: int = 100
    a0: float = 1e-2                  # copper consumption seed, non-dim
    b0: float = 8e-3                  # cuprite consumption seed, non-dim
    dt_max: float = 0.25
    cfl_target: float = 0.8
    horizon_hours: float = 40.0
    output_stride: int = 10
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not 0.0 < self.horizon_hours < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.n_z < 3 or self.n_y < 3:
            raise ValueError("grids need at least 3 intervals")
        if self.a0 <= 0.0 or self.b0 <= 0.0:
            raise ValueError("seeds must be positive")
        if not (0.0 < self.dt_max < math.inf and 0.0 < self.cfl_target < math.inf):
            raise ValueError("dt_max and cfl_target must be positive and finite")
        if self.output_stride < 1 or self.max_steps < 1:
            raise ValueError("output_stride and max_steps must be at least 1")


@dataclass(frozen=True)
class OutputRecord:
    """One output row; positions in cm, velocities non-dimensional."""

    t_hours: float
    a_cm: float
    b_cm: float
    beta_cm: float
    gamma_cm: float
    h_p_cm: float
    h_b_cm: float
    total_cm: float
    a_nd: float
    b_nd: float
    beta_nd: float
    gamma_nd: float
    a_dot: float
    b_dot: float
    beta_dot: float
    gamma_dot: float
    min_concentration: float
    velocity_clamps: int
    field_clamps: int


@dataclass
class SimulationOutput:
    """Ordered records plus end-of-run diagnostics."""

    records: list[OutputRecord]
    mole_report: MoleReport
    final_fronts_cm: FrontState
    steps: int
    velocity_clamps: int
    field_clamps: int

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


def initialize(cfg: SimulationConfig) -> tuple[LayerFields, FrontState, NondimModel]:
    """Seed fronts and fields.

    Seeds must give a positive initial brochantite layer: a0 > 0 and
    b0 > omega_p*a0 (and b0 < (1+omega_p)*a0 so some cuprite remains).  The
    SO2 profile starts linear between its boundary values, the outer oxygen
    uniform, and the inner oxygen linear from the interface value to zero.
    """
    model = _build_model(cfg)
    sw = model.sw
    try:
        fronts = FrontState.from_consumption(cfg.a0, cfg.b0, sw)
    except ValueError as exc:
        raise ValueError(f"seed violation of front ordering: {exc}") from exc
    if fronts.beta <= 0.0:
        raise ValueError(
            f"seed violation: b0 must exceed omega_p*a0 = {sw.omega_p * cfg.a0:.6g} "
            f"so that beta(0) > 0, got b0 = {cfg.b0}"
        )

    s_a, o_a = model.forcing_hat(0.0)
    z = np.linspace(0.0, 1.0, cfg.n_z + 1)
    y = np.linspace(0.0, 1.0, cfg.n_y + 1)
    fields = LayerFields(
        S=s_a * (1.0 - z),
        O=np.full(cfg.n_z + 1, o_a),
        G=o_a * (1.0 - y),
    )
    fronts, _ = refresh_state(fields, fronts, model, (s_a, o_a))
    return fields, fronts, model


def _record(cfg: SimulationConfig, tau: float, fronts: FrontState,
            fields: LayerFields, counters: StepCounters) -> OutputRecord:
    lam = cfg.scales.lam
    dim = fronts.scaled(lam)
    return OutputRecord(
        t_hours=tau * cfg.scales.t_r / SECONDS_PER_HOUR,
        a_cm=dim.a, b_cm=dim.b, beta_cm=dim.beta, gamma_cm=dim.gamma,
        h_p_cm=dim.a - dim.beta, h_b_cm=dim.beta - dim.gamma,
        total_cm=dim.a - dim.gamma,
        a_nd=fronts.a, b_nd=fronts.b, beta_nd=fronts.beta, gamma_nd=fronts.gamma,
        a_dot=fronts.a_dot, b_dot=fronts.b_dot,
        beta_dot=fronts.beta_dot, gamma_dot=fronts.gamma_dot,
        min_concentration=fields.min_value(),
        velocity_clamps=counters.velocity_clamps,
        field_clamps=counters.field_clamps,
    )


def run(cfg: SimulationConfig) -> SimulationOutput:
    """Integrate from the seeds to the horizon and collect output records."""
    fields, fronts, model = initialize(cfg)
    counters = StepCounters()
    tau_end = cfg.horizon_hours * SECONDS_PER_HOUR / cfg.scales.t_r
    records = [_record(cfg, 0.0, fronts, fields, counters)]

    tau = 0.0
    step_index = 0
    tau_stop = tau_end * (1.0 - 1e-12)
    while tau < tau_stop:
        dt = select_dt(fronts, model.dz, model.dy, cfg.cfl_target, cfg.dt_max,
                       model.sw.omega_p)
        dt = min(dt, tau_end - tau)
        try:
            fields, fronts = imex_midpoint_step(fields, fronts, tau, dt, model, counters)
        except Exception as exc:
            t_hours = tau * cfg.scales.t_r / SECONDS_PER_HOUR
            raise SimulationError(
                f"step {step_index} at t = {t_hours:.6g} h (dt = {dt:.3g}): {exc}"
            ) from exc
        tau += dt
        step_index += 1
        if step_index % cfg.output_stride == 0 and tau < tau_end:
            records.append(_record(cfg, tau, fronts, fields, counters))
        if step_index >= cfg.max_steps:
            t_hours = tau * cfg.scales.t_r / SECONDS_PER_HOUR
            raise SimulationError(
                f"step budget {cfg.max_steps} exhausted at t = {t_hours:.6g} h"
            )
    records.append(_record(cfg, tau, fronts, fields, counters))

    lam = cfg.scales.lam
    final_dim = fronts.scaled(lam)
    report = mole_balance(final_dim, cfg.materials)
    return SimulationOutput(
        records=records,
        mole_report=report,
        final_fronts_cm=final_dim,
        steps=step_index,
        velocity_clamps=counters.velocity_clamps,
        field_clamps=counters.field_clamps,
    )


def write_output_csv(output: SimulationOutput, path) -> None:
    """Write the fixed 8-column output CSV with 6-significant-digit formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(OUTPUT_CSV_HEADER + "\n")
        for r in output.records:
            row = (r.t_hours, r.a_cm, r.b_cm, r.beta_cm, r.gamma_cm,
                   r.h_p_cm, r.h_b_cm, r.total_cm)
            fh.write(",".join(f"{v:.6g}" for v in row) + "\n")
