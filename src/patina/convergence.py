"""Verification battery: measured orders of the shipped stepper.

Every check drives ``imex_midpoint_step`` itself:

* temporal order with frozen fronts: Gaussian bumps of S, O and G advected
  and diffused on unit layers, each step size against a run at 1/64 of
  the smallest one;
* temporal order with moving fronts: the chamber run on a coarse grid with
  both step caps (cfl_target, dt_max) divided by 1, 2, 4, 8 and 16, the
  error at each divisor being the change of the fronts at the next one;
* decay of a diffusion eigenmode against exp(-pi^2 D tau) with frozen fronts;
* spatial self-convergence of a smooth advection bump under grid refinement
  (order about 1 with upwinding).

The full-run refinement check (grid doubled, dt halved) lives here too since
the acceptance gate uses it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .materials import SwellingRatios
from .pde_core import Diffusivities, FrontState, LayerFields, StefanConstants
from .simulation import SimulationConfig, run
from .stepper import NondimModel, imex_midpoint_step

__all__ = [
    "observed_orders",
    "frozen_bump_problem",
    "frozen_front_temporal_errors",
    "moving_front_temporal_errors",
    "diffusion_mode_relative_error",
    "advection_spatial_errors",
    "refinement_delta",
]


def observed_orders(errors: list[tuple[float, float]]) -> list[float]:
    """Richardson order estimates from consecutive (h, error) pairs.

    A zero, negative or NaN error has no order: a step that changed
    nothing would otherwise read as infinitely accurate and pass every
    order gate.  Such a pair raises ValueError naming it.
    """
    for h, e in errors:
        if not e > 0.0:
            raise ValueError(f"error {e!r} at h = {h!r} is not positive; no order can be measured")
    return [math.log(e1 / e2) / math.log(h1 / h2)
            for (h1, e1), (h2, e2) in zip(errors, errors[1:])]


def _frozen_model(n: int, d: Diffusivities) -> NondimModel:
    """Model on n x n grids with inert interfaces (zero Stefan constants, zero forcing)."""
    return NondimModel(d_hat=d, sc=StefanConstants(0.0, 0.0, 0.0), sw=SwellingRatios(0.0, 0.0),
                       n_z=n, n_y=n, forcing_hat=lambda tau: (0.0, 0.0))


def _unit_width_fronts(gamma_dot: float = 0.0, beta_dot: float = 0.0) -> FrontState:
    # synthetic geometry for operator tests: both layers of unit width
    return FrontState(a=2.0, b=1.0, beta=1.0, gamma=0.0,
                      a_dot=0.0, b_dot=0.0, beta_dot=beta_dot, gamma_dot=gamma_dot)


def _march(fields: LayerFields, fronts: FrontState, model: NondimModel,
           dt: float, steps: int) -> tuple[LayerFields, float]:
    """``steps`` frozen-front steps of size dt from tau = 0; returns the fields and tau."""
    tau = 0.0
    for _ in range(steps):
        fields, fronts = imex_midpoint_step(fields, fronts, tau, dt, model,
                                            freeze_fronts=True)
        tau += dt
    return fields, tau


def frozen_bump_problem() -> tuple[LayerFields, FrontState, NondimModel]:
    """Gaussian bumps of S, O and G on frozen unit layers (n = 50, d_hat = 1e-2).

    S and O ride the outer flow c(z) = -z (gamma_dot = -1); G only diffuses.
    """
    x = np.linspace(0.0, 1.0, 51)
    bump = np.exp(-(((x - 0.5) / 0.1) ** 2))
    return (LayerFields(S=bump, O=bump, G=bump), _unit_width_fronts(gamma_dot=-1.0),
            _frozen_model(50, Diffusivities(1e-2, 1e-2, 1e-2)))


def frozen_front_temporal_errors(dts=(0.02, 0.01, 0.005), tau_end: float = 0.2,
                                 refine: int = 64) -> list[tuple[float, float]]:
    """Max-norm errors of the bump problem at tau_end against a run at dts[-1]/refine."""
    def final(dt):
        fields, fronts, model = frozen_bump_problem()
        return _march(fields, fronts, model, dt, round(tau_end / dt))[0].u

    ref = final(dts[-1] / refine)
    return [(dt, float(np.max(np.abs(final(dt) - ref)))) for dt in dts]


def moving_front_temporal_errors(cfg: SimulationConfig, divisors=(1, 2, 4, 8, 16),
                                 n: int = 25, horizon_hours: float = 4.0
                                 ) -> list[tuple[float, float]]:
    """(1/k, error) pairs of the coupled run on an n x n grid, fronts moving.

    cfl_target and dt_max are divided by each divisor k; the error at k is
    the largest relative change of a, b and gamma at the horizon from k to
    the next divisor.
    """
    finals = []
    for k in divisors:
        last = run(replace(cfg, n_z=n, n_y=n, horizon_hours=horizon_hours,
                           cfl_target=cfg.cfl_target / k, dt_max=cfg.dt_max / k,
                           max_steps=k * cfg.max_steps)).records[-1]
        finals.append(np.array((last.a_nd, last.b_nd, last.gamma_nd)))
    return [(1.0 / k, float(np.max(np.abs(coarse - fine) / np.abs(fine))))
            for k, coarse, fine in zip(divisors, finals, finals[1:])]


def diffusion_mode_relative_error(n: int = 100, dt: float = 1e-4,
                                  tau_end: float = 0.05,
                                  d_hat: float = 1.0) -> float:
    """Relative amplitude error of sin(pi z) decay under pure diffusion."""
    z = np.linspace(0.0, 1.0, n + 1)
    fields = LayerFields(S=np.sin(np.pi * z), O=np.zeros(n + 1), G=np.zeros(n + 1))
    tiny = 1e-30  # effectively switch diffusion off for the bystander species
    model = _frozen_model(n, Diffusivities(tiny, d_hat, tiny))
    fields, tau = _march(fields, _unit_width_fronts(), model, dt, round(tau_end / dt))
    exact = math.exp(-math.pi**2 * d_hat * tau)
    mid = fields.S[n // 2] / math.sin(math.pi * 0.5)
    return abs(mid - exact) / exact


def _advect_bump(n: int, tau_end: float = 0.4, cfl: float = 0.4) -> np.ndarray:
    """Advect a Gaussian bump with speed c(z) = -z on a frozen unit layer."""
    z = np.linspace(0.0, 1.0, n + 1)
    bump = np.exp(-(((z - 0.6) / 0.1) ** 2))
    tiny = 1e-30
    fields = LayerFields(S=bump, O=np.zeros(n + 1), G=np.zeros(n + 1))
    model = _frozen_model(n, Diffusivities(tiny, tiny, tiny))
    # gamma_dot - beta_dot = -1 over unit width gives c(z) = -z
    fronts = _unit_width_fronts(gamma_dot=-1.0, beta_dot=0.0)
    dt = cfl / n  # max |c| = 1
    return _march(fields, fronts, model, dt, round(tau_end / dt))[0].S


def advection_spatial_errors(grids=(50, 100, 200),
                             reference: int = 400) -> list[tuple[float, float]]:
    """Max-norm self-convergence errors against the finest grid."""
    ref = _advect_bump(reference)
    out = []
    for n in grids:
        if reference % n:
            raise ValueError("reference grid must be a multiple of each test grid")
        u = _advect_bump(n)
        stride = reference // n
        out.append((1.0 / n, float(np.max(np.abs(u - ref[::stride])))))
    return out


def refinement_delta(cfg: SimulationConfig) -> float:
    """Relative change of the final total thickness after one refinement.

    The refined run doubles both grids and halves the step caps.
    """
    coarse = run(cfg)
    fine = run(replace(cfg, n_z=2 * cfg.n_z, n_y=2 * cfg.n_y,
                       dt_max=cfg.dt_max / 2.0, cfl_target=cfg.cfl_target / 2.0,
                       max_steps=4 * cfg.max_steps))
    t_c = coarse.records[-1].total_cm
    t_f = fine.records[-1].total_cm
    return abs(t_f - t_c) / t_f
