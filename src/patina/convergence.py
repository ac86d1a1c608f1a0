"""Verification battery: measured orders of the scheme on manufactured problems.

Three checks, all cheap:

* temporal order on the scalar split problem u' = lam*u with H = G = lam*u/2
  (exact solution known; the midpoint pair should show order 2);
* decay of a diffusion eigenmode against exp(-pi^2 D tau) with frozen fronts;
* spatial self-convergence of a smooth advection bump under grid refinement
  (order ~1 with upwinding, ~2 with central differences).

The full-run refinement check (grid doubled, dt halved) lives here too since
the acceptance gate uses it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .pde_core import Diffusivities, FrontState, LayerFields
from .stepper import MIDPOINT_122, ImexTableau, NondimModel, StepCounters, imex_midpoint_step
from .simulation import SimulationConfig, run
from .materials import SwellingRatios
from .pde_core import StefanConstants

__all__ = [
    "scalar_imex_step",
    "scalar_imex_errors",
    "observed_orders",
    "diffusion_mode_relative_error",
    "advection_spatial_errors",
    "refinement_delta",
]


def scalar_imex_step(u: float, dt: float, h_coef: float, g_coef: float,
                     tableau: ImexTableau = MIDPOINT_122) -> float:
    """One DIRK-IMEX step on u' = h_coef*u + g_coef*u (H explicit, G implicit)."""
    nu = tableau.stages
    h_vals = [0.0] * nu
    g_vals = [0.0] * nu
    for i in range(nu):
        acc = u
        for k in range(i):
            acc += dt * (tableau.a_explicit[i][k] * h_vals[k]
                         + tableau.a_implicit[i][k] * g_vals[k])
        denom = 1.0 - dt * tableau.a_implicit[i][i] * g_coef
        if denom == 0.0:
            raise ZeroDivisionError("singular implicit stage")
        u_i = acc / denom
        h_vals[i] = h_coef * u_i
        g_vals[i] = g_coef * u_i
    return u + dt * sum(tableau.w_explicit[i] * h_vals[i]
                        + tableau.w_implicit[i] * g_vals[i] for i in range(nu))


def scalar_imex_errors(dts=(0.1, 0.05, 0.025), lam: float = -1.0,
                       t_end: float = 1.0, u0: float = 1.0) -> list[tuple[float, float]]:
    """Global error vs the exact exponential for each step size."""
    out = []
    for dt in dts:
        n = round(t_end / dt)
        u = u0
        for _ in range(n):
            u = scalar_imex_step(u, dt, lam / 2.0, lam / 2.0)
        out.append((dt, abs(u - u0 * math.exp(lam * n * dt))))
    return out


def observed_orders(errors: list[tuple[float, float]]) -> list[float]:
    """Richardson order estimates from consecutive (h, error) pairs."""
    orders = []
    for (h1, e1), (h2, e2) in zip(errors, errors[1:]):
        if e1 <= 0.0 or e2 <= 0.0:
            orders.append(math.inf)
        else:
            orders.append(math.log(e1 / e2) / math.log(h1 / h2))
    return orders


def _frozen_model(n_z: int, n_y: int, d: Diffusivities,
                  scheme: str = "upwind") -> NondimModel:
    """Model with inert interfaces (zero Stefan constants, zero forcing)."""
    return NondimModel(
        d_hat=d,
        sc=StefanConstants(0.0, 0.0, 0.0),
        sw=SwellingRatios(0.0, 0.0),
        n_z=n_z,
        n_y=n_y,
        forcing_hat=lambda tau: (0.0, 0.0),
        scheme=scheme,
    )


def _unit_width_fronts(gamma_dot: float = 0.0, beta_dot: float = 0.0) -> FrontState:
    # synthetic geometry for operator tests: both layers of unit width
    return FrontState(a=2.0, b=1.0, beta=1.0, gamma=0.0,
                      a_dot=0.0, b_dot=0.0, beta_dot=beta_dot, gamma_dot=gamma_dot)


def diffusion_mode_relative_error(n: int = 100, dt: float = 1e-4,
                                  tau_end: float = 0.05,
                                  d_hat: float = 1.0) -> float:
    """Relative amplitude error of sin(pi z) decay under pure diffusion."""
    z = np.linspace(0.0, 1.0, n + 1)
    fields = LayerFields(S=np.sin(np.pi * z), O=np.zeros(n + 1), G=np.zeros(n + 1))
    tiny = 1e-30  # effectively switch diffusion off for the bystander species
    model = _frozen_model(n, n, Diffusivities(tiny, d_hat, tiny))
    fronts = _unit_width_fronts()
    counters = StepCounters()
    steps = round(tau_end / dt)
    tau = 0.0
    for _ in range(steps):
        fields, fronts = imex_midpoint_step(fields, fronts, tau, dt, model,
                                            counters, freeze_fronts=True)
        tau += dt
    exact = math.exp(-math.pi**2 * d_hat * tau)
    mid = fields.S[n // 2] / math.sin(math.pi * 0.5)
    return abs(mid - exact) / exact


def _advect_bump(n: int, scheme: str, tau_end: float = 0.4,
                 cfl: float = 0.4) -> np.ndarray:
    """Advect a Gaussian bump with speed c(z) = -z on a frozen unit layer."""
    z = np.linspace(0.0, 1.0, n + 1)
    bump = np.exp(-(((z - 0.6) / 0.1) ** 2))
    tiny = 1e-30
    fields = LayerFields(S=bump, O=np.zeros(n + 1), G=np.zeros(n + 1))
    model = _frozen_model(n, n, Diffusivities(tiny, tiny, tiny), scheme)
    # gamma_dot - beta_dot = -1 over unit width gives c(z) = -z
    fronts = _unit_width_fronts(gamma_dot=-1.0, beta_dot=0.0)
    counters = StepCounters()
    dt = cfl / n  # max |c| = 1
    steps = round(tau_end / dt)
    tau = 0.0
    for _ in range(steps):
        fields, fronts = imex_midpoint_step(fields, fronts, tau, dt, model,
                                            counters, freeze_fronts=True)
        tau += dt
    return fields.S


def advection_spatial_errors(scheme: str = "upwind",
                             grids=(50, 100, 200),
                             reference: int = 400) -> list[tuple[float, float]]:
    """Max-norm self-convergence errors against the finest grid."""
    ref = _advect_bump(reference, scheme)
    out = []
    for n in grids:
        if reference % n:
            raise ValueError("reference grid must be a multiple of each test grid")
        u = _advect_bump(n, scheme)
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
