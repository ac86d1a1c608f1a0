#!/usr/bin/env python3
"""Identify the layer porosities that go with the literature diffusivities.

The literature diffusivities in configs/reference_diffusivities.ini are
intrinsic values, so they need the porosities of the two layers; the unit
porosities of the default material table belong to the calibrated
diffusivities, which absorb the pore structure.  The two porosities are
identified from the paper's printed 40 h chamber state only, never from
data/thickness_measures.csv:

    a(40 h) = 3.1693e-4 cm   (printed copper consumption)
    b(40 h) = 5.2879e-4 cm   (cuprite consumption, reconstructed from the
                              printed mole counts; see tests/test_materials.py)

n_b sets the cuprite-consumption Stefan group and n_p the copper-consumption
one, so the two targets fix the two porosities.  A closed-form quasi-steady
estimate (both layers growing like sqrt(t)) gives the starting point, then
a least-squares solve over log porosities runs the full solver at the
configuration's own grid and step settings.  Each run takes about 45 s
(the printed state has a cuprite layer only 2.8e-6 cm thick, which keeps
the advective steps small), so the whole identification takes 10-15 minutes.

Prints the values to write into [materials] of
configs/reference_diffusivities.ini, the 40 h state they reproduce and the
totals at the measurement times.

Run from the repository root:  PYTHONPATH=src python scripts/identify_reference_porosities.py
"""

import math
import sys
from dataclasses import replace

import numpy as np
from scipy import optimize

from patina.calibration import load_measurements, weighted_residual
from patina.config import build_simulation_config, load_settings
from patina.environment import forcing_at
from patina.materials import DEFAULT_MATERIALS, swelling_ratios
from patina.pde_core import stefan_constants
from patina.simulation import SECONDS_PER_HOUR, run

REFERENCE_CONFIG = "configs/reference_diffusivities.ini"
HOURS = 40.0
PRINTED_A_CM = 3.1693e-4
PRINTED_B_CM = 5.2879e-4


def quasi_steady_porosities(cfg):
    """Porosities whose quasi-steady sqrt(t) growth passes through the targets.

    With b = k_b*sqrt(tau) and cuprite thickness c_p*sqrt(tau), the Stefan
    groups are Omega_s = k_b^2*(1+omega_b)/(2*S_a) and
    Omega_g = (c_p^2 + k_b*c_p)/(2*(1+omega_p)*O_a); both are linear in
    their porosity, so dividing by the groups at unit porosity gives n_b, n_p.
    """
    scales = cfg.scales
    sw = swelling_ratios(cfg.materials)
    root_tau = math.sqrt(HOURS * SECONDS_PER_HOUR / scales.t_r)
    a = PRINTED_A_CM / scales.lam
    b = PRINTED_B_CM / scales.lam
    k_b = b / root_tau
    c_p = ((1.0 + sw.omega_p) * a - b) / root_tau
    s, o = forcing_at(cfg.forcing, 0.0)
    omega_s = k_b**2 * (1.0 + sw.omega_b) / (2.0 * s / scales.s_r)
    omega_g = (c_p**2 + k_b * c_p) / (2.0 * (1.0 + sw.omega_p) * o / scales.o_r)
    unit = stefan_constants(replace(cfg.materials, n_b=1.0, n_p=1.0),
                            cfg.diffusivities.hatted(scales), scales)
    return omega_s / unit.omega_s, omega_g / unit.omega_g


def main() -> int:
    cfg = build_simulation_config(load_settings(REFERENCE_CONFIG))
    # start from the default table: the identification must not read the
    # porosities it is meant to produce
    cfg = replace(cfg, materials=DEFAULT_MATERIALS, horizon_hours=HOURS)

    def with_porosities(log_n):
        n_b, n_p = np.exp(log_n)
        return replace(cfg, materials=replace(cfg.materials, n_b=n_b, n_p=n_p))

    def misfit(log_n):
        final = run(with_porosities(log_n)).records[-1]
        rel = np.array([final.a_cm / PRINTED_A_CM - 1.0, final.b_cm / PRINTED_B_CM - 1.0])
        print(f"  n_b={math.exp(log_n[0]):.8g} n_p={math.exp(log_n[1]):.8g} "
              f"relative misfit a={rel[0]:+.3e} b={rel[1]:+.3e}", flush=True)
        return rel

    start = quasi_steady_porosities(cfg)
    print(f"quasi-steady start: n_b={start[0]:.6g} n_p={start[1]:.6g}")
    fit = optimize.least_squares(misfit, np.log(start), bounds=(-np.inf, 0.0),
                                 diff_step=1e-5, xtol=1e-10, ftol=1e-12,
                                 gtol=1e-12, max_nfev=30)
    # the config carries five significant digits; check what it will carry
    n_b, n_p = (float(f"{n:.5g}") for n in np.exp(fit.x))
    print(f"identified (least_squares status {fit.status}, {fit.njev} Jacobians):")
    print(f"    n_b = {n_b:.5g}")
    print(f"    n_p = {n_p:.5g}")

    out = run(with_porosities(np.log([n_b, n_p])))
    f = out.records[-1]
    measurements = load_measurements("data/thickness_measures.csv")
    pred = out.thickness_at([m.time_hours for m in measurements])
    print(f"40 h state at these values: a={f.a_cm:.6g} b={f.b_cm:.6g} "
          f"gamma={f.gamma_cm:.6g} cm ({out.steps} steps)")
    for m, p in zip(measurements, pred):
        print(f"t={m.time_hours:g} h: predicted total {p:.5g} cm, "
              f"measured {m.mean_cm:.5g} +- {m.std_cm:.5g} cm")
    print(f"std-weighted residual against the measurements: "
          f"{weighted_residual(pred, measurements):.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
