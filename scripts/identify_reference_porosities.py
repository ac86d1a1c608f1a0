#!/usr/bin/env python3
"""Identify the layer porosities that go with the literature diffusivities.

The intrinsic literature diffusivities of configs/reference_diffusivities.ini
need the porosities of the two layers.  They are identified from the
paper's printed 40 h chamber state only, never from
data/thickness_measures.csv:

    a(40 h) = 3.1693e-4 cm   (printed copper consumption)
    b(40 h) = 5.2879e-4 cm   (cuprite consumption, reconstructed from the
                              printed mole counts; see tests/test_materials.py)

``patina.convergence.exact_porosities``, the closed-form inverse of the
exact sqrt(t) chamber solution, gives them in milliseconds; the model is
identified, not the solver, so a new grid or stepper needs no new
identification.  The script rounds them to the five significant digits
the config carries and confirms them with one solver run at the config's
own grid and step settings (well under a second), printing the 40 h state
it reaches, the totals at the measurement times, where the run keeps a
record, and the residual.

Run from the repository root:  PYTHONPATH=src python scripts/identify_reference_porosities.py
"""

import sys
from dataclasses import replace

from patina.calibration import load_measurements, weighted_residual
from patina.config import build_simulation_config, load_settings
from patina.convergence import exact_porosities
from patina.simulation import run

REFERENCE_CONFIG = "configs/reference_diffusivities.ini"
HOURS = 40.0
PRINTED_A_CM = 3.1693e-4
PRINTED_B_CM = 5.2879e-4


def main() -> int:
    cfg = replace(build_simulation_config(load_settings(REFERENCE_CONFIG)), horizon_hours=HOURS)
    exact = exact_porosities(cfg, PRINTED_A_CM, PRINTED_B_CM, HOURS)
    # the config carries five significant digits; check what it will carry
    n_b, n_p = (float(f"{n:.5g}") for n in exact)
    print(f"exact solution through the printed state: n_b = {exact[0]:.8g}, n_p = {exact[1]:.8g}")
    print(f"    n_b = {n_b:.5g}")
    print(f"    n_p = {n_p:.5g}")

    measurements = load_measurements("data/thickness_measures.csv")
    hours = [m.time_hours for m in measurements]
    out = run(replace(cfg, materials=replace(cfg.materials, n_b=n_b, n_p=n_p)),
              record_hours=hours)
    f = out.records[-1]
    pred = out.thickness_at(hours)
    print(f"40 h state at these values: a={f.a_cm:.6g} b={f.b_cm:.6g} "
          f"gamma={f.gamma_cm:.6g} cm ({out.steps} steps); relative to the printed "
          f"state a {f.a_cm / PRINTED_A_CM - 1.0:+.2e}, b {f.b_cm / PRINTED_B_CM - 1.0:+.2e}")
    for m, p in zip(measurements, pred):
        print(f"t={m.time_hours:g} h: predicted total {p:.5g} cm, "
              f"measured {m.mean_cm:.5g} +- {m.std_cm:.5g} cm")
    print(f"std-weighted residual against the measurements: "
          f"{weighted_residual(pred, measurements):.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
