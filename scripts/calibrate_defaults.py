#!/usr/bin/env python3
"""Regenerate the shipped default diffusivities.

Runs the exact calibration that produced DEFAULT_DIFFUSIVITIES in
patina/config.py: reduced-model warm start, bounds [1e-10, 1e-3],
budget 200, std-weighted objective, against
data/thickness_measures.csv.  Prints the values to paste into config.py
and writes the full result under out/calibrate_defaults/.
"""

import sys

from patina.calibration import calibrate, load_measurements, reduced_model_initial_guess
from patina.cli import run_main
from patina.config import DEFAULT_DIFFUSIVITIES, build_simulation_config, load_settings


def main() -> int:
    cfg = build_simulation_config(load_settings())
    measurements = load_measurements("data/thickness_measures.csv")
    guess = reduced_model_initial_guess(measurements, cfg)
    print(f"warm start: d_g={guess.d_g:.6g} d_s={guess.d_s:.6g} "
          f"d_o={guess.d_o:.6g}")
    result = calibrate(guess, (1e-10, 1e-3), measurements, cfg, budget=200)
    d = result.diffusivities
    print(f"calibrated (residual {result.residual:.4g}, "
          f"{result.evaluations} evaluations):")
    for name in ("d_g", "d_s", "d_o"):
        shipped = DEFAULT_DIFFUSIVITIES[name]
        value = getattr(d, name)
        marker = "" if abs(value / shipped - 1.0) < 1e-3 else "   <- differs from shipped"
        print(f'    "{name}": {value:.6g},{marker}')
    # also emit the usual calibration artifacts
    return run_main(["calibrate", "--measurements", "data/thickness_measures.csv",
                     "--out", "out/calibrate_defaults"])


if __name__ == "__main__":
    sys.exit(main())
