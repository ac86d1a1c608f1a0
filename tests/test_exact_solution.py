"""The exact sqrt(tau) chamber solution and the run's distance from it."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from patina import stepper
from patina.calibration import ThicknessMeasurement, warm_start
from patina.config import build_simulation_config, load_settings
from patina.convergence import (
    exact_diffusivities,
    exact_front_errors,
    exact_fronts,
    exact_porosities,
    similarity,
)
from patina.environment import Forcing, constant_chamber_forcing, cycle_forcing
from patina.materials import swelling_ratios
from patina.pde_core import Diffusivities
from patina.simulation import run

REFERENCE_CONFIG = "configs/reference_diffusivities.ini"
# the paper's printed 40 h chamber state, cm; b is reconstructed from the
# printed mole counts (tests/test_materials.py)
PRINTED_A_CM, PRINTED_B_CM = 3.1693e-4, 5.2879e-4


def test_default_set_constants(default_cfg):
    # a/sqrt(h) and b/sqrt(h) in cm (t_r is one hour)
    k_a, k_b = similarity(default_cfg)
    lam = default_cfg.scales.lam
    assert k_a * lam == pytest.approx(5.6314554e-5, rel=0, abs=5e-13)
    assert k_b * lam == pytest.approx(7.4655499e-5, rel=0, abs=5e-13)


def test_literature_set_at_40_hours():
    # the printed a and b, up to the five-digit rounding of the porosities
    cfg = build_simulation_config(load_settings(REFERENCE_CONFIG))
    sw = swelling_ratios(cfg.materials)
    k_a, k_b = similarity(cfg)
    a, b = (k * math.sqrt(40.0) * cfg.scales.lam for k in (k_a, k_b))
    assert a == pytest.approx(3.16927e-4, rel=0, abs=5e-10)
    assert b == pytest.approx(5.28784e-4, rel=0, abs=5e-10)
    assert -(sw.omega_p * a + sw.omega_b * b) == pytest.approx(-9.48986e-4, rel=0, abs=5e-10)
    assert (1.0 + sw.omega_p) * a - b == pytest.approx(2.84469e-6, rel=0, abs=5e-12)


def test_reference_porosities_are_the_inverse_of_the_printed_state():
    # the config carries five significant digits of the exact identification
    cfg = build_simulation_config(load_settings(REFERENCE_CONFIG))
    n_b, n_p = exact_porosities(cfg, PRINTED_A_CM, PRINTED_B_CM, 40.0)
    assert (cfg.materials.n_b, cfg.materials.n_p) == (float(f"{n_b:.5g}"), float(f"{n_p:.5g}"))


@pytest.mark.parametrize("path", [None, REFERENCE_CONFIG], ids=["default", "literature"])
def test_exact_porosities_invert_similarity(path):
    cfg = build_simulation_config(load_settings(path))
    a, b = (k * math.sqrt(40.0) * cfg.scales.lam for k in similarity(cfg))
    n_b, n_p = exact_porosities(cfg, a, b, 40.0)
    assert n_b == pytest.approx(cfg.materials.n_b, rel=1e-12)
    assert n_p == pytest.approx(cfg.materials.n_p, rel=1e-12)


def elsewhere(d: Diffusivities) -> Diffusivities:
    """A start for the inverse's fixed point away from ``d`` (d_o kept)."""
    return Diffusivities(d_g=10.0 * d.d_g, d_s=0.1 * d.d_s, d_o=d.d_o)


@pytest.mark.parametrize("path", [None, REFERENCE_CONFIG], ids=["default", "literature"])
def test_exact_diffusivities_invert_similarity(path):
    cfg = build_simulation_config(load_settings(path))
    d = exact_diffusivities(replace(cfg, diffusivities=elsewhere(cfg.diffusivities)),
                            *similarity(cfg))
    assert d.d_s == pytest.approx(cfg.diffusivities.d_s, rel=1e-12)
    assert d.d_g == pytest.approx(cfg.diffusivities.d_g, rel=1e-12)
    assert d.d_o == cfg.diffusivities.d_o


@pytest.mark.parametrize("forcing", [
    cycle_forcing(5e-7, 2.6e-4),
    Forcing("time-series", [0.0, 1.0], [5e-7, 5e-7], 2.6e-4),
    constant_chamber_forcing(0.0, 2.6e-4),
], ids=["cycles", "time-series", "zero-so2"])
def test_no_exact_solution_is_an_error(default_cfg, forcing):
    cfg = replace(default_cfg, forcing=forcing)
    with pytest.raises(ValueError, match="exact solution needs"):
        similarity(cfg)
    with pytest.raises(ValueError, match="exact solution needs"):
        exact_porosities(cfg, PRINTED_A_CM, PRINTED_B_CM, 40.0)
    with pytest.raises(ValueError, match="exact solution needs"):
        exact_diffusivities(cfg, 1.0, 1.0)


def test_calibration_box(default_cfg):
    # every corner and mid-point of the box (1e-10, 1e-3) around the
    # defaults has a solution with a cuprite layer, except where the
    # O reaction sink at beta outweighs a slow oxygen supply: lowest d_o
    # with d_s above its lowest, where the solver's cuprite layer vanishes too
    sw = swelling_ratios(default_cfg.materials)
    levels = [(1e-10, getattr(default_cfg.diffusivities, name), 1e-3)
              for name in ("d_g", "d_s", "d_o")]
    for d in itertools.product(*levels):
        cfg = replace(default_cfg, diffusivities=Diffusivities(*d))
        if d[2] == 1e-10 and d[1] > 1e-10:
            with pytest.raises(ValueError, match="oxygen is used up at beta"):
                similarity(cfg)
            continue
        k_a, k_b = similarity(cfg)
        assert math.isfinite(k_a) and k_b > 0.0
        assert (1.0 + sw.omega_p) * k_a - k_b > 0.0


def test_warm_start_inverts_the_exact_totals(default_cfg):
    # fed the exact totals and the exact oxide share, the warm start returns
    # the diffusivities, from a fixed-point start away from them
    sw = swelling_ratios(default_cfg.materials)
    k_a, k_b = similarity(default_cfg)
    oxide, outer = (1.0 + sw.omega_p) * k_a - k_b, (1.0 + sw.omega_b) * k_b
    hours = (8.0, 24.0, 40.0)
    measurements = [ThicknessMeasurement(t, total, 0.1 * total)
                    for t, total in zip(hours, exact_fronts(default_cfg, hours)[2])]
    start = replace(default_cfg, diffusivities=elsewhere(default_cfg.diffusivities))
    guess = warm_start(measurements, start, oxide_share=oxide / (oxide + outer))
    assert guess.d_s == pytest.approx(default_cfg.diffusivities.d_s, rel=1e-12)
    assert guess.d_g == pytest.approx(default_cfg.diffusivities.d_g, rel=1e-12)
    assert guess.d_o == default_cfg.diffusivities.d_o


def test_half_step_run_meets_the_exact_solution_and_advection_matters(default_cfg,
                                                                      monkeypatch):
    # the fronts' advection of the fields moves the 40 h state by about
    # 3e-5, far above the 2e-6 the half-step run reaches, so the exact
    # solution sees the stepper's advection switched off
    cfg = replace(default_cfg, cfl_target=default_cfg.cfl_target / 2)
    assert max(map(abs, exact_front_errors(cfg, run(cfg).records[-1]))) <= 2e-6
    monkeypatch.setattr(stepper, "split_rhs_interior", lambda u, rate: np.zeros(rate.size))
    assert max(map(abs, exact_front_errors(cfg, run(cfg).records[-1]))) > 2e-6
