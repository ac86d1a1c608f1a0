"""The exact sqrt(tau) chamber solution and the run's distance from it."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from patina import convergence, stepper
from patina.calibration import ThicknessMeasurement, warm_start
from patina.config import build_simulation_config, load_settings
from patina.convergence import (
    SEED_HOURS,
    exact_diffusivities,
    exact_front_errors,
    exact_fronts,
    exact_porosities,
    exact_seed,
    similarity,
)
from patina.environment import Forcing, constant_chamber_forcing, cycle_forcing
from patina.materials import swelling_ratios
from patina.pde_core import SECONDS_PER_HOUR, Diffusivities, stefan_constants
from patina.simulation import run

REFERENCE_CONFIG = "configs/reference_diffusivities.ini"
# the paper's printed 40 h chamber state, cm; b is reconstructed from the
# printed mole counts (tests/test_materials.py)
PRINTED_A_CM, PRINTED_B_CM = 3.1693e-4, 5.2879e-4

# The reference of the closed forms: a 32-point Gauss-Legendre rule, which
# the exact solution used before them (the exponents are small, so the rule
# is exact to rounding on every config below).
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gl_integral(p, q, y0):
    """Integral of exp(-(p*y^2 + q*y)) over [y0, 1] by the Gauss-Legendre rule."""
    y = y0 + 0.5 * (1.0 - y0) * (GL_NODES + 1.0)
    return 0.5 * (1.0 - y0) * float(GL_WEIGHTS @ np.exp(-(p * y * y + q * y)))


def gl_flux(p, q=0.0):
    return math.exp(-(p + q)) / gl_integral(p, q, 0.0)


def gl_falling(p, q, y):
    return gl_integral(p, q, y) / gl_integral(p, q, 0.0)


def box_corner(d_g, d_s):
    """The default config at a corner of the calibration box in (d_g, d_s)."""
    cfg = build_simulation_config(load_settings())
    return replace(cfg, diffusivities=replace(cfg.diffusivities, d_g=d_g, d_s=d_s))


CLOSED_FORM_CASES = {
    "default": lambda: build_simulation_config(load_settings()),
    "literature": lambda: build_simulation_config(load_settings(REFERENCE_CONFIG)),
    **{f"corner-{d_g:g}-{d_s:g}": (lambda d_g=d_g, d_s=d_s: box_corner(d_g, d_s))
       for d_g in (1e-10, 1e-3) for d_s in (1e-10, 1e-3)},
}


@pytest.mark.parametrize("case", list(CLOSED_FORM_CASES))
def test_closed_forms_match_gauss_legendre(case, monkeypatch):
    # measured: within 5.6e-16 on every case
    cfg = CLOSED_FORM_CASES[case]()
    closed = similarity(cfg)
    monkeypatch.setattr(convergence, "_flux", gl_flux)
    quadrature = similarity(cfg)
    assert max(abs(c / g - 1.0) for c, g in zip(closed, quadrature)) <= 1e-14


@pytest.mark.parametrize("path", [None, REFERENCE_CONFIG], ids=["default", "literature"])
def test_seed_is_the_exact_solution_at_seed_hours(path):
    # the fronts K*sqrt(tau0), and on every node the profiles of the exact
    # solution, rebuilt here by quadrature with O(beta) from the O Robin
    # condition (measured: within 2.6e-14 of the boundary value of a species,
    # on G of the literature set; a linear S is 9e-9 off, G from O_a 4e-4)
    cfg = replace(build_simulation_config(load_settings(path)), n_z=20, n_y=15)
    u, a0, b0 = exact_seed(cfg)
    k_a, k_b = similarity(cfg)
    root = math.sqrt(SEED_HOURS * SECONDS_PER_HOUR / cfg.scales.t_r)
    assert (a0, b0) == (k_a * root, k_b * root)
    sw = swelling_ratios(cfg.materials)
    d = cfg.diffusivities.hatted(cfg.scales)
    s_a, o_a = cfg.forcing.so2[0] / cfg.scales.s_r, cfg.forcing.oxygen / cfg.scales.o_r
    gamma_o = stefan_constants(cfg.materials, d, cfg.scales).gamma_o
    w, v = (1.0 + sw.omega_b) * k_b, (1.0 + sw.omega_p) * k_a - k_b
    m = 2.0 * d.d_o * gl_flux(w * w / (4.0 * d.d_o)) / w
    o_beta = (m * o_a - gamma_o * k_b) / (m + sw.omega_p * k_a + w)
    z, y = np.linspace(0.0, 1.0, cfg.n_z + 1), np.linspace(0.0, 1.0, cfg.n_y + 1)
    expected = np.concatenate((
        [s_a * gl_falling(w * w / (4.0 * d.d_s), 0.0, zk) for zk in z],
        [o_beta + (o_a - o_beta) * gl_falling(w * w / (4.0 * d.d_o), 0.0, zk) for zk in z],
        [o_beta * gl_falling(v * v / (4.0 * d.d_g), v * k_b / (2.0 * d.d_g), yk) for yk in y]))
    blocks = np.split(np.abs(u - expected), [z.size, 2 * z.size])
    for deviation, scale in zip(blocks, (s_a, o_a, o_a)):
        assert np.max(deviation) <= 1e-13 * scale


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


def test_refined_run_meets_the_exact_solution_and_advection_matters(default_cfg,
                                                                   monkeypatch):
    # the fronts' advection of the fields moves the 40 h state by about
    # 3e-5, far above the 1.24e-6 the run at tolerance 3e-6 reaches, so the
    # exact solution sees the stepper's advection switched off
    cfg = replace(default_cfg, tolerance=3e-6)
    assert max(map(abs, exact_front_errors(cfg, run(cfg).records[-1]))) <= 2e-6
    monkeypatch.setattr(stepper, "advection_rates", lambda fs, omega_p: (0.0, 0.0, 0.0))
    assert max(map(abs, exact_front_errors(cfg, run(cfg).records[-1]))) > 2e-5
