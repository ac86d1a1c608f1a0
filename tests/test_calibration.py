import math
from dataclasses import replace

import pytest

import patina.calibration
from patina.calibration import (
    ThicknessMeasurement,
    calibrate,
    load_measurements,
    reduced_model_initial_guess,
    residual,
)
from patina.pde_core import Diffusivities
from patina.simulation import SimulationError, run


def predict_total_thickness(d, cfg, times_hours):
    """Simulated total thickness (cm) at the given hours, one run at ``d``."""
    return run(replace(cfg, diffusivities=d)).thickness_at(times_hours)


@pytest.fixture(scope="module")
def cheap_cfg(default_cfg):
    # coarse grids and a short horizon keep optimizer tests fast
    return replace(default_cfg, n_z=40, n_y=40, horizon_hours=8.0,
                   output_stride=5)


@pytest.fixture(scope="module")
def table_measurements():
    return load_measurements("data/thickness_measures.csv")


def test_load_shipped_measurements(table_measurements):
    assert len(table_measurements) == 3
    m8 = table_measurements[0]
    assert (m8.time_hours, m8.mean_cm, m8.std_cm) == (8.0, 5.4418e-4, 1.7331e-4)
    assert table_measurements[-1].mean_cm == 13.2522e-4


def test_load_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_measurements(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("hours,thickness,std\n8,1e-4,1e-5\n")
    with pytest.raises(ValueError, match="bad header"):
        load_measurements(bad)
    neg = tmp_path / "neg.csv"
    neg.write_text("time_hours,thickness_cm,std_cm\n-8,1e-4,1e-5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_measurements(neg)
    nan = tmp_path / "nan.csv"
    nan.write_text("time_hours,thickness_cm,std_cm\n8,1e-4,1e-5\n24,nan,1e-5\n")
    with pytest.raises(ValueError, match=f"{nan}: line 3: measurement mean_cm must be finite"):
        load_measurements(nan)


def test_measurement_validation():
    with pytest.raises(ValueError):
        ThicknessMeasurement(8.0, -1e-4, 1e-5)
    with pytest.raises(ValueError):
        ThicknessMeasurement(8.0, 1e-4, -1e-5)


@pytest.mark.parametrize("row", [(math.nan, 1e-4, 1e-5), (math.inf, 1e-4, 1e-5),
                                 (8.0, math.nan, 1e-5), (8.0, math.inf, 1e-5),
                                 (8.0, 1e-4, math.nan), (8.0, 1e-4, math.inf)])
def test_measurement_rejects_non_finite_values(row):
    with pytest.raises(ValueError, match="must be finite"):
        ThicknessMeasurement(*row)


class TestResidual:
    def test_zero_when_predictions_match(self, cheap_cfg):
        d = cheap_cfg.diffusivities
        pred = predict_total_thickness(d, cheap_cfg, [4.0, 8.0])
        meas = [ThicknessMeasurement(4.0, float(pred[0]), 1e-5),
                ThicknessMeasurement(8.0, float(pred[1]), 1e-5)]
        assert residual(d, meas, cheap_cfg) == pytest.approx(0.0, abs=1e-12)

    def test_one_std_off_gives_one(self, cheap_cfg):
        d = cheap_cfg.diffusivities
        pred = float(predict_total_thickness(d, cheap_cfg, [8.0])[0])
        std = 2e-5
        meas = [ThicknessMeasurement(8.0, pred - std, std)]
        r = residual(d, meas, cheap_cfg)
        assert r == pytest.approx(1.0, rel=1e-9)
        # the value is the sum of squares of the deviations it carries
        assert r.deviations.tolist() == [pytest.approx(1.0, rel=1e-9)]
        assert r == float(sum(r.deviations ** 2))
        assert r.output.thickness_at([8.0])[0] == pred

    def test_reorder_invariance(self, cheap_cfg, table_measurements):
        d = cheap_cfg.diffusivities
        cfg = replace(cheap_cfg, horizon_hours=40.0)
        r1 = residual(d, table_measurements, cfg)
        r2 = residual(d, tuple(reversed(table_measurements)), cfg)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_zero_std_falls_back_to_mean_weight(self, cheap_cfg):
        d = cheap_cfg.diffusivities
        pred = float(predict_total_thickness(d, cheap_cfg, [8.0])[0])
        meas = [ThicknessMeasurement(8.0, pred / 2.0, 0.0)]
        # (pred - mean)/mean = 1 when pred = 2*mean
        assert residual(d, meas, cheap_cfg) == pytest.approx(1.0, rel=1e-9)

    def test_failure_becomes_infinite(self, cheap_cfg):
        cfg = replace(cheap_cfg, max_steps=3)
        meas = [ThicknessMeasurement(8.0, 1e-4, 1e-5)]
        r = residual(cfg.diffusivities, meas, cfg)
        assert math.isinf(r) and math.isinf(r.deviations[0])
        assert r.output is None

    def test_rejected_evaluation_prints_a_warning(self, cheap_cfg, capsys):
        cfg = replace(cheap_cfg, max_steps=3)
        residual(cfg.diffusivities, [ThicknessMeasurement(8.0, 1e-4, 1e-5)], cfg)
        err = capsys.readouterr().err
        assert err.startswith("patina: warning: residual evaluation rejected at ")
        assert "step budget 3 exhausted" in err


def test_reduced_model_guess_is_reasonable(default_cfg, table_measurements):
    guess = reduced_model_initial_guess(table_measurements, default_cfg)
    assert 1e-11 < guess.d_g < 1e-7
    assert 1e-7 < guess.d_s < 1e-4
    assert guess.d_o == default_cfg.diffusivities.d_o
    r = residual(guess, table_measurements, default_cfg)
    assert r < 3.0


def count_runs(monkeypatch) -> list:
    """Diffusivities of every solver run ``calibrate`` makes from now on."""
    runs = []
    real_run = patina.calibration.run

    def counting_run(cfg):
        runs.append(cfg.diffusivities)
        return real_run(cfg)

    monkeypatch.setattr(patina.calibration, "run", counting_run)
    return runs


class TestCalibrate:
    def test_truth_start_converges_immediately(self, cheap_cfg):
        truth = Diffusivities(d_g=1e-9, d_s=5e-6, d_o=1e-5)
        pred = predict_total_thickness(truth, cheap_cfg, [4.0, 8.0])
        meas = [ThicknessMeasurement(4.0, float(pred[0]), 0.0),
                ThicknessMeasurement(8.0, float(pred[1]), 0.0)]
        res = calibrate(truth, (1e-10, 1e-3), meas, cheap_cfg, budget=60)
        assert res.residual < 1e-4 * len(meas)
        assert res.evaluations <= 60

    def test_budget_exhaustion_flagged(self, cheap_cfg, monkeypatch):
        runs = count_runs(monkeypatch)
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        res = calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), meas,
                        cheap_cfg, budget=6)
        assert not res.converged
        assert res.evaluations == len(runs) == 6
        assert len(res.predicted_cm) == 1

    def test_budget_must_cover_the_starting_jacobian(self, cheap_cfg):
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        with pytest.raises(ValueError, match="budget 3"):
            calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), meas,
                      cheap_cfg, budget=3)

    def test_result_within_bounds(self, cheap_cfg):
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        res = calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), meas,
                        cheap_cfg, budget=25)
        for v in (res.diffusivities.d_g, res.diffusivities.d_s,
                  res.diffusivities.d_o):
            assert 1e-10 <= v <= 1e-3

    def test_one_run_per_evaluation(self, cheap_cfg, monkeypatch):
        runs = count_runs(monkeypatch)
        meas = [ThicknessMeasurement(4.0, 3e-4, 1e-4),
                ThicknessMeasurement(8.0, 5e-4, 1e-4)]
        res = calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), meas,
                        cheap_cfg, budget=15)
        # every run counts, the four of the starting Jacobian included, and
        # no parameter point runs twice
        assert len(runs) == res.evaluations > 4
        assert len(set(runs)) == len(runs)
        # the kept run is the reported point's: a fresh run repeats it
        fresh = predict_total_thickness(res.diffusivities, cheap_cfg, res.times_hours)
        assert res.predicted_cm == tuple(float(p) for p in fresh)
        assert res.residual == residual(res.diffusivities, meas, cheap_cfg)
        assert res.output.records[-1].t_hours == pytest.approx(8.0)

    def test_shipped_data_fit_the_amplitude_alone(self, cheap_cfg,
                                                  table_measurements):
        # total thickness sees the sqrt(t) amplitude, which d_s carries most
        # of; the d_g/d_s split and d_o stay at their start values
        cfg = replace(cheap_cfg, horizon_hours=40.0)
        start = reduced_model_initial_guess(table_measurements, cfg)
        res = calibrate(start, (1e-10, 1e-3), table_measurements, cfg)
        assert res.converged
        assert res.fitted == ("d_s",)
        assert len(res.singular_values) == 3
        assert res.singular_values[1] < 1e-2 * res.singular_values[0]
        assert res.condition > 1e3
        assert res.diffusivities.d_g == start.d_g
        assert res.diffusivities.d_o == start.d_o
        assert res.residual <= residual(start, table_measurements, cfg)

    def test_failed_start_is_a_solver_failure(self, cheap_cfg):
        cfg = replace(cheap_cfg, max_steps=3)
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        with pytest.raises(SimulationError, match="calibration start"):
            calibrate(cfg.diffusivities, (1e-10, 1e-3), meas, cfg)

    def test_rejects_bad_inputs(self, cheap_cfg):
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        with pytest.raises(ValueError, match="bounds"):
            calibrate(cheap_cfg.diffusivities, (1e-3, 1e-10), meas, cheap_cfg)
        with pytest.raises(ValueError, match="outside bounds"):
            calibrate(Diffusivities(1e-20, 1e-6, 1e-6), (1e-10, 1e-3),
                      meas, cheap_cfg)
        with pytest.raises(ValueError, match="non-empty"):
            calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), [], cheap_cfg)
