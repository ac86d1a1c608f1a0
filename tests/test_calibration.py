import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg

import patina.calibration
import patina.convergence
from patina.calibration import (
    JACOBIAN_STEP,
    STEP_TOL,
    Residual,
    ThicknessMeasurement,
    calibrate,
    load_measurements,
    residual,
    subset_selection,
    warm_start,
    weighted_residual,
)
from patina.environment import cycle_forcing, forcing_at
from patina.pde_core import Diffusivities
from patina.simulation import SimulationError, run


def predict_total_thickness(d, cfg, times_hours):
    """Simulated total thickness (cm) at the given hours, one run at ``d``
    that keeps a record at each of them."""
    return run(replace(cfg, diffusivities=d), record_hours=times_hours).thickness_at(times_hours)


@pytest.fixture(scope="module")
def cheap_cfg(default_cfg):
    # coarse grids and a short horizon keep optimizer tests fast
    return replace(default_cfg, n_z=40, n_y=40, horizon_hours=8.0,
                   output_stride=5)


@pytest.fixture(scope="module")
def cycles_cfg(cheap_cfg):
    # the SO2 stops at 6 h, within the 8 h horizon: no exact solution, so
    # every point calibrate scores is a solver run
    return replace(cheap_cfg, forcing=cycle_forcing(*forcing_at(cheap_cfg.forcing, 0.0),
                                                    wet_hours=6.0, dry_hours=18.0))


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

    def test_predictions_do_not_depend_on_the_output_stride(self, default_cfg,
                                                             table_measurements):
        # the run lands on the measurement times and keeps a record at each,
        # so its predictions are its own values there; interpolated between
        # records, stride 10 read 7.1e-6 low at 8 h and 1.3e-5 low at 24 h
        # against stride 1 on the default chamber run
        d = default_cfg.diffusivities
        predicted = [residual(d, table_measurements,
                              replace(default_cfg, output_stride=stride)).output.thickness_at(
                                  [m.time_hours for m in table_measurements])
                     for stride in (1, 10)]
        assert np.array_equal(*predicted)
        out = residual(d, table_measurements, default_cfg).output
        assert {8.0, 24.0, 40.0} <= {r.t_hours for r in out.records}

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


def count_runs(monkeypatch) -> list:
    """Diffusivities of every solver run ``calibrate`` makes from now on."""
    runs = []
    real_run = patina.calibration.run

    def counting_run(cfg, **kwargs):
        runs.append(cfg.diffusivities)
        return real_run(cfg, **kwargs)

    monkeypatch.setattr(patina.calibration, "run", counting_run)
    return runs


class TestCalibrate:
    """The fit over solver runs (non-constant forcing) and its exact-solution
    form (constant forcing)."""

    def test_truth_start_converges_immediately(self, cycles_cfg):
        truth = Diffusivities(d_g=1e-9, d_s=5e-6, d_o=1e-5)
        pred = predict_total_thickness(truth, cycles_cfg, [4.0, 8.0])
        meas = [ThicknessMeasurement(4.0, float(pred[0]), 0.0),
                ThicknessMeasurement(8.0, float(pred[1]), 0.0)]
        res = calibrate(truth, (1e-10, 1e-3), meas, cycles_cfg, budget=60)
        assert res.residual < 1e-4 * len(meas)
        assert res.evaluations <= 60

    def test_budget_exhaustion_flagged(self, cycles_cfg, cheap_cfg, monkeypatch):
        runs = count_runs(monkeypatch)
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        res = calibrate(cycles_cfg.diffusivities, (1e-10, 1e-3), meas,
                        cycles_cfg, budget=6)
        assert not res.converged
        assert res.evaluations == len(runs) == 6
        assert len(res.predicted_cm) == 1
        # under constant forcing the budget counts exact evaluations, and one
        # run at the best of them reports the result
        runs.clear()
        res = calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), meas, cheap_cfg, budget=6)
        assert not res.converged and res.evaluations == 6
        assert runs == [res.diffusivities]

    def test_budget_must_cover_the_starting_jacobian(self, cheap_cfg):
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        with pytest.raises(ValueError, match="budget 3"):
            calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), meas,
                      cheap_cfg, budget=3)

    def test_result_within_bounds(self, cycles_cfg):
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        res = calibrate(cycles_cfg.diffusivities, (1e-10, 1e-3), meas,
                        cycles_cfg, budget=25)
        for v in (res.diffusivities.d_g, res.diffusivities.d_s,
                  res.diffusivities.d_o):
            assert 1e-10 <= v <= 1e-3

    def test_one_run_per_evaluation(self, cycles_cfg, monkeypatch):
        runs = count_runs(monkeypatch)
        meas = [ThicknessMeasurement(4.0, 3e-4, 1e-4),
                ThicknessMeasurement(8.0, 5e-4, 1e-4)]
        res = calibrate(cycles_cfg.diffusivities, (1e-10, 1e-3), meas,
                        cycles_cfg, budget=15)
        # every run counts, the four of the starting Jacobian included, and
        # no parameter point runs twice
        assert len(runs) == res.evaluations > 4
        assert len(set(runs)) == len(runs)
        # the kept run is the reported point's: a fresh run repeats it
        fresh = predict_total_thickness(res.diffusivities, cycles_cfg, [m.time_hours for m in meas])
        assert res.predicted_cm == tuple(float(p) for p in fresh)
        assert res.residual == residual(res.diffusivities, meas, cycles_cfg)
        assert res.output.records[-1].t_hours == pytest.approx(8.0)

    def test_shipped_data_fit_the_amplitude_alone(self, default_cfg, table_measurements,
                                                  monkeypatch):
        # the exact totals are K*sqrt(t): the Jacobian has rank 1, d_s carries
        # most of K, and the warm start already minimises the exact residual,
        # so the fit stops after the starting Jacobian and runs the solver
        # once, on the benchmark's grid and on the shipped one
        runs = count_runs(monkeypatch)
        for n in (25, 100):
            cfg = replace(default_cfg, n_z=n, n_y=n)
            start = warm_start(table_measurements, cfg)
            runs.clear()
            res = calibrate(start, (1e-10, 1e-3), table_measurements, cfg)
            assert runs == [start]
            assert res.converged and res.evaluations == 4
            assert res.fitted == ("d_s",)
            assert len(res.singular_values) == 3
            assert res.singular_values[1] < 1e-12 * res.singular_values[0]
            assert res.diffusivities == start
            assert res.diffusivities.d_s == pytest.approx(4.980994e-6, rel=1e-6)
            assert res.diffusivities.d_g == pytest.approx(6.712671e-10, rel=1e-6)
            # predictions and residual come from the one solver run
            predicted = res.output.thickness_at([m.time_hours for m in table_measurements])
            assert res.predicted_cm == tuple(float(p) for p in predicted)
            assert res.residual == weighted_residual(predicted, table_measurements)

    def test_failed_start_is_a_solver_failure(self, cycles_cfg, cheap_cfg):
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        cfg = replace(cycles_cfg, max_steps=3)
        with pytest.raises(SimulationError, match="calibration start"):
            calibrate(cfg.diffusivities, (1e-10, 1e-3), meas, cfg)
        # under constant forcing the start is scored without a run, and the
        # run at the result fails
        cfg = replace(cheap_cfg, max_steps=3)
        with pytest.raises(SimulationError, match="calibration result"):
            calibrate(cfg.diffusivities, (1e-10, 1e-3), meas, cfg)

    def test_no_exact_solution_is_an_infinite_residual(self, cheap_cfg, table_measurements,
                                                       monkeypatch, capsys):
        runs = count_runs(monkeypatch)
        starved = replace(cheap_cfg.diffusivities, d_o=1e-10)
        with pytest.raises(SimulationError, match="calibration start"):
            calibrate(starved, (1e-10, 1e-3), table_measurements, cheap_cfg)
        assert runs == []
        assert "oxygen is used up at beta" in capsys.readouterr().err
        # inside the fit: with no solution above the start's d_s, the d_s
        # column is zero and d_g carries the amplitude instead
        start = warm_start(table_measurements, cheap_cfg)
        similarity = patina.convergence.similarity

        def starved_above_start(cfg):
            if cfg.diffusivities.d_s > start.d_s:
                raise ValueError("oxygen is used up at beta: no similarity solution")
            return similarity(cfg)

        monkeypatch.setattr(patina.convergence, "similarity", starved_above_start)
        res = calibrate(start, (1e-10, 1e-3), table_measurements, cheap_cfg)
        assert res.converged and res.fitted == ("d_g",)
        assert runs == [res.diffusivities]
        assert "oxygen is used up at beta" in capsys.readouterr().err

    def test_rejects_bad_inputs(self, cheap_cfg):
        meas = [ThicknessMeasurement(8.0, 9e-4, 1e-4)]
        with pytest.raises(ValueError, match="bounds"):
            calibrate(cheap_cfg.diffusivities, (1e-3, 1e-10), meas, cheap_cfg)
        with pytest.raises(ValueError, match="outside bounds"):
            calibrate(Diffusivities(1e-20, 1e-6, 1e-6), (1e-10, 1e-3),
                      meas, cheap_cfg)
        with pytest.raises(ValueError, match="non-empty"):
            calibrate(cheap_cfg.diffusivities, (1e-10, 1e-3), [], cheap_cfg)


# columns d_g, d_s, d_o shaped like the shipped data's Jacobian: d_g and d_s
# nearly parallel with d_s the larger, d_o almost invisible
SHIPPED_LIKE = np.array([[1.10, 7.90, 1.0e-4],
                         [0.52, 3.75, -2.0e-4],
                         [0.31, 2.26, 3.0e-4]])


@pytest.mark.parametrize("jac", [
    np.array([[1.0, 0.2, 0.3], [0.1, 2.0, -0.4], [0.5, 0.3, 0.7], [0.2, -0.6, 0.1]]),
    SHIPPED_LIKE,
    np.array([[1.0, 1.0, 0.3], [2.0, 2.0, -0.1], [0.5, 0.5, 0.9]]),
], ids=["full rank", "rank 1", "duplicate columns"])
def test_subset_selection_agrees_with_pivoted_qr(jac):
    sv, columns = subset_selection(jac)
    expected = linalg.svdvals(jac)
    assert sv == pytest.approx(expected, rel=1e-12)
    rank = int(np.count_nonzero(expected > patina.calibration.RANK_RTOL * expected[0]))
    _, pivots = linalg.qr(jac, mode="r", pivoting=True)
    assert columns == [int(k) for k in pivots[:rank]]


def test_subset_selection_of_a_zero_jacobian_is_empty():
    sv, columns = subset_selection(np.zeros((3, 3)))
    assert sv.tolist() == [0.0, 0.0, 0.0]
    assert columns == []


def fake_residual(monkeypatch, deviations_of) -> list:
    """Replace the solver run of ``residual`` by deviations that depend on
    log10 d_s alone; returns the list of (diffusivities, residual) of every
    call made from now on."""
    calls = []
    output = SimpleNamespace(thickness_at=lambda times: np.zeros(len(times)))

    def fake(d, measurements, cfg):
        value = Residual(np.asarray(deviations_of(math.log10(d.d_s)), dtype=float), output)
        calls.append((d, float(value)))
        return value

    monkeypatch.setattr(patina.calibration, "residual", fake)
    return calls


BOUNDS = (1e-10, 1e-3)
TWO_POINTS = [ThicknessMeasurement(4.0, 3e-4, 1e-4), ThicknessMeasurement(8.0, 5e-4, 1e-4)]


def start_at(log_d_s):
    return Diffusivities(d_g=1e-9, d_s=10.0 ** log_d_s, d_o=1e-5)


def quadratic(target):
    # on the upper side of ``target`` every forward-difference Gauss-Newton
    # step halves the distance, so the steps shrink by half each time
    def deviations(x):
        e = x - target
        g = e + 20.0 * e ** 2
        return [g, 0.5 * g]
    return deviations


class TestFitRules:
    """The fit's stop rules on residuals with no solver run behind them.

    The forcing cycles, so the fit scores every point with ``residual``."""

    def test_converges_within_step_tol(self, cycles_cfg, monkeypatch):
        calls = fake_residual(monkeypatch, quadratic(-8.5))
        res = calibrate(start_at(-7.8), BOUNDS, TWO_POINTS, cycles_cfg)
        assert res.converged and res.fitted == ("d_s",)
        # a relative step rule (1e-3 of |log10 d_s|, 8.5e-3 decades here)
        # would stop 5e-3 decades short
        assert abs(math.log10(res.diffusivities.d_s) + 8.5) < STEP_TOL
        assert res.diffusivities.d_g == 1e-9 and res.diffusivities.d_o == 1e-5
        assert res.residual == min(r for _, r in calls)
        points = [d for d, _ in calls]
        assert len(points) == len(set(points)) == res.evaluations

    def test_optimum_outside_the_box_ends_on_the_bound(self, cycles_cfg, monkeypatch):
        calls = fake_residual(monkeypatch, lambda x: [x + 2.0])
        res = calibrate(start_at(-6.0), BOUNDS, TWO_POINTS[:1], cycles_cfg)
        assert res.converged
        assert math.log10(res.diffusivities.d_s) == pytest.approx(-3.0, abs=1e-12)
        assert all(BOUNDS[0] <= d.d_s <= BOUNDS[1] * (1 + 1e-12) for d, _ in calls)
        points = [d for d, _ in calls]
        assert len(points) == len(set(points)) == res.evaluations

    def test_a_step_that_raises_the_residual_is_not_kept(self, cycles_cfg, monkeypatch):
        # linear below the optimum and saturating above it: from above, the
        # first step overshoots to the lower bound, where the residual is 9
        def deviations(x):
            e = x + 7.0
            return [e if e <= 0.0 else math.atan(3.0 * e) / 3.0]

        calls = fake_residual(monkeypatch, deviations)
        res = calibrate(start_at(-5.5), BOUNDS, TWO_POINTS[:1], cycles_cfg)
        assert res.converged
        assert abs(math.log10(res.diffusivities.d_s) + 7.0) < STEP_TOL
        assert max(r for _, r in calls) > 10.0 * calls[0][1]
        # the points the fit differentiates in d_s at, in order, are the ones
        # it kept: each lowers the residual
        fit = [(math.log10(d.d_s), r) for d, r in calls if (d.d_g, d.d_o) == (1e-9, 1e-5)]
        kept = [r for i, (x, r) in enumerate(fit)
                if any(abs(x + JACOBIAN_STEP - y) < 1e-9 for y, _ in fit[i + 1:])]
        assert kept[0] == calls[0][1] and len(kept) > 2
        assert all(b < a for a, b in zip(kept, kept[1:]))

    def test_one_run_too_few_is_not_converged(self, cycles_cfg, monkeypatch):
        calls = fake_residual(monkeypatch, quadratic(-8.5))
        full = calibrate(start_at(-7.8), BOUNDS, TWO_POINTS, cycles_cfg)
        assert full.converged and full.evaluations == len(calls)
        short = calibrate(start_at(-7.8), BOUNDS, TWO_POINTS, cycles_cfg,
                          budget=full.evaluations - 1)
        assert not short.converged
        assert short.evaluations == full.evaluations - 1
        exact = calibrate(start_at(-7.8), BOUNDS, TWO_POINTS, cycles_cfg,
                          budget=full.evaluations)
        assert exact.converged and exact.diffusivities == full.diffusivities

    def test_a_flat_residual_fits_nothing(self, cycles_cfg, monkeypatch):
        calls = fake_residual(monkeypatch, lambda x: [0.5, -0.5])
        res = calibrate(start_at(-6.0), BOUNDS, TWO_POINTS, cycles_cfg)
        assert res.converged and res.fitted == ()
        assert res.singular_values == (0.0, 0.0)
        # the base run and one per parameter, then no fit
        assert res.evaluations == len(calls) == 4
        assert res.diffusivities == start_at(-6.0)
