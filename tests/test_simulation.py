import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_output_invariants
import patina.convergence
import patina.simulation
import patina.stepper
from patina.config import build_simulation_config, load_settings
from patina.convergence import exact_front_errors, exact_fronts
from patina.environment import (
    Forcing,
    breakpoints,
    constant_chamber_forcing,
    cycle_forcing,
    forcing_at,
    load_timeseries,
)
from patina.materials import DEFAULT_MATERIALS, SwellingRatios, mole_balance, swelling_ratios
from patina.simulation import (
    OUTPUT_CSV_HEADER,
    OutputRecord,
    SimulationError,
    default_dt_max,
    initialize,
    run,
    write_output_csv,
)


@pytest.fixture(scope="module")
def short_run(default_cfg):
    return run(replace(default_cfg, horizon_hours=4.0))


class TestRecords:
    def test_front_position_example(self, short_run, default_cfg):
        # the first row is the seed state: the fronts in cm, and thicknesses
        # their differences; it is the exact solution at SEED_HOURS of exposure
        _, fronts, _ = initialize(default_cfg)
        first = short_run.records[0]
        a, b, beta, gamma = fronts.a, fronts.b, fronts.beta, fronts.gamma
        assert first == OutputRecord(0.0, a, b, beta, gamma, a - beta, beta - gamma,
                                     a - gamma)
        exact = exact_fronts(default_cfg, patina.convergence.SEED_HOURS)
        assert (first.a_cm, first.b_cm, first.total_cm) == tuple(map(float, exact))


class TestInitialize:
    def test_default_seed_geometry(self, default_cfg, sw):
        _, fronts, _ = initialize(default_cfg)
        assert fronts.beta == pytest.approx(6.32287e-6, abs=1e-10)
        assert fronts.gamma == pytest.approx(-2.456376e-5, abs=1e-10)
        assert 0.0 < fronts.beta < fronts.a
        assert fronts.gamma < fronts.beta

    def test_field_profiles(self, default_cfg):
        # S and G hold their interior nodes, O its interior nodes and O(1);
        # the start values S(0) = S_a, O(0) = O_a and G(0) = O(1) are not
        # stored (the step hands them to the solves:
        # test_substeps_take_g0_from_o1), nor the pins S(1) = G(1) = 0
        u, fronts, model = initialize(default_cfg)
        s_a, o_a = forcing_at(model.forcing, 0.0), model.forcing.oxygen
        n_z = default_cfg.n_z
        s, o, g = u[:n_z - 1], u[n_z - 1:2 * n_z - 1], u[2 * n_z - 1:]
        assert g.size == default_cfg.n_y - 1
        # S falls to the consumed end
        assert np.all(np.diff(np.concatenate(([s_a], s, [0.0]))) < 0)
        assert np.all(np.diff(np.concatenate(([o_a], o))) < 0) and o[-1] > 0.0
        # G falls from the interface value O(1) to the consumed end
        assert np.all(np.diff(np.concatenate(([o[-1]], g, [0.0]))) < 0)

    def test_rejects_oxygen_used_up_at_beta(self, default_cfg):
        d = replace(default_cfg.diffusivities, d_o=1e-10)
        with pytest.raises(ValueError, match="oxygen is used up at beta"):
            initialize(replace(default_cfg, diffusivities=d))

    def test_rejects_forcing_without_so2(self, default_cfg):
        # a cycle schedule starting dry, in effect: no SO2 at t = 0
        oxygen = default_cfg.forcing.oxygen
        for forcing in (constant_chamber_forcing(0.0, oxygen),
                        Forcing([0.0, 1.0], [0.0, 1e-9], oxygen)):
            with pytest.raises(ValueError, match="needs nonzero SO2"):
                initialize(replace(default_cfg, forcing=forcing))

    def test_config_validation(self, default_cfg):
        with pytest.raises(ValueError, match="horizon"):
            replace(default_cfg, horizon_hours=0.0)
        with pytest.raises(ValueError, match="stride"):
            replace(default_cfg, output_stride=0)

    @pytest.mark.parametrize("hours", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, default_cfg, hours):
        # a NaN horizon used to give a run of 0 steps
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            replace(default_cfg, horizon_hours=hours)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_step_budget_below_one_rejected(self, default_cfg, steps):
        # a budget of 0 used to take a step and fail as a solver error
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            replace(default_cfg, max_steps=steps)


class TestRun:
    def test_invariants_on_chamber_run(self, short_run, sw):
        assert_output_invariants(short_run, sw)

    def test_stoichiometry_at_final_record(self, short_run):
        final = short_run.records[-1]
        rep = mole_balance(final.a_cm, final.b_cm, final.beta_cm, final.gamma_cm,
                           DEFAULT_MATERIALS)
        assert rep.ratio_copper_cuprite == pytest.approx(2.0, rel=1e-9)
        assert rep.ratio_cuprite_brochantite == pytest.approx(2.0, rel=1e-9)

    def test_cycle_forcing_survives_phase_jumps(self, default_cfg, sw):
        chamber = default_cfg.forcing
        cfg = replace(default_cfg,
                      forcing=cycle_forcing(float(chamber.so2[0]), chamber.oxygen),
                      horizon_hours=26.0)
        out = run(cfg)
        assert_output_invariants(out, sw)
        # growth happens but less than under continuous chamber forcing
        chamber_out = run(replace(default_cfg, horizon_hours=26.0))
        assert 0.0 < (out.records[-1].total_cm - out.records[0].total_cm)
        assert out.records[-1].total_cm < chamber_out.records[-1].total_cm

    def test_chamber_error_does_not_depend_on_seed_time(self, default_cfg, monkeypatch):
        # the 40 h error against exact is the step's, not the seed's: seeded
        # at 0.01 h (847 steps) and at 0.03 h (737 steps) it reads -2.73e-6,
        # the two 1.1e-10 apart (largest of a, b and the total; a gives it).
        errors = []
        for hours in (0.01, 0.03):
            monkeypatch.setattr(patina.convergence, "SEED_HOURS", hours)
            errors.append(exact_front_errors(default_cfg, run(default_cfg).records[-1]))
        assert max(abs(e1 - e2) for e1, e2 in zip(*errors)) <= 5e-10
        assert max(map(abs, errors[1])) <= 3e-6

    def test_solver_errors_carry_step_context(self, default_cfg):
        cfg = replace(default_cfg, max_steps=3, horizon_hours=40.0)
        with pytest.raises(SimulationError, match="step"):
            run(cfg)

    def test_fault_injection_breaks_stoichiometry(self, default_cfg, monkeypatch):
        # fronts moved with an omega_b 10 % off the material table
        def broken(mat):
            sw = swelling_ratios(mat)
            return SwellingRatios(sw.omega_p, 1.1 * sw.omega_b)

        monkeypatch.setattr(patina.simulation, "swelling_ratios", broken)
        final = run(replace(default_cfg, horizon_hours=4.0)).records[-1]
        rep = mole_balance(final.a_cm, final.b_cm, final.beta_cm, final.gamma_cm,
                           default_cfg.materials)
        dev = abs(rep.ratio_cuprite_brochantite / 2.0 - 1.0)
        assert dev > 0.02
        # copper/cuprite leg is untouched by an omega_b fault
        assert rep.ratio_copper_cuprite == pytest.approx(2.0, rel=1e-9)


def _recorded_steps(cfg, monkeypatch, **kwargs):
    """The run's output and the (t, dt) of each of its accepted steps,
    taken where the time loop calls the stepper."""
    steps = []
    step = patina.simulation.imex_midpoint_step

    def recording(u, fs, t, dt, *args):
        result = step(u, fs, t, dt, *args)
        if result[2] <= cfg.tolerance:
            steps.append((t, dt))
        return result

    monkeypatch.setattr(patina.simulation, "imex_midpoint_step", recording)
    return run(cfg, **kwargs), steps


class TestStepControl:
    @pytest.mark.parametrize("forcing", [
        cycle_forcing(4.99e-7, wet_hours=2.5, dry_hours=1.5),
        Forcing([0.0, 0.4, 1.0, 2.7, 3.0, 5.5, 9.0, 20.0],
                [4e-11, 1e-10, 2e-11, 3e-10, 0.0, 8e-11, 5e-11, 1e-10], 2.6e-4),
    ], ids=["cycles", "time-series"])
    def test_steps_land_on_every_breakpoint(self, default_cfg, forcing, monkeypatch):
        cfg = replace(default_cfg, forcing=forcing, horizon_hours=12.0)
        breaks = breakpoints(forcing, cfg.horizon_hours)
        assert len(breaks) >= 5
        out, steps = _recorded_steps(cfg, monkeypatch)
        starts = [t for t, _ in steps]
        for b in breaks:
            # the step that follows starts on the break itself, not near it
            k = starts.index(b)
            t, dt = steps[k - 1]
            assert t + dt == pytest.approx(b, rel=1e-14)
        assert not [(t, dt) for t, dt in steps for b in breaks
                    if t < b < (t + dt) * (1.0 - 1e-14)]
        assert out.records[-1].t_hours == pytest.approx(12.0, rel=1e-12)
        # the run counts one landing per break
        landing = [any(t + dt == pytest.approx(b, rel=1e-14) for b in breaks)
                   for t, dt in steps]
        assert out.landings == sum(landing) == len(breaks)

    def test_the_first_step_is_the_exposure_cap(self, default_cfg, monkeypatch):
        # every step, the first included, is min(dt, dt_max, horizon left,
        # cap by exposure), and the run asks for no CFL step
        def no_cfl(*args):
            raise AssertionError("a run proposes no CFL step")

        monkeypatch.setattr(patina.stepper, "select_dt", no_cfl)
        monkeypatch.setattr(patina.simulation, "select_dt", no_cfl, raising=False)
        step = patina.simulation.imex_midpoint_step
        attempts = []

        def recording(u, fs, t, dt, model):
            attempts.append(dt)
            return step(u, fs, t, dt, model)

        monkeypatch.setattr(patina.simulation, "imex_midpoint_step", recording)
        cap = patina.simulation.MAX_STEP_FRACTION * patina.convergence.SEED_HOURS
        for cfg, first in ((default_cfg, cap),
                           (replace(default_cfg, dt_max=1e-4, horizon_hours=0.01), 1e-4),
                           (replace(default_cfg, horizon_hours=1e-4), 1e-4)):
            attempts.clear()
            run(cfg)
            assert attempts[0] == first

    def test_the_controller_starts_at_the_first_step(self, default_cfg, monkeypatch):
        # a step accepted with its error at the tolerance has the next one
        # proposed at SAFETY of it, below the cap by exposure
        attempts = []

        def at_tolerance(u, fs, t, dt, model):
            attempts.append(dt)
            return u, fs, default_cfg.tolerance, 0, 0

        monkeypatch.setattr(patina.simulation, "imex_midpoint_step", at_tolerance)
        with pytest.raises(SimulationError, match="budget"):
            run(replace(default_cfg, max_steps=3))
        safety = patina.simulation.SAFETY
        assert attempts[1:] == pytest.approx([safety * attempts[0], safety**2 * attempts[0]],
                                             rel=1e-12)

    def test_a_run_leaves_its_forcing_as_loaded(self, default_cfg, tmp_path):
        # the run merges the record hours into its own array of breaks and
        # reverses it in place: the forcing stays as load_timeseries returned
        # it, and every breakpoints call returns a new array
        path = tmp_path / "env.csv"
        path.write_text("time_hours,so2_ugm3,temp_c,rh_percent\n"
                        + "".join(f"{t},{10 + t % 3},20,50\n" for t in range(13)))
        forcing = load_timeseries(path)
        times, so2 = forcing.times.tolist(), forcing.so2.tolist()
        cfg = replace(default_cfg, forcing=forcing, horizon_hours=12.0)
        out = run(cfg, record_hours=(2.5, 7.25, 11.0))
        assert [r.t_hours for r in out.records if r.t_hours in (2.5, 7.25, 11.0)] == \
            [2.5, 7.25, 11.0]
        assert cfg.forcing.times.tolist() == times and cfg.forcing.so2.tolist() == so2
        first, second = breakpoints(forcing, 12.0), breakpoints(forcing, 12.0)
        assert first is not second
        first.reverse()
        first[0] = -1.0
        assert second.tolist() == times[1:-1] and forcing.times.tolist() == times

    def test_rows_before_the_first_switch_are_the_chamber_rows(self, default_cfg):
        # a row every output_stride steps that no breakpoint cut short: up to
        # its first switch a cycles run takes the chamber run's steps and
        # prints its rows, though it lands on the switch; at a stride of 1 a
        # row on the cut step would show
        chamber = replace(default_cfg, horizon_hours=12.0, output_stride=1)
        cycles = replace(chamber, forcing=cycle_forcing(float(chamber.forcing.so2[0]),
                                                        chamber.forcing.oxygen))
        out = run(cycles)
        before = [r for r in out.records if r.t_hours <= 8.0]
        assert len(before) > 3 and out.landings > 0
        assert before == run(chamber).records[:len(before)]

    def test_a_landing_does_not_shrink_the_controllers_dt(self, default_cfg, monkeypatch):
        # a step whose error estimate is zero lets dt double up to dt_max
        # (the cap by exposure lifted); samples 0.001 h apart cut one step to
        # 0.001 h, and the next step is at dt_max again, not at twice the cut
        # step
        forcing = Forcing([0.0, 2.0, 2.001, 8.0], [1e-10] * 4, 2.6e-4)
        cfg = replace(default_cfg, forcing=forcing, horizon_hours=8.0, dt_max=1.0)
        monkeypatch.setattr(patina.simulation, "MAX_STEP_FRACTION", math.inf)
        steps = []

        def exact(u, fs, t, dt, model):
            steps.append((t, dt))
            return u, fs, 0.0, 0, 0

        monkeypatch.setattr(patina.simulation, "imex_midpoint_step", exact)
        out = run(cfg)
        k = [t for t, _ in steps].index(2.0)
        assert steps[k][1] == pytest.approx(0.001, rel=1e-9)
        assert steps[k + 1] == (2.001, pytest.approx(1.0))
        assert out.landings == 2 and out.rejected == 0

    def test_a_front_overshoot_is_rejected_and_retried(self, default_cfg, monkeypatch):
        # the first step, the whole 2000 h horizon, puts beta beyond a; the
        # run retries it at a fifth and goes on to the horizon
        cfg = replace(default_cfg, horizon_hours=2000.0, dt_max=1e9)
        monkeypatch.setattr(patina.simulation, "MAX_STEP_FRACTION", math.inf)
        step = patina.simulation.imex_midpoint_step
        attempts = []

        def recording(u, fs, t, dt, model):
            attempts.append((t, dt))
            try:
                return step(u, fs, t, dt, model)
            except ValueError as exc:
                attempts[-1] += (str(exc),)
                raise

        monkeypatch.setattr(patina.simulation, "imex_midpoint_step", recording)
        out = run(cfg)
        assert attempts[0][:2] == (0.0, 2000.0) and "ordering" in attempts[0][2]
        assert attempts[1][:2] == (0.0, 400.0)
        assert out.rejected >= 1 and out.records[-1].t_hours == pytest.approx(2000.0)
        assert_output_invariants(out, swelling_ratios(cfg.materials))

    def test_uncapped_literature_run_keeps_the_cuprite_layer(self, monkeypatch):
        # with both caps lifted, dt_max and MAX_STEP_FRACTION, only the error
        # norm guards the cuprite layer a - beta, 1 % of a here: it ends
        # -6.3e-5 from exact, and -8.7e-3 with it dropped from the norm
        # (-3.1e-6 either way under the cap by exposure)
        cfg = replace(build_simulation_config(load_settings(
            "configs/reference_diffusivities.ini")), dt_max=1e9)
        monkeypatch.setattr(patina.simulation, "MAX_STEP_FRACTION", math.inf)
        final = run(cfg).records[-1]
        sw = swelling_ratios(cfg.materials)
        a, b, _ = exact_fronts(cfg, final.t_hours + patina.convergence.SEED_HOURS)
        assert abs(final.h_p_cm / ((1.0 + sw.omega_p) * a - b) - 1.0) <= 1e-4

    def test_cycles_match_a_refined_run(self, default_cfg):
        # 48 h of 8 h wet / 16 h dry cycles, against the same run at a
        # hundredth of the tolerance and dt_max / 8 (3108 steps, also
        # landing).  Measured: a -8.9e-6, b -8.8e-6 (on the midpoint step
        # a -9.2e-5 and b +9.99e-6; without MAX_STEP_FRACTION, b -2.6e-5)
        cfg = replace(default_cfg, forcing=cycle_forcing(float(default_cfg.forcing.so2[0]),
                                                         default_cfg.forcing.oxygen),
                      horizon_hours=48.0)
        fine = run(replace(cfg, tolerance=cfg.tolerance / 100,
                           dt_max=cfg.dt_max / 8)).records[-1]
        shipped = run(cfg).records[-1]
        assert abs(shipped.a_cm / fine.a_cm - 1.0) <= 1.5e-4
        assert abs(shipped.b_cm / fine.b_cm - 1.0) <= 1e-5

    @pytest.mark.parametrize("mode, csv_times, expected", [
        ("chamber", None, 0.25),
        ("cycles", None, 0.25),
        ("timeseries", [0, 1, 2, 3], 1.0),
        ("timeseries", [0, 1, 3.5, 4], 2.5),
        ("timeseries", [0], 0.25),
    ])
    def test_blank_dt_max_is_derived_from_the_forcing(self, tmp_path, mode, csv_times,
                                                      expected):
        text = f"[forcing]\nmode = {mode}\n"
        if csv_times is not None:
            (tmp_path / "env.csv").write_text(
                "time_hours,so2_ugm3,temp_c,rh_percent\n"
                + "".join(f"{t},10,20,60\n" for t in csv_times))
            text += "env_csv = env.csv\n"
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        cfg = build_simulation_config(load_settings(cfgfile))
        assert cfg.dt_max == expected == default_dt_max(cfg.forcing)
        # a number in the config caps every forcing
        cfgfile.write_text(text + "[time]\ndt_max = 0.1\n")
        assert build_simulation_config(load_settings(cfgfile)).dt_max == 0.1


class TestOutputCsv:
    def test_format_and_determinism(self, short_run, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_output_csv(short_run, p1)
        write_output_csv(short_run, p2)
        text = p1.read_text()
        assert text.splitlines()[0] == OUTPUT_CSV_HEADER
        assert p1.read_bytes() == p2.read_bytes()
        # 6-significant-digit formatting, dot decimal separator
        row = text.splitlines()[1].split(",")
        assert len(row) == 8
        assert all("," not in v and ("." in v or "e" in v or v == "0")
                   for v in row)

    def test_rerun_is_bit_identical(self, default_cfg, tmp_path):
        cfg = replace(default_cfg, horizon_hours=1.0)
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_output_csv(run(cfg), p1)
        write_output_csv(run(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
