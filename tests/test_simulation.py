import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_output_invariants
import patina.convergence
import patina.simulation
from patina.config import build_simulation_config, default_dt_max, load_settings
from patina.convergence import exact_front_errors, exact_fronts
from patina.environment import Forcing, breakpoints, constant_chamber_forcing, cycle_forcing
from patina.materials import DEFAULT_MATERIALS, SwellingRatios, mole_balance, swelling_ratios
from patina.pde_core import Scales
from patina.simulation import (
    OUTPUT_CSV_HEADER,
    OutputRecord,
    SimulationError,
    initialize,
    run,
    write_output_csv,
)


@pytest.fixture(scope="module")
def short_run(default_cfg):
    return run(replace(default_cfg, horizon_hours=4.0))


class TestNondimensionalization:
    def test_front_position_example(self, short_run, default_cfg):
        # the first row is the seed state: positions are the non-dimensional
        # fronts times lambda, thicknesses differences of those cm values; it
        # is the exact solution at SEED_HOURS of exposure
        lam = default_cfg.scales.lam
        _, fronts, _ = initialize(default_cfg)
        first = short_run.records[0]
        a, b, beta, gamma = (fronts.a * lam, fronts.b * lam, fronts.beta * lam,
                             fronts.gamma * lam)
        assert first == OutputRecord(0.0, a, b, beta, gamma, a - beta, beta - gamma,
                                     a - gamma)
        exact = exact_fronts(default_cfg, patina.convergence.SEED_HOURS)
        assert (first.a_cm, first.b_cm, first.total_cm) == tuple(map(float, exact))

    def test_diffusivity_rescaling_arithmetic(self):
        # (t_r/lam^2)*D with t_r = 3600 s, lam = 1e-4 cm, D = 3.96e-5 cm2/s
        assert 3600.0 / 1e-4**2 * 3.96e-5 == pytest.approx(1.4256e7, rel=1e-12)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="t_r"):
            Scales(lam=1e-4, t_r=0.0, s_r=1.0, o_r=1.0)
        with pytest.raises(ValueError, match="s_r"):
            Scales(lam=1e-4, t_r=1.0, s_r=-1.0, o_r=1.0)


class TestInitialize:
    def test_default_seed_geometry(self, default_cfg, sw):
        _, fronts, _ = initialize(default_cfg)
        assert fronts.beta == pytest.approx(6.32287e-2, abs=1e-6)
        assert fronts.gamma == pytest.approx(-2.456376e-1, abs=1e-6)
        assert 0.0 < fronts.beta < fronts.a
        assert fronts.gamma < fronts.beta

    def test_field_profiles(self, default_cfg):
        u, fronts, model = initialize(default_cfg)
        s_a, o_a = model.forcing_hat(0.0)
        n_outer = default_cfg.n_z + 1
        s, o, g = u[:n_outer], u[n_outer:2 * n_outer], u[2 * n_outer:]
        assert g.size == default_cfg.n_y + 1
        assert s[0] == pytest.approx(s_a)
        assert s[-1] == 0.0
        assert np.all(np.diff(s) < 0)          # falls to the consumed end
        assert o[0] == pytest.approx(o_a)
        assert g[-1] == 0.0
        assert g[0] == o[-1]            # interface handoff

    def test_rejects_oxygen_used_up_at_beta(self, default_cfg):
        d = replace(default_cfg.diffusivities, d_o=1e-10)
        with pytest.raises(ValueError, match="oxygen is used up at beta"):
            initialize(replace(default_cfg, diffusivities=d))

    def test_rejects_forcing_without_so2(self, default_cfg):
        # a cycle schedule starting dry, in effect: no SO2 at t = 0
        oxygen = default_cfg.forcing.oxygen
        for forcing in (constant_chamber_forcing(0.0, oxygen),
                        Forcing("time-series", [0.0, 1.0], [0.0, 1e-9], oxygen)):
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
    def test_invariants_on_chamber_run(self, short_run, sw, default_cfg):
        assert_output_invariants(short_run, sw, default_cfg.scales.lam)

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
        assert_output_invariants(out, sw, cfg.scales.lam)
        # growth happens but less than under continuous chamber forcing
        chamber_out = run(replace(default_cfg, horizon_hours=26.0))
        assert 0.0 < (out.records[-1].total_cm - out.records[0].total_cm)
        assert out.records[-1].total_cm < chamber_out.records[-1].total_cm

    def test_chamber_error_does_not_depend_on_seed_time(self, default_cfg, monkeypatch):
        # the 40 h error against exact is the step's, not the seed's: seeded
        # at 0.01 h and at 0.03 h it reads -1.2720e-4 and -1.2699e-4
        # (largest of a, b and the total; a gives it)
        errors = []
        for hours in (0.01, 0.03):
            monkeypatch.setattr(patina.convergence, "SEED_HOURS", hours)
            errors.append(exact_front_errors(default_cfg, run(default_cfg).records[-1]))
        assert max(abs(e1 - e2) for e1, e2 in zip(*errors)) <= 1e-6
        assert max(map(abs, errors[1])) <= 2e-4

    def test_output_does_not_depend_on_the_length_scale(self, default_cfg):
        # lambda_cm only scales the non-dimensional problem: the records in cm
        # and the steps agree for every lambda (measured: within 6.7e-15, 2123
        # steps each at 10 h; the linear-profile start moved them by 2.2e-5)
        outs = [run(replace(default_cfg, scales=replace(default_cfg.scales, lam=lam),
                            horizon_hours=10.0)) for lam in (5e-5, 1e-4, 2e-4)]
        assert len({out.steps for out in outs}) == 1
        for out in outs[::2]:
            np.testing.assert_allclose(np.array(out.records), np.array(outs[1].records),
                                       rtol=1e-13, atol=0.0)

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


def _recorded_steps(cfg, monkeypatch):
    """The run's output, the (tau, dt) of each of its steps, taken where the
    time loop calls the stepper, and the CFL bound select_dt gave each."""
    steps, bounds = [], []
    step = patina.simulation.imex_midpoint_step
    select_dt = patina.simulation.select_dt

    def recording(u, fs, tau, dt, *args, **kwargs):
        steps.append((tau, dt))
        return step(u, fs, tau, dt, *args, **kwargs)

    def recording_bound(*args, **kwargs):
        bounds.append(select_dt(*args, **kwargs))
        return bounds[-1]

    monkeypatch.setattr(patina.simulation, "imex_midpoint_step", recording)
    monkeypatch.setattr(patina.simulation, "select_dt", recording_bound)
    return run(cfg), steps, bounds


class TestStepControl:
    @pytest.mark.parametrize("forcing", [
        cycle_forcing(4.99e-7, wet_hours=2.5, dry_hours=1.5),
        Forcing("time-series", [0.0, 0.4, 1.0, 2.7, 3.0, 5.5, 9.0, 20.0],
                [4e-11, 1e-10, 2e-11, 3e-10, 0.0, 8e-11, 5e-11, 1e-10], 2.6e-4),
    ], ids=["cycles", "time-series"])
    def test_steps_land_on_every_breakpoint(self, default_cfg, forcing, monkeypatch):
        # t_r is one hour, so tau reads in hours
        cfg = replace(default_cfg, forcing=forcing, horizon_hours=12.0, n_z=25, n_y=25)
        assert cfg.scales.t_r == 3600.0
        breaks = breakpoints(forcing, cfg.horizon_hours)
        assert len(breaks) >= 5
        out, steps, bounds = _recorded_steps(cfg, monkeypatch)
        starts = [tau for tau, _ in steps]
        for b in breaks:
            # the step that follows starts on the break itself, not near it
            k = starts.index(b)
            tau, dt = steps[k - 1]
            assert tau + dt == pytest.approx(b, rel=1e-14)
            # no sliver: the landing step is at least half of the one before
            assert dt >= 0.5 * steps[k - 2][1]
        assert not [(tau, dt) for tau, dt in steps for b in breaks
                    if tau < b < (tau + dt) * (1.0 - 1e-14)]
        assert out.records[-1].t_hours == pytest.approx(12.0, rel=1e-12)
        # the run counts one landing per break, and as splits the steps cut
        # below their bound that end short of a break
        landing = [any(tau + dt == pytest.approx(b, rel=1e-14) for b in breaks)
                   for tau, dt in steps]
        assert out.landings == sum(landing) == len(breaks)
        cut = [dt < min(bound, 12.0 - tau) for (tau, dt), bound in zip(steps, bounds)]
        assert out.splits == sum(c and not lands for c, lands in zip(cut, landing)) > 0

    def test_cycles_match_a_refined_run(self, default_cfg):
        # 48 h of 8 h wet / 16 h dry cycles on a 25 x 25 grid, against the
        # same run at cfl_target and dt_max / 8 (4652 steps, also landing).
        # Measured: a -9.2e-5, b +9.99e-6 (from the linear-profile start,
        # a +1.19e-4 and b +5.8e-6, and a run whose steps crossed the
        # switches -5.8e-4 and -1.0e-3).
        cfg = replace(default_cfg, forcing=cycle_forcing(float(default_cfg.forcing.so2[0]),
                                                         default_cfg.forcing.oxygen),
                      horizon_hours=48.0, n_z=25, n_y=25)
        fine = run(replace(cfg, cfl_target=cfg.cfl_target / 8, dt_max=cfg.dt_max / 8)).records[-1]
        shipped = run(cfg).records[-1]
        assert abs(shipped.a_cm / fine.a_cm - 1.0) <= 1.5e-4
        assert abs(shipped.b_cm / fine.b_cm - 1.0) <= 1e-5

    @pytest.mark.parametrize("t_r, mode, csv_times, expected", [
        ("3600", "chamber", None, 0.25),
        ("3600", "cycles", None, 0.25),
        ("3600", "timeseries", [0, 1, 2, 3], 1.0),
        ("3600", "timeseries", [0, 1, 3.5, 4], 2.5),
        ("1800", "timeseries", [0, 1, 2, 3], 2.0),   # tau counts half hours
        ("3600", "timeseries", [0], 0.25),
    ])
    def test_blank_dt_max_is_derived_from_the_forcing(self, tmp_path, t_r, mode,
                                                      csv_times, expected):
        text = f"[scales]\nt_r_s = {t_r}\n[forcing]\nmode = {mode}\n"
        if csv_times is not None:
            (tmp_path / "env.csv").write_text(
                "time_hours,so2_ugm3,temp_c,rh_percent\n"
                + "".join(f"{t},10,20,60\n" for t in csv_times))
            text += "env_csv = env.csv\n"
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        cfg = build_simulation_config(load_settings(cfgfile))
        assert cfg.dt_max == expected == default_dt_max(cfg.forcing, cfg.scales.t_r)
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
