import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_output_invariants
import patina.simulation
from patina.config import build_simulation_config, default_dt_max, load_settings
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
        # fronts times lambda, thicknesses differences of those cm values
        lam = default_cfg.scales.lam
        _, fronts, _ = initialize(default_cfg)
        first = short_run.records[0]
        a, b, beta, gamma = (fronts.a * lam, fronts.b * lam, fronts.beta * lam,
                             fronts.gamma * lam)
        assert first == OutputRecord(0.0, a, b, beta, gamma, a - beta, beta - gamma,
                                     a - gamma)
        assert first.a_cm == default_cfg.a0 * lam

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
        assert fronts.beta == pytest.approx(1.2255e-3, abs=1e-6)
        assert fronts.gamma == pytest.approx(-1.78835e-2, abs=1e-6)
        assert fronts.gamma < fronts.beta < fronts.a

    def test_field_profiles(self, default_cfg):
        u, fronts, model = initialize(default_cfg)
        s_a, o_a = model.forcing_hat(0.0)
        n_outer = default_cfg.n_z + 1
        s, o, g = u[:n_outer], u[n_outer:2 * n_outer], u[2 * n_outer:]
        assert g.size == default_cfg.n_y + 1
        assert s[0] == pytest.approx(s_a)
        assert s[-1] == 0.0
        assert np.all(np.diff(s) < 0)          # linear decay
        assert o[0] == pytest.approx(o_a)
        assert g[-1] == 0.0
        assert g[0] == o[-1]            # interface handoff

    def test_seed_ordering_violation(self, default_cfg):
        bad = replace(default_cfg, a0=1e-2, b0=1e-3)   # beta(0) < 0
        with pytest.raises(ValueError, match="seed violation"):
            initialize(bad)

    def test_zero_forcing_zero_so2_field(self, default_cfg):
        scales = default_cfg.scales
        cfg = replace(default_cfg,
                      forcing=constant_chamber_forcing(0.0, 0.0),
                      scales=scales)
        u, _, _ = initialize(cfg)
        assert np.all(u[:cfg.n_z + 1] == 0.0)

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

    def test_zero_forcing_keeps_seeds(self, default_cfg):
        cfg = replace(default_cfg,
                      forcing=constant_chamber_forcing(0.0, 0.0),
                      horizon_hours=2.0)
        out = run(cfg)
        first, last = out.records[0], out.records[-1]
        lam = cfg.scales.lam
        assert last.a_cm == first.a_cm == cfg.a0 * lam
        assert last.b_cm == first.b_cm == cfg.b0 * lam
        assert last.t_hours == pytest.approx(2.0, rel=1e-9)

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

    def test_seed_halving_insensitivity(self, default_cfg):
        # the 40 h thickness is seed-dominated by less than 2%
        base = run(default_cfg)
        halved = run(replace(default_cfg, a0=default_cfg.a0 / 2,
                             b0=default_cfg.b0 / 2))
        t1 = base.records[-1].total_cm
        t2 = halved.records[-1].total_cm
        assert abs(t2 - t1) / t1 < 0.02

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
        # same run at cfl_target and dt_max / 8 (7315 steps, also landing).
        # Measured: a +1.19e-4, b +5.8e-6; a run whose steps cross the
        # switches is -5.8e-4 and -1.0e-3 off.
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
