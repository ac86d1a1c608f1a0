import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import patina
import patina.calibration
import patina.cli
import patina.config
import patina.convergence
import patina.simulation
from patina.cli import run_main
from patina.convergence import MIN_TEMPORAL_ORDER
from patina.materials import SwellingRatios, swelling_ratios


def _svg_ok(path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    tags = {el.tag.split("}")[-1] for el in root.iter()}
    assert "polyline" in tags       # at least one line series
    assert "text" in tags           # axis labels and legend
    assert "line" in tags           # ticks


def test_simulate_chamber(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_main(["simulate", "--chamber", "--horizon-hours", "2",
                     "--out", str(out)])
    assert code == 0
    csv_path = out / "simulation.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t_hours,a_cm,b_cm,beta_cm,gamma_cm,h_p_cm,h_b_cm,total_cm"
    assert len(lines) > 3
    _svg_ok(out / "fronts.svg")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["tool_version"]
    assert manifest["resolved_config"]["diffusivities"]["d_s"] == "4.98071e-06"
    assert manifest["resolved_config"]["time"]["horizon_hours"] == "2.0"
    assert manifest["duration_seconds"] > 0
    assert "calibration" not in manifest
    # constant forcing has no breakpoint to land on
    steps = int(capsys.readouterr().out.split(" in ")[1].split()[0])
    assert manifest["run"] == {"steps": steps, "rejected": 0, "landings": 0,
                               "field_clamps": 0, "velocity_clamps": 0}


def test_simulate_manifest_counts_a_landing_on_every_cycle_switch(tmp_path):
    # 480 h of 8 h wet / 16 h dry cycles switch 39 times before the horizon
    out = tmp_path / "run"
    assert run_main(["simulate", "--cycles", "--horizon-hours", "480",
                     "--out", str(out)]) == 0
    totals = json.loads((out / "manifest.json").read_text())["run"]
    assert totals["landings"] == 39
    assert totals["field_clamps"] > 0


def test_a_collapsing_step_fails_fast(tmp_path, monkeypatch, capsys):
    # every step's error estimate above the tolerance: the step control
    # shrinks dt by MIN_SHRINK per attempt and gives up once it falls below
    # MIN_STEP_FRACTION of the exposure, long before the max_steps budget
    step = patina.simulation.imex_midpoint_step
    attempts = []

    def rejected(u, fs, t, dt, model):
        new, fs_new, _, fields, fronts = step(u, fs, t, dt, model)
        attempts.append(dt)
        return new, fs_new, 1.0, fields, fronts

    monkeypatch.setattr(patina.simulation, "imex_midpoint_step", rejected)
    code = run_main(["simulate", "--cycles", "--horizon-hours", "48",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "step collapse at t = 0 h" in capsys.readouterr().err
    assert len(attempts) <= 24
    assert all(later <= 0.2 * earlier for earlier, later in zip(attempts, attempts[1:]))


def test_manifest_records_the_settings_that_built_the_run(tmp_path):
    manifests, csvs = [], []
    for ppm in ("100", "150"):
        cfgfile = tmp_path / f"so2_{ppm}.ini"
        cfgfile.write_text(f"[forcing]\nso2_ppm = {ppm}\n")
        out = tmp_path / ppm
        assert run_main(["simulate", "--chamber", "--horizon-hours", "1",
                         "--config", str(cfgfile), "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text())["resolved_config"])
        csvs.append((out / "simulation.csv").read_bytes())
    assert csvs[0] != csvs[1]
    assert [m["forcing"]["so2_ppm"] for m in manifests] == ["100", "150"]
    assert manifests[0]["forcing"]["mode"] == "chamber"


def test_simulate_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_main(["simulate", "--chamber", "--horizon-hours", "1",
                     "--out", str(out1)]) == 0
    assert run_main(["simulate", "--chamber", "--horizon-hours", "1",
                     "--out", str(out2)]) == 0
    assert (out1 / "simulation.csv").read_bytes() == \
        (out2 / "simulation.csv").read_bytes()


def test_simulate_missing_env_file(tmp_path, capsys):
    code = run_main(["simulate", "--env", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_simulate_zero_horizon(tmp_path, capsys):
    code = run_main(["simulate", "--chamber", "--horizon-hours", "0",
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "horizon must be positive" in capsys.readouterr().err


def test_simulate_env_timeseries(tmp_path):
    env = tmp_path / "env.csv"
    rows = ["time_hours,so2_ugm3,temp_c,rh_percent"]
    rows += [f"{t},10,20,60" for t in range(0, 5)]
    env.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    code = run_main(["simulate", "--env", str(env), "--horizon-hours", "4",
                     "--out", str(out)])
    assert code == 0
    assert (out / "simulation.csv").exists()
    # one landing on each sample inside the horizon: 1, 2 and 3 h
    assert json.loads((out / "manifest.json").read_text())["run"]["landings"] == 3


def test_one_sample_series_never_lands_on_its_sample(tmp_path):
    # one row is constant forcing wherever its time lies: no landing, and the
    # run of a row at 5 h is the run of the same row at 0 h
    runs = []
    for hours in (5, 0):
        env = tmp_path / f"env{hours}.csv"
        env.write_text(f"time_hours,so2_ugm3,temp_c,rh_percent\n{hours},10,20,60\n")
        out = tmp_path / f"run{hours}"
        assert run_main(["simulate", "--env", str(env), "--horizon-hours", "10",
                         "--out", str(out)]) == 0
        runs.append((json.loads((out / "manifest.json").read_text())["run"],
                     (out / "simulation.csv").read_bytes()))
    assert runs[0][0]["landings"] == 0
    assert runs[0] == runs[1]


# configs whose forcing at t = 0 has no exact solution to seed on, and the
# message each gives: no SO2, no oxygen, and oxygen used up at beta by a d_o
# too small to resupply it
NO_SEED = {
    "no_so2": ("[forcing]\nso2_ppm = 0\n", "needs nonzero SO2 and O2 forcing"),
    "no_oxygen": ("[forcing]\noxygen_gcm3 = 0\n", "needs nonzero SO2 and O2 forcing"),
    "oxygen_used_up": ("[diffusivities]\nd_o = 1e-10\n", "oxygen is used up at beta"),
}


@pytest.mark.parametrize("command, case", [
    ("simulate", "no_so2"), ("simulate", "no_oxygen"), ("simulate", "oxygen_used_up"),
    ("validate", "no_so2"), ("validate", "no_oxygen"), ("validate", "oxygen_used_up"),
    ("convergence", "no_so2"),
], ids=lambda v: v)
def test_rejects_forcing_without_exact_solution(tmp_path, monkeypatch, capsys, command, case):
    # an input error (exit 1) raised by the seed, before any step: the
    # oxygen-starved run used to step through its whole budget
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(patina.simulation, "imex_midpoint_step", no_step)
    text, message = NO_SEED[case]
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfgfile)]
    code = run_main(argv + (["--out", str(out)] if command == "simulate" else []))
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_cli(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(
        "[grid]\nn_z = 40\nn_y = 40\n"
        "[calibration]\nbudget = 25\n"
    )
    meas = tmp_path / "m.csv"
    meas.write_text("time_hours,thickness_cm,std_cm\n"
                    "8,5.4418e-4,1.7331e-4\n")
    out = tmp_path / "cal"
    code = run_main(["calibrate", "--config", str(cfgfile),
                     "--measurements", str(meas), "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 2)   # budget may or may not be exhausted
    assert "under-determined" in captured.err
    lines = (out / "calibration.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "time_hours,measured_cm,std_cm,predicted_cm"
    assert len(data) == 2
    # one measurement gives a 1x3 Jacobian: one direction, one fitted parameter
    header = dict(ln[2:].split(" = ") for ln in lines if ln.startswith("# "))
    assert len(header["singular_values"].split()) == 1
    assert float(header["condition"]) == 1.0
    fitted = header["fitted"].split()
    assert len(fitted) == 1 and fitted[0] in ("d_g", "d_s", "d_o")
    _svg_ok(out / "comparison.svg")
    manifest = json.loads((out / "calibration_manifest.json").read_text())
    assert manifest["calibration"]["fitted"] == fitted
    assert manifest["resolved_config"]["calibration"]["budget"] == "25"
    assert manifest["resolved_config"]["grid"] == {"n_z": "40", "n_y": "40"}
    assert manifest["resolved_config"]["time"]["dt_max"] == "0.25"
    assert len(manifest["calibration"]["singular_values"]) == 1


def test_calibration_csv_prints_round_off_singular_values_as_zero(tmp_path):
    # on the shipped chamber data the starting Jacobian has one direction
    # and two round-off singular values: the CSV prints those as 0 and the
    # condition as inf, the manifest keeps what was measured
    out = tmp_path / "cal"
    assert run_main(["calibrate", "--measurements", "data/thickness_measures.csv",
                     "--out", str(out)]) == 0
    lines = (out / "calibration.csv").read_text().splitlines()
    header = dict(ln[2:].split(" = ") for ln in lines if ln.startswith("# "))
    largest, *rest = header["singular_values"].split()
    assert float(largest) > 0.0 and rest == ["0", "0"]
    assert header["condition"] == "inf"
    measured = json.loads((out / "calibration_manifest.json").read_text())["calibration"]
    sv = measured["singular_values"]
    assert float(largest) == pytest.approx(sv[0], rel=1e-5)
    assert max(sv[1:]) < 1e-2 * sv[0] and any(sv[1:])


def test_calibration_manifest_is_strict_json_when_a_jacobian_column_fails(tmp_path,
                                                                           monkeypatch):
    # no exact solution off the default d_o: the starting Jacobian's d_o
    # column fails and is zero, its smallest singular value exactly 0; the
    # manifest still parses without the non-standard Infinity or NaN
    d_o = patina.config.build_simulation_config(patina.config.load_settings()).diffusivities.d_o
    similarity = patina.convergence.similarity

    def failing(cfg):
        if cfg.diffusivities.d_o != d_o:
            raise ValueError("no similarity solution off the default d_o")
        return similarity(cfg)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setattr(patina.convergence, "similarity", failing)
    out = tmp_path / "cal"
    assert run_main(["calibrate", "--measurements", "data/thickness_measures.csv",
                     "--out", str(out)]) == 0
    text = (out / "calibration_manifest.json").read_text()
    calibration = json.loads(text, parse_constant=reject)["calibration"]
    assert calibration["singular_values"][-1] == 0.0


def test_cycles_without_a_dry_phase_calibrate_as_the_chamber(tmp_path):
    # constant SO2 is scored on the exact solution whatever the config's mode
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text("[forcing]\ndry_hours = 0\n")
    written = []
    for flag in ("--chamber", "--cycles"):
        out = tmp_path / flag.lstrip("-")
        assert run_main(["calibrate", flag, "--config", str(cfgfile), "--measurements",
                         "data/thickness_measures.csv", "--out", str(out)]) == 0
        written.append((out / "calibration.csv").read_bytes())
    assert written[0] == written[1]


def test_calibrate_oxygen_starved_start_fails_before_any_run(tmp_path, capsys, monkeypatch):
    # the warm start has no exact solution when oxygen is used up at beta,
    # so the command stops there instead of stepping a collapsing run
    runs = []
    monkeypatch.setattr(patina.calibration, "run", runs.append)
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text("[diffusivities]\nd_o = 1e-10\n")
    code = run_main(["calibrate", "--config", str(cfgfile), "--measurements",
                     "data/thickness_measures.csv", "--out", str(tmp_path / "cal")])
    assert code == 1
    assert "oxygen is used up at beta" in capsys.readouterr().err
    assert runs == []


def test_calibrate_empty_measurements(tmp_path, capsys):
    meas = tmp_path / "m.csv"
    meas.write_text("")
    code = run_main(["calibrate", "--measurements", str(meas),
                     "--out", str(tmp_path / "o")])
    assert code == 1


def test_validate_default_gate(tmp_path, capsys):
    code = run_main(["validate", "--chamber", "--horizon-hours", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "stoichiometry gate passed" in captured.out
    assert "copper/cuprite ratio" in captured.out


def test_validate_detects_broken_swelling(tmp_path, capsys, monkeypatch):
    # front kinematics built with an omega_b 10 % off the material table
    def broken(mat):
        sw = swelling_ratios(mat)
        return SwellingRatios(sw.omega_p, 1.1 * sw.omega_b)

    monkeypatch.setattr(patina.simulation, "swelling_ratios", broken)
    code = run_main(["validate", "--chamber", "--horizon-hours", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert "FAILED" in captured.err


def test_convergence_command(monkeypatch, capsys):
    # the ladder's pairs as measured on the default config (criterion 4 runs
    # the real ladder); the shipped chamber run against the exact solution
    # is run here
    monkeypatch.setattr(patina.cli, "exact_temporal_errors", lambda cfg: [
        (1.0, 5.176e-4), (0.5, 4.237e-6), (0.25, 5.122e-7), (0.125, 8.955e-8)])
    code = run_main(["convergence"])
    out = capsys.readouterr().out
    assert code == 0
    # one temporal ladder with its order lines, then the shipped chamber
    # run against the exact solution
    moving = out.index("temporal, moving fronts")
    exact = out.index("chamber run against the exact solution at 40 h")
    assert out.count("temporal, ") == 1
    assert out[moving:exact].count("order ") == 3
    errors = re.search(r"error a (\S+), b (\S+), total (\S+)\n", out[exact:]).groups()
    assert max(abs(float(e)) for e in errors) < 6e-4
    assert "temporal order" in out and f">= {MIN_TEMPORAL_ORDER}" in out


def test_convergence_command_fails_on_zero_errors(monkeypatch, capsys):
    # a stepper that changes nothing at any dt has zero error, not order inf
    monkeypatch.setattr(patina.cli, "exact_temporal_errors",
                        lambda cfg: [(1.0, 0.0), (0.5, 0.0), (0.25, 0.0)])
    assert run_main(["convergence"]) == 3
    err = capsys.readouterr().err
    assert "order not measurable" in err and "error 0.0 at h = 1.0" in err


def test_unknown_config_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[grid]\nn_q = 7\n")
    code = run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


# configparser's own default section would drop the first file's horizon
# and read the second's n_z into [grid]
@pytest.mark.parametrize("text", ["[DEFAULT]\nhorizon_hours = 1\n",
                                  "[DEFAULT]\nn_z = 13\n[grid]\n"],
                         ids=["alone", "before-grid"])
def test_a_default_section_is_unknown(tmp_path, capsys, text):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(text)
    code = run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "tolerance = 1e-4\n[time]\n",
    "[time]\ntolerance = 1e-4\n[time]\n",
    "[time]\ntolerance = 1e-4\ntolerance = 1e-5\n",
    "[time]\ntolerance 1e-4\n",
], ids=["key-before-any-section", "section-twice", "key-twice", "line-without-equals"])
def test_malformed_config_is_an_input_error(tmp_path, capsys, text):
    # configparser's own errors end in a one-line message, not a traceback
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(text)
    code = run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"patina: {cfgfile}: bad config file: ") and err.count("\n") == 1


@pytest.mark.parametrize("section, key", [
    ("diffusivities", "d_w"), ("forcing", "rh_percent"),
    ("forcing", "dry_temp_c"), ("forcing", "dry_rh_percent"),
    ("calibration", "tie_dw_ds"),
])
def test_removed_water_keys_are_unknown(tmp_path, capsys, section, key):
    cfgfile = tmp_path / "old.ini"
    cfgfile.write_text(f"[{section}]\n{key} = 1\n")
    code = run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["weighting", "spread_tol"])
def test_removed_calibration_keys_are_unknown(tmp_path, capsys, key):
    cfgfile = tmp_path / "old.ini"
    cfgfile.write_text(f"[calibration]\n{key} = 1\n")
    code = run_main(["calibrate", "--measurements", "data/thickness_measures.csv",
                     "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, flag", [
    ("time", "dt_max", "--chamber"), ("time", "tolerance", "--chamber"),
    ("forcing", "wet_hours", "--cycles"), ("forcing", "dry_hours", "--cycles"),
    ("forcing", "dry_so2_gcm3", "--cycles"),
])
def test_non_finite_setting_is_an_input_error(tmp_path, capsys, section, key, flag):
    cfgfile = tmp_path / "nan.ini"
    cfgfile.write_text(f"[{section}]\n{key} = nan\n")
    code = run_main(["simulate", flag, "--horizon-hours", "48", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["validate"], ["calibrate", "--measurements", "data/thickness_measures.csv"],
])
@pytest.mark.parametrize("flags", [
    ["--chamber", "--cycles"], ["--chamber", "--env", "e.csv"], ["--cycles", "--env", "e.csv"],
])
def test_forcing_flags_are_mutually_exclusive(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(command + flags)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


# [scales] rescaled the model, which is solved in cm, hours and g/cm3
@pytest.mark.parametrize("section, key", [
    ("validation", "omega_p_scale"), ("validation", "omega_b_scale"),
    ("scales", "w_r_gcm3"), ("scales", "lambda_cm"),
])
def test_removed_fault_injection_keys_are_unknown(tmp_path, capsys, section, key):
    cfgfile = tmp_path / "old.ini"
    cfgfile.write_text(f"[{section}]\n{key} = 1\n")
    code = run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"unknown config section [{section}]" in capsys.readouterr().err


def test_removed_material_key_is_unknown(tmp_path, capsys):
    # rho_s left the table; override_file named the former material file format
    cfgfile = tmp_path / "run.ini"
    for key, value in (("rho_s", "1.46"), ("override_file", "mat.txt")):
        cfgfile.write_text(f"[materials]\n{key} = {value}\n")
        code = run_main(["simulate", "--chamber", "--config", str(cfgfile),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"unknown key {key!r} in [materials]" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("grid", "n_z"), ("materials", "rho_b"),
                                          ("materials", "M_c"), ("time", "dt_max")])
def test_bad_number_names_file_section_and_key(tmp_path, capsys, section, key):
    # configparser lowercases keys; the message spells M_c as MaterialTable does
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(f"[{section}]\n{key} = ten\n")
    code = run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{cfgfile}: [{section}] {key}: bad number 'ten'" in capsys.readouterr().err


def test_step_budget_below_one_is_an_input_error(tmp_path, capsys):
    # a budget of 0 used to exit 2 with "step budget 0 exhausted"
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[time]\nmax_steps = 0\n")
    assert run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 1
    assert "max_steps must be at least 1" in capsys.readouterr().err


def test_blank_number_is_bad(tmp_path, capsys):
    # only a number whose default is blank (dt_max) may be left blank
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[time]\ntolerance =\n")
    assert run_main(["simulate", "--chamber", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 1
    assert "[time] tolerance: bad number ''" in capsys.readouterr().err


def test_unused_chamber_so2_does_not_stop_a_time_series_run(tmp_path, monkeypatch):
    # a time series brings its own SO2, so a zero [forcing] so2_ppm, which
    # only chamber and cycles forcing read, changes nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "env.csv").write_text(
        "time_hours,so2_ugm3,temp_c,rh_percent\n0,10,20,60\n1,30,20,60\n2,20,20,60\n")
    (tmp_path / "no_so2.ini").write_text("[forcing]\nso2_ppm = 0\n")
    assert run_main(["simulate", "--env", "env.csv", "--horizon-hours", "2",
                     "--out", "default"]) == 0
    assert run_main(["simulate", "--env", "env.csv", "--horizon-hours", "2",
                     "--config", "no_so2.ini", "--out", "no_so2"]) == 0
    assert ((tmp_path / "no_so2" / "simulation.csv").read_bytes()
            == (tmp_path / "default" / "simulation.csv").read_bytes())


@pytest.mark.parametrize("forcing, dt_max", [
    (["--chamber"], "0.25"), (["--env", "env.csv"], "1.0"),
    (["--env", "env.csv", "--config", "capped.ini"], "0.5"),
])
def test_manifest_records_the_dt_max_the_run_used(tmp_path, monkeypatch, forcing, dt_max):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "env.csv").write_text(
        "time_hours,so2_ugm3,temp_c,rh_percent\n0,10,20,60\n1,10,20,60\n")
    (tmp_path / "capped.ini").write_text("[time]\ndt_max = 0.5\n")
    assert run_main(["simulate", "--horizon-hours", "0.5", "--out", "o"] + forcing) == 0
    settings = json.loads((tmp_path / "o" / "manifest.json").read_text())["resolved_config"]
    assert settings["time"]["dt_max"] == dt_max


@pytest.mark.parametrize("argv, section, key, value", [
    (["simulate", "--chamber"], "forcing", "mode", "chamber"),
    (["simulate", "--cycles"], "forcing", "mode", "cycles"),
    (["simulate", "--env", "e%1.csv"], "forcing", "mode", "timeseries"),
    (["simulate", "--env", "e%1.csv"], "forcing", "env_csv", "e%1.csv"),
    (["simulate", "--env", ""], "forcing", "mode", "timeseries"),
    (["simulate", "--horizon-hours", "12.5"], "time", "horizon_hours", "12.5"),
    (["validate", "--chamber"], "forcing", "mode", "chamber"),
    (["calibrate", "--measurements", "m.csv", "--env", "e.csv"], "forcing", "env_csv", "e.csv"),
    (["validate", "--horizon-hours", "1e-3"], "time", "horizon_hours", "0.001"),
    (["calibrate", "--measurements", "m.csv", "--cycles"], "forcing", "mode", "cycles"),
])
def test_flags_are_written_into_the_settings(tmp_path, monkeypatch, argv, section, key,
                                            value):
    # the config's mode differs from every forcing flag's
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[forcing]\nmode = timeseries\nenv_csv = x.csv\n")
    built = []
    monkeypatch.setattr(patina.cli, "build_simulation_config", built.append)
    args = patina.cli._build_parser().parse_args(argv + ["--config", str(cfgfile)])
    cp, _ = patina.cli._sim_config(args)
    assert built == [cp]
    assert cp.get(section, key) == value


def test_flags_land_in_the_built_config():
    args = patina.cli._build_parser().parse_args(
        ["simulate", "--cycles", "--horizon-hours", "0.1"])
    _, cfg = patina.cli._sim_config(args)
    forcing = cfg.forcing
    assert (list(forcing.times), forcing.wet_hours, forcing.dry_hours, cfg.horizon_hours) == \
        ([0.0], 8.0, 16.0, 0.1)


def test_convergence_runs_the_chamber_mode_of_its_config(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[forcing]\nmode = cycles\n")
    forcings = []
    errors = [(0.02, 4e-4), (0.01, 1e-4)]
    monkeypatch.setattr(patina.cli, "exact_temporal_errors",
                        lambda cfg: forcings.append(cfg.forcing) or errors)
    assert run_main(["convergence", "--config", str(cfgfile)]) == 0
    [forcing] = forcings
    assert (forcing.constant, forcing.dry_hours) == (True, 0.0)


def test_percent_in_a_file_name_is_plain_text(tmp_path):
    # config values and --env paths are not interpolated
    env = tmp_path / "env%1.csv"
    env.write_text("time_hours,so2_ugm3,temp_c,rh_percent\n0,10,20,60\n1,10,20,60\n")
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[forcing]\nmode = timeseries\nenv_csv = env%1.csv\n")
    for argv in (["--config", str(cfgfile)], ["--env", str(env)]):
        out = tmp_path / "o"
        assert run_main(["simulate", "--horizon-hours", "1", "--out", str(out)] + argv) == 0
        digests = json.loads((out / "manifest.json").read_text())["input_digests"]
        assert str(env) in digests


# one small file of each input; the config's settings differ from the
# defaults, so its CSVs show it was read
INPUT_FILES = pytest.mark.parametrize("command, flag, text", [
    ("simulate", "--env",
     "time_hours,so2_ugm3,temp_c,rh_percent\n0,10,20,60\n1,30,20,60\n2,10,20,60\n"),
    ("calibrate", "--measurements",
     "time_hours,thickness_cm,std_cm\n8,5.4418e-4,1.7331e-4\n40,13.2522e-4,2.4102e-4\n"),
    ("simulate", "--config", "[grid]\nn_z = 13\n[forcing]\nmode = cycles\n"),
], ids=["env", "measurements", "config"])


def _written(tmp_path, name, command, flag, data: bytes):
    # the CSV that a run on an input file of bytes ``data`` writes
    csv = "calibration.csv" if command == "calibrate" else "simulation.csv"
    horizon = ["--horizon-hours", "2"] if command == "simulate" else []
    path = tmp_path / f"{name}.in"
    path.write_bytes(data)
    out = tmp_path / name
    assert run_main([command, flag, str(path), "--out", str(out)] + horizon) == 0
    return (out / csv).read_bytes()


@INPUT_FILES
def test_a_byte_order_mark_reads_as_the_plain_file(tmp_path, command, flag, text):
    # spreadsheet exports start a UTF-8 file with a byte-order mark
    plain = _written(tmp_path, "plain", command, flag, text.encode("utf-8"))
    assert _written(tmp_path, "bom", command, flag, ("\ufeff" + text).encode("utf-8")) == plain


@INPUT_FILES
def test_crlf_and_cr_line_ends_read_as_the_plain_file(tmp_path, command, flag, text):
    # Windows exports end lines in CRLF, old Mac ones in a lone CR
    plain = _written(tmp_path, "plain", command, flag, text.encode("utf-8"))
    for name, end in (("crlf", "\r\n"), ("cr", "\r")):
        data = text.replace("\n", end).encode("utf-8")
        assert _written(tmp_path, name, command, flag, data) == plain


@INPUT_FILES
def test_a_line_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys, command, flag,
                                                          text):
    # a Latin-1 comment on line 2 of a file that is otherwise plain ASCII
    first, rest = text.split("\n", 1)
    path = tmp_path / "latin1.in"
    path.write_bytes(f"{first}\n# café\n{rest}".encode("latin-1"))
    assert run_main([command, flag, str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"patina: {path}: line 2: 'utf-8' codec")


def test_a_two_column_series_runs_as_the_four_column_file(tmp_path):
    # the environment CSV is read for time and SO2 alone
    four = "time_hours,so2_ugm3,temp_c,rh_percent\n0,10,20,60\n1,30,21,55\n2,10,22,50\n"
    two = "".join(",".join(line.split(",")[:2]) + "\n" for line in four.splitlines())
    assert _written(tmp_path, "two", "simulate", "--env", two.encode()) == \
        _written(tmp_path, "four", "simulate", "--env", four.encode())


@pytest.mark.parametrize("argv", [
    ["simulate", "--chamber", "--central-advection"],
    ["convergence", "--central-advection"],
    ["validate", "--out", "o"],
    ["simulate", "--seed-a", "0.1"],
    ["simulate", "--seed-b", "3e-2"],
    ["convergence", "--out", "o"],
])
def test_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_manifest_digests_include_a_config_named_env_csv(tmp_path):
    env = tmp_path / "env.csv"
    env.write_text("time_hours,so2_ugm3,temp_c,rh_percent\n0,10,20,60\n1,10,20,60\n")
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[forcing]\nmode = timeseries\nenv_csv = env.csv\n")
    out = tmp_path / "o"
    assert run_main(["simulate", "--horizon-hours", "1", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
    digests = json.loads((out / "manifest.json").read_text())["input_digests"]
    assert set(digests) == {str(cfgfile), str(env)}


def test_manifest_digests_are_the_sha256_of_the_files(tmp_path):
    # the digests come from the interpreter's builtin sha256, not hashlib;
    # both must give the same hex digest of each file the run read
    env = tmp_path / "env.csv"
    env.write_text("# station\ntime_hours,so2_ugm3,temp_c,rh_percent\n0,10,20,60\n1,12,21,55\n")
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[forcing]\nmode = timeseries\nenv_csv = env.csv\n")
    out = tmp_path / "o"
    assert run_main(["simulate", "--horizon-hours", "1", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
    digests = json.loads((out / "manifest.json").read_text())["input_digests"]
    assert digests == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (cfgfile, env)}


def test_import_loads_neither_scipy_nor_hashlib_nor_the_calibration_layer():
    # scipy's LAPACK extension is loaded without scipy's package __init__,
    # the digests take the builtin sha256, and patina.calibration is loaded
    # on first use of one of its names on the package or by calibrate
    code = """
import sys, patina.cli
loaded = [m for m in ("scipy", "hashlib", "_hashlib", "patina.calibration")
          if m in sys.modules]
assert not loaded, loaded
import patina
names = ("calibrate", "residual", "CalibrationResult", "ThicknessMeasurement")
served = [getattr(patina, n) for n in names]
assert served == [getattr(sys.modules["patina.calibration"], n) for n in names]
star = {}
exec("from patina import *", star)
assert set(patina.__all__) <= set(star) and set(names) <= set(dir(patina))
try:
    patina.nope
except AttributeError as exc:
    assert str(exc) == "module 'patina' has no attribute 'nope'", exc
else:
    sys.exit("patina.nope resolved")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _run_in_fresh_process(argv, modules):
    """Exit code and stderr of ``run_main(argv)`` in a new interpreter, which
    fails if any of ``modules`` is loaded after the run."""
    code = ("import sys, patina.cli\n"
            "code = patina.cli.run_main(sys.argv[2:])\n"
            "loaded = [m for m in sys.argv[1].split(',') if m in sys.modules]\n"
            "sys.exit(f'exit {code}, loaded {loaded}' if code or loaded else 0)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code, ",".join(modules), *argv],
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr


def test_simulate_leaves_scipy_linalg_and_optimize_unloaded(tmp_path):
    # a run takes dgtsv from scipy's LAPACK extension alone, and the package
    # prints its warnings without the logging module
    code, err = _run_in_fresh_process(
        ["simulate", "--chamber", "--horizon-hours", "1", "--out", str(tmp_path / "run")],
        ("scipy.linalg", "scipy.optimize", "logging"))
    assert code == 0, err


def test_calibrate_leaves_scipy_linalg_and_optimize_unloaded(tmp_path):
    # the fit needs numpy alone: singular values, subset selection and the
    # Gauss-Newton steps all come from numpy.linalg
    cfgfile = tmp_path / "grid.ini"
    cfgfile.write_text("[grid]\nn_z = 10\nn_y = 10\n")
    data = os.path.join(os.path.dirname(__file__), os.pardir, "data", "thickness_measures.csv")
    code, err = _run_in_fresh_process(
        ["calibrate", "--measurements", os.path.abspath(data), "--config", str(cfgfile),
         "--out", str(tmp_path / "cal")],
        ("scipy.linalg", "scipy.optimize"))
    assert code == 0, err


@pytest.mark.parametrize("module", ["patina", "patina.cli"])
def test_python_m_runs_the_command_line(module):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", module, "--version"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"patina {patina.__version__}\n"
