"""Tests of the benchmark itself: its output checks and its tracing."""

import json
import math
import os
import subprocess
import sys
import types

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402

MEASUREMENTS = [(8.0, 5.4418e-4, 1.7331e-4), (24.0, 9.2672e-4, 1.8473e-4),
                (40.0, 13.2522e-4, 2.4102e-4)]

OMEGA_P = checks.MU_COPPER / (2 * checks.MU_CUPRITE) - 1
OMEGA_B = checks.MU_CUPRITE / (2 * checks.MU_BROCHANTITE) - 1


def sqrt_growth_rows(total_at_40h=1.25e-3, hours=40.0, n=160, seed_hours=0.0):
    """Kinematically consistent fronts growing like sqrt(t + seed_hours), in cm.

    With a positive ``seed_hours`` the rows start at t = 0.
    """
    rows = []
    for k in range(0 if seed_hours > 0.0 else 1, n + 1):
        t = hours * k / n
        total = total_at_40h * math.sqrt((t + seed_hours) / 40.0)
        a = total / ((1 + OMEGA_P) * (1 + 0.5 * OMEGA_B))
        b = 0.5 * (1 + OMEGA_P) * a
        beta, gamma = b - OMEGA_P * a, -(OMEGA_P * a + OMEGA_B * b)
        rows.append({"t_hours": t, "a_cm": a, "b_cm": b, "beta_cm": beta,
                     "gamma_cm": gamma, "h_p_cm": a - beta, "h_b_cm": beta - gamma,
                     "total_cm": a - gamma})
    return rows


def test_consistent_sqrt_growth_passes_the_chamber_checks():
    assert checks.check_chamber(sqrt_growth_rows(), MEASUREMENTS) == []


def test_swapped_fronts_fail():
    rows = sqrt_growth_rows()
    for r in rows:
        r["beta_cm"], r["gamma_cm"] = r["gamma_cm"], r["beta_cm"]
    failures = checks.check_chamber(rows, MEASUREMENTS)
    assert any("front order" in f for f in failures)


def test_total_outside_one_std_fails():
    failures = checks.check_chamber(sqrt_growth_rows(total_at_40h=2.0e-3), MEASUREMENTS)
    assert any("outside" in f for f in failures)


def test_decreasing_b_fails():
    rows = sqrt_growth_rows()
    rows[50]["b_cm"] = 0.5 * rows[49]["b_cm"]
    failures = checks.check_chamber(rows, MEASUREMENTS)
    assert any("a or b decreases" in f for f in failures)


def test_broken_mole_balance_fails():
    rows = sqrt_growth_rows()
    for r in rows:
        r["gamma_cm"] *= 1.1
    failures = checks.check_chamber(rows, MEASUREMENTS)
    assert any("mole ratio" in f for f in failures)


def test_year_growth_at_the_chamber_rate_fails():
    slow = sqrt_growth_rows(total_at_40h=1e-4, hours=96.0, n=96, seed_hours=1.0)
    assert checks.check_year(slow, MEASUREMENTS, 96.0) == []
    fast = sqrt_growth_rows(total_at_40h=5e-3, hours=96.0, n=96, seed_hours=1.0)
    assert any("not below" in f for f in checks.check_year(fast, MEASUREMENTS, 96.0))


def write_calibration(path, predicted, residual=None):
    if residual is None:
        residual = sum(((p - m) / s) ** 2 for p, (_, m, s) in zip(predicted, MEASUREMENTS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# residual = {residual:.6g}\n# converged = true\n")
        fh.write("time_hours,measured_cm,std_cm,predicted_cm\n")
        for p, (t, m, s) in zip(predicted, MEASUREMENTS):
            fh.write(f"{t:.6g},{m:.6g},{s:.6g},{p:.6g}\n")


def test_calibration_checks(tmp_path):
    good = [5.61e-4, 9.72e-4, 1.2547e-3]
    path = tmp_path / "calibration.csv"
    write_calibration(path, good)
    assert checks.check_calibration(path, MEASUREMENTS) == []

    write_calibration(path, [good[0], 1.2e-3, good[2]])
    assert any("outside" in f for f in checks.check_calibration(path, MEASUREMENTS))

    write_calibration(path, good, residual=0.2)
    assert any("header residual" in f for f in checks.check_calibration(path, MEASUREMENTS))


def test_a_missing_trace_target_is_reported_absent(monkeypatch):
    mod = types.ModuleType("fakepkg.mod")
    mod.step = lambda x: x + 1
    mod.run = lambda: 0                    # returns no SimulationOutput
    user = types.ModuleType("fakepkg.user")
    user.step = mod.step                   # ``from fakepkg.mod import step``
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.mod", mod), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)

    tracer = spans.Tracer()
    tracer.install([("mod.step", "fakepkg.mod", "step", None),
                    ("mod.gone", "fakepkg.mod", "gone", None),
                    ("mod.run", "fakepkg.mod", "run", spans._record_run)],
                   package="fakepkg")
    assert user.step(1) == 2 and mod.step(2) == 3 and mod.run() == 0
    assert tracer.spans["mod.step"][0] == 2
    assert tracer.absent == ["mod.gone"]
    assert tracer.broken_hooks == ["mod.run"]


def test_layer_metrics_of_an_absent_span_are_none():
    report = {"spans": {name: [10, 1.0, 0.5] for name, *_ in spans.TARGETS},
              "counts": {"steps": 10, "sim_hours": 2.0}, "absent": [], "broken_hooks": []}
    del report["spans"]["pde_core.split_rhs_interior"]
    report["absent"].append("pde_core.split_rhs_interior")
    metrics = spans.per_layer_metrics(report)
    assert metrics["pde_core.split_rhs_interior.self_us_per_step"] is None
    assert metrics["pde_core.split_rhs_interior.calls_per_step"] is None
    assert metrics["stepper.solve_tridiagonal.calls_per_step"] == 1.0
    assert metrics["simulation.steps_per_sim_hour"] == 5.0


def test_traced_job_counts_every_layer(tmp_path):
    root = os.path.dirname(BENCH)
    result = tmp_path / "result.json"
    spec = {"argv": ["simulate", "--chamber", "--horizon-hours", "2",
                     "--out", str(tmp_path / "out")],
            "probe": False, "trace": True, "src": os.path.join(root, "src"),
            "result": str(result)}
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.join(BENCH, "job.py"), json.dumps(spec)],
                   cwd=root, env=env, check=True, timeout=120)
    report = json.loads(result.read_text())
    assert report["rc"] == 0 and report["trace"]["absent"] == []
    metrics = spans.per_layer_metrics(report["trace"])
    assert None not in metrics.values()
    steps = report["trace"]["counts"]["steps"]
    assert metrics["stepper.imex_midpoint_step.calls"] == steps > 0
    assert metrics["simulation.run.calls"] == 1
    assert 0.0 <= metrics["stepper.select_dt.cfl_limited_share"] <= 1.0
    assert metrics["cli.outputs_s"] > 0.0
