#!/usr/bin/env python3
"""Seeded-defect (mutation) check: does the test suite catch each defect?

Usage (from anywhere inside the repository):

    python3 scripts/mutation_check.py [--defect NAME]... [PYTEST_ARGS...]

Each entry of DEFECTS names one seeded defect as a (file, old, new) string
triple: ``old`` must occur exactly once in ``src/patina/<file>`` and is
replaced by ``new``.  For each defect the script copies ``src/`` into a
temporary directory, applies the defect there (the checkout is never
touched) and runs the tier-1 suite of the checkout, stopping at the first
failure, with the copy first on PYTHONPATH.  It prints one line per defect
with the first failing test, TIMEOUT when the suite has not finished after
TIMEOUT_S (it takes about 10 s on a 2-core machine, so a defect that
stalls the runs counts as caught), or SURVIVED when every test passes.
Each ``--defect NAME`` (a key of DEFECTS, quoted) runs that defect alone;
without one every defect runs, each a suite run of up to 10 s.  Other
arguments go to pytest, e.g. a test file to run instead of the whole suite.
Exit code 0 when every defect run is caught, 1 otherwise.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600

DEFECTS = {
    "extrapolation weights swapped": (
        "stepper.py", "new = second + second\n    new -= full", "new = full + full\n    new -= second"),
    "step returns a view of the model's solve buffer": (
        "stepper.py", "new = second + second\n    new -= full",
        "new = second\n    new += second\n    new -= full"),
    "fronts advanced at end-of-step speeds": (
        "stepper.py",
        "    fs_new, clamped = refresh_state(new, fs.a + dt * fs_mid.a_dot, fs.b + dt * fs_mid.b_dot,\n"
        "                                    model)\n",
        "    fs_new, clamped = refresh_state(new, fs.a + dt * fs_mid.a_dot, fs.b + dt * fs_mid.b_dot,\n"
        "                                    model)\n"
        "    fs_new, clamped = refresh_state(new, fs.a + dt * fs_new.a_dot, fs.b + dt * fs_new.b_dot,\n"
        "                                    model)\n"),
    "advection sign flipped in the matrix": (
        "stepper.py", "h_outer * s_o, h_inner * s_i, h_inner * m_i",
        "-h_outer * s_o, -h_inner * s_i, -h_inner * m_i"),
    # S(0) of both substeps from u read at the step start
    "forcing taken at t instead of t + h": (
        "stepper.py", "(dt, s_end, held), (half, s_mid, held)",
        "(dt, forcing_at(model.forcing, t), held), (half, forcing_at(model.forcing, t), held)"),
    "h_p dropped from the error norm": (
        "stepper.py",
        "max(abs(d_a) / fs_new.a, abs(d_b) / fs_new.b, abs(d_h) / (fs_new.a - fs_new.beta))",
        "max(abs(d_a) / fs_new.a, abs(d_b) / fs_new.b)"),
    "a landing shrinks the controller's dt": (
        "simulation.py", "dt = grown if step == dt else max(dt, grown)", "dt = grown"),
    "a front overshoot is not retried": (
        "simulation.py", "except (ValueError, TridiagonalError) as exc:",
        "except TridiagonalError as exc:"),
    "rows counted on steps a breakpoint cut short": (
        "simulation.py", "counted += not cut\n            if (not cut and counted",
        "counted += 1\n            if (counted"),
    "no step on the measurement times": (
        "simulation.py", "kept = {t for t in record_hours if 0.0 < t < t_end}",
        "kept = set()"),
    "cuprite diffusion number at the outer width": (
        "stepper.py", "alpha_inner = h / (inner * dy) ** 2",
        "alpha_inner = h / (outer * dy) ** 2"),
    "diffusion numbers at the step-start widths": (
        "stepper.py", "alpha_outer = h / (outer * dz) ** 2",
        "alpha_outer = h / (outer_0 * dz) ** 2"),
    "half-step forcing at t": (
        "stepper.py", "forcing_at(model.forcing, t + half)", "forcing_at(model.forcing, t)"),
    "end forcing at t": (
        "stepper.py", "forcing_at(model.forcing, t + dt)", "forcing_at(model.forcing, t)"),
    "half-step geometry at the step start": (
        "stepper.py",
        "refresh_state(mid, fs.a + half * fs.a_dot,\n"
        "                                            fs.b + half * fs.b_dot,",
        "refresh_state(mid, fs.a, fs.b,"),
    "second half-step at the step-start speeds": (
        "stepper.py", "advection_rates(fs_mid, omega_p)", "advection_rates(fs, omega_p)"),
    "midpoint frozen at the step-start fronts": (
        "stepper.py",
        "    fs_mid, velocity_clamps = refresh_state(mid, fs.a + half * fs.a_dot,\n"
        "                                            fs.b + half * fs.b_dot, model)\n",
        "    fs_mid, velocity_clamps = fs, 0\n"),
    "stepper advection switched off": (
        "stepper.py", "h_outer * s_o, h_inner * s_i, h_inner * m_i", "0.0, 0.0, 0.0"),
    "inner constant rate m_i dropped": (
        "stepper.py", "table[5, g] = -n_y", "table[5, g] = 0.0"),
    "outer basis divided by the inner dx": (
        "stepper.py", "table[3, s] = table[3, o] = -k_outer",
        "table[3, s] = table[3, o] = -k_outer * n_y / n_z"),
    "inner slope sign flipped in the rates": (
        "pde_core.py", "(bd - fs.a_dot) / inner", "(fs.a_dot - bd) / inner"),
    "substep: sub-diagonal +alpha instead of -alpha": (
        "stepper.py", "single[1:4, 1] = first - species", "single[1:4, 1] = species - first"),
    "Stefan and Robin stencils one node inward": (
        "stepper.py", "np.stack((tails - 1, tails), axis=1)", "np.stack((tails - 2, tails - 1), axis=1)"),
    "fronts advance at the step-start a speed": (
        "stepper.py", "fs.a + dt * fs_mid.a_dot,", "fs.a + dt * fs.a_dot,"),
    # every rate is >= 0, so the downwind difference is the backward one
    "advection pass takes the backward difference": (
        "pde_core.py", "rhs = u[2:] - u[1:-1]", "rhs = u[1:-1] - u[:-2]"),
    "Robin sink dropped": (
        "pde_core.py", "(k * (4.0 * o_2 - o_3) - sc.gamma_o * b_dot) / denom",
        "k * (4.0 * o_2 - o_3) / denom"),
    "first-order Stefan gradient": (
        "pde_core.py", "((s_3 - 4.0 * s_2) / (2.0 * dz))", "(-s_2 / dz)"),
    "refresh skips the ordering check": (
        "stepper.py", "-(omega_p * a + omega_b * b)\n    check_ordering(a, beta, gamma)\n",
        "-(omega_p * a + omega_b * b)\n"),
    "substep skips the ordering check": (
        "stepper.py", "-(omega_p * a + omega_b * b)\n        check_ordering(a, beta, gamma)\n",
        "-(omega_p * a + omega_b * b)\n"),
    "G(0) handed O(0) instead of O(1)": (
        "stepper.py", "held = float(u[o_end])", "held = model.forcing.oxygen"),
    # S(-2) then couples to O's first node, as if it were S(1)
    "S's last row keeps its super-diagonal": (
        "stepper.py", "above[:, lasts] = 0.0", "above[:, lasts[1:]] = 0.0"),
    "refresh skips the O(1) write": (
        "stepper.py", "    u[lay.o_end] = o_beta\n", ""),
    # 2.6e-4 g/cm3 is environment.AMBIENT_OXYGEN, which stepper does not import.
    # The coefficient pass is the one place the solves take O(0) from.
    "O(0) from the ambient constant": (
        "stepper.py", "dz, dy, o_0 = model.dz, model.dy, model.forcing.oxygen",
        "dz, dy, o_0 = model.dz, model.dy, 2.6e-4"),
    "fit step not clipped to the box": (
        "calibration.py", "trial = np.clip(z + step, llo, lhi)", "trial = z + step"),
    "fit keeps a step that raises the residual": (
        "calibration.py", "< np.sum(f ** 2)", "< math.inf"),
    "first pivot by argmin": (
        "calibration.py", "np.argmax(np.linalg.norm(rest, axis=0))",
        "np.argmin(np.linalg.norm(rest, axis=0))"),
    "fit stops on a step relative to |log10 D|": (
        "calibration.py", "< STEP_TOL\n", "< STEP_TOL * np.linalg.norm(z)\n"),
    "exact porosities: gamma_o at unit porosity": (
        "convergence.py", "omega_g(k_b, unit.gamma_o / n_b)", "omega_g(k_b, unit.gamma_o)"),
    "SO2 condition: outer width W without (1+omega_b)": (
        "convergence.py", "w = (1.0 + sw.omega_b) * k_b\n        return w * k_b",
        "w = k_b\n        return w * k_b"),
    "cuprite condition: o_a in place of O(beta)": (
        "convergence.py", "2.0 * o_beta(k_a) * _flux(", "2.0 * o_a * _flux("),
    "warm start: oxide split swapped": (
        "calibration.py",
        "k_b = (1.0 - oxide_share) * amplitude / (1.0 + sw.omega_b)\n"
        "    k_a = (oxide_share * amplitude + k_b)",
        "k_b = oxide_share * amplitude / (1.0 + sw.omega_b)\n"
        "    k_a = ((1.0 - oxide_share) * amplitude + k_b)"),
    "warm start: amplitude weighted by w, not w**2": (
        "calibration.py", "np.sum(means * np.sqrt(hours) / w**2) / np.sum(hours / w**2)",
        "np.sum(means * np.sqrt(hours) / w) / np.sum(hours / w)"),
    "exact diffusivities: fixed point stopped after one iteration": (
        "convergence.py", "while d not in seen:", "for _ in range(1):"),
    "exact total without the omega_b*b term": (
        "convergence.py", "(1.0 + sw.omega_p) * a + sw.omega_b * b", "(1.0 + sw.omega_p) * a"),
    "constant-forcing predictions from the exact totals": (
        "calibration.py", "predicted_cm=tuple(float(p) for p in best.output.thickness_at(times)),",
        "predicted_cm=tuple(float(p) for p in (best.output.thickness_at(times) if score is residual"
        " else exact_fronts(replace(cfg, diffusivities=best_d), times)[2])),"),
    "seed: G from O_a instead of O(beta)": (
        "convergence.py", "lambda y: o_beta * _falling(p_g, q_g, y)",
        "lambda y: o_a * _falling(p_g, q_g, y)"),
    "seed: outer profiles linear": (
        "convergence.py",
        "(lambda z: s_a * _falling(p_s, 0.0, z),\n"
        "                lambda z: o_beta + (o_a - o_beta) * _falling(p_o, 0.0, z),",
        "(lambda z: s_a * (1.0 - z),\n"
        "                lambda z: o_beta + (o_a - o_beta) * (1.0 - z),"),
    "exact front errors without the seed offset": (
        "convergence.py", "exact_fronts(cfg, record.t_hours + SEED_HOURS)",
        "exact_fronts(cfg, record.t_hours)"),
    "a constant forcing breaks at its sample": (
        "environment.py", '    if forcing.constant:\n        return array("d")\n', ""),
    "landing skipped on cycle switches": (
        "environment.py", "if not forcing.dry_hours:", "if True:"),
    "landing skipped on samples": (
        "environment.py", "return times[bisect_right(times, 0.0):bisect_left(times, horizon_hours)]",
        'return array("d")'),
    "breaks walked in the forcing's own array": (
        "environment.py", "return times[bisect_right(times, 0.0):bisect_left(times, horizon_hours)]",
        "return times"),
    "loader checks the SO2 sign before RH": (
        "environment.py",
        "                if not 0.0 <= rh <= 100.0:\n"
        '                    raise ValueError(f"relative humidity must lie in [0, 100], got {rh}")\n'
        '                so2.append(so2_from_ugm3(so2_ugm3))\n',
        '                so2.append(so2_from_ugm3(so2_ugm3))\n'
        "                if not 0.0 <= rh <= 100.0:\n"
        '                    raise ValueError(f"relative humidity must lie in [0, 100], got {rh}")\n'),
    "round-off singular values printed": (
        "cli.py", "shown = [v if i < rank else 0.0 for i, v in enumerate(result.singular_values)]",
        "shown = list(result.singular_values)"),
    "config syntax errors escape as configparser's": (
        "config.py", "except configparser.Error as exc:", "except KeyError as exc:"),
    "environment CSV byte-order mark read as text": (
        "environment.py", 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    "measurements byte-order mark read as text": (
        "calibration.py", 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    "config byte-order mark read as text": (
        "config.py", 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    # 2e-3 relative off the shipped-data fit's d_s = 4.98099e-6
    "default d_s off the shipped-data fit": (
        "config.py", '"d_s": 4.98071e-06,', '"d_s": 4.99095e-06,'),
    "ppm conversion at the default molar mass": (
        "config.py", "materials.M_s)", "DEFAULT_MATERIALS.M_s)"),
    "derived dt_max ignored (always 0.25)": (
        "simulation.py", "if len(times) < 2:", "if True:"),
    "constant ignores the dry phase": (
        "environment.py", "return self.dry_hours == 0.0 and len(self.times) == 1",
        "return len(self.times) == 1"),
    "controller starts at dt_max": (
        "simulation.py", "dt = MAX_STEP_FRACTION * seed_hours", "dt = cfg.dt_max"),
    "diffusivities left in cm2/s": (
        "pde_core.py",
        "return Diffusivities(self.d_g * SECONDS_PER_HOUR, self.d_s * SECONDS_PER_HOUR,\n"
        "                             self.d_o * SECONDS_PER_HOUR)",
        "return self"),
    "a row over two lines numbered by its last": (
        "environment.py", "if first is None:\n                    first = lineno, line",
        "first = lineno, line"),
}


def first_failure(src: str, pytest_args: list[str]) -> str | None:
    """First failing test of the suite run against the sources in ``src``,
    TIMEOUT, or None when every test passes."""
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *pytest_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"TIMEOUT after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return found.group(1) if found else f"pytest exit {proc.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    parser.add_argument("--defect", action="append", choices=list(DEFECTS), metavar="NAME",
                        help="run only this defect (repeatable)")
    args, pytest_args = parser.parse_known_args()
    survived = 0
    for name in args.defect or DEFECTS:
        file, old, new = DEFECTS[name]
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src")
            shutil.copytree(os.path.join(ROOT, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            path = os.path.join(src, "patina", file)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times in {file}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            failure = first_failure(src, pytest_args)
        survived += failure is None
        print(f"{name:50s} {failure or 'SURVIVED'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
