"""Command-line surface: simulate, calibrate, validate, convergence.

Every simulation output is accompanied by a manifest (the parsed settings
with the command-line flags written in, input digests, tool version,
wall-clock duration) so a run can be reproduced bit for bit.  Messages go
to stderr; files to --out.

Exit codes: 0 ok; 1 input/validation error; 2 solver failure or calibration
budget exhaustion; 3 failed verification gate (stoichiometry or scheme
order).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .config import (
    build_calibration_settings,
    build_simulation_config,
    load_settings,
)
from .convergence import MIN_TEMPORAL_ORDER, exact_front_errors, observed_orders
from .materials import mole_balance
from .simulation import (LADDER_DT, LADDER_HOURS, LADDER_N, SimulationError,
                         exact_temporal_errors, run, write_output_csv)
from .svgchart import PointSeries, Series, write_line_chart

STOICHIOMETRY_TOLERANCE = 5e-3   # both mole ratios must sit within 0.5% of 2

# hashlib loads OpenSSL's libcrypto (3.5 MB of resident memory) for two file
# digests; the interpreter's builtin module has the same sha256, and
# random.py takes its sha512 the same way
try:
    from _sha2 import sha256          # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256    # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256


@dataclass
class RunManifest:
    """Reproducibility sidecar written next to every output."""

    command: str
    resolved_config: dict
    input_digests: dict[str, str] = field(default_factory=dict)
    tool_version: str = __version__
    duration_seconds: float = 0.0
    # simulate only: the run totals, every field of SimulationOutput but
    # its records
    run: dict | None = None
    # calibrate only: the starting Jacobian's singular values, its condition
    # number and the fitted parameters
    calibration: dict | None = None

    def write(self, path) -> None:
        fields = {k: v for k, v in self.__dict__.items() if v is not None}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fields, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sha256(path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(paths) -> dict[str, str]:
    return {str(p): _sha256(p) for p in paths if p}


def _input_files(args, cp) -> list:
    """Every file a run reads: the config and, in time-series mode, the
    environment CSV, whether given by --env or by the config."""
    timeseries = cp.get("forcing", "mode") == "timeseries"
    return [args.config, cp.get("forcing", "env_csv") if timeseries else None]


def _settings(cp) -> dict:
    """The parsed settings, flags written in, as the manifest records them."""
    return {section: dict(cp[section]) for section in cp.sections()}


def _sim_config(args):
    """The parsed settings with the command-line flags written in, and the
    run configuration built from them; an empty flag counts as absent."""
    cp = load_settings(args.config)
    if args.env:
        cp.set("forcing", "mode", "timeseries")
        cp.set("forcing", "env_csv", args.env)
    elif args.chamber or args.cycles:
        cp.set("forcing", "mode", "chamber" if args.chamber else "cycles")
    if getattr(args, "horizon_hours", None) is not None:   # str(float) round-trips
        cp.set("time", "horizon_hours", str(args.horizon_hours))
    return cp, build_simulation_config(cp)


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    cp, cfg = _sim_config(args)
    cp.set("time", "dt_max", str(cfg.dt_max))   # derived when blank; the manifest records it
    output = run(cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "simulation.csv")
    write_output_csv(output, csv_path)

    hours = [r.t_hours for r in output.records]
    write_line_chart(
        os.path.join(args.out, "fronts.svg"),
        [Series("a(t) copper front", hours, [r.a_cm for r in output.records]),
         Series("beta(t) cuprite/brochantite", hours, [r.beta_cm for r in output.records]),
         Series("gamma(t) outer surface", hours, [r.gamma_cm for r in output.records])],
        title="Front evolution",
        xlabel="time [h]",
        ylabel="position [cm]",
    )
    manifest = RunManifest(
        command="simulate",
        resolved_config=_settings(cp),
        input_digests=_digests(_input_files(args, cp)),
        run={k: v for k, v in vars(output).items() if k != "records"},
    )
    manifest.duration_seconds = time.perf_counter() - started
    manifest.write(os.path.join(args.out, "manifest.json"))
    final = output.records[-1]
    print(f"simulated {final.t_hours:.6g} h in {output.steps} steps "
          f"({output.rejected} rejected); "
          f"total thickness {final.total_cm:.6g} cm -> {csv_path}")
    return 0


def cmd_calibrate(args) -> int:
    # imported here, so that no other command loads the calibration layer
    from .calibration import RANK_RTOL, calibrate, load_measurements, warm_start

    started = time.perf_counter()
    cp, cfg = _sim_config(args)
    settings = build_calibration_settings(cp)
    measurements = load_measurements(args.measurements)
    if len(measurements) == 1:
        print("patina: warning: single measurement point; under-determined fit",
              file=sys.stderr)
    horizon = max(cfg.horizon_hours, max(m.time_hours for m in measurements))
    cp.set("time", "horizon_hours", str(horizon))   # the runs read it, so does the manifest
    cp.set("time", "dt_max", str(cfg.dt_max))
    cfg = replace(cfg, horizon_hours=horizon)

    initial = warm_start(measurements, cfg, oxide_share=settings.oxide_share)
    lo, hi = settings.bounds
    initial = type(initial)(*(min(max(v, lo), hi) for v in
                              (initial.d_g, initial.d_s, initial.d_o)))
    result = calibrate(initial, settings.bounds, measurements, cfg,
                       budget=settings.budget)

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "calibration.csv")
    d = result.diffusivities
    # a singular value below RANK_RTOL times the largest is round-off and
    # prints as 0, and the condition follows the printed values (inf when one
    # is 0), so the file does not change with the last bits of the start
    # point; the manifest keeps the measured values
    largest = result.singular_values[0]
    shown = [v if v > RANK_RTOL * largest else 0.0 for v in result.singular_values]
    condition = shown[0] / shown[-1] if shown[-1] > 0.0 else math.inf
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# d_g = {d.d_g:.6g}\n# d_s = {d.d_s:.6g}\n")
        fh.write(f"# d_o = {d.d_o:.6g}\n")
        fh.write(f"# residual = {result.residual:.6g}\n")
        fh.write(f"# evaluations = {result.evaluations}\n")
        fh.write(f"# converged = {str(result.converged).lower()}\n")
        fh.write("# singular_values = " + " ".join(f"{v:.6g}" for v in shown) + "\n")
        fh.write(f"# condition = {condition:.6g}\n")
        fh.write(f"# fitted = {' '.join(result.fitted)}\n")
        fh.write("time_hours,measured_cm,std_cm,predicted_cm\n")
        for m, pred in zip(measurements, result.predicted_cm):
            fh.write(f"{m.time_hours:.6g},{m.mean_cm:.6g},{m.std_cm:.6g},{pred:.6g}\n")

    fit_records = result.output.records
    write_line_chart(
        os.path.join(args.out, "comparison.svg"),
        [Series("fitted total thickness", [r.t_hours for r in fit_records],
                [r.total_cm for r in fit_records])],
        title="Calibrated model vs measurements",
        xlabel="time [h]",
        ylabel="total thickness [cm]",
        points=[PointSeries("measured", [m.time_hours for m in measurements],
                            [m.mean_cm for m in measurements],
                            [m.std_cm for m in measurements])],
    )
    manifest = RunManifest(
        command="calibrate",
        resolved_config=_settings(cp),
        input_digests=_digests(_input_files(args, cp) + [args.measurements]),
        calibration={"singular_values": list(result.singular_values),
                     "condition": result.condition,
                     "fitted": list(result.fitted)},
    )
    manifest.duration_seconds = time.perf_counter() - started
    manifest.write(os.path.join(args.out, "calibration_manifest.json"))

    print(f"calibrated: d_g={d.d_g:.4g} d_s={d.d_s:.4g} d_o={d.d_o:.4g} "
          f"residual={result.residual:.4g} "
          f"({result.evaluations} evaluations) -> {csv_path}")
    if not result.converged:
        print("patina: calibration budget exhausted; result is best-so-far",
              file=sys.stderr)
        return 2
    return 0


def cmd_validate(args) -> int:
    _, cfg = _sim_config(args)
    final = run(cfg).records[-1]
    report = mole_balance(final.a_cm, final.b_cm, final.beta_cm, final.gamma_cm,
                          cfg.materials)
    print(f"copper wasted        : {report.copper_wasted:.6g} mol/cm2")
    print(f"cuprite formed       : {report.cuprite_formed:.6g} mol/cm2")
    print(f"cuprite wasted       : {report.cuprite_wasted:.6g} mol/cm2")
    print(f"brochantite formed   : {report.brochantite_formed:.6g} mol/cm2")
    dev_cc = report.ratio_copper_cuprite / 2.0 - 1.0
    dev_cb = report.ratio_cuprite_brochantite / 2.0 - 1.0
    print(f"copper/cuprite ratio : {report.ratio_copper_cuprite:.6g} "
          f"(deviation {dev_cc:+.3%})")
    print(f"cuprite/brochantite  : {report.ratio_cuprite_brochantite:.6g} "
          f"(deviation {dev_cb:+.3%})")
    if math.isnan(dev_cc) or math.isnan(dev_cb) or \
            abs(dev_cc) > STOICHIOMETRY_TOLERANCE or abs(dev_cb) > STOICHIOMETRY_TOLERANCE:
        print("patina: stoichiometry gate FAILED", file=sys.stderr)
        return 3
    print("stoichiometry gate passed")
    return 0


def _order_table(title: str, label: str, errors) -> list[float]:
    """Print (h, error) pairs with the observed orders; return the orders."""
    orders = observed_orders(errors)
    print(title)
    for (h, err), line_order in zip(errors, [None] + orders):
        suffix = "" if line_order is None else f"  order {line_order:.3f}"
        print(f"  {label} = {h:<8g} error = {err:.3e}{suffix}")
    return orders


def cmd_convergence(args) -> int:
    cp = load_settings(args.config)
    cp.set("forcing", "mode", "chamber")
    cfg = build_simulation_config(cp)
    errors = exact_temporal_errors(cfg)
    try:
        orders = _order_table(f"temporal, moving fronts (chamber run, n = {LADDER_N}, "
                              f"{LADDER_HOURS:g} h, fixed steps of {LADDER_DT:g}/k; "
                              "error of a, b, total against exact):", "1/k", errors)
    except ValueError as exc:
        print(f"patina: order not measurable: {exc}", file=sys.stderr)
        return 3
    err_a, err_b, err_total = exact_front_errors(cfg, run(cfg).records[-1])
    print(f"chamber run against the exact solution at {cfg.horizon_hours:g} h: relative "
          f"error a {err_a:+.3e}, b {err_b:+.3e}, total {err_total:+.3e}")
    min_temporal = min(orders)
    if min_temporal < MIN_TEMPORAL_ORDER:
        print(f"patina: temporal order {min_temporal:.3f} below "
              f"{MIN_TEMPORAL_ORDER}", file=sys.stderr)
        return 3
    print(f"temporal order {min_temporal:.3f} >= {MIN_TEMPORAL_ORDER}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patina",
        description="Copper patina growth under SO2: simulate, calibrate, verify.",
    )
    parser.add_argument("--version", action="version", version=f"patina {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes_output=False):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="config file (defaults built in)")
        if writes_output:
            p.add_argument("--out", metavar="DIR", default="out")

    def forcing(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--chamber", action="store_true",
                           help="constant corrosion-chamber forcing")
        group.add_argument("--cycles", action="store_true",
                           help="wet/dry cycle forcing")
        group.add_argument("--env", metavar="PATH", default=None,
                           help="environmental time-series CSV")

    p_sim = sub.add_parser("simulate", help="run the model and write CSV/SVG output")
    common(p_sim, writes_output=True)
    forcing(p_sim)
    p_sim.add_argument("--horizon-hours", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="fit diffusivities to thickness data")
    common(p_cal, writes_output=True)
    p_cal.add_argument("--measurements", metavar="PATH", required=True)
    forcing(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_val = sub.add_parser("validate", help="run the stoichiometry gate")
    common(p_val)
    forcing(p_val)
    p_val.add_argument("--horizon-hours", type=float, default=None)
    p_val.set_defaults(func=cmd_validate)

    p_conv = sub.add_parser("convergence", help="measure the stepper's orders")
    common(p_conv)
    p_conv.set_defaults(func=cmd_convergence)
    return parser


def run_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"patina: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"patina: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"patina: solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_main())


if __name__ == "__main__":
    main()
