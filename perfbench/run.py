#!/usr/bin/env python3
"""Benchmark of patina's user jobs: chamber, cycles, year and calibrate.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job runs through ``patina.cli.run_main`` in a fresh single-process
child (perfbench/job.py) with BLAS threads pinned to 1, and its outputs are
checked (perfbench/checks.py).  A run repeats whole rounds until
``--seconds`` have passed, so it may end up to one round later:

* ``--trace 0``: a round is one full job; on year and calibrate, whose runs
  hold one or two rounds, set-up probes (PROBES_PER_ROUND) go first.  A
  probe stops at the first solver step, so it measures set-up only.  Reported:
  ``setup_s`` (median over probes and jobs), ``wall_s`` and ``peak_rss_mb``
  (medians over jobs).
* ``--trace 1``: a round is one untraced job and one traced job.  Reported:
  the per-layer metrics of spans.py (medians over traced jobs), ``src.loc``
  and ``trace.overhead_share``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every child process
counts as attempted; one fails on a non-zero exit code, a missing result or
a failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs
from spans import PER_LAYER_UNITS, per_layer_metrics

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
MEASUREMENTS = "data/thickness_measures.csv"
CALIBRATE_CONFIG = "perfbench/calibrate.ini"
REQUIRED = ("src/patina/cli.py", MEASUREMENTS)
CHILD_TIMEOUT_S = 170

CYCLES_HOURS = 480.0
YEAR_HOURS = float(inputs.YEAR_HOURS)
# wet/dry schedule of the shipped configuration, which the cycles job uses
WET_HOURS, DRY_HOURS = 8.0, 16.0

# set-up probes per round: the short jobs give enough set-up samples alone
PROBES_PER_ROUND = {"chamber": 0, "cycles": 0, "year": 1, "calibrate": 2}
WORKLOADS = tuple(PROBES_PER_ROUND)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class Run:
    """Inputs, child launches and output checks of one benchmark run."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.jobs = 0
        self.measurements = checks.read_measurements(os.path.join(ROOT, MEASUREMENTS))
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.reference_rows = None
        if workload == "year":
            self.env_csv = os.path.join(workdir, "year.csv")
            inputs.write_year_csv(self.env_csv, seed)
        if workload == "cycles":
            # continuous chamber forcing over the same hours, outside the timing
            ref = self.launch(["simulate", "--chamber", "--horizon-hours",
                               str(CYCLES_HOURS)], reference=True)
            if ref is not None:
                self.reference_rows = checks.read_csv(
                    os.path.join(ref["out"], "simulation.csv"))

    def job_argv(self) -> list[str]:
        if self.workload == "chamber":
            return ["simulate", "--chamber"]
        if self.workload == "cycles":
            return ["simulate", "--cycles", "--horizon-hours", str(CYCLES_HOURS)]
        if self.workload == "year":
            return ["simulate", "--env", self.env_csv, "--horizon-hours", str(YEAR_HOURS)]
        return ["calibrate", "--measurements", MEASUREMENTS, "--config", CALIBRATE_CONFIG]

    def check(self, out: str) -> list[str]:
        try:
            if self.workload == "calibrate":
                return checks.check_calibration(os.path.join(out, "calibration.csv"),
                                                self.measurements)
            rows = checks.read_csv(os.path.join(out, "simulation.csv"))
            if self.workload == "chamber":
                return checks.check_chamber(rows, self.measurements)
            if self.workload == "cycles":
                if self.reference_rows is None:
                    return ["no chamber reference run to compare with"]
                return checks.check_cycles(rows, self.reference_rows, WET_HOURS,
                                           DRY_HOURS, CYCLES_HOURS)
            return checks.check_year(rows, self.measurements, YEAR_HOURS)
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable output: {exc}"]

    def check_reference(self, out: str) -> list[str]:
        try:
            rows = checks.read_csv(os.path.join(out, "simulation.csv"))
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        return checks.check_simulation(rows, CYCLES_HOURS)

    def launch(self, argv, probe=False, trace=False, reference=False) -> dict | None:
        """Run one child; its result dict, or None when it failed.

        A reference run is neither counted nor checked against the workload's
        checks, only against those every simulate output must pass.
        """
        self.jobs += 1
        tag = f"{'probe' if probe else 'job'}{self.jobs}"
        out = os.path.join(self.workdir, tag)
        spec = {"argv": [*argv, "--out", out], "probe": probe, "trace": trace,
                "src": SRC, "result": os.path.join(self.workdir, tag + ".json")}
        env = dict(os.environ, PYTHONPATH=SRC, PATINA_LOG="warn", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        log_path = os.path.join(self.workdir, tag + ".log")
        if not reference:
            self.attempted += 1
        with open(log_path, "w", encoding="utf-8") as log:
            started = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "job.py"), json.dumps(spec)],
                    cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
                    stderr=log, timeout=CHILD_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        result = None
        if code == 0:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        problem = None
        if result is None:
            problem = f"harness exit {code}"
        elif result["rc"] != 0:
            problem = f"patina exit code {result['rc']}"
        elif result["t_first_step"] is None:
            problem = "no solver step was taken"
        elif not probe:
            failures = (self.check_reference(out) if reference else self.check(out))
            if failures:
                self.check_failures.extend(failures)
                problem = "; ".join(failures)
        if problem is not None:
            if not reference:
                self.failed += 1
            with open(log_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            print(f"perfbench: {self.workload} {tag} failed: {problem}\n{tail}",
                  file=sys.stderr)
            return None
        result["out"] = out
        result["setup_s"] = result["t_first_step"] - started
        result["wall_s"] = result["t_end"] - result["t_first_step"]
        result["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        return result


def rounds(seconds: float, one_round) -> None:
    """Repeat ``one_round`` until ``seconds`` have passed (at least once)."""
    start = time.monotonic()
    while True:
        one_round()
        if time.monotonic() - start >= seconds:
            return


def median_or_none(values):
    return statistics.median(values) if values else None


def src_loc() -> int:
    """Non-blank, non-comment lines of the package sources."""
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "patina")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for ln in fh if ln.strip() and not ln.lstrip().startswith("#"))
    return total


def end_to_end(run: Run, seconds: float) -> dict:
    setups, walls, rss = [], [], []

    def one_round():
        for _ in range(PROBES_PER_ROUND[run.workload]):
            probe = run.launch(run.job_argv(), probe=True)
            if probe is not None:
                setups.append(probe["setup_s"])
        job = run.launch(run.job_argv())
        if job is not None:
            setups.append(job["setup_s"])
            walls.append(job["wall_s"])
            rss.append(job["peak_rss_mb"])

    rounds(seconds, one_round)
    return {"setup_s": median_or_none(setups), "wall_s": median_or_none(walls),
            "peak_rss_mb": median_or_none(rss)}


def traced(run: Run, seconds: float) -> dict:
    plain_walls, traced_walls, imports, layers, absent = [], [], [], [], set()

    def one_round():
        plain = run.launch(run.job_argv())
        if plain is not None:
            plain_walls.append(plain["wall_s"])
            imports.append(plain["import_s"])
        job = run.launch(run.job_argv(), trace=True)
        if job is not None:
            traced_walls.append(job["wall_s"])
            imports.append(job["import_s"])
            layers.append(per_layer_metrics(job["trace"]))
            absent.update(job["trace"]["absent"] + job["trace"]["broken_hooks"])

    rounds(seconds, one_round)
    for name in sorted(absent):
        print(f"perfbench: absent from the trace: {name}", file=sys.stderr)
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [m.get(name) for m in layers]
        metrics[name] = (statistics.median(values)
                         if values and None not in values else None)
    metrics["cli.import_s"] = median_or_none(imports)
    metrics["src.loc"] = src_loc()
    plain, slow = median_or_none(plain_walls), median_or_none(traced_walls)
    metrics["trace.overhead_share"] = (slow - plain) / plain if plain and slow else None
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a patina checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    os.makedirs(os.path.join(BENCH, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(BENCH, "_work"))
    try:
        run = Run(args.workload, args.seed, workdir)
        if args.trace:
            values, units = traced(run, args.seconds), PER_LAYER_UNITS
        else:
            values, units = end_to_end(run, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload:<10} {name:<45} {shown:>12} {units[name]}")
    print(f"{args.workload:<10} jobs attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
