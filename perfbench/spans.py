"""Per-layer spans for the traced run, installed from outside the package.

A span wraps one public function of a patina module.  The wrapper replaces
every binding of the original function object in the loaded patina
modules, so a caller that imported the name (``from .stepper import
imex_midpoint_step`` in ``patina.simulation``) reaches the wrapper too.
Spans are aggregated in memory per name: calls, inclusive time and self
time (inclusive time minus the inclusive time of wrapped callees).  A
target that no longer exists is recorded as absent and the run goes on;
every metric built on it is then reported as absent (``None``), as are
the counters of a hook that no longer fits what its function returns.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time


def _count_cfl_limited(tracer, args, kwargs, result, dur):
    # select_dt(fs, dz, dy, cfl_target, dt_max, omega_p): a step is
    # CFL-limited when the bound it returns is below dt_max
    dt_max = args[4] if len(args) > 4 else kwargs["dt_max"]
    if result < dt_max:
        tracer.add("cfl_limited", 1)


def _record_run(tracer, args, kwargs, result, dur):
    tracer.add("steps", result.steps)
    tracer.add("sim_hours", result.records[-1].t_hours)
    tracer.add("field_clamps", result.field_clamps)
    tracer.add("velocity_clamps", result.velocity_clamps)
    if any(frame[0] == "calibration.calibrate" for frame in tracer.open_spans):
        tracer.add("run_s_in_calibrate", dur)


def _record_evaluation(tracer, args, kwargs, result, dur):
    if not math.isfinite(result):
        tracer.add("rejected_evaluations", 1)
    elif result < tracer.best_residual:
        tracer.best_residual = result
        tracer.add("improving_evaluations", 1)


# (span name, module, attribute path, hook called after each return)
TARGETS = (
    ("config.load_settings", "patina.config", "load_settings", None),
    ("config.build_simulation_config", "patina.config", "build_simulation_config", None),
    ("config.build_calibration_settings", "patina.config", "build_calibration_settings", None),
    ("environment.load_timeseries", "patina.environment", "load_timeseries", None),
    ("environment.forcing_at", "patina.environment", "forcing_at", None),
    ("pde_core.split_rhs_interior", "patina.pde_core", "split_rhs_interior", None),
    ("pde_core.outer_advection_coeff", "patina.pde_core", "outer_advection_coeff", None),
    ("pde_core.inner_advection_coeff", "patina.pde_core", "inner_advection_coeff", None),
    ("pde_core.front_velocities", "patina.pde_core", "front_velocities", None),
    ("pde_core.apply_outer_bcs", "patina.pde_core", "apply_outer_bcs", None),
    ("stepper.imex_midpoint_step", "patina.stepper", "imex_midpoint_step", None),
    ("stepper.solve_tridiagonal", "patina.stepper", "solve_tridiagonal", None),
    ("stepper.refresh_state", "patina.stepper", "refresh_state", None),
    ("stepper.select_dt", "patina.stepper", "select_dt", _count_cfl_limited),
    ("simulation.run", "patina.simulation", "run", _record_run),
    ("simulation.write_output_csv", "patina.simulation", "write_output_csv", None),
    ("svgchart.write_line_chart", "patina.svgchart", "write_line_chart", None),
    ("cli.RunManifest.write", "patina.cli", "RunManifest.write", None),
    ("calibration.calibrate", "patina.calibration", "calibrate", None),
    ("calibration.residual", "patina.calibration", "residual", _record_evaluation),
)


class Tracer:
    """Aggregated spans and counters of one traced process."""

    def __init__(self):
        self.spans: dict[str, list] = {}     # name -> [calls, inclusive_s, self_s]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.broken_hooks: list[str] = []    # spans whose counters are unusable
        self.open_spans: list[list] = []     # [name, inclusive_s of wrapped callees]
        self.best_residual = math.inf

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, hook=None):
        """``fn`` wrapped in a span named ``name``; ``hook`` sees each return."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.open_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                try:
                    hook(self, args, kwargs, result, dur)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self._hook_failed(name, exc)
            return result

        return wrapper

    def _hook_failed(self, name: str, exc: Exception) -> None:
        if name not in self.broken_hooks:
            self.broken_hooks.append(name)
            print(f"perfbench: the counters of {name} are absent: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)

    def install(self, targets=TARGETS, package: str = "patina") -> None:
        """Wrap every target; record the ones that cannot be found as absent."""
        for name, module_name, path, hook in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                print(f"perfbench: trace target {module_name}.{path} is absent",
                      file=sys.stderr)
                continue
            wrapper = self.wrap(name, original, hook)
            if parents:
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                loaded = getattr(module, "__name__", "")
                if loaded != package and not loaded.startswith(package + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent,
                "broken_hooks": self.broken_hooks}


# per-layer metric -> unit
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "config.build_s": "s",
    "environment.load_timeseries_s": "s",
    "environment.forcing_at.calls_per_step": "calls/step",
    "environment.forcing_at.self_us_per_step": "us/step",
    "stepper.imex_midpoint_step.calls": "count",
    "stepper.imex_midpoint_step.self_us_per_step": "us/step",
    "stepper.solve_tridiagonal.calls_per_step": "calls/step",
    "stepper.solve_tridiagonal.self_us_per_step": "us/step",
    "stepper.refresh_state.self_us_per_step": "us/step",
    "pde_core.split_rhs_interior.calls_per_step": "calls/step",
    "pde_core.split_rhs_interior.self_us_per_step": "us/step",
    "pde_core.advection_coeff.self_us_per_step": "us/step",
    "pde_core.boundary.self_us_per_step": "us/step",
    "stepper.select_dt.self_us_per_step": "us/step",
    "stepper.select_dt.cfl_limited_share": "fraction",
    "simulation.steps_per_sim_hour": "steps/h",
    "simulation.run.calls": "count",
    "simulation.run.self_us_per_step": "us/step",
    "simulation.field_clamps": "count",
    "simulation.velocity_clamps": "count",
    "cli.outputs_s": "s",
    "calibration.residual.calls": "count",
    "calibration.residual.failed": "count",
    "calibration.s_per_evaluation": "s",
    "calibration.improving_share": "fraction",
    "calibration.optimizer_self_s": "s",
    "calibration.extra_runs": "count",
    "src.loc": "lines",
    "trace.overhead_share": "fraction",
}


class _Absent(Exception):
    pass


def per_layer_metrics(report: dict) -> dict[str, float | None]:
    """Layer metrics of one traced job from its ``Tracer.report()``.

    Per-step figures have the job's solver step count as their base (the
    sum of ``SimulationOutput.steps`` over its runs).  ``cli.import_s``,
    ``src.loc`` and ``trace.overhead_share`` are not measured by spans and
    are filled in by the caller.
    """
    spans, counts = report["spans"], report["counts"]
    absent, broken = set(report["absent"]), set(report["broken_hooks"])

    def span(name, field):
        if name in absent or name not in spans:
            raise _Absent(name)
        return spans[name][("calls", "inclusive", "self").index(field)]

    def count(key, source):
        if source in absent or source in broken:
            raise _Absent(source)
        return counts.get(key, 0)

    def steps():
        n = count("steps", "simulation.run")
        if n <= 0:
            raise _Absent("simulation.run")
        return n

    def per_step_us(*names):
        return sum(span(n, "self") for n in names) * 1e6 / steps()

    def evaluations():
        return span("calibration.residual", "calls")

    def share(numerator, base):
        return numerator / base if base else 0.0

    formulas = {
        "config.build_s": lambda: sum(span(n, "self") for n in (
            "config.load_settings", "config.build_simulation_config",
            "config.build_calibration_settings")),
        "environment.load_timeseries_s":
            lambda: span("environment.load_timeseries", "inclusive"),
        "environment.forcing_at.calls_per_step":
            lambda: span("environment.forcing_at", "calls") / steps(),
        "environment.forcing_at.self_us_per_step":
            lambda: per_step_us("environment.forcing_at"),
        "stepper.imex_midpoint_step.calls":
            lambda: span("stepper.imex_midpoint_step", "calls"),
        "stepper.imex_midpoint_step.self_us_per_step":
            lambda: per_step_us("stepper.imex_midpoint_step"),
        "stepper.solve_tridiagonal.calls_per_step":
            lambda: span("stepper.solve_tridiagonal", "calls") / steps(),
        "stepper.solve_tridiagonal.self_us_per_step":
            lambda: per_step_us("stepper.solve_tridiagonal"),
        "stepper.refresh_state.self_us_per_step":
            lambda: per_step_us("stepper.refresh_state"),
        "pde_core.split_rhs_interior.calls_per_step":
            lambda: span("pde_core.split_rhs_interior", "calls") / steps(),
        "pde_core.split_rhs_interior.self_us_per_step":
            lambda: per_step_us("pde_core.split_rhs_interior"),
        "pde_core.advection_coeff.self_us_per_step":
            lambda: per_step_us("pde_core.outer_advection_coeff",
                                "pde_core.inner_advection_coeff"),
        "pde_core.boundary.self_us_per_step":
            lambda: per_step_us("pde_core.front_velocities", "pde_core.apply_outer_bcs"),
        "stepper.select_dt.self_us_per_step": lambda: per_step_us("stepper.select_dt"),
        "stepper.select_dt.cfl_limited_share":
            lambda: count("cfl_limited", "stepper.select_dt") / steps(),
        "simulation.steps_per_sim_hour":
            lambda: steps() / count("sim_hours", "simulation.run"),
        "simulation.run.calls": lambda: span("simulation.run", "calls"),
        "simulation.run.self_us_per_step": lambda: per_step_us("simulation.run"),
        "simulation.field_clamps": lambda: count("field_clamps", "simulation.run"),
        "simulation.velocity_clamps": lambda: count("velocity_clamps", "simulation.run"),
        "cli.outputs_s": lambda: sum(span(n, "inclusive") for n in (
            "simulation.write_output_csv", "svgchart.write_line_chart",
            "cli.RunManifest.write")),
        "calibration.residual.calls": evaluations,
        "calibration.residual.failed":
            lambda: count("rejected_evaluations", "calibration.residual"),
        "calibration.s_per_evaluation":
            lambda: share(span("calibration.residual", "inclusive"), evaluations()),
        "calibration.improving_share":
            lambda: share(count("improving_evaluations", "calibration.residual"),
                          evaluations()),
        "calibration.optimizer_self_s":
            lambda: span("calibration.calibrate", "inclusive")
            - count("run_s_in_calibrate", "simulation.run"),
        "calibration.extra_runs":
            lambda: (span("simulation.run", "calls") - evaluations()) if evaluations() else 0,
    }
    metrics: dict[str, float | None] = {}
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except _Absent:
            metrics[name] = None
    return metrics
