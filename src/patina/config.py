"""Plain-text configuration: ``key = value`` lines under bracketed sections.

Understood sections: [scales], [diffusivities], [grid], [seeds], [time],
[forcing], [calibration], [materials].  ``#`` starts a
comment.  Every key has a default, so an empty or missing file yields the
shipped configuration; unknown sections or keys are an error (typos should
not pass silently).  A relative ``[materials] override_file`` or
``[forcing] env_csv`` is taken relative to the directory of the config file
that names it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .environment import (
    AMBIENT_OXYGEN,
    Forcing,
    constant_chamber_forcing,
    cycle_forcing,
    load_timeseries,
    so2_concentration,
)
from .materials import DEFAULT_MATERIALS, MaterialTable, load_material_overrides
from .pde_core import Diffusivities, Scales
from .simulation import SimulationConfig

__all__ = [
    "CalibrationSettings",
    "DEFAULTS",
    "load_settings",
    "build_simulation_config",
    "build_calibration_settings",
    "resolved_config_dict",
]

# Diffusivities produced by this repo's own calibration against
# data/thickness_measures.csv (scripts/calibrate_defaults.py regenerates them).
DEFAULT_DIFFUSIVITIES = {
    "d_g": 6.71051e-10,
    "d_s": 4.98071e-06,
    "d_o": 1.74455e-05,
}

DEFAULTS: dict[str, dict[str, str]] = {
    "scales": {
        "lambda_cm": "1e-4",
        "t_r_s": "3600",
        # blank entries are derived from the chamber conditions below
        "s_r_gcm3": "",
        "o_r_gcm3": "",
    },
    "diffusivities": {k: f"{v:g}" for k, v in DEFAULT_DIFFUSIVITIES.items()},
    "grid": {"n_z": "100", "n_y": "100"},
    "seeds": {"a0": "1e-2", "b0": "8e-3"},
    "time": {
        "dt_max": "0.25",
        "cfl_target": "0.8",
        "horizon_hours": "40",
        "output_stride": "10",
        "max_steps": "2000000",
    },
    "forcing": {
        "mode": "chamber",           # chamber | cycles | timeseries
        "so2_ppm": "200",
        "temp_c": "40",
        "oxygen_gcm3": f"{AMBIENT_OXYGEN:g}",
        "wet_hours": "8",
        "dry_hours": "16",
        "dry_so2_gcm3": "0",
        "env_csv": "",
    },
    "calibration": {
        "bounds_low": "1e-10",
        "bounds_high": "1e-3",
        "budget": "200",
        "oxide_share": "0.1",
    },
    "materials": {"override_file": ""},
}


# input files a config file names; a relative one lives next to the config file
_CONFIG_RELATIVE_PATHS = {("materials", "override_file"), ("forcing", "env_csv")}


@dataclass(frozen=True)
class CalibrationSettings:
    bounds: tuple[float, float]
    budget: int
    oxide_share: float


def load_settings(path=None) -> configparser.ConfigParser:
    """Parse a config file over the defaults; validate section/key names."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   comment_prefixes=("#",))
    cp.read_dict(DEFAULTS)
    if path is not None:
        seen = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                         comment_prefixes=("#",))
        with open(path, "r", encoding="utf-8") as fh:
            seen.read_file(fh, source=str(path))
        for section in seen.sections():
            if section not in DEFAULTS:
                raise ValueError(f"{path}: unknown config section [{section}]")
            for key, value in seen.items(section):
                if key not in DEFAULTS[section]:
                    raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
                if (section, key) in _CONFIG_RELATIVE_PATHS and value.strip():
                    value = str(Path(path).parent / value.strip())
                cp.set(section, key, value)
    return cp


def _materials_from(cp) -> MaterialTable:
    override = cp.get("materials", "override_file").strip()
    if override:
        return load_material_overrides(override)
    return DEFAULT_MATERIALS


def _chamber_values(cp) -> tuple[float, float]:
    so2 = so2_concentration(cp.getfloat("forcing", "so2_ppm"), "ppm",
                            temp_c=cp.getfloat("forcing", "temp_c"))
    oxygen = cp.getfloat("forcing", "oxygen_gcm3")
    return so2, oxygen


def _scales_from(cp) -> Scales:
    so2, oxygen = _chamber_values(cp)
    s_r = cp.get("scales", "s_r_gcm3").strip()
    o_r = cp.get("scales", "o_r_gcm3").strip()
    s_r_v = float(s_r) if s_r else so2
    o_r_v = float(o_r) if o_r else oxygen
    return Scales(lam=cp.getfloat("scales", "lambda_cm"),
                  t_r=cp.getfloat("scales", "t_r_s"),
                  s_r=s_r_v, o_r=o_r_v, g_r=o_r_v)


def _forcing_from(cp, mode: str | None = None, env_csv=None) -> Forcing:
    mode = mode or cp.get("forcing", "mode").strip()
    so2, oxygen = _chamber_values(cp)
    if mode == "chamber":
        return constant_chamber_forcing(so2, oxygen)
    if mode == "cycles":
        return cycle_forcing(so2, oxygen,
                             wet_hours=cp.getfloat("forcing", "wet_hours"),
                             dry_hours=cp.getfloat("forcing", "dry_hours"),
                             dry_so2=cp.getfloat("forcing", "dry_so2_gcm3"))
    if mode == "timeseries":
        path = env_csv or cp.get("forcing", "env_csv").strip()
        if not path:
            raise ValueError("timeseries forcing needs env_csv (or --env PATH)")
        return load_timeseries(path, oxygen=oxygen)
    raise ValueError(f"unknown forcing mode {mode!r}")


def build_simulation_config(cp, *, forcing_mode: str | None = None,
                            env_csv=None, horizon_hours: float | None = None,
                            seed_a: float | None = None,
                            seed_b: float | None = None) -> SimulationConfig:
    """Assemble a SimulationConfig; keyword arguments are CLI overrides."""
    horizon = cp.getfloat("time", "horizon_hours") if horizon_hours is None else horizon_hours
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be positive")
    return SimulationConfig(
        scales=_scales_from(cp),
        diffusivities=Diffusivities(
            d_g=cp.getfloat("diffusivities", "d_g"),
            d_s=cp.getfloat("diffusivities", "d_s"),
            d_o=cp.getfloat("diffusivities", "d_o"),
        ),
        materials=_materials_from(cp),
        forcing=_forcing_from(cp, forcing_mode, env_csv),
        n_z=cp.getint("grid", "n_z"),
        n_y=cp.getint("grid", "n_y"),
        a0=cp.getfloat("seeds", "a0") if seed_a is None else seed_a,
        b0=cp.getfloat("seeds", "b0") if seed_b is None else seed_b,
        dt_max=cp.getfloat("time", "dt_max"),
        cfl_target=cp.getfloat("time", "cfl_target"),
        horizon_hours=horizon,
        output_stride=cp.getint("time", "output_stride"),
        max_steps=cp.getint("time", "max_steps"),
    )


def build_calibration_settings(cp) -> CalibrationSettings:
    return CalibrationSettings(
        bounds=(cp.getfloat("calibration", "bounds_low"),
                cp.getfloat("calibration", "bounds_high")),
        budget=cp.getint("calibration", "budget"),
        oxide_share=cp.getfloat("calibration", "oxide_share"),
    )


def resolved_config_dict(cfg: SimulationConfig) -> dict:
    """Fully materialized configuration for the run manifest."""
    return {
        "scales": {"lambda_cm": cfg.scales.lam, "t_r_s": cfg.scales.t_r,
                   "s_r_gcm3": cfg.scales.s_r, "o_r_gcm3": cfg.scales.o_r,
                   "g_r_gcm3": cfg.scales.g_r},
        "diffusivities": {"d_g": cfg.diffusivities.d_g, "d_s": cfg.diffusivities.d_s,
                          "d_o": cfg.diffusivities.d_o},
        "materials": asdict(cfg.materials),
        "forcing": {"mode": cfg.forcing.mode,
                    "samples": len(cfg.forcing.times),
                    "wet_hours": cfg.forcing.wet_hours,
                    "dry_hours": cfg.forcing.dry_hours,
                    "dry_so2": cfg.forcing.dry_so2},
        "grid": {"n_z": cfg.n_z, "n_y": cfg.n_y},
        "seeds": {"a0": cfg.a0, "b0": cfg.b0},
        "time": {"dt_max": cfg.dt_max, "cfl_target": cfg.cfl_target,
                 "horizon_hours": cfg.horizon_hours,
                 "output_stride": cfg.output_stride, "max_steps": cfg.max_steps},
    }
