"""Plain-text configuration: ``key = value`` lines under bracketed sections.

Understood sections: [diffusivities], [grid], [time], [forcing],
[calibration], [materials].  ``#`` starts a
comment.  Every key has a default, so an empty or missing file yields the
shipped configuration; unknown sections or keys are an error (typos should
not pass silently), and so is a value that is not a number where a number
is read.  ``[materials]`` holds one key per :class:`MaterialTable` field.
A relative ``[forcing] env_csv`` is taken relative to the directory of the
config file that names it.  The command line writes its flags into the
parsed settings (``cli``), so :func:`build_simulation_config` reads nothing
else.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

from .environment import (
    AMBIENT_OXYGEN,
    Forcing,
    constant_chamber_forcing,
    cycle_forcing,
    load_timeseries,
    so2_from_ppm,
)
from .materials import DEFAULT_MATERIALS, MaterialTable
from .pde_core import Diffusivities
from .simulation import SimulationConfig, default_dt_max

__all__ = [
    "CalibrationSettings",
    "DEFAULTS",
    "load_settings",
    "build_simulation_config",
    "build_calibration_settings",
]

# Diffusivities produced by this repo's own calibration against
# data/thickness_measures.csv: `patina calibrate --measurements
# data/thickness_measures.csv` regenerates them, and
# tests/test_calibration.py::TestCalibrate::test_shipped_data_fit_the_amplitude_alone
# fails when they lie 1e-3 or more from that fit.
DEFAULT_DIFFUSIVITIES = {
    "d_g": 6.71051e-10,
    "d_s": 4.98071e-06,
    "d_o": 1.74455e-05,
}

DEFAULTS: dict[str, dict[str, str]] = {
    "diffusivities": {k: f"{v:g}" for k, v in DEFAULT_DIFFUSIVITIES.items()},
    "grid": {"n_z": "25", "n_y": "25"},
    "time": {
        "dt_max": "",                # hours; blank: simulation.default_dt_max of the forcing
        "tolerance": "1e-4",         # local error of a step, relative, in a, b and a - beta
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
    # repr round-trips, so the defaults are DEFAULT_MATERIALS bit for bit
    "materials": {k: repr(v) for k, v in asdict(DEFAULT_MATERIALS).items()},
}

# keys read as text and keys read as int; every other key is a float
_TEXT_KEYS = {"mode", "env_csv"}
_INT_KEYS = {"n_z", "n_y", "output_stride", "max_steps", "budget"}
# configparser lowercases keys; messages spell a material field as MaterialTable does
_SPELLING = {f.name.lower(): f.name for f in fields(MaterialTable)}


class CalibrationSettings(NamedTuple):
    bounds: tuple[float, float]
    budget: int
    oxide_share: float


def _parser() -> configparser.ConfigParser:
    # no interpolation: a '%' in a value (a file name, say) is plain text
    return configparser.ConfigParser(inline_comment_prefixes=("#",),
                                     comment_prefixes=("#",), interpolation=None)


def _number(cp, section: str, key: str):
    return (int if key in _INT_KEYS else float)(cp.get(section, key))


def load_settings(path=None) -> configparser.ConfigParser:
    """Parse a config file over the defaults; validate syntax, names and numbers.

    A malformed file, an unknown section or key and a bad number are each a
    ValueError that names the file.
    """
    cp = _parser()
    cp.read_dict(DEFAULTS)
    if path is not None:
        seen = _parser()
        # utf-8-sig: a byte-order mark, as spreadsheet exports write, is not text
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                seen.read_file(fh, source=str(path))
            except configparser.Error as exc:
                # configparser's message may span lines; a CLI message is one
                flat = " ".join(str(exc).split())
                raise ValueError(f"{path}: bad config file: {flat}") from None
        for section in seen.sections():
            if section not in DEFAULTS:
                raise ValueError(f"{path}: unknown config section [{section}]")
            for key, value in seen.items(section):
                if not cp.has_option(section, key):
                    raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
                # a number may be blank only where its default is (dt_max, derived)
                if key not in _TEXT_KEYS and (value or cp.get(section, key)):
                    try:
                        _number(seen, section, key)
                    except ValueError:
                        raise ValueError(f"{path}: [{section}] {_SPELLING.get(key, key)}: "
                                         f"bad number {value!r}") from None
                if key == "env_csv" and value:
                    value = str(Path(path).parent / value)
                cp.set(section, key, value)
    return cp


def _materials_from(cp) -> MaterialTable:
    return MaterialTable(**{f.name: _number(cp, "materials", f.name)
                            for f in fields(MaterialTable)})


def _forcing_from(cp, materials: MaterialTable) -> Forcing:
    mode = cp.get("forcing", "mode")
    so2 = so2_from_ppm(_number(cp, "forcing", "so2_ppm"), _number(cp, "forcing", "temp_c"),
                       materials.M_s)
    oxygen = _number(cp, "forcing", "oxygen_gcm3")
    if mode == "chamber":
        return constant_chamber_forcing(so2, oxygen)
    if mode == "cycles":
        return cycle_forcing(so2, oxygen,
                             wet_hours=_number(cp, "forcing", "wet_hours"),
                             dry_hours=_number(cp, "forcing", "dry_hours"),
                             dry_so2=_number(cp, "forcing", "dry_so2_gcm3"))
    if mode == "timeseries":
        path = cp.get("forcing", "env_csv")
        if not path:
            raise ValueError("timeseries forcing needs env_csv (or --env PATH)")
        return load_timeseries(path, oxygen=oxygen)
    raise ValueError(f"unknown forcing mode {mode!r}")


def build_simulation_config(cp) -> SimulationConfig:
    """Assemble a SimulationConfig from the parsed settings alone."""
    materials = _materials_from(cp)
    forcing = _forcing_from(cp, materials)
    dt_max = cp.get("time", "dt_max")
    return SimulationConfig(
        diffusivities=Diffusivities(
            d_g=_number(cp, "diffusivities", "d_g"),
            d_s=_number(cp, "diffusivities", "d_s"),
            d_o=_number(cp, "diffusivities", "d_o"),
        ),
        materials=materials,
        forcing=forcing,
        n_z=_number(cp, "grid", "n_z"),
        n_y=_number(cp, "grid", "n_y"),
        dt_max=float(dt_max) if dt_max else default_dt_max(forcing),
        tolerance=_number(cp, "time", "tolerance"),
        horizon_hours=_number(cp, "time", "horizon_hours"),
        output_stride=_number(cp, "time", "output_stride"),
        max_steps=_number(cp, "time", "max_steps"),
    )


def build_calibration_settings(cp) -> CalibrationSettings:
    return CalibrationSettings(
        bounds=(_number(cp, "calibration", "bounds_low"),
                _number(cp, "calibration", "bounds_high")),
        budget=_number(cp, "calibration", "budget"),
        oxide_share=_number(cp, "calibration", "oxide_share"),
    )
