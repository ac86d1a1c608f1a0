"""Copper patina growth under SO2: a double free-boundary reaction-diffusion model.

Copper converts to cuprite at an inner moving front and cuprite to
brochantite at an outer one; transport through both porous product layers is
diffusive, the fronts follow Stefan conditions, and each layer is mapped
onto a fixed unit interval so the grid never moves.  The package simulates
patina growth under laboratory or environmental forcing, calibrates the
diffusivities against thickness measurements, and verifies the stoichiometry
and the order of the scheme.
"""

__version__ = "0.1.0"

from .materials import (
    DEFAULT_MATERIALS,
    MaterialTable,
    MoleReport,
    SwellingRatios,
    mole_balance,
    swelling_ratios,
)
from .pde_core import Diffusivities, FrontState, StefanConstants
from .environment import Forcing, forcing_at, load_timeseries
from .simulation import SimulationConfig, SimulationOutput, initialize, run

# served from patina.calibration on first use (PEP 562), so that a simulate
# job does not load the calibration layer
_CALIBRATION_NAMES = ("CalibrationResult", "ThicknessMeasurement", "calibrate", "residual")

__all__ = [
    "__version__",
    "DEFAULT_MATERIALS",
    "MaterialTable",
    "MoleReport",
    "SwellingRatios",
    "mole_balance",
    "swelling_ratios",
    "Diffusivities",
    "FrontState",
    "StefanConstants",
    "Forcing",
    "forcing_at",
    "load_timeseries",
    "SimulationConfig",
    "SimulationOutput",
    "initialize",
    "run",
    "CalibrationResult",
    "ThicknessMeasurement",
    "calibrate",
    "residual",
]


def __getattr__(name):
    if name in _CALIBRATION_NAMES:
        from . import calibration
        return getattr(calibration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_CALIBRATION_NAMES))
