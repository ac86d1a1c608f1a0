"""Physical constants and stoichiometry of the copper -> cuprite -> brochantite chain.

Two instantaneous reactions drive the patina:

    2 Cu + 1/2 O2                      -> Cu2O            (cuprite)
    2 Cu2O + SO2 + 3 H2O + 3/2 O2      -> Cu4SO4(OH)6     (brochantite)

Consuming a thickness of the parent phase produces a larger thickness of the
product phase (swelling).  This module houses the material table (mass
densities in g/cm3, molar masses in g/mol, layer porosities), the two
swelling ratios and the per-area mole-balance report used as the
stoichiometry oracle: for any kinematically consistent front state, two
copper moles are wasted per cuprite mole formed and two cuprite moles are
wasted per brochantite mole formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "MaterialTable",
    "SwellingRatios",
    "MoleReport",
    "DEFAULT_MATERIALS",
    "swelling_ratios",
    "mole_balance",
]


@dataclass(frozen=True)
class MaterialTable:
    """Densities (g/cm3), molar masses (g/mol) and layer porosities.

    Defaults are solid handbook values for copper, cuprite, brochantite and
    SO2.  The O2 molar mass is a standard constant.  Porosities
    default to 1.0 because they pair with the package's calibrated default
    diffusivities, which absorb the pore structure together with the finite
    reaction time.  Intrinsic literature diffusivities need the layer
    porosities instead: the ``[materials]`` section of
    configs/reference_diffusivities.ini holds the pair identified from the
    paper's printed 40 h chamber state for that literature set.  A config
    file sets any field as a ``[materials]`` key of the same name.
    """

    rho_c: float = 8.94     # copper mass density
    M_c: float = 63.55      # copper molar mass
    rho_p: float = 6.00     # cuprite (Cu2O)
    M_p: float = 143.09
    rho_b: float = 3.97     # brochantite (Cu4SO4(OH)6)
    M_b: float = 452.3
    M_s: float = 64.07      # SO2
    M_o: float = 32.00      # O2
    n_b: float = 1.0        # brochantite-layer porosity, in (0, 1]
    n_p: float = 1.0        # cuprite-layer porosity, in (0, 1]

    def __post_init__(self):
        for name in ("rho_c", "M_c", "rho_p", "M_p", "rho_b", "M_b",
                     "M_s", "M_o"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"material parameter {name} must be positive, got {value}")
        for name in ("n_b", "n_p"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"porosity {name} must lie in (0, 1], got {value}")

    @property
    def mu_c(self) -> float:
        """Copper molar density, mol/cm3."""
        return self.rho_c / self.M_c

    @property
    def mu_p(self) -> float:
        """Cuprite molar density, mol/cm3."""
        return self.rho_p / self.M_p

    @property
    def mu_b(self) -> float:
        """Brochantite molar density, mol/cm3."""
        return self.rho_b / self.M_b


DEFAULT_MATERIALS = MaterialTable()


class SwellingRatios(NamedTuple):
    """Volume expansion ratios of the two conversions.

    omega_p: cuprite gained per copper consumed, mu_c/(2*mu_p) - 1.
    omega_b: brochantite gained per cuprite consumed, mu_p/(2*mu_b) - 1.
    """

    omega_p: float
    omega_b: float


def swelling_ratios(mat: MaterialTable) -> SwellingRatios:
    """Expansion ratios from the molar densities of the three solids."""
    return SwellingRatios(
        omega_p=mat.mu_c / (2.0 * mat.mu_p) - 1.0,
        omega_b=mat.mu_p / (2.0 * mat.mu_b) - 1.0,
    )


class MoleReport(NamedTuple):
    """Per-unit-area mole counts (mol/cm2) and the two stoichiometric ratios.

    Ratios are NaN when the corresponding product count is zero.
    """

    copper_wasted: float
    cuprite_formed: float
    cuprite_wasted: float
    brochantite_formed: float
    ratio_copper_cuprite: float
    ratio_cuprite_brochantite: float


def mole_balance(a: float, b: float, beta: float, gamma: float,
                 mat: MaterialTable) -> MoleReport:
    """Stoichiometry oracle over the four front positions in cm.

    Counts are taken from the geometry, not from the closed forms, so a
    simulation whose front kinematics disagree with the material table is
    detected: gross cuprite formed is the retained layer (a - beta) plus the
    consumed thickness b, and brochantite formed is the layer (beta - gamma)
    times its molar density.  For consistent states these equal
    (1 + omega_p)*a*mu_p and b*mu_p/2 and both ratios are exactly 2.
    """
    if not (gamma <= beta <= a):
        raise ValueError(f"front ordering gamma <= beta <= a violated: "
                         f"gamma={gamma!r} beta={beta!r} a={a!r}")
    if a < 0.0 or b < 0.0:
        raise ValueError(f"consumptions must be non-negative, got a={a}, b={b}")

    copper_wasted = a * mat.mu_c
    cuprite_formed = ((a - beta) + b) * mat.mu_p
    cuprite_wasted = b * mat.mu_p
    brochantite_formed = (beta - gamma) * mat.mu_b

    ratio_cc = copper_wasted / cuprite_formed if cuprite_formed > 0.0 else math.nan
    ratio_cb = cuprite_wasted / brochantite_formed if brochantite_formed > 0.0 else math.nan
    return MoleReport(
        copper_wasted=copper_wasted,
        cuprite_formed=cuprite_formed,
        cuprite_wasted=cuprite_wasted,
        brochantite_formed=brochantite_formed,
        ratio_copper_cuprite=ratio_cc,
        ratio_cuprite_brochantite=ratio_cb,
    )
