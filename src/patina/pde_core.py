"""Front-fixed transport equations of the two-layer patina.

Physical picture (x grows into the metal, x = 0 at the original surface):

    air | brochantite | cuprite | copper
        gamma(t)    beta(t)    a(t)

a is the copper consumption depth, b the cuprite consumption; swelling
pushes the outer surface outward, gamma_dot = -(omega_p*a_dot +
omega_b*b_dot) and beta = b - omega_p*a.  Each layer is mapped onto a fixed
unit interval: z in [0,1] spans brochantite (z=0 at gamma, z=1 at beta) and
carries SO2 (S) and oxygen (O); y in [0,1] spans cuprite (y=0 at beta, y=1
at a) and carries oxygen (G).  The mapping turns front motion into
advection with the coefficients q(z) and f(y) below.

Outer species u in {S, O}:

    du/dt = D/(beta-gamma)^2 u_zz - (gamma_dot/(beta-gamma) + q(z)) u_z

with S(0)=S_a, S(1)=0, O(0)=O_a and a Robin condition at z=1 for O carrying
its reaction sink.  Inner oxygen:

    dG/dt = D_g/(a-beta)^2 G_yy + (omega_p*a_dot/(a-beta) - f(y)) G_y

with G(0) = O at beta, G(1) = 0.  The two Stefan conditions set the front
speeds from one-sided boundary gradients:

    b_dot = -Omega_s/(beta-gamma) * S_z(1)
    a_dot = -Omega_g/(a-beta)    * G_y(1)

The brochantite reaction also consumes water, but water enters neither
Stefan condition nor any other field, so it is not carried.

The model is solved in the units of its outputs: lengths in cm, time in
hours and concentrations in g/cm3, so the diffusivities enter in cm2/h
(``Diffusivities.per_hour``).

The functions here take flat arrays and plain floats: the front
kinematics, the advection rates, the upwind pass, the Stefan speeds and
the Robin solve for O(1).  None of them writes a boundary node.  How the
three species share one buffer, and where its end values sit, is
described once, by ``stepper.PackedLayout``.

For consistent fronts with clamped speeds a_dot, b_dot >= 0 every
advection speed is <= 0: z*s_o with s_o = -(1+omega_b)*b_dot/width outside,
from -b_dot/width to -(1+omega_p)*a_dot/width inside, where 1+omega_b =
mu_p/(2 mu_b) > 0 and 1+omega_p = mu_c/(2 mu_p) > 0.  So the upwind
difference is always the forward one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .materials import MaterialTable

__all__ = [
    "Diffusivities",
    "FrontState",
    "check_ordering",
    "StefanConstants",
    "stefan_constants",
    "advection_rates",
    "outer_advection_coeff",
    "inner_advection_coeff",
    "split_rhs_interior",
    "front_velocities",
    "apply_outer_bcs",
    "BoundaryConditionError",
    "CONSUMED",
    "SECONDS_PER_HOUR",
]


class BoundaryConditionError(RuntimeError):
    """Raised when a Robin boundary solve degenerates."""


# S at beta and G at a: each species is used up at the front that consumes
# it, the Dirichlet conditions S(1) = G(1) = 0
CONSUMED = 0.0

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class Diffusivities:
    """Diffusivities in cm2/s, as configured."""

    d_g: float
    d_s: float
    d_o: float

    def __post_init__(self):
        for name in ("d_g", "d_s", "d_o"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"diffusivity {name} must be positive, got {value}")

    def per_hour(self) -> "Diffusivities":
        """The same diffusivities in cm2/h, the units the model is solved in."""
        return Diffusivities(self.d_g * SECONDS_PER_HOUR, self.d_s * SECONDS_PER_HOUR,
                             self.d_o * SECONDS_PER_HOUR)


class FrontState(NamedTuple):
    """The four moving quantities (cm) and their velocities (cm/h).

    a: copper consumption; b: cuprite consumption; beta = b - omega_p*a is
    the cuprite/brochantite boundary; gamma = -(omega_p*a + omega_b*b) the
    outer surface.  Strict ordering gamma < beta < a must hold.  An
    immutable named tuple: the stepper builds one per boundary refresh,
    and a tuple is built several times faster than a frozen dataclass.
    """

    a: float
    b: float
    beta: float
    gamma: float
    a_dot: float = 0.0
    b_dot: float = 0.0
    beta_dot: float = 0.0
    gamma_dot: float = 0.0


def check_ordering(a: float, beta: float, gamma: float) -> None:
    """Raise ValueError unless gamma < beta < a: both layers have positive width."""
    if not gamma < beta < a:
        raise ValueError(
            f"front ordering gamma < beta < a violated: "
            f"gamma={gamma!r} beta={beta!r} a={a!r}"
        )


class StefanConstants(NamedTuple):
    """The groups of the interface conditions (see ``stefan_constants``).

    omega_s drives the cuprite-consumption Stefan condition, omega_g the
    copper-consumption one; gamma_o is the reaction-sink coefficient of the
    oxygen Robin condition at beta.
    """

    omega_s: float
    omega_g: float
    gamma_o: float


def stefan_constants(mat: MaterialTable, d: Diffusivities) -> StefanConstants:
    """Interface constants from materials and diffusivities in cm2/h.

    omega_s and omega_g are in cm5/(g h): over a layer width in cm, times a
    concentration gradient in g/cm3 per unit of the mapped coordinate, they
    give a front speed in cm/h.  gamma_o is in g/cm3.
    """
    return StefanConstants(
        omega_s=2.0 * mat.n_b * d.d_s * (mat.M_p / mat.M_s) / mat.rho_p,
        omega_g=4.0 * mat.n_p * d.d_g * (mat.M_c / mat.M_o) / mat.rho_c,
        gamma_o=0.75 / mat.n_b * (mat.M_o / mat.M_p) * mat.rho_p,
    )


def advection_rates(fs: FrontState, omega_p: float) -> tuple[float, float, float]:
    """The advection speeds as straight lines in the mapped coordinate.

    Returns (s_o, s_i, m_i): the outer speed gamma_dot/width + q(z) is
    z*s_o on S and O, and the inner speed c = -A(y) = f(y) -
    omega_p*a_dot/width is y*s_i + m_i on G.  For consistent fronts the
    inner speed runs from m_i = -b_dot/width at y=0 to s_i + m_i =
    -(1+omega_p)*a_dot/width at y=1, so each speed peaks at an end of its
    layer, the outer one at z=1.  ``fs`` is a ``FrontState``, whose ordering
    keeps both widths positive.
    """
    outer = fs.beta - fs.gamma
    inner = fs.a - fs.beta
    bd = fs.beta_dot
    return ((fs.gamma_dot - bd) / outer, (bd - fs.a_dot) / inner,
            -(bd + omega_p * fs.a_dot) / inner)


def outer_advection_coeff(z, fs: FrontState):
    """Outer advection speed z*s_o at grid coordinates z (see advection_rates)."""
    return z * advection_rates(fs, 0.0)[0]


def inner_advection_coeff(y, fs: FrontState, omega_p: float):
    """Inner advection speed c = y*s_i + m_i of dG/dt + c G_y = diffusion (advection_rates)."""
    _, s_i, m_i = advection_rates(fs, omega_p)
    return y * s_i + m_i


def split_rhs_interior(u: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Explicit upwind advection right-hand side -c*u_x at the interior nodes of u.

    ``u`` is one flat buffer, usually the packed ``[S | O | G]`` of
    ``stepper.PackedLayout``; the result covers nodes 1..N-2.  ``rate`` is
    -c/dx at each of those nodes, the advection speed over the grid
    spacing, so blocks on different grids go through one pass.  Every rate
    must be >= 0 (c <= 0, see the module docstring), so the upwind
    difference is the forward one, u[i+1] - u[i].  A difference taken
    across a block edge mixes two species, so those rows need rate 0.  The
    stepper puts the same difference into its implicit matrix and does not
    call this explicit form.
    """
    if u.ndim != 1 or u.size < 3:
        raise ValueError(f"field must be a 1-D array with at least 3 nodes, got shape {u.shape}")
    if rate.shape != (u.size - 2,):
        raise ValueError("advection rate grid does not match the field grid")
    rhs = u[2:] - u[1:-1]
    rhs *= rate
    return rhs


def front_velocities(s_3: float, s_2: float, g_3: float, g_2: float, outer: float,
                     inner: float, sc: StefanConstants, dz: float,
                     dy: float) -> tuple[float, float, int]:
    """The front speeds (a_dot, b_dot) from the two Stefan conditions, and a clamp count.

    b_dot comes from the SO2 gradient at beta, a_dot from the inner oxygen
    gradient at a; both use the one-sided second-order stencil, exact for
    quadratics, on the last three nodes of a species.  The last node is the
    Dirichlet pin S(1) = G(1) = CONSUMED, so only the two before it are
    passed: (s_3, s_2) = (S(-3), S(-2)) and (g_3, g_2) = (G(-3), G(-2)).
    ``outer`` and ``inner`` are the layer widths beta - gamma and a - beta.
    Transiently negative speeds (discretization noise; the reactions are
    irreversible) are clamped to zero and counted.
    """
    b_dot = -sc.omega_s / outer * ((s_3 - 4.0 * s_2) / (2.0 * dz))
    a_dot = -sc.omega_g / inner * ((g_3 - 4.0 * g_2) / (2.0 * dy))

    clamped = 0
    if b_dot < 0.0:
        b_dot = 0.0
        clamped += 1
    if a_dot < 0.0:
        a_dot = 0.0
        clamped += 1
    return a_dot, b_dot, clamped


def apply_outer_bcs(o_3: float, o_2: float, outer: float, gamma_dot: float, b_dot: float,
                    d: Diffusivities, sc: StefanConstants, dz: float) -> float:
    """O(1), the outer oxygen at beta, from its Robin condition; writes nothing.

    The condition D/width O_z = (gamma_dot - b_dot) O - gamma_o*b_dot holds
    at the front speeds ``gamma_dot`` and ``b_dot``, ``outer`` being the
    width beta - gamma.  The one-sided stencil on (o_3, o_2) = (O(-3),
    O(-2)) makes it linear in O(1):
    k*(3 O(1) - 4 O(-2) + O(-3)) = (gamma_dot - b_dot) O(1) - gamma_o*b_dot
    with k = D/(2 dz width).  A negative solution is clamped to zero.
    """
    k = d.d_o / (2.0 * dz * outer)
    denom = 3.0 * k - (gamma_dot - b_dot)
    if abs(denom) < 1e-300 or not math.isfinite(denom):
        raise BoundaryConditionError(
            f"singular Robin coefficient for O: dz={dz}, "
            f"gamma_dot={gamma_dot}, b_dot={b_dot}, k={k}"
        )
    return max((k * (4.0 * o_2 - o_3) - sc.gamma_o * b_dot) / denom, 0.0)
