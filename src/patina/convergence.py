"""The exact chamber solution, the seed of every run, and measured orders of the stepper.

Under constant forcing the double free boundary has a similarity solution
(Neumann's Stefan solution with two fronts; Carslaw & Jaeger, *Conduction
of Heat in Solids*, 1959, section 11.2): a = K_a*sqrt(tau) and
b = K_b*sqrt(tau), and the front-fixed profiles are steady.  With layer
widths W*sqrt(tau), W = (1+omega_b)*K_b, and V*sqrt(tau),
V = (1+omega_p)*K_a - K_b, the equations of ``pde_core`` become

    U'' = -z*W^2/(2*D)*U'                  (S and O on z in [0, 1])
    G'' = -(V^2*y + V*K_b)/(2*D_g)*G'      (G on y in [0, 1])

whose profiles are normalised integrals of exp(-phi), phi quadratic, in
closed form with ``math.erf``.  The SO2 Stefan condition alone fixes K_b, the
O Robin condition O(beta), and the cuprite Stefan condition K_a: two
bisections (``similarity``).  The Stefan groups are linear in the layer
porosities (Omega_s in n_b, Omega_g in n_p, gamma_o in 1/n_b) and in d_s and
d_g, so the same conditions at given K's yield the porosities of a given
state in closed form (``exact_porosities``) and its d_s and d_g by a fixed
point (``exact_diffusivities``, calibration's warm start).  Calibration also
scores chamber data by ``exact_fronts``.

Every run starts on this solution at SEED_HOURS (``exact_seed``), so row t
of a run is the exposure t + SEED_HOURS: ``exact_front_errors`` adds that
offset, the other functions take exposure hours.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .environment import constant_chamber_forcing, forcing_at
from .materials import swelling_ratios
from .pde_core import SECONDS_PER_HOUR, Diffusivities, stefan_constants

if TYPE_CHECKING:
    from .simulation import OutputRecord, SimulationConfig

__all__ = [
    "SEED_HOURS",
    "similarity",
    "chamber_at_start",
    "exact_seed",
    "exact_porosities",
    "exact_diffusivities",
    "exact_fronts",
    "exact_front_errors",
    "observed_orders",
    "MIN_TEMPORAL_ORDER",
]

# Exposure, in hours, at which every run starts on the exact solution.  Row
# t of a run is the exposure t + SEED_HOURS.  Earlier starts cost a few
# steps, as the front speeds grow like 1/sqrt(t): at 0.003 h and 0.01 h the
# 40 h chamber run takes 751 and 737 steps, against 737 here.  Later starts
# shift the rows: at 0.1 h criterion 2d's a reads +1.2e-3 from the printed
# state, over its 1e-3 tolerance.
SEED_HOURS = 0.03


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f between lo (f < 0) and hi (f >= 0), to the last bit."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return mid


def _erf_between(x0: float, x1: float) -> float:
    """erf(x1) - erf(x0) for 0 <= x0 <= x1, through erfc where erf is near 1."""
    return math.erfc(x0) - math.erfc(x1) if x0 > 1.0 else math.erf(x1) - math.erf(x0)


def _falling(p: float, q: float, y: float) -> float:
    """U(y) of the profile U' ~ exp(-(p*y^2 + q*y)), p > 0 and q >= 0, from 1 at 0 to 0 at 1."""
    r = math.sqrt(p)
    x0 = q / (2.0 * r)
    return _erf_between(x0 + r * y, x0 + r) / _erf_between(x0, x0 + r)


def _flux(p: float, q: float = 0.0) -> float:
    """-U'(1) of ``_falling``'s profile: exp(-phi(1)) over the integral of exp(-phi)."""
    r = math.sqrt(p)
    x0 = q / (2.0 * r)
    x1 = x0 + r
    return 2.0 * r * math.exp(-x1 * x1) / (math.sqrt(math.pi) * _erf_between(x0, x1))


def _stefan_groups(cfg: SimulationConfig):
    """The Stefan and Robin conditions of the exact solution, each solved for its group.

    Returns S_a, O_a and three functions: omega_s(K_b), the Omega_s of the
    SO2 condition; oxygen(K_b, gamma_o), K_a -> O(beta) of the O Robin
    condition; omega_g(K_b, gamma_o), K_a -> Omega_g of the cuprite one.
    """
    forcing = cfg.forcing
    if forcing.mode != "constant-chamber":
        raise ValueError(f"the exact solution needs constant forcing, not {forcing.mode}")
    s_a, o_a = forcing.so2[0] / cfg.scales.s_r, forcing.oxygen / cfg.scales.o_r
    if not (s_a > 0.0 and o_a > 0.0):
        raise ValueError("the exact solution needs nonzero SO2 and O2 forcing")
    d = cfg.diffusivities.hatted(cfg.scales)
    sw = swelling_ratios(cfg.materials)

    def omega_s(k_b):
        # SO2 Stefan condition K_b/2 = Omega_s/W * S_a * flux
        w = (1.0 + sw.omega_b) * k_b
        return w * k_b / (2.0 * s_a * _flux(w * w / (4.0 * d.d_s)))

    def oxygen(k_b, gamma_o):
        w = (1.0 + sw.omega_b) * k_b
        # the O Robin condition D_o/W*O'(1) = -(omega_p*K_a + W)/2*O(1) - gamma_o*K_b/2
        # is linear in O(beta) = O(1) and gives it in closed form
        m = 2.0 * d.d_o * _flux(w * w / (4.0 * d.d_o)) / w
        if m * o_a <= gamma_o * k_b:
            raise ValueError("oxygen is used up at beta: no similarity solution")
        return lambda k_a: (m * o_a - gamma_o * k_b) / (m + sw.omega_p * k_a + w)

    def omega_g(k_b, gamma_o):
        o_beta = oxygen(k_b, gamma_o)

        def cuprite(k_a):
            # cuprite Stefan condition K_a*V/2 = Omega_g * O(beta) * flux
            v = (1.0 + sw.omega_p) * k_a - k_b
            return k_a * v / (2.0 * o_beta(k_a) * _flux(v * v / (4.0 * d.d_g),
                                                        v * k_b / (2.0 * d.d_g)))
        return cuprite

    return s_a, o_a, omega_s, oxygen, omega_g


def similarity(cfg: SimulationConfig) -> tuple[float, float]:
    """(K_a, K_b) of the exact solution a = K_a*sqrt(tau), b = K_b*sqrt(tau), non-dimensional.

    Only constant forcing with SO2 and oxygen has one; any other forcing,
    or oxygen used up at beta by its reaction sink, raises ValueError.
    """
    s_a, o_a, omega_s, _, omega_g = _stefan_groups(cfg)
    sc = stefan_constants(cfg.materials, cfg.diffusivities.hatted(cfg.scales), cfg.scales)
    sw = swelling_ratios(cfg.materials)
    # omega_s(K_b) >= (1+omega_b)*K_b^2/(2*S_a) at hi, since the flux is at most 1
    k_b = _bisect(lambda k: omega_s(k) - sc.omega_s,
                  0.0, math.sqrt(2.0 * sc.omega_s * s_a / (1.0 + sw.omega_b)))
    cuprite = omega_g(k_b, sc.gamma_o)
    # V = 0 at lo; at hi K_a*V/2 exceeds Omega_g*o_a, the largest the flux term can be
    lo = k_b / (1.0 + sw.omega_p)
    return _bisect(lambda k: cuprite(k) - sc.omega_g,
                   lo, lo + math.sqrt(2.0 * sc.omega_g * o_a / (1.0 + sw.omega_p))), k_b


def chamber_at_start(cfg: SimulationConfig) -> SimulationConfig:
    """``cfg`` under constant forcing at the values its forcing has at t = 0."""
    return replace(cfg, forcing=constant_chamber_forcing(*forcing_at(cfg.forcing, 0.0)))


def exact_seed(cfg: SimulationConfig) -> tuple[np.ndarray, float, float]:
    """The packed ``[S | O | G]`` buffer, a0 and b0 of ``chamber_at_start(cfg)``'s
    exact solution at SEED_HOURS; raises the ValueErrors of ``similarity``."""
    chamber = chamber_at_start(cfg)
    k_a, k_b = similarity(chamber)
    s_a, o_a, _, oxygen, _ = _stefan_groups(chamber)
    d, sw = cfg.diffusivities.hatted(cfg.scales), swelling_ratios(cfg.materials)
    o_beta = oxygen(k_b, stefan_constants(cfg.materials, d, cfg.scales).gamma_o)(k_a)
    w, v = (1.0 + sw.omega_b) * k_b, (1.0 + sw.omega_p) * k_a - k_b
    z, y = np.linspace(0.0, 1.0, cfg.n_z + 1), np.linspace(0.0, 1.0, cfg.n_y + 1)
    p_s, p_o = w * w / (4.0 * d.d_s), w * w / (4.0 * d.d_o)
    p_g, q_g = v * v / (4.0 * d.d_g), v * k_b / (2.0 * d.d_g)
    u = np.array([s_a * _falling(p_s, 0.0, zk) for zk in z]
                 + [o_beta + (o_a - o_beta) * _falling(p_o, 0.0, zk) for zk in z]
                 + [o_beta * _falling(p_g, q_g, yk) for yk in y])
    root = math.sqrt(SEED_HOURS * SECONDS_PER_HOUR / cfg.scales.t_r)
    return u, k_a * root, k_b * root


def exact_porosities(cfg: SimulationConfig, a_cm: float, b_cm: float,
                     hours: float) -> tuple[float, float]:
    """(n_b, n_p) under which the exact solution passes through a_cm and b_cm at ``hours``.

    The inverse of ``similarity``: the SO2 condition at K_b yields n_b, then
    the cuprite condition at K_a, with gamma_o taken at that n_b, yields
    n_p.  The porosities of ``cfg`` are not read.  Raises the ValueErrors
    of ``similarity``.
    """
    _, _, omega_s, _, omega_g = _stefan_groups(cfg)
    unit = stefan_constants(replace(cfg.materials, n_b=1.0, n_p=1.0),
                            cfg.diffusivities.hatted(cfg.scales), cfg.scales)
    root = math.sqrt(hours * SECONDS_PER_HOUR / cfg.scales.t_r) * cfg.scales.lam
    k_a, k_b = a_cm / root, b_cm / root
    n_b = omega_s(k_b) / unit.omega_s
    return n_b, omega_g(k_b, unit.gamma_o / n_b)(k_a) / unit.omega_g


def exact_diffusivities(cfg: SimulationConfig, k_a: float, k_b: float) -> Diffusivities:
    """The inverse of ``similarity`` in d_s and d_g, d_o kept; raises its ValueErrors.

    Omega_s is linear in d_s and Omega_g in d_g; their fluxes, taken at the
    config's diffusivities first, are updated until these stop changing.
    """
    unit = stefan_constants(cfg.materials, Diffusivities(1.0, 1.0, 1.0).hatted(cfg.scales),
                            cfg.scales)
    d, seen = cfg.diffusivities, set()
    while d not in seen:
        seen.add(d)
        _, _, omega_s, _, omega_g = _stefan_groups(replace(cfg, diffusivities=d))
        d = replace(d, d_s=omega_s(k_b) / unit.omega_s,
                    d_g=omega_g(k_b, unit.gamma_o)(k_a) / unit.omega_g)
    return d


def exact_fronts(cfg: SimulationConfig, hours):
    """Exact a, b and total (1+omega_p)*a + omega_b*b in cm at ``hours`` (number or array)."""
    k_a, k_b = similarity(cfg)
    sw = swelling_ratios(cfg.materials)
    root = np.sqrt(np.asarray(hours, dtype=float) * SECONDS_PER_HOUR / cfg.scales.t_r)
    a, b = k_a * root * cfg.scales.lam, k_b * root * cfg.scales.lam
    return a, b, (1.0 + sw.omega_p) * a + sw.omega_b * b


def exact_front_errors(cfg: SimulationConfig, record: OutputRecord) -> tuple[float, float, float]:
    """Relative errors of a, b and the total of ``record``; row t is the exposure t + SEED_HOURS."""
    got = (record.a_cm, record.b_cm, record.total_cm)
    exact = exact_fronts(cfg, record.t_hours + SEED_HOURS)
    return tuple(float(g / e - 1.0) for g, e in zip(got, exact))


def observed_orders(errors: list[tuple[float, float]]) -> list[float]:
    """Richardson order estimates from consecutive (h, error) pairs.

    A zero, negative or NaN error has no order: a step that changed
    nothing would otherwise read as infinitely accurate and pass every
    order gate.  Such a pair raises ValueError naming it.
    """
    for h, e in errors:
        if not e > 0.0:
            raise ValueError(f"error {e!r} at h = {h!r} is not positive; no order can be measured")
    return [math.log(e1 / e2) / math.log(h1 / h2)
            for (h1, e1), (h2, e2) in zip(errors, errors[1:])]


MIN_TEMPORAL_ORDER = 1.9   # the step is of order 2; every rung of the ladder must show it

