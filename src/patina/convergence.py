"""Verification battery: the exact chamber solution and measured orders of the shipped stepper.

Under constant forcing the double free boundary has a similarity solution
(Neumann's Stefan solution with two fronts; Carslaw & Jaeger, *Conduction
of Heat in Solids*, 1959, section 11.2): a = K_a*sqrt(tau) and
b = K_b*sqrt(tau), and the front-fixed profiles are steady.  With layer
widths W*sqrt(tau), W = (1+omega_b)*K_b, and V*sqrt(tau),
V = (1+omega_p)*K_a - K_b, the equations of ``pde_core`` become

    U'' = -z*W^2/(2*D)*U'                  (S and O on z in [0, 1])
    G'' = -(V^2*y + V*K_b)/(2*D_g)*G'      (G on y in [0, 1])

whose profiles are integrals of exp(-phi), evaluated by one fixed
Gauss-Legendre rule (the exponents are small).  The SO2 Stefan condition
alone fixes K_b, the O Robin condition O(beta), and the cuprite Stefan
condition K_a: two bisections (``similarity``).  The Stefan groups are
linear in the layer porosities (Omega_s in n_b, Omega_g in n_p, gamma_o in
1/n_b) and in d_s and d_g, so the same conditions at given K's yield the
porosities of a given state in closed form (``exact_porosities``) and its
d_s and d_g by a fixed point (``exact_diffusivities``, calibration's warm
start).  Calibration also scores chamber data by ``exact_fronts``.

The temporal order check (``moving_front_temporal_errors``) drives the
shipped step through ``simulation.run``, fronts moving, and measures the
order against self-refinement: on today's step an exact ladder meets the
error of the linear-profile start and stops shrinking.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .materials import swelling_ratios
from .pde_core import Diffusivities, stefan_constants
from .simulation import SECONDS_PER_HOUR, OutputRecord, SimulationConfig, run

__all__ = [
    "similarity",
    "exact_porosities",
    "exact_diffusivities",
    "exact_fronts",
    "exact_front_errors",
    "observed_orders",
    "MIN_TEMPORAL_ORDER",
    "moving_front_temporal_errors",
]


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f between lo (f < 0) and hi (f >= 0), to the last bit."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return mid


def _stefan_groups(cfg: SimulationConfig):
    """The two Stefan conditions of the exact solution, each solved for its group.

    Returns the non-dimensional forcing S_a, O_a and two functions:
    omega_s(K_b), the Omega_s under which the SO2 condition holds at K_b,
    and omega_g(K_b, gamma_o), the function K_a -> Omega_g of the cuprite
    condition.  Raises the ValueErrors of ``similarity``.
    """
    forcing = cfg.forcing
    if forcing.mode != "constant-chamber":
        raise ValueError(f"the exact solution needs constant forcing, not {forcing.mode}")
    s_a, o_a = forcing.so2[0] / cfg.scales.s_r, forcing.oxygen / cfg.scales.o_r
    if not (s_a > 0.0 and o_a > 0.0):
        raise ValueError("the exact solution needs nonzero SO2 and O2 forcing")
    d = cfg.diffusivities.hatted(cfg.scales)
    sw = swelling_ratios(cfg.materials)
    # built per call: at import its eigenvalue solve would cost every command
    # about 1 MB of resident memory
    nodes, weights = np.polynomial.legendre.leggauss(32)   # on [-1, 1]

    def flux(phi) -> float:
        """-U'(1) of the profile U' ~ exp(-phi) that falls from 1 at 0 to 0 at 1."""
        return 2.0 * math.exp(-phi(1.0)) / float(weights @ np.exp(-phi(0.5 * (nodes + 1.0))))

    def outer_flux(w, d_hat):
        return flux(lambda z: (w * z) ** 2 / (4.0 * d_hat))

    def omega_s(k_b):
        # SO2 Stefan condition K_b/2 = Omega_s/W * S_a * flux
        w = (1.0 + sw.omega_b) * k_b
        return w * k_b / (2.0 * s_a * outer_flux(w, d.d_s))

    def omega_g(k_b, gamma_o):
        w = (1.0 + sw.omega_b) * k_b
        # the O Robin condition D_o/W*O'(1) = -(omega_p*K_a + W)/2*O(1) - gamma_o*K_b/2
        # is linear in O(beta) = O(1) and gives it in closed form
        m = 2.0 * d.d_o * outer_flux(w, d.d_o) / w
        if m * o_a <= gamma_o * k_b:
            raise ValueError("oxygen is used up at beta: no similarity solution")

        def cuprite(k_a):
            # cuprite Stefan condition K_a*V/2 = Omega_g * O(beta) * flux
            v = (1.0 + sw.omega_p) * k_a - k_b
            o_beta = (m * o_a - gamma_o * k_b) / (m + sw.omega_p * k_a + w)
            return k_a * v / (2.0 * o_beta * flux(
                lambda y: (v * v * y * y / 2.0 + v * k_b * y) / (2.0 * d.d_g)))
        return cuprite

    return s_a, o_a, omega_s, omega_g


def similarity(cfg: SimulationConfig) -> tuple[float, float]:
    """(K_a, K_b) of the exact solution a = K_a*sqrt(tau), b = K_b*sqrt(tau), non-dimensional.

    Only constant forcing with SO2 and oxygen has one; any other forcing,
    or oxygen used up at beta by its reaction sink, raises ValueError.
    """
    s_a, o_a, omega_s, omega_g = _stefan_groups(cfg)
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


def exact_porosities(cfg: SimulationConfig, a_cm: float, b_cm: float,
                     hours: float) -> tuple[float, float]:
    """(n_b, n_p) under which the exact solution passes through a_cm and b_cm at ``hours``.

    The inverse of ``similarity``: the SO2 condition at K_b yields n_b, then
    the cuprite condition at K_a, with gamma_o taken at that n_b, yields
    n_p.  The porosities of ``cfg`` are not read.  Raises the ValueErrors
    of ``similarity``.
    """
    _, _, omega_s, omega_g = _stefan_groups(cfg)
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
        _, _, omega_s, omega_g = _stefan_groups(replace(cfg, diffusivities=d))
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
    """Signed relative errors of a, b and the total of ``record`` against the exact solution."""
    got = (record.a_cm, record.b_cm, record.total_cm)
    return tuple(float(g / e - 1.0) for g, e in zip(got, exact_fronts(cfg, record.t_hours)))


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


def moving_front_temporal_errors(cfg: SimulationConfig, divisors=(1, 2, 4, 8, 16),
                                 n: int = 25, horizon_hours: float = 4.0
                                 ) -> list[tuple[float, float]]:
    """(1/k, error) pairs of the coupled run on an n x n grid, fronts moving.

    cfl_target and dt_max are divided by each divisor k; the error at k is
    the largest relative change of a, b and gamma at the horizon from k to
    the next divisor.
    """
    finals = []
    for k in divisors:
        last = run(replace(cfg, n_z=n, n_y=n, horizon_hours=horizon_hours,
                           cfl_target=cfg.cfl_target / k, dt_max=cfg.dt_max / k,
                           max_steps=k * cfg.max_steps)).records[-1]
        finals.append(np.array((last.a_cm, last.b_cm, last.gamma_cm)))
    return [(1.0 / k, float(np.max(np.abs(coarse - fine) / np.abs(fine))))
            for k, coarse, fine in zip(divisors, finals, finals[1:])]
