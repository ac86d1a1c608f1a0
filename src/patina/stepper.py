"""IMEX time integration of the coupled field/front system.

Advection (front-fixing terms, H) is integrated explicitly; diffusion (G,
stiff because the hatted diffusivities are huge) implicitly via tridiagonal
solves.  The scheme is the implicit-explicit midpoint pair (Ascher, Ruuth &
Spiteri 1997) with one implicit stage and two explicit stages, combined
order 2 (patina.convergence measures it on this step):

    stage:   u(2) = u^n + dt/2 * H(u^n) + dt/2 * G(u(2))
    update:  u^{n+1} = u^n + dt * H(u(2)) + dt * G(u(2))

Fronts advance with the same explicit-midpoint staging: consumption speeds
are evaluated on the stage fields at the half-step geometry and applied over
the full step.  The implicit stage freezes the layer widths at their
step-start values, which keeps the solve linear and tridiagonal; the O(dt)
geometry lag is absorbed by the explicit part.

The run state is a plain float64 buffer holding the three species, laid out
as ``PackedLayout`` describes, and a ``FrontState``.  The species advance
together in that buffer: each explicit stage is one advection pass over it
and the implicit stage one tridiagonal solve, whose block-edge rows are
decoupled so that every species is solved exactly as on its own.  The
stage matrix is symmetric positive definite, so the solve is LAPACK's
dptsv.  The front-fixing advection speed is affine in the mapped
coordinate, z*s_o on S and O and y*s_i + m_i on G (``advection_rates``),
so each pass gets its per-row rate -c/dx as one matvec of the layout's
fixed rate basis -[z | y | 1]/dx with those three rates; the basis is zero
on the block-edge rows.  Every rate is >= 0 for the fronts a refresh
builds (``patina.pde_core``), so each pass is one forward difference.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .pde_core import (
    CONSUMED,
    Diffusivities,
    FrontState,
    StefanConstants,
    advection_rates,
    apply_outer_bcs,
    check_ordering,
    front_velocities,
    split_rhs_interior,
)
from .materials import SwellingRatios

__all__ = [
    "NondimModel",
    "PackedLayout",
    "TridiagonalError",
    "solve_tridiagonal",
    "select_dt",
    "imex_midpoint_step",
    "refresh_state",
]


def _load_flapack():
    """scipy's compiled LAPACK module, loaded without the scipy.linalg package.

    The package's __init__ pulls in imports (numpy.f2py, numpy.testing, ...)
    that take longer than a short run and that one LAPACK routine does not
    need; the top-level ``import scipy`` still runs, so its bundled
    BLAS/LAPACK is set up as for any scipy import.  The module is registered
    under its own name before it runs, so a later ``import scipy.linalg``
    reuses this extension object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, "linalg") for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dptsv = _flapack.dptsv


class TridiagonalError(RuntimeError):
    """Raised when the tridiagonal matrix is not positive definite."""


def solve_tridiagonal(diag, off, rhs, overwrite: bool = False) -> np.ndarray:
    """Solve a symmetric positive definite tridiagonal system.

    ``off`` is both the sub- and the super-diagonal, one shorter than
    ``diag``.  Backed by LAPACK dptsv, an L*D*L^T factorization without
    pivoting; its info code names the first row whose leading minor is not
    positive definite, which is surfaced in the error.  The inputs are left
    as they are unless ``overwrite`` lets dptsv consume all three; it then
    solves in the storage of ``rhs`` if that is a contiguous float64 array.
    dptsv is the routine scipy.linalg.lapack exposes, taken from scipy's
    compiled module scipy.linalg._flapack by ``_load_flapack`` so that a run
    does not pay for importing the scipy.linalg package.
    """
    n = len(diag)
    if len(off) != n - 1 or len(rhs) != n:
        raise ValueError("inconsistent tridiagonal system sizes")
    _, _, x, info = dptsv(diag, off, rhs, overwrite, overwrite, overwrite)
    if info != 0:
        if info > 0:
            raise TridiagonalError(f"matrix not positive definite at row {info - 1}")
        raise TridiagonalError(f"bad argument {-info} to the tridiagonal solver")
    return x


@dataclass(frozen=True)
class PackedLayout:
    """The flat buffer ``u = [S | O | G]`` of the run state, and its row tables.

    This is the one description of the buffer.  S and O live on the outer
    grid, n_z+1 nodes each from z=0 to z=1, and G on the inner grid, n_y+1
    nodes from y=0 to y=1; each block follows the one before it.  ``bounds``
    holds the flat nodes of the six end values S(0), S(1), O(0), O(1),
    G(0), G(1).  The four where two blocks meet, S(1) | O(0) and
    O(1) | G(0), are boundary nodes of their own species: no operator
    couples them across the block edge.  ``refresh_state`` writes all six
    in one assignment.

    The rows are flat nodes 1..N-2, row r being node r+1: the unknowns of
    the stage solve and the nodes of the advection pass.  A species index
    0, 1, 2 names S, O, G; 3 marks the four block-edge rows S(1), O(0),
    O(1), G(0), which hold boundary values and couple to no neighbour.

    ``rate_basis`` @ ``advection_rates(...)`` is the per-row -c/dx of the
    advection pass: its columns are -z/dz on S and O, -y/dy and -1/dy on G
    (at node k of a block on n cells, the exact -k and -n), zero elsewhere.
    """

    rate_basis: np.ndarray   # rows x 3: -[z | y | 1]/dx, zero on block edges
    species: np.ndarray      # species index per row, 3 on block edges
    link: np.ndarray         # species index of the coupling of rows r, r+1; 3 across an edge
    end_rows: tuple[int, ...]  # first interior row of S, first and last of O, first of G
    bounds: np.ndarray       # flat nodes S(0), S(1), O(0), O(1), G(0), G(1)
    stencils: np.ndarray     # flat nodes S(-3), S(-2), O(-3), O(-2), G(-3), G(-2)
    interior: np.ndarray     # rows that are interior nodes of their species

    @classmethod
    def build(cls, n_z: int, n_y: int) -> "PackedLayout":
        n_outer = n_z + 1
        starts = np.array((0, n_outer, 2 * n_outer))
        ends = starts + (n_z, n_z, n_y)
        bounds = np.stack((starts, ends), axis=1).ravel()
        node_species = np.repeat(np.arange(3), (n_outer, n_outer, n_y + 1))
        node_species[bounds] = 3
        species = node_species[1:-1]
        # rows S, S(1), O(0), O, O(1), G(0), G; built from lists, because a
        # build from masked numpy writes measured 0.25 MB more peak RSS
        outer = [(-k, 0, 0) for k in range(1, n_z)]
        edges = [(0, 0, 0)] * 2
        rate_basis = np.array(outer + edges + outer + edges
                              + [(0, -k, -n_y) for k in range(1, n_y)], dtype=float)
        link = np.where(species[:-1] == species[1:], species[:-1], 3)
        # node k is row k - 1: a block's first interior node start+1 is row
        # start, its last interior node end-1 is row end-2; the last rows of
        # S and G are left out, as S(1) = G(1) = CONSUMED adds nothing there
        end_rows = (int(starts[0]), int(starts[1]), int(ends[1]) - 2, int(starts[2]))
        return cls(rate_basis=rate_basis, species=species, link=link,
                   end_rows=end_rows, bounds=bounds,
                   stencils=np.stack((ends - 2, ends - 1), axis=1).ravel(),
                   interior=species != 3)


@dataclass(frozen=True)
class NondimModel:
    """Everything the stepper needs besides the state itself."""

    d_hat: Diffusivities
    sc: StefanConstants
    sw: SwellingRatios          # swelling ratios used by the front kinematics
    n_z: int
    n_y: int
    forcing_hat: Callable[[float], tuple[float, float]]

    @cached_property
    def dz(self) -> float:
        return 1.0 / self.n_z

    @cached_property
    def dy(self) -> float:
        return 1.0 / self.n_y

    @cached_property
    def layout(self) -> PackedLayout:
        return PackedLayout.build(self.n_z, self.n_y)


def select_dt(fs: FrontState, dz: float, dy: float, cfl_target: float,
              dt_max: float, omega_p: float) -> float:
    """Advective CFL step bound; diffusion imposes none (it is implicit).

    For ``fs`` from ``refresh_state`` (a_dot, b_dot >= 0) the outer speed
    peaks at z=1 with (beta_dot - gamma_dot)/width; the inner speed is
    linear in y with endpoint values b_dot/width and (1+omega_p)*a_dot/width.
    """
    c_outer = (fs.beta_dot - fs.gamma_dot) / (fs.beta - fs.gamma)
    c_inner = max(fs.b_dot, (1.0 + omega_p) * fs.a_dot) / (fs.a - fs.beta)
    dt = dt_max
    if c_outer > 0.0:
        dt = min(dt, cfl_target * dz / c_outer)
    if c_inner > 0.0:
        dt = min(dt, cfl_target * dy / c_inner)
    return dt


def _clamp_fields(u: np.ndarray) -> int:
    """Floor negative concentrations at zero; returns how many nodes clipped."""
    if not u.min() < 0.0:
        return 0
    mask = u < 0.0
    u[mask] = 0.0
    return int(np.count_nonzero(mask))


def refresh_state(u: np.ndarray, a: float, b: float, model: NondimModel,
                  forcing_values: tuple[float, float]) -> tuple[FrontState, int]:
    """The one ``FrontState`` at consumptions (a, b), and a clamp count; writes u's end values.

    Checks the ordering gamma < beta < a once, then reads the interior
    stencil nodes of the Stefan and Robin conditions.  Order matters: the
    pins S(1) = G(1) = CONSUMED enter the Stefan speeds, the speeds feed
    the Robin solve for O(1), and O(1) is handed to G(0).  The end values
    go in one assignment, in ``lay.bounds`` order: the forcing S, CONSUMED,
    the forcing O, O(1), G(0) = O(1), CONSUMED.
    """
    sw = model.sw
    omega_p, omega_b = sw.omega_p, sw.omega_b
    beta = b - omega_p * a
    gamma = -(omega_p * a + omega_b * b)
    check_ordering(a, beta, gamma)
    outer = beta - gamma
    lay = model.layout
    s3, s2, o3, o2, g3, g2 = u[lay.stencils].tolist()
    a_dot, b_dot, clamped = front_velocities(s3, s2, g3, g2, outer, a - beta, model.sc,
                                             model.dz, model.dy)
    gamma_dot = -(omega_p * a_dot + omega_b * b_dot)
    o_beta = apply_outer_bcs(o3, o2, outer, gamma_dot, b_dot, model.d_hat, model.sc, model.dz)
    s_a, o_a = forcing_values
    u[lay.bounds] = (s_a, CONSUMED, o_a, o_beta, o_beta, CONSUMED)
    # positional, the fastest way to build the tuple
    return FrontState(a, b, beta, gamma, a_dot, b_dot, b_dot - omega_p * a_dot,
                      gamma_dot), clamped


def _implicit_stage_solve(u: np.ndarray, h_int: np.ndarray, half_dt: float,
                          alpha: tuple[float, float, float], bounds: tuple[float, ...],
                          lay: PackedLayout) -> np.ndarray:
    """Solve v = u + half_dt*(H + L v) on every interior node, all blocks at once.

    ``alpha`` holds the S, O, G diffusion numbers half_dt*D/(width*dx)^2 and
    ``bounds`` the four end values S(0), O(0), O(1), G(0); the other two are
    the pins S(1) = G(1) = CONSUMED, which add nothing to their rows.  The
    end values enter the first and last interior rows; the four block-edge
    rows are identity rows with zero couplings on both sides, so the
    matrix is symmetric and diagonally dominant, positive definite.  Its
    L*D*L^T factorization meets a zero multiplier at every edge, so each
    block is solved exactly as it would be on its own, in place on the
    interior of the returned buffer.  Of the end values only S(0) and G(1),
    outside the solve, are written: the block-edge rows keep u's values
    (zero advection there), and the refresh after the stage writes all six.
    """
    out = np.empty_like(u)
    rhs = np.multiply(h_int, half_dt, out=out[1:-1])
    rhs += u[1:-1]
    a_s, a_o, a_g = alpha
    s_0, o_0, o_1, g_0 = bounds
    r_s0, r_o0, r_o1, r_g0 = lay.end_rows
    rhs[r_s0] += a_s * s_0
    rhs[r_o0] += a_o * o_0
    rhs[r_g0] += a_g * g_0
    rhs[r_o1] += a_o * o_1
    off = np.array((-a_s, -a_o, -a_g, 0.0))[lay.link]
    diag = np.array((1.0 + 2.0 * a_s, 1.0 + 2.0 * a_o, 1.0 + 2.0 * a_g, 1.0))[lay.species]
    x = solve_tridiagonal(diag, off, rhs, overwrite=True)
    if x is not rhs:    # dptsv solved a copy, so the solution is not in out yet
        rhs[:] = x
    out[0], out[-1] = s_0, CONSUMED
    return out


def _diffusion_numbers(half_dt: float, fs: FrontState,
                       model: NondimModel) -> tuple[float, float, float]:
    """Stage diffusion numbers of S, O and G at the step-start layer widths."""
    d = model.d_hat
    outer = (fs.beta - fs.gamma) * model.dz
    inner = (fs.a - fs.beta) * model.dy
    return (half_dt * d.d_s / outer ** 2, half_dt * d.d_o / outer ** 2,
            half_dt * d.d_g / inner ** 2)


def _advection(u: np.ndarray, fs: FrontState, model: NondimModel) -> np.ndarray:
    """Advection right-hand side of all three species in one pass over u.

    The per-row rate -c/dx is one matvec of the layout's rate basis with
    the three rates of the fronts.
    """
    rate = np.dot(model.layout.rate_basis, advection_rates(fs, model.sw.omega_p))
    return split_rhs_interior(u, rate)


def imex_midpoint_step(u: np.ndarray, fs: FrontState, tau: float, dt: float,
                       model: NondimModel) -> tuple[np.ndarray, FrontState, int, int]:
    """One step of the implicit-explicit midpoint rule on the coupled system.

    All three species advance together in the packed buffer ``u``, which
    is left as it is, and the fronts with them.  Returns the new buffer,
    the new fronts and the step's field and velocity clamp counts.  With
    zero Stefan constants and swelling ratios the fronts stay where they
    are at zero speed, and the step is the midpoint rule on fixed layers.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    lay = model.layout
    half = 0.5 * dt
    h1 = _advection(u, fs, model)
    forcing_mid = model.forcing_hat(tau + half)

    # Stage at tau + dt/2: explicit half-step of H, implicit half-step of the
    # diffusion, layer widths frozen at the step-start geometry.  End values:
    # the forcing at z=0, S(1) = G(1) = 0, and O(1), G(0) held from u^n.
    s_mid, o_mid = forcing_mid
    o_1, g_0 = u[lay.bounds[3:5]].tolist()
    stage = _implicit_stage_solve(u, h1, half, _diffusion_numbers(half, fs, model),
                                  (s_mid, o_mid, o_1, g_0), lay)
    field_clamps = _clamp_fields(stage)

    # Diffusion at the stage comes from the stage identity
    # G(u2) = 2*(u2 - u^n)/dt - H(u^n); re-evaluating the operator after the
    # boundary refresh below would amplify any boundary adjustment by the
    # stiff factor dt*D/(width*dx)^2.
    g2 = stage[1:-1] - u[1:-1]
    g2 *= 2.0
    g2 /= dt
    g2 -= h1

    fs_mid, velocity_clamps = refresh_state(stage, fs.a + half * fs.a_dot,
                                            fs.b + half * fs.b_dot, model, forcing_mid)

    # Full update: advection evaluated on the refreshed stage state at the
    # midpoint geometry, diffusion from the stage identity above.  Block-edge
    # rows keep their values until the boundary refresh.
    h2 = _advection(stage, fs_mid, model)
    h2 += g2
    h2 *= dt
    new = u.copy()
    interior = new[1:-1]
    np.add(interior, h2, out=interior, where=lay.interior)
    field_clamps += _clamp_fields(new)

    # fronts advance over the full step at the stage velocities
    fs_new, clamped = refresh_state(new, fs.a + dt * fs_mid.a_dot, fs.b + dt * fs_mid.b_dot,
                                    model, model.forcing_hat(tau + dt))
    return new, fs_new, field_clamps, velocity_clamps + clamped
