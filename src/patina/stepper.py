"""Extrapolated linearly implicit Euler integration of the coupled field/front system.

Each step is one stage of Deuflhard's extrapolated linearly implicit Euler
method (LIMEX; Deuflhard, SIAM Review 27, 1985; Hairer & Wanner, *Solving
ODEs II*, IV.9): one implicit Euler substep IE(dt) and two IE(dt/2), and
the extrapolation 2*(two halves) - (one full).  The result is of order 2
and L-stable, its stability function 2/(1 - z/2)^2 - 1/(1 - z) going to 0
as z -> -oo, so neither the stiff diffusion nor the advection bounds the
step; patina.convergence measures the order on this step.  The difference
of the two results is the local error estimate that the step control of
``patina.simulation`` accepts or rejects the step on.

A substep IE(h) from (u, fronts):

* the fronts advance by h at the step-start speeds;
* the fields solve (I - h*(L_diff + L_adv)) v = u at the advanced layer
  widths, with the upwind advection in the matrix.  An interior row has
  diagonal 1 + 2*alpha + h*r, sub-diagonal -alpha and super-diagonal
  -alpha - h*r, where alpha = h*D/(width*dx)^2 and r = -c/dx >= 0 is the
  advection rate at the advanced widths and the start speeds.  The matrix
  is an M-matrix, so a substep keeps the fields non-negative;
* the end values are Dirichlet data: S(0) and O(0) the forcing at t + h,
  S(1) = G(1) = CONSUMED, and O(1) and G(0) held from u.

The fronts of the two results are a + dt*a_dot and a + dt/2*(a_dot +
a_dot(mid)), so the extrapolated fronts are a + dt*a_dot(mid), the explicit
midpoint rule, with the speeds of the refreshed half-step state.  Only the
half-step state and the end of the step are refreshed.

The run state is a plain float64 buffer holding the three species, laid out
as ``PackedLayout`` describes, and a ``FrontState``.  The species advance
together in that buffer: one substep is one tridiagonal solve over the
whole buffer, whose six end nodes are identity rows that decouple the
blocks, so every species is solved exactly as on its own.  IE(dt) and the
first IE(dt/2) both start from u, so one LAPACK dgtsv call solves both,
the two systems stacked; the end rows decouple them too.  All diagonals and
right-hand-side terms of a solve are one product of a few coefficients with
the layout's fixed ``systems`` map.  The front-fixing advection speed is
affine in the mapped coordinate, z*s_o on S and O and y*s_i + m_i on G
(``advection_rates``), which the rate rows -[z | y | 1]/dx of the layout's
``table`` turn into the per-row r.  Every rate is >= 0 for the fronts a
refresh builds (``patina.pde_core``), so the upwind difference is the
forward one.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np

from .environment import Forcing, forcing_at
from .pde_core import (
    CONSUMED,
    Diffusivities,
    FrontState,
    StefanConstants,
    advection_rates,
    apply_outer_bcs,
    check_ordering,
    front_velocities,
)
from .materials import SwellingRatios

__all__ = [
    "Model",
    "PackedLayout",
    "TridiagonalError",
    "solve_tridiagonal",
    "select_dt",
    "imex_midpoint_step",
    "refresh_state",
]


def _load_flapack():
    """scipy's compiled LAPACK module, loaded without running any scipy package.

    Neither ``scipy/__init__`` nor ``scipy/linalg/__init__`` runs: the
    extension is found in the directory ``importlib.util.find_spec`` names
    for scipy and loaded on its own.  The packages' imports (numpy.f2py,
    numpy.testing, scipy._lib, ...) cost more memory and time than a short
    run, and one LAPACK routine needs none of them; the Linux wheel's
    extension finds its bundled OpenBLAS through its own RPATH.
    Only if that bare load raises ImportError does ``import scipy`` run, as
    on Windows wheels, whose ``__init__`` adds the DLL directory, and the
    load is tried again.  The module is registered under its own name, so a
    later ``import scipy.linalg`` reuses this extension object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is not None:
        try:
            return _load_extension(name, spec.submodule_search_locations)
        except ImportError:
            pass
    import scipy
    return _load_extension(name, scipy.__path__)


def _load_extension(name: str, scipy_path):
    """The extension module ``name`` of scipy.linalg, found under ``scipy_path``
    and registered in ``sys.modules`` once it has loaded."""
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, "linalg") for p in scipy_path])
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgtsv = _flapack.dgtsv


class TridiagonalError(RuntimeError):
    """Raised when the tridiagonal matrix is singular."""


def solve_tridiagonal(lower, diag, upper, rhs, overwrite: bool = False) -> np.ndarray:
    """Solve a tridiagonal system.

    ``lower`` and ``upper`` are the sub- and super-diagonal, one shorter
    than ``diag``.  Backed by LAPACK dgtsv, Gaussian elimination with
    partial pivoting; its info code names the first row whose pivot is
    exactly zero, which is surfaced in the error.  The inputs are left as
    they are unless ``overwrite`` lets dgtsv consume all four; it then
    solves in the storage of ``rhs`` if that is a contiguous float64 array.
    dgtsv is the routine scipy.linalg.lapack exposes, taken from scipy's
    compiled module scipy.linalg._flapack by ``_load_flapack`` so that a run
    does not pay for importing the scipy and scipy.linalg packages.
    """
    n = len(diag)
    if len(lower) != n - 1 or len(upper) != n - 1 or len(rhs) != n:
        raise ValueError("inconsistent tridiagonal system sizes")
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs, overwrite, overwrite, overwrite,
                             overwrite)
    if info != 0:
        if info > 0:
            raise TridiagonalError(f"matrix singular at row {info - 1}")
        raise TridiagonalError(f"bad argument {-info} to the tridiagonal solver")
    return x


class PackedLayout(NamedTuple):
    """The flat buffer ``u = [S | O | G]`` of the run state, and its node tables.

    This is the one description of the buffer.  S and O live on the outer
    grid, n_z+1 nodes each from z=0 to z=1, and G on the inner grid, n_y+1
    nodes from y=0 to y=1; each block follows the one before it.  ``bounds``
    holds the flat nodes of the six end values S(0), S(1), O(0), O(1),
    G(0), G(1).  The four where two blocks meet, S(1) | O(0) and
    O(1) | G(0), are boundary nodes of their own species: no operator
    couples them across the block edge.  ``refresh_state`` writes all six
    in one assignment.

    ``table`` has one column per node and seven rows: ones; the S, O and G
    indicators of the interior nodes; and the rate basis -z/dz on S and O,
    -y/dy and -1/dy on G (at node k of a block on n cells, the exact -k and
    -n).  The end nodes are zero in all but the first row.
    ``rates @ table[4:]`` is the per-node advection rate -c/dx for the
    three ``advection_rates``.

    ``systems[k - 1]`` turns the ten coefficients of each of k substeps
    (see ``_coefficients``), one substep after the other, into all of their
    matrices and right-hand-side terms in one product.  The result holds
    four parts, each over the k copies of the buffer one after the other:
    the diagonals, the sub-diagonals, the super-diagonals and the terms that
    the start values S(0), O(0) and G(0) add to the first interior row of
    their species.  Those three couplings go to the right-hand side: then no
    row couples to an end row above it, every row is diagonally dominant,
    and dgtsv's elimination never swaps two rows, so the end values come
    back exactly as given.  (In the matrix, an alpha > 1 made it swap an
    end row with the row below, and the solve lost digits in proportion.)
    """

    table: np.ndarray        # 7 x nodes: ones, species indicators, rate basis
    systems: tuple[np.ndarray, ...]   # 10k x 4k*nodes, for k = 1 and 2
    bounds: np.ndarray       # flat nodes S(0), S(1), O(0), O(1), G(0), G(1)
    stencils: np.ndarray     # flat nodes S(-3), S(-2), O(-3), O(-2), G(-3), G(-2)

    @classmethod
    def build(cls, n_z: int, n_y: int) -> "PackedLayout":
        n_outer = n_z + 1
        starts = np.array((0, n_outer, 2 * n_outer))
        ends = starts + (n_z, n_z, n_y)
        bounds = np.stack((starts, ends), axis=1).ravel()
        size = int(ends[-1]) + 1
        table = np.zeros((7, size))
        table[0] = 1.0
        k_outer, k_inner = np.arange(1, n_z), np.arange(1, n_y)
        for species, (start, k) in enumerate(zip(starts, (k_outer, k_outer, k_inner))):
            table[1 + species, start + k] = 1.0
        table[4, k_outer] = table[4, n_outer + k_outer] = -k_outer
        table[5, 2 * n_outer + k_inner] = -k_inner
        table[6, 2 * n_outer + k_inner] = -n_y
        first = np.zeros((3, size))
        first[[0, 1, 2], starts + 1] = 1.0
        species, rates = table[1:4], table[4:]
        # coefficient rows by diagonal, sub-diagonal, super-diagonal and
        # right-hand-side term of one substep
        single = np.zeros((10, 4, size))
        single[0, 0] = table[0]
        single[1:4, 0], single[4:7, 0] = 2.0 * species, rates
        single[1:4, 1] = first - species
        single[1:4, 2], single[4:7, 2] = -species, -rates
        single[7:10, 3] = first
        systems = []
        for k in (1, 2):
            stacked = np.zeros((k, 10, 4, k, size))
            for j in range(k):
                stacked[j, :, :, j] = single
            systems.append(stacked.reshape(10 * k, 4 * k * size))
        return cls(table=table, systems=tuple(systems), bounds=bounds,
                   stencils=np.stack((ends - 2, ends - 1), axis=1).ravel())


class Model:
    """Everything the stepper needs besides the state itself.

    ``d`` holds the diffusivities in cm2/h, ``sc`` the Stefan constants
    built from them and ``sw`` the swelling ratios used by the front
    kinematics; the step reads the boundary values of ``forcing`` in g/cm3
    at its times in hours.  The grid spacings ``dz`` and ``dy`` and the
    buffer's ``layout`` are built once, with the model, from the interval
    counts ``n_z`` and ``n_y``.
    """

    __slots__ = ("d", "sc", "sw", "forcing", "dz", "dy", "layout")

    def __init__(self, d: Diffusivities, sc: StefanConstants, sw: SwellingRatios,
                 n_z: int, n_y: int, forcing: Forcing):
        self.d, self.sc, self.sw, self.forcing = d, sc, sw, forcing
        self.dz, self.dy = 1.0 / n_z, 1.0 / n_y
        self.layout = PackedLayout.build(n_z, n_y)


def select_dt(fs: FrontState, dz: float, dy: float, cfl_target: float,
              dt_max: float, omega_p: float) -> float:
    """Advective CFL step bound, capped at ``dt_max``.

    No run calls it: the L-stable step needs no CFL bound, and
    ``patina.simulation`` sizes every step itself.  It is kept only as a
    target the benchmark's per-layer trace (``perfbench/spans.py``) names.

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


def _clamp_fields(u: np.ndarray, bounds: np.ndarray) -> int:
    """Floor negative interior concentrations at zero; returns how many nodes clipped.

    The end values at ``bounds`` are left as they are: the refresh that
    follows writes all six.
    """
    if not u.min() < 0.0:
        return 0
    mask = u < 0.0
    mask[bounds] = False
    u[mask] = 0.0
    return int(np.count_nonzero(mask))


def refresh_state(u: np.ndarray, a: float, b: float, model: Model,
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
    o_beta = apply_outer_bcs(o3, o2, outer, gamma_dot, b_dot, model.d, model.sc, model.dz)
    s_a, o_a = forcing_values
    u[lay.bounds] = (s_a, CONSUMED, o_a, o_beta, o_beta, CONSUMED)
    # positional, the fastest way to build the tuple
    return FrontState(a, b, beta, gamma, a_dot, b_dot, b_dot - omega_p * a_dot,
                      gamma_dot), clamped


def _coefficients(h: float, fs: FrontState, rates: tuple[float, float, float],
                  starts: tuple[float, float, float], model: Model) -> list[float]:
    """The ten coefficients of IE(h) from ``fs``, whose ``advection_rates`` are ``rates``.

    They are (1, alpha_s, alpha_o, alpha_g, h*s_o, h*s_i, h*m_i) and the
    terms alpha*S(0), alpha*O(0) and alpha*G(0) of the ``starts`` S(0), O(0)
    and G(0), at the widths of the fronts advanced by h at the speeds of
    ``fs``: alpha = h*D/(width*dx)^2, and each rate, a speed over a width,
    scales with the inverse width.  Raises the ValueError of
    ``check_ordering`` when the advance overshoots.
    """
    sw = model.sw
    a = fs.a + h * fs.a_dot
    b = fs.b + h * fs.b_dot
    beta = b - sw.omega_p * a
    gamma = -(sw.omega_p * a + sw.omega_b * b)
    check_ordering(a, beta, gamma)
    outer, inner = beta - gamma, a - beta
    d = model.d
    s_o, s_i, m_i = rates
    h_outer = h * (fs.beta - fs.gamma) / outer
    h_inner = h * (fs.a - fs.beta) / inner
    alpha_outer = h / (outer * model.dz) ** 2
    alpha_inner = h / (inner * model.dy) ** 2
    a_s, a_o, a_g = d.d_s * alpha_outer, d.d_o * alpha_outer, d.d_g * alpha_inner
    s_0, o_0, g_0 = starts
    return [1.0, a_s, a_o, a_g, h_outer * s_o, h_inner * s_i, h_inner * m_i,
            a_s * s_0, a_o * o_0, a_g * g_0]


def _implicit_euler(u: np.ndarray, coefficients: list[float], k: int,
                    model: Model) -> np.ndarray:
    """The k substeps of ``coefficients`` (ten per substep) from ``u``, stacked.

    The k systems are solved in one dgtsv call on the k copies of u, one
    after the other; their end rows decouple them.  Returns the k results
    in one new buffer, the same way; their end values are u's.
    """
    n = k * u.size
    parts = np.dot(np.array(coefficients), model.layout.systems[k - 1])
    rhs = parts[3 * n:]
    copies = rhs.reshape(k, u.size)
    copies += u
    return solve_tridiagonal(parts[n + 1:2 * n], parts[:n], parts[2 * n:3 * n - 1], rhs,
                             overwrite=True)


def imex_midpoint_step(u: np.ndarray, fs: FrontState, t: float, dt: float,
                       model: Model) -> tuple[np.ndarray, FrontState, float, int, int]:
    """One extrapolated linearly implicit Euler step of the coupled system.

    The step runs from ``t`` to ``t + dt``, in hours.  All three species
    advance together in the packed buffer ``u``, which is left as it is,
    and the fronts with them.  Returns the new buffer, the new fronts, the
    local error estimate (the largest of |da|/a,
    |db|/b and |dh_p|/h_p between the two results, h_p = a - beta the
    cuprite layer) and the step's field and velocity clamp counts.  Raises
    the ValueError of ``check_ordering`` when a front advance overshoots.
    With zero Stefan constants and swelling ratios the fronts stay where
    they are, and the step is the extrapolated implicit Euler rule on fixed
    layers.  (The name is the one the benchmark traces.)
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    n = u.size
    half = 0.5 * dt
    s_mid, o_mid = forcing_mid = forcing_at(model.forcing, t + half)
    s_end, o_end = forcing_end = forcing_at(model.forcing, t + dt)
    g_0 = model.layout.bounds[4]

    # IE(dt) and the first IE(dt/2), both from u, in one solve
    rates = advection_rates(fs, model.sw.omega_p)
    held = float(u[g_0])
    x = _implicit_euler(u, _coefficients(dt, fs, rates, (s_end, o_end, held), model)
                        + _coefficients(half, fs, rates, (s_mid, o_mid, held), model), 2, model)
    full, mid = x[:n], x[n:]
    fs_mid, velocity_clamps = refresh_state(mid, fs.a + half * fs.a_dot,
                                            fs.b + half * fs.b_dot, model, forcing_mid)

    # the second IE(dt/2), from the refreshed half-step state at its speeds
    second = _implicit_euler(mid, _coefficients(
        half, fs_mid, advection_rates(fs_mid, model.sw.omega_p),
        (s_end, o_end, float(mid[g_0])), model), 1, model)

    new = second + second
    new -= full
    field_clamps = _clamp_fields(new, model.layout.bounds)
    fs_new, clamped = refresh_state(new, fs.a + dt * fs_mid.a_dot, fs.b + dt * fs_mid.b_dot,
                                    model, forcing_end)

    # the second result's fronts less the first's: dt/2 * (speed(mid) - speed(start))
    d_a = half * (fs_mid.a_dot - fs.a_dot)
    d_b = half * (fs_mid.b_dot - fs.b_dot)
    d_h = (1.0 + model.sw.omega_p) * d_a - d_b
    error = max(abs(d_a) / fs_new.a, abs(d_b) / fs_new.b, abs(d_h) / (fs_new.a - fs_new.beta))
    return new, fs_new, error, field_clamps, velocity_clamps + clamped
