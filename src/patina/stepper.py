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
* the end values are Dirichlet data: S(0) the SO2 at t + h, O(0) the
  oxygen, G(0) the O(1) of u, O(1) held from u, and the pins
  S(1) = G(1) = 0, which add nothing to a row.

The fronts of the two results are a + dt*a_dot and a + dt/2*(a_dot +
a_dot(mid)), so the extrapolated fronts are a + dt*a_dot(mid), the explicit
midpoint rule, with the speeds of the refreshed half-step state.  Only the
half-step state and the end of the step are refreshed.

The run state is a plain float64 buffer holding the unknowns of the three
species and O(1), laid out as ``PackedLayout`` describes, and a
``FrontState``.  The species advance together in that buffer: one substep
is one tridiagonal solve over the whole buffer, whose block edges, a first
row without a sub-diagonal and a last row without a super-diagonal,
decouple the blocks, so every species is solved exactly as on its own.
IE(dt) and the first IE(dt/2) both start from u, so one LAPACK dgtsv call
solves both, the two systems stacked and decoupled alike.  All
diagonals and right-hand-side terms of a solve are one product of its
coefficients, ten per substep from one scalar pass (``_coefficients``),
with the layout's fixed ``systems`` map.  The product lands in one of the
model's two ``SolveBuffer``s, whose dgtsv views are fixed when the model is
built, and dgtsv solves in place there.  A step never writes its start
state, and it returns a new array, never a view of a solve buffer; the
buffers are overwritten by the next step, so a model is stepped by one run
at a time.
The front-fixing advection speed is affine in the mapped coordinate, z*s_o
on S and O and y*s_i + m_i on G (``advection_rates``), which the rate rows
-[z | y | 1]/dx of the layout's ``systems`` turn into the per-row r.  Every
rate is >= 0 for the fronts a refresh builds (``patina.pde_core``), so the
upwind difference is the forward one.
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
    "SolveBuffer",
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


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system in place.

    ``lower`` and ``upper`` are the sub- and super-diagonal, one shorter
    than ``diag``; dgtsv's wrapper raises ValueError on any other sizes.
    Backed by LAPACK dgtsv, Gaussian elimination with partial pivoting; its
    info code names the first row whose pivot is exactly zero, which is
    surfaced in the error.  dgtsv consumes all four inputs and solves in the
    storage of ``rhs`` where that is a contiguous float64 array; anything
    else it copies first.  dgtsv is the routine scipy.linalg.lapack exposes,
    taken from scipy's compiled module scipy.linalg._flapack by
    ``_load_flapack`` so that a run does not pay for importing scipy.linalg.
    """
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs, True, True, True, True)
    if info != 0:
        if info > 0:
            raise TridiagonalError(f"matrix singular at row {info - 1}")
        raise TridiagonalError(f"bad argument {-info} to the tridiagonal solver")
    return x


class PackedLayout(NamedTuple):
    """The flat buffer ``u = [S | O | G]`` of the run state, and its solve map.

    This is the one description of the buffer.  It holds the unknowns and
    O(1), one block per species after the other: S its n_z - 1 interior
    nodes, O its interior nodes and O(1), and G its n_y - 1 interior nodes,
    2*n_z + n_y - 2 in all.  The start values S(0), O(0) and G(0) are
    Dirichlet data that ``_coefficients`` hands to the solves, and the pins
    S(1) = G(1) = 0 add nothing to a row, so the buffer holds none of them.
    ``o_end`` is the flat node of O(1), the one end node: its row is an
    identity row, a solve reads it as G(0) and ``refresh_state`` writes it.
    ``stencils`` are the nodes the Stefan and Robin conditions read: the
    last two of S and G, and the two before O(1).  ``sample`` puts profiles
    of the mapped coordinate at the nodes the blocks hold, on the grids of
    ``n_z`` and ``n_y`` intervals.

    ``systems[k - 1]`` turns the ten coefficients of each of k substeps
    (see ``_coefficients``), one substep after the other, into all of their
    matrices and right-hand-side terms in one product.  The result holds
    four parts, each over the k copies of the buffer one after the other:
    the diagonals, the sub-diagonals, the super-diagonals and the terms that
    the start values S(0), O(0) and G(0) add to the first interior row of
    their species.  The advection rate of a node is -c/dx of the affine
    speeds of ``advection_rates``: -z/dz times s_o on S and O, and -y/dy
    times s_i and -1/dy times m_i on G (at node k of a block on n cells,
    the exact -k and -n).  A block's first row has no sub-diagonal and its
    last row no super-diagonal, so no row couples to another block, every
    row is diagonally dominant, and dgtsv's elimination never swaps two
    rows.  The layout is read-only: the product and the solve live in a
    model's ``SolveBuffer``, built from the layout once per model.
    """

    n_z: int
    n_y: int
    systems: tuple[np.ndarray, ...]   # 10k x 4k*nodes, for k = 1 and 2
    o_end: int               # flat node O(1)
    stencils: np.ndarray     # flat nodes S(-3), S(-2), O(-3), O(-2), G(-3), G(-2)

    @classmethod
    def build(cls, n_z: int, n_y: int) -> "PackedLayout":
        starts = np.array((0, n_z - 1, 2 * n_z - 1))
        lasts = starts + (n_z - 2, n_z - 1, n_y - 2)
        size = int(lasts[-1]) + 1
        # by node: the S, O and G indicators of the interior nodes, and the
        # rate basis.  Interior k of each grid at flat node start + k - 1
        table = np.zeros((6, size))
        k_outer, k_inner = np.arange(1, n_z), np.arange(1, n_y)
        s, o, g = k_outer - 1, n_z - 2 + k_outer, 2 * n_z - 2 + k_inner
        table[0, s] = table[1, o] = table[2, g] = 1.0
        table[3, s] = table[3, o] = -k_outer
        table[4, g] = -k_inner
        table[5, g] = -n_y
        first = np.zeros((3, size))
        first[[0, 1, 2], starts] = 1.0
        species, rates = table[:3], table[3:]
        # a first row has no sub-diagonal (first - species) and a last row
        # no super-diagonal, so no row couples to another block
        above = table.copy()
        above[:, lasts] = 0.0
        # coefficient rows by diagonal, sub-diagonal, super-diagonal and
        # right-hand-side term of one substep
        single = np.zeros((10, 4, size))
        single[0, 0] = 1.0
        single[1:4, 0], single[4:7, 0] = 2.0 * species, rates
        single[1:4, 1] = first - species
        single[1:7, 2] = -above
        single[7:10, 3] = first
        systems = []
        for k in (1, 2):
            stacked = np.zeros((k, 10, 4, k, size))
            for j in range(k):
                stacked[j, :, :, j] = single
            systems.append(stacked.reshape(10 * k, 4 * k * size))
        # the stencils are the two nodes before each far end: the last two of
        # S and G, whose pins are not held, and the two before O(1)
        tails = lasts - (0, 1, 0)
        return cls(n_z=n_z, n_y=n_y, systems=tuple(systems), o_end=int(lasts[1]),
                   stencils=np.stack((tails - 1, tails), axis=1).ravel())

    def sample(self, s, o, g) -> np.ndarray:
        """The buffer of the profiles s(z), o(z) and g(y), each called at the nodes of its block.

        z and y are the mapped coordinates, k/n_z and k/n_y at node k, and
        1 exactly at O(1).
        """
        z = np.linspace(0.0, 1.0, self.n_z + 1)[1:]
        y = np.linspace(0.0, 1.0, self.n_y + 1)[1:-1]
        return np.array([s(zk) for zk in z[:-1]] + [o(zk) for zk in z]
                        + [g(yk) for yk in y])


class SolveBuffer:
    """The storage of one tridiagonal solve of k substeps, and its fixed views.

    ``parts`` takes the product of the k substeps' coefficients with the
    layout's ``systems[k - 1]``: the diagonals, sub-diagonals,
    super-diagonals and right-hand-side terms, each over the k copies of the
    buffer.  ``rows`` are the (lower, diag, upper, rhs) views of it that
    dgtsv takes, and ``starts`` the right-hand side as k rows of one buffer
    each, into which the start state is added.  All are fixed when the
    buffer is built, so a solve allocates no product or right-hand side of
    its own.  dgtsv solves in ``parts`` itself: what ``solve`` returns is a
    view of it, good until the next solve with this buffer.
    """

    __slots__ = ("system", "parts", "rows", "starts")

    def __init__(self, layout: PackedLayout, k: int):
        self.system = system = layout.systems[k - 1]
        n = system.shape[1] // 4
        self.parts = parts = np.empty(4 * n)
        self.rows = (parts[n + 1:2 * n], parts[:n], parts[2 * n:3 * n - 1], parts[3 * n:])
        self.starts = parts[3 * n:].reshape(k, -1)

    def solve(self, coefficients: list[float], u: np.ndarray) -> np.ndarray:
        """The k substeps of ``coefficients`` (ten per substep) from ``u``, stacked.

        The k systems are solved in one dgtsv call on the k copies of u, one
        after the other; their block edges decouple them.  Returns the k results
        one after the other in a view of ``parts``; their O(1) is u's.
        """
        np.dot(coefficients, self.system, out=self.parts)
        self.starts += u
        return solve_tridiagonal(*self.rows)


class Model:
    """Everything the stepper needs besides the state itself.

    ``d`` holds the diffusivities in cm2/h, ``sc`` the Stefan constants
    built from them and ``sw`` the swelling ratios used by the front
    kinematics; the step reads the SO2 of ``forcing`` in g/cm3 at its times
    in hours, and its constant oxygen, as S(0) and O(0).  The grid spacings
    ``dz`` and ``dy``, the buffer's ``layout`` and the step's two solve
    buffers are built once, with the model, from the interval counts ``n_z``
    and ``n_y``:
    ``stacked`` for IE(dt) and the first IE(dt/2) solved together, and
    ``single`` for the second IE(dt/2).  A step writes its substeps into
    them, so a model is stepped by one run at a time (``initialize`` builds
    one per run); what a step returns is its own array.
    """

    __slots__ = ("d", "sc", "sw", "forcing", "dz", "dy", "layout", "stacked", "single")

    def __init__(self, d: Diffusivities, sc: StefanConstants, sw: SwellingRatios,
                 n_z: int, n_y: int, forcing: Forcing):
        self.d, self.sc, self.sw, self.forcing = d, sc, sw, forcing
        self.dz, self.dy = 1.0 / n_z, 1.0 / n_y
        self.layout = layout = PackedLayout.build(n_z, n_y)
        self.stacked, self.single = SolveBuffer(layout, 2), SolveBuffer(layout, 1)


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


def _clamp_fields(u: np.ndarray) -> int:
    """Floor negative concentrations at zero; returns how many nodes clipped.

    O(1) is floored and counted like every other node, although the refresh
    that follows writes it anew.
    """
    # argmin costs a fifth of min on a buffer this short, and finds a NaN as min does
    if not u[u.argmin()] < 0.0:
        return 0
    mask = u < 0.0
    u[mask] = 0.0
    return int(np.count_nonzero(mask))


def refresh_state(u: np.ndarray, a: float, b: float, model: Model) -> tuple[FrontState, int]:
    """The one ``FrontState`` at consumptions (a, b), and a clamp count; writes u's O(1).

    Checks the ordering gamma < beta < a once, then reads the interior
    stencil nodes of the Stefan and Robin conditions.  Order matters: the
    Stefan speeds, whose stencils take the pins S(1) = G(1) = 0 as zero,
    feed the Robin solve for O(1), the one node of ``u`` written; the next
    solve reads it as G(0).
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
    u[lay.o_end] = o_beta
    # positional, the fastest way to build the tuple
    return FrontState(a, b, beta, gamma, a_dot, b_dot, b_dot - omega_p * a_dot,
                      gamma_dot), clamped


def _coefficients(fs: FrontState, rates: tuple[float, float, float],
                  substeps: tuple[tuple[float, float, float], ...],
                  model: Model) -> list[float]:
    """The coefficients of one solve, ten per substep, in one pass.

    ``substeps`` holds one (h, S(0), G(0)) per substep IE(h) from ``fs``,
    whose ``advection_rates`` are ``rates``: its step and two start values,
    S(0) the forcing's SO2 at its end and G(0) the O(1) of the state it
    starts from; O(0) is the forcing's oxygen.  A substep's ten are
    (1, alpha_s, alpha_o, alpha_g, h*s_o, h*s_i, h*m_i) and the terms
    alpha*S(0), alpha*O(0) and alpha*G(0), at the widths of the fronts
    advanced by h at the speeds of ``fs``: alpha = h*D/(width*dx)^2, and
    each rate, a speed over a width, scales with the inverse width.  Raises
    the ValueError of ``check_ordering`` when an advance overshoots.
    """
    a_0, b_0, beta_0, gamma_0, a_dot, b_dot, _, _ = fs
    omega_p, omega_b = model.sw
    d_g, d_s, d_o = model.d.d_g, model.d.d_s, model.d.d_o
    dz, dy, o_0 = model.dz, model.dy, model.forcing.oxygen
    s_o, s_i, m_i = rates
    outer_0, inner_0 = beta_0 - gamma_0, a_0 - beta_0
    coefficients = []
    for h, s_0, g_0 in substeps:
        a = a_0 + h * a_dot
        b = b_0 + h * b_dot
        beta = b - omega_p * a
        gamma = -(omega_p * a + omega_b * b)
        check_ordering(a, beta, gamma)
        outer, inner = beta - gamma, a - beta
        h_outer = h * outer_0 / outer
        h_inner = h * inner_0 / inner
        alpha_outer = h / (outer * dz) ** 2
        alpha_inner = h / (inner * dy) ** 2
        a_s, a_o, a_g = d_s * alpha_outer, d_o * alpha_outer, d_g * alpha_inner
        coefficients += (1.0, a_s, a_o, a_g, h_outer * s_o, h_inner * s_i, h_inner * m_i,
                         a_s * s_0, a_o * o_0, a_g * g_0)
    return coefficients


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
    omega_p = model.sw.omega_p
    s_mid = forcing_at(model.forcing, t + half)
    s_end = forcing_at(model.forcing, t + dt)
    o_end = model.layout.o_end

    # IE(dt) and the first IE(dt/2), both from u, in one solve; G(0) is u's O(1)
    held = float(u[o_end])
    substeps = ((dt, s_end, held), (half, s_mid, held))
    x = model.stacked.solve(_coefficients(fs, advection_rates(fs, omega_p), substeps, model), u)
    full, mid = x[:n], x[n:]
    fs_mid, velocity_clamps = refresh_state(mid, fs.a + half * fs.a_dot,
                                            fs.b + half * fs.b_dot, model)

    # the second IE(dt/2), from the refreshed half-step state at its speeds
    substeps = ((half, s_end, float(mid[o_end])),)
    second = model.single.solve(
        _coefficients(fs_mid, advection_rates(fs_mid, omega_p), substeps, model), mid)

    new = second + second
    new -= full
    field_clamps = _clamp_fields(new)
    fs_new, clamped = refresh_state(new, fs.a + dt * fs_mid.a_dot, fs.b + dt * fs_mid.b_dot,
                                    model)

    # the second result's fronts less the first's: dt/2 * (speed(mid) - speed(start))
    d_a = half * (fs_mid.a_dot - fs.a_dot)
    d_b = half * (fs_mid.b_dot - fs.b_dot)
    d_h = (1.0 + omega_p) * d_a - d_b
    error = max(abs(d_a) / fs_new.a, abs(d_b) / fs_new.b, abs(d_h) / (fs_new.a - fs_new.beta))
    return new, fs_new, error, field_clamps, velocity_clamps + clamped
