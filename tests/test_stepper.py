import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patina import pde_core, simulation, stepper
from patina.convergence import observed_orders
from patina.environment import cycle_forcing
from patina.materials import SwellingRatios
from patina.pde_core import Diffusivities, FrontState, StefanConstants
from patina.simulation import initialize, run
from patina.stepper import (
    NondimModel,
    PackedLayout,
    TridiagonalError,
    _implicit_stage_solve,
    imex_midpoint_step,
    select_dt,
    solve_tridiagonal,
)


class TestTridiagonal:
    # symmetric positive definite systems: diag, then off (sub = super)
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0, 7.0])
        x = solve_tridiagonal(np.ones(4), np.zeros(3), rhs)
        assert np.allclose(x, rhs, rtol=0, atol=0)

    def test_inputs_kept_unless_overwritten(self):
        # {diag 2, off -1} with rhs (1, 0, 1) has solution (1, 1, 1)
        system = [np.array(v) for v in ([2.0, 2.0, 2.0], [-1.0, -1.0], [1.0, 0.0, 1.0])]
        kept = [v.copy() for v in system]
        x = solve_tridiagonal(*system)
        assert all(np.array_equal(v, k) for v, k in zip(system, kept))
        rhs = system[2]
        assert solve_tridiagonal(*system, overwrite=True) is rhs
        assert np.allclose(rhs, x, rtol=0, atol=1e-14)
        assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-14)

    def test_hand_solved_system(self):
        # {diag 2, off -1} with rhs (1, 0, 1) has solution (1, 1, 1)
        x = solve_tridiagonal([2.0, 2.0, 2.0], [-1.0, -1.0], [1.0, 0.0, 1.0])
        assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-14)

    def test_zero_pivot_reports_index(self):
        with pytest.raises(TridiagonalError, match="not positive definite at row 0"):
            solve_tridiagonal([0.0, 1.0], [0.0], [1.0, 1.0])
        # the second leading minor, 1*1 - 2*2, is negative
        with pytest.raises(TridiagonalError, match="not positive definite at row 1"):
            solve_tridiagonal([1.0, 1.0, 1.0], [2.0, 0.0], [1.0, 1.0, 1.0])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            solve_tridiagonal([1.0, 1.0, 1.0], [1.0], [1.0, 1.0, 1.0])

    @given(st.integers(min_value=3, max_value=40), st.integers(0, 2**32 - 1))
    def test_matches_dense_solver(self, n, seed):
        rng = np.random.default_rng(seed)
        off = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)   # diagonally dominant, so positive definite
        rhs = rng.uniform(-5, 5, n)
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        expect = np.linalg.solve(dense, rhs)
        got = solve_tridiagonal(diag, off, rhs)
        assert np.allclose(got, expect, rtol=1e-10, atol=1e-12)

    @given(st.integers(min_value=3, max_value=30), st.integers(0, 2**32 - 1),
           st.floats(min_value=1e-3, max_value=1e6))
    def test_m_matrix_preserves_positivity(self, n, seed, alpha):
        # (1 + 2a, -a, -a) systems keep non-negative data non-negative
        rng = np.random.default_rng(seed)
        rhs = rng.uniform(0, 10, n)
        x = solve_tridiagonal(np.full(n, 1 + 2 * alpha), np.full(n - 1, -alpha), rhs)
        assert np.all(x >= -1e-12)


@pytest.mark.parametrize("imports", [
    "import patina.stepper, scipy.linalg.lapack",
    "import scipy.linalg.lapack, patina.stepper",
], ids=["stepper_first", "scipy_linalg_first"])
def test_one_lapack_extension_in_either_import_order(imports):
    # the stepper's loader and scipy.linalg must share one _flapack module
    code = (f"import sys\n{imports}\n"
            "assert patina.stepper.dptsv is scipy.linalg.lapack.dptsv\n"
            "assert sys.modules['scipy.linalg._flapack'] is patina.stepper._flapack\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("signs", list(itertools.product((1.0, -1.0), repeat=3)))
def test_rate_basis_gives_minus_c_over_dx(signs):
    # each sign of the outer slope s_o, the inner slope s_i and the inner
    # constant m_i; the rates are rebuilt from fronts of widths 1 and 0.5
    n_z, n_y, omega_p = 30, 17, 0.67
    lay = PackedLayout.build(n_z, n_y)
    z, y = np.arange(1, n_z) / n_z, np.arange(1, n_y) / n_y
    rng = np.random.default_rng(18)
    for _ in range(100):
        s_o, s_i, m_i = np.array(signs) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        beta_dot = 0.5 * (omega_p * s_i - m_i) / (1.0 + omega_p)
        fs = FrontState(a=1.5, b=1.0, beta=1.0, gamma=0.0, a_dot=beta_dot - 0.5 * s_i,
                        beta_dot=beta_dot, gamma_dot=beta_dot + s_o)
        rates = pde_core.advection_rates(fs, omega_p)
        assert np.all(np.sign(rates) == signs)
        rate = np.dot(lay.rate_basis, rates)
        # zero on S(1), O(0), O(1), G(0), so those rows keep speed 0
        assert np.array_equal(rate[~lay.interior], np.zeros(4))
        c_out = -pde_core.outer_advection_coeff(z, fs) / (1.0 / n_z)
        c_in = -pde_core.inner_advection_coeff(y, fs, omega_p) / (1.0 / n_y)
        # within 2 ulps of the block's largest rate (measured: 2)
        for got, expect in ((rate[lay.species == 0], c_out), (rate[lay.species == 1], c_out),
                            (rate[lay.species == 2], c_in)):
            assert np.all(np.abs(got - expect) <= 2.0 * np.spacing(np.max(np.abs(expect))))


class TestPackedStageSolve:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           alphas=st.tuples(*(st.floats(min_value=1e-3, max_value=1e6),) * 3))
    def test_matches_per_species_solves_bit_for_bit(self, seed, alphas):
        n_z, n_y, half = 30, 17, 0.37
        rng = np.random.default_rng(seed)
        u = rng.uniform(0, 1, 2 * (n_z + 1) + n_y + 1)
        h = rng.uniform(-1, 1, u.size - 2)
        bounds = rng.uniform(0, 1, 4)   # S(0), O(0), O(1), G(0)
        lay = PackedLayout.build(n_z, n_y)
        # the stepper's advection is zero on the block-edge rows
        h[~lay.interior] = 0.0
        stage = _implicit_stage_solve(u, h, half, np.array(alphas), bounds, lay)
        # reference: each species solved on its own, h mapped onto its nodes
        blocks = [n_z + 1, 2 * (n_z + 1)]
        for k, (u_k, h_k, got) in enumerate(zip(
                np.split(u, blocks), np.split(np.concatenate(([0.0], h, [0.0])), blocks),
                np.split(stage, blocks))):
            h_k, alpha = h_k[1:-1], alphas[k]
            # S(1) = G(1) = CONSUMED = 0
            left, right = ((bounds[0], 0.0), (bounds[1], bounds[2]), (bounds[3], 0.0))[k]
            n_int = u_k.size - 2
            rhs = u_k[1:-1] + half * h_k
            rhs[0] += alpha * left
            rhs[-1] += alpha * right
            sol = solve_tridiagonal(np.full(n_int, 1.0 + 2.0 * alpha), np.full(n_int - 1, -alpha),
                                    rhs)
            assert np.array_equal(got[1:-1], sol)
        # the stage writes S(0) and G(1); the block-edge nodes keep u's
        # values, for the boundary refresh that follows it to write
        ends = np.zeros(u.size, dtype=bool)
        ends[lay.bounds] = True
        assert (stage[0], stage[-1]) == (bounds[0], 0.0)
        assert np.array_equal(stage[ends][1:-1], u[ends][1:-1])

    def test_one_solve_and_two_advection_passes_per_step(self, monkeypatch, default_cfg):
        # every per-step function the benchmark traces is reached through the
        # module attribute it patches, as often as the scheme needs it; a
        # path that captured one at import or went round it would miss here.
        # The forcing is read at the stage time tau + dt/2, then at tau + dt;
        # no other test notices either read at tau.
        # Each advection pass takes its rates from advection_rates; the
        # coefficient profiles are left to the tests and are never called.
        expected = {
            (stepper, "solve_tridiagonal"): 1,
            (stepper, "split_rhs_interior"): 2,
            (stepper, "advection_rates"): 2,
            (pde_core, "outer_advection_coeff"): 0,
            (pde_core, "inner_advection_coeff"): 0,
            (stepper, "front_velocities"): 2,
            (stepper, "apply_outer_bcs"): 2,
            (stepper, "refresh_state"): 2,
            (simulation, "forcing_at"): 2,
        }
        u, fronts, model = initialize(default_cfg)
        calls = dict.fromkeys(expected, 0)
        forcing_hours = []

        def counted(key):
            original = getattr(*key)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                if key == (simulation, "forcing_at"):
                    forcing_hours.append(args[1])
                return original(*args, **kwargs)
            return wrapper

        for key in expected:
            monkeypatch.setattr(*key, counted(key))
        dt = select_dt(fronts, model.dz, model.dy, default_cfg.cfl_target,
                       default_cfg.dt_max, model.sw.omega_p)
        tau = 0.75
        imex_midpoint_step(u, fronts, tau, dt, model)
        assert calls == expected
        hours_per_tau = default_cfg.scales.t_r / simulation.SECONDS_PER_HOUR
        assert forcing_hours == [pytest.approx((tau + dt / 2) * hours_per_tau, rel=1e-15),
                                 pytest.approx((tau + dt) * hours_per_tau, rel=1e-15)]


def test_refresh_rejects_disordered_fronts(default_cfg):
    # b = 0 leaves no brochantite (beta == gamma), b = (1 + omega_p)*a no
    # cuprite (a == beta, to rounding), b above that puts beta beyond a
    u, fronts, model = initialize(default_cfg)
    omega_p = model.sw.omega_p
    for b in (0.0, (1.0 + omega_p) * fronts.a, 2.0 * (1.0 + omega_p) * fronts.a):
        with pytest.raises(ValueError, match="ordering"):
            stepper.refresh_state(u.copy(), fronts.a, b, model, (0.0, 0.0))


class TestSelectDt:
    def test_zero_velocities_give_dt_max(self):
        fs = FrontState(a=2.0, b=1.0, beta=1.0, gamma=0.0)
        assert select_dt(fs, 0.01, 0.01, 0.5, 0.25, 0.67) == 0.25

    def test_formula(self):
        # outer coefficient peaks at |gamma_dot - beta_dot| / width = 1
        fs = FrontState(a=2.0, b=1.0, beta=1.0, gamma=0.0, gamma_dot=-1.0)
        assert select_dt(fs, 0.01, 0.01, 0.5, 1.0, 0.67) == pytest.approx(5e-3)

    def test_shrinking_width_halves_dt(self):
        fs1 = FrontState(a=2.0, b=1.0, beta=1.0, gamma=0.0, gamma_dot=-1.0)
        fs2 = FrontState(a=2.0, b=1.0, beta=1.5, gamma=1.0, gamma_dot=-1.0)
        dt1 = select_dt(fs1, 0.01, 0.01, 0.5, 1.0, 0.67)
        dt2 = select_dt(fs2, 0.01, 0.01, 0.5, 1.0, 0.67)
        assert dt2 == pytest.approx(dt1 / 2.0)


@pytest.mark.parametrize("errors", [
    [(0.1, 0.0), (0.05, 0.0)],
    [(0.1, 0.0), (0.05, 1e-3)],
    [(0.1, 1e-3), (0.05, -1e-5)],
    [(0.1, 1e-3), (0.05, math.nan)],
])
def test_an_error_that_is_not_positive_has_no_order(errors):
    # a zero error read as order infinity would pass every order gate
    bad_h, bad_e = next((h, e) for h, e in errors if not e > 0.0)
    with pytest.raises(ValueError, match=f"error {bad_e!r} at h = {bad_h!r}"):
        observed_orders(errors)


class TestMidpointOrder:
    # every check steps imex_midpoint_step itself
    def test_midpoint_stage_algebra(self):
        # a discrete sine mode of the S diffusion operator (eigenvalue lam)
        # is scaled by the midpoint factor (1 + z/2)/(1 - z/2), z = lam*dt:
        # stage u2 = u/(1 - z/2), update u + z*u2
        n, d_hat, dt = 20, 0.3, 0.05
        model, fronts = _inert_setup(n, d_hat)
        z = np.linspace(0, 1, n + 1)
        mode = np.sin(np.pi * z)
        u = _packed(mode, n)
        lam = -4.0 * d_hat * n**2 * math.sin(0.5 * math.pi / n) ** 2
        zeta = lam * dt
        new, fs, _, _ = imex_midpoint_step(u, fronts, 0.0, dt, model)
        expect = mode * (1 + zeta / 2) / (1 - zeta / 2)
        assert np.allclose(new[:n + 1], expect, rtol=0, atol=1e-14)
        assert not np.allclose(new[:n + 1], mode * math.exp(zeta), rtol=0, atol=1e-6)
        # the inert interfaces keep the fronts in place at zero speed, which
        # the other single-step tests on this setup rely on
        assert (fs.a, fs.b) == (fronts.a, fronts.b)
        assert (fs.a_dot, fs.b_dot, fs.beta_dot, fs.gamma_dot) == (0.0, 0.0, 0.0, 0.0)


def _inert_setup(n, d_hat_s):
    # zero Stefan constants, swelling and forcing: the shipped step keeps
    # the fronts still, so only the fields move
    tiny = 1e-30
    model = NondimModel(
        d_hat=Diffusivities(tiny, d_hat_s, tiny),
        sc=StefanConstants(0.0, 0.0, 0.0),
        sw=SwellingRatios(0.0, 0.0),
        n_z=n, n_y=n,
        forcing_hat=lambda tau: (0.0, 0.0),
    )
    fronts = FrontState(a=2.0, b=1.0, beta=1.0, gamma=0.0)
    return model, fronts


def _packed(s, n):
    """The buffer [S | O | G] on n cells per layer with S = s and O = G = 0."""
    return np.concatenate((s, np.zeros(2 * (n + 1))))


class TestPdeStep:
    def test_zero_rhs_leaves_state_unchanged(self):
        n = 40
        model, fronts = _inert_setup(n, 1e-30)
        z = np.linspace(0, 1, n + 1)
        bump = np.exp(-((z - 0.5) / 0.2) ** 2)
        bump[0] = bump[-1] = 0.0
        new, *_ = imex_midpoint_step(_packed(bump, n), fronts, 0.0, 0.05, model)
        assert np.allclose(new[:n + 1], bump, atol=1e-25)

    def test_unconditional_stability_of_diffusion(self):
        # stiff diffusion, huge dt, no advection: norm must not grow
        n = 50
        model, fronts = _inert_setup(n, 1e6)
        z = np.linspace(0, 1, n + 1)
        u = _packed(np.sin(np.pi * z), n)
        norm0 = np.linalg.norm(u[:n + 1])
        for k in range(5):
            u, *_ = imex_midpoint_step(u, fronts, 0.0, 10.0, model)
            norm = np.linalg.norm(u[:n + 1])
            assert norm <= norm0 + 1e-12
            norm0 = norm

    def test_rejects_non_positive_dt(self):
        n = 10
        model, fronts = _inert_setup(n, 1.0)
        with pytest.raises(ValueError):
            imex_midpoint_step(np.zeros(3 * (n + 1)), fronts, 0.0, 0.0, model)

    def test_counters_accumulate_field_clamps(self, default_cfg, monkeypatch):
        # at the switch to the dry phase (8 h) the SO2 at z = 0 drops to zero
        # and the fields undershoot below zero; in the first steps of the
        # next wet phase (24 h) a front speed turns negative.  The clamps
        # floor both and count them (99 field and 4 velocity clamps on the
        # default grid, all velocity clamps after 24 h).  Each step returns
        # its counts with a buffer that has no negative node; the step from
        # the switch is the first to clamp (99 nodes), and the run's totals
        # are the sums of the step counts.
        chamber = default_cfg.forcing
        cfg = replace(default_cfg, horizon_hours=26.0,
                      forcing=cycle_forcing(float(chamber.so2[0]), chamber.oxygen))
        switch = 8.0 * simulation.SECONDS_PER_HOUR / cfg.scales.t_r
        step = simulation.imex_midpoint_step
        steps = []

        def recording(u, fs, tau, dt, model):
            new, fs_new, field_clamps, velocity_clamps = step(u, fs, tau, dt, model)
            steps.append((tau, new.min(), field_clamps, velocity_clamps))
            return new, fs_new, field_clamps, velocity_clamps

        monkeypatch.setattr(simulation, "imex_midpoint_step", recording)
        out = run(cfg)
        assert out.field_clamps > 0 and out.velocity_clamps > 0
        assert all(lowest >= 0.0 for _, lowest, _, _ in steps)
        assert next(tau for tau, _, clamps, _ in steps if clamps > 0) == switch
        assert out.field_clamps == sum(s[2] for s in steps)
        assert out.velocity_clamps == sum(s[3] for s in steps)
        # nothing is clamped before the first switch
        assert run(replace(cfg, horizon_hours=8.0)).field_clamps == 0
