import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import consistent_fronts
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
    imex_midpoint_step,
    select_dt,
    solve_tridiagonal,
)


class TestTridiagonal:
    # systems as (lower, diag, upper, rhs); lower and upper one shorter than diag
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0, 7.0])
        x = solve_tridiagonal(np.zeros(3), np.ones(4), np.zeros(3), rhs)
        assert np.allclose(x, rhs, rtol=0, atol=0)

    def test_inputs_kept_unless_overwritten(self):
        # {-1, 2, -1} with rhs (1, 0, 1) has solution (1, 1, 1)
        system = [np.array(v) for v in ([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0],
                                        [1.0, 0.0, 1.0])]
        kept = [v.copy() for v in system]
        x = solve_tridiagonal(*system)
        assert all(np.array_equal(v, k) for v, k in zip(system, kept))
        rhs = system[3]
        assert solve_tridiagonal(*system, overwrite=True) is rhs
        assert np.allclose(rhs, x, rtol=0, atol=1e-14)
        assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-14)

    def test_hand_solved_system(self):
        # lower -1, diag 3, upper -2 with rhs (1, 0, 2) has solution (1, 1, 1)
        x = solve_tridiagonal([-1.0, -1.0], [3.0, 3.0, 3.0], [-2.0, -2.0], [1.0, 0.0, 2.0])
        assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-14)

    def test_zero_pivot_reports_index(self):
        with pytest.raises(TridiagonalError, match="singular at row 0"):
            solve_tridiagonal([0.0], [0.0, 1.0], [0.0], [1.0, 1.0])
        # the second row is twice the first
        with pytest.raises(TridiagonalError, match="singular at row 1"):
            solve_tridiagonal([2.0, 0.0], [1.0, 2.0, 1.0], [1.0, 0.0], [1.0, 1.0, 1.0])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            solve_tridiagonal([1.0, 1.0], [1.0, 1.0, 1.0], [1.0], [1.0, 1.0, 1.0])

    @given(st.integers(min_value=3, max_value=40), st.integers(0, 2**32 - 1))
    def test_matches_dense_solver(self, n, seed):
        rng = np.random.default_rng(seed)
        lower, upper = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)   # diagonally dominant, so regular
        rhs = rng.uniform(-5, 5, n)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expect = np.linalg.solve(dense, rhs)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        assert np.allclose(got, expect, rtol=1e-10, atol=1e-12)

    @given(st.integers(min_value=3, max_value=30), st.integers(0, 2**32 - 1),
           st.floats(min_value=1e-3, max_value=1e6), st.floats(min_value=0.0, max_value=1e3))
    def test_m_matrix_preserves_positivity(self, n, seed, alpha, rate):
        # the rows of a substep, (-a, 1 + 2a + r, -a - r) with r >= 0, keep
        # non-negative data non-negative
        rng = np.random.default_rng(seed)
        rhs = rng.uniform(0, 10, n)
        x = solve_tridiagonal(np.full(n - 1, -alpha), np.full(n, 1 + 2 * alpha + rate),
                              np.full(n - 1, -alpha - rate), rhs)
        assert np.all(x >= -1e-12)


@pytest.mark.parametrize("imports", [
    "import patina.stepper, scipy.linalg.lapack",
    "import scipy.linalg.lapack, patina.stepper",
], ids=["stepper_first", "scipy_linalg_first"])
def test_one_lapack_extension_in_either_import_order(imports):
    # the stepper's loader and scipy.linalg must share one _flapack module
    code = (f"import sys\n{imports}\n"
            "assert patina.stepper.dgtsv is scipy.linalg.lapack.dgtsv\n"
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
    species = [np.flatnonzero(row) for row in lay.table[1:4]]
    rng = np.random.default_rng(18)
    for _ in range(100):
        s_o, s_i, m_i = np.array(signs) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        beta_dot = 0.5 * (omega_p * s_i - m_i) / (1.0 + omega_p)
        fs = FrontState(a=1.5, b=1.0, beta=1.0, gamma=0.0, a_dot=beta_dot - 0.5 * s_i,
                        beta_dot=beta_dot, gamma_dot=beta_dot + s_o)
        rates = pde_core.advection_rates(fs, omega_p)
        assert np.all(np.sign(rates) == signs)
        rate = np.dot(rates, lay.table[4:])
        # zero on the six end nodes, so their rows stay identity rows
        assert np.array_equal(rate[lay.bounds], np.zeros(6))
        c_out = -pde_core.outer_advection_coeff(z, fs) / (1.0 / n_z)
        c_in = -pde_core.inner_advection_coeff(y, fs, omega_p) / (1.0 / n_y)
        # within 2 ulps of the block's largest rate (measured: 2)
        for nodes, expect in zip(species, (c_out, c_out, c_in)):
            got = rate[nodes]
            assert np.all(np.abs(got - expect) <= 2.0 * np.spacing(np.max(np.abs(expect))))


def _per_species_rows(coefficients, u, n_z, n_y):
    """The (lower, diag, upper, rhs) of one IE substep from u, written out
    species by species (the reference), over the whole buffer.

    Each block has identity rows at both ends, and interior rows (-alpha,
    1 + 2*alpha + r, -alpha - r) with the rate r = -c/dx of the speeds
    z*s_o and y*s_i + m_i, the coefficients holding h times them.  The
    coupling of the first interior row to the start value S(0), O(0) or
    G(0) is on the right-hand side, as alpha times that value.
    """
    _, *alphas, p, q, m = coefficients[:7]
    grids = ((n_z, lambda k: -p * k), (n_z, lambda k: -p * k),
             (n_y, lambda k: -q * k - m * n_y))
    rows = []
    for block, alpha, start_term, (n, rate) in zip(
            np.split(u, [n_z + 1, 2 * (n_z + 1)]), alphas, coefficients[7:], grids):
        r = np.concatenate(([0.0], rate(np.arange(1, n)), [0.0]))
        a = np.full(n + 1, alpha)
        a[[0, -1]] = 0.0
        lower = -a
        lower[1] = 0.0
        rhs = block.copy()
        rhs[1] += start_term
        rows.append((lower, 1.0 + 2.0 * a + r, -a - r, rhs))
    lower, diag, upper, rhs = (np.concatenate(parts) for parts in zip(*rows))
    return lower[1:], diag, upper[:-1], rhs


def _random_coefficients(rng, alphas, u, n_z=30, n_y=17):
    # rates r >= 0 need s_o <= 0 and s_i + m_i, m_i <= 0 (see pde_core); a
    # cell Peclet number h*r/alpha of up to 1 (the shipped runs stay below
    # 1.4e-5); start values S(0) and O(0) of some forcing, G(0) held from u
    a_s, a_o, a_g = alphas
    p = -min(a_s, a_o) / n_z * 10.0 ** rng.uniform(-6, 0)
    m = -a_g / (2 * n_y) * 10.0 ** rng.uniform(-6, 0)
    q = rng.uniform(-1, 1) * abs(m) * n_y / (n_y - 1)
    s_0, o_0 = rng.uniform(0, 1, 2)
    return [1.0, *alphas, p, q, m, a_s * s_0, a_o * o_0, a_g * u[2 * (n_z + 1)]]


class TestPackedStageSolve:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           alphas=st.tuples(*(st.floats(min_value=1e-3, max_value=1e6),) * 3))
    def test_matches_per_species_solves_bit_for_bit(self, seed, alphas):
        # the rows of one substep are those of each species, to the rounding
        # of sums taken in another order; and the packed solve of them equals
        # each species' block solved on its own bit for bit: the end rows
        # decouple the blocks
        n_z, n_y = 30, 17
        rng = np.random.default_rng(seed)
        u = rng.uniform(0, 1, 2 * (n_z + 1) + n_y + 1)
        coefficients = _random_coefficients(rng, alphas, u)
        model = _inert_setup(n_z, 1.0, n_y)[0]
        n = u.size
        parts = np.dot(np.array(coefficients), model.layout.systems[0])
        rows = (parts[n + 1:2 * n], parts[:n], parts[2 * n:3 * n - 1], parts[3 * n:] + u)
        for got, expect in zip(rows, _per_species_rows(coefficients, u, n_z, n_y)):
            assert np.all(np.abs(got - expect) <= 4.0 * np.spacing(np.abs(expect)))
        packed = stepper._implicit_euler(u, coefficients, 1, model)
        # the end values come back as they were
        assert np.array_equal(packed[model.layout.bounds], u[model.layout.bounds])
        edges = [0, n_z + 1, 2 * (n_z + 1), n]
        lower, diag, upper, rhs = rows
        for start, end in zip(edges, edges[1:]):
            alone = solve_tridiagonal(lower[start:end - 1], diag[start:end],
                                      upper[start:end - 1], rhs[start:end])
            assert np.array_equal(packed[start:end], alone)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           alphas=st.tuples(*(st.floats(min_value=1e-3, max_value=1e6),) * 6))
    def test_stacked_solve_equals_two_separate_solves(self, seed, alphas):
        # IE(dt) and IE(dt/2) from one u in one stacked solve: the stacked
        # rows are those of the two systems, to the rounding of sums taken
        # in another order, and solving them stacked equals solving each
        # system's half on its own bit for bit
        n_z, n_y = 30, 17
        rng = np.random.default_rng(seed)
        model = _inert_setup(n_z, 1.0, n_y)[0]
        systems = model.layout.systems
        u = rng.uniform(0, 1, 2 * (n_z + 1) + n_y + 1)
        n = u.size
        first = _random_coefficients(rng, alphas[:3], u)
        second = _random_coefficients(rng, alphas[3:], u)
        stacked = np.dot(np.array(first + second), systems[1]).reshape(4, 2, n)
        for k, c in enumerate((first, second)):
            alone = np.dot(np.array(c), systems[0]).reshape(4, n)
            assert np.all(np.abs(stacked[:, k] - alone) <= 4.0 * np.spacing(np.abs(alone)))
        both = stepper._implicit_euler(u, first + second, 2, model)
        diag, lower, upper, rhs = stacked.reshape(4, 2 * n)
        lower, upper, rhs = lower[1:], upper[:-1], rhs + np.concatenate((u, u))
        for start in (0, n):
            half = slice(start, start + n)
            alone = solve_tridiagonal(lower[start:start + n - 1], diag[half],
                                      upper[start:start + n - 1], rhs[half])
            assert np.array_equal(both[half], alone)
        # with each system's own rows, the two agree to rounding (measured:
        # 1.9e-14 at most in 1000 draws)
        apart = np.concatenate([stepper._implicit_euler(u, c, 1, model)
                                for c in (first, second)])
        np.testing.assert_allclose(both, apart, rtol=1e-13, atol=0.0)

    def test_two_solves_and_two_refreshes_per_step(self, monkeypatch, default_cfg):
        # every per-step function the benchmark traces is reached through the
        # module attribute it patches, as often as the scheme needs it; a
        # path that captured one at import or went round it would miss here.
        # The forcing is read at tau + dt/2, then at tau + dt; no other test
        # notices either read at tau.  Each start state's rates come from
        # advection_rates once; the explicit pass and the coefficient
        # profiles are left to the tests and are never called.
        expected = {
            (stepper, "solve_tridiagonal"): 2,
            (pde_core, "split_rhs_interior"): 0,
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
        rated = []
        rates = stepper.advection_rates
        monkeypatch.setattr(stepper, "advection_rates",
                            lambda fs, omega_p: rated.append(fs) or rates(fs, omega_p))
        dt, tau = 0.01, 0.75
        imex_midpoint_step(u, fronts, tau, dt, model)
        assert calls == expected
        hours_per_tau = default_cfg.scales.t_r / simulation.SECONDS_PER_HOUR
        assert forcing_hours == [pytest.approx((tau + dt / 2) * hours_per_tau, rel=1e-15),
                                 pytest.approx((tau + dt) * hours_per_tau, rel=1e-15)]
        # the substeps from u advect at the start speeds, the second half
        # step at those of the refreshed half-step state
        assert rated[0] is fronts
        assert rated[1].a == fronts.a + 0.5 * dt * fronts.a_dot
        assert rated[1].a_dot != fronts.a_dot


def test_coefficients_at_the_advanced_widths(default_cfg):
    # alpha and the rates of IE(h) are taken at the fronts advanced by h at
    # the start speeds, written out here
    u, fs, model = initialize(default_cfg)
    h, omega_p = 0.05, model.sw.omega_p
    got = stepper._coefficients(h, fs, pde_core.advection_rates(fs, omega_p),
                                (1.0, 2.0, 3.0), model)
    ahead = consistent_fronts(fs.a + h * fs.a_dot, fs.b + h * fs.b_dot, model.sw,
                              fs.a_dot, fs.b_dot)
    outer, inner = ahead.beta - ahead.gamma, ahead.a - ahead.beta
    d = model.d_hat
    alphas = [h * d.d_s / (outer * model.dz) ** 2, h * d.d_o / (outer * model.dz) ** 2,
              h * d.d_g / (inner * model.dy) ** 2]
    rates = [h * r for r in pde_core.advection_rates(ahead, omega_p)]
    expect = [1.0, *alphas, *rates, alphas[0], 2.0 * alphas[1], 3.0 * alphas[2]]
    assert got == pytest.approx(expect, rel=1e-12)
    # the widths grow, so the start widths would give larger numbers
    assert outer > fs.beta - fs.gamma and inner > fs.a - fs.beta


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


class TestStepAlgebra:
    # every check steps imex_midpoint_step itself
    def test_stability_function_on_a_sine_mode(self):
        # a discrete sine mode of the S diffusion operator (eigenvalue lam)
        # is scaled by the extrapolated implicit Euler factor
        # R(z) = 2/(1 - z/2)^2 - 1/(1 - z), z = lam*dt: IE(dt) scales it by
        # 1/(1 - z), two IE(dt/2) by 1/(1 - z/2)^2
        n, d_hat = 20, 0.3
        model, fronts = _inert_setup(n, d_hat)
        z = np.linspace(0, 1, n + 1)
        mode = np.sin(np.pi * z)
        u = _packed(mode, n)
        lam = -4.0 * d_hat * n**2 * math.sin(0.5 * math.pi / n) ** 2

        def factor(dt):
            zeta = lam * dt
            return 2.0 / (1.0 - zeta / 2) ** 2 - 1.0 / (1.0 - zeta)

        new, fs, error, clamps, _ = imex_midpoint_step(u, fronts, 0.0, 0.05, model)
        assert np.allclose(new[:n + 1], mode * factor(0.05), rtol=0, atol=1e-14)
        assert not np.allclose(new[:n + 1], mode * math.exp(lam * 0.05), rtol=0, atol=1e-6)
        # the inert interfaces keep the fronts in place at zero speed, so
        # the error estimate of the fronts is zero
        assert (fs.a, fs.b, error, clamps) == (fronts.a, fronts.b, 0.0, 0)
        assert (fs.a_dot, fs.b_dot, fs.beta_dot, fs.gamma_dot) == (0.0, 0.0, 0.0, 0.0)
        # L-stable: a long step leaves the mode at R = -3.4e-4 of itself, where
        # the midpoint factor (1 + z/2)/(1 - z/2) would keep it at about -1;
        # the clamp floors that small undershoot at zero on every interior node
        assert -1e-3 < factor(1e3) < 0.0
        new, _, _, clamps, _ = imex_midpoint_step(u, fronts, 0.0, 1e3, model)
        assert np.array_equal(new[:n + 1], np.zeros(n + 1)) and clamps == n - 1

    def test_error_estimate_is_the_front_difference_of_the_two_results(self, default_cfg):
        # the first result's fronts are a + dt*a_dot, the second's
        # a + dt/2*(a_dot + a_dot(mid)), the kept ones a + dt*a_dot(mid); the
        # estimate is the largest relative difference of a, b and a - beta
        u, fs, model = initialize(default_cfg)
        dt = 0.05
        new, fs_new, error, _, _ = imex_midpoint_step(u, fs, 0.0, dt, model)
        a_dot_mid = (fs_new.a - fs.a) / dt
        b_dot_mid = (fs_new.b - fs.b) / dt
        d_a, d_b = 0.5 * dt * (a_dot_mid - fs.a_dot), 0.5 * dt * (b_dot_mid - fs.b_dot)
        d_h = (1.0 + model.sw.omega_p) * d_a - d_b
        expect = max(abs(d_a) / fs_new.a, abs(d_b) / fs_new.b,
                     abs(d_h) / (fs_new.a - fs_new.beta))
        assert error == pytest.approx(expect, rel=1e-9)
        assert 0.0 < error < 1.0

    def test_front_overshoot_raises(self, default_cfg):
        # a step of 1000 h from the seed puts beta beyond a
        u, fs, model = initialize(default_cfg)
        with pytest.raises(ValueError, match="ordering"):
            imex_midpoint_step(u, fs, 0.0, 1000.0, model)

    def test_an_overshooting_full_substep_raises(self, default_cfg):
        # b consumed fast enough that the fronts of IE(dt) cross, a + dt*a_dot
        # behind beta, while those of the half step do not: the substep's own
        # ordering check rejects the step
        u, seed, model = initialize(default_cfg)
        dt = 0.01
        b_dot = 1.5 * (seed.a - seed.beta) / dt
        fs = consistent_fronts(seed.a, seed.b, model.sw, a_dot=0.0, b_dot=b_dot)
        consistent_fronts(fs.a, fs.b + 0.5 * dt * b_dot, model.sw)     # ordered
        with pytest.raises(ValueError, match="ordering"):
            imex_midpoint_step(u, fs, 0.0, dt, model)


def _inert_setup(n, d_hat_s, n_y=None):
    # zero Stefan constants, swelling and forcing: the shipped step keeps
    # the fronts still, so only the fields move
    tiny = 1e-30
    model = NondimModel(
        d_hat=Diffusivities(tiny, d_hat_s, tiny),
        sc=StefanConstants(0.0, 0.0, 0.0),
        sw=SwellingRatios(0.0, 0.0),
        n_z=n, n_y=n if n_y is None else n_y,
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
        # and the extrapolation undershoots below zero.  The clamps floor the
        # fields and count them: the 24 interior S nodes of the default grid,
        # in the first accepted step from the switch (its first attempt is
        # rejected).  No front speed turns negative under this step.  Each
        # step returns its counts with a buffer that has no negative node,
        # and the run's totals are the sums of the counts of the accepted
        # steps.
        chamber = default_cfg.forcing
        cfg = replace(default_cfg, horizon_hours=26.0,
                      forcing=cycle_forcing(float(chamber.so2[0]), chamber.oxygen))
        switch = 8.0 * simulation.SECONDS_PER_HOUR / cfg.scales.t_r
        step = simulation.imex_midpoint_step
        steps = []

        def recording(u, fs, tau, dt, model):
            new, fs_new, error, field_clamps, velocity_clamps = step(u, fs, tau, dt, model)
            steps.append((tau, new.min(), field_clamps, velocity_clamps, error))
            return new, fs_new, error, field_clamps, velocity_clamps

        monkeypatch.setattr(simulation, "imex_midpoint_step", recording)
        out = run(cfg)
        assert out.field_clamps > 0 and out.rejected > 0
        assert all(lowest >= 0.0 for _, lowest, _, _, _ in steps)
        accepted = [s for s in steps if s[4] <= cfg.tolerance]
        assert len(accepted) == out.steps - out.rejected
        assert next(tau for tau, _, clamps, _, _ in accepted if clamps > 0) == switch
        assert out.field_clamps == sum(s[2] for s in accepted)
        assert out.velocity_clamps == sum(s[3] for s in accepted)
        # nothing is clamped before the first switch
        assert run(replace(cfg, horizon_hours=8.0)).field_clamps == 0
