import numpy as np
import pytest
from hypothesis import given, strategies as st

from patina.environment import constant_chamber_forcing
from patina.materials import DEFAULT_MATERIALS, SwellingRatios, swelling_ratios
from patina.pde_core import (
    BoundaryConditionError,
    Diffusivities,
    FrontState,
    StefanConstants,
    advection_rates,
    apply_outer_bcs,
    front_velocities,
    inner_advection_coeff,
    outer_advection_coeff,
    split_rhs_interior,
    stefan_constants,
)
from conftest import consistent_fronts, layout_rates
from patina.stepper import Model, refresh_state, select_dt

SW = swelling_ratios(DEFAULT_MATERIALS)
# the models here take their boundary values as arguments, not from a forcing
NO_FORCING = constant_chamber_forcing(0.0, 0.0)

velocities = st.floats(min_value=-10.0, max_value=10.0)
coords = st.floats(min_value=0.0, max_value=1.0)


def synthetic_fronts(a_dot=0.0, b_dot=0.0, beta_dot=0.0, gamma_dot=0.0,
                     a=2.0, beta=1.0, gamma=0.0, b=1.0):
    return FrontState(a=a, b=b, beta=beta, gamma=gamma, a_dot=a_dot,
                      b_dot=b_dot, beta_dot=beta_dot, gamma_dot=gamma_dot)


class TestDiffusivities:
    def test_per_hour_diffusivities(self):
        d = Diffusivities(d_g=9.9e-9, d_s=3.96e-5, d_o=9.9e-6)
        hourly = d.per_hour()
        # cm2/s to cm2/h: 3600 * 3.96e-5
        assert hourly.d_s == pytest.approx(0.14256, rel=1e-12)
        assert hourly.d_g == pytest.approx(3.564e-5, rel=1e-12)
        assert hourly.d_o == pytest.approx(3.564e-2, rel=1e-12)

    def test_diffusivities_positive(self):
        with pytest.raises(ValueError):
            Diffusivities(d_g=0.0, d_s=1.0, d_o=1.0)


class TestFrontState:
    # the kinematics of the consistent fronts that the tests build (conftest),
    # as refresh_state builds them in a run
    def test_from_consumption_identities(self):
        fs = consistent_fronts(1e-2, 8e-3, SW, a_dot=0.3, b_dot=0.7)
        assert fs.beta == 8e-3 - SW.omega_p * 1e-2
        assert fs.gamma == -(SW.omega_p * 1e-2 + SW.omega_b * 8e-3)
        assert fs.beta_dot == 0.7 - SW.omega_p * 0.3
        assert abs(fs.gamma_dot + SW.omega_p * 0.3 + SW.omega_b * 0.7) <= 1e-12
        assert fs.gamma < fs.beta < fs.a

    def test_ordering_violation_raises(self):
        # more cuprite consumed than ever formed: beta >= a
        with pytest.raises(ValueError, match="ordering"):
            consistent_fronts(1e-2, 2e-2, SW)

    def test_rejects_degenerate_widths(self):
        # b = 0 gives beta == gamma; with omega_p = 0.5, b = 1.5*a gives
        # a == beta exactly
        with pytest.raises(ValueError, match="ordering"):
            consistent_fronts(1.0, 0.0, SW)
        half = SwellingRatios(omega_p=0.5, omega_b=0.5)
        assert 1.5 - half.omega_p * 1.0 == 1.0
        with pytest.raises(ValueError, match="ordering"):
            consistent_fronts(1.0, 1.5, half)


class TestRescaleCoefficients:
    # the total speeds, front-fixing terms q(z) and f(y) included
    def test_stationary_fronts_zero(self):
        fs = synthetic_fronts()
        z = np.linspace(0, 1, 11)
        assert np.all(outer_advection_coeff(z, fs) == 0.0)
        assert np.all(inner_advection_coeff(z, fs, SW.omega_p) == 0.0)

    def test_substitution_examples(self):
        # end values against the peak speeds select_dt bounds: the outer
        # speed runs from 0 at z = 0 to (gamma_dot - beta_dot)/width at
        # z = 1, the inner one from -b_dot/width to -(1 + omega_p)*a_dot/width
        fs = consistent_fronts(3e-2, 2e-2, SW, a_dot=0.7, b_dot=0.4)
        outer_w, inner_w = fs.beta - fs.gamma, fs.a - fs.beta
        ends = np.array([0.0, 1.0])
        c_out = outer_advection_coeff(ends, fs)
        c_in = inner_advection_coeff(ends, fs, SW.omega_p)
        assert c_out[0] == 0.0
        assert c_out[1] == pytest.approx((fs.gamma_dot - fs.beta_dot) / outer_w, rel=1e-12)
        assert c_in[0] == pytest.approx(-fs.b_dot / inner_w, rel=1e-12)
        assert c_in[1] == pytest.approx(-(1 + SW.omega_p) * fs.a_dot / inner_w, rel=1e-12)
        # the speeds are affine, so the ends are the peaks the CFL bound sees
        dz, dy, cfl = 0.01, 0.02, 0.8
        expect = min(cfl * dz / np.max(np.abs(c_out)), cfl * dy / np.max(np.abs(c_in)))
        assert select_dt(fs, dz, dy, cfl, 1e9, SW.omega_p) == pytest.approx(expect, rel=1e-12)

    @given(z=coords, gd=velocities, bd=velocities)
    def test_outer_coefficient_identity(self, z, gd, bd):
        # gamma_dot/(beta-gamma) + q(z) simplifies to z*(gamma_dot-beta_dot)/width
        fs = synthetic_fronts(gamma_dot=gd, beta_dot=bd)
        lhs = outer_advection_coeff(z, fs)
        rhs = z * (gd - bd) / (fs.beta - fs.gamma)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @given(y=coords, ad=velocities, bd=velocities)
    def test_inner_coefficient_identity(self, y, ad, bd):
        # f(y) - omega_p*a_dot/width, written out by hand
        beta_dot = bd - SW.omega_p * ad
        fs = synthetic_fronts(a_dot=ad, beta_dot=beta_dot)
        lhs = inner_advection_coeff(y, fs, SW.omega_p)
        width = fs.a - fs.beta
        rhs = (y * (beta_dot - ad) - beta_dot - SW.omega_p * ad) / width
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def packed_fields(n_z, n_y, s, o, g):
    """[S | O | G] at every grid point, end values included, on unequal grids
    from per-species profiles of the grid coordinate: the buffer TestSplitRhs
    passes through ``split_rhs_interior`` (the run buffer of
    ``stepper.PackedLayout`` holds no start value and no pin)."""
    z = np.linspace(0, 1, n_z + 1)
    y = np.linspace(0, 1, n_y + 1)
    return np.concatenate((s(z), o(z), g(y)))


def packed_rhs(u, fs, n_z, n_y, sw=SW):
    """Advection of all three species in one pass, at the per-node rates -c/dx
    of the layout's solve map (the rates the stepper's matrix holds), and the model."""
    model = Model(d=Diffusivities(1.0, 1.0, 1.0), sc=StefanConstants(0, 0, 0),
                  sw=sw, n_z=n_z, n_y=n_y, forcing=NO_FORCING)
    return split_rhs_interior(u, node_rates(fs, model)[1:-1]), model


def at_grid_points(row, model):
    """A row over the layout's nodes, spread over every grid point of
    ``packed_fields``: 0 at the start values and the pins, which the layout
    does not hold.  The layout samples each node's grid point, its index in
    the buffer of ``packed_fields``."""
    lay = model.layout
    n_z, n_y = lay.n_z, lay.n_y
    points = lay.sample(lambda z: round(z * n_z), lambda z: n_z + 1 + round(z * n_z),
                        lambda y: 2 * n_z + 2 + round(y * n_y)).astype(int)
    spread = np.zeros(2 * n_z + n_y + 3, dtype=row.dtype)
    spread[points] = row
    return spread


def node_rates(fs, model):
    """The per-node advection rate -c/dx of the layout's solve map, at every grid point."""
    return at_grid_points(layout_rates(model.layout, advection_rates(fs, model.sw.omega_p)),
                          model)


def interior_rows(model):
    """The rows 1..N-2 of ``packed_fields`` that are interior nodes of their
    species: every node the layout holds but O(1)."""
    lay = model.layout
    nodes = np.arange(lay.systems[0].shape[1] // 4)
    return at_grid_points(nodes != lay.o_end, model)[1:-1]


def per_block_reference(u, fs, n_z, n_y, omega_p=SW.omega_p):
    """Interior advection of each species on its own, concatenated (the reference).

    The speeds are written out as in the coefficient identity tests, not
    taken from the code under test.  The difference is the forward one,
    upwind for the speeds c <= 0 of ordered fronts with a_dot, b_dot >= 0.
    """
    outer_w, inner_w, bd = fs.beta - fs.gamma, fs.a - fs.beta, fs.beta_dot
    s, o, g = np.split(u, [n_z + 1, 2 * (n_z + 1)])
    out = []
    for u, n, speed in ((s, n_z, lambda z: z * (fs.gamma_dot - bd) / outer_w),
                        (o, n_z, lambda z: z * (fs.gamma_dot - bd) / outer_w),
                        (g, n_y, lambda y: (y * (bd - fs.a_dot) - bd
                                                   - omega_p * fs.a_dot) / inner_w)):
        dx = 1.0 / n
        c = speed(np.arange(1, n) * dx)
        out.append(-c * ((u[2:] - u[1:-1]) / dx))
    return np.concatenate(out)


# molar densities (mol/cm3) of copper, cuprite and brochantite
molar_densities = st.floats(min_value=1e-2, max_value=1e2)
# clamped front speeds: zero, or normal numbers (a subnormal speed's
# products lose the relative precision the comparison below relies on)
front_speeds = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e3))


class TestSplitRhs:
    # one pass over the packed [S | O | G] buffer; rows are flat nodes 1..N-2
    def test_constant_field_gives_zero(self):
        fs = synthetic_fronts(gamma_dot=-0.5, beta_dot=0.2, a_dot=0.1, b_dot=0.3)
        u = packed_fields(30, 17, lambda z: np.full_like(z, 3.5),
                          lambda z: np.full_like(z, 1.0), lambda y: np.full_like(y, 0.2))
        h, _ = packed_rhs(u, fs, 30, 17)
        assert h.shape == (u.size - 2,)
        assert np.all(h == 0.0)

    def test_upwind_direction_switches_with_sign(self):
        # c < 0 takes the forward difference inside each block, with its
        # own grid spacing; ordered fronts with clamped speeds have no c > 0
        # (test_consistent_fronts_give_non_negative_rates).  The stepper
        # multiplies the difference by -c/dx from the rate basis and the
        # reference divides by dx and multiplies by c, so the two may round
        # apart by 1 ulp.
        n_z, n_y = 4, 3
        u = packed_fields(n_z, n_y, lambda z: z**2, lambda z: 3.0 - z,
                          lambda y: 1.0 + y**3)
        fs = synthetic_fronts(gamma_dot=-1.0, a_dot=1.0)     # outer c = -z, inner c < 0
        h, model = packed_rhs(u, fs, n_z, n_y)
        interior = interior_rows(model)
        expect = per_block_reference(u, fs, n_z, n_y)
        assert np.all(np.abs(h[interior] - expect) <= np.spacing(np.abs(expect)))
        c = 0.25 * (fs.gamma_dot - fs.beta_dot) / (fs.beta - fs.gamma)
        assert c < 0.0 and h[0] == -c * (u[2] - u[1]) / 0.25

    @given(mu=st.tuples(molar_densities, molar_densities, molar_densities),
           a=st.floats(min_value=1e-6, max_value=1e2),
           share=st.floats(min_value=1e-3, max_value=0.999),
           a_dot=front_speeds, b_dot=front_speeds, seed=st.integers(0, 2**32 - 1))
    def test_consistent_fronts_give_non_negative_rates(self, mu, a, share, a_dot, b_dot,
                                                       seed):
        # for any positive molar densities 1 + omega_b and 1 + omega_p are
        # positive, so ordered fronts with a_dot, b_dot >= 0 move every
        # speed toward smaller coordinates: every rate row -c/dx is >= 0,
        # exactly, and the forward difference of the pass is upwind
        mu_c, mu_p, mu_b = mu
        sw = SwellingRatios(omega_p=mu_c / (2.0 * mu_p) - 1.0,
                            omega_b=mu_p / (2.0 * mu_b) - 1.0)
        # b in (0, (1 + omega_p)*a) keeps gamma < beta < a
        fs = consistent_fronts(a, share * (1.0 + sw.omega_p) * a, sw,
                               a_dot=a_dot, b_dot=b_dot)
        n_z, n_y = 30, 17
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 1.0, 2 * (n_z + 1) + n_y + 1)
        h, model = packed_rhs(u, fs, n_z, n_y, sw)
        assert np.all(node_rates(fs, model) >= 0.0)
        # the reference forms each speed by another sum of the same terms,
        # which cancel when 1 + omega_p or 1 + omega_b is small; the two
        # agree to a few ulps of the largest summand over its grid spacing
        # times the largest difference (measured: 3 in 30 000 draws)
        expect = per_block_reference(u, fs, n_z, n_y, sw.omega_p)
        terms = max((abs(fs.gamma_dot) + abs(fs.beta_dot)) * n_z / (fs.beta - fs.gamma),
                    (abs(fs.beta_dot) + (1.0 + abs(sw.omega_p)) * a_dot) * n_y
                    / (fs.a - fs.beta))
        scale = terms * np.max(np.abs(np.diff(u)))
        assert np.all(np.abs(h[interior_rows(model)] - expect) <= 4.0 * np.spacing(scale))

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            split_rhs_interior(np.array([1.0, 2.0]), np.zeros(0))
        with pytest.raises(ValueError, match="does not match"):
            split_rhs_interior(np.zeros(5), np.zeros(4))


UNIT = StefanConstants(1.0, 1.0, 0.0)


def speeds(s, g, sc):
    """(a_dot, b_dot, clamped) of ``front_velocities`` for S = s and G = g on
    unit layer widths; the nodes S(1) and G(1) are the pin, zero."""
    n = len(s) - 1
    return front_velocities(s[-3], s[-2], g[-3], g[-2], 1.0, 1.0, sc, 1 / n, 1 / n)


def refreshed(s, g, sc, n):
    """``refresh_state`` on S = s(z), O = 0 and G = g(y) on n cells per layer,
    for fronts of unit layer widths (to rounding): the new fronts and the
    clamp count."""
    b = 1.0 / (1.0 + SW.omega_b)
    a = (1.0 + b) / (1.0 + SW.omega_p)
    model = Model(d=Diffusivities(1.0, 1.0, 1.0), sc=sc, sw=SW, n_z=n, n_y=n,
                  forcing=NO_FORCING)
    return refresh_state(model.layout.sample(s, lambda z: 0.0, g), a, b, model)


class TestBoundaryGradient:
    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_exact_for_quadratics(self, a, b):
        # the Stefan stencil on u = a x^2 + b x - (a + b), which meets the
        # pin u(1) = 0, gives u'(1) = 2a + b; Omega_s = -1 and Omega_g = 1
        # turn it into b_dot = max(u'(1), 0) and a_dot = max(-u'(1), 0)
        x = np.linspace(0, 1, 101)
        u = a * x**2 + b * x - (a + b)
        exact = 2 * a + b
        a_dot, b_dot, _ = speeds(u, u, StefanConstants(-1.0, 1.0, 0.0))
        assert b_dot - a_dot == pytest.approx(exact, abs=1e-9 * (1 + abs(exact)))


class TestFrontVelocities:
    def test_zero_fields_zero_velocities(self):
        zeros = np.zeros(101)
        assert speeds(zeros, zeros, StefanConstants(1.0, 1.0, 1.0)) == (0.0, 0.0, 0)
        moved, clamped = refreshed(lambda z: 0.0, lambda y: 0.0,
                                   StefanConstants(1.0, 1.0, 1.0), 100)
        assert moved[4:] == (0.0, 0.0, 0.0, 0.0)
        assert clamped == 0

    def test_linear_profile_unit_velocity(self):
        # S falling 1 -> 0 over unit width with Omega_s = 1 gives b_dot = 1
        moved, _ = refreshed(lambda z: 1.0 - z, lambda y: 0.0, UNIT, 100)
        assert moved.b_dot == pytest.approx(1.0, rel=1e-12)
        assert moved.a_dot == 0.0
        assert moved.gamma_dot == pytest.approx(-SW.omega_b, rel=1e-12)
        assert moved.beta_dot == pytest.approx(1.0, rel=1e-12)

    def test_positive_when_fields_positive(self):
        n = 100
        x = np.linspace(0, 1, n + 1)
        s = np.cos(0.5 * np.pi * x)   # positive inside, 0 at x = 1
        a_dot, b_dot, clamped = speeds(s, 1.0 - x**2, StefanConstants(0.7, 0.3, 0.0))
        assert a_dot > 0 and b_dot > 0
        assert clamped == 0

    def test_each_speed_lands_in_its_field(self):
        moved, _ = refreshed(lambda z: 2.0 * (1.0 - z), lambda y: 1.0 - y**2, UNIT, 100)
        assert moved.b_dot == pytest.approx(2.0, rel=1e-12)
        assert moved.a_dot == pytest.approx(2.0, rel=1e-12)
        assert moved.beta_dot == moved.b_dot - SW.omega_p * moved.a_dot
        assert moved.gamma_dot == -(SW.omega_p * moved.a_dot + SW.omega_b * moved.b_dot)

    def test_negative_gradient_clamped(self):
        n = 10
        x = np.linspace(0, 1, n + 1)
        # S and G rising toward the front: the unphysical direction
        a_dot, b_dot, clamped = speeds(x - 1.0, x - 1.0, UNIT)
        assert a_dot == 0.0 and b_dot == 0.0
        assert clamped == 2

    @given(s_amp=st.floats(0.1, 2.0), g_amp=st.floats(0.1, 2.0))
    def test_kinematic_identity(self, s_amp, g_amp):
        sc = StefanConstants(0.9, 0.4, 0.0)
        moved, _ = refreshed(lambda z: s_amp * (1 - z) * (1 + 0.3 * z),
                             lambda y: g_amp * (1 - y**2), sc, 50)
        assert abs(moved.gamma_dot + SW.omega_p * moved.a_dot
                   + SW.omega_b * moved.b_dot) <= 1e-12


class TestOuterBcs:
    def setup_method(self):
        self.n = 100
        self.dz = 1.0 / self.n
        self.d = Diffusivities(d_g=1.0, d_s=1.0, d_o=2.0)
        self.sc = StefanConstants(1.0, 1.0, 1.5)

    def test_dirichlet_and_homogeneous_robin(self):
        # zero S and G keep the fronts at rest, so refresh_state makes the
        # zero-velocity Robin solve; O(1) starts at 5.0 to show that it
        # writes O(1) alone
        model = Model(d=self.d, sc=self.sc, sw=SW, n_z=self.n, n_y=self.n,
                      forcing=constant_chamber_forcing(0.0, 0.8))
        lay = model.layout
        u = lay.sample(lambda z: 0.0, lambda z: 0.0, lambda y: 0.0)
        u[lay.o_end] = 5.0
        u[lay.stencils[2:4]] = 0.7, 0.9     # O(-3), O(-2)
        before = u.copy()
        fs, _ = refresh_state(u, 2.0, 1.0, model)
        assert fs == consistent_fronts(2.0, 1.0, SW)
        o_beta = apply_outer_bcs(0.7, 0.9, fs.beta - fs.gamma, 0.0, 0.0, self.d, self.sc,
                                 self.dz)
        # zero-velocity Robin reduces to a zero-gradient extrapolation
        assert o_beta == pytest.approx((4 * 0.9 - 0.7) / 3.0, rel=1e-12)
        # the Robin value at O(1), every other node as it was
        assert u[lay.o_end] == o_beta
        assert np.flatnonzero(u != before).tolist() == [lay.o_end]

    def test_uniform_field_with_matched_velocities(self):
        # gamma_dot = b_dot = v: the (gamma_dot - b_dot)*O term drops and the
        # boundary value shifts by the sink alone: O_N = O_a - Gamma_o*v/(3k)
        v = 0.25
        o_beta = apply_outer_bcs(1.0, 1.0, 1.0, v, v, self.d, self.sc, self.dz)
        k = self.d.d_o / (2 * self.dz * 1.0)
        assert o_beta == pytest.approx(1.0 - self.sc.gamma_o * v / (3 * k), rel=1e-12)

    def test_negative_solution_clamped(self):
        assert apply_outer_bcs(1e-9, 1e-9, 1.0, -60.0, 50.0, self.d, self.sc, self.dz) == 0.0

    def test_singular_robin_reported(self):
        # arrange 3k == gamma_dot - b_dot exactly
        k = self.d.d_o / (2 * self.dz * 1.0)
        with pytest.raises(BoundaryConditionError, match="dz"):
            apply_outer_bcs(1.0, 1.0, 1.0, 3 * k, 0.0, self.d, self.sc, self.dz)


def test_stefan_constants_formulas():
    mat = DEFAULT_MATERIALS
    d = Diffusivities(d_g=9.9e-9, d_s=3.96e-5, d_o=9.9e-6).per_hour()
    sc = stefan_constants(mat, d)
    assert sc.omega_s == pytest.approx(
        2 * mat.n_b * d.d_s * (mat.M_p / mat.M_s) / mat.rho_p, rel=1e-15)
    assert sc.omega_g == pytest.approx(
        4 * mat.n_p * d.d_g * (mat.M_c / mat.M_o) / mat.rho_c, rel=1e-15)
    assert sc.gamma_o == pytest.approx(
        0.75 / mat.n_b * (mat.M_o / mat.M_p) * mat.rho_p, rel=1e-15)
