import math

import pytest
from hypothesis import given, strategies as st

from conftest import consistent_fronts
from patina.config import build_simulation_config, load_settings
from patina.materials import (
    DEFAULT_MATERIALS,
    MaterialTable,
    SwellingRatios,
    mole_balance,
    swelling_ratios,
)

# Expected values computed directly from the default table
# (mu_c = 8.94/63.55, mu_p = 6.00/143.09, mu_b = 3.97/452.3).
OMEGA_P = 0.6774516129032258
OMEGA_B = 1.388625432233117


def test_swelling_ratios_table_values(sw):
    assert sw.omega_p == pytest.approx(OMEGA_P, abs=1e-12)
    assert sw.omega_b == pytest.approx(OMEGA_B, abs=1e-12)


def test_table_molar_density_orderings():
    m = DEFAULT_MATERIALS
    assert m.mu_c > 2 * m.mu_p     # omega_p > 0
    assert m.mu_p > 2 * m.mu_b     # omega_b > 0


def test_zero_expansion_material():
    # mu_c = 2*mu_p exactly: copper-to-cuprite conversion with no swelling
    mat = MaterialTable(rho_c=2.0, M_c=1.0, rho_p=1.0, M_p=1.0)
    assert swelling_ratios(mat).omega_p == 0.0


def test_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        MaterialTable(rho_c=-1.0)
    with pytest.raises(ValueError):
        MaterialTable(M_b=0.0)
    with pytest.raises(ValueError):
        MaterialTable(n_b=0.0)
    with pytest.raises(ValueError):
        MaterialTable(n_p=1.5)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_swelling_scale_invariance(scale):
    # multiplying every density by a constant leaves the ratios unchanged
    base = swelling_ratios(DEFAULT_MATERIALS)
    scaled = swelling_ratios(MaterialTable(
        rho_c=DEFAULT_MATERIALS.rho_c * scale,
        rho_p=DEFAULT_MATERIALS.rho_p * scale,
        rho_b=DEFAULT_MATERIALS.rho_b * scale,
    ))
    assert scaled.omega_p == pytest.approx(base.omega_p, rel=1e-12)
    assert scaled.omega_b == pytest.approx(base.omega_b, rel=1e-12)


def test_mole_balance_copper_counts(sw):
    # 40 h chamber endpoint: a = 3.1693e-4 cm
    fs = consistent_fronts(3.1693e-4, 5.2879e-4, sw)
    rep = mole_balance(*fs[:4], DEFAULT_MATERIALS)
    assert rep.copper_wasted == pytest.approx(4.45846e-5, rel=1e-4)
    assert rep.cuprite_formed == pytest.approx(2.22923e-5, rel=1e-4)
    assert rep.ratio_copper_cuprite == pytest.approx(2.0, rel=1e-12)


def test_mole_balance_cuprite_counts(sw):
    # b reconstructed from the printed cuprite-wasted moles 2.2173e-5:
    # the printed b = 7.9916e-4 is inconsistent with them
    # (7.9916e-4 * mu_p = 3.351e-5), while b = 2.2173e-5/mu_p = 5.28789e-4
    # reproduces every printed count.
    b = 5.2879e-4
    fs = consistent_fronts(3.1693e-4, b, sw)
    rep = mole_balance(*fs[:4], DEFAULT_MATERIALS)
    assert rep.cuprite_wasted == pytest.approx(2.21731e-5, rel=1e-4)
    assert rep.brochantite_formed == pytest.approx(1.10865e-5, rel=1e-4)
    assert rep.ratio_cuprite_brochantite == pytest.approx(2.0, rel=1e-12)
    assert 7.9916e-4 * DEFAULT_MATERIALS.mu_p != pytest.approx(2.2173e-5, rel=1e-2)


def test_mole_balance_gamma_reconstruction(sw):
    # gamma = -(omega_p*a + omega_b*b) lands within 0.2% of the printed
    # -9.505e-4, tying the reconstructed b to the front kinematics
    a, b = 3.1693e-4, 5.2879e-4
    gamma = -(sw.omega_p * a + sw.omega_b * b)
    assert gamma == pytest.approx(-9.505e-4, rel=2e-3)
    assert gamma == pytest.approx(-9.48996e-4, abs=1e-8)


def test_mole_balance_zero_state(sw):
    rep = mole_balance(0.0, 0.0, 0.0, 0.0, DEFAULT_MATERIALS)
    assert rep.copper_wasted == 0.0
    assert rep.cuprite_formed == 0.0
    assert rep.cuprite_wasted == 0.0
    assert rep.brochantite_formed == 0.0
    assert math.isnan(rep.ratio_copper_cuprite)
    assert math.isnan(rep.ratio_cuprite_brochantite)


def test_mole_balance_rejects_negative_consumption():
    with pytest.raises(ValueError, match="ordering"):
        mole_balance(-1e-4, 0.0, 0.0, -1e-5, DEFAULT_MATERIALS)
    # ordered fronts, negative b
    with pytest.raises(ValueError, match="consumptions must be non-negative"):
        mole_balance(1e-4, -1e-5, 5e-5, -1e-4, DEFAULT_MATERIALS)


@given(a=st.floats(min_value=1e-8, max_value=1e-1),
       b_frac=st.floats(min_value=1e-6, max_value=1.0))
def test_mole_balance_ratios_always_two(a, b_frac):
    # any kinematically consistent state honors both 2:1 stoichiometries
    sw = swelling_ratios(DEFAULT_MATERIALS)
    b = b_frac * (1 + sw.omega_p) * a * 0.999  # keep beta < a
    fs = consistent_fronts(a, b, sw)
    rep = mole_balance(*fs[:4], DEFAULT_MATERIALS)
    assert rep.ratio_copper_cuprite == pytest.approx(2.0, rel=1e-9)
    if rep.brochantite_formed > 0:
        assert rep.ratio_cuprite_brochantite == pytest.approx(2.0, rel=1e-9)


def test_mole_balance_detects_broken_kinematics(sw):
    # a state evolved with a perturbed omega_b has beta-gamma inconsistent
    # with the material table; the geometric count must expose it
    broken = SwellingRatios(sw.omega_p, 1.1 * sw.omega_b)
    fs = consistent_fronts(3e-4, 4e-4, broken)
    rep = mole_balance(*fs[:4], DEFAULT_MATERIALS)
    assert abs(rep.ratio_cuprite_brochantite / 2.0 - 1.0) > 0.02


def _materials(tmp_path, text):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[materials]\n" + text)
    return build_simulation_config(load_settings(cfgfile)).materials


def test_material_override_roundtrip(tmp_path):
    mat = _materials(tmp_path, "# custom brochantite density\n"
                               "rho_b = 4.1\nn_b = 0.8\nM_c = 63.546\n")
    assert (mat.rho_b, mat.n_b, mat.M_c) == (4.1, 0.8, 63.546)
    assert mat.rho_c == DEFAULT_MATERIALS.rho_c
    # the defaults are the table itself, bit for bit
    assert build_simulation_config(load_settings()).materials == DEFAULT_MATERIALS


def test_config_env_csv_is_relative_to_config(tmp_path, monkeypatch):
    (tmp_path / "env.csv").write_text("time_hours,so2_ugm3,temp_c,rh_percent\n"
                                      "0,10,20,50\n1,30,21,55\n")
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[forcing]\nmode = timeseries\nenv_csv = env.csv\n")
    monkeypatch.chdir(tmp_path.parent)
    forcing = build_simulation_config(load_settings(cfgfile)).forcing
    assert forcing.mode == "time-series"
    assert list(forcing.times) == [0.0, 1.0]
    assert forcing.so2[1] == pytest.approx(3e-11, rel=1e-12)


def test_material_override_rejects_unknown_key(tmp_path):
    with pytest.raises(ValueError, match=r"unknown key 'rho_x' in \[materials\]"):
        _materials(tmp_path, "rho_x = 1.0\n")


def test_material_override_rejects_bad_number(tmp_path):
    with pytest.raises(ValueError, match=r"run.ini: \[materials\] rho_b: bad number 'four'"):
        _materials(tmp_path, "rho_b = four\n")
