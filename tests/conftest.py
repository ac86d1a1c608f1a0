import numpy as np
import pytest

from patina.config import build_simulation_config, load_settings
from patina.materials import DEFAULT_MATERIALS, swelling_ratios


@pytest.fixture(scope="session")
def default_cfg():
    return build_simulation_config(load_settings())


@pytest.fixture(scope="session")
def sw():
    return swelling_ratios(DEFAULT_MATERIALS)


def assert_output_invariants(output, sw, lam):
    """Shared contract checks for any simulation output, rows in cm.

    Ordering gamma < beta < a, beta = b - omega_p*a, monotone consumptions,
    surface and total.  Non-negative concentrations are checked where they
    are produced, on the step (test_stepper.py).
    """
    records = output.records
    times = np.array([r.t_hours for r in records])
    assert np.all(np.diff(times) > 0.0), "record times not strictly increasing"
    prev = None
    for r in records:
        assert r.gamma_cm < r.beta_cm < r.a_cm
        assert r.total_cm == pytest.approx(r.a_cm - r.gamma_cm, rel=0, abs=1e-18)
        assert abs(r.beta_cm - (r.b_cm - sw.omega_p * r.a_cm)) <= 1e-12 * lam
        if prev is not None:
            assert r.a_cm >= prev.a_cm
            assert r.b_cm >= prev.b_cm
            assert r.gamma_cm <= prev.gamma_cm
            assert r.total_cm >= prev.total_cm
        prev = r
