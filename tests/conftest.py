import numpy as np
import pytest

from d2dsim.analytic import SystemParams
from d2dsim.spatial import Window

BETA_5DB = 10.0 ** 0.5

# Long Monte Carlo runs, skipped by `pytest -m "not slow"`: criterion 3
# (about 110 s on one core; 420 s before the shared power kernel) and every
# user of the module-scoped comparison fixture (about 14 s to build, since
# the schemes and the channel-aware tuning each share one sample of every
# realization; 25 s before).  They are marked here, by name, so the
# acceptance module stays as written.
SLOW_TESTS = {"test_criterion_3_comparison_table_reproduction"}
SLOW_FIXTURES = {"comparison"}


def pytest_collection_modifyitems(items):
    for item in items:
        if getattr(item, "originalname", None) in SLOW_TESTS \
                or SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def make_params(lambda_d=6e-5, lambda_m=1e-6, d=50.0, alpha=4.0, p_c_mw=10.0,
                p_d_mw=0.1, beta=BETA_5DB, gamma=1.0) -> SystemParams:
    """Reference simulation setup; override single fields per test."""
    return SystemParams(lambda_m=lambda_m, lambda_d=lambda_d, d=d, alpha=alpha,
                        p_c_mw=p_c_mw, p_d_mw=p_d_mw, beta=beta, gamma=gamma)


@pytest.fixture
def params6() -> SystemParams:
    return make_params(lambda_d=6e-5)


@pytest.fixture
def params2() -> SystemParams:
    return make_params(lambda_d=2e-5)


@pytest.fixture
def window() -> Window:
    return Window(3000.0, 3000.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
