import math

import pytest

from cellwave import ModelParams, hill_active, linear_undercooling, tanh_undercooling


@pytest.fixture(scope="session")
def f_act():
    return hill_active(2.0, 0.75, 2)


@pytest.fixture(scope="session")
def f_und():
    return linear_undercooling()


@pytest.fixture(scope="session")
def f_und_tanh():
    return tanh_undercooling(0.5)


@pytest.fixture(scope="session")
def params():
    # Defaults used across the suite: unit rest concentration, moderate
    # surface tension, mild undercooling.
    return ModelParams(a=0.8, gamma=10.0, chi_c=1.0, chi_u=0.25, R0=1.0,
                       M=math.pi)


@pytest.fixture(scope="session")
def j1_roots():
    # The first four positive roots of J_1, frozen from a 40-digit oracle.
    return (3.8317059702075123156, 7.0155866698156187535,
            10.173468135062722077, 13.323691936314223032)
