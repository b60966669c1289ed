"""Force-law families and their structural validation."""

import math

import numpy as np
import pytest

from cellwave import (
    ForceLaw,
    ForceLawError,
    force_law_from_config,
    hill_active,
    linear_undercooling,
    tanh_undercooling,
    validate_force_law,
)

# Frozen 40-digit derivatives of the default Hill law at c = 1.
HILL_D = (1.28, 0.9216, -1.437696, 1.98180864)


def test_hill_values():
    law = hill_active(2.0, 0.75, 2)
    assert abs(law.eval(1.0) - HILL_D[0]) <= 1e-15
    assert abs(law.d1(1.0) - HILL_D[1]) <= 1e-15
    assert abs(law.d2(1.0) - HILL_D[2]) <= 1e-14
    assert abs(law.d3(1.0) - HILL_D[3]) <= 1e-14


def test_hill_structure():
    law = hill_active(1.5, 0.6, 3)
    assert law.eval(0.0) == 0.0
    xs = np.linspace(0.05, 10.0, 200)
    vals = law.eval(xs)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals < 1.5)


@pytest.mark.parametrize("exponent", [1, 2, 3, 4])
def test_hill_derivatives_consistent(exponent):
    # Analytic d1..d3 against Richardson central differences of eval.
    law = hill_active(2.0, 0.8, exponent)
    rng = np.random.default_rng(21)
    for c in rng.uniform(0.3, 3.0, size=8):
        h = 1e-4 * (1.0 + c)
        for order, (fun, dfun) in enumerate(
            [(law.eval, law.d1), (law.d1, law.d2), (law.d2, law.d3)]
        ):
            d = lambda hh: (fun(c + hh) - fun(c - hh)) / (2 * hh)
            rich = (4.0 * d(h / 2) - d(h)) / 3.0
            assert abs(rich - dfun(c)) <= 1e-8 * (1.0 + abs(dfun(c)))


def test_undercooling_oddness_and_slopes():
    for law in (linear_undercooling(0.7), tanh_undercooling(0.4)):
        xs = np.linspace(-3.0, 3.0, 101)
        assert np.max(np.abs(law.eval(-xs) + law.eval(xs))) <= 1e-12
        assert np.all(law.d1(xs) > 0)
        assert law.d1(0.0) > 0


def test_tanh_third_derivative():
    law = tanh_undercooling(0.5)
    assert abs(law.d3(0.0) - (-8.0)) <= 1e-12
    # consistency away from zero against finite differences of d2
    for v in (0.1, 0.35):
        h = 1e-5
        d = lambda hh: (law.d2(v + hh) - law.d2(v - hh)) / (2 * hh)
        rich = (4.0 * d(h / 2) - d(h)) / 3.0
        assert abs(rich - law.d3(v)) <= 1e-7 * (1.0 + abs(law.d3(v)))


def test_validation_rejects_bad_laws():
    even = ForceLaw("undercooling", eval=lambda v: np.asarray(v) ** 2 + 0.0,
                    d1=lambda v: 2.0 * np.asarray(v) + 0.0,
                    d2=lambda v: np.full_like(np.asarray(v, dtype=float), 2.0),
                    d3=lambda v: np.zeros_like(np.asarray(v, dtype=float)))
    with pytest.raises(ForceLawError):
        validate_force_law(even)
    shifted = ForceLaw("active", eval=lambda c: np.asarray(c) + 1.0,
                       d1=lambda c: np.ones_like(np.asarray(c, dtype=float)),
                       d2=lambda c: np.zeros_like(np.asarray(c, dtype=float)),
                       d3=lambda c: np.zeros_like(np.asarray(c, dtype=float)))
    with pytest.raises(ForceLawError):
        validate_force_law(shifted)     # does not vanish at zero


def test_constructor_validation():
    with pytest.raises(ForceLawError):
        hill_active(-1.0, 0.5, 2)
    with pytest.raises(ForceLawError):
        linear_undercooling(0.0)
    with pytest.raises(ForceLawError):
        tanh_undercooling(-0.5)


@pytest.mark.parametrize("ctor, kwargs", [
    (hill_active, {"l_max": math.nan}),
    (hill_active, {"k_half": math.nan}),
    (hill_active, {"k_half": math.inf}),
    (linear_undercooling, {"slope": math.nan}),
    (linear_undercooling, {"slope": math.inf}),
    (tanh_undercooling, {"saturation": math.nan}),
    (tanh_undercooling, {"saturation": math.inf}),
])
def test_non_finite_coefficient_rejected(ctor, kwargs):
    # A NaN passes a check written x <= 0; each check must fail on it.
    with pytest.raises(ForceLawError):
        ctor(**kwargs)


def test_validation_rejects_nan_samples():
    nan = lambda c: np.full_like(np.asarray(c, dtype=float), math.nan)
    with pytest.raises(ForceLawError, match="strictly increasing"):
        validate_force_law(ForceLaw("active", lambda c: 0.0 * np.asarray(c),
                                    nan, nan, nan))
    with pytest.raises(ForceLawError, match="odd"):
        validate_force_law(ForceLaw("undercooling", nan, nan, nan, nan))


def test_hill_exponent_must_be_integral():
    # 2.5 must not run as exponent 2; 2.0 is the integer 2.
    for exponent in (2.5, 0.5, math.inf, math.nan):
        with pytest.raises(ForceLawError):
            hill_active(2.0, 0.75, exponent)
    assert hill_active(2.0, 0.75, 2.0).coefficients["exponent"] == 2


def test_from_config():
    law = force_law_from_config("active",
                                {"family": "hill", "l_max": 2.0,
                                 "k_half": 0.75, "exponent": 2})
    assert law.family == "hill"
    assert abs(law.d1(1.0) - HILL_D[1]) <= 1e-15
    with pytest.raises(ForceLawError):
        force_law_from_config("active", {"family": "parabola"})
    with pytest.raises(ForceLawError):
        force_law_from_config("active", {"family": "linear", "slope": 1.0})
    with pytest.raises(ForceLawError):
        force_law_from_config("undercooling",
                              {"family": "tanh", "saturation": 0.5,
                               "bogus": 1.0})
