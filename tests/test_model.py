"""Model parameters, resting state, threshold formula and closed forms."""

import math

import numpy as np
import pytest

from cellwave import (
    ModelParams,
    ParamError,
    chi_c_star,
    hill_active,
    linear_undercooling,
    resting_state,
    tw_concentration,
    tw_pressure,
)

EXP_MINUS_1 = 0.3678794411714423216


class TestModelParams:
    @pytest.mark.parametrize("bad", [
        dict(a=0.0), dict(a=1.2), dict(gamma=0.0), dict(gamma=-1.0),
        dict(R0=0.0), dict(M=-2.0), dict(chi_c=-0.1), dict(chi_u=-0.1),
    ])
    def test_rejections(self, bad):
        base = dict(a=0.5, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.0, M=1.0)
        base.update(bad)
        with pytest.raises(ParamError):
            ModelParams(**base)

    @pytest.mark.parametrize("name", ["gamma", "chi_c", "chi_u", "R0", "M"])
    def test_rejects_infinite(self, name):
        base = dict(a=0.5, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.0, M=1.0)
        base[name] = math.inf
        with pytest.raises(ParamError, match=f"{name} must be finite"):
            ModelParams(**base)

    def test_c0_mass_identity(self):
        p = ModelParams(a=0.5, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.7, M=4.2)
        assert abs(p.c0 * math.pi * p.R0 ** 2 - p.M) <= 1e-15 * p.M


class TestRestingState:
    def test_unit_disk_no_activity(self, f_act):
        p = ModelParams(a=1.0, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.0,
                        M=math.pi)
        rest = resting_state(p, f_act)
        assert rest.c0 == 1.0
        assert rest.P0 == 1.0

    def test_radius_two(self, f_act):
        p = ModelParams(a=1.0, gamma=3.0, chi_c=0.0, chi_u=0.0, R0=2.0,
                        M=4.0 * math.pi)
        rest = resting_state(p, f_act)
        assert rest.c0 == 1.0
        assert rest.P0 == 1.5

    def test_with_active_force(self, f_act):
        p = ModelParams(a=1.0, gamma=1.0, chi_c=1.0, chi_u=0.0, R0=1.0,
                        M=math.pi)
        rest = resting_state(p, f_act)
        # independent scalar: hill(2, 0.75, 2) at c = 1 is 2/(1 + 0.5625^...)
        f1 = 2.0 * 1.0 / (0.75 ** 2 + 1.0)
        assert abs(rest.P0 - (1.0 + f1)) <= 1e-15

    def test_curvature_equation_at_rest(self, f_act):
        # gamma/R0 = p1 - chi_c f_act(c0) with p1 = P0, V = 0.
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = ModelParams(a=rng.uniform(0.2, 1.0), gamma=rng.uniform(0.5, 3),
                            chi_c=rng.uniform(0, 2), chi_u=rng.uniform(0, 2),
                            R0=rng.uniform(0.5, 2), M=rng.uniform(1, 8))
            rest = resting_state(p, f_act)
            lhs = p.gamma / p.R0
            rhs = rest.P0 - p.chi_c * float(f_act.eval(rest.c0))
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


class TestChiStar:
    def test_collapsed_formula(self):
        f_act = hill_active(2.0, 1.0, 1)   # f'(1) = L K/(K+c)^2 = 0.5
        f_und = linear_undercooling(1.0)
        p = ModelParams(a=1.0, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.0,
                        M=math.pi)
        # chi* = 1/(a c0 f'(c0)) = 2
        assert abs(chi_c_star(p, f_act, f_und) - 2.0) <= 1e-14

    def test_direct_substitution(self):
        f_act = hill_active(2.0, 1.0, 1)   # f'(1) = 0.5
        f_und = linear_undercooling(1.0)   # f'(0) = 1
        p = ModelParams(a=1.0, gamma=1.0, chi_c=0.0, chi_u=2.0, R0=1.0,
                        M=math.pi)
        # (R0 + 2*1)/(R0 * 1 * 1 * 0.5) = 6
        assert abs(chi_c_star(p, f_act, f_und) - 6.0) <= 1e-14

    def test_mixed_parameters(self):
        # chi_u=1, f_und'(0)=0.5, R0=2, a=0.5, c0=2, f_act'(2)=0.25 -> 5.
        f_act = hill_active(2.0, 2.0, 1)   # f'(2) = 2*2/(2+2)^2 = 0.25
        f_und = linear_undercooling(0.5)
        p = ModelParams(a=0.5, gamma=1.0, chi_c=0.0, chi_u=1.0, R0=2.0,
                        M=8.0 * math.pi)   # c0 = 2
        assert abs(chi_c_star(p, f_act, f_und) - 5.0) <= 1e-14

    def test_monotonicity(self, f_act):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = rng.uniform(0.2, 0.9)
            r0 = rng.uniform(0.5, 2.0)
            chi_u = rng.uniform(0.1, 2.0)
            m = rng.uniform(1.0, 6.0)
            base = ModelParams(a=a, gamma=1.0, chi_c=0.0, chi_u=chi_u,
                               R0=r0, M=m)
            star = chi_c_star(base, f_act, linear_undercooling(1.0))
            up_chiu = ModelParams(a=a, gamma=1.0, chi_c=0.0,
                                  chi_u=chi_u * 1.5, R0=r0, M=m)
            assert chi_c_star(up_chiu, f_act, linear_undercooling(1.0)) > star
            assert chi_c_star(base, f_act, linear_undercooling(1.5)) > star
            up_a = ModelParams(a=min(1.0, a * 1.2), gamma=1.0, chi_c=0.0,
                               chi_u=chi_u, R0=r0, M=m)
            assert chi_c_star(up_a, f_act, linear_undercooling(1.0)) < star


class TestClosedForms:
    def test_concentration_uniform_at_rest(self, params):
        assert tw_concentration(params, 0.0, 3.0, (0.37, -1.2)) == 3.0

    def test_concentration_values(self):
        p = ModelParams(a=1.0, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.0,
                        M=math.pi)
        assert tw_concentration(p, 1.0, 1.0, (0.0, 0.5)) == 1.0
        p2 = ModelParams(a=0.5, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.0,
                         M=math.pi)
        got = tw_concentration(p2, 2.0, 1.0, (1.0, 0.0))
        assert abs(got - EXP_MINUS_1) <= 1e-15

    def test_pressure(self):
        assert tw_pressure(0.0, 5.0, (123.4, 5.0)) == 5.0
        assert tw_pressure(1.0, 0.0, (2.0, 0.0)) == -2.0
        assert tw_pressure(0.3, 1.2, (-1.0, 7.0)) == 1.5

    def test_array_points_match_scalar(self, params):
        # An array of x values gives the per-point scalar results.
        xs = np.random.default_rng(31).uniform(-3.0, 3.0, 257)
        for V in (0.0, 0.37, -1.4):
            conc = tw_concentration(params, V, 1.7, (xs,))
            pres = tw_pressure(V, 0.9, (xs, np.zeros_like(xs)))
            assert conc.shape == pres.shape == xs.shape
            for got, scalar in ((conc, [tw_concentration(params, V, 1.7, (x,))
                                        for x in xs]),
                                (pres, [tw_pressure(V, 0.9, (x,))
                                        for x in xs])):
                ulp = np.spacing(np.abs(np.array(scalar)))
                assert np.all(np.abs(got - scalar) <= ulp)

    @pytest.mark.parametrize("c1", [0.0, -1.0, float("nan")])
    def test_concentration_scale_must_be_positive(self, params, c1):
        for x in (0.3, np.linspace(-1.0, 1.0, 5)):
            with pytest.raises(ParamError):
                tw_concentration(params, 0.2, c1, (x,))

    def test_mass_conservation_over_disk(self):
        # With c1 = M / integral(exp(-aVx)), the marker mass over the disk
        # is M to quadrature accuracy.
        p = ModelParams(a=0.7, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.3,
                        M=5.0)
        V = 0.8
        # Periodic trapezoid in angle, Gauss-Legendre on [0, R0] in radius.
        thetas = 2.0 * math.pi * np.arange(256) / 256
        w_theta = 2.0 * math.pi / 256
        x, w = np.polynomial.legendre.leggauss(64)
        radii, w_r = 0.5 * p.R0 * (x + 1.0), 0.5 * p.R0 * w
        denom = 0.0
        for th in thetas:
            vals = np.exp(-p.a * V * radii * math.cos(th)) * radii
            denom += w_theta * float(np.dot(w_r, vals))
        c1 = p.M / denom
        mass = 0.0
        for th in thetas:
            vals = np.array([
                tw_concentration(p, V, c1, (r * math.cos(th), r * math.sin(th)))
                * r for r in radii
            ])
            mass += w_theta * float(np.dot(w_r, vals))
        assert abs(mass - p.M) <= 1e-10 * p.M
