"""Shapes, the traveling-wave residual, branch continuation and the report."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cellwave import (
    Branch,
    BranchRangeError,
    ContinuationStalledError,
    GeometryError,
    ModelParams,
    NewtonConvergenceError,
    Shape,
    SolverError,
    TravelingWaveState,
    bifurcation_report,
    chi_c_star,
    continue_branch,
    disk_shape,
    linear_undercooling,
    marker_normalization,
    solve_at_velocity,
    tanh_undercooling,
)
from cellwave import solvers, waves
from cellwave.waves import (
    _boundary,
    _radius_on_grid,
    _residual_jacobian,
    _residual_vector,
    kernel_alignment,
    linearized_residual,
    rest_state,
    state_diagnostics,
    transversality_product,
)

C1_ORACLE = 0.96938937686533738487   # a=1, V=0.5, unit disk, M=pi

N_TEST = 32


class TestGeometry:
    # Geometry is evaluated on the 2N collocation nodes, pi i / N; theta = 0
    # is node 0 and theta = pi/2 is node N/2.
    def test_disk_normal(self):
        sh = disk_shape(1.0, N_TEST)
        nodes = waves.collocation_nodes(N_TEST)
        n1 = _boundary(sh.rho_cos, sh.R0).n1
        assert np.allclose(n1, np.cos(nodes), atol=1e-14)
        assert nodes[N_TEST // 2] == math.pi / 2
        assert abs(n1[N_TEST // 2]) <= 1e-14

    def test_symmetry_axis(self):
        rho = np.zeros(N_TEST + 1)
        rho[2] = 0.1
        sh = Shape(rho, 1.0)
        assert abs(_boundary(sh.rho_cos, sh.R0).n1[0] - 1.0) <= 1e-14

    def test_disk_curvature(self):
        for r0 in (0.5, 1.0, 2.3):
            sh = disk_shape(r0, N_TEST)
            assert np.allclose(_boundary(sh.rho_cos, sh.R0).kappa, 1.0 / r0,
                               atol=1e-13)

    def test_linearised_curvature(self):
        # kappa(eps cos 2theta) = 1/R0 + eps (4-1)/R0^2 cos 2theta + O(eps^2),
        # matching the -(rho'' + rho)/R0^2 linearisation.
        eps = 1e-6
        rho = np.zeros(N_TEST + 1)
        rho[2] = eps
        sh = Shape(rho, 1.0)
        th = waves.collocation_nodes(N_TEST)
        lin = 1.0 + eps * 3.0 * np.cos(2 * th)
        kappa = _boundary(sh.rho_cos, sh.R0).kappa
        assert np.max(np.abs(kappa - lin)) <= 1e-10

    def test_gauss_bonnet(self):
        # The total curvature of the closed curve is 2 pi, by the trapezoid
        # rule on the 128 nodes of the N = 64 shape.
        rho = np.zeros(64 + 1)
        rho[0], rho[2], rho[3] = 0.02, 0.22, 0.05
        sh = Shape(rho, 1.0)
        b = _boundary(sh.rho_cos, sh.R0)
        arc = np.sqrt(b.r * b.r + b.rp * b.rp)
        total = float(np.mean(b.kappa * arc)) * 2.0 * np.pi
        assert b.kappa.size == 128
        assert abs(total - 2.0 * np.pi) <= 1e-8

    def test_boundary_fields_match_shape(self):
        # The one geometry helper, an inverse real FFT, on the coefficients
        # of a shape (which checked the radius on a finer grid), against a term-by-term sum of the cosine and
        # sine series and the polar formulas; its radius is that of the
        # zero-padded transform on the same 2N grid.
        for n in (4, N_TEST, 64, 256):
            rng = np.random.default_rng(53)
            rho = _smooth_shape(rng, n, 0.1)
            sh = Shape(rho, 1.3)
            theta = waves.collocation_nodes(n)
            fields = _boundary(sh.rho_cos, sh.R0)
            r, rp, rpp = _polar_series(rho, 1.3, n)
            kappa = (r * r + 2 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5
            n1 = (r * np.cos(theta) + rp * np.sin(theta)) / np.hypot(r, rp)
            for got, ref in ((fields.r, r), (fields.rp, rp),
                             (fields.rpp, rpp), (fields.kappa, kappa),
                             (fields.n1, n1)):
                assert np.max(np.abs(got - ref)) <= 1e-13
            radius = _radius_on_grid(rho, 1.3, 2 * n)
            assert np.max(np.abs(fields.r - radius)) <= 1e-15

    @pytest.mark.parametrize("n", [5, 64, 128])
    def test_fft_radius_matches_cosine_sum(self, n):
        rng = np.random.default_rng(54 + n)
        rho = 0.2 * rng.standard_normal(n + 1) / (1 + np.arange(n + 1))
        for m in (2 * n, 4 * n):
            theta = 2.0 * np.pi * np.arange(m) / m
            ref = 1.0 + rho @ np.cos(np.outer(np.arange(n + 1), theta))
            assert np.max(np.abs(_radius_on_grid(rho, 1.0, m) - ref)) <= 1e-13

    def test_degenerate_radius_rejected(self):
        rho = np.zeros(N_TEST + 1)
        rho[0] = -2.0
        with pytest.raises(GeometryError):
            Shape(rho, 1.0)

    def test_nan_coefficient_rejected(self):
        with pytest.raises(GeometryError):
            Shape(np.array([math.nan, 0.0]), 1.0)


class TestMarkerNormalization:
    def test_rest_gives_uniform_concentration(self, params):
        c1 = marker_normalization(disk_shape(params.R0, N_TEST), 0.0, params)
        assert abs(c1 - params.c0) <= 1e-14

    def test_adsorbed_fraction_limit(self):
        # As a -> 0 the normalisation tends to M/|domain| regardless of V.
        p = ModelParams(a=1e-12, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.2,
                        M=3.0)
        c1 = marker_normalization(disk_shape(1.2, N_TEST), 5.0, p)
        assert abs(c1 - p.M / (math.pi * 1.2 ** 2)) <= 1e-9

    def test_tensor_quadrature_oracle(self):
        p = ModelParams(a=1.0, gamma=1.0, chi_c=0.0, chi_u=0.0, R0=1.0,
                        M=math.pi)
        c1 = marker_normalization(disk_shape(1.0, 64), 0.5, p)
        assert abs(c1 - C1_ORACLE) <= 1e-9


class TestRadialWeight:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_matches_mpmath_integral(self, radius):
        # int_0^R exp(s r) r dr on both sides of the series/closed-form
        # switch at |s R| = 0.05 and far from it; no floating-point warning.
        mp = pytest.importorskip("mpmath")
        sr = np.array([0.0, 1e-300, 0.05 - 1e-12, 0.05 + 1e-12, 0.3, 1.0,
                       5.0])
        s = np.concatenate([sr, -sr[1:]]) / radius
        radii = np.full(s.shape, radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = waves._radial_weight(s, radii)
        with mp.workdps(40):
            ref = [mp.quad(lambda r, si=si: mp.exp(si * r) * r,
                           [0, mp.mpf(radius)]) for si in map(mp.mpf, s)]
            errs = [abs((mp.mpf(g) - o) / o) for g, o in zip(got, ref)]
        assert max(errs) <= 1e-14


class TestRadialRule:
    def test_literals_equal_leggauss(self):
        # The 32-point rule is written out so that no command loads
        # numpy.polynomial; the literals are leggauss(32) bit for bit.
        x, w = np.polynomial.legendre.leggauss(32)
        assert waves._GL32_NODES == tuple(x.tolist())
        assert waves._GL32_WEIGHTS == tuple(w.tolist())


class TestResidual:
    def test_zero_at_disk_for_any_chi(self, params, f_act, f_und):
        rng = np.random.default_rng(50)
        for chi in np.concatenate([[0.0], rng.uniform(0.0, 20.0, 20)]):
            res = _residual_vector(np.zeros(N_TEST + 1), 0.0, 0.0,
                                   float(chi), params, f_act, f_und)
            assert np.max(np.abs(res)) <= 1e-12

    def test_pressure_offset_only(self, params, f_act, f_und):
        res = _residual_vector(np.zeros(N_TEST + 1), 0.0, 0.1, 1.0, params,
                               f_act, f_und)
        assert abs(res[0] + 0.1) <= 1e-13          # mean mode carries -p1
        assert np.max(np.abs(res[1:])) <= 1e-13

    def test_taylor_remainder_quadratic(self, params, f_act, f_und):
        rng = np.random.default_rng(51)
        d_rho = rng.standard_normal(N_TEST + 1) / (1 + np.arange(N_TEST + 1)) ** 2
        rems = []
        for eps in (1e-2, 1e-3, 1e-4):
            full = _residual_vector(eps * d_rho, eps * 0.7, eps * 0.3, 1.3,
                                    params, f_act, f_und)
            lin = linearized_residual(eps * d_rho, eps * 0.7, eps * 0.3, 1.3,
                                      params, f_act, f_und)
            rems.append(np.max(np.abs(full - lin)))
        orders = [math.log10(rems[i] / rems[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    @staticmethod
    def _perturbed_stack(params, f_act, f_und, n, k, seed):
        """k perturbed copies of the V = 0.2 branch state at order n, with
        per-row V, p1 and chi_c columns."""
        state = solve_at_velocity(0.2, rest_state(params, f_act, f_und, n),
                                  params, f_act, f_und)
        rng = np.random.default_rng(seed)
        rho = (state.shape.rho_cos + 1e-3 * rng.standard_normal((k, n + 1))
               / (1.0 + np.arange(n + 1)) ** 2)
        V, p1, chi = (x + 1e-2 * rng.standard_normal((k, 1))
                      for x in (state.V, state.p1, state.chi_c))
        return state, rho, V, p1, chi

    @pytest.mark.parametrize("n", [64, 128])
    def test_stacked_rows_equal_single_states(self, params, f_act, f_und, n):
        # Each row of a stacked call is the residual of its state alone,
        # bit for bit, with per-row or shared V, p1 and chi_c.
        state, rho, V, p1, chi = self._perturbed_stack(params, f_act, f_und,
                                                       n, 6, n)
        stack = _residual_vector(rho, V, p1, chi, params, f_act, f_und)
        shared = _residual_vector(rho, state.V, state.p1, state.chi_c,
                                  params, f_act, f_und)
        assert stack.shape == shared.shape == (6, n + 3)
        for i in range(6):
            alone = _residual_vector(rho[i], float(V[i, 0]), float(p1[i, 0]),
                                     float(chi[i, 0]), params, f_act, f_und)
            assert np.array_equal(stack[i], alone)
            alone = _residual_vector(rho[i], state.V, state.p1, state.chi_c,
                                     params, f_act, f_und)
            assert np.array_equal(shared[i], alone)
        assert not np.array_equal(stack, shared)

    def test_degenerate_row_gets_the_sentinel_alone(self, params, f_act,
                                                    f_und):
        # A row whose radius is negative everywhere gets the sentinel
        # residual a degenerate state gets alone; its neighbours keep the
        # residuals of the stack without it, bit for bit.
        _, rho, V, p1, chi = self._perturbed_stack(params, f_act, f_und,
                                                   N_TEST, 5, 7)
        clean = _residual_vector(rho, V, p1, chi, params, f_act, f_und)
        rho[2, 0] = -2.0 * params.R0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _residual_vector(rho, V, p1, chi, params, f_act, f_und)
        alone = _residual_vector(rho[2], float(V[2, 0]), float(p1[2, 0]),
                                 float(chi[2, 0]), params, f_act, f_und)
        assert np.array_equal(alone, np.full(N_TEST + 3, 1e6))
        assert np.array_equal(got[2], alone)
        assert np.array_equal(np.delete(got, 2, axis=0),
                              np.delete(clean, 2, axis=0))
        with pytest.raises(SolverError, match="degenerate"):
            _residual_jacobian(rho[2], float(V[2, 0]), float(p1[2, 0]),
                               float(chi[2, 0]), params, f_act, f_und)


def _polar_series(rho, r0, n):
    """r, r' and r'' of r0 + sum_k rho_k cos(k theta) at the 2n nodes
    theta_i = pi i / n, summed term by term.  Each phase k theta_i is
    reduced to pi ((k i) mod 2n) / n in integers first, so that it carries
    one rounding and not k times that of theta_i."""
    i = np.arange(2 * n)
    r = np.full(2 * n, float(r0))
    rp = np.zeros(2 * n)
    rpp = np.zeros(2 * n)
    for k, coef in enumerate(rho):
        phase = np.pi * ((k * i) % (2 * n)) / n
        r += coef * np.cos(phase)
        rp -= k * coef * np.sin(phase)
        rpp -= k * k * coef * np.cos(phase)
    return r, rp, rpp


def _smooth_shape(rng, n, amplitude=0.05):
    return amplitude * rng.standard_normal(n + 1) / (1 + np.arange(n + 1)) ** 2


def _fold_params():
    return ModelParams(a=0.8, gamma=0.1, chi_c=1.0, chi_u=0.25, R0=1.0,
                       M=math.pi)


@pytest.fixture(scope="module")
def fold_n256(f_act, f_und):
    """The gamma = 0.1 branch at N = 256 up to where it stops, short of its
    fold: (the stall, the speeds whose fixed-speed solve failed, and each
    arclength Jacobian's point and V column)."""
    failed, v_columns = [], []
    real_solve = waves.solve_at_velocity
    real_arclength = waves.arclength_continue

    def recording_solve(V, *args, **kwargs):
        try:
            return real_solve(V, *args, **kwargs)
        except SolverError:
            failed.append(V)
            raise

    def recording_arclength(fun, jac, *args, **kwargs):
        def recorded(u):
            out = jac(u)
            v_columns.append((u.copy(), out[:, -1].copy()))
            return out
        return real_arclength(fun, recorded, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(waves, "solve_at_velocity", recording_solve)
        mp.setattr(waves, "arclength_continue", recording_arclength)
        with pytest.raises(ContinuationStalledError,
                           match="unresolved shape") as info:
            continue_branch(_fold_params(), f_act, f_und, V_max=1.3, ds=0.01,
                            n=256)
    return info.value, failed, v_columns


def _sample_and_project_block(rho_cos, V, chi_c, params, f_act, f_und):
    """The rho block of ``_residual_jacobian`` as it was first assembled:
    column j samples A cos(j theta) - B j sin(j theta) - C j^2 cos(j theta)
    + D g_j on the 2N nodes from dense trigonometric tables, and every
    column is projected with an FFT."""
    n = rho_cos.size - 1
    k = np.arange(n + 1)
    angles = np.outer(k, waves.collocation_nodes(n))
    cos_t, sin_t = np.cos(angles), np.sin(angles)
    fields = waves._wave_fields(rho_cos, V, params, f_act)
    coef_a, coef_b, coef_c, act, mass = waves._block_coefficients(
        fields, V, chi_c, params, f_act, f_und)
    g = cos_t @ mass / (2 * n)
    samples = ((coef_a - coef_c * (k * k)[:, None]) * cos_t
               - coef_b * k[:, None] * sin_t) + np.outer(g, act)
    return waves.project_cosine(samples).T      # row j samples column j


class TestJacobian:
    """The analytic Jacobian of the residual in (rho, p1, chi_c)."""

    LAWS = {"linear": linear_undercooling(), "tanh": tanh_undercooling(0.5)}

    @staticmethod
    def _system(params, f_act, f_und, V):
        def fun(u):
            return _residual_vector(u[:-2], V, u[-2], u[-1], params, f_act,
                                    f_und)

        def jac(u):
            return _residual_jacobian(u[:-2], V, u[-2], u[-1], params, f_act,
                                      f_und)

        return fun, jac

    @pytest.mark.parametrize("law", ["linear", "tanh"])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("V", [0.05, 0.2])
    def test_matches_central_differences(self, params, f_act, law, n, V):
        rng = np.random.default_rng(60 + n)
        u = np.concatenate([_smooth_shape(rng, n), [0.1, 1.4]])
        fun, jac = self._system(params, f_act, self.LAWS[law], V)
        h = 1e-6
        fd = np.column_stack([(fun(u + h * e) - fun(u - h * e)) / (2.0 * h)
                              for e in np.eye(u.size)])
        exact = jac(u)
        assert np.max(np.abs(exact - fd)) <= 1e-7 * np.max(np.abs(exact))

    @pytest.mark.parametrize("law", ["linear", "tanh"])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("V", [0.05, 0.2])
    def test_taylor_remainder_second_order(self, params, f_act, law, n, V):
        rng = np.random.default_rng(70 + n)
        u = np.concatenate([_smooth_shape(rng, n), [0.1, 1.4]])
        d = np.concatenate([_smooth_shape(rng, n, 1.0), [0.3, -0.7]])
        fun, jac = self._system(params, f_act, self.LAWS[law], V)
        f0, jd = fun(u), jac(u) @ d
        rems = [np.max(np.abs(fun(u + eps * d) - f0 - eps * jd))
                for eps in (1e-2, 1e-3, 1e-4)]
        orders = [math.log10(rems[i] / rems[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    @pytest.mark.parametrize("n", [4, 5, 7, 64, 128, 256])
    def test_matches_sample_and_project_assembly(self, params, f_act, f_und,
                                                 fold_n256, n):
        # The Toeplitz-plus-Hankel build against the dense one it replaced:
        # at a default-branch state solved at order n, and at gamma = 0.1
        # states near V = 1.17 (order 256, truncated to order n).
        state = solve_at_velocity(0.3, rest_state(params, f_act, f_und, n),
                                  params, f_act, f_und)
        fold = fold_n256[0].points.states
        assert fold[-3].V >= 1.16
        cases = [(params, state.shape.rho_cos, state)]
        cases += [(_fold_params(), s.shape.rho_cos[: n + 1], s)
                  for s in fold[-3:]]
        for p, rho, s in cases:
            ref = _sample_and_project_block(rho, s.V, s.chi_c, p, f_act,
                                            f_und)
            got = _residual_jacobian(rho, s.V, s.p1, s.chi_c, p, f_act,
                                     f_und)[: n + 1, : n + 1]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_grid_holds_no_dense_table(self):
        n = 256
        for arr in vars(waves._grid(n)).values():
            assert arr.size <= 6 * (n + 1)
            assert not arr.flags.writeable

    def test_disk_at_threshold_matches_linearization(self, params, f_act,
                                                     f_und):
        star = chi_c_star(params, f_act, f_und)
        jac = _residual_jacobian(np.zeros(N_TEST + 1), 0.0, 0.0, star,
                                 params, f_act, f_und)
        rng = np.random.default_rng(55)
        for _ in range(5):
            d_rho, d_p = rng.standard_normal(N_TEST + 1), rng.standard_normal()
            lin = linearized_residual(d_rho, 0.0, d_p, star, params, f_act,
                                      f_und)
            got = jac @ np.concatenate([d_rho, [d_p, 0.0]])
            assert np.max(np.abs(got - lin)) <= 1e-12 * np.max(np.abs(lin))
        # f_act(c) = f_act(c0) on the resting disk: no chi_c column.
        assert np.max(np.abs(jac[:, -1])) == 0.0


class TestSolve:
    def test_v_zero_rejected(self, params, f_act, f_und):
        with pytest.raises(SolverError):
            solve_at_velocity(0.0, rest_state(params, f_act, f_und, N_TEST),
                              params, f_act, f_und)

    def test_small_speed_from_disk(self, params, f_act, f_und):
        root = rest_state(params, f_act, f_und, N_TEST)
        state = solve_at_velocity(1e-4, root, params, f_act, f_und)
        star = chi_c_star(params, f_act, f_und)
        # chi - chi* = O(V^2) since the branch has zero slope at onset
        assert abs(state.chi_c - star) <= 1e-7

    def test_supercritical_side_matches_curvature_sign(self, params, f_act,
                                                       f_und):
        root = rest_state(params, f_act, f_und, N_TEST)
        state = solve_at_velocity(0.1, root, params, f_act, f_und)
        star = chi_c_star(params, f_act, f_und)
        report = bifurcation_report(params, f_act, f_und, n=N_TEST)
        assert math.copysign(1.0, state.chi_c - star) == math.copysign(
            1.0, report.d2_chi_ds2_at_0)

    def test_state_invariants(self, params, f_act, f_und):
        root = rest_state(params, f_act, f_und, N_TEST)
        state = solve_at_velocity(0.2, root, params, f_act, f_und)
        diag = state_diagnostics(state, params, f_act, f_und)
        assert diag["residual_sup"] <= 1e-9
        assert diag["area_error"] <= 1e-10
        assert diag["centering_error"] <= 1e-10
        assert diag["mass_rel_error"] <= 1e-9
        assert diag["min_boundary_concentration"] > 0

    def test_mass_check_pinned_to_its_dense_form(self, params, f_act, f_und,
                                                 fold_n256):
        # The cached 4N cosines and the broadcast radial product change no
        # bit of the mass check against angles, cosines and np.outer made
        # afresh.
        state = solve_at_velocity(0.2, rest_state(params, f_act, f_und,
                                                  N_TEST),
                                  params, f_act, f_und)
        fold = fold_n256[0].points.states[-1]
        for p, s in ((params, state), (_fold_params(), fold)):
            fine = np.linspace(0.0, 2.0 * np.pi, 4 * s.shape.N,
                               endpoint=False)
            radii = _radius_on_grid(s.shape.rho_cos, s.shape.R0, fine.size)
            nodes, weights = waves._unit_radial_rule()
            rr = np.outer(radii, nodes)
            vals = np.exp(-p.a * s.V * np.cos(fine)[:, None] * rr) * rr
            mass = (s.c1 * 2.0 * np.pi / fine.size
                    * float(np.dot(radii, vals @ weights)))
            diag = state_diagnostics(s, p, f_act, f_und)
            assert diag["mass_rel_error"] == abs(mass - p.M) / p.M
            assert diag == s.diagnostics

    def test_converged_guess_transforms_once(self, params, f_act, f_und,
                                             monkeypatch):
        # From a guess that already solves the system, the residual's
        # fields build the state: one boundary transform and one
        # radial-weight pass, plus the 4N radii of the positivity and mass
        # checks.  The state is the guess, bit for bit.
        state = solve_at_velocity(0.2, rest_state(params, f_act, f_und,
                                                  N_TEST),
                                  params, f_act, f_und)
        calls = dict.fromkeys(("_boundary", "_radial_weight",
                               "_radius_on_grid"), 0)
        for name in calls:
            def counting(*args, _real=getattr(waves, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(waves, name, counting)
        again = solve_at_velocity(0.2, state, params, f_act, f_und)
        assert calls == {"_boundary": 1, "_radial_weight": 1,
                         "_radius_on_grid": 2}
        assert again.V == state.V
        assert np.array_equal(waves._pack(again), waves._pack(state))
        assert again.c1 == state.c1
        assert again.diagnostics == state.diagnostics

    def test_spectral_tail(self, params, f_act, f_und):
        root = rest_state(params, f_act, f_und, N_TEST)
        assert root.diagnostics["spectral_tail"] == 0.0
        rho = np.zeros(N_TEST + 1)
        rho[2] = -0.1
        rho[24] = 1e-3      # k = 3N/4 is not in the tail
        rho[25] = 3e-9
        state = TravelingWaveState(shape=Shape(rho, params.R0), V=0.1,
                                   p1=0.0, chi_c=root.chi_c, c1=1.0)
        tail = state_diagnostics(state, params, f_act, f_und)["spectral_tail"]
        assert tail == 3e-9 / 0.1


class TestBranch:
    def test_root_and_monotone_speeds(self, params, f_act, f_und):
        branch = continue_branch(params, f_act, f_und, V_max=0.1, ds=0.02,
                                 n=N_TEST)
        root = branch.states[0]
        assert root.V == 0.0 and root.p1 == 0.0
        assert abs(root.chi_c - chi_c_star(params, f_act, f_und)) <= 1e-14
        assert np.max(np.abs(root.shape.rho_cos)) == 0.0
        vs = branch.velocities()
        assert np.all(np.diff(vs) > 0)
        assert abs(vs[-1] - 0.1) <= 1e-12

    def test_state_nearest_rejects_speeds_off_the_branch(self):
        states = tuple(SimpleNamespace(V=v) for v in (0.0, 0.02, 0.04))
        branch = Branch(states)
        assert branch.state_nearest(0.025) is states[1]
        assert branch.state_nearest(0.04) is states[2]
        for V in (-0.01, 0.05, math.nan):
            with pytest.raises(BranchRangeError, match="outside"):
                branch.state_nearest(V)
        # Folded: up to 1.2, then down to 0.9 on the lower sheet.
        states = tuple(SimpleNamespace(V=v)
                       for v in (0.0, 0.5, 0.8, 1.0, 1.2, 1.1, 0.9))
        folded = Branch(states)
        assert folded.state_nearest(0.5) is states[1]
        assert folded.state_nearest(0.88) is states[2]
        for V in (0.9, 1.0, 1.15, 1.2):
            with pytest.raises(BranchRangeError,
                               match="both sheets .* folds at V=1.2"):
                folded.state_nearest(V)
        for V in (-0.01, 1.25, math.nan):
            with pytest.raises(BranchRangeError,
                               match=r"outside .*\[0, 1\.2\]"):
                folded.state_nearest(V)

    def test_even_in_speed_near_onset(self, params, f_act, f_und):
        branch = continue_branch(params, f_act, f_und, V_max=0.05, ds=0.01,
                                 n=N_TEST)
        star = chi_c_star(params, f_act, f_und)
        vs = branch.velocities()
        dchi = np.array([s.chi_c for s in branch.states]) - star
        design = np.column_stack([vs ** 2, vs ** 3])
        coef, *_ = np.linalg.lstsq(design, dchi, rcond=None)
        assert abs(coef[1] * 0.05) <= 0.05 * abs(coef[0])

    def test_mass_and_asymmetry_along_branch(self, params, f_act, f_und):
        branch = continue_branch(params, f_act, f_und, V_max=0.15, ds=0.05,
                                 n=N_TEST)
        for state in branch.states[1:]:
            diag = state_diagnostics(state, params, f_act, f_und)
            assert diag["mass_rel_error"] <= 1e-9
            # front-rear asymmetry appears as cos(2 theta) content, with the
            # cos(theta) mode pinned to zero by the centering constraint
            assert abs(state.shape.rho_cos[2]) > 1e-10
            assert abs(state.shape.rho_cos[1]) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128])
    def test_states_match_a_fresh_build(self, params, f_act, f_und, n):
        # The default branch, V up to 0.3 in steps of 0.01.
        branch = continue_branch(params, f_act, f_und, V_max=0.3, ds=0.01,
                                 n=n)
        _assert_built_afresh(branch.states, params, f_act, f_und)

    def test_fold_states_match_a_fresh_build(self, f_act, f_und, fold_n256):
        states = fold_n256[0].points.states
        assert any(s.V > 1.17 for s in states)      # an arclength state
        _assert_built_afresh(states, _fold_params(), f_act, f_und)

    def test_spectral_convergence(self, params, f_act, f_und):
        b32 = continue_branch(params, f_act, f_und, V_max=0.05, ds=0.01, n=32)
        b64 = continue_branch(params, f_act, f_und, V_max=0.05, ds=0.01, n=64)
        c32 = b32.states[-1].chi_c
        c64 = b64.states[-1].chi_c
        assert abs(c32 - c64) / abs(c64) <= 1e-8

    def test_arclength_switch_agrees(self, params, f_act, f_und,
                                     monkeypatch):
        direct = continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                                 n=N_TEST)
        refused = _stall_between(monkeypatch, 0.02, 0.06)
        switched = continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                                   n=N_TEST)
        assert refused == pytest.approx([0.04])    # no fixed-speed retry
        assert switched.used_arclength
        assert switched.arclength_from_V == direct.states[1].V
        for a, b in zip(direct.states[:2], switched.states):
            assert np.array_equal(waves._pack(a), waves._pack(b))
        assert len(switched.states) > 3     # tail points besides V_max
        assert abs(switched.states[-1].V - 0.06) <= 1e-12
        assert abs(switched.states[-1].chi_c
                   - direct.states[-1].chi_c) <= 1e-9
        for state in switched.states[1:]:
            diag = state_diagnostics(state, params, f_act, f_und)
            assert diag["area_error"] <= 1e-9
            assert diag["residual_sup"] <= 1e-8


    def test_one_jacobian_per_newton_iteration(self, params, f_act, f_und,
                                               monkeypatch):
        # Every analytic Jacobian the branch builds is one that Newton
        # asked for, and a guess that already solves the system builds none.
        built = asked = 0
        real_jacobian = waves._residual_jacobian
        real_newton = waves.newton_solve

        def counting_jacobian(*args):
            nonlocal built
            built += 1
            return real_jacobian(*args)

        def counting_newton(fun, x0, jac=None, **kwargs):
            def asking(u):
                nonlocal asked
                asked += 1
                return jac(u)
            return real_newton(fun, x0, asking, **kwargs)

        monkeypatch.setattr(waves, "_residual_jacobian", counting_jacobian)
        monkeypatch.setattr(waves, "newton_solve", counting_newton)
        branch = continue_branch(params, f_act, f_und, V_max=0.1, ds=0.02,
                                 n=16)
        assert not branch.used_arclength
        assert asked >= len(branch.states) - 1
        assert built == asked
        state, before = branch.states[-1], built
        again = waves.solve_at_velocity(state.V, state, params, f_act, f_und)
        assert built == before
        assert np.array_equal(waves._pack(again), waves._pack(state))

    def test_arclength_jacobian_reuses_the_residual_fields(
            self, params, f_act, f_und, monkeypatch):
        # In each arclength Newton iteration the Jacobian takes the fields
        # the residual computed at the iterate and computes only those of
        # its two V-difference points, in one stacked call; the branch is
        # bitwise the one built with no memo.  ``computed`` counts states,
        # one per row of a stack.
        _stall_between(monkeypatch, 0.02, 0.06)
        real_fields = waves._wave_fields
        real_arclength = waves.arclength_continue
        computed = 0
        per_jacobian, per_residual = [], []
        stacked = []

        def counting_fields(rho_cos, *args):
            nonlocal computed
            computed += len(rho_cos) if rho_cos.ndim == 2 else 1
            stacked.append(rho_cos.ndim == 2)
            return real_fields(rho_cos, *args)

        def counted(fn, counts):
            def wrapper(u):
                before = computed
                out = fn(u)
                counts.append(computed - before)
                return out
            return wrapper

        def watched_arclength(fun, jac, *args, **kwargs):
            return real_arclength(counted(fun, per_residual),
                                  counted(jac, per_jacobian), *args, **kwargs)

        monkeypatch.setattr(waves, "_wave_fields", counting_fields)
        monkeypatch.setattr(waves, "arclength_continue", watched_arclength)
        branch = continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                                 n=N_TEST)
        assert branch.used_arclength
        assert per_jacobian and set(per_jacobian) == {2}
        assert set(per_residual) == {1}
        assert stacked.count(True) == len(per_jacobian)

        def unmemoised(params, f_act):
            return lambda rho_cos, V: real_fields(rho_cos, V, params, f_act)

        monkeypatch.setattr(waves, "_fields_memo", unmemoised)
        fresh = continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                                n=N_TEST)
        assert len(fresh.states) == len(branch.states)
        for a, b in zip(fresh.states, branch.states):
            assert a.V == b.V
            assert np.array_equal(waves._pack(a), waves._pack(b))

    def test_arclength_states_carry_checked_diagnostics(self, params, f_act,
                                                         f_und, monkeypatch):
        _stall_between(monkeypatch, 0.02, 0.06)
        branch = continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                                 n=N_TEST)
        assert branch.used_arclength
        assert len(branch.states) > 3       # tail points besides V_max
        for state in branch.states:
            diag = state.diagnostics
            assert diag["area_error"] <= 1e-10
            assert diag["centering_error"] <= 1e-10
            assert diag["min_boundary_concentration"] > 0
            assert diag["residual_sup"] <= 1e-8
            assert diag["spectral_tail"] <= waves.TAIL_TOL

    def test_arclength_violation_raises(self, params, f_act, f_und,
                                        monkeypatch):
        # Report a constraint violation for the tail points only: with
        # every fixed-speed solve strictly between 0.02 and 0.06 failing,
        # the only states checked at such speeds are arclength points.
        _stall_between(monkeypatch, 0.02, 0.06)
        honest = waves.state_diagnostics
        violated = []

        def fake(state, *args, **kwargs):
            diag = honest(state, *args, **kwargs)
            if 0.02 < state.V < 0.06:
                violated.append(state.V)
                diag["area_error"] = 1.0
            return diag

        monkeypatch.setattr(waves, "state_diagnostics", fake)
        with pytest.raises(SolverError, match="constraint violation") as info:
            continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                            n=N_TEST)
        assert not isinstance(info.value, ContinuationStalledError)
        assert len(violated) == 1

    def test_unresolved_tail_point_stops_the_branch(self, params, f_act,
                                                    f_und, monkeypatch):
        # The certificate also guards the arclength points: the first one
        # over TAIL_TOL stops the branch, which keeps only resolved states.
        _stall_between(monkeypatch, 0.02, 0.06)
        honest = waves.state_diagnostics

        def fake(state, *args, **kwargs):
            diag = honest(state, *args, **kwargs)
            if state.V > 0.02:
                diag["spectral_tail"] = 1e-3
            return diag

        monkeypatch.setattr(waves, "state_diagnostics", fake)
        with pytest.raises(ContinuationStalledError,
                           match=r"unresolved shape at V=0\.0\d+: spectral "
                                 r"tail 1\.000e-03 .* at N=32") as info:
            continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                            n=N_TEST)
        partial = info.value.points
        assert partial.velocities().tolist() == [0.0, 0.02]
        assert partial.arclength_from_V == 0.02

    def test_corrector_failure_carries_the_tail(self, params, f_act, f_und,
                                                monkeypatch):
        # The corrector fails for every predictor past V = 0.0401: the
        # tail accepts one point near 0.04, and the next step fails at
        # every step size down to ds/64.
        _stall_between(monkeypatch, 0.02, 0.1)
        real_newton = solvers.newton_solve

        def failing(fun, x0, *args, **kwargs):
            if x0[-1] > 0.0401:
                raise NewtonConvergenceError("forced")
            return real_newton(fun, x0, *args, **kwargs)

        monkeypatch.setattr(solvers, "newton_solve", failing)
        with pytest.raises(ContinuationStalledError,
                           match="corrector failed down to step") as info:
            continue_branch(params, f_act, f_und, V_max=0.1, ds=0.02,
                            n=N_TEST)
        partial = info.value.points
        assert isinstance(partial, Branch)
        assert partial.arclength_from_V == 0.02
        vs = partial.velocities()
        assert vs[:2].tolist() == [0.0, 0.02]
        assert len(vs) == 3 and 0.039 < vs[2] <= 0.0401

    def test_stall_at_the_first_step_raises(self, params, f_act, f_und,
                                            monkeypatch):
        # With only the root there is no secant to start arclength from.
        _stall_between(monkeypatch, 0.0, 0.06)
        with pytest.raises(ContinuationStalledError,
                           match="stalled before V=0.02") as info:
            continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                            n=N_TEST)
        assert len(info.value.points.states) == 1
        assert not info.value.points.used_arclength


    def test_stall_message_names_the_residual_once(self, params, f_act,
                                                   f_und, monkeypatch):
        # The Newton message already ends with its best residual.
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 0)
        with pytest.raises(ContinuationStalledError,
                           match="no convergence in 0 iterations") as info:
            continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                            n=N_TEST)
        assert str(info.value).count("residual") == 1

    def test_tiny_V_max_keeps_its_one_step(self, params, f_act, f_und):
        # A V_max below 1e-12 is still reached by its one fixed-speed step.
        branch = continue_branch(params, f_act, f_und, V_max=1e-13, ds=0.01,
                                 n=N_TEST)
        assert branch.velocities().tolist() == [0.0, 1e-13]
        assert not branch.used_arclength


def _assert_built_afresh(states, params, f_act, f_und):
    """Each state's c1 and diagnostics, which the branch took from the
    fields of its last residual evaluation, equal those computed from the
    state alone, bit for bit."""
    for state in states:
        assert state.c1 == marker_normalization(state.shape, state.V, params)
        assert state.diagnostics == state_diagnostics(state, params, f_act,
                                                      f_und)


def _stall_between(monkeypatch, V_from, V_to):
    """Fail every fixed-speed solve strictly between V_from and V_to.

    Fixed-speed stepping then stalls after V_from; a solve at V_to itself,
    which is how the arclength tail lands on V_max, still runs.  Returns
    the list of speeds refused, in call order.
    """
    real_solve = waves.solve_at_velocity
    refused = []

    def stalling(V, *args, **kwargs):
        if V_from < V < V_to:
            refused.append(V)
            raise SolverError(f"forced failure at V={V:g}")
        return real_solve(V, *args, **kwargs)

    monkeypatch.setattr(waves, "solve_at_velocity", stalling)
    return refused


def _packed_state(V, u, R0=1.0):
    return TravelingWaveState(shape=Shape(u[:-2], R0), V=V, p1=float(u[-2]),
                              chi_c=float(u[-1]), c1=1.0)


class TestPredictor:
    def test_constant_then_linear(self):
        u0 = np.array([0.0, 0.0, 0.0, 0.0, 1.5])
        u1 = np.array([1e-3, 0.0, 2e-3, -4e-4, 1.6])
        root, first = _packed_state(0.0, u0), _packed_state(0.02, u1)
        assert np.array_equal(waves._predict([root], 0.02), u0)
        linear = u0 + (0.05 / 0.02) * (u1 - u0)
        assert np.max(np.abs(waves._predict([root, first], 0.05) - linear)) \
            <= 1e-15

    def test_exact_on_quadratic_data_with_uneven_speeds(self):
        rng = np.random.default_rng(7)
        a, b, c = (1e-2 * rng.standard_normal(7) for _ in range(3))

        def exact(V):
            return a + b * V + c * V * V

        # Only the last three states count: an older one off the parabola
        # must not change the prediction.
        history = [_packed_state(-0.2, exact(-0.2) + 0.5)]
        history += [_packed_state(V, exact(V)) for V in (0.0, 0.013, 0.05)]
        for V in (0.0315, 0.087, 0.2):
            assert np.max(np.abs(waves._predict(history, V) - exact(V))) \
                <= 1e-14

    def test_one_jacobian_per_state_from_the_third(self, params, f_act, f_und,
                                                   monkeypatch):
        # Constant, then linear prediction: the first two states take two
        # Newton steps; the quadratic one lands each later state in one.
        per_state = []
        built = 0
        real_jacobian = waves._residual_jacobian
        real_solve = waves.solve_at_velocity

        def counting_jacobian(*args):
            nonlocal built
            built += 1
            return real_jacobian(*args)

        def counting_solve(*args, **kwargs):
            nonlocal built
            built = 0
            state = real_solve(*args, **kwargs)
            per_state.append(built)
            return state

        monkeypatch.setattr(waves, "_residual_jacobian", counting_jacobian)
        monkeypatch.setattr(waves, "solve_at_velocity", counting_solve)
        continue_branch(params, f_act, f_und, V_max=0.3, ds=0.01, n=16)
        assert len(per_state) == 30
        assert per_state[2:] == [1] * 28

    def test_degenerate_guess_is_a_solver_error(self, params, f_act, f_und):
        guess = waves._pack(rest_state(params, f_act, f_und, N_TEST))
        guess[0] = -2.0 * params.R0          # radius -R0 all round
        with pytest.raises(SolverError, match="degenerate"):
            solve_at_velocity(0.1, guess, params, f_act, f_und)

    def test_degenerate_prediction_hands_over(self, params, f_act, f_und,
                                              monkeypatch):
        # A fixed-speed step that fails is not retried: the branch goes on
        # by pseudo-arclength from the last two accepted states.
        reference = continue_branch(params, f_act, f_und, V_max=0.06,
                                    ds=0.02, n=N_TEST)
        real_predict = waves._predict
        spoiled = []

        def over_extrapolated(history, V):
            guess = real_predict(history, V)
            if not spoiled and V == reference.states[2].V:
                spoiled.append(V)
                guess[0] = -2.0 * params.R0
            return guess

        monkeypatch.setattr(waves, "_predict", over_extrapolated)
        branch = continue_branch(params, f_act, f_und, V_max=0.06, ds=0.02,
                                 n=N_TEST)
        assert spoiled
        assert branch.used_arclength
        assert branch.arclength_from_V == reference.states[1].V
        assert abs(branch.states[-1].V - 0.06) <= 1e-12
        assert abs(branch.states[-1].chi_c
                   - reference.states[-1].chi_c) <= 1e-9

    def test_fold_stall_pinned(self, f_act, f_und, monkeypatch):
        # At gamma = 0.1 and N = 64 the branch folds near V = 1.1755, but
        # its shapes stop being resolved well before: the spectral tail
        # first exceeds TAIL_TOL at V = 0.85, and the branch stops there
        # with the resolved states only, never reaching the fold or the
        # arclength hand-over.  A constant predictor needs 411 Jacobians
        # to get to the fold.
        p = ModelParams(a=0.8, gamma=0.1, chi_c=1.0, chi_u=0.25, R0=1.0,
                        M=math.pi)
        built = 0
        real_jacobian = waves._residual_jacobian

        def counting_jacobian(*args):
            nonlocal built
            built += 1
            return real_jacobian(*args)

        monkeypatch.setattr(waves, "_residual_jacobian", counting_jacobian)
        with pytest.raises(ContinuationStalledError,
                           match=r"unresolved shape at V=0\.85: spectral tail "
                                 r"1\.\d+e-08 exceeds TAIL_TOL=1e-08 at N=64"
                           ) as info:
            continue_branch(p, f_act, f_und, V_max=1.5, ds=0.01, n=64)
        partial = info.value.points
        assert len(partial.states) == 85
        assert abs(partial.states[-1].V - 0.84) <= 1e-12
        assert not partial.used_arclength
        assert all(s.diagnostics["spectral_tail"] <= waves.TAIL_TOL
                   for s in partial.states)
        assert built < 411

    def test_arclength_v_column_equals_two_calls(self, f_act, f_und,
                                                fold_n256):
        # On the gamma = 0.1, N = 256 branch, every arclength Jacobian's
        # V column, one stacked call of its two points, equals the central
        # difference of two single-state residual calls bit for bit.
        params = _fold_params()
        v_columns = fold_n256[2]
        assert v_columns

        def fun(u):
            return _residual_vector(u[:-3], u[-1], u[-3], u[-2], params,
                                    f_act, f_und)

        for u, column in v_columns:
            step = np.zeros_like(u)
            step[-1] = 1e-6 * (1.0 + abs(u[-1]))
            two_calls = (fun(u + step) - fun(u - step)) / (2.0 * step[-1])
            assert np.array_equal(column, two_calls)

    def test_fold_hands_over_to_arclength(self, fold_n256):
        # At gamma = 0.1 and N = 256 the shapes stay resolved up to the
        # fold: the fixed-speed step to V = 1.18 fails once, with no
        # retry, and the arclength tail goes on from V = 1.17 until a
        # shape just short of the fold (V ~ 1.1763) fails the certificate.
        stall, failed, _ = fold_n256
        stop = float(str(stall).split("V=")[1].split(":")[0])
        assert 1.175 <= stop <= 1.177
        partial = stall.points
        assert abs(partial.arclength_from_V - 1.17) <= 1e-12
        assert len(failed) == 1
        assert all(s.diagnostics["spectral_tail"] <= waves.TAIL_TOL
                   for s in partial.states)


def _bifurcation_jacobian_by_columns(params, f_act, f_und, n):
    """``bifurcation_jacobian`` as two single-state residual calls per
    column: the reference of its stacked blocks."""
    star = chi_c_star(params, f_act, f_und)

    def fun(x):
        return _residual_vector(x[: n + 1], x[n + 1], x[n + 2], star,
                                params, f_act, f_und)

    x0 = np.zeros(n + 3)
    cols = []
    h = 1e-6
    for i in range(n + 3):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.column_stack(cols)


def _transversality_by_calls(params, f_act, f_und, n):
    """``transversality_product`` as four single-state residual calls."""
    star = chi_c_star(params, f_act, f_und)
    zeros = np.zeros(n + 1)
    dv, dchi = 1e-4, 1e-2

    def v_column_cos1(chi):
        rp = _residual_vector(zeros, dv, 0.0, chi, params, f_act, f_und)
        rm = _residual_vector(zeros, -dv, 0.0, chi, params, f_act, f_und)
        col = (rp - rm) / (2.0 * dv)
        return math.pi * col[1]

    return (v_column_cos1(star + dchi)
            - v_column_cos1(star - dchi)) / (2.0 * dchi)


class TestBifurcationStructure:
    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_jacobian_equals_the_column_loop(self, params, f_act, f_und,
                                             f_und_tanh, n):
        # The stacked blocks (a partial last block at every n here) give
        # the per-column loop's Jacobian bit for bit, C-ordered as it was.
        for law in (f_und, f_und_tanh):
            got = waves.bifurcation_jacobian(params, f_act, law, n)
            assert got.flags.c_contiguous
            assert np.array_equal(
                got, _bifurcation_jacobian_by_columns(params, f_act, law, n))
            assert (transversality_product(params, f_act, law, n)
                    == _transversality_by_calls(params, f_act, law, n))

    def test_kernel_is_pure_speed_direction(self, params, f_act, f_und):
        ka = kernel_alignment(params, f_act, f_und, N_TEST)
        assert ka["angle_to_v_direction"] <= 1e-8
        assert ka["sigma_min"] <= 1e-6
        assert ka["sigma_next"] >= 1e-3

    def test_range_excludes_cos_component(self, params, f_act, f_und):
        # Every direction with zero V-component maps to a first block with
        # vanishing cos(theta) coefficient, so the discrete range misses
        # that direction (codimension one).  Exact for the linearisation:
        rng = np.random.default_rng(52)
        for _ in range(10):
            rho = rng.standard_normal(N_TEST + 1)
            lin = linearized_residual(rho, 0.0, rng.standard_normal(), 1.3,
                                      params, f_act, f_und)
            assert abs(lin[1]) <= 1e-13 * (1.0 + np.max(np.abs(lin)))
        # Central-difference probes of the residual's cos(theta) row vanish
        # for every non-V column.  Odd powers of a few directions land back
        # on the cos(theta) mode at finite probe amplitude (k = 1 directly
        # via cos^3, and k with (2j+1) k = +-1 mod 2N by aliasing), so the
        # correct falsifiable statement is scaling: a zero derivative entry
        # decays at least quadratically in h, a genuine entry is h-stable.
        star = 1.3

        def probe(k, h):
            xp, xm = np.zeros(N_TEST + 3), np.zeros(N_TEST + 3)
            xp[k] += h
            xm[k] -= h
            fp = _residual_vector(xp[:N_TEST + 1], xp[N_TEST + 1],
                                  xp[N_TEST + 2], star, params, f_act, f_und)
            fm = _residual_vector(xm[:N_TEST + 1], xm[N_TEST + 1],
                                  xm[N_TEST + 2], star, params, f_act, f_und)
            return (fp[1] - fm[1]) / (2.0 * h)

        for k in range(N_TEST + 3):
            if k == N_TEST + 1:
                continue
            fine = probe(k, 1e-4)
            if abs(fine) <= 1e-10:
                continue
            coarse = probe(k, 1e-3)
            assert abs(fine) <= 1.2e-2 * abs(coarse), k
        # Control: the V-column at chi_c away from the threshold is a
        # genuine h-stable entry of the expected size.
        v_fine, v_coarse = probe(N_TEST + 1, 1e-4), probe(N_TEST + 1, 1e-3)
        assert abs(v_fine - v_coarse) <= 1e-6 * abs(v_fine)
        c0 = params.c0
        pred = (params.chi_u * float(f_und.d1(0.0)) + params.R0
                - params.a * c0 * star * float(f_act.d1(c0)) * params.R0)
        assert abs(v_fine - pred) <= 1e-6 * abs(pred)

    def test_transversality_magnitude(self, params, f_act, f_und):
        tv = transversality_product(params, f_act, f_und, N_TEST)
        pred = -params.a * params.c0 * float(f_act.d1(params.c0)) \
            * params.R0 * math.pi
        assert abs(tv - pred) <= 1e-6 * abs(pred)


class TestBifurcationReport:
    def test_linear_undercooling(self, params, f_act, f_und):
        report = bifurcation_report(params, f_act, f_und, n=N_TEST)
        assert abs(report.d_chi_ds_at_0) <= 1e-4 * max(
            1.0, abs(report.d2_chi_ds2_at_0))
        assert report.verdict == "coincident"
        assert report.matched_within <= 0.05
        star = chi_c_star(params, f_act, f_und)
        assert abs(report.chi_c_star_numeric - star) <= 1e-8 * star
        assert report.symmetry["chi_mismatch"] <= 1e-10
        assert report.symmetry["shape_reflection_mismatch"] <= 1e-10

    def test_second_order_shape_against_perturbation(self, params, f_act,
                                                     f_und):
        # Independent oracle from second-order perturbation of the residual
        # around the bifurcation point: the cos(2 theta) shape coefficient
        # grows as (V^2/2) * rho22 with
        # rho22 = -(a^2 c0 R0^4 chi*/(6 gamma)) (c0 f''(c0) + f'(c0)),
        # read as 2 rho_2 / V^2 at the smallest speed the report solves at.
        v = 0.25 * waves.REPORT_STEP
        state = solve_at_velocity(v, rest_state(params, f_act, f_und, N_TEST),
                                  params, f_act, f_und)
        c0 = params.c0
        star = chi_c_star(params, f_act, f_und)
        rho22 = -(params.a ** 2 * c0 * params.R0 ** 4 * star
                  / (6.0 * params.gamma)) \
            * (c0 * float(f_act.d2(c0)) + float(f_act.d1(c0)))
        got = 2.0 * state.shape.rho_cos[2] / v ** 2
        assert abs(got - rho22) <= 0.05 * abs(rho22)

    def test_tanh_undercooling_discriminates(self, params, f_act,
                                             f_und_tanh):
        report = bifurcation_report(params, f_act, f_und_tanh, n=N_TEST)
        cands = report.d2_chi_ds2_candidates
        assert abs(cands["statement_third"] - cands["proof_quarter"]) > 0.1
        # Frozen empirical outcome: the numerics support the 1/4 cubic
        # coefficient (the closed form whose derivation integrates
        # cos^4 = 3 pi/4 against the 3 pi a c0 R0 f' normalisation).
        assert report.verdict == "proof_quarter"
        assert report.matched_within <= 0.25
