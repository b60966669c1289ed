"""Damped Newton, complex root search, arclength continuation."""

import math

import numpy as np
import pytest

from cellwave import (
    ContinuationStalledError,
    NewtonConvergenceError,
    SolverError,
    arclength_continue,
    find_complex_roots,
    newton_solve,
)
from cellwave import solvers
from cellwave.solvers import _complex_newton, _local_minima, _seed_starts
from dispersion_reference import dispersion_H


class TestNewton:
    def test_scalar_quadratic(self):
        sol = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), [3.0])
        assert abs(sol[0] - 2.0) <= 1e-10

    def test_linear_system_one_step(self):
        mat = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([3.0, 5.0])
        calls = []

        def fun(x):
            calls.append(1)
            return mat @ x - rhs

        sol = newton_solve(fun, [0.0, 0.0], jac=lambda x: mat)
        assert np.allclose(mat @ sol, rhs, atol=1e-12)
        # one Jacobian solve plus the convergence checks
        assert len(calls) <= 3

    def test_failure_carries_best_iterate(self):
        with pytest.raises(NewtonConvergenceError) as info:
            newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]), [0.7])
        err = info.value
        assert err.best_x.shape == (1,)
        assert err.best_residual >= 1.0


def _roots(evaluate, fun_grid, region, seeds):
    """The roots ``find_complex_roots`` locates, without their residuals."""
    return [z for z, _ in find_complex_roots(evaluate, fun_grid, region,
                                             seeds)]


def _central_difference(fun):
    """evaluate(z) -> (f, 1.0, f') for a function with no analytic slope."""
    def evaluate(z):
        h = 1e-6 * (1.0 + abs(z))
        return fun(z), 1.0, (fun(z + h) - fun(z - h)) / (2.0 * h)
    return evaluate


class TestComplexRoots:
    def test_quadratic(self):
        roots = _roots(lambda z: (z * z + 1.0, 1.0, 2.0 * z),
                       lambda zs: zs * zs + 1.0, (-2, 2, -2, 2), (20, 20))
        assert len(roots) == 2
        assert abs(roots[0] - (-1j)) <= 1e-8
        assert abs(roots[1] - 1j) <= 1e-8

    # The roots of z^2 + 1 each rectangle holds, with its 2% margin.
    CONJUGATE_CASES = {(-2, 2, -2, 2): [-1j, 1j],
                       (-2, 2, -0.5, 2): [1j],
                       (-2, 2, -2, 0.5): [-1j]}

    @pytest.mark.parametrize("region", list(CONJUGATE_CASES))
    def test_conjugate_pairs_completed(self, region):
        # f has real coefficients: the search itself adds each partner,
        # exactly conjugate and with the same residual, and then returns
        # only the roots inside the rectangle plus its margin, whichever of
        # +-1j the Newton runs converged to.
        found = find_complex_roots(lambda z: (z * z + 1.0, 1.0, 2.0 * z),
                                   lambda zs: zs * zs + 1.0, region,
                                   (20, 20), conjugate=True)
        expected = self.CONJUGATE_CASES[region]
        assert len(found) == len(expected)
        for (z, _), ref in zip(found, expected):
            assert abs(z - ref) <= 1e-8
        if len(found) == 2:
            (low, low_res), (high, high_res) = found
            assert low == high.conjugate() and low_res == high_res

    def test_cube_roots_of_unity(self):
        roots = _roots(lambda z: (z ** 3 - 1.0, 1.0, 3.0 * z * z),
                       lambda zs: zs ** 3 - 1.0, (-2, 2, -2, 2), (20, 20))
        expected = sorted((np.exp(2j * np.pi * k / 3) for k in range(3)),
                          key=lambda z: (z.real, z.imag))
        assert len(roots) == 3
        for got, ref in zip(roots, expected):
            assert abs(got - ref) <= 1e-8

    def test_dispersion_mode0_region(self, params, f_act, f_und, j1_roots):
        # The raw mode-0 dispersion function on [-60, 1] x [-1, 1] has the
        # structural double zero at the origin plus the two J_1-root values.
        fun = lambda z: dispersion_H(0, z, params, f_act, f_und)
        roots = _roots(_central_difference(fun),
                       np.vectorize(fun, otypes=[complex]), (-60, 1, -1, 1),
                       (50, 11))
        j1 = j1_roots[:2]
        expected = sorted([-j1[1] ** 2, -j1[0] ** 2, 0.0])
        assert len(roots) == 3
        for got, ref, tol in zip(roots, expected, (1e-6, 1e-6, 1e-4)):
            assert abs(got - ref) <= tol

    def test_duplicate_free_and_residual_bound(self):
        fun = lambda z: (z - 0.5) * (z + 0.25j) * (z - 2.0)
        slope = lambda z: ((z + 0.25j) * (z - 2.0) + (z - 0.5) * (z - 2.0)
                           + (z - 0.5) * (z + 0.25j))
        found = find_complex_roots(lambda z: (fun(z), 1.0, slope(z)), fun,
                                   (-3, 3, -3, 3), (25, 25))
        assert len(found) == 3
        for i, (a, res) in enumerate(found):
            # The residual is the one Newton ended at: |f| / scale there.
            assert res == abs(fun(a)) <= 1e-8
            for b, _ in found[i + 1:]:
                assert abs(a - b) > 1e-6

    def test_no_roots_returns_empty(self):
        roots = find_complex_roots(lambda z: (z * 0 + 1.0, 1.0, z * 0),
                                   lambda zs: zs * 0 + 1.0, (-1, 1, -1, 1),
                                   (8, 8))
        assert roots == []


class TestComplexNewton:
    """The one scalar Newton: evaluate(z) -> (f, scale, f'), returns (z, res)."""

    def test_absolute_contract(self):
        z, res = _complex_newton(lambda z: (z * z + 1.0, 1.0, 2.0 * z),
                                 0.5 + 0.5j, 1e-12)
        assert abs(z - 1j) <= 1e-12
        assert res == abs(z * z + 1.0)
        assert res <= 1e-12

    def test_relative_contract_stops_at_tol(self):
        # The scale grows with |z|, so |f| / scale reaches tol two steps
        # from 3, where |f| is still about 0.03: it stops there.
        calls = []

        def evaluate(z):
            calls.append(z)
            return z * z - 4.0, 1e6 * (1.0 + abs(z)), 2.0 * z

        z, res = _complex_newton(evaluate, 3.0, 1e-8)
        assert len(calls) == 3 and z == calls[-1]
        assert res == abs(z * z - 4.0) / (1e6 * (1.0 + abs(z)))
        assert res <= 1e-8
        assert abs(z * z - 4.0) > 1e-2
        # Started there, it takes no step.
        assert _complex_newton(evaluate, z, 1e-8) == (z, res)
        assert len(calls) == 4

    def test_zero_slope_returns_start(self):
        calls = []

        def evaluate(z):
            calls.append(z)
            return z * z + 1.0, 1.0, 2.0 * z

        z, res = _complex_newton(evaluate, 0.0, 1e-12)
        assert z == 0.0 and res == 1.0
        assert len(calls) == 1

    def test_halving_budget_returns_last_accepted(self, monkeypatch):
        # The slope is right at the start and reversed afterwards, so the
        # first step is accepted and the second goes uphill; with no
        # halvings allowed the run ends at the first step.
        monkeypatch.setattr(solvers, "ROOT_MAX_BACKTRACKS", 0)
        z0 = 3.0 + 0.0j
        calls = []

        def evaluate(z):
            calls.append(z)
            return z * z - 4.0, 1.0, 2.0 * z if z == z0 else -2.0 * z

        z, res = _complex_newton(evaluate, z0, 1e-12)
        assert len(calls) == 3      # start, first step, one uphill trial
        assert z == z0 - 5.0 / 6.0
        assert res == abs(z * z - 4.0)
        assert res > 1e-12

    def test_step_accepted_when_f_falls_and_residual_rises(self,
                                                           monkeypatch):
        # The scale falls a thousandfold per unit of Re z, faster than |f|
        # along the first step from 3: |f| drops from 5 to 0.69 while
        # |f| / scale rises from 5 to about 200.  The step is taken whole.
        calls = []

        def evaluate(z):
            calls.append(z)
            return z * z - 4.0, 1e-3 ** (3.0 - z.real), 2.0 * z

        monkeypatch.setattr(solvers, "ROOT_MAX_ITER", 1)
        monkeypatch.setattr(solvers, "ROOT_MAX_BACKTRACKS", 0)
        z, res = _complex_newton(evaluate, 3.0, 1e-12)
        assert len(calls) == 2
        assert z == 3.0 - 5.0 / 6.0
        assert abs(z * z - 4.0) < 5.0
        assert res == abs(z * z - 4.0) / 1e-3 ** (3.0 - z.real)
        assert res > 5.0


def _local_minima_loop(mag):
    """The double-loop seed scan _local_minima replaced (the reference)."""
    nx, ny = mag.shape
    starts = []
    for i in range(nx):
        for j in range(ny):
            v = mag[i, j]
            if not np.isfinite(v):
                continue
            neigh = []
            if i > 0:
                neigh.append(mag[i - 1, j])
            if i < nx - 1:
                neigh.append(mag[i + 1, j])
            if j > 0:
                neigh.append(mag[i, j - 1])
            if j < ny - 1:
                neigh.append(mag[i, j + 1])
            if all(v <= nv for nv in neigh):
                starts.append((i, j))
    return starts


class TestLocalMinima:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (1, 6),
                                       (40, 20)])
    def test_matches_double_loop(self, shape):
        # Few distinct levels give ties and plateaus; NaN and +inf sprinkled.
        rng = np.random.default_rng(sum(shape))
        for trial in range(60):
            if trial % 3 == 0:
                mag = rng.random(shape)
            else:
                mag = rng.integers(0, 3, size=shape).astype(float)
            mark = rng.random(shape)
            mag[mark < 0.1] = np.nan
            mag[(mark >= 0.1) & (mark < 0.15)] = np.inf
            i, j = _local_minima(mag)
            assert list(zip(i.tolist(), j.tolist())) == _local_minima_loop(mag)

    def test_plateau_seeds_every_point(self):
        i, j = _local_minima(np.ones((2, 3)))
        assert list(zip(i.tolist(), j.tolist())) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


class TestSeedStarts:
    @pytest.mark.parametrize("ny", [2, 3, 8, 9, 21])
    def test_half_grid_matches_mirrored_scan(self, ny):
        # On a symmetric rectangle only the rows with Im >= 0 are screened.
        # The starts must be the upper-half minima of the scan over the
        # full grid whose rows below the axis mirror those above it.
        nx, region = 7, (-2.0, 1.0, -1.5, 1.5)
        xs = np.linspace(region[0], region[1], nx)
        ys = np.linspace(region[2], region[3], ny)
        low = ny // 2                   # rows below the axis
        rng = np.random.default_rng(ny)
        for trial in range(40):
            screened = []

            def fun_grid(z):
                # Few levels give ties and plateaus; NaN disqualifies.
                vals = rng.integers(0, 3, size=z.size).astype(float)
                vals[rng.random(z.size) < 0.1] = np.nan
                screened.append(vals)
                return -vals if trial % 2 else vals

            starts = _seed_starts(fun_grid, region, (nx, ny), conjugate=True)
            half = screened[0].reshape(nx, ny - low)
            full = np.empty((nx, ny))
            full[:, low:] = half
            for k in range(low):        # row k mirrors row ny - 1 - k
                full[:, k] = half[:, ny - 1 - k - low]
            i, j = _local_minima(full)
            upper = j >= low
            assert np.array_equal(starts, xs[i[upper]] + 1j * ys[j[upper]])


def _trace(fun, jac, u, tangent, steps, ds):
    """Points of ``steps`` one-step calls from u, each along the secant of
    the last two points (the given tangent at first)."""
    points = [np.array(u, dtype=float)]
    tangent = np.array(tangent, dtype=float)
    for _ in range(steps):
        points.append(arclength_continue(fun, jac, points[-1], tangent, ds,
                                         tol=1e-10))
        tangent = points[-1] - points[-2]
    return points


class TestArclength:
    def test_circle(self):
        fun = lambda u: np.array([u[0] ** 2 + u[1] ** 2 - 1.0])
        jac = lambda u: np.array([[2.0 * u[0], 2.0 * u[1]]])
        pts = _trace(fun, jac, [1.0, 0.0], [0.0, 1.0], 50, 0.2)
        devs = [abs(p[0] ** 2 + p[1] ** 2 - 1.0) for p in pts]
        assert max(devs) <= 1e-8
        # The path actually moves around the circle.
        angles = np.unwrap([math.atan2(p[1], p[0]) for p in pts])
        assert angles[-1] - angles[0] > 2.0 * math.pi

    def test_fold(self):
        fun = lambda u: np.array([u[0] ** 2 - u[1]])
        jac = lambda u: np.array([[2.0 * u[0], -1.0]])
        pts = _trace(fun, jac, [1.0, 1.0], [-1.0, -2.0], 30, 0.15)
        xs = [p[0] for p in pts]
        mus = [p[1] for p in pts]
        assert min(mus) < 0.01          # reaches the fold neighbourhood
        assert min(xs) < -0.5           # and continues through it
        assert max(abs(p[0] ** 2 - p[1]) for p in pts) <= 1e-8

    def test_stall_raises_solver_error(self):
        # A one-sided obstruction: no solutions for u[1] > 1.
        def fun(u):
            return np.array([u[0] - math.sqrt(max(1.0 - u[1], -1.0))
                             if u[1] <= 1.0 else 1e3])

        def jac(u):
            slope = 0.5 / math.sqrt(1.0 - u[1]) if u[1] < 1.0 else 0.0
            return np.array([[1.0, slope]])

        with pytest.raises(SolverError, match="corrector failed") as info:
            _trace(fun, jac, [1.0, 0.0], [0.0, 1.0], 50, 0.3)
        assert not isinstance(info.value, ContinuationStalledError)

    def test_failure_names_the_last_step_tried(self):
        # No point satisfies fun = 0, so every corrector fails; the message
        # names the smallest step tried, ds/64, not one more halving.
        fun = lambda u: np.array([u[0] ** 2 + u[1] ** 2 + 1.0])
        jac = lambda u: np.array([[2.0 * u[0], 2.0 * u[1]]])
        with pytest.raises(SolverError,
                           match=r"corrector failed down to step 3\.125e-04$"):
            arclength_continue(fun, jac, np.array([1.0, 0.0]), [0.0, 1.0],
                               0.02, tol=1e-10)
