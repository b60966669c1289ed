"""Dispersion function, mode spectra, neutral modes, threshold and verdicts."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from cellwave import (
    AccuracyError,
    ModelParams,
    SolverError,
    chi_c_star,
    classify,
    hill_active,
    linear_undercooling,
    mode_spectra,
    mode_spectrum,
    refine_threshold,
    zero_eigenspace_dimension,
)
from cellwave import _kernels, solvers, stability
from cellwave.acceptance import J1_ZEROS, _sample_params
from cellwave.acceptance import _bessel_I_reference as ref_I
from cellwave.cli import main
from cellwave.config import load_config
from cellwave.solvers import (
    _accept_roots,
    _complex_newton,
    _seed_grid,
    find_complex_roots,
)
from cellwave.stability import (
    DEFAULT_SEEDS,
    _mode_constants,
    _spectrum,
    _zero_constraint_matrix,
    default_root_region,
)
from dispersion_reference import (
    dispersion_H,
    dispersion_kernel,
    structural_exponent,
)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def _random_params(rng, f_act, chi_factor=None):
    p = ModelParams(a=rng.uniform(0.2, 1.0), gamma=rng.uniform(0.5, 3.0),
                    chi_c=0.0, chi_u=rng.uniform(0.0, 2.0),
                    R0=rng.uniform(0.5, 2.0),
                    M=rng.uniform(0.5, 2.0) * math.pi)
    if chi_factor is not None:
        star = chi_c_star(p, f_act, linear_undercooling())
        p = p.with_chi_c(chi_factor * star)
    return p


def _mode_kernels(m, params, f_act, f_und):
    """Mode-m kernel as values over the seed grid, and as
    (value, scale, slope) at one point."""
    consts = _mode_constants(m, params, f_act, f_und)

    def fun_grid(zs):
        return _kernels.phi_mode_grid(m, zs, params.R0, *consts)[0]

    def kernel(z):
        return _kernels.phi_mode_slope(m, complex(z), params.R0, *consts)

    return fun_grid, kernel


def _subcritical_draws(seed):
    """Criterion 4's parameter sets: chi_c uniform in the energy range."""
    rng = np.random.default_rng(seed)
    f_act = hill_active(2.0, 0.75, 2)
    for _ in range(20):
        p = _sample_params(rng, chi_c=0.0)
        bound = 1.0 / (p.a * p.c0 * float(f_act.d1(p.c0)))
        yield p.with_chi_c(rng.uniform(0.0, bound))


class TestDispersionFunction:
    def test_vanishes_at_origin(self, params, f_act, f_und):
        for m in range(9):
            assert dispersion_H(m, 0.0, params, f_act, f_und) == 0.0

    def test_mode0_closed_form(self, params, f_act, f_und):
        rng = np.random.default_rng(41)
        for _ in range(20):
            z = complex(rng.uniform(-30, 10), rng.uniform(-8, 8))
            got = dispersion_H(0, z, params, f_act, f_und)
            ref = z ** 1.5 * ref_I(1, -params.R0 * cmath.sqrt(z))
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_mode1_independent_transcription(self, params, f_act, f_und):
        # Fresh transcription of the displayed mode-1 function.
        c0 = params.c0
        coef = params.a * params.chi_c * c0 * float(f_act.d1(c0)) / params.R0
        b1 = 1.0 + params.chi_u * float(f_und.d1(0.0)) / params.R0
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = complex(rng.uniform(-30, 10), rng.uniform(-8, 8))
            w = -params.R0 * cmath.sqrt(z)
            ref = (0.5 * z ** 1.5 * b1 * (ref_I(0, w) + ref_I(2, w))
                   + z * coef * ref_I(1, w))
            got = dispersion_H(1, z, params, f_act, f_und)
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_branch_independence(self, params, f_act, f_und):
        # Replacing sqrt(z) by -sqrt(z) scales the value by exactly (-1)^m.
        c0 = params.c0
        fp = float(f_act.d1(c0))
        fu = float(f_und.d1(0.0))
        rng = np.random.default_rng(43)
        for m in range(9):
            for _ in range(50):
                z = complex(rng.uniform(-30, 10), rng.uniform(-8, 8))
                sq = -cmath.sqrt(z)
                w = -params.R0 * sq
                coef = params.a * params.chi_c * c0 * fp / params.R0
                bm = 1.0 + m * params.chi_u * fu / params.R0
                dm = params.gamma * m * (m * m - 1) / params.R0 ** 3
                lo = ref_I(1, w) if m == 0 else ref_I(m - 1, w)
                flipped = (z * m * coef * ref_I(m, w)
                           + 0.5 * sq * (z * bm + dm) * (lo + ref_I(m + 1, w)))
                ref = dispersion_H(m, z, params, f_act, f_und)
                assert abs(ref - (-1.0) ** m * flipped) <= 1e-12 * (1 + abs(ref))

    def test_kernel_factorisation(self, params, f_act, f_und):
        # H_m(z) = z^e * kernel_m(z) with e the structural exponent.
        rng = np.random.default_rng(44)
        for m in range(9):
            for _ in range(6):
                z = complex(rng.uniform(-30, 10), rng.uniform(-8, 8))
                if abs(z) < 1e-2:
                    continue
                h = dispersion_H(m, z, params, f_act, f_und)
                val, _ = dispersion_kernel(m, z, params, f_act, f_und)
                ref = z ** structural_exponent(m) * val
                assert abs(h - ref) <= 1e-11 * (abs(h) + abs(ref) + 1e-300)

    def test_conjugate_symmetry(self, params, f_act, f_und):
        rng = np.random.default_rng(45)
        for m in range(5):
            for _ in range(6):
                z = complex(rng.uniform(-30, 5), rng.uniform(0.1, 8))
                a = dispersion_H(m, z, params, f_act, f_und)
                b = dispersion_H(m, z.conjugate(), params, f_act, f_und)
                assert abs(b - a.conjugate()) <= 1e-12 * (1.0 + abs(a))

    @pytest.mark.parametrize("r0", [0.5, 1.0, 2.0])
    def test_grid_matches_scalar_kernel(self, params, f_act, f_und, r0):
        # The array seed screen against a loop of scalar kernel calls: the
        # default seed grid, both sides of the ring |u| = 16, and the
        # negative real axis where u = R0^2 z has no square-root branch.
        base = ModelParams(params.a, params.gamma, params.chi_c, params.chi_u,
                           r0, params.M)
        re_min, re_max, im_min, im_max = default_root_region(base)
        zx, zy = np.meshgrid(np.linspace(re_min, re_max, DEFAULT_SEEDS[0]),
                             np.linspace(im_min, im_max, DEFAULT_SEEDS[1]),
                             indexing="ij")
        edge = 16.0 / r0 ** 2 * np.exp(2j * np.pi * np.arange(16) / 16)
        zs = np.concatenate([(zx + 1j * zy).ravel(),
                             edge * (1 - 1e-9), edge * (1 + 1e-9),
                             np.linspace(-90.0, -0.1, 40) / r0 ** 2 + 0j])
        for chi_c in (0.5, 2.5):
            p = base.with_chi_c(chi_c)
            for m in range(9):
                consts = _mode_constants(m, p, f_act, f_und)
                vals, scales = _kernels.phi_mode_grid(m, zs, r0, *consts)
                ref = [_kernels.phi_mode(m, z, r0, *consts) for z in zs]
                ref_vals = np.array([v for v, _ in ref])
                ref_scales = np.array([s for _, s in ref])
                assert np.all(np.abs(vals - ref_vals) <= 1e-13 * ref_scales)
                assert np.all(np.abs(scales - ref_scales) <= 1e-13 * ref_scales)

    @pytest.mark.parametrize("r0", [0.5, 1.0, 2.0])
    def test_slope_matches_central_differences(self, params, f_act, f_und,
                                               r0):
        # phi_mode_slope against complex central differences of phi_mode,
        # plus a second-order Taylor remainder along a complex direction.
        base = ModelParams(params.a, params.gamma, params.chi_c, params.chi_u,
                           r0, params.M)
        re_min, re_max, im_min, im_max = default_root_region(base)
        rng = np.random.default_rng(46)
        edge = 16.0 / r0 ** 2 * np.exp(2j * np.pi * np.arange(8) / 8 + 0.1j)
        zs = np.concatenate([rng.uniform(re_min, re_max, 12)
                             + 1j * rng.uniform(im_min, im_max, 12),
                             edge * (1 - 1e-9), edge * (1 + 1e-9),
                             np.linspace(-90.0, -0.1, 10) / r0 ** 2 + 0j])
        direction = cmath.exp(0.7j)
        for chi_c in (0.5, 2.5):
            p = base.with_chi_c(chi_c)
            for m in range(9):
                consts = _mode_constants(m, p, f_act, f_und)
                phi = lambda z: _kernels.phi_mode(m, z, r0, *consts)[0]
                for z in map(complex, zs):
                    val, scale, slope = _kernels.phi_mode_slope(m, z, r0,
                                                                *consts)
                    assert (val, scale) == _kernels.phi_mode(m, z, r0, *consts)
                    h = 1e-5 * (1.0 + abs(z))
                    fd = (phi(z + h) - phi(z - h)) / (2.0 * h)
                    assert abs(slope - fd) <= 1e-7 * (abs(slope)
                                                      + scale / (1.0 + abs(z)))
                    steps = [eps * (1.0 + abs(z)) * direction
                             for eps in (1e-3, 1e-4, 1e-5)]
                    rems = [abs(phi(z + dz) - val - dz * slope) for dz in steps]
                    orders = [math.log10(rems[i] / rems[i + 1])
                              for i in range(2)]
                    assert min(orders) >= 1.9

    def test_shared_chain_matches_per_order_psi(self):
        # One pass of _psi_scalar against psi_tilde order by order, for the
        # orders a mode kernel and its slope read, on both sides of the
        # ring |u| = 16.  Off the real axis each value is compared with
        # itself; on the negative real axis I_k(w) = w^k psi_k has the zeros
        # of J_k, so there each I_k is compared with the pass's largest.
        rng = np.random.default_rng(47)
        edge = 16.0 * np.exp(2j * np.pi * np.arange(16) / 16 + 0.05j)
        radius = rng.uniform(0.5, 360.0, 60)
        off_axis = np.concatenate([
            edge * (1 - 1e-9), edge * (1 + 1e-9),
            radius * np.exp(1j * rng.uniform(-3.0, 3.0, 60))])
        negative = np.linspace(-360.0, -0.1, 60) + 0j
        for k0 in range(9):
            ks = range(k0, k0 + 4)
            for u in map(complex, np.concatenate([off_axis, negative])):
                got = np.array(_kernels._psi_scalar(ks, u))
                ref = np.array([_kernels.psi_tilde(k, u) for k in ks])
                if u.imag != 0.0:
                    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
                else:
                    wk = abs(u) ** (np.array(ks) / 2.0)
                    assert np.all(np.abs(got - ref) * wk
                                  <= 1e-14 * np.max(np.abs(ref) * wk))

    def test_psi_table_matches_per_order_psi(self):
        # The shared table for each top against psi_tilde order by order,
        # with the same points and scales as the single-point pass above:
        # both sides of the ring |u| = 16 and the negative real axis.  The
        # wide set reaches |u| = 1e5, where a chain starts some 500 orders
        # up.
        rng = np.random.default_rng(48)
        edge = 16.0 * np.exp(2j * np.pi * np.arange(16) / 16 + 0.05j)
        radius = rng.uniform(0.5, 360.0, 60)
        off_axis = np.concatenate([
            edge * (1 - 1e-9), edge * (1 + 1e-9),
            radius * np.exp(1j * rng.uniform(-3.0, 3.0, 60))])
        wide = np.concatenate([[17.0, 1e5], rng.uniform(17.0, 1e5, 40)
                               * np.exp(1j * rng.uniform(-3.0, 3.0, 40))])
        negative = np.concatenate([np.linspace(-360.0, -0.1, 60),
                                   [-1e5]]) + 0j
        for top in (2, 4, 8, 16):
            ks = np.arange(top + 1)
            for us in (off_axis, wide, negative):
                _kernels._psi_table.cache_clear()
                got = _kernels._psi_table(top, 1.0, us.tobytes())
                ref = np.array([[_kernels.psi_tilde(int(k), complex(u))
                                 for u in us] for k in ks])
                if us is negative:
                    wk = np.abs(us) ** (ks[:, None] / 2.0)
                    assert np.all(np.abs(got - ref) * wk
                                  <= 1e-14 * np.max(np.abs(ref) * wk, axis=0))
                else:
                    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    def test_psi_table_top_256(self):
        # Modes 127..254 read orders near 128 from the top-256 table.  At
        # every point orders 255 and 256 underflow to 0, so the chain,
        # started some 30 orders above them, must run unnormalised and
        # rescaled; the unread top rows must stay finite.
        edge = 16.0 * np.exp(
            2j * np.pi * np.arange(8) / 8 + 0.05j) * (1 - 1e-9)
        inside = np.concatenate([edge, [-9.0, 3.0 + 1.0j, 0.5j]])
        outside = np.array([20.0 + 1.0j, 200.0 + 50.0j, -300.0 + 0j, 1e3j])
        us = np.concatenate([inside, outside])
        _kernels._psi_table.cache_clear()
        got = _kernels._psi_table(256, 1.0, us.tobytes())
        assert np.all(np.isfinite(got))
        n = inside.size
        for k in range(126, 130):
            ref = np.array([_kernels.psi_tilde(k, complex(u)) for u in us])
            assert np.all(np.abs(got[k, :n] - ref[:n])
                          <= 1e-14 * np.abs(ref[:n]))
            # About 130 recurrence steps below the start: a few ulps each.
            assert np.all(np.abs(got[k, n:] - ref[n:])
                          <= 1e-13 * np.abs(ref[n:]))

    def test_table_column_independent_of_grid(self, params):
        # Each point's chain starts at its own order, so a table column is
        # the same, bit for bit, whether the point sits in the seed grid
        # or stands alone; inside the ring |u| = 16 too.
        zs = _seed_grid(*default_root_region(params), *DEFAULT_SEEDS,
                        True)[2].ravel()
        assert np.any(np.abs(zs[::7]) <= 16.0)
        for top in (2, 4, 8, 16):
            _kernels._psi_table.cache_clear()
            grid = _kernels._psi_table(top, params.R0, zs.tobytes())
            for i in range(0, zs.size, 7):
                _kernels._psi_table.cache_clear()
                one = _kernels._psi_table(top, params.R0, zs[i].tobytes())
                assert np.array_equal(one[:, 0], grid[:, i])

    def test_chain_rescale_inside_kept_orders(self):
        # With orders up to 300 kept, the chain passes 1e250 while rows are
        # being stored, so the stored rows are rescaled with the sum.
        us = np.array([17.0, 20.0 + 5.0j, -30.0 + 1.0j])
        got = _kernels._psi_chain(np.full(us.size, 300), us)
        for k in range(9):
            ref = np.array([_kernels.psi_tilde(k, complex(u)) for u in us])
            assert np.all(np.abs(got[k] - ref) <= 1e-14 * np.abs(ref))


class TestPsiGridMemo:
    """The seed screen keeps the most recent psi table, shared by modes."""

    @staticmethod
    def _cold(m, p, f_act, f_und, **kw):
        _kernels._psi_table.cache_clear()
        return mode_spectrum(m, p, f_act, f_und, **kw)

    def test_top_depends_on_mode_only(self):
        # Modes 0..14 read the one top-16 table; above it the tops climb
        # by powers of two.
        assert [_kernels._psi_top(m) for m in range(15)] == [16] * 15
        assert [_kernels._psi_top(m) for m in (15, 30, 31)] == [32, 32, 64]

    def test_chi_c_sweep_warm_equals_cold(self, params, f_act, f_und):
        for m in (0, 1, 4):
            _kernels._psi_table.cache_clear()
            grid = [params.with_chi_c(c) for c in (0.5, 1.5, 2.5)]
            warm = [mode_spectrum(m, p, f_act, f_und) for p in grid]
            assert _kernels._psi_table.cache_info().hits == len(grid) - 1
            cold = [self._cold(m, p, f_act, f_und) for p in grid]
            assert warm == cold
            assert repr(warm) == repr(cold)

    def test_changed_key_gives_cold_result(self, params, f_act, f_und):
        other_r0 = ModelParams(params.a, params.gamma, params.chi_c,
                               params.chi_u, 1.5, params.M)
        region = (-60.0, 10.0, -8.0, 8.0)
        for m, p, kw in [(15, params, {}), (1, params, {}), (2, other_r0, {}),
                         (2, params, {"region": region})]:
            mode_spectrum(2, params, f_act, f_und)  # warm: mode 2's table
            warm = mode_spectrum(m, p, f_act, f_und, **kw)
            cold = self._cold(m, p, f_act, f_und, **kw)
            assert repr(warm) == repr(cold)

    def test_rows_independent_of_mode_order(self, params, f_act, f_und):
        # Mode 4 reads the top-16 table.  A lower or higher mode of the
        # same top leaves the table for it; one of another top (mode 15 or
        # above) replaces it.  Either way mode 4 reads the same rows and
        # finds the same roots.
        # The default rectangle is symmetric, so the screen reads the
        # upper half of the seed grid.
        zs = _seed_grid(*default_root_region(params), *DEFAULT_SEEDS,
                        True)[2]
        consts = _mode_constants(4, params, f_act, f_und)
        _kernels._psi_table.cache_clear()
        cold_screen = _kernels.phi_mode_grid(4, zs, params.R0, *consts)
        cold = self._cold(4, params, f_act, f_und)
        for first, shared in [(3, True), (14, True), (15, False),
                              (31, False)]:
            self._cold(first, params, f_act, f_und)
            hits = _kernels._psi_table.cache_info().hits
            screen = _kernels.phi_mode_grid(4, zs, params.R0, *consts)
            assert _kernels._psi_table.cache_info().hits == hits + shared
            for got, ref in zip(screen, cold_screen):
                assert np.array_equal(got, ref)
            assert repr(mode_spectrum(4, params, f_act, f_und)) == repr(cold)

    def test_modes_around_shared_top_warm_equal_cold(self, params, f_act,
                                                      f_und):
        # Modes 13 and 14 read the top-16 table, 15 and 16 the top-32 one.
        # Run in one process in either order, each mode gives the spectrum
        # it gives after a cleared cache, and each top is built once.
        modes = (13, 14, 15, 16)
        cold = {m: repr(self._cold(m, params, f_act, f_und)) for m in modes}
        for order in (modes, modes[::-1]):
            _kernels._psi_table.cache_clear()
            warm = {m: repr(mode_spectrum(m, params, f_act, f_und))
                    for m in order}
            assert _kernels._psi_table.cache_info().misses == 2
            assert warm == cold

    def test_rows_read_only(self):
        zs = np.linspace(-5.0, 5.0, 7) + 0.5j
        rows = _kernels._psi_table(4, 1.0, zs.tobytes())
        assert rows.shape == (5, zs.size)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        with pytest.raises(ValueError):
            rows[1:4][0, 0] = 0.0


class TestModeSpectrum:
    def test_mode0_matches_j1_roots(self, params, f_act, f_und, j1_roots):
        r2 = params.R0 ** 2
        region = (-1.05 * j1_roots[3] ** 2 / r2, 0.5 / r2, -2.0, 2.0)
        spec = mode_spectrum(0, params, f_act, f_und, region=region)
        expected = sorted(-x * x / r2 for x in j1_roots)
        assert len(spec.roots) == 4
        for got, ref in zip(spec.roots, expected):
            assert abs(got - ref) <= 1e-9

    def test_mode0_scaled_radius(self, f_act, f_und, j1_roots):
        p = ModelParams(a=0.6, gamma=2.0, chi_c=0.5, chi_u=1.0, R0=1.6,
                        M=2.0 * math.pi)
        j1 = j1_roots[:2]
        spec = mode_spectrum(0, p, f_act, f_und)
        expected = sorted(-x * x / p.R0 ** 2 for x in j1)
        got = [z for z in spec.roots if z.real >= expected[0] - 1.0]
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-9

    def test_mode1_subcritical_all_negative(self, params, f_act, f_und):
        star = chi_c_star(params, f_act, f_und)
        spec = mode_spectrum(1, params.with_chi_c(0.8 * star), f_act, f_und)
        assert spec.roots
        assert all(z.real < 0 for z in spec.roots)

    def test_mode1_supercritical_single_positive(self, params, f_act, f_und):
        star = chi_c_star(params, f_act, f_und)
        spec = mode_spectrum(1, params.with_chi_c(1.2 * star), f_act, f_und)
        positive = [z for z in spec.roots if z.real > 0]
        assert len(positive) == 1
        assert abs(positive[0]) < 2.0   # near the origin

    def test_roots_conjugate_closed(self, params, f_act, f_und):
        for m in range(6):
            spec = mode_spectrum(m, params, f_act, f_und)
            for z in spec.roots:
                if abs(z.imag) > 1e-8:
                    assert any(abs(z.conjugate() - w) <= 1e-6
                               for w in spec.roots)

    def test_residuals_recorded(self, params, f_act, f_und, monkeypatch):
        spec = mode_spectrum(1, params, f_act, f_und)
        assert len(spec.residuals) == len(spec.roots)
        assert all(r <= 1e-9 for r in spec.residuals)
        # Each recorded residual is exactly |value| / scale of the kernel at
        # the Newton end point it came from, over the default config's
        # modes and chi_c grid: at its root off the real axis, conjugate
        # partners included, and for a real root at the end point with the
        # same real part whose rounding-level imaginary part was dropped.
        ends = []
        accept = stability._accept_roots

        def recording(job_ends, region, **kw):
            ends.extend(job_ends)
            return accept(job_ends, region, **kw)

        monkeypatch.setattr(stability, "_accept_roots", recording)
        cfg = load_config(DEFAULT_CONFIG)
        rows = 0
        for m in range(9):
            for chi in cfg.analysis["chi_c_grid"]:
                p = cfg.params.with_chi_c(chi)
                ends.clear()
                spec = mode_spectrum(m, p, cfg.f_act, cfg.f_und)
                for z, res in zip(spec.roots, spec.residuals):
                    at = [z] if z.imag != 0.0 else [
                        e for e, _ in ends if e.real == z.real
                        and abs(e.imag) <= solvers.DEDUP_TOL]
                    assert any(res == abs(v) / max(s, 1e-300) for v, s in (
                        dispersion_kernel(m, e, p, cfg.f_act, cfg.f_und)
                        for e in at))
                    rows += 1
        assert rows == 162

    @pytest.mark.parametrize("m", [141, 148, 155])
    def test_mode_beyond_double_range_raises(self, params, f_act, f_und, m):
        # From m = 141 psi_{m+1} underflows near the roots; by m = 155 value
        # and scale underflow together, and subnormal pairs would pass the
        # relative residual test as roots.
        with pytest.raises(AccuracyError, match="double range"):
            mode_spectrum(m, params, f_act, f_und)

    def test_mode_140_out_of_rectangle_root_rejected(self, params, f_act,
                                                     f_und):
        # Newton walks from the seeds to the root at -20799.99, 260x
        # outside a rectangle with Re >= -80; the end point is rejected.
        spec = mode_spectrum(140, params, f_act, f_und)
        assert spec.roots == () and spec.principal is None

    def test_roots_inside_rectangle(self, params, f_act, f_und):
        # A screen with an absolute tolerance once accepted unmoved seed
        # points from m = 14 on and walked them to -327.19 (m = 16),
        # -494.69, -1831.97 and -10770.16.
        re_min, re_max, im_min, im_max = default_root_region(params)
        mre, mim = 0.02 * (re_max - re_min), 0.02 * (im_max - im_min)
        located = 0
        for m in (0, 1, 2, 5, 16, 20, 40, 100):
            for z in mode_spectrum(m, params, f_act, f_und).roots:
                assert re_min - mre <= z.real <= re_max + mre
                assert im_min - mim <= z.imag <= im_max + mim
                located += 1
        assert located == 9

    @pytest.mark.parametrize("draw, m, root", [(5, 2, -1.797180930837749),
                                               (14, 2, -7.421398576180333),
                                               (14, 5, -64.30169877898417)])
    def test_roots_found_from_raw_seeds(self, f_act, f_und, draw, m, root):
        # From raw seeds the kernel's scale can fall faster than |f| along
        # a good Newton step; a line search on |f| / scale stalled at
        # residuals of 0.15-0.75 here and lost these roots.
        p = list(_subcritical_draws(2))[draw]
        spec = mode_spectrum(m, p, f_act, f_und)
        assert min(abs(z - root) for z in spec.roots) <= 1e-12 * abs(root)


class TestOnePath:
    """``mode_spectrum`` is ``mode_spectra`` of one job, and that is the
    full root search on the scalar kernel, bit for bit."""

    @staticmethod
    def _full_search(m, p, f_act, f_und, region):
        fun_grid, kernel = _mode_kernels(m, p, f_act, f_und)
        return _spectrum(m, find_complex_roots(kernel, fun_grid, region,
                                               DEFAULT_SEEDS, conjugate=True))

    def test_default_sweep_matches_the_full_search(self):
        cfg = load_config(DEFAULT_CONFIG)
        jobs = _default_sweep_jobs(cfg)
        assert len(jobs) == 117
        for m, p, f_act, f_und in jobs:
            assert (repr(mode_spectrum(m, p, f_act, f_und))
                    == repr(self._full_search(m, p, f_act, f_und,
                                              default_root_region(p))))

    def test_criterion2_rectangle_matches_the_full_search(self):
        cfg = load_config(DEFAULT_CONFIG)
        r0, x = cfg.params.R0, float(J1_ZEROS[3])
        region = (1.05 * (-(x * x) / (r0 * r0)), 0.5 / r0 ** 2, -2.0, 2.0)
        located = 0
        for m in range(9):
            spec = mode_spectrum(m, cfg.params, cfg.f_act, cfg.f_und,
                                 region=region)
            assert repr(spec) == repr(self._full_search(
                m, cfg.params, cfg.f_act, cfg.f_und, region))
            located += len(spec.roots)
        assert located >= 4


class TestHalfPlaneScreen:
    """On a symmetric rectangle the screen reads Im z >= 0 only."""

    @staticmethod
    def _criterion4_draws():
        # The parameter sets criterion 4 draws on the default config.
        return _subcritical_draws(load_config(DEFAULT_CONFIG)
                                  .analysis["seed"] + 2)

    def test_criterion4_spectra_pair_exactly(self, f_act, f_und):
        # A full screen left a complex root's partner unfound in 9 of these
        # 120 spectra; the conjugates are now added exactly.
        for p in self._criterion4_draws():
            for m in range(1, 7):
                spec = mode_spectrum(m, p, f_act, f_und)
                pairs = dict(zip(spec.roots, spec.residuals))
                for z, rel in pairs.items():
                    if abs(z.imag) > 1e-6:
                        assert pairs.get(z.conjugate()) == rel

    @pytest.mark.parametrize("m, draw", [(1, None), (2, None), (4, None),
                                         (2, 0), (3, 1), (5, 2)])
    def test_full_screen_roots_found(self, params, f_act, f_und, m, draw):
        p = params if draw is None else list(self._criterion4_draws())[draw]
        fun_grid, kernel = _mode_kernels(m, p, f_act, f_und)
        region = default_root_region(p)
        full = find_complex_roots(kernel, fun_grid, region, DEFAULT_SEEDS)
        half = find_complex_roots(kernel, fun_grid, region, DEFAULT_SEEDS,
                                  conjugate=True)
        assert full
        pairs = dict(half)
        for z, rel in half:
            if abs(z.imag) > 1e-6:
                assert pairs.get(z.conjugate()) == rel
        for z, _ in full:
            assert min(abs(z - w) for w in pairs) <= 1e-10

    def test_asymmetric_region_screens_whole_grid(self, params, f_act,
                                                  f_und, j1_roots):
        region = (-1.05 * j1_roots[3] ** 2, 0.5, -1.0, 2.0)
        fun_grid, kernel = _mode_kernels(0, params, f_act, f_und)
        seen = []
        fun_grid_log = lambda zs: seen.append(zs.size) or fun_grid(zs)
        find_complex_roots(kernel, fun_grid_log, region, DEFAULT_SEEDS,
                           conjugate=True)
        assert seen == [DEFAULT_SEEDS[0] * DEFAULT_SEEDS[1]]
        spec = mode_spectrum(0, params, f_act, f_und, region=region)
        assert len(spec.roots) == 4
        for got, x in zip(spec.roots, j1_roots[::-1]):
            assert abs(got + x * x) <= 1e-9

    def test_odd_ny_reads_real_axis_row(self, params, f_act, f_und):
        seeds = (DEFAULT_SEEDS[0], DEFAULT_SEEDS[1] + 1)
        xs, ys, zs = _seed_grid(*default_root_region(params), *seeds, True)
        assert ys[0] == 0.0 and ys.size == seeds[1] // 2 + 1
        assert zs.size == xs.size * ys.size
        for m in range(5):
            even = mode_spectrum(m, params, f_act, f_und)
            odd = mode_spectrum(m, params, f_act, f_und, seeds=seeds)
            assert len(odd.roots) == len(even.roots) > 0
            for a, b in zip(odd.roots, even.roots):
                assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


def _default_sweep_jobs(cfg):
    """The (m, params, f_act, f_und) jobs of ``dispersion`` on a config."""
    return [(m, cfg.params.with_chi_c(chi), cfg.f_act, cfg.f_und)
            for m in range(cfg.analysis["mode_min"],
                           cfg.analysis["mode_max"] + 1)
            for chi in cfg.analysis["chi_c_grid"]]


class TestLockstepSweep:
    """``mode_spectra`` runs the Newton rule of every start in lockstep."""

    @staticmethod
    def _both_drives(jobs, monkeypatch):
        """Per job: its starts and end points under the one-point drive
        and under the lockstep, each forced through
        ``LOCKSTEP_MIN_STARTS``, and the two spectra lists."""
        counts, single, locked = [], [], []

        def seed_starts(*args, **kwargs):
            starts = solvers._seed_starts(*args, **kwargs)
            counts.append(starts.size)
            return starts

        def one_point(evaluate, z0, tol):
            end = _complex_newton(evaluate, z0, tol)
            single.append((complex(z0), end))
            return end

        def lockstep(evaluate, starts, tol):
            ends = solvers._lockstep_newton(evaluate, starts, tol)
            locked.append((list(starts), ends))
            return ends

        monkeypatch.setattr(stability, "_seed_starts", seed_starts)
        monkeypatch.setattr(stability, "_complex_newton", one_point)
        monkeypatch.setattr(stability, "_lockstep_newton", lockstep)
        monkeypatch.setattr(stability, "LOCKSTEP_MIN_STARTS", 10 ** 9)
        one = mode_spectra(jobs)
        assert not locked
        monkeypatch.setattr(stability, "LOCKSTEP_MIN_STARTS", 0)
        sweep = mode_spectra(jobs)
        assert len(locked) == 1
        counts = counts[:len(jobs)]
        assert len(single) == sum(counts)
        starts, ends = locked[0]
        # The screen is the same: the lockstep starts are bitwise the ones
        # the one-point drive ran Newton from.
        assert (np.array(starts).tobytes()
                == np.array([z0 for z0, _ in single]).tobytes())
        pairs = list(zip(starts, ends))
        per_job, k = [], 0
        for n in counts:
            per_job.append((single[k:k + n], pairs[k:k + n]))
            k += n
        return per_job, one, sweep

    @pytest.mark.parametrize("source", ["criterion4", "criterion4-held-out",
                                        "default-sweep"])
    def test_drives_agree_on_every_start(self, source, f_act, f_und,
                                         monkeypatch):
        cfg = load_config(DEFAULT_CONFIG)
        if source == "default-sweep":
            jobs = _default_sweep_jobs(cfg)
        else:
            seed = cfg.analysis["seed"] if source == "criterion4" else 11
            jobs = [(m, p, f_act, f_und)
                    for p in _subcritical_draws(seed + 2)
                    for m in range(1, 7)]
        per_job, one, sweep = self._both_drives(jobs, monkeypatch)
        starts = 0
        for (_, p, _, _), (single, locked), a, b in zip(jobs, per_job, one,
                                                        sweep):
            region = default_root_region(p)
            for (_, (z1, r1)), (_, (z2, r2)) in zip(single, locked):
                kept1 = bool(_accept_roots([(z1, r1)], region, conjugate=True))
                kept2 = bool(_accept_roots([(z2, r2)], region, conjugate=True))
                assert kept1 == kept2
                assert abs(z1 - z2) <= 1e-13 * abs(z1)
                starts += 1
            assert len(a.roots) == len(b.roots)
            assert (a.principal is None) == (b.principal is None)
            if a.principal is not None:
                assert a.roots.index(a.principal) == b.roots.index(b.principal)
                assert abs(a.principal - b.principal) <= 1e-13 * abs(a.principal)
            for za, zb in zip(a.roots, b.roots):
                assert abs(za - zb) <= 1e-13 * abs(za)
        assert starts == sum(len(single) for single, _ in per_job) > len(jobs)

    def test_spectrum_independent_of_its_sweep(self, tmp_path):
        # Each start runs its own kernel chain, so the m <= 2 spectra of a
        # mode_max = 2 sweep are those of the mode_max = 8 sweep; a sweep
        # of four spectra, below the lockstep crossover, runs the scalar
        # kernel and agrees with them to rounding.
        rows = {}
        for name, sets in (("m2", ["analysis.mode_max=2"]),
                           ("m8", ["analysis.mode_max=8"]),
                           ("small", ["analysis.mode_max=1",
                                      "analysis.chi_c_grid=[0.5, 1.0]"])):
            out = tmp_path / name
            argv = ["dispersion", "-c", str(DEFAULT_CONFIG), "-o", str(out)]
            for item in sets:
                argv += ["--set", item]
            assert main(argv) == 0
            lines = (out / "dispersion.csv").read_text().splitlines()[1:]
            rows[name] = [line.split(",") for line in lines]
        asked = {"m2": lambda m, chi_c: m <= 2,
                 "small": lambda m, chi_c: m <= 1 and chi_c in (0.5, 1.0)}
        for name, wanted in asked.items():
            ref = [b for b in rows["m8"] if wanted(int(b[0]), float(b[1]))]
            assert len(rows[name]) == len(ref) > 0
            for a, b in zip(rows[name], ref):
                assert a[:2] == b[:2] and a[4] == b[4]
                za = complex(float(a[2]), float(a[3]))
                zb = complex(float(b[2]), float(b[3]))
                assert abs(za - zb) <= 1e-13 * abs(za)

    @pytest.mark.parametrize("modes,min_starts", [
        pytest.param(modes, min_starts, id=f"{prefix}modes{i}")
        for prefix, min_starts in (("", 0), ("one-point-", 10 ** 9))
        for i, modes in enumerate([(141,), (148,), (141, 148), (1, 148)])])
    def test_mode_beyond_double_range_raises(self, params, f_act, f_und,
                                             modes, min_starts, monkeypatch):
        monkeypatch.setattr(stability, "LOCKSTEP_MIN_STARTS", min_starts)
        with pytest.raises(AccuracyError, match="double range"):
            mode_spectra([(m, params, f_act, f_und) for m in modes])

    def test_empty_sweep(self):
        assert mode_spectra([]) == []

    def test_driver_follows_the_start_count(self, monkeypatch):
        # classify's 18 starts run on the scalar kernel, and the default
        # dispersion sweep's 234 on the array kernel.
        calls = {"phi_mode_slope": 0, "phi_mode_slope_points": 0}
        for name in calls:
            def counted(*args, _name=name, _fun=getattr(_kernels, name)):
                calls[_name] += 1
                return _fun(*args)
            monkeypatch.setattr(_kernels, name, counted)
        cfg = load_config(DEFAULT_CONFIG)
        classify(cfg.params, cfg.f_act, cfg.f_und)
        assert calls["phi_mode_slope_points"] == 0
        assert calls["phi_mode_slope"] > 0
        calls["phi_mode_slope"] = 0
        mode_spectra(_default_sweep_jobs(cfg))
        assert calls["phi_mode_slope"] == 0
        assert calls["phi_mode_slope_points"] > 0


class TestZeroModes:
    def test_dimensions(self, params, f_act, f_und):
        dims = [zero_eigenspace_dimension(m, params, f_act, f_und)
                for m in range(9)]
        assert dims[0] == 2 and dims[1] == 1
        assert all(d == 0 for d in dims[2:])

    def test_dimensions_random_subcritical(self, f_act, f_und):
        rng = np.random.default_rng(46)
        for _ in range(5):
            p = _random_params(rng, f_act, chi_factor=rng.uniform(0.1, 0.9))
            total = sum(zero_eigenspace_dimension(m, p, f_act, f_und)
                        for m in (0, 1))
            assert total == 3

    def test_mode0_basis(self, params, f_act, f_und):
        # The area and concentration modes (rho_hat, c_hat, P_hat) are
        # null vectors of the mode-0 constraint rows.
        mat = _zero_constraint_matrix(0, params, f_act, f_und)
        fp = float(f_act.d1(params.c0))
        for vec in ([1.0, 0.0, -params.gamma / params.R0 ** 2],
                    [0.0, 1.0, params.chi_c * fp]):
            assert np.max(np.abs(mat @ vec)) <= 1e-12 * max(
                np.max(np.abs(mat)), 1.0)

    def test_mode1_translation(self, params, f_act, f_und):
        mat = _zero_constraint_matrix(1, params, f_act, f_und)
        assert np.array_equal(mat @ [1.0, 0.0, 0.0], np.zeros(3))

    def test_mode2_empty(self, params, f_act, f_und):
        # For m >= 2 the rows are nonsingular, det = -m^2 (m^2 - 1) gamma
        # / R0^2, so no nonzero (rho_hat, c_hat, P_hat) is neutral.
        for m in range(2, 9):
            det = np.linalg.det(_zero_constraint_matrix(m, params, f_act,
                                                        f_und))
            ref = -m * m * (m * m - 1) * params.gamma / params.R0 ** 2
            assert abs(det - ref) <= 1e-12 * abs(ref)


class TestSweepAndThreshold:
    def test_threshold_matches_closed_form(self, params, f_act, f_und):
        star = chi_c_star(params, f_act, f_und)
        located = refine_threshold(params, f_act, f_und, tol=1e-8)
        assert abs(located - star) / star <= 1e-6

    def test_threshold_below_double_spacing_ends(self, params, f_act, f_und):
        # A tol finer than the spacing of doubles near chi_c* ends the
        # bisection at adjacent doubles instead of looping forever.
        star = chi_c_star(params, f_act, f_und)
        located = refine_threshold(params, f_act, f_und, tol=1e-300)
        assert abs(located - star) / star <= 1e-6
        coarse = refine_threshold(params, f_act, f_und, tol=1e-8)
        assert abs(located - coarse) <= 1e-8

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8])
    def test_threshold_rejects_nonpositive_tol(self, params, f_act, f_und,
                                               tol):
        # A NaN tol would return the bracket's midpoint, which is chi_c*
        # itself, without bisecting at all.
        with pytest.raises(ValueError, match="tol must be positive"):
            refine_threshold(params, f_act, f_und, tol=tol)

    def test_threshold_at_a_tol_above_the_bracket_is_not_chi_c_star(
            self, params, f_act, f_und):
        # A tol wider than the first bracket stops before any step, at an
        # end of the bracket where the root was evaluated, not at its
        # midpoint, which is chi_c* itself.
        star = chi_c_star(params, f_act, f_und)
        located = refine_threshold(params, f_act, f_und, tol=1e308)
        assert located != star
        assert located in (0.5 * star, 1.5 * star)

    @staticmethod
    def _criterion_1_sets():
        # The ten parameter sets of acceptance criterion 1 at the default
        # seed.
        rng = np.random.default_rng(20230915)
        return [_sample_params(rng) for _ in range(10)]

    def test_threshold_takes_few_root_evaluations(self, f_act, f_und,
                                                  monkeypatch):
        # Brent's method needs 7 evaluations on each set at tol = 1e-8
        # (bisection would need about 31).
        calls = []
        principal_root = stability._principal_root

        def counted(*args, **kwargs):
            calls.append(1)
            return principal_root(*args, **kwargs)

        monkeypatch.setattr(stability, "_principal_root", counted)
        for params in self._criterion_1_sets():
            calls.clear()
            refine_threshold(params, f_act, f_und, tol=1e-8)
            assert len(calls) <= 10

    def test_threshold_is_within_tol_of_a_sign_change(self, f_act, f_und):
        # Re(principal root) changes sign across [x - tol, x + tol].
        tol = 1e-8
        for params in self._criterion_1_sets():
            x = refine_threshold(params, f_act, f_und, tol=tol)
            below, above = (
                stability._principal_root(params.with_chi_c(chi), f_act,
                                          f_und).real
                for chi in (x - tol, x + tol))
            assert below * above <= 0.0, (x, below, above)

    def test_doubling_chi_u_shifts_threshold(self, f_act):
        f_und = linear_undercooling()
        base = ModelParams(a=0.7, gamma=1.5, chi_c=0.0, chi_u=0.5, R0=1.2,
                           M=1.4 * math.pi)
        doubled = ModelParams(a=0.7, gamma=1.5, chi_c=0.0, chi_u=1.0, R0=1.2,
                              M=1.4 * math.pi)
        t1 = refine_threshold(base, f_act, f_und, tol=1e-8)
        t2 = refine_threshold(doubled, f_act, f_und, tol=1e-8)
        s1 = chi_c_star(base, f_act, f_und)
        s2 = chi_c_star(doubled, f_act, f_und)
        assert abs((t2 - t1) - (s2 - s1)) <= 1e-6 * s2

    def test_sweep_sign_change_brackets_threshold(self, params, f_act, f_und):
        star = chi_c_star(params, f_act, f_und)
        grid = list(np.linspace(0.8 * star, 1.2 * star, 9))
        spectra = mode_spectra([(1, params.with_chi_c(chi), f_act, f_und)
                                for chi in grid])
        res = [spec.principal.real for spec in spectra]
        signs = np.sign(res)
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        lo, hi = grid[flips[0]], grid[flips[0] + 1]
        assert lo <= star <= hi

    def test_sweep_at_zero_activity(self, params, f_act, f_und):
        first = mode_spectrum(1, params.with_chi_c(0.0), f_act, f_und).principal
        assert first is not None
        assert first.real < 0 and abs(first.imag) <= 1e-8


class TestClassify:
    def test_subcritical_stable(self, params, f_act, f_und):
        star = chi_c_star(params, f_act, f_und)
        report = classify(params.with_chi_c(0.5 * star), f_act, f_und)
        assert report.stable

    def test_supercritical_unstable_mode1(self, params, f_act, f_und):
        star = chi_c_star(params, f_act, f_und)
        report = classify(params.with_chi_c(2.0 * star), f_act, f_und)
        assert not report.stable
        assert report.margin_mode == 1
        assert report.margin > 0

    def test_neutral_at_threshold(self, params, f_act, f_und):
        star = chi_c_star(params, f_act, f_und)
        report = classify(params.with_chi_c(star), f_act, f_und)
        assert abs(report.margin) <= 1e-6

    def test_mmax_validation(self, params, f_act, f_und):
        with pytest.raises(ValueError):
            classify(params, f_act, f_und, m_max=1)

    def test_no_located_root_is_no_verdict(self, params, f_act, f_und):
        # Every root of these parameters has Re < 0, so none lies in this
        # rectangle; "stable" would then rest on nothing.
        with pytest.raises(SolverError, match="no roots located"):
            classify(params, f_act, f_und, region=(0.0, 1.0, 0.0, 1.0))


def _slope_and_forms(p, f_act, f_und):
    # d Re(lambda_1)/d chi_c at the threshold by central differences of
    # mode_spectrum, beside the two closed forms it is weighed against:
    # with the undercooling factor 1 + chi_u f_und'(0)/R0 and without it.
    star = chi_c_star(p, f_act, f_und)
    h = 1e-4 * star
    up, down = (mode_spectrum(1, p.with_chi_c(star + sign * h), f_act,
                              f_und).principal.real
                for sign in (1.0, -1.0))
    base = 4.0 * p.a * p.c0 * float(f_act.d1(p.c0)) / p.R0 ** 2
    b1 = 1.0 + p.chi_u * float(f_und.d1(0.0)) / p.R0
    return (up - down) / (2.0 * h), base / b1, base


class TestOpenQuestions:
    def test_slope_matches_quadratic_expansion(self, params, f_act, f_und):
        # The stabilising effect of undercooling, in numbers: at the
        # threshold d Re(lambda_1)/d chi_c is the quadratic-in-z expansion
        # of the mode-1 dispersion function,
        # 4 a c0 f_act'(c0) / (R0^2 (1 + chi_u f_und'(0)/R0)); the form
        # without the undercooling factor misses it.
        slope, undercooled, free = _slope_and_forms(params, f_act, f_und)
        assert abs(slope - undercooled) <= 1e-4 * abs(undercooled)
        assert abs(slope - free) >= 0.1 * abs(free)

    def test_slope_candidates_coincide_without_undercooling(self, f_act,
                                                            f_und):
        # At chi_u = 0 the two closed forms are one, and the measured
        # slope matches it.
        p = ModelParams(a=0.8, gamma=2.0, chi_c=0.5, chi_u=0.0, R0=1.0,
                        M=math.pi)
        slope, undercooled, free = _slope_and_forms(p, f_act, f_und)
        assert undercooled == free
        assert abs(slope - undercooled) <= 1e-4 * abs(undercooled)

    def test_extended_range_report(self, f_act, f_und):
        # The proven non-positive-spectrum range stops at 1/(a c0 f'(c0));
        # whether it extends to the full subcritical interval is unproven.
        # Scan the gap empirically and report; nothing in the library
        # depends on the outcome.
        rng = np.random.default_rng(47)
        worst = -math.inf
        for _ in range(4):
            p = _random_params(rng, f_act)
            star = chi_c_star(p, f_act, f_und)
            bound = 1.0 / (p.a * p.c0 * float(f_act.d1(p.c0)))
            if bound >= star:
                continue
            chi = rng.uniform(bound, star)
            for m in range(1, 5):
                spec = mode_spectrum(m, p.with_chi_c(chi), f_act, f_und)
                for z in spec.roots:
                    worst = max(worst, z.real)
        assert math.isfinite(worst)
        print(f"extended-range scan: max Re(lambda) = {worst:.3e} "
              f"(conjectured <= 0)")
