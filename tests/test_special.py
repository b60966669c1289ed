"""Modified Bessel evaluation, I_m(z) = z^m psi_m(z^2), and the psi
recurrence of the dispersion kernel behind it: its start order, its
rescaling, and its scalar and array forms."""

import math
import sys
import warnings

import numpy as np
import pytest

from cellwave import AccuracyError, bessel_I
from cellwave import _kernels

# Frozen 40-digit oracle values.
I0_AT_1 = 1.2660658777520083356
I1_AT_2 = 1.5906368546373290634


class TestBesselI:
    def test_series_leading_terms(self):
        assert bessel_I(0, 0.0) == 1.0
        for m in range(1, 9):
            assert bessel_I(m, 0.0) == 0.0

    def test_known_values(self):
        assert abs(bessel_I(0, 1.0) - I0_AT_1) <= 1e-14
        assert abs(bessel_I(1, -2.0) - (-I1_AT_2)) <= 1e-14
        assert abs(bessel_I(1, -2.0) + bessel_I(1, 2.0)) <= 1e-15

    def test_oracle_sample(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(150):
            m = int(rng.integers(0, 9))
            r = 20.0 * math.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * math.pi)
            z = r * complex(math.cos(th), math.sin(th))
            ref = complex(mp.besseli(m, mp.mpc(z.real, z.imag)))
            worst = max(worst, abs(bessel_I(m, z) - ref) / (1.0 + abs(ref)))
        assert worst <= 1e-12

    def test_parity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = int(rng.integers(0, 9))
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z) > 20:
                z *= 20 / abs(z)
            val = bessel_I(m, z)
            dev = abs(bessel_I(m, -z) - (-1.0) ** m * val)
            assert dev <= 1e-12 * (1.0 + abs(val))

    def test_recurrence(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
            if abs(z) < 0.1:
                z += 1.0
            lhs = bessel_I(m - 1, z) - bessel_I(m + 1, z)
            rhs = (2.0 * m / z) * bessel_I(m, z)
            scale = max(abs(lhs), abs(rhs), abs(bessel_I(m - 1, z)))
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-300)

    def test_derivative_identity(self):
        # I_0'(x) = I_1(x) by Richardson-extrapolated central differences.
        # At step 1e-6 the double-precision rounding floor eps*|I_0|/h is
        # ~2e-10, so that step certifies to ~1e-9; the rounding-optimal
        # step 1e-3 certifies the identity to 1e-10.
        for x in (0.3, 1.7, 6.2, 11.5):
            ref = bessel_I(1, x)
            d6 = lambda hh: (bessel_I(0, x + hh) - bessel_I(0, x - hh)) / (2 * hh)
            rich6 = (4.0 * d6(0.5e-6) - d6(1e-6)) / 3.0
            assert abs(rich6 - ref) <= 2e-9 * (1.0 + abs(ref))
            rich3 = (4.0 * d6(0.5e-3) - d6(1e-3)) / 3.0
            assert abs(rich3 - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_out_of_range(self):
        with pytest.raises(AccuracyError):
            bessel_I(0, 150.0)
        with pytest.raises(AccuracyError):
            bessel_I(0, complex(float("nan"), 0.0))
        with pytest.raises(ValueError):
            bessel_I(-1, 1.0)

    def test_high_orders(self):
        # At |z| = 100 the order 150 still matches mpmath; at order 154 on
        # the imaginary axis psi_m(z^2) is subnormal, and from order 155 on
        # the real axis z^m overflows: both raise AccuracyError.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = complex(mp.besseli(150, 100))
        assert abs(bessel_I(150, 100.0) - ref) <= 1e-14 * abs(ref)
        for m, z in [(154, 100j), (160, 100.0)]:
            with pytest.raises(AccuracyError, match="double range"):
                bessel_I(m, z)

    def test_results_are_normal_or_typed_errors(self):
        # Each value is a normal double, or exactly zero at z = 0; where
        # psi_m(z^2), z^m or their product underflows or overflows the
        # result is AccuracyError, never OverflowError, ZeroDivisionError
        # or a subnormal value.
        zs = [0.0, 1e-300, 1e-3 + 1e-3j, 0.5, 20j, -60.0 + 70.0j, 100.0,
              100j, -100.0]
        orders = (0, 1, 8, 60, 120, 154, 155, 170, 400)
        raised = 0
        for m in orders:
            for z in zs:
                try:
                    val = bessel_I(m, z)
                except AccuracyError:
                    raised += 1
                    continue
                assert (abs(val) >= sys.float_info.min
                        or val == 0.0 and z == 0.0 and m >= 1), (m, z, val)
        assert 0 < raised < len(orders) * len(zs)

    def test_order_must_be_an_integer(self):
        for order in (1.5, 1.0, np.float64(2.0), "1"):
            with pytest.raises(ValueError):
                bessel_I(order, 1.0)
        for order in (np.int64(1), np.int32(1), np.uint8(1)):
            assert bessel_I(order, 1.0) == bessel_I(1, 1.0)


class TestMillerChain:
    def test_start_order_no_worse_than_old_start(self, monkeypatch):
        # psi's recurrence starts at max(top, |w|) + 30 + |w|/2; it used to
        # start at top + 40 + 2|w|, kept here as the reference.  On a fixed
        # sample with 4 <= |w| <= 120, |arg w| <= pi/2 and top <= 160, the
        # error in the scale of I_k = w^k psi_k, relative to the largest
        # kept I_k, may be at most twice the old start's, or 1e-15.  The
        # orders with the largest truncation error (the top two), the
        # turning point k ~ |w| and the low orders are checked against a
        # 30-digit oracle at the rounded u = w^2, wherever psi_k is a
        # normal double; the largest kept I_k is read off the chain itself.
        mp = pytest.importorskip("mpmath")
        new_start = _kernels._miller_start
        assert new_start(160, 120.0) == 160 + 30 + 60
        assert new_start(0, 120.0) == 120 + 30 + 60
        assert new_start(8, 4.5) == 8 + 30 + 2
        rng = np.random.default_rng(81)
        n = 120
        ws = rng.uniform(4.0, 120.0, n) * np.exp(
            1j * rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n))
        ws = np.concatenate([ws, [4.0, 120.0, 120j, -120j]])
        tops = np.concatenate([rng.integers(0, 161, n), [160, 0, 160, 0]])
        with mp.workdps(30):
            for w, top in zip(map(complex, ws), map(int, tops)):
                u = w * w
                got = np.array(_kernels._psi_scalar(range(top + 1), u))
                monkeypatch.setattr(_kernels, "_miller_start",
                                    lambda m, az: m + 40 + int(2.0 * az))
                old = np.array(_kernels._psi_scalar(range(top + 1), u))
                monkeypatch.setattr(_kernels, "_miller_start", new_start)
                ks = [k for k in sorted({0, min(1, top), top // 2,
                                         max(top - 1, 0), top,
                                         min(int(abs(w)), top)})
                      if abs(got[k]) >= sys.float_info.min]
                exact_w = mp.sqrt(mp.mpc(u.real, u.imag))
                ref = np.array([complex(mp.besseli(k, exact_w) / exact_w ** k)
                                for k in ks])
                # |w|^k / max_j |w^j old_j|, in logarithms: w^k overflows
                log_w = math.log(abs(w))
                with np.errstate(divide="ignore"):
                    log_big = np.max(np.log(np.abs(old))
                                     + log_w * np.arange(top + 1))
                scale = np.exp(log_w * np.array(ks) - log_big)
                err = np.max(np.abs(got[ks] - ref) * scale)
                err_old = np.max(np.abs(old[ks] - ref) * scale)
                assert err <= max(2.0 * err_old, 1e-15), (w, top)

    def test_rescale_path(self):
        # Started at 1e-250, the unnormalised psi grow by more than 1e500
        # on the way down, so the 1e250 rescale fires: for psi_k(1) from
        # order 330 at orders 143 and 29, among the kept orders, and for
        # psi_k(4e4) (|w| = 200) from order 330 at orders 148 and 48, above
        # them.  psi_k(1) = I_k(1); psi_150(1) would be subnormal.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            got = _kernels._psi_scalar(range(301), 1.0)
            assert len(got) == 301
            for k in list(range(9)) + [50, 100, 140]:
                ref = float(mp.besseli(k, 1))
                assert abs(got[k] - ref) <= 1e-14 * ref
            got = _kernels._psi_scalar(range(3), 4e4)
            for k in range(3):
                ref = float(mp.besseli(k, 200) / mp.mpf(200) ** k)
                assert abs(got[k] - ref) <= 1e-14 * ref


class TestPsiChain:
    def test_matches_mpmath(self):
        # The kernel's psi_k(u) = I_k(w)/w^k, u = w^2, from the scalar chain
        # and from the seed-screen table, against the entire form
        # 0F1(; k+1; u/4) / (2^k k!) at 40 digits.  psi_tilde runs the same
        # chain, so this is the check that is independent of it.  Off the
        # negative real axis each value is compared with itself; on it
        # I_k(w) = w^k psi_k has the zeros of J_k, so there each I_k is
        # compared with the pass's largest.  At and next to u = 0 psi_k is
        # 2^-k / k! to within 1e-15.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        tiny = np.array([0.0, 1e-300, 1e-20, -1e-20, 1e-8j])
        ring = 16.0 * np.exp(2j * np.pi * np.arange(16) / 16 + 0.05j)
        off_axis = np.concatenate([tiny[-1:], ring, rng.uniform(0.5, 360.0, 20)
                                   * np.exp(1j * rng.uniform(-3.0, 3.0, 20))])
        negative = np.linspace(-360.0, -0.1, 30) + 0j
        wide = np.concatenate([[17.0, 1e5, 1e5j, -1e5j],
                               rng.uniform(17.0, 1e5, 12)
                               * np.exp(1j * rng.uniform(-3.0, 3.0, 12))])
        small = np.concatenate([tiny, ring, [-16.0, -9.0, 3.0 + 1.0j]])
        cases = [(tiny[:4], range(17), 1e-15), (off_axis, range(17), 1e-14),
                 (negative, range(17), 1e-14), (wide, range(17), 1e-13),
                 (small, range(126, 143), 1e-14)]
        with mp.workdps(40):
            for us, ks, tol in cases:
                top = 16 if ks[-1] <= 16 else 256
                _kernels._psi_table.cache_clear()
                table = _kernels._psi_table(top, 1.0, us.tobytes())[ks[0]:]
                for i, u in enumerate(map(complex, us)):
                    ref = np.array([complex(
                        mp.hyp0f1(k + 1, mp.mpc(u) / 4)
                        / (mp.mpf(2) ** k * mp.factorial(k))) for k in ks])
                    for got in (np.array(_kernels._psi_scalar(ks, u)),
                                table[:len(ks), i]):
                        err = np.abs(got - ref)
                        if us is negative:
                            wk = abs(u) ** (np.array(ks) / 2.0)
                            assert np.all(err * wk
                                          <= tol * np.max(np.abs(ref) * wk))
                        else:
                            assert np.all(err <= tol * np.abs(ref))

    def test_beyond_double_range_is_typed_and_silent(self, capfd):
        # At u = 6e5, e^w with w = sqrt(u) passes the double range: the
        # scalar kernel, psi_tilde and the array kernel each raise
        # AccuracyError, and none writes a floating-point warning (pytest
        # would collect a warning away from stderr, so warnings are
        # errors here).
        one = np.array([1.0])
        calls = [lambda: _kernels.phi_mode_slope(2, 6e5, 1.0, 1.0, 1.0, 1.0),
                 lambda: _kernels.psi_tilde(2, 6e5),
                 lambda: _kernels.phi_mode_slope_points(
                     np.array([2]), np.array([6e5 + 0j]), one, one, one, one)]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(AccuracyError, match="double range"):
                    call()
        assert capfd.readouterr().err == ""
