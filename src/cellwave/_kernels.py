"""Low-level numeric kernels in plain Python and numpy.

The hot inner loops of the package live here: modified-Bessel evaluation for
complex arguments and the per-mode dispersion kernel.  Every modified-Bessel
value in the package comes from one algorithm, Miller's recurrence run on
the entire function psi_k(u) = I_k(w)/w^k, u = w^2, which forms no power of
w and so needs no series near u = 0 (``special.bessel_I`` multiplies by
w^k afterwards).  It is written twice, once as a scalar loop
(``_psi_scalar``, behind ``psi_tilde``, ``bessel_I`` and the root Newton of
one spectrum, which takes every order it reads and its analytic slope from
one pass) and once over arrays (``_psi_chain``), where each point runs
from its own start order, so a point's values never depend on the points
it shares a call with.  The seed screen, ``phi_mode_grid``, reads one
read-only table per rest radius and grid: modes 0..14 share the table
up to order ``PSI_SHARED_TOP`` (16), and higher modes read power-of-two
tops above it; the lockstep Newton of a sweep calls
``phi_mode_slope_points`` for value, scale and slope at arbitrary
points, each with its own mode.
"""

from __future__ import annotations

import cmath
import functools
import sys

import numpy as np

from .errors import AccuracyError

#: The kernels are never compiled; recorded by tools that report the path.
NUMBA_ENABLED = False

#: Smallest top order of the seed-screen psi table, so that modes
#: 0..PSI_SHARED_TOP - 2 (every default mode) read one table.
PSI_SHARED_TOP = 16

_DOUBLE_MIN = sys.float_info.min      # smallest normal double


# ---------------------------------------------------------------------------
# Modified Bessel functions I_m for complex argument.
# ---------------------------------------------------------------------------

def _miller_start(mmax, az):
    """Start order of the psi recurrence for orders 0..mmax at |w| = az.

    max(mmax, |w|) + 30 + |w|/2; ``_psi_scalar`` and ``_psi_chain`` start
    there.  The recurrence on psi_k(u) = I_k(w)/w^k is the one on I_k
    scaled order by order.  Run down from order N, it carries the wanted
    minimal solution I_k plus a multiple of K_k that shrinks as k falls,
    so a kept order k is off by about |I_N / I_k|^2 relative, and the
    normalising sum misses the tail beyond N, about |I_N / e^w| (Gautschi,
    SIAM Rev. 9, 1967).  Past the turning point k ~ |w| the orders fall off
    faster than geometrically, so for |arg w| <= pi/2 both are far below
    double precision 30 + |w|/2 orders above max(mmax, |w|); the error
    left is the rounding of the steps.
    """
    return max(mmax, int(az)) + 30 + int(az) // 2


def psi_tilde(k, u):
    """Entire even part of I_k: psi_k(u) = I_k(w)/w^k with u = w^2.

    Branch-free in u, which is what makes the dispersion kernel single
    valued across the negative real axis.
    """
    return _psi_scalar(range(k, k + 1), u)[0]


def _psi_scalar(ks, u):
    """psi_k(u) at one point for the consecutive orders ks, from one pass.

    Miller's recurrence on psi itself, psi_{k-1} = 2k psi_k + u psi_{k+1}
    (I_{k-1} - I_{k+1} = (2k/w) I_k divided by w^{k-1}), run down from
    ``_miller_start(ks[-1], |w|)`` at w = sqrt(u) and normalised with
    e^w = 2 acc_0 - psi_0, where acc_k = psi_k + w acc_{k+1} is the Horner
    form of sum_{k>=0} w^k psi_k = sum_{k>=0} I_k; for Re w >= 0 that
    normalisation is cancellation-free.  No power of w is formed, so u = 0
    and high orders at small |u| take the same steps as any other point.
    Whenever the unnormalised psi_k passes 1e250 in magnitude, everything
    accumulated so far is scaled by 1e-250.  Raises ``AccuracyError`` when
    e^w leaves the double range (Re w above about 709.78).
    """
    top = ks[-1]
    w = cmath.sqrt(u)        # principal root: Re w >= 0, as the sum needs
    pp = 0.0 + 0.0j          # unnormalised psi_{k+1}
    pc = 1e-250 + 0.0j       # unnormalised psi_k, k = start
    acc = pc                 # unnormalised acc_k
    out = []                 # unnormalised psi_top, ..., psi_0
    for k in range(_miller_start(top, abs(w)), 0, -1):
        pp, pc = pc, 2 * k * pc + u * pp
        acc = pc + w * acc
        if k <= top + 1:
            out.append(pc)
        if abs(pc) > 1e250:
            pp *= 1e-250
            pc *= 1e-250
            acc *= 1e-250
            out = [v * 1e-250 for v in out]
    try:
        factor = cmath.exp(w) / (2.0 * acc - pc)
    except OverflowError:
        raise AccuracyError(
            f"psi at u={u:.6g}: e^w leaves the double range") from None
    return [out[top - k] * factor for k in ks]


def _psi_chain(tops, u):
    """psi_0(u)..psi_T(u), T = max(tops), by one Miller chain per point,
    one row per order and one column per point.

    The array form of ``_psi_scalar``: point i runs down from its own
    ``_miller_start(tops[i], |w_i|)`` and is normalised with e^w by its own
    running sum, so its values never depend on which other points share
    the call.  A chain holds zeros until its start order comes up.  Only
    an overflowing e^w (Re w above about 709) makes an entry non-finite,
    and then every order of that point, without a floating-point warning.
    """
    w = np.sqrt(u)           # principal root: Re w >= 0, as the sum needs
    aw = np.abs(w)
    # _miller_start(tops[i], aw[i]) point by point
    starts = np.maximum(tops, aw.astype(int)) + 30 + aw.astype(int) // 2
    order = np.argsort(starts, kind="stable")
    firsts, at = np.unique(starts[order], return_index=True)
    begins = dict(zip(firsts.tolist(), np.split(order, at[1:])))
    # |psi_{k-1}| <= 2k |psi_k| + |u| |psi_{k+1}|, so from 1e-250 the
    # larger of two neighbours grows by at most 2k + |u| a step; unless
    # that product can pass 1e500 no step reaches the 1e250 rescaling.
    steps = np.arange(1, max(begins) + 1)
    rescale = (np.log(2.0 * steps + np.abs(u).max()).sum()
               > 500.0 * np.log(10.0))
    top = int(tops.max())
    pp = np.zeros(u.size, dtype=np.complex128)
    pc = np.zeros(u.size, dtype=np.complex128)
    acc = np.zeros(u.size, dtype=np.complex128)
    out = np.zeros((top + 1, u.size), dtype=np.complex128)
    for k in range(max(begins), 0, -1):
        new = begins.get(k)
        if new is not None:
            pc[new] = 1e-250
            acc[new] = 1e-250
        pp, pc = pc, 2 * k * pc + u * pp
        # Not in place: numpy's in-place complex multiply rounds
        # differently with the array length, and a column must not
        # depend on the points it shares the call with.
        acc = pc + w * acc
        if k <= top + 1:
            out[k - 1] = pc
        if not rescale:
            continue
        huge = np.abs(pc) > 1e250
        if huge.any():
            pp[huge] *= 1e-250
            pc[huge] *= 1e-250
            acc[huge] *= 1e-250
            out[:, huge] *= 1e-250
    with np.errstate(over="ignore", invalid="ignore"):
        out *= np.exp(w) / (2.0 * acc - pc)
    return out


def _phi_from_psi(m, z, u, r0, coef_c, b_m, d_m, psi, maximum):
    """(value, scale) of the mode-m kernel from psi at max(m-1, 0)..m+1.

    The one transcription of the kernel, shared by ``phi_mode_slope``
    (scalars, ``maximum=max``), ``phi_mode_grid`` and
    ``phi_mode_slope_points`` (arrays, ``maximum=np.maximum``).  ``m`` is
    one mode, or an int array of modes >= 2 with one per point.
    """
    one_mode = not isinstance(m, np.ndarray)
    if one_mode and m == 0:
        val = -r0 * psi[1]
        return val, maximum(r0 * abs(psi[0]), abs(val))
    pm1, pm, pp1 = psi
    if one_mode and m == 1:
        t1 = -r0 * coef_c * pm
        bracket = 0.5 * b_m
    else:
        t1 = m * coef_c * (-r0) ** m * z * pm
        bracket = 0.5 * (-r0) ** (m - 1) * (z * b_m + d_m)
    t2 = bracket * (pm1 + u * pp1)
    sc = abs(bracket) * (abs(pm1) + abs(u * pp1))
    return t1 + t2, maximum(sc, abs(t1))


def _phi_slope_from_psi(m, z, u, r0, coef_c, b_m, d_m, psi):
    """d/dz of the ``_phi_from_psi`` value, from psi at max(m-1, 0)..m+2.

    Term by term with d psi_k/du = psi_{k+1}/2 (DLMF 10.29.4) and
    du/dz = r0^2.  ``m`` as there.
    """
    r2 = r0 * r0
    one_mode = not isinstance(m, np.ndarray)
    if one_mode and m == 0:
        return -0.5 * r0 * r2 * psi[2]
    pm1, pm, pp1, pp2 = psi
    dsum = r2 * (0.5 * pm + pp1 + 0.5 * u * pp2)     # d/dz (pm1 + u pp1)
    if one_mode and m == 1:
        return -0.5 * r0 * r2 * coef_c * pp1 + 0.5 * b_m * dsum
    dt1 = m * coef_c * (-r0) ** m * (pm + 0.5 * r2 * z * pp1)
    half = 0.5 * (-r0) ** (m - 1)
    return dt1 + half * (b_m * (pm1 + u * pp1) + (z * b_m + d_m) * dsum)


def phi_mode_slope(m, z, r0, coef_c, b_m, d_m):
    """(value, scale, slope) of the mode-m kernel at one point.

    value and scale are those of ``phi_mode``; slope is the exact
    derivative of value in z.  Every order of psi they read, one above the
    kernel's own for the slope, comes from one pass of ``_psi_scalar``.

    Raises
    ------
    AccuracyError
        If psi_{m+1}, the highest order the value reads, is below the
        smallest normal double: at large m (from 141 up on the default
        config) the orders the value reads underflow together,
        and so would value and scale, which then pass any relative
        residual test.  Also if e^w leaves the double range, as
        ``_psi_scalar``.
    """
    u = r0 * r0 * z
    psi = _psi_scalar(range(max(m - 1, 0), m + 3), u)
    if abs(psi[-2]) < _DOUBLE_MIN:
        raise AccuracyError(
            f"mode {m} kernel underflows at z={z:.6g}: psi_{m + 1} leaves "
            "the double range")
    val, scale = _phi_from_psi(m, z, u, r0, coef_c, b_m, d_m, psi[:-1], max)
    return val, scale, _phi_slope_from_psi(m, z, u, r0, coef_c, b_m, d_m, psi)


def phi_mode_slope_points(ms, zs, r0s, coef_cs, b_ms, d_ms):
    """``phi_mode_slope`` at many points at once, each with its own mode
    and constants (equal-length arrays); returns (values, scales, slopes).

    psi at orders max(m-1, 0)..max(m-1, 0)+3 of each point comes from one
    ``_psi_chain`` call whose chains keep those orders; the points of modes
    0, 1 and >= 2 then read ``_phi_from_psi`` and ``_phi_slope_from_psi``
    once each.

    Raises
    ------
    AccuracyError
        As ``phi_mode_slope``, naming the first point whose psi_{m+1} is
        below the smallest normal double or whose psi is not finite.
    """
    u = r0s * r0s * zs
    lo = np.maximum(ms - 1, 0)
    psi = _psi_chain(lo + 3, u)[lo + np.arange(4)[:, None], np.arange(zs.size)]
    bad = ~(np.abs(psi[np.where(ms > 0, 2, 1), np.arange(zs.size)])
            >= _DOUBLE_MIN)
    bad |= ~np.isfinite(psi).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise AccuracyError(
            f"mode {ms[i]} kernel at z={zs[i]:.6g}: psi_{ms[i] + 1} "
            "underflows or psi leaves the double range")
    vals = np.empty(zs.size, dtype=np.complex128)
    scales = np.empty(zs.size)
    slopes = np.empty(zs.size, dtype=np.complex128)
    for group, m in ((ms == 0, 0), (ms == 1, 1), (ms >= 2, None)):
        if not group.any():
            continue
        g = np.flatnonzero(group)
        args = (ms[g] if m is None else m, zs[g], u[g], r0s[g], coef_cs[g],
                b_ms[g], d_ms[g])
        rows = psi[:3 if m == 0 else 4, g]
        vals[g], scales[g] = _phi_from_psi(*args, rows[:-1], np.maximum)
        slopes[g] = _phi_slope_from_psi(*args, rows)
    return vals, scales, slopes


def phi_mode(m, z, r0, coef_c, b_m, d_m):
    """Dispersion kernel for mode m with the structural zero factored out.

    Returns (value, scale), the first two entries of ``phi_mode_slope``.
    The scale is the magnitude of the largest additive piece, measured one
    level inside the Bessel bracket so that it stays a meaningful residual
    normaliser at roots and when a top-level term vanishes identically
    (m = 0, or zero active strength).  The nonzero roots of the mode-m
    dispersion function are exactly the roots of this kernel.
    """
    return phi_mode_slope(m, z, r0, coef_c, b_m, d_m)[:2]


def _psi_top(m):
    """Top order of the shared psi table read by mode m.

    The smallest power of two >= max(m + 2, PSI_SHARED_TOP) (order m + 2
    is the kernel's slope), so modes 0..14 read the top-16 table and modes
    15..30 the top-32 one.  A function of m alone: the rows a mode reads
    never depend on which modes ran before it.
    """
    return max(1 << (m + 1).bit_length(), PSI_SHARED_TOP)


@functools.lru_cache(maxsize=1)
def _psi_table(top, r0, zs_bytes):
    """Read-only psi_0..psi_top over the grid u = r0^2 zs, one row per order.

    The rows depend only on (top, r0, the exact grid points), never on m or
    the force constants, so every mode of one rest radius with the same top
    (all of modes 0..14), and every chi_c of those modes, reads this single
    entry.  The rows are ``_psi_chain`` with every point kept up to top, so
    a point's column does not depend on the rest of the grid.
    """
    u = r0 * r0 * np.frombuffer(zs_bytes, dtype=np.complex128)
    psi = _psi_chain(np.full(u.size, top), u)
    psi.flags.writeable = False
    return psi


def phi_mode_grid(m, zs, r0, coef_c, b_m, d_m):
    """phi_mode over a flat complex array at once (seed screening).

    Returns (values, scales) as arrays.  The psi rows the kernel reads,
    orders max(m-1, 0)..m+1, are read-only slices of the shared table
    ``_psi_table(_psi_top(m), r0, zs)``; the most recent table is kept for
    the next call, so modes 0..14 of one rest radius and grid, at every
    chi_c and in every command of the process, build it once.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    psi = _psi_table(_psi_top(m), r0, zs.tobytes())[max(m - 1, 0):m + 2]
    return _phi_from_psi(m, zs, r0 * r0 * zs, r0, coef_c, b_m, d_m, psi,
                         np.maximum)
