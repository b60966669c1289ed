"""Linear stability of the resting disk.

For each angular mode m the linearised growth rates are the complex roots of
a transcendental dispersion function H_m built from modified Bessel
functions.  The root search works on the mode kernel of ``_kernels``: H_m
with its structural zero at the origin factored out and written in terms of
even Bessel ratios, which makes it entire in the growth rate and removes the
square-root branch entirely.  The literal H_m (principal square root) is
kept as an independent test reference in ``tests/dispersion_reference.py``.
``mode_spectra`` is the one spectrum routine (``mode_spectrum`` is its
one-job case): seed screen, Newton from every start, one at a time or in
lockstep by the start count, then the roots it keeps.
The structural zero modes (translation and the two mass/concentration
neutral modes) are counted by ``zero_eigenspace_dimension`` from the
lambda = 0 constraint rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import SolverError
from .forces import ForceLaw
from .model import ModelParams, chi_c_star
from .solvers import (
    ROOT_TOL,
    _accept_roots,
    _complex_newton,
    _lockstep_newton,
    _seed_starts,
)

#: A warm-started Newton within this residual skips the full spectrum.
WARM_TOL = 1e-11

#: Re(lambda) above this counts as unstable.
CLASSIFY_TOL = 1e-9

#: A sweep of at least this many seed starts runs them in lockstep; fewer
#: run one at a time, which is faster there (the two drivers cost the same
#: near 24 starts of the default sweep, measured on 2 cores).
LOCKSTEP_MIN_STARTS = 24

#: (nx, ny) resolution of the root search's seed grid.
DEFAULT_SEEDS = (40, 20)

#: ``classify`` scans modes 0..DEFAULT_MODE_MAX.
DEFAULT_MODE_MAX = 8

#: ``refine_threshold`` brackets the threshold to this absolute width in chi_c.
THRESHOLD_TOL = 1e-8


def default_root_region(params: ModelParams) -> tuple[float, float, float, float]:
    """Default complex search rectangle, scaled with the rest radius."""
    r2 = params.R0 ** 2
    return (-80.0 / r2, 20.0 / r2, -10.0, 10.0)


def _mode_constants(m: int, params: ModelParams, f_act: ForceLaw,
                    f_und: ForceLaw) -> tuple[float, float, float]:
    c0 = params.c0
    coef_c = params.a * params.chi_c * c0 * float(f_act.d1(c0)) / params.R0
    b_m = 1.0 + m * params.chi_u * float(f_und.d1(0.0)) / params.R0
    d_m = params.gamma * m * (m * m - 1) / params.R0 ** 3
    return coef_c, b_m, d_m


def _slope_kernel(m, r0, *consts):
    """z -> (value, scale, slope) of the mode-m kernel at one point."""
    return lambda z: _kernels.phi_mode_slope(m, complex(z), r0, *consts)


@dataclass(frozen=True)
class ModeSpectrum:
    """Located nonzero growth rates of one angular mode.

    ``principal`` is the located root with the largest real part; the
    structural zero at the origin is never included (for m in {0, 1} it is
    a genuine neutral eigenvalue, whose dimension
    ``zero_eigenspace_dimension`` gives; for m >= 2 it only admits the zero
    eigenfunction and is not an eigenvalue).
    """

    m: int
    roots: tuple
    residuals: tuple
    principal: complex | None


def _spectrum(m, found) -> ModeSpectrum:
    """ModeSpectrum of the (root, residual) pairs a root search returned."""
    roots = tuple(z for z, _ in found)
    return ModeSpectrum(
        m=m,
        roots=roots,
        residuals=tuple(res for _, res in found),
        principal=max(roots, key=lambda z: (z.real, -abs(z.imag), z.imag),
                      default=None),
    )


def mode_spectrum(m: int, params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
                  region=None, seeds=DEFAULT_SEEDS) -> ModeSpectrum:
    """Locate the nonzero growth rates of mode m inside a rectangle:
    ``mode_spectra`` of the one job (m, params, f_act, f_und)."""
    return mode_spectra([(m, params, f_act, f_und)], region, seeds)[0]


def mode_spectra(jobs, region=None, seeds=DEFAULT_SEEDS) -> list[ModeSpectrum]:
    """Nonzero growth rates of every (m, params, f_act, f_und) job of a sweep.

    Each job's seed grid is screened (``_seed_starts``) on the branch-free
    dispersion kernel with ``conjugate=True`` (its coefficients are real;
    a symmetric rectangle is screened in its upper half only).  Newton
    runs from every start to ROOT_TOL of the kernel's own scale (its
    largest additive term): one start at a time on ``phi_mode_slope`` if
    the sweep has fewer than ``LOCKSTEP_MIN_STARTS`` starts, else all in
    ``_lockstep_newton``, one ``phi_mode_slope_points`` call per round.
    ``_accept_roots`` keeps each job's end points with |kernel| <=
    RESIDUAL_TOL * scale inside its rectangle, roots off the real axis in
    exact conjugate pairs; ``residuals[i]`` is |value| / max(scale,
    1e-300) at ``roots[i]``, as its Newton run computed it.  Under one
    driver a spectrum does not depend on the other jobs of its sweep (each
    start's kernel chain is its own); across the two its roots agree to
    rounding.  ``region=None`` takes each job's default rectangle.

    Raises
    ------
    AccuracyError
        If a start's kernel leaves the double range (see
        ``_kernels.phi_mode_slope``).
    """
    regions, spans, starts = [], [], []
    kernel_args = []         # (m, R0, coef_c, b_m, d_m) of each start
    for m, params, f_act, f_und in jobs:
        job_region = default_root_region(params) if region is None else region
        consts = _mode_constants(m, params, f_act, f_und)
        job_starts = _seed_starts(
            lambda zs: _kernels.phi_mode_grid(m, zs, params.R0, *consts)[0],
            job_region, seeds, conjugate=True)
        regions.append((m, job_region))
        spans.append((len(starts), len(starts) + job_starts.size))
        starts += job_starts.tolist()
        kernel_args += [(m, params.R0, *consts)] * job_starts.size
    if len(starts) < LOCKSTEP_MIN_STARTS:
        ends = [_complex_newton(_slope_kernel(*args), z0, ROOT_TOL)
                for z0, args in zip(starts, kernel_args)]
    else:
        ms, *cols = np.array(kernel_args).reshape(-1, 5).T
        ms = ms.astype(int)
        ends = _lockstep_newton(
            lambda live, zs: _kernels.phi_mode_slope_points(
                ms[live], zs, *(col[live] for col in cols)), starts, ROOT_TOL)
    return [_spectrum(m, _accept_roots(ends[a:b], job_region, conjugate=True))
            for (m, job_region), (a, b) in zip(regions, spans)]


# ---------------------------------------------------------------------------
# Neutral modes.
# ---------------------------------------------------------------------------

def _zero_constraint_matrix(m: int, params: ModelParams, f_act: ForceLaw,
                            f_und: ForceLaw) -> np.ndarray:
    """Constraints on (rho_hat, c_hat, P_hat) at lambda = 0.

    Uses the regular lambda -> 0 profiles c(r) = c_hat r^m, P(r) = P_hat r^m;
    rows: kinematic (radial pressure gradient vanishes), marker flux, and
    the pressure boundary condition.
    """
    r0 = params.R0
    c0 = params.c0
    fp = float(f_act.d1(c0))
    fu = float(f_und.d1(0.0))
    return np.array(
        [
            [0.0, 0.0, float(m)],
            [0.0, float(m), -m * params.a * c0],
            [params.gamma / r0 ** 2 * (m * m - 1),
             params.chi_c * fp * r0 ** m,
             -(r0 ** m + params.chi_u * fu * m * r0 ** (m - 1))],
        ]
    )


def zero_eigenspace_dimension(m: int, params: ModelParams, f_act: ForceLaw,
                              f_und: ForceLaw) -> int:
    """Dimension of the genuine lambda = 0 eigenspace of mode m."""
    mat = _zero_constraint_matrix(m, params, f_act, f_und)
    svals = np.linalg.svd(mat, compute_uv=False)
    tol = 1e-10 * max(1.0, svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > tol))
    return 3 - rank


# ---------------------------------------------------------------------------
# Threshold location, classification.
# ---------------------------------------------------------------------------

def _principal_root(params, f_act, f_und, warm=None):
    """Principal root of mode 1, warm-started when a previous root is known."""
    if warm is not None:
        kernel = _slope_kernel(1, params.R0,
                               *_mode_constants(1, params, f_act, f_und))
        z, rel = _complex_newton(kernel, warm, ROOT_TOL)
        if rel <= WARM_TOL:
            return z
    spec = mode_spectrum(1, params, f_act, f_und)
    if spec.principal is None:
        raise SolverError("no mode-1 roots located in the search region")
    return spec.principal


def refine_threshold(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
                     *, tol: float = THRESHOLD_TOL) -> float:
    """Active strength where the principal mode-1 growth rate crosses zero.

    Brent's method (Brent 1973, ch. 4: inverse quadratic interpolation,
    secant and bisection steps) on the sign of Re(principal root),
    warm-starting the root Newton across steps; the bracket starts at half
    and 1.5 times the closed-form threshold and is expanded until the sign
    changes.

    Returns a chi_c at which the root was evaluated, within ``tol``
    absolute of the crossing, or adjacent in doubles to the other end of
    the final bracket when ``tol`` is finer than their spacing.  Raises
    ``ValueError`` unless ``tol`` is positive.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    guess = chi_c_star(params, f_act, f_und)
    lo, hi = 0.5 * guess, 1.5 * guess

    warm_cache: dict[str, complex] = {}

    def principal_re(chi):
        p = params.with_chi_c(chi)
        root = _principal_root(p, f_act, f_und, warm=warm_cache.get("z"))
        warm_cache["z"] = root
        return root.real

    f_lo = principal_re(lo)
    f_hi = principal_re(hi)
    grow = 0
    while f_lo * f_hi > 0.0:
        grow += 1
        if grow > 40:
            raise SolverError("could not bracket the stability threshold")
        if f_lo > 0.0:
            lo = max(lo / 1.6, 1e-12)
            f_lo = principal_re(lo)
        else:
            hi *= 1.6
            f_hi = principal_re(hi)
    # b is the best point so far, a the previous one, and the crossing
    # lies between b and c; d is the last step and e the one before it.
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    half_tol = 0.5 * tol
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= half_tol or math.nextafter(b, c) == c:
            return b
        if abs(e) < half_tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(half_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        step = d if abs(d) > half_tol else math.copysign(half_tol, m)
        b = b + step if b + step != b else math.nextafter(b, c)
        fb = principal_re(b)


@dataclass(frozen=True)
class StabilityReport:
    """Verdict of the modal stability scan."""

    stable: bool
    margin: float
    margin_mode: int
    spectra: tuple


def classify(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
             m_max: int = DEFAULT_MODE_MAX, region=None,
             seeds=DEFAULT_SEEDS) -> StabilityReport:
    """Stable/unstable verdict over modes 0..m_max.

    Unstable iff any located nonzero root has Re(lambda) > CLASSIFY_TOL;
    the margin is the largest real part over all located nonzero roots.
    The curvature term stiffens high modes, which is what makes a finite
    m_max meaningful; the margin report shows how far below zero the
    higher modes sit.  The m_max + 1 spectra are found together by
    ``mode_spectra``.  With no root located in any mode there is no
    verdict, and SolverError is raised.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    spectra = mode_spectra([(m, params, f_act, f_und)
                            for m in range(m_max + 1)], region, seeds)
    margin = -math.inf
    margin_mode = -1
    for m, spec in enumerate(spectra):
        if spec.principal is not None and spec.principal.real > margin:
            margin = spec.principal.real
            margin_mode = m
    if margin_mode < 0:
        raise SolverError(f"no roots located in modes 0..{m_max}: the "
                          "stability verdict is not certified")
    return StabilityReport(
        stable=not margin > CLASSIFY_TOL,
        margin=margin,
        margin_mode=margin_mode,
        spectra=tuple(spectra),
    )

