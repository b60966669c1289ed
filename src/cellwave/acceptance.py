"""Acceptance suite: the exit criteria of the package, runnable as a library.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes the whole battery in order in the calling process.  The CLI
``verify`` subcommand prints one pass/fail line per criterion and
serialises the results; the pytest module ``tests/test_acceptance.py``
asserts each criterion individually.

Everything here is deterministic for a fixed config (seeded draws, no
wall-clock content), which is what makes repeated ``verify`` runs
byte-identical.  The draws come from ``_PCG64``, a pure-Python copy of
numpy's ``default_rng(seed)`` stream: numpy's NEP 19 does not promise that
``Generator`` methods keep their streams across releases, while PCG64's
raw output is fixed by its algorithm, so owning the few lines that turn it
into uniforms and integers pins the draws; and ``verify`` then never
loads numpy's random package (about 6 MB of resident memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContinuationStalledError
from .forces import hill_active, linear_undercooling, tanh_undercooling
from .model import ModelParams, chi_c_star
from .special import bessel_I
from .stability import (
    mode_spectra,
    mode_spectrum,
    refine_threshold,
    zero_eigenspace_dimension,
)
from .waves import (
    bifurcation_report,
    continue_branch,
    kernel_alignment,
    linearized_residual,
    transversality_product,
    _residual_vector,
)


@dataclass
class CriterionResult:
    """Outcome of one acceptance criterion."""

    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items())
                           if isinstance(v, (int, float, str, bool)))
        return f"{status}  {self.index:2d}  {self.name}  [{extras}]"


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _hashmix(h: int, mult: int):
    """numpy SeedSequence's 32-bit hash, whose constant h advances by the
    factor mult at each call."""
    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


class _PCG64:
    """The draws of numpy's ``default_rng(seed)``, bit for bit.

    Seeding is numpy's ``SeedSequence(seed)``: a pool of four 32-bit words,
    with the extra words of a seed >= 2**128 mixed in, hashed into PCG64's
    state and increment.  A 64-bit draw steps the 128-bit LCG, then applies
    the XSL-RR output (O'Neill, HMC-CS-2014-0905).  ``uniform`` and
    ``integers`` are numpy's scalar ``Generator`` methods: the high 53 bits
    scaled by 2**-53, and Lemire's rule on 32-bit draws, which take the
    low, then the high half of one 64-bit draw.
    """

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        words = [seed >> s & _M32
                 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

        def mix(x, y):
            r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        w = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool + pool))
        s = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (s[2] << 64 | s[3]) << 1 & _M128 | 1
        # PCG's srandom: one step from 0 (to inc), add the seed, one step.
        self._state = ((self._inc + (s[0] << 64 | s[1])) * self._MULT
                       + self._inc & _M128)
        self._half = None          # the unread high half of a 64-bit draw

    def _next64(self) -> int:
        s = self._state = self._state * self._MULT + self._inc & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        v, self._half = self._half, None
        if v is None:
            v = self._next64()
            v, self._half = v & _M32, v >> 32
        return v

    def uniform(self, low=0.0, high=1.0) -> float:
        return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if not 1 < n < 1 << 32:
            raise ValueError(f"integers needs 1 < high - low < 2**32, got {n}")
        m = self._next32() * n
        floor = (1 << 32) % n      # < n, numpy's first, cheaper test
        while m & _M32 < floor:
            m = self._next32() * n
        return low + (m >> 32)

    def box_muller(self, count: int) -> list[float]:
        """count standard normals by Box and Muller (1958), two from each
        pair of uniforms, with log1p(-U) so that U = 0 gives 0.  Not
        numpy's ``standard_normal``, which is a ziggurat."""
        out = []
        while len(out) < count:
            r = math.sqrt(-2.0 * math.log1p(-self.uniform()))
            t = 2.0 * math.pi * self.uniform()
            out += (r * math.cos(t), r * math.sin(t))
        return out[:count]


def _sample_params(rng, chi_c=1.0) -> ModelParams:
    a = rng.uniform(0.2, 1.0)
    gamma = rng.uniform(0.5, 3.0)
    r0 = rng.uniform(0.5, 2.0)
    chi_u = rng.uniform(0.0, 2.0)
    c0 = rng.uniform(0.5, 2.0)
    return ModelParams(a=a, gamma=gamma, chi_c=chi_c, chi_u=chi_u, R0=r0,
                       M=c0 * math.pi * r0 * r0)


def criterion_threshold_agreement(config) -> CriterionResult:
    """1: dispersion-located threshold equals the closed form (1e-6 rel)."""
    rng = _PCG64(config.analysis["seed"])
    f_act = hill_active(2.0, 0.75, 2)
    f_und = linear_undercooling()
    worst = 0.0
    rows = []
    for _ in range(10):
        params = _sample_params(rng)
        star = chi_c_star(params, f_act, f_und)
        located = refine_threshold(params, f_act, f_und,
                                   tol=config.analysis["threshold_tol"])
        rel = abs(located - star) / star
        worst = max(worst, rel)
        rows.append(rel)
    return CriterionResult(1, "threshold agreement (10 random param sets)",
                           worst <= 1e-6,
                           {"worst_rel_err": worst, "rel_errors": rows})


# The first four positive roots of J_1 to 40 digits (``besseljzero(1, k)``
# of mpmath at 40 dps).
J1_ZEROS = (
    "3.831705970207512315614435886308160766565",
    "7.015586669815618753537049981476524743276",
    "10.17346813506272207718571177677584406982",
    "13.32369193631422303239368412694787675122",
)


def criterion_mode0_spectrum(config) -> CriterionResult:
    """2: nonzero mode-0 rates match -x_{1k}^2/R0^2 for the first four
    positive J_1 roots (1e-9 absolute; the roots are the 40-digit
    literals ``J1_ZEROS``, each rounded once to a double)."""
    params = config.params
    r0 = params.R0
    oracle = [float(x) for x in J1_ZEROS]
    expected = sorted(-(x * x) / (r0 * r0) for x in oracle)
    region = (1.05 * expected[0], 0.5 / r0 ** 2, -2.0, 2.0)
    spec = mode_spectrum(0, params, config.f_act, config.f_und, region=region)
    ok = len(spec.roots) == 4
    worst = math.inf
    if ok:
        worst = max(abs(z - e) for z, e in zip(spec.roots, expected))
        ok = worst <= 1e-9
    return CriterionResult(2, "mode-0 spectrum vs J_1 root oracle", ok,
                           {"located": len(spec.roots),
                            "worst_abs_err": worst})


def criterion_neutral_modes(config) -> CriterionResult:
    """3: lambda = 0 eigenspace has dimension 3 over m = 0, 1 and 0 for
    m = 2..8, for five random subcritical parameter sets."""
    rng = _PCG64(config.analysis["seed"] + 1)
    f_act = hill_active(2.0, 0.75, 2)
    f_und = linear_undercooling()
    ok = True
    for _ in range(5):
        params = _sample_params(rng)
        star = chi_c_star(params, f_act, f_und)
        params = params.with_chi_c(rng.uniform(0.1, 0.9) * star)
        dims = [zero_eigenspace_dimension(m, params, f_act, f_und)
                for m in range(9)]
        if dims[0] + dims[1] != 3 or any(d != 0 for d in dims[2:]):
            ok = False
    return CriterionResult(3, "neutral-mode multiplicity (3 and 0)", ok, {})


def criterion_subcritical_spectrum(config) -> CriterionResult:
    """4: in the proven subcritical range no located rate has positive real
    part (20 random parameter sets, modes 1..6; the 120 spectra found
    together by ``mode_spectra``)."""
    rng = _PCG64(config.analysis["seed"] + 2)
    f_act = hill_active(2.0, 0.75, 2)
    f_und = linear_undercooling()
    jobs = []
    for _ in range(20):
        params = _sample_params(rng, chi_c=0.0)
        bound = 1.0 / (params.a * params.c0 * float(f_act.d1(params.c0)))
        params = params.with_chi_c(rng.uniform(0.0, bound))
        jobs += [(m, params, f_act, f_und) for m in range(1, 7)]
    worst = -math.inf
    for spec in mode_spectra(jobs):
        for z in spec.roots:
            worst = max(worst, z.real)
    return CriterionResult(4, "non-positive spectrum in the energy range",
                           worst <= 1e-9, {"max_re": worst})


def criterion_bifurcation_structure(config) -> CriterionResult:
    """5: one-dimensional kernel along the pure-V direction and the
    predicted transversality magnitude a c0 f_act'(c0) R0 pi (1e-6 rel)."""
    params = config.params
    n = config.analysis["N"]
    ka = kernel_alignment(params, config.f_act, config.f_und, n)
    tv = transversality_product(params, config.f_act, config.f_und, n)
    pred = -params.a * params.c0 * float(config.f_act.d1(params.c0)) \
        * params.R0 * math.pi
    rel = abs(tv - pred) / abs(pred)
    ok = (ka["angle_to_v_direction"] <= 1e-8
          and ka["sigma_min"] <= 1e-6
          and ka["sigma_next"] >= 1e-3
          and rel <= 1e-6)
    return CriterionResult(5, "bifurcation-point kernel and transversality",
                           ok,
                           {"kernel_angle": ka["angle_to_v_direction"],
                            "sigma_min": ka["sigma_min"],
                            "sigma_next": ka["sigma_next"],
                            "transversality_rel_err": rel})


def criterion_branch_invariants(config) -> CriterionResult:
    """6: every branch state up to V = 0.3 satisfies the pointwise curvature
    equation (1e-9), area and centering constraints (1e-10) and reproduces
    the marker mass (1e-9 relative).  A branch that stops before V_max
    (a stall, or a shape its truncation does not resolve) fails the
    criterion, with the reason under ``stalled``."""
    params = config.params
    stalled = None
    try:
        branch = continue_branch(params, config.f_act, config.f_und,
                                 V_max=config.analysis["V_max"],
                                 ds=config.analysis["ds"],
                                 n=config.analysis["N"],
                                 tol=config.analysis["newton_tol"])
    except ContinuationStalledError as exc:
        branch, stalled = exc.points, str(exc)
    worst = {"residual_sup": 0.0, "area_error": 0.0, "centering_error": 0.0,
             "mass_rel_error": 0.0}
    for state in branch.states[1:]:
        diag = state.diagnostics
        for key in worst:
            worst[key] = max(worst[key], diag[key])
    ok = (stalled is None
          and worst["residual_sup"] <= 1e-9
          and worst["area_error"] <= 1e-10
          and worst["centering_error"] <= 1e-10
          and worst["mass_rel_error"] <= 1e-9)
    worst["n_states"] = len(branch.states)
    if stalled is not None:
        worst["stalled"] = stalled
    return CriterionResult(6, "branch invariants up to V_max", ok, worst)


def criterion_expansion_coefficients(config) -> CriterionResult:
    """7: chi_c'(0) vanishes to 1e-4 (scaled); with the linear undercooling
    law the measured chi_c''(0) matches the closed form within 5%; with the
    saturating law the verdict must discriminate the 1/3 vs 1/4 cubic
    coefficient (inconclusive fails)."""
    params = config.params
    n = config.analysis["N"]
    h = config.analysis["report_step"]
    rep_lin = bifurcation_report(params, config.f_act, linear_undercooling(),
                                 n=n, h=h, tol=config.analysis["newton_tol"])
    d1_ok = abs(rep_lin.d_chi_ds_at_0) <= 1e-4 * max(1.0,
                                                     abs(rep_lin.d2_chi_ds2_at_0))
    lin_ok = rep_lin.matched_within <= 0.05
    rep_tanh = bifurcation_report(params, config.f_act, tanh_undercooling(0.5),
                                  n=n, h=h, tol=config.analysis["newton_tol"])
    tanh_ok = rep_tanh.verdict in ("statement_third", "proof_quarter")
    return CriterionResult(
        7, "branch expansion coefficients", d1_ok and lin_ok and tanh_ok,
        {"d_chi_ds": rep_lin.d_chi_ds_at_0,
         "linear_rel_mismatch": rep_lin.matched_within,
         "tanh_verdict": rep_tanh.verdict,
         "tanh_rel_mismatch": rep_tanh.matched_within})


def criterion_linearization(config) -> CriterionResult:
    """8: Taylor remainder of the residual against its linearisation decays
    quadratically (observed order >= 1.9 over amplitudes 1e-2..1e-4).  The
    direction's normals are ``_PCG64.box_muller`` draws."""
    params = config.params
    n = config.analysis["N"]
    rng = _PCG64(config.analysis["seed"] + 3)
    d_rho = np.array(rng.box_muller(n + 1)) / (1.0 + np.arange(n + 1)) ** 2
    d_v, d_p = 0.7, 0.3
    chi = 1.3
    amps = np.array([[1e-2], [1e-3], [1e-4]])
    full = _residual_vector(amps * d_rho, amps * d_v, amps * d_p, chi,
                            params, config.f_act, config.f_und)
    rems = []
    for eps, row in zip(amps[:, 0], full):
        lin = linearized_residual(eps * d_rho, eps * d_v, eps * d_p, chi,
                                  params, config.f_act, config.f_und)
        rems.append(float(np.max(np.abs(row - lin))))
    orders = [math.log10(rems[i] / rems[i + 1]) for i in range(2)]
    return CriterionResult(8, "quadratic Taylor remainder of the residual",
                           min(orders) >= 1.9,
                           {"orders": orders, "remainders": rems})


# Fixed-point scale of ``_bessel_I_reference``: 2^-128, about 38 digits.
_REF_BITS = 128


def _bessel_I_reference(m: int, z: complex) -> complex:
    """I_m(z), m >= 0, from the ascending series
    sum_k (z/2)^(2k+m) / (k! (k+m)!), summed exactly in Python integers at
    fixed point 2^-128 and rounded once to a complex double.

    z/2 is exact in binary.  (z/2)^2 and each term are rounded down to the
    grid, so the sum carries an absolute error of a few units of 2^-128;
    for |z| <= 20 the largest cancellation (on the imaginary axis) costs
    about 9 of the 38 digits.  The absolute error is what criterion 9
    scales by 1 + |I_m(z)|.  Each product is shifted back to the grid
    before the division by the small integer: for integers,
    ``(x >> B) // d`` equals ``x // (d << B)``.
    """
    scale = 1 << _REF_BITS
    hr = int(math.ldexp(0.5 * z.real, _REF_BITS))
    hi = int(math.ldexp(0.5 * z.imag, _REF_BITS))
    wr = (hr * hr - hi * hi) >> _REF_BITS
    wi = (2 * hr * hi) >> _REF_BITS
    tr, ti = scale, 0
    for j in range(1, m + 1):
        tr, ti = (((tr * hr - ti * hi) >> _REF_BITS) // j,
                  ((tr * hi + ti * hr) >> _REF_BITS) // j)
    sr, si = tr, ti
    k = 0
    # Floor division leaves a negative term at -1, not 0: stop once both
    # parts of the term are at most one unit.
    while abs(tr) > 1 or abs(ti) > 1:
        k += 1
        d = k * (k + m)
        tr, ti = (((tr * wr - ti * wi) >> _REF_BITS) // d,
                  ((tr * wi + ti * wr) >> _REF_BITS) // d)
        sr += tr
        si += ti
    return complex(sr / scale, si / scale)


def _sample_bessel_point(rng) -> tuple[int, complex]:
    """One draw of criterion 9: m in 0..8, z uniform on the disk |z| <= 20."""
    m = int(rng.integers(0, 9))
    r = 20.0 * math.sqrt(rng.uniform())
    th = rng.uniform(0.0, 2.0 * math.pi)
    return m, r * complex(math.cos(th), math.sin(th))


def criterion_special_floor(config) -> CriterionResult:
    """9: bessel_I agrees with an exact fixed-point series reference
    (``_bessel_I_reference``, about 38 digits) on 500 random samples
    (m <= 8, |z| <= 20) to 1e-12, and the parity and recurrence identities
    hold at their stated tolerances."""
    rng = _PCG64(config.analysis["seed"] + 4)
    worst = 0.0
    for _ in range(500):
        m, z = _sample_bessel_point(rng)
        mine = bessel_I(m, z)
        ref = _bessel_I_reference(m, z)
        worst = max(worst, abs(mine - ref) / (1.0 + abs(ref)))
    parity_worst = 0.0
    recur_worst = 0.0
    for _ in range(100):
        m, z = _sample_bessel_point(rng)
        if abs(z) < 1e-3:
            continue
        val = bessel_I(m, z)
        parity_worst = max(
            parity_worst,
            abs(bessel_I(m, -z) - (-1.0) ** m * val) / (1.0 + abs(val)),
        )
        lo = bessel_I(m - 1, z) if m >= 1 else bessel_I(1, z)
        hi = bessel_I(m + 1, z)
        lhs = lo - hi if m >= 1 else 0.0
        rhs = (2.0 * m / z) * val
        scale = max(abs(lo), abs(hi), abs(rhs), 1e-300)
        if m >= 1:
            recur_worst = max(recur_worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-12 and parity_worst <= 1e-12 and recur_worst <= 1e-10
    return CriterionResult(9, "special-function accuracy floor", ok,
                           {"oracle_worst": worst,
                            "parity_worst": parity_worst,
                            "recurrence_worst": recur_worst})


CRITERIA = (
    criterion_threshold_agreement,
    criterion_mode0_spectrum,
    criterion_neutral_modes,
    criterion_subcritical_spectrum,
    criterion_bifurcation_structure,
    criterion_branch_invariants,
    criterion_expansion_coefficients,
    criterion_linearization,
    criterion_special_floor,
)


def run_all(config) -> list[CriterionResult]:
    """Run criteria 1..9 in order in this process (10, byte-identical verify
    reruns, is checked by running the CLI twice and comparing outputs).

    ``CRITERIA`` is read at call time.  An exception a criterion raises
    leaves this function with its type.
    """
    return [crit(config) for crit in CRITERIA]
