"""Acceptance suite: the exit criteria of the package, runnable as a library.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes the whole battery, with criterion 9 (the 40-digit oracle) in a
forked child process beside criteria 1-8.  While the child runs, numpy's
OpenBLAS runs on one thread, which the child inherits; a BLAS whose
thread-count setter is not found is left as it is.  The CLI ``verify``
subcommand prints one pass/fail line per criterion and serialises the
results; the pytest module ``tests/test_acceptance.py`` asserts each
criterion individually.

Everything here is deterministic for a fixed config (seeded RNG draws,
no wall-clock content), which is what makes repeated ``verify`` runs
byte-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .errors import ContinuationStalledError, SolverError
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
    rng = np.random.default_rng(config.analysis["seed"])
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


def criterion_mode0_spectrum(config) -> CriterionResult:
    """2: nonzero mode-0 rates match -x_{1k}^2/R0^2 for the first four
    positive J_1 roots (1e-9 absolute, 40-digit ``mpmath.besseljzero``
    oracle)."""
    import mpmath as mp

    params = config.params
    r0 = params.R0
    with mp.workdps(40):
        oracle = [float(mp.besseljzero(1, k)) for k in range(1, 5)]
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
    rng = np.random.default_rng(config.analysis["seed"] + 1)
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
    rng = np.random.default_rng(config.analysis["seed"] + 2)
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
    quadratically (observed order >= 1.9 over amplitudes 1e-2..1e-4)."""
    params = config.params
    n = config.analysis["N"]
    rng = np.random.default_rng(config.analysis["seed"] + 3)
    d_rho = rng.standard_normal(n + 1) / (1.0 + np.arange(n + 1)) ** 2
    d_v, d_p = 0.7, 0.3
    chi = 1.3
    rems = []
    for eps in (1e-2, 1e-3, 1e-4):
        full = _residual_vector(eps * d_rho, eps * d_v, eps * d_p, chi,
                                params, config.f_act, config.f_und)
        lin = linearized_residual(eps * d_rho, eps * d_v, eps * d_p, chi,
                                  params, config.f_act, config.f_und)
        rems.append(float(np.max(np.abs(full - lin))))
    orders = [math.log10(rems[i] / rems[i + 1]) for i in range(2)]
    return CriterionResult(8, "quadratic Taylor remainder of the residual",
                           min(orders) >= 1.9,
                           {"orders": orders, "remainders": rems})


def criterion_special_floor(config) -> CriterionResult:
    """9: bessel_I agrees with a 40-digit series oracle on 500 random
    samples (m <= 8, |z| <= 20) to 1e-12, and the parity and recurrence
    identities hold at their stated tolerances."""
    import mpmath as mp

    rng = np.random.default_rng(config.analysis["seed"] + 4)
    worst = 0.0
    with mp.workdps(40):
        for _ in range(500):
            m = int(rng.integers(0, 9))
            r = 20.0 * math.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * math.pi)
            z = r * complex(math.cos(th), math.sin(th))
            mine = bessel_I(m, z)
            ref = complex(mp.besseli(m, mp.mpc(z.real, z.imag)))
            worst = max(worst, abs(mine - ref) / (1.0 + abs(ref)))
    parity_worst = 0.0
    recur_worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 9))
        r = 20.0 * math.sqrt(rng.uniform())
        th = rng.uniform(0.0, 2.0 * math.pi)
        z = r * complex(math.cos(th), math.sin(th))
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
    """Run criteria 1..9 (10, byte-identical verify reruns, is checked by
    running the CLI twice and comparing outputs).

    The last entry of ``CRITERIA`` (read at call time) runs in one child
    process made with ``os.fork`` while this process runs the others in
    order; the results are returned in ``CRITERIA`` order.  The child is
    reaped before this function returns or raises.  An exception the child
    raises is raised here with its type; a child that ends without sending
    a result raises :class:`SolverError`.  From just before the fork until
    the child is reaped, numpy's OpenBLAS runs on one thread (see
    ``_one_blas_thread``).  Where ``os.fork`` does not exist the criteria
    run one after another.
    """
    criteria = CRITERIA
    if not hasattr(os, "fork"):
        return [crit(config) for crit in criteria]
    # Imported here, before the fork, so that criterion 2 in this process
    # and the child's criterion 9 share one import.
    import mpmath  # noqa: F401

    *serial, last = criteria
    index = len(criteria)
    with _one_blas_thread():
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _run_in_child(last, config, index, write_fd)
        os.close(write_fd)
        payload = None
        try:
            with open(read_fd, "rb") as pipe:
                results = [crit(config) for crit in serial]
                payload = pipe.read()
        finally:
            if payload is None:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    if not payload:
        raise SolverError(
            f"criterion {index} worker ended without a result "
            f"(wait status {status}, exit code "
            f"{os.waitstatus_to_exitcode(status)})")
    sent, value = pickle.loads(payload)
    if not sent:
        raise value
    return [*results, value]


# Thread-count entry points of OpenBLAS, (getter, setter), by the names the
# numpy wheels' scipy-openblas build and plain OpenBLAS builds export them.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy bundles
    (``numpy.libs/libscipy_openblas64_-*.so`` beside the numpy package in
    Linux wheels), or None where no such library or pair of entry points
    is found (Accelerate, MKL, a system BLAS)."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with one OpenBLAS thread and restore the previous
    count on every exit, also when the body raises.

    ``run_all`` holds this around its fork window: a second BLAS thread
    (criterion 5's SVD) would share a core with the busy child.  The
    thread count changes no value, since OpenBLAS splits its products by
    output blocks.  Where ``_openblas_threads`` finds no setter this does
    nothing.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def _run_in_child(crit, config, index, write_fd):
    """Body of ``run_all``'s forked child: run ``crit``, write
    ``(True, result)`` or ``(False, exception)`` to the pipe, and leave with
    ``os._exit``, so that the child never returns into its caller.

    The child inherits the one OpenBLAS thread that ``run_all`` set for the
    fork window, and criterion 9 is pure Python and mpmath and makes no BLAS
    call in it.
    """
    code = 1
    try:
        try:
            payload = pickle.dumps((True, crit(config)))
        except Exception as exc:
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((False, SolverError(
                    f"criterion {index} raised {type(exc).__name__}: {exc} "
                    "(the exception cannot be sent back from its worker)")))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
