"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-9 run through :mod:`cellwave.acceptance`; criterion 10 runs the
CLI ``verify`` twice and compares the emitted reports byte for byte.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellwave import _kernels, acceptance
from cellwave.cli import main
from cellwave.config import load_config, validate_config
from cellwave.errors import AccuracyError

ROOT = Path(__file__).resolve().parents[1]

CONFIG_DICT = {
    "model": {"a": 0.8, "gamma": 10.0, "chi_c": 1.0, "chi_u": 0.25,
              "R0": 1.0, "M": math.pi},
    "force_laws": {
        "active": {"family": "hill", "l_max": 2.0, "k_half": 0.75,
                   "exponent": 2},
        "undercooling": {"family": "linear", "slope": 1.0},
    },
    "analysis": {"N": 64, "V_max": 0.3, "ds": 0.01},
    "output": {"directory": "out"},
}


@pytest.fixture(scope="module")
def config():
    return validate_config(json.loads(json.dumps(CONFIG_DICT)))


def _check(result):
    print()
    print(result.line())
    assert result.passed, result.details


def test_criterion_01_threshold_agreement(config):
    _check(acceptance.criterion_threshold_agreement(config))


def test_criterion_02_mode0_spectrum(config):
    _check(acceptance.criterion_mode0_spectrum(config))


def test_criterion_01_fails_at_a_tol_above_the_bracket():
    # With tol wider than the first bracket nothing is located: the
    # criterion reports the bracket end it evaluated and fails.
    cfg = json.loads(json.dumps(CONFIG_DICT))
    cfg["analysis"]["threshold_tol"] = 1e308
    result = acceptance.criterion_threshold_agreement(validate_config(cfg))
    assert not result.passed
    assert result.details["worst_rel_err"] == 0.5


def test_criterion_02_literals_are_the_40_digit_j1_roots(j1_roots):
    # The literals are what mpmath prints for besseljzero(1, k) at 40
    # digits, and each rounds to the frozen double.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        assert acceptance.J1_ZEROS == tuple(
            str(mp.besseljzero(1, k)) for k in range(1, 5))
    assert tuple(float(x) for x in acceptance.J1_ZEROS) == j1_roots


def test_criterion_02_oracle_is_exact(config, j1_roots):
    # The literal oracle gives the frozen roots, as does mpmath's, so the
    # located rates sit within the root Newton's own accuracy of the exact
    # -j_1k^2 / R0^2; a caller's mpmath precision is left as it was.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(23):
        result = acceptance.criterion_mode0_spectrum(config)
        assert mp.mp.dps == 23
        assert [float(mp.besseljzero(1, k)) for k in range(1, 5)] == list(
            j1_roots)
    assert result.passed and result.details["worst_abs_err"] <= 1e-12


def test_criterion_03_neutral_modes(config):
    _check(acceptance.criterion_neutral_modes(config))


def test_criterion_04_subcritical_spectrum(config):
    _check(acceptance.criterion_subcritical_spectrum(config))


def test_criterion_05_bifurcation_structure(config):
    _check(acceptance.criterion_bifurcation_structure(config))


def test_criterion_06_branch_invariants(config):
    _check(acceptance.criterion_branch_invariants(config))


def test_criterion_06_fails_on_an_unresolved_branch():
    # gamma = 0.1 stops before V = 0.85 at N = 64: the criterion fails
    # with the reason instead of aborting the whole verify run.
    cfg = json.loads(json.dumps(CONFIG_DICT))
    cfg["model"]["gamma"] = 0.1
    cfg["analysis"]["V_max"] = 1.0
    result = acceptance.criterion_branch_invariants(validate_config(cfg))
    assert not result.passed
    assert result.details["stalled"].startswith("unresolved shape at V=0.85")
    assert result.details["n_states"] == 85


def test_criterion_07_expansion_coefficients(config):
    _check(acceptance.criterion_expansion_coefficients(config))


def test_criterion_08_linearization(config):
    _check(acceptance.criterion_linearization(config))


@pytest.mark.parametrize("seed", [20230915, 4242])
def test_criterion_08_remainders_equal_one_call_per_amplitude(seed):
    # The three amplitudes share one stacked residual call; each remainder
    # is bit for bit the one a single-state call per amplitude gives.
    from cellwave.waves import _residual_vector, linearized_residual

    cfg = json.loads(json.dumps(CONFIG_DICT))
    cfg["analysis"]["seed"] = seed
    config = validate_config(cfg)
    params, n = config.params, config.analysis["N"]
    rng = acceptance._PCG64(seed + 3)
    d_rho = np.array(rng.box_muller(n + 1)) / (1.0 + np.arange(n + 1)) ** 2
    rems = []
    for eps in (1e-2, 1e-3, 1e-4):
        args = (eps * d_rho, eps * 0.7, eps * 0.3, 1.3, params,
                config.f_act, config.f_und)
        rems.append(float(np.max(np.abs(_residual_vector(*args)
                                        - linearized_residual(*args)))))
    got = acceptance.criterion_linearization(config).details["remainders"]
    assert got == rems


def test_criterion_09_special_floor(config):
    _check(acceptance.criterion_special_floor(config))


def test_criterion_09_keeps_caller_precision(config):
    # The reference is exact integer arithmetic: the criterion passes at
    # any caller mpmath precision and leaves that precision as it was.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(23):
        assert acceptance.criterion_special_floor(config).passed
        assert mp.mp.dps == 23


def test_criterion_10_verify_determinism(tmp_path):
    cfg = json.loads(json.dumps(CONFIG_DICT))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code1 = main(["verify", "-c", str(path), "-o", str(out1)])
    code2 = main(["verify", "-c", str(path), "-o", str(out2)])
    assert code1 == 0 and code2 == 0
    b1 = (out1 / "verify_report.json").read_bytes()
    b2 = (out2 / "verify_report.json").read_bytes()
    assert b1 == b2
    print()
    print("PASS  10  verify reruns byte-identical "
          f"[bytes={len(b1)}]")


STREAM_SEEDS = [0, 1, *range(20230915, 20230920), *range(4242, 4247),
                2 ** 32, 2 ** 40 + 3, 2 ** 70 + 11, 2 ** 130 + 5]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_equals_numpy_default_rng(seed):
    # The criteria's own stream gives numpy's draws bit for bit on an
    # interleaved sequence of the three calls the criteria make, so
    # criteria 1, 3, 4 and 9 draw what numpy's default_rng would.
    mine, ref = acceptance._PCG64(seed), np.random.default_rng(seed)
    calls = np.random.default_rng(seed + 1).integers(0, 3, 300)
    for call in calls:
        if call == 0:
            got, want = mine.uniform(), ref.uniform()
        elif call == 1:
            got, want = mine.uniform(0.2, 1.0), ref.uniform(0.2, 1.0)
        else:
            got, want = mine.integers(0, 9), int(ref.integers(0, 9))
        assert got == want and type(got) is type(want), (seed, call)


def test_box_muller_normals():
    # Criterion 8's normals: the count asked for, finite, and from the
    # stream's uniforms by r = sqrt(-2 log(1 - U1)), t = 2 pi U2.
    stream, uniforms = acceptance._PCG64(7), acceptance._PCG64(7)
    got = stream.box_muller(5)
    assert len(got) == 5 and all(map(math.isfinite, got))
    u1, u2 = uniforms.uniform(), uniforms.uniform()
    r = math.sqrt(-2.0 * math.log1p(-u1))
    assert got[:2] == [r * math.cos(2.0 * math.pi * u2),
                       r * math.sin(2.0 * math.pi * u2)]


def _draws(seed):
    """The (m, z) samples criterion 9 compares with its reference."""
    rng = np.random.default_rng(seed + 4)
    return [acceptance._sample_bessel_point(rng) for _ in range(500)]


def test_criterion_09_reference_equals_mpmath():
    # The fixed-point series gives the double that mpmath's 40-digit
    # besseli rounds to, bit for bit, on every draw of the default and the
    # held-out seed, and at the origin and the corners of the draw domain.
    mp = pytest.importorskip("mpmath")
    points = _draws(20230915) + _draws(4242) + [
        (m, z) for m in range(9) for z in (0j, 20 + 0j, -20 + 0j, 20j, -20j)]
    with mp.workdps(40):
        for m, z in points:
            ref = complex(mp.besseli(m, mp.mpc(z.real, z.imag)))
            assert acceptance._bessel_I_reference(m, z) == ref, (m, z)


def test_criterion_09_fails_on_a_perturbed_bessel_I(config, monkeypatch):
    # A relative error of 1e-11 in bessel_I is ten times the tolerance:
    # the reference is independent of it, so the criterion must fail.
    bessel_I = acceptance.bessel_I
    monkeypatch.setattr(acceptance, "bessel_I",
                        lambda m, z: bessel_I(m, z) * (1.0 + 1e-11))
    result = acceptance.criterion_special_floor(config)
    assert not result.passed
    assert result.details["oracle_worst"] > 1e-12


def test_criterion_09_fails_on_a_perturbed_psi_recurrence(config,
                                                         monkeypatch):
    # bessel_I reads the kernel's scalar psi recurrence, the one that
    # classify, the threshold search and the spectra run: a relative error
    # of 1e-11 there fails the criterion as well.
    psi_scalar = _kernels._psi_scalar
    monkeypatch.setattr(_kernels, "_psi_scalar", lambda ks, u: [
        v * (1.0 + 1e-11) for v in psi_scalar(ks, u)])
    result = acceptance.criterion_special_floor(config)
    assert not result.passed
    assert result.details["oracle_worst"] > 1e-12


# --------------------------------------------------------------------------
# run_all: criteria 1-9 in order, in this process.
# --------------------------------------------------------------------------

def test_run_all_equals_serial_run():
    config = load_config(ROOT / "configs" / "default.json")
    serial = [crit(config) for crit in acceptance.CRITERIA]
    assert acceptance.run_all(config) == serial


def test_run_all_reraises_a_criterion_exception(monkeypatch):
    def crit(config):
        raise AccuracyError("oracle out of range")
    monkeypatch.setattr(acceptance, "CRITERIA", (crit,))
    with pytest.raises(AccuracyError, match="oracle out of range"):
        acceptance.run_all(None)


def test_verify_needs_no_mpmath(tmp_path):
    # With mpmath blocked, verify passes and writes the same bytes as a
    # run in this process.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG_DICT))
    code = ("import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from cellwave.cli import main\n"
            f"sys.exit(main(['verify', '-c', {str(path)!r}, "
            f"'-o', {str(tmp_path / 'blocked')!r}]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=300)
    assert main(["verify", "-c", str(path), "-o", str(tmp_path / "run")]) == 0
    assert ((tmp_path / "blocked" / "verify_report.json").read_bytes()
            == (tmp_path / "run" / "verify_report.json").read_bytes())


def test_cli_setup_imports_neither_mpmath_nor_multiprocessing():
    # No command imports mpmath, so loading the CLI and its config does
    # not either.
    code = ("import sys, cellwave.cli\n"
            "from cellwave.config import load_config\n"
            f"load_config({str(ROOT / 'configs' / 'default.json')!r})\n"
            "print(sorted({'mpmath', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def test_verify_and_branch_load_neither_numpy_random_nor_polynomial(
        tmp_path):
    # The criteria draw from their own stream and the mass rule reads
    # literal nodes, so these two numpy packages stay unloaded.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG_DICT))
    code = ("import sys\n"
            "from cellwave.cli import main\n"
            f"main(['verify', '-c', {str(path)!r}, '-o', {str(tmp_path)!r}])\n"
            f"main(['branch', '-c', {str(path)!r}, '-o', {str(tmp_path)!r}])\n"
            "print(sorted({'numpy.random', 'numpy.polynomial'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    assert out.stdout.strip().splitlines()[-1] == "[]"
