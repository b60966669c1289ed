"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-9 run through :mod:`cellwave.acceptance`; criterion 10 runs the
CLI ``verify`` twice and compares the emitted reports byte for byte.
"""

import json
import math

import pytest

from cellwave import acceptance
from cellwave.cli import main
from cellwave.config import validate_config

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


def test_criterion_09_special_floor(config):
    _check(acceptance.criterion_special_floor(config))


def test_criterion_09_keeps_caller_precision(config):
    # The 40-digit oracle runs at a local precision: the caller's mpmath
    # precision is the same after the criterion as before it.
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
