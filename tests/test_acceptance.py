"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-9 run through :mod:`cellwave.acceptance`; criterion 10 runs the
CLI ``verify`` twice and compares the emitted reports byte for byte.
The tests at the end pin ``run_all``'s forked worker for criterion 9.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cellwave import acceptance
from cellwave.cli import main
from cellwave.config import load_config, validate_config
from cellwave.errors import AccuracyError, SolverError

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


def test_criterion_02_oracle_is_exact(config, j1_roots):
    # The mpmath oracle gives the frozen roots, so the located rates sit
    # within the root Newton's own accuracy of the exact -j_1k^2 / R0^2;
    # the caller's mpmath precision is kept.
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


# --------------------------------------------------------------------------
# run_all: criterion 9 in a forked child, criteria 1-8 in this process.
# --------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="run_all runs serially without fork")


def _pid_criterion(index):
    def crit(config):
        return acceptance.CriterionResult(index, f"stub {index}", True,
                                          {"pid": os.getpid()})
    return crit


def _stub_criteria(monkeypatch, last, first=None):
    """Replace CRITERIA by eight pid-recording stubs and ``last``."""
    stubs = [_pid_criterion(i) for i in range(1, 9)]
    if first is not None:
        stubs[0] = first
    monkeypatch.setattr(acceptance, "CRITERIA", (*stubs, last))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_equals_serial_run():
    config = load_config(ROOT / "configs" / "default.json")
    serial = [crit(config) for crit in acceptance.CRITERIA]
    assert acceptance.run_all(config) == serial
    _assert_no_child_left()


@needs_fork
def test_run_all_runs_last_criterion_in_a_child(monkeypatch):
    _stub_criteria(monkeypatch, _pid_criterion(9))
    results = acceptance.run_all(None)
    assert [r.index for r in results] == list(range(1, 10))
    assert all(r.details["pid"] == os.getpid() for r in results[:8])
    assert results[8].details["pid"] != os.getpid()
    _assert_no_child_left()


@needs_fork
def test_run_all_reraises_the_child_exception(monkeypatch):
    def crit(config):
        raise AccuracyError("oracle out of range")
    _stub_criteria(monkeypatch, crit)
    with pytest.raises(AccuracyError, match="oracle out of range"):
        acceptance.run_all(None)
    _assert_no_child_left()


@needs_fork
def test_run_all_unpicklable_child_exception(monkeypatch):
    class LocalError(Exception):
        pass

    def crit(config):
        raise LocalError("cannot cross the pipe")
    _stub_criteria(monkeypatch, crit)
    with pytest.raises(SolverError, match="criterion 9 raised LocalError") \
            as info:
        acceptance.run_all(None)
    assert type(info.value) is SolverError
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("end, code", [
    (lambda: os._exit(1), 1),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit-1", "sigkill"])
def test_run_all_child_without_result(monkeypatch, end, code):
    def crit(config):
        end()
    _stub_criteria(monkeypatch, crit)
    with pytest.raises(SolverError,
                       match=f"criterion 9 worker ended without a result "
                             rf"\(wait status \d+, exit code {code}\)"):
        acceptance.run_all(None)
    _assert_no_child_left()


@needs_fork
def test_run_all_reaps_the_child_when_the_parent_fails(monkeypatch):
    # The child would sleep for a minute; a failure among criteria 1-8
    # kills and reaps it instead of waiting for it.
    def first(config):
        raise AccuracyError("criterion 1 failed")

    def slow(config):
        time.sleep(60.0)
    _stub_criteria(monkeypatch, slow, first=first)
    t0 = time.perf_counter()
    with pytest.raises(AccuracyError, match="criterion 1 failed"):
        acceptance.run_all(None)
    assert time.perf_counter() - t0 < 30.0
    _assert_no_child_left()


def test_cli_setup_imports_neither_mpmath_nor_multiprocessing():
    # mpmath is imported by run_all, not at module level, so that loading
    # the CLI and its config does not pay for it.
    code = ("import sys, cellwave.cli\n"
            "from cellwave.config import load_config\n"
            f"load_config({str(ROOT / 'configs' / 'default.json')!r})\n"
            "print(sorted({'mpmath', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"
