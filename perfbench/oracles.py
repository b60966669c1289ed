"""Checks of cellwave's output files against computations made apart from it.

Nothing here imports cellwave.  The model constants are read from the raw
JSON config and the force-law slopes are derived here from their closed
forms; Bessel functions come from mpmath at 40 digits, and the
argument-principle zero count uses a power series of the dispersion kernel
written out in this file.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------------------
# Model constants from the raw config.
# ---------------------------------------------------------------------------

class Model:
    """Constants of the default config, computed without cellwave."""

    def __init__(self, raw: dict):
        model = raw["model"]
        self.a = model["a"]
        self.gamma = model["gamma"]
        self.chi_u = model["chi_u"]
        self.R0 = model["R0"]
        self.M = model["M"]
        self.c0 = self.M / (math.pi * self.R0 ** 2)
        act = raw["force_laws"]["active"]
        und = raw["force_laws"]["undercooling"]
        if act["family"] != "hill" or und["family"] != "linear":
            raise ValueError("the oracles know the hill/linear force laws only")
        n, k, lmax = act["exponent"], act["k_half"], act["l_max"]
        c = self.c0
        # f(c) = l c^n / (k^n + c^n)  =>  f'(c) = l n k^n c^(n-1) / (k^n + c^n)^2
        self.fact_d1 = lmax * n * k ** n * c ** (n - 1) / (k ** n + c ** n) ** 2
        self.fund_d1 = und["slope"]
        self.chi_star = ((self.R0 + self.chi_u * self.fund_d1)
                         / (self.R0 * self.a * self.c0 * self.fact_d1))
        analysis = raw.get("analysis", {})
        region = analysis.get("root_region")
        if region is None:
            r2 = self.R0 ** 2
            region = (-80.0 / r2, 20.0 / r2, -10.0, 10.0)
        self.region = tuple(float(v) for v in region)
        grid = analysis["chi_c_grid"]
        self.chi_grid = [float(v) for v in np.linspace(
            grid["start"], grid["stop"], grid["count"])]
        self.modes = range(analysis["mode_min"], analysis["mode_max"] + 1)

    def constants(self, m: int, chi_c: float):
        """(C, b_m, d_m) of the mode-m dispersion function."""
        coef_c = self.a * chi_c * self.c0 * self.fact_d1 / self.R0
        b_m = 1.0 + m * self.chi_u * self.fund_d1 / self.R0
        d_m = self.gamma * m * (m * m - 1) / self.R0 ** 3
        return coef_c, b_m, d_m


def _close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y))


# ---------------------------------------------------------------------------
# spectrum-sweep: resting_state.json and dispersion.csv.
# ---------------------------------------------------------------------------

def read_dispersion(path: Path) -> dict:
    """{(m, chi_c): [(root, is_principal), ...]} from dispersion.csv."""
    spectra = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["m"]), float(row["chi_c"]))
            root = complex(float(row["re_lambda"]), float(row["im_lambda"]))
            spectra.setdefault(key, []).append((root, row["is_principal"] == "1"))
    return spectra


def literal_H_residual(model: Model, m: int, chi_c: float, z: complex) -> float:
    """|H_m(z)| over its largest term, from the paper's formula at 40 digits.

    H_m(z) = z m C I_m(w) + (sqrt(z)/2)(z b_m + d_m)(I_{m-1}(w) + I_{m+1}(w)),
    w = -R0 sqrt(z), I_{-1} = I_1.  For m = 0 the first term is absent and
    the scale is |sqrt(z)/2 (z b_0 + d_0)| 2 |I_0(w)|.
    """
    with mp.workdps(40):
        coef_c, b_m, d_m = (mp.mpf(v) for v in model.constants(m, chi_c))
        zz = mp.mpc(z.real, z.imag)
        sq = mp.sqrt(zz)
        w = -mp.mpf(model.R0) * sq
        i_m = mp.besseli(m, w)
        i_lo = mp.besseli(abs(m - 1), w)
        i_hi = mp.besseli(m + 1, w)
        pre = sq / 2 * (zz * b_m + d_m)
        term1 = zz * m * coef_c * i_m
        value = term1 + pre * (i_lo + i_hi)
        if m == 0:
            scale = abs(pre) * 2 * abs(i_m)
        else:
            scale = max(abs(term1), abs(pre) * (abs(i_lo) + abs(i_hi)))
        return float(abs(value) / scale)


def _psi(k: int, u: np.ndarray, terms: int = 80) -> np.ndarray:
    """psi_k(u) = I_k(w)/w^k, u = w^2, by its everywhere-convergent series
    sum_j (u/4)^j / (2^k j! (j+k)!)."""
    term = np.full(u.shape, 1.0 / (2.0 ** k * math.factorial(k)), complex)
    total = term.copy()
    q = u / 4.0
    for j in range(1, terms):
        term = term * q / (j * (j + k))
        total += term
    return total


def _kernel(model: Model, m: int, chi_c: float, z: np.ndarray) -> np.ndarray:
    """H_m(z) / z^(structural order): entire in z, same nonzero roots."""
    coef_c, b_m, d_m = model.constants(m, chi_c)
    r0 = model.R0
    u = r0 * r0 * z
    if m == 0:
        return -r0 * _psi(1, u)
    lo, mid, hi = _psi(m - 1, u), _psi(m, u), _psi(m + 1, u)
    if m == 1:
        return -r0 * coef_c * mid + 0.5 * b_m * (lo + u * hi)
    return (m * coef_c * (-r0) ** m * z * mid
            + 0.5 * (-r0) ** (m - 1) * (z * b_m + d_m) * (lo + u * hi))


def argument_principle_count(model: Model, m: int, chi_c: float) -> float:
    """Winding number of the kernel around the search rectangle.

    The boundary is sampled and refined until the phase moves by less than
    0.3 rad between neighbours; the returned value is the unrounded winding
    number, so a caller can see how close to an integer it is.
    """
    x0, x1, y0, y1 = model.region
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1),
               complex(x0, y1), complex(x0, y0)]
    t = np.linspace(0.0, 1.0, 801)[:-1]
    pts = np.concatenate([a + (b - a) * t for a, b in zip(corners, corners[1:])]
                         + [np.array([corners[0]])])
    vals = _kernel(model, m, chi_c, pts)
    for _ in range(30):
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.nonzero(np.abs(dphi) > 0.3)[0]
        if bad.size == 0:
            return float(np.sum(dphi) / (2.0 * math.pi))
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, _kernel(model, m, chi_c, mids))
    return math.nan


def check_resting_state(model: Model, path: Path) -> list[str]:
    data = json.loads(path.read_text())
    errors = []
    if not _close(data["c0"], model.c0, 1e-13):
        errors.append(f"resting_state c0 {data['c0']!r} != M/(pi R0^2) "
                      f"{model.c0!r}")
    if not _close(data["chi_c_star"], model.chi_star, 1e-12):
        errors.append(f"resting_state chi_c_star {data['chi_c_star']!r} != "
                      f"{model.chi_star!r}")
    return errors


def check_dispersion(model: Model, path: Path) -> list[str]:
    spectra = read_dispersion(path)
    errors = []
    x0, x1, y0, y1 = model.region

    # Mode 0: the nonzero rates are -j_{1,k}^2 / R0^2.
    expected = []
    k = 1
    while True:
        with mp.workdps(40):
            lam = -float(mp.besseljzero(1, k)) ** 2 / model.R0 ** 2
        if lam < x0:
            break
        expected.insert(0, lam)
        k += 1
    for chi in model.chi_grid:
        got = sorted(r.real for r, _ in spectra.get((0, chi), [])
                     if x0 < r.real < x1)
        if len(got) != len(expected) or any(
                abs(g - e) > 1e-9 for g, e in zip(got, expected)):
            errors.append(f"mode 0 at chi_c={chi}: {got} != {expected}")
        if any(abs(r.imag) > 1e-9 for r, _ in spectra.get((0, chi), [])):
            errors.append(f"mode 0 at chi_c={chi}: complex root")

    for (m, chi), roots in sorted(spectra.items()):
        # Every root is a zero of the literal H_m.
        for z, _ in roots:
            rel = literal_H_residual(model, m, chi, z)
            if not rel <= 1e-9:
                errors.append(f"m={m} chi_c={chi} root {z}: literal H_m "
                              f"residual {rel:.3e}")
        # Conjugate pairs.
        for z, _ in roots:
            if abs(z.imag) > 1e-9 * (1.0 + abs(z)) and not any(
                    abs(w - z.conjugate()) <= 1e-8 * (1.0 + abs(z))
                    for w, _ in roots):
                errors.append(f"m={m} chi_c={chi}: {z} has no conjugate")

    # Mode 1: the principal rate changes sign only across chi_c*.
    for chi in model.chi_grid:
        principal = [z for z, p in spectra.get((1, chi), []) if p]
        if len(principal) != 1:
            errors.append(f"mode 1 at chi_c={chi}: {len(principal)} principals")
            continue
        if (principal[0].real > 0.0) != (chi > model.chi_star):
            errors.append(f"mode 1 at chi_c={chi}: principal {principal[0]} "
                          f"on the wrong side of chi_c*={model.chi_star}")

    # Argument principle on every (m, chi_c): it costs about a second.
    for m, chi in ((m, chi) for m in model.modes for chi in model.chi_grid):
        winding = argument_principle_count(model, m, chi)
        inside = sum(1 for z, _ in spectra.get((m, chi), [])
                     if x0 < z.real < x1 and y0 < z.imag < y1)
        if not abs(winding - inside) < 1e-3:
            errors.append(f"m={m} chi_c={chi}: {inside} roots located, "
                          f"argument principle counts {winding:.4f}")
    return errors


# ---------------------------------------------------------------------------
# branch-trace: branch.csv and branch_report.json at two truncations.
# ---------------------------------------------------------------------------

def _read_branch(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def check_branch(model: Model, outdirs: list[Path]) -> list[str]:
    errors = []
    chis = []
    for outdir in outdirs:
        rows = _read_branch(outdir / "branch.csv")
        report = json.loads((outdir / "branch_report.json").read_text())
        name = outdir.name
        if rows[0]["V"] != 0.0 or not _close(rows[0]["chi_c"],
                                             model.chi_star, 1e-12):
            errors.append(f"{name}: V=0 row {rows[0]['V']}, "
                          f"{rows[0]['chi_c']} != chi_c*={model.chi_star}")
        for row in rows:
            if not (row["residual"] <= 1e-9 and row["area_error"] <= 1e-10):
                errors.append(f"{name}: V={row['V']} residual "
                              f"{row['residual']:.3e} area {row['area_error']:.3e}")
        if not abs(report["d_chi_ds_at_0"]) <= 1e-4:
            errors.append(f"{name}: d_chi_ds_at_0 = {report['d_chi_ds_at_0']}")
        for key, value in report["symmetry"].items():
            if not value <= 1e-10:
                errors.append(f"{name}: symmetry {key} = {value}")
        chis.append({row["V"]: row["chi_c"] for row in rows})
    first, *rest = chis
    for other in rest:
        if first.keys() != other.keys():
            errors.append("branches at the two truncations have other speeds")
            continue
        worst = max(abs(first[v] - other[v]) for v in first)
        if not worst <= 1e-10:
            errors.append(f"chi_c(V) differs by {worst:.3e} between truncations")
    return errors


# ---------------------------------------------------------------------------
# acceptance: verify_report.json.
# ---------------------------------------------------------------------------

def check_verify(path: Path) -> list[str]:
    report = json.loads(path.read_text())
    passed = [c["index"] for c in report["criteria"] if c["passed"]]
    if passed != list(range(1, 10)) or report["all_passed"] is not True:
        return [f"verify passed criteria {passed} of 1..9"]
    return []
