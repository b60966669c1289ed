"""Run-configuration loading and validation.

A run is described by a single JSON file with four sections: ``model``,
``force_laws``, ``analysis`` and ``output``.  Unknown keys anywhere are
rejected with their full path, tolerances must be positive and grids
monotone.  Individual keys can be overridden from the command line with
``--set section.key=value``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ForceLawError
from .forces import _FAMILIES, ForceLaw, force_law_from_config
from .model import ModelParams
from .stability import DEFAULT_MODE_MAX, DEFAULT_SEEDS, THRESHOLD_TOL
from .waves import DEFAULT_N, REPORT_STEP, SOLVE_TOL

_MODEL_KEYS = ("a", "gamma", "chi_c", "chi_u", "R0", "M")

_ANALYSIS_DEFAULTS = {
    "mode_min": 0,
    "mode_max": DEFAULT_MODE_MAX,
    "chi_c_grid": {"start": 0.5, "stop": 3.5, "count": 13},
    "root_region": None,
    "seed_grid": list(DEFAULT_SEEDS),
    "N": DEFAULT_N,
    "ds": 0.01,
    "V_max": 0.3,
    "newton_tol": SOLVE_TOL,
    "threshold_tol": THRESHOLD_TOL,
    "report_step": REPORT_STEP,
    "seed": 20230915,
}

_OUTPUT_DEFAULTS = {
    "directory": "out",
    "rho_width": 8,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration."""

    params: ModelParams
    f_act: ForceLaw
    f_und: ForceLaw
    analysis: dict
    output: dict


def _require_number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return number


def _require_int(key: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_unknown(section: str, block: dict, allowed) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}")


def _chi_grid(spec) -> list[float]:
    if isinstance(spec, list):
        grid = [_require_number("analysis.chi_c_grid", str(i), v)
                for i, v in enumerate(spec)]
    elif isinstance(spec, dict):
        _check_unknown("analysis.chi_c_grid", spec, {"start", "stop", "count"})
        try:
            start = _require_number("analysis.chi_c_grid", "start", spec["start"])
            stop = _require_number("analysis.chi_c_grid", "stop", spec["stop"])
            count = _require_int("analysis.chi_c_grid.count", spec["count"], 0)
        except KeyError as exc:
            raise ConfigError(
                f"missing key analysis.chi_c_grid.{exc.args[0]}"
            ) from None
        grid = list(np.linspace(start, stop, count)) if count else []
    else:
        raise ConfigError("analysis.chi_c_grid must be a list or {start,stop,count}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("analysis.chi_c_grid must be strictly ascending")
    if grid and grid[0] < 0:
        raise ConfigError(
            f"analysis.chi_c_grid must be nonnegative, got {grid[0]:g}")
    return grid


def validate_config(data: dict) -> RunConfig:
    """Validate a parsed config dictionary and construct the run objects."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_unknown("config", data, {"model", "force_laws", "analysis", "output"})

    model = data.get("model")
    if not isinstance(model, dict):
        raise ConfigError("missing section model")
    _check_unknown("model", model, _MODEL_KEYS)
    kwargs = {}
    for key in _MODEL_KEYS:
        if key not in model:
            raise ConfigError(f"missing key model.{key}")
        kwargs[key] = _require_number("model", key, model[key])
    try:
        params = ModelParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    laws = data.get("force_laws")
    if not isinstance(laws, dict):
        raise ConfigError("missing section force_laws")
    _check_unknown("force_laws", laws, {"active", "undercooling"})
    built = {}
    for kind in ("active", "undercooling"):
        block = laws.get(kind)
        if not isinstance(block, dict):
            raise ConfigError(f"missing key force_laws.{kind}")
        family = block.get("family")
        if not isinstance(family, str) or family not in _FAMILIES:
            raise ConfigError(
                f"force_laws.{kind}.family must be one of "
                f"{sorted(_FAMILIES)}, got {family!r}"
            )
        _check_unknown(f"force_laws.{kind}", block,
                       ("family", *_FAMILIES[family][2]))
        for key, value in block.items():
            if key != "family":
                _require_number(f"force_laws.{kind}", key, value)
        try:
            built[kind] = force_law_from_config(kind, block)
        except ForceLawError as exc:
            raise ConfigError(f"force_laws.{kind}: {exc}") from exc

    analysis = dict(_ANALYSIS_DEFAULTS)
    block = data.get("analysis", {})
    if not isinstance(block, dict):
        raise ConfigError("analysis must be an object")
    _check_unknown("analysis", block, _ANALYSIS_DEFAULTS)
    analysis.update(block)
    analysis["chi_c_grid"] = _chi_grid(analysis["chi_c_grid"])
    for key in ("ds", "V_max", "newton_tol", "threshold_tol", "report_step"):
        val = _require_number("analysis", key, analysis[key])
        if val <= 0:
            raise ConfigError(f"analysis.{key} must be positive, got {val!r}")
        analysis[key] = val
    for key, minimum in (("mode_min", 0), ("mode_max", analysis["mode_min"]),
                         ("N", 4), ("seed", 0)):
        _require_int(f"analysis.{key}", analysis[key], minimum)
    region = analysis["root_region"]
    if region is not None:
        if (not isinstance(region, list) or len(region) != 4):
            raise ConfigError("analysis.root_region must be [re_min, re_max, im_min, im_max]")
        region = [_require_number("analysis.root_region", str(i), v)
                  for i, v in enumerate(region)]
        if region[1] <= region[0] or region[3] <= region[2]:
            raise ConfigError("analysis.root_region must be a nonempty rectangle")
        analysis["root_region"] = tuple(region)
    seeds = analysis["seed_grid"]
    if not isinstance(seeds, list) or len(seeds) != 2:
        raise ConfigError("analysis.seed_grid must be [nx, ny] with ints >= 2")
    analysis["seed_grid"] = tuple(_require_int(f"analysis.seed_grid.{i}", s, 2)
                                  for i, s in enumerate(seeds))

    output = dict(_OUTPUT_DEFAULTS)
    block = data.get("output", {})
    if not isinstance(block, dict):
        raise ConfigError("output must be an object")
    _check_unknown("output", block, _OUTPUT_DEFAULTS)
    output.update(block)
    if not isinstance(output["directory"], str):
        raise ConfigError("output.directory must be a string")
    _require_int("output.rho_width", output["rho_width"], 1)

    return RunConfig(params=params, f_act=built["active"],
                     f_und=built["undercooling"], analysis=analysis,
                     output=output)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply --set section.key=value pairs (values parsed as JSON, falling
    back to bare strings)."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key path")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r} traverses a non-object")
        node[keys[-1]] = value
    return data


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Read, override and validate a JSON config file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if overrides:
        data = apply_overrides(data, overrides)
    return validate_config(data)
