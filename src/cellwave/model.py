"""Model parameters, resting state, threshold and traveling-wave closed forms.

All quantities are dimensionless (the bulk diffusivity is scaled to one).
Types are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateThresholdError, ParamError
from .forces import ForceLaw


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model.

    Attributes
    ----------
    a : float
        Adsorbed fraction of markers, in (0, 1].
    gamma : float
        Surface tension, > 0 and finite.
    chi_c : float
        Active strength, >= 0 and finite.
    chi_u : float
        Undercooling strength, >= 0 and finite.
    R0 : float
        Rest radius, > 0 and finite.
    M : float
        Total marker mass, > 0 and finite.
    """

    a: float
    gamma: float
    chi_c: float
    chi_u: float
    R0: float
    M: float

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ParamError(f"a must lie in (0, 1], got {self.a!r}")
        if not self.gamma > 0.0:
            raise ParamError(f"gamma must be positive, got {self.gamma!r}")
        if not self.R0 > 0.0:
            raise ParamError(f"R0 must be positive, got {self.R0!r}")
        if not self.M > 0.0:
            raise ParamError(f"M must be positive, got {self.M!r}")
        if not self.chi_c >= 0.0:
            raise ParamError(f"chi_c must be nonnegative, got {self.chi_c!r}")
        if not self.chi_u >= 0.0:
            raise ParamError(f"chi_u must be nonnegative, got {self.chi_u!r}")
        for name in ("gamma", "chi_c", "chi_u", "R0", "M"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParamError(f"{name} must be finite, got {value!r}")

    def with_chi_c(self, chi_c: float) -> "ModelParams":
        """Copy with a different active strength (sweep helper)."""
        return ModelParams(self.a, self.gamma, chi_c, self.chi_u, self.R0, self.M)

    @property
    def c0(self) -> float:
        """Uniform rest concentration M / (pi R0^2)."""
        return self.M / (math.pi * self.R0 ** 2)


@dataclass(frozen=True)
class RestingState:
    """The unique stationary disk: uniform concentration and pressure,
    zero velocity field (implicit)."""

    c0: float
    P0: float
    R0: float


def resting_state(params: ModelParams, f_act: ForceLaw) -> RestingState:
    """Resting state of the model: c0 = M/(pi R0^2), P0 = gamma/R0 + chi_c f_act(c0)."""
    if f_act.kind != "active":
        raise ParamError("resting_state needs an active-kind force law")
    c0 = params.c0
    p0 = params.gamma / params.R0 + params.chi_c * float(f_act.eval(c0))
    return RestingState(c0=c0, P0=p0, R0=params.R0)


def chi_c_star(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw) -> float:
    """Critical active strength at which the disk loses linear stability.

    chi_c_star = (R0 + chi_u * f_und'(0)) / (R0 * a * c0 * f_act'(c0)).
    Increasing in chi_u and in f_und'(0), decreasing in a.
    """
    c0 = params.c0
    slope = float(f_act.d1(c0))
    if slope <= 0.0:
        raise DegenerateThresholdError(
            f"f_act'(c0) = {slope!r} must be positive at c0 = {c0!r}"
        )
    numer = params.R0 + params.chi_u * float(f_und.d1(0.0))
    return numer / (params.R0 * params.a * c0 * slope)


def tw_concentration(params: ModelParams, V: float, c1: float, point):
    """Traveling-wave marker concentration c(x, y) = c1 * exp(-a V x).

    ``point[0]`` may be an array of x values; the result then has its shape.
    """
    if not c1 > 0.0:
        raise ParamError(f"c1 must be positive, got {c1!r}")
    return c1 * np.exp(-params.a * V * np.asarray(point[0], dtype=float))


def tw_pressure(V: float, p1: float, point):
    """Traveling-wave pressure P(x, y) = p1 - V x (constant gradient (-V, 0)).

    ``point[0]`` may be an array of x values; the result then has its shape.
    """
    return p1 - V * np.asarray(point[0], dtype=float)
