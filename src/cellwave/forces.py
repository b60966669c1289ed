"""Force-law families for the active and undercooling boundary terms.

Two structural families are admissible:

* ``active``: smooth on the nonnegative axis, zero at zero, strictly
  increasing, bounded above by a finite plateau.
* ``undercooling``: smooth, odd, strictly increasing, positive slope at
  the origin.

Concrete constructors: :func:`hill_active`, :func:`linear_undercooling`
and :func:`tanh_undercooling`.  Derivatives up to third order are supplied
analytically per family; the expansion-coefficient checks downstream need
third derivatives to full accuracy, which rules out numerical
differentiation here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ForceLawError

#: Number of sample points used by structural validation.
VALIDATION_POINTS = 256


@dataclass(frozen=True)
class ForceLaw:
    """A scalar force law with analytic derivatives up to order 3.

    Attributes
    ----------
    kind : str
        "active" or "undercooling".
    eval, d1, d2, d3 : callable
        The law and its first three derivatives; all accept floats or
        numpy arrays.
    family : str
        Constructor family name (shown by ``repr``).
    coefficients : dict
        Constructor coefficients (shown by ``repr``; ``validate_force_law``
        reads the plateau ``l_max`` from them).
    """

    kind: str
    eval: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    family: str = "custom"
    coefficients: dict = field(default_factory=dict)

    def __repr__(self):
        coeffs = ", ".join(f"{k}={v:g}" for k, v in self.coefficients.items())
        return f"ForceLaw({self.family}[{self.kind}], {coeffs})"


def validate_force_law(law: ForceLaw, sample_range: float = 8.0) -> None:
    """Check the structural requirements of a force law by sampling.

    Active laws are sampled at VALIDATION_POINTS points on
    (0, sample_range]; undercooling laws on [-sample_range, sample_range].

    Raises
    ------
    ForceLawError
        On any violated requirement.
    """
    if law.kind == "active":
        if abs(law.eval(0.0)) > 1e-14:
            raise ForceLawError("active law must vanish at zero")
        xs = np.linspace(sample_range / VALIDATION_POINTS, sample_range,
                         VALIDATION_POINTS)
        if np.any(np.asarray(law.d1(xs)) <= 0.0):
            raise ForceLawError("active law must be strictly increasing")
        plateau = law.coefficients.get("l_max")
        if plateau is not None and np.any(np.asarray(law.eval(xs)) >= plateau):
            raise ForceLawError("active law must stay below its plateau")
    elif law.kind == "undercooling":
        xs = np.linspace(-sample_range, sample_range, VALIDATION_POINTS)
        odd = np.asarray(law.eval(-xs)) + np.asarray(law.eval(xs))
        scale = 1.0 + np.max(np.abs(np.asarray(law.eval(xs))))
        if np.max(np.abs(odd)) > 1e-12 * scale:
            raise ForceLawError("undercooling law must be odd")
        if np.any(np.asarray(law.d1(xs)) <= 0.0) or law.d1(0.0) <= 0.0:
            raise ForceLawError(
                "undercooling law must be strictly increasing with d1(0) > 0"
            )
    else:
        raise ForceLawError(f"unknown force-law kind {law.kind!r}")


def hill_active(l_max: float = 2.0, k_half: float = 0.75,
                exponent: int = 2) -> ForceLaw:
    """Saturating Hill law f(c) = l_max * c^n / (k_half^n + c^n).

    Vanishes at zero, is strictly increasing on the positive axis and
    saturates at l_max.  The exponent may be a float with an integral
    value, such as 2.0.
    """
    if (l_max <= 0 or k_half <= 0 or exponent < 1
            or not float(exponent).is_integer()):
        raise ForceLawError(
            "hill law needs l_max > 0, k_half > 0 and an integer exponent >= 1")
    n = int(exponent)
    kn = k_half ** n

    def f(c):
        p = np.power(c, n)
        return l_max * p / (kn + p)

    def d1(c):
        p = np.power(c, n)
        return l_max * n * kn * np.power(c, n - 1) / (kn + p) ** 2

    def d2(c):
        p = np.power(c, n)
        q = kn + p
        return l_max * n * kn * np.power(c, n - 2) * ((n - 1) * q - 2 * n * p) / q ** 3

    def d3(c):
        p = np.power(c, n)
        q = kn + p
        poly = ((n - 1) * (n - 2) * q * q
                - 6 * n * (n - 1) * p * q
                + 6 * n * n * p * p)
        return l_max * n * kn * np.power(c, n - 3) * poly / q ** 4

    law = ForceLaw("active", f, d1, d2, d3, "hill",
                   {"l_max": l_max, "k_half": k_half, "exponent": n})
    validate_force_law(law, sample_range=8.0 * k_half)
    return law


def linear_undercooling(slope: float = 1.0) -> ForceLaw:
    """Linear undercooling law f(v) = slope * v.

    Its third derivative vanishes, which isolates the part of the branch
    curvature that does not involve the undercooling nonlinearity.
    """
    if slope <= 0:
        raise ForceLawError("linear undercooling needs slope > 0")

    def f(v):
        return slope * np.asarray(v, dtype=float) + 0.0

    def d1(v):
        return np.full_like(np.asarray(v, dtype=float), slope) + 0.0

    def d2(v):
        return np.zeros_like(np.asarray(v, dtype=float)) + 0.0

    law = ForceLaw("undercooling", f, d1, d2, d2, "linear", {"slope": slope})
    validate_force_law(law)
    return law


def tanh_undercooling(saturation: float = 0.5) -> ForceLaw:
    """Saturating undercooling law f(v) = saturation * tanh(v / saturation).

    Odd and increasing with unit slope at the origin; its third derivative
    at zero is -2 / saturation^2, which exercises the undercooling term of
    the branch-curvature formula.
    """
    if saturation <= 0:
        raise ForceLawError("tanh undercooling needs saturation > 0")
    b = saturation

    def f(v):
        return b * np.tanh(np.asarray(v, dtype=float) / b) + 0.0

    def d1(v):
        return np.cosh(np.asarray(v, dtype=float) / b) ** -2.0 + 0.0

    def d2(v):
        v = np.asarray(v, dtype=float)
        return -2.0 / b * np.tanh(v / b) * np.cosh(v / b) ** -2.0 + 0.0

    def d3(v):
        v = np.asarray(v, dtype=float)
        t = np.tanh(v / b)
        s2 = np.cosh(v / b) ** -2.0
        return -2.0 / b**2 * s2 * (s2 - 2.0 * t * t) + 0.0

    law = ForceLaw("undercooling", f, d1, d2, d3, "tanh", {"saturation": b})
    validate_force_law(law, sample_range=6.0 * b)
    return law


#: family -> (constructor, kind, coefficient names); the config reads the
#: families and their coefficient names from here.
_FAMILIES = {
    "hill": (hill_active, "active", ("l_max", "k_half", "exponent")),
    "linear": (linear_undercooling, "undercooling", ("slope",)),
    "tanh": (tanh_undercooling, "undercooling", ("saturation",)),
}


def force_law_from_config(kind: str, spec: dict) -> ForceLaw:
    """Build a force law from a config block {"family": ..., <coefficients>}."""
    spec = dict(spec)
    family = spec.pop("family", None)
    if family not in _FAMILIES:
        raise ForceLawError(
            f"unknown force-law family {family!r}; choose from {sorted(_FAMILIES)}"
        )
    ctor, expected_kind, _ = _FAMILIES[family]
    if expected_kind != kind:
        raise ForceLawError(f"family {family!r} is not of kind {kind!r}")
    try:
        return ctor(**spec)
    except TypeError as exc:
        raise ForceLawError(f"bad coefficients for family {family!r}: {exc}") from exc
