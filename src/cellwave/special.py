"""Bessel evaluation, Bessel-J roots and quadrature rules.

``bessel_I`` and ``bessel_J`` are built on the scalar kernels in
``_kernels``: an ascending power series close to the origin and Miller's
downward recurrence elsewhere, with parity used to fold arguments into the
half plane where the recurrence normalisation is cancellation-free.  These
chains are their own, separate from the array seed screen of the dispersion
kernel, so the two functions stay references that the kernel is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import AccuracyError

#: Documented reliable range for bessel_I arguments.
RELIABLE_RADIUS = 100.0


def bessel_I(m: int, z: complex) -> complex:
    """Modified Bessel function of the first kind I_m(z), complex z.

    Parameters
    ----------
    m : int
        Order, m >= 0.
    z : complex
        Argument; |z| must not exceed ``RELIABLE_RADIUS``.

    Returns
    -------
    complex
        I_m(z), relative accuracy ~1e-14 inside the reliable range.

    Raises
    ------
    AccuracyError
        If the argument is non-finite or outside the reliable range.
    """
    if m < 0:
        raise ValueError("order must be a nonnegative integer")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise AccuracyError(f"non-finite argument {z!r}")
    if abs(z) > RELIABLE_RADIUS:
        raise AccuracyError(
            f"|z| = {abs(z):.3g} exceeds the reliable range {RELIABLE_RADIUS:g}"
        )
    return complex(_kernels.bessel_i_kernel(int(m), z))


def bessel_J(m: int, x: float) -> float:
    """Bessel function of the first kind J_m(x), real x."""
    if m < 0:
        raise ValueError("order must be a nonnegative integer")
    x = float(x)
    if not math.isfinite(x):
        raise AccuracyError(f"non-finite argument {x!r}")
    return float(_kernels.bessel_j_kernel(int(m), x))


def bessel_J_roots(order: int, count: int) -> list[float]:
    """First ``count`` strictly positive roots of J_order.

    Roots are bracketed by sign changes of J_order on a fine grid and
    refined by bisection to 1e-12 absolute.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    roots: list[float] = []
    # k-th positive root sits near (k + order/2 - 1/4) * pi; pad generously.
    hi = (count + 0.5 * order + 2.0) * math.pi + 5.0
    step = 0.05
    x0 = max(step, 1e-6)
    f0 = bessel_J(order, x0)
    x = x0
    while len(roots) < count and x < hi:
        x1 = x + step
        f1 = bessel_J(order, x1)
        if f0 == 0.0:
            roots.append(x)
        elif f0 * f1 < 0.0:
            lo_x, hi_x, lo_f = x, x1, f0
            while hi_x - lo_x > 1e-13:
                mid = 0.5 * (lo_x + hi_x)
                fm = bessel_J(order, mid)
                if fm == 0.0:
                    lo_x = hi_x = mid
                    break
                if lo_f * fm < 0.0:
                    hi_x = mid
                else:
                    lo_x, lo_f = mid, fm
            roots.append(0.5 * (lo_x + hi_x))
        x, f0 = x1, f1
    if len(roots) < count:
        raise AccuracyError(
            f"found only {len(roots)} of {count} roots of J_{order} below {hi:.3g}"
        )
    return roots[:count]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a 1-D quadrature rule.

    Weights sum to the measure of the integration interval (checked to
    1e-12 relative at construction).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    measure: float

    def __post_init__(self):
        total = float(np.sum(self.weights))
        if abs(total - self.measure) > 1e-12 * max(1.0, abs(self.measure)):
            raise ValueError(
                f"weights sum to {total!r}, expected measure {self.measure!r}"
            )

    def integrate(self, values: np.ndarray) -> float:
        """Dot the weights against sampled integrand values."""
        return float(np.dot(self.weights, values))


def periodic_trapezoid(n: int) -> QuadratureRule:
    """Equispaced trapezoid rule on [0, 2*pi); spectrally accurate for
    smooth periodic integrands."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = 2.0 * np.pi * np.arange(n) / n
    weights = np.full(n, 2.0 * np.pi / n)
    return QuadratureRule(nodes, weights, "periodic-trapezoid", 2.0 * np.pi)


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n points on [a, b]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = half * w
    return QuadratureRule(nodes, weights, "gauss-legendre", b - a)
