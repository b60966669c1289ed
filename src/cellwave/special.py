"""Modified Bessel I_m for complex argument.

``bessel_I`` is built on ``_kernels.iv_series``, an ascending power
series close to the origin, and ``_kernels.iv_chain``, Miller's downward
recurrence on I_k elsewhere, with parity used to fold arguments into the
half plane where the recurrence normalisation is cancellation-free.  The
dispersion kernel calls neither: it runs its own recurrence on
psi_k(u) = I_k(w)/w^k, so ``bessel_I`` stays an independent reference that
the kernel is tested against.
"""

from __future__ import annotations

import math
import operator

from . import _kernels
from .errors import AccuracyError

#: Documented reliable range for bessel_I arguments.
RELIABLE_RADIUS = 100.0


def bessel_I(m: int, z: complex) -> complex:
    """Modified Bessel function of the first kind I_m(z), complex z.

    Parameters
    ----------
    m : int
        Order, an integer m >= 0 (Python or numpy integer).
    z : complex
        Argument; |z| must not exceed ``RELIABLE_RADIUS``.

    Returns
    -------
    complex
        I_m(z), relative accuracy ~1e-14 inside the reliable range.

    Raises
    ------
    ValueError
        If the order is not a nonnegative integer.
    AccuracyError
        If the argument is non-finite or outside the reliable range.
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError("order must be a nonnegative integer") from None
    if m < 0:
        raise ValueError("order must be a nonnegative integer")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise AccuracyError(f"non-finite argument {z!r}")
    if abs(z) > RELIABLE_RADIUS:
        raise AccuracyError(
            f"|z| = {abs(z):.3g} exceeds the reliable range {RELIABLE_RADIUS:g}"
        )
    sign = 1.0
    if z.real < 0.0:
        z = -z
        if m % 2 == 1:
            sign = -1.0
    if abs(z) <= _kernels.SERIES_RADIUS:
        return complex(sign * _kernels.iv_series(m, z))
    return complex(sign * _kernels.iv_chain(m, z)[m])
