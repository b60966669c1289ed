"""Modified Bessel I_m for complex argument.

``bessel_I`` writes I_m(z) = z^m psi_m(z^2) on the dispersion kernel's own
recurrence, ``_kernels.psi_tilde``, so acceptance criterion 9 certifies the
code the spectra run.  psi is a function of z^2, so I_m(-z) = (-1)^m I_m(z)
needs no code of its own.
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

    Computed as z^m psi_m(z^2), psi_m(u) = I_m(w)/w^m from
    ``_kernels.psi_tilde``.  Against mpmath at 40 digits, over 1500 random
    points with m <= 140 and |z| <= 100, the worst relative error was
    5.9e-14, at m = 136, nearly all of it from z^m, which Python forms in
    polar form above order 100 (psi_m there was within 3e-15).  On
    criterion 9's draws (m <= 8, |z| <= 20) it stays below 4e-15 relative
    to 1 + |I_m(z)|.

    Parameters
    ----------
    m : int
        Order, an integer m >= 0 (Python or numpy integer).
    z : complex
        Argument; |z| must not exceed ``RELIABLE_RADIUS``.

    Returns
    -------
    complex
        I_m(z), a normal double or exactly zero (z = 0, m >= 1).

    Raises
    ------
    ValueError
        If the order is not a nonnegative integer.
    AccuracyError
        If the argument is non-finite or outside the reliable range, or if
        psi_m(z^2), z^m or the product is not a normal double.  psi_m
        underflows from about m = 150 (from 147 at z = 100i, from 153 at
        z = 100), also where I_m(z) itself is a normal double; z^m
        overflows from m = 155 at |z| = 100.
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
    psi = _kernels.psi_tilde(m, z * z)
    tiny = _kernels._DOUBLE_MIN
    try:
        zm = z ** m
        val = zm * psi
        if abs(psi) >= tiny and (z == 0.0 or min(abs(zm), abs(val)) >= tiny):
            return val
    except OverflowError:           # z^m, or its modulus, past the range
        pass
    raise AccuracyError(f"I_{m}({z:.6g}) leaves the double range")
