"""Independent references for the dispersion tests.

``dispersion_H`` is the literal transcription of the mode-m dispersion
function H_m (principal square root), built on
``acceptance._bessel_I_reference``, the exact fixed-point series of
criterion 9 (pinned to mpmath by its own test), so H_m is independent of
the kernel's psi recurrence and of ``bessel_I``, which reads it.
``dispersion_kernel`` is H_m with its structural zero at the origin
factored out, evaluated by the scalar kernel ``_kernels.phi_mode``; the root
search of ``cellwave.stability`` uses the array and slope forms of the same
kernel.  ``structural_exponent`` is the order of that zero, so
H_m(z) = z**structural_exponent(m) * kernel.
"""

import cmath

from cellwave import _kernels
from cellwave.acceptance import _bessel_I_reference as ref_I
from cellwave.forces import ForceLaw
from cellwave.model import ModelParams
from cellwave.stability import _mode_constants


def dispersion_H(m: int, z: complex, params: ModelParams, f_act: ForceLaw,
                 f_und: ForceLaw) -> complex:
    """Literal mode-m dispersion function H_m(z), principal square root.

    H_m(z) = z m (a chi_c c0 f_act'(c0) / R0) I_m(-R0 sqrt(z))
           + (sqrt(z)/2) [z (1 + (m/R0) chi_u f_und'(0))
                          + (gamma/R0^3) m (m^2 - 1)]
                        [I_{m-1}(-R0 sqrt(z)) + I_{m+1}(-R0 sqrt(z))]

    with I_{-1} = I_1.  Under the opposite square-root branch the value
    changes by exactly (-1)^m, so the root set is branch independent.
    """
    if m < 0:
        raise ValueError("mode index must be nonnegative")
    coef_c, b_m, d_m = _mode_constants(m, params, f_act, f_und)
    z = complex(z)
    sq = cmath.sqrt(z)
    w = -params.R0 * sq
    i_lo = ref_I(1, w) if m == 0 else ref_I(m - 1, w)
    term1 = z * m * coef_c * ref_I(m, w)
    term2 = 0.5 * sq * (z * b_m + d_m) * (i_lo + ref_I(m + 1, w))
    return term1 + term2


def structural_exponent(m: int) -> float:
    """Order of the structural zero of H_m at the origin: H_m = z^e * kernel."""
    if m == 0:
        return 2.0
    if m == 1:
        return 1.5
    return 0.5 * m


def dispersion_kernel(m: int, z: complex, params: ModelParams, f_act: ForceLaw,
                      f_und: ForceLaw) -> tuple[complex, float]:
    """Dispersion function with the structural origin zero factored out.

    Returns (value, scale) with scale the magnitude of the largest additive
    term; the nonzero growth rates of mode m are exactly the roots of the
    value.  Entire in z (no square-root branch).
    """
    coef_c, b_m, d_m = _mode_constants(m, params, f_act, f_und)
    val, scale = _kernels.phi_mode(int(m), complex(z), params.R0, coef_c, b_m, d_m)
    return complex(val), float(scale)
