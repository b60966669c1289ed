"""Traveling-wave shapes, the boundary residual, and branch continuation.

The free boundary is written as r(theta) = R0 + rho(theta) with rho an even
truncated cosine series (reflection symmetry about the direction of motion).
A traveling wave at speed V solves the curvature equation

    gamma*kappa + chi_c f_act(c) + chi_u f_und(V n_1) + V r cos(theta) = p1_phys

on the boundary, together with the fixed-area and centering constraints.
``_residual_vector`` discretises this by collocation at 2N equispaced angles
and projection onto cosine modes 0..N.  The pressure constant carried by
states is measured relative to the resting value, i.e. the physical constant is
``p1 + gamma/R0 + chi_c f_act(c0)``; with that convention the disk with
V = 0, p1 = 0 is an exact root of the residual for every chi_c, which is
what makes (chi_c_star, disk, 0, 0) the bifurcation point of the branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    BranchRangeError,
    ContinuationStalledError,
    GeometryError,
    NewtonConvergenceError,
    SolverError,
)
from .forces import ForceLaw
from .model import ModelParams, chi_c_star, tw_concentration, tw_pressure
from .solvers import arclength_continue, newton_solve

#: Default truncation order of the cosine series.
DEFAULT_N = 64

#: Newton tolerance for traveling-wave solves.
SOLVE_TOL = 1e-12

#: Largest speed ``bifurcation_report`` solves at.
REPORT_STEP = 0.04

#: Resolution certificate: a branch state is resolved when its spectral
#: tail max_{k > 3N/4} |rho_k| / max_k |rho_k| is at most this.  The
#: default config stays below 1e-13; gamma = 0.1 passes it near V = 0.85
#: at N = 64, and the shapes past its fold reach tails of 0.2.
TAIL_TOL = 1e-8

#: Accepted states the fixed-speed predictor extrapolates through in V
#: (three: a quadratic).
PREDICTOR_POINTS = 3

#: Columns of ``bifurcation_jacobian`` per stacked residual call, each
#: with its +h and -h point (8 columns, 16 states).  Measured on 2 cores
#: at N = 64: 4, 8, 16 and 32 columns take about 2.7, 1.8, 1.5 and 1.3 ms,
#: against 11 ms one state at a time; their transient arrays (tracemalloc
#: peak 0.18, 0.32, 0.60 and 1.16 MB) leave the peak RSS of repeated
#: ``verify`` passes where it was up to 8 columns and raise it by about
#: 0.3 and 0.7 MB at 16 and 32.
JACOBIAN_BLOCK = 8


@dataclass(frozen=True)
class _Grid:
    """Read-only collocation data of truncation order n, none of it larger
    than O(n).

    ``thetas`` are the 2n equispaced nodes and ``cos``/``sin`` their
    cosines and sines.  ``series`` (3 x (n+1)) multiplies a cosine series
    into the half spectra whose inverse real FFT on the nodes is rho, rho'
    and rho'' (``_boundary``).  ``fold`` and ``sign`` take m = -n..2n to
    the half-spectrum index of m mod 2n and to the sign that conjugate
    symmetry gives an imaginary part there; ``weights`` (2 x 3 x (n+1))
    holds the column factors (1, -j^2, -j) of the Toeplitz part and
    (1, -j^2, j) of the Hankel part (``_residual_jacobian``).
    ``fine_cos`` are the cosines of the 4n equispaced angles of the mass
    check in ``state_diagnostics``.
    """

    thetas: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    series: np.ndarray
    fold: np.ndarray
    sign: np.ndarray
    weights: np.ndarray
    fine_cos: np.ndarray


@lru_cache(maxsize=8)
def _grid(n: int) -> _Grid:
    """Collocation data for truncation order n (2n equispaced angles)."""
    nc = 2 * n
    thetas = 2.0 * np.pi * np.arange(nc) / nc
    k = np.arange(n + 1)
    # The inverse real FFT on 2n points counts modes 1..n-1 twice and
    # modes 0 and n once; i k and -k^2 differentiate.
    count = np.full(n + 1, float(n))
    count[[0, n]] = nc
    series = np.array([count, 1j * k * count, -(k * k) * count])
    m = np.arange(-n, nc + 1) % nc
    weights = np.array([[np.ones(n + 1), -(k * k), -s * k] for s in (1, -1)],
                       dtype=float)
    fine = np.linspace(0.0, 2.0 * np.pi, 4 * n, endpoint=False)
    grid = _Grid(thetas, np.cos(thetas), np.sin(thetas), series,
                 fold=np.minimum(m, nc - m), sign=np.where(m <= n, 1.0, -1.0),
                 weights=weights, fine_cos=np.cos(fine))
    for arr in vars(grid).values():
        arr.flags.writeable = False
    return grid


def collocation_nodes(n: int) -> np.ndarray:
    """The 2n equispaced collocation angles on [0, 2*pi)."""
    return _grid(n).thetas.copy()


def project_cosine(values: np.ndarray) -> np.ndarray:
    """Cosine-series coefficients 0..n of samples at the 2n collocation nodes.

    Projects along the last axis, so each row of a stack of samples is
    projected separately, bit for bit as it would be alone.
    """
    nc = values.shape[-1]
    spec = np.fft.rfft(values)
    coeffs = 2.0 * spec.real / nc
    modes = coeffs.T           # mode first, for any number of axes
    modes[0] *= 0.5
    modes[-1] *= 0.5           # Nyquist mode carries half weight
    return coeffs


def _radius_on_grid(rho_cos: np.ndarray, R0: float, m: int) -> np.ndarray:
    """R0 + rho at the m >= 2N equispaced angles 2 pi i / m.

    A zero-padded inverse real FFT of the cosine series; on the 2N grid
    mode N is the Nyquist mode, which the inverse transform counts once,
    so its coefficient is doubled.  At m = 2N it is the ``r`` of
    ``_boundary``, which transforms r, r' and r'' together; this one
    serves what needs the radius only: the 4N positivity check of
    ``Shape``, the 4N mass check and the c1 quadrature of
    ``marker_normalization``.
    """
    spec = 0.5 * m * rho_cos
    spec[0] *= 2.0
    if m == 2 * (rho_cos.size - 1):
        spec[-1] *= 2.0
    return R0 + np.fft.irfft(spec, n=m)


@dataclass(frozen=True)
class _Boundary:
    """Polar boundary r = R0 + rho sampled at the collocation nodes, with
    its derivatives, curvature and the x component ``n1`` of its outward
    unit normal (see ``_boundary``); ``cos``/``sin`` are those of the
    nodes."""

    cos: np.ndarray
    sin: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    rpp: np.ndarray
    q: np.ndarray
    kappa: np.ndarray
    n1: np.ndarray


def _boundary(rho_cos: np.ndarray, R0: float) -> _Boundary:
    """Boundary fields at the collocation nodes; the derivatives are
    spectral (exact for the stored cosine series).  With q = r^2 + r'^2
    the curvature is kappa = (r^2 + 2 r'^2 - r r'') / q^(3/2) and the
    outward unit normal is (r cos + r' sin, r sin - r' cos) / sqrt(q), of
    which ``n1`` is the first component.

    The one evaluator of the cosine series and its derivatives on the
    collocation nodes: every reader of boundary geometry calls it.  rho,
    rho' and rho'' come from one inverse real FFT of the series times the
    cached multipliers of ``_grid``.  A stack of series (k x (N+1)) gives
    k x 2N fields, one row per series.
    """
    n = rho_cos.shape[-1] - 1
    grid = _grid(n)
    rho, rp, rpp = np.fft.irfft(grid.series * rho_cos[..., None, :],
                                n=2 * n).swapaxes(0, -2)
    r = R0 + rho
    q = r * r + rp * rp
    return _Boundary(
        cos=grid.cos, sin=grid.sin, r=r, rp=rp, rpp=rpp, q=q,
        kappa=(r * r + 2.0 * rp * rp - r * rpp) / q ** 1.5,
        n1=(r * grid.cos + rp * grid.sin) / np.sqrt(q),
    )


@dataclass(frozen=True, eq=False)
class Shape:
    """Even boundary perturbation rho(theta) = sum_k rho_cos[k] cos(k theta).

    Evenness is structural: no sine coefficients exist.  The radius
    R0 + rho must stay positive (checked at twice the collocation density).
    """

    rho_cos: np.ndarray
    R0: float

    def __post_init__(self):
        arr = np.asarray(self.rho_cos, dtype=float)
        object.__setattr__(self, "rho_cos", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise GeometryError("rho_cos must be a 1-D array with >= 2 modes")
        radius = _radius_on_grid(arr, self.R0, 4 * (arr.size - 1))
        if not np.min(radius) > 0.0:
            raise GeometryError("R0 + rho(theta) must stay positive")

    @property
    def N(self) -> int:
        return self.rho_cos.size - 1


def disk_shape(R0: float, n: int = DEFAULT_N) -> Shape:
    """The unperturbed disk at truncation order n."""
    return Shape(np.zeros(n + 1), R0)


def _checked_boundary(shape: Shape) -> _Boundary:
    """Boundary fields at the collocation nodes; a non-positive radius is
    an error."""
    b = _boundary(shape.rho_cos, shape.R0)
    if np.min(b.r) <= 0.0:
        raise GeometryError("degenerate radius")
    return b


#: Taylor coefficients 1/(k! (k+2)), k = 8 down to 0, of
#: int_0^1 exp(x t) t dt; for |x| < 0.05 the first omitted term is below
#: 1e-18 relative.
_RADIAL_SERIES = tuple(1.0 / (math.factorial(k) * (k + 2))
                       for k in range(8, -1, -1))


def _radial_weight(s, radii):
    """int_0^R exp(s r) r dr, elementwise.

    With x = s R this is R^2 (x e^x - expm1(x)) / x^2; where |x| < 0.05
    the Taylor series R^2 sum_k x^k / (k! (k+2)) (Horner form) replaces it.
    Both are evaluated on the whole array and picked per point; the closed
    form sees x = 1 at the series points, so x = 0 never divides.
    """
    x = np.asarray(s, dtype=float) * np.asarray(radii, dtype=float)
    small = np.abs(x) < 0.05
    safe = np.where(small, 1.0, x)
    closed = (safe * np.exp(safe) - np.expm1(safe)) / (safe * safe)
    series = _RADIAL_SERIES[0] * x
    for coef in _RADIAL_SERIES[1:-1]:
        series += coef
        series *= x
    series += _RADIAL_SERIES[-1]
    return np.square(radii) * np.where(small, series, closed)


def marker_normalization(shape: Shape, V: float, params: ModelParams) -> float:
    """Concentration scale c_1 fixing the total marker mass.

    c_1 = M / (integral over the domain of exp(-a V x)); the radial part is
    integrated in closed form per angle and the angular part by the periodic
    trapezoid rule on the collocation grid.  A branch state takes the same
    c_1, bit for bit, from the mean radial weight of its ``_WaveFields``
    (``_unpack``).
    """
    grid = _grid(shape.N)
    radii = _radius_on_grid(shape.rho_cos, shape.R0, grid.thetas.size)
    s = -params.a * V * grid.cos
    weights = _radial_weight(s, radii)
    denom = 2.0 * np.pi * float(np.mean(weights))
    return params.M / denom


@dataclass(frozen=True, eq=False)
class TravelingWaveState:
    """One point on the traveling-wave branch.

    ``p1`` is the pressure constant relative to the resting pressure; the
    physical constant is recovered by ``p1_physical``.  ``diagnostics`` is
    the ``state_diagnostics`` dict, computed once when the branch code
    builds the state (None for states built by hand); its
    ``spectral_tail`` is the resolution certificate that the branch
    compares with ``TAIL_TOL``.
    """

    shape: Shape
    V: float
    p1: float
    chi_c: float
    c1: float
    diagnostics: dict | None = field(default=None, compare=False, repr=False)

    def p1_physical(self, params: ModelParams, f_act: ForceLaw) -> float:
        return (self.p1 + params.gamma / params.R0
                + self.chi_c * float(f_act.eval(params.c0)))


def rest_state(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
               n: int = DEFAULT_N) -> TravelingWaveState:
    """The branch root: disk at the bifurcation point, V = 0."""
    root = TravelingWaveState(
        shape=disk_shape(params.R0, n),
        V=0.0,
        p1=0.0,
        chi_c=chi_c_star(params, f_act, f_und),
        c1=params.c0,
    )
    return replace(root, diagnostics=state_diagnostics(root, params, f_act,
                                                       f_und))


def _area_centering(rho_cos: np.ndarray, R0: float):
    """Exact fixed-area and centering functionals of the cosine series, one
    pair per row of a stack.

    int (r^2 - R0^2) dtheta = 4 pi R0 rho_0 + 2 pi rho_0^2 + pi sum_{k>=1} rho_k^2
    int rho cos(theta) dtheta = pi rho_1

    rho_0^2 is C ``pow``, which ``float_power`` calls on each element and
    the scalar ``**`` of a single series calls too; numpy's array ``**``
    squares by multiplication instead, which differs in the last bit for
    about one value in a thousand.
    """
    modes = rho_cos.T          # mode first, for any number of axes
    area = (4.0 * np.pi * R0 * modes[0]
            + 2.0 * np.pi * np.float_power(modes[0], 2)
            + np.pi * (rho_cos[..., 1:] ** 2).sum(axis=-1))
    return area, np.pi * modes[1]


@dataclass(frozen=True)
class _WaveFields:
    """Fields of one iterate on the collocation grid that the residual and
    its Jacobian both read: the geometry ``b``, the exponent rates
    s = -a V cos(theta), exp(s r), the mean radial weight, the boundary
    concentration c1 exp(s r) with its mass normalisation c1, and ``act``
    = f_act at that concentration.  Of a stack, each field has one row,
    and ``mean_weight`` one entry, per state."""

    b: _Boundary
    s: np.ndarray
    growth: np.ndarray
    mean_weight: float | np.ndarray
    c_bnd: np.ndarray
    act: np.ndarray


def _wave_fields(rho_cos, V, params: ModelParams,
                 f_act: ForceLaw) -> _WaveFields | None:
    """The ``_WaveFields`` of (rho_cos, V), one state or a stack of them
    (see ``_residual_vector``); None for a degenerate shape, one whose
    radius falls to 1e-9 R0 or below at a collocation node, and for a
    stack that holds one."""
    b = _boundary(rho_cos, params.R0)
    if (b.r.min(axis=-1) <= 1e-9 * params.R0).any():
        return None
    s = -params.a * V * b.cos
    growth = np.exp(s * b.r)
    weight = _radial_weight(s, b.r)
    mean_weight = weight.sum(axis=-1) / weight.shape[-1]
    c_bnd = (params.M / (2.0 * np.pi * mean_weight))[..., None] * growth
    return _WaveFields(b, s, growth, mean_weight, c_bnd,
                       np.asarray(f_act.eval(c_bnd)))


def _residual_vector(rho_cos, V, p1, chi_c, params, f_act, f_und,
                     fields=None):
    """Discretised boundary residual: cosine modes 0..N, then area, centering.

    One state, or a stack of k states: ``rho_cos`` k x (N+1), one series
    per row, and ``V``, ``p1`` and ``chi_c`` each a scalar or a k x 1
    column; it returns k x (N+3), one residual per row.  A stack runs the
    code of one state, every step acting row by row along the last axis,
    so each row equals its state's residual bit for bit.

    ``fields`` are the ``_wave_fields`` of (rho_cos, V) when the caller
    already has them; they are computed here otherwise.  A degenerate
    shape's residual is 1e6 in every entry; a stack that holds one is
    evaluated row by row, so that only its own row is.
    """
    n = rho_cos.shape[-1] - 1
    if fields is None:
        fields = _wave_fields(rho_cos, V, params, f_act)
    if fields is None:
        if rho_cos.ndim == 1:
            # Degenerate trial shape inside a Newton line search: hand back
            # a large residual so the step is rejected instead of raising.
            return np.full(n + 3, 1e6)
        rows = (np.broadcast_to(x, (len(rho_cos), 1))[:, 0]
                for x in (V, p1, chi_c))
        return np.array([_residual_vector(*row, params, f_act, f_und)
                         for row in zip(rho_cos, *rows)])

    b = fields.b
    c0 = params.c0
    block = (params.gamma * b.kappa
             + chi_c * (fields.act - float(f_act.eval(c0)))
             + params.chi_u * np.asarray(f_und.eval(V * b.n1))
             + V * b.r * b.cos
             - p1
             - params.gamma / params.R0)
    out = np.empty(rho_cos.shape[:-1] + (n + 3,))
    rows = out.T               # entry first, for one state or a stack
    rows[: n + 1] = project_cosine(block).T
    rows[n + 1], rows[n + 2] = _area_centering(rho_cos, params.R0)
    return out


def _block_coefficients(fields: _WaveFields, V, chi_c, params: ModelParams,
                        f_act: ForceLaw, f_und: ForceLaw):
    """Samples at the collocation nodes of the pointwise coefficients
    (A, B, C, D, E) of the rho block of ``_residual_jacobian``.

    A, B and C are the partials of the pointwise residual in r, r' and r''
    (through kappa, n_1, the boundary concentration and V r cos(theta));
    D = chi_c f_act'(c) c is its partial in log(c1), and
    E = -exp(s r) r / mean(W), whose cosine mean against cos(j theta) is
    g_j = d log(c1)/d rho_j.
    """
    b = fields.b
    q15 = b.q ** 1.5
    root_q = np.sqrt(b.q)
    dkappa_r = (2.0 * b.r - b.rpp) / q15 - 3.0 * b.r * b.kappa / b.q
    dkappa_rp = 4.0 * b.rp / q15 - 3.0 * b.rp * b.kappa / b.q
    dkappa_rpp = -b.r / q15
    dn1_r = b.cos / root_q - b.n1 * b.r / b.q
    dn1_rp = b.sin / root_q - b.n1 * b.rp / b.q

    act = chi_c * np.asarray(f_act.d1(fields.c_bnd)) * fields.c_bnd
    und = params.chi_u * V * np.asarray(f_und.d1(V * b.n1))
    coef_a = (params.gamma * dkappa_r + act * fields.s + und * dn1_r
              + V * b.cos)
    coef_b = params.gamma * dkappa_rp + und * dn1_rp
    coef_c = params.gamma * dkappa_rpp
    return (coef_a, coef_b, coef_c, act,
            -fields.growth * b.r / fields.mean_weight)


def _residual_jacobian(rho_cos, V, p1, chi_c, params, f_act, f_und,
                       fields=None):
    """Analytic Jacobian of ``_residual_vector`` in (rho_0..rho_N, p1, chi_c).

    Before projection, column j of the rho block samples
        A cos(j theta) - B j sin(j theta) - C j^2 cos(j theta) + D g_j,
    with the coefficients of ``_block_coefficients``; D g_j is the
    rank-one term of the mass normalisation c1.  On the 2N nodes the
    cosine projection of such a product is Toeplitz plus Hankel in the DFT
    of the coefficient (Olver & Townsend, SIAM Rev. 55, 2013): with ^ the
    DFT over 2N and indices mod 2N, entry (i, j) is
        Re(A^(i-j) + A^(i+j)) - j^2 Re(C^(i-j) + C^(i+j))
        - j Im(B^(i-j) - B^(i+j)),
    over 2N, with rows 0 and N halved, plus the projected D times g.  One
    real FFT gives the spectra of A, C, B and E (whence g); the Toeplitz
    and Hankel patterns are strided views of them, so the build forms no
    2N x (N+1) sample matrix and needs no trigonometric table.
    The p1 column is -e_0 and the area and centering rows are exact.
    ``fields`` are as in ``_residual_vector``.

    Raises
    ------
    SolverError
        At a degenerate shape, where the residual is only a sentinel.
    """
    n = rho_cos.size - 1
    grid = _grid(n)
    if fields is None:
        fields = _wave_fields(rho_cos, V, params, f_act)
    if fields is None:
        raise SolverError("no Jacobian at a degenerate shape")
    coef_a, coef_b, coef_c, act, mass = _block_coefficients(
        fields, V, chi_c, params, f_act, f_und)
    spec = np.fft.rfft(np.array([coef_a, coef_c, coef_b, mass]),
                       axis=-1) / (2 * n)
    # Re A^, Re C^ and Im B^ at m = -N..2N, so that the Toeplitz view at
    # (i, j) reads m = i - j and the Hankel view m = i + j.
    ext = np.array([spec[0].real, spec[1].real, spec[2].imag])[:, grid.fold]
    ext[2] *= grid.sign
    row, col = ext.strides
    toeplitz, hankel = (
        np.ndarray((3, n + 1, n + 1), buffer=ext, offset=n * col,
                   strides=(row, col, step * col))
        for step in (-1, 1))
    projected = project_cosine(np.array(
        [act, fields.act - float(f_act.eval(params.c0))]))

    jac = np.zeros((n + 3, n + 3))
    block = jac[: n + 1, : n + 1]
    np.einsum("fij,fj->ij", toeplitz, grid.weights[0], out=block)
    block += np.einsum("fij,fj->ij", hankel, grid.weights[1])
    block[0] *= 0.5
    block[n] *= 0.5
    block += np.outer(projected[0], spec[3].real)
    jac[0, n + 1] = -1.0
    jac[: n + 1, n + 2] = projected[1]
    jac[n + 1, 0] = 4.0 * np.pi * (params.R0 + rho_cos[0])
    jac[n + 1, 1: n + 1] = 2.0 * np.pi * rho_cos[1:]
    jac[n + 2, 1] = np.pi
    return jac


def linearized_residual(rho_cos, V, p1, chi_c, params: ModelParams,
                        f_act: ForceLaw, f_und: ForceLaw) -> np.ndarray:
    """Derivative of the residual at the disk, applied to (rho, V, p1).

    First block (per angle):
        -gamma (rho + rho'')/R0^2
        - (chi_c c0 f_act'(c0) / (pi R0)) * int rho dtheta
        + (chi_u f_und'(0) + R0 - a c0 chi_c f_act'(c0) R0) V cos(theta)
        - p1
    followed by the linearised area (4 pi R0 rho_0) and centering (pi rho_1)
    rows, discretised exactly like ``_residual_vector``.  It evaluates rho and
    rho'' itself and not through ``_boundary``: it is the independent
    reference that acceptance criterion 8 checks the residual against.
    """
    rho_cos = np.asarray(rho_cos, dtype=float)
    n = rho_cos.size - 1
    thetas = _grid(n).thetas
    k = np.arange(n + 1)
    cos_t = np.cos(np.outer(k, thetas))
    rho = rho_cos @ cos_t
    rpp = -(rho_cos * k * k) @ cos_t
    c0 = params.c0
    fp = float(f_act.d1(c0))
    fu = float(f_und.d1(0.0))
    mean_term = (chi_c * c0 * fp / (np.pi * params.R0)) * (2.0 * np.pi * rho_cos[0])
    v_coef = (params.chi_u * fu + params.R0
              - params.a * c0 * chi_c * fp * params.R0)
    block = (-params.gamma * (rho + rpp) / params.R0 ** 2
             - mean_term
             + v_coef * V * np.cos(thetas)
             - p1)
    modes = project_cosine(block)
    area = 4.0 * np.pi * params.R0 * rho_cos[0]
    centering = np.pi * rho_cos[1]
    return np.concatenate([modes, [area, centering]])


# ---------------------------------------------------------------------------
# Solving and continuation.
# ---------------------------------------------------------------------------

def _pack(state: TravelingWaveState) -> np.ndarray:
    return np.concatenate([state.shape.rho_cos, [state.p1, state.chi_c]])


def _unpack(u: np.ndarray, V: float, params: ModelParams,
            fields: _WaveFields) -> TravelingWaveState:
    """The state of packed unknowns u at speed V, whose ``_wave_fields``
    are ``fields``.

    c1 = M / (2 pi mean_weight) is the mass normalisation the residual
    used at u; it equals ``marker_normalization`` of the state bit for
    bit, since both integrate the same radius on the same nodes.
    """
    rho_cos = np.asarray(u[:-2], dtype=float)
    shape = Shape(rho_cos, params.R0)
    c1 = params.M / (2.0 * np.pi * float(fields.mean_weight))
    return TravelingWaveState(shape=shape, V=V, p1=float(u[-2]),
                              chi_c=float(u[-1]), c1=c1)


# The 32-point Gauss-Legendre rule on [-1, 1]: numpy's ``leggauss(32)``
# written as ``repr`` literals, so that no command loads numpy's
# polynomial package (about 2 MB) for one rule.
_GL32_NODES = (
    -0.9972638618494816, -0.9856115115452684, -0.9647622555875064,
    -0.9349060759377397, -0.8963211557660521, -0.84936761373257,
    -0.7944837959679424, -0.7321821187402897, -0.6630442669302152,
    -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
    -0.33186860228212767, -0.23928736225213706, -0.1444719615827965,
    -0.048307665687738324, 0.048307665687738324, 0.1444719615827965,
    0.23928736225213706, 0.33186860228212767, 0.42135127613063533,
    0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257,
    0.8963211557660521, 0.9349060759377397, 0.9647622555875064,
    0.9856115115452684, 0.9972638618494816,
)
_GL32_WEIGHTS = (
    0.007018610009470506, 0.016274394730905743, 0.025392065309262024,
    0.034273862913021765, 0.042835898022226836, 0.05099805926237609,
    0.058684093478535565, 0.06582222277636168, 0.07234579410884834,
    0.07819389578707023, 0.08331192422694671, 0.08765209300440378,
    0.09117387869576378, 0.09384439908080451, 0.09563872007927471,
    0.09654008851472766, 0.09654008851472766, 0.09563872007927471,
    0.09384439908080451, 0.09117387869576378, 0.08765209300440378,
    0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609,
    0.042835898022226836, 0.034273862913021765, 0.025392065309262024,
    0.016274394730905743, 0.007018610009470506,
)


@lru_cache(maxsize=1)
def _unit_radial_rule():
    """Read-only 32-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.array(_GL32_NODES), np.array(_GL32_WEIGHTS)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def state_diagnostics(state: TravelingWaveState, params: ModelParams,
                      f_act: ForceLaw, f_und: ForceLaw,
                      b: _Boundary | None = None) -> dict:
    """Independent invariant checks of a traveling-wave state.

    The curvature-equation defect is reassembled pointwise from the
    closed-form pressure and concentration fields (not from the solver's
    residual path) on the boundary ``b``, the ``_boundary`` of the
    state's shape, which is evaluated here when not given; the branch
    code passes the one its last residual evaluation computed.  The
    marker mass is re-integrated with Gauss-Legendre in radius on a
    doubled angular grid.  ``spectral_tail`` is
    max_{k > 3N/4} |rho_k| / max_k |rho_k| (0 for the disk): a resolved
    shape's cosine coefficients have decayed to round-off by the last
    quarter of the series.
    """
    shape = state.shape
    n = shape.N
    if b is None:
        b = _boundary(shape.rho_cos, shape.R0)
    x = b.r * b.cos
    p1_phys = state.p1_physical(params, f_act)
    pressure = tw_pressure(state.V, p1_phys, (x,))
    conc = tw_concentration(params, state.V, state.c1, (x,))
    defect = (params.gamma * b.kappa
              - (pressure
                 - state.chi_c * np.asarray(f_act.eval(conc))
                 - params.chi_u * np.asarray(f_und.eval(state.V * b.n1))))
    area, centering = _area_centering(shape.rho_cos, params.R0)

    fine_cos = _grid(n).fine_cos
    radii = _radius_on_grid(shape.rho_cos, shape.R0, fine_cos.size)
    nodes, weights = _unit_radial_rule()
    rr = radii[:, None] * nodes
    vals = np.exp(-params.a * state.V * fine_cos[:, None] * rr) * rr
    mass = (state.c1 * 2.0 * np.pi / fine_cos.size
            * float(np.dot(radii, vals @ weights)))
    modes = np.abs(shape.rho_cos)
    peak = float(np.max(modes))
    tail = float(np.max(modes[3 * n // 4 + 1:])) / peak if peak > 0.0 else 0.0

    return {
        "residual_sup": float(np.max(np.abs(defect))),
        "area_error": abs(area),
        "centering_error": abs(centering),
        "mass_rel_error": abs(mass - params.M) / params.M,
        "min_boundary_concentration": float(np.min(conc)),
        "spectral_tail": tail,
    }


def _checked_state(u: np.ndarray, V: float, params: ModelParams,
                   f_act: ForceLaw, f_und: ForceLaw,
                   fields: _WaveFields) -> TravelingWaveState:
    """The state of a converged solution u at speed V, carrying its
    diagnostics.

    ``fields`` are the ``_wave_fields`` of u that Newton's last residual
    evaluation computed: c1 comes from their mean radial weight
    (``_unpack``) and ``state_diagnostics`` reads the curvature defect
    off their boundary, so the state costs no second boundary transform
    or radial-weight pass.

    Raises
    ------
    SolverError
        If the area or centering constraint is off by more than 1e-10 or
        the boundary concentration is not positive.
    """
    state = _unpack(u, V, params, fields)
    diag = state_diagnostics(state, params, f_act, f_und, fields.b)
    if diag["area_error"] > 1e-10 or diag["centering_error"] > 1e-10:
        raise SolverError(f"constraint violation at V={V:g}: {diag}")
    if diag["min_boundary_concentration"] <= 0.0:
        raise SolverError(f"non-positive boundary concentration at V={V:g}")
    return replace(state, diagnostics=diag)


def _fields_memo(params: ModelParams, f_act: ForceLaw):
    """``_wave_fields`` as a function of (rho_cos, V) that keeps its last
    result, so that the residual and the Jacobian at one Newton iterate
    share one evaluation."""
    last = [None, None, None]       # rho_cos, V and their _wave_fields

    def fields(rho_cos, V):
        if not (V == last[1] and np.array_equal(last[0], rho_cos)):
            last[:] = rho_cos.copy(), V, _wave_fields(rho_cos, V, params,
                                                      f_act)
        return last[2]

    return fields


def solve_at_velocity(V: float, guess: TravelingWaveState | np.ndarray,
                      params: ModelParams, f_act: ForceLaw, f_und: ForceLaw, *,
                      tol: float = SOLVE_TOL) -> TravelingWaveState:
    """Solve the traveling-wave system at a fixed nonzero speed.

    Unknowns are the cosine modes rho_0..rho_N, the pressure constant p1 and
    the active strength chi_c; the centering row pins the cos(theta) mode.
    Newton uses the analytic Jacobian ``_residual_jacobian``, built from the
    boundary fields the residual has just computed at the same iterate,
    one per Newton step: a guess that already solves the system builds
    none.  The state is built from the fields of the last residual
    evaluation, at the returned iterate (``_checked_state``), and carries
    its ``state_diagnostics``, spectral tail included; this function does
    not compare the tail with ``TAIL_TOL``.

    Parameters
    ----------
    V : float
        Wave speed; V = 0 is rejected (the system is singular there: the
        disk solves it for every chi_c).
    guess : TravelingWaveState or ndarray
        Starting point within the Newton basin (a disk state works for
        small V), or its packed unknowns (rho_0..rho_N, p1, chi_c).  A
        packed guess is never checked as a ``Shape``: if it is degenerate,
        the residual there is the sentinel and no Jacobian exists, so the
        solve fails with a SolverError like any other Newton failure.

    Raises
    ------
    SolverError
        For V = 0, Newton failure, a degenerate packed guess, or a violated
        state invariant.
    """
    if V == 0.0:
        raise SolverError(
            "V = 0 is singular: every chi_c solves it with the disk; "
            "start the branch at a small positive V instead"
        )
    fields = _fields_memo(params, f_act)

    def fun(u):
        return _residual_vector(u[:-2], V, u[-2], u[-1], params, f_act, f_und,
                                fields(u[:-2], V))

    def jac(u):
        return _residual_jacobian(u[:-2], V, u[-2], u[-1], params, f_act,
                                  f_und, fields(u[:-2], V))

    start = guess if isinstance(guess, np.ndarray) else _pack(guess)
    try:
        sol = newton_solve(fun, start, jac, tol=tol)
    except NewtonConvergenceError as exc:
        raise SolverError(
            f"traveling-wave solve failed at V={V:g}: {exc}") from exc
    return _checked_state(sol, V, params, f_act, f_und, fields(sol[:-2], V))


def _predict(history, V: float) -> np.ndarray:
    """Packed unknowns at speed V, extrapolated through the last
    ``PREDICTOR_POINTS`` states of ``history`` (fewer at the start).

    Lagrange interpolation in V on the packed (rho_0..rho_N, p1, chi_c):
    constant through one state, linear through two, quadratic through
    three, at whatever spacing their speeds have.  The result stays a
    vector and is never checked as a ``Shape``: an over-extrapolated,
    degenerate one fails its Newton solve with a SolverError, on which
    ``continue_branch`` hands over to pseudo-arclength continuation.
    """
    points = history[-PREDICTOR_POINTS:]
    guess = 0.0
    for i, si in enumerate(points):
        weight = 1.0
        for j, sj in enumerate(points):
            if j != i:
                weight *= (V - sj.V) / (si.V - sj.V)
        guess = guess + weight * _pack(si)
    return guess


@dataclass(frozen=True)
class Branch:
    """Ordered traveling-wave states with the bifurcation point as root.

    ``arclength_from_V`` is the speed of the last fixed-speed state, from
    which pseudo-arclength continuation traced the rest (None when it
    was not used).
    """

    states: tuple
    arclength_from_V: float | None = None

    @property
    def used_arclength(self) -> bool:
        return self.arclength_from_V is not None

    def velocities(self) -> np.ndarray:
        return np.array([s.V for s in self.states])

    def state_nearest(self, V: float) -> TravelingWaveState:
        """The state nearest V.  Past a fold, a V that lies on both sheets
        (at or above the lowest speed after the largest) is refused, and a
        lower one is taken from the sheet before the fold."""
        vs = self.velocities()
        fold = int(np.argmax(vs))
        if not vs.min() - 1e-12 <= V <= vs[fold] + 1e-12:    # NaN fails too
            raise BranchRangeError(f"V={V:g} outside computed branch "
                                   f"[{vs.min():g}, {vs[fold]:g}]")
        if fold < len(vs) - 1 and V >= vs[fold + 1:].min() - 1e-12:
            raise BranchRangeError(f"V={V:g} lies on both sheets of the "
                                   f"branch, which folds at V={vs[fold]:g}")
        return self.states[int(np.argmin(np.abs(vs[:fold + 1] - V)))]


def continue_branch(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
                    V_max: float, ds: float, *, n: int = DEFAULT_N,
                    tol: float = SOLVE_TOL) -> Branch:
    """Trace the traveling-wave branch from the bifurcation point.

    One loop takes one step per pass.  It first steps the speed directly
    (the branch is a graph over V near onset since the kernel direction at
    the bifurcation point is the pure-V direction), through the targets
    V_max/k, 2 V_max/k, ..., V_max.  Each fixed-speed Newton solve starts
    from ``_predict``: the unknowns (rho, p1, chi_c) extrapolated in V
    through the last three accepted states, the V = 0 root counting as
    one, so the first step starts from the root, the second from a line
    and every later one from a parabola.  The guess is then O(ds^3) off
    and most states converge in one Newton step, with one Jacobian.

    A fixed-speed step is not retried: once one fails, as one does at a
    fold, every later step is one ``arclength_continue`` step in
    (rho, p1, chi_c, V) along the secant of the last two states, until V
    reaches V_max (a step that overshoots lands on V_max with a
    fixed-speed solve).  Its Jacobian is the analytic (rho, p1, chi_c)
    block, built from the fields the residual computed at the same
    iterate, plus a central difference in V from one stacked residual
    call of its two points; the accepted point is built from the fields
    of the corrector's last residual evaluation, as a fixed-speed state
    is.  The only retry is the corrector's, which halves its step down to
    ds/64.

    Every accepted state, of either kind, must pass the resolution
    certificate (spectral tail at most ``TAIL_TOL``); the first one that
    does not stops the branch.

    Raises
    ------
    ContinuationStalledError
        Carrying the partial branch: if the first step fails, if the
        arclength corrector fails, or at the first unresolved state, which
        the partial branch leaves out.
    SolverError
        If an arclength point fails the invariant checks of
        ``_checked_state``, or its landing solve at V_max fails.
    """
    if not (V_max > 0 and ds > 0 and V_max + ds > V_max):
        raise ValueError("V_max and ds must be positive, and ds at least "
                         "the spacing of doubles at V_max")

    fields = _fields_memo(params, f_act)

    def fun(u_ext):
        rho_cos, V = u_ext[:-3], u_ext[-1]
        return _residual_vector(rho_cos, V, u_ext[-3], u_ext[-2], params,
                                f_act, f_und, fields(rho_cos, V))

    def jac(u_ext):
        rho_cos, V = u_ext[:-3], u_ext[-1]
        block = _residual_jacobian(rho_cos, V, u_ext[-3], u_ext[-2], params,
                                   f_act, f_und, fields(rho_cos, V))
        dv = 1e-6 * (1.0 + abs(V))
        ends = _residual_vector(np.array([rho_cos, rho_cos]),
                                np.array([[V + dv], [V - dv]]), u_ext[-3],
                                u_ext[-2], params, f_act, f_und)
        return np.column_stack([block, (ends[0] - ends[1]) / (2.0 * dv)])

    states = [rest_state(params, f_act, f_und, n)]
    n_steps = max(1, int(round(V_max / ds)))
    targets = iter(np.linspace(V_max / n_steps, V_max, n_steps))
    handover = None             # the speed of the last fixed-speed state
    while True:
        partial = Branch(states=tuple(states), arclength_from_V=handover)
        if handover is None:
            V = next(targets, None)
            if V is None:
                return partial
            try:
                state = solve_at_velocity(V, _predict(states, V), params,
                                          f_act, f_und, tol=tol)
            except SolverError as exc:
                if len(states) < 2:
                    raise ContinuationStalledError(
                        f"branch stalled before V={V:g}: {exc}", partial,
                    ) from exc
                handover = states[-1].V
                continue
        else:
            if states[-1].V >= V_max - 1e-12:
                return partial
            u_prev, u_last = (np.append(_pack(s), s.V) for s in states[-2:])
            try:
                new = arclength_continue(fun, jac, u_last, u_last - u_prev,
                                         ds, tol=tol)
            except SolverError as exc:
                raise ContinuationStalledError(str(exc), partial) from exc
            if new[-1] >= V_max:
                # Overshot the requested endpoint: land exactly on V_max with
                # a fixed-speed solve warm-started from the overshoot point.
                state = solve_at_velocity(V_max, new[:-1], params, f_act,
                                          f_und, tol=tol)
            else:
                V = float(new[-1])
                state = _checked_state(new[:-1], V, params, f_act, f_und,
                                       fields(new[:-3], V))
        tail = state.diagnostics["spectral_tail"]
        if tail > TAIL_TOL:
            raise ContinuationStalledError(
                f"unresolved shape at V={state.V:g}: spectral tail {tail:.3e} "
                f"exceeds TAIL_TOL={TAIL_TOL:g} at N={state.shape.N}",
                partial,
            )
        states.append(state)


# ---------------------------------------------------------------------------
# Bifurcation-point structure and the branch expansion report.
# ---------------------------------------------------------------------------

def bifurcation_jacobian(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
                         n: int = DEFAULT_N) -> np.ndarray:
    """Central-difference Jacobian of the residual in (rho, V, p1) at the
    bifurcation point (chi_c_star, disk, 0, 0).

    Column i is (F(h e_i) - F(-h e_i)) / 2h with h = 1e-6.  The points
    are stacked ``JACOBIAN_BLOCK`` columns at a time, both signs, into one
    ``_residual_vector`` call, which gives each row bit for bit what the
    point alone gives.
    """
    star = chi_c_star(params, f_act, f_und)
    h = 1e-6
    cols = np.empty((n + 3, n + 3))
    for start in range(0, n + 3, JACOBIAN_BLOCK):
        k = min(JACOBIAN_BLOCK, n + 3 - start)
        i = np.arange(k)
        x = np.zeros((2 * k, n + 3))      # rows +h e_j, then -h e_j
        x[i, start + i] = h
        x[k + i, start + i] = -h
        res = _residual_vector(x[:, : n + 1], x[:, n + 1: n + 2],
                               x[:, n + 2:], star, params, f_act, f_und)
        cols[:, start: start + k] = ((res[:k] - res[k:]) / (2.0 * h)).T
    return cols


def kernel_alignment(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
                     n: int = DEFAULT_N) -> dict:
    """Kernel structure of the bifurcation-point Jacobian.

    Returns the angle between the smallest-singular-vector and the pure-V
    direction, plus the two smallest singular values (a one-dimensional
    kernel shows one near-zero value and a clear gap).
    """
    jac = bifurcation_jacobian(params, f_act, f_und, n)
    _, svals, vh = np.linalg.svd(jac)
    v = vh[-1]
    e_v = np.zeros(n + 3)
    e_v[n + 1] = 1.0
    cosang = abs(float(v @ e_v)) / np.linalg.norm(v)
    angle = math.acos(min(1.0, cosang))
    return {
        "angle_to_v_direction": angle,
        "sigma_min": float(svals[-1]),
        "sigma_next": float(svals[-2]),
        "kernel_vector": v,
    }


def transversality_product(params: ModelParams, f_act: ForceLaw,
                           f_und: ForceLaw, n: int = DEFAULT_N) -> float:
    """Mixed chi_c/V derivative of the residual at the bifurcation point,
    projected on cos(theta).

    Central differences in V give the V-column of the Jacobian at the disk;
    a central difference in chi_c of its first-block cos(theta) integral
    yields -a c0 f_act'(c0) R0 pi, nonzero, which is the transversality
    condition that makes the bifurcation simple.  The projected V-column is
    linear in chi_c, so the wide dchi costs no truncation error while
    keeping nested-difference rounding noise far below target.
    """
    star = chi_c_star(params, f_act, f_und)
    dv, dchi = 1e-4, 1e-2
    # One stacked call: V = +dv, -dv at chi_c = star + dchi, then at
    # star - dchi.
    res = _residual_vector(
        np.zeros((4, n + 1)), np.array([[dv], [-dv], [dv], [-dv]]), 0.0,
        np.array([[star + dchi], [star + dchi], [star - dchi], [star - dchi]]),
        params, f_act, f_und)
    col = (res[0::2] - res[1::2]) / (2.0 * dv)
    cos1 = math.pi * col[:, 1]        # integral of first block against cos
    return (cos1[0] - cos1[1]) / (2.0 * dchi)


@dataclass(frozen=True)
class BifurcationReport:
    """Finite-difference expansion of the branch at its root.

    ``d2_chi_ds2_candidates`` holds the two closed forms that differ in the
    coefficient (1/3 vs 1/4) of the cubic undercooling term; ``verdict``
    records which one the numerics support ("coincident" when the cubic
    term is absent, "inconclusive" when neither fits within 25%).
    """

    chi_c_star_closed_form: float
    chi_c_star_numeric: float
    d_chi_ds_at_0: float
    d2_chi_ds2_at_0: float
    d2_chi_error_estimate: float
    d2_chi_ds2_candidates: dict
    verdict: str
    matched_within: float
    symmetry: dict


def chi_second_derivative_candidates(params: ModelParams, f_act: ForceLaw,
                                     f_und: ForceLaw) -> dict:
    """The two closed-form branch curvatures (shared leading part, cubic
    undercooling coefficient 1/3 vs 1/4)."""
    c0 = params.c0
    fp = float(f_act.d1(c0))
    fpp = float(f_act.d2(c0))
    fppp = float(f_act.d3(c0))
    fu3 = float(f_und.d3(0.0))
    shared = (-(params.R0 + params.chi_u * float(f_und.d1(0.0)))
              * params.a * params.R0 / (2.0 * fp * fp)
              * (fpp + params.M / (2.0 * np.pi * params.R0 ** 2) * fppp))
    cubic = params.chi_u * fu3 / (params.a * c0 * params.R0 * fp)
    return {
        "statement_third": shared + cubic / 3.0,
        "proof_quarter": shared + cubic / 4.0,
        "shared_term": shared,
        "cubic_unit": cubic,
    }


def bifurcation_report(params: ModelParams, f_act: ForceLaw, f_und: ForceLaw,
                       *, n: int = DEFAULT_N, h: float = REPORT_STEP,
                       tol: float = SOLVE_TOL) -> BifurcationReport:
    """Estimate chi_c'(0) and chi_c''(0) along the branch and compare the
    curvature against the closed-form candidates.

    Solves at speeds h, h/2, h/4 (and at -h/2 once, to assert the
    reflection symmetry V -> -V before exploiting it for the centred
    second-difference stencil).  One Richardson pass removes the V^2
    truncation term; chi_c'(0) uses a one-sided second-order stencil so the
    symmetry is not trivially baked into the answer.  Since the speed
    parametrises the branch with unit derivative at onset, derivatives in V
    at 0 equal the derivatives in the bifurcation parameter.
    """
    star = chi_c_star(params, f_act, f_und)
    root = rest_state(params, f_act, f_und, n)
    speeds = [h, 0.5 * h, 0.25 * h]
    sols = {}
    prev = root
    for v in speeds:
        prev = solve_at_velocity(v, prev, params, f_act, f_und, tol=tol)
        sols[v] = prev

    mirrored = solve_at_velocity(-0.5 * h, sols[0.5 * h], params, f_act,
                                 f_und, tol=tol)
    twin = sols[0.5 * h]
    k = np.arange(n + 1)
    reflect_dev = float(np.max(np.abs(
        mirrored.shape.rho_cos - ((-1.0) ** k) * twin.shape.rho_cos
    )))
    symmetry = {
        "chi_mismatch": abs(mirrored.chi_c - twin.chi_c),
        "shape_reflection_mismatch": reflect_dev,
        "p1_mismatch": abs(mirrored.p1 - twin.p1),
    }

    chis = {v: sols[v].chi_c for v in speeds}
    second = {v: 2.0 * (chis[v] - star) / v ** 2 for v in speeds}
    rich_coarse = (4.0 * second[0.5 * h] - second[h]) / 3.0
    rich_fine = (4.0 * second[0.25 * h] - second[0.5 * h]) / 3.0
    d2 = rich_fine
    d2_err = abs(rich_fine - rich_coarse)

    # chi'(0), one-sided second order at the two finer steps.
    one_sided = {
        hh: (-3.0 * star + 4.0 * chis[hh] - chis[2.0 * hh]) / (2.0 * hh)
        for hh in (0.5 * h, 0.25 * h)
    }
    d1 = one_sided[0.25 * h]

    # Even-polynomial extrapolation of chi_c(V) to V = 0 from the three
    # solved speeds only (independent of the closed-form root value).
    t = np.array([v * v for v in speeds])
    vander = np.column_stack([np.ones_like(t), t, t * t])
    coef = np.linalg.solve(vander, np.array([chis[v] for v in speeds]))
    star_numeric = float(coef[0])

    cands = chi_second_derivative_candidates(params, f_act, f_und)
    rels = {
        name: abs(d2 - cands[name]) / max(abs(cands[name]), 1e-300)
        for name in ("statement_third", "proof_quarter")
    }
    if abs(cands["cubic_unit"]) < 1e-12 * max(1.0, abs(cands["shared_term"])):
        verdict = "coincident"
        matched = rels["proof_quarter"]
    else:
        best = min(rels, key=rels.get)
        matched = rels[best]
        verdict = best if matched <= 0.25 else "inconclusive"

    return BifurcationReport(
        chi_c_star_closed_form=star,
        chi_c_star_numeric=star_numeric,
        d_chi_ds_at_0=d1,
        d2_chi_ds2_at_0=d2,
        d2_chi_error_estimate=d2_err,
        d2_chi_ds2_candidates={k: cands[k] for k in
                               ("statement_third", "proof_quarter")},
        verdict=verdict,
        matched_within=matched,
        symmetry=symmetry,
    )
