"""Damped Newton, complex root search and pseudo-arclength continuation.

``newton_solve`` solves real vector systems.  The root search's complex
Newton rule is written once, ``_newton_rule``, and driven one run at a time
by ``_complex_newton`` or many in lockstep by ``_lockstep_newton``, one
array evaluation per round.  A search screens the seed grid
(``_seed_starts``), runs a driver from each start and keeps the roots
(``_accept_roots``); ``stability.mode_spectra`` picks the driver by the
start count.
``arclength_continue`` takes one pseudo-arclength step; the branch loop
(``waves.continue_branch``) keeps the secant.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from .errors import NewtonConvergenceError, SolverError

#: The root-search Newton stops at |f(z)| <= ROOT_TOL * scale(z).
ROOT_TOL = 1e-13

#: A Newton end point is a root when |f(z)| <= RESIDUAL_TOL * scale(z).
RESIDUAL_TOL = 1e-9

#: Roots closer than this are one root.
DEDUP_TOL = 1e-6

#: Relative forward-difference step of ``fd_jacobian``.
FD_STEP = 1e-7

#: ``newton_solve`` gives up after this many iterations, or after this
#: many step halvings over the whole solve.
NEWTON_MAX_ITER, NEWTON_MAX_BACKTRACKS = 50, 60

#: The root-search Newton (``_newton_rule``) gives up after this many
#: iterations, or after this many step halvings over the whole run.
ROOT_MAX_ITER, ROOT_MAX_BACKTRACKS = 80, 50


def fd_jacobian(fun, x, f0) -> np.ndarray:
    """Forward-difference Jacobian of fun at x, where fun(x) = f0, with
    per-component step FD_STEP*(1+|x_i|).  No solver calls it: it stays
    while ``perfbench/layers.py`` times it by name (ROADMAP item 6)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    jac = np.empty((f0.size, n))
    for i in range(n):
        h = FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (np.asarray(fun(xp), dtype=float) - f0) / h
    return jac


def newton_solve(fun, x0, jac, *, tol: float = 1e-10) -> np.ndarray:
    """Solve fun(x) = 0 by damped Newton iteration.

    Convergence criterion is ||fun(x)||_inf <= tol * (1 + ||x||_inf).  The
    line search halves the step while the residual norm fails to decrease,
    spending at most NEWTON_MAX_BACKTRACKS halvings over the whole solve,
    and the solve stops after NEWTON_MAX_ITER iterations.  An accepted step
    never raises the residual, so the last iterate is also the best.

    Parameters
    ----------
    fun : callable
        Maps a length-n vector to a length-n residual vector.
    x0 : array_like
        Starting point.
    jac : callable
        Maps x to the n x n Jacobian of fun at x.

    Returns
    -------
    ndarray
        Converged solution.

    Raises
    ------
    NewtonConvergenceError
        At an exactly singular Jacobian, or when the iterations or the
        halvings run out; the message gives the last iterate's residual.
    """
    x = np.array(x0, dtype=float)
    fx = np.asarray(fun(x), dtype=float)
    if fx.size != x.size:
        raise SolverError(f"square system required, got {fx.size}x{x.size}")
    norm = lambda v: float(np.max(np.abs(v))) if v.size else 0.0
    backtracks = 0
    for _ in range(NEWTON_MAX_ITER):
        res = norm(fx)
        if res <= tol * (1.0 + norm(x)):
            return x
        try:
            dx = np.linalg.solve(jac(x), -fx)
        except np.linalg.LinAlgError as exc:
            raise NewtonConvergenceError(
                f"singular Jacobian (residual {res:.3e})") from exc
        step = 1.0
        while True:
            xn = x + step * dx
            fn = np.asarray(fun(xn), dtype=float)
            if norm(fn) <= (1.0 - 1e-4 * step) * res or norm(fn) <= tol:
                x, fx = xn, fn
                break
            backtracks += 1
            step *= 0.5
            if backtracks > NEWTON_MAX_BACKTRACKS:
                raise NewtonConvergenceError(
                    f"line search exhausted after {backtracks} halvings "
                    f"(residual {res:.3e})")
    if norm(fx) <= tol * (1.0 + norm(x)):
        return x
    raise NewtonConvergenceError(
        f"no convergence in {NEWTON_MAX_ITER} iterations "
        f"(residual {norm(fx):.3e})")


def _newton_rule(z0, tol):
    """Damped Newton for a scalar analytic function, as a step generator.

    The generator yields each point it needs evaluated and is sent back
    (f(z), scale, f'(z)) there; it returns (z, residual), with the
    residual |f| / scale.  A step is halved until |f| falls (or the
    residual reaches ``tol``), spending at most ROOT_MAX_BACKTRACKS
    halvings over the whole run.  The line search tests |f| and not the
    residual: the scale can fall faster than |f| along a good step, and a
    search on the residual then stalls far from the root.  Iteration stops
    at residual <= tol, at a zero or non-finite slope, or when the
    halvings run out.  The returned z is the last accepted iterate, the
    one with the smallest |f|; the caller compares the residual with its
    own tolerance.  ``_complex_newton`` drives one run point by point,
    ``_lockstep_newton`` many runs together.
    """
    z = complex(z0)
    f, scale, d = yield z
    res = abs(f) / max(scale, 1e-300)
    backtracks = 0
    for _ in range(ROOT_MAX_ITER):
        if res <= tol or d == 0 or not cmath.isfinite(d):
            break
        dz = -f / d
        step = 1.0
        while True:
            zn = z + step * dz
            fn, sn, dn = yield zn
            rn = abs(fn) / max(sn, 1e-300)
            if abs(fn) < abs(f) or rn <= tol:
                z, f, res, d = zn, fn, rn, dn
                break
            backtracks += 1
            step *= 0.5
            if backtracks > ROOT_MAX_BACKTRACKS:
                return z, res
    return z, res


def _complex_newton(evaluate, z0, tol):
    """``_newton_rule`` from z0, one evaluation at a time; returns
    (z, residual).  ``evaluate`` maps z to (f(z), scale, f'(z))."""
    run = _newton_rule(z0, tol)
    z = next(run)
    while True:
        try:
            z = run.send(evaluate(z))
        except StopIteration as stop:
            return stop.value


def _lockstep_newton(evaluate, starts, tol):
    """``_newton_rule`` from every start at once; [(z, residual)] in order.

    Each round evaluates the next point of every run still going in one
    call, ``evaluate(live, zs) -> (f, scale, f')`` arrays, where ``live``
    holds the indices into ``starts`` of those runs and ``zs`` their
    points.  The values are handed to the rule as Python numbers, so a run
    takes the same steps as under ``_complex_newton`` given the same
    values.
    """
    runs = [_newton_rule(z0, tol) for z0 in starts]
    points = [next(run) for run in runs]
    live = list(range(len(runs)))
    ends = [None] * len(runs)
    while live:
        f, scale, d = evaluate(np.array(live), np.array(points))
        going, points = [], []
        for i, fi, si, di in zip(live, f.tolist(), scale.tolist(),
                                 d.tolist()):
            try:
                points.append(runs[i].send((fi, si, di)))
                going.append(i)
            except StopIteration as stop:
                ends[i] = stop.value
        live = going
    return ends


def _local_minima(mag):
    """Row-major (i, j) indices of the seed-grid local minima of mag.

    A point qualifies when it is finite and <= each of its (up to four)
    grid neighbours, so plateaus seed every point; a NaN neighbour
    disqualifies it.
    """
    keep = np.isfinite(mag)
    keep[1:] &= mag[1:] <= mag[:-1]
    keep[:-1] &= mag[:-1] <= mag[1:]
    keep[:, 1:] &= mag[:, 1:] <= mag[:, :-1]
    keep[:, :-1] &= mag[:, :-1] <= mag[:, 1:]
    return np.nonzero(keep)


@functools.lru_cache(maxsize=8)
def _seed_grid(re_min, re_max, im_min, im_max, nx, ny, half):
    """Read-only (xs, ys, flat grid) of the seed screen, row-major in (x, y).

    ``half`` keeps only the rows of the full ``linspace`` grid with
    Im >= 0, the last (ny + 1) // 2 of them, at the same points.
    """
    xs = np.linspace(re_min, re_max, nx)
    ys = np.linspace(im_min, im_max, ny)
    if half:
        ys = ys[ny // 2:].copy()
    zgrid = (xs[:, None] + 1j * ys[None, :]).ravel()
    for arr in (xs, ys, zgrid):
        arr.flags.writeable = False
    return xs, ys, zgrid


def find_complex_roots(evaluate, fun_grid, region, seeds, *,
                       conjugate: bool = False) -> list[tuple[complex, float]]:
    """Locate roots of an analytic function on a rectangle.

    The function is sampled on a seed grid (``_seed_starts``), and
    ``_complex_newton`` runs once from every local minimum of |f| on the
    grid, to |f| <= ROOT_TOL * scale.  ``_accept_roots`` then keeps the end
    points with |f| <= RESIDUAL_TOL * scale there, deduplicated (pairwise
    distance > DEDUP_TOL, the smaller residual kept), inside the region
    enlarged by a 2% margin on each side.  ``stability.mode_spectra``
    runs the same three steps on the dispersion kernel.

    Parameters
    ----------
    evaluate : callable
        z -> (f(z), scale, f'(z)) from one evaluation, f analytic and
        scale > 0 the magnitude the residual |f| / scale is relative to.
    fun_grid : callable
        Vectorised f over a flat complex array; it screens the seed grid.
    region : tuple
        (re_min, re_max, im_min, im_max).
    seeds : tuple
        (nx, ny) seed-grid resolution.
    conjugate : bool
        Declares f(conj z) = conj f(z), so the roots off the real axis come
        in conjugate pairs.  A root with |Im| <= DEDUP_TOL is its own
        conjugate and is written real, with Im = +0.0; a root found below
        the axis is replaced by its conjugate before the dedup, and every
        root with Im > DEDUP_TOL is then joined by its exact conjugate with
        the same residual; on an asymmetric rectangle the member of a pair
        outside the margin is then dropped.  If the rectangle is also symmetric
        (im_min == -im_max) only its upper half is screened: f is
        evaluated on the rows of the seed grid with Im >= 0 (the same
        points as the full grid; for odd ny the middle row is the real
        axis), and Newton starts only from minima in the upper half.  On
        an asymmetric rectangle the whole grid is screened.

    Returns
    -------
    list of (complex, float)
        Each root with the residual |f| / scale its Newton run ended at,
        sorted by (real, imag) of the root.  Possibly empty; no
        convergence anywhere is not an error.
    """
    starts = _seed_starts(fun_grid, region, seeds, conjugate=conjugate)
    ends = [_complex_newton(evaluate, z0, ROOT_TOL) for z0 in starts]
    return _accept_roots(ends, region, conjugate=conjugate)


def _seed_starts(fun_grid, region, seeds, *,
                 conjugate: bool = False) -> np.ndarray:
    """Newton starts of ``find_complex_roots``: the seed-grid local minima
    of |f|, in row-major grid order (arguments as there).

    On the half grid the scan needs no mirrored rows.  The row below the
    first mirrors to the first row itself when ny is even, a comparison
    that decides nothing, and to the row above it when ny is odd, a
    comparison the scan already makes.
    """
    re_min, re_max, im_min, im_max = map(float, region)
    nx, ny = seeds
    half = conjugate and im_min == -im_max
    xs, ys, zgrid = _seed_grid(re_min, re_max, im_min, im_max, nx, ny, half)
    mag = np.abs(np.asarray(fun_grid(zgrid))).reshape(nx, ys.size)
    i, j = _local_minima(mag)
    return xs[i] + 1j * ys[j]


def _accept_roots(ends, region, *, conjugate: bool = False
                 ) -> list[tuple[complex, float]]:
    """The roots among Newton end points [(z, residual)], taken in order,
    as ``find_complex_roots`` returns them (arguments as there)."""
    re_min, re_max, im_min, im_max = map(float, region)
    margin_re = 0.02 * (re_max - re_min)
    margin_im = 0.02 * (im_max - im_min)

    def inside(z):
        return (re_min - margin_re <= z.real <= re_max + margin_re
                and im_min - margin_im <= z.imag <= im_max + margin_im)

    found: list[tuple[complex, float]] = []
    for root, res in ends:
        if not res <= RESIDUAL_TOL:
            continue
        if conjugate and abs(root.imag) <= DEDUP_TOL:
            # its own conjugate under the dedup: a real root, written
            # with +0.0 so that a principal square root keeps its side
            root = complex(root.real, 0.0)
        elif conjugate and root.imag < 0.0:
            root = root.conjugate()
        if not (inside(root) or conjugate and inside(root.conjugate())):
            continue
        for k, (other, other_res) in enumerate(found):
            if abs(root - other) <= DEDUP_TOL:
                if res < other_res:
                    found[k] = (root, res)
                break
        else:
            found.append((root, res))
    if conjugate:
        found += [(z.conjugate(), res) for z, res in found
                  if z.imag > DEDUP_TOL]
    return sorted((pair for pair in found if inside(pair[0])),
                  key=lambda pair: (pair[0].real, pair[0].imag))


def arclength_continue(fun, jac, u, tangent, ds: float, *,
                       tol: float) -> np.ndarray:
    """One pseudo-arclength step from u, a solution of fun: R^{n+1} -> R^n.

    With t the normalised tangent, ``newton_solve`` on the n x (n+1)
    Jacobian ``jac`` plus the row t solves [fun(v); t.(v - u - h t)] = 0
    from u + h t.  On failure h is halved, from ds down to ds/64, and then
    SolverError is raised.  Returns the new point.
    """
    t = np.array(tangent, dtype=float)
    t /= np.linalg.norm(t)
    h = ds
    while True:
        pred = u + h * t
        try:
            return newton_solve(lambda v: np.append(fun(v), t @ (v - pred)),
                                pred, lambda v: np.vstack([jac(v), t]),
                                tol=tol)
        except NewtonConvergenceError:
            if h <= ds / 64.0:
                raise SolverError(
                    f"corrector failed down to step {h:.3e}") from None
            h *= 0.5
