"""Vectorized one-dimensional solvers run in lockstep across array entries.

The batch solvers of ``worstcase``, ``pipeline``, ``nonlinear`` and
``momentlp`` reduce to three problems: invert a nonincreasing worst case at
level alpha (``invert``, which brackets and then calls ``bracketed_root``;
``newton_invert`` on a fixed lattice, where the worst case comes with its
slope), find the root of a bracketed decreasing function
(``bracketed_root``, or ``newton_root`` where the function comes with its
slope: the majorant kink and the binding pair), or maximize a function
along each column of a grid.
Per-entry functions are called as ``f(x, idx)``, where ``idx`` holds the
positions of the entries in ``x``, so that entries which have converged
drop out of the evaluation.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# bracketed_root keeps its brackets a hair inside the ITP bound, so that
# rounding of the iterates cannot leave the last bracket wider than tol
_SHRUNK = 1.0 - 1e-6


class BracketError(RuntimeError):
    """``invert`` found no upper end at which the worst case is at most alpha."""


def log_excess(worst, alpha):
    """log(worst / alpha), with the sign of worst - alpha kept exact.

    ``invert`` interpolates on this scale, on which the worst case's
    Gaussian and power-law tails in chi are close to linear.
    """
    v = np.log(np.maximum(worst, 1e-300) / alpha)
    return np.where(worst > alpha, np.maximum(v, 1e-300), np.minimum(v, 0.0))


def invert(worst, alpha: float, lo, hi, tol: float):
    """Smallest x, per entry, at which a nonincreasing ``worst(x, idx)`` is
    at most alpha.

    ``worst`` is evaluated at ``lo`` first, and an entry whose worst case is
    at most alpha there returns ``lo``.  For the others ``hi`` doubles until
    its worst case is at most alpha, ``lo`` moving up to each ``hi`` that
    fails; BracketError after 40 doublings.  ``bracketed_root`` then searches
    the bracket on ``log_excess``, reusing the values at both ends, and
    returns its upper end: the worst case there is at most alpha, and ``tol``
    below it exceeds alpha.
    """
    f = lambda x, idx: log_excess(worst(x, idx), alpha)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = f(lo, np.arange(lo.size))
    f_hi = np.zeros_like(f_lo)
    idx = np.flatnonzero(f_lo > 0)
    for _ in range(40):
        if idx.size:
            f_hi[idx] = f(hi[idx], idx)
            idx = idx[f_hi[idx] > 0]
        if not idx.size:
            return bracketed_root(f, lo, hi, f_lo, f_hi, tol)
        lo[idx], f_lo[idx] = hi[idx], f_hi[idx]
        hi[idx] *= 2.0
    raise BracketError(f"worst case exceeds alpha={alpha} up to {0.5 * hi.max()}")


# newton_invert returns multiples of 2**-_LATTICE_BITS (every float from 2**25
# on), and walks at most _WALK_SWEEPS lattice points before an open entry goes
# to invert; newton_root raises after _ROOT_SWEEPS sweeps
_LATTICE_BITS = 27
_WALK_SWEEPS = 4
_ROOT_SWEEPS = 100
# a Newton step at most this long, or at most four floats, leaves the next
# estimate within a lattice point or two of the crossing, for the walk to find
_NEAR = 1e-5


def _lattice(x, rnd):
    """``x`` rounded by ``rnd`` (np.floor or np.ceil) to a lattice point, exactly."""
    return np.ldexp(rnd(np.ldexp(x, _LATTICE_BITS)), -_LATTICE_BITS)


def _settle(worst, alpha, c, pos, out):
    """Walk the estimates ``c`` of the entries ``pos`` to their crossings.

    The lattice ceiling u of c less up to four floats (at most 2**-30), so
    that an estimate a few floats above a lattice root snaps onto it, and
    the lattice point below u are evaluated in one sweep.  An entry is done,
    u going to ``out``, where the worst case exceeds alpha below u and is at
    most alpha at u; otherwise it moves one lattice point toward the
    crossing per sweep, never turning, for at most ``_WALK_SWEEPS`` sweeps.
    Returns the entries left open as (pos, rise, down, up).
    """
    up = _lattice(c - np.minimum(4.0 * np.spacing(c), 2.0**-30), np.ceil)
    down = _lattice(np.nextafter(up, -np.inf), np.floor)
    w = worst(np.concatenate([down, up]), np.concatenate([pos, pos]))[0]
    w_down, w_up = w[: pos.size], w[pos.size :]
    for sweep in range(_WALK_SWEEPS + 1):
        done = (w_down > alpha) & (w_up <= alpha)
        out[pos[done]] = up[done]
        pos, up, down, w_down, w_up = (v[~done] for v in (pos, up, down, w_down, w_up))
        rise = w_up > alpha
        if not pos.size or sweep == _WALK_SWEEPS:
            return pos, rise, down, up
        # up past a u above alpha, down past a point below at most alpha
        new = np.where(rise, np.nextafter(up, np.inf), np.nextafter(down, -np.inf))
        new = np.where(rise, _lattice(new, np.ceil), _lattice(new, np.floor))
        w_new = worst(new, pos)[0]
        down, up = np.where(rise, up, new), np.where(rise, new, down)
        w_down, w_up = np.where(rise, w_up, w_new), np.where(rise, w_new, w_down)


def newton_invert(worst, alpha: float, x, lo, hi):
    """Least multiple of 2**-27, per entry, at which a nonincreasing worst
    case is at most alpha, by Newton steps from ``x`` in [lo, hi].

    ``worst(x, idx)`` returns the worst case and its derivative in x > 0,
    and [lo, hi] must hold the crossing.  ``newton_root`` steps on
    ``log_excess`` against log x, on which power-law tails are straight
    lines, until a step is at most ``_NEAR`` x / x0 long, x0 the start (or
    four floats), and ``_settle`` walks its estimate onto the lattice.
    Entries it leaves open go to ``invert`` on the bracket the walk has
    shown, and ``_settle`` checks its result the same way (RuntimeError if
    that walk does not settle, which a nonincreasing worst case cannot
    cause).  So each result is a lattice point whose worst case, as
    evaluated, is at most alpha while the one below exceeds alpha, and it
    does not depend on ``x``.
    """

    def f(c, idx):
        w, dw = worst(c, idx)
        v = log_excess(w, alpha)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dv = dw / w
            # newton_root's step c - v / slope is then c exp(-v / (c dv)),
            # the Newton step on v against log c
            slope = v / (-c * np.expm1(-v / (c * dv)))
        return v, slope

    x = np.array(x, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = newton_root(f, x, lo, hi, 0.0, np.maximum(_NEAR / x, 4.0 * np.finfo(float).eps))
    out = np.empty(x.size)
    pos, rise, down, up = _settle(worst, alpha, c, np.arange(x.size), out)
    if pos.size:
        value = lambda x, idx: worst(x, pos[idx])[0]
        r = invert(value, alpha, np.where(rise, up, lo[pos]), np.where(rise, hi[pos], down), 2.0**-_LATTICE_BITS)
        if _settle(worst, alpha, r, pos, out)[0].size:
            raise RuntimeError("worst case crosses alpha more than once between lattice points")
    return out


def newton_root(f, x, lo, hi, floor, xtol):
    """Root of a decreasing function by Newton steps inside a bracket, per entry.

    ``f(x, idx)`` returns the value, positive below the root and at most 0
    above it, and the slope at ``x``.  Each value moves ``lo`` or ``hi`` to
    the point evaluated.  A Newton step that leaves [lo, hi], or lands on
    its other end (a point already evaluated), is replaced by the midpoint,
    so rounding noise in the value's sign shrinks the bracket instead of
    making an entry cycle.  An entry stops once |value| <= ``floor``,
    returning x, or once its step is at most ``xtol * |x|``, returning the
    step (with ``xtol`` 0, a point it evaluated); both are scalars or per
    entry.  RuntimeError if entries are open after ``_ROOT_SWEEPS`` sweeps.
    """
    x, lo, hi = (np.array(v, dtype=float) for v in (x, lo, hi))
    floor, xtol = (np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in (floor, xtol))
    out, pos = np.empty(x.size), np.arange(x.size)
    for _ in range(_ROOT_SWEEPS):
        value, slope = f(x, pos)
        high = value <= 0
        lo, hi = np.where(high, lo, x), np.where(high, x, hi)
        # where the slope is 0 or not finite the step is inf or NaN, and bisects
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - value / slope
        inside = (step >= lo) & (step <= hi) & (step != np.where(high, lo, hi))
        step = np.where(inside, step, 0.5 * (lo + hi))
        flat = np.abs(value) <= floor[pos]
        done = flat | (np.abs(step - x) <= xtol[pos] * np.abs(x))
        out[pos[done]] = np.where(flat, x, step)[done]
        keep = ~done
        pos, x, lo, hi = pos[keep], step[keep], lo[keep], hi[keep]
        if not pos.size:
            return out
    raise RuntimeError("Newton root did not converge")


def bracketed_root(f, lo, hi, f_lo, f_hi, tol: float):
    """Root of a decreasing ``f`` by the ITP method, per entry.

    Requires ``f_hi <= 0``.  Each entry stops once its bracket is at most
    ``tol`` wide, or its ends are adjacent floats, and returns the bracket's
    upper end, so ``f`` is non-positive there and positive ``tol`` below it
    (or at the next float below it); an entry with
    ``f_lo <= 0`` returns ``lo``.  Steps interpolate (regula falsi,
    truncated and projected toward the midpoint; Oliveira & Takahashi 2020,
    ACM TOMS 47(1)) but never exceed one more than bisection would need.
    Interpolation pays off only where ``f`` is close to linear in x, so
    callers pass a suitably transformed value.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    out = np.where(f_lo > 0, hi, lo)
    idx = np.flatnonzero((f_lo > 0) & (hi - lo > tol))
    lo, hi, f_lo, f_hi = lo[idx], hi[idx], f_lo[idx], f_hi[idx]
    width = hi - lo
    kappa1 = 0.2 / width
    # bisection's step count plus one spare step (n0 = 1) for interpolation
    steps_left = np.ceil(np.log2(width / tol)) + 1.0
    for _ in range(int(steps_left.max(initial=0.0)) + 2):
        if not idx.size:
            return out
        width = hi - lo
        mid = lo + 0.5 * width
        x_f = lo + width * (f_lo / (f_lo - f_hi))
        sigma = np.sign(mid - x_f)
        # truncation toward the midpoint, at least tol / 4 so that an accurate
        # interpolant lands across the root and closes the bracket
        delta = np.maximum(kappa1 * width * width, 0.25 * tol)
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        radius = np.maximum(_SHRUNK * 0.5 * tol * np.exp2(steps_left) - 0.5 * width, 0.0)
        x = np.where(np.abs(x_t - mid) <= radius, x_t, mid - sigma * radius)
        fx = f(x, idx)
        low = fx > 0
        lo = np.where(low, x, lo)
        f_lo = np.where(low, fx, f_lo)
        hi = np.where(low, hi, x)
        f_hi = np.where(low, f_hi, fx)
        steps_left -= 1.0
        # adjacent floats end a bracket that rounding keeps wider than tol
        done = (hi - lo <= tol) | (np.nextafter(lo, np.inf) >= hi)
        out[idx[done]] = hi[done]
        keep = ~done
        idx, lo, hi, f_lo, f_hi = idx[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep]
        kappa1, steps_left = kappa1[keep], steps_left[keep]
    if idx.size:
        raise RuntimeError("bracketed root did not converge")
    return out


def grid_golden_max(f, grid, iters: int):
    """Maximize ``f`` along each column of ``grid`` (shape (points, n)).

    The best grid point is refined by golden-section search between its two
    neighbors, one evaluation of ``f`` per step; the grid point is kept where
    refinement does worse, which guards against a function that is not
    unimodal.  A tie between the two interior points keeps the upper part of
    the bracket, or the lower part, next to it, when the best grid point is
    the first.  Returns (x, f(x)).
    """
    vals = f(grid)
    j = np.argmax(vals, axis=0)
    idx = np.arange(grid.shape[1])
    lo = grid[np.maximum(j - 1, 0), idx]
    hi = grid[np.minimum(j + 1, grid.shape[0] - 1), idx]
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    first = j == 0
    for _ in range(iters):
        # keep the better interior point; it becomes the new interval's other one
        left = (fc > fd) | (first & (fc == fd))
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        x = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    x = 0.5 * (lo + hi)
    fx = f(x)
    best = vals[j, idx]
    use_grid = best > fx
    return np.where(use_grid, grid[j, idx], x), np.maximum(fx, best)
