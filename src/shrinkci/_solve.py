"""Vectorized one-dimensional solvers run in lockstep across array entries.

The batch solvers of ``worstcase``, ``pipeline``, ``nonlinear`` and
``momentlp`` reduce to three problems: invert a nonincreasing worst case at
level alpha (``invert``, which brackets and then calls ``bracketed_root``;
``newton_invert`` first takes Newton steps where the worst case comes with
its slope, and leaves ``invert`` the entries it does not settle), find the
root of a bracketed decreasing function (``bracketed_root``, or
``newton_root`` where the function comes with its slope: the majorant kink
and the binding pair), or maximize a function along each column of a grid.
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


# sweeps of newton_invert before an open entry goes to invert, and of
# newton_root before it raises
_NEWTON_SWEEPS = 8
_ROOT_SWEEPS = 100
# a Newton step at most this long, or at most four floats, leaves an error far
# below the pair's half-width, so the next estimate goes to the pair
_NEAR = 1e-5


def newton_invert(worst, alpha: float, x, lo, hi, tol: float):
    """``invert`` by Newton steps from ``x``, for a worst case with a slope.

    ``worst(x, idx)`` returns the worst case and its derivative in x > 0.
    Newton steps on ``log_excess`` against log x, on which power-law tails
    are straight lines, start at ``x`` inside ``invert``'s bracket [lo, hi].
    Each value moves lo or hi to the point evaluated; a step that leaves the
    bracket, or comes from a slope that is not negative and finite, is
    replaced by bisection.  Once a step is at most ``_NEAR`` (or four floats)
    long, the next estimate c is checked by the pair c -+ tol / 10, or c and
    the next float where that pair rounds to one point, moved inside the
    bracket.  An entry stops, as in ``bracketed_root``, once values have
    shown both ends of a bracket at most ``tol`` wide, or with adjacent
    floats as its ends, and returns the upper end.  Entries still
    open after ``_NEWTON_SWEEPS`` sweeps go to ``invert`` with the bracket
    they hold.
    """
    x = np.array(x, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out = np.empty(x.size)
    pos = np.arange(x.size)
    # whether a value has shown lo above alpha, and hi at most alpha
    lo_shown, hi_shown = np.zeros(x.size, dtype=bool), np.zeros(x.size, dtype=bool)
    pair = np.full(x.size, np.nan)  # the pair's upper point, NaN where none
    for _ in range(_NEWTON_SWEEPS):
        two = np.flatnonzero(np.isfinite(pair))
        one = np.arange(pos.size)
        pts = np.concatenate([x, pair[two]])
        w, dw = worst(pts, pos[np.concatenate([one, two])])
        g = log_excess(w, alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = dw / w
        # each entry's evaluated points, as bracket ends
        above = g > 0
        ends_lo, ends_hi = np.where(above, pts, -np.inf), np.where(above, np.inf, pts)
        bottom, top = ends_lo[one], ends_hi[one]
        # Newton goes on from the point nearest the root: the pair's upper
        # point where its value exceeds alpha, the other point otherwise
        base = one.copy()
        if two.size:
            bottom[two] = np.maximum(bottom[two], ends_lo[pos.size :])
            top[two] = np.minimum(top[two], ends_hi[pos.size :])
            base[two[above[pos.size :]]] = pos.size + np.flatnonzero(above[pos.size :])
        # a shown end replaces the caller's
        lo = np.where(bottom > -np.inf, np.maximum(bottom, np.where(lo_shown, lo, -np.inf)), lo)
        hi = np.where(top < np.inf, np.minimum(top, np.where(hi_shown, hi, np.inf)), hi)
        lo_shown |= bottom > -np.inf
        # rounding noise in the worst case can show an upper end at or below
        # lo, which is then dropped; as in invert, an upper end not above lo
        # doubles
        hi_shown = (hi_shown | (top < np.inf)) & (hi > lo)
        hi = np.where(hi_shown | (hi > lo), hi, 2.0 * lo)
        done = lo_shown & hi_shown & ((hi - lo <= tol) | (np.nextafter(lo, np.inf) >= hi))
        out[pos[done]] = hi[done]
        keep = ~done
        xb, gb, db = pts[base][keep], g[base][keep], dg[base][keep]
        pos, lo, hi = pos[keep], lo[keep], hi[keep]
        lo_shown, hi_shown = lo_shown[keep], hi_shown[keep]
        if not pos.size:
            return out
        with np.errstate(all="ignore"):
            c = xb * np.exp(-gb / (xb * db))
        ok = (db > -np.inf) & (db < 0) & np.isfinite(c)
        near = ok & (np.abs(c - xb) <= np.maximum(_NEAR, 4.0 * np.spacing(xb)))
        # a step past an upper end not yet shown tries that end, as invert does
        x = np.where(~hi_shown & ok & (c >= hi), hi, 0.5 * (lo + hi))
        x = np.where(ok & (c > lo) & (c < hi), c, x)
        # the pair inside the bracket, its upper point at least the next float
        c = np.clip(c, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
        up = np.maximum(c + 0.1 * tol, np.nextafter(c, np.inf))
        x = np.where(near, np.minimum(c - 0.1 * tol, np.nextafter(up, -np.inf)), x)
        pair = np.where(near, up, np.nan)
    out[pos] = invert(lambda x, idx: worst(x, pos[idx])[0], alpha, lo, hi, tol)
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
