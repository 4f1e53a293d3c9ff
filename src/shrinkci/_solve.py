"""Vectorized one-dimensional solvers run in lockstep across array entries.

The batch solvers of ``worstcase`` and ``pipeline`` reduce to three
problems: grow an upper bracket until a decreasing function turns
non-positive, find the root of a bracketed decreasing function, or maximize
a function along each column of a grid.  Root functions are called as
``f(x, idx)``, where ``idx`` holds the positions of the entries in ``x``, so
that entries which have converged drop out of the evaluation.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# bracketed_root keeps its brackets a hair inside the ITP bound, so that
# rounding of the iterates cannot leave the last bracket wider than tol
_SHRUNK = 1.0 - 1e-6


def expand_upper(f, hi):
    """Double each entry of ``hi`` until ``f(hi) <= 0`` there.

    Returns the grown ``hi`` and ``f`` at it.
    """
    hi = np.array(hi, dtype=float)
    f_hi = np.empty_like(hi)
    idx = np.arange(hi.size)
    for _ in range(40):
        f_hi[idx] = f(hi[idx], idx)
        idx = idx[f_hi[idx] > 0]
        if idx.size == 0:
            return hi, f_hi
        hi[idx] *= 2.0
    raise RuntimeError("bracket expansion failed")


def bracketed_root(f, lo, hi, f_lo, f_hi, tol: float):
    """Root of a decreasing ``f`` by the ITP method, per entry.

    Requires ``f_hi <= 0``.  Each entry stops once its bracket is at most
    ``tol`` wide and returns the bracket's upper end, so ``f`` is
    non-positive there and positive ``tol`` below it; an entry with
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
        done = hi - lo <= tol
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
    unimodal.  Returns (x, f(x)).
    """
    vals = f(grid)
    j = np.argmax(vals, axis=0)
    idx = np.arange(grid.shape[1])
    lo = grid[np.maximum(j - 1, 0), idx]
    hi = grid[np.minimum(j + 1, grid.shape[0] - 1), idx]
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        # keep the better interior point; it becomes the new interval's other one
        left = fc > fd
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
