"""Vectorized one-dimensional solvers run in lockstep across array entries.

The batch solvers of ``worstcase`` and ``pipeline`` reduce to three
problems: grow an upper bracket until a monotone predicate turns false,
bisect a bracketed monotone predicate, or maximize a function along each
column of a grid.  Predicates and objectives are callables on arrays.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def expand_upper(too_low, hi):
    """Double each entry of ``hi`` until ``too_low(hi)`` is false there."""
    for _ in range(40):
        bad = too_low(hi)
        if not bad.any():
            return hi
        hi = np.where(bad, hi * 2.0, hi)
    raise RuntimeError("bracket expansion failed")


def bisect(too_low, lo, hi, steps: int):
    """Fixed-step bisection of a predicate that is true below the root.

    Returns the final (lo, hi) bracket.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        low = too_low(mid)
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return lo, hi


def grid_golden_max(f, grid, iters: int):
    """Maximize ``f`` along each column of ``grid`` (shape (points, n)).

    The best grid point is refined by golden-section search between its two
    neighbors; the grid point is kept where refinement does worse, which
    guards against a function that is not unimodal.  Returns (x, f(x)).
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
        take_left = fc > fd
        hi = np.where(take_left, d, hi)
        lo = np.where(take_left, lo, c)
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        fc, fd = f(c), f(d)
    x = 0.5 * (lo + hi)
    fx = f(x)
    best = vals[j, idx]
    use_grid = best > fx
    return np.where(use_grid, grid[j, idx], x), np.maximum(fx, best)
