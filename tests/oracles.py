"""Scalar reference routes for the worst-case solvers and the moments.

Independent of the batch engines in ``shrinkci.worstcase``: the majorant
kink by brentq on its defining equation, the binding fourth-moment pair by
grid plus golden-section search over xi = x0 / m2 (129 points, 64 steps;
it shares only the pair's objective with the production solver, which
takes the corner test and Newton), and the critical value by inverting
that scalar worst case one chi at a time.

Independent of ``shrinkci.moments``' blocked kernels: the full n x n
neighbor order by lexsort, and the nearest-neighbor moments and
cross-validation errors by a per-unit loop over it with ``math.fsum``.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri

from shrinkci import _solve
from shrinkci import worstcase as wc


def kink_brentq(chi):
    """Majorant kink t0(chi) by brentq on ``wc._kink_objective``.

    Just above sqrt(3) the root lies within roundoff of the lower bracket
    end chi^2 - 3, which is then returned.
    """
    if chi <= math.sqrt(3.0):
        return 0.0
    r0 = float(wc.noncoverage_sq(0.0, chi))
    lo = max(chi * chi - 3.0, 1e-12)
    hi = (chi + 5.0) ** 2
    f_lo, f_hi = wc._kink_objective(lo, chi, r0), wc._kink_objective(hi, chi, r0)
    if not f_hi < 0 < f_lo:
        if f_hi < 0 and abs(f_lo) <= wc._kink_floor(r0):
            return lo
        raise RuntimeError(f"kink bracket failed at chi={chi}: f(lo)={f_lo}, f(hi)={f_hi}")
    t0 = brentq(wc._kink_objective, lo, hi, args=(chi, r0), xtol=1e-12, rtol=8.9e-16)
    resid = wc._kink_objective(t0, chi, r0)
    if abs(resid) > 1e-9:
        raise RuntimeError(f"kink residual {resid} at chi={chi}")
    return float(t0)


def worst_scalar(m2, kappa, chi):
    """Worst-case non-coverage at one (m2, kappa, chi), regime by regime."""
    t0 = kink_brentq(chi)
    if m2 == 0.0 or m2 >= t0 or (kappa is not None and kappa <= 1.0 + 1e-9):
        return float(wc.noncoverage_sq(m2, chi))
    if kappa is None or kappa >= wc.KAPPA_UNCONSTRAINED or kappa >= t0 / m2:
        r0 = float(wc.noncoverage_sq(0.0, chi))
        return r0 + (m2 / t0) * (float(wc.noncoverage_sq(t0, chi)) - r0)
    arr = lambda v: np.asarray([v], dtype=float)
    return float(binding_pair_value(arr(m2), arr(kappa), arr(chi), arr(t0))[0])


def binding_pair_value(m2, kappa, chi, t0):
    """Binding fourth-moment worst case by grid plus golden section on xi.

    Maximizes ``wc._feasible_pair_value`` over xi in [0, xi_max], with
    xi_max = (tau - kappa) / (tau - 1) and tau = t0 / m2, per entry: 129
    grid points, then 64 golden-section steps.
    """
    tau = t0 / m2
    xi_max = (tau - kappa) / (tau - 1.0)
    grid = np.linspace(0.0, 1.0, 129)[:, None] * xi_max
    _, val = _solve.grid_golden_max(
        lambda xi: wc._feasible_pair_value(xi, m2, kappa, chi), grid, 64
    )
    return val


def cva_scalar(m2, kappa, alpha):
    """Critical value by inverting ``worst_scalar`` one chi at a time.

    Returns the upper end of a bracket of width at most 1e-8 around the
    root, as ``critical_values`` does.
    """
    z = float(ndtri(1.0 - alpha / 2.0))
    if m2 == 0.0:
        return z
    worst = lambda chi, idx: np.array([worst_scalar(m2, kappa, float(c)) for c in chi])
    hi = z * math.sqrt((1.0 + m2) / alpha) + 1.0
    return float(_solve.invert(worst, alpha, [z], [hi], 1e-8)[0])


def neighbor_order_full(coords):
    """All units sorted by distance from each unit, ties by index, from the
    full (n, n, d) difference tensor."""
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    n = coords.shape[0]
    return np.lexsort((np.broadcast_to(np.arange(n), (n, n)), d2), axis=1)


def pmt_scalar(resid, sigma, omega):
    """Raw moments of one neighborhood by ``math.fsum``, floored at the PMT
    bounds in Python float arithmetic."""
    total = math.fsum(omega)
    mu2_uc = math.fsum(omega * (resid**2 - sigma**2)) / total
    mu4_uc = math.fsum(omega * (resid**4 - 6.0 * sigma**2 * resid**2 + 3.0 * sigma**4)) / total
    mu2_floor = 2.0 * math.fsum(omega**2 * sigma**4) / (total * math.fsum(omega * sigma**2))
    mu2 = max(mu2_uc, mu2_floor)
    kappa_floor = 1.0 + 32.0 * math.fsum(omega**2 * sigma**8) / (
        mu2**2 * total * math.fsum(omega * sigma**4)
    )
    return mu2, max(mu4_uc / mu2**2, kappa_floor)


def nn_moments_loop(resid, sigma, coords, omega, neighbors):
    """Per-unit PMT moments of each unit's ``neighbors`` nearest units."""
    order = neighbor_order_full(coords)
    out = [pmt_scalar(resid[i], sigma[i], omega[i]) for i in order[:, :neighbors]]
    return np.array(out).T


def cv_errors_full(resid, sigma, coords, omega, grid):
    """Leave-one-out prediction error of the J-neighbor mean of w2 for each
    J in ``grid``, with the unit itself removed from its full neighbor row."""
    w2 = resid**2 - sigma**2
    order = neighbor_order_full(coords)
    others = np.array([row[row != i] for i, row in enumerate(order)])
    cum = np.cumsum(w2[others], axis=1)
    return {j: float(omega @ (w2 - cum[:, j - 1] / j) ** 2) for j in sorted(grid)}
