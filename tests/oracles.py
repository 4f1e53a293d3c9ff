"""Scalar reference routes for the worst-case solvers.

Independent of the batch engines in ``shrinkci.worstcase``: the majorant
kink by brentq on its defining equation, the binding fourth-moment pair by
grid plus golden-section search over xi = x0 / m2 (129 points, 64 steps;
it shares only the pair's objective with the production solver, which
takes the corner test and Newton), and the critical value by inverting
that scalar worst case one chi at a time.
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
