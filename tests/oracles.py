"""Scalar reference routes for the worst-case solvers and the moments.

Independent of the batch engines in ``shrinkci.worstcase``: the majorant
kink by brentq on its defining equation, the binding fourth-moment pair by
grid plus golden-section search over 1 - xi, with xi = x0 / m2 (129
points, 64 steps; it shares only the pair's objective with the production
solver, which takes the corner test and Newton), and the critical value by
inverting that scalar worst case one chi at a time.

Independent of ``shrinkci.moments``' blocked kernels: the full n x n
neighbor order by lexsort, and the nearest-neighbor moments and
cross-validation errors by a per-unit loop over it with ``math.fsum``.

Independent of ``shrinkci._csvio``'s blocked columnar CSV layer: the
row-at-a-time reader (a ``csv.DictReader`` dict per row) and writer
(``csv.writer``, one ``writerow`` per row) it replaced.

Independent of ``shrinkci.momentlp``'s envelope simplex: the concave
envelope as the lowest upper facet of a qhull convex hull, the route the
simplex replaced.

Independent of ``shrinkci.nonlinear``'s vectorized intervals: the HPD set
one y at a time and the expected HPD length by a loop over it, and the
Poisson interval ends one count at a time, each as the scalar code they
replaced; and the selection-conditional second moment by quadrature of its
direct-sum kernel density, in place of the closed form.
"""

import csv
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull
from scipy.special import gammaincinv, ndtri

from shrinkci import _solve
from shrinkci import cli
from shrinkci import momentlp as mlp
from shrinkci import moments as mom
from shrinkci import nonlinear as nl
from shrinkci import worstcase as wc


def kink_brentq(chi):
    """Majorant kink t0(chi) by brentq on ``wc._kink_objective``.

    Just above sqrt(3) the root lies within roundoff of the lower bracket
    end chi^2 - 3, which is then returned.  The root is (chi + x)^2 with x
    near sqrt(2 log(chi / (2 sqrt(2 pi)))), which passes 5 at chi = 1.3e6,
    so from chi = 1e6 on the upper end is (chi + 40)^2.  There one float
    step of sqrt(t) - chi moves the objective by about x ulp(chi), so the
    residual is checked only below chi = 1e6; above it the bracket brentq
    closes is the check.
    """
    if chi <= math.sqrt(3.0):
        return 0.0
    r0 = float(wc.noncoverage_sq(0.0, chi))
    lo = max(chi * chi - 3.0, 1e-12)
    hi = (chi + (40.0 if chi >= 1e6 else 5.0)) ** 2
    f_lo, f_hi = wc._kink_objective(lo, chi, r0), wc._kink_objective(hi, chi, r0)
    if not f_hi < 0 < f_lo:
        if f_hi < 0 and abs(f_lo) <= wc._kink_floor(r0):
            return lo
        raise RuntimeError(f"kink bracket failed at chi={chi}: f(lo)={f_lo}, f(hi)={f_hi}")
    t0 = brentq(wc._kink_objective, lo, hi, args=(chi, r0), xtol=1e-12, rtol=8.9e-16)
    resid = wc._kink_objective(t0, chi, r0)
    if chi < 1e6 and abs(resid) > 1e-9:
        raise RuntimeError(f"kink residual {resid} at chi={chi}")
    return float(t0)


def worst_scalar(m2, kappa, chi):
    """Worst-case non-coverage at one (m2, kappa, chi), regime by regime.

    From chi = 2^46 on it is evaluated at (m2 / 4^k, chi / 2^k), with
    chi / 2^k in [2^45, 2^46): up there the worst case depends on m2 / chi^2
    and kappa alone, and the kink (chi + x)^2 stays finite and resolved.
    """
    if chi >= 2.0**46:
        k = math.frexp(chi / 2.0**46)[1]
        m2, chi = math.ldexp(m2, -2 * k), math.ldexp(chi, -k)
    t0 = kink_brentq(chi)
    if m2 == 0.0 or m2 >= t0 or (kappa is not None and kappa <= 1.0 + 1e-9):
        return float(wc.noncoverage_sq(m2, chi))
    if kappa is None or kappa >= wc.KAPPA_UNCONSTRAINED or kappa >= t0 / m2:
        r0 = float(wc.noncoverage_sq(0.0, chi))
        return r0 + (m2 / t0) * (float(wc.noncoverage_sq(t0, chi)) - r0)
    arr = lambda v: np.asarray([v], dtype=float)
    return float(binding_pair_value(arr(m2), arr(kappa), arr(chi), arr(t0))[0])


def binding_pair_value(m2, kappa, chi, t0):
    """Binding fourth-moment worst case by grid plus golden section.

    Maximizes the pair value ``wc._pair_slopes`` over one = 1 - xi from 1
    down to lo, per entry: 129 grid points, then 64 golden-section steps.
    The small end lo = (kappa - 1) / (tau - 1), with tau = t0 / m2, is
    computed directly: as 1 - xi_max it rounds to 0 when kappa - 1 is a
    few 1e-9 and tau is large, and the pair divides by it.  The grid
    runs in xi's order: the maximum often lies at xi_max, the grid's last
    point, and the golden search breaks a tie between its interior points
    toward the upper part of the bracket (the lower part only when the best
    grid point is the first).
    """
    lo = (kappa - 1.0) / (t0 / m2 - 1.0)
    grid = lo + np.linspace(1.0, 0.0, 129)[:, None] * (1.0 - lo)
    _, val = _solve.grid_golden_max(
        lambda one: wc._pair_slopes(one, m2, kappa, chi, order=0), grid, 64
    )
    return val


def cva_scalar(m2, kappa, alpha):
    """Critical value by inverting ``worst_scalar`` one chi at a time.

    Returns the upper end of a bracket of width at most 1e-8 around the
    root, within 1e-8 of ``critical_values``' lattice point, m2 = 0
    included.
    """
    z = float(ndtri(1.0 - alpha / 2.0))
    worst = lambda chi, idx: np.array([worst_scalar(m2, kappa, float(c)) for c in chi])
    hi = z * math.sqrt((1.0 + m2) / alpha) + 1.0
    return float(_solve.invert(worst, alpha, [z], [hi], 1e-8)[0])


def envelope_hull(problem):
    """``mlp.envelope_value``'s value as the lowest upper facet of the convex
    hull of the lifted points (g(x_k), reward_k).

    A point below the centroid keeps the hull full-dimensional when the
    reward is constant; no upper facet can contain it.  A facet is upper
    when the reward component of its unit normal exceeds 1e-12, which drops
    the vertical facets over duplicate moments.  Barycentric weights of the
    target below 0 are clipped and renormalized, and InfeasibleMomentsError
    raised when the clipped weights miss the target by more than
    ``mlp.EQ_BAND``.
    """
    moments, targets = problem.moments, problem.targets
    p = targets.size
    sentinel = np.append(moments.mean(axis=1), problem.reward.min() - 1.0)
    hull = ConvexHull(np.vstack([np.column_stack([moments.T, problem.reward]), sentinel]))
    normal, offset = hull.equations[:, :-1], hull.equations[:, -1]
    upper = np.flatnonzero(normal[:, p] > 1e-12)
    planes = -(normal[upper, :p] @ targets + offset[upper]) / normal[upper, p]
    best = upper[np.argmin(planes)]
    at = moments[:, hull.simplices[best]]
    weights = np.linalg.solve(np.vstack([np.ones(p + 1), at]), np.append(1.0, targets))
    if weights.min() < 0.0:
        weights = np.maximum(weights, 0.0)
        weights /= weights.sum()
        if np.max(np.abs(at @ weights - targets)) > mlp.EQ_BAND:
            raise mlp.InfeasibleMomentsError(f"no grid distribution matches {targets}")
    return float(planes.min())


def neighbor_order_full(coords):
    """All units sorted by distance from each unit, ties by index, from the
    full (n, n, d) difference tensor."""
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    n = coords.shape[0]
    return np.lexsort((np.broadcast_to(np.arange(n), (n, n)), d2), axis=1)


def pmt_scalar(resid, sigma, omega):
    """Raw moments of one neighborhood by ``math.fsum``, floored at the PMT
    bounds in Python float arithmetic.  Each summand is spelled as the
    package forms it: fourth and eighth powers as products of squares, the
    mu2 floor's numerator as the square of omega sigma^2."""
    r2, s2 = resid * resid, sigma * sigma
    s4 = s2 * s2
    total = math.fsum(omega)
    mu2_uc = math.fsum(omega * (r2 - s2)) / total
    mu4_uc = math.fsum(omega * (r2 * r2 - 6.0 * s2 * r2 + 3.0 * (s2 * s2))) / total
    mu2_floor = 2.0 * math.fsum((omega * s2) ** 2) / (total * math.fsum(omega * s2))
    mu2 = max(mu2_uc, mu2_floor)
    kappa_floor = 1.0 + 32.0 * math.fsum(omega**2 * (s4 * s4)) / (
        mu2**2 * total * math.fsum(omega * s4)
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


def _number(path, lineno, col, raw):
    if raw is None or raw == "":
        raise cli.SchemaError(f"{path}: line {lineno}: missing value in column '{col}'")
    try:
        return float(raw)
    except ValueError as exc:
        raise cli.SchemaError(f"{path}: line {lineno}: column '{col}': not a number: {raw!r}") from exc


def read_units_csv_reference(path):
    """``Units`` from a units CSV, one ``csv.DictReader`` dict per row; the
    same grammar and messages as ``cli._read_units_csv``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = [(n, line) for n, line in enumerate(fh, start=1) if not line.startswith("#")]
    except OSError as exc:
        raise cli.SchemaError(f"cannot open input file {path}: {exc}") from exc
    reader = csv.DictReader(line for _, line in lines)
    cols = reader.fieldnames or []
    for required in ("y", "se"):
        if required not in cols:
            raise cli.SchemaError(f"{path}: missing required column '{required}'")
    xcols = sorted(
        (c for c in cols if c.startswith("x") and c[1:].isdigit()),
        key=lambda c: int(c[1:]),
    )
    names = ["y", "se", *xcols, *(["weight"] if "weight" in cols else [])]
    rows, linenos = [], []
    for row in reader:
        lineno = lines[reader.line_num - 1][0]
        rows.append([_number(path, lineno, c, row.get(c)) for c in names])
        linenos.append(lineno)
    if not rows:
        raise cli.SchemaError(f"{path}: no data rows")
    table = np.array(rows)
    k = 2 + len(xcols)
    try:
        return mom.Units(
            y=table[:, 0],
            sigma=table[:, 1],
            X=np.column_stack([np.ones(len(rows)), table[:, 2:k]]),
            omega=table[:, k] if "weight" in cols else None,
        )
    except mom.UnitError as exc:
        raise cli.SchemaError(f"{path}: line {linenos[exc.index]}: {exc}") from exc


def write_csv_reference(path, header_comments, colnames, rows):
    """Comment lines, a header row and one ``writerow`` per row, floats as
    their ``repr``; the same bytes as ``_csvio.write_csv`` on the columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(colnames)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def hpd_scalar(y, cfg, chi):
    """HPD set at one y: two upward quadratics in t, intersected."""
    s2 = cfg.sigma**2
    level = chi + float(nl._posterior_log_const(y, cfg))
    lam = math.sqrt(2.0 / cfg.mu2)
    lo, hi = -math.inf, math.inf
    for c in (y / s2 - lam, y / s2 + lam):
        disc = s2 * s2 * c * c + 2.0 * s2 * level
        if disc < 0:
            return None
        root = math.sqrt(disc)
        lo = max(lo, s2 * c - root)
        hi = min(hi, s2 * c + root)
    if lo > hi:
        return None
    return lo, hi


def expected_length_loop(cfg, chi):
    """``nl.soft_threshold_expected_length`` with the HPD set one y at a time."""
    y_lo, y_hi = cfg.y_truncation
    ys = np.linspace(y_lo, y_hi, 4001)
    lengths = np.empty(ys.size)
    for i, y in enumerate(ys):
        iv = hpd_scalar(float(y), cfg, chi)
        lengths[i] = 0.0 if iv is None else iv[1] - iv[0]
    marg = (
        np.exp(-0.5 * (ys / cfg.sigma) ** 2 - nl._posterior_log_const(ys, cfg))
        / (cfg.sigma * math.sqrt(2.0 * math.pi) * math.sqrt(2.0 * cfg.mu2))
    )
    return float(np.trapezoid(lengths * marg, ys))


def poisson_bounds_scalar(cfg, chi):
    """Ends of the Poisson candidate interval at y = 0..y_max, one count
    and one ``gammaincinv`` call at a time."""

    def quantile(q, shape, scale):
        return 0.0 if shape <= 0 else float(gammaincinv(shape, q)) * scale

    shrink = math.exp(-chi)
    scale = cfg.scale / (shrink + cfg.scale)
    out = []
    for y in range(cfg.y_max + 1):
        lo = quantile(cfg.alpha / 2.0, shrink * cfg.shape + y, scale)
        hi = quantile(1.0 - cfg.alpha / 2.0, 1.0 + shrink * (cfg.shape - 1.0) + y, scale)
        out.append((lo, hi))
    return np.array(out)


def selection_second_moment_quad(ys, window):
    """``nl.selection_second_moment`` at sigma = 1 by ``quad`` of its smoothed
    plug-in: the direct-sum Gaussian kernel density f, at the same Silverman
    bandwidth h, in the numerator v f + y^2 f + 2 v y f' + v^2 f'' (v = 1 +
    h^2) and in the denominator f, each integrated over the window on 64
    panels.  Past 40 h beyond the draws the density is 0 in floats."""
    ys = np.asarray(ys, dtype=float)
    n, h = ys.size, nl._silverman_bandwidth(ys)
    v = 1.0 + h * h

    def integrand(t, num):
        u = (t - ys) / h
        k = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        f = k.sum() / (n * h)
        if not num:
            return f
        fp = (-u * k).sum() / (n * h**2)
        fpp = ((u * u - 1.0) * k).sum() / (n * h**3)
        return v * f + t * t * f + 2.0 * v * t * fp + v * v * fpp

    edges = np.linspace(max(window.lo, ys.min() - 40.0 * h), min(window.hi, ys.max() + 40.0 * h), 65)
    total = lambda num: math.fsum(
        quad(integrand, a, b, args=(num,), epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    return total(True) / total(False)
