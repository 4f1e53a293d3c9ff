"""Worst-case non-coverage of shrinkage intervals under moment constraints.

An interval centered at a biased-but-normal estimate misses its target with
probability ``noncoverage(b, chi)``, where ``b`` is the bias in standard-error
units and ``chi`` the critical value.  When only moments of ``b`` are known,
the relevant quantity is the worst case over all bias distributions matching
those moments.  This module evaluates that worst case in closed form (second
moment alone, or second moment plus kurtosis), inverts it to obtain robust
critical values, and reports the distributions that attain it.

Everything here is a pure function of its arguments; there is no shared
mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from shrinkci import _solve

__all__ = [
    "MomentConstraints",
    "DiscreteDistribution",
    "CriticalValueResult",
    "noncoverage",
    "noncoverage_sq",
    "noncoverage_sq_d1",
    "noncoverage_sq_d2",
    "majorant_kink",
    "worst_noncoverage_second",
    "worst_noncoverage_fourth",
    "worst_noncoverage",
    "critical_value",
    "critical_values",
    "least_favorable",
]

_SQRT3 = math.sqrt(3.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Kurtosis at or above this is treated as unconstrained; the fourth-moment
# program becomes too ill-conditioned to be worth solving and its value is
# within ~1e-6 of the second-moment-only bound anyway.
KAPPA_UNCONSTRAINED = 1e6


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


def _checked(name, x):
    """``x`` as a float array; ValueError unless it is finite and >= 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError(f"{name} must be finite and >= 0")
    return x


def _checked_kappa(kappa):
    """``kappa`` as a float array; ValueError unless >= 1 (inf allowed)."""
    kap = np.asarray(kappa, dtype=float)
    if not np.all(kap >= 1.0):
        raise ValueError("kappa must be >= 1 and not NaN")
    return kap


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class MomentConstraints:
    """Moment constraints on the normalized bias ``b``.

    ``m2`` is the second moment of ``b``; ``kappa`` the kurtosis
    ``E[b^4]/m2^2``.  ``kappa=None`` means only the second moment is
    constrained (conceptually infinite kurtosis).
    """

    m2: float
    kappa: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.m2) or self.m2 < 0:
            raise ValueError(f"m2 must be finite and >= 0, got {self.m2}")
        if self.kappa is not None:
            if math.isinf(self.kappa):
                object.__setattr__(self, "kappa", None)
            elif not self.kappa >= 1.0:
                raise ValueError(f"kappa must be >= 1, got {self.kappa}")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution given by support points and weights."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        pr = tuple(float(p) for p in self.probs)
        if len(pts) != len(pr) or not pts:
            raise ValueError("points and probs must be non-empty and equal length")
        if any(p2 <= p1 for p1, p2 in zip(pts, pts[1:])):
            raise ValueError("points must be strictly increasing")
        if any(p < 0 for p in pr):
            raise ValueError("probabilities must be non-negative")
        if abs(sum(pr) - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {sum(pr)}, not 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    def moment(self, k: int) -> float:
        return float(np.dot(np.power(self.points, k), self.probs))

    def expectation(self, fn) -> float:
        return float(np.dot(fn(np.asarray(self.points)), self.probs))


@dataclass(frozen=True)
class CriticalValueResult:
    """Robust critical value with the attained worst case and diagnostics."""

    chi: float
    noncoverage: float
    lf: DiscreteDistribution
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the non-coverage function and its transforms


def noncoverage(b, chi):
    """P(|Z - b| >= chi) for Z standard normal: Phi(-chi-b) + Phi(-chi+b)."""
    b = np.asarray(b, dtype=float)
    return ndtr(-chi - b) + ndtr(-chi + b)


def noncoverage_sq(t, chi):
    """Non-coverage as a function of the squared bias, t = b**2."""
    u = np.sqrt(np.asarray(t, dtype=float))
    return ndtr(-chi - u) + ndtr(u - chi)


def noncoverage_sq_d1(t, chi):
    """First derivative of ``noncoverage_sq`` in t.

    Equals [phi(sqrt(t)-chi) - phi(sqrt(t)+chi)] / (2 sqrt(t)), which is
    rewritten through sinh for small chi*sqrt(t) to avoid cancellation; the
    t -> 0 limit is chi*phi(chi).
    """
    t, chi = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(chi, dtype=float))
    u = np.sqrt(t)
    a = chi * u
    safe_u = np.where(u > 0, u, 1.0)
    small = a < 30.0
    out = np.asarray(_phi(chi) * np.exp(-0.5 * t) * np.sinh(np.where(small, a, 0.0)) / safe_u)
    # the direct form only where sinh would overflow
    large = ~small
    if large.any():
        ul, cl = u[large], chi[large]
        out[large] = (_phi(ul - cl) - _phi(ul + cl)) / (2.0 * safe_u[large])
    return np.where(u == 0, chi * _phi(chi), out)


def _cosh_combo_series(u, chi):
    """(chi*u + u^2 + 1) - exp(2*chi*u) * (u^2 - chi*u + 1) for small chi*u.

    Power series in s = 2*chi*u: -u^2*s + sum_{j>=2} (j/2 - 1 - u^2) s^j / j!.
    Accurate where the direct expression loses all leading digits.
    """
    s = 2.0 * chi * u
    total = -np.square(u) * s
    term = np.asarray(s, dtype=float).copy()
    for j in range(2, 26):
        term = term * s / j
        total = total + (0.5 * j - 1.0 - np.square(u)) * term
    return total


def noncoverage_sq_d2(t, chi):
    """Second derivative of ``noncoverage_sq`` in t.

    The sign equals that of f(sqrt(t)) = (chi u + u^2 + 1) - e^{2 chi u}
    (u^2 - chi u + 1); the t -> 0 limit is phi(chi) chi (chi^2 - 3) / 6.
    """
    t, chi = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(chi, dtype=float))
    u = np.sqrt(t)
    safe_t = np.where(t > 0, t, 1.0)
    # t ** 1.5 overflows past t ~ 3e205, where the true value underflows to 0 = x / inf
    with np.errstate(over="ignore"):
        out = np.asarray(
            (_phi(chi - u) * (chi * u - t - 1.0) + _phi(chi + u) * (chi * u + t + 1.0))
            / (4.0 * safe_t ** 1.5)
        )
    # the series only where the direct form cancels
    small = 2.0 * chi * u < 0.5
    if small.any():
        us, cs = u[small], chi[small]
        safe_u3 = np.where(us > 0, us, 1.0) ** 3
        out[small] = _phi(cs + us) * _cosh_combo_series(us, cs) / (4.0 * safe_u3)
    limit = _phi(chi) * chi * (np.square(chi) - 3.0) / 6.0
    return np.where(u == 0, limit, out)


# ---------------------------------------------------------------------------
# kink of the least concave majorant of noncoverage_sq


def _kink_objective(t, chi, r0):
    """r0 - r(t) + t r'(t) with r = noncoverage_sq(., chi) and r0 = r(0).

    Its derivative in t is t r''(t).
    """
    return r0 - noncoverage_sq(t, chi) + t * noncoverage_sq_d1(t, chi)


def _kink_floor(r0):
    """Roundoff floor of ``_kink_objective`` where the kink is ill-conditioned.

    Just above chi = sqrt(3) the objective's rounding error reaches about
    ten ulp of r0 while its slope at the root tends to zero, so Newton steps
    there are noise; 16 ulp sits above that noise.
    """
    return 16.0 * np.finfo(float).eps * r0


def majorant_kink(chi: float) -> float:
    """Kink t0 of the least concave majorant of t -> noncoverage_sq(t, chi).

    Zero for chi <= sqrt(3); otherwise the unique positive root of
    ``noncoverage_sq(0) - noncoverage_sq(t) + t * d/dt noncoverage_sq(t)``.
    Below t0 the majorant is the chord from t=0; above it the two agree.
    A length-1 call of ``_majorant_kink_batch``.
    """
    return float(_majorant_kink_batch(_checked("chi", chi)))


def _majorant_kink_batch(chi: np.ndarray, t_start=None) -> np.ndarray:
    """Majorant kinks of an array of chi by safeguarded Newton.

    Newton steps on the kink objective g, with g'(t) = t r''(t), inside the
    bracket [max(chi^2 - 3, 1e-12), (chi + 5)^2]: g is positive on (0, t0)
    and negative beyond, chi^2 - 3 lies below the inflection point and hence
    below t0, and g at (chi + 5)^2 is dominated by -noncoverage_sq ~ -1.  A
    step leaving the bracket is replaced by bisection.  Each entry stops
    once its relative step is at most 1e-12 or its residual reaches the
    roundoff floor, which just above sqrt(3) holds near the lower end.
    Entries at or below sqrt(3) are zero.  ``t_start`` (broadcast against
    chi) replaces the default starting point where it is finite, for a
    caller that already holds the kink of a nearby chi.
    """
    chi = np.asarray(chi, dtype=float)
    out = np.zeros(chi.size)
    pos = np.flatnonzero(chi > _SQRT3)
    c = chi.ravel()[pos]
    r0 = noncoverage_sq(0.0, c)
    floor = _kink_floor(r0)
    lo = np.maximum(c * c - 3.0, 1e-12)
    hi = (c + 5.0) ** 2
    t = np.clip(np.minimum(2.5 * (c * c - 3.0), (c + 1.0) ** 2), lo, hi)
    if t_start is not None:
        s = np.broadcast_to(np.asarray(t_start, dtype=float), chi.shape).ravel()[pos]
        t = np.where(np.isfinite(s), np.clip(s, lo, hi), t)
    for _ in range(100):
        g = _kink_objective(t, c, r0)
        above = g <= 0
        lo = np.where(above, lo, t)
        hi = np.where(above, t, hi)
        # where r'' underflows to 0 the step is inf or NaN, and bisection replaces it
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = t - g / (t * noncoverage_sq_d2(t, c))
        bad = ~((t_new >= lo) & (t_new <= hi))
        t_new = np.where(bad, 0.5 * (lo + hi), t_new)
        flat = np.abs(g) <= floor
        done = flat | (np.abs(t_new - t) <= 1e-12 * t)
        out[pos[done]] = np.where(flat, t, t_new)[done]
        keep = ~done
        pos, c, r0, floor = pos[keep], c[keep], r0[keep], floor[keep]
        lo, hi, t = lo[keep], hi[keep], t_new[keep]
        if not pos.size:
            return out.reshape(chi.shape)
    raise RuntimeError("majorant kink Newton iteration failed to converge")


# ---------------------------------------------------------------------------
# worst-case non-coverage


def _worst_noncoverage(m2, kappa, chi):
    """Validated ``_worst_noncoverage_batch`` on scalars or broadcast arrays."""
    m2, chi = np.broadcast_arrays(_checked("m2", m2), _checked("chi", chi))
    kap = None if kappa is None else np.broadcast_to(_checked_kappa(kappa), m2.shape)
    return _worst_noncoverage_batch(m2, kap, chi)


def worst_noncoverage_second(m2, chi):
    """Worst-case non-coverage when only E[b^2] = m2 is imposed.

    Evaluates the least concave majorant of ``noncoverage_sq`` at m2: the
    chord value from t=0 to the kink below it, the function itself above.
    Accepts scalars or arrays (broadcast against each other).
    """
    out = _worst_noncoverage(m2, None, chi)
    return float(out) if out.ndim == 0 else out


def _pair(one, m2, kappa):
    """Points and masses of the pair with lower point m2 * (1 - one).

    The pair matching E[t] = m2 and E[t^2] = kappa * m2^2 has upper point
    m2 * (1 + (kappa - 1) / one) and puts mass (kappa - 1) / (one^2 +
    kappa - 1) on the lower point.  No product reaches m2^2, so the pair
    stays finite for m2 up to the float range.  Returns (a, b, p, 1 - p).
    """
    k1 = kappa - 1.0
    den = one * one + k1
    return m2 * (1.0 - one), m2 * (1.0 + k1 / one), k1 / den, one * one / den


def _feasible_pair_value(xi, m2, kappa, chi):
    """Objective of the two-point distribution matching both moments.

    Support {m2 * xi, x} on the squared-bias scale with x chosen so that
    E[t] = m2 and E[t^2] = kappa * m2^2 hold exactly (``_pair``); xi ranges
    over [0, (tau - kappa) / (tau - 1)] with tau = t0 / m2, so that x stays
    within the kink t0.
    """
    return _pair_slopes(1.0 - xi, m2, kappa, chi, order=0)


def _pair_slopes(one, m2, kappa, chi, order=2):
    """The pair value F, and its first ``order`` derivatives in xi = 1 - one.

    F = p r(a) + q r(b) with a, b, p, q from ``_pair`` and
    r = noncoverage_sq(., chi).  Since q * db/dxi = m2 * p,
    F' = p' (r(a) - r(b)) + m2 p (r'(a) + r'(b)) and
    F'' = p'' (r(a) - r(b)) + p' (2 m2 r'(a) + (m2 - b') r'(b))
    + m2 p (m2 r''(a) + b' r''(b)).  Returns F alone at order 0.
    """
    a, b, p, q = _pair(one, m2, kappa)
    ra, rb = noncoverage_sq(a, chi), noncoverage_sq(b, chi)
    f = p * ra + q * rb
    if order == 0:
        return f
    k1 = kappa - 1.0
    den = one * one + k1
    da, db = noncoverage_sq_d1(a, chi), noncoverage_sq_d1(b, chi)
    diff = ra - rb
    p1 = 2.0 * k1 * one / (den * den)
    f1 = p1 * diff + m2 * p * (da + db)
    if order == 1:
        return f, f1
    d2a, d2b = noncoverage_sq_d2(a, chi), noncoverage_sq_d2(b, chi)
    p2 = 2.0 * k1 * (4.0 * one * one - den) / den**3
    b1 = m2 * (k1 / (one * one))
    f2 = p2 * diff + p1 * (2.0 * m2 * da + (m2 - b1) * db) + m2 * p * (m2 * d2a + b1 * d2b)
    return f, f1, f2


def _binding(m2, kap, t0):
    """Where the kurtosis bound binds: the second-moment solution violates it
    and kappa lies strictly between 1 + 1e-9 and ``KAPPA_UNCONSTRAINED``."""
    return (m2 > 0) & (kap > 1.0 + 1e-9) & (kap < KAPPA_UNCONSTRAINED) & (kap * m2 < t0)


# the span of sqrt(x) below the kink that gets four of the nine points of
# the grid bracketing an interior maximum; the maximum usually lies there
_PAIR_WINDOW = 3.0
# Newton iterations before an entry falls back to grid plus golden section
_PAIR_NEWTON_ITERS = 6


def _fourth_binding_batch(m2, kappa, chi, t0):
    """Solve the binding fourth-moment problem for arrays of inputs.

    Maximizes the pair value of ``_feasible_pair_value`` over the lower
    point x0 = m2 * xi, xi in [0, xi_max].  An entry whose slope dF/dxi at
    xi = 0 is strictly negative takes the corner, the pair {0, kappa * m2},
    from that one evaluation.  A slope that underflows to exactly 0 does
    not count: far in the Gaussian tail (kappa = 3, m2 above about 3e3) the
    corner's value and slope are both 0 while the maximum sits near xi_max.
    The other entries run ``_interior_pair_max``.  Returns (value, x0, x).
    """
    one = np.ones(m2.shape)
    val, slope = _pair_slopes(one, m2, kappa, chi, order=1)
    inner = np.flatnonzero(~(slope < 0))
    if inner.size:
        one[inner], val[inner] = _interior_pair_max(
            m2[inner], kappa[inner], chi[inner], t0[inner], val[inner]
        )
    x0, x, _, _ = _pair(one, m2, kappa)
    return val, x0, x


def _pair_grid(m2, kappa, t0):
    """(9, n) grid in v = log(x / m2 - 1), the corner first.

    x is the upper point, so v runs from log(kappa - 1) at the corner to
    log(t0 / m2 - 1) at the kink.  Where the kink lies more than
    ``_PAIR_WINDOW`` above sqrt(kappa * m2) on the sqrt(x) scale, four
    points split v below that window evenly and four split the window
    evenly in sqrt(x); otherwise eight split the whole range in sqrt(x).
    """
    k1 = kappa - 1.0
    # w = sqrt(x / m2): at the corner, at the kink, at the window's foot
    w_lo, w_hi = np.sqrt(kappa), np.sqrt(t0 / m2)
    w_win = np.maximum(w_lo, w_hi - _PAIR_WINDOW / np.sqrt(m2))
    to_v = lambda w: np.log(np.maximum(w * w - 1.0, k1))
    v_lo, v_win = np.log(k1), to_v(w_win)
    q4 = np.arange(1, 5)[:, None] / 4.0
    q8 = np.arange(1, 9)[:, None] / 8.0
    split = np.vstack([v_lo + (v_win - v_lo) * q4, to_v(w_win + (w_hi - w_win) * q4)])
    grid = np.where(w_win > w_lo, split, to_v(w_lo + (w_hi - w_lo) * q8))
    grid[-1] = np.log(t0 / m2 - 1.0)
    return np.vstack([v_lo, grid])


def _parabola_vertex(x, f):
    """Vertex of the parabola through three points (x[i], f[i])."""
    (x1, x2, x3), (f1, f2, f3) = x, f
    num = (x2 - x1) ** 2 * (f2 - f3) - (x2 - x3) ** 2 * (f2 - f1)
    den = (x2 - x1) * (f2 - f3) - (x2 - x3) * (f2 - f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x2 - 0.5 * num / den


def _interior_pair_max(m2, kappa, chi, t0, f0):
    """Maximize the pair value where the corner test fails; f0 = F at xi = 0.

    Works in v = log(x / m2 - 1), the log excess of the upper point x, on
    which 1 - xi = (kappa - 1) exp(-v).  Near the kink, v follows sqrt(x),
    the scale of the Gaussian tail on which the maximum is smooth; near the
    corner it follows log(1 - xi).  (On xi itself the maximum is squeezed
    against xi_max as kappa approaches 1, and Newton needs many more steps.)

    The grid of ``_pair_grid`` brackets the maximum between the best grid
    point's neighbors.  Safeguarded Newton on dF/dv, with the derivatives
    of ``_pair_slopes``, starts at the vertex of the parabola through the
    best grid point and its two neighbors (at an end, the end's three
    points); a step leaving the bracket, or taken where d2F/dv2 >= 0, is
    replaced by bisection.  An entry stops, keeping its current iterate,
    once its Newton step would gain at most 1e-14 F, or once |dF/dv| times
    the bracket width is at most 1e-15 F (the objective is flat to
    roundoff there).  The larger of the Newton value and the best grid
    value is returned; entries still running after ``_PAIR_NEWTON_ITERS``
    steps go to ``_solve.grid_golden_max`` on xi.  Returns (1 - xi, F).
    """
    k1 = kappa - 1.0
    one_of = lambda v, k: np.minimum(k * np.exp(-v), 1.0)
    grid = _pair_grid(m2, kappa, t0)
    ones = one_of(grid, k1)
    ones[0] = 1.0
    vals = np.vstack([f0, _pair_slopes(ones[1:], m2, kappa, chi, order=0)])
    last = grid.shape[0] - 1
    j = np.argmax(vals, axis=0)
    idx = np.arange(m2.size)
    best_one, best_f = ones[j, idx], vals[j, idx]
    lo = grid[np.maximum(j - 1, 0), idx]
    hi = grid[np.minimum(j + 1, last), idx]
    mid = np.clip(j, 1, last - 1)
    rows = (mid - 1, mid, mid + 1)
    v = _parabola_vertex([grid[r, idx] for r in rows], [vals[r, idx] for r in rows])
    v = np.where((v >= lo) & (v <= hi), v, grid[j, idx])

    act = idx
    for _ in range(_PAIR_NEWTON_ITERS):
        one = one_of(v, k1[act])
        # a non-finite slope (kernel under- or overflow at extreme m2) turns
        # into a bisection step below
        with np.errstate(all="ignore"):
            f, g1, g2 = _pair_slopes(one, m2[act], kappa[act], chi[act])
            # from xi to v: dxi/dv = one and d2xi/dv2 = -one
            f1 = g1 * one
            f2 = (g2 * one - g1) * one
            step = v - f1 / f2
        lo = np.where(f1 > 0, v, lo)
        hi = np.where(f1 < 0, v, hi)
        bad = ~((f2 < 0) & (step > lo) & (step < hi))
        step = np.where(bad, 0.5 * (lo + hi), step)
        flat = np.abs(f1) * (hi - lo) <= 1e-15 * f
        done = flat | (~bad & (np.abs(f1 * (step - v)) <= 1e-14 * f))
        take = done & (f > best_f[act])
        best_one[act[take]], best_f[act[take]] = one[take], f[take]
        keep = ~done
        act, v, lo, hi = act[keep], step[keep], lo[keep], hi[keep]
        if not act.size:
            return best_one, best_f
    m, k, c = m2[act], kappa[act], chi[act]
    xi_max = 1.0 - (k - 1.0) / (t0[act] / m - 1.0)
    xi, f = _solve.grid_golden_max(
        lambda x: _feasible_pair_value(x, m, k, c), np.linspace(0.0, 1.0, 49)[:, None] * xi_max, 48
    )
    take = f > best_f[act]
    best_one[act[take]], best_f[act[take]] = 1.0 - xi[take], f[take]
    return best_one, best_f


def _binding_pair(m2, kappa, chi, t0):
    """(x0, x) of the binding two-point pair at one key, None where slack."""
    if kappa is None or not _binding(m2, kappa, t0):
        return None
    _, x0, x = _fourth_binding_batch(*(np.array([v], dtype=float) for v in (m2, kappa, chi, t0)))
    return float(x0[0]), float(x[0])


def worst_noncoverage_fourth(m2: float, kappa: float, chi: float):
    """Worst-case non-coverage when E[b^2] = m2 and E[b^4] = kappa*m2^2.

    Above the majorant kink the kurtosis constraint is vacuous; at or above
    kappa = t0/m2 it is slack (the second-moment solution already satisfies
    it, up to mass escaping to infinity) and the second-moment bound is
    returned.  In the binding range the optimum is attained by a two-point
    distribution matching both moments: the pair {0, kappa * m2} where the
    objective falls away from it, otherwise the pair that safeguarded Newton
    finds from a short grid (``_fourth_binding_batch``).
    """
    if not kappa > 1.0:
        raise ValueError(f"kappa must be > 1, got {kappa}")
    if not m2 > 0:
        raise ValueError(f"m2 must be > 0, got {m2}")
    return float(_worst_noncoverage(m2, kappa, chi))


def worst_noncoverage(constraints: MomentConstraints, chi: float) -> float:
    """Worst-case non-coverage under the given moment constraints."""
    return float(_worst_noncoverage(constraints.m2, constraints.kappa, chi))


# ---------------------------------------------------------------------------
# critical values


# width of the bracket whose upper end the batch critical values return
_CHI_TOL = 1e-8
# half-width of the bracket that certifies a chord-regime Newton root
_NEWTON_HALF_WIDTH = 1e-9


def _cva_scalar(m2: float, kappa: float | None, alpha: float) -> float:
    """Critical value of one (m2, kappa) key: ``critical_values`` at length 1."""
    return float(critical_values(m2, kappa, alpha)[0])


def critical_value(constraints: MomentConstraints, alpha: float) -> CriticalValueResult:
    """Smallest chi whose worst-case non-coverage is at most alpha.

    The chi of ``critical_values`` for this one key.  The result carries
    the least favorable squared-bias distribution and solver diagnostics
    (majorant kink; dual touch points and quadratic coefficient when the
    kurtosis constraint binds).
    """
    m2, kappa = constraints.m2, constraints.kappa
    chi = _cva_scalar(m2, kappa, alpha)
    lf = least_favorable(constraints, chi)
    attained = lf.expectation(lambda t: noncoverage_sq(t, chi))
    t0 = majorant_kink(chi)
    diag = {"t0": t0}
    pair = _binding_pair(m2, kappa, chi, t0)
    if pair is not None:
        x0, x = pair
        dx = x - x0
        gap = noncoverage_sq(x, chi) - noncoverage_sq(x0, chi) - dx * noncoverage_sq_d1(x0, chi)
        lambda2 = 0.5 * noncoverage_sq_d2(x0, chi) if abs(dx) < 1e-9 else gap / dx**2
        diag.update(x0=x0, x=x, lambda2=float(lambda2))
    return CriticalValueResult(chi=chi, noncoverage=attained, lf=lf, diagnostics=diag)


def _cva_second_batch_newton(m2: np.ndarray, alpha: float) -> np.ndarray:
    """Second-moment-only critical values, vectorized.

    Splits into the point-mass regime (m2 at or above the kink, where the
    worst case is ``noncoverage_sq(m2, chi)`` itself and inverting that
    suffices) and the chord regime, where chi and the kink t0 solve a smooth
    2x2 system handled by damped Newton.  A Newton root is kept only inside
    the chord regime and only once a bracket of width 2 * _NEWTON_HALF_WIDTH
    around it certifies it; every other entry is inverted by bracketed root
    finding.
    """
    z = float(ndtri(1.0 - alpha / 2.0))
    out = np.full(m2.shape, z)
    pos = m2 > 0
    if not pos.any():
        return out
    m = m2[pos]

    # regime split: invert the point-mass branch first.  With u = sqrt(m2),
    # Phi(u - chi) <= noncoverage_sq(m2, chi) <= 2 Phi(u - chi) brackets it.
    u = np.sqrt(m)
    chi_point = _solve.invert(
        lambda chi, i: noncoverage_sq(m[i], chi),
        alpha, np.maximum(z, u + ndtri(1.0 - alpha)), u + z, _CHI_TOL,
    )
    t0_at_point = _majorant_kink_batch(chi_point)
    chord = m < t0_at_point

    chi = chi_point.copy()
    if chord.any():
        mc, chi_pc = m[chord], chi_point[chord]
        chi_n, t_n, ok = _chord_newton(mc, alpha, chi_pc, t0_at_point[chord])
        # a root of the 2x2 system with t <= m2 is not a chord-regime root
        ok &= (t_n > mc) & (chi_n >= chi_pc)
        g = np.flatnonzero(ok)
        if g.size:
            # the kinks at the ends start from the kink Newton already holds
            ends = np.concatenate([chi_n[g] - _NEWTON_HALF_WIDTH, chi_n[g] + _NEWTON_HALF_WIDTH])
            t_ends = np.tile(t_n[g], 2)
            f_ends = _worst_noncoverage_batch(np.tile(mc[g], 2), None, ends, t_ends) - alpha
            ok[g] = (f_ends[: g.size] > 0) & (f_ends[g.size :] <= 0)
        chi_c = chi_n + _NEWTON_HALF_WIDTH
        if not ok.all():
            chi_c[~ok] = _critical_values_bracketed(mc[~ok], None, alpha)
        chi[chord] = chi_c
    out[pos] = chi
    return out


def _chord_newton(m2, alpha, chi0, t0_init, max_iter=40):
    """Damped Newton on (t, chi) for the chord-regime critical value.

    Solves ``kink_objective(t, chi) = 0`` jointly with ``chord value = alpha``.
    The starting point (chi0 from the point-mass branch, its kink) lies below
    the solution in both coordinates.  Each entry stops once both residuals
    are below 1e-13, and stops unconverged once an iterate is not finite or
    t is past 2**511.  Returns (chi, t, converged); a converged entry can
    still be a root of the system outside the chord regime.
    """
    t_out = np.maximum(t0_init, 1e-8)
    chi_out = chi0.copy()
    ok = np.zeros(m2.shape, dtype=bool)
    act = np.flatnonzero(t_out < 2.0**511)  # past it, t * t and t ** 1.5 overflow
    t, chi, m2 = t_out[act], chi_out[act], m2[act]
    for it in range(max_iter):
        if not act.size:
            break
        u = np.sqrt(t)
        pm = _phi(u - chi)
        pp = _phi(u + chi)
        pc = _phi(chi)
        r00 = 2.0 * ndtr(-chi)
        r0t = ndtr(-chi - u) + ndtr(u - chi)
        d1 = (pm - pp) / (2.0 * u)
        d2 = (pm * (chi * u - t - 1.0) + pp * (chi * u + t + 1.0)) / (4.0 * t ** 1.5)
        q = pm + pp
        f1 = r00 - r0t + t * d1
        f2 = r00 + (m2 / t) * (r0t - r00) - alpha
        a = t * d2
        b = -2.0 * pc + q + t * ((u - chi) * pm + (u + chi) * pp) / (2.0 * u)
        c = (m2 / t) * d1 - (m2 / (t * t)) * (r0t - r00)
        d = -2.0 * pc * (1.0 - m2 / t) - (m2 / t) * q
        det = a * d - b * c
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        dt = (-f1 * d + f2 * b) / det
        dchi = (-f2 * a + f1 * c) / det
        # damp steps to keep the iterates in the valid region
        dt = np.clip(dt, -0.5 * t, 4.0 * t + 10.0)
        dchi = np.clip(dchi, -0.5 * (chi - 1e-3), 0.5 * chi + 1.0)
        t = t + dt
        chi = np.maximum(chi + dchi, 1e-3)
        t_out[act], chi_out[act] = t, chi
        # entries still running at the last iteration pass at 1e-10
        tol = 1e-10 if it == max_iter - 1 else 1e-13
        done = (np.abs(f1) < tol) & (np.abs(f2) < tol)
        ok[act[done]] = True
        keep = ~done & (t < 2.0**511) & np.isfinite(chi)
        act, t, chi, m2 = act[keep], t[keep], chi[keep], m2[keep]
    return chi_out, t_out, ok & np.isfinite(chi_out)


def _critical_values_bracketed(m2, kap, alpha):
    """Reference bracketed inversion (also the kappa-constrained path).

    Returns the upper end of a bracket of width at most ``_CHI_TOL`` around
    each root, so the worst case there is at most alpha.
    """
    z = float(ndtri(1.0 - alpha / 2.0))
    worst = lambda chi, i: _worst_noncoverage_batch(m2[i], None if kap is None else kap[i], chi)
    chi = _solve.invert(
        worst, alpha, np.full(m2.shape, z), z * np.sqrt((1.0 + m2) / alpha) + 1.0, _CHI_TOL
    )
    return np.where(m2 == 0.0, z, chi)


def critical_values(m2, kappa=None, alpha: float = 0.05) -> np.ndarray:
    """Vectorized robust critical values for arrays of moment constraints.

    ``kappa`` may be None (second moment only), a scalar, or an array
    broadcast against ``m2``.  Each entry is the upper end of a bracket of
    width at most 1e-8 around the root, so its worst case is at most alpha.
    The scalar ``critical_value`` is this function at length 1.  Each
    distinct (m2, kappa) pair is solved once.  A non-finite m2 or a NaN
    kappa raises ValueError; kappa = inf means no kurtosis bound.
    """
    m2 = np.atleast_1d(_checked("m2", m2))
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if kappa is None:
        uniq, inv = np.unique(m2, return_inverse=True)
        chi = _cva_second_batch_newton(uniq, alpha)
    else:
        kap = np.broadcast_to(_checked_kappa(kappa), m2.shape)
        # one exact key per (m2, kappa) pair; sorts far faster than unique(axis=0)
        key = m2.astype(complex)
        key.imag = kap
        uniq, inv = np.unique(key, return_inverse=True)
        chi = _critical_values_bracketed(uniq.real.copy(), uniq.imag.copy(), alpha)
    return chi[inv].reshape(m2.shape)


def _worst_noncoverage_batch(m2, kap, chi, t_start=None):
    """Vectorized worst-case non-coverage; kap is None or an array.

    ``t_start`` is passed to ``_majorant_kink_batch`` as its starting point.
    """
    chi = np.broadcast_to(np.asarray(chi, dtype=float), m2.shape)
    t0 = _majorant_kink_batch(chi, t_start)
    out = np.array(noncoverage_sq(m2, chi), dtype=float, copy=True)
    chord = (m2 > 0) & (m2 < t0)
    if chord.any():
        r00 = noncoverage_sq(0.0, chi[chord])
        t0c = t0[chord]
        out[chord] = r00 + (m2[chord] / t0c) * (noncoverage_sq(t0c, chi[chord]) - r00)
    if kap is not None:
        binding = _binding(m2, kap, t0)
        if binding.any():
            val, _, _ = _fourth_binding_batch(
                m2[binding], kap[binding], chi[binding], t0[binding]
            )
            out[binding] = val
        degenerate = (kap <= 1.0 + 1e-9) & (m2 > 0)
        if degenerate.any():
            out[degenerate] = noncoverage_sq(m2[degenerate], chi[degenerate])
    return out


def least_favorable(constraints: MomentConstraints, chi: float) -> DiscreteDistribution:
    """Distribution of the squared bias attaining the worst-case non-coverage.

    Returned on the t = b**2 scale.  Above the kink it is a point mass at m2;
    below it, without a kurtosis constraint, it mixes 0 and the kink; with a
    binding kurtosis constraint it is the optimal two-point pair, whose
    probabilities satisfy both moment equations exactly by construction.
    When the kurtosis constraint is slack the second-moment solution is
    returned (the slack constraint is attainable only in the limit, with
    vanishing mass escaping to infinity).
    """
    m2, kappa = constraints.m2, constraints.kappa
    t0 = majorant_kink(chi)
    if m2 == 0.0:
        return DiscreteDistribution((0.0,), (1.0,))
    if m2 >= t0 or (kappa is not None and kappa <= 1.0 + 1e-9):
        return DiscreteDistribution((m2,), (1.0,))
    pair = _binding_pair(m2, kappa, chi, t0)
    if pair is None:
        share = m2 / t0
        return DiscreteDistribution((0.0, t0), (1.0 - share, share))
    x0, x = pair
    if x - x0 < 1e-12:
        return DiscreteDistribution((m2,), (1.0,))
    p = (x - m2) / (x - x0)
    return DiscreteDistribution((max(x0, 0.0), x), (p, 1.0 - p))
