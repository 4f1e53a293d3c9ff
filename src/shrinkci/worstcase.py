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
    # at or below t = 1e-200 the value is the limit to rounding, while t ** 1.5
    # and u ** 3 near underflow
    tiny = t <= 1e-200
    safe_t = np.where(tiny, 1.0, t)
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
        safe_u3 = np.where(tiny[small], 1.0, us) ** 3
        out[small] = _phi(cs + us) * _cosh_combo_series(us, cs) / (4.0 * safe_u3)
    limit = _phi(chi) * chi * (np.square(chi) - 3.0) / 6.0
    return np.where(tiny, limit, out)


# ---------------------------------------------------------------------------
# kink of the least concave majorant of noncoverage_sq


def _kink_objective(t, chi, r0):
    """r0 - r(t) + t r'(t), r = noncoverage_sq(., chi), r0 = r(0); its derivative is t r''(t)."""
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


# chi from which the kink's bracket and start follow its asymptote, and from
# which it is the square of the next float above chi
_KINK_FAR = 1e6
_KINK_HUGE = 2.0**56


def _majorant_kink_batch(chi: np.ndarray) -> np.ndarray:
    """Majorant kinks of an array of chi, by ``_solve.newton_root``.

    The root of the kink objective g, with g'(t) = t r''(t), lies in the
    bracket [max(chi^2 - 3, 1e-12), (chi + 5)^2]: g is positive on (0, t0)
    and negative beyond, chi^2 - 3 lies below the inflection point and hence
    below t0, and g at (chi + 5)^2 is dominated by -noncoverage_sq ~ -1.
    The root is (chi + x)^2 with x near sqrt(2 log(chi / (2 sqrt(2 pi)))),
    which passes 5 at chi = 1.3e6: from ``_KINK_FAR`` on, the upper end is
    (chi + 40)^2, where phi underflows, and Newton starts at that x.  From
    ``_KINK_HUGE`` on, x is below the float spacing of chi, and the kink is
    the square of the next float above chi (inf past the float range), so
    that r(t0) is 1 and not the 0.5 of t0 = chi^2.  Each entry stops once
    its relative step is at most 1e-12 or its residual reaches the roundoff
    floor, which just above sqrt(3) holds near the lower end.  Entries at
    or below sqrt(3) are zero.
    """
    chi = np.asarray(chi, dtype=float)
    out = np.zeros(chi.size)
    pos = np.flatnonzero(chi > _SQRT3)
    c = chi.ravel()[pos]
    huge = c >= _KINK_HUGE
    if huge.any():
        with np.errstate(over="ignore"):
            out[pos[huge]] = np.nextafter(c[huge], np.inf) ** 2
        pos, c = pos[~huge], c[~huge]
    r0 = noncoverage_sq(0.0, c)
    far = c >= _KINK_FAR
    lo = np.maximum(c * c - 3.0, 1e-12)
    hi = (c + np.where(far, 40.0, 5.0)) ** 2
    t = np.clip(np.minimum(2.5 * (c * c - 3.0), (c + 1.0) ** 2), lo, hi)
    if far.any():
        t[far] = (c[far] + np.sqrt(2.0 * np.log(c[far] / (2.0 * _SQRT2PI)))) ** 2
    g = lambda t, i: (_kink_objective(t, c[i], r0[i]), t * noncoverage_sq_d2(t, c[i]))
    out[pos] = _solve.newton_root(g, t, lo, hi, _kink_floor(r0), 1e-12)
    return out.reshape(chi.shape)


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
    # a kappa * m2 past the float range is slack
    with np.errstate(over="ignore"):
        return (m2 > 0) & (kap > 1.0 + 1e-9) & (kap < KAPPA_UNCONSTRAINED) & (kap * m2 < t0)


# the span of sqrt(x) below the kink that gets four of the nine points of
# the grid bracketing an interior maximum; the maximum usually lies there
_PAIR_WINDOW = 3.0
_PAIR_CORNER_GAP = 2.0  # widest first grid step in v, from the corner, before the grid splits


def _fourth_binding_batch(m2, kappa, chi, t0):
    """Solve the binding fourth-moment problem for arrays of inputs.

    Maximizes the pair value of ``_feasible_pair_value`` over the lower
    point x0 = m2 * xi, xi in [0, xi_max].  An entry whose slope dF/dxi at
    xi = 0 is strictly negative takes the corner, the pair {0, kappa * m2},
    from that one evaluation.  A slope that underflows to exactly 0 does
    not count: far in the Gaussian tail (kappa = 3, m2 above about 3e3) the
    corner's value and slope are both 0 while the maximum sits near xi_max.
    The other entries run ``_interior_pair_max``.  Returns (value, x0, x,
    p, q), the pair's points and masses as ``_pair`` gives them.
    """
    one = np.ones(m2.shape)
    val, slope = _pair_slopes(one, m2, kappa, chi, order=1)
    inner = np.flatnonzero(~(slope < 0))
    if inner.size:
        one[inner], val[inner] = _interior_pair_max(
            m2[inner], kappa[inner], chi[inner], t0[inner], val[inner]
        )
    return (val, *_pair(one, m2, kappa))


def _pair_grid(m2, kappa, t0):
    """(9, n) grid in u = 1 + v - log(kappa - 1), the corner (u = 1) first.

    v = log(x / m2 - 1) with x the upper point runs from log(kappa - 1) at
    the corner to log(t0 / m2 - 1) at the kink.  Eight points split the
    range evenly in sqrt(x), unless the kink lies more than
    ``_PAIR_WINDOW`` above sqrt(kappa * m2) on the sqrt(x) scale, or the
    first of those points more than ``_PAIR_CORNER_GAP`` above the corner
    in v.  Then four points split v evenly below a window and four split
    the window evenly in sqrt(x): the last ``_PAIR_WINDOW`` of sqrt(x) below
    the kink, or else the upper half of the range.
    """
    k1 = kappa - 1.0
    # w = sqrt(x / m2): at the corner, at the kink, at the window's foot
    w_lo, w_hi = np.sqrt(kappa), np.sqrt(t0 / m2)
    w_win = np.maximum(w_lo, w_hi - _PAIR_WINDOW / np.sqrt(m2))
    to_v = lambda w: np.log(np.maximum(w * w - 1.0, k1))
    v_lo = np.log(k1)
    whole = to_v(w_lo + (w_hi - w_lo) * np.arange(1, 9)[:, None] / 8.0)
    w_win = np.where((w_win <= w_lo) & (whole[0] - v_lo > _PAIR_CORNER_GAP), 0.5 * (w_lo + w_hi), w_win)
    q4, v_win = np.arange(1, 5)[:, None] / 4.0, to_v(w_win)
    split = np.vstack([v_lo + (v_win - v_lo) * q4, to_v(w_win + (w_hi - w_win) * q4)])
    grid = np.where(w_win > w_lo, split, whole)
    grid[-1] = np.log(t0 / m2 - 1.0)
    return 1.0 + (np.vstack([v_lo, grid]) - v_lo)


def _parabola_vertex(x, f):
    """Vertex of the parabola through three points (x[i], f[i])."""
    (x1, x2, x3), (f1, f2, f3) = x, f
    num = (x2 - x1) ** 2 * (f2 - f3) - (x2 - x3) ** 2 * (f2 - f1)
    den = (x2 - x1) * (f2 - f3) - (x2 - x3) * (f2 - f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x2 - 0.5 * num / den


def _interior_pair_max(m2, kappa, chi, t0, f0):
    """Maximize the pair value where the corner test fails; f0 = F at xi = 0.

    Works in u = 1 - log(1 - xi) = 1 + v - log(kappa - 1), v = log(x / m2 -
    1) the log excess of the upper point x.  Near the kink, v follows
    sqrt(x), the scale of the Gaussian tail on which the maximum is smooth;
    near the corner it follows log(1 - xi).  (On xi itself the maximum is
    squeezed against xi_max as kappa approaches 1, and Newton needs many
    more steps.)  As u >= 1, bisection reaches adjacent floats in about 60
    sweeps.

    The grid of ``_pair_grid`` brackets the maximum between the best grid
    point's neighbors.  ``_solve.newton_root`` finds the root of dF/du there,
    with the derivatives of ``_pair_slopes``, from the vertex of the parabola
    through the best grid point and its two neighbors (at an end, the end's
    three points).  Where F is concave, value and slope are both multiplied
    by the smaller of 1 / sqrt(-F d2F/du2) and 1e8 w / F, w the bracket's
    width, which leaves the Newton step as it is: the value floor 1e-7 then
    stops a key once that step would gain at most 1e-14 F, or once |dF/du|
    w is at most 1e-15 F, which by concavity bounds what is left to gain.
    Where F is not concave the value is infinite and the engine bisects;
    where d2F/du2 is lost to overflow, only the second test applies.  The
    larger of the Newton value and the best grid value is returned, as
    (1 - xi, F).
    """
    one_of = lambda u: np.exp(1.0 - u)
    grid = _pair_grid(m2, kappa, t0)
    ones = one_of(grid)
    vals = np.vstack([f0, _pair_slopes(ones[1:], m2, kappa, chi, order=0)])
    last = grid.shape[0] - 1
    j = np.argmax(vals, axis=0)
    idx = np.arange(m2.size)
    lo = grid[np.maximum(j - 1, 0), idx]
    hi = grid[np.minimum(j + 1, last), idx]
    mid = np.clip(j, 1, last - 1)
    rows = (mid - 1, mid, mid + 1)
    u = _parabola_vertex([grid[r, idx] for r in rows], [vals[r, idx] for r in rows])
    u = np.where((u >= lo) & (u <= hi), u, grid[j, idx])
    f, width = np.empty(m2.size), hi - lo

    def slopes(u, i):
        one = one_of(u)
        # kernel under- or overflow at extreme m2 gives a step that bisects
        with np.errstate(all="ignore"):
            f[i], g1, g2 = _pair_slopes(one, m2[i], kappa[i], chi[i])
            # from xi to u: dxi/du = one and d2xi/du2 = -one
            f1, f2 = g1 * one, (g2 * one - g1) * one
            flat = 1e8 * width[i] / f[i]
            scale = np.where(f2 < 0, np.fmin(1.0 / np.sqrt(-f[i] * f2), flat), np.inf)
            scale = np.where(np.isnan(f2), flat, scale)
            return np.where(f1 == 0.0, 0.0, f1 * scale), f2 * scale

    # with no step tolerance each entry returns a point it evaluated, whose F is in f
    u = _solve.newton_root(slopes, u, lo, hi, 1e-7, 0.0)
    take = f > vals[j, idx]
    return np.where(take, one_of(u), ones[j, idx]), np.where(take, f, vals[j, idx])


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


def _cva_scalar(m2: float, kappa: float | None, alpha: float) -> float:
    """Critical value of one (m2, kappa) key: ``critical_values`` at length 1."""
    return float(critical_values(m2, kappa, alpha)[0])


def critical_value(constraints: MomentConstraints, alpha: float) -> CriticalValueResult:
    """Smallest chi whose worst-case non-coverage is at most alpha.

    The chi of ``critical_values`` for this one key.  The result carries
    the worst case at chi, the least favorable squared-bias distribution and
    solver diagnostics (majorant kink; dual touch points and quadratic
    coefficient when the kurtosis constraint binds), from ``_solution``.
    """
    chi = _cva_scalar(constraints.m2, constraints.kappa, alpha)
    # with the worst case that certified chi, so at most alpha
    return CriticalValueResult(chi, *_solution(constraints.m2, constraints.kappa, chi))


def critical_values(m2, kappa=None, alpha: float = 0.05) -> np.ndarray:
    """Vectorized robust critical values for arrays of moment constraints.

    ``kappa`` may be None (second moment only), a scalar, or an array
    broadcast against ``m2``.  Each distinct (m2, kappa) pair is solved
    once, by ``_solve.newton_invert`` on the worst case and its slope in the
    bracket [z, z sqrt((1 + m2) / alpha) + 1].  Newton starts at the largest
    of z, sqrt(m2) + ndtri(1 - alpha), which lies below the root since the
    worst case is at least Phi(sqrt(m2) - chi), and the limit of
    chi / sqrt(m2) as m2 grows times sqrt(m2): sqrt(1 + sqrt((kappa - 1)
    (1 / alpha - 1))) (Cantelli), or 1 / sqrt(alpha) (Markov) where that is
    smaller or there is no kurtosis bound.  Each entry is the upper end of a
    bracket of width at most ``_CHI_TOL`` (or of adjacent floats) around
    the root, so its worst case is at most alpha.  The scalar
    ``critical_value`` is this function at length 1.
    A non-finite m2 or a NaN kappa raises ValueError; kappa = inf means no
    kurtosis bound.
    """
    m2 = np.atleast_1d(_checked("m2", m2))
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if kappa is None:
        uniq, inv = np.unique(m2, return_inverse=True)
        kap = None
    else:
        # one exact key per (m2, kappa) pair; sorts far faster than unique(axis=0)
        key = m2.astype(complex)
        key.imag = np.broadcast_to(_checked_kappa(kappa), m2.shape)
        pairs, inv = np.unique(key, return_inverse=True)
        uniq, kap = pairs.real.copy(), pairs.imag.copy()
    z = float(ndtri(1.0 - alpha / 2.0))
    worst = lambda chi, i: _worst_noncoverage_batch(
        uniq[i], None if kap is None else kap[i], chi, slope=True
    )
    # the quotient kept finite; where the cap binds, the upper end doubles
    top = np.minimum(1.0 + uniq, alpha * np.finfo(float).max) / alpha
    # no kurtosis bound: inf; a degenerate one (a point mass): 0
    k1 = math.inf if kap is None else np.where(kap > 1.0 + 1e-9, kap - 1.0, 0.0)
    limit = np.minimum(1.0 + np.sqrt(k1 * (1.0 / alpha - 1.0)), 1.0 / alpha)
    u = np.sqrt(uniq)
    start = np.maximum(np.maximum(z, u + ndtri(1.0 - alpha)), u * np.sqrt(limit))
    chi = _solve.newton_invert(
        worst, alpha, start, np.full(uniq.shape, z), z * np.sqrt(top) + 1.0, _CHI_TOL
    )
    return chi[inv].reshape(m2.shape)


# chi from which the worst case is evaluated at (m2 / 4**k, chi / 2**k), with
# chi / 2**k in [2**45, 2**46).  Up there it depends on m2 / chi^2 and kappa
# alone, to a relative 1e-13, so the kink and the pair points stay finite,
# while the float grid still resolves r(t) = noncoverage_sq(t, chi) near
# t = chi^2 (past chi = 2**56 it is a step from 0 through 0.5 to 1)
_CHI_RESCALE = 2.0**46


def _rescaled(m2, chi):
    """(m2 / 4**k, chi / 2**k, k), k = 0 below ``_CHI_RESCALE`` and above it
    the least k that brings chi / 2**k below it."""
    k = np.frexp(np.maximum(chi, 0.5 * _CHI_RESCALE) / _CHI_RESCALE)[1]
    return np.ldexp(np.ldexp(m2, -k), -k), np.ldexp(chi, -k), k


def _noncoverage_sq_dchi(t, chi):
    """Derivative of ``noncoverage_sq`` in chi: -phi(chi + sqrt(t)) - phi(sqrt(t) - chi)."""
    u = np.sqrt(t)
    return -_phi(chi + u) - _phi(u - chi)


def _pair_dchi(m2, chi, x0, x, p, q):
    """p dr(x0) + q dr(x), d = d/dchi, for the binding pair (x0, x, p, q).

    At an interior pair (x0 > 0), r'(x) comes from the first-order
    condition of ``_pair_slopes``, dF/dxi = p'(r(x0) - r(x)) + m2 p (r'(x0)
    + r'(x)) = 0 with p' = 2 p q / (1 - xi), and gives phi(sqrt(x) - chi) =
    2 sqrt(x) r'(x) + phi(sqrt(x) + chi).  Far in the tail the pair value is
    flat to roundoff over a range of x, so phi(sqrt(x) - chi) itself would
    depend on where in that range the maximization stopped.  Where x0
    rounds to m2 the pair has collapsed onto the point mass at m2, whose
    slope is taken.
    """
    dx = _noncoverage_sq_dchi(x, chi)
    collapsed = x0 >= m2
    inner = (x0 > 0) & ~collapsed
    if inner.any():
        m, c, a, b, w = m2[inner], chi[inner], x0[inner], x[inner], q[inner]
        d1b = 2.0 * w * (noncoverage_sq(b, c) - noncoverage_sq(a, c)) / (m - a) - noncoverage_sq_d1(a, c)
        u = np.sqrt(b)
        dx[inner] = -2.0 * _phi(u + c) - 2.0 * u * d1b
    return np.where(collapsed, _noncoverage_sq_dchi(m2, chi), p * _noncoverage_sq_dchi(x0, chi) + q * dx)


def _worst_noncoverage_batch(m2, kap, chi, slope=False):
    """Vectorized worst-case non-coverage; kap is None or an array.

    With ``slope``, returns (worst, d worst / d chi).  The least favorable
    distribution has at most two support points, so by Danskin's theorem
    the slope is the chi-derivative of the objective at that support, held
    fixed: the point mass, the chord {0, t0} or the binding pair.
    """
    m2, chi, k = _rescaled(m2, np.broadcast_to(np.asarray(chi, dtype=float), m2.shape))
    t0 = _majorant_kink_batch(chi)
    out = np.array(noncoverage_sq(m2, chi), dtype=float, copy=True)
    d = _noncoverage_sq_dchi(m2, chi) if slope else None
    chord = (m2 > 0) & (m2 < t0)
    if chord.any():
        c, share, t0c = chi[chord], m2[chord] / t0[chord], t0[chord]
        r00 = noncoverage_sq(0.0, c)
        rise = noncoverage_sq(t0c, c) - r00
        out[chord] = r00 + share * rise
        if slope:
            # phi(sqrt(t0) - chi) from the kink's equation, rise = t0 r'(t0):
            # at large chi the rounding of sqrt(t0) - chi spoils it directly
            u0 = np.sqrt(t0c)
            d00 = _noncoverage_sq_dchi(0.0, c)
            d[chord] = d00 + share * (-2.0 * _phi(c + u0) - 2.0 * rise / u0 - d00)
    if kap is not None:
        binding = _binding(m2, kap, t0)
        if binding.any():
            c = chi[binding]
            out[binding], x0, x, p, q = _fourth_binding_batch(m2[binding], kap[binding], c, t0[binding])
            if slope:
                d[binding] = _pair_dchi(m2[binding], c, x0, x, p, q)
        degenerate = (kap <= 1.0 + 1e-9) & (m2 > 0)
        if degenerate.any():
            out[degenerate] = noncoverage_sq(m2[degenerate], chi[degenerate])
            if slope:
                d[degenerate] = _noncoverage_sq_dchi(m2[degenerate], chi[degenerate])
    # the worst case at chi is that at chi / 2**k
    return (out, np.ldexp(d, -k)) if slope else out


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
    return _solution(constraints.m2, constraints.kappa, chi)[1]


def _solution(m2, kappa, chi):
    """(worst case, ``least_favorable``, diagnostics) of one key, the kink
    and the binding pair solved once at the key ``_rescaled`` gives: the
    worst case as ``_worst_noncoverage_batch`` computes it, bit for bit, and
    the support points scaled back by 4**k (inf past the float range)."""
    m2a, ca, (k,) = _rescaled(np.array([m2], dtype=float), _checked("chi", [chi]))
    t0a = _majorant_kink_batch(ca)
    (m2s,), (cs,), (t0,) = m2a, ca, t0a
    up = lambda t: np.ldexp(t, 2 * k).tolist()
    point = float(noncoverage_sq(m2a, ca)[0])
    with np.errstate(over="ignore"):
        diag = {"t0": up(t0)}
        if not 0.0 < m2s < t0 or (kappa is not None and kappa <= 1.0 + 1e-9):
            return point, DiscreteDistribution((m2,), (1.0,)), diag
        if kappa is None or not _binding(m2s, kappa, t0):
            r00, share = noncoverage_sq(0.0, ca), m2s / t0
            chord = r00 + m2a / t0a * (noncoverage_sq(t0a, ca) - r00)
            return float(chord[0]), DiscreteDistribution((0.0, up(t0)), (1.0 - share, share)), diag
        (worst,), (x0,), (x,), _, _ = _fourth_binding_batch(m2a, np.array([kappa], dtype=float), ca, t0a)
        dx = x - x0
        gap = noncoverage_sq(x, cs) - noncoverage_sq(x0, cs) - dx * noncoverage_sq_d1(x0, cs)
        lambda2 = 0.5 * noncoverage_sq_d2(x0, cs) if abs(dx) < 1e-9 else gap / dx / dx
        diag.update(x0=up(x0), x=up(x), lambda2=float(np.ldexp(lambda2, -4 * k)))
        if dx < 1e-12:
            return float(worst), DiscreteDistribution((m2,), (1.0,)), diag
        p = (x - m2s) / dx
        return float(worst), DiscreteDistribution((up(max(x0, 0.0)), up(x)), (p, 1.0 - p)), diag
