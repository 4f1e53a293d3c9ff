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
from scipy.optimize import brentq
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
    t = np.asarray(t, dtype=float)
    chi = np.asarray(chi, dtype=float)
    u = np.sqrt(t)
    a = chi * u
    safe_u = np.where(u > 0, u, 1.0)
    small = a < 30.0
    sinh_form = _phi(chi) * np.exp(-0.5 * t) * np.sinh(np.where(small, a, 0.0)) / safe_u
    direct = (_phi(u - chi) - _phi(u + chi)) / (2.0 * safe_u)
    out = np.where(small, sinh_form, direct)
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
    Just above sqrt(3) the root lies within roundoff of the lower bracket
    end chi^2 - 3, which is then returned.
    """
    if chi < 0:
        raise ValueError("chi must be >= 0")
    if chi <= _SQRT3:
        return 0.0
    # objective is positive on (0, t0), negative beyond; chi^2 - 3 lies below
    # the inflection point and hence below t0, while the objective at
    # (chi + 5)^2 is dominated by -noncoverage_sq ~ -1.
    r0 = float(noncoverage_sq(0.0, chi))
    lo = max(chi * chi - 3.0, 1e-12)
    hi = (chi + 5.0) ** 2
    f_lo, f_hi = _kink_objective(lo, chi, r0), _kink_objective(hi, chi, r0)
    if not f_hi < 0 < f_lo:
        if f_hi < 0 and abs(f_lo) <= _kink_floor(r0):
            return lo
        raise RuntimeError(
            f"majorant kink bracket failed at chi={chi}: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    t0 = brentq(_kink_objective, lo, hi, args=(chi, r0), xtol=1e-12, rtol=8.9e-16)
    resid = _kink_objective(t0, chi, r0)
    if abs(resid) > 1e-9:
        raise RuntimeError(f"majorant kink residual {resid} at chi={chi}")
    return float(t0)


def _majorant_kink_batch(chi: np.ndarray) -> np.ndarray:
    """Vectorized ``majorant_kink`` by safeguarded Newton.

    Newton steps on the kink objective g, with g'(t) = t r''(t), inside the
    bracket of ``majorant_kink``; a step leaving the bracket is replaced by
    bisection.  Each entry stops once its relative step is at most 1e-12 or
    its residual reaches the roundoff floor.
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
    for _ in range(100):
        g = _kink_objective(t, c, r0)
        above = g <= 0
        lo = np.where(above, lo, t)
        hi = np.where(above, t, hi)
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


def worst_noncoverage_second(m2, chi):
    """Worst-case non-coverage when only E[b^2] = m2 is imposed.

    Evaluates the least concave majorant of ``noncoverage_sq`` at m2: the
    chord value from t=0 to the kink below it, the function itself above.
    Accepts scalars or arrays (broadcast against each other).
    """
    m2 = np.asarray(m2, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if np.any(m2 < 0) or np.any(chi < 0):
        raise ValueError("m2 and chi must be >= 0")
    scalar = m2.ndim == 0 and chi.ndim == 0
    m2, chi = np.broadcast_arrays(m2, chi)
    out = _worst_noncoverage_batch(m2, None, chi)
    return float(out) if scalar else out


def _feasible_pair_value(x0, m2, kappa, chi):
    """Objective of the two-point distribution matching both moments.

    Support {x0, x} on the squared-bias scale with x chosen so that
    E[t] = m2 and E[t^2] = kappa * m2^2 hold exactly; x0 ranges over
    [0, m2*(t0 - kappa*m2)/(t0 - m2)] so that x stays within the kink.
    Where that upper end rounds to m2 (kappa within ~1e-6 of 1 and m2 far
    below t0) the pair at x0 = m2 is undefined; it scores -inf, so the
    maximization skips it rather than returning NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = m2 * (kappa * m2 - x0) / (m2 - x0)
        p = (x - m2) / (x - x0)
        val = p * noncoverage_sq(x0, chi) + (1.0 - p) * noncoverage_sq(x, chi)
    return np.where(np.isnan(val), -np.inf, val)


def _fourth_binding_batch(m2, kappa, chi, t0, grid_size=49, golden_iters=48):
    """Solve the binding fourth-moment problem for arrays of inputs.

    Maximizes the two-point feasible-family objective by coarse grid plus
    golden-section refinement.  Returns (value, x0, x).
    """
    x0max = m2 * (t0 - kappa * m2) / (t0 - m2)
    grid = np.linspace(0.0, 1.0, grid_size)[:, None] * x0max[None, :]
    x0, val = _solve.grid_golden_max(
        lambda x0: _feasible_pair_value(x0, m2, kappa, chi), grid, golden_iters
    )
    x = m2 * (kappa * m2 - x0) / (m2 - x0)
    return val, x0, x


def worst_noncoverage_fourth(m2: float, kappa: float, chi: float):
    """Worst-case non-coverage when E[b^2] = m2 and E[b^4] = kappa*m2^2.

    Above the majorant kink the kurtosis constraint is vacuous; at or above
    kappa = t0/m2 it is slack (the second-moment solution already satisfies
    it, up to mass escaping to infinity) and the second-moment bound is
    returned.  In the binding range the optimum is attained by a two-point
    distribution matching both moments, located by grid search plus
    golden-section refinement.
    """
    if not kappa > 1.0:
        raise ValueError(f"kappa must be > 1, got {kappa}")
    if not m2 > 0:
        raise ValueError(f"m2 must be > 0, got {m2}")
    val, _, _, _ = _fourth_with_solution(m2, kappa, chi)
    return val


def _fourth_with_solution(m2, kappa, chi):
    """Returns (value, x0, x, binding) for the fourth-moment problem."""
    t0 = majorant_kink(chi)
    if t0 == 0.0 or m2 >= t0:
        return float(noncoverage_sq(m2, chi)), m2, m2, False
    if kappa <= 1.0 + 1e-9:
        # essentially zero variance of the squared bias: point mass at m2
        return float(noncoverage_sq(m2, chi)), m2, m2, False
    if kappa >= KAPPA_UNCONSTRAINED or kappa >= t0 / m2:
        return float(worst_noncoverage_second(m2, chi)), 0.0, t0, False
    arr = lambda v: np.asarray([v], dtype=float)
    val, x0, x = _fourth_binding_batch(
        arr(m2), arr(kappa), arr(chi), arr(t0), grid_size=129, golden_iters=64
    )
    return float(val[0]), float(x0[0]), float(x[0]), True


def worst_noncoverage(constraints: MomentConstraints, chi: float) -> float:
    """Worst-case non-coverage under the given moment constraints."""
    m2, kappa = constraints.m2, constraints.kappa
    if m2 == 0.0:
        return float(noncoverage_sq(0.0, chi))
    if kappa is None:
        return float(worst_noncoverage_second(m2, chi))
    if kappa <= 1.0 + 1e-9:
        # only the symmetric two-point distribution is feasible
        return float(noncoverage_sq(m2, chi))
    return worst_noncoverage_fourth(m2, kappa, chi)


# ---------------------------------------------------------------------------
# critical values


# width of the bracket whose upper end the batch critical values return
_CHI_TOL = 1e-8
# half-width of the bracket that certifies a chord-regime Newton root
_NEWTON_HALF_WIDTH = 1e-9


def _cva_bracket(m2, alpha):
    z = float(ndtri(1.0 - alpha / 2.0))
    hi = z * math.sqrt((1.0 + m2) / alpha) + 1.0
    return z, hi


def _cva_scalar(m2: float, kappa: float | None, alpha: float) -> float:
    z = float(ndtri(1.0 - alpha / 2.0))
    if m2 == 0.0:
        return z
    cons = MomentConstraints(m2, kappa)
    obj = lambda chi: worst_noncoverage(cons, chi) - alpha
    lo, hi = _cva_bracket(m2, alpha)
    doublings = 0
    while obj(hi) > 0:
        hi *= 2.0
        doublings += 1
        if doublings > 40:
            raise RuntimeError(f"critical value bracket failed for m2={m2}")
    return float(brentq(obj, lo, hi, xtol=1e-8, rtol=8.9e-16))


def critical_value(constraints: MomentConstraints, alpha: float) -> CriticalValueResult:
    """Smallest chi whose worst-case non-coverage is at most alpha.

    Monotone inversion of ``worst_noncoverage`` in chi.  The result carries
    the least favorable squared-bias distribution and solver diagnostics
    (majorant kink; dual touch points and quadratic coefficient when the
    kurtosis constraint binds).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    chi = _cva_scalar(constraints.m2, constraints.kappa, alpha)
    lf = least_favorable(constraints, chi)
    attained = lf.expectation(lambda t: noncoverage_sq(t, chi))
    diag = {"t0": majorant_kink(chi)}
    if constraints.kappa is not None and constraints.m2 > 0:
        _, x0, x, binding = _fourth_with_solution(constraints.m2, constraints.kappa, chi)
        if binding:
            diag.update(
                x0=x0,
                x=x,
                lambda2=float(
                    0.5 * noncoverage_sq_d2(x0, chi)
                    if abs(x - x0) < 1e-9
                    else (
                        noncoverage_sq(x, chi)
                        - noncoverage_sq(x0, chi)
                        - (x - x0) * noncoverage_sq_d1(x0, chi)
                    )
                    / (x - x0) ** 2
                ),
            )
    return CriticalValueResult(chi=chi, noncoverage=attained, lf=lf, diagnostics=diag)


def _log_excess(worst, alpha):
    """log(worst / alpha), with the sign of worst - alpha kept exact.

    The bracketed inversions interpolate on this scale, on which the worst
    case's Gaussian and power-law tails in chi are close to linear.
    """
    v = np.log(np.maximum(worst, 1e-300) / alpha)
    return np.where(worst > alpha, np.maximum(v, 1e-300), np.minimum(v, 0.0))


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
    point = lambda chi, i: _log_excess(noncoverage_sq(m[i], chi), alpha)
    lo = np.maximum(z, u + ndtri(1.0 - alpha))
    hi, f_hi = _solve.expand_upper(point, u + z)
    chi_point = _solve.bracketed_root(point, lo, hi, point(lo, slice(None)), f_hi, _CHI_TOL)
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
            ends = np.concatenate([chi_n[g] - _NEWTON_HALF_WIDTH, chi_n[g] + _NEWTON_HALF_WIDTH])
            f_ends = _worst_noncoverage_batch(np.tile(mc[g], 2), None, ends) - alpha
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
    are below 1e-13.  Returns (chi, t, converged); a converged entry can
    still be a root of the system outside the chord regime.
    """
    t_out = np.maximum(t0_init, 1e-8)
    chi_out = chi0.copy()
    ok = np.zeros(m2.shape, dtype=bool)
    act = np.arange(m2.size)
    t, chi = t_out, chi_out
    for it in range(max_iter):
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
        keep = ~done
        act, t, chi, m2 = act[keep], t[keep], chi[keep], m2[keep]
        if not act.size:
            break
    return chi_out, t_out, ok & np.isfinite(chi_out)


def _critical_values_bracketed(m2, kap, alpha):
    """Reference bracketed inversion (also the kappa-constrained path).

    Returns the upper end of a bracket of width at most ``_CHI_TOL`` around
    each root, so the worst case there is at most alpha.
    """
    z = float(ndtri(1.0 - alpha / 2.0))
    f = lambda chi, i: _log_excess(
        _worst_noncoverage_batch(m2[i], None if kap is None else kap[i], chi), alpha
    )
    lo = np.full(m2.shape, z)
    hi, f_hi = _solve.expand_upper(f, z * np.sqrt((1.0 + m2) / alpha) + 1.0)
    chi = _solve.bracketed_root(f, lo, hi, f(lo, slice(None)), f_hi, _CHI_TOL)
    return np.where(m2 == 0.0, z, chi)


def critical_values(m2, kappa=None, alpha: float = 0.05) -> np.ndarray:
    """Vectorized robust critical values for arrays of moment constraints.

    ``kappa`` may be None (second moment only), a scalar, or an array
    broadcast against ``m2``.  Each entry is the upper end of a bracket of
    width at most 1e-8 around the root, so its worst case is at most alpha;
    it matches ``critical_value(...)`` to that tolerance.  Used by the batch
    pipeline and the simulation harness, where one inversion per unit would
    be too slow.  Each distinct (m2, kappa) pair is solved once.
    """
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    if np.any(m2 < 0):
        raise ValueError("m2 must be >= 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if kappa is None:
        uniq, inv = np.unique(m2, return_inverse=True)
        chi = _cva_second_batch_newton(uniq, alpha)
    else:
        kap = np.broadcast_to(np.asarray(kappa, dtype=float), m2.shape)
        if np.any(kap < 1.0):
            raise ValueError("kappa must be >= 1")
        # one exact key per (m2, kappa) pair; sorts far faster than unique(axis=0)
        key = m2.astype(complex)
        key.imag = kap
        uniq, inv = np.unique(key, return_inverse=True)
        chi = _critical_values_bracketed(uniq.real.copy(), uniq.imag.copy(), alpha)
    return chi[inv].reshape(m2.shape)


def _worst_noncoverage_batch(m2, kap, chi):
    """Vectorized worst-case non-coverage; kap is None or an array."""
    chi = np.broadcast_to(np.asarray(chi, dtype=float), m2.shape)
    t0 = _majorant_kink_batch(chi)
    out = np.array(noncoverage_sq(m2, chi), dtype=float, copy=True)
    chord = (m2 > 0) & (m2 < t0)
    if chord.any():
        r00 = noncoverage_sq(0.0, chi[chord])
        t0c = t0[chord]
        out[chord] = r00 + (m2[chord] / t0c) * (noncoverage_sq(t0c, chi[chord]) - r00)
    if kap is not None:
        binding = chord & (kap > 1.0 + 1e-9) & (kap < KAPPA_UNCONSTRAINED) & (kap * m2 < t0)
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
    if m2 == 0.0:
        return DiscreteDistribution((0.0,), (1.0,))
    t0 = majorant_kink(chi)
    if m2 >= t0 or t0 == 0.0 or (kappa is not None and kappa <= 1.0 + 1e-9):
        return DiscreteDistribution((m2,), (1.0,))
    if kappa is None or kappa >= KAPPA_UNCONSTRAINED or kappa >= t0 / m2:
        share = m2 / t0
        return DiscreteDistribution((0.0, t0), (1.0 - share, share))
    _, x0, x, _ = _fourth_with_solution(m2, kappa, chi)
    if x - x0 < 1e-12:
        return DiscreteDistribution((m2,), (1.0,))
    p = (x - m2) / (x - x0)
    if x0 <= 0.0:
        return DiscreteDistribution((0.0, x), (p, 1.0 - p))
    return DiscreteDistribution((x0, x), (p, 1.0 - p))
