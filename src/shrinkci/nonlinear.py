"""Robust intervals around nonlinear shrinkage estimators.

Three families: highest-posterior-density intervals around the soft
thresholding estimator under a Laplace baseline prior, gamma-posterior-style
intervals for Poisson rates, and linear-shrinkage intervals that retain
average coverage conditional on the raw estimate falling in a selection
window.  Each family is indexed by a tuning parameter chi that widens the
sets, and is calibrated by inverting a discretized worst-case moment problem,
solved as a concave envelope by :mod:`shrinkci.momentlp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx, expit, gammaincinv, gammaln, ndtr, roots_legendre

from shrinkci import _solve
from shrinkci import momentlp as mlp
from shrinkci import worstcase as wc

__all__ = [
    "SoftThresholdConfig",
    "PoissonConfig",
    "SelectionWindow",
    "EmptyHpdError",
    "soft_threshold",
    "hpd_interval",
    "soft_threshold_noncoverage",
    "soft_threshold_ebci",
    "soft_threshold_expected_length",
    "soft_threshold_worst_noncoverage",
    "poisson_interval",
    "garwood_interval",
    "poisson_noncoverage",
    "poisson_ebci",
    "selection_noncoverage",
    "selection_second_moment",
    "selection_critical_value",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
# Newton step at which an edge of a covered run in y is final; the float
# spacing takes over from |y| = 8192, where it is the larger
_EDGE_TOL = 1e-12
# Gauss-Legendre rules of the Laplace-baseline average, computed once: on
# theta in [0, y_hi], and on the tail panel [y_hi, y_hi + _TAIL_SIGMAS sigma]
_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = roots_legendre(200)
_TAIL_NODES, _TAIL_WEIGHTS = roots_legendre(20)
# past the tail panel y falls inside the truncation with probability below
# Phi(-8) = 6e-16, so theta there is never covered
_TAIL_SIGMAS = 8.0


class EmptyHpdError(RuntimeError):
    """The requested highest-posterior-density set is empty."""


# ---------------------------------------------------------------------------
# soft thresholding under a Laplace baseline prior


def _default_theta_grid():
    return tuple(np.linspace(-10.0, 10.0, 500))


@dataclass(frozen=True)
class SoftThresholdConfig:
    """Homoskedastic normal model with a Laplace baseline prior.

    ``mu2`` is the prior second moment, ``sigma`` the noise standard
    deviation.  Grids and truncation control the calibration integrals.
    """

    mu2: float
    sigma: float = 1.0
    alpha: float = 0.05
    theta_grid: tuple[float, ...] = field(default_factory=_default_theta_grid)
    y_truncation: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self):
        if not (self.mu2 > 0 and self.sigma > 0):
            raise ValueError("mu2 and sigma must be > 0")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        grid = tuple(float(g) for g in self.theta_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("theta_grid must be strictly increasing")
        # the Laplace average integrates theta over [0, inf) and doubles it
        y_lo, y_hi = self.y_truncation
        if not (y_lo == -y_hi and 0 < y_hi < math.inf):
            raise ValueError(f"y_truncation must be finite and symmetric about 0, got {self.y_truncation}")
        object.__setattr__(self, "theta_grid", grid)


def soft_threshold(y, mu2: float):
    """sign(y) * max(|y| - sqrt(2/mu2), 0): the posterior mode under the
    Laplace prior with second moment mu2 and unit noise variance (with
    noise sd sigma the mode thresholds at sigma^2 sqrt(2/mu2) instead)."""
    if not mu2 > 0:
        raise ValueError("mu2 must be > 0")
    y = np.asarray(y, dtype=float)
    out = np.sign(y) * np.maximum(np.abs(y) - math.sqrt(2.0 / mu2), 0.0)
    return float(out) if out.ndim == 0 else out


def _posterior_log_const(y, cfg: SoftThresholdConfig, slope: bool = False):
    """c(y) such that the posterior density is
    exp(c(y) - t^2/(2 sigma^2) + y t / sigma^2 - |t| sqrt(2/mu2)).

    -c(y) is, up to a constant, the log of erfcx(a_minus) + erfcx(a_plus),
    summed on the log scale: erfcx overflows below -26.6, which the
    truncated grids reach once sigma is small (|y| > 3.8 at sigma = 0.1).
    With ``slope`` also returns c'(y), from erfcx'(x) = 2x erfcx(x) - 2/sqrt(pi)
    with the erfcx terms as softmax weights, so -sigma^2 c'(y) = E[t | y].
    """
    y = np.asarray(y, dtype=float)
    s = cfg.sigma
    root = math.sqrt(s * s / cfg.mu2)
    a_minus = root - y / (s * math.sqrt(2.0))
    a_plus = root + y / (s * math.sqrt(2.0))
    l_minus, l_plus = _log_erfcx(a_minus), _log_erfcx(a_plus)
    c = 0.5 * math.log(2.0 / (math.pi * s * s)) - np.logaddexp(l_minus, l_plus)
    if not slope:
        return c
    w_minus, w_plus = expit(l_minus - l_plus), expit(l_plus - l_minus)
    return c, (math.sqrt(2.0) / s) * (a_minus * w_minus - a_plus * w_plus)


def _log_erfcx(a):
    # below -26 erfcx(a) = exp(a^2) (2 - erfc(-a)) with erfc(-a) < 1e-295
    return np.where(a > -26.0, np.log(erfcx(np.maximum(a, -26.0))), a * a + math.log(2.0))


def hpd_interval(y: float, cfg: SoftThresholdConfig, chi: float) -> tuple[float, float]:
    """Highest-posterior-density interval at log-density level -chi.

    Intersection of the solution sets of two upward quadratics; always an
    interval, containing the posterior mode whenever nonempty.  Raises
    EmptyHpdError when chi is too small for the posterior mode to clear the
    level, which can happen even at chi = 0 when the posterior is diffuse.
    """
    if chi < 0:
        raise ValueError("chi must be >= 0")
    iv = _hpd_or_none(y, cfg, chi)
    if iv is None:
        raise EmptyHpdError(f"HPD set empty at y={y}, chi={chi}")
    return iv


def _hpd_or_none(y: float, cfg: SoftThresholdConfig, chi: float):
    lo, hi, ok = _hpd_bounds(y, cfg, chi)
    return (float(lo), float(hi)) if ok else None


def _hpd_bounds(y, cfg: SoftThresholdConfig, chi: float):
    """(lo, hi, nonempty) of the HPD sets at each y: the intersection of the
    solution sets of two upward quadratics in t."""
    y = np.asarray(y, dtype=float)
    s2 = cfg.sigma**2
    level = chi + _posterior_log_const(y, cfg)
    lam = math.sqrt(2.0 / cfg.mu2)
    lo, hi = np.full(y.shape, -np.inf), np.full(y.shape, np.inf)
    ok = np.full(y.shape, True)
    for c in (y / s2 - lam, y / s2 + lam):
        disc = s2 * s2 * c * c + 2.0 * s2 * level
        ok &= disc >= 0
        root = np.sqrt(np.where(ok, disc, 0.0))
        lo = np.maximum(lo, s2 * c - root)
        hi = np.minimum(hi, s2 * c + root)
    return lo, hi, ok & (lo <= hi)


def _covered_margin(theta, y, cfg: SoftThresholdConfig, chi: float, slope: bool = False):
    """Margin whose sign says whether theta lies in the HPD set at y.

    Positive iff both quadratic inequalities hold; vectorized over a theta
    column and a y row, or elementwise over equal shapes.  The terms in y
    alone and in theta alone are summed before they are broadcast, so a
    scan over both builds one full matrix.  With ``slope`` also returns the
    y-derivative (theta - E[t | y]) / sigma^2.
    """
    s2 = cfg.sigma**2
    lam = math.sqrt(2.0 / cfg.mu2)
    c = _posterior_log_const(y, cfg, slope)
    out = theta * (y / s2)
    out += chi + (c[0] if slope else c)
    out -= theta * theta / (2.0 * s2) + np.abs(theta) * lam
    return (out, theta / s2 + c[1]) if slope else out


def _newton_steps(cfg: SoftThresholdConfig) -> int:
    """Steps before an edge solve raises: a near-tangent run halves its
    distance to the tangent point on each step, and 16 steps are spare."""
    y_lo, y_hi = cfg.y_truncation
    return math.ceil(math.log2((y_hi - y_lo) / _EDGE_TOL)) + 16


def soft_threshold_noncoverage(theta, cfg: SoftThresholdConfig, chi: float) -> np.ndarray:
    """P(theta not in HPD set | theta) for each theta, by integration over y.

    The margin is concave in y (-c(y) is the log of a normalizer, a
    cumulant generating function), so each theta is covered on one
    y-interval, found by a Newton solve from each end of the truncation in
    lockstep.  Started where the margin is <= 0, Newton on a concave function
    climbs monotonically to the edge without crossing it; the run is empty
    once an iterate passes the maximum or the far end with the margin still
    <= 0.  An edge is final once its step is at most ``_EDGE_TOL`` or the
    float spacing at y; an entry still open after ``_newton_steps`` raises
    RuntimeError.  y is truncated per the config, and mass outside the
    truncation counts as non-covered.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = theta.size
    y_lo, y_hi = cfg.y_truncation
    # entries [0, n) start at the lower end and step up, [n, 2n) the reverse;
    # an empty run gets the far end as its edge, so that right <= left
    th = np.concatenate([theta, theta])
    d = np.repeat([1.0, -1.0], n)
    far = np.repeat([y_hi, y_lo], n)
    y = np.repeat([y_lo, y_hi], n)
    m, dm = _covered_margin(th, y, cfg, chi, slope=True)
    edge = np.where((m <= 0) & (d * dm <= 0), far, y)
    idx = np.flatnonzero((m <= 0) & (d * dm > 0))
    y, m, dm = y[idx], m[idx], dm[idx]
    for _ in range(_newton_steps(cfg)):
        step = -m / dm
        y = y + step
        # past the far end the tangent, and so the margin, is <= 0 on the whole range
        beyond = d[idx] * (y - far[idx]) > 0
        done = beyond | (np.abs(step) <= np.maximum(_EDGE_TOL, np.spacing(np.abs(y))))
        edge[idx[done]] = np.where(beyond, far[idx], y)[done]
        idx, y = idx[~done], y[~done]
        if not idx.size:
            break
        m, dm = _covered_margin(th[idx], y, cfg, chi, slope=True)
        # past the maximum with the margin still <= 0 nothing is covered;
        # a positive margin is the edge, reached up to rounding
        past = (m <= 0) & (d[idx] * dm <= 0)
        stop = past | (m > 0)
        edge[idx[stop]] = np.where(past, far[idx], y)[stop]
        idx, y, m, dm = idx[~stop], y[~stop], m[~stop], dm[~stop]
    if idx.size:
        raise RuntimeError(f"{idx.size} edges still open after {_newton_steps(cfg)} Newton steps")
    left, right = edge[:n], edge[n:]
    s = cfg.sigma
    mass = np.where(right > left, ndtr((right - theta) / s) - ndtr((left - theta) / s), 0.0)
    return 1.0 - mass


def _laplace_pdf(theta, mu2):
    lam = math.sqrt(2.0 / mu2)
    return 0.5 * lam * np.exp(-lam * np.abs(theta))


def _laplace_average_noncoverage(cfg: SoftThresholdConfig, chi: float) -> float:
    """E[noncoverage(theta, chi)] under the Laplace baseline, over all theta.

    Twice the integral over theta >= 0, by symmetry: Gauss-Legendre on
    [0, y_hi] and on the tail panel up to b = y_hi + ``_TAIL_SIGMAS`` sigma,
    plus the prior mass beyond b, which is never covered.
    """
    up = cfg.y_truncation[1]
    width = _TAIL_SIGMAS * cfg.sigma
    th = np.concatenate([0.5 * up * (_LEGENDRE_NODES + 1.0), up + 0.5 * width * (_TAIL_NODES + 1.0)])
    w = np.concatenate([0.5 * up * _LEGENDRE_WEIGHTS, 0.5 * width * _TAIL_WEIGHTS])
    vals = soft_threshold_noncoverage(th, cfg, chi)
    beyond = math.exp(-math.sqrt(2.0 / cfg.mu2) * (up + width))
    return float(2.0 * np.sum(w * _laplace_pdf(th, cfg.mu2) * vals) + beyond)


def soft_threshold_ebci(cfg: SoftThresholdConfig) -> tuple[float, float]:
    """Calibrated tuning parameters (chi_robust, chi_parametric).

    The robust value inverts the worst case over all effect distributions on
    the grid with second moment mu2; the parametric value is the smallest chi,
    to within 1e-6, whose average non-coverage under the Laplace baseline
    itself is at most alpha.
    """
    family = lambda chi: _soft_threshold_problem(cfg, chi)
    chi_robust = mlp.calibrate_chi(family, cfg.alpha, lo=0.0, hi=2.0)

    laplace = lambda chi, idx: np.array([_laplace_average_noncoverage(cfg, c) for c in chi])
    chi_parametric = _solve.invert(laplace, cfg.alpha, [0.0], [2.0], 1e-6)
    return chi_robust, float(chi_parametric[0])


def _soft_threshold_problem(cfg: SoftThresholdConfig, chi: float) -> mlp.MomentProblem:
    """Worst case at chi over grid distributions with second moment mu2."""
    grid = np.asarray(cfg.theta_grid)
    reward = np.clip(soft_threshold_noncoverage(grid, cfg, chi), 0.0, 1.0)
    return mlp.MomentProblem(grid, reward, grid[None, :] ** 2, [cfg.mu2])


def soft_threshold_worst_noncoverage(cfg: SoftThresholdConfig, chi: float) -> float:
    """Worst-case non-coverage at chi over grid distributions matching mu2."""
    return mlp.envelope_value(_soft_threshold_problem(cfg, chi)).value


def soft_threshold_expected_length(cfg: SoftThresholdConfig, chi: float) -> float:
    """Expected HPD length under the Laplace baseline marginal of y."""
    y_lo, y_hi = cfg.y_truncation
    ys = np.linspace(y_lo, y_hi, 4001)
    lo, hi, ok = _hpd_bounds(ys, cfg, chi)
    lengths = np.where(ok, hi - lo, 0.0)
    # marginal density of y recovered from the posterior normalizer
    marg = (
        np.exp(-0.5 * (ys / cfg.sigma) ** 2 - _posterior_log_const(ys, cfg))
        / (cfg.sigma * _SQRT2PI * math.sqrt(2.0 * cfg.mu2))
    )
    return float(np.trapezoid(lengths * marg, ys))


# ---------------------------------------------------------------------------
# Poisson rates under a gamma baseline prior


@dataclass(frozen=True)
class PoissonConfig:
    """Poisson counts with a Gamma(shape, scale) baseline prior."""

    shape: float
    scale: float
    alpha: float = 0.05
    y_max: int = 30
    theta_grid: tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("shape and scale must be > 0")
        if self.y_max < 10:
            raise ValueError("y_max must be >= 10")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        grid = self.theta_grid
        if not grid:
            upper = float(gammaincinv(1.0, 0.999)) * self.scale
            grid = tuple(np.linspace(1e-6, upper, 500))
        else:
            grid = tuple(float(g) for g in grid)
            if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] <= 0:
                raise ValueError("theta_grid must be positive and increasing")
        object.__setattr__(self, "theta_grid", grid)


def _gamma_quantile(q: float, shape, scale: float):
    """Gamma quantiles elementwise; 0 where the shape is not positive."""
    shape = np.asarray(shape, dtype=float)
    return np.where(shape > 0, gammaincinv(np.where(shape > 0, shape, 1.0), q), 0.0) * scale


def _poisson_bounds(ys, cfg: PoissonConfig, chi: float):
    """Ends (lo, hi) of the candidate interval at each count in ``ys``."""
    ys = np.asarray(ys, dtype=float)
    if chi < 0 or np.any(ys < 0):
        raise ValueError("need y >= 0 and chi >= 0")
    shrink = math.exp(-chi)
    scale = cfg.scale / (shrink + cfg.scale)
    lo = _gamma_quantile(cfg.alpha / 2.0, shrink * cfg.shape + ys, scale)
    hi = _gamma_quantile(1.0 - cfg.alpha / 2.0, 1.0 + shrink * (cfg.shape - 1.0) + ys, scale)
    return lo, hi


def poisson_interval(y: int, cfg: PoissonConfig, chi: float) -> tuple[float, float]:
    """Candidate interval for the rate: a chi-widened version of the
    equal-tailed gamma posterior credible interval.

    chi = 0 recovers the credible interval exactly; chi -> infinity the
    classical exact (Garwood) interval.
    """
    lo, hi = _poisson_bounds(y, cfg, chi)
    return float(lo), float(hi)


def garwood_interval(y: int, alpha: float = 0.05) -> tuple[float, float]:
    """Classical exact interval for a Poisson rate from one count.

    Gamma-quantile form; the lower endpoint is 0 at y = 0.  Pointwise
    coverage is at least 1 - alpha at every rate.
    """
    if y < 0:
        raise ValueError("y must be >= 0")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    lo = _gamma_quantile(alpha / 2.0, float(y), 1.0)
    hi = _gamma_quantile(1.0 - alpha / 2.0, float(y) + 1.0, 1.0)
    return float(lo), float(hi)


def _poisson_pmf_matrix(theta: np.ndarray, y_max: int) -> np.ndarray:
    ys = np.arange(y_max + 1)
    log_pmf = (
        ys[None, :] * np.log(theta[:, None]) - theta[:, None] - gammaln(ys + 1.0)[None, :]
    )
    return np.exp(log_pmf)


def poisson_noncoverage(theta, cfg: PoissonConfig, chi: float, pmf=None) -> np.ndarray:
    """P(theta not in interval(Y) | theta) by exact summation over y <= y_max.

    ``pmf`` is ``_poisson_pmf_matrix(theta, cfg.y_max)``, passed by a caller
    that evaluates many chi on one grid; it does not depend on chi.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lo, hi = _poisson_bounds(np.arange(cfg.y_max + 1), cfg, chi)
    if pmf is None:
        pmf = _poisson_pmf_matrix(theta, cfg.y_max)
    inside = (lo[None, :] <= theta[:, None]) & (theta[:, None] <= hi[None, :])
    return 1.0 - np.sum(pmf * inside, axis=1)


def poisson_ebci(
    cfg: PoissonConfig,
    mean: float | None = None,
    second_moment: float | None = None,
) -> float:
    """Robust chi for the Poisson candidate family.

    Constrains the first two moments of the rate distribution; the defaults
    are the baseline gamma moments (shape*scale and shape*(shape+1)*scale^2).
    """
    if mean is None:
        mean = cfg.shape * cfg.scale
    if second_moment is None:
        second_moment = cfg.shape * (cfg.shape + 1.0) * cfg.scale**2
    if second_moment < mean**2:
        raise mlp.InfeasibleMomentsError(
            f"second moment {second_moment} below squared mean {mean**2}"
        )
    pmf = _poisson_pmf_matrix(np.asarray(cfg.theta_grid), cfg.y_max)
    family = lambda chi: _poisson_problem(cfg, chi, mean, second_moment, pmf)
    return mlp.calibrate_chi(family, cfg.alpha, lo=0.0, hi=2.0)


def _poisson_problem(
    cfg: PoissonConfig, chi: float, mean: float, second_moment: float, pmf=None
) -> mlp.MomentProblem:
    """Worst case at chi over grid rate distributions with the two moments;
    ``pmf`` as in ``poisson_noncoverage``."""
    grid = np.asarray(cfg.theta_grid)
    reward = np.clip(poisson_noncoverage(grid, cfg, chi, pmf), 0.0, 1.0)
    return mlp.MomentProblem(
        grid, reward, np.vstack([grid, grid**2]), [mean, second_moment]
    )


# ---------------------------------------------------------------------------
# coverage conditional on selection


@dataclass(frozen=True)
class SelectionWindow:
    """Units are kept when the raw estimate falls in [lo, hi]."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")


def selection_noncoverage(
    theta, chi: float, window: SelectionWindow, w_eb: float, sigma: float = 1.0
):
    """Non-coverage of the shrinkage interval conditional on selection.

    Degenerate selection probability at a given theta yields 1 (the interval
    cannot be said to cover in a region the data never reaches).
    """
    if not 0.0 < w_eb < 1.0:
        raise ValueError("w_eb must be in (0, 1)")
    theta = np.asarray(theta, dtype=float)
    b = (1.0 - 1.0 / w_eb) * theta / sigma
    z_hi = (window.hi - theta) / sigma
    z_lo = (window.lo - theta) / sigma
    denom = ndtr(z_hi) - ndtr(z_lo)
    num = ndtr(np.minimum(chi - b, z_hi)) - ndtr(np.maximum(-chi - b, z_lo))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 1.0 - num / denom
    val = np.where(denom < 1e-300, 1.0, val)
    out = np.clip(val, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _silverman_bandwidth(data: np.ndarray) -> float:
    n = data.size
    sd = float(np.std(data, ddof=1))
    iqr = float(np.subtract(*np.percentile(data, [75, 25])))
    spread = min(sd, iqr / 1.349) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def selection_second_moment(
    ys: np.ndarray,
    window: SelectionWindow = SelectionWindow(),
    sigma: float = 1.0,
    min_selected: int = 30,
    return_se: bool = False,
):
    """Second moment of the effects conditional on selection, from the data.

    The identity E[theta^2 | sel] = v + E[(Y + v l'(Y))^2 + v^2 l''(Y) | sel]
    holds with l the log marginal density of Y and v the noise variance, here
    1 + bandwidth^2 since kernel smoothing adds its own bandwidth of noise.
    The conditional expectation is evaluated against the kernel density f
    itself (a smoothed plug-in) rather than by averaging over sample points:
    the sample average squares the kernel noise in l', which at n = 1e5 is a
    bias worth several standard errors.  The integral of the density-weighted
    integrand v f + y^2 f + 2 v y f' + v^2 f'' over the window is exact, draw
    by draw: with A, B = (lo - Y) / h, (hi - Y) / h, draw Y adds M = Phi(B) -
    Phi(A) to the denominator and (Y^2 - 1) M + [phi(A) (A - 2 h Y) - phi(B)
    (B - 2 h Y)] / h^2 to the numerator (v cancels).  Floored at 1e-8.

    ``return_se`` adds the ratio's delta-method standard error from the same
    terms, std(num - est M) / (mean(M) sqrt(n)).  Raises ValueError on a
    non-finite draw, on fewer than ``min_selected`` draws in the window, and
    on equal draws or a bandwidth that squares to 0.
    """
    ys = np.asarray(ys, dtype=float) / sigma
    if not np.isfinite(ys).all():
        raise ValueError("every draw must be finite")
    lo, hi = window.lo / sigma, window.hi / sigma
    selected = np.count_nonzero((ys >= lo) & (ys <= hi))
    if selected < min_selected:
        raise ValueError(f"only {selected} selected observations; need {min_selected}")
    h = _silverman_bandwidth(ys)
    if ys.min() == ys.max() or not h * h > 0:
        raise ValueError(f"the draws are (nearly) all equal: Silverman bandwidth {h!r}")
    # M = 1 - Phi(A) - Phi(-B); an infinite end adds nothing, and phi is 0 past |40|
    mass, ends = np.ones_like(ys), np.zeros_like(ys)
    for end, sign in ((lo, 1.0), (hi, -1.0)):
        if math.isfinite(end):
            t = np.clip(end - ys, -40.0 * h, 40.0 * h) / h
            mass -= ndtr(sign * t)
            ends += sign * np.exp(-0.5 * t * t) * (t - 2.0 * h * ys)
    num = (ys * ys - 1.0) * mass + ends / (_SQRT2PI * h * h)
    ratio = float(num.sum() / mass.sum())
    est = max(ratio, 1e-8) * sigma**2
    if return_se:
        se = np.std(num - ratio * mass, ddof=1) / (mass.mean() * math.sqrt(ys.size))
        return est, float(se) * sigma**2
    return est


def selection_critical_value(
    mu2_cond: float,
    window: SelectionWindow,
    w_eb: float,
    sigma: float,
    alpha: float,
    theta_grid: np.ndarray,
) -> float:
    """chi making the worst-case selection-conditional non-coverage alpha."""
    mu2_cond = max(mu2_cond, 1e-8)
    grid = np.asarray(theta_grid, dtype=float)
    family = lambda chi: _selection_problem(grid, chi, window, w_eb, sigma, mu2_cond)
    return mlp.calibrate_chi(family, alpha, lo=0.0, hi=max(2.0 * wc._z(alpha), 4.0))


def _selection_problem(
    grid: np.ndarray,
    chi: float,
    window: SelectionWindow,
    w_eb: float,
    sigma: float,
    mu2_cond: float,
) -> mlp.MomentProblem:
    """Worst case at chi over grid distributions with conditional second
    moment mu2_cond."""
    reward = np.clip(selection_noncoverage(grid, chi, window, w_eb, sigma), 0.0, 1.0)
    return mlp.MomentProblem(grid, reward, grid[None, :] ** 2, [mu2_cond])
