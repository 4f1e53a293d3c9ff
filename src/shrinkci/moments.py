"""Estimation of the shrinkage target and the moments of the effect residuals.

Given unshrunk estimates with standard errors and covariates, the pipeline
needs the regression coefficients of the shrinkage target, the second moment
mu2 of the residual effects, and their kurtosis.  Raw moment-based estimates
can fall below the theoretical bounds (mu2 > 0, kappa > 1) in small samples;
two finite-sample corrections are provided: a posterior-mean truncation (PMT)
and the flat-prior limited-information Bayes estimate (FPLIB) it
approximates.  Nearest-neighbor versions estimate the moments per unit when
moment independence from the covariates is in doubt.

Every sum is ``math.fsum`` of its terms, computed by ``_row_sums``, so
permuting the units permutes the outputs exactly.  One kernel, ``_pmt_rows``,
gives the raw and PMT moments of each row of (groups, members) arrays: one
row for the global estimate, one per nearest-neighbor neighborhood, one per
simulated replication.  Neighbor orders come in row blocks, never n x n.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import ndtr

__all__ = [
    "Units",
    "UnitError",
    "MomentEstimates",
    "RankDeficientError",
    "wls_delta",
    "moments_uc",
    "pmt",
    "nn_moments",
    "cv_select_neighbors",
    "estimate_moments",
    "WEIGHTS",
]

WEIGHTS = ("uniform", "inverse_variance", "record")

_SQRT2PI = math.sqrt(2.0 * math.pi)
# the largest sigma, or |y|, whose square is finite
_SIGMA_MAX = math.sqrt(sys.float_info.max)


class RankDeficientError(ValueError):
    """The weighted design matrix does not have full column rank."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"design matrix is rank deficient at column {column}")


# coordinate differences per neighbor block; it also keeps a block's
# (rows, neighbors) summands small enough for the cache
_NN_BLOCK_ELEMENTS = 1 << 17


def _two_sum(a, b):
    """Knuth's error-free sum: a + b == s + e exactly, with s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _row_sums(a) -> np.ndarray:
    """``math.fsum`` of each row of ``a`` (its last axis), vectorized.

    Each row is padded with zeros to a power of two, and a TwoSum tree adds
    halves, so ``hi`` plus the errors of every level is the row sum exactly.
    The errors are summed into ``lo``, whose error is at most
    ``bound = 4 m ceil(log2(m + 1)) u^2 sum|a|`` (Ogita, Rump & Oishi, SIAM
    J. Sci. Comput. 26(6), 2005).  ``r = fl(hi + lo)`` is kept where its
    TwoSum residual plus the bound is under half the smaller float gap
    around r, so r is the correctly rounded sum.  Every other row goes to
    ``math.fsum``: ties, overflow, heavy cancellation and all-zero rows.
    """
    a = np.asarray(a, dtype=float)
    lead, m = a.shape[:-1], a.shape[-1]
    a = a.reshape(math.prod(lead), m)
    # members run down the first axis, so each half is one contiguous block
    s = np.zeros((1 << max(m - 1, 0).bit_length(), len(a)))
    s[:m] = a.T
    lo = np.zeros((1, len(a)))
    # a row that overflows or holds inf or nan fails the certificate
    with np.errstate(over="ignore", invalid="ignore"):
        while len(s) > 1:
            h = len(s) // 2
            x, y = s[:h], s[h:]
            s = x + y
            # the TwoSum error (x - (s - bb)) + (y - bb), bb = s - x, in place;
            # past the first level it adds the pairs of errors so far
            e = s - x
            y -= e
            np.subtract(s, e, out=e)
            np.subtract(x, e, out=e)
            e += y
            if len(lo) == 2 * h:
                e += lo[:h]
                e += lo[h:]
            lo = e
        r, t = _two_sum(s[0], lo[0])
        asum = np.abs(a).sum(axis=1)
        bound = 4.0 * m * m.bit_length() * 2.0**-106 * asum  # u^2 = 2**-106
        ar = np.abs(r)
        half = 0.5 * np.minimum(ar - np.nextafter(ar, 0.0), np.nextafter(ar, np.inf) - ar)
        # a subnormal bound is not relative, and past 2**1023 a partial sum may overflow
        ok = (np.abs(t) + bound < half) & (bound >= np.finfo(float).tiny) & (asum < 2.0**1023)
    for i in np.flatnonzero(~ok):
        r[i] = math.fsum(a[i])
    return r.reshape(lead)


class UnitError(ValueError):
    """A unit fails validation; ``index`` is its position in the input."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"unit {index}: {message}")


@dataclass(frozen=True, eq=False)
class Units:
    """The observations as columns: unshrunk estimates ``y``, their standard
    errors ``sigma``, covariates ``X`` (one row per unit; default an
    intercept column) and the weights ``omega`` used in the moment
    estimation steps (default ones).

    Validated once on construction; a ``UnitError`` names the first unit
    that fails.  The stored arrays are read-only float copies.
    """

    y: np.ndarray
    sigma: np.ndarray
    X: np.ndarray | None = None
    omega: np.ndarray | None = None

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        n = y.size
        if n == 0:
            raise ValueError("need at least one unit")
        cols = {
            "y": y,
            "sigma": np.array(self.sigma, dtype=float),
            "X": np.ones((n, 1)) if self.X is None else np.array(self.X, dtype=float),
            "omega": np.ones(n) if self.omega is None else np.array(self.omega, dtype=float),
        }
        for name, col in cols.items():
            ndim = 2 if name == "X" else 1
            if col.ndim != ndim:
                raise ValueError(f"{name} must be {ndim}-D, got shape {col.shape}")
            if len(col) != n:
                raise UnitError(min(len(col), n), f"{name} has {len(col)} rows for {n} units")
        sigma, X, omega = cols["sigma"], cols["X"], cols["omega"]
        checks = (
            (np.isfinite(y), "y must be finite", y),
            (np.isfinite(sigma) & (sigma > 0), "sigma must be finite and > 0", sigma),
            (sigma <= _SIGMA_MAX, "sigma^2 must be finite (sigma at most 1.34e154)", sigma),
            (np.abs(y) <= _SIGMA_MAX, "y^2 must be finite (|y| at most 1.34e154)", y),
            (np.isfinite(omega) & (omega >= 0), "omega must be finite and >= 0", omega),
            (np.isfinite(X).all(axis=1), "covariates must be finite", X),
        )
        bad = [(int(np.argmin(ok)), msg, col) for ok, msg, col in checks if not ok.all()]
        if bad:
            i, msg, col = min(bad, key=lambda b: b[0])
            raise UnitError(i, f"{msg}, got {col[i].tolist()!r}")
        for name, col in cols.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.y.size


@dataclass
class MomentEstimates:
    delta: np.ndarray
    mu2: float
    kappa: float
    variant: str
    residuals: np.ndarray
    mu2_per_unit: np.ndarray | None = None
    kappa_per_unit: np.ndarray | None = None
    neighbors: int | None = None
    fplib_fallback: bool = False
    extras: dict = field(default_factory=dict)


def wls_delta(y: np.ndarray, X: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Weighted least squares coefficients of y on X."""
    p = X.shape[1]
    wx = (omega[:, None] * X).T
    sums = _row_sums(np.concatenate([wx[:, None, :] * X.T, (wx * y)[:, None, :]], axis=1))
    gram, rhs = sums[:, :p], sums[:, p]
    # locate the first column that adds no rank, for a useful error message
    if np.linalg.matrix_rank(gram) < p:
        for k in range(1, p + 1):
            if np.linalg.matrix_rank(gram[:k, :k]) < k:
                raise RankDeficientError(k - 1)
        raise RankDeficientError(p - 1)
    return np.linalg.solve(gram, rhs)


def _signals(resid, sigma):
    """Per-unit unbiased summands w2 = eps^2 - sigma^2 of mu2 and
    w4 = eps^4 - 6 sigma^2 eps^2 + 3 sigma^4 of mu4.  Fourth powers are
    squares of squares: numpy hands ``x**4`` to libm ``pow``, which costs
    far more than two products, and they may differ from it in the last
    bit.  w2 takes squares alone, as numpy computes ``x**2``."""
    r2, s2 = resid * resid, sigma * sigma
    return r2 - s2, r2 * r2 - 6.0 * s2 * r2 + 3.0 * (s2 * s2)


def _floor_sums(sigma, omega):
    """The five sums behind the PMT floors of each row (see ``_truncate``),
    the weight total first, and f.  sigma is divided by its own ``_scaled``
    2**f, and omega by a power of two of its own: the ``_exponent`` of the
    geometric mean of its largest entry and the largest omega sigma^4.
    Where sigma spans many decades (one se of 1e80 under inverse-variance
    weights), omega spans twice as many, and unscaled, omega^2 sigma^8 went
    subnormal.  The mu2 floor's numerator squares omega sigma^2, not sigma^2
    alone, which on that scale is subnormal for the ordinary units.  As in
    ``_signals``, sigma^4 and sigma^8 are products of squares, not ``pow``."""
    s, f = _scaled(sigma)
    s2 = s * s
    s4 = s2 * s2
    top = lambda a: np.sqrt(np.max(np.abs(a), axis=-1))
    o = np.ldexp(omega, -_exponent(top(omega) * top(omega * s4))[..., None])
    terms = [o, (o * s2) ** 2, o * s2, o**2 * (s4 * s4), o * s4]
    return [_row_sums(t) for t in terms], f


def _truncate(mu2_uc, mu4_uc, total, c2, d2, c4, d4, rel):
    """PMT moments from the raw ones and ``_floor_sums``: mu2 is floored at
    2 sum(omega^2 sigma^4) / (sum omega sum(omega sigma^2)) and kappa at
    1 + 32 sum(omega^2 sigma^8) / (mu2^2 sum omega sum(omega sigma^4)),
    in both of which omega's scale cancels.

    The floor sums are taken on sigma scaled by 2**-rel against the data of
    the raw moments (rel = 0 leaves them alike): the mu2 floor is scaled by
    4**rel, and mu2 in the kappa floor by 4**-rel.  Where either mu2 is out
    of range, its power of two is taken out of its square and put back on
    the quotient.  Where a mu2 overflows, the kappa floor is 1.
    """
    with np.errstate(over="ignore"):
        floor = np.ldexp(2.0 * c2 / (total * d2), 2 * rel)
        mu2 = np.where(floor > mu2_uc, floor, mu2_uc)
        mu2_rel = np.ldexp(mu2, -2 * rel)
        g, h = _exponent(mu2), _exponent(mu2_rel)
        # libm pow, as float ** 2; np.square may differ
        mu2_sq = np.float_power(np.ldexp(mu2, -g), 2)
        floor_sq = np.float_power(np.ldexp(mu2_rel, -h), 2)
    kappa_floor = 1.0 + np.ldexp(32.0 * c4 / (floor_sq * total * d4), -2 * h)
    kappa = np.ldexp(mu4_uc / mu2_sq, -2 * g)
    return mu2, np.where(kappa_floor > kappa, kappa_floor, kappa)


def _pmt_rows(resid, sigma, omega, members=None):
    """Raw and PMT moments of each row of (groups, members) arrays.

    Returns (mu2_uc, mu4_uc, mu2, kappa), one entry per row: mu2_uc and
    mu4_uc are the omega-weighted averages of w2 and w4 (see ``_signals``),
    and (mu2, kappa) are floored at the PMT bounds.  Every sum is an exact
    ``_row_sums`` over the members.  With an index array ``members`` the
    inputs are per unit, and row k is over the units ``members[k]``.  Each
    row has two ``_scaled`` exponents: the data's, and sigma's alone for
    the floor sums, lest one huge residual flush the row's sigma^4 to zero,
    or one huge unit another row's.
    """
    if members is not None:
        resid, sigma, omega = (x[members] for x in (resid, sigma, omega))
    r, s, e = _scaled(resid, sigma)
    w2, w4 = _signals(r, s)
    total, a2, a4 = map(_row_sums, (omega, omega * w2, omega * w4))
    if not (total > 0).all():
        raise ValueError("weights must not all be zero")
    mu2_uc, mu4_uc = a2 / total, a4 / total
    floors, f = _floor_sums(sigma, omega)
    mu2, kappa = _truncate(mu2_uc, mu4_uc, *floors, f - e)
    # mu4_uc of data near the float range may itself overflow
    with np.errstate(over="ignore"):
        return np.ldexp(mu2_uc, 2 * e), np.ldexp(mu4_uc, 4 * e), np.ldexp(mu2, 2 * e), kappa


def _scaled(*arrays):
    """The arrays divided by 2**e, and e, per row (last axis), with the
    row's largest magnitude in all of them in [2**(e-1), 2**e); e = 0 where
    that is inside [2**-65, 2**64), which leaves the row alone.

    Past 2**64 the PMT summands (up to sigma^8) overflow or underflow.  A
    power of two scales exactly, and so do the moments scaled back, unless
    a summand is subnormal on either route.
    """
    e = _exponent(np.max([np.max(np.abs(a), axis=-1) for a in arrays], axis=0))
    return (*(np.ldexp(a, -e[..., None]) for a in arrays), e)


def _exponent(x):
    """e with |x| in [2**(e-1), 2**e), per entry, or 0 where that is inside
    [2**-65, 2**64)."""
    e = np.frexp(x)[1]
    return np.where(np.abs(e) > 64, e, 0)


def moments_uc(residuals: np.ndarray, sigma: np.ndarray, omega: np.ndarray):
    """Unconstrained moment estimates of mu2 and mu4.

    Returns (mu2_uc, mu4_uc, w2, w4) where w2 = eps^2 - sigma^2 and
    w4 = eps^4 - 6 sigma^2 eps^2 + 3 sigma^4 are the per-unit unbiased
    summands.  Either average may be negative.  A one-row ``_pmt_rows``.
    """
    mu2_uc, mu4_uc, _, _ = _pmt_rows(residuals, sigma, omega)
    return float(mu2_uc), float(mu4_uc), *_signals(residuals, sigma)


def pmt(sigma: np.ndarray, omega: np.ndarray, mu2_uc: float, mu4_uc: float):
    """Posterior-mean-truncation estimates: raw moments floored at strictly
    positive bounds derived from the sampling variance of the raw estimates.
    The truncation step of a one-row ``_pmt_rows``, with the floor sums on
    sigma's power-of-two scale."""
    floors, f = _floor_sums(sigma, omega)
    mu2, kappa = _truncate(mu2_uc, mu4_uc, *floors, f)
    return float(mu2), float(kappa)


def _posterior_mean_positive(m_hat: float, v: float) -> float:
    """Posterior mean of m given m_hat ~ N(m, v) and a flat prior on [0, inf):
    b(m_hat, v) = m_hat + sqrt(v) phi(z) / Phi(z), z = m_hat / sqrt(v)."""
    if v < 0:
        raise ValueError("variance must be nonnegative")
    if v == 0:
        return max(m_hat, 0.0)
    s = math.sqrt(v)
    z = m_hat / s
    if z < -38.0:
        # Mills ratio asymptote: b ~ -v/m_hat
        return -v / m_hat
    num = math.exp(-0.5 * z * z) / _SQRT2PI
    return m_hat + s * num / ndtr(z)


def _unbiased_mean_variance(z: np.ndarray, omega: np.ndarray):
    """Unbiased variance estimate of the weighted mean of independent z's,
    as (v, c): v is the estimate for z / 2**c.  omega is divided by its own
    ``_exponent``, and z by that of the largest |omega z| after it, so that
    the summands (omega z)^2 - (omega m)^2 are of order 1 wherever omega z
    is: under inverse-variance weights, on a data scale far from 1, omega^2
    z^2 went subnormal for every unit."""
    omega = np.ldexp(omega, -_exponent(np.max(omega)))
    c = int(_exponent(np.max(np.abs(omega * z))))
    z = np.ldexp(z, -c)
    total, wz, total_sq = _row_sums(np.stack([omega, omega * z, omega**2])).tolist()
    m_hat = wz / total
    denom = total**2 - total_sq
    if denom <= 0:
        return -1.0, c
    return float(_row_sums((omega * z) ** 2 - (omega * m_hat) ** 2)) / denom, c


def _fplib(omega, mu2_uc, mu4_uc, w2, w4, e, pmt_moments):
    """Flat-prior limited-information Bayes (FPLIB) estimates of mu2 and kappa.

    The raw moments and the summands are on the data's power-of-two scale
    2**e (see ``_scaled``), and each posterior mean is taken on the scale
    of its ``_unbiased_mean_variance``, by b(m / 2**c, v) = b(m, 4**c v) / 2**c;
    mu2 is returned on the data's own scale.  Falls back to ``pmt_moments``
    (mu2, kappa), with a flag, when an unbiased variance estimate of the
    underlying moment average is nonpositive: under pathological weights,
    or where every w2 is equal.
    """
    v2, c2 = _unbiased_mean_variance(w2, omega)
    if v2 <= 0:
        warnings.warn("FPLIB variance estimate nonpositive; falling back to PMT")
        return (*pmt_moments, True)
    mu2_hat = _posterior_mean_positive(math.ldexp(mu2_uc, -c2), v2)
    z4 = w4 - 2.0 * math.ldexp(mu2_hat, c2) * w2
    v4, c4 = _unbiased_mean_variance(z4, omega)
    if v4 <= 0:
        warnings.warn("FPLIB variance estimate nonpositive; falling back to PMT")
        return (*pmt_moments, True)
    excess = _posterior_mean_positive(math.ldexp(mu4_uc - mu2_uc**2, -c4), v4)
    kappa_hat = 1.0 + np.ldexp(excess / mu2_hat**2, c4 - 2 * c2)
    return np.ldexp(mu2_hat, c2 + 2 * e), kappa_hat, False


def _standardized_coords(X: np.ndarray, sigma: np.ndarray):
    """Covariates and sigma scaled by their sample standard deviations.

    Constant coordinates (the intercept, typically) add zero to every
    distance and are dropped when anything else remains.
    """
    coords = np.column_stack([X, sigma])
    sds = coords.std(axis=0, ddof=1)
    keep = sds > 0
    if not keep.any():
        # all-constant: every unit is at distance zero from every other
        return np.zeros((coords.shape[0], 1))
    return coords[:, keep] / sds[keep]


def _neighbor_blocks(coords: np.ndarray):
    """Neighbor orders in row blocks: yields (rows, order), where row k of
    ``order`` lists all units sorted by distance from unit ``rows[k]``.

    Ties are broken by unit index (a stable sort), so results do not depend
    on sort internals; each unit is its own nearest neighbor (distance
    zero).  A block holds about ``_NN_BLOCK_ELEMENTS`` coordinate
    differences, so memory is O(block * n), never n x n.
    """
    n, d = coords.shape
    step = max(1, _NN_BLOCK_ELEMENTS // (n * d))
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        d2 = np.sum((coords[rows, None, :] - coords[None, :, :]) ** 2, axis=2)
        yield rows, np.argsort(d2, axis=1, kind="stable")


def nn_moments(
    residuals: np.ndarray,
    sigma: np.ndarray,
    X: np.ndarray,
    omega: np.ndarray,
    neighbors: int,
):
    """Per-unit PMT moment estimates from each unit's nearest neighborhood.

    Neighborhoods are the ``neighbors`` closest units (including the unit
    itself) in Euclidean distance on standardized (X, sigma).  Each block of
    neighborhoods is one ``_pmt_rows`` call, one row per unit.
    """
    n = len(residuals)
    if not 2 <= neighbors <= n:
        raise ValueError(f"neighbor count must be in [2, {n}], got {neighbors}")
    mu2 = np.empty(n)
    kappa = np.empty(n)
    for rows, order in _neighbor_blocks(_standardized_coords(X, sigma)):
        _, _, mu2[rows], kappa[rows] = _pmt_rows(residuals, sigma, omega, order[:, :neighbors])
    return mu2, kappa


def cv_select_neighbors(
    residuals: np.ndarray,
    sigma: np.ndarray,
    X: np.ndarray,
    omega: np.ndarray,
    grid: Sequence[int],
):
    """Leave-one-out cross-validated neighbor count.

    For each candidate J, predicts each unit's squared-residual signal
    w2 = eps^2 - sigma^2 by the mean over its J nearest neighbors excluding
    the unit itself, and scores the omega-weighted squared prediction error.
    Ties favor the largest J (smoother neighborhoods).  The errors are
    those of residuals and sigma divided by the 2**e of ``_scaled``, 16**-e
    times the unscaled ones and in the same order, which neither overflow
    nor flush to zero; e = 0 for data inside [2**-65, 2**64).
    """
    grid = sorted(set(int(j) for j in grid))
    n = len(residuals)
    if not grid:
        raise ValueError("neighbor grid must be non-empty")
    if grid[0] < 2 or grid[-1] > n - 1:
        raise ValueError(f"neighbor grid must lie within [2, {n - 1}]")
    r, s, _ = _scaled(residuals, sigma)
    w2 = r**2 - s**2
    top = grid[-1]
    sq_err = {j: np.empty(n) for j in grid}
    for rows, order in _neighbor_blocks(_standardized_coords(X, sigma)):
        head = order[:, : top + 1]
        # exclude self from each neighbor list; where more than ``top`` units
        # tie at distance zero, self may lie beyond the head instead
        others = head != rows[:, None]
        others[others.all(axis=1), top] = False
        cum = np.cumsum(w2[head[others].reshape(-1, top)], axis=1)
        for j in grid:
            sq_err[j][rows] = (w2[rows] - cum[:, j - 1] / j) ** 2
    best_j, best_err = None, math.inf
    errors = {}
    for j in grid:
        err = float(omega @ sq_err[j])
        errors[j] = err
        if err < best_err - 1e-12 * max(1.0, abs(best_err)) or best_j is None:
            best_j, best_err = j, err
        elif abs(err - best_err) <= 1e-12 * max(1.0, abs(best_err)):
            best_j = max(best_j, j)
    return best_j, errors


def _weights(name: str, sigma: np.ndarray) -> np.ndarray:
    """The moment weights ``name`` gives each row (last axis) of ``sigma``:
    1/n for "uniform", sigma^-2 for "inverse_variance"."""
    if name == "uniform":
        return np.full(sigma.shape, 1.0 / sigma.shape[-1])
    return sigma**-2.0


def estimate_moments(
    data: Units,
    variant: str = "pmt",
    weights: str = "uniform",
    neighbors: int | None = None,
) -> MomentEstimates:
    """Full moment-estimation step: regression, raw moments, truncation.

    ``weights`` is one of ``WEIGHTS``: "uniform" (omega = 1/n),
    "inverse_variance" (omega = 1/sigma^2) or "record" (take
    ``data.omega``); one omega weights the regression and every moment
    average.  ``variant`` is "uc", "pmt", "fplib", or "nn"; the
    nearest-neighbor variant also reports global PMT values, which the
    pipeline uses for the shrinkage weight.
    """
    if not (isinstance(weights, str) and weights in WEIGHTS):
        raise ValueError(f"unknown weights option {weights!r}; expected one of {WEIGHTS}")
    y, sigma, X = data.y, data.sigma, data.X
    n = len(data)
    omega = data.omega if weights == "record" else _weights(weights, sigma)
    delta = wls_delta(y, X, omega)
    residuals = y - X @ delta
    mu2_uc, mu4_uc, mu2_pmt, kappa_pmt = (float(v) for v in _pmt_rows(residuals, sigma, omega))
    fallback = False
    mu2_i = kappa_i = None
    j_used = None
    extras = {}
    if variant == "uc":
        mu2, kappa = mu2_uc, mu4_uc / mu2_uc**2 if mu2_uc > 0 else math.nan
    elif variant == "pmt":
        mu2, kappa = mu2_pmt, kappa_pmt
    elif variant == "fplib":
        # on the data's power-of-two scale, where no summand overflows: the
        # posterior means scale with the data and kappa is scale-free
        r, s, e = _scaled(residuals, sigma)
        uc2, uc4 = (float(v) for v in _pmt_rows(r, s, omega)[:2])
        mu2, kappa, fallback = _fplib(omega, uc2, uc4, *_signals(r, s), e, (mu2_pmt, kappa_pmt))
    elif variant == "nn":
        mu2, kappa = mu2_pmt, kappa_pmt
        if neighbors is None:
            if n < 3:
                raise ValueError(f"cross-validation has no neighbor count to choose among {n} units; "
                                 "give one (neighbors, or --nn-j on the command line)")
            neighbors, errors = cv_select_neighbors(residuals, sigma, X, omega, _default_neighbor_grid(n))
            extras["cv_errors"] = errors
        mu2_i, kappa_i = nn_moments(residuals, sigma, X, omega, neighbors)
        j_used = neighbors
    else:
        raise ValueError(f"unknown moment variant {variant!r}")
    return MomentEstimates(
        delta=delta,
        mu2=float(mu2),
        kappa=float(kappa),
        variant=variant,
        residuals=residuals,
        mu2_per_unit=mu2_i,
        kappa_per_unit=kappa_i,
        neighbors=j_used,
        fplib_fallback=fallback,
        extras=extras,
    )


def _default_neighbor_grid(n: int) -> list[int]:
    hi = n - 1
    lo = min(max(10, n // 20), hi)
    if lo >= hi:
        return [hi]
    return sorted(set(np.geomspace(lo, hi, 12).astype(int).tolist()))
