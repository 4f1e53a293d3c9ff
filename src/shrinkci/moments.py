"""Estimation of the shrinkage target and the moments of the effect residuals.

Given unshrunk estimates with standard errors and covariates, the pipeline
needs the regression coefficients of the shrinkage target, the second moment
mu2 of the residual effects, and their kurtosis.  Raw moment-based estimates
can fall below the theoretical bounds (mu2 > 0, kappa > 1) in small samples;
two finite-sample corrections are provided: a posterior-mean truncation (PMT)
and the flat-prior limited-information Bayes estimate (FPLIB) it
approximates.  Nearest-neighbor versions estimate the moments per unit when
moment independence from the covariates is in doubt.
"""

from __future__ import annotations

import math
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
    "fplib",
    "nn_moments",
    "cv_select_neighbors",
    "estimate_moments",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


class RankDeficientError(ValueError):
    """The weighted design matrix does not have full column rank."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"design matrix is rank deficient at column {column}")


def _exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum, so results do not depend on summation order
    and permuting the input rows permutes the outputs exactly."""
    return math.fsum(values)


def _exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    return math.fsum(a * b)


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
    gram = np.array(
        [[_exact_dot(omega * X[:, i], X[:, j]) for j in range(p)] for i in range(p)]
    )
    rhs = np.array([_exact_dot(omega * X[:, i], y) for i in range(p)])
    # locate the first column that adds no rank, for a useful error message
    if np.linalg.matrix_rank(gram) < p:
        for k in range(1, p + 1):
            if np.linalg.matrix_rank(gram[:k, :k]) < k:
                raise RankDeficientError(k - 1)
        raise RankDeficientError(p - 1)
    return np.linalg.solve(gram, rhs)


def moments_uc(residuals: np.ndarray, sigma: np.ndarray, omega: np.ndarray):
    """Unconstrained moment estimates of mu2 and mu4.

    Returns (mu2_uc, mu4_uc, w2, w4) where w2 = eps^2 - sigma^2 and
    w4 = eps^4 - 6 sigma^2 eps^2 + 3 sigma^4 are the per-unit unbiased
    summands.  Either average may be negative.
    """
    total = _exact_sum(omega)
    if total <= 0:
        raise ValueError("weights must not all be zero")
    w2 = residuals**2 - sigma**2
    w4 = residuals**4 - 6.0 * sigma**2 * residuals**2 + 3.0 * sigma**4
    return _exact_dot(omega, w2) / total, _exact_dot(omega, w4) / total, w2, w4


def _pmt_floors(sigma: np.ndarray, omega: np.ndarray, mu2: float):
    total = _exact_sum(omega)
    mu2_floor = 2.0 * _exact_dot(omega**2, sigma**4) / (total * _exact_dot(omega, sigma**2))
    kappa_floor = 1.0 + 32.0 * _exact_dot(omega**2, sigma**8) / (
        mu2**2 * total * _exact_dot(omega, sigma**4)
    )
    return mu2_floor, kappa_floor


def pmt(sigma: np.ndarray, omega: np.ndarray, mu2_uc: float, mu4_uc: float):
    """Posterior-mean-truncation estimates: raw moments floored at strictly
    positive bounds derived from the sampling variance of the raw estimates."""
    return _pmt_split(sigma, omega, omega, mu2_uc, mu4_uc)


def _pmt_split(sigma, om2, om4, mu2_uc, mu4_uc):
    mu2_floor, _ = _pmt_floors(sigma, om2, 1.0)
    mu2_hat = max(mu2_uc, mu2_floor)
    _, kappa_floor = _pmt_floors(sigma, om4, mu2_hat)
    kappa_hat = max(mu4_uc / mu2_hat**2, kappa_floor)
    return mu2_hat, kappa_hat


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


def _unbiased_mean_variance(z: np.ndarray, omega: np.ndarray) -> float:
    """Unbiased variance estimate of the weighted mean of independent z's."""
    total = _exact_sum(omega)
    m_hat = _exact_dot(omega, z) / total
    denom = total**2 - _exact_sum(omega**2)
    if denom <= 0:
        return -1.0
    return _exact_dot(omega**2, z**2 - m_hat**2) / denom


def fplib(sigma, omega, mu2_uc, mu4_uc, w2, w4):
    """Flat-prior limited-information Bayes estimates of mu2 and kappa.

    Falls back to PMT (with a flag) when an unbiased variance estimate of the
    underlying moment average is nonpositive, which can happen under
    pathological weights.
    """
    return _fplib_split(sigma, omega, omega, mu2_uc, mu4_uc, w2, w4)


def _fplib_split(sigma, om2, om4, mu2_uc, mu4_uc, w2, w4):
    v2 = _unbiased_mean_variance(w2, om2)
    if v2 < 0:
        warnings.warn("FPLIB variance estimate nonpositive; falling back to PMT")
        return (*_pmt_split(sigma, om2, om4, mu2_uc, mu4_uc), True)
    mu2_hat = _posterior_mean_positive(mu2_uc, v2)
    z4 = w4 - 2.0 * mu2_hat * w2
    v4 = _unbiased_mean_variance(z4, om4)
    if v4 < 0:
        warnings.warn("FPLIB variance estimate nonpositive; falling back to PMT")
        return (*_pmt_split(sigma, om2, om4, mu2_uc, mu4_uc), True)
    excess = _posterior_mean_positive(mu4_uc - mu2_uc**2, v4)
    kappa_hat = 1.0 + excess / mu2_hat**2
    return mu2_hat, kappa_hat, False


def _standardized_coords(X: np.ndarray, sigma: np.ndarray):
    """Covariates and sigma scaled by their sample standard deviations.

    Constant coordinates (the intercept, typically) carry no distance
    information and are dropped with a warning when anything else remains.
    """
    coords = np.column_stack([X, sigma])
    sds = coords.std(axis=0, ddof=1)
    keep = sds > 0
    if not keep.all():
        dropped = np.flatnonzero(~keep)
        warnings.warn(
            f"dropping constant coordinates {dropped.tolist()} from the "
            "nearest-neighbor distance"
        )
    if not keep.any():
        # all-constant: every unit is at distance zero from every other
        return np.zeros((coords.shape[0], 1))
    return coords[:, keep] / sds[keep]


def _neighbor_order(coords: np.ndarray) -> np.ndarray:
    """Indices of all units sorted by distance from each unit.

    Ties are broken by unit index so results do not depend on sort
    internals.  Each unit is its own nearest neighbor (distance zero).
    """
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    n = coords.shape[0]
    return np.lexsort((np.broadcast_to(np.arange(n), (n, n)), d2), axis=1)


def nn_moments(
    residuals: np.ndarray,
    sigma: np.ndarray,
    X: np.ndarray,
    omega: np.ndarray,
    neighbors: int,
):
    """Per-unit PMT moment estimates from each unit's nearest neighborhood.

    Neighborhoods are the ``neighbors`` closest units (including the unit
    itself) in Euclidean distance on standardized (X, sigma).
    """
    n = len(residuals)
    if not 2 <= neighbors <= n:
        raise ValueError(f"neighbor count must be in [2, {n}], got {neighbors}")
    order = _neighbor_order(_standardized_coords(X, sigma))
    mu2 = np.empty(n)
    kappa = np.empty(n)
    for i in range(n):
        idx = order[i, :neighbors]
        m2u, m4u, _, _ = moments_uc(residuals[idx], sigma[idx], omega[idx])
        mu2[i], kappa[i] = pmt(sigma[idx], omega[idx], m2u, m4u)
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
    Ties favor the largest J (smoother neighborhoods).
    """
    grid = sorted(set(int(j) for j in grid))
    n = len(residuals)
    if not grid:
        raise ValueError("neighbor grid must be non-empty")
    if grid[0] < 2 or grid[-1] > n - 1:
        raise ValueError(f"neighbor grid must lie within [2, {n - 1}]")
    w2 = residuals**2 - sigma**2
    order = _neighbor_order(_standardized_coords(X, sigma))
    # exclude self (column of own index) from each neighbor list
    others = np.array([row[row != i] for i, row in enumerate(order)])
    cum = np.cumsum(w2[others], axis=1)
    best_j, best_err = None, math.inf
    errors = {}
    for j in grid:
        pred = cum[:, j - 1] / j
        err = float(omega @ (w2 - pred) ** 2)
        errors[j] = err
        if err < best_err - 1e-12 * max(1.0, abs(best_err)) or best_j is None:
            best_j, best_err = j, err
        elif abs(err - best_err) <= 1e-12 * max(1.0, abs(best_err)):
            best_j = max(best_j, j)
    return best_j, errors


def estimate_moments(
    data: Units,
    variant: str = "pmt",
    weights: str | np.ndarray = "uniform",
    neighbors: int | None = None,
    neighbor_grid: Sequence[int] | None = None,
    split_weights: bool = False,
) -> MomentEstimates:
    """Full moment-estimation step: regression, raw moments, truncation.

    ``weights`` is "uniform" (omega = 1/n), "inverse_variance"
    (omega = 1/sigma^2), "record" (take ``data.omega``), or an
    explicit array.  ``variant`` is "uc", "pmt", "fplib", or "nn"; the
    nearest-neighbor variant also reports global PMT values, which the
    pipeline uses for the shrinkage weight.  ``split_weights`` switches the
    second- and fourth-moment averages to the sigma^-4 and sigma^-8 weights
    that become optimal at low signal-to-noise ratios, keeping the supplied
    weights for the regression step only.
    """
    y, sigma, X = data.y, data.sigma, data.X
    n = len(data)
    if isinstance(weights, str):
        if weights == "uniform":
            omega = np.full(n, 1.0 / n)
        elif weights == "inverse_variance":
            omega = sigma**-2.0
        elif weights == "record":
            omega = data.omega
        else:
            raise ValueError(f"unknown weights option {weights!r}")
    else:
        omega = np.asarray(weights, dtype=float)
        if omega.shape != (n,):
            raise ValueError("explicit weights must have one entry per unit")
    delta = wls_delta(y, X, omega)
    residuals = y - X @ delta
    om2 = sigma**-4.0 if split_weights else omega
    om4 = sigma**-8.0 if split_weights else omega
    mu2_uc, _, w2, w4 = moments_uc(residuals, sigma, om2)
    _, mu4_uc, _, _ = moments_uc(residuals, sigma, om4)
    fallback = False
    mu2_i = kappa_i = None
    j_used = None
    extras = {}
    if variant == "uc":
        mu2, kappa = mu2_uc, mu4_uc / mu2_uc**2 if mu2_uc > 0 else math.nan
    elif variant == "pmt":
        mu2, kappa = _pmt_split(sigma, om2, om4, mu2_uc, mu4_uc)
    elif variant == "fplib":
        mu2, kappa, fallback = _fplib_split(sigma, om2, om4, mu2_uc, mu4_uc, w2, w4)
    elif variant == "nn":
        mu2, kappa = _pmt_split(sigma, om2, om4, mu2_uc, mu4_uc)
        if neighbors is None:
            if neighbor_grid is None:
                neighbor_grid = _default_neighbor_grid(n)
            neighbors, errors = cv_select_neighbors(residuals, sigma, X, omega, neighbor_grid)
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
