"""Per-unit interval construction: robust, parametric, optimal, unshrunk.

The main entry point is :func:`fit`, which runs the full batch pipeline:
estimate the shrinkage target and moments, shrink each unit, and attach the
interval implied by the chosen method.  Also hosts the diagnostics reported
alongside: the worst-case non-coverage of the parametric interval at a given
shrinkage level, the length-optimal shrinkage factor, and average power
curves for tests based on the intervals.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from shrinkci import _solve
from shrinkci import moments as mom
from shrinkci import worstcase as wc

__all__ = [
    "EbciOutput",
    "FitResult",
    "METHODS",
    "fit",
    "parametric_worst_noncoverage",
    "optimal_shrinkage",
    "average_power",
]

METHODS = (
    "robust_mu2_kappa",
    "robust_mu2",
    "parametric",
    "optimal_robust",
    "unshrunk",
)
_W_GRID = np.linspace(1e-4, 1.0, 200)

RULE_OF_THUMB_W = 0.3


@dataclass(frozen=True)
class EbciOutput:
    """One unit's shrunk estimate, interval, and diagnostics."""

    theta_hat: float
    w_eb: float
    cva: float
    lower: float
    upper: float
    half_length: float
    method: str
    param_max_noncov: float
    rule_of_thumb_ok: bool
    error: str | None = None


@dataclass(frozen=True, eq=False)
class FitResult:
    """Per-unit columns in input order (the fields of ``EbciOutput`` other
    than ``method``), plus the moments and settings of the run."""

    theta_hat: np.ndarray
    w_eb: np.ndarray
    cva: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    half_length: np.ndarray
    param_max_noncov: np.ndarray
    rule_of_thumb_ok: np.ndarray
    error: np.ndarray  # object array: None, or why the unit failed
    moments: mom.MomentEstimates
    alpha: float
    method: str

    @property
    def outputs(self) -> tuple[EbciOutput, ...]:
        """The same results as one ``EbciOutput`` per unit, built on each call."""
        method = [self.method] * len(self.theta_hat)
        cols = [
            method if f.name == "method" else getattr(self, f.name).tolist()
            for f in dataclasses.fields(EbciOutput)
        ]
        return tuple(EbciOutput(*row) for row in zip(*cols))


def fit(
    data: mom.Units,
    alpha: float = 0.05,
    method: str = "robust_mu2_kappa",
    moment_variant: str = "pmt",
    weights: str = "uniform",
    neighbors: int | None = None,
    moment_estimates: mom.MomentEstimates | None = None,
) -> FitResult:
    """Batch pipeline: estimate moments, shrink, and build intervals.

    ``moment_variant``, ``weights`` (one of ``moments.WEIGHTS``) and
    ``neighbors`` go to ``moments.estimate_moments``; ``moment_estimates``
    short-circuits the estimation step, which is how oracle-moment runs are
    done.  A failing unit is flagged in the ``error`` column rather than
    aborting the batch.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    est = moment_estimates
    if est is None:
        est = mom.estimate_moments(data, variant=moment_variant, weights=weights, neighbors=neighbors)
    y, sigma = data.y, data.sigma
    w = est.mu2 / (est.mu2 + sigma**2)
    m2, kappa = None, est.kappa
    if est.variant == "nn" and est.mu2_per_unit is not None and method.startswith("robust"):
        m2 = (1.0 - 1.0 / w) ** 2 * est.mu2_per_unit / sigma**2
        kappa = est.kappa_per_unit
    theta, w_out, chi, half = _intervals(method, y, sigma, data.X @ est.delta, est.mu2, kappa, alpha, m2)
    noncov_kappa = est.kappa if method == "robust_mu2_kappa" else math.inf
    ok = np.isfinite(theta) & np.isfinite(half) & (half >= 0)
    return FitResult(
        theta_hat=theta,
        w_eb=w_out,
        cva=chi,
        lower=theta - half,
        upper=theta + half,
        half_length=half,
        param_max_noncov=_param_noncov_batch(w, alpha, noncov_kappa),
        rule_of_thumb_ok=w >= RULE_OF_THUMB_W,
        error=np.where(ok, None, "non-finite interval"),
        moments=est,
        alpha=alpha,
        method=method,
    )


def _cva_keys(method, sigma, mu2, kappa, m2=None):
    """The (m2, kappa) critical-value keys of robust_mu2_kappa or robust_mu2.

    ``m2`` defaults to sigma^2 / mu2; kappa is inf for robust_mu2.
    """
    m2 = sigma**2 / mu2 if m2 is None else m2
    return m2, (kappa if method == "robust_mu2_kappa" else math.inf)


def _intervals(method, y, sigma, center, mu2, kappa, alpha: float, m2=None, chi=None):
    """(theta, w, chi, half) of each unit's interval under ``method``.

    ``center`` is the shrinkage target; ``mu2`` and ``kappa`` are the
    moments, scalars or per-unit arrays.  ``m2`` replaces sigma^2 / mu2 as
    the normalized second moment of the robust methods.  ``kappa`` applies
    to robust_mu2_kappa and optimal_robust only.  A robust_mu2* caller that
    has already solved the critical values of ``_cva_keys`` passes them as
    ``chi`` (any shape that broadcasts against the units).
    """
    z = wc._z(alpha)
    if method == "unshrunk":
        return y, np.ones_like(y), np.full_like(y, z), z * sigma
    w = mu2 / (mu2 + sigma**2)
    if method == "parametric":
        chi, half = z / np.sqrt(w), z * np.sqrt(w) * sigma
    else:
        if method == "optimal_robust":
            w, chi = _optimal_shrinkage_batch(mu2 / sigma**2, kappa, alpha)
        elif chi is None:
            chi = wc.critical_values(*_cva_keys(method, sigma, mu2, kappa, m2), alpha)
        half = chi * w * sigma
    # from y, not from center: at w = 1 this is y exactly, however large
    # |center| is (center + w (y - center) loses y once |center| >> |y|)
    return y - (1.0 - w) * (y - center), w, chi, half


def _param_noncov_batch(w: np.ndarray, alpha: float, kappa: float) -> np.ndarray:
    z = wc._z(alpha)
    worst = lambda v: wc._worst_noncoverage_batch(1.0 / v - 1.0, np.full_like(v, kappa), z / np.sqrt(v))
    return wc._chunked(worst, w)


def parametric_worst_noncoverage(
    w_eb: float, alpha: float = 0.05, kappa: float | None = math.inf
) -> float:
    """Worst-case non-coverage of the parametric interval at shrinkage w_eb.

    Weakly decreasing in w_eb. The supremum over all shrinkage levels is
    1 / max(z^2, 1); it is approached only as w_eb -> 0 and is not attained
    at any w_eb in (0, 1).
    """
    if not 0.0 < w_eb < 1.0:
        raise ValueError(f"w_eb must be in (0, 1), got {w_eb}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    kappa = wc._checked_kappa(kappa)
    return float(_param_noncov_batch(np.array([w_eb], dtype=float), alpha, kappa)[0])


def _optimal_shrinkage_batch(snr, kappa: float, alpha: float):
    """Length-optimal shrinkage per unit, vectorized.

    The coarse grid ``_W_GRID`` over w (guards against local dips in the
    half-length, which is continuous but need not be convex) is followed by
    golden-section refinement run in lockstep across units.
    """
    snr = np.atleast_1d(np.asarray(snr, dtype=float))
    if np.any(snr <= 0):
        raise ValueError("snr must be > 0")
    grid = np.broadcast_to(_W_GRID[:, None], (_W_GRID.size, snr.size))
    # at shrinkage w the half-length is cva(w) * w, in units of sigma
    cva = lambda w: wc.critical_values((1.0 - 1.0 / w) ** 2 * snr, kappa=kappa, alpha=alpha)
    w, _ = _solve.grid_golden_max(lambda w: -cva(w) * w, grid, 40)
    return w, cva(w)


def optimal_shrinkage(
    snr: float, kappa: float | None = math.inf, alpha: float = 0.05
) -> float:
    """Shrinkage factor minimizing robust interval length at the given
    signal-to-noise ratio mu2/sigma^2; kappa = inf (or None) means no
    kurtosis bound."""
    w, _ = _optimal_shrinkage_batch(np.asarray([snr]), wc._checked_kappa(kappa), alpha)
    return float(w[0])


def average_power(d, w_eb: float, alpha: float = 0.05, kappa: float | None = 3.0):
    """Average power of the robust-interval test and the z-test.

    ``d`` is the standardized distance between the shrinkage target and the
    null value, a scalar or an array; the robust critical value is solved
    once per call.  Both tests reject when the null lies outside the
    interval; power is averaged over Gaussian effects centered at the target.
    Returns (robust, ztest), floats for scalar ``d`` and arrays otherwise.
    """
    if not 0.0 < w_eb < 1.0:
        raise ValueError(f"w_eb must be in (0, 1), got {w_eb}")
    z = wc._z(alpha)
    chi = wc._cva_scalar(1.0 / w_eb - 1.0, kappa, alpha)
    s = math.sqrt(1.0 - w_eb)
    d = np.asarray(d, dtype=float)
    robust = wc.noncoverage(d * s / w_eb, chi * s)
    ztest = wc.noncoverage(d * s, z * s)
    if d.ndim == 0:
        return float(robust), float(ztest)
    return robust, ztest
