"""Monte Carlo harness: panel designs, effect distributions, coverage reports.

Works in normalized units where the conditional variance of the unshrunk
estimate is 1, so the effect variance equals the signal-to-noise ratio.  Six
effect distributions are provided, including the least favorable ones for
the robust and parametric intervals, plus a heteroskedastic design that
resamples a user-supplied table of estimates and standard errors.

Replication r of design d draws from a dedicated generator seeded by
(master_seed, d, r), so reports are bit-identical for any worker count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from shrinkci import _csvio
from shrinkci import moments as mom
from shrinkci import pipeline as pl
from shrinkci import worstcase as wc

__all__ = [
    "ThetaDistribution",
    "PanelDesign",
    "HeteroskedasticDesign",
    "CoverageReport",
    "ReportRow",
    "THETA_KINDS",
    "SIM_METHODS",
    "draw_theta",
    "run_study",
    "load_calibration_csv",
]

THETA_KINDS = (
    "normal",
    "scaled_chi2_1",
    "two_point",
    "three_point",
    "lf_robust",
    "lf_parametric",
)

SIM_METHODS = (
    "robust_mu2_kappa",
    "robust_mu2",
    "parametric",
    "unshrunk",
    "oracle_robust_mu2_kappa",
    "oracle_robust_mu2",
    "oracle_parametric",
)

_ORACLE_BASELINE = "oracle_robust_mu2_kappa"


@dataclass(frozen=True)
class ThetaDistribution:
    """Effect distribution with variance ``mu2`` (exactly, by construction).

    The least favorable kinds place mass 1-p at zero and p/2 at each of
    +-sqrt(mu2/p), with p chosen from the majorant kink at the critical
    value they are least favorable for; ``alpha`` enters only through that
    critical value.
    """

    kind: str
    mu2: float
    alpha: float = 0.05

    def __post_init__(self):
        if self.kind not in THETA_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {THETA_KINDS}")
        if not self.mu2 > 0:
            raise ValueError("mu2 must be > 0")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")

    @cached_property
    def _lf_mass(self) -> float:
        """Mass p of the displaced support points for the lf_* kinds.

        Solved once per instance: every replication draws from it.
        """
        m2 = 1.0 / self.mu2
        if self.kind == "lf_robust":
            chi = wc._cva_scalar(m2, math.inf, self.alpha)
        else:
            chi = wc._z(self.alpha) / math.sqrt(self.mu2 / (1.0 + self.mu2))
        t0 = wc.majorant_kink(chi)
        if t0 <= 0:
            return 1.0
        return min(m2 / t0, 1.0)

    def moments(self) -> tuple[float, float]:
        """(variance, kurtosis) of the distribution."""
        if self.kind == "normal":
            return self.mu2, 3.0
        if self.kind == "scaled_chi2_1":
            return self.mu2, 15.0
        if self.kind == "two_point":
            p = 0.1
            return self.mu2, 1.0 / (p * (1.0 - p)) - 3.0
        if self.kind == "three_point":
            return self.mu2, 2.0
        return self.mu2, 1.0 / self._lf_mass


def draw_theta(dist: ThetaDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. effects from the given distribution."""
    mu2 = dist.mu2
    if dist.kind == "normal":
        return rng.normal(0.0, math.sqrt(mu2), n)
    if dist.kind == "scaled_chi2_1":
        return math.sqrt(mu2 / 2.0) * rng.chisquare(1, n)
    if dist.kind == "two_point":
        # mass 0.1 displaced so the variance is exactly mu2
        v = math.sqrt(mu2 / (0.9 * 0.1))
        return np.where(rng.random(n) < 0.1, v, 0.0)
    if dist.kind == "three_point":
        v = math.sqrt(mu2 / 0.5)
        u = rng.random(n)
        return np.where(u < 0.25, -v, np.where(u < 0.5, v, 0.0))
    p = dist._lf_mass
    v = math.sqrt(mu2 / p)
    u = rng.random(n)
    return np.where(u < p / 2.0, -v, np.where(u < p, v, 0.0))


@dataclass(frozen=True)
class PanelDesign:
    """Balanced panel with unit effects and i.i.d. errors.

    ``t = math.inf`` is the exact-normal mode: the unshrunk estimate is
    theta + N(0, 1) and its standard error is known to be 1.  Finite ``t``
    draws t observations per unit with error variance t, so the conditional
    variance of the unit mean is 1 in all modes and ``snr`` equals the
    effect variance.
    """

    weights = "uniform"  # unannotated: a class constant, not a dataclass field
    n: int
    t: float
    err: str
    snr: float
    theta: ThetaDistribution

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not (self.t == math.inf or (float(self.t).is_integer() and self.t >= 2)):
            raise ValueError("t must be an integer >= 2 or math.inf")
        if self.err not in ("normal", "chi2"):
            raise ValueError("err must be 'normal' or 'chi2'")
        if abs(self.theta.mu2 - self.snr) > 1e-12:
            raise ValueError("theta distribution variance must equal snr")

    @property
    def label(self) -> str:
        t_lab = "inf" if self.t == math.inf else str(int(self.t))
        return f"{self.theta.kind}/snr={self.snr:g}/T={t_lab}/{self.err}/n={self.n}"

    def simulate(self, rng: np.random.Generator):
        theta = draw_theta(self.theta, self.n, rng)
        y, sigma = simulate_panel_errors(theta, self.t, self.err, rng)
        return y, sigma, theta


def simulate_panel_errors(theta: np.ndarray, t: float, err: str, rng: np.random.Generator):
    """Unit means and estimated standard errors for given effects."""
    n = theta.size
    if t == math.inf:
        return theta + rng.standard_normal(n), np.ones(n)
    t = int(t)
    if err == "normal":
        u = rng.standard_normal((n, t)) * math.sqrt(t)
    else:
        # chi-squared(3) shifted to mean zero, scaled to variance t
        u = (rng.chisquare(3, (n, t)) - 3.0) * math.sqrt(t / 6.0)
    w = theta[:, None] + u
    y = w.mean(axis=1)
    sigma2 = np.sum((w - y[:, None]) ** 2, axis=1) / (t * (t - 1))
    return y, np.sqrt(sigma2)


@dataclass(frozen=True)
class HeteroskedasticDesign:
    """Design calibrated to a table of (estimate, standard error) pairs.

    Effects and noise scales are resampled with replacement from the table;
    effects are recentered and rescaled so the average squared effect-to-
    noise ratio matches ``snr``, using the moment-matching constant computed
    from the table itself.  Moment estimation downstream uses precision
    weights for this design.
    """

    weights = "inverse_variance"  # unannotated: a class constant, not a dataclass field
    theta_hat: tuple[float, ...]
    se: tuple[float, ...]
    snr: float
    n: int | None = None

    def __post_init__(self):
        th = tuple(float(v) for v in self.theta_hat)
        se = tuple(float(v) for v in self.se)
        if len(th) != len(se) or len(th) < 2:
            raise ValueError("need at least two (theta_hat, se) pairs")
        if not all(math.isfinite(s) and s > 0 for s in se):
            raise ValueError("standard errors must be positive and finite")
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "se", se)
        object.__setattr__(self, "n", self.n or len(th))

    @property
    def label(self) -> str:
        return f"heteroskedastic/snr={self.snr:g}/n={self.n}"

    @property
    def matching_constant(self) -> float:
        th = np.asarray(self.theta_hat)
        se = np.asarray(self.se)
        return float(np.mean((th - th.mean()) ** 2) * np.mean(se**-2.0))

    def simulate(self, rng: np.random.Generator):
        th = np.asarray(self.theta_hat)
        se = np.asarray(self.se)
        bar = th.mean()
        tilde = rng.choice(th, self.n, replace=True)
        sigma = rng.choice(se, self.n, replace=True)
        theta = bar + math.sqrt(self.snr / self.matching_constant) * (tilde - bar)
        y = theta + sigma * rng.standard_normal(self.n)
        return y, sigma, theta


def load_calibration_csv(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Read the (theta_hat, se) columns for the heteroskedastic design.

    The grammar is that of ``fit --input`` (``_csvio.read_columns``).  A
    ``ValueError`` names the file, and for a bad value its column and
    physical line, including an ``se`` that is not positive and finite.  A
    file that cannot be read raises ``OSError``; a table with no data rows
    gives two empty tuples.
    """
    _, (th, se), _ = _csvio.read_columns(path, ("theta_hat", "se"), lambda header: (), ("se",), ValueError)
    return tuple(th.tolist()), tuple(se.tolist())


# ---------------------------------------------------------------------------
# study runner


@dataclass(frozen=True)
class ReportRow:
    design: str
    design_index: int
    method: str
    coverage: float
    coverage_se: float
    avg_length: float
    rel_length: float
    reps: int
    n: int


@dataclass(frozen=True)
class CoverageReport:
    rows: tuple[ReportRow, ...]
    master_seed: int

    def to_csv(self) -> str:
        columns = {
            f.name: np.array([getattr(r, f.name) for r in self.rows])
            for f in dataclasses.fields(ReportRow)
        }
        return "".join(_csvio.csv_text([f"master_seed={self.master_seed}"], columns))

    def row(self, design_index: int, method: str) -> ReportRow:
        for r in self.rows:
            if r.design_index == design_index and r.method == method:
                return r
        raise KeyError((design_index, method))


def _rep_rng(master_seed: int, design_index: int, rep: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(design_index, rep)))
    )


def _simulate_rep(args):
    """One replication's draw: (y, sigma, theta)."""
    design, design_index, rep, master_seed = args
    return design.simulate(_rep_rng(master_seed, design_index, rep))


def _replications(results, weights: str):
    """The draws stacked one row per replication, with each row's weighted
    mean delta and PMT (mu2, kappa) from ``moments._pmt_rows``: the values of
    ``estimate_moments`` with an intercept-only design and these ``weights``."""
    y, sigma, theta = (np.stack(col) for col in zip(*results))
    omega = mom._weights(weights, sigma)
    delta = mom._row_sums(omega * y) / mom._row_sums(omega)
    _, _, mu2, kappa = mom._pmt_rows(y - delta[:, None], sigma, omega)
    return dict(y=y, sigma=sigma, theta=theta, delta=delta, mu2=mu2, kappa=kappa)


def _study_coverage(reps, methods, oracle, alpha):
    """Per-rep average coverage and length arrays of each method, by method.

    All replications of a method go through ``pipeline._intervals`` in one
    call, with each replication's moments repeated over its units.  The
    critical values come first, from ``_study_critical_values``.
    """
    n_reps, n = reps["y"].shape
    per_rep = lambda k: np.repeat(reps[k], n)
    y, theta, center = reps["y"].ravel(), reps["theta"].ravel(), per_rep("delta")
    estimated = (reps["sigma"].ravel(), per_rep("mu2"), per_rep("kappa"))
    ones = np.ones_like(y)
    inputs = {
        m: (m.removeprefix("oracle_"), ones, *oracle) if m.startswith("oracle_") else (m, *estimated)
        for m in methods
    }
    chi = _study_critical_values(inputs, alpha)
    out = {}
    for m, (base, sigma, mu2, kappa) in inputs.items():
        center_m, _, _, half = pl._intervals(base, y, sigma, center, mu2, kappa, alpha, chi=chi.get(m))
        cov = (np.abs(theta - center_m) <= half).reshape(n_reps, n).mean(axis=1)
        out[m] = cov, (2.0 * half).reshape(n_reps, n).mean(axis=1)
    return out


def _study_critical_values(inputs, alpha):
    """The chi of every robust method in ``inputs``, by method.

    One ``critical_values`` call takes the keys of all of them, those of
    robust_mu2 with kappa = inf.  An oracle method's moments are scalars,
    so its one key enters once and its chi is broadcast over the units.
    Every solver behind ``critical_values`` runs elementwise, so each key's
    chi does not depend on the rest of the batch.
    """
    group = [m for m, (base, *_) in inputs.items() if base in ("robust_mu2_kappa", "robust_mu2")]
    if not group:
        return {}
    keys = []
    for m in group:
        base, sigma, mu2, kappa = inputs[m]
        keys.append(pl._cva_keys(base, sigma[:1] if np.ndim(mu2) == 0 else sigma, mu2, kappa))
    m2 = np.concatenate([k for k, _ in keys])
    kap = np.concatenate([np.broadcast_to(k, m.shape) for m, k in keys])
    values = wc.critical_values(m2, kap, alpha)
    return dict(zip(group, np.split(values, np.cumsum([m.size for m, _ in keys])[:-1])))


def run_study(
    designs: Sequence,
    methods: Sequence[str] = SIM_METHODS,
    reps: int = 1000,
    workers: int = 1,
    master_seed: int = 0,
    alpha: float = 0.05,
) -> CoverageReport:
    """Coverage and length of each method on each design.

    Average coverage and average length are means over units and
    replications; relative length is against the oracle robust interval
    using both moment constraints.  The replication streams are keyed by
    (master_seed, design index, rep), so the report does not depend on
    ``workers``.
    """
    for m in methods:
        if m not in SIM_METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {SIM_METHODS}")
    rows = []
    # one pool for the whole study; its workers' start-up is paid once
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        for d_idx, design in enumerate(designs):
            tasks = [(design, d_idx, r, master_seed) for r in range(reps)]
            if pool:
                results = list(pool.map(_simulate_rep, tasks, chunksize=max(1, reps // (4 * workers))))
            else:
                results = [_simulate_rep(t) for t in tasks]
            stacked = _replications(results, design.weights)
            oracle = design.theta.moments() if isinstance(design, PanelDesign) else None
            wanted = [m for m in dict.fromkeys([*methods, _ORACLE_BASELINE]) if oracle or not m.startswith("oracle_")]
            per_method = _study_coverage(stacked, wanted, oracle, alpha)
            base = per_method.get(_ORACLE_BASELINE)
            base_len = float(np.mean(base[1])) if base else math.nan
            for method in methods:
                if method not in per_method:
                    continue
                cov, length = per_method[method]
                cov_se = float(np.std(cov, ddof=1) / math.sqrt(reps)) if reps > 1 else math.nan
                rows.append(
                    ReportRow(
                        design=design.label,
                        design_index=d_idx,
                        method=method,
                        coverage=float(np.mean(cov)),
                        coverage_se=cov_se,
                        avg_length=float(np.mean(length)),
                        rel_length=float(np.mean(length) / base_len) if base_len else math.nan,
                        reps=reps,
                        n=design.n,
                    )
                )
    return CoverageReport(rows=tuple(rows), master_seed=master_seed)
