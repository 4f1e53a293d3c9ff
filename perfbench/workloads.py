"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the correctness checks made on their outputs after the timed section.

Every workload is closed loop: one client runs one operation at a time.
Sizes are chosen so that one pass takes a few seconds on a 2-core machine,
which lets a run of 30 s repeat each operation and report medians.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri
from scipy.stats import gamma

from shrinkci import cli
from shrinkci import momentlp as mlp
from shrinkci import nonlinear as nl
from shrinkci import worstcase as wc

ALPHA = 0.05
Z = float(ndtri(1.0 - ALPHA / 2.0))

# tolerances of the package's own tests, which the checks reuse
SCALAR_CVA_TOL = 1e-6  # test_worstcase: test_batch_matches_scalar_paths
SOFT_WORST_TOL = 2e-3  # test_nonlinear: robust chi makes the grid worst case alpha
SOFT_BASELINE_TOL = 2e-4  # test_nonlinear: Laplace average at the parametric chi
POISSON_BASELINE_TOL = 1e-3  # test_nonlinear: coverage under the gamma baseline
CALIBRATION_TOL = 1e-4  # momentlp.calibrate_chi default bisection tolerance


class OpFailed(Exception):
    """An operation ran but reported failure (a non-zero CLI exit code)."""


@dataclass
class Op:
    name: str
    run: Callable[[int], object]  # pass index -> output kept for the checks
    units: int  # units given an interval (unit-replications in a study)
    cva_units: int = 0  # of those, units whose interval needs a robust cva


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _cli(argv: list[str]):
    rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"shrinkci {argv[0]} exited with code {rc}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same_outputs(name: str, outputs: list, key=lambda o: o) -> Check:
    """Every pass ran the same inputs, so every pass must give the same output."""
    distinct = {key(o) for o in outputs}
    return Check(f"{name}: identical output in all {len(outputs)} passes", len(distinct) == 1)


def write_units_csv(path: str, n: int, rng: np.random.Generator):
    """Heteroskedastic units: se ~ U(0.5, 2), one covariate x1, Laplace effects
    around 0.5 * x1.

    Laplace rather than heavier-tailed effects: their sample kurtosis has a
    finite variance, so the estimated kappa, and with it the share of units
    where the kurtosis bound binds (the costly path), is much the same for
    every seed.
    """
    se = rng.uniform(0.5, 2.0, n)
    x1 = rng.standard_normal(n)
    theta = 0.5 * x1 + rng.laplace(0.0, 1.0, n)
    y = theta + se * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,se,x1\n")
        fh.writelines(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(y.tolist(), se.tolist(), x1.tolist()))


def read_fit_csv(path: str):
    """(header dict, rows) of a ``shrinkci fit`` output file."""
    header, body = {}, []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                header[key] = value
            else:
                body.append(line)
    return header, list(csv.DictReader(body))


_FLOAT_COLS = ("theta_hat", "w_eb", "cva", "lower", "upper", "half_length", "param_max_noncov")


def check_fit_rows(name: str, rows) -> list[Check]:
    bad_finite = sum(not all(math.isfinite(float(r[c])) for c in _FLOAT_COLS) for r in rows)
    errors = sum(r["error"] != "" for r in rows)
    below_z = sum(float(r["cva"]) < Z for r in rows)
    return [
        Check(f"{name}: every row finite", bad_finite == 0, f"{bad_finite} rows not finite"),
        Check(f"{name}: no row has an error", errors == 0, f"{errors} rows flagged"),
        Check(f"{name}: cva >= z", below_z == 0, f"{below_z} rows below z"),
    ]


class Workload:
    name = ""
    why = ""
    imports: tuple[str, ...] = ("shrinkci.cli",)  # what a user's process imports
    # family-latency metric -> names of the operations it takes the median over
    latencies: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def generate(self):
        """Write the seeded inputs."""

    def warmup(self) -> Op:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, outputs: dict[str, list]) -> list[Check]:
        raise NotImplementedError


class FitPmt(Workload):
    name = "fit_pmt"
    why = "CLI fits with PMT moments; every unit has its own m2 key, so the cva inversion and CSV I/O dominate"
    SIZES = {"parametric": (1000, 10000), "robust_mu2": (1000, 10000), "robust_mu2_kappa": (300, 1000)}
    WARMUP = ("parametric", 300)
    latencies = {
        "fit_parametric_s": ("parametric n=10000",),
        "fit_robust_mu2_s": ("robust_mu2 n=10000",),
        "fit_robust_mu2_kappa_s": ("robust_mu2_kappa n=1000",),
    }
    SCALAR_SAMPLE = 4  # units per robust fit re-checked through the scalar route

    def generate(self):
        sizes = {self.WARMUP[1], *(n for sizes in self.SIZES.values() for n in sizes)}
        for n in sorted(sizes):
            write_units_csv(self.path(f"units-{n}.csv"), n, _rng(self.seed, n))

    def _fit(self, method: str, n: int) -> Op:
        def run(p: int):
            out = self.path(f"{method}-{n}-p{p}.csv")
            _cli(["fit", "--input", self.path(f"units-{n}.csv"), "--output", out,
                  "--method", method, "--moments", "pmt", "--alpha", repr(ALPHA)])
            return out

        robust = method.startswith("robust")
        return Op(f"{method} n={n}", run, n, n if robust else 0)

    def warmup(self) -> Op:
        return self._fit(*self.WARMUP)

    def ops(self) -> list[Op]:
        return [self._fit(m, n) for m, sizes in self.SIZES.items() for n in sizes]

    def check(self, outputs):
        checks = []
        rng = _rng(self.seed, 7)
        for method, sizes in self.SIZES.items():
            for n in sizes:
                name = f"{method} n={n}"
                paths = outputs.get(name, [])
                if not paths:
                    checks.append(Check(f"{name}: produced output", False))
                    continue
                checks.append(_same_outputs(name, paths, _digest))
                header, rows = read_fit_csv(paths[-1])
                checks.append(Check(f"{name}: one row per unit", len(rows) == n, f"{len(rows)} rows"))
                checks += check_fit_rows(name, rows)
                if method == "parametric":
                    worst = max(abs(float(r["cva"]) * math.sqrt(float(r["w_eb"])) / Z - 1.0) for r in rows)
                    checks.append(Check(f"{name}: cva = z / sqrt(w)", worst <= 1e-12, f"max relative gap {worst:.3g}"))
                else:
                    checks.append(self._scalar_check(name, method, n, header, rows, rng))
        return checks

    def _scalar_check(self, name, method, n, header, rows, rng) -> Check:
        """Recompute a seeded sample of cva through the scalar critical_value route."""
        with open(self.path(f"units-{n}.csv"), encoding="utf-8") as fh:
            se = [float(r["se"]) for r in csv.DictReader(fh)]
        mu2 = float(header["mu2"])
        kappa = float(header["kappa"]) if method == "robust_mu2_kappa" else None
        gap = 0.0
        for i in rng.choice(n, self.SCALAR_SAMPLE, replace=False).tolist():
            chi = wc.critical_value(wc.MomentConstraints(se[i] ** 2 / mu2, kappa), ALPHA).chi
            gap = max(gap, abs(chi - float(rows[i]["cva"])))
        return Check(f"{name}: batch cva matches the scalar route", gap <= SCALAR_CVA_TOL, f"max gap {gap:.3g}")


class Study(Workload):
    name = "study"
    why = "reduced criterion-7 coverage study via the CLI: one cva key per replication, so deduplication and batch inversion dominate"
    KINDS = ("normal", "scaled_chi2_1", "two_point", "three_point", "lf_robust", "lf_parametric")
    SNRS = (0.1, 2.0)
    N, REPS = 500, 50
    METHODS = ("robust_mu2_kappa", "parametric", "oracle_robust_mu2")
    latencies = {}

    def _study(self, name: str, kinds, snrs, n: int, reps: int, seed: int) -> Op:
        def run(p: int):
            out = self.path(f"study-seed{seed}-p{p}.csv")
            _cli(["simulate", "--output", out, "--reps", str(reps), "--n", str(n), "--t", "inf",
                  "--theta-kinds", ",".join(kinds), "--snr", ",".join(repr(s) for s in snrs),
                  "--methods", ",".join(self.METHODS), "--seed", str(seed),
                  "--workers", "1", "--alpha", repr(ALPHA)])
            return out

        units = len(kinds) * len(snrs) * n * reps
        return Op(name, run, units, units)

    def warmup(self) -> Op:
        return self._study("warmup", ("normal",), (1.0,), 100, 5, self.seed)

    def ops(self) -> list[Op]:
        # one simulate call per design, each with a replication stream of its
        # own: the work is that of one call over all designs (the package
        # deduplicates and inverts per design), cut into short operations so
        # that a run repeats each of them several times
        designs = [(k, s) for k in self.KINDS for s in self.SNRS]
        return [self._study(f"study {k}/snr={s}", (k,), (s,), self.N, self.REPS, self.seed * len(designs) + i)
                for i, (k, s) in enumerate(designs)]

    def check(self, outputs):
        checks, rows = [], []
        for op in self.ops():
            paths = outputs.get(op.name, [])
            if not paths:
                checks.append(Check(f"{op.name}: produced a report", False))
                continue
            checks.append(_same_outputs(op.name, paths, _digest))
            with open(paths[-1], encoding="utf-8", newline="") as fh:
                rows += list(csv.DictReader(line for line in fh if not line.startswith("#")))
        robust = [r for r in rows if r["method"] == "robust_mu2_kappa"]
        # criterion 7 asks for 0.93 at 1000 replications; at REPS the
        # Monte Carlo error of each design's coverage is its own
        # coverage_se, so the bound allows three of those
        short = [
            f"{r['design']}: {float(r['coverage']):.4f}"
            for r in robust
            if float(r["coverage"]) < 0.93 - 3.0 * float(r["coverage_se"])
        ]
        lf = [float(r["coverage"]) for r in rows
              if r["method"] == "oracle_robust_mu2" and r["design"].startswith("lf_robust/")]
        designs = len(self.KINDS) * len(self.SNRS)
        return checks + [
            Check("study: one robust row per design", len(robust) == designs, f"{len(robust)} rows"),
            Check("study: robust coverage >= 0.93 on every design", not short, "; ".join(short)),
            Check("study: oracle robust(mu2) coverage in [0.94, 0.96] under lf_robust",
                  len(lf) == len(self.SNRS) and all(0.94 <= c <= 0.96 for c in lf), repr(lf)),
        ]


def _lp_worst(grid, reward, moments, targets) -> float:
    return mlp.solve_moment_lp(mlp.MomentProblem(grid, np.clip(reward, 0.0, 1.0), moments, targets)).value


def _smallest_chi_check(name: str, rho: Callable[[float], float], chi: float, tol=None) -> list[Check]:
    """rho(chi) <= alpha (and within ``tol`` of it when given), and chi is the
    smallest such value to the bisection tolerance."""
    at = rho(chi)
    checks = [Check(f"{name}: worst case at chi <= alpha", at <= ALPHA, f"{at:.6g}")]
    if tol is not None:
        checks.append(Check(f"{name}: worst case at chi within {tol} of alpha", abs(at - ALPHA) <= tol, f"{at:.6g}"))
    if chi >= CALIBRATION_TOL:
        below = rho(chi - CALIBRATION_TOL)
        checks.append(Check(f"{name}: worst case just below chi > alpha", below > ALPHA, f"{below:.6g}"))
    return checks


class Calibrate(Workload):
    name = "calibrate"
    imports = ("shrinkci.nonlinear",)
    why = "nonlinear calibrations by LP: measures the LP solves and reward evaluation, never the closed-form worst-case solvers"
    SOFT_MU2 = (0.05, 0.2, 1.0)
    POISSON = ((1.0, 2.0), (2.0, 1.0), (0.5, 4.0))
    SELECTION_DRAWS = 100_000
    SELECTION_WEIGHTS = (0.3, 0.5, 0.7)
    SELECTION_WINDOW = nl.SelectionWindow(0.0, math.inf)
    SELECTION_GRID = np.linspace(-8.0, 8.0, 1001)
    latencies = {
        "soft_threshold_s": tuple(f"soft_threshold #{i}" for i in range(len(SOFT_MU2))),
        "poisson_s": tuple(f"poisson #{i}" for i in range(len(POISSON))),
        "selection_s": ("selection",),
    }

    def generate(self):
        # small seeded jitter keeps the cost of each calibration the same across seeds
        rng = _rng(self.seed, 11)
        jitter = lambda: 1.0 + 0.01 * rng.uniform(-1.0, 1.0)
        self.soft = [nl.SoftThresholdConfig(mu2=m * jitter(), alpha=ALPHA) for m in self.SOFT_MU2]
        self.poisson = [nl.PoissonConfig(shape=a * jitter(), scale=b * jitter(), alpha=ALPHA)
                        for a, b in self.POISSON]
        theta = rng.standard_normal(self.SELECTION_DRAWS)
        self.ys = theta + rng.standard_normal(self.SELECTION_DRAWS)

    def _selection(self, p: int):
        m2, se = nl.selection_second_moment(self.ys, self.SELECTION_WINDOW, return_se=True)
        chis = [nl.selection_critical_value(m2, self.SELECTION_WINDOW, w, 1.0, ALPHA, self.SELECTION_GRID)
                for w in self.SELECTION_WEIGHTS]
        return m2, se, chis

    def warmup(self) -> Op:
        return Op("poisson warmup", lambda p: nl.poisson_ebci(self.poisson[0]), 1)

    def ops(self) -> list[Op]:
        ops = [Op(f"soft_threshold #{i}", lambda p, c=c: nl.soft_threshold_ebci(c), 1)
               for i, c in enumerate(self.soft)]
        ops += [Op(f"poisson #{i}", lambda p, c=c: nl.poisson_ebci(c), 1)
                for i, c in enumerate(self.poisson)]
        ops.append(Op("selection", self._selection, len(self.SELECTION_WEIGHTS)))
        return ops

    def check(self, outputs):
        checks = []
        for name, results in outputs.items():
            checks.append(_same_outputs(name, results, repr))
        for i, cfg in enumerate(self.soft):
            name = f"soft_threshold #{i}"
            if not outputs.get(name):
                checks.append(Check(f"{name}: produced a result", False))
                continue
            chi_r, chi_p = outputs[name][-1]
            rho = lambda chi, cfg=cfg: nl.soft_threshold_worst_noncoverage(cfg, chi)
            checks += _smallest_chi_check(name, rho, chi_r, SOFT_WORST_TOL)
            base = nl._laplace_average_noncoverage(cfg, chi_p)
            checks.append(Check(f"{name}: Laplace average at parametric chi within {SOFT_BASELINE_TOL} of alpha",
                                abs(base - ALPHA) <= SOFT_BASELINE_TOL, f"{base:.6g}"))
        for i, cfg in enumerate(self.poisson):
            name = f"poisson #{i}"
            if not outputs.get(name):
                checks.append(Check(f"{name}: produced a result", False))
                continue
            chi = outputs[name][-1]
            grid = np.asarray(cfg.theta_grid)
            mean, second = cfg.shape * cfg.scale, cfg.shape * (cfg.shape + 1.0) * cfg.scale**2
            rho = lambda c, cfg=cfg, grid=grid, mean=mean, second=second: _lp_worst(
                grid, nl.poisson_noncoverage(grid, cfg, c), np.vstack([grid, grid**2]), [mean, second])
            checks += _smallest_chi_check(name, rho, chi)
            weights = gamma.pdf(grid, a=cfg.shape, scale=cfg.scale)
            baseline = float(weights @ nl.poisson_noncoverage(grid, cfg, chi) / weights.sum())
            checks.append(Check(f"{name}: non-coverage under the gamma baseline <= alpha + {POISSON_BASELINE_TOL}",
                                baseline <= ALPHA + POISSON_BASELINE_TOL, f"{baseline:.6g}"))
        if not outputs.get("selection"):
            return checks + [Check("selection: produced a result", False)]
        m2, se, chis = outputs["selection"][-1]
        checks.append(Check("selection: conditional second moment finite and positive",
                            math.isfinite(m2) and m2 > 0 and math.isfinite(se), f"{m2!r} (se {se!r})"))
        grid = self.SELECTION_GRID
        for w, chi in zip(self.SELECTION_WEIGHTS, chis):
            rho = lambda c, w=w: _lp_worst(
                grid, nl.selection_noncoverage(grid, c, self.SELECTION_WINDOW, w, 1.0),
                grid[None, :] ** 2, [max(m2, 1e-8)])
            checks += _smallest_chi_check(f"selection w={w}", rho, chi)
        return checks


WORKLOADS = {w.name: w for w in (FitPmt, Study, Calibrate)}
