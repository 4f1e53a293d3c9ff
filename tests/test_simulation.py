import math

import numpy as np
import pytest

from shrinkci import moments as mom
from shrinkci import pipeline as pl
from shrinkci import simulation as sim
from shrinkci import worstcase as wc


class TestThetaDistributions:
    @pytest.mark.parametrize("kind", sim.THETA_KINDS)
    def test_variance_and_kurtosis_match(self, kind):
        dist = sim.ThetaDistribution(kind, mu2=0.5, alpha=0.05)
        rng = np.random.default_rng(0)
        th = sim.draw_theta(dist, 1_000_000, rng)
        mu2_want, kurt_want = dist.moments()
        centered = th - th.mean()
        var = centered.var()
        var_se = np.std(centered**2) / math.sqrt(th.size)
        assert abs(var - mu2_want) <= 3 * var_se
        kurt = np.mean(centered**4) / var**2
        kurt_se = np.std(centered**4 / var**2) / math.sqrt(th.size)
        assert abs(kurt - kurt_want) <= 3 * kurt_se

    def test_two_point_mass_at_zero(self):
        dist = sim.ThetaDistribution("two_point", mu2=1.0)
        th = sim.draw_theta(dist, 200_000, np.random.default_rng(1))
        assert np.mean(th == 0.0) == pytest.approx(0.9, abs=0.01)

    def test_lf_kinds_reference_kink_mass(self):
        dist = sim.ThetaDistribution("lf_robust", mu2=0.1, alpha=0.05)
        _, kurt = dist.moments()
        p = dist._lf_mass
        assert kurt == pytest.approx(1.0 / p)
        assert 0 < p <= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sim.ThetaDistribution("cauchy", 1.0)


class TestSimulatePanel:
    def test_exact_normal_mode(self):
        d = sim.PanelDesign(
            n=100_000, t=math.inf, err="normal", snr=0.5,
            theta=sim.ThetaDistribution("normal", 0.5),
        )
        y, sigma, theta = d.simulate(np.random.default_rng(2))
        assert np.all(sigma == 1.0)
        z = y - theta
        # Kolmogorov distance to the standard normal below 0.01
        from scipy.stats import kstest
        assert kstest(z, "norm").statistic < 0.01

    def test_variance_estimator_unbiased(self):
        d = sim.PanelDesign(
            n=30_000, t=5, err="normal", snr=0.5,
            theta=sim.ThetaDistribution("normal", 0.5),
        )
        y, sigma, theta = d.simulate(np.random.default_rng(3))
        s2 = sigma**2
        se = s2.std() / math.sqrt(s2.size)
        assert abs(s2.mean() - 1.0) <= 3 * se

    def test_chi2_error_skewness(self):
        # skewness of the mean of T shifted chi-squared(3) draws is
        # sqrt(8/3)/sqrt(T), by the cumulant scaling of i.i.d. averages
        t = 10
        d = sim.PanelDesign(
            n=400_000, t=t, err="chi2", snr=0.5,
            theta=sim.ThetaDistribution("normal", 0.5),
        )
        y, _, theta = d.simulate(np.random.default_rng(4))
        z = y - theta
        skew = np.mean(z**3) / np.mean(z**2) ** 1.5
        want = math.sqrt(8.0 / 3.0) / math.sqrt(t)
        se = np.std(z**3) / math.sqrt(z.size)  # dominant error term
        assert abs(skew - want) <= 3 * se

    def test_design_validation(self):
        theta = sim.ThetaDistribution("normal", 0.5)
        with pytest.raises(ValueError):
            sim.PanelDesign(n=1, t=10, err="normal", snr=0.5, theta=theta)
        with pytest.raises(ValueError):
            sim.PanelDesign(n=10, t=1, err="normal", snr=0.5, theta=theta)
        with pytest.raises(ValueError):
            sim.PanelDesign(n=10, t=10, err="normal", snr=1.0, theta=theta)


class TestRunStudy:
    def make_design(self, kind="normal", snr=0.5, n=60, t=math.inf, err="normal"):
        return sim.PanelDesign(
            n=n, t=t, err=err, snr=snr,
            theta=sim.ThetaDistribution(kind, snr),
        )

    def test_reproducible_across_worker_counts(self):
        d = self.make_design()
        kw = dict(methods=("robust_mu2", "parametric"), reps=20, master_seed=7)
        r1 = sim.run_study([d], workers=1, **kw)
        r2 = sim.run_study([d], workers=2, **kw)
        r3 = sim.run_study([d], workers=3, **kw)
        assert r1.to_csv() == r2.to_csv() == r3.to_csv()

    def test_one_pool_per_study(self, monkeypatch):
        made = []

        class Counted(sim.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", Counted)
        designs = [self.make_design(), self.make_design("three_point", 2.0), self.make_design(n=30)]
        kw = dict(methods=("robust_mu2", "parametric"), reps=8, master_seed=11)
        pooled = sim.run_study(designs, workers=2, **kw)
        assert made == [dict(max_workers=2)]
        assert pooled.to_csv() == sim.run_study(designs, workers=1, **kw).to_csv()
        assert len(made) == 1

    def test_matches_pipeline_fit(self):
        # the harness's inlined moment step and intervals must agree with the
        # library pipeline on the same draws
        d = self.make_design(n=40)
        report = sim.run_study(
            [d], methods=("robust_mu2_kappa",), reps=3, master_seed=11
        )
        cov = np.empty(3)
        length = np.empty(3)
        for rep in range(3):
            rng = sim._rep_rng(11, 0, rep)
            y, sigma, theta = d.simulate(rng)
            res = pl.fit(mom.Units(y, sigma), alpha=0.05, method="robust_mu2_kappa")
            hits = [
                out.lower <= theta[i] <= out.upper
                for i, out in enumerate(res.outputs)
            ]
            cov[rep] = np.mean(hits)
            length[rep] = np.mean([out.upper - out.lower for out in res.outputs])
        row = report.row(0, "robust_mu2_kappa")
        assert row.coverage == pytest.approx(cov.mean(), abs=1e-12)
        assert row.avg_length == pytest.approx(length.mean(), rel=1e-9)

    def test_length_ordering(self):
        d = self.make_design(kind="normal", snr=0.5, n=100)
        report = sim.run_study(
            [d],
            methods=("unshrunk", "robust_mu2", "robust_mu2_kappa", "parametric"),
            reps=40,
            master_seed=3,
        )
        lengths = {m: report.row(0, m).avg_length for m in
                   ("unshrunk", "robust_mu2", "robust_mu2_kappa", "parametric")}
        assert lengths["unshrunk"] >= lengths["robust_mu2"]
        assert lengths["robust_mu2"] >= lengths["robust_mu2_kappa"]
        assert lengths["robust_mu2_kappa"] >= lengths["parametric"]

    def test_oracle_lf_coverage_at_nominal(self):
        snr = 0.5
        d = sim.PanelDesign(
            n=200, t=math.inf, err="normal", snr=snr,
            theta=sim.ThetaDistribution("lf_robust", snr),
        )
        report = sim.run_study(
            [d], methods=("oracle_robust_mu2",), reps=300, master_seed=5
        )
        row = report.row(0, "oracle_robust_mu2")
        assert row.coverage == pytest.approx(0.95, abs=3 * row.coverage_se)

    def test_parametric_collapses_at_tiny_snr(self):
        # under its least favorable effects the parametric interval's
        # coverage falls toward 1 - 1/z^2 = 0.74 as the signal vanishes
        snr = 0.005
        d = sim.PanelDesign(
            n=2000, t=math.inf, err="normal", snr=snr,
            theta=sim.ThetaDistribution("lf_parametric", snr),
        )
        report = sim.run_study(
            [d], methods=("oracle_parametric",), reps=100, master_seed=21
        )
        cov = report.row(0, "oracle_parametric").coverage
        assert 0.70 <= cov <= 0.85

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sim.run_study([self.make_design()], methods=("bogus",), reps=2)


def _method_by_method(design, d_idx, reps, seed, methods, alpha=0.05):
    """The report's numbers by the route without batching: each method on its
    own through ``pipeline._intervals``, every unit's key entered."""
    stacked = sim._replications([sim._simulate_rep((design, d_idx, r, seed)) for r in range(reps)], design.weights)
    n = design.n
    per_rep = lambda k: np.repeat(stacked[k], n)
    y, theta = stacked["y"].ravel(), stacked["theta"].ravel()
    out = {}
    for method in methods:
        base = method.removeprefix("oracle_")
        if base != method:
            sigma, (mu2, kappa) = np.ones_like(y), design.theta.moments()
        else:
            sigma, mu2, kappa = stacked["sigma"].ravel(), per_rep("mu2"), per_rep("kappa")
        center, _, _, half = pl._intervals(base, y, sigma, per_rep("delta"), mu2, kappa, alpha)
        cov = (np.abs(theta - center) <= half).reshape(reps, n).mean(axis=1)
        length = (2.0 * half).reshape(reps, n).mean(axis=1)
        out[method] = (float(np.mean(cov)), float(np.std(cov, ddof=1) / math.sqrt(reps)), float(np.mean(length)))
    return out


class TestCriticalValueBatching:
    """run_study solves each design's critical values in one call, and the
    report equals the method-by-method route bit for bit."""

    def designs(self):
        rng = np.random.default_rng(8)
        het = sim.HeteroskedasticDesign(
            tuple(rng.normal(0.06, 0.1, 120)), tuple(rng.uniform(0.05, 0.6, 120)), 0.5, n=60
        )
        panel = sim.PanelDesign(n=50, t=math.inf, err="normal", snr=0.5, theta=sim.ThetaDistribution("normal", 0.5))
        return [panel, het]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_call_per_design_and_bit_identical(self, monkeypatch, workers):
        reps, seed = 12, 21
        calls = []
        solve = wc.critical_values

        def counted(m2, kappa, alpha):
            calls.append((np.size(m2), int(np.isinf(kappa).sum())))
            return solve(m2, kappa, alpha)

        monkeypatch.setattr(wc, "critical_values", counted)
        designs = self.designs()
        report = sim.run_study(designs, reps=reps, workers=workers, master_seed=seed)
        monkeypatch.undo()
        # panel: robust_mu2_kappa and robust_mu2 with their oracles, each
        # oracle key entered once, those of robust_mu2 with kappa = inf; het:
        # no oracle methods
        units = [reps * d.n for d in designs]
        assert calls == [(2 * units[0] + 2, units[0] + 1), (2 * units[1], units[1])]
        for d_idx, design in enumerate(designs):
            methods = [m for m in sim.SIM_METHODS if hasattr(design, "theta") or not m.startswith("oracle_")]
            ref = _method_by_method(design, d_idx, reps, seed, methods)
            base = ref.get("oracle_robust_mu2_kappa", (0, 0, math.nan))[2]
            for method, (cov, cov_se, length) in ref.items():
                row = report.row(d_idx, method)
                assert (row.coverage, row.coverage_se, row.avg_length) == (cov, cov_se, length), method
                assert row.rel_length == length / base or math.isnan(base), method
            assert {r.method for r in report.rows if r.design_index == d_idx} == set(ref)


class TestHeteroskedasticDesign:
    def make(self, snr=0.5):
        rng = np.random.default_rng(8)
        th = rng.normal(0.06, 0.1, 300)
        se = rng.uniform(0.05, 0.6, 300)
        return sim.HeteroskedasticDesign(tuple(th), tuple(se), snr)

    def test_matching_constant_from_data(self):
        d = self.make()
        th = np.asarray(d.theta_hat)
        se = np.asarray(d.se)
        want = np.mean((th - th.mean()) ** 2) * np.mean(se**-2.0)
        assert d.matching_constant == pytest.approx(want, rel=1e-12)

    def test_simulated_snr_calibration(self):
        snr = 0.5
        d = self.make(snr)
        rng = np.random.default_rng(9)
        ratios = []
        for _ in range(200):
            y, sigma, theta = d.simulate(rng)
            eps = theta - np.mean(d.theta_hat)
            ratios.append(np.mean(eps**2 / sigma**2))
        assert np.mean(ratios) == pytest.approx(snr, rel=0.05)

    def test_runs_in_study_with_precision_weights(self):
        d = self.make()
        report = sim.run_study([d], methods=("robust_mu2_kappa", "parametric"), reps=30, master_seed=2)
        row = report.row(0, "robust_mu2_kappa")
        assert 0.8 <= row.coverage <= 1.0
        assert math.isnan(row.rel_length)  # no oracle benchmark for this design

    @pytest.mark.parametrize(
        "snr, design",
        [(snr, "heteroskedastic") for snr in (0.05, 0.5, 4.0)]
        + [(snr, "panel") for snr in (0.1, 2.0)],
    )
    def test_replication_moments_match_estimate_moments(self, snr, design):
        # each design names its weights: inverse_variance here, uniform for the panel
        if design == "panel":
            d = sim.PanelDesign(n=80, t=5, err="chi2", snr=snr, theta=sim.ThetaDistribution("normal", snr))
        else:
            d = self.make(snr)
        reps = sim._replications([sim._simulate_rep((d, 0, rep, 5)) for rep in range(3)], d.weights)
        for rep in range(3):
            units = mom.Units(reps["y"][rep], reps["sigma"][rep])
            est = mom.estimate_moments(units, variant="pmt", weights=d.weights)
            assert reps["delta"][rep] == est.delta[0]
            assert reps["mu2"][rep] == est.mu2
            assert reps["kappa"][rep] == est.kappa

    def test_csv_loader_roundtrip(self, tmp_path):
        path = tmp_path / "calib.csv"
        path.write_text("theta_hat,se\n0.1,0.5\n-0.2,0.7\n0.05,0.2\n")
        th, se = sim.load_calibration_csv(str(path))
        assert th == (0.1, -0.2, 0.05)
        assert se == (0.5, 0.7, 0.2)
        with pytest.raises(ValueError):
            bad = tmp_path / "bad.csv"
            bad.write_text("a,b\n1,2\n")
            sim.load_calibration_csv(str(bad))

    def test_csv_loader_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sim.load_calibration_csv(str(tmp_path / "missing.csv"))

    def test_csv_loader_header_only_gives_empty_tuples(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# calibration draws\ntheta_hat,se\n\n")
        assert sim.load_calibration_csv(str(path)) == ((), ())
