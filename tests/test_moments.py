import math

import numpy as np
import pytest

from shrinkci import moments as mom




class TestUnits:
    def test_defaults_and_len(self):
        units = mom.Units([1.0, 2.0, 3.0], [1.0, 0.5, 2.0])
        assert len(units) == 3
        np.testing.assert_array_equal(units.X, np.ones((3, 1)))
        np.testing.assert_array_equal(units.omega, np.ones(3))
        assert not units.y.flags.writeable

    @pytest.mark.parametrize(
        "kwargs, index, message",
        [
            (dict(y=[0.0, math.nan, 1.0, math.inf]), 1, "y must be finite"),
            (dict(y=[0.0, 1.0, 2.0, -math.inf]), 3, "y must be finite"),
            (dict(sigma=[1.0, 1.0, 0.0, 1.0]), 2, "sigma"),
            (dict(sigma=[1.0, -1.0, 1.0, 1.0]), 1, "sigma"),
            (dict(sigma=[1.0, 1.0, 1.0, math.nan]), 3, "sigma"),
            (dict(omega=[1.0, 1.0, -0.5, 1.0]), 2, "omega"),
            (dict(omega=[math.inf, 1.0, 1.0, 1.0]), 0, "omega"),
            (dict(X=[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, math.nan]]), 3, "covariates"),
            # the first bad unit wins across columns
            (dict(y=[0.0, 0.0, math.nan, 0.0], sigma=[1.0, 0.0, 1.0, 1.0]), 1, "sigma"),
            (dict(sigma=[1.0, 1.0, 1.0]), 3, "sigma has 3 rows for 4 units"),
            (dict(omega=[1.0] * 5), 4, "omega has 5 rows for 4 units"),
            (dict(X=np.ones((2, 1))), 2, "X has 2 rows for 4 units"),
        ],
    )
    def test_rejects_bad_unit_naming_first_index(self, kwargs, index, message):
        args = dict(y=np.zeros(4), sigma=np.ones(4)) | kwargs
        with pytest.raises(mom.UnitError, match=message) as exc:
            mom.Units(**args)
        assert exc.value.index == index
        assert str(exc.value).startswith(f"unit {index}: ")

    def test_rejects_one_dimensional_x(self):
        with pytest.raises(ValueError, match="X must be 2-D"):
            mom.Units(np.zeros(4), np.ones(4), X=np.ones(4))

    def test_rejects_empty_and_non_vector_y(self):
        with pytest.raises(ValueError, match="need at least one unit"):
            mom.Units([], [])
        for y in ([[1.0, 2.0]], 1.0):
            with pytest.raises(ValueError, match="y must be 1-D"):
                mom.Units(y, [1.0])


class TestWls:
    def test_intercept_only_is_weighted_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        X = np.ones((3, 1))
        w = np.full(3, 1 / 3)
        delta = mom.wls_delta(y, X, w)
        assert delta[0] == pytest.approx(y.mean(), rel=1e-14)

    def test_precision_weights(self):
        y = np.array([1.0, 2.0, 6.0])
        X = np.ones((3, 1))
        sig = np.array([1.0, 2.0, 0.5])
        delta = mom.wls_delta(y, X, sig**-2.0)
        assert delta[0] == pytest.approx(np.sum(y / sig**2) / np.sum(1 / sig**2))

    def test_three_unit_normal_equations_oracle(self):
        # brute-force 2x2 solve
        y = np.array([1.0, -0.5, 2.5])
        X = np.column_stack([np.ones(3), np.array([0.2, 1.1, -0.4])])
        w = np.array([0.5, 0.2, 0.3])
        A = np.zeros((2, 2))
        b = np.zeros(2)
        for i in range(3):
            A += w[i] * np.outer(X[i], X[i])
            b += w[i] * X[i] * y[i]
        expected = np.linalg.solve(A, b)
        np.testing.assert_allclose(mom.wls_delta(y, X, w), expected, rtol=1e-12)

    def test_rank_deficiency_names_column(self):
        X = np.column_stack([np.ones(4), np.arange(4.0), 2 * np.arange(4.0)])
        with pytest.raises(mom.RankDeficientError) as exc:
            mom.wls_delta(np.zeros(4), X, np.full(4, 0.25))
        assert exc.value.column == 2


class TestUnconstrained:
    def test_zero_residuals(self):
        sigma = np.array([1.0, 2.0])
        omega = np.array([0.5, 0.5])
        mu2, mu4, w2, w4 = mom.moments_uc(np.zeros(2), sigma, omega)
        assert mu2 == pytest.approx(-float(omega @ sigma**2))

    def test_two_unit_hand_average(self):
        resid = np.array([1.0, 2.0])
        sigma = np.array([0.5, 0.5])
        mu2, mu4, _, _ = mom.moments_uc(resid, sigma, np.array([0.5, 0.5]))
        assert mu2 == pytest.approx(0.5 * (1 - 0.25) + 0.5 * (4 - 0.25))
        w4a = 1 - 6 * 0.25 * 1 + 3 * 0.0625
        w4b = 16 - 6 * 0.25 * 4 + 3 * 0.0625
        assert mu4 == pytest.approx(0.5 * (w4a + w4b))

    def test_simulation_consistency(self):
        rng = np.random.default_rng(10)
        n = 100_000
        theta = rng.normal(0, math.sqrt(0.7), n)
        sigma = np.full(n, 1.3)
        y = theta + sigma * rng.standard_normal(n)
        mu2, mu4, w2, _ = mom.moments_uc(y - y.mean(), sigma, np.full(n, 1 / n))
        se = w2.std(ddof=1) / math.sqrt(n)
        assert abs(mu2 - 0.7) < 3 * se


class TestPmt:
    def test_floor_binds_for_very_negative_raw(self):
        sigma = np.array([1.0, 1.5, 0.7])
        omega = np.full(3, 1 / 3)
        floor = 2 * np.sum(omega**2 * sigma**4) / (omega.sum() * np.sum(omega * sigma**2))
        mu2, kappa = mom.pmt(sigma, omega, -5.0, 1.0)
        assert mu2 == pytest.approx(floor)
        assert mu2 > 0 and kappa > 1

    def test_homoskedastic_floor_reduction(self):
        # with sigma_i = s and omega = 1/n the floor reduces to 2 s^2 / n
        n, s = 10, 1.0
        sigma = np.full(n, s)
        omega = np.full(n, 1 / n)
        mu2, _ = mom.pmt(sigma, omega, -1.0, 1.0)
        assert mu2 == pytest.approx(2 * s**2 / n, rel=1e-12)

    def test_outputs_always_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(3, 30)
            sigma = rng.uniform(0.2, 3.0, n)
            omega = rng.uniform(0.0, 1.0, n)
            omega[rng.integers(0, n)] = 1.0  # keep at least one positive
            mu2, kappa = mom.pmt(sigma, omega, rng.normal(), rng.normal())
            assert mu2 > 0 and kappa > 1


class TestFplib:
    def test_posterior_mean_asymptote(self):
        assert mom._posterior_mean_positive(50.0, 1e-4) == pytest.approx(50.0, abs=1e-12)

    def test_posterior_mean_at_zero(self):
        v = 2.0
        assert mom._posterior_mean_positive(0.0, v) == pytest.approx(
            math.sqrt(2 * v / math.pi), rel=1e-12
        )

    def test_mills_ratio_tail_approximation(self):
        # b(m0, V0) = -V0/m0 + O(V0^(3/2)) as V0 -> 0 at negative m0
        for v0 in (1e-2, 1e-4):
            b = mom._posterior_mean_positive(-1.0, v0)
            assert b == pytest.approx(v0, abs=5 * v0**1.5)

    def test_dominates_raw_estimate(self):
        for m in (-2.0, -0.1, 0.0, 0.5, 3.0):
            assert mom._posterior_mean_positive(m, 0.5) >= m

    def test_full_estimate_close_to_pmt_in_regular_samples(self):
        rng = np.random.default_rng(5)
        n = 5000
        theta = rng.normal(0, 1.0, n)
        sigma = rng.uniform(0.5, 1.5, n)
        y = theta + sigma * rng.standard_normal(n)
        data = mom.Units(y, sigma)
        est_f = mom.estimate_moments(data, variant="fplib")
        est_p = mom.estimate_moments(data, variant="pmt")
        assert not est_f.fplib_fallback
        assert est_f.mu2 == pytest.approx(est_p.mu2, rel=0.05)
        assert est_f.mu2 > 0 and est_f.kappa > 1


class TestNearestNeighbor:
    def test_full_sample_neighborhood_equals_global(self):
        rng = np.random.default_rng(6)
        n = 50
        y = rng.normal(0, 1, n)
        sigma = rng.uniform(0.5, 2.0, n)
        data = mom.Units(y, sigma)
        est = mom.estimate_moments(data, variant="nn", neighbors=n)
        glob = mom.estimate_moments(data, variant="pmt")
        np.testing.assert_allclose(est.mu2_per_unit, glob.mu2, rtol=1e-10)
        np.testing.assert_allclose(est.kappa_per_unit, glob.kappa, rtol=1e-10)

    def test_recovers_clustered_variances(self):
        # two clusters split by sigma with very different effect variances
        rng = np.random.default_rng(7)
        n = 2000
        half = n // 2
        sigma = np.concatenate([np.full(half, 0.5), np.full(half, 3.0)])
        mu2_true = np.concatenate([np.full(half, 0.25), np.full(half, 4.0)])
        theta = rng.normal(0, np.sqrt(mu2_true))
        y = theta + sigma * rng.standard_normal(n)
        data = mom.Units(y, sigma)
        est = mom.estimate_moments(data, variant="nn", neighbors=200)
        lo = est.mu2_per_unit[:half].mean()
        hi = est.mu2_per_unit[half:].mean()
        assert lo == pytest.approx(0.25, abs=0.08)
        assert hi == pytest.approx(4.0, abs=0.8)

    def test_rejects_bad_neighbor_count(self):
        data = mom.Units(np.zeros(5) + 1.0, np.ones(5))
        with pytest.raises(ValueError):
            mom.nn_moments(np.zeros(5), np.ones(5), np.ones((5, 1)), np.ones(5), 1)


class TestCvSelect:
    def test_constant_signal_breaks_ties_to_largest(self):
        n = 30
        rng = np.random.default_rng(8)
        sigma = rng.uniform(0.5, 1.5, n)
        resid = np.sqrt(sigma**2 + 1.0) * np.ones(n)  # w2 constant = 1
        # w2 = resid^2 - sigma^2 = 1 for every unit
        X = np.ones((n, 1))
        j, errors = mom.cv_select_neighbors(
            resid, sigma, X, np.full(n, 1 / n), [2, 5, 10, 20]
        )
        assert j == 20
        assert all(e == pytest.approx(0.0, abs=1e-20) for e in errors.values())

    def test_piecewise_design_selects_below_cluster_size(self):
        rng = np.random.default_rng(9)
        n = 400
        half = n // 2
        sigma = np.concatenate([np.full(half, 0.5), np.full(half, 2.0)])
        mu2_true = np.where(sigma < 1.0, 0.1, 5.0)
        theta = rng.normal(0, np.sqrt(mu2_true))
        y = theta + sigma * rng.standard_normal(n)
        resid = y - y.mean()
        j, _ = mom.cv_select_neighbors(
            resid, sigma, np.ones((n, 1)), np.full(n, 1 / n),
            [10, 50, 100, 150, 250, 399],
        )
        assert j <= 150

    def test_deterministic_and_finite(self):
        rng = np.random.default_rng(11)
        n = 60
        sigma = rng.uniform(0.5, 1.5, n)
        resid = rng.normal(0, 1, n)
        args = (resid, sigma, np.ones((n, 1)), np.full(n, 1 / n), [2, 10, 30])
        j1, e1 = mom.cv_select_neighbors(*args)
        j2, e2 = mom.cv_select_neighbors(*args)
        assert j1 == j2 and e1 == e2
        assert all(np.isfinite(v) for v in e1.values())

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            mom.cv_select_neighbors(
                np.zeros(5), np.ones(5), np.ones((5, 1)), np.ones(5), []
            )


class TestSplitWeights:
    def test_homoskedastic_split_equals_shared(self):
        rng = np.random.default_rng(14)
        n = 300
        y = rng.normal(0, 1, n)
        sigma = np.full(n, 1.3)
        data = mom.Units(y, sigma)
        shared = mom.estimate_moments(data, variant="pmt")
        split = mom.estimate_moments(data, variant="pmt", split_weights=True)
        assert split.mu2 == pytest.approx(shared.mu2, rel=1e-12)
        assert split.kappa == pytest.approx(shared.kappa, rel=1e-12)

    def test_heteroskedastic_split_valid_and_consistent(self):
        rng = np.random.default_rng(15)
        n = 50_000
        theta = rng.normal(0, math.sqrt(0.4), n)
        sigma = rng.uniform(0.5, 2.0, n)
        y = theta + sigma * rng.standard_normal(n)
        data = mom.Units(y, sigma)
        for variant in ("pmt", "fplib"):
            est = mom.estimate_moments(data, variant=variant, split_weights=True)
            assert est.mu2 == pytest.approx(0.4, abs=0.05)
            assert est.kappa == pytest.approx(3.0, abs=0.6)


class TestScaleEquivariance:
    def test_uc_exact(self):
        rng = np.random.default_rng(12)
        n = 200
        y = rng.normal(0, 1, n)
        sigma = rng.uniform(0.5, 1.5, n)
        c = 3.7
        base = mom.estimate_moments(mom.Units(y, sigma), variant="uc")
        scaled = mom.estimate_moments(mom.Units(c * y, c * sigma), variant="uc")
        assert scaled.mu2 == pytest.approx(c * c * base.mu2, rel=1e-12)

    def test_pmt_scales_consistently(self):
        rng = np.random.default_rng(13)
        n = 200
        y = rng.normal(0, 1, n)
        sigma = rng.uniform(0.5, 1.5, n)
        c = 0.4
        base = mom.estimate_moments(mom.Units(y, sigma), variant="pmt")
        scaled = mom.estimate_moments(mom.Units(c * y, c * sigma), variant="pmt")
        assert scaled.mu2 == pytest.approx(c * c * base.mu2, rel=1e-12)
        assert scaled.kappa == pytest.approx(base.kappa, rel=1e-12)
