import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cva_scalar
from scipy.special import ndtr, ndtri
from test_worstcase import _certified

from shrinkci import moments as mom
from shrinkci import pipeline as pl
from shrinkci import worstcase as wc

Z975 = float(ndtri(0.975))


def simulate_units(rng, n, mu2, sigma_range=(0.5, 2.0), delta=0.0):
    theta = rng.normal(delta, math.sqrt(mu2), n)
    sigma = rng.uniform(*sigma_range, n)
    y = theta + sigma * rng.standard_normal(n)
    return mom.Units(y, sigma), theta


def given_moments(mu2):
    """Oracle moments, shrinking toward 0, for ``fit(..., moment_estimates=...)``."""
    return mom.MomentEstimates(
        delta=np.array([0.0]), mu2=mu2, kappa=3.0, variant="pmt", residuals=np.zeros(1)
    )


class TestFit:
    def test_shrinks_toward_fitted_value(self):
        rng = np.random.default_rng(0)
        data, _ = simulate_units(rng, 80, 1.0)
        res = pl.fit(data)
        delta = res.moments.delta[0]
        mu2 = res.moments.mu2
        for y, sigma, out in zip(data.y, data.sigma, res.outputs):
            w = mu2 / (mu2 + sigma**2)
            assert out.w_eb == pytest.approx(w, rel=1e-12)
            assert out.theta_hat == pytest.approx(delta + w * (y - delta), rel=1e-10)
            assert out.lower <= out.theta_hat <= out.upper
            assert out.half_length == pytest.approx(out.cva * w * sigma, rel=1e-12)
            assert out.cva >= Z975

    def test_no_shrinkage_limit(self):
        # enormous mu2 makes w -> 1 and the interval unshrunk
        unit = mom.Units([2.0], [1.0])
        est = mom.MomentEstimates(
            delta=np.array([0.0]), mu2=1e8, kappa=3.0, variant="pmt",
            residuals=np.array([2.0]),
        )
        res = pl.fit(unit, moment_estimates=est, method="robust_mu2")
        out = res.outputs[0]
        assert out.w_eb == pytest.approx(1.0, abs=1e-6)
        assert out.cva == pytest.approx(Z975, abs=1e-3)
        assert out.half_length == pytest.approx(Z975, rel=1e-3)

    def test_homoskedastic_zero_covariate_form(self):
        # with known moments and sigma = 1 the interval is w*y +- cva(1/mu2)*w
        unit = mom.Units([1.3], [1.0])
        mu2 = 0.5
        est = mom.MomentEstimates(
            delta=np.array([0.0]), mu2=mu2, kappa=1e7, variant="pmt",
            residuals=np.array([1.3]),
        )
        res = pl.fit(unit, moment_estimates=est, method="robust_mu2")
        out = res.outputs[0]
        w = mu2 / (mu2 + 1.0)
        assert out.theta_hat == pytest.approx(w * 1.3, rel=1e-12)
        assert out.cva == pytest.approx(wc._cva_scalar(1 / mu2, None, 0.05), abs=1e-6)
        assert out.half_length == pytest.approx(out.cva * w, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        data, _ = simulate_units(rng, 40, 0.6)
        perm = rng.permutation(40)
        res = pl.fit(data)
        res_p = pl.fit(mom.Units(data.y[perm], data.sigma[perm]))
        for k, i in enumerate(perm):
            assert res_p.outputs[k] == res.outputs[i]

    def test_oracle_lf_coverage_near_nominal(self):
        # under the least favorable two-point bias distribution with oracle
        # moments, non-coverage of the mu2-only interval attains alpha
        rng = np.random.default_rng(2)
        mu2, sigma, alpha = 0.5, 1.0, 0.05
        m2 = sigma**2 / mu2
        chi = wc._cva_scalar(m2, None, alpha)
        lf = wc.least_favorable(wc.MomentConstraints(m2), chi)
        n = 200_000
        t_draw = np.array(lf.points)[rng.choice(len(lf.points), n, p=lf.probs)]
        # b = -sigma * eps / mu2 with eps = theta here; sign symmetric
        theta = np.sqrt(t_draw) * mu2 / sigma * rng.choice([-1.0, 1.0], n)
        y = theta + sigma * rng.standard_normal(n)
        w = mu2 / (mu2 + sigma**2)
        covered = np.abs(w * y - theta) <= chi * w * sigma
        assert covered.mean() == pytest.approx(1 - alpha, abs=3 * covered.std() / math.sqrt(n))

    def test_nn_variant_uses_per_unit_moments(self):
        rng = np.random.default_rng(3)
        data, _ = simulate_units(rng, 60, 1.0)
        res = pl.fit(data, method="robust_mu2_kappa", moment_variant="nn", neighbors=30)
        est = res.moments
        for sigma, out in zip(data.sigma, res.outputs):
            w = est.mu2 / (est.mu2 + sigma**2)
            assert out.w_eb == pytest.approx(w, rel=1e-12)
        # critical values differ across units with identical sigma ordering
        assert est.mu2_per_unit is not None

    def test_columns_match_rows_and_flag_failing_units(self):
        # the second unit's fitted value overflows; only its row is flagged
        units = mom.Units([0.5, 0.5], [1.0, 1.0], X=[[1.0, 0.0], [1.0, 1e308]])
        est = mom.MomentEstimates(
            delta=np.array([0.0, 10.0]), mu2=1.0, kappa=3.0, variant="pmt",
            residuals=np.zeros(2),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            res = pl.fit(units, method="parametric", moment_estimates=est)
        assert res.error.tolist() == [None, "non-finite interval"]
        rows = res.outputs
        assert [r.error for r in rows] == [None, "non-finite interval"]
        assert rows[0].theta_hat == res.theta_hat[0] == 0.25
        assert rows[0].method == "parametric" and rows[0].rule_of_thumb_ok is True
        assert type(rows[0].cva) is float

    @pytest.mark.parametrize("method", ["parametric", "robust_mu2", "robust_mu2_kappa"])
    def test_huge_center_keeps_each_estimate(self, method):
        # the center is near 1.5e78 and every ordinary unit has w_eb = 1:
        # its estimate is its own y, and its interval is centered there
        rng = np.random.default_rng(0)
        y = np.append(rng.normal(size=200), 3e80)
        se = np.append(np.ones(200), 1e80)
        res = pl.fit(mom.Units(y, se), method=method)
        ones = [(o, yi) for o, yi in zip(res.outputs, y) if o.w_eb == 1.0]
        assert len(ones) == 200
        for o, yi in ones:
            assert o.theta_hat == yi
            assert o.lower < yi < o.upper

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            pl.fit(mom.Units([0.0], [1.0]), method="bogus")

    def test_tiny_m2_unit_keeps_worst_case_coverage(self):
        # huge effects make m2 = sigma^2 / mu2 about 1.2e-7; the critical
        # value must still hold worst-case non-coverage at alpha
        rng = np.random.default_rng(0)
        y = 3000.0 * rng.standard_normal(200)
        res = pl.fit(mom.Units(y, np.ones_like(y)), method="robust_mu2")
        m2 = 1.0 / res.moments.mu2
        assert 0.0 < m2 < 1e-6
        for out in res.outputs:
            assert out.cva > Z975
            assert wc.worst_noncoverage_second(m2, out.cva) <= 0.05 + 1e-12

    @pytest.mark.parametrize("method", ["robust_mu2", "robust_mu2_kappa"])
    def test_robust_cva_matches_scalar_route(self, method):
        rng = np.random.default_rng(5)
        data, _ = simulate_units(rng, 2000, 1.0)
        res = pl.fit(data, method=method)
        mu2 = res.moments.mu2
        kappa = res.moments.kappa if method == "robust_mu2_kappa" else None
        for i in rng.choice(len(data), 25, replace=False):
            ref = cva_scalar(data.sigma[i] ** 2 / mu2, kappa, 0.05)
            assert res.cva[i] == pytest.approx(ref, abs=1e-8)


@st.composite
def fit_inputs(draw):
    """Units with se spread up to 1e6 (or all equal, which ties nn distances)
    at scale 1e-3 to 1e3, y at scale 1e-6 to 1e6 (normal draws, constant, or
    with one unit at 1e12 x scale), and the alpha, moment variant (nn from
    n = 3, where its cross-validation grid starts) and weights of the fit."""
    n = draw(st.integers(2, 40))
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    spread = draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
    se = 10.0 ** draw(st.floats(-3.0, 3.0)) * (10.0**spread) ** np.array(draw(unit))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    shape = draw(st.sampled_from(["normal", "constant", "outlier"]))
    y = np.full(n, scale)
    if shape != "constant":
        y = scale * np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    if shape == "outlier":
        y[draw(st.integers(0, n - 1))] = 1e12 * scale
    alpha = draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.5, 0.999]))
    variant = draw(st.sampled_from(["pmt", "fplib", "nn"] if n >= 3 else ["pmt", "fplib"]))
    return mom.Units(y, se), alpha, variant, draw(st.sampled_from(["uniform", "inverse_variance"]))


@settings(max_examples=60, deadline=None)
@given(case=fit_inputs())
# constant data, where FPLIB's variance estimate is exactly 0
@example(case=(mom.Units(np.ones(4), np.ones(4)), 0.05, "fplib", "uniform"))
def test_fit_intervals_hold_their_order_on_edge_inputs(case):
    data, alpha, variant, weights = case
    with warnings.catch_warnings():
        # an FPLIB fallback to PMT warns; its moments are checked as any others
        warnings.filterwarnings("ignore", "FPLIB variance estimate", UserWarning)
        est = mom.estimate_moments(data, variant=variant, weights=weights)
    methods = ("robust_mu2_kappa", "robust_mu2", "optimal_robust", "parametric", "unshrunk")
    res = {m: pl.fit(data, alpha=alpha, method=m, moment_estimates=est) for m in methods}
    for r in res.values():
        assert np.all(np.isfinite(r.half_length) & (r.half_length >= 0))
        assert np.all((r.lower <= r.theta_hat) & (r.theta_hat <= r.upper))
    z = wc._z(alpha)
    for m in ("robust_mu2", "robust_mu2_kappa", "optimal_robust"):
        assert np.all(res[m].cva >= z), m
    assert np.all(res["robust_mu2_kappa"].cva <= res["robust_mu2"].cva + 1e-8)
    # each unit's chi is certified for its own key at the shrinkage it chose
    opt = res["optimal_robust"]
    m2 = (1.0 - 1.0 / opt.w_eb) ** 2 * (est.mu2 / data.sigma**2)
    assert _certified(m2, np.full(m2.shape, est.kappa), opt.cva, alpha).all()


class TestParametricInterval:
    def test_w_one_limit_is_unshrunk(self):
        unit = mom.Units([1.0], [1.0])
        out = pl.fit(unit, method="parametric", moment_estimates=given_moments(1e12)).outputs[0]
        assert out.half_length == pytest.approx(Z975, rel=1e-6)

    def test_half_length_formula(self):
        unit = mom.Units([0.0], [1.0])  # w = 0.5
        out = pl.fit(unit, method="parametric", moment_estimates=given_moments(1.0)).outputs[0]
        assert out.half_length == pytest.approx(Z975 / math.sqrt(2), rel=1e-12)

    def test_exact_marginal_coverage_under_gaussian_effects(self):
        rng = np.random.default_rng(4)
        n, mu2, sigma = 100_000, 0.8, 1.0
        theta = rng.normal(0, math.sqrt(mu2), n)
        y = theta + sigma * rng.standard_normal(n)
        w = mu2 / (mu2 + sigma**2)
        covered = np.abs(w * y - theta) <= Z975 * math.sqrt(w) * sigma
        assert covered.mean() == pytest.approx(0.95, abs=3 * covered.std() / math.sqrt(n))


@pytest.mark.parametrize("method", ["unshrunk", "parametric"])
def test_normal_quantile_holds_alpha_at_small_alpha(method):
    # ndtri(1 - alpha / 2) is 1.2e-5 below the quantile at alpha = 1e-12,
    # where 2 Phi(-z) read 1.0000889e-12; the tolerance is the rounding of
    # recovering z from the half-lengths
    alpha = 1e-12
    units, _ = simulate_units(np.random.default_rng(6), 200, 1.0)
    res = pl.fit(units, alpha=alpha, method=method)
    z = res.half_length / (np.sqrt(res.w_eb) * units.sigma)
    assert np.all(2.0 * ndtr(-z) <= alpha * (1.0 + 1e-12))
    if method == "unshrunk":
        assert np.all(2.0 * ndtr(-res.cva) <= alpha)


class TestUnshrunk:
    def test_half_length(self):
        unit = mom.Units([0.3], [1.0])
        out = pl.fit(unit, method="unshrunk", moment_estimates=given_moments(1.0)).outputs[0]
        assert out.half_length == pytest.approx(Z975, rel=1e-12)
        assert out.lower < out.upper

    def test_exact_coverage(self):
        rng = np.random.default_rng(5)
        n = 100_000
        theta = rng.normal(0, 2.0, n)
        y = theta + rng.standard_normal(n)
        covered = np.abs(y - theta) <= Z975
        assert covered.mean() == pytest.approx(0.95, abs=3 * covered.std() / math.sqrt(n))


class TestParametricWorstNoncoverage:
    def test_monotone_nonincreasing_in_w(self):
        ws = np.linspace(1e-4, 0.999, 200)
        vals = [pl.parametric_worst_noncoverage(float(w), 0.05) for w in ws]
        assert np.all(np.diff(vals) <= 1e-9)

    def test_rule_of_thumb_region(self):
        for alpha in (0.05, 0.10):
            assert pl.parametric_worst_noncoverage(0.3, alpha) <= alpha + 0.05 + 1e-3

    def test_kurtosis_reduces_distortion(self):
        base = pl.parametric_worst_noncoverage(0.2, 0.05)
        with_k = pl.parametric_worst_noncoverage(0.2, 0.05, kappa=3.0)
        assert with_k <= base + 1e-12

    @pytest.mark.parametrize(
        "w, alpha, kappa",
        [(0.0, 0.05, None), (1.0, 0.05, None), (math.nan, 0.05, None),
         (0.3, 0.0, None), (0.3, 1.5, None), (0.3, 0.05, 0.5), (0.3, 0.05, math.nan)],
    )
    def test_rejects_bad_input(self, w, alpha, kappa):
        with pytest.raises(ValueError):
            pl.parametric_worst_noncoverage(w, alpha, kappa)

    def test_infinite_kappa_means_no_bound(self):
        assert pl.parametric_worst_noncoverage(0.2, 0.05, math.inf) == (
            pl.parametric_worst_noncoverage(0.2, 0.05)
        )

    @pytest.mark.parametrize("kappa", [math.inf, 3.0])
    def test_chunks_move_no_value(self, monkeypatch, kappa):
        # a fit's units go to the worst case in slices, elementwise
        w = np.random.default_rng(29).uniform(1e-3, 0.999, 100)
        whole = pl._param_noncov_batch(w, 0.05, kappa)
        monkeypatch.setattr(wc, "_CVA_CHUNK", 7)
        np.testing.assert_array_equal(pl._param_noncov_batch(w, 0.05, kappa), whole)


class TestOptimalShrinkage:
    def test_high_snr_no_shrinkage(self):
        assert pl.optimal_shrinkage(1e5, 3.0) == pytest.approx(1.0, abs=1e-3)

    def test_dominates_eb_weight_at_normal_kurtosis(self):
        for snr in (1 / 9, 0.5, 1.0, 4.0):
            w_eb = snr / (1 + snr)
            assert pl.optimal_shrinkage(snr, 3.0, 0.05) >= w_eb - 1e-6

    def test_against_dense_grid_oracle(self):
        snr, kappa, alpha = 1 / 9, 3.0, 0.05
        ws = np.arange(1e-4, 1.0 + 1e-9, 1e-4)
        half = wc.critical_values((1.0 - 1.0 / ws) ** 2 * snr, kappa=kappa, alpha=alpha) * ws
        w_star = float(ws[np.argmin(half)])
        assert pl.optimal_shrinkage(snr, kappa, alpha) == pytest.approx(w_star, abs=2e-4)


class TestAveragePower:
    def test_null_at_center_limits(self):
        # vanishing signal variance: the z-test's average rejection of the
        # centered null approaches its size, the robust test's approaches 0
        robust, ztest = pl.average_power(0.0, 1e-4, 0.05)
        assert ztest == pytest.approx(0.05, abs=2e-4)
        assert robust < 1e-6
        # large signal variance: the effects escape any fixed null, so the
        # average rejection rate approaches 1 for both tests
        robust, ztest = pl.average_power(0.0, 0.9999, 0.05)
        assert ztest > 0.95 and robust > 0.95

    def test_ztest_formula_against_direct_probability(self):
        # two-sided z-test power averaged over theta ~ N(mu1, mu2)
        d, w = 1.5, 0.4
        _, ztest = pl.average_power(d, w, 0.05)
        direct = float(wc.noncoverage(d * math.sqrt(1 - w), Z975 * math.sqrt(1 - w)))
        assert ztest == pytest.approx(direct, rel=1e-12)
        # Monte Carlo oracle
        rng = np.random.default_rng(6)
        n = 400_000
        mu2 = w / (1 - w)  # sigma = 1
        theta = rng.normal(d, math.sqrt(mu2), n)  # distance d from the null 0
        y = theta + rng.standard_normal(n)
        rej = np.abs(y) > Z975
        assert ztest == pytest.approx(rej.mean(), abs=3 * rej.std() / math.sqrt(n))

    def test_robust_gains_at_large_shift_and_heavy_shrinkage(self):
        robust, ztest = pl.average_power(3.0, 0.15, 0.05)
        assert robust > ztest

    def test_values_are_probabilities(self):
        for d in (0.0, 0.5, 2.0, 5.0):
            for w in (0.05, 0.5, 0.95):
                r, z = pl.average_power(d, w)
                assert 0.0 <= r <= 1.0 and 0.0 <= z <= 1.0

    def test_array_distance_matches_scalar_calls(self):
        ds = np.array([0.0, 0.5, 2.0, 5.0])
        robust, ztest = pl.average_power(ds, 0.3)
        for i, d in enumerate(ds):
            assert (robust[i], ztest[i]) == pl.average_power(float(d), 0.3)


class TestLengthRatios:
    def test_robust_vs_parametric_bounded(self):
        # kappa = 3 keeps the robust interval within ~11.4% of parametric
        ws = np.linspace(0.1, 0.99, 25)
        m2 = 1.0 / ws - 1.0
        chi = wc.critical_values(m2, kappa=3.0, alpha=0.05)
        ratio = chi * np.sqrt(ws) / Z975
        assert np.max(ratio) <= 1.114 + 0.005

    def test_second_moment_only_vs_unshrunk(self):
        w = 0.1 / 1.1
        chi = wc._cva_scalar(10.0, None, 0.05)
        assert chi * w / Z975 <= 0.56 + 0.01
