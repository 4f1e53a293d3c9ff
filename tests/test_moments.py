import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shrinkci import moments as mom
from shrinkci import pipeline as pl

_MAX = np.finfo(float).max
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-54, 2.0**-1074, -(2.0**-1074),
            2.0**-1022, 2.0**-1022 - 2.0**-1074, _MAX, -_MAX, 1e308, -1e308]
_value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_SPECIAL))


def _fsum_or_error(row):
    try:
        return math.fsum(row)
    except OverflowError:
        return OverflowError


@st.composite
def _rows(draw):
    """Rows of mixed floats, some cancelling exactly (a row and its
    negation) and some half-ulp ties such as [1.0, 2**-53]."""
    row = draw(st.lists(_value, max_size=40))
    kind = draw(st.sampled_from(["plain", "cancel", "tie"]))
    if kind == "cancel":
        row = row + [-v for v in draw(st.permutations(row))] + draw(st.lists(_value, max_size=2))
    elif kind == "tie":
        x = draw(st.floats(min_value=2.0**-900, max_value=2.0**900))
        k = draw(st.integers(0, 3))
        row = row + [x, math.ulp(x) / 2.0 * draw(st.sampled_from([1.0, -1.0])), *[0.0] * k]
    return row


class TestRowSums:
    @given(st.lists(_rows(), min_size=1, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_equals_fsum_bit_for_bit(self, rows):
        width = max(len(r) for r in rows)
        want = [_fsum_or_error(r) for r in rows]
        # zeros pad every row to one width; they change no sum
        ok = [r + [0.0] * (width - len(r)) for r, w in zip(rows, want) if isinstance(w, float)]
        if ok:
            got = mom._row_sums(np.array(ok, dtype=float).reshape(len(ok), width))
            assert [v.hex() for v in got.tolist()] == [w.hex() for w in want if isinstance(w, float)]
        for r, w in zip(rows, want):
            if not isinstance(w, float):
                with pytest.raises(w):
                    mom._row_sums(np.array([r]))

    @pytest.mark.parametrize("row", [[1.0, 2.0**-53], [1.0, -(2.0**-54)], [2.0**-53, 1.0, 2.0**-105],
                                     [1e16, 1.0, -1e16], [], [-0.0, -0.0]])
    def test_adversarial_rows(self, row):
        got = mom._row_sums(np.array(row, dtype=float)[None, :])
        assert got.shape == (1,) and got[0].hex() == math.fsum(row).hex()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((200, 301)) * np.exp(rng.uniform(-30, 30, (200, 301)))
        perm = rng.permuted(a, axis=1)
        np.testing.assert_array_equal(mom._row_sums(perm), mom._row_sums(a))
        np.testing.assert_array_equal(mom._row_sums(a[:, ::-1]), mom._row_sums(a))

    def test_leading_axes_kept(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(mom._row_sums(a), a.sum(axis=-1))
        assert mom._row_sums(np.arange(5.0)) == 10.0

    def test_normal_sample_needs_no_fallback(self, monkeypatch):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or fsum(row))
        a = np.random.default_rng(32).standard_normal((500, 1522))
        got = mom._row_sums(a)
        assert calls == []
        monkeypatch.undo()
        assert got.tolist() == [math.fsum(row) for row in a]


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


    @pytest.mark.parametrize("se_big", [1e40, 1e80])
    def test_extreme_sigma_floors_finite(self, se_big):
        # the floor sums take sigma's power-of-two scale: sigma^8 overflowed
        # at se = 1e40.  With one sigma dominating, the floors are
        # sigma^2 / 100 and 1 + 32 * 50
        sigma = np.ones(200)
        sigma[17] = se_big
        mu2, kappa = mom.pmt(sigma, np.full(200, 1 / 200), -1.0, 1.0)
        assert mu2 == pytest.approx(se_big**2 / 100, rel=1e-12)
        assert kappa == pytest.approx(1601.0, rel=1e-12)


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

    def test_zero_variance_estimate_falls_back_to_pmt(self):
        # constant y and sigma: every w2 is the same, so the variance of their
        # mean is estimated as 0, and the posterior mean of mu2 would be 0
        data = mom.Units(np.ones(4), np.ones(4))
        with pytest.warns(UserWarning, match="falling back to PMT"):
            est = mom.estimate_moments(data, variant="fplib")
        pmt = mom.estimate_moments(data, variant="pmt")
        assert est.fplib_fallback
        assert (est.mu2, est.kappa) == (pmt.mu2, pmt.kappa)


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

    def test_zero_weight_neighborhood_rejected(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        omega = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="weights must not all be zero"):
            mom.nn_moments(np.zeros(6), np.ones(6), X, omega, 2)

    def test_rejects_bad_neighbor_count(self):
        data = mom.Units(np.zeros(5) + 1.0, np.ones(5))
        with pytest.raises(ValueError):
            mom.nn_moments(np.zeros(5), np.ones(5), np.ones((5, 1)), np.ones(5), 1)


class TestNearestNeighborExtremeUnit:
    """One unit far out among 200 with se = 1.  Each neighborhood takes its
    own power-of-two scales, and CV the global one: with one scale per call
    the outlier flushed the floors of every neighborhood without it to
    0 / 0, and CV's squared errors overflowed, so every J scored inf."""

    def units(self, kind, big):
        rng = np.random.default_rng(0)
        y, se = rng.normal(size=201), np.ones(201)
        X = np.column_stack([np.ones(201), rng.normal(size=201)])
        if kind == "se":
            se[200] = big
            y[200] *= big
        else:
            y[200] = big
        return mom.Units(y, se, X)

    @pytest.mark.parametrize("neighbors", [30, None])
    @pytest.mark.parametrize("kind,big", [("se", 1e80), ("se", 1e150), ("y", 1e100), ("y", 1e150)])
    def test_floors_kept(self, kind, big, neighbors):
        est = mom.estimate_moments(self.units(kind, big), variant="nn", neighbors=neighbors)
        mu2, kappa = est.mu2_per_unit, est.kappa_per_unit
        assert np.all(np.isfinite(mu2)) and np.all(mu2 > 0)
        assert np.all(np.isfinite(kappa)) and np.all(kappa >= 1.0)
        if neighbors is None:
            assert all(math.isfinite(err) for err in est.extras["cv_errors"].values())
        res = pl.fit(self.units(kind, big), moment_variant="nn", neighbors=neighbors)
        assert all(e is None for e in res.error)
        assert np.all(np.isfinite(res.lower) & np.isfinite(res.upper))

    def test_cv_order_kept_under_power_of_two_scale(self):
        # the scores are those of the data divided by 2**e, e = 0 inside
        # [2**-65, 2**64): for data scaled by 2**k, 16**(k - e) times the
        # unscaled ones, bit for bit, in the same order
        rng = np.random.default_rng(4)
        resid, sigma = rng.normal(size=120), rng.uniform(0.5, 1.5, 120)
        X = np.column_stack([np.ones(120), rng.normal(size=120)])
        omega = np.full(120, 1 / 120)
        grid = [5, 10, 40, 119]
        best, base = mom.cv_select_neighbors(resid, sigma, X, omega, grid)
        for k in (-300, 40, 100, 300):
            j, scaled = mom.cv_select_neighbors(np.ldexp(resid, k), np.ldexp(sigma, k), X, omega, grid)
            assert j == best
            e = k + math.frexp(max(np.abs(resid).max(), sigma.max()))[1]
            e = e if abs(e) > 64 else 0
            assert scaled == {g: math.ldexp(err, 4 * (k - e)) for g, err in base.items()}


class TestBlockedNeighbors:
    """The blocked neighbor order, CV errors and nn moments against the full
    n x n references in ``tests/oracles.py``, bit for bit, on tied
    integer-valued covariates and with at least three blocks."""

    N = 50

    @pytest.fixture
    def data(self, monkeypatch):
        rng = np.random.default_rng(21)
        n = self.N
        X = np.column_stack([np.ones(n), rng.integers(0, 3, n)])
        sigma = rng.choice([0.5, 2.0], n)
        resid = rng.normal(0.0, 1.5, n)
        omega = rng.uniform(0.5, 1.5, n)
        coords = mom._standardized_coords(X, sigma)
        # 16 rows a block: blocks of 16, 16, 16 and 2 rows
        monkeypatch.setattr(mom, "_NN_BLOCK_ELEMENTS", 16 * n * coords.shape[1])
        return resid, sigma, X, omega, coords

    def test_blocked_order_equals_full_lexsort(self, data):
        coords = data[4]
        blocks = list(mom._neighbor_blocks(coords))
        assert len(blocks) >= 3 and 0 < len(blocks[-1][0]) < len(blocks[0][0])
        np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), np.arange(self.N))
        np.testing.assert_array_equal(np.vstack([b[1] for b in blocks]), oracles.neighbor_order_full(coords))

    @pytest.mark.parametrize("grid", [[2, 3], [2, 7, 20, 49]])
    def test_cv_errors_equal_reference(self, data, grid):
        resid, sigma, X, omega, coords = data
        _, errors = mom.cv_select_neighbors(resid, sigma, X, omega, grid)
        assert errors == oracles.cv_errors_full(resid, sigma, coords, omega, grid)

    @pytest.mark.parametrize("neighbors", [2, 17, 50])
    def test_nn_moments_equal_reference(self, data, neighbors):
        resid, sigma, X, omega, coords = data
        mu2, kappa = mom.nn_moments(resid, sigma, X, omega, neighbors)
        mu2_ref, kappa_ref = oracles.nn_moments_loop(resid, sigma, coords, omega, neighbors)
        np.testing.assert_array_equal(mu2, mu2_ref)
        np.testing.assert_array_equal(kappa, kappa_ref)

    def test_estimate_moments_with_cv_equals_reference(self, data):
        resid, sigma, X, omega, coords = data
        rng = np.random.default_rng(22)
        units = mom.Units(rng.normal(0.0, 1.5, self.N), sigma, X)
        est = mom.estimate_moments(units, variant="nn")
        r = est.residuals
        assert est.extras["cv_errors"] == oracles.cv_errors_full(
            r, sigma, coords, np.full(self.N, 1.0 / self.N), est.extras["cv_errors"]
        )
        mu2_ref, kappa_ref = oracles.nn_moments_loop(r, sigma, coords, np.full(self.N, 1.0 / self.N), est.neighbors)
        np.testing.assert_array_equal(est.mu2_per_unit, mu2_ref)
        np.testing.assert_array_equal(est.kappa_per_unit, kappa_ref)


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


class TestWeights:
    @pytest.mark.parametrize("weights", [np.ones(5), "precision", None])
    def test_only_the_three_names(self, weights):
        data = mom.Units(np.arange(5.0), np.ones(5))
        with pytest.raises(ValueError, match="uniform.*inverse_variance.*record"):
            mom.estimate_moments(data, weights=weights)

    def test_inverse_variance_valid_and_consistent(self):
        rng = np.random.default_rng(15)
        n = 50_000
        theta = rng.normal(0, math.sqrt(0.4), n)
        sigma = rng.uniform(0.5, 2.0, n)
        y = theta + sigma * rng.standard_normal(n)
        data = mom.Units(y, sigma)
        for variant in ("pmt", "fplib"):
            est = mom.estimate_moments(data, variant=variant, weights="inverse_variance")
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

    @pytest.mark.parametrize("k", [-300, -70, 30, 70, 300])
    def test_pmt_power_of_two_scale_exact(self, k):
        # past 2**64 the moments are taken on data scaled by a power of two,
        # so data scaled by 2**k give the moments scaled by 4**k, bit for bit
        rng = np.random.default_rng(14)
        y = rng.normal(0, 1, 300)
        sigma = rng.uniform(0.5, 1.5, 300)
        base = mom._pmt_rows(y - y.mean(), sigma, np.full(300, 1 / 300))
        ys, ss = np.ldexp(y, k), np.ldexp(sigma, k)
        scaled = mom._pmt_rows(ys - ys.mean(), ss, np.full(300, 1 / 300))
        mu2_uc, mu4_uc, mu2, kappa = (float(v) for v in base)
        assert float(scaled[0]) == math.ldexp(mu2_uc, 2 * k)
        assert float(scaled[2]) == math.ldexp(mu2, 2 * k)
        assert float(scaled[3]) == kappa
        if abs(4 * k) < 1000:
            assert float(scaled[1]) == math.ldexp(mu4_uc, 4 * k)

    @pytest.mark.parametrize("k", [-300, -100, 100, 300])
    def test_fplib_power_of_two_scale(self, k):
        # FPLIB runs on the power-of-two scale of the PMT moments: past 2**64
        # data scaled by 2**k give the same moments as at 2**70, scaled by
        # 4**(k - 70), bit for bit, and those of the unscaled data closely
        rng = np.random.default_rng(15)
        y = rng.normal(0, 1.5, 300)
        sigma = rng.uniform(0.5, 1.5, 300)
        est = lambda j: mom.estimate_moments(mom.Units(np.ldexp(y, j), np.ldexp(sigma, j)), variant="fplib")
        base, ref, scaled = est(0), est(70), est(k)
        assert not scaled.fplib_fallback
        assert scaled.mu2 == math.ldexp(ref.mu2, 2 * (k - 70))
        assert scaled.kappa == ref.kappa
        assert scaled.mu2 == pytest.approx(math.ldexp(base.mu2, 2 * k), rel=1e-12)
        assert scaled.kappa == pytest.approx(base.kappa, rel=1e-12)


class TestExtremeStandardErrors:
    """One unit's se far above the rest must not spoil the batch."""

    def units(self, se_big):
        rng = np.random.default_rng(0)
        y, se = rng.normal(size=200), np.ones(200)
        se[17] = se_big
        y[17] *= se_big
        return mom.Units(y, se)

    @pytest.mark.parametrize("se_big", [1e70, 1e80, 1e154])
    def test_moments_and_fit_finite(self, se_big):
        est = mom.estimate_moments(self.units(se_big))
        # the outlier dominates: mu2 is of order se_big^2 / n, kappa finite
        assert math.isfinite(est.mu2) and est.mu2 > 1e-3 * se_big**2 / 200
        assert math.isfinite(est.kappa) and est.kappa >= 1.0
        for method in ("parametric", "robust_mu2", "robust_mu2_kappa"):
            res = pl.fit(self.units(se_big), method=method)
            assert all(e is None for e in res.error), method
            assert np.all(np.isfinite(res.lower) & np.isfinite(res.upper)), method

    @pytest.mark.parametrize("se_big", [1e40, 1e80, 1e154])
    def test_fplib_finite(self, se_big):
        # the outlier's w4 = eps^4 - ... overflowed FPLIB's variance estimate
        est = mom.estimate_moments(self.units(se_big), variant="fplib")
        assert not est.fplib_fallback
        assert math.isfinite(est.mu2) and est.mu2 > 1e-3 * se_big**2 / 200
        assert math.isfinite(est.kappa) and est.kappa >= 1.0

    def test_square_overflow_rejected(self):
        with pytest.raises(mom.UnitError, match="unit 17: sigma\\^2 must be finite"):
            self.units(1e155)


class TestExtremeEstimates:
    """One unit's y far above the rest, with ordinary standard errors."""

    def units(self, y_big):
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        y[17] = y_big
        return mom.Units(y, np.ones(200))

    def test_moments_and_fit_finite(self):
        # the PMT floors take their own power-of-two scale from sigma, so the
        # scale of the huge residual no longer flushes every sigma^4 to zero
        est = mom.estimate_moments(self.units(1e100))
        assert est.mu2 == pytest.approx(1e200 / 200, rel=1e-2)
        assert math.isfinite(est.kappa) and est.kappa >= 1.0
        for method in ("parametric", "robust_mu2", "robust_mu2_kappa"):
            res = pl.fit(self.units(1e100), method=method)
            assert all(e is None for e in res.error), method
            assert np.all(np.isfinite(res.lower) & np.isfinite(res.upper)), method

    def test_fplib_finite(self):
        # FPLIB's variance estimates overflowed in eps^4 at y = 1e100
        est = mom.estimate_moments(self.units(1e100), variant="fplib")
        assert not est.fplib_fallback
        assert est.mu2 == pytest.approx(1e200 / 200, rel=0.5)
        assert math.isfinite(est.kappa) and est.kappa >= 1.0
        res = pl.fit(self.units(1e100), method="robust_mu2_kappa", moment_variant="fplib")
        assert all(e is None for e in res.error)
        assert np.all(np.isfinite(res.lower) & np.isfinite(res.upper))

    def test_own_floor_scale_exact(self):
        # one residual at 2**70, sigma near 1: the floors are taken on
        # sigma's scale and the rest on the residuals', and the moments match
        # those of the same data scaled into range by 2**-10, bit for bit
        rng = np.random.default_rng(3)
        resid, sigma = rng.normal(size=50), rng.uniform(0.5, 1.5, 50)
        resid[0] = 2.0**70
        om = np.full(50, 1 / 50)
        big = mom._pmt_rows(resid, sigma, om)
        small = mom._pmt_rows(np.ldexp(resid, -10), np.ldexp(sigma, -10), om)
        assert float(big[2]) == math.ldexp(float(small[2]), 20)
        assert float(big[3]) == float(small[3])

    @pytest.mark.parametrize("y_big", [1e200, 1e300, -1e200])
    def test_square_overflow_rejected(self, y_big):
        with pytest.raises(mom.UnitError, match="unit 17: y\\^2 must be finite"):
            self.units(y_big)
