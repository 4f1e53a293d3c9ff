import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import poisson as poisson_dist

import oracles
from shrinkci import momentlp as mlp
from shrinkci import nonlinear as nl
from shrinkci import worstcase as wc


class TestSoftThreshold:
    def test_dead_zone(self):
        assert nl.soft_threshold(0.9, 2.0) == 0.0  # threshold = 1
        assert nl.soft_threshold(-1.0, 2.0) == 0.0

    def test_unit_excess(self):
        thr = math.sqrt(2.0 / 0.5)
        assert nl.soft_threshold(thr + 1.0, 0.5) == pytest.approx(1.0, rel=1e-14)
        assert nl.soft_threshold(-(thr + 1.0), 0.5) == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize("y", [-3.0, -1.2, 0.4, 1.7, 4.0])
    def test_equals_posterior_mode(self, y):
        # numeric maximization of the log posterior under the Laplace prior
        mu2, sigma = 0.8, 1.0
        lam = math.sqrt(2.0 / mu2)
        neg_log_post = lambda t: 0.5 * ((y - t) / sigma) ** 2 + lam * abs(t)
        res = minimize_scalar(neg_log_post, bounds=(-10, 10), method="bounded",
                              options={"xatol": 1e-10})
        assert nl.soft_threshold(y, mu2) == pytest.approx(res.x, abs=1e-6)


class TestHpdInterval:
    def test_closed_form_matches_level_set_bisection(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 10:
            mu2 = rng.uniform(0.1, 2.0)
            sigma = rng.uniform(0.5, 1.5)
            y = rng.uniform(-4.0, 4.0)
            chi = rng.uniform(0.5, 3.0)
            cfg = nl.SoftThresholdConfig(mu2=mu2, sigma=sigma)
            if nl._hpd_or_none(y, cfg, chi) is None:
                continue  # the level set can be empty; draw another case
            checked += 1
            lo, hi = nl.hpd_interval(y, cfg, chi)
            lam = math.sqrt(2.0 / mu2)
            c = float(nl._posterior_log_const(y, cfg))
            level = (
                lambda t: c - t * t / (2 * sigma**2) + y * t / sigma**2 - lam * abs(t) + chi
            )
            # posterior mode: soft threshold at lambda * sigma^2
            mode = math.copysign(max(abs(y) - lam * sigma**2, 0.0), y)
            assert level(mode) > 0
            lo_ref = brentq(level, mode - 40 * sigma, mode, xtol=1e-12)
            hi_ref = brentq(level, mode, mode + 40 * sigma, xtol=1e-12)
            assert lo == pytest.approx(lo_ref, abs=1e-6)
            assert hi == pytest.approx(hi_ref, abs=1e-6)
            assert lo <= mode <= hi

    def test_contains_estimate_at_chi_zero_when_nonempty(self):
        # tight prior keeps the posterior-mode density above the chi = 0
        # level for these observations
        cfg = nl.SoftThresholdConfig(mu2=0.05, sigma=1.0)
        for y in (-2.0, 0.0, 1.5, 4.0):
            lo, hi = nl.hpd_interval(y, cfg, 0.0)
            assert lo <= nl.soft_threshold(y, cfg.mu2) <= hi

    def test_empty_set_raises(self):
        # diffuse prior, observation at zero: the posterior density never
        # reaches 1, so the level set at chi = 0 is empty
        cfg = nl.SoftThresholdConfig(mu2=1.0, sigma=1.0)
        with pytest.raises(nl.EmptyHpdError):
            nl.hpd_interval(0.0, cfg, 0.0)

    def test_widens_in_chi(self):
        cfg = nl.SoftThresholdConfig(mu2=0.5, sigma=1.0)
        prev = None
        for chi in (0.5, 1.0, 2.0, 4.0):
            lo, hi = nl.hpd_interval(1.2, cfg, chi)
            if prev is not None:
                assert lo <= prev[0] + 1e-12 and hi >= prev[1] - 1e-12
            prev = (lo, hi)


class TestSoftThresholdNoncoverage:
    def test_default_grids_and_truncation(self):
        cfg = nl.SoftThresholdConfig(mu2=0.2)
        assert len(cfg.theta_grid) == 500
        assert cfg.theta_grid[0] == -10.0 and cfg.theta_grid[-1] == 10.0
        assert cfg.y_truncation == (-10.0, 10.0)

    def test_values_are_probabilities_and_monotone_in_chi(self):
        cfg = nl.SoftThresholdConfig(mu2=0.2)
        grid = np.asarray(cfg.theta_grid)[::25]
        r1 = nl.soft_threshold_noncoverage(grid, cfg, 1.0)
        r2 = nl.soft_threshold_noncoverage(grid, cfg, 2.5)
        assert np.all((0 <= r1) & (r1 <= 1))
        assert np.all(r2 <= r1 + 1e-12)

    def test_step_halving_stability(self):
        # the Newton edges agree with a brentq-refined scan on a finer grid
        cfg = nl.SoftThresholdConfig(mu2=0.3)
        theta = np.array([-2.0, -0.3, 0.0, 0.7, 2.5])
        base = nl.soft_threshold_noncoverage(theta, cfg, 1.5)
        fine = _noncoverage_refined(theta, cfg, 1.5, points=8001)
        np.testing.assert_allclose(base, fine, atol=1e-6)

    def test_laplace_calibration_and_lengths(self):
        cfg = nl.SoftThresholdConfig(mu2=0.2, sigma=1.0, alpha=0.05)
        chi_r, chi_p = nl.soft_threshold_ebci(cfg)
        assert chi_r > chi_p  # worst case dominates the baseline
        avg = nl._laplace_average_noncoverage(cfg, chi_p)
        assert avg == pytest.approx(0.05, abs=2e-4)
        unshrunk = 2 * 1.959963984540054
        assert nl.soft_threshold_expected_length(cfg, chi_p) <= 0.51 * unshrunk
        # robust chi makes the grid worst case exactly alpha (within grid tol)
        worst = nl.soft_threshold_worst_noncoverage(cfg, chi_r)
        assert worst == pytest.approx(0.05, abs=2e-3)

    @pytest.mark.parametrize("chi", [1.5, 3.0])
    @pytest.mark.parametrize("mu2", [1.0, 5.0, 20.0])
    def test_laplace_average_covers_all_theta(self, mu2, chi):
        # the prior's mass beyond the y truncation counts: at mu2 = 20 and
        # chi = 1.5 it is 0.04 of the 0.2987 that quad gives over all theta
        cfg = nl.SoftThresholdConfig(mu2=mu2)
        f = lambda th: nl._laplace_pdf(th, mu2) * nl.soft_threshold_noncoverage(th, cfg, chi)[0]
        up = cfg.y_truncation[1]
        want = 2.0 * (quad(f, 0.0, up, limit=200)[0] + quad(f, up, np.inf, limit=200)[0])
        assert nl._laplace_average_noncoverage(cfg, chi) == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("chi", [0.0, 0.5, 1.5, 3.0, 6.0])
    @pytest.mark.parametrize("mu2", [0.05, 0.2, 1.0])
    @pytest.mark.parametrize(
        "sigma, truncation",
        [(1.0, (-10.0, 10.0)), (2.0, (-10.0, 10.0)), (1.0, (-2.0, 2.0))],
        ids=["default", "sigma2", "narrow"],
    )
    def test_lockstep_refinement_matches_scalar_oracle(self, sigma, truncation, mu2, chi):
        # the narrow truncation makes covered runs reach the ends of the y range
        cfg = nl.SoftThresholdConfig(mu2=mu2, sigma=sigma, y_truncation=truncation)
        theta = np.asarray(cfg.theta_grid)
        got = nl.soft_threshold_noncoverage(theta, cfg, chi)
        want = _noncoverage_refined(theta, cfg, chi, points=2001)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


    @pytest.mark.parametrize("chi", [0.0, 0.5, 1.5, 3.0, 6.0])
    @pytest.mark.parametrize("mu2", [0.05, 0.2, 1.0])
    @pytest.mark.parametrize(
        "sigma, truncation",
        [(1.0, (-10.0, 10.0)), (2.0, (-10.0, 10.0)), (1.0, (-2.0, 2.0))],
        ids=["default", "sigma2", "narrow"],
    )
    def test_matches_fine_scan_oracle(self, sigma, truncation, mu2, chi):
        # every 4th theta keeps the 20001-point margin matrix at 20 MB
        cfg = nl.SoftThresholdConfig(mu2=mu2, sigma=sigma, y_truncation=truncation)
        theta = np.asarray(cfg.theta_grid)[::4]
        got = nl.soft_threshold_noncoverage(theta, cfg, chi)
        want = _noncoverage_refined(theta, cfg, chi, points=20001)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_even_in_theta(self):
        cfg = nl.SoftThresholdConfig(mu2=0.2)
        r = nl.soft_threshold_noncoverage(np.asarray(cfg.theta_grid), cfg, 1.5)
        assert np.max(np.abs(r - r[::-1])) <= 1e-12

    @pytest.mark.parametrize("offset", [1e-6, 0.0, -1e-9], ids=["narrow", "tangent", "barely_empty"])
    @pytest.mark.parametrize("theta", [1.0, 2.0, 3.0])
    def test_narrow_run_against_brentq_oracle(self, theta, offset):
        # chi a hair above the level at which theta is first covered: the
        # covered run is far narrower than a 0.01-spaced scan could resolve;
        # at that level, or a hair below it, nothing is covered
        cfg = nl.SoftThresholdConfig(mu2=0.05)
        g = lambda y, chi: float(nl._covered_margin(theta, np.asarray(y), cfg, chi))
        lam_s2 = math.sqrt(2.0 / cfg.mu2) * cfg.sigma**2
        top = minimize_scalar(
            lambda y: -g(y, 0.0), bounds=(theta - lam_s2, min(theta + lam_s2, 10.0)),
            method="bounded", options={"xatol": 1e-12},
        ).x
        chi = -g(top, 0.0) + offset
        assert chi > 0
        got = nl.soft_threshold_noncoverage(theta, cfg, chi)[0]
        if offset <= 0:
            # at the tangent level a margin rounded by about 1e-16 can open a
            # run at most sqrt(1e-16 / curvature), about 1e-8, wide
            assert got == pytest.approx(1.0, abs=1e-8 if offset == 0 else 0.0)
            return
        left = brentq(g, -10.0, top, args=(chi,), xtol=1e-14)
        right = brentq(g, top, 10.0, args=(chi,), xtol=1e-14)
        assert 0 < right - left < 0.01
        want = 1.0 - (ndtr(right - theta) - ndtr(left - theta))
        assert got < 1.0
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("mu2, theta", [(1.0, 0.3), (1.0, 0.7), (10.0, 1.0)])
    def test_near_tangent_run_at_wide_truncation(self, mu2, theta):
        # chi 1e-15 above the level at which theta is first covered, with the
        # solves starting at +-1e4, about 40 halvings from the tangent: the
        # covered run is about 1e-7 wide.  Each edge is fixed only to the
        # margin's rounding (about 3e-16) over its slope there (about 4e-8),
        # about 1e-8 in y, so the bound is 1e-8 in mass, not the 1e-10 of the
        # wider runs; a run taken for empty misses it by over 1e-8
        cfg = nl.SoftThresholdConfig(mu2=mu2, y_truncation=(-1e4, 1e4))
        margin = lambda y, chi: float(nl._covered_margin(theta, np.float64(y), cfg, chi))
        rising = lambda y: float(nl._covered_margin(theta, np.float64(y), cfg, 0.0, slope=True)[1]) > 0
        top = max(_bisect_floats(rising, -1e4, 1e4), key=lambda y: margin(y, 0.0))
        chi = -margin(top, 0.0) + 1e-15
        assert chi > 0 and margin(top, chi) > 0
        covered = lambda y: margin(y, chi) > 0
        left = _bisect_floats(covered, -1e4, top)[1]
        right = _bisect_floats(covered, top, 1e4)[0]
        want = 1.0 - (ndtr(right - theta) - ndtr(left - theta))
        got = nl.soft_threshold_noncoverage(theta, cfg, chi)[0]
        assert got < 1.0
        assert got == pytest.approx(want, abs=1e-8)

    def test_step_cap_raises(self, monkeypatch):
        # the cap grows with the truncation width; an entry still open at the
        # cap raises, with no second solver behind it
        cfg = nl.SoftThresholdConfig(mu2=0.2)
        assert nl._newton_steps(cfg) == 61
        assert nl._newton_steps(nl.SoftThresholdConfig(mu2=0.2, y_truncation=(-1e8, 1e8))) == 84
        monkeypatch.setattr(nl, "_newton_steps", lambda cfg: 1)
        with pytest.raises(RuntimeError, match="still open after 1 Newton steps"):
            nl.soft_threshold_noncoverage(np.asarray(cfg.theta_grid), cfg, 1.5)

    def test_step_below_the_float_spacing_ends_an_edge(self, monkeypatch):
        # a margin whose root lies 1.5e-12 above y = 2e4, where the float
        # spacing is 3.6e-12: the iterate cannot move off y = 2e4, so only a
        # step at most the spacing there ends the solve before the cap.  The
        # margin is symmetric under (theta, y) -> (-theta, -y), as the real
        # one is, so the right edge of theta = 2e4 is the upper end
        def margin(theta, y, cfg, chi, slope=False):
            m = np.sign(theta) * y - np.abs(theta) - 1.5e-12
            return (m, np.sign(theta) * np.ones_like(m)) if slope else m

        monkeypatch.setattr(nl, "_covered_margin", margin)
        cfg = nl.SoftThresholdConfig(mu2=0.2, y_truncation=(-1e5, 1e5))
        assert nl.soft_threshold_noncoverage(2e4, cfg, 0.0)[0] == 0.5

    def test_margin_is_symmetric_under_reflection(self):
        # the right edge at theta is solved as minus the left edge at -theta,
        # which holds bit for bit only if the margin at (-theta, -y) is the
        # margin at (theta, y) and its slope is exactly negated
        rng = np.random.default_rng(31)
        for _ in range(40):
            cfg = nl.SoftThresholdConfig(mu2=10.0 ** rng.uniform(-1.5, 1.5), sigma=10.0 ** rng.uniform(-1.3, 0.85))
            chi = rng.uniform(0.0, 8.0)
            theta = np.concatenate([[0.0, -0.0, 0.0, -0.0], rng.normal(0.0, 5.0, 200)])
            y = np.concatenate([[0.0, 0.0, -0.0, -0.0], 10.0 ** rng.uniform(-3.0, 5.0, 200) * rng.choice([-1.0, 1.0], 200)])
            m, dm = nl._covered_margin(theta, y, cfg, chi, slope=True)
            m_r, dm_r = nl._covered_margin(-theta, -y, cfg, chi, slope=True)
            np.testing.assert_array_equal(m_r, m)
            np.testing.assert_array_equal(dm_r, -dm)

    def test_newton_settles_the_sweep_in_few_steps(self, monkeypatch):
        # an empty run must end where an iterate passes the maximum, not by
        # running to the step cap (58 at +-2, 61 at +-10); the sweep needs 12
        evals = []
        margin = nl._covered_margin

        def counted(*args, **kwargs):
            evals[-1] += 1
            return margin(*args, **kwargs)

        monkeypatch.setattr(nl, "_covered_margin", counted)
        for sigma, truncation in [(1.0, (-10.0, 10.0)), (2.0, (-10.0, 10.0)), (1.0, (-2.0, 2.0))]:
            for mu2 in (0.05, 0.2, 1.0):
                cfg = nl.SoftThresholdConfig(mu2=mu2, sigma=sigma, y_truncation=truncation)
                for chi in (0.0, 0.5, 1.5, 3.0, 6.0):
                    evals.append(0)
                    nl.soft_threshold_noncoverage(np.asarray(cfg.theta_grid), cfg, chi)
        assert len(evals) == 45 and max(evals) <= 16

    @pytest.mark.parametrize(
        "truncation", [(-2.0, 10.0), (-10.0, 2.0), (-math.inf, math.inf)],
        ids=["shifted_up", "shifted_down", "infinite"],
    )
    def test_truncation_must_be_finite_and_symmetric(self, truncation):
        # the Laplace average integrates theta over [0, y_hi] and doubles it,
        # and the step cap needs a finite width
        with pytest.raises(ValueError, match="y_truncation must be finite and symmetric"):
            nl.SoftThresholdConfig(mu2=0.2, y_truncation=truncation)

    @pytest.mark.parametrize("chi", [0.0, 20.0])
    @pytest.mark.parametrize("mu2", [1e-3, 1e3])
    @pytest.mark.parametrize("sigma", [0.1, 10.0])
    def test_extreme_configs_free_of_runtime_warnings(self, sigma, mu2, chi):
        cfg = nl.SoftThresholdConfig(mu2=mu2, sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = nl.soft_threshold_noncoverage(np.asarray(cfg.theta_grid), cfg, chi)
            length = nl.soft_threshold_expected_length(cfg, chi)
        assert np.all((0.0 <= r) & (r <= 1.0))
        assert math.isfinite(length) and length >= 0.0

    def test_small_sigma_weak_prior_is_translation_invariant(self):
        # sigma = 0.1 puts erfcx arguments below -26.6 once |y| > 3.8: the
        # normalizer must be summed on the log scale, not overflow to a
        # margin of -inf that marks every such theta as never covered
        cfg = nl.SoftThresholdConfig(mu2=1e3, sigma=0.1)
        r = nl.soft_threshold_noncoverage(np.array([2.0, 4.0, 8.0, 9.0]), cfg, 1.0)
        np.testing.assert_allclose(r, r[0], rtol=0.0, atol=1e-9)
        assert r[0] < 0.05

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("mu2", [0.05, 1.0, 1e3])
    def test_log_const_and_slope_match_quadrature(self, sigma, mu2):
        # c(y) = -log of the normalizer, and -sigma^2 c'(y) = E[t | y];
        # the integrand is centered at y so that quad sees no overflow
        cfg = nl.SoftThresholdConfig(mu2=mu2, sigma=sigma)
        lam, s2 = math.sqrt(2.0 / mu2), sigma**2
        for y in (-9.0, 0.0, 0.5, 8.0):
            dens = lambda t: math.exp(-((t - y) ** 2) / (2 * s2) - lam * abs(t))
            pts = [0.0, y] if abs(y) < 20 * sigma else [0.0]
            lim = (min(y, 0.0) - 40 * sigma, max(y, 0.0) + 40 * sigma)
            z = quad(dens, *lim, points=pts, epsabs=0, epsrel=1e-12, limit=400)[0]
            mean = quad(lambda t: t * dens(t), *lim, points=pts, epsabs=1e-12 * sigma * z, epsrel=1e-12, limit=400)[0] / z
            c, dc = nl._posterior_log_const(y, cfg, slope=True)
            assert float(c) == pytest.approx(-y * y / (2 * s2) - math.log(z), abs=1e-9)
            assert -s2 * float(dc) == pytest.approx(mean, abs=1e-8 * max(1.0, sigma))


def _bisect_floats(pos, lo, hi):
    """Adjacent floats (a, b) in [lo, hi] with pos(a) == pos(lo) != pos(b),
    bisecting in the order of the floats' bit patterns."""
    key = lambda x: int(np.float64(abs(x)).view(np.int64)) * (-1 if x < 0 else 1)
    val = lambda k: float(np.int64(abs(k)).view(np.float64)) * (-1 if k < 0 else 1)
    a, b, side = key(lo), key(hi), pos(lo)
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (mid, b) if pos(val(mid)) == side else (a, mid)
    return val(a), val(b)


def _noncoverage_refined(theta, cfg, chi, points):
    out = np.empty(len(theta))
    y_lo, y_hi = cfg.y_truncation
    ys = np.linspace(y_lo, y_hi, points)
    margin = nl._covered_margin(np.asarray(theta)[:, None], ys[None, :], cfg, chi)
    for i, th in enumerate(theta):
        out[i] = 1.0 - _covered_mass(float(th), ys, margin[i], cfg, chi)
    return out


def _covered_mass(th, ys, margin_row, cfg, chi):
    """Scalar oracle: refine each sign flip of one theta's margin by brentq,
    then sum the normal mass of each run whose midpoint is covered."""
    sign = margin_row > 0
    if not sign.any():
        return 0.0
    edges = []
    g = lambda y: float(nl._covered_margin(th, np.asarray(y), cfg, chi))
    flips = np.flatnonzero(sign[:-1] != sign[1:])
    for j in flips:
        edges.append(brentq(g, ys[j], ys[j + 1], xtol=1e-12))
    breaks = [ys[0], *edges, ys[-1]]
    mass = 0.0
    for a, b in zip(breaks, breaks[1:]):
        if g(0.5 * (a + b)) > 0:
            mass += float(
                ndtr((b - th) / cfg.sigma) - ndtr((a - th) / cfg.sigma)
            )
    return mass


class TestHpdVectorized:
    @pytest.mark.parametrize("chi", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("mu2", [0.05, 0.2, 1.0])
    def test_expected_length_equals_scalar_loop(self, mu2, chi):
        cfg = nl.SoftThresholdConfig(mu2=mu2)
        assert nl.soft_threshold_expected_length(cfg, chi) == oracles.expected_length_loop(cfg, chi)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 2.0])
    def test_hpd_sets_equal_scalar_quadratics(self, sigma):
        cfg = nl.SoftThresholdConfig(mu2=0.2, sigma=sigma)
        ys = np.linspace(-10.0, 10.0, 401)
        for chi in (0.0, 0.5, 3.0):
            lo, hi, ok = nl._hpd_bounds(ys, cfg, chi)
            for y, a, b, nonempty in zip(ys, lo, hi, ok):
                want = oracles.hpd_scalar(float(y), cfg, chi)
                assert (want is None) == (not nonempty)
                if want is not None:
                    assert (a, b) == want


class TestPoissonInterval:
    @pytest.mark.parametrize(
        "shape, scale", [(1.0, 2.0), (2.0, 1.0), (0.5, 4.0), (3.0, 0.3), (0.2, 7.0)]
    )
    def test_vectorized_bounds_equal_scalar(self, shape, scale):
        cfg = nl.PoissonConfig(shape=shape, scale=scale)
        ys = np.arange(cfg.y_max + 1)
        for chi in np.linspace(0.0, 8.0, 41):
            want = oracles.poisson_bounds_scalar(cfg, chi)
            assert np.array_equal(np.column_stack(nl._poisson_bounds(ys, cfg, chi)), want)
            assert np.array_equal([nl.poisson_interval(int(y), cfg, chi) for y in ys], want)

    def test_negative_count_or_chi_rejected(self):
        cfg = nl.PoissonConfig(shape=1.0, scale=1.0)
        with pytest.raises(ValueError):
            nl.poisson_interval(-1, cfg, 0.0)
        with pytest.raises(ValueError):
            nl.poisson_noncoverage([1.0], cfg, -0.5)

    def test_chi_zero_is_credible_interval(self):
        cfg = nl.PoissonConfig(shape=2.0, scale=0.7)
        for y in (0, 1, 4, 9):
            lo, hi = nl.poisson_interval(y, cfg, 0.0)
            post = gamma_dist(a=cfg.shape + y, scale=cfg.scale / (1 + cfg.scale))
            assert lo == pytest.approx(post.ppf(0.025), abs=1e-10)
            assert hi == pytest.approx(post.ppf(0.975), abs=1e-10)

    def test_large_chi_is_garwood(self):
        cfg = nl.PoissonConfig(shape=1.0, scale=1.0)
        for y in (0, 3, 12):
            lo, hi = nl.poisson_interval(y, cfg, 50.0)
            glo, ghi = nl.garwood_interval(y, 0.05)
            assert lo == pytest.approx(glo, abs=1e-6)
            assert hi == pytest.approx(ghi, abs=1e-6)

    def test_width_nondecreasing_in_chi(self):
        cfg = nl.PoissonConfig(shape=1.0, scale=0.5)
        for y in (0, 2, 7):
            widths = []
            for chi in (0.0, 0.5, 1.0, 2.0, 5.0):
                lo, hi = nl.poisson_interval(y, cfg, chi)
                widths.append(hi - lo)
            assert np.all(np.diff(widths) >= -1e-12)


class TestGarwood:
    def test_lower_endpoint_zero_at_zero_count(self):
        lo, hi = nl.garwood_interval(0, 0.05)
        assert lo == 0.0 and hi > 0

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 5.0])
    def test_pointwise_coverage_by_exact_summation(self, theta):
        ys = np.arange(0, 201)
        pmf = poisson_dist.pmf(ys, theta)
        cover = 0.0
        for y, p in zip(ys, pmf):
            lo, hi = nl.garwood_interval(int(y), 0.05)
            if lo <= theta <= hi:
                cover += p
        assert cover >= 0.95

    def test_upper_endpoint_increasing(self):
        his = [nl.garwood_interval(y, 0.05)[1] for y in range(30)]
        assert np.all(np.diff(his) > 0)


class TestPoissonEbci:
    def test_baseline_moment_identities(self):
        # exponential baseline: E[theta] = scale, E[theta^2] = 2 scale^2
        cfg = nl.PoissonConfig(shape=1.0, scale=0.4)
        assert cfg.shape * cfg.scale == pytest.approx(0.4)
        assert cfg.shape * (cfg.shape + 1) * cfg.scale**2 == pytest.approx(2 * 0.4**2)

    def test_length_gain_and_coverage_under_exponential_baseline(self):
        cfg = nl.PoissonConfig(shape=1.0, scale=0.3, alpha=0.05)
        chi = nl.poisson_ebci(cfg)
        ys = np.arange(0, 200)
        lam = cfg.scale
        marginal = (1 / (1 + lam)) * (lam / (1 + lam)) ** ys  # geometric
        robust = np.array([np.diff(nl.poisson_interval(int(y), cfg, chi)) for y in ys]).ravel()
        garwood = np.array([np.diff(nl.garwood_interval(int(y), 0.05)) for y in ys]).ravel()
        assert marginal @ robust <= 0.55 * (marginal @ garwood)
        # coverage under the baseline by exact summation over theta grid
        grid = np.asarray(cfg.theta_grid)
        noncov = nl.poisson_noncoverage(grid, cfg, chi)
        weights = gamma_dist(a=1.0, scale=lam).pdf(grid)
        weights /= weights.sum()
        assert weights @ noncov <= 0.05 + 1e-3

    def test_infeasible_moments_rejected(self):
        cfg = nl.PoissonConfig(shape=1.0, scale=0.3)
        with pytest.raises(mlp.InfeasibleMomentsError):
            nl.poisson_ebci(cfg, mean=1.0, second_moment=0.5)

    def test_pmf_built_once_per_calibration(self, monkeypatch):
        # the pmf depends on the grid, not on chi; the reward is still
        # called through the module, and chi is that of a fresh pmf per call
        cfg = nl.PoissonConfig(shape=2.0, scale=0.5)
        mean, second = 1.0, 1.5
        rebuilt = lambda chi: nl._poisson_problem(cfg, chi, mean, second)
        want = mlp.calibrate_chi(rebuilt, cfg.alpha, lo=0.0, hi=2.0)
        builds, rewards = [], []
        build, reward = nl._poisson_pmf_matrix, nl.poisson_noncoverage
        monkeypatch.setattr(nl, "_poisson_pmf_matrix", lambda *a: builds.append(1) or build(*a))
        monkeypatch.setattr(nl, "poisson_noncoverage", lambda *a: rewards.append(1) or reward(*a))
        got = nl.poisson_ebci(cfg)
        assert repr(got) == repr(want)
        assert len(builds) == 1 and len(rewards) > 10

    def test_moment_problem_checks_the_reward(self, monkeypatch):
        # the calibrations pass their rewards unclipped: a reward past [0, 1]
        # is caught by MomentProblem, not clipped away before it
        reward = nl.poisson_noncoverage
        monkeypatch.setattr(nl, "poisson_noncoverage", lambda *a: reward(*a) + 0.5)
        with pytest.raises(ValueError, match=r"reward values must lie in \[0, 1\]"):
            nl.poisson_ebci(nl.PoissonConfig(shape=2.0, scale=0.5))


class TestSelectionNoncoverage:
    def test_infinite_window_reduces_to_unconditional(self):
        for theta in (-2.0, 0.0, 1.0, 3.0):
            for w in (0.3, 0.5, 0.8):
                val = nl.selection_noncoverage(theta, 2.0, nl.SelectionWindow(), w)
                b = (1 - 1 / w) * theta
                assert val == pytest.approx(float(wc.noncoverage(b, 2.0)), abs=1e-12)

    @given(
        theta=st.floats(-6, 6),
        chi=st.floats(0, 8),
        lo=st.floats(-4, 1),
        width=st.floats(0.5, 8),
        w=st.floats(0.05, 0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_values_in_unit_interval(self, theta, chi, lo, width, w):
        win = nl.SelectionWindow(lo, lo + width)
        val = nl.selection_noncoverage(theta, chi, win, w)
        assert 0.0 <= val <= 1.0

    def test_degenerate_selection_probability(self):
        win = nl.SelectionWindow(40.0, 41.0)
        assert nl.selection_noncoverage(0.0, 2.0, win, 0.5) == 1.0

    def test_against_monte_carlo_truncated_normal(self):
        theta, w, sigma = 1.0, 0.5, 1.0
        chi = 2.0
        win = nl.SelectionWindow(0.0, math.inf)
        rng = np.random.default_rng(7)
        n = 1_000_000
        y = theta + sigma * rng.standard_normal(n)
        sel = y > 0
        covered = np.abs(w * y[sel] - theta) <= chi * w * sigma
        mc = 1.0 - covered.mean()
        se = covered.std() / math.sqrt(sel.sum())
        val = nl.selection_noncoverage(theta, chi, win, w, sigma)
        assert val == pytest.approx(mc, abs=3 * se)


def _gaussian_truth_above_zero():
    """E[theta^2 | Y > 0] for theta ~ N(0, 1), Y = theta + N(0, 1), by quadrature."""
    weight = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi) * (1 - 0.5 * math.erfc(t / math.sqrt(2)))
    return quad(lambda t: t * t * weight(t), -12, 12)[0] / quad(weight, -12, 12)[0]


class TestSelectionSecondMoment:
    def test_recovers_gaussian_truth(self):
        mu2 = 1.0
        rng = np.random.default_rng(3)
        ys = rng.normal(0, math.sqrt(1 + mu2), 100_000)
        est, se = nl.selection_second_moment(ys, return_se=True)
        assert abs(est - mu2) <= 3 * se
        # without a window the delta-method se is that of the mean of Y^2
        assert se == pytest.approx(float(np.std(ys**2, ddof=1)) / math.sqrt(ys.size), rel=1e-12)

    def test_degenerate_effects_shrink_to_zero(self):
        ys = np.random.default_rng(5).normal(0, 1, 50_000)
        est = nl.selection_second_moment(ys)
        assert 1e-8 <= est <= 0.06

    def test_windowed_matches_quadrature_oracle(self):
        oracle = _gaussian_truth_above_zero()
        rng = np.random.default_rng(11)
        theta = rng.normal(0, 1, 200_000)
        ys = theta + rng.standard_normal(200_000)
        est, se = nl.selection_second_moment(
            ys, nl.SelectionWindow(0.0, math.inf), return_se=True
        )
        assert est == pytest.approx(oracle, abs=max(3 * se, 0.02))

    @pytest.mark.parametrize("n", [100_000, 200_000])
    def test_se_covers_the_seed_to_seed_error(self, n):
        # the delta-method se of the ratio read about 0.033 at n = 1e5 and
        # 0.027 at 2e5, with |z| at most 1.54 over these 16 draws; the
        # selected sample's std(Y^2) / sqrt(n_sel) read 0.0127 and 0.0089
        # and missed 2 of the 8 seeds at each n
        oracle = _gaussian_truth_above_zero()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            ys = rng.normal(0, 1, n) + rng.standard_normal(n)
            est, se = nl.selection_second_moment(ys, nl.SelectionWindow(0.0, math.inf), return_se=True)
            assert abs(est - oracle) <= 3 * se, seed

    @pytest.mark.parametrize("lo,hi,n", [(-math.inf, math.inf, 200), (0.0, math.inf, 300),
                                         (-1.0, 2.0, 400), (-math.inf, 0.5, 250)])
    def test_closed_form_matches_quadrature(self, lo, hi, n):
        rng = np.random.default_rng(n)
        ys = rng.normal(0, 1, n) + rng.standard_normal(n)
        window = nl.SelectionWindow(lo, hi)
        est = nl.selection_second_moment(ys, window)
        assert est == pytest.approx(oracles.selection_second_moment_quad(ys, window), rel=1e-12)

    def test_sigma_scales_the_estimate(self):
        rng = np.random.default_rng(2)
        ys = rng.normal(0, 1, 300) + rng.standard_normal(300)
        est, se = nl.selection_second_moment(ys, nl.SelectionWindow(-1.0, 2.0), return_se=True)
        scaled = nl.selection_second_moment(4.0 * ys, nl.SelectionWindow(-4.0, 8.0), sigma=4.0, return_se=True)
        assert scaled == (16.0 * est, 16.0 * se)

    def test_draws_past_the_float_range_of_their_squares(self):
        # at 1e150 times the draws their squares and the se's variance
        # overflowed; on a power-of-two scale the estimate and se are 4**450
        # times those of the same draws divided by 2**450
        ys = 1e150 * np.random.default_rng(28).normal(0.0, 1.5, 300)
        window = nl.SelectionWindow(0.0, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nl.selection_second_moment(ys, window, return_se=True)
        want = nl.selection_second_moment(ys / 2.0**450, window, return_se=True)
        for g, w in zip(got, want):
            assert math.isfinite(g)
            assert g == pytest.approx(4.0**450 * w, rel=1e-12)

    def test_answer_past_the_float_range_rejected(self):
        # in units of sigma the draws are ordinary, but sigma^2 = 1e320 is not
        ys = 1e160 * np.random.default_rng(28).normal(0.0, 1.5, 300)
        with pytest.raises(ValueError, match="past the float range"):
            nl.selection_second_moment(ys, nl.SelectionWindow(0.0, math.inf), sigma=1e160, return_se=True)

    def test_too_few_selected_rejected(self):
        with pytest.raises(ValueError):
            nl.selection_second_moment(np.zeros(10) + 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_draw_rejected(self, bad):
        ys = np.random.default_rng(0).normal(0, 1.5, 200)
        ys[17] = bad
        with pytest.raises(ValueError, match="finite"):
            nl.selection_second_moment(ys)

    @pytest.mark.parametrize("value", [0.0, 1.0, -3.0, 0.7])
    def test_equal_draws_rejected(self, value):
        # the mean of 50 draws of 0.7 rounds, and their bandwidth reads 9.2e-17
        with pytest.raises(ValueError, match="bandwidth"):
            nl.selection_second_moment(np.full(50, value))

    @pytest.mark.parametrize("scale", [1.5, 1e-12])
    def test_far_window_end_adds_nothing(self, scale):
        # (end - Y) / h is -2.5e300 at scale 1.5, past the float range at
        # 1e-12; its phi term is 0, as at an infinite end
        ys = np.random.default_rng(4).normal(0, scale, 300)
        far = nl.selection_second_moment(ys, nl.SelectionWindow(-1e300, 0.5), return_se=True)
        assert far == nl.selection_second_moment(ys, nl.SelectionWindow(-math.inf, 0.5), return_se=True)


class TestSelectionCriticalValue:
    def test_infinite_window_reproduces_baseline(self):
        w, sigma, mu2, alpha = 0.5, 1.0, 1.0, 0.05
        base = wc._cva_scalar(sigma**2 / mu2, None, alpha)
        t0 = wc.majorant_kink(base)
        scale = abs(1 - 1 / w) / sigma
        anchor = math.sqrt(t0) / scale
        grid = np.unique(np.concatenate([np.linspace(-8, 8, 3001), [-anchor, 0.0, anchor]]))
        chi = nl.selection_critical_value(mu2, nl.SelectionWindow(), w, sigma, alpha, grid)
        assert chi == pytest.approx(base, abs=1e-4)

    def test_widening_window_approaches_baseline_monotonically(self):
        w, sigma, mu2, alpha = 0.5, 1.0, 1.0, 0.05
        base = wc._cva_scalar(sigma**2 / mu2, None, alpha)
        grid = np.linspace(-8, 8, 2001)
        gaps = []
        for c in (0.5, 1.0, 2.0, 4.0, 6.0, 100.0):
            chi = nl.selection_critical_value(
                mu2, nl.SelectionWindow(-c, c), w, sigma, alpha, grid
            )
            gaps.append(abs(chi - base))
        assert np.all(np.diff(gaps) <= 1e-6)
        assert gaps[-1] <= 1e-3

    def test_narrow_one_sided_window_closed_form(self):
        # with selection to Y > 0 the binding effects sit at -sqrt(mu2/alpha):
        # chi must reach them, so chi ~ sqrt(mu2/alpha) / w
        w, mu2, alpha = 0.5, 1.0, 0.05
        grid = np.linspace(-8, 8, 4001)
        chi = nl.selection_critical_value(
            mu2, nl.SelectionWindow(0.0, math.inf), w, 1.0, alpha, grid
        )
        assert chi == pytest.approx(math.sqrt(mu2 / alpha) / w, abs=0.02)

    def test_simulated_conditional_coverage_two_point_design(self):
        # theta = +-1 with equal probability, select Y > 0
        a, w, sigma, alpha = 1.0, None, 1.0, 0.05
        mu2 = a * a
        w = mu2 / (mu2 + sigma**2)
        win = nl.SelectionWindow(0.0, math.inf)
        grid = np.linspace(-8, 8, 2001)
        chi = nl.selection_critical_value(mu2, win, w, sigma, alpha, grid)
        rng = np.random.default_rng(13)
        reps, n = 2000, 100
        hits = []
        for _ in range(reps):
            theta = rng.choice([-a, a], n)
            y = theta + sigma * rng.standard_normal(n)
            sel = y > 0
            if not sel.any():
                continue
            covered = np.abs(w * y[sel] - theta[sel]) <= chi * w * sigma
            hits.append(covered.mean())
        assert np.mean(hits) >= 0.94
