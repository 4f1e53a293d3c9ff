import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from shrinkci import momentlp as mlp
from shrinkci import worstcase as wc

Z975 = 1.959963984540054


def lp_worst_case(m2, chi, kappa=None, size=3000):
    """Independent route: discretized LP on the squared-bias scale."""
    t0 = wc.majorant_kink(chi)
    grid = mlp.default_squared_bias_grid(m2, t0, size)
    moments = [grid]
    targets = [m2]
    if kappa is not None:
        moments.append(grid**2)
        targets.append(kappa * m2 * m2)
    prob = mlp.MomentProblem(grid, wc.noncoverage_sq(grid, chi), np.vstack(moments), targets)
    return mlp.solve_moment_lp(prob).value


def fourth_dual_nested(m2, kappa, chi, grid_size=129, tol=1e-8):
    """Fourth-moment worst case via the nested dual program.

    Inner supremum of the curvature ratio delta(x; x0) over x in [0, t0] and
    outer infimum over x0 in (0, t0], each by coarse grid plus golden-section
    refinement.  An independent route for testing the production
    two-point-family evaluation.
    """
    t0 = wc.majorant_kink(chi)
    if t0 == 0.0 or m2 >= t0:
        return float(wc.noncoverage_sq(m2, chi))
    if kappa >= wc.KAPPA_UNCONSTRAINED or kappa >= t0 / m2:
        return float(wc.worst_noncoverage_second(m2, chi))

    def delta(x, x0):
        near = np.abs(x - x0) < 1e-6 * max(1.0, t0)
        dx = np.where(near, 1.0, x - x0)
        raw = (
            wc.noncoverage_sq(x, chi)
            - wc.noncoverage_sq(x0, chi)
            - (x - x0) * wc.noncoverage_sq_d1(x0, chi)
        ) / np.square(dx)
        return np.where(near, 0.5 * wc.noncoverage_sq_d2(x0, chi), raw)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def golden(fn, lo, hi, maximize):
        sign = 1.0 if maximize else -1.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = sign * fn(c), sign * fn(d)
        while hi - lo > tol:
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = sign * fn(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = sign * fn(d)
        mid = 0.5 * (lo + hi)
        return mid, sign * max(fc, fd, sign * fn(mid))

    xs = np.linspace(0.0, t0, grid_size)

    def inner_sup(x0):
        vals = delta(xs, x0)
        j = int(np.argmax(vals))
        _, best = golden(
            lambda x: float(delta(np.asarray(x), x0)),
            xs[max(j - 1, 0)],
            xs[min(j + 1, grid_size - 1)],
            maximize=True,
        )
        return max(best, float(vals[j]))

    quad_weight = lambda x0: (x0 - m2) ** 2 + (kappa - 1.0) * m2 * m2

    def outer_obj(x0):
        return (
            float(wc.noncoverage_sq(x0, chi))
            + (m2 - x0) * float(wc.noncoverage_sq_d1(x0, chi))
            + quad_weight(x0) * inner_sup(x0)
        )

    x0s = np.unique(np.concatenate([np.geomspace(t0 * 1e-8, t0, 33), xs[1:]]))
    outer_vals = [outer_obj(x) for x in x0s]
    j = int(np.argmin(outer_vals))
    _, best = golden(
        outer_obj, x0s[max(j - 1, 0)], x0s[min(j + 1, len(x0s) - 1)], maximize=False
    )
    return min(best, outer_vals[j])


class TestNoncoverage:
    def test_quantile_identity(self):
        # 2 Phi(-z) at b=0 by definition of the quantile
        assert wc.noncoverage(0.0, Z975) == pytest.approx(0.05, abs=1e-12)

    def test_large_bias_limit(self):
        assert wc.noncoverage(60.0, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_high_precision_cdf(self):
        # mpmath oracle: Phi(-4.959964) + Phi(1.040036) at 40 digits
        assert wc.noncoverage(3.0, 1.959964) == pytest.approx(
            0.85083876473586342, abs=1e-14
        )

    @given(
        b=st.floats(-30, 30),
        chi=st.floats(0, 20),
        shift=st.floats(0.01, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_monotonicity(self, b, chi, shift):
        assert wc.noncoverage(b, chi) == pytest.approx(wc.noncoverage(-b, chi), abs=1e-14)
        assert wc.noncoverage(abs(b) + shift, chi) >= wc.noncoverage(b, chi) - 1e-14
        assert wc.noncoverage(b, chi + shift) <= wc.noncoverage(b, chi) + 1e-14


class TestDerivatives:
    @pytest.mark.parametrize("chi", [0.5, 1.0, 2.0, 3.5, 6.0])
    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 2.0, 10.0, 50.0])
    def test_first_derivative_matches_finite_differences(self, t, chi):
        h = 1e-6 * max(1.0, t)
        fd = (wc.noncoverage_sq(t + h, chi) - wc.noncoverage_sq(t - h, chi)) / (2 * h)
        d1 = float(wc.noncoverage_sq_d1(t, chi))
        assert d1 == pytest.approx(fd, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("chi", [0.5, 1.0, 2.0, 3.5, 6.0])
    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 2.0, 10.0, 50.0])
    def test_second_derivative_matches_finite_differences(self, t, chi):
        h = 2e-4 * max(1.0, t)
        fd = (
            wc.noncoverage_sq(t + h, chi)
            - 2 * wc.noncoverage_sq(t, chi)
            + wc.noncoverage_sq(t - h, chi)
        ) / h**2
        d2 = float(wc.noncoverage_sq_d2(t, chi))
        assert d2 == pytest.approx(fd, rel=2e-5, abs=1e-10)

    def test_first_derivative_nonnegative(self):
        ts = np.geomspace(1e-8, 200, 200)
        for chi in (0.3, 1.0, 2.5, 8.0):
            assert np.all(wc.noncoverage_sq_d1(ts, chi) >= 0)

    def test_concavity_below_sqrt3(self):
        # second derivative negative everywhere when chi <= sqrt(3)
        ts = np.geomspace(1e-6, 100, 300)
        assert np.all(wc.noncoverage_sq_d2(ts, 1.0) < 0)

    def test_small_t_limits(self):
        chi = 2.0
        phi = math.exp(-0.5 * chi * chi) / math.sqrt(2 * math.pi)
        assert float(wc.noncoverage_sq_d1(0.0, chi)) == pytest.approx(chi * phi, rel=1e-12)
        assert float(wc.noncoverage_sq_d2(0.0, chi)) == pytest.approx(
            phi * chi * (chi * chi - 3) / 6, rel=1e-12
        )
        # series and direct branches agree where they meet
        for t in (1e-10, 1e-6, 1e-3, 0.02):
            d2 = float(wc.noncoverage_sq_d2(t, chi))
            h = max(t, 1e-4) * 0.05
            fd = (
                wc.noncoverage_sq(t + 2 * h, chi)
                - 2 * wc.noncoverage_sq(t + h, chi)
                + wc.noncoverage_sq(t, chi)
            ) / h**2
            assert d2 == pytest.approx(fd, rel=5e-3, abs=1e-9)


class TestMajorantKink:
    def test_zero_below_sqrt3(self):
        assert wc.majorant_kink(1.0) == 0.0
        assert wc.majorant_kink(math.sqrt(3.0)) == 0.0

    def test_defining_equation_and_lower_bound(self):
        chi = 2.0
        t0 = wc.majorant_kink(chi)
        resid = (
            wc.noncoverage_sq(0.0, chi)
            - wc.noncoverage_sq(t0, chi)
            + t0 * wc.noncoverage_sq_d1(t0, chi)
        )
        assert abs(resid) < 1e-9
        assert t0 > chi * chi - 3.0

    def test_against_grid_scan_oracle(self):
        # dense scan of the defining function, step 1e-4
        chi = 2.0
        ts = np.arange(1.0, 6.0, 1e-4)
        f = (
            wc.noncoverage_sq(0.0, chi)
            - wc.noncoverage_sq(ts, chi)
            + ts * wc.noncoverage_sq_d1(ts, chi)
        )
        flip = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]
        assert wc.majorant_kink(chi) == pytest.approx(float(ts[flip]), abs=2e-4)

    def test_batch_matches_scalar(self):
        # away from sqrt(3), where the root is well conditioned
        chis = np.concatenate(
            [[0.5, 1.7, 1.8, 2.0, 3.0, 7.0, 50.0, 196.0], np.geomspace(math.sqrt(3.0) + 0.05, 1e3, 40)]
        )
        batch = wc._majorant_kink_batch(chis)
        for c, t in zip(chis, batch):
            assert t == pytest.approx(wc.majorant_kink(float(c)), rel=1e-10, abs=1e-10)

    def test_batch_newton_iteration_bound(self, monkeypatch):
        # one second-derivative call per lockstep Newton iteration
        calls = []
        d2 = wc.noncoverage_sq_d2

        def counted(t, chi):
            calls.append(np.size(t))
            return d2(t, chi)

        monkeypatch.setattr(wc, "noncoverage_sq_d2", counted)
        chis = np.concatenate(
            [math.sqrt(3.0) + np.geomspace(1e-6, 1.0, 2000), np.geomspace(math.sqrt(3.0) + 1.0, 1e3, 2000)]
        )
        wc._majorant_kink_batch(chis)
        assert 0 < len(calls) <= 12

    def test_batch_near_sqrt3_residual_and_chord_value(self):
        # the root is ill-conditioned here, so t itself is not compared
        chis = math.sqrt(3.0) + np.geomspace(1e-7, 0.05, 60)
        batch = wc._majorant_kink_batch(chis)
        r0 = wc.noncoverage_sq(0.0, chis)
        assert np.all(np.abs(wc._kink_objective(batch, chis, r0)) <= wc._kink_floor(r0))
        scalar = np.array([wc.majorant_kink(float(c)) for c in chis])
        m2 = 0.5 * np.minimum(batch, scalar)
        chord = lambda t: r0 + (m2 / t) * (wc.noncoverage_sq(t, chis) - r0)
        np.testing.assert_allclose(chord(batch), chord(scalar), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("offset", [1e-12, 1e-9, 3e-7, 1e-6, 3e-6])
    def test_scalar_just_above_sqrt3(self, offset):
        # roundoff makes the objective non-positive at the lower bracket end
        chi = math.sqrt(3.0) + offset
        t0 = wc.majorant_kink(chi)
        r0 = float(wc.noncoverage_sq(0.0, chi))
        assert 0.0 < t0 < 1e-4
        assert abs(wc._kink_objective(t0, chi, r0)) <= wc._kink_floor(r0)


class TestWorstNoncoverageSecond:
    def test_point_mass_at_zero(self):
        for chi in (1.0, 2.5, 4.0):
            assert wc.worst_noncoverage_second(0.0, chi) == pytest.approx(
                2 * wc.noncoverage(0.0, chi) / 2, abs=1e-14
            )

    def test_above_kink_equals_pointmass_value(self):
        chi = 2.5
        t0 = wc.majorant_kink(chi)
        m2 = t0 * 1.5
        assert wc.worst_noncoverage_second(m2, chi) == pytest.approx(
            float(wc.noncoverage_sq(m2, chi)), abs=1e-14
        )

    @pytest.mark.parametrize("m2", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("chi", [1.5, 2.5, 3.5])
    def test_against_lp_oracle(self, m2, chi):
        assert wc.worst_noncoverage_second(m2, chi) == pytest.approx(
            lp_worst_case(m2, chi), abs=1e-3
        )

    def test_majorant_dominates_and_concave(self):
        chi = 3.0
        ms = np.linspace(0.01, 40, 120)
        rho = wc.worst_noncoverage_second(ms, chi)
        assert np.all(rho >= wc.noncoverage_sq(ms, chi) - 1e-12)
        mid = 0.5 * (rho[:-2] + rho[2:])
        assert np.all(rho[1:-1] >= mid - 1e-10)  # midpoint concavity
        assert np.all(np.diff(rho) >= -1e-12)  # nondecreasing


class TestWorstNoncoverageFourth:
    def test_above_kink_ignores_kurtosis(self):
        chi = 2.5
        m2 = wc.majorant_kink(chi) + 1.0
        assert wc.worst_noncoverage_fourth(m2, 3.0, chi) == pytest.approx(
            wc.worst_noncoverage_second(m2, chi), abs=1e-14
        )

    def test_huge_kurtosis_recovers_second(self):
        assert wc.worst_noncoverage_fourth(0.2, 1e6, 3.0) == pytest.approx(
            wc.worst_noncoverage_second(0.2, 3.0), abs=1e-4
        )

    @pytest.mark.parametrize(
        "m2,kappa,chi",
        [(0.2, 3.0, 3.0), (0.5, 2.0, 2.5), (0.1, 1.5, 2.0), (1.0, 5.0, 3.5)],
    )
    def test_against_lp_oracle(self, m2, kappa, chi):
        assert wc.worst_noncoverage_fourth(m2, kappa, chi) == pytest.approx(
            lp_worst_case(m2, chi, kappa=kappa, size=4000), abs=2e-3
        )

    def test_matches_nested_dual_route(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            chi = rng.uniform(1.9, 5.0)
            t0 = wc.majorant_kink(chi)
            m2 = rng.uniform(0.02, 0.95) * t0
            kappa = 1.0 + rng.uniform(0.05, 0.95) * (t0 / m2 - 1.0)
            prod = wc.worst_noncoverage_fourth(m2, kappa, chi)
            dual = fourth_dual_nested(m2, kappa, chi)
            assert prod == pytest.approx(dual, abs=5e-8)

    def test_sandwiched_between_pointmass_and_second(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            chi = rng.uniform(0.5, 6.0)
            m2 = rng.uniform(0.05, 20.0)
            kappa = rng.uniform(1.01, 30.0)
            lo = float(wc.noncoverage_sq(m2, chi))
            hi = wc.worst_noncoverage_second(m2, chi)
            val = wc.worst_noncoverage_fourth(m2, kappa, chi)
            assert lo - 1e-10 <= val <= hi + 1e-10

    def test_nonincreasing_in_kappa(self):
        chi, m2 = 3.0, 0.2
        kappas = np.linspace(1.05, 12.0, 60)
        vals = [wc.worst_noncoverage_fourth(m2, float(k), chi) for k in kappas]
        assert np.all(np.diff(vals) >= -1e-10)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            wc.worst_noncoverage_fourth(0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            wc.worst_noncoverage_fourth(0.5, 0.5, 2.0)


class TestCriticalValue:
    def test_zero_moment_gives_z_quantile(self):
        res = wc.critical_value(wc.MomentConstraints(0.0), 0.05)
        assert res.chi == pytest.approx(Z975, abs=1e-9)

    def test_fixed_point(self):
        for m2, kappa in [(0.5, None), (4.0, None), (0.5, 3.0), (4.0, 2.0)]:
            res = wc.critical_value(wc.MomentConstraints(m2, kappa), 0.05)
            rho = wc.worst_noncoverage(wc.MomentConstraints(m2, kappa), res.chi)
            assert rho == pytest.approx(0.05, abs=1e-7)
            assert res.noncoverage <= 0.05 + 1e-6

    def test_monotone_in_m2(self):
        ms = np.linspace(0.0, 20.0, 50)
        chis = wc.critical_values(ms, kappa=None, alpha=0.05)
        assert np.all(np.diff(chis) >= -1e-9)

    def test_kurtosis_never_increases_cva(self):
        for m2 in (0.3, 1.0, 5.0):
            for kappa in (1.5, 3.0, 10.0):
                with_k = wc._cva_scalar(m2, kappa, 0.05)
                without = wc._cva_scalar(m2, None, 0.05)
                assert with_k <= without + 1e-8

    def test_against_lp_bisection_oracle(self):
        # invert the LP route over chi and compare
        m2, alpha = 4.0, 0.05
        lo, hi = Z975, 14.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if lp_worst_case(m2, mid, size=4000) > alpha:
                lo = mid
            else:
                hi = mid
        assert wc._cva_scalar(m2, None, alpha) == pytest.approx(hi, abs=1e-3)

    def test_batch_matches_scalar_paths(self):
        rng = np.random.default_rng(3)
        m2 = np.concatenate([[0.0], rng.uniform(0.01, 40, 40)])
        for alpha in (0.05, 0.1):
            batch = wc.critical_values(m2, kappa=None, alpha=alpha)
            ref = wc._critical_values_bracketed(m2, None, alpha)
            np.testing.assert_allclose(batch, ref, atol=1e-7)
            for i in (0, 5, 17):
                assert batch[i] == pytest.approx(
                    wc._cva_scalar(float(m2[i]), None, alpha), abs=1e-6
                )
        kap = rng.uniform(1.2, 20, m2.size)
        batch4 = wc.critical_values(m2, kappa=kap, alpha=0.05)
        for i in (1, 7, 23):
            assert batch4[i] == pytest.approx(
                wc._cva_scalar(float(m2[i]), float(kap[i]), 0.05), abs=1e-6
            )

    @pytest.mark.parametrize(
        "m2,alpha",
        [(644.47803431, 1e-3), (41.1605078, 1e-3), (3135.63003865, 1e-3), (730.87514358, 0.01)],
    )
    def test_second_moment_rejects_spurious_newton_root(self, m2, alpha):
        # the chord Newton system has a root with t below m2 at these inputs
        chi = wc.critical_values([m2], None, alpha)[0]
        assert chi == pytest.approx(wc._cva_scalar(m2, None, alpha), abs=1e-8)

    def test_coverage_guarantee(self):
        # every chi is the upper end of a bracket of width 1e-8 around the root
        rng = np.random.default_rng(7)
        m2 = np.concatenate([[1e-8, 1e-4], np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 40)), [1e6]])
        for kappa in (None, 1.0 + 1e-6, 1.5, 3.0, 12.0, 1e5):
            kap = None if kappa is None else np.full(m2.shape, kappa)
            for alpha in (1e-3, 0.01, 0.05, 0.3):
                chi = wc.critical_values(m2, kappa, alpha)
                at = wc._worst_noncoverage_batch(m2, kap, chi)
                below = wc._worst_noncoverage_batch(m2, kap, chi - 1e-8)
                assert np.all(at <= alpha + 1e-12), (kappa, alpha, m2[at > alpha + 1e-12])
                assert np.all(below > alpha), (kappa, alpha, m2[below <= alpha])

    @pytest.mark.parametrize("kappa", [None, 3.0])
    def test_chi_just_above_sqrt3(self, kappa):
        # z is within 1e-6 of sqrt(3), where the kink root is ill-conditioned
        alpha = 0.08326433863159476
        res = wc.critical_value(wc.MomentConstraints(1e-9, kappa), alpha=alpha)
        assert res.chi == pytest.approx(wc.critical_values([1e-9], kappa, alpha)[0], abs=1e-8)
        assert res.diagnostics["t0"] > 0

    def test_nearby_m2_solved_separately(self):
        # 0.9999996 and 1.0000004 agree to six decimals but not in chi
        wc.critical_value(wc.MomentConstraints(0.9999996), 0.05)
        cons = wc.MomentConstraints(1.0000004)
        ref = brentq(
            lambda chi: wc.worst_noncoverage(cons, chi) - 0.05, Z975, 20.0, xtol=1e-13
        )
        assert wc.critical_value(cons, 0.05).chi == pytest.approx(ref, abs=1e-8)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            wc.critical_value(wc.MomentConstraints(1.0), 0.0)
        with pytest.raises(ValueError):
            wc.critical_value(wc.MomentConstraints(1.0), 1.0)


class TestLeastFavorable:
    def test_pointmass_above_kink(self):
        chi = 2.5
        m2 = wc.majorant_kink(chi) + 2.0
        lf = wc.least_favorable(wc.MomentConstraints(m2), chi)
        assert lf.points == (m2,) and lf.probs == (1.0,)

    def test_two_point_mixture_below_kink(self):
        chi = 3.0
        t0 = wc.majorant_kink(chi)
        m2 = 0.3 * t0
        lf = wc.least_favorable(wc.MomentConstraints(m2), chi)
        assert lf.points == (0.0, pytest.approx(t0))
        assert lf.probs[1] == pytest.approx(m2 / t0, rel=1e-12)

    def test_moments_match_and_attain(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            chi = rng.uniform(1.0, 6.0)
            t0 = wc.majorant_kink(chi)
            m2 = rng.uniform(0.05, 2.0) * max(t0, 1.0)
            if rng.random() < 0.5 or t0 == 0 or m2 >= t0:
                cons = wc.MomentConstraints(m2)
            else:
                kappa = 1.0 + rng.uniform(0.05, 0.9) * (t0 / m2 - 1.0)
                cons = wc.MomentConstraints(m2, kappa)
            lf = wc.least_favorable(cons, chi)
            assert lf.moment(1) == pytest.approx(m2, abs=1e-8 * max(1, m2))
            if cons.kappa is not None and cons.kappa < t0 / m2 and m2 < t0:
                assert lf.moment(2) == pytest.approx(
                    cons.kappa * m2 * m2, rel=1e-8
                )
            attained = lf.expectation(lambda t: wc.noncoverage_sq(t, chi))
            assert attained == pytest.approx(wc.worst_noncoverage(cons, chi), abs=1e-6)

    def test_rejects_infeasible_kurtosis(self):
        with pytest.raises(ValueError):
            wc.MomentConstraints(1.0, 0.9)


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            wc.DiscreteDistribution((1.0, 0.5), (0.5, 0.5))  # not increasing
        with pytest.raises(ValueError):
            wc.DiscreteDistribution((0.0, 1.0), (0.6, 0.6))  # sums past 1
        with pytest.raises(ValueError):
            wc.DiscreteDistribution((0.0,), (-1.0,))
