import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import binding_pair_value, cva_scalar, kink_brentq
from scipy.optimize import brentq
from scipy.special import ndtri
from shrinkci import _solve
from shrinkci import momentlp as mlp
from shrinkci import simulation as sim
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

    def test_first_derivative_matches_both_branch_formula(self):
        # the direct form is evaluated only past the switch at chi*sqrt(t) =
        # 30; the result is bit-identical to evaluating both forms everywhere
        def both_branches(t, chi):
            phi = lambda x: np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)
            u = np.sqrt(t)
            a = chi * u
            safe_u = np.where(u > 0, u, 1.0)
            small = a < 30.0
            sinh_form = phi(chi) * np.exp(-0.5 * t) * np.sinh(np.where(small, a, 0.0)) / safe_u
            direct = (phi(u - chi) - phi(u + chi)) / (2.0 * safe_u)
            return np.where(u == 0, chi * phi(chi), np.where(small, sinh_form, direct))

        chi = np.array([0.0, 1e-3, 0.5, 1.96, 5.0, 12.0, 40.0])
        switch = (30.0 / chi[1:]) ** 2
        t = np.concatenate([[0.0, 1e-300], np.geomspace(1e-8, 1e6, 400), switch,
                            np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)])
        ts, cs = np.meshgrid(t, chi)
        large = cs * np.sqrt(ts) >= 30.0
        assert large.any() and (~large).any()
        np.testing.assert_array_equal(wc.noncoverage_sq_d1(ts, cs), both_branches(ts, cs))
        for t0, c0 in ((0.0, 2.0), (4.0, 2.0), (1e4, 3.0)):
            assert wc.noncoverage_sq_d1(t0, c0) == both_branches(np.float64(t0), c0)

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
        # t^1.5 and sqrt(t)^3 underflow from about 1e-205
        for t in (0.0, 1e-300, 1e-250, 1e-200):
            assert float(wc.noncoverage_sq_d2(t, chi)) == pytest.approx(
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


@pytest.mark.parametrize(
    "call",
    [
        lambda: wc.critical_values([math.nan, 1.0]),
        lambda: wc.critical_values([1.0], kappa=math.nan),
        lambda: wc.critical_values([1.0, 2.0], kappa=[3.0, math.nan]),
        lambda: wc.critical_values([math.inf]),
        lambda: wc.worst_noncoverage_second(0.5, math.nan),
        lambda: wc.worst_noncoverage_second(math.inf, 2.0),
        lambda: wc.worst_noncoverage_fourth(0.5, math.nan, 2.0),
        lambda: wc.worst_noncoverage_fourth(0.5, 3.0, math.inf),
        lambda: wc.worst_noncoverage(wc.MomentConstraints(1.0, 3.0), math.nan),
        lambda: wc.least_favorable(wc.MomentConstraints(1.0), math.inf),
        lambda: wc.majorant_kink(math.nan),
        lambda: wc.majorant_kink(math.inf),
        lambda: wc.majorant_kink(-1.0),
    ],
    ids=[
        "cva-nan-m2", "cva-nan-kappa", "cva-nan-kappa-entry", "cva-inf-m2",
        "second-nan-chi", "second-inf-m2", "fourth-nan-kappa", "fourth-inf-chi",
        "worst-nan-chi", "lf-inf-chi", "kink-nan", "kink-inf", "kink-negative",
    ],
)
def test_rejects_non_finite_inputs(call):
    # a NaN must not turn into z, a dropped kurtosis bound or a solver crash
    with pytest.raises(ValueError):
        call()


def test_infinite_kappa_means_no_kurtosis_bound():
    assert wc.critical_values([1.0], kappa=math.inf)[0] == pytest.approx(
        wc.critical_values([1.0])[0], abs=1e-8
    )
    assert wc.worst_noncoverage_fourth(0.5, math.inf, 3.0) == wc.worst_noncoverage_second(0.5, 3.0)


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
            assert t == pytest.approx(kink_brentq(float(c)), rel=1e-10, abs=1e-10)

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
        scalar = np.array([kink_brentq(float(c)) for c in chis])
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

    def test_table_nodes_and_midpoints_against_oracle(self):
        # Newton starts from the tabulated kink from chi = 1.75 on; the start
        # never decides a kink, at the nodes, between them or at the cutoff
        nodes = wc._KINK_CHI
        cutoff = wc._KINK_NEAR
        chis = np.concatenate(
            [
                nodes,
                np.sqrt(nodes[:-1] * nodes[1:]),
                [np.nextafter(cutoff, 0.0), cutoff, np.nextafter(cutoff, np.inf)],
                np.linspace(cutoff - 0.01, cutoff + 0.01, 41),
            ]
        )
        oracle = np.array([kink_brentq(float(c)) for c in chis])
        np.testing.assert_allclose(wc._majorant_kink_batch(chis), oracle, rtol=1e-10, atol=1e-10)

    def test_table_start_takes_few_sweeps(self, monkeypatch):
        # one second-derivative call per lockstep Newton sweep
        calls = []
        d2 = wc.noncoverage_sq_d2
        monkeypatch.setattr(wc, "noncoverage_sq_d2", lambda t, chi: calls.append(1) or d2(t, chi))
        wc._majorant_kink_batch(np.geomspace(1.96, 1e3, 2000))
        assert 0 < len(calls) <= 3


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


def seeded_binding_keys(seed=21, n=400, m2_range=(1e-3, 1e9)):
    """Binding (m2, kappa, chi, t0) keys: m2 log-uniform in ``m2_range`` and
    kappa - 1 in [1e-3, 50], each at its own cva (alpha = 0.05) and at
    chi -+ 10%."""
    rng = np.random.default_rng(seed)
    m2 = np.exp(rng.uniform(*np.log(m2_range), n))
    kappa = 1.0 + np.exp(rng.uniform(np.log(1e-3), np.log(50.0), n))
    chi = wc.critical_values(m2, kappa, 0.05)
    m2, kappa = np.tile(m2, 3), np.tile(kappa, 3)
    chi = np.concatenate([chi, 0.9 * chi, 1.1 * chi])
    t0 = wc._majorant_kink_batch(chi)
    binding = wc._binding(m2, kappa, t0)
    return tuple(v[binding] for v in (m2, kappa, chi, t0))


class TestBindingPair:
    @pytest.fixture(scope="class")
    def keys(self):
        # m2 in [1e-4, 1e4] holds the keys whose Newton solve takes the most
        # sweeps: 17 of the second set take more than 6
        sets = seeded_binding_keys(), seeded_binding_keys(22, 1000, (1e-4, 1e4))
        return tuple(np.concatenate(v) for v in zip(*sets))

    def test_matches_grid_golden_oracle(self, keys):
        val, *_ = wc._fourth_binding_batch(*keys)
        assert keys[0].size > 3000
        np.testing.assert_allclose(val, binding_pair_value(*keys), rtol=1e-12, atol=0)

    def test_never_below_dense_scan(self, keys):
        m2, kappa, chi, t0 = keys
        val, *_ = wc._fourth_binding_batch(*keys)
        tau = t0 / m2
        xi_max = (tau - kappa) / (tau - 1.0)
        scan = np.full(m2.shape, -np.inf)
        for block in np.array_split(np.linspace(0.0, 1.0, 4001), 32):
            vals = wc._pair_slopes(1.0 - block[:, None] * xi_max, m2, kappa, chi, order=0)
            scan = np.maximum(scan, vals.max(axis=0))
        assert np.all(val >= scan * (1.0 - 1e-12))

    def test_returned_pair_matches_moments_and_value(self, keys):
        m2, kappa, chi, _ = keys
        val, x0, x, _, _ = wc._fourth_binding_batch(*keys)
        p = (x - m2) / (x - x0)
        assert np.all((x0 >= 0) & (x0 < m2) & (x > m2))
        np.testing.assert_allclose(p * x0 + (1 - p) * x, m2, rtol=1e-12)
        attained = p * wc.noncoverage_sq(x0, chi) + (1 - p) * wc.noncoverage_sq(x, chi)
        np.testing.assert_allclose(attained, val, rtol=1e-12, atol=1e-300)

    def test_sweeps_per_solve(self, keys, monkeypatch):
        # one sweep evaluates the kernel at both points of one pair: the
        # corner test is one, an interior key adds the 8 grid points and at
        # most 9 Newton sweeps, and no key takes another route; every key is
        # solved, the 17 of the m2 in [1e-4, 1e4] set that took the
        # golden-section fallback before the shared Newton engine among them
        golden, evals = [], []
        kernel = wc.noncoverage_sq

        def counted_kernel(t, chi):
            evals.append(np.broadcast(t, chi).size)
            return kernel(t, chi)

        monkeypatch.setattr(_solve, "grid_golden_max", lambda *args: golden.append(args))
        monkeypatch.setattr(wc, "noncoverage_sq", counted_kernel)
        sweeps = []
        for i in range(keys[0].size):
            evals.clear()
            wc._fourth_binding_batch(*(v[i : i + 1] for v in keys))
            sweeps.append(sum(evals) // 2)
        assert len(sweeps) > 3000 and sweeps.count(1) > 0
        assert not golden
        assert set(sweeps) <= {1} | set(range(10, 19))

    @pytest.mark.parametrize("m2", [3162.0, 1e4, 1e6])
    def test_underflowed_corner_slope_is_not_a_corner(self, m2):
        # at kappa = 3 the corner's value and slope underflow to exactly 0
        # while the maximum sits near the kink; taking the corner there
        # returned chi 135.8 instead of 147.9 at m2 = 3162
        chi = wc.critical_values([m2], 3.0, 0.05)
        m, k = np.array([m2]), np.array([3.0])
        f, slope = wc._pair_slopes(np.ones(1), m, k, chi, order=1)
        assert f[0] == 0.0 and slope[0] == 0.0
        assert chi[0] == pytest.approx(cva_scalar(m2, 3.0, 0.05), abs=1e-8)
        assert wc._worst_noncoverage_batch(m, k, chi)[0] <= 0.05
        assert wc._worst_noncoverage_batch(m, k, chi - 1e-8)[0] > 0.05


def _slope_and_difference(m2, kap, chi, h):
    """The envelope slope of the worst case and its central difference."""
    _, slope = wc._worst_noncoverage_batch(m2, kap, chi, slope=True)
    diff = (
        wc._worst_noncoverage_batch(m2, kap, chi + h) - wc._worst_noncoverage_batch(m2, kap, chi - h)
    ) / (2.0 * h)
    return slope, diff


def _slope_regimes(m2, kap, chi):
    """Each key's least favorable support, as ``_worst_noncoverage_batch``
    picks it: point mass, chord {0, t0}, binding corner or binding interior."""
    t0 = wc._majorant_kink_batch(chi)
    point = (m2 >= t0) | (kap <= 1.0 + 1e-9)
    binding = wc._binding(m2, kap, t0)
    _, x0, _, _, _ = wc._fourth_binding_batch(m2[binding], kap[binding], chi[binding], t0[binding])
    corner = np.zeros(m2.shape, dtype=bool)
    corner[np.flatnonzero(binding)[x0 == 0.0]] = True
    return {
        "point": point & ~binding,
        "chord": ~point & ~binding,
        "corner": corner,
        "interior": binding & ~corner,
    }


class TestEnvelopeSlope:
    """d worst / d chi from the least favorable support (Danskin) against a
    central difference of the worst case, in every regime."""

    @pytest.mark.parametrize(
        "kappa,regimes",
        [
            (None, ("point", "chord")),
            (1.0, ("point",)),
            (1.0 + 1e-10, ("point",)),
            (1.5, ("chord", "corner", "interior")),
            (3.0, ("chord", "corner", "interior")),
            (20.0, ("chord", "corner", "interior")),
            (wc.KAPPA_UNCONSTRAINED, ("point", "chord")),
            (1e7, ("point", "chord")),
        ],
    )
    def test_matches_central_difference(self, kappa, regimes):
        # seeded keys within 3% of their cva and at 60% of it, where the
        # worst case is neither flat at 1 nor underflowing; each regime
        # listed has at least five of them
        rng = np.random.default_rng(41)
        m2 = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 300))
        kap = np.full(m2.shape, math.inf if kappa is None else kappa)
        cva = wc.critical_values(m2, kap, 0.05)
        chi = np.concatenate([cva * rng.uniform(0.97, 1.03, m2.size), 0.6 * cva])
        m2, kap = np.tile(m2, 2), np.tile(kap, 2)
        slope, diff = _slope_and_difference(m2, kap, chi, 1e-6 * chi)
        worst = wc._worst_noncoverage_batch(m2, kap, chi)
        resolved = (worst > 1e-6) & (worst < 0.9)
        np.testing.assert_allclose(slope[resolved], diff[resolved], rtol=1e-6)
        found = _slope_regimes(m2, kap, chi)
        assert all((found[name] & resolved).sum() >= 5 for name in regimes)

    @pytest.mark.parametrize("kappa", [None, 3.0, 1.5])
    def test_matches_central_difference_past_rescale(self, kappa):
        # chi >= 2**46: the worst case is taken at (m2 / 4**k, chi / 2**k),
        # and its slope is 2**-k times the slope there
        m2 = np.repeat([1e30, 1e60, 1e100, 1e200, 1e300], 3)
        kap = np.full(m2.shape, math.inf if kappa is None else kappa)
        chi = wc.critical_values(m2, kap, 0.05) * np.tile([0.97, 1.0, 1.03], 5)
        assert np.all(chi >= 2.0**46)
        slope, diff = _slope_and_difference(m2, kap, chi, 1e-6 * chi)
        np.testing.assert_allclose(slope, diff, rtol=1e-6)

    def test_point_mass_past_rescale(self):
        # a point mass at m2 = 2**94 puts its cva near 2**47 + 1.64, where
        # the float spacing is 2**-5
        m2 = np.full(5, 2.0**94)
        kap = np.ones(5)
        chi = 2.0**47 + np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        slope, diff = _slope_and_difference(m2, kap, chi, 0.25)
        np.testing.assert_allclose(slope, diff, rtol=1e-3)
        assert np.all(slope < 0)


class TestCriticalValue:
    def test_zero_moment_gives_z_quantile(self):
        # m2 = 0 takes the Newton route too: the least lattice point above
        # z, 2**-27 apart, whose worst case is at most alpha
        res = wc.critical_value(wc.MomentConstraints(0.0), 0.05)
        assert Z975 < res.chi <= Z975 + 1e-8
        assert res.noncoverage <= 0.05

    @pytest.mark.parametrize("kappa", [None, 3.0])
    @pytest.mark.parametrize("alpha", [0.6, 0.1, 0.05, 0.01, 1e-5, 0.999, 1e-12])
    def test_zero_moment_certified(self, alpha, kappa):
        # chi = z itself used to be returned unchecked, and its 2 Phi(-z)
        # rounded above alpha at 0.6, 0.1, 0.01 and 1e-5; at 1e-12,
        # ndtri(1 - alpha / 2) is 1.2e-5 below the quantile
        worst = lambda chi: wc.worst_noncoverage(wc.MomentConstraints(0.0, kappa), chi)
        chi = float(wc.critical_values([0.0], kappa, alpha)[0])
        assert worst(chi) <= alpha < worst(chi - 1e-8)
        assert chi == pytest.approx(-float(ndtri(0.5 * alpha)), abs=1e-8)
        assert chi == pytest.approx(cva_scalar(0.0, kappa, alpha), abs=1e-8)
        res = wc.critical_value(wc.MomentConstraints(0.0, kappa), alpha)
        assert res.chi == chi and res.noncoverage == worst(chi) <= alpha
        assert res.lf.points == (0.0,) and res.lf.probs == (1.0,)

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
        # every key against the scalar oracle, which inverts one chi at a time
        rng = np.random.default_rng(3)
        m2 = np.concatenate([[0.0], rng.uniform(0.01, 40, 40)])
        for alpha in (0.05, 0.1):
            batch = wc.critical_values(m2, kappa=None, alpha=alpha)
            ref = [cva_scalar(float(m), None, alpha) for m in m2]
            np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-6)
        kap = rng.uniform(1.2, 20, m2.size)
        batch4 = wc.critical_values(m2, kappa=kap, alpha=0.05)
        ref4 = [cva_scalar(float(m), float(k), 0.05) for m, k in zip(m2, kap)]
        np.testing.assert_allclose(batch4, ref4, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "m2,alpha",
        [(644.47803431, 1e-3), (41.1605078, 1e-3), (3135.63003865, 1e-3), (730.87514358, 0.01)],
    )
    def test_second_moment_rejects_spurious_newton_root(self, m2, alpha):
        # the chord equations (kink objective zero, chord value alpha) have a
        # root with the kink below m2 here, outside the chord regime, which
        # the inversion of the worst case itself must not return
        chi = wc.critical_values([m2], None, alpha)[0]
        assert chi == pytest.approx(cva_scalar(m2, None, alpha), abs=1e-8)

    def test_coverage_guarantee(self):
        # every chi is the upper end of a bracket of width 1e-8 around the root
        rng = np.random.default_rng(7)
        # below 1e-13 the binding pair's lower point can round to m2 itself
        tiny = [1e-300, 1e-100, 1e-20, 1e-13]
        m2 = np.concatenate([tiny, [1e-8, 1e-4], np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 40)), [1e6]])
        for kappa in (None, 1.0 + 1e-6, 1.5, 3.0, 12.0, 1e5):
            kap = np.full(m2.shape, math.inf if kappa is None else kappa)
            # at alpha 0.6 and 0.9, z < 1 and the bracket's upper end has to double
            for alpha in (1e-3, 0.01, 0.05, 0.3, 0.6, 0.9):
                chi = wc.critical_values(m2, kappa, alpha)
                at = wc._worst_noncoverage_batch(m2, kap, chi)
                below = wc._worst_noncoverage_batch(m2, kap, chi - 1e-8)
                assert np.all(at <= alpha + 1e-12), (kappa, alpha, m2[at > alpha + 1e-12])
                assert np.all(below > alpha), (kappa, alpha, m2[below <= alpha])

    @pytest.mark.parametrize("kappa", [None, 3.0])
    @pytest.mark.parametrize("m2", [1e15, 1e16, 1e20, 1e100, 1e200, 1e300, 1e307, 1e308])
    def test_very_large_m2(self, m2, kappa):
        # beyond chi = 2**26 the float spacing exceeds the 1e-8 bracket width,
        # so the inversion has to stop at adjacent floats; the worst case
        # must be a finite value in [0, alpha], not an overflowed -inf
        chi = wc.critical_values([m2], kappa, 0.05)
        kap = np.array([math.inf if kappa is None else kappa])
        assert np.all(np.isfinite(chi))
        worst = wc._worst_noncoverage_batch(np.array([m2]), kap, chi)[0]
        assert np.isfinite(worst) and 0.0 <= worst <= 0.05

    @pytest.mark.parametrize("m2", [1e14, 1e20, 1e40, 1e100, 1e300, 1e307, 1.7e308])
    def test_very_large_m2_limits(self, m2):
        # chi / sqrt(m2) tends to 1 / sqrt(alpha) under the second moment
        # alone (Markov on t = b^2 at its kink, just above chi^2), and to
        # sqrt(1 + sqrt((kappa - 1) (1 / alpha - 1))) with kappa = 3 (Cantelli)
        alpha = 0.05
        markov = 1.0 / math.sqrt(alpha)
        cantelli = math.sqrt(1.0 + math.sqrt(2.0 * (1.0 / alpha - 1.0)))
        chi2 = wc.critical_values([m2], None, alpha)[0] / math.sqrt(m2)
        chi4 = wc.critical_values([m2], 3.0, alpha)[0] / math.sqrt(m2)
        assert chi2 == pytest.approx(markov, rel=1e-6)
        assert chi4 == pytest.approx(cantelli, rel=1e-6 if m2 > 1e20 else 1e-3)

    def test_kink_far_and_huge_chi(self):
        # past chi = 1e6 the root leaves (chi + 5)^2, and past 2**56 it sits
        # below the next float above chi; the chord slope r(t0) / t0 is
        # checked against the asymptote: r(t0) -> 1 and t0 / chi^2 -> 1
        chis = np.array([2e6, 1e8, 1e12, 1e16, 1e18, 1e40, 1e150, 2.0**500])
        t0 = wc._majorant_kink_batch(chis)
        slope = wc.noncoverage_sq(t0, chis) * (chis / t0) * chis
        np.testing.assert_allclose(slope, 1.0, rtol=0, atol=1e-5)
        assert np.all(t0 > chis * chis)
        with np.errstate(over="raise"):
            assert wc.majorant_kink(1e154) > 1e308
            assert wc.majorant_kink(2e154) == math.inf

    @pytest.mark.parametrize("kappa", [None, 3.0])
    def test_chi_just_above_sqrt3(self, kappa):
        # z is within 1e-6 of sqrt(3), where the kink root is ill-conditioned
        alpha = 0.08326433863159476
        res = wc.critical_value(wc.MomentConstraints(1e-9, kappa), alpha=alpha)
        assert res.chi == pytest.approx(wc.critical_values([1e-9], kappa, alpha)[0], abs=1e-8)
        assert res.diagnostics["t0"] > 0

    @pytest.mark.parametrize("kappa", [None, 3.0])
    def test_scalar_worst_case_at_most_alpha(self, kappa):
        # the scalar route returns the upper end of a bracket of width 1e-8
        # too; first at z just above sqrt(3), then on seeded m2 draws
        alpha = 0.08326433863159476
        res = wc.critical_value(wc.MomentConstraints(1e-9, kappa), alpha=alpha)
        assert wc.worst_noncoverage(wc.MomentConstraints(1e-9, kappa), res.chi) <= alpha
        assert res.noncoverage <= alpha
        rng = np.random.default_rng(11)
        for m2 in np.exp(rng.uniform(np.log(1e-4), np.log(1e3), 60 if kappa is None else 20)):
            cons = wc.MomentConstraints(float(m2), kappa)
            res = wc.critical_value(cons, 0.05)
            chi = res.chi
            # the worst case of the one solve in _solution is the batch's, bit for bit
            assert res.noncoverage == wc.worst_noncoverage(cons, chi) <= 0.05, m2
            assert wc.worst_noncoverage(cons, chi - 1e-8) > 0.05, m2
            assert chi == pytest.approx(wc.critical_values(m2, kappa, 0.05)[0], abs=1e-8)

    @pytest.mark.parametrize("kappa", [None, 1.000001, 3.0])
    @pytest.mark.parametrize("alpha", [0.05, 0.001, 0.6])
    def test_scalar_route_rescales_extreme_keys(self, kappa, alpha):
        # the kink and the pair are solved at the key the batch rescales to,
        # and their points scaled back; solved at the unscaled chi they
        # overflowed at m2 = 1.7e308, and the attained value exceeded alpha
        for m2 in (1e-300, 1e-20, 1.0, 1e20, 1e150, 1e300, 1.7e308):
            cons = wc.MomentConstraints(m2, kappa)
            res = wc.critical_value(cons, alpha)
            assert res.noncoverage == wc.worst_noncoverage(cons, res.chi) <= alpha
            assert wc.least_favorable(cons, res.chi) == res.lf
            if math.isfinite(res.lf.points[-1]):
                assert res.lf.moment(1) == pytest.approx(m2, rel=1e-12)
            # a pair collapsed onto m2 (m2 = 1e-300) is the point mass there
            if "x0" in res.diagnostics and len(res.lf.points) == 2:
                assert res.lf.points == (res.diagnostics["x0"], res.diagnostics["x"])
                assert res.diagnostics["x0"] <= m2 <= res.diagnostics["x"] <= res.diagnostics["t0"]

    def test_binding_diagnostics_are_the_least_favorable_pair(self):
        rng = np.random.default_rng(12)
        binding = 0
        for _ in range(40):
            m2 = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            kappa = 1.0 + float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
            alpha = float(rng.choice([0.01, 0.05, 0.1]))
            res = wc.critical_value(wc.MomentConstraints(m2, kappa), alpha)
            if "x0" in res.diagnostics:
                binding += 1
                assert res.lf.points == (res.diagnostics["x0"], res.diagnostics["x"])
                assert math.isfinite(res.diagnostics["lambda2"])
        assert binding > 0

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


class TestNoKurtosisBound:
    """kappa = inf is the one spelling of no kurtosis bound: None at the
    public entry points is read as inf, and the engines take a key without
    a bound, m2 = 0 included, without the inf * 0 that warned there."""

    @pytest.mark.parametrize("alpha", [0.05, 0.001])
    def test_inf_matches_none_bit_for_bit(self, alpha):
        rng = np.random.default_rng(29)
        m2 = np.concatenate([[0.0, 1.7e308], np.exp(rng.uniform(np.log(1e-8), np.log(1e300), 400))])
        inf = np.full(m2.shape, math.inf)
        chi = wc.critical_values(m2, None, alpha)
        assert np.array_equal(wc.critical_values(m2, math.inf, alpha), chi)
        assert np.array_equal(wc.critical_values(m2, inf, alpha), chi)
        # a kappa past KAPPA_UNCONSTRAINED is slack as well, and never met inf * 0
        slack = np.full(m2.shape, 1e7)
        assert np.array_equal(wc.critical_values(m2, slack, alpha), chi)
        for c in (chi, 0.5 * chi, 2.0 * chi):
            worst = wc._worst_noncoverage_batch(m2, inf, c)
            assert np.array_equal(worst, wc._worst_noncoverage_batch(m2, slack, c))
            assert np.array_equal(worst, wc.worst_noncoverage_second(m2, c))
        assert wc.MomentConstraints(1.0, None) == wc.MomentConstraints(1.0) == wc.MomentConstraints(1.0, math.inf)
        assert wc.MomentConstraints(1.0).kappa == math.inf


def _certified(m2, kap, chi, alpha):
    """worst(chi) <= alpha < worst(chi - 1e-8), or at the next float below
    chi where 1e-8 is below its spacing."""
    below = np.minimum(chi - 1e-8, np.nextafter(chi, -np.inf))
    at_most = wc._worst_noncoverage_batch(m2, kap, chi) <= alpha
    return at_most & (wc._worst_noncoverage_batch(m2, kap, below) > alpha)


_KAPPAS = st.one_of(
    st.none(),
    st.sampled_from([1.0, 1.0 + 1e-9, wc.KAPPA_UNCONSTRAINED, 1e7]),
    st.floats(0.0, math.log(1e7)).map(math.exp),
)
# keys around the one under test, for the batch check
_BACKGROUND = np.exp(np.random.default_rng(5).uniform(np.log(1e-4), np.log(1e6), 30))


class TestNewtonInversion:
    """Critical values by Newton on the envelope slope: each chi is the least
    point of the 2**-27 lattice whose worst case is at most alpha, whatever
    the batch around it and wherever Newton starts."""

    @settings(max_examples=150, deadline=None)
    @given(log_m2=st.floats(math.log(1e-8), math.log(1e300)), kappa=_KAPPAS)
    def test_certified_and_independent_of_the_batch(self, log_m2, kappa):
        m2 = np.array([math.exp(log_m2)])
        chi = wc.critical_values(m2, kappa, 0.05)
        kap = np.array([math.inf if kappa is None else kappa])
        assert _certified(m2, kap, chi, 0.05).all()
        batch = wc.critical_values(np.concatenate([_BACKGROUND[:17], m2, _BACKGROUND[17:]]), kappa, 0.05)
        assert batch[17] == chi[0]

    @settings(max_examples=60, deadline=None)
    @given(log_m2=st.floats(math.log(1e-8), math.log(1e10)), kappa=_KAPPAS)
    # kappa - 1 = 2.5e-9 at tau near 1e6: 1 - xi_max rounds to 0 in the
    # oracle's grid unless its small end is computed directly
    @example(log_m2=-13.0, kappa=1.0000000025311835)
    def test_matches_scalar_oracle(self, log_m2, kappa):
        m2 = math.exp(log_m2)
        chi = wc.critical_values([m2], kappa, 0.05)[0]
        assert chi == pytest.approx(cva_scalar(m2, kappa, 0.05), abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(log_m2=st.floats(math.log(1e10), math.log(1e300)), kappa=_KAPPAS)
    def test_matches_scalar_oracle_far(self, log_m2, kappa):
        # chi runs from about 4e5 to 1e151; both routes stop within 1e-8 or
        # at adjacent floats, which is below 1e-13 relative up there
        m2 = math.exp(log_m2)
        chi = wc.critical_values([m2], kappa, 0.05)[0]
        assert chi == pytest.approx(cva_scalar(m2, kappa, 0.05), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.001, 0.6])
    @pytest.mark.parametrize("kappa", ["drawn", None])
    def test_seeded_sweep_certified(self, kappa, alpha):
        rng = np.random.default_rng(17)
        m2 = np.exp(rng.uniform(np.log(1e-8), np.log(1e300), 10_000))
        kap = np.exp(rng.uniform(0.0, np.log(1e7), m2.size)) if kappa else np.full(m2.shape, math.inf)
        chi = wc.critical_values(m2, kap, alpha)
        assert _certified(m2, kap, chi, alpha).all()

    def test_rounding_noise_at_huge_m2(self):
        # the last bits of the worst case are not monotone in chi here: a
        # float whose worst case is at most alpha lies just below one whose
        # worst case exceeds it, so the lower of the two cannot end a bracket
        m2, kap = np.array([4.979577501831013e49]), np.array([8.338150244206348])
        chi = wc.critical_values(m2, kap, 0.001)
        assert _certified(m2, kap, chi, 0.001).all()
        # chi near 2.3e7: the float below the upper end of a 1e-8 bracket
        # had a worst case of alpha exactly, which the lattice point below
        # chi does not share
        m2, kap = np.array([732677396652.5332]), np.array([math.inf])
        chi = wc.critical_values(m2, None, 0.001)
        assert _certified(m2, kap, chi, 0.001).all()

    @pytest.mark.parametrize("alpha", [0.05, 0.001, 0.6])
    @pytest.mark.parametrize("kappa", ["drawn", None])
    def test_start_independent(self, monkeypatch, kappa, alpha):
        # chi is the least lattice point whose worst case is at most alpha,
        # so moving Newton's start moves no chi below 2**25; above it, where
        # the lattice is every float, rounding plateaus of the worst case
        # may hold more than one crossing
        rng = np.random.default_rng(31)
        m2 = np.exp(rng.uniform(np.log(1e-8), np.log(1e20), 20_000))
        kap = np.exp(rng.uniform(0.0, np.log(1e7), m2.size)) if kappa else np.full(m2.shape, math.inf)
        chi = wc.critical_values(m2, kap, alpha)
        small = chi < 2.0**25
        assert small.mean() > 0.7
        newton_invert = _solve.newton_invert
        for factor in (0.97, 1.001, 1.3):
            moved = lambda worst, alpha, x, lo, hi: newton_invert(worst, alpha, np.clip(factor * x, lo, hi), lo, hi)
            monkeypatch.setattr(_solve, "newton_invert", moved)
            np.testing.assert_array_equal(wc.critical_values(m2, kap, alpha)[small], chi[small])

    def test_chunks_move_no_chi(self, monkeypatch):
        # the distinct keys go to the solver in slices; with duplicates
        # across slices, chi is bit-identical to that of one slice
        rng = np.random.default_rng(23)
        m2 = rng.choice(np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 40)), 200)
        kap = rng.choice([3.0, 5.35, math.inf], 200)
        whole = wc.critical_values(m2, kap, 0.05)
        monkeypatch.setattr(wc, "_CVA_CHUNK", 7)
        np.testing.assert_array_equal(wc.critical_values(m2, kap, 0.05), whole)

    @pytest.mark.parametrize("alpha", [0.05, 0.001, 0.6])
    @pytest.mark.parametrize("keys", ["fit", "log_uniform"])
    def test_second_moment_keys_take_few_sweeps(self, monkeypatch, keys, alpha):
        # without a kurtosis bound the keys take the same Newton route: at
        # most 8 sweeps and no hand-over to invert
        rng = np.random.default_rng(19)
        if keys == "fit":
            m2 = rng.uniform(0.5, 2.0, 10_000) ** 2 / 1.25
        else:
            m2 = np.exp(rng.uniform(np.log(1e-8), np.log(1e300), 10_000))
        sweeps, fallbacks = [], []
        worst, invert = wc._worst_noncoverage_batch, _solve.invert

        def counted(*args, **kwargs):
            sweeps.append(1)
            return worst(*args, **kwargs)

        monkeypatch.setattr(wc, "_worst_noncoverage_batch", counted)
        monkeypatch.setattr(_solve, "invert", lambda *a: fallbacks.append(a) or invert(*a))
        chi = wc.critical_values(m2, None, alpha)
        monkeypatch.undo()
        assert len(sweeps) <= 8
        assert not fallbacks
        assert _certified(m2, np.full(m2.shape, math.inf), chi, alpha).all()

    @pytest.mark.parametrize("kind,snr", [("normal", 0.1), ("scaled_chi2_1", 0.1), ("three_point", 2.0)])
    def test_study_keys_take_few_sweeps(self, monkeypatch, kind, snr):
        # one design's 50 replications, each with its own estimated (m2,
        # kappa); se = 1 at t = inf, so m2 = 1 / mu2
        design = sim.PanelDesign(
            n=500, t=math.inf, err="normal", snr=snr, theta=sim.ThetaDistribution(kind, snr)
        )
        reps = sim._replications([sim._simulate_rep((design, 0, r, 3)) for r in range(50)], design.weights)
        sweeps, fallbacks = [], []
        worst, invert = wc._worst_noncoverage_batch, _solve.invert

        def counted(*args, **kwargs):
            sweeps.append(1)
            return worst(*args, **kwargs)

        monkeypatch.setattr(wc, "_worst_noncoverage_batch", counted)
        monkeypatch.setattr(_solve, "invert", lambda *a: fallbacks.append(a) or invert(*a))
        chi = wc.critical_values(1.0 / reps["mu2"], reps["kappa"], 0.05)
        monkeypatch.undo()
        assert len(sweeps) <= 8
        assert not fallbacks
        assert _certified(1.0 / reps["mu2"], reps["kappa"], chi, 0.05).all()


class TestKeyRuns:
    """critical_values collapses runs of equal consecutive keys before its
    sort; the chi of every element is that of its key alone."""

    def test_runs_shuffled_and_one_call_per_key_agree(self):
        rng = np.random.default_rng(31)
        m2_keys = np.array([0.3, 1.7, 0.3, 12.0, 0.05, 1.7])
        kap_keys = np.array([3.0, 2.5, math.inf, 3.0, 7.0, 2.5])
        # runs of 1 to 40, with keys 0 and 1 repeated in runs apart
        lengths = [40, 1, 7, 3, 25, 2]
        m2, kap = np.repeat(m2_keys, lengths), np.repeat(kap_keys, lengths)
        chi = wc.critical_values(m2, kap, 0.05)
        alone = [wc.critical_values([a], b, 0.05)[0] for a, b in zip(m2_keys, kap_keys)]
        np.testing.assert_array_equal(chi, np.repeat(alone, lengths))
        perm = rng.permutation(m2.size)
        np.testing.assert_array_equal(wc.critical_values(m2[perm], kap[perm], 0.05), chi[perm])

    @pytest.mark.parametrize("kappa_shape", [(4, 1), (5,)])
    def test_two_dimensional_m2_with_broadcast_kappa(self, kappa_shape):
        rng = np.random.default_rng(32)
        # rows of equal m2: runs of 5 in the flat order; kappa (5,) breaks them
        m2 = np.repeat(rng.uniform(0.1, 3.0, (4, 1)), 5, axis=1)
        kappa = rng.uniform(1.5, 6.0, kappa_shape)
        chi = wc.critical_values(m2, kappa, 0.05)
        assert chi.shape == (4, 5)
        kap = np.broadcast_to(kappa, m2.shape)
        want = [[wc.critical_values([a], b, 0.05)[0] for a, b in zip(ra, rb)] for ra, rb in zip(m2, kap)]
        np.testing.assert_array_equal(chi, want)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input_keeps_its_shape(self, shape):
        for kappa in (math.inf, 3.0, np.full(shape[-1:], 3.0)):
            chi = wc.critical_values(np.zeros(shape), kappa, 0.05)
            assert chi.shape == shape and chi.dtype == float

    def test_study_keys_solved_once_each(self, monkeypatch):
        design = sim.PanelDesign(n=500, t=math.inf, err="normal", snr=2.0, theta=sim.ThetaDistribution("normal", 2.0))
        reps = sim._replications([sim._simulate_rep((design, 0, r, 3)) for r in range(50)], design.weights)
        mu2, kappa = design.theta.moments()
        # robust_mu2_kappa's 50 x 500 units, then the oracle keys of
        # robust_mu2_kappa and robust_mu2
        m2 = np.append(np.repeat(1.0 / reps["mu2"], 500), [1.0 / mu2, 1.0 / mu2])
        kap = np.append(np.repeat(reps["kappa"], 500), [kappa, math.inf])
        seen = []
        solve = wc._cva_keys
        monkeypatch.setattr(wc, "_cva_keys", lambda keys, alpha: seen.append(keys.copy()) or solve(keys, alpha))
        chi = wc.critical_values(m2, kap, 0.05)
        monkeypatch.undo()
        key = m2.astype(complex)
        key.imag = kap
        assert m2.size == 25_002
        np.testing.assert_array_equal(np.concatenate(seen), np.unique(key))
        assert sum(map(len, seen)) == 52
        np.testing.assert_array_equal(chi, wc.critical_values(m2[::-1], kap[::-1], 0.05)[::-1])


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
            if cons.kappa < t0 / m2 and m2 < t0:
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
