import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from shrinkci import _solve
from shrinkci import worstcase as wc


class _Counted:
    """Wraps an objective and counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


class TestGridGoldenMax:
    @pytest.mark.parametrize("iters", [0, 1, 10, 48])
    def test_one_evaluation_per_step(self, iters):
        f = _Counted(lambda x: -np.square(x - 0.3))
        grid = np.linspace(0.0, 1.0, 11)[:, None] * np.ones((1, 4))
        _solve.grid_golden_max(f, grid, iters)
        # grid, the two starting interior points, one per step, the final point
        assert f.calls == iters + 4

    @pytest.mark.parametrize(
        "f",
        [
            # unimodal, peak between grid points
            lambda x, s=np.array([0.5, 1.0, 2.0]): -np.square(x - 0.4 * s) * s,
            # two peaks; the higher one is narrow and sits between grid points
            lambda x, s=np.array([0.5, 1.0, 2.0]): (
                np.exp(-np.square((x - 0.2) / 0.1))
                + 1.2 * s * np.exp(-np.square((x - 0.71) / 0.04))
            ),
        ],
        ids=["unimodal", "two_peak"],
    )
    def test_matches_dense_grid_oracle(self, f):
        grid = np.linspace(0.0, 1.0, 49)[:, None] * np.ones((1, 3))
        x, fx = _solve.grid_golden_max(f, grid, 48)
        dense = np.linspace(0.0, 1.0, 2_000_001)[:, None] * np.ones((1, 3))
        vals = f(dense)
        j = np.argmax(vals, axis=0)
        np.testing.assert_allclose(x, dense[j, 0], atol=1e-6)
        np.testing.assert_allclose(fx, vals[j, np.arange(3)], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fx, f(x), rtol=0, atol=0)

    def test_tie_at_the_first_grid_point_keeps_the_lower_part(self):
        # 0 on the grid, with a narrow peak between its first two points:
        # both first interior points of the bracket read 0, and breaking
        # that tie toward the upper part lost the peak
        peak = np.array([0.01, 0.0125, 0.015, 0.02])
        f = lambda x: np.maximum(0.0, 1.0 - np.abs(x - peak) / 0.006)
        grid = np.linspace(0.0, 1.0, 11)[:, None] * np.ones((1, peak.size))
        x, fx = _solve.grid_golden_max(f, grid, 48)
        np.testing.assert_allclose(x, peak, rtol=0, atol=1e-8)
        np.testing.assert_allclose(fx, 1.0, rtol=0, atol=1e-6)


class TestBracketedRoot:
    @staticmethod
    def _solve_counted(f, lo, hi, tol):
        """Root per entry, with the number of steps each entry took."""
        steps = np.zeros(lo.size, dtype=int)

        def counted(x, idx):
            steps[idx] += 1
            return f(x, idx)

        out = _solve.bracketed_root(
            counted, lo, hi, f(lo, slice(None)), f(hi, slice(None)), tol
        )
        return out, steps

    @pytest.mark.parametrize(
        "name",
        ["smooth", "steep_then_flat", "kink", "kurtosis_cva"],
    )
    def test_bracket_guarantee_and_step_bound(self, name):
        tol = 1e-8
        if name == "kurtosis_cva":
            # nearly degenerate kurtosis at a small alpha
            m2 = np.array([1e-4, 0.05, 0.7, 3.0, 40.0, 900.0])
            kap = np.full(m2.shape, 1.0 + 1e-6)
            alpha = 1e-3
            f = lambda x, i: _solve.log_excess(wc._worst_noncoverage_batch(m2[i], kap[i], x), alpha)
            lo = np.full(m2.shape, ndtri(1.0 - alpha / 2.0))
            hi = lo * np.sqrt((1.0 + m2) / alpha) + 1.0
        else:
            roots = np.array([1e-3, 0.37, 1.0, 2.5, 9.99, 123.4])
            g = {
                "smooth": lambda x, r: np.exp(-x) - np.exp(-r),
                "steep_then_flat": lambda x, r: np.arctan(1e6 * (r - x)),
                "kink": lambda x, r: np.where(x < r, 1e3 * (r - x), 1e-6 * (r - x)),
            }[name]
            f = lambda x, i: g(x, roots[i])
            lo = np.zeros(roots.shape)
            hi = np.full(roots.shape, 200.0)
        out, steps = self._solve_counted(f, lo, hi, tol)
        idx = np.arange(lo.size)
        assert np.all(f(out, idx) <= 0)
        assert np.all(f(out - tol, idx) > 0)
        # never more than the fixed bisection to the same width, plus one
        bisection = np.ceil(np.log2((hi - lo) / tol))
        assert np.all(steps <= bisection + 1)

    def test_lower_end_already_a_root(self):
        f = lambda x, i: 1.0 - x
        lo, hi = np.array([1.0, 2.0, 0.0]), np.array([3.0, 4.0, 5.0])
        out = _solve.bracketed_root(f, lo, hi, f(lo, slice(None)), f(hi, slice(None)), 1e-8)
        assert out[0] == 1.0 and out[1] == 2.0
        assert 1.0 <= out[2] <= 1.0 + 1e-8


class TestInvert:
    @staticmethod
    def _invert_traced(roots, lo, hi, tol=1e-8):
        """invert on worst(x) = 0.5 * 2**(roots - x) at alpha 0.5, with each
        evaluation recorded as (entry, x), in order."""
        trail = []

        def worst(x, idx):
            trail.extend(zip(np.asarray(idx).tolist(), np.asarray(x).tolist()))
            return 0.5 * np.exp2(roots[idx] - x)

        return _solve.invert(worst, 0.5, lo, hi, tol), trail

    def test_lower_end_returned_where_it_holds(self):
        roots = np.array([0.5, 3.0, 1.0])
        out, trail = self._invert_traced(roots, np.array([1.0, 1.0, 1.0]), np.full(3, 4.0))
        assert out[0] == 1.0 and out[2] == 1.0
        assert 3.0 <= out[1] <= 3.0 + 1e-8
        # the lower end first, for every entry; the upper end only where needed
        assert trail[:3] == [(0, 1.0), (1, 1.0), (2, 1.0)]
        assert all(i == 1 for i, _ in trail[3:])

    def test_bracket_moves_up_with_the_doubling(self):
        roots = np.array([0.5, 3.0, 100.0])
        tol = 1e-8
        out, trail = self._invert_traced(roots, np.zeros(3), np.ones(3), tol)
        assert np.all(0.5 * np.exp2(roots - out) <= 0.5)
        assert np.all(0.5 * np.exp2(roots - (out - tol)) > 0.5)
        # the failing upper ends 1, 2, ..., 64 of entry 2, then 128, then a
        # search inside [64, 128] only
        xs = [x for i, x in trail if i == 2]
        assert xs[:9] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        assert all(64.0 < x < 128.0 for x in xs[9:])
        assert len(xs) - 9 <= np.ceil(np.log2(64.0 / tol)) + 1

    def test_raises_after_forty_doublings(self):
        calls = []

        def worst(x, idx):
            calls.append(x.copy())
            return np.ones_like(x)

        with pytest.raises(RuntimeError, match="exceeds alpha"):
            _solve.invert(worst, 0.5, np.zeros(2), np.ones(2), 1e-8)
        # the lower end, then 40 upper ends
        assert len(calls) == 41
        np.testing.assert_array_equal(calls[-1], np.full(2, 2.0**39))


class TestNewtonInvert:
    @staticmethod
    def _traced(worst, x, lo, hi, alpha=0.05):
        """newton_invert with every sweep recorded (invert's too), and each
        hand-over to invert as (entries, sweeps before it)."""
        sweeps, handed = [], []
        invert = _solve.invert

        def counted(x, idx):
            sweeps.append(np.asarray(idx).copy())
            return worst(x, idx)

        def recorded(value, alpha, lo, hi, tol):
            handed.append((lo.size, len(sweeps)))
            return invert(value, alpha, lo, hi, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_solve, "invert", recorded)
            out = _solve.newton_invert(counted, alpha, x, lo, hi)
        return out, sweeps, handed

    def test_power_law_in_one_step(self):
        # worst = alpha (r / x)^2 is a line in (log x, log worst): one Newton
        # step lands on the root, where the value is at most alpha up to
        # rounding, and the pair around the lattice ceiling of the next
        # estimate shows the crossing
        roots = np.array([0.3, 2.0, 7.5, 1e3, 4e5])
        worst = lambda x, i: (0.05 * (roots[i] / x) ** 2, -0.1 * roots[i] ** 2 / x**3)
        n = roots.size
        out, sweeps, handed = self._traced(worst, np.full(n, 0.1), np.full(n, 0.1), np.full(n, 1e7))
        assert len(sweeps) == 3 and not handed
        assert np.all((out >= roots) & (out <= roots + 1e-8))
        assert np.all(worst(out, np.arange(n))[0] <= 0.05)
        assert np.all(worst(out - 1e-8, np.arange(n))[0] > 0.05)

    def test_adjacent_floats_past_the_tolerance(self):
        # from about 1e8 on the float spacing exceeds tol / 10, and the pair
        # is the estimate and the next float; each result is the smallest
        # float whose worst case is at most alpha
        roots = np.array([3e8, math.pi * 1e20, 7e150])
        worst = lambda x, i: (0.05 * (roots[i] / x) ** 4, -0.2 * (roots[i] / x) ** 4 / x)
        out, _, handed = self._traced(worst, roots / 3.0, roots / 3.0, roots * 10.0)
        assert not handed
        idx = np.arange(roots.size)
        assert np.all(worst(out, idx)[0] <= 0.05)
        assert np.all(worst(np.nextafter(out, -np.inf), idx)[0] > 0.05)

    def test_least_lattice_point_whatever_the_start(self):
        # the result is the least multiple of 2**-27 whose worst case is at
        # most alpha, bit for bit the same from every start in the bracket,
        # the fallback route included (the root 3e7 started from 0.1)
        roots = np.array([0.7, math.pi, 6.0 + 1e-9, 1234.5678, 3e7])

        def worst(x, i):
            value = 0.05 * np.exp2(10.0 * (1.0 - x / roots[i]))
            return value, -10.0 * np.log(2.0) / roots[i] * value

        n = roots.size
        lo, hi = np.full(n, 0.1), roots + 10.0
        outs = [self._traced(worst, x, lo, hi)[0] for x in (lo, 0.97 * roots, 1.001 * roots, 1.3 * roots, hi)]
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])
        out, lattice = outs[0], 2.0**-27
        assert np.all(np.ldexp(out, 27) == np.floor(np.ldexp(out, 27)))
        idx = np.arange(n)
        assert np.all(worst(out, idx)[0] <= 0.05)
        assert np.all(worst(np.minimum(out - lattice, np.nextafter(out, -np.inf)), idx)[0] > 0.05)

    def test_useless_slope_goes_to_invert(self):
        # a zero slope gives no Newton step: the entry bisects to within
        # about 1e-5 of the root, its walk of _WALK_SWEEPS lattice points
        # does not reach the crossing, and invert finishes it alone, its
        # result checked by the same walk; the other entry has a true slope
        # and stops on its own.  The root 3 is a lattice point, which both
        # entries return
        roots = np.array([3.0, 3.0])
        scale = np.array([1.0, 0.0])

        def worst(x, i):
            value = 0.5 * np.exp2(roots[i] - x)
            return value, -np.log(2.0) * value * scale[i]

        out, sweeps, handed = self._traced(worst, np.ones(2), np.ones(2), np.full(2, 10.0), alpha=0.5)
        assert [entries for entries, _ in handed] == [1]
        assert all(np.all(idx == 1) for idx in sweeps[handed[0][1] :])
        assert out.tolist() == [3.0, 3.0]


class TestNewtonRoot:
    @staticmethod
    def _traced(f, x, lo, hi, floor, xtol):
        """newton_root with each evaluation recorded as (entry, x), in order."""
        trail = []

        def traced(x, idx):
            trail.extend(zip(np.asarray(idx).tolist(), np.asarray(x).tolist()))
            return f(x, idx)

        return _solve.newton_root(traced, x, lo, hi, floor, xtol), trail

    @pytest.mark.parametrize("kind", ["exp", "arctan", "cubic"])
    def test_matches_brentq(self, kind):
        rng = np.random.default_rng(8)
        roots = rng.uniform(0.5, 20.0, 30)
        s = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 30))
        g, dg = {
            "exp": (lambda x, r, s: s * (np.exp(-x) - np.exp(-r)), lambda x, r, s: -s * np.exp(-x)),
            "arctan": (lambda x, r, s: np.arctan(s * (r - x)), lambda x, r, s: -s / (1.0 + (s * (r - x)) ** 2)),
            "cubic": (lambda x, r, s: s * (r - x) ** 3 + (r - x), lambda x, r, s: -3.0 * s * (r - x) ** 2 - 1.0),
        }[kind]
        f = lambda x, i: (g(x, roots[i], s[i]), dg(x, roots[i], s[i]))
        xtol = 1e-10
        lo, hi = np.zeros(30), np.full(30, 25.0)
        out = _solve.newton_root(f, rng.uniform(lo, hi), lo, hi, 0.0, xtol)
        ref = [brentq(lambda x: g(x, r, c), 0.0, 25.0, xtol=1e-15, rtol=1e-15) for r, c in zip(roots, s)]
        np.testing.assert_allclose(out, ref, rtol=xtol, atol=0)

    def test_step_leaving_the_bracket_bisects(self):
        # entry 0's slope is far too shallow, so each Newton step leaves the
        # bracket and the midpoint replaces it; entry 1's slope is exact and
        # one step lands on the root
        slope = np.array([-1e-3, -1.0])
        f = lambda x, i: (1.0 - x, slope[i])
        out, trail = self._traced(f, np.zeros(2), np.zeros(2), np.full(2, 8.0), 0.0, 1e-12)
        assert [x for i, x in trail if i == 0] == [0.0, 4.0, 2.0, 1.0]
        assert [x for i, x in trail if i == 1] == [0.0, 1.0]
        assert out.tolist() == [1.0, 1.0]

    def test_sign_noise_does_not_cycle(self):
        # a value of rounding-noise size whose sign alone carries information,
        # with a slope that sends the Newton step from either end of
        # [1, 1 + d] exactly onto the other: the step to an end already in
        # the bracket bisects, so the bracket shrinks to adjacent floats
        d, noise = 2.0**-40, 2.0**-56
        root = 1.0 + 0.3 * d
        f = lambda x, i: (np.where(x < root, noise, -noise), np.full(x.shape, -noise / d))
        out, trail = self._traced(f, np.ones(1), np.ones(1), np.full(1, 1.0 + d), 0.0, 0.0)
        assert len(trail) < 20
        assert abs(out[0] - root) <= 2.0 * np.spacing(root)

    def test_raises_at_the_sweep_cap(self, monkeypatch):
        # pi - x is never 0 at a dyadic midpoint, and the useless slope
        # leaves bisection alone to shrink the bracket
        f = lambda x, i: (math.pi - x, np.zeros(x.shape))
        with monkeypatch.context() as m:
            m.setattr(_solve, "_ROOT_SWEEPS", 10)
            with pytest.raises(RuntimeError, match="did not converge"):
                _solve.newton_root(f, np.zeros(2), np.zeros(2), np.full(2, 4.0), 0.0, 0.0)
        out = _solve.newton_root(f, np.zeros(2), np.zeros(2), np.full(2, 4.0), 0.0, 0.0)
        assert np.all(np.abs(out - math.pi) <= np.spacing(math.pi))
