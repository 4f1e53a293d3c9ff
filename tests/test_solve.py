import numpy as np
import pytest
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
            f = lambda x, i: wc._log_excess(wc._worst_noncoverage_batch(m2[i], kap[i], x), alpha)
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


class TestExpandUpper:
    def test_doubles_until_nonpositive(self):
        roots = np.array([0.5, 3.0, 100.0])
        f = lambda x, i: roots[i] - x
        hi, f_hi = _solve.expand_upper(f, np.ones(3))
        np.testing.assert_array_equal(hi, [1.0, 4.0, 128.0])
        np.testing.assert_array_equal(f_hi, roots - hi)

    def test_raises_when_no_bracket(self):
        with pytest.raises(RuntimeError, match="bracket expansion failed"):
            _solve.expand_upper(lambda x, i: np.ones_like(x), np.ones(2))

