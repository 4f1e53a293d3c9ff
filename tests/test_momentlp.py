import dataclasses
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shrinkci import momentlp as mlp
from shrinkci import nonlinear as nl
from shrinkci import worstcase as wc


def make_problem(m2, chi, size=2000):
    t0 = wc.majorant_kink(chi)
    grid = mlp.default_squared_bias_grid(m2, t0, size)
    return mlp.MomentProblem(grid, wc.noncoverage_sq(grid, chi), grid[None, :], [m2])


class TestSolve:
    def test_matches_closed_form(self):
        for m2, chi in [(0.5, 2.0), (2.0, 3.0), (8.0, 2.5)]:
            res = mlp.solve_moment_lp(make_problem(m2, chi))
            assert res.value == pytest.approx(
                wc.worst_noncoverage_second(m2, chi), abs=1e-3
            )

    def test_single_feasible_point(self):
        # mean m2 with zero variance forces the point mass at m2
        m2, chi = 1.5, 2.0
        grid = np.array([0.5, 1.5, 3.0, 30.0])
        reward = wc.noncoverage_sq(grid, chi)
        prob = mlp.MomentProblem(
            grid, reward, np.vstack([grid, grid**2]), [m2, m2 * m2]
        )
        res = mlp.solve_moment_lp(prob)
        assert res.value == pytest.approx(float(wc.noncoverage_sq(m2, chi)), abs=1e-7)
        assert res.solution.points == (1.5,)

    def test_basic_solution_support(self):
        res = mlp.solve_moment_lp(make_problem(1.0, 2.5))
        assert len(res.solution.points) <= 2  # p + 1 for one constraint
        assert sum(res.solution.probs) == pytest.approx(1.0, abs=1e-10)

    def test_dual_certificate(self):
        prob = make_problem(1.0, 2.5)
        res = mlp.solve_moment_lp(prob)
        slack = res.dual_constant + res.dual_moments @ prob.moments - prob.reward
        assert slack.min() >= -1e-6

    def test_grid_refinement_monotonicity(self):
        # doubling the grid may only raise the value (up to solver slop)
        coarse = mlp.solve_moment_lp(make_problem(1.0, 2.5, size=500)).value
        fine = mlp.solve_moment_lp(make_problem(1.0, 2.5, size=1000)).value
        assert fine >= coarse - 1e-6

    def test_deterministic(self):
        a = mlp.solve_moment_lp(make_problem(1.0, 2.5))
        b = mlp.solve_moment_lp(make_problem(1.0, 2.5))
        assert a.value == b.value and a.solution == b.solution

    def test_infeasible_vs_solver_error(self):
        grid = np.linspace(0.0, 1.0, 10)
        prob = mlp.MomentProblem(grid, np.zeros(10), grid[None, :], [5.0])
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.solve_moment_lp(prob)

    def test_band_holds_at_large_moments(self):
        # HiGHS's tolerance on the total mass let a mass of 1 + 1e-10 at 100
        # meet a theta^2 target 1e-6 above 1e4, which the envelope rejects
        theta = np.array([0.0, 1.0, 2.0, 100.0])
        prob = mlp.MomentProblem(theta, np.zeros(4), theta[None, :] ** 2, [1e4 + 1e-6])
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.envelope_value(prob)
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.solve_moment_lp(prob)
        inside = dataclasses.replace(prob, targets=np.array([1e4 + 0.5e-9]))
        assert mlp.solve_moment_lp(inside).solution.points == (100.0,)
        assert mlp.envelope_value(inside).solution.points == (100.0,)
        # the envelope's basis (2, 3) solves to weights -2e-13 and 1 + 2e-13,
        # and without the weight below 0 it is the point mass 2e-9 off
        outside = dataclasses.replace(prob, targets=np.array([1e4 + 2e-9]))
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.envelope_value(outside)
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.solve_moment_lp(outside)

    def test_envelope_keeps_a_small_weight_at_a_large_moment(self):
        # the optimal basis (0, 3) weighs 100 by 5e-10, under _MIN_WEIGHT,
        # and that weight carries the whole theta^2 target 5e-6
        theta = np.array([0.0, 1.0, 2.0, 100.0])
        prob = mlp.MomentProblem(theta, np.array([0.0, 0.0, 0.0, 1.0]), theta[None, :] ** 2, [5e-6])
        res = mlp.envelope_value(prob)
        assert res.basis == (0, 3)
        assert res.value == pytest.approx(5e-10, rel=1e-12)
        # the LP checks its band before dropping that weight too (it raised),
        # and the band moves its value by at most EQ_BAND / 100**2
        lp = mlp.solve_moment_lp(prob)
        assert lp.value == pytest.approx(res.value, rel=0, abs=mlp.EQ_BAND * 1e-4)

    def test_validation(self):
        grid = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            mlp.MomentProblem(grid, np.full(10, 2.0), grid[None, :], [0.5])
        with pytest.raises(ValueError):
            mlp.MomentProblem(grid[::-1], np.zeros(10), grid[None, :], [0.5])
        with pytest.raises(ValueError):
            mlp.MomentProblem(grid[:2], np.zeros(2), grid[None, :2], [0.5])


class TestCalibrate:
    def test_zero_reward_returns_lower_end(self):
        grid = np.linspace(0.0, 4.0, 50)
        family = lambda chi: mlp.MomentProblem(
            grid, np.zeros(50), grid[None, :], [1.0]
        )
        assert mlp.calibrate_chi(family, 0.05, lo=0.7, hi=2.0) == 0.7

    def test_linear_shrinkage_family_matches_closed_form(self):
        m2 = 1.0
        def family(chi):
            return make_problem(m2, chi, size=3000)
        chi_hat = mlp.calibrate_chi(family, 0.05, lo=1.9, hi=4.0)
        assert chi_hat == pytest.approx(wc._cva_scalar(m2, None, 0.05), abs=2e-3)

    def test_calibration_failure_reported(self):
        grid = np.linspace(0.0, 4.0, 50)
        family = lambda chi: mlp.MomentProblem(
            grid, np.ones(50), grid[None, :], [1.0]
        )
        with pytest.raises(mlp.CalibrationError):
            mlp.calibrate_chi(family, 0.05, lo=0.0, hi=1.0)

    @pytest.mark.parametrize(
        "lo, hi, tol",
        [(0.0, 0.0, 1e-4), (1.0, 1.0, 1e-4), (2.0, 1.0, 1e-4), (-1.0, 1.0, 1e-4),
         (0.0, 1.0, 0.0), (0.0, 1.0, -1e-4), (0.0, 1.0, float("nan"))],
    )
    def test_rejects_bad_bracket_or_tol_before_solving(self, monkeypatch, lo, hi, tol):
        solves = []
        monkeypatch.setattr(mlp, "envelope_value", lambda prob: solves.append(prob))
        family = lambda chi: make_problem(1.0, max(chi, 1.0), size=200)
        with pytest.raises(ValueError):
            mlp.calibrate_chi(family, 0.05, lo=lo, hi=hi, tol=tol)
        assert solves == []


def _counted_calibration(monkeypatch, family, alpha, lo, hi, tol=1e-4):
    """calibrate_chi with every worst-case solve recorded as (chi, value), in
    order."""
    solve = mlp.envelope_value
    chis, trail = [], []

    def counted_family(chi):
        chis.append(chi)
        return family(chi)

    def counted_solve(prob, **kwargs):
        res = solve(prob, **kwargs)
        trail.append((chis[-1], res.value))
        return res

    monkeypatch.setattr(mlp, "envelope_value", counted_solve)
    chi = mlp.calibrate_chi(counted_family, alpha, lo=lo, hi=hi, tol=tol)
    monkeypatch.setattr(mlp, "envelope_value", solve)
    assert len(trail) == len(chis)
    return chi, trail


def assert_calibration_guarantee(monkeypatch, family, alpha, lo, hi, tol=1e-4):
    """value(chi) <= alpha < value(chi - tol), and the bracketed search after
    the doubling phase takes at most bisection's step count plus one."""
    chi, trail = _counted_calibration(monkeypatch, family, alpha, lo, hi, tol)
    value = lambda c: mlp.solve_moment_lp(family(c)).value
    assert value(chi) <= alpha
    if chi == lo:
        assert len(trail) == 1 and trail[0][1] <= alpha
        return chi
    assert value(chi - tol) > alpha
    # the doubling phase: lo, then hi, 2 hi, ... up to the first value <= alpha
    assert trail[0][0] == lo and trail[0][1] > alpha
    k = 1
    while trail[k][1] > alpha:
        assert trail[k][0] == hi * 2.0 ** (k - 1)
        k += 1
    assert trail[k][0] == hi * 2.0 ** (k - 1)
    width = trail[k][0] - trail[k - 1][0]
    bracketed = len(trail) - (k + 1)
    assert bracketed <= math.ceil(math.log2(width / tol)) + 1
    return chi


class TestCalibrationGuarantee:
    def test_linear_shrinkage_family(self, monkeypatch):
        family = lambda chi: make_problem(1.0, chi, size=1000)
        chi = assert_calibration_guarantee(monkeypatch, family, 0.05, 1.0, 2.0)
        assert chi == pytest.approx(wc._cva_scalar(1.0, None, 0.05), abs=2e-3)

    def test_linear_shrinkage_family_after_doublings(self, monkeypatch):
        family = lambda chi: make_problem(4.0, max(chi, 0.5), size=1000)
        assert_calibration_guarantee(monkeypatch, family, 0.01, 0.0, 0.5)

    def test_zero_reward_family(self, monkeypatch):
        grid = np.linspace(0.0, 4.0, 50)
        family = lambda chi: mlp.MomentProblem(grid, np.zeros(50), grid[None, :], [1.0])
        assert assert_calibration_guarantee(monkeypatch, family, 0.05, 0.7, 2.0) == 0.7

    def test_step_reward_family(self, monkeypatch):
        # reward 1{t > chi} with mean 0.103: the worst case is 0.103 / t+,
        # t+ the first grid point above chi, so the smallest chi with worst
        # case <= 0.05 is the grid point 2 itself
        grid = np.linspace(0.0, 10.0, 46)
        family = lambda chi: mlp.MomentProblem(
            grid, (grid > chi).astype(float), grid[None, :], [0.103]
        )
        chi = assert_calibration_guarantee(monkeypatch, family, 0.05, 0.0, 1.0)
        assert grid[9] <= chi <= grid[9] + 1e-4

    # the nonlinear families, with the brackets their calibrations use

    def test_soft_threshold_family(self, monkeypatch):
        cfg = nl.SoftThresholdConfig(mu2=0.2)
        family = lambda chi: nl._soft_threshold_problem(cfg, chi)
        assert_calibration_guarantee(monkeypatch, family, cfg.alpha, 0.0, 2.0)

    def test_poisson_family(self, monkeypatch):
        cfg = nl.PoissonConfig(shape=1.0, scale=0.3)
        family = lambda chi: nl._poisson_problem(cfg, chi, 0.3, 2.0 * 0.3**2)
        assert_calibration_guarantee(monkeypatch, family, cfg.alpha, 0.0, 2.0)

    def test_selection_family(self, monkeypatch):
        grid = np.linspace(-8.0, 8.0, 1001)
        window = nl.SelectionWindow(0.0, math.inf)
        family = lambda chi: nl._selection_problem(grid, chi, window, 0.5, 1.0, 1.0)
        assert_calibration_guarantee(monkeypatch, family, 0.05, 0.0, 4.0)


def _nonlinear_problems():
    soft = nl.SoftThresholdConfig(mu2=0.2)
    poisson = nl.PoissonConfig(shape=1.0, scale=0.3)
    grid = np.linspace(-8.0, 8.0, 1001)
    window = nl.SelectionWindow(0.0, math.inf)
    cases = [(f"soft-{c}", lambda c=c: nl._soft_threshold_problem(soft, c)) for c in (1.0, 3.0)]
    cases += [(f"poisson-{c}", lambda c=c: nl._poisson_problem(poisson, c, 0.3, 2.0 * 0.3**2))
              for c in (0.5, 2.0)]
    cases += [(f"selection-{c}", lambda c=c: nl._selection_problem(grid, c, window, 0.5, 1.0, 1.0))
              for c in (3.0, 8.0)]
    return [pytest.param(build, id=name) for name, build in cases]


def _warm_envelope(prob):
    """``envelope_value`` pivoted from the far end: the basis of the best
    case, the envelope of 1 - reward on the same grid and moments."""
    best = mlp.envelope_value(dataclasses.replace(prob, reward=1.0 - prob.reward))
    return mlp.envelope_value(prob, start=best.basis)


# (route, dual objective tolerance, slack tolerance): the LP's band and its
# solver tolerances against the envelope's plane, exact at the target
_ROUTES = [
    pytest.param(mlp.solve_moment_lp, 1e-8, 1e-9, id="lp"),
    pytest.param(mlp.envelope_value, 0.0, 1e-12, id="envelope"),
    pytest.param(_warm_envelope, 0.0, 1e-12, id="warm"),
]


@pytest.mark.parametrize("solve, objective_tol, slack_tol", _ROUTES)
@pytest.mark.parametrize("build", _nonlinear_problems())
def test_nonlinear_dual_certificate(build, solve, objective_tol, slack_tol):
    # weak duality on the grid: the dual is feasible (reward under the
    # dual function everywhere) and its objective matches the value
    prob = build()
    res = solve(prob)
    dual_objective = res.dual_constant + res.dual_moments @ prob.targets
    slack = res.dual_constant + res.dual_moments @ prob.moments - prob.reward
    assert abs(dual_objective - res.value) <= objective_tol
    assert slack.min() >= -slack_tol


def _families():
    """Every soft-threshold, Poisson and selection config of the tests, as
    (name, family of chi, chi across the calibration bracket)."""
    families = []
    for mu2 in (0.05, 0.2, 0.3, 1.0):
        cfg = nl.SoftThresholdConfig(mu2=mu2)
        families.append((f"soft-{mu2}", lambda c, cfg=cfg: nl._soft_threshold_problem(cfg, c),
                         (0.5, 1.5, 3.0)))
    for shape, scale in ((1.0, 0.3), (1.0, 2.0), (2.0, 1.0), (0.5, 4.0)):
        cfg = nl.PoissonConfig(shape=shape, scale=scale)
        mean, second = shape * scale, shape * (shape + 1.0) * scale**2
        families.append((f"poisson-{shape}-{scale}",
                         lambda c, cfg=cfg, m=mean, s=second: nl._poisson_problem(cfg, c, m, s),
                         (0.0, 0.5, 2.0)))
    grid = np.linspace(-8.0, 8.0, 1001)
    window = nl.SelectionWindow(0.0, math.inf)
    for w in (0.3, 0.5, 0.7):
        families.append((f"selection-{w}",
                         lambda c, w=w: nl._selection_problem(grid, c, window, w, 1.0, 1.0),
                         (1.0, 3.0, 8.0)))
    return families


def _family_problems():
    """The problems of ``_families`` at each of their chi."""
    return [pytest.param(lambda family=family, c=c: family(c), id=f"{name}-{c}")
            for name, family, chis in _families() for c in chis]


def _neighbour_problems():
    """(problem, its neighbour at a larger chi) for each of ``_family_problems``."""
    return [pytest.param(lambda family=family, c=c: (family(c), family(1.1 * c + 0.05)),
                         id=f"{name}-{c}")
            for name, family, chis in _families() for c in chis]


class TestEnvelope:
    @pytest.mark.parametrize("build", _family_problems())
    def test_matches_lp(self, build, monkeypatch):
        prob = build()
        env = mlp.envelope_value(prob).value
        assert env == pytest.approx(mlp.solve_moment_lp(prob).value, abs=1e-8)
        # the whole gap is the LP's band: without it the two routes agree
        monkeypatch.setattr(mlp, "EQ_BAND", 0.0)
        assert env == pytest.approx(mlp.solve_moment_lp(prob).value, abs=1e-11)

    @pytest.mark.parametrize("m2, chi", [(0.5, 2.0), (2.0, 3.0), (8.0, 2.5), (1.0, 1.0)])
    def test_matches_lp_on_linear_shrinkage(self, m2, chi):
        prob = make_problem(m2, chi)
        res = mlp.envelope_value(prob)
        assert res.value == pytest.approx(mlp.solve_moment_lp(prob).value, abs=1e-8)
        assert len(res.solution.points) <= 2
        assert res.solution.moment(1) == pytest.approx(m2, rel=1e-9)
        assert res.solution.expectation(lambda t: wc.noncoverage_sq(t, chi)) == pytest.approx(
            res.value, abs=1e-12
        )

    def test_zero_reward(self):
        grid = np.linspace(0.0, 4.0, 50)
        res = mlp.envelope_value(mlp.MomentProblem(grid, np.zeros(50), grid[None, :], [1.0]))
        assert res.value == 0.0
        assert res.solution.moment(1) == pytest.approx(1.0, abs=1e-12)

    def test_single_feasible_point(self):
        # mean m2 with zero variance: the target lies on the hull's boundary
        m2, chi = 1.5, 2.0
        grid = np.array([0.5, 1.5, 3.0, 30.0])
        reward = wc.noncoverage_sq(grid, chi)
        prob = mlp.MomentProblem(grid, reward, np.vstack([grid, grid**2]), [m2, m2 * m2])
        res = mlp.envelope_value(prob)
        assert res.value == pytest.approx(float(wc.noncoverage_sq(m2, chi)), abs=1e-12)
        assert res.solution.points == (1.5,)

    @pytest.mark.parametrize("target", [1.0, 9.0, 0.0])
    def test_duplicate_moments(self, target):
        # theta and -theta share theta^2 but not the reward; the extreme
        # targets sit on the vertical hull edges over the duplicates
        theta = np.linspace(-3.0, 3.0, 61)
        reward = np.clip(0.3 + 0.1 * theta - 0.02 * theta**2, 0.0, 1.0)
        prob = mlp.MomentProblem(theta, reward, theta[None, :] ** 2, [target])
        res = mlp.envelope_value(prob)
        assert res.value == pytest.approx(mlp.solve_moment_lp(prob).value, abs=1e-8)
        if target == 9.0:
            assert res.solution.points == (3.0,) and res.value == pytest.approx(0.42, abs=1e-12)

    def test_target_on_grid_point(self):
        grid = np.linspace(0.0, 4.0, 50)
        prob = mlp.MomentProblem(grid, wc.noncoverage_sq(grid, 1.0), grid[None, :], [grid[7]])
        res = mlp.envelope_value(prob)
        # noncoverage_sq(., 1) is concave, so its envelope is the point itself
        assert res.solution.points == (grid[7],)
        assert res.value == pytest.approx(float(wc.noncoverage_sq(grid[7], 1.0)), abs=1e-12)

    @pytest.mark.parametrize("target", [5.0, 4.0 + 2e-9, -2e-9])
    def test_infeasible_target(self, target):
        grid = np.linspace(0.0, 4.0, 50)
        prob = mlp.MomentProblem(grid, wc.noncoverage_sq(grid, 1.0), grid[None, :], [target])
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.envelope_value(prob)
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.solve_moment_lp(prob)

    def test_infeasible_second_moment(self):
        grid = np.array([0.5, 1.5, 3.0, 30.0])
        prob = mlp.MomentProblem(
            grid, wc.noncoverage_sq(grid, 2.0), np.vstack([grid, grid**2]), [1.5, 2.0]
        )
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.envelope_value(prob)

    @pytest.mark.parametrize("target", [4.0 + 5e-10, -5e-10])
    def test_band_outside_hull_accepted_like_lp(self, target):
        grid = np.linspace(0.0, 4.0, 50)
        prob = mlp.MomentProblem(grid, wc.noncoverage_sq(grid, 1.0), grid[None, :], [target])
        assert mlp.envelope_value(prob).value == pytest.approx(
            mlp.solve_moment_lp(prob).value, abs=1e-8
        )


def _edge_problems():
    """The duplicate-theta^2, single-feasible-point and target-on-grid-point
    problems of ``TestEnvelope``."""
    theta = np.linspace(-3.0, 3.0, 61)
    dup = lambda t: mlp.MomentProblem(theta, np.clip(0.3 + 0.1 * theta - 0.02 * theta**2, 0.0, 1.0),
                                      theta[None, :] ** 2, [t])
    four = np.array([0.5, 1.5, 3.0, 30.0])
    grid = np.linspace(0.0, 4.0, 50)
    cases = [(f"duplicate-theta2-{t}", lambda t=t: dup(t)) for t in (1.0, 9.0, 0.0)]
    cases.append(("single-feasible-point", lambda: mlp.MomentProblem(
        four, wc.noncoverage_sq(four, 2.0), np.vstack([four, four**2]), [1.5, 2.25])))
    cases.append(("target-on-grid-point", lambda: mlp.MomentProblem(
        grid, wc.noncoverage_sq(grid, 1.0), grid[None, :], [grid[7]])))
    return [pytest.param(build, id=name) for name, build in cases]


_LINEAR_SHRINKAGE = [(0.5, 2.0), (2.0, 3.0), (8.0, 2.5), (1.0, 1.0), (1.0, 2.5), (4.0, 0.5),
                     (0.1, 2.0), (0.01, 1.96), (20.0, 4.0), (100.0, 6.0), (1.0, 1.9), (3.0, 2.2)]


class TestHullOracle:
    @pytest.mark.parametrize(
        "build",
        _family_problems() + _edge_problems()
        + [pytest.param(lambda m2=m2, chi=chi: make_problem(m2, chi), id=f"linear-{m2}-{chi}")
           for m2, chi in _LINEAR_SHRINKAGE],
    )
    def test_matches_hull(self, build):
        prob = build()
        assert mlp.envelope_value(prob).value == pytest.approx(oracles.envelope_hull(prob), abs=1e-12)


@st.composite
def _envelope_problems(draw):
    """(problem, inside): a grid of 4 to 200 quarter-integers in [-25, 25]
    with moments x, (x, x^2) or theta^2 (duplicates where x and -x both lie
    on the grid); rewards in [0, 1] with ties; and a target at a random
    convex combination of grid points, or 1e-6 outside the hull."""
    kind = draw(st.sampled_from(["x", "x, x^2", "theta^2"]))
    ints = draw(st.lists(st.integers(-100, 100), min_size=4, max_size=200, unique=True))
    if kind == "theta^2":
        ints += {-i for i in draw(st.lists(st.sampled_from(ints), max_size=20))} - set(ints)
    grid = np.sort(np.array(ints, dtype=float)) / 4.0
    levels = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                           min_size=grid.size, max_size=grid.size))
    reward = np.array(levels)
    moments = {"x": grid[None, :], "x, x^2": np.vstack([grid, grid**2]),
               "theta^2": grid[None, :] ** 2}[kind]
    inside = draw(st.booleans())
    if inside:
        support = draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=4, unique=True))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                                         max_size=len(support))))
        targets = moments[:, support] @ (weights / weights.sum())
    elif kind == "x, x^2":
        x = draw(st.floats(grid[0], grid[-1]))
        top = grid[0] ** 2 + (x - grid[0]) * (grid[-1] + grid[0])
        targets = np.array([x, draw(st.sampled_from([x * x - 1e-6, top + 1e-6]))])
    else:
        targets = np.array([draw(st.sampled_from([moments.min() - 1e-6, moments.max() + 1e-6]))])
    return mlp.MomentProblem(grid, reward, moments, targets), inside


@settings(max_examples=500, deadline=None)
@given(drawn=_envelope_problems())
def test_envelope_property(drawn):
    prob, inside = drawn
    if not inside:
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.envelope_value(prob)
        with pytest.raises(mlp.InfeasibleMomentsError):
            mlp.solve_moment_lp(prob)
        return
    res = mlp.envelope_value(prob)
    # the LP without its band, which alone moves the LP by 1e-8 on these
    # grids: (x, x^2) at the midpoint of the chord from 0 to 0.25, reward 1
    # at 0.5 and 0 elsewhere
    with mock.patch.object(mlp, "EQ_BAND", 0.0):
        lp = mlp.solve_moment_lp(prob).value
    assert res.value == pytest.approx(lp, abs=1e-8)
    assert res.value == res.dual_constant + res.dual_moments @ prob.targets
    slack = res.dual_constant + res.dual_moments @ prob.moments - prob.reward
    assert slack.min() >= -1e-12


@pytest.mark.parametrize("reward", [(0.0,) * 7, (0, 0, 0, 0, 0.3, 0.9, 0.1), (0.5, 0.2, 0.1, 0.4, 1.0, 0, 0.6)])
def test_target_on_the_hull_boundary_certified(reward):
    # the target lies 5.7e-14 below the chord from 17.25 to 18.25, so phase 1
    # ended with the artificial still in, on a nearly singular basis, and
    # the plane returned was phase 1's: it read -0.5 and -1 at the target
    grid = np.array([0, 0.25, 0.5, 0.75, 15.75, 17.25, 18.25])
    prob = mlp.MomentProblem(grid, np.array(reward, dtype=float), np.vstack([grid, grid**2]),
                             [18.219696969696972, 331.98674242424244])
    res = mlp.envelope_value(prob)
    with mock.patch.object(mlp, "EQ_BAND", 0.0):
        assert res.value == pytest.approx(mlp.solve_moment_lp(prob).value, abs=1e-8)
    assert res.value == res.dual_constant + res.dual_moments @ prob.targets
    assert (res.dual_constant + res.dual_moments @ prob.moments - prob.reward).min() >= -1e-12
    assert len(res.basis) == 3 and max(res.basis) < grid.size


def _counted_cold_starts(monkeypatch):
    """Every cold start of ``envelope_value``, recorded in the returned list."""
    colds = []
    cold_start = mlp._cold_start

    def counted(problem):
        colds.append(problem)
        return cold_start(problem)

    monkeypatch.setattr(mlp, "_cold_start", counted)
    return colds


def _same_result(a, b):
    return (a.value == b.value and a.dual_constant == b.dual_constant
            and np.array_equal(a.dual_moments, b.dual_moments)
            and a.solution == b.solution and a.basis == b.basis)


class TestWarmStart:
    @pytest.mark.parametrize("build", _neighbour_problems())
    def test_matches_cold_from_neighbouring_basis(self, build, monkeypatch):
        prob, neighbour = build()
        cold = mlp.envelope_value(prob)
        start = mlp.envelope_value(neighbour).basis
        colds = _counted_cold_starts(monkeypatch)
        warm = mlp.envelope_value(prob, start=start)
        assert colds == []  # settled from the start alone
        assert warm.value == pytest.approx(cold.value, abs=1e-12)
        slack = warm.dual_constant + warm.dual_moments @ prob.moments - prob.reward
        assert slack.min() >= -1e-12
        assert sum(warm.solution.probs) == pytest.approx(1.0, abs=1e-12)
        assert len(warm.basis) == prob.targets.size + 1

    def test_solve_moment_lp_has_no_basis(self):
        assert mlp.solve_moment_lp(make_problem(1.0, 2.5, size=200)).basis == ()

    @staticmethod
    def _fallbacks():
        soft = nl._soft_threshold_problem(nl.SoftThresholdConfig(mu2=0.2), 1.5)
        poisson = nl._poisson_problem(nl.PoissonConfig(shape=1.0, scale=0.3), 0.5, 0.3, 0.18)
        theta = np.linspace(-3.0, 3.0, 61)
        dup = mlp.MomentProblem(theta, np.clip(0.3 + 0.1 * theta - 0.02 * theta**2, 0.0, 1.0),
                                theta[None, :] ** 2, [1.0])
        grid = np.linspace(0.0, 4.0, 50)
        band = lambda t: mlp.MomentProblem(grid, wc.noncoverage_sq(grid, 1.0), grid[None, :], [t])
        return [
            pytest.param(soft, mlp.envelope_value(poisson).basis, id="basis-of-another-problem"),
            pytest.param(soft, (-1, 5), id="index-below-range"),
            pytest.param(soft, (5, 500), id="index-above-range"),
            pytest.param(dup, (10, 50), id="singular-duplicate-theta2"),
            pytest.param(band(4.0 + 5e-10), (48, 49), id="band-above-hull"),
            pytest.param(band(-5e-10), (0, 1), id="band-below-hull"),
        ]

    @pytest.mark.parametrize("prob, start", _fallbacks())
    def test_fallback_returns_the_cold_result(self, prob, start, monkeypatch):
        cold = mlp.envelope_value(prob)
        colds = _counted_cold_starts(monkeypatch)
        assert _same_result(mlp.envelope_value(prob, start=start), cold)
        assert len(colds) == 1

    def test_pivot_cap_goes_cold(self, monkeypatch):
        # the far start needs more than one pivot; the cold start runs
        # under the full cap
        prob = nl._soft_threshold_problem(nl.SoftThresholdConfig(mu2=0.2), 1.5)
        cold = mlp.envelope_value(prob)
        far = mlp.envelope_value(dataclasses.replace(prob, reward=1.0 - prob.reward)).basis
        colds = []
        cold_start = mlp._cold_start

        def uncapped(problem):
            colds.append(problem)
            with monkeypatch.context() as m:
                m.setattr(mlp, "_MAX_PIVOTS", 50)
                return cold_start(problem)

        monkeypatch.setattr(mlp, "_MAX_PIVOTS", 1)
        monkeypatch.setattr(mlp, "_cold_start", uncapped)
        assert _same_result(mlp.envelope_value(prob, start=far), cold)
        assert len(colds) == 1

    def test_pivot_cap_on_a_cold_start_raises(self, monkeypatch):
        prob = nl._soft_threshold_problem(nl.SoftThresholdConfig(mu2=0.2), 1.5)
        monkeypatch.setattr(mlp, "_MAX_PIVOTS", 1)
        with pytest.raises(mlp.LPSolverError, match="did not settle within 1 pivots"):
            mlp.envelope_value(prob)


# the configs of the tests and of the benchmark's calibrate workload, whose
# configs carry a 1% seeded jitter
_SOFT_MU2 = (0.05, 0.0495, 0.2, 0.202, 0.3, 1.0, 1.01)
_POISSON = ((1.0, 0.3), (1.0, 2.0), (1.01, 1.98), (2.0, 1.0), (1.98, 1.01), (0.5, 4.0), (0.495, 4.04))
_SELECTION_M2 = (0.96, 1.0, 1.06)


def test_one_cold_start_per_calibration(monkeypatch):
    calibrations = []
    calibrate = mlp.calibrate_chi

    def counted(*args, **kwargs):
        calibrations.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(mlp, "calibrate_chi", counted)
    colds = _counted_cold_starts(monkeypatch)
    for mu2 in _SOFT_MU2:
        nl.soft_threshold_ebci(nl.SoftThresholdConfig(mu2=mu2))
        assert len(colds) == len(calibrations), f"soft threshold, mu2 = {mu2}"
    for shape, scale in _POISSON:
        nl.poisson_ebci(nl.PoissonConfig(shape=shape, scale=scale))
        assert len(colds) == len(calibrations), f"Poisson ({shape}, {scale})"
    grid = np.linspace(-8.0, 8.0, 1001)
    window = nl.SelectionWindow(0.0, math.inf)
    for m2 in _SELECTION_M2:
        for w in (0.3, 0.5, 0.7):
            nl.selection_critical_value(m2, window, w, 1.0, 0.05, grid)
            assert len(colds) == len(calibrations), f"selection, m2 = {m2}, w = {w}"
    assert len(calibrations) == len(_SOFT_MU2) + len(_POISSON) + 3 * len(_SELECTION_M2)


def test_no_lp_in_a_calibration(monkeypatch):
    def no_lp(prob):
        raise AssertionError("LP solved inside a calibration")

    monkeypatch.setattr(mlp, "solve_moment_lp", no_lp)
    chi_r, chi_p = nl.soft_threshold_ebci(nl.SoftThresholdConfig(mu2=0.2))
    assert chi_r > chi_p > 0.0
    assert nl.poisson_ebci(nl.PoissonConfig(shape=1.0, scale=0.3)) > 0.0
    grid = np.linspace(-8.0, 8.0, 1001)
    window = nl.SelectionWindow(0.0, math.inf)
    assert nl.selection_critical_value(1.0, window, 0.5, 1.0, 0.05, grid) > 0.0


def test_selection_calibrates_at_the_moment_floor():
    # selection_critical_value raises mu2_cond to 1e-8, where worst cases
    # weigh each |theta| > 3.2 by less than _MIN_WEIGHT
    grid = np.linspace(-8.0, 8.0, 1001)
    for window in (nl.SelectionWindow(0.0, math.inf), nl.SelectionWindow()):
        for w in (0.3, 0.5, 0.7):
            chi = nl.selection_critical_value(1e-8, window, w, 1.0, 0.05, grid)
            assert chi == nl.selection_critical_value(0.0, window, w, 1.0, 0.05, grid)
            assert chi == pytest.approx(wc._z(0.05), abs=1e-4)


def test_nonlinear_import_loads_neither_qhull_nor_the_lp():
    # scipy.optimize, which imports scipy.spatial itself, costs a few tenths
    # of a second at start-up; only the reference LP route needs it
    src = os.path.dirname(os.path.dirname(mlp.__file__))
    code = ("import sys, shrinkci.nonlinear; "
            "print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
