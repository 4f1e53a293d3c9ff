"""Discretized worst-case moment problems.

The general worst case maximizes an expected reward over all distributions on
a grid subject to moment equalities.  ``envelope_value`` solves it as a
concave envelope and is the engine behind the nonlinear interval
calibrations; ``solve_moment_lp`` solves it as a linear program and is the
independent check on the envelope and on the closed forms in
:mod:`shrinkci.worstcase`.

A calibration solves one problem per chi on a fixed grid, moment rows and
targets; only the reward changes.  ``calibrate_chi`` therefore passes each
solve's optimal basis (its p+1 support indices) to the next, which
re-optimizes it by a few exact simplex pivots; the qhull hull is built once
per calibration, and again only where the pivots cannot decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from shrinkci import _solve
from shrinkci.worstcase import DiscreteDistribution

__all__ = [
    "MomentProblem",
    "MomentLPResult",
    "InfeasibleMomentsError",
    "LPSolverError",
    "CalibrationError",
    "solve_moment_lp",
    "envelope_value",
    "calibrate_chi",
    "default_squared_bias_grid",
]

# equality constraints are relaxed to this band to absorb floating-point drift
EQ_BAND = 1e-9
# support weights at or below this are artifacts of the band or of rounding
_MIN_WEIGHT = 1e-9
# a hull facet is an upper facet when the reward component of its unit
# normal exceeds this; vertical facets over duplicate moments sit at rounding
_UPPER_NORMAL = 1e-12
# a warm basis is optimal once no reduced cost exceeds this
_OPTIMAL = 1e-13
# a warm basis weight below this means the targets left its simplex
_NEGATIVE_WEIGHT = -1e-12
# pivots of one warm solve before the qhull route takes over; a guard
# against cycling on degenerate bases
_MAX_PIVOTS = 50


class InfeasibleMomentsError(ValueError):
    """No distribution on the grid matches the target moments."""


class LPSolverError(RuntimeError):
    """The LP solver failed for a reason other than infeasibility."""


class CalibrationError(RuntimeError):
    """The worst case stays above alpha over the whole search range."""


@dataclass(frozen=True)
class MomentProblem:
    """Maximize sum p_k * reward_k over probabilities p on a fixed grid,
    subject to sum p_k * g_j(x_k) = m_j for each moment function g_j.

    ``moments`` has shape (p, K) holding the moment-function evaluations on
    the grid; ``targets`` has shape (p,).
    """

    grid: np.ndarray
    reward: np.ndarray
    moments: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        reward = np.asarray(self.reward, dtype=float)
        moments = np.atleast_2d(np.asarray(self.moments, dtype=float))
        targets = np.atleast_1d(np.asarray(self.targets, dtype=float))
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be 1-d and strictly increasing")
        if reward.shape != grid.shape:
            raise ValueError("reward must match the grid")
        if np.any(reward < -1e-9) or np.any(reward > 1.0 + 1e-9):
            raise ValueError("reward values must lie in [0, 1]")
        if moments.shape[1] != grid.size or moments.shape[0] != targets.size:
            raise ValueError("moments must be (p, K) with p targets")
        if grid.size < targets.size + 2:
            raise ValueError("grid too small for the number of constraints")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "reward", np.clip(reward, 0.0, 1.0))
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class MomentLPResult:
    value: float
    solution: DiscreteDistribution
    dual_constant: float
    dual_moments: np.ndarray
    # grid indices of the p+1 basis points, in index order (envelope_value)
    basis: tuple[int, ...] = ()


def solve_moment_lp(problem: MomentProblem) -> MomentLPResult:
    """Solve the discretized worst-case problem.

    Uses the HiGHS dual simplex, so the returned distribution is a basic
    solution with at most p+1 strictly positive weights.  Moment equalities
    are relaxed to a +-1e-9 band.
    """
    K = problem.grid.size
    p = problem.targets.size
    A_ub = np.vstack([problem.moments, -problem.moments])
    b_ub = np.concatenate([problem.targets + EQ_BAND, -(problem.targets - EQ_BAND)])
    A_eq = np.ones((1, K))
    res = linprog(
        -problem.reward,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 2:
        raise InfeasibleMomentsError(
            f"no grid distribution matches the target moments {problem.targets}"
        )
    if res.status != 0:
        raise LPSolverError(f"LP solver failed (status {res.status}): {res.message}")
    # dual certificate: marginals of the band rows combine into one
    # multiplier per moment, the equality marginal is the constant
    ub_marg = np.asarray(res.ineqlin.marginals)
    dual_moments = -(ub_marg[:p] - ub_marg[p:])
    dual_constant = -float(res.eqlin.marginals[0])
    return MomentLPResult(
        value=float(-res.fun),
        solution=_distribution(problem.grid, np.asarray(res.x)),
        dual_constant=dual_constant,
        dual_moments=dual_moments,
    )


def envelope_value(problem: MomentProblem, start: tuple[int, ...] = ()) -> MomentLPResult:
    """Solve the discretized worst-case problem as a concave envelope.

    The worst case over grid distributions with moments m is the upper
    concave envelope of the lifted points (g(x_k), reward_k) at m (Smith,
    Operations Research 43(5), 1995): the lowest plane of the upper facets of
    their convex hull.  The minimizing facet's grid points, weighted by the
    barycentric coordinates of m in its projection, are a worst-case
    distribution with at most p+1 points, and its plane is the dual
    certificate in the sense of ``solve_moment_lp``.  The targets are taken
    exactly, not relaxed to a band.  Raises InfeasibleMomentsError when no
    distribution on the minimizing facet matches the targets to within
    ``EQ_BAND``, which covers every target more than ``EQ_BAND`` outside the
    hull of the moment points.

    ``start`` is a basis, p+1 grid indices, to re-optimize by simplex pivots
    instead (``_pivot``); the result's ``basis`` holds the facet's indices,
    or the pivots', for the next solve of the same grid and moments.  Where
    the pivots cannot decide, the hull is built as without ``start``.
    """
    if len(start):
        warm = _pivot(problem, start)
        if warm is not None:
            return warm
    moments, targets = problem.moments, problem.targets
    p = targets.size
    # a point below the centroid keeps the hull full-dimensional when the
    # reward is constant; no upper facet can contain it
    sentinel = np.append(moments.mean(axis=1), problem.reward.min() - 1.0)
    hull = ConvexHull(np.vstack([np.column_stack([moments.T, problem.reward]), sentinel]))
    normal, offset = hull.equations[:, :-1], hull.equations[:, -1]
    upper = np.flatnonzero(normal[:, p] > _UPPER_NORMAL)
    planes = -(normal[upper, :p] @ targets + offset[upper]) / normal[upper, p]
    best = upper[np.argmin(planes)]
    dual_moments = -normal[best, :p] / normal[best, p]
    dual_constant = float(-offset[best] / normal[best, p])
    # barycentric weights of the targets in the facet's projection
    vertices = np.sort(hull.simplices[best])
    at = moments[:, vertices]
    weights = np.linalg.solve(np.vstack([np.ones(p + 1), at]), np.append(1.0, targets))
    if weights.min() < 0.0:
        weights = np.maximum(weights, 0.0)
        weights /= weights.sum()
        if np.max(np.abs(at @ weights - targets)) > EQ_BAND:
            raise InfeasibleMomentsError(
                f"no grid distribution matches the target moments {targets}"
            )
    return MomentLPResult(
        value=float(dual_constant + dual_moments @ targets),
        solution=_distribution(problem.grid[vertices], weights),
        dual_constant=dual_constant,
        dual_moments=dual_moments,
        basis=tuple(vertices.tolist()),
    )


def _pivot(problem: MomentProblem, start: tuple[int, ...]) -> MomentLPResult | None:
    """``envelope_value`` by primal simplex from the basis ``start``, or None.

    A basis's weights solve [1; G_B] w = [1; m] and do not depend on the
    reward, so the basis of a neighbouring chi is still primal feasible;
    pivots restore dual feasibility.  The plane y solves [1; G_B]^T y = r_B;
    while some reduced cost r_k - y . [1; g_k] exceeds ``_OPTIMAL``, the
    largest enters and the ratio test picks the point that leaves.  The
    final plane is the dual certificate.  None when the start does not fit
    the problem, is singular or infeasible (a weight below
    ``_NEGATIVE_WEIGHT``), when no point can leave, or when the pivots do
    not settle within ``_MAX_PIVOTS``.
    """
    K, p = problem.grid.size, problem.targets.size
    basis = np.array(start, dtype=np.intp)
    if basis.shape != (p + 1,) or basis.min() < 0 or basis.max() >= K:
        return None
    moments, reward = problem.moments, problem.reward
    rhs = np.append(1.0, problem.targets)
    lifted = np.ones((p + 1, p + 1))  # [1; G_B]
    for _ in range(_MAX_PIVOTS):
        lifted[1:] = moments[:, basis]
        try:
            inverse = np.linalg.inv(lifted)
        except np.linalg.LinAlgError:
            return None
        weights = inverse @ rhs
        if not weights.min() >= _NEGATIVE_WEIGHT:
            return None
        plane = reward[basis] @ inverse
        reduced = reward - plane[0] - plane[1:] @ moments
        enter = int(np.argmax(reduced))
        if reduced[enter] <= _OPTIMAL:
            break
        step = inverse[:, 0] + inverse[:, 1:] @ moments[:, enter]
        ratios = [max(w, 0.0) / d if d > 0.0 else math.inf
                  for w, d in zip(weights.tolist(), step.tolist())]
        leave = min(range(p + 1), key=ratios.__getitem__)
        if ratios[leave] == math.inf:
            return None
        basis[leave] = enter
    else:
        return None
    order = np.argsort(basis)
    dual_constant, dual_moments = float(plane[0]), plane[1:]
    return MomentLPResult(
        value=float(dual_constant + dual_moments @ problem.targets),
        solution=_distribution(problem.grid[basis[order]], weights[order]),
        dual_constant=dual_constant,
        dual_moments=dual_moments,
        basis=tuple(basis[order].tolist()),
    )


def _distribution(points: np.ndarray, weights: np.ndarray) -> DiscreteDistribution:
    keep = weights > _MIN_WEIGHT
    pr = weights[keep]
    return DiscreteDistribution(tuple(points[keep]), tuple(pr / pr.sum()))


def calibrate_chi(
    family: Callable[[float], MomentProblem],
    alpha: float,
    lo: float = 0.0,
    hi: float = 1.0,
    tol: float = 1e-4,
) -> float:
    """Smallest chi (to within tol) whose worst case is at most alpha.

    ``family`` maps a candidate chi to the discretized problem for that chi;
    the caller guarantees the worst-case value is nonincreasing in chi.  Each
    worst case is the ``envelope_value`` of that problem, started from the
    basis of the previous chi's solve (the first solve builds the hull), so
    a family whose grid and moments do not move with chi costs one hull per
    calibration plus a few pivots per chi.  The inversion is
    ``_solve.invert``: ``lo`` is returned when its worst case is at most
    alpha; otherwise ``hi`` is doubled until its worst case is, and the
    result is the upper end of a final bracket at most ``tol`` wide, so its
    worst case is at most alpha and the worst case ``tol`` below it exceeds
    alpha.  Raises ``CalibrationError`` when 40 doublings do not reach it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    basis = ()

    def worst(chi, idx):
        nonlocal basis
        values = np.empty(chi.size)
        for k, c in enumerate(chi):
            res = envelope_value(family(c), start=basis)
            values[k], basis = res.value, res.basis
        return values

    try:
        return float(_solve.invert(worst, alpha, [lo], [hi], tol)[0])
    except _solve.BracketError as exc:
        raise CalibrationError(f"{exc}; calibration failed") from exc


def default_squared_bias_grid(m2: float, t0: float, size: int = 1000) -> np.ndarray:
    """Default grid for worst-case problems on the squared-bias scale.

    Log-spaced points resolve the region near zero, linear points the bulk;
    the range covers the chord kink and the point-mass solution comfortably.
    """
    upper = max(10.0 * m2, 2.0 * t0, 100.0)
    half = size // 2
    log_part = np.geomspace(max(upper * 1e-8, 1e-10), upper, half)
    lin_part = np.linspace(0.0, upper, size - half)
    return np.unique(np.concatenate([[0.0], log_part, lin_part]))
