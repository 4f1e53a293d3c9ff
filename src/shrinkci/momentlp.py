"""Discretized worst-case moment problems.

The general worst case maximizes an expected reward over all distributions on
a grid subject to moment equalities.  ``envelope_value`` solves it as a
concave envelope by exact simplex pivots and is the engine behind the
nonlinear interval calibrations; ``solve_moment_lp`` solves it as a linear
program and is the independent check on the envelope and on the closed forms
in :mod:`shrinkci.worstcase`.  ``calibrate_chi`` passes each solve's optimal
basis to the next chi's, which only changes the reward, so a calibration
starts cold from a phase-1 basis once and then takes a few pivots per chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
_FEASIBILITY_TOL = 1e-10  # HiGHS's primal and dual feasibility tolerance
# support weights at or below this are artifacts of the band or of rounding
_MIN_WEIGHT = 1e-9
# a basis is optimal once no reduced cost exceeds this, relative to the plane
_OPTIMAL = 1e-13
# weights and step entries within this of 0 are rounding: a start with a
# weight below -it is infeasible, a point whose step entry is at most it
# cannot leave, and a step that cuts a weight at most it is degenerate
_ROUNDING = 1e-12
# pivots after which a warm start goes cold, and a cold start gives up
_MAX_PIVOTS = 50


class InfeasibleMomentsError(ValueError):
    """No distribution on the grid matches the target moments."""


class LPSolverError(RuntimeError):
    """The LP solver or the envelope simplex failed for a reason other than
    infeasibility."""


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
    # grid indices of the final basis, in index order (envelope_value)
    basis: tuple[int, ...] = ()


def solve_moment_lp(problem: MomentProblem) -> MomentLPResult:
    """Solve the discretized worst-case problem.

    Uses the HiGHS dual simplex, so the returned distribution is a basic
    solution with at most p+1 strictly positive weights.  Moment equalities
    are relaxed to a +-1e-9 band (``EQ_BAND``): where the solver's weights,
    clipped at 0 and renormalised, miss it by more than the solver's
    tolerance, at any moment scale, InfeasibleMomentsError is raised.
    """
    # imported here: only this reference route needs scipy.optimize, whose
    # import costs a few tenths of a second
    from scipy.optimize import linprog

    targets = problem.targets
    A_ub = np.vstack([problem.moments, -problem.moments])
    b_ub = np.concatenate([targets + EQ_BAND, -(targets - EQ_BAND)])
    res = linprog(
        -problem.reward, A_ub=A_ub, b_ub=b_ub, A_eq=np.ones((1, problem.grid.size)),
        b_eq=[1.0], bounds=(0.0, None), method="highs-ds",
        options={"primal_feasibility_tolerance": _FEASIBILITY_TOL,
                 "dual_feasibility_tolerance": _FEASIBILITY_TOL},
    )
    infeasible = InfeasibleMomentsError(f"no grid distribution matches the target moments {targets}")
    if res.status == 2:
        raise infeasible
    if res.status != 0:
        raise LPSolverError(f"LP solver failed (status {res.status}): {res.message}")
    # HiGHS holds its tolerance on rows it scales and on the total mass: a
    # mass of 1 + 1e-10 at 100 met a theta^2 target 1e-6 above 1e4.  The
    # band is checked before ``_distribution`` drops small weights, as in
    # ``_result``: one of 5e-10 at 100 carries 5e-6 of theta^2
    x = np.maximum(np.asarray(res.x), 0.0)
    if np.max(np.abs(problem.moments @ x / x.sum() - targets)) > EQ_BAND + _FEASIBILITY_TOL:
        raise infeasible
    # dual certificate: marginals of the band rows combine into one
    # multiplier per moment, the equality marginal is the constant
    ub_marg = np.asarray(res.ineqlin.marginals)
    return MomentLPResult(
        value=float(-res.fun),
        solution=_distribution(problem.grid, x),
        dual_constant=-float(res.eqlin.marginals[0]),
        dual_moments=-(ub_marg[: targets.size] - ub_marg[targets.size :]),
    )


def envelope_value(problem: MomentProblem, start: tuple[int, ...] = ()) -> MomentLPResult:
    """Solve the discretized worst-case problem as a concave envelope.

    The worst case over grid distributions with moments m is the upper
    concave envelope of the lifted points (g(x_k), reward_k) at m (Smith,
    Operations Research 43(5), 1995).  Exact simplex pivots (``_simplex``)
    find its plane at m, which lies on or above every lifted point and is
    the dual certificate in the sense of ``solve_moment_lp``; the basis's
    grid points, weighted by the solution of [1; G_B] w = [1; m], are a
    worst-case distribution.  The targets are taken exactly, not relaxed to
    a band.  Raises InfeasibleMomentsError when the final basis's weights,
    clipped at 0, miss the targets by more than ``EQ_BAND``.

    ``start`` is a basis, p+1 grid indices, to pivot from; one that does not
    fit, is singular or infeasible, or passes ``_MAX_PIVOTS`` pivots gives
    way to ``_cold_start``.  The result's ``basis`` is for the next solve.
    """
    K, p = problem.grid.size, problem.targets.size
    basis = np.array(start, dtype=np.intp)
    if basis.shape == (p + 1,) and basis.min() >= 0 and basis.max() < K:
        warm = _simplex(problem, basis, problem.moments, problem.reward)
        if warm is not None:
            return warm
    return _cold_start(problem)


def _cold_start(problem: MomentProblem) -> MomentLPResult:
    """``envelope_value`` from a phase-1 basis: an artificial column equal
    to the right-hand side [1; m], with reward -1, and the p grid points
    nearest the target in the first moment that keep [1; G_B] nonsingular.
    A basis that holds the artificial has weight 1 on it and value -1, and
    no reward is negative, so the pivots drive it out whenever the target is
    inside the hull, with no big-M constant; ``_simplex`` pivots it out of a
    target on the boundary.  LPSolverError past ``_MAX_PIVOTS``.
    """
    K, p = problem.grid.size, problem.targets.size
    lifted = np.ones((p + 1, p + 1))
    lifted[1:, 0] = problem.targets
    basis = [K]
    for k in np.argsort(np.abs(problem.moments[0] - problem.targets[0]), kind="stable"):
        lifted[1:, len(basis)] = problem.moments[:, k]
        if np.linalg.matrix_rank(lifted[:, : len(basis) + 1]) > len(basis):
            basis.append(int(k))
            if len(basis) > p:
                break
    else:
        raise LPSolverError("the moment rows are affinely dependent on the grid")
    columns = np.column_stack([problem.moments, problem.targets])  # the artificial is K
    res = _simplex(problem, np.array(basis), columns, np.append(problem.reward, -1.0))
    if res is None:
        raise LPSolverError(f"the envelope simplex did not settle within {_MAX_PIVOTS} pivots")
    return res


def _simplex(problem: MomentProblem, basis, columns, values) -> MomentLPResult | None:
    """``envelope_value`` by primal simplex pivots from ``basis``, or None.

    ``columns`` and ``values`` are the moment rows and rewards, with
    ``_cold_start``'s artificial column appended as index K, the grid size.
    The weights solve [1; G_B] w = [1; m] and do not depend on the reward,
    so the basis of a neighbouring chi is still feasible.  The plane y solves
    [1; G_B]^T y = r_B; while a reduced cost r_k - y . [1; g_k] exceeds
    ``_OPTIMAL``, the largest enters.  Its step d solves [1; G_B] d = [1; g_k],
    so its entries sum to 1 and one is positive; the point with the least
    weight per step entry above ``_ROUNDING`` leaves, ties to the lowest index.
    A step that would cut a zero weight takes Bland's rule instead (the
    lowest index with a positive reduced cost enters), so pivots cannot
    cycle.  An artificial left in at the end is checked against the band
    and pivoted out, so the returned plane is a grid basis's.  None when the
    start is singular or infeasible, or when the pivots pass ``_MAX_PIVOTS``.
    """
    K, rhs = problem.grid.size, np.concatenate(([1.0], problem.targets))
    lifted = np.ones((rhs.size, rhs.size))  # [1; G_B]
    for pivots in range(_MAX_PIVOTS + 1):
        lifted[1:] = columns[:, basis]
        try:
            inverse = np.linalg.inv(lifted)
        except np.linalg.LinAlgError:
            return None
        weights = inverse @ rhs
        if pivots == 0 and not weights.min() >= -_ROUNDING and basis.max() < K:
            return None
        plane = values[basis] @ inverse
        reduced = values - plane[0] - plane[1:] @ columns
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced > _OPTIMAL)
        if entering.size:  # the tolerance grows with the plane, as its rounding does
            scale = abs(plane[0]) + np.abs(plane[1:]) @ np.abs(columns[:, entering])
            entering = entering[reduced[entering] > _OPTIMAL * np.maximum(1.0, scale)]
        if not entering.size:
            if basis.max() < K:
                return _result(problem, basis, weights, plane)
            # the artificial is still in, with the target at best on the hull's
            # boundary: a degenerate pivot puts in its place the grid point that
            # keeps [1; G_B] farthest from singular, so the plane is the grid's
            art = int(np.argmax(basis))
            points = np.delete(basis, art)
            at = problem.moments[:, points]
            shift = np.linalg.lstsq(at[:, :-1] - at[:, -1:], rhs[1:] - at[:, -1], rcond=None)[0]
            _check_band(problem, points, np.append(shift, 1.0 - shift.sum()))
            row = inverse[art, 0] + inverse[art, 1:] @ problem.moments
            row[points] = 0.0
            basis[art] = int(np.argmax(np.abs(row)))
            continue
        w = weights.tolist()
        for enter in (entering[np.argmax(reduced[entering])], entering[0]):
            step = (inverse[:, 0] + inverse[:, 1:] @ columns[:, enter]).tolist()
            ratios = [max(a, 0.0) / d if d > _ROUNDING else math.inf for a, d in zip(w, step)]
            leave = min(range(len(w)), key=lambda i: (ratios[i], basis[i]))
            if w[leave] > _ROUNDING:
                break  # the step moves the weights; a degenerate one takes Bland's rule
        basis[leave] = enter
    return None


def _check_band(problem, basis, weights):
    """Raise InfeasibleMomentsError where ``weights`` on the grid points
    ``basis``, clipped at 0, miss the targets by more than ``EQ_BAND``.  The
    band is checked before ``_distribution`` drops small weights: one of
    5e-10 at 100 carries 5e-6 of theta^2."""
    targets, clipped = problem.targets, np.maximum(weights, 0.0)
    if np.abs(problem.moments[:, basis] @ clipped / clipped.sum() - targets).max() > EQ_BAND:
        raise InfeasibleMomentsError(f"no grid distribution matches the target moments {targets}")


def _result(problem, basis, weights, plane) -> MomentLPResult:
    """The final basis's grid points and weights, and its plane."""
    order = np.argsort(basis)
    basis, weights = basis[order], weights[order]
    _check_band(problem, basis, weights)
    return MomentLPResult(
        value=float(plane[0] + plane[1:] @ problem.targets),
        solution=_distribution(problem.grid[basis], weights),
        dual_constant=float(plane[0]),
        dual_moments=plane[1:],
        basis=tuple(basis.tolist()),
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
    basis of the previous chi's solve, so a family whose grid and moments do
    not move with chi costs one cold start plus a few pivots per chi.  The
    inversion is ``_solve.invert``: ``lo`` is returned when its worst case is
    at most alpha; otherwise ``hi`` is doubled until its worst case is, and
    the result is the upper end of a final bracket at most ``tol`` wide, so
    its worst case is at most alpha and the worst case ``tol`` below it
    exceeds alpha.  Raises ``CalibrationError`` when 40 doublings do not
    reach it.
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
