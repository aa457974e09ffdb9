"""Weighting methods: equal weight, TVL weight, and the ERC solver.

The ERC (equal risk contribution) portfolio minimizes the spread of the
per-protocol risk contributions w_i * (M w)_i over the unit simplex.  For a
diagonal risk matrix the minimizer has the closed form w_i ~ 1/sqrt(score_i),
which doubles as an independent oracle for the iterative solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Universe, WeightVector
from .errors import (
    EmptyVector,
    MissingTvl,
    NotConverged,
    NotDiagonal,
    NotNormalized,
    UniverseMismatch,
    ZeroTotalTvl,
)
from .risk import RiskMatrix

_ARMIJO = 1e-4
_INITIAL_STEP = 1.0  # the very first trial step
_BACKTRACK = 0.5  # step shrink on each rejected trial
_PLATEAU_WINDOW = 10
_PLATEAU_REL_DECREASE = 1e-14
_MAX_BACKTRACKS = 200


def _renormalize(v: np.ndarray) -> np.ndarray:
    # idempotent: stops at an exact sum of 1.0 or at a fixed point of the
    # division, so renormalizing twice equals renormalizing once
    for _ in range(8):
        s = v.sum()
        if s == 1.0:
            break
        scaled = v / s
        if np.array_equal(scaled, v):
            break
        v = scaled
    return v


def _uniform_values(n: int) -> np.ndarray:
    return _renormalize(np.full(n, 1.0 / n))


def equal_weights(universe: Universe) -> WeightVector:
    """1/n in every protocol, renormalized so the sum is 1."""
    return uniform_weights(universe.ids)


def uniform_weights(universe_ids: tuple[str, ...]) -> WeightVector:
    """equal_weights over an id list."""
    values = _uniform_values(len(universe_ids))
    return WeightVector(universe_ids, tuple(values.tolist()))


def tvl_weights(universe: Universe) -> WeightVector:
    """Weights proportional to each protocol's TVL."""
    tvls = [np.nan if p.tvl is None else p.tvl for p in universe]
    return tvl_share_weights(universe.ids, np.asarray(tvls, dtype=float))


def tvl_share_weights(universe_ids: tuple[str, ...], tvls: np.ndarray) -> WeightVector:
    """tvl_weights over an id list and its TVLs, NaN where a TVL is missing."""
    missing = np.isnan(tvls)
    if missing.any():
        raise MissingTvl(universe_ids[int(missing.argmax())])
    total = float(np.sort(tvls).sum())
    if total == 0.0:
        raise ZeroTotalTvl("total TVL across the universe is zero")
    return WeightVector(universe_ids, tuple((tvls / total).tolist()))


def _check_pair(w: WeightVector, m: RiskMatrix) -> None:
    if w.universe_ids != m.universe_ids:
        raise UniverseMismatch(
            f"weights cover {w.universe_ids} but matrix covers {m.universe_ids}"
        )
    if not m.normalized:
        raise NotNormalized("ERC objective is defined on the normalized matrix")


def _objective(entries: np.ndarray, w: np.ndarray) -> float:
    # pairwise-difference form: no cancellation when contributions are close
    c = w * (entries @ w)
    d = c[:, None] - c[None, :]
    return float(np.sum(d * d))


def _gradient(entries: np.ndarray, w: np.ndarray) -> np.ndarray:
    u = entries @ w
    c = w * u
    v = len(w) * c - c.sum()
    return 4.0 * (u * v + entries @ (w * v))


def erc_objective(w: WeightVector, m: RiskMatrix) -> float:
    """Variance-of-risk-contributions objective.

    Sum over all ordered pairs (i, j) of (c_i - c_j)^2 where
    c_i = w_i * (M w)_i; zero exactly when all contributions are equal.
    """
    _check_pair(w, m)
    return _objective(m.entries, np.asarray(w.values))


def erc_objective_gradient(w: WeightVector, m: RiskMatrix) -> np.ndarray:
    """Analytic gradient of erc_objective with respect to the weights."""
    _check_pair(w, m)
    return _gradient(m.entries, np.asarray(w.values))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # sorted-threshold Euclidean projection onto {w : sum w = 1, w >= 0}
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    feasible = u + (1.0 - css) / ks > 0.0
    rho = int(np.nonzero(feasible)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_to_simplex(values, universe_ids=None) -> WeightVector:
    """Euclidean projection of an arbitrary vector onto the unit simplex.

    Ids default to positional labels when the vector is not tied to a
    universe.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise EmptyVector("cannot project an empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("projection input must be finite")
    projected = _project_simplex(arr)
    if universe_ids is None:
        universe_ids = tuple(str(i) for i in range(arr.size))
    return WeightVector(tuple(universe_ids), tuple(float(x) for x in projected))


def closed_form_diagonal(m: RiskMatrix) -> WeightVector:
    """Exact ERC weights for a strictly diagonal matrix: w_i ~ 1/sqrt(d_i)."""
    if not m.is_diagonal():
        raise NotDiagonal("closed form only applies to diagonal risk matrices")
    return closed_form_weights(m.universe_ids, np.diagonal(m.entries))


def closed_form_weights(universe_ids: tuple[str, ...], d: np.ndarray) -> WeightVector:
    """Exact ERC weights for the diagonal risk d: w_i ~ 1/sqrt(d_i)."""
    if np.all(d == d[0]):
        # equal scores: the symmetric point, on the same arithmetic path as
        # equal_weights so the two coincide exactly
        values = _uniform_values(d.size)
    else:
        inv = 1.0 / np.sqrt(d)
        values = inv / float(np.sort(inv).sum())
    return WeightVector(universe_ids, tuple(values.tolist()))


@dataclass(frozen=True)
class ErcSolverOptions:
    """Tuning knobs for the projected-gradient ERC solver.

    The step rule is spectral (Barzilai-Borwein) seeding with Armijo
    backtracking.
    """

    max_iterations: int = 10_000
    tolerance: float = 1e-12
    allow_closed_form: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")


@dataclass(frozen=True)
class ErcSolution:
    weights: WeightVector
    objective: float
    iterations: int
    converged: bool
    plateaued: bool = False

    def __post_init__(self):
        if self.objective < 0:
            raise ValueError("objective is a sum of squares and cannot be negative")


def solve_erc(m: RiskMatrix, opts: ErcSolverOptions | None = None) -> ErcSolution:
    """Minimize the ERC objective over the unit simplex.

    Projected gradient descent from equal weights: each iterate takes a
    gradient step, projects back onto the simplex, and backtracks until the
    Armijo decrease condition holds; accepted steps are re-seeded with the
    Barzilai-Borwein spectral length.  Strictly diagonal matrices short-
    circuit to the closed form unless `opts.allow_closed_form` is False.

    Returns an ErcSolution whose `converged` flag means the objective met
    `opts.tolerance`; `plateaued` means the descent stalled (relative
    decrease below 1e-14 over 10 iterations) before that.  Raises
    NotConverged, carrying the best iterate, if the iteration budget runs
    out with the tolerance unmet and no plateau.
    """
    if opts is None:
        opts = ErcSolverOptions()
    if not m.normalized:
        raise NotNormalized("solve_erc requires a normalized risk matrix")
    ids = m.universe_ids
    n = m.size
    if n == 1:
        return ErcSolution(WeightVector(ids, (1.0,)), 0.0, 0, True)
    if opts.allow_closed_form and m.is_diagonal():
        weights = closed_form_diagonal(m)
        return ErcSolution(weights, erc_objective(weights, m), 0, True)

    entries = m.entries
    w = _uniform_values(n)
    f = _objective(entries, w)
    g = _gradient(entries, w)
    step = _INITIAL_STEP
    history = [f]
    converged = f <= opts.tolerance
    plateaued = False
    iterations = 0

    while not converged and iterations < opts.max_iterations:
        iterations += 1
        w_new = w
        f_new = f
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            w_new = _project_simplex(w - step * g)
            direction = w_new - w
            if not np.any(direction):
                break
            f_new = _objective(entries, w_new)
            if f_new <= f + _ARMIJO * float(g @ direction):
                moved = True
                break
            step *= _BACKTRACK
            if step < 1e-18:
                break
        if not moved:
            plateaued = True
            break
        g_new = _gradient(entries, w_new)
        s = w_new - w
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            step = min(max(float(s @ s) / sy, 1e-12), 1e12)
        else:
            step = min(step * 4.0, 1e12)
        w, f, g = w_new, f_new, g_new
        converged = f <= opts.tolerance
        history.append(f)
        if not converged and len(history) > _PLATEAU_WINDOW:
            f_then = history[-_PLATEAU_WINDOW - 1]
            if f_then - f < _PLATEAU_REL_DECREASE * max(f_then, 1e-300):
                plateaued = True
                break

    if not converged and not plateaued:
        raise NotConverged(
            WeightVector(ids, tuple(float(x) for x in w)), f, iterations
        )

    w = _renormalize(w)
    f = _objective(entries, w)
    return ErcSolution(
        WeightVector(ids, tuple(float(x) for x in w)),
        f,
        iterations,
        f <= opts.tolerance,
        plateaued,
    )
