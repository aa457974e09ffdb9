"""Risk matrix construction, normalization, and risk decomposition.

The default construction is diagonal (one score per protocol); the type
also admits symmetric PSD off-diagonals so a future inter-protocol
dependency model can reuse the same contracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Universe, WeightVector
from .errors import (
    AlreadyNormalized,
    NotNormalized,
    UniverseMismatch,
    ZeroMatrix,
)


def unit_frobenius(entries: np.ndarray) -> np.ndarray:
    """`entries` scaled to unit Frobenius (Euclidean) norm."""
    # summing sorted squares makes the norm independent of entry order,
    # so permuting the universe permutes weights exactly
    squares = np.sort(np.square(entries.ravel()))
    norm = float(np.sqrt(squares.sum()))
    if norm == 0.0:
        raise ZeroMatrix("cannot normalize an all-zero risk matrix")
    return entries / norm


@dataclass(frozen=True, eq=False)
class RiskMatrix:
    """Square symmetric risk matrix indexed by an ordered protocol id list."""

    universe_ids: tuple[str, ...]
    entries: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("risk matrix must be square")
        if entries.shape[0] != len(self.universe_ids):
            raise ValueError("risk matrix dimension must equal universe size")
        if not np.array_equal(entries, entries.T):
            raise ValueError("risk matrix must be symmetric")
        if not np.all(np.diagonal(entries) > 0):
            raise ValueError("risk matrix diagonal entries must be > 0")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return len(self.universe_ids)

    def is_diagonal(self) -> bool:
        off = self.entries - np.diag(np.diagonal(self.entries))
        return not np.any(off)


def build_risk_matrix(universe: Universe) -> RiskMatrix:
    """Diagonal risk matrix holding each protocol's raw score."""
    return RiskMatrix(universe.ids, np.diag(np.asarray(universe.scores, dtype=float)))


def normalize(matrix: RiskMatrix) -> RiskMatrix:
    """Scale the matrix to unit Frobenius norm; the input is left untouched."""
    if matrix.normalized:
        raise AlreadyNormalized("risk matrix is already normalized")
    entries = unit_frobenius(matrix.entries)
    return RiskMatrix(matrix.universe_ids, entries, normalized=True)


@dataclass(frozen=True)
class RiskDecomposition:
    """Per-protocol risk contributions w_i * (M w)_i and their total."""

    contributions: tuple[float, ...]
    total: float

    def __post_init__(self):
        s = float(np.sum(self.contributions))
        if abs(self.total - s) > 1e-12 * max(abs(s), 1.0):
            raise ValueError("total must equal the sum of contributions")


def _check_ids(w: WeightVector, m: RiskMatrix) -> None:
    if w.universe_ids != m.universe_ids:
        raise UniverseMismatch(
            f"weights cover {w.universe_ids} but matrix covers {m.universe_ids}"
        )


def risk_contributions(w: WeightVector, m: RiskMatrix) -> RiskDecomposition:
    """Decompose the quadratic portfolio risk into per-protocol contributions.

    contributions[i] = w_i * (M w)_i, and the total equals w' M w.
    """
    _check_ids(w, m)
    values = np.asarray(w.values)
    contrib = values * (m.entries @ values)
    return RiskDecomposition(tuple(float(c) for c in contrib), float(contrib.sum()))


def portfolio_risk_report(w: WeightVector, m: RiskMatrix) -> float:
    """Reported portfolio risk level: the weighted mean of normalized scores.

    This is the linear metric sum_i w_i * m[i][i]; the quadratic form is
    available through risk_contributions for callers that prefer it.
    """
    _check_ids(w, m)
    if not m.normalized:
        raise NotNormalized("portfolio risk is reported on normalized matrices")
    return float(np.dot(np.asarray(w.values), np.diagonal(m.entries)))
