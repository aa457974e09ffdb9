"""Core domain values: protocol records, universes, weights, dated series.

All types here are immutable after construction and validate their own
invariants, so they are safe to share across threads and safe to index into
matrices/vectors without re-checking.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateId,
    DuplicateObservation,
    EmptyUniverse,
    NonPositiveScore,
)

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProtocolRecord:
    """One scored protocol: identity, chain, risk score, optional TVL (USD)."""

    protocol_id: str
    score: float
    name: str = ""
    chain: str = ""
    tvl: float | None = None

    def __post_init__(self):
        if not self.protocol_id:
            raise ValueError("protocol_id must be a nonempty string")
        if ";" in self.protocol_id or any(c.isspace() for c in self.protocol_id):
            raise ValueError(
                f"protocol_id must be a single token, got {self.protocol_id!r}"
            )
        if not (math.isfinite(self.score) and self.score > 0):
            raise NonPositiveScore(self.protocol_id)
        if self.tvl is not None and not (math.isfinite(self.tvl) and self.tvl >= 0):
            raise ValueError(f"tvl must be nonnegative for protocol {self.protocol_id!r}")


@dataclass(frozen=True)
class Universe:
    """Canonically ordered (by id) set of protocols; all vectors index into it."""

    protocols: tuple[ProtocolRecord, ...]

    def __post_init__(self):
        if not self.protocols:
            raise EmptyUniverse("universe has no protocols")
        prev = None
        for record in self.protocols:
            if prev is not None:
                if record.protocol_id == prev:
                    raise DuplicateId(record.protocol_id)
                if record.protocol_id < prev:
                    raise ValueError("universe protocols must be sorted by id")
            prev = record.protocol_id

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.protocol_id for p in self.protocols)

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(p.score for p in self.protocols)

    def __len__(self) -> int:
        return len(self.protocols)

    def __iter__(self) -> Iterator[ProtocolRecord]:
        return iter(self.protocols)


def validate_universe(protocols: Iterable[ProtocolRecord]) -> Universe:
    """Build a canonical Universe from records in any order.

    Sorts by protocol id; Universe rejects empties and duplicate ids.
    Idempotent: validating an already-valid universe returns it unchanged.
    """
    return Universe(tuple(sorted(protocols, key=lambda p: p.protocol_id)))


def check_weights(size: int, values: tuple[float, ...]) -> None:
    """Raise a ValueError unless `values` are `size` finite weights in [0, 1]
    that sum to 1, each within WEIGHT_SUM_TOL."""
    if size != len(values):
        raise ValueError("weight vector length must equal universe size")
    if not values:
        raise ValueError("weight vector must not be empty")
    try:
        total = math.fsum(values)
    except OverflowError:  # finite weights whose partial sums overflow
        total = math.inf
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    # the sum is NaN if a weight is NaN (an infinite one failed the test above);
    # C-level passes, and the Python walk runs only to name the first bad weight
    if math.isnan(total) or min(values) < -WEIGHT_SUM_TOL or max(values) > 1.0 + WEIGHT_SUM_TOL:
        for w in values:
            if not math.isfinite(w) or w < -WEIGHT_SUM_TOL or w > 1.0 + WEIGHT_SUM_TOL:
                raise ValueError(f"weight {w!r} outside [0, 1]")


@dataclass(frozen=True)
class WeightVector:
    """Simplex-constrained allocation over an ordered protocol id list."""

    universe_ids: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        check_weights(len(self.universe_ids), self.values)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.universe_ids, self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class DatedSeries:
    """Daily observations on strictly increasing UTC days, held as two read-only
    arrays: `ordinals` (`date.toordinal()`, int64) and `levels` (float64).
    `entries`, `dates` and `values` are tuple views of Python objects."""

    ordinals: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ordinals", np.int64), ("levels", np.float64)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.ordinals.ndim != 1 or self.ordinals.shape != self.levels.shape:
            raise ValueError("series needs one level per day ordinal")
        rises = np.diff(self.ordinals) > 0
        if not rises.all():
            i = int(rises.argmin())
            if self.ordinals[i] == self.ordinals[i + 1]:
                raise DuplicateObservation(f"duplicate observation on {self.dates[i]}")
            raise ValueError("series dates must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[dt.date, float]]) -> "DatedSeries":
        """Sort unordered (date, value) pairs; duplicate dates are rejected."""
        pairs = sorted(pairs, key=lambda e: e[0])
        if not all(isinstance(d, dt.date) and not isinstance(d, dt.datetime)
                   for d, _ in pairs):
            raise TypeError("series dates must be datetime.date (whole UTC days)")
        return cls([d.toordinal() for d, _ in pairs], [float(v) for _, v in pairs])

    @property
    def entries(self) -> tuple[tuple[dt.date, float], ...]:
        return tuple(zip(self.dates, self.values))

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(map(dt.date.fromordinal, self.ordinals.tolist()))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.levels.tolist())

    def fill_forward(self, date: dt.date, max_gap_days: int = 0) -> float | None:
        """Value on `date`, or the last value at most `max_gap_days` old.

        Returns None before the first observation or when the gap to the
        last observation exceeds the window.
        """
        day = date.toordinal()
        i = int(np.searchsorted(self.ordinals, day, side="right")) - 1
        if i < 0 or day - self.ordinals[i] > max_gap_days:
            return None
        return float(self.levels[i])

    def __eq__(self, other):
        return (isinstance(other, DatedSeries) and np.array_equal(self.ordinals, other.ordinals)
                and np.array_equal(self.levels, other.levels))

    def __len__(self) -> int:
        return len(self.ordinals)
