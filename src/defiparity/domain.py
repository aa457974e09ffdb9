"""Core domain values: protocol records, universes, weights, dated series.

All types here are immutable after construction and validate their own
invariants, so they are safe to share across threads and safe to index into
matrices/vectors without re-checking.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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

    def subset(self, ids: Iterable[str]) -> "Universe":
        wanted = set(ids)
        missing = wanted - set(self.ids)
        if missing:
            raise KeyError(f"ids not in universe: {sorted(missing)}")
        return Universe(tuple(p for p in self.protocols if p.protocol_id in wanted))

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


@dataclass(frozen=True)
class WeightVector:
    """Simplex-constrained allocation over an ordered protocol id list."""

    universe_ids: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.universe_ids) != len(self.values):
            raise ValueError("weight vector length must equal universe size")
        if not self.values:
            raise ValueError("weight vector must not be empty")
        total = math.fsum(self.values)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        for w in self.values:
            if not math.isfinite(w) or w < -WEIGHT_SUM_TOL or w > 1.0 + WEIGHT_SUM_TOL:
                raise ValueError(f"weight {w!r} outside [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.universe_ids, self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DatedSeries:
    """Daily observations keyed by UTC calendar day, strictly increasing."""

    entries: tuple[tuple[dt.date, float], ...]

    def __post_init__(self):
        prev = None
        for date, _ in self.entries:
            if not isinstance(date, dt.date) or isinstance(date, dt.datetime):
                raise TypeError("series dates must be datetime.date (whole UTC days)")
            if prev is not None and date <= prev:
                if date == prev:
                    raise DuplicateObservation(f"duplicate observation on {date}")
                raise ValueError("series dates must be strictly increasing")
            prev = date

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[dt.date, float]]) -> "DatedSeries":
        """Sort unordered (date, value) pairs; duplicate dates are rejected."""
        return cls(tuple((d, float(v)) for d, v in sorted(pairs, key=lambda e: e[0])))

    @cached_property
    def _dates(self) -> list[dt.date]:
        return [d for d, _ in self.entries]

    @cached_property
    def _by_date(self) -> dict[dt.date, float]:
        return {d: v for d, v in self.entries}

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(self._dates)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def observed_between(self, first: dt.date, last: dt.date) -> tuple[list[int], list[float]]:
        """Day ordinals and values of the observations dated first..last."""
        lo = bisect.bisect_left(self._dates, first)
        hi = bisect.bisect_right(self._dates, last)
        return ([d.toordinal() for d in self._dates[lo:hi]],
                [v for _, v in self.entries[lo:hi]])

    def fill_forward(self, date: dt.date, max_gap_days: int = 0) -> float | None:
        """Value on `date`, or the last value at most `max_gap_days` old.

        Returns None before the first observation or when the gap to the
        last observation exceeds the window.
        """
        exact = self._by_date.get(date)
        if exact is not None:
            return exact
        idx = bisect.bisect_right(self._dates, date) - 1
        if idx < 0:
            return None
        last_date = self._dates[idx]
        if (date - last_date).days > max_gap_days:
            return None
        return self.entries[idx][1]

    def __len__(self) -> int:
        return len(self.entries)
