"""Daily-rebalanced portfolio simulation over per-protocol APY series.

Each day at midnight UTC the engine determines which protocols have usable
yield data (exact observation or a forward fill within the gap window),
recomputes weights for the configured method over that active set, accrues
one day of yield, and records value, USD value under the FX overlay, and
the reported portfolio risk level.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .allocate import closed_form_weights, equal_weights, tvl_weights
from .domain import DatedSeries, Universe, WeightVector
from .errors import (
    DateRangeMismatch,
    InvalidApy,
    MissingFx,
    NoActiveProtocols,
    NonPositiveRate,
)
from .risk import normalized_scores

METHODS = ("erc", "ew", "tvl")
APY_CONVENTIONS = ("compound_365", "simple_365")

_ONE_DAY = dt.timedelta(days=1)


@dataclass(frozen=True)
class BacktestConfig:
    start_date: dt.date
    end_date: dt.date
    method: str
    initial_value: float = 1.0
    max_gap_fill_days: int = 3
    apy_convention: str = "compound_365"

    def __post_init__(self):
        if self.start_date > self.end_date:
            raise ValueError("start_date must not be after end_date")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (math.isfinite(self.initial_value) and self.initial_value > 0):
            raise ValueError("initial_value must be > 0")
        if self.max_gap_fill_days < 0:
            raise ValueError("max_gap_fill_days must be >= 0")
        if self.apy_convention not in APY_CONVENTIONS:
            raise ValueError(
                f"apy_convention must be one of {APY_CONVENTIONS}, "
                f"got {self.apy_convention!r}"
            )


@dataclass(frozen=True)
class YieldPanel:
    """Per-protocol daily APY series plus an optional FX overlay series.

    APY values are annual fractions (0.05 means 5%); FX is USD per
    stablecoin unit.
    """

    series: Mapping[str, DatedSeries]
    fx: DatedSeries | None = None

    def __post_init__(self):
        object.__setattr__(self, "series", dict(self.series))
        for pid, s in self.series.items():
            for date, apy in s.entries:
                if not (math.isfinite(apy) and apy > -1.0):
                    raise InvalidApy(f"APY must be > -1: {apy!r} for {pid!r} on {date}")
        if self.fx is not None:
            for date, rate in self.fx.entries:
                if not (math.isfinite(rate) and rate > 0.0):
                    raise NonPositiveRate(f"FX rate must be > 0: {rate!r} on {date}")


def daily_rate(apy: float, convention: str = "compound_365") -> float:
    """One day of yield implied by an annual APY."""
    if not (math.isfinite(apy) and apy > -1.0):
        raise InvalidApy(f"APY must be a finite number > -1, got {apy!r}")
    if convention == "compound_365":
        # (1+apy)^(1/365) - 1, via expm1/log1p to keep full precision for
        # small rates
        return math.expm1(math.log1p(apy) / 365.0)
    if convention == "simple_365":
        return apy / 365.0
    raise ValueError(f"unknown APY convention {convention!r}")


def _resolve_apys(
    panel: YieldPanel, ids: tuple[str, ...], date: dt.date, max_gap_fill_days: int
) -> dict[str, float]:
    """APY of each protocol priceable on `date`, by id in universe order.

    Priceable means observed on `date`, or forward-filled within the gap.
    Raises NoActiveProtocols when no protocol is.
    """
    apys = {}
    for pid in ids:
        series = panel.series.get(pid)
        apy = None if series is None else series.fill_forward(date, max_gap_fill_days)
        if apy is not None:
            apys[pid] = apy
    if not apys:
        raise NoActiveProtocols(date)
    return apys


def active_universe(
    panel: YieldPanel,
    universe: Universe,
    date: dt.date,
    max_gap_fill_days: int = 3,
) -> Universe:
    """Protocols priceable on `date`: observed, or forward-filled within the gap."""
    return universe.subset(_resolve_apys(panel, universe.ids, date, max_gap_fill_days))


@dataclass(frozen=True)
class BacktestRow:
    date: dt.date
    active_ids: tuple[str, ...]
    weights: WeightVector
    daily_return: float
    value_stable: float
    value_usd: float | None
    portfolio_risk: float


@dataclass(frozen=True)
class BacktestLedger:
    method: str
    initial_value: float
    rows: tuple[BacktestRow, ...] = field(repr=False)

    def __post_init__(self):
        if not self.rows:
            raise ValueError("ledger must have at least one row")
        prev = None
        for row in self.rows:
            if prev is not None:
                if row.date != prev.date + _ONE_DAY:
                    raise ValueError("ledger must hold one row per consecutive day")
                expected = prev.value_stable * (1.0 + row.daily_return)
                if abs(row.value_stable - expected) > 1e-12 * abs(expected):
                    raise ValueError(f"accrual identity violated on {row.date}")
            if not row.value_stable > 0:
                raise ValueError(f"portfolio value must stay > 0 (on {row.date})")
            prev = row

    @property
    def start_date(self) -> dt.date:
        return self.rows[0].date

    @property
    def end_date(self) -> dt.date:
        return self.rows[-1].date

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(r.date for r in self.rows)

    @property
    def daily_returns(self) -> tuple[float, ...]:
        return tuple(r.daily_return for r in self.rows)

    @property
    def values_stable(self) -> tuple[float, ...]:
        return tuple(r.value_stable for r in self.rows)

    @property
    def risks(self) -> tuple[float, ...]:
        return tuple(r.portfolio_risk for r in self.rows)


def _weights_and_risk(method: str, active: Universe) -> tuple[WeightVector, float]:
    scores = normalized_scores(active)
    if method == "erc":
        weights = closed_form_weights(active.ids, scores)
    elif method == "ew":
        weights = equal_weights(active)
    else:
        weights = tvl_weights(active)
    return weights, float(np.dot(weights.values, scores))


def run_backtest(
    config: BacktestConfig,
    universe: Universe,
    panel: YieldPanel,
) -> BacktestLedger:
    """Simulate one portfolio day by day over [start_date, end_date].

    Weights are recomputed each day from the active set's scores, normalized
    over that subset (the risk model is diagonal, so ERC is its closed form);
    since scores are static they only change when the active set changes,
    so the per-set result is cached.  Accrual is frictionless: value
    compounds by the weighted daily rate.
    """
    ids = universe.ids
    cache: dict[tuple[str, ...], tuple[WeightVector, float]] = {}
    rows = []
    value = config.initial_value
    date = config.start_date
    while date <= config.end_date:
        apys = _resolve_apys(panel, ids, date, config.max_gap_fill_days)
        key = tuple(apys)
        if key not in cache:
            cache[key] = _weights_and_risk(config.method, universe.subset(key))
        weights, risk = cache[key]

        day_return = 0.0
        for w, apy in zip(weights.values, apys.values()):
            day_return += w * daily_rate(apy, config.apy_convention)
        value = value * (1.0 + day_return)

        value_usd = None
        if panel.fx is not None:
            rate = panel.fx.fill_forward(date, config.max_gap_fill_days)
            if rate is None:
                raise MissingFx(date)
            value_usd = value * rate

        rows.append(
            BacktestRow(date, key, weights, day_return, value, value_usd, risk)
        )
        date += _ONE_DAY
    return BacktestLedger(config.method, config.initial_value, tuple(rows))


@dataclass(frozen=True)
class ComparisonTable:
    """Per-day values and risks for several ledgers over one date range."""

    methods: tuple[str, ...]
    dates: tuple[dt.date, ...]
    values_stable: Mapping[str, tuple[float, ...]]
    values_usd: Mapping[str, tuple[float | None, ...]]
    risks: Mapping[str, tuple[float, ...]]

    def value_difference(self, method_a: str, method_b: str) -> tuple[float, ...]:
        a = self.values_stable[method_a]
        b = self.values_stable[method_b]
        return tuple(x - y for x, y in zip(a, b))


def compare_backtests(ledgers: list[BacktestLedger]) -> ComparisonTable:
    """Align ledgers sharing a date range into one per-day table."""
    if not ledgers:
        raise ValueError("need at least one ledger to compare")
    dates = ledgers[0].dates
    for ledger in ledgers[1:]:
        if ledger.dates != dates:
            raise DateRangeMismatch(
                f"ledger {ledger.method!r} covers "
                f"{ledger.start_date}..{ledger.end_date}, expected "
                f"{ledgers[0].start_date}..{ledgers[0].end_date}"
            )
    methods = tuple(l.method for l in ledgers)
    if len(set(methods)) != len(methods):
        raise ValueError(f"duplicate ledger methods: {methods}")
    return ComparisonTable(
        methods=methods,
        dates=dates,
        values_stable={l.method: l.values_stable for l in ledgers},
        values_usd={l.method: tuple(r.value_usd for r in l.rows) for l in ledgers},
        risks={l.method: l.risks for l in ledgers},
    )
