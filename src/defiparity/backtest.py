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

from .allocate import closed_form_weights, tvl_share_weights, uniform_weights
from .domain import DatedSeries, Universe, WeightVector
from .errors import (
    DateRangeMismatch,
    InvalidApy,
    MissingFx,
    NoActiveProtocols,
    NonPositiveRate,
)
from .risk import unit_frobenius

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

    def _window(self, universe_ids: tuple[str, ...], config: "BacktestConfig") -> "_Window":
        """The window `config` asks for, compiled once and kept for the next
        method's run over the same dates (the last one only, so a long-lived
        panel holds one)."""
        key = (universe_ids, config.start_date, config.end_date,
               config.max_gap_fill_days, config.apy_convention)
        last = self.__dict__.get("_last_window")
        if last is None or last[0] != key:
            last = (key, _Window(self, *key))
            object.__setattr__(self, "_last_window", last)
        return last[1]


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


def active_universe(
    panel: YieldPanel,
    universe: Universe,
    date: dt.date,
    max_gap_fill_days: int = 3,
) -> Universe:
    """Protocols priceable on `date`: observed, or forward-filled within the gap."""
    active = []
    for pid in universe.ids:
        series = panel.series.get(pid)
        if series is not None and series.fill_forward(date, max_gap_fill_days) is not None:
            active.append(pid)
    if not active:
        raise NoActiveProtocols(date)
    return universe.subset(active)


def _forward_fill(series: DatedSeries, days: np.ndarray, gap: int):
    """Vector form of `series.fill_forward(day, gap)` over consecutive day ordinals.

    Returns (found, index, values): `found[i]` says whether day i has a
    value, which is then `values[index[i]]`; None when no observation lies
    within days[0] - gap .. days[-1].
    """
    ordinals, values = series.observed_between(
        dt.date.fromordinal(max(1, int(days[0]) - gap)), dt.date.fromordinal(int(days[-1])))
    if not ordinals:
        return None
    ordinals = np.asarray(ordinals)
    index = np.searchsorted(ordinals, days, side="right") - 1
    found = (index >= 0) & (days - ordinals[index] <= gap)
    return found, index, values


class _Window:
    """A panel resolved over [start, end] for one universe, shared by all methods.

    Only observations dated start - gap .. end are read, and each one's daily
    rate is computed once.  `rates[i, j]` is protocol j's daily rate on day
    i, forward-filled as `fill_forward` would, and 0.0 where j is inactive.
    Days are grouped by active set, sets numbered in order of first
    appearance.  `stop` is (day, error) for the first day the per-day loop
    cannot price, NoActiveProtocols before MissingFx on the same day.
    """

    def __init__(self, panel: YieldPanel, ids: tuple[str, ...], start: dt.date,
                 end: dt.date, gap: int, convention: str):
        days = np.arange(start.toordinal(), end.toordinal() + 1)
        self.dates = [dt.date.fromordinal(d) for d in days.tolist()]
        active = np.zeros((days.size, len(ids)), dtype=bool, order="F")
        self.rates = np.zeros((days.size, len(ids)), order="F")
        for j, pid in enumerate(ids):
            series = panel.series.get(pid)
            filled = None if series is None else _forward_fill(series, days, gap)
            if filled is not None:
                found, index, apys = filled
                rates = np.array([daily_rate(apy, convention) for apy in apys])
                active[:, j] = found
                self.rates[:, j] = np.where(found, rates[index], 0.0)

        # (day, rank, error): on one day the loop finds no active protocol
        # before it looks the FX rate up
        stops = []
        empty = ~active.any(axis=1)
        if empty.any():
            stops.append((int(empty.argmax()), 0, NoActiveProtocols))
        self.fx = None
        if panel.fx is not None:
            filled = _forward_fill(panel.fx, days, gap)
            found = np.zeros(days.size, dtype=bool) if filled is None else filled[0]
            if not found.all():
                stops.append((int((~found).argmax()), 1, MissingFx))
            else:
                self.fx = np.asarray(filled[2])[filled[1]]
        self.stop = None
        if stops:
            day, _, error = min(stops)
            self.stop = (day, error)

        packed = np.packbits(active, axis=1)
        width = packed.shape[1]
        raw = packed.tobytes()  # row after row, whatever the memory order
        number: dict[bytes, int] = {}
        self.set_of_day = [number.setdefault(raw[i * width:(i + 1) * width], len(number))
                           for i in range(days.size)]
        firsts = np.unique(self.set_of_day, return_index=True)[1].tolist()
        self.set_cols = [np.flatnonzero(active[d]) for d in firsts]
        self.set_ids = [tuple(ids[j] for j in cols.tolist()) for cols in self.set_cols]
        # the sets the loop weighs before it stops: weights come before the
        # FX lookup on a day, and an empty day has no weights
        self.sets_priced = len(firsts)
        if self.stop is not None:
            day, error = self.stop
            side = "right" if error is MissingFx else "left"
            self.sets_priced = int(np.searchsorted(firsts, day, side=side))


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
    def values_stable(self) -> tuple[float, ...]:
        return tuple(r.value_stable for r in self.rows)

    @property
    def risks(self) -> tuple[float, ...]:
        return tuple(r.portfolio_risk for r in self.rows)


def _weights_and_risk(method: str, ids: tuple[str, ...], scores: np.ndarray,
                      tvls: np.ndarray) -> tuple[WeightVector, float]:
    normalized = unit_frobenius(scores)
    if method == "erc":
        weights = closed_form_weights(ids, normalized)
    elif method == "ew":
        weights = uniform_weights(ids)
    else:
        weights = tvl_share_weights(ids, tvls)
    return weights, float(np.dot(weights.values, normalized))


def run_backtest(
    config: BacktestConfig,
    universe: Universe,
    panel: YieldPanel,
) -> BacktestLedger:
    """Simulate one portfolio day by day over [start_date, end_date].

    Weights are recomputed each day from the active set's scores, normalized
    over that subset (the risk model is diagonal, so ERC is its closed form);
    since scores are static they only change when the active set changes,
    so they are computed once per distinct set.  Accrual is frictionless:
    value compounds by the weighted daily rate.

    The window is compiled once per panel and dates (see `_Window`), so
    running each method in turn resolves the APYs and FX only once.
    """
    window = panel._window(universe.ids, config)
    scores = np.asarray(universe.scores, dtype=float)
    tvls = np.asarray([np.nan if p.tvl is None else p.tvl for p in universe], dtype=float)
    weights, risks = [], []
    dense = np.zeros((window.sets_priced, len(universe)), order="F")
    for s in range(window.sets_priced):
        cols = window.set_cols[s]
        w, risk = _weights_and_risk(config.method, window.set_ids[s],
                                    scores[cols], tvls[cols])
        weights.append(w)
        risks.append(risk)
        dense[s, cols] = w.values
    if window.stop is not None:
        day, error = window.stop
        raise error(window.dates[day])

    # summed term by term in universe order, as the per-day loop adds
    # w * rate over the active protocols; inactive terms add +0.0
    set_of_day = np.asarray(window.set_of_day)
    returns = np.zeros(len(window.dates))
    for j in range(len(universe)):
        returns += dense[:, j][set_of_day] * window.rates[:, j]
    # np.cumprod multiplies in sequence, as `value *= 1 + r` does
    values = np.cumprod(np.concatenate(([config.initial_value], 1.0 + returns)))[1:]
    values_usd = ([None] * len(values) if window.fx is None
                  else (values * window.fx).tolist())
    rows = tuple(map(
        BacktestRow,
        window.dates,
        [window.set_ids[s] for s in window.set_of_day],
        [weights[s] for s in window.set_of_day],
        returns.tolist(),
        values.tolist(),
        values_usd,
        [risks[s] for s in window.set_of_day],
    ))
    return BacktestLedger(config.method, config.initial_value, rows)


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
