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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .allocate import _closed_form_values, _tvl_share_values, _uniform_values
from .domain import DatedSeries, Universe, WeightVector
from .errors import (
    DateRangeMismatch,
    InvalidApy,
    MissingFx,
    NoActiveProtocols,
    NonPositiveRate,
    ZeroMatrix,
)
from .risk import unit_frobenius

METHODS = ("erc", "ew", "tvl")
APY_CONVENTIONS = ("compound_365", "simple_365")


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
            ok = (s.levels > -1.0) & (s.levels < math.inf)
            if not ok.all():
                date, apy = s.entries[int(ok.argmin())]  # Python objects, plain reprs
                raise InvalidApy(f"APY must be > -1: {apy!r} for {pid!r} on {date}")
        if self.fx is not None:
            ok = (self.fx.levels > 0.0) & (self.fx.levels < math.inf)
            if not ok.all():
                date, rate = self.fx.entries[int(ok.argmin())]
                raise NonPositiveRate(f"FX rate must be > 0: {rate!r} on {date}")

    def _window(self, universe: Universe, config: "BacktestConfig") -> "_Window":
        """The window `config` asks for over `universe`, compiled once and kept
        for the next method's run over the same inputs (the last one only, so a
        long-lived panel holds one).  Scores are > 0, so equal score tuples
        mean equal scores; TVLs are not part of it."""
        key = (universe.ids, universe.scores, config.start_date, config.end_date,
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
    for record in universe:
        series = panel.series.get(record.protocol_id)
        if series is not None and series.fill_forward(date, max_gap_fill_days) is not None:
            active.append(record)
    if not active:
        raise NoActiveProtocols(date)
    return Universe(tuple(active))


def _forward_fill(series: DatedSeries, days: np.ndarray, gap: int):
    """Vector form of `series.fill_forward(day, gap)` over consecutive day ordinals.

    Returns (found, index, levels): `found[i]` says whether day i has a
    value, which is then `levels[index[i]]`, `levels` being the observations
    dated days[0] - gap .. days[-1]; None when there are none.
    """
    lo, hi = np.searchsorted(series.ordinals, (days[0] - gap, days[-1] + 1)).tolist()
    if lo == hi:
        return None
    ordinals = series.ordinals[lo:hi]
    index = np.searchsorted(ordinals, days, side="right") - 1
    found = (index >= 0) & (days - ordinals[index] <= gap)
    return found, index, series.levels[lo:hi]


def _daily_rates(apys: np.ndarray, convention: str) -> np.ndarray:
    """`daily_rate` of each of `apys`, which the panel has checked: the
    compound rate once per distinct bit pattern, so -0.0 keeps its own."""
    if convention == "simple_365":
        return apys / 365.0
    bits, inverse = np.unique(apys.view(np.int64), return_inverse=True)
    expm1, log1p = math.expm1, math.log1p
    rates = np.array([expm1(log1p(a) / 365.0) for a in bits.view(np.float64).tolist()])
    return rates[inverse]


class _Window:
    """A panel resolved over [start, end] for one universe: the set table that
    every method's run over the same inputs shares.  It is complete once built
    and runs only read it, so they may share it across threads.

    Only observations dated start - gap .. end are read, and the daily rate of
    each distinct APY among them is computed once.  `rates[i, j]` is protocol
    j's daily rate on day i, forward-filled as `fill_forward` would, and 0.0
    where j is inactive.  The table ends at the first day the per-day loop
    cannot price, `stop` = (error, args): no active protocol, or no FX rate
    once that day's set is weighed.  The days whose sets the loop weighs are
    grouped by active set, numbered in order of first appearance, each with
    its columns and ids.  `set_scores` holds each set's scores normalized over
    the set, up to the first set that cannot be normalized, which is then the
    stop.  A run weighs the sets in `set_scores`, then raises `stop` if any.
    """

    def __init__(self, panel: YieldPanel, ids: tuple[str, ...], scores: tuple[float, ...],
                 start: dt.date, end: dt.date, gap: int, convention: str):
        self.days = days = np.arange(start.toordinal(), end.toordinal() + 1)
        self.dates = [dt.date.fromordinal(d) for d in days.tolist()]
        active = np.zeros((days.size, len(ids)), dtype=bool, order="F")
        self.rates = np.zeros((days.size, len(ids)), order="F")
        fills = []
        for j, pid in enumerate(ids):
            series = panel.series.get(pid)
            filled = None if series is None else _forward_fill(series, days, gap)
            if filled is not None:
                fills.append((j, *filled))
        rates = _daily_rates(np.concatenate([apys for *_, apys in fills] or [np.zeros(0)]),
                             convention)
        at = 0  # where protocol j's rates start in `rates`
        for j, found, index, apys in fills:
            active[:, j] = found
            self.rates[:, j] = np.where(found, rates[at:at + apys.size][index], 0.0)
            at += apys.size

        empty = ~active.any(axis=1)
        no_fx = np.zeros(days.size, dtype=bool)  # no FX file: every day has a rate
        self.fx = None
        if panel.fx is not None:
            filled = _forward_fill(panel.fx, days, gap)
            no_fx = np.ones(days.size, dtype=bool) if filled is None else ~filled[0]
            if not no_fx.any():
                self.fx = filled[2][filled[1]]
        self.stop, reach = None, days.size
        cannot_price = empty | no_fx
        if cannot_price.any():
            day = int(cannot_price.argmax())
            error = NoActiveProtocols if empty[day] else MissingFx
            self.stop, reach = (error, (self.dates[day],)), day + (error is MissingFx)

        packed = np.packbits(active[:reach], axis=1)
        width = packed.shape[1]
        raw = packed.tobytes()  # row after row, whatever the memory order
        number: dict[bytes, int] = {}
        self.set_of_day = np.array([number.setdefault(raw[i * width:(i + 1) * width], len(number))
                                    for i in range(reach)], dtype=np.intp)
        firsts = np.unique(self.set_of_day, return_index=True)[1].tolist()
        self.set_cols = [np.flatnonzero(active[d]) for d in firsts]
        id_array = np.array(ids, dtype=object)
        self.set_ids = [tuple(id_array[cols].tolist()) for cols in self.set_cols]
        all_scores = np.asarray(scores, dtype=float)
        self.set_scores = []
        for cols, set_ids in zip(self.set_cols, self.set_ids):
            try:
                self.set_scores.append(unit_frobenius(all_scores[cols], set_ids))
            except ZeroMatrix as exc:  # squares that under- or overflow: the loop stops here
                self.stop = (ZeroMatrix, exc.args)
                break


@dataclass(frozen=True)
class BacktestRow:
    """One day of a ledger, as `BacktestLedger.rows` lists it."""

    date: dt.date
    weights: WeightVector
    daily_return: float
    value_stable: float
    value_usd: float | None
    portfolio_risk: float

    @property
    def active_ids(self) -> tuple[str, ...]:
        return self.weights.universe_ids


def check_figures(date, ret: float, value: float, usd: float | None, risk: float) -> None:
    """Raise a ValueError unless a day's return, value, USD value (None
    without FX) and risk are finite and its risk is >= 0."""
    if not (math.isfinite(ret) and math.isfinite(value) and (usd is None or math.isfinite(usd))
            and 0.0 <= risk < math.inf):
        raise ValueError(f"ledger figures must be finite, risk >= 0 (on {date})")


@dataclass(frozen=True, eq=False)
class BacktestLedger:
    """One method's run as columns, one entry per day: the day ordinals
    (`date.toordinal()`), the return, the value, the USD value (None without
    an FX overlay) and the risk, each a tuple of Python numbers.  Day i holds
    the weights `set_weights[set_of_day[i]]`, one vector per active set.  The
    constructor converts the columns once and checks every invariant at once;
    `rows` is a per-day view."""

    method: str
    initial_value: float
    days: tuple[int, ...] = field(repr=False)
    returns: tuple[float, ...] = field(repr=False)
    values_stable: tuple[float, ...] = field(repr=False)
    values_usd: tuple[float, ...] | None = field(repr=False)
    risks: tuple[float, ...] = field(repr=False)
    set_of_day: tuple[int, ...] = field(repr=False)
    set_weights: Sequence[WeightVector] = field(repr=False)  # read ledgers build on lookup

    def __post_init__(self):
        # an array through `tolist`, any other sequence entry by entry, without NumPy
        for name, kind in (("days", int), ("returns", float), ("values_stable", float),
                           ("values_usd", float), ("risks", float), ("set_of_day", int)):
            column = getattr(self, name)
            if column is None:
                continue
            if isinstance(column, np.ndarray):
                column = column.tolist()
            elif kind is float and None in column:  # NaN, as NumPy read it: check_figures fails
                column = [math.nan if x is None else x for x in column]
            object.__setattr__(self, name, tuple(map(kind, column)))
        n = len(self.days)
        if not n:
            raise ValueError("ledger must have at least one row")
        columns = (self.returns, self.values_stable, self.values_usd, self.risks, self.set_of_day)
        if any(c is not None and len(c) != n for c in columns) or not (
                0 <= min(self.set_of_day) <= max(self.set_of_day) < len(self.set_weights)):
            raise ValueError("ledger columns must hold one entry per day, and a set of each")
        days, returns, values = self.days, self.returns, self.values_stable
        usds = (None,) * n if self.values_usd is None else self.values_usd
        for figures in zip(self.dates, returns, values, usds, self.risks):
            check_figures(*figures)
        # per day, in this order: consecutive days, accrual `prev * (1 + r)`, value > 0
        for i, (day, r, v) in enumerate(zip(days, returns, values)):
            if i and day - days[i - 1] != 1:
                raise ValueError("ledger must hold one row per consecutive day")
            expected = values[i - 1] * (1.0 + r) if i else v  # day 0 has no last value
            if not abs(v - expected) <= 1e-12 * abs(expected):
                raise ValueError(f"accrual identity violated on {dt.date.fromordinal(day)}")
            if not v > 0:
                raise ValueError(f"portfolio value must stay > 0 (on {dt.date.fromordinal(day)})")

    def __eq__(self, other):
        return isinstance(other, BacktestLedger) and (
            (self.method, self.initial_value, self.rows)
            == (other.method, other.initial_value, other.rows))

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(map(dt.date.fromordinal, self.days))

    @cached_property
    def rows(self) -> tuple[BacktestRow, ...]:
        usd = (None,) * len(self.days) if self.values_usd is None else self.values_usd
        return tuple(map(
            BacktestRow, self.dates, [self.set_weights[s] for s in self.set_of_day],
            self.returns, self.values_stable, usd, self.risks,
        ))


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

    The window is compiled once per panel, universe scores and dates (see
    `_Window`), so running each method in turn resolves the APYs, the FX and
    the active sets only once.
    """
    window = panel._window(universe, config)
    tvls = np.asarray([np.nan if p.tvl is None else p.tvl for p in universe], dtype=float)
    uniform = {}  # EW values by set size: one array and its one float
    weights, risks = [], []
    dense = np.zeros((len(window.set_scores), len(universe)), order="F")
    for s, normalized in enumerate(window.set_scores):
        cols, ids = window.set_cols[s], window.set_ids[s]
        if config.method == "ew":
            if len(ids) not in uniform:
                values = _uniform_values(len(ids))  # all equal
                uniform[len(ids)] = values, (float(values[0]),)
            values, one = uniform[len(ids)]
            weights.append(WeightVector(ids, one * len(ids)))
        else:
            values = (_closed_form_values(normalized) if config.method == "erc"
                      else _tvl_share_values(ids, tvls[cols]))
            weights.append(WeightVector(ids, tuple(values.tolist())))
        risks.append(float(np.dot(values, normalized)))
        dense[s, cols] = values
    if window.stop is not None:
        error, args = window.stop
        raise error(*args)

    # summed term by term in universe order, as the per-day loop adds
    # w * rate over the active protocols; inactive terms add +0.0
    returns = np.zeros(len(window.dates))
    for j in range(len(universe)):
        returns += dense[:, j][window.set_of_day] * window.rates[:, j]
    # np.cumprod multiplies in sequence, as `value *= 1 + r` does
    values = np.cumprod(np.concatenate(([config.initial_value], 1.0 + returns)))[1:]
    return BacktestLedger(
        config.method, config.initial_value, window.days, returns, values,
        None if window.fx is None else values * window.fx,
        np.array(risks)[window.set_of_day], window.set_of_day, tuple(weights),
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Per-day values and risks for several ledgers over one date range."""

    methods: tuple[str, ...]
    dates: tuple[dt.date, ...]
    values_stable: Mapping[str, Sequence[float]]
    values_usd: Mapping[str, Sequence[float | None]]
    risks: Mapping[str, Sequence[float]]

    def value_difference(self, method_a: str, method_b: str) -> tuple[float, ...]:
        a = self.values_stable[method_a]
        b = self.values_stable[method_b]
        return tuple(x - y for x, y in zip(a, b))


def compare_backtests(ledgers: list[BacktestLedger]) -> ComparisonTable:
    """Align ledgers sharing a date range into one per-day table of floats."""
    if not ledgers:
        raise ValueError("need at least one ledger to compare")
    days = ledgers[0].days
    for ledger in ledgers[1:]:
        if ledger.days != days:
            raise DateRangeMismatch(
                f"ledger {ledger.method!r} covers "
                f"{ledger.dates[0]}..{ledger.dates[-1]}, expected "
                f"{ledgers[0].dates[0]}..{ledgers[0].dates[-1]}"
            )
    methods = tuple(l.method for l in ledgers)
    if len(set(methods)) != len(methods):
        raise ValueError(f"duplicate ledger methods: {methods}")
    return ComparisonTable(
        methods=methods,
        dates=ledgers[0].dates,
        values_stable={l.method: l.values_stable for l in ledgers},
        values_usd={l.method: (None,) * len(days) if l.values_usd is None
                    else l.values_usd for l in ledgers},
        risks={l.method: l.risks for l in ledgers},
    )
