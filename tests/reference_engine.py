"""The per-day backtest loop the score-vector engine replaced, kept as an oracle.

Every day it resolves the active set with one `reference_fill_forward` per
protocol, builds and normalizes the dense risk matrix over that set, runs
the general-path weighting (`solve_erc` for ERC), reports risk through
`portfolio_risk_report`, and calls `reference_fill_forward` again for each
active protocol to accrue at its own copy of the daily-rate formula.  It
shares no code with `run_backtest` beyond the public value types and the
general allocation path; on a diagonal matrix `solve_erc` takes the same
closed form, which the allocation tests check against the iterative solver.
Forward fills bisect the series' (date, value) entries, so they share
nothing with the engine's `searchsorted` over the series arrays either.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math

from defiparity.allocate import equal_weights, solve_erc, tvl_weights
from defiparity.backtest import BacktestConfig, BacktestLedger, YieldPanel
from defiparity.domain import DatedSeries, Universe
from defiparity.errors import MissingFx, NoActiveProtocols
from defiparity.risk import build_risk_matrix, normalize, portfolio_risk_report

_ONE_DAY = dt.timedelta(days=1)


def reference_daily_rate(apy: float, convention: str) -> float:
    """One day of yield at annual `apy`: compounded over 365 days, or simple."""
    if convention == "compound_365":
        return math.expm1(math.log1p(apy) / 365.0)
    assert convention == "simple_365", convention
    return apy / 365.0


def reference_fill_forward(series: DatedSeries, date: dt.date,
                           max_gap_days: int) -> float | None:
    """The value on `date`, or the last value at most `max_gap_days` old;
    None before the first observation or beyond the gap."""
    entries = series.entries
    dates = [d for d, _ in entries]
    idx = bisect.bisect_right(dates, date) - 1
    if idx < 0 or (date - dates[idx]).days > max_gap_days:
        return None
    return entries[idx][1]


def reference_active_universe(panel: YieldPanel, universe: Universe,
                              date: dt.date, max_gap_fill_days: int) -> Universe:
    active = []
    for record in universe:
        series = panel.series.get(record.protocol_id)
        if series is None:
            continue
        if reference_fill_forward(series, date, max_gap_fill_days) is not None:
            active.append(record)
    if not active:
        raise NoActiveProtocols(date)
    return Universe(tuple(active))


def _weights_and_risk(method: str, active: Universe):
    matrix = normalize(build_risk_matrix(active))
    if method == "erc":
        weights = solve_erc(matrix).weights
    elif method == "ew":
        weights = equal_weights(active)
    else:
        weights = tvl_weights(active)
    return weights, portfolio_risk_report(weights, matrix)


def reference_backtest(config: BacktestConfig, universe: Universe,
                       panel: YieldPanel) -> BacktestLedger:
    cache = {}  # active ids -> (set number, weights, risk)
    days, returns, values, values_usd, risks, set_of_day = [], [], [], [], [], []
    value = config.initial_value
    date = config.start_date
    while date <= config.end_date:
        active = reference_active_universe(panel, universe, date,
                                           config.max_gap_fill_days)
        key = active.ids
        if key not in cache:
            cache[key] = (len(cache), *_weights_and_risk(config.method, active))
        number, weights, risk = cache[key]

        day_return = 0.0
        for pid, w in zip(weights.universe_ids, weights.values):
            apy = reference_fill_forward(panel.series[pid], date, config.max_gap_fill_days)
            day_return += w * reference_daily_rate(apy, config.apy_convention)
        value = value * (1.0 + day_return)

        if panel.fx is not None:
            rate = reference_fill_forward(panel.fx, date, config.max_gap_fill_days)
            if rate is None:
                raise MissingFx(date)
            values_usd.append(value * rate)

        days.append(date.toordinal())
        returns.append(day_return)
        values.append(value)
        risks.append(risk)
        set_of_day.append(number)
        date += _ONE_DAY
    return BacktestLedger(config.method, config.initial_value, days, returns, values,
                          values_usd if panel.fx is not None else None, risks, set_of_day,
                          tuple(weights for _, weights, _ in cache.values()))
