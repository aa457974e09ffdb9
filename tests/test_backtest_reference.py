"""The compiled-window engine against the per-day reference loop on random panels.

Panels have late entrants, gaps inside and beyond the fill window, equal
scores, single protocols, protocols without TVL and FX on and off.  Where
the loop fails, the engine must fail with the same error on the same first
failing day.  Dates, active sets and the EW and TVL weights must agree
exactly.  Every other figure may move in the last bits, because the engine
normalizes the n scores where the reference normalizes all n^2 matrix
entries, and NumPy groups those sums differently.
"""

import dataclasses
import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defiparity.backtest import (
    BacktestConfig,
    YieldPanel,
    active_universe,
    run_backtest,
)
from defiparity.domain import DatedSeries, ProtocolRecord, validate_universe
from defiparity.errors import MissingFx, MissingTvl, NoActiveProtocols
from reference_engine import reference_active_universe, reference_backtest

# float64 epsilon (2.2e-16) times a few hundred days of compounding
REL_TOL = 1e-13

START = dt.date(2022, 3, 1)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _series(observed, values, first_day):
    return DatedSeries.from_pairs(
        (START + dt.timedelta(days=first_day + i), v)
        for i, (seen, v) in enumerate(zip(observed, values))
        if seen
    )


@st.composite
def scenarios(draw):
    days = draw(st.integers(1, 90))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        scores = [draw(st.sampled_from([0.5, 2.0, 7.25]))] * n
    else:
        scores = draw(st.lists(
            st.one_of(st.sampled_from([1.0, 3.0]), st.floats(0.05, 20.0)),
            min_size=n, max_size=n))
    records, series = [], {}
    for i, score in enumerate(scores):
        pid = f"p{i}"
        tvl = None if draw(st.integers(0, 15)) == 15 else draw(st.floats(1.0, 1e9))
        records.append(ProtocolRecord(pid, score, tvl=tvl))
        # protocol 0 starts on day one and is mostly observed throughout, so
        # most panels run to the end; the others enter late and have gaps,
        # some longer than any fill window drawn below
        late = 0 if i == 0 else draw(st.integers(0, days))
        length = days - late
        observed = draw(st.lists(st.sampled_from([True] * 4 + [False]),
                                 min_size=length, max_size=length))
        if i == 0 and draw(st.integers(0, 3)):
            observed = [True] * length
        apys = draw(st.lists(st.integers(0, 3000).map(lambda k: k / 1e4),
                             min_size=length, max_size=length))
        if any(observed):
            series[pid] = _series(observed, apys, late)
    fx = None
    if draw(st.booleans()):
        seen = draw(st.lists(st.sampled_from([True] * 8 + [False]),
                             min_size=days, max_size=days))
        rates = draw(st.lists(st.integers(9_900, 10_100).map(lambda k: k / 1e4),
                              min_size=days, max_size=days))
        if any(seen):
            fx = _series(seen, rates, 0)
    universe = validate_universe(records)
    panel = YieldPanel(series=series, fx=fx)
    end = START + dt.timedelta(days=days - 1)
    gap = draw(st.integers(0, 4))
    convention = draw(st.sampled_from(["compound_365", "simple_365"]))
    return universe, panel, end, gap, convention


def _outcome(engine, config, universe, panel):
    try:
        return engine(config, universe, panel)
    except (NoActiveProtocols, MissingFx, MissingTvl) as exc:
        return exc


def _same_failure(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(want, MissingTvl):
        return got.protocol_id == want.protocol_id
    return got.date == want.date


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_engine_matches_reference_loop(scenario):
    universe, panel, end, gap, convention = scenario
    for method in ("ew", "tvl", "erc"):
        config = BacktestConfig(START, end, method, max_gap_fill_days=gap,
                                apy_convention=convention)
        got = _outcome(run_backtest, config, universe, panel)
        want = _outcome(reference_backtest, config, universe, panel)
        if isinstance(want, Exception):
            assert _same_failure(got, want)
            continue
        assert len(got.rows) == len(want.rows)
        for g, w in zip(got.rows, want.rows):
            assert g.date == w.date
            assert g.active_ids == w.active_ids
            assert g.weights.universe_ids == w.weights.universe_ids
            if method == "erc":
                assert all(map(_close, g.weights.values, w.weights.values))
            else:
                assert g.weights == w.weights
            assert _close(g.daily_return, w.daily_return)
            assert _close(g.value_stable, w.value_stable)
            assert _close(g.value_usd, w.value_usd)
            assert _close(g.portfolio_risk, w.portfolio_risk)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_active_universe_matches_reference(scenario):
    universe, panel, end, gap, _ = scenario
    date = START
    while date <= end:
        try:
            want = reference_active_universe(panel, universe, date, gap)
        except NoActiveProtocols:
            with pytest.raises(NoActiveProtocols):
                active_universe(panel, universe, date, gap)
        else:
            assert active_universe(panel, universe, date, gap) == want
        date += dt.timedelta(days=1)


def _day(i):
    return START + dt.timedelta(days=i)


def _failing_panel(days, empty=(), fx_missing=(), no_tvl_from=None):
    """Protocol "a" is observed except on `empty` days; "b", without TVL,
    is observed from day `no_tvl_from` on; FX is missing on `fx_missing`."""
    records = [ProtocolRecord("a", 1.0, tvl=5.0), ProtocolRecord("b", 4.0)]
    series = {"a": DatedSeries.from_pairs(
        (_day(i), 0.05) for i in range(days) if i not in empty)}
    if no_tvl_from is not None:
        series["b"] = DatedSeries.from_pairs(
            (_day(i), 0.02) for i in range(no_tvl_from, days))
    fx = DatedSeries.from_pairs(
        (_day(i), 1.0) for i in range(days) if i not in fx_missing)
    return validate_universe(records), YieldPanel(series=series, fx=fx)


# (empty days, FX-missing days, day "b" enters) -> {method: (error, day or id)}
FAILURES = [
    # NoActiveProtocols before MissingFx on the same day
    (((6,), (6,), None), {m: (NoActiveProtocols, 6) for m in ("ew", "tvl", "erc")}),
    (((6,), (3,), None), {m: (MissingFx, 3) for m in ("ew", "tvl", "erc")}),
    (((3,), (6,), None), {m: (NoActiveProtocols, 3) for m in ("ew", "tvl", "erc")}),
    # the loop weighs a day's new set before it looks the FX rate up
    (((), (4,), 4), {"ew": (MissingFx, 4), "erc": (MissingFx, 4),
                     "tvl": (MissingTvl, "b")}),
    (((), (3,), 4), {m: (MissingFx, 3) for m in ("ew", "tvl", "erc")}),
    (((2,), (), 4), {"ew": (NoActiveProtocols, 2), "erc": (NoActiveProtocols, 2),
                     "tvl": (NoActiveProtocols, 2)}),
    (((5,), (), 4), {"ew": (None, None), "erc": (None, None),
                     "tvl": (MissingTvl, "b")}),
]


@pytest.mark.parametrize("layout,expected", FAILURES)
def test_first_failure_matches_reference(layout, expected):
    # gap 0, so each missing day is beyond the fill window
    empty, fx_missing, no_tvl_from = layout
    universe, panel = _failing_panel(10, empty, fx_missing, no_tvl_from)
    for method, (error, where) in expected.items():
        config = BacktestConfig(START, _day(9), method, max_gap_fill_days=0)
        got = _outcome(run_backtest, config, universe, panel)
        want = _outcome(reference_backtest, config, universe, panel)
        if error is None:
            assert not isinstance(want, Exception)
            assert got.rows == want.rows
            continue
        assert type(want) is error
        assert want.protocol_id == where if error is MissingTvl else want.date == _day(where)
        assert _same_failure(got, want)


# --- metamorphic properties of the engine: each holds bit for bit ---------------


def _outcomes(config, universe, panel):
    """The run of each method over `config`'s window, or its error."""
    return {m: _outcome(run_backtest, dataclasses.replace(config, method=m), universe, panel)
            for m in ("ew", "tvl", "erc")}


def _same_outcome(got, want) -> bool:
    if isinstance(want, Exception):
        return _same_failure(got, want)
    return not isinstance(got, Exception) and got.rows == want.rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenarios(), st.data())
def test_split_run_chains_into_the_whole_run(scenario, data):
    """A run over [a, b] equals a run over [a, k] followed by one over
    [k + 1, b] that starts at the first run's last value."""
    universe, panel, end, gap, convention = scenario
    days = (end - START).days + 1
    if days < 2:
        return
    k = _day(data.draw(st.integers(0, days - 2)))
    config = BacktestConfig(START, end, "ew", max_gap_fill_days=gap, apy_convention=convention)
    whole = _outcomes(config, universe, panel)
    head = _outcomes(dataclasses.replace(config, end_date=k), universe, panel)
    for method, want in whole.items():
        first = head[method]
        if isinstance(first, Exception):
            assert _same_failure(first, want)
            continue
        tail_config = BacktestConfig(k + dt.timedelta(days=1), end, method,
                                     initial_value=first.rows[-1].value_stable,
                                     max_gap_fill_days=gap, apy_convention=convention)
        second = _outcome(run_backtest, tail_config, universe, panel)
        if isinstance(second, Exception):
            assert _same_failure(second, want)
        else:
            assert not isinstance(want, Exception)
            assert want.rows == first.rows + second.rows


def _only_between(series, first, last):
    return DatedSeries.from_pairs((d, v) for d, v in series.entries if first <= d <= last)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenarios(), st.data())
def test_observations_outside_the_window_change_nothing(scenario, data):
    """Dropping every APY and FX observation dated outside [start - gap, end]
    changes no row and no error."""
    universe, panel, end, gap, convention = scenario
    days = (end - START).days + 1
    a = data.draw(st.integers(0, days - 1))
    start, stop = _day(a), _day(data.draw(st.integers(a, days - 1)))
    first = start - dt.timedelta(days=gap)
    trimmed = YieldPanel(
        series={pid: _only_between(s, first, stop) for pid, s in panel.series.items()},
        fx=None if panel.fx is None else _only_between(panel.fx, first, stop))
    config = BacktestConfig(start, stop, "ew", max_gap_fill_days=gap, apy_convention=convention)
    want = _outcomes(config, universe, panel)
    got = _outcomes(config, universe, trimmed)
    for method in want:
        assert _same_outcome(got[method], want[method])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenarios(), st.sampled_from(["a", "q"]), st.floats(0.05, 20.0),
       st.one_of(st.none(), st.floats(1.0, 1e9)))
def test_scored_protocol_without_yields_changes_nothing(scenario, pid, score, tvl):
    """A scored protocol with no yields, first or last in id order, changes
    no row and no error."""
    universe, panel, end, gap, convention = scenario
    wider = validate_universe([*universe, ProtocolRecord(pid, score, tvl=tvl)])
    config = BacktestConfig(START, end, "ew", max_gap_fill_days=gap, apy_convention=convention)
    want = _outcomes(config, universe, panel)
    got = _outcomes(config, wider, panel)
    for method in want:
        assert _same_outcome(got[method], want[method])
