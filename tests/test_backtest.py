import dataclasses
import datetime as dt
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defiparity.backtest import (
    BacktestConfig,
    YieldPanel,
    active_universe,
    compare_backtests,
    daily_rate,
    run_backtest,
)
from defiparity.domain import DatedSeries, ProtocolRecord, WeightVector, validate_universe
from defiparity.errors import (
    DateRangeMismatch,
    InvalidApy,
    MissingFx,
    MissingTvl,
    NoActiveProtocols,
    NonPositiveRate,
    ZeroMatrix,
)
from defiparity.risk import build_risk_matrix, normalize, portfolio_risk_report
from reference_engine import reference_backtest, reference_fill_forward

START = dt.date(2022, 1, 1)


def day(offset: int) -> dt.date:
    return START + dt.timedelta(days=offset)


def constant_series(apy: float, first: int, last: int) -> DatedSeries:
    return DatedSeries.from_pairs([(day(i), apy) for i in range(first, last + 1)])


class TestDailyRate:
    def test_zero_apy(self):
        assert daily_rate(0.0, "compound_365") == 0.0
        assert daily_rate(0.0, "simple_365") == 0.0

    def test_compound_five_percent(self):
        # reference value computed with mpmath at 50 digits:
        # (1.05)**(1/365) - 1 = 1.3368061711344035e-04
        assert daily_rate(0.05, "compound_365") == pytest.approx(
            1.3368061711344035e-04, rel=1e-14
        )

    def test_simple_identity(self):
        # 0.0365 / 365 = 1e-4 (up to one ulp in binary floating point)
        assert daily_rate(0.0365, "simple_365") == pytest.approx(1e-4, rel=1e-15)

    @pytest.mark.parametrize("apy", [-1.0, -2.5, float("nan"), float("inf")])
    def test_invalid_apy(self, apy):
        with pytest.raises(InvalidApy):
            daily_rate(apy)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            daily_rate(0.05, "weekly")


class TestActiveUniverse:
    def setup_method(self):
        self.universe = validate_universe([
            ProtocolRecord("a", 1.0),
            ProtocolRecord("b", 2.0),
        ])

    def test_before_first_observation_excluded(self):
        panel = YieldPanel(series={
            "a": constant_series(0.05, 1, 10),
            "b": constant_series(0.04, 0, 10),
        })
        active = active_universe(panel, self.universe, day(0), max_gap_fill_days=3)
        assert active.ids == ("b",)

    def test_gap_within_window_filled(self):
        pairs = [(day(0), 0.05), (day(1), 0.06), (day(4), 0.07)]
        panel = YieldPanel(series={"a": DatedSeries.from_pairs(pairs)})
        active = active_universe(panel, self.universe, day(3), max_gap_fill_days=3)
        assert active.ids == ("a",)

    def test_gap_beyond_window_excluded(self):
        pairs = [(day(0), 0.05), (day(10), 0.06)]
        panel = YieldPanel(series={
            "a": DatedSeries.from_pairs(pairs),
            "b": constant_series(0.04, 0, 10),
        })
        active = active_universe(panel, self.universe, day(5), max_gap_fill_days=3)
        assert active.ids == ("b",)

    def test_no_active_protocols(self):
        panel = YieldPanel(series={"a": constant_series(0.05, 5, 10)})
        with pytest.raises(NoActiveProtocols):
            active_universe(panel, self.universe, day(0), max_gap_fill_days=3)


class TestPanelValidation:
    def test_apy_floor(self):
        with pytest.raises(InvalidApy):
            YieldPanel(series={"a": constant_series(-1.5, 0, 2)})

    def test_fx_must_be_positive(self):
        fx = DatedSeries.from_pairs([(day(0), 0.0)])
        with pytest.raises(NonPositiveRate):
            YieldPanel(series={}, fx=fx)

    @pytest.mark.parametrize("bad,shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-1.5, "-1.5"), (-1.0, "-1.0"),
    ])
    def test_messages_name_the_first_bad_entry(self, bad, shown):
        apys = DatedSeries.from_pairs(
            [(day(0), 0.05), (day(1), -0.5), (day(2), bad), (day(3), 0.04), (day(4), -2.0)])
        with pytest.raises(InvalidApy) as exc:
            YieldPanel(series={"a": constant_series(0.05, 0, 4), "b": apys,
                               "c": constant_series(-3.0, 0, 4)})
        assert str(exc.value) == f"APY must be > -1: {shown} for 'b' on 2022-01-03"

        fx = DatedSeries.from_pairs(
            [(day(0), 1.0), (day(1), 0.5), (day(2), bad), (day(3), 1.0), (day(4), 0.0)])
        with pytest.raises(NonPositiveRate) as exc:
            YieldPanel(series={"a": constant_series(0.05, 0, 4)}, fx=fx)
        assert str(exc.value) == f"FX rate must be > 0: {shown} on 2022-01-03"


class TestConfigValidation:
    def test_start_after_end(self):
        with pytest.raises(ValueError):
            BacktestConfig(day(5), day(0), "ew")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            BacktestConfig(day(0), day(5), "minvar")

    def test_bad_initial_value(self):
        with pytest.raises(ValueError):
            BacktestConfig(day(0), day(5), "ew", initial_value=0.0)

    def test_negative_gap(self):
        with pytest.raises(ValueError):
            BacktestConfig(day(0), day(5), "ew", max_gap_fill_days=-1)

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            BacktestConfig(day(0), day(5), "ew", apy_convention="monthly")


class TestRunBacktest:
    def test_ten_day_compounding(self):
        # independent reference: (1.0001)^10 computed with mpmath at 50
        # digits is 1.0010004501200210
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        panel = YieldPanel(series={"a": constant_series(0.0365, 0, 9)})
        config = BacktestConfig(day(0), day(9), "ew", apy_convention="simple_365")
        ledger = run_backtest(config, universe, panel)
        assert len(ledger.rows) == 10
        assert ledger.rows[-1].value_stable == pytest.approx(
            1.0010004501200210, rel=1e-12
        )

    def test_equal_scores_erc_matches_ew(self):
        universe = validate_universe([
            ProtocolRecord("a", 3.0), ProtocolRecord("b", 3.0), ProtocolRecord("c", 3.0),
        ])
        panel = YieldPanel(series={
            "a": constant_series(0.03, 0, 29),
            "b": constant_series(0.05, 0, 29),
            "c": constant_series(0.08, 0, 29),
        })
        ew = run_backtest(BacktestConfig(day(0), day(29), "ew"), universe, panel)
        erc = run_backtest(BacktestConfig(day(0), day(29), "erc"), universe, panel)
        assert ew.rows == erc.rows

    def test_identity_fx_overlay(self):
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        panel = YieldPanel(
            series={"a": constant_series(0.05, 0, 9)},
            fx=constant_series(1.0, 0, 9),
        )
        ledger = run_backtest(BacktestConfig(day(0), day(9), "ew"), universe, panel)
        assert all(r.value_usd == r.value_stable for r in ledger.rows)

    def test_fx_changes_usd_only(self):
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        fx = DatedSeries.from_pairs([(day(i), 1.0 - 0.01 * i) for i in range(10)])
        panel = YieldPanel(series={"a": constant_series(0.05, 0, 9)}, fx=fx)
        ledger = run_backtest(BacktestConfig(day(0), day(9), "ew"), universe, panel)
        for i, row in enumerate(ledger.rows):
            assert row.value_usd == row.value_stable * (1.0 - 0.01 * i)

    def test_missing_fx_beyond_window(self):
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        panel = YieldPanel(
            series={"a": constant_series(0.05, 0, 9)},
            fx=constant_series(1.0, 0, 2),
        )
        with pytest.raises(MissingFx) as exc:
            run_backtest(BacktestConfig(day(0), day(9), "ew"), universe, panel)
        assert exc.value.date == day(6)

    def test_deterministic(self):
        universe = validate_universe([
            ProtocolRecord("a", 1.0), ProtocolRecord("b", 4.0),
        ])
        panel = YieldPanel(series={
            "a": constant_series(0.03, 0, 59),
            "b": constant_series(0.07, 0, 59),
        })
        config = BacktestConfig(day(0), day(59), "erc")
        first = run_backtest(config, universe, panel)
        second = run_backtest(config, universe, panel)
        assert first == second

    def test_accrual_replay(self):
        universe = validate_universe([
            ProtocolRecord("a", 1.0), ProtocolRecord("b", 4.0),
        ])
        panel = YieldPanel(series={
            "a": DatedSeries.from_pairs([(day(i), 0.02 + 0.001 * (i % 5)) for i in range(60)]),
            "b": DatedSeries.from_pairs([(day(i), 0.06 + 0.002 * (i % 3)) for i in range(60)]),
        })
        ledger = run_backtest(BacktestConfig(day(0), day(59), "erc"), universe, panel)
        value = ledger.initial_value
        for row in ledger.rows:
            value *= 1.0 + row.daily_return
            assert row.value_stable == pytest.approx(value, rel=1e-12)

    def test_accrual_compounds_in_sequence(self):
        # value_t = value_{t-1} * (1 + r_t), bit for bit, from a value other
        # than 1.0 (where initial * prod(1 + r) would round differently)
        universe = validate_universe([ProtocolRecord("a", 1.0), ProtocolRecord("b", 4.0)])
        panel = YieldPanel(series={
            "a": DatedSeries.from_pairs([(day(i), 0.02 + 0.001 * (i % 5)) for i in range(60)]),
            "b": DatedSeries.from_pairs([(day(i), 0.06 + 0.002 * (i % 3)) for i in range(60)]),
        })
        config = BacktestConfig(day(0), day(59), "erc", initial_value=1000.0 / 3.0)
        value = config.initial_value
        for row in run_backtest(config, universe, panel).rows:
            value = value * (1.0 + row.daily_return)
            assert row.value_stable == value

    def test_window_reaching_before_the_first_calendar_day(self):
        # start - gap lies before date.min; the fill window is clipped there
        first = dt.date.min
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        panel = YieldPanel(series={"a": DatedSeries.from_pairs(
            [(first + dt.timedelta(days=i), 0.05) for i in range(5)])})
        config = BacktestConfig(first + dt.timedelta(days=1), first + dt.timedelta(days=4), "ew")
        ledger = run_backtest(config, universe, panel)
        assert ledger.dates == tuple(first + dt.timedelta(days=i) for i in range(1, 5))

    def test_concurrent_runs_share_one_panel(self):
        # the panel keeps its last compiled window; threads that keep
        # swapping it for other dates must still get their own results
        universe = validate_universe([
            ProtocolRecord(pid, score, tvl=tvl)
            for pid, score, tvl in (("a", 1.0, 5.0), ("b", 4.0, 2.0), ("c", 2.5, 9.0))
        ])
        series = {
            "a": constant_series(0.03, 0, 59),
            "b": DatedSeries.from_pairs((day(i), 0.01 * (i % 7)) for i in range(10, 60)
                                        if i % 9),
            "c": constant_series(0.05, 20, 45),
        }
        fx = DatedSeries.from_pairs((day(i), 1.0 + 0.001 * (i % 4)) for i in range(60))
        configs = [BacktestConfig(day(first), day(59), method, max_gap_fill_days=gap)
                   for first in (0, 15) for method in ("ew", "tvl", "erc") for gap in (0, 3)]
        expected = [run_backtest(c, universe, YieldPanel(series=series, fx=fx))
                    for c in configs]
        panel = YieldPanel(series=series, fx=fx)
        mismatches, errors = [], []

        def work(offset):
            try:
                for k in range(5 * len(configs)):
                    i = (k + offset) % len(configs)
                    if run_backtest(configs[i], universe, panel) != expected[i]:
                        mismatches.append(i)
            except Exception as exc:  # reported below; a thread cannot raise into pytest
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert not mismatches

    def test_positive_value_with_negative_yields(self):
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        panel = YieldPanel(series={"a": constant_series(-0.9, 0, 29)})
        ledger = run_backtest(BacktestConfig(day(0), day(29), "ew"), universe, panel)
        assert all(r.value_stable > 0 for r in ledger.rows)
        assert ledger.rows[-1].value_stable < 1.0

    def test_single_active_protocol_all_methods_agree(self):
        universe = validate_universe([ProtocolRecord("a", 2.0, tvl=100.0)])
        panel = YieldPanel(series={"a": constant_series(0.05, 0, 9)})
        ledgers = [
            run_backtest(BacktestConfig(day(0), day(9), m), universe, panel)
            for m in ("ew", "tvl", "erc")
        ]
        for ledger in ledgers:
            assert all(r.weights.values == (1.0,) for r in ledger.rows)
        assert ledgers[0].rows == ledgers[1].rows == ledgers[2].rows

    def test_dynamic_universe_changes_weights_on_entry(self):
        universe = validate_universe([
            ProtocolRecord("a", 1.0), ProtocolRecord("b", 2.0), ProtocolRecord("c", 8.0),
        ])
        panel = YieldPanel(series={
            "a": constant_series(0.03, 0, 59),
            "b": constant_series(0.05, 0, 59),
            "c": constant_series(0.09, 30, 59),
        })
        ledger = run_backtest(BacktestConfig(day(0), day(59), "erc"), universe, panel)
        assert ledger.rows[29].active_ids == ("a", "b")
        assert ledger.rows[30].active_ids == ("a", "b", "c")
        risks = ledger.risks
        assert len(set(risks[:30])) == 1
        assert len(set(risks[30:])) == 1
        assert risks[29] != risks[30]

    def test_higher_score_entrant_raises_risk_in_new_frame(self):
        # weighted-mean fact, stated within the new day's normalization:
        # if the entrant's normalized score exceeds the incumbent level,
        # the equal-weight risk level cannot decrease
        universe = validate_universe([
            ProtocolRecord("a", 1.0), ProtocolRecord("b", 1.0), ProtocolRecord("c", 6.0),
        ])
        matrix = normalize(build_risk_matrix(universe))
        incumbents = WeightVector(matrix.universe_ids, (0.5, 0.5, 0.0))
        incumbent_level = portfolio_risk_report(incumbents, matrix)
        entrant_score = float(matrix.entries[2, 2])
        assert entrant_score > incumbent_level
        joined = WeightVector(matrix.universe_ids, (1 / 3, 1 / 3, 1 / 3))
        assert portfolio_risk_report(joined, matrix) >= incumbent_level


class TestCompare:
    def make_ledger(self, method: str, scores=(1.0, 4.0)):
        universe = validate_universe([
            ProtocolRecord("a", scores[0]), ProtocolRecord("b", scores[1]),
        ])
        panel = YieldPanel(series={
            "a": constant_series(0.03, 0, 9),
            "b": constant_series(0.07, 0, 9),
        })
        return run_backtest(BacktestConfig(day(0), day(9), method), universe, panel)

    def test_identical_ledgers_zero_difference(self):
        a = self.make_ledger("ew")
        b = self.make_ledger("erc")
        table = compare_backtests([a, b])
        assert table.dates == a.dates
        # a ledger compared against itself shows a zero column
        self_table = compare_backtests([a])
        assert self_table.value_difference("ew", "ew") == tuple([0.0] * 10)

    def test_equal_scores_ew_vs_erc_zero_difference(self):
        a = self.make_ledger("ew", scores=(2.0, 2.0))
        b = self.make_ledger("erc", scores=(2.0, 2.0))
        table = compare_backtests([a, b])
        assert table.value_difference("ew", "erc") == tuple([0.0] * 10)

    def test_disjoint_ranges_rejected(self):
        a = self.make_ledger("ew")
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        panel = YieldPanel(series={
            "a": DatedSeries.from_pairs([(day(20 + i), 0.03) for i in range(10)]),
        })
        b = run_backtest(BacktestConfig(day(20), day(29), "erc"), universe, panel)
        with pytest.raises(DateRangeMismatch):
            compare_backtests([a, b])

    def test_no_ledgers_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least one ledger to compare$"):
            compare_backtests([])

    def test_duplicate_methods_rejected(self):
        a, b = self.make_ledger("ew"), self.make_ledger("ew")
        with pytest.raises(ValueError, match=r"^duplicate ledger methods: \('ew', 'ew'\)$"):
            compare_backtests([a, b])


@st.composite
def relabelled_panels(draw):
    """A universe and panel of protocols p0..p{n-1} with late entrants and
    gaps, and a permutation: protocol i is relabelled p{perm[i]}, so the
    canonical (sorted) id order permutes."""
    n = draw(st.integers(2, 6))
    days = draw(st.integers(1, 45))
    scores = draw(st.lists(st.one_of(st.sampled_from([1.0, 3.0]), st.floats(0.05, 20.0)),
                           min_size=n, max_size=n))
    # sevenths are inexact, so a sum in another order would round differently
    tvls = draw(st.lists(st.integers(10**6, 10**10).map(lambda k: k / 7),
                         min_size=n, max_size=n))
    observations = []
    for i in range(n):
        # p0 is observed every day, so every day has an active protocol
        late = 0 if i == 0 else draw(st.integers(0, days - 1))
        seen = [True] * days if i == 0 else draw(
            st.lists(st.booleans(), min_size=days - late, max_size=days - late))
        apys = st.integers(10, 5_000).map(lambda k: k / 1e4)  # positive: no cancellation
        observations.append([(day(late + k), draw(apys)) for k, s in enumerate(seen) if s])
    fx = None
    if draw(st.booleans()):
        fx = DatedSeries.from_pairs(
            (day(k), draw(st.integers(9_900, 10_100)) / 1e4) for k in range(days))
    perm = draw(st.permutations(range(n)))

    def build(labels):
        universe = validate_universe(ProtocolRecord(label, score, tvl=tvl)
                                     for label, score, tvl in zip(labels, scores, tvls))
        series = {label: DatedSeries.from_pairs(obs)
                  for label, obs in zip(labels, observations) if obs}
        return universe, YieldPanel(series=series, fx=fx)

    return build([f"p{i}" for i in range(n)]), build([f"p{k}" for k in perm]), perm, days


def _rel_close(a, b) -> bool:
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(relabelled_panels(), st.sampled_from(["erc", "ew", "tvl"]))
def test_run_backtest_is_invariant_under_permutation(case, method):
    """Relabelling the protocols permutes each day's weights exactly, since
    every sum behind a weight runs over sorted values; returns, values and
    risks are sums in universe order, equal to within rounding."""
    (universe, panel), (relabelled, relabelled_panel), perm, days = case
    config = BacktestConfig(day(0), day(days - 1), method, max_gap_fill_days=2)
    base = run_backtest(config, universe, panel)
    moved = run_backtest(config, relabelled, relabelled_panel)
    original = {f"p{k}": f"p{i}" for i, k in enumerate(perm)}
    for a, b in zip(base.rows, moved.rows, strict=True):
        assert a.date == b.date
        assert a.weights.as_dict() == {original[pid]: w for pid, w in b.weights.as_dict().items()}
        assert _rel_close(a.daily_return, b.daily_return)
        assert _rel_close(a.value_stable, b.value_stable)
        assert (a.value_usd is None) is (b.value_usd is None)
        assert a.value_usd is None or _rel_close(a.value_usd, b.value_usd)
        assert _rel_close(a.portfolio_risk, b.portfolio_risk)


# one APY repeated across protocols and days, both zeros, the smallest
# subnormal and the APY just above -1
TRICKY_APYS = (0.05, 0.0, -0.0, 5e-324, math.nextafter(-1.0, 0.0), 0.05, 1e-9, -0.0)


@pytest.mark.parametrize("convention", ["compound_365", "simple_365"])
def test_window_rates_equal_daily_rate_bit_for_bit(convention):
    """The window computes each distinct APY's rate once; every cell must
    still hold `daily_rate` of its (forward-filled) APY to the last bit, and
    -0.0 must keep its own rate."""
    ids = ("a", "b", "c")
    series = {pid: DatedSeries.from_pairs(
        (day(i), TRICKY_APYS[(i * (k + 2) + k) % len(TRICKY_APYS)])
        for i in range(k, 30) if (i + k) % 5)  # gaps of one day, filled
        for k, pid in enumerate(ids)}
    universe = validate_universe(ProtocolRecord(pid, 1.0 + k) for k, pid in enumerate(ids))
    panel = YieldPanel(series=series)
    config = BacktestConfig(day(2), day(29), "ew", max_gap_fill_days=1,
                            apy_convention=convention)
    window = panel._window(universe, config)
    expected = np.zeros(window.rates.shape)
    for i, date in enumerate(window.dates):
        for j, pid in enumerate(ids):
            apy = reference_fill_forward(series[pid], date, 1)
            if apy is not None:
                expected[i, j] = daily_rate(apy, convention)
    assert np.array_equal(np.ascontiguousarray(window.rates).view(np.int64),
                          expected.view(np.int64))
    assert (expected == 0.0).sum() > (expected.view(np.int64) == 0).sum()  # -0.0 rates seen


def _figures(ledger):
    """Every figure of a ledger as its repr, so that 0.0 and -0.0 differ."""
    return [(row.date, row.active_ids, [repr(w) for w in row.weights.values],
             repr(row.daily_return), repr(row.value_stable), repr(row.value_usd),
             repr(row.portfolio_risk)) for row in ledger.rows]


def _shared_table_case(tvl_c=9.0, scores=(1.0, 4.0, 2.5)):
    universe = validate_universe(
        ProtocolRecord(pid, score, tvl=tvl)
        for pid, score, tvl in zip("abc", scores, (5.0, 2.0, tvl_c)))
    series = {
        "a": constant_series(0.03, 0, 39),
        "b": DatedSeries.from_pairs((day(i), 0.01 * (i % 7)) for i in range(5, 40) if i % 9),
        "c": constant_series(0.05, 12, 30),
    }
    fx = DatedSeries.from_pairs((day(i), 1.0 + 0.001 * (i % 4)) for i in range(40))
    return universe, lambda: YieldPanel(series=series, fx=fx)


@pytest.mark.parametrize("method", ["erc", "ew", "tvl"])
def test_a_run_owes_nothing_to_the_runs_before_it_on_its_panel(method):
    """The panel keeps one set table for all runs over the same inputs; a
    run on a panel that has already run other methods, or the same ids with
    other scores, must give the figures of a run on a fresh panel."""
    universe, new_panel = _shared_table_case()
    rescored, _ = _shared_table_case(scores=(3.0, 0.5, 7.0))
    config = BacktestConfig(day(0), day(39), method, max_gap_fill_days=2)
    fresh = _figures(run_backtest(config, universe, new_panel()))

    panel = new_panel()
    for other in {"erc", "ew", "tvl"} - {method}:
        run_backtest(BacktestConfig(day(0), day(39), other, max_gap_fill_days=2),
                     universe, panel)
    assert _figures(run_backtest(config, universe, panel)) == fresh

    panel = new_panel()
    assert _figures(run_backtest(config, rescored, panel)) != fresh
    assert _figures(run_backtest(config, universe, panel)) == fresh


def test_tvl_sign_of_zero_is_not_shared_between_runs():
    """Universes that differ only by a TVL of 0.0 or -0.0 share the set
    table, but each TVL ledger keeps its own sign of zero."""
    config = BacktestConfig(day(0), day(39), "tvl", max_gap_fill_days=2)
    panel = None
    seen = {}
    for tvl in (0.0, -0.0, 0.0, -0.0):
        universe, new_panel = _shared_table_case(tvl_c=tvl)
        panel = panel or new_panel()
        figures = _figures(run_backtest(config, universe, panel))
        assert figures == _figures(run_backtest(config, universe, new_panel()))
        seen[repr(tvl)] = figures
    assert seen["0.0"] != seen["-0.0"]


def _underflow_case(fx_missing=(), z_from=2):
    """"a" (score 1, no TVL) on days 0 and 1; "z", whose score squared
    underflows to zero, alone from day `z_from` on; FX missing on `fx_missing`."""
    universe = validate_universe([ProtocolRecord("a", 1.0), ProtocolRecord("z", 1e-200, tvl=1.0)])
    series = {"a": constant_series(0.02, 0, 1), "z": constant_series(0.03, z_from, 9)}
    fx = DatedSeries.from_pairs((day(i), 1.0) for i in range(10) if i not in fx_missing)
    return universe, YieldPanel(series=series, fx=fx)


def _raised(fn, *args):
    try:
        fn(*args)
    except (MissingFx, MissingTvl, NoActiveProtocols, ZeroMatrix) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("case,method,error", [
    # TVL fails on "a" alone before the set of "z" alone is reached
    ({}, "tvl", MissingTvl),
    ({}, "erc", ZeroMatrix),
    ({}, "ew", ZeroMatrix),
    # a day that cannot be priced before the set of "z" alone comes first
    ({"fx_missing": (1,)}, "ew", MissingFx),
    ({"z_from": 3}, "erc", NoActiveProtocols),
    # on one day the weights come before the FX lookup
    ({"fx_missing": (2,)}, "erc", ZeroMatrix),
])
def test_set_that_cannot_be_normalized_fails_in_loop_order(case, method, error):
    """The set table normalizes each set's scores up front; a set whose
    scores cannot be normalized still fails where the per-day loop would."""
    universe, panel = _underflow_case(**case)
    config = BacktestConfig(day(0), day(9), method, max_gap_fill_days=0)
    got = _raised(run_backtest, config, universe, panel)
    assert got == _raised(reference_backtest, config, universe, panel)
    assert got[0] is error


def _entry_case(enters, a_last=9, score=1.0, fx_missing=()):
    """"a" (score 1, TVL 1) on days 0 .. `a_last`; "b" (`score`, no TVL) from
    day `enters` on; FX missing on `fx_missing`."""
    universe = validate_universe([ProtocolRecord("a", 1.0, tvl=1.0), ProtocolRecord("b", score)])
    series = {"a": constant_series(0.02, 0, a_last), "b": constant_series(0.03, enters, 9)}
    fx = DatedSeries.from_pairs((day(i), 1.0) for i in range(10) if i not in fx_missing)
    return universe, YieldPanel(series=series, fx=fx)


@pytest.mark.parametrize("method", ["erc", "ew", "tvl"])
@pytest.mark.parametrize("case,errors,sets", [  # errors for erc, ew and tvl
    # the set of the day without FX is weighed before the lookup, so "b"'s
    # missing TVL comes first; a day later it is never weighed
    (dict(enters=4, fx_missing=(4,)), (MissingFx, MissingFx, MissingTvl),
     [("a",), ("a", "b")]),
    (dict(enters=5, fx_missing=(4,)), (MissingFx,) * 3, [("a",)]),
    # a set first seen the day after a day without protocols
    (dict(enters=5, a_last=3), (NoActiveProtocols,) * 3, [("a",)]),
    # "b" alone cannot be normalized: on the day without FX, then a day later
    (dict(enters=4, a_last=3, score=1e-200, fx_missing=(4,)), (ZeroMatrix,) * 3,
     [("a",), ("b",)]),
    (dict(enters=5, a_last=4, score=1e-200, fx_missing=(4,)), (MissingFx,) * 3, [("a",)]),
])
def test_set_table_ends_at_the_first_day_the_loop_cannot_price(case, errors, sets, method):
    """Each method stops where the per-day loop stops, and the set table holds
    no set first seen after that day."""
    universe, panel = _entry_case(**case)
    config = BacktestConfig(day(0), day(9), method, max_gap_fill_days=0)
    got = _raised(run_backtest, config, universe, panel)
    assert got == _raised(reference_backtest, config, universe, panel)
    assert got[0] is errors[("erc", "ew", "tvl").index(method)]
    assert panel._window(universe, config).set_ids == sets


@pytest.mark.parametrize("method", ["erc", "ew", "tvl"])
def test_scores_whose_squares_overflow_fail_as_the_reference(method):
    """Scores 1e200 and 1 are finite and positive, but 1e200 squared is inf;
    the set cannot be normalized, so no method returns weights (0.5, 0.5)
    and a risk of 0."""
    universe = validate_universe([ProtocolRecord("a", 1e200, tvl=1.0),
                                  ProtocolRecord("b", 1.0, tvl=1.0)])
    panel = YieldPanel(series={"a": constant_series(0.02, 0, 9),
                               "b": constant_series(0.03, 0, 9)})
    config = BacktestConfig(day(0), day(9), method, max_gap_fill_days=0)
    got = _raised(run_backtest, config, universe, panel)
    assert got == _raised(reference_backtest, config, universe, panel)
    assert got == (ZeroMatrix, "cannot normalize a risk matrix whose squared entries "
                               "sum to 0 or overflow: largest entry 1e+200 for 'a'")


@pytest.mark.parametrize("method", ["erc", "ew", "tvl"])
def test_set_whose_only_score_squares_to_zero_is_named(method):
    """1e-200 squared underflows to 0; the error names the protocol and its score."""
    universe = validate_universe([ProtocolRecord("z", 1e-200, tvl=1.0)])
    panel = YieldPanel(series={"z": constant_series(0.02, 0, 9)})
    config = BacktestConfig(day(0), day(9), method, max_gap_fill_days=0)
    got = _raised(run_backtest, config, universe, panel)
    assert got == _raised(reference_backtest, config, universe, panel)
    assert got == (ZeroMatrix, "cannot normalize a risk matrix whose squared entries "
                               "sum to 0 or overflow: largest entry 1e-200 for 'z'")


def per_row_ledger_error(days, returns, values, usd, risks):
    """The message of the first failing ledger check, in the order the per-row
    ledger made them: every row's figures, then row by row the day, the
    accrual and the value; None when all hold."""
    dates = [dt.date.fromordinal(d) for d in days]
    for i, date in enumerate(dates):
        figures = (returns[i], values[i], 0.0 if usd is None else usd[i], risks[i])
        if not (all(map(math.isfinite, figures)) and risks[i] >= 0):
            return f"ledger figures must be finite, risk >= 0 (on {date})"
    for i, date in enumerate(dates):
        if i:
            if days[i] != days[i - 1] + 1:
                return "ledger must hold one row per consecutive day"
            expected = values[i - 1] * (1.0 + returns[i])
            if not abs(values[i] - expected) <= 1e-12 * abs(expected):
                return f"accrual identity violated on {date}"
        if not values[i] > 0:
            return f"portfolio value must stay > 0 (on {date})"
    return None


BAD_FIGURES = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 1e308, 1e-320]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.booleans(), st.data())
def test_ledger_checks_name_the_error_of_the_per_row_checks(n, with_fx, data):
    """Edited columns of a valid ledger fail, or not, with the message and on
    the day the per-row checks give."""
    universe = validate_universe([ProtocolRecord("a", 1.0), ProtocolRecord("b", 4.0)])
    fx = DatedSeries.from_pairs((day(i), 1.01) for i in range(n)) if with_fx else None
    panel = YieldPanel(series={"a": constant_series(0.05, 0, n - 1),
                               "b": constant_series(0.2, 0, n - 1)}, fx=fx)
    ledger = run_backtest(BacktestConfig(day(0), day(n - 1), "erc"), universe, panel)
    columns = {name: list(getattr(ledger, name)) for name in ("days", "returns",
               "values_stable", "risks") + ("values_usd",) * with_fx}
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(columns)))
        i = data.draw(st.integers(0, n - 1))
        if name == "days":  # a day skipped or repeated from row i on
            step = data.draw(st.sampled_from([1, -1]))
            columns["days"][i:] = [d + step for d in columns["days"][i:]]
        else:
            columns[name][i] = data.draw(st.one_of(
                st.sampled_from(BAD_FIGURES),
                st.just(columns[name][i] * (1 + 1e-9))))
    want = per_row_ledger_error(columns["days"], columns["returns"], columns["values_stable"],
                                columns.get("values_usd"), columns["risks"])
    edited = {name: np.array(column) for name, column in columns.items()}
    try:
        dataclasses.replace(ledger, **edited)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert want is None


@pytest.mark.parametrize("columns, message", [
    ({"days": [], "returns": [], "values_stable": [], "risks": [], "set_of_day": []},
     "ledger must have at least one row"),
    ({"returns": [0.0, 0.0]}, "ledger columns must hold one entry per day, and a set of each"),
    ({"values_usd": [1.0, 1.0]}, "ledger columns must hold one entry per day, and a set of each"),
    ({"set_of_day": [0, 0, -1]}, "ledger columns must hold one entry per day, and a set of each"),
    ({"set_of_day": [0, 1, 0]}, "ledger columns must hold one entry per day, and a set of each"),
])
def test_ledger_columns_must_cover_every_day_with_a_set(columns, message):
    universe = validate_universe([ProtocolRecord("a", 1.0)])
    panel = YieldPanel(series={"a": constant_series(0.05, 0, 2)})
    ledger = run_backtest(BacktestConfig(day(0), day(2), "ew"), universe, panel)
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(ledger, **columns)
    assert str(exc.value) == message


LEDGER_COLUMNS = ("days", "returns", "values_stable", "values_usd", "risks", "set_of_day")


def fx_ledger():
    """An ERC ledger over four days with an FX overlay, in which "b" enters on day 2."""
    universe = validate_universe([ProtocolRecord("a", 1.0), ProtocolRecord("b", 4.0)])
    panel = YieldPanel(series={"a": constant_series(0.05, 0, 3), "b": constant_series(0.2, 2, 3)},
                       fx=DatedSeries.from_pairs((day(i), 1.01) for i in range(4)))
    return run_backtest(BacktestConfig(day(0), day(3), "erc"), universe, panel)


def test_ledger_columns_become_tuples_of_python_numbers_from_any_sequence():
    ledger = fx_ledger()
    columns = {name: list(getattr(ledger, name)) for name in LEDGER_COLUMNS}
    columns["returns"][0] = -0.0  # day 0 accrues from no last value
    built = [dataclasses.replace(ledger, **{name: kind(column) for name, column in columns.items()})
             for kind in (np.array, list, tuple)]
    for got in [ledger] + built:
        for name in LEDGER_COLUMNS:
            column = getattr(got, name)
            assert type(column) is tuple and len(column) == 4
            assert {type(x) for x in column} == ({int} if name in ("days", "set_of_day")
                                                 else {float})
    for name in LEDGER_COLUMNS:
        assert getattr(built[0], name) == getattr(built[1], name) == getattr(built[2], name)
    assert [math.copysign(1.0, got.returns[0]) for got in built] == [-1.0] * 3
    assert built[1].set_of_day == (0, 0, 1, 1)


@pytest.mark.parametrize("name", ["returns", "values_usd"])
@pytest.mark.parametrize("index", [0, 2])
def test_a_none_figure_fails_as_a_figure_that_is_not_finite(name, index):
    ledger = fx_ledger()
    column = list(getattr(ledger, name))
    column[index] = None
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(ledger, **{name: column})
    assert str(exc.value) == f"ledger figures must be finite, risk >= 0 (on {day(index)})"


@pytest.mark.parametrize("name", ["returns", "values_stable", "values_usd", "risks"])
def test_a_text_figure_fails_as_float_reads_it(name):
    ledger = fx_ledger()
    column = list(getattr(ledger, name))
    column[1] = "x"
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(ledger, **{name: column})
    assert str(exc.value) == "could not convert string to float: 'x'"
