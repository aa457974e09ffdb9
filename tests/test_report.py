import ast
import csv
import dataclasses
import datetime as dt
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defiparity import report as report_module
from defiparity.backtest import (
    BacktestConfig,
    BacktestLedger,
    BacktestRow,
    ComparisonTable,
    YieldPanel,
    compare_backtests,
    run_backtest,
)
from defiparity.domain import DatedSeries, ProtocolRecord, WeightVector, validate_universe
from defiparity.errors import (
    DefiParityError,
    EmptyLedger,
    MonthMisalignment,
    ParseError,
    ZeroRisk,
)
from defiparity.report import (
    MonthlyReport,
    MonthlyReportRow,
    _Figures,
    _write_comparison_csv,
    emit_outputs,
    format_monthly,
    monthly_avg_risk,
    monthly_performance,
    monthly_report,
    perf_risk_ratio,
    read_ledger_csv,
    render_report_table,
)

D0 = dt.date(2021, 12, 1)


def ledger_with(daily_returns=None, days=30, apy=0.0, start=D0, method="ew"):
    universe = validate_universe([ProtocolRecord("a", 1.0)])
    if daily_returns is None:
        series = DatedSeries.from_pairs(
            [(start + dt.timedelta(days=i), apy) for i in range(days)]
        )
    else:
        days = len(daily_returns)
        # map target daily simple rates back to APYs (r = apy / 365)
        series = DatedSeries.from_pairs(
            [(start + dt.timedelta(days=i), r * 365.0) for i, r in enumerate(daily_returns)]
        )
    panel = YieldPanel(series={"a": series})
    config = BacktestConfig(
        start, start + dt.timedelta(days=days - 1), method,
        apy_convention="simple_365",
    )
    return run_backtest(config, universe, panel)


class TestMonthlyPerformance:
    def test_null_yield(self):
        rows = monthly_performance(ledger_with(days=30, apy=0.0))
        assert rows == [(dt.date(2021, 12, 30), 0.0)]

    def test_two_days_one_percent(self):
        rows = monthly_performance(ledger_with(daily_returns=[0.01, 0.01]))
        assert rows[0][1] == pytest.approx(0.0201, rel=1e-12)

    def test_constant_rate_closed_form(self):
        # 31-day December at constant daily r compounds to (1+r)^31 - 1
        r = 2e-4
        rows = monthly_performance(ledger_with(daily_returns=[r] * 31))
        assert rows[0][0] == dt.date(2021, 12, 31)
        assert rows[0][1] == pytest.approx((1 + r) ** 31 - 1, rel=1e-12)

    def test_partial_final_month_keyed_by_last_date(self):
        # 2021-12-01 .. 2022-01-10: full December, partial January
        rows = monthly_performance(ledger_with(days=41, apy=0.05))
        assert [r[0] for r in rows] == [dt.date(2021, 12, 31), dt.date(2022, 1, 10)]

    def test_chaining_reproduces_total_growth(self):
        ledger = ledger_with(
            daily_returns=[0.001 * math.sin(i / 5.0) + 0.0005 for i in range(100)]
        )
        rows = monthly_performance(ledger)
        chained = 1.0
        for _, perf in rows:
            chained *= 1.0 + perf
        total = ledger.rows[-1].value_stable / ledger.initial_value
        assert chained - 1.0 == pytest.approx(total - 1.0, rel=1e-9)


class TestMonthlyAvgRisk:
    def test_constant_risk_reproduced(self):
        # static single-protocol universe holds its normalized risk all month
        ledger = ledger_with(days=30, apy=0.05)
        rows = monthly_avg_risk(ledger)
        assert rows[0][1] == pytest.approx(1.0, rel=1e-12)  # 1x1 normalized matrix

    def test_half_and_half_mean(self):
        risks = [0.6] * 15 + [0.8] * 15
        # mean computed directly from a synthetic ledger's risk column
        ledger = ledger_with(days=30, apy=0.05)
        ledger = dataclasses.replace(ledger, risks=risks)
        rows = monthly_avg_risk(ledger)
        assert rows[0][1] == pytest.approx(0.7, rel=1e-15)

    def test_single_day_stub(self):
        ledger = ledger_with(days=1, apy=0.05)
        rows = monthly_avg_risk(ledger)
        assert rows == [(D0, 1.0)]


# Monthly EW/ERC figures as printed in the reference tables (perf in
# percent, risk unitless, ratio at 4 decimal places).
REF_MONTHS = [
    dt.date(2021, 12, 31), dt.date(2022, 1, 31), dt.date(2022, 2, 28),
    dt.date(2022, 3, 31), dt.date(2022, 4, 30), dt.date(2022, 5, 22),
]
REF_EW_PERF = [1.4400, 1.5250, 1.0720, 1.2490, 1.1180, 2.1140]
REF_EW_RISK = [0.6673, 0.5433, 0.4770, 0.4770, 0.4271, 0.4271]
REF_EW_RATIO = [0.0216, 0.0281, 0.0225, 0.0262, 0.0262, 0.0495]
REF_ERC_PERF = [1.5290, 1.5110, 1.0520, 1.1750, 1.0550, 2.1780]
REF_ERC_RISK = [0.6249, 0.5015, 0.4455, 0.4455, 0.4024, 0.4024]
REF_ERC_RATIO = [0.0245, 0.0301, 0.0236, 0.0264, 0.0262, 0.0541]


class TestPerfRiskRatio:
    @pytest.mark.parametrize(
        "perf_pct,risk,expected",
        [(1.4400, 0.6673, 0.0216), (1.5290, 0.6249, 0.0245), (0.0, 0.5, 0.0)],
    )
    def test_single_months(self, perf_pct, risk, expected):
        month = dt.date(2021, 12, 31)
        report = perf_risk_ratio([(month, perf_pct / 100)], [(month, risk)])
        assert round(report.rows[0].ratio, 4) == expected

    @pytest.mark.parametrize(
        "perfs,risks,ratios",
        [
            (REF_EW_PERF, REF_EW_RISK, REF_EW_RATIO),
            (REF_ERC_PERF, REF_ERC_RISK, REF_ERC_RATIO),
        ],
        ids=["ew", "erc"],
    )
    def test_published_tables_consistent(self, perfs, risks, ratios):
        perf_rows = [(m, p / 100) for m, p in zip(REF_MONTHS, perfs)]
        risk_rows = list(zip(REF_MONTHS, risks))
        report = perf_risk_ratio(perf_rows, risk_rows)
        assert [round(r.ratio, 4) for r in report.rows] == ratios

    def test_misaligned_months(self):
        with pytest.raises(MonthMisalignment):
            perf_risk_ratio(
                [(dt.date(2022, 1, 31), 0.01)], [(dt.date(2022, 2, 28), 0.5)]
            )

    def test_zero_risk(self):
        month = dt.date(2022, 1, 31)
        with pytest.raises(ZeroRisk):
            perf_risk_ratio([(month, 0.01)], [(month, 0.0)])


def multi_method_ledgers(days=62):
    universe = validate_universe([
        ProtocolRecord("a", 1.0, tvl=100.0), ProtocolRecord("b", 4.0, tvl=300.0),
    ])
    series = {
        "a": DatedSeries.from_pairs(
            [(D0 + dt.timedelta(days=i), 0.03) for i in range(days)]
        ),
        "b": DatedSeries.from_pairs(
            [(D0 + dt.timedelta(days=i), 0.07) for i in range(days)]
        ),
    }
    fx = DatedSeries.from_pairs(
        [(D0 + dt.timedelta(days=i), 1.0 + 0.001 * (i % 5)) for i in range(days)]
    )
    panel = YieldPanel(series=series, fx=fx)
    end = D0 + dt.timedelta(days=days - 1)
    return [
        run_backtest(BacktestConfig(D0, end, method), universe, panel)
        for method in ("ew", "erc")
    ]


class TestReportInvariants:
    def test_ratio_must_equal_perf_over_risk(self):
        with pytest.raises(ValueError, match=r"^ratio must equal perf / avg_risk$"):
            MonthlyReportRow(dt.date(2022, 1, 31), perf=0.01, avg_risk=0.5, ratio=1.0)

    def test_months_must_be_contiguous(self):
        rows = tuple(MonthlyReportRow(month_end, 0.01, 0.5, 0.02)
                     for month_end in (dt.date(2022, 1, 31), dt.date(2022, 3, 31)))
        with pytest.raises(ValueError, match=r"^report months must be contiguous$"):
            MonthlyReport("ew", rows)


class TestEmitOutputs:
    def test_no_ledgers_refused(self, tmp_path):
        with pytest.raises(EmptyLedger, match=r"^refusing to emit outputs for empty ledgers$"):
            emit_outputs([], [], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_writes_expected_files_deterministically(self, tmp_path):
        ledgers = multi_method_ledgers()
        reports = [monthly_report(l) for l in ledgers]
        first = emit_outputs(ledgers, reports, tmp_path / "one")
        second = emit_outputs(ledgers, reports, tmp_path / "two")
        names = [p.name for p in first]
        assert names == [
            "ledger_erc.csv", "ledger_ew.csv", "comparison.csv",
            "monthly_report.csv", "plot_data.json",
        ]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_empty_report_refused(self, tmp_path):
        ledgers = multi_method_ledgers()
        with pytest.raises(EmptyLedger):
            emit_outputs(ledgers, [], tmp_path)

    def test_unwritable_out_dir_raises_oserror(self, tmp_path):
        # a regular file squatting on the output path defeats mkdir
        # (permission bits are no use here: the suite may run as root)
        ledgers = multi_method_ledgers()
        reports = [monthly_report(l) for l in ledgers]
        target = tmp_path / "not_a_dir"
        target.write_text("occupied")
        with pytest.raises(OSError) as exc:
            emit_outputs(ledgers, reports, target)
        assert "not_a_dir" in str(exc.value)

    def test_ledger_csv_roundtrip(self, tmp_path):
        ledgers = multi_method_ledgers()
        reports = [monthly_report(l) for l in ledgers]
        emit_outputs(ledgers, reports, tmp_path)
        for ledger in ledgers:
            reloaded = read_ledger_csv(tmp_path / f"ledger_{ledger.method}.csv")
            assert reloaded.method == ledger.method
            assert reloaded.rows == ledger.rows

    def test_ledger_csv_quotes_ids_like_csv_writer(self, tmp_path):
        # ids may hold the CSV delimiter and quote character
        universe = validate_universe([
            ProtocolRecord("a,b", 1.0), ProtocolRecord('c"d', 4.0),
        ])
        panel = YieldPanel(series={
            pid: DatedSeries.from_pairs([(D0 + dt.timedelta(days=i), 0.03) for i in range(3)])
            for pid in universe.ids
        })
        ledger = run_backtest(BacktestConfig(D0, D0 + dt.timedelta(days=2), "ew"),
                              universe, panel)
        emit_outputs([ledger], [monthly_report(ledger)], tmp_path)
        path = tmp_path / "ledger_ew.csv"
        assert path.read_text().splitlines()[1].split(",", 5)[5].startswith('"a,b;c""d"')
        assert read_ledger_csv(path).rows == ledger.rows

    def test_report_roundtrip_through_csv(self, tmp_path):
        ledgers = multi_method_ledgers()
        reports = [monthly_report(l) for l in ledgers]
        emit_outputs(ledgers, reports, tmp_path)
        for report in reports:
            reloaded = monthly_report(
                read_ledger_csv(tmp_path / f"ledger_{report.method}.csv")
            )
            assert reloaded == report


class TestRenderTable:
    def test_display_precision(self):
        month = dt.date(2021, 12, 31)
        report = perf_risk_ratio([(month, 0.014400)], [(month, 0.6673)], method="ew")
        text = render_report_table([report])
        assert "1.4400%" in text
        assert "0.6673" in text
        assert "0.0216" in text

    def test_reports_must_cover_the_same_months(self):
        dec, jan, feb = dt.date(2021, 12, 31), dt.date(2022, 1, 31), dt.date(2022, 2, 28)
        ew = perf_risk_ratio([(dec, 0.01), (jan, 0.02)], [(dec, 0.5), (jan, 0.5)], "ew")
        erc = perf_risk_ratio([(jan, 0.01), (feb, 0.02)], [(jan, 0.5), (feb, 0.5)], "erc")
        with pytest.raises(MonthMisalignment):
            render_report_table([ew, erc])
        with pytest.raises(MonthMisalignment):
            render_report_table([ew, perf_risk_ratio([(dec, 0.01)], [(dec, 0.5)], "tvl")])

    def test_unknown_format_rejected(self):
        month = dt.date(2021, 12, 31)
        report = perf_risk_ratio([(month, 0.01)], [(month, 0.5)], method="ew")
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            format_monthly([report], "xml")


@st.composite
def engine_ledgers(draw):
    """The three ledgers of one run over a random panel: ids that hold the
    CSV delimiter and quote character, late entrants, gaps, FX on or off."""
    ids = draw(st.lists(st.text(alphabet='ab,"', min_size=1, max_size=3),
                        min_size=1, max_size=5, unique=True))
    days = draw(st.integers(1, 70))
    start = D0 + dt.timedelta(days=draw(st.integers(0, 40)))
    apys = st.floats(-0.5, 3.0)
    records, series = [], {}
    for i, pid in enumerate(ids):
        records.append(ProtocolRecord(pid, draw(st.floats(0.05, 20.0)),
                                      tvl=draw(st.floats(1.0, 1e9))))
        # the first protocol is observed every day, so no day is empty
        late = 0 if i == 0 else draw(st.integers(0, days - 1))
        seen = [True] * days if i == 0 else draw(
            st.lists(st.booleans(), min_size=days - late, max_size=days - late))
        series[pid] = DatedSeries.from_pairs(
            (start + dt.timedelta(days=late + k), draw(apys))
            for k, observed in enumerate(seen) if observed
        )
        if not series[pid].entries:
            del series[pid]
    fx = None
    if draw(st.booleans()):
        fx = DatedSeries.from_pairs(
            (start + dt.timedelta(days=k), draw(st.floats(0.5, 2.0))) for k in range(days)
        )
    universe = validate_universe(records)
    panel = YieldPanel(series=series, fx=fx)
    end = start + dt.timedelta(days=days - 1)
    return [run_backtest(BacktestConfig(start, end, method, max_gap_fill_days=2),
                         universe, panel)
            for method in ("ew", "tvl", "erc")]


def bits(report: MonthlyReport):
    """A monthly report with each figure as its exact bits."""
    return report.method, [(row.month_end, *map(float.hex, (row.perf, row.avg_risk, row.ratio)))
                           for row in report.rows]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(engine_ledgers())
def test_ledger_csv_round_trip(ledgers):
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(ledgers, [monthly_report(l) for l in ledgers], out)
        for ledger in ledgers:
            reloaded = read_ledger_csv(f"{out}/ledger_{ledger.method}.csv")
            assert reloaded.method == ledger.method
            assert reloaded.rows == ledger.rows
            assert bits(monthly_report(reloaded)) == bits(monthly_report(ledger))


@st.composite
def equal_or_zero_tvl_ledgers(draw):
    """The three ledgers of one run in which every protocol has one score and
    one TVL, or in which protocols with TVL 0 and -0 sit beside ones with a
    positive TVL; protocols enter on random days."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        scores = [draw(st.floats(0.05, 20.0))] * n
        tvls = [draw(st.floats(1.0, 1e9))] * n
    else:
        scores = draw(st.lists(st.floats(0.05, 20.0), min_size=n + 2, max_size=n + 2))
        tvls = draw(st.lists(st.floats(1.0, 1e9), min_size=n, max_size=n)) + [0.0, -0.0]
    # "p0", the first id, is observed every day and has a positive TVL
    ids = [f"p{i}" for i in range(len(tvls))]
    days = draw(st.integers(1, 40))
    series = {}
    for i, pid in enumerate(ids):
        late = 0 if i == 0 else draw(st.integers(0, days - 1))
        series[pid] = DatedSeries.from_pairs(
            (D0 + dt.timedelta(days=k), draw(st.floats(-0.5, 3.0))) for k in range(late, days)
        )
    universe = validate_universe(
        ProtocolRecord(pid, score, tvl=tvl) for pid, score, tvl in zip(ids, scores, tvls))
    end = D0 + dt.timedelta(days=days - 1)
    return [run_backtest(BacktestConfig(D0, end, method), universe, YieldPanel(series))
            for method in ("ew", "tvl", "erc")]


def csv_field(text: str) -> str:
    """`text` as csv.writer writes it as the first of two fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(engine_ledgers(), equal_or_zero_tvl_ledgers()))
def test_ledger_cells_equal_plain_formatting(ledgers):
    """Whatever the writer caches or shortcuts, each id cell is the joined
    ids as csv.writer writes them and each weights cell the joined reprs of
    the row's weights."""
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(ledgers, [monthly_report(l) for l in ledgers], out)
        for ledger in ledgers:
            with open(f"{out}/ledger_{ledger.method}.csv", newline="") as fh:
                lines = fh.read().splitlines()[1:]
            # the five cells before the ids never hold a comma, the weights none
            written = [line.split(",", 5)[5].rsplit(",", 1) for line in lines]
            assert written == [
                [csv_field(";".join(row.active_ids)), ";".join(map(repr, row.weights.values))]
                for row in ledger.rows
            ]


def comparison_csv_by_writer(table: ComparisonTable) -> str:
    """comparison.csv for `table`, every row written by csv.writer."""
    first = table.methods[0]
    has_usd = {m: any(v is not None for v in table.values_usd[m]) for m in table.methods}
    header = ["date"]
    for m in table.methods:
        header += [f"value_stable_{m}"] + [f"value_usd_{m}"] * has_usd[m] + [f"risk_{m}"]
    header += [f"value_diff_{m}_vs_{first}" for m in table.methods[1:]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i, date in enumerate(table.dates):
        row = [date.isoformat()]
        for m in table.methods:
            usd = table.values_usd[m][i]
            row += ([repr(table.values_stable[m][i])]
                    + ["" if usd is None else repr(usd)] * has_usd[m]
                    + [repr(table.risks[m][i])])
        row += [repr(table.values_stable[m][i] - table.values_stable[first][i])
                for m in table.methods[1:]]
        writer.writerow(row)
    return buf.getvalue()


@st.composite
def comparison_tables(draw):
    """One method or three, named with the CSV delimiter, quote and line
    ends; each with USD values, none, or some; any float, -0.0 and NaN too."""
    n = draw(st.sampled_from([1, 3]))
    methods = tuple(draw(st.lists(st.text(alphabet='ab,"\r\n', min_size=1, max_size=3),
                                  min_size=n, max_size=n, unique=True)))
    days = draw(st.integers(1, 12))
    figures = st.lists(st.floats(), min_size=days, max_size=days)
    usd = st.one_of(st.just([None] * days),
                    st.lists(st.one_of(st.none(), st.floats()), min_size=days, max_size=days))
    return ComparisonTable(
        methods=methods,
        dates=tuple(D0 + dt.timedelta(days=i) for i in range(days)),
        values_stable={m: tuple(draw(figures)) for m in methods},
        values_usd={m: tuple(draw(usd)) for m in methods},
        risks={m: tuple(draw(figures)) for m in methods},
    )


def figures(table: ComparisonTable, m: str) -> _Figures:
    """Method `m`'s figures as `_write_comparison_csv` takes them: cells with
    no returns, and a USD column only where some value is given ("" for None)."""
    usd = table.values_usd[m]
    cells = ([d.isoformat() for d in table.dates], None, list(map(repr, table.values_stable[m])),
             ["" if v is None else repr(v) for v in usd] if any(v is not None for v in usd)
             else None, list(map(repr, table.risks[m])))
    days = tuple(d.toordinal() for d in table.dates)
    return _Figures(m, days, table.values_stable[m], cells)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(comparison_tables())
def test_comparison_csv_equals_csv_writer_output(table):
    with tempfile.TemporaryDirectory() as out:
        _write_comparison_csv([figures(table, m) for m in table.methods],
                              f"{out}/comparison.csv")
        with open(f"{out}/comparison.csv", newline="", encoding="utf-8") as fh:
            assert fh.read() == comparison_csv_by_writer(table)


def plot_data_by_json(table: ComparisonTable) -> str:
    """plot_data.json for `table`, through json.dumps."""
    dates = [d.isoformat() for d in table.dates]
    data = {"methods": {m: {
        "dates": dates, "value_stable": table.values_stable[m],
        "value_usd": table.values_usd[m], "portfolio_risk": table.risks[m],
    } for m in table.methods}}
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def library_ledgers(draw):
    """One to four ledgers over one date range, built through the library:
    methods named with JSON escapes, non-ASCII and the CSV delimiter, whose
    order matters; each with USD values or none; -0.0 returns, USD values
    and risks, and figures whose repr has an exponent."""
    methods = draw(st.lists(st.text(alphabet='ab"\\\xe9\U0001f600,', min_size=1, max_size=3),
                            min_size=1, max_size=4, unique=True))
    days = draw(st.integers(1, 12))
    start = D0 + dt.timedelta(days=draw(st.integers(0, 40)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    ledgers = []
    for method in methods:
        initial = draw(st.sampled_from([1.0, 1e-05, 2.5e16]) | st.floats(1e-300, 1e300))
        returns = draw(st.lists(st.just(-0.0) | st.floats(-0.5, 0.5), min_size=days,
                                max_size=days))
        values = []
        for r in returns:
            values.append((values[-1] if values else initial) * (1.0 + r))
        usd = draw(st.none() | st.lists(st.just(-0.0) | finite, min_size=days, max_size=days))
        risks = draw(st.lists(st.just(-0.0) | st.floats(0.0, allow_infinity=False),
                              min_size=days, max_size=days))
        ledgers.append(BacktestLedger(
            method, initial, [start.toordinal() + i for i in range(days)], returns, values, usd,
            risks, [0] * days, [WeightVector(("a",), (1.0,))]))
    return ledgers


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(engine_ledgers(), library_ledgers()))
def test_shared_figure_cells_equal_the_oracles(ledgers):
    """comparison.csv is what csv.writer writes and plot_data.json what
    json.dumps writes, for the table `compare_backtests` builds."""
    month = ledgers[0].dates[-1]
    reports = [perf_risk_ratio([(month, 0.01)], [(month, 0.5)], "m")]
    table = compare_backtests(sorted(ledgers, key=lambda l: l.method))
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(ledgers, reports, out)
        for name, want in (("comparison.csv", comparison_csv_by_writer(table)),
                           ("plot_data.json", plot_data_by_json(table))):
            with open(f"{out}/{name}", newline="", encoding="utf-8") as fh:
                assert fh.read() == want


def each_row_parsed(path) -> tuple[BacktestRow, ...]:
    """The rows of a ledger CSV, each parsed on its own."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))[1:]
    return tuple(
        BacktestRow(dt.date.fromisoformat(day),
                    WeightVector(tuple(ids.split(";")), tuple(map(float, weights.split(";")))),
                    float(ret), float(stable), float(usd) if usd else None, float(risk))
        for day, ret, stable, usd, risk, ids, weights in lines
    )


def late_entrant_ledger_lines(tmp_path):
    """The ERC ledger lines of a 12-day run in which "c" enters on day 5, and
    the ledger's path: rows 0 and 5 start an active set, the rest repeat the
    row before."""
    universe = validate_universe([
        ProtocolRecord("a", 1.0), ProtocolRecord("b", 4.0), ProtocolRecord("c", 2.0),
    ])
    series = {pid: DatedSeries.from_pairs(
        (D0 + dt.timedelta(days=i), 0.01 * (k + 1)) for i in range(first, 12))
        for k, (pid, first) in enumerate([("a", 0), ("b", 0), ("c", 5)])}
    ledger = run_backtest(BacktestConfig(D0, D0 + dt.timedelta(days=11), "erc"),
                          universe, YieldPanel(series=series))
    emit_outputs([ledger], [monthly_report(ledger)], tmp_path)
    path = tmp_path / "ledger_erc.csv"
    return path, path.read_text().splitlines()


def with_weights(line, weights):
    return line.rsplit(",", 1)[0] + "," + weights


def test_repeated_weight_cells_read_like_each_row_parsed(tmp_path):
    path, lines = late_entrant_ledger_lines(tmp_path)
    # line 9 keeps its ids but takes other valid weights; line 10 repeats them
    for i in (9, 10):
        lines[i] = with_weights(lines[i], "0.5;0.25;0.25")
    path.write_text("\n".join(lines) + "\n")
    cells = [line.split(",", 5)[5] for line in lines[1:]]
    # rows 0, 5, 8 and 10 differ from the row before (row 10 returns to an
    # earlier text); the other 8 repeat it
    assert [i for i in range(12) if i == 0 or cells[i] != cells[i - 1]] == [0, 5, 8, 10]
    assert read_ledger_csv(path).rows == each_row_parsed(path)


@pytest.mark.parametrize("index", [2, 7, 12])
def test_bad_weight_after_a_repeated_row_reported_at_its_line(tmp_path, index):
    # each of these rows has the previous row's ids, and weights of its own
    path, lines = late_entrant_ledger_lines(tmp_path)
    lines[index] = with_weights(lines[index], ";".join(["0.6"] * (3 if index > 6 else 2)))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        read_ledger_csv(path)
    assert exc.value.line == index + 1
    assert "weights must sum to 1" in str(exc.value)


def with_cells(line, ids, weights):
    return ",".join(line.split(",")[:5] + [ids, weights])


def each_token_parsed_error(ids, weights):
    """The error of a row whose weights cell is split and each token parsed."""
    try:
        WeightVector(tuple(ids.split(";")), tuple(map(float, weights.split(";"))))
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("ids, weights", [
    ("a;b", "0.5;0.5"),
    ("a;b", "0.5;0.50"),  # equal values, unequal text
    ("a", "1.0"),
    ("a", "1"),
    ("a;b", "-0.0;-0.0"),
    ("a;b", "0.5;0.5;0.5"),
    ("a;b;c", "0.5;0.5"),
    ("a;b", "0.5"),
    ("a;b", "x;x"),
    ("a;b", ";"),
    ("a", ""),
])
def test_repeated_weight_cells_read_like_each_token_parsed(tmp_path, ids, weights):
    """A weights cell that repeats one token is parsed with one `float`; it
    gives the rows, or the error at the line, that parsing each token gives."""
    path, lines = late_entrant_ledger_lines(tmp_path)
    lines[3] = with_cells(lines[3], ids, weights)
    path.write_text("\n".join(lines) + "\n")
    message = each_token_parsed_error(ids, weights)
    if message is None:
        assert read_ledger_csv(path).rows == each_row_parsed(path)
    else:
        with pytest.raises(ParseError) as exc:
            read_ledger_csv(path)
        assert str(exc.value) == f"{path}:4: {message}"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(equal_or_zero_tvl_ledgers())
def test_emitted_ledgers_are_read_without_the_csv_module(ledgers):
    """Ids without a comma or quote are written bare, so every ledger line
    is plain and no csv.reader is built to read it back."""
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(ledgers, [monthly_report(l) for l in ledgers], out)
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            for ledger in ledgers:
                assert read_ledger_csv(f"{out}/ledger_{ledger.method}.csv").rows == ledger.rows
    assert not reader.called


def test_quoted_ids_cell_hands_the_rest_to_the_csv_module(tmp_path):
    path, lines = late_entrant_ledger_lines(tmp_path)
    lines[3] = with_cells(lines[3], '"a;b"', lines[3].rsplit(",", 1)[1])
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        rows = read_ledger_csv(path).rows
    assert reader.call_count == 1
    assert rows == each_row_parsed(path)


@pytest.mark.parametrize("index, line", [(1, 3), (4, 5)])
def test_value_usd_on_some_rows_only_named_at_the_first_row_that_differs(tmp_path, index, line):
    # the ledger has no FX overlay; one row gets a USD value
    path, lines = late_entrant_ledger_lines(tmp_path)
    cells = lines[index].split(",")
    cells[3] = cells[2]
    lines[index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        read_ledger_csv(path)
    assert str(exc.value) == f"{path}:{line}: value_usd must be given on every row or on none"


# --- the read ledger: weight vectors built when looked up, every check kept ----


def test_read_ledger_builds_each_weight_vector_once_when_first_looked_up(tmp_path, monkeypatch):
    path, _ = long_ledger_lines(tmp_path)
    built, check = [], WeightVector.__post_init__
    monkeypatch.setattr(WeightVector, "__post_init__", lambda self: built.append(self) or check(self))
    ledger = read_ledger_csv(path)
    monthly_report(ledger)
    assert built == [] and len(ledger.set_weights) == 2
    assert ledger.set_weights[1] is ledger.set_weights[-1]
    assert built == [ledger.set_weights[1]] and built[0].universe_ids == ("a", "b", "c")
    assert [row.active_ids for row in ledger.rows] == [("a", "b")] * 40 + [("a", "b", "c")] * 90
    assert len(built) == 2
    assert ledger.set_weights[::-1] == tuple(built) == tuple(reversed(ledger.set_weights))


def numpy_calls(fn) -> int:
    """How many C functions of NumPy `fn()` calls (`sys.setprofile`'s
    c_call events): a NumPy function, or a method of a NumPy object."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call":
            module = arg.__module__ or type(getattr(arg, "__self__", None)).__module__
            calls += module.partition(".")[0] == "numpy"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_report_reads_and_folds_ledgers_without_numpy(tmp_path):
    """Reading a ledger CSV and folding it into its monthly report calls no
    NumPy: the columns are converted entry by entry."""
    universe = validate_universe([
        ProtocolRecord("a", 1.0, tvl=100.0), ProtocolRecord("b", 4.0, tvl=300.0),
        ProtocolRecord("c", 2.0, tvl=50.0),
    ])
    series = {pid: DatedSeries.from_pairs(
        (D0 + dt.timedelta(days=i), 0.01 * (k + 1)) for i in range(first, 75))
        for k, (pid, first) in enumerate([("a", 0), ("b", 0), ("c", 40)])}
    fx = DatedSeries.from_pairs((D0 + dt.timedelta(days=i), 1.0 + 0.001 * (i % 5))
                                for i in range(75))
    panel = YieldPanel(series=series, fx=fx)
    ledgers = [run_backtest(BacktestConfig(D0, D0 + dt.timedelta(days=74), method),
                            universe, panel) for method in ("erc", "ew", "tvl")]
    reports = [monthly_report(ledger) for ledger in ledgers]
    emit_outputs(ledgers, reports, tmp_path)
    read = []
    paths = [tmp_path / f"ledger_{method}.csv" for method in ("erc", "ew", "tvl")]
    calls = numpy_calls(lambda: read.extend(monthly_report(read_ledger_csv(p)) for p in paths))
    assert read == reports
    assert calls == 0


def test_report_module_imports_no_ingest():
    """`report.py` imports neither `ingest` nor any other package module but
    the ledger's, the checks', the errors' and the row reader's: it reads
    rows through `rows` and never forks, so it needs no two-process runner."""
    tree = ast.parse(Path(report_module.__file__).read_text(encoding="utf-8"))
    inside, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            inside.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module)
    assert inside == {"backtest", "domain", "errors", "rows"}
    assert not any(name.partition(".")[0] == "defiparity" for name in outside)


def long_ledger_lines(tmp_path):
    """The ERC ledger lines of a 130-day run without FX in which "c" enters
    on day 40 (lines 1-40 hold two ids, lines 41-130 three), and its path."""
    universe = validate_universe([
        ProtocolRecord("a", 1.0), ProtocolRecord("b", 4.0), ProtocolRecord("c", 2.0),
    ])
    series = {pid: DatedSeries.from_pairs(
        (D0 + dt.timedelta(days=i), 0.01 * (k + 1)) for i in range(first, 130))
        for k, (pid, first) in enumerate([("a", 0), ("b", 0), ("c", 40)])}
    ledger = run_backtest(BacktestConfig(D0, D0 + dt.timedelta(days=129), "erc"),
                          universe, YieldPanel(series=series))
    emit_outputs([ledger], [monthly_report(ledger)], tmp_path)
    path = tmp_path / "ledger_erc.csv"
    return path, path.read_text().splitlines()


def set_cell(lines, index, cell, value):
    cells = lines[index].split(",")
    cells[cell] = value
    lines[index] = ",".join(cells)


def break_copy(lines, kind):
    """Break `lines` in place as `kind` says; the file line the error names,
    None for an error found only once every row is read."""
    if kind == "bad float":
        set_cell(lines, 30, 1, "1.0x")
        return 31
    if kind == "weights over 1 by 1e-8":
        set_cell(lines, 70, 6, "0.25;0.25;0.50000001")
        return 71
    if kind == "a weight of -0.1":
        set_cell(lines, 20, 6, "-0.1;1.1")
        return 21
    if kind == "fewer weights than ids":
        set_cell(lines, 50, 6, lines[50].split(",")[6].rsplit(";", 1)[0])
        return 51
    if kind == "a skipped day":
        del lines[60]
        return None
    if kind == "accrual break, then a bad float":
        set_cell(lines, 5, 2, repr(float(lines[5].split(",")[2]) * 1.001))
        set_cell(lines, 100, 4, "abc")
        return 101
    if kind == "value 0":
        set_cell(lines, 80, 1, "-1.0")
        set_cell(lines, 80, 2, "0.0")
        return None
    if kind == "first return -1":
        set_cell(lines, 1, 1, "-1.0")
        return None
    if kind == "USD on some rows only":
        set_cell(lines, 90, 3, lines[90].split(",")[2])
        return 91
    assert kind == "header only"
    del lines[1:]
    return None


@pytest.mark.parametrize("kind, message", [
    ("bad float", "could not convert string to float: '1.0x'"),
    ("weights over 1 by 1e-8", "weights must sum to 1 (got 1.00000001)"),
    ("a weight of -0.1", "weight -0.1 outside [0, 1]"),
    ("fewer weights than ids", "weight vector length must equal universe size"),
    ("a skipped day", "ledger must hold one row per consecutive day"),
    ("accrual break, then a bad float", "could not convert string to float: 'abc'"),
    ("value 0", "portfolio value must stay > 0 (on 2022-02-18)"),
    ("first return -1", "float division by zero"),
    ("USD on some rows only", "value_usd must be given on every row or on none"),
    ("header only", None),
])
def test_broken_copy_gives_its_error_and_line(tmp_path, kind, message):
    """Every row error is found before a ledger invariant is checked, and is
    named by its `path:line`; an invariant's error names the file."""
    path, lines = long_ledger_lines(tmp_path)
    line = break_copy(lines, kind)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DefiParityError) as exc:
        monthly_report(read_ledger_csv(path))
    if kind == "header only":
        assert type(exc.value) is EmptyLedger
        assert str(exc.value) == f"ledger file {path} has no rows"
    else:
        assert type(exc.value) is ParseError and exc.value.line == line
        assert str(exc.value) == f"{path if line is None else f'{path}:{line}'}: {message}"
