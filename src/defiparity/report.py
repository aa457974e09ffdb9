"""Monthly performance / risk / ratio reporting and file emission.

Months are UTC calendar months; a partial final month is reported as-is,
keyed by its last ledger date.  Machine outputs keep full float precision
(``repr``) with a dot decimal separator; display rounding happens only in
rendered tables.
"""

from __future__ import annotations

import contextvars
import csv
import datetime as dt
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .backtest import FIGURES_ERROR, BacktestLedger, ComparisonTable, compare_backtests
from .domain import WeightVector
from .errors import EmptyLedger, MonthMisalignment, ParseError, ZeroRisk
from .ingest import _read_rows

RATIO_TOL = 1e-9


def _month_groups(ledger: BacktestLedger) -> list[tuple[int, int, dt.date]]:
    """(start, stop, last date) of each calendar month's run of ledger days,
    which are consecutive: a month starts on the first day or on a 1st."""
    dates = ledger.dates
    starts = [i for i, date in enumerate(dates) if date.day == 1 or not i]
    return [(a, b, dates[b - 1]) for a, b in zip(starts, starts[1:] + [len(dates)])]


def monthly_performance(ledger: BacktestLedger) -> list[tuple[dt.date, float]]:
    """Compounded return per calendar month, keyed by the month's last row date."""
    returns, out = ledger.returns.tolist(), []
    for start, stop, month_end in _month_groups(ledger):
        growth = 1.0
        for r in returns[start:stop]:  # in sequence, as a day-by-day fold would
            growth *= 1.0 + r
        out.append((month_end, growth - 1.0))
    return out


def monthly_avg_risk(ledger: BacktestLedger) -> list[tuple[dt.date, float]]:
    """Arithmetic mean of the daily portfolio risk per calendar month."""
    risks = ledger.risks.tolist()
    return [(month_end, sum(risks[start:stop]) / (stop - start))
            for start, stop, month_end in _month_groups(ledger)]


@dataclass(frozen=True)
class MonthlyReportRow:
    month_end: dt.date
    perf: float
    avg_risk: float
    ratio: float

    def __post_init__(self):
        if self.avg_risk > 0:
            expected = self.perf / self.avg_risk
            if abs(self.ratio - expected) > RATIO_TOL * max(abs(expected), 1.0):
                raise ValueError("ratio must equal perf / avg_risk")


@dataclass(frozen=True)
class MonthlyReport:
    method: str
    rows: tuple[MonthlyReportRow, ...]

    def __post_init__(self):
        months = [row.month_end.year * 12 + row.month_end.month for row in self.rows]
        if any(b - a != 1 for a, b in zip(months, months[1:])):
            raise ValueError("report months must be contiguous")


def perf_risk_ratio(
    perf_rows: list[tuple[dt.date, float]],
    risk_rows: list[tuple[dt.date, float]],
    method: str = "",
) -> MonthlyReport:
    """Combine aligned monthly perf and risk rows into perf/risk ratios."""
    if [p[0] for p in perf_rows] != [r[0] for r in risk_rows]:
        raise MonthMisalignment(
            f"performance months {[p[0] for p in perf_rows]} do not match "
            f"risk months {[r[0] for r in risk_rows]}"
        )
    rows = []
    for (month_end, perf), (_, avg_risk) in zip(perf_rows, risk_rows):
        if avg_risk == 0:
            raise ZeroRisk(f"zero average risk for month ending {month_end}")
        rows.append(MonthlyReportRow(month_end, perf, avg_risk, perf / avg_risk))
    return MonthlyReport(method, tuple(rows))


def monthly_report(ledger: BacktestLedger) -> MonthlyReport:
    """Full monthly report (perf, avg risk, ratio) for one ledger."""
    return perf_risk_ratio(
        monthly_performance(ledger), monthly_avg_risk(ledger), method=ledger.method
    )


def render_report_table(reports: list[MonthlyReport]) -> str:
    """Human-readable table: perf as 4dp percent, risk and ratio at 4dp.
    The reports must cover the same month ends (MonthMisalignment otherwise).
    """
    months = [row.month_end for row in reports[0].rows]
    for report in reports[1:]:
        if [row.month_end for row in report.rows] != months:
            raise MonthMisalignment(f"reports {reports[0].method!r} and "
                                    f"{report.method!r} cover different month ends")
    lines = [f"{'month_end':<12}" + "".join(
        f"{r.method + ' perf':>14}{r.method + ' risk':>12}{r.method + ' p/r':>12}"
        for r in reports
    )]
    for rows in zip(*(report.rows for report in reports)):
        lines.append(f"{rows[0].month_end.isoformat():<12}" + "".join(
            f"{row.perf * 100:>13.4f}%{row.avg_risk:>12.4f}{row.ratio:>12.4f}"
            for row in rows
        ))
    return "\n".join(lines)


MONTHLY_FORMATS = ("csv", "json", "table")


def format_monthly(reports: list[MonthlyReport], fmt: str) -> str:
    """The monthly tables, by method, as newline-terminated text in `fmt`,
    one of MONTHLY_FORMATS; `csv` is the content of ``monthly_report.csv``.
    """
    reports = sorted(reports, key=lambda r: r.method)
    if fmt == "table":
        return render_report_table(reports) + "\n"
    if fmt == "json":
        return json.dumps({r.method: [
            {"month_end": row.month_end.isoformat(), "perf": row.perf,
             "avg_risk": row.avg_risk, "ratio": row.ratio} for row in r.rows
        ] for r in reports}, sort_keys=True) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}; choose from {MONTHLY_FORMATS}")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["method", "month_end", "perf", "avg_risk", "ratio"]]
        + [[r.method, row.month_end.isoformat(), repr(row.perf), repr(row.avg_risk),
            repr(row.ratio)] for r in reports for row in r.rows]
    )
    return buf.getvalue()


# --- file emission -------------------------------------------------------------

LEDGER_FIELDS = [
    "date", "daily_return", "value_stable", "value_usd",
    "portfolio_risk", "active_ids", "weights",
]


def _csv_cell(text: str) -> str:
    """`text` quoted as csv.writer quotes a field inside a row."""
    if not any(c in text for c in ',"\r\n'):  # nothing csv could quote for
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


def _write_ledger_csv(ledger: BacktestLedger, path: Path,
                      ids_cells: dict[tuple[str, ...], str]) -> None:
    # lines are built by hand and written as they are built: dates and float
    # reprs never need quoting.  Each set's ids and weights cells are built
    # once, id cells once per run (kept in `ids_cells` across its ledgers);
    # values that all compare equal are ~1/n (never +-0.0): one repr
    set_cells = []
    for vector in ledger.set_weights:
        ids_cell = ids_cells.get(vector.universe_ids)
        if ids_cell is None:
            ids_cell = ids_cells[vector.universe_ids] = _csv_cell(";".join(vector.universe_ids))
        values = vector.values
        same = values.count(values[0]) == len(values)
        set_cells.append(ids_cell + "," + ";".join([repr(values[0])] * len(values) if same
                                                   else map(repr, values)))
    usd = ([""] * len(ledger.days) if ledger.values_usd is None
           else map(repr, ledger.values_usd.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(LEDGER_FIELDS) + "\n")
        for date, ret, stable, usd_cell, risk, s in zip(
                ledger.dates, ledger.returns.tolist(), ledger.values_stable.tolist(), usd,
                ledger.risks.tolist(), ledger.set_of_day.tolist()):
            fh.write(f"{date.isoformat()},{ret!r},{stable!r},{usd_cell},{risk!r},{set_cells[s]}\n")


def _write_comparison_csv(table: ComparisonTable, path: Path) -> None:
    # the body is built by hand, one list of cells per column: dates and float
    # reprs never need quoting.  The header holds the method names, so csv
    # writes it
    first = table.methods[0]
    header, columns = ["date"], [[d.isoformat() for d in table.dates]]
    for m in table.methods:
        header.append(f"value_stable_{m}")
        columns.append(list(map(repr, table.values_stable[m])))
        usd = table.values_usd[m]
        if any(v is not None for v in usd):
            header.append(f"value_usd_{m}")
            columns.append(["" if v is None else repr(v) for v in usd])
        header.append(f"risk_{m}")
        columns.append(list(map(repr, table.risks[m])))
    for m in table.methods[1:]:
        header.append(f"value_diff_{m}_vs_{first}")
        columns.append(list(map(repr, table.value_difference(m, first))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(",".join(cells) + "\n" for cells in zip(*columns))


def _write_plot_data(table: ComparisonTable, path: Path) -> None:
    dates = [d.isoformat() for d in table.dates]
    data = {"methods": {m: {
        "dates": dates, "value_stable": table.values_stable[m],
        "value_usd": table.values_usd[m], "portfolio_risk": table.risks[m],
    } for m in table.methods}}
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    path.write_text(payload + "\n", encoding="utf-8")


def _ledger_cost(ledger: BacktestLedger) -> int:
    """The float reprs `_write_ledger_csv` formats for `ledger`: four a day,
    and each set's weights once, one for an EW set (its weights are equal)."""
    weights = (len(ledger.set_weights) if ledger.method == "ew"
               else sum(len(vector) for vector in ledger.set_weights))
    return 4 * len(ledger.days) + weights


def _output_writes(ledgers: list[BacktestLedger], reports: list[MonthlyReport],
                   out_dir) -> tuple[list[Path], list]:
    """Check the outputs and make `out_dir`; then the paths `emit_outputs`
    returns, and each file's write with its cost (the float reprs it
    formats), in the order `emit_outputs` writes them."""
    if not ledgers:
        raise EmptyLedger("refusing to emit outputs for empty ledgers")
    if not reports or any(not r.rows for r in reports):
        raise EmptyLedger("refusing to emit outputs for an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(ledgers, key=lambda l: l.method)
    paths = [out / f"ledger_{ledger.method}.csv" for ledger in ordered]
    ids_cells: dict[tuple[str, ...], str] = {}
    writes = [(functools.partial(_write_ledger_csv, ledger, path, ids_cells),
               _ledger_cost(ledger)) for ledger, path in zip(ordered, paths)]
    # built by the first write that needs it, so that a DateRangeMismatch is
    # raised after the ledgers are written
    table = functools.cache(lambda: compare_backtests(ordered))
    comparison, monthly, plot = (out / name for name in (
        "comparison.csv", "monthly_report.csv", "plot_data.json"))
    figures = len(ordered) * len(ordered[0].days)
    months = sum(len(r.rows) for r in reports)
    writes += [
        (lambda: _write_comparison_csv(table(), comparison), 4 * figures),
        (lambda: monthly.write_text(format_monthly(reports, "csv"), encoding="utf-8",
                                    newline=""), 3 * months),
        (lambda: _write_plot_data(table(), plot), 3 * figures),
    ]
    return paths + [comparison, monthly, plot], writes


def _in_order(jobs: list) -> list:
    return [job() for job, _ in jobs]


# what runs the output writes: the CLI's two-process runner while `defiparity
# backtest` writes; a library call finds `_in_order`, so it never forks
_run_jobs = contextvars.ContextVar("run_jobs", default=_in_order)


def emit_outputs(
    ledgers: list[BacktestLedger],
    reports: list[MonthlyReport],
    out_dir,
) -> list[Path]:
    """Write per-method ledgers, a comparison CSV, the monthly report CSV and
    plot-ready JSON into `out_dir`; byte content is deterministic for fixed
    inputs.  Returns the written paths.  The writes run in that order on one
    process; under `defiparity backtest` large outputs are written on two
    (`cli._run_jobs`).
    """
    written, writes = _output_writes(ledgers, reports, out_dir)
    _run_jobs.get()(writes)
    return written


# --- ledger round-trip (used by the report CLI command) -------------------------


def read_ledger_csv(path) -> BacktestLedger:
    """Rebuild a ledger from a CSV written by emit_outputs.  Rows get the
    input loaders' checks; a ParseError names the `path:line` of a row that
    does not parse, or the file when the rows break a ledger invariant.
    """
    method = Path(path).stem.removeprefix("ledger_")
    days, returns, values, usds, risks, set_of_day = [], [], [], [], [], []
    sets: dict[tuple[str, str], int] = {}  # (ids, weights) text -> set number
    set_weights, last = [], None  # a row repeating the text before skips hashing it
    for lineno, (date, ret, stable, usd, risk, ids, weights) in _read_rows(path, LEDGER_FIELDS):
        try:
            day = dt.date.fromisoformat(date)
            if (ids, weights) != last:
                last = ids, weights
                s = sets.get(last)
            if s is None:  # equal text parses to equal floats
                universe_ids = tuple(ids.split(";"))
                n, first = len(universe_ids), weights.partition(";")[0]
                if weights == ";".join([first] * n):  # one weight, repeated
                    parsed = (float(first),) * n
                else:
                    parsed = tuple(map(float, weights.split(";")))
                set_weights.append(WeightVector(universe_ids, parsed))
                s = sets[ids, weights] = len(sets)
            r, v, u, k = float(ret), float(stable), float(usd) if usd else 0.0, float(risk)
            if not (all(map(math.isfinite, (r, v, u, k))) and k >= 0):
                raise ValueError(FIGURES_ERROR.format(day))
            if days and bool(usd) != bool(usds):
                raise ValueError("value_usd must be given on every row or on none")
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        days.append(day.toordinal())
        returns.append(r)
        values.append(v)
        risks.append(k)
        set_of_day.append(s)
        if usd:
            usds.append(u)
    if not days:
        raise EmptyLedger(f"ledger file {path} has no rows")
    try:
        initial = values[0] / (1.0 + returns[0])
        return BacktestLedger(method, initial, days, returns, values, usds or None, risks,
                              set_of_day, tuple(set_weights))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, None, str(exc)) from None
