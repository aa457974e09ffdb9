"""Monthly performance / risk / ratio reporting and file emission.

Months are UTC calendar months; a partial final month is reported as-is,
keyed by its last ledger date.  Machine outputs keep full float precision
(``repr``) with a dot decimal separator; display rounding happens only in
rendered tables.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .backtest import BacktestLedger, BacktestRow, compare_backtests
from .domain import WeightVector
from .errors import EmptyLedger, MonthMisalignment, ParseError, ZeroRisk

RATIO_TOL = 1e-9


def _month_groups(ledger: BacktestLedger):
    groups: list[list] = []
    current_key = None
    for row in ledger.rows:
        key = (row.date.year, row.date.month)
        if key != current_key:
            groups.append([])
            current_key = key
        groups[-1].append(row)
    return groups


def monthly_performance(ledger: BacktestLedger) -> list[tuple[dt.date, float]]:
    """Compounded return per calendar month, keyed by the month's last row date."""
    out = []
    for group in _month_groups(ledger):
        growth = 1.0
        for row in group:
            growth *= 1.0 + row.daily_return
        out.append((group[-1].date, growth - 1.0))
    return out


def monthly_avg_risk(ledger: BacktestLedger) -> list[tuple[dt.date, float]]:
    """Arithmetic mean of the daily portfolio risk per calendar month."""
    out = []
    for group in _month_groups(ledger):
        risks = [row.portfolio_risk for row in group]
        out.append((group[-1].date, sum(risks) / len(risks)))
    return out


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
        for a, b in zip(self.rows, self.rows[1:]):
            next_month = (a.month_end.year, a.month_end.month + 1)
            if a.month_end.month == 12:
                next_month = (a.month_end.year + 1, 1)
            if (b.month_end.year, b.month_end.month) != next_month:
                raise ValueError("report months must be contiguous")


def perf_risk_ratio(
    perf_rows: list[tuple[dt.date, float]],
    risk_rows: list[tuple[dt.date, float]],
    method: str = "",
) -> MonthlyReport:
    """Combine aligned monthly perf and risk rows into perf/risk ratios."""
    if len(perf_rows) != len(risk_rows) or any(
        p[0] != r[0] for p, r in zip(perf_rows, risk_rows)
    ):
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
    """Human-readable table: perf as 4dp percent, risk and ratio at 4dp."""
    lines = []
    header = f"{'month_end':<12}" + "".join(
        f"{r.method + ' perf':>14}{r.method + ' risk':>12}{r.method + ' p/r':>12}"
        for r in reports
    )
    lines.append(header)
    months = [row.month_end for row in reports[0].rows]
    for i, month_end in enumerate(months):
        cells = [f"{month_end.isoformat():<12}"]
        for report in reports:
            row = report.rows[i]
            cells.append(
                f"{row.perf * 100:>13.4f}%{row.avg_risk:>12.4f}{row.ratio:>12.4f}"
            )
        lines.append("".join(cells))
    return "\n".join(lines)


# --- file emission -------------------------------------------------------------

LEDGER_FIELDS = [
    "date", "daily_return", "value_stable", "value_usd",
    "portfolio_risk", "active_ids", "weights",
]


def _csv_cell(text: str) -> str:
    """`text` quoted as csv.writer quotes a field inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


def _write_ledger_csv(ledger: BacktestLedger, path: Path) -> None:
    # lines are built by hand: dates and float reprs never need quoting, and
    # the id and weight cells are formatted once per distinct active set
    # (the engine shares one active_ids tuple and one WeightVector per set)
    ids_cells: dict[tuple[str, ...], str] = {}
    weight_cells: dict[int, str] = {}  # keyed by id(); the ledger keeps them alive
    lines = [",".join(LEDGER_FIELDS) + "\n"]
    for row in ledger.rows:
        ids_cell = ids_cells.get(row.active_ids)
        if ids_cell is None:
            ids_cell = ids_cells[row.active_ids] = _csv_cell(";".join(row.active_ids))
        weights_cell = weight_cells.get(id(row.weights))
        if weights_cell is None:
            weights_cell = ";".join(map(repr, row.weights.values))
            weight_cells[id(row.weights)] = weights_cell
        usd = "" if row.value_usd is None else repr(row.value_usd)
        lines.append(
            f"{row.date.isoformat()},{row.daily_return!r},{row.value_stable!r},"
            f"{usd},{row.portfolio_risk!r},{ids_cell},{weights_cell}\n"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)


def _write_comparison_csv(ledgers: list[BacktestLedger], path: Path) -> None:
    table = compare_backtests(ledgers)
    has_usd = {
        m: any(v is not None for v in table.values_usd[m]) for m in table.methods
    }
    header = ["date"]
    for m in table.methods:
        header.append(f"value_stable_{m}")
        if has_usd[m]:
            header.append(f"value_usd_{m}")
        header.append(f"risk_{m}")
    first = table.methods[0]
    for m in table.methods[1:]:
        header.append(f"value_diff_{m}_vs_{first}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        diffs = {m: table.value_difference(m, first) for m in table.methods[1:]}
        for i, date in enumerate(table.dates):
            row = [date.isoformat()]
            for m in table.methods:
                row.append(repr(table.values_stable[m][i]))
                if has_usd[m]:
                    usd = table.values_usd[m][i]
                    row.append("" if usd is None else repr(usd))
                row.append(repr(table.risks[m][i]))
            for m in table.methods[1:]:
                row.append(repr(diffs[m][i]))
            writer.writerow(row)


def _write_monthly_csv(reports: list[MonthlyReport], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "month_end", "perf", "avg_risk", "ratio"])
        for report in reports:
            for row in report.rows:
                writer.writerow([
                    report.method,
                    row.month_end.isoformat(),
                    repr(row.perf),
                    repr(row.avg_risk),
                    repr(row.ratio),
                ])


def _plot_data(ledgers: list[BacktestLedger]) -> dict:
    methods = {}
    for ledger in ledgers:
        methods[ledger.method] = {
            "dates": [r.date.isoformat() for r in ledger.rows],
            "value_stable": list(ledger.values_stable),
            "value_usd": [r.value_usd for r in ledger.rows],
            "portfolio_risk": list(ledger.risks),
        }
    return {"methods": methods}


def emit_outputs(
    ledgers: list[BacktestLedger],
    reports: list[MonthlyReport],
    out_dir,
) -> list[Path]:
    """Write per-method ledgers, a comparison CSV, the monthly report CSV and
    plot-ready JSON into `out_dir`; byte content is deterministic for fixed
    inputs.  Returns the written paths.
    """
    if not ledgers:
        raise EmptyLedger("refusing to emit outputs for empty ledgers")
    if not reports or any(not r.rows for r in reports):
        raise EmptyLedger("refusing to emit outputs for an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(ledgers, key=lambda l: l.method)
    written = []
    for ledger in ordered:
        path = out / f"ledger_{ledger.method}.csv"
        _write_ledger_csv(ledger, path)
        written.append(path)
    path = out / "comparison.csv"
    _write_comparison_csv(ordered, path)
    written.append(path)
    path = out / "monthly_report.csv"
    _write_monthly_csv(sorted(reports, key=lambda r: r.method), path)
    written.append(path)
    path = out / "plot_data.json"
    payload = json.dumps(_plot_data(ordered), sort_keys=True, separators=(",", ":"))
    path.write_text(payload + "\n", encoding="utf-8")
    written.append(path)
    return written


# --- ledger round-trip (used by the report CLI command) -------------------------


def read_ledger_csv(path) -> BacktestLedger:
    """Rebuild a ledger from a CSV written by emit_outputs."""
    name = Path(path).stem
    method = name.removeprefix("ledger_")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != LEDGER_FIELDS:
            raise ParseError(path, 1, f"unexpected ledger header {reader.fieldnames!r}")
        for record in reader:
            date = dt.date.fromisoformat(record["date"])
            active_ids = tuple(record["active_ids"].split(";"))
            weights = WeightVector(
                active_ids,
                tuple(float(v) for v in record["weights"].split(";")),
            )
            rows.append(BacktestRow(
                date=date,
                active_ids=active_ids,
                weights=weights,
                daily_return=float(record["daily_return"]),
                value_stable=float(record["value_stable"]),
                value_usd=float(record["value_usd"]) if record["value_usd"] else None,
                portfolio_risk=float(record["portfolio_risk"]),
            ))
    if not rows:
        raise EmptyLedger(f"ledger file {path} has no rows")
    initial = rows[0].value_stable / (1.0 + rows[0].daily_return)
    return BacktestLedger(method, initial, tuple(rows))
