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
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .backtest import BacktestLedger, _aligned_methods, check_figures
from .domain import WeightVector, check_weights
from .errors import EmptyLedger, MonthMisalignment, ParseError, ZeroRisk
from .rows import _read_rows

RATIO_TOL = 1e-9


def _month_groups(ledger: BacktestLedger) -> list[tuple[int, int, dt.date]]:
    """(start, stop, last date) of each calendar month's run of ledger days,
    which are consecutive: a month starts on the first day or on a 1st."""
    dates = ledger.dates
    starts = [i for i, date in enumerate(dates) if date.day == 1 or not i]
    return [(a, b, dates[b - 1]) for a, b in zip(starts, starts[1:] + [len(dates)])]


def monthly_performance(ledger: BacktestLedger) -> list[tuple[dt.date, float]]:
    """Compounded return per calendar month, keyed by the month's last row date."""
    returns, out = ledger.returns, []
    for start, stop, month_end in _month_groups(ledger):
        growth = 1.0
        for r in returns[start:stop]:  # in sequence, as a day-by-day fold would
            growth *= 1.0 + r
        out.append((month_end, growth - 1.0))
    return out


def monthly_avg_risk(ledger: BacktestLedger) -> list[tuple[dt.date, float]]:
    """Arithmetic mean of the daily portfolio risk per calendar month."""
    return [(month_end, sum(ledger.risks[start:stop]) / (stop - start))
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


def _figure_cells(ledger: BacktestLedger) -> tuple[list[str] | None, ...]:
    """A ledger's dates as ISO strings and its daily return, value, USD value
    (None without FX) and risk as reprs; the figures are finite
    (`check_figures`), so each repr is also the figure's JSON."""
    return (list(map(dt.date.isoformat, ledger.dates)), *(
        None if column is None else list(map(repr, column)) for column in (
            ledger.returns, ledger.values_stable, ledger.values_usd, ledger.risks)))


def _write_ledger_csv(ledger: BacktestLedger, path: Path,
                      ids_cells: dict[tuple[str, ...], str], cells: tuple) -> None:
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
    dates, returns, values, usds, risks = cells
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(LEDGER_FIELDS) + "\n")
        for date, ret, stable, usd, risk, s in zip(
                dates, returns, values, usds or [""] * len(dates), risks, ledger.set_of_day):
            fh.write(f"{date},{ret},{stable},{usd},{risk},{set_cells[s]}\n")


class _Figures(NamedTuple):
    """What the shared files read of one method's ledger: its method, day
    ordinals (for the date check of `_aligned_methods`), values (for the
    value differences) and `_figure_cells`."""

    method: str
    days: tuple[int, ...]
    values_stable: tuple[float, ...]
    cells: tuple


def _write_ledger(ledger: BacktestLedger, out: Path, tag: str,
                  ids_cells: dict[tuple[str, ...], str]) -> _Figures:
    """Write `ledger` to the `_hidden` name of its file in `out`; return its `_Figures`."""
    cells = _figure_cells(ledger)
    _write_ledger_csv(ledger, _hidden(out / f"ledger_{ledger.method}.csv", tag), ids_cells, cells)
    return _Figures(ledger.method, ledger.days, ledger.values_stable, cells)


def _write_comparison_csv(figures: Sequence[_Figures], path: Path) -> None:
    # the body is built by hand, one list of cells per column, from each
    # method's figure cells (`_figure_cells`): dates and float reprs never need
    # quoting.  The header holds the method names, so csv writes it
    first = figures[0]
    header, columns = ["date"], [first.cells[0]]
    for m, _, _, (_, _, values, usd, risks) in figures:
        header.append(f"value_stable_{m}")
        columns.append(values)
        if usd is not None:
            header.append(f"value_usd_{m}")
            columns.append(usd)
        header.append(f"risk_{m}")
        columns.append(risks)
    for m, _, values, _ in figures[1:]:  # as ComparisonTable.value_difference(m, first)
        header.append(f"value_diff_{m}_vs_{first.method}")
        columns.append([repr(x - y) for x, y in zip(values, first.values_stable)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _write_plot_data(figures: Sequence[_Figures], path: Path) -> None:
    # json.dumps(data, sort_keys=True, separators=(",", ":")) of the figure
    # cells, built by hand: the methods are sorted, a missing USD value is null
    items = (json.dumps(m) + ':{"dates":["' + '","'.join(dates) + '"],"portfolio_risk":['
             + ",".join(risks) + '],"value_stable":[' + ",".join(values) + '],"value_usd":['
             + ",".join(["null"] * len(dates) if usd is None else usd) + "]}"
             for m, _, _, (dates, _, values, usd, risks) in figures)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write('{"methods":{' + ",".join(items) + "}}\n")


_SHARED_FILES = ("comparison.csv", "monthly_report.csv", "plot_data.json")


def _hidden(path: Path, tag: str) -> Path:
    """Where `emit_outputs` first writes `path` (or keeps the file it replaces):
    a hidden name beside it that holds the run's random `tag`."""
    return path.with_name(f".{path.name}.{tag}")


def emit_outputs(
    ledgers: list[BacktestLedger],
    reports: list[MonthlyReport],
    out_dir,
) -> list[Path]:
    """Write per-method ledgers, a comparison CSV, the monthly report CSV and
    plot-ready JSON into `out_dir`; byte content is deterministic for fixed
    inputs.  Returns the written paths.  Every file is written on this
    process, never forked, first under a hidden name in `out_dir`
    (`_hidden`): the ledgers by method, then the shared files
    (`_place_outputs`).  Once every file is written, they are renamed into
    place and each other `ledger_*.csv` in `out_dir` is removed, so that
    `out_dir` holds one run's files.  On an error, the hidden files are
    removed and the files in `out_dir` are left as they were.
    """
    if not ledgers:
        raise EmptyLedger("refusing to emit outputs for empty ledgers")
    if not reports or any(not r.rows for r in reports):
        raise EmptyLedger("refusing to emit outputs for an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = os.urandom(6).hex()
    ordered = sorted(ledgers, key=lambda l: l.method)
    ids_cells: dict[tuple[str, ...], str] = {}  # shared by the ledgers
    return _place_outputs(out, tag, [l.method for l in ordered], reports,
                          lambda: [_write_ledger(l, out, tag, ids_cells) for l in ordered])


def _place_outputs(out: Path, tag: str, methods: list[str], reports: list[MonthlyReport],
                   write_ledgers) -> list[Path]:
    """The paths of the ledgers of `methods` (sorted) and of the shared files
    in `out`, once each is written under its `_hidden` name and renamed into
    place (`_replace_outputs`).  `write_ledgers()` gives each method's
    `_Figures`, once its ledger is written; the shared files are then
    written from them and `reports`, and a `DateRangeMismatch` is raised
    after the ledgers.  On an error every hidden file is removed."""
    paths = [out / f"ledger_{m}.csv" for m in methods] + [out / name for name in _SHARED_FILES]
    comparison, monthly, plot = (_hidden(path, tag) for path in paths[-3:])
    try:
        figures = write_ledgers()
        _aligned_methods(figures)
        _write_comparison_csv(figures, comparison)
        monthly.write_text(format_monthly(reports, "csv"), encoding="utf-8", newline="")
        _write_plot_data(figures, plot)
        replaced = _replace_outputs(out, [path.name for path in paths], tag)
    except BaseException:
        for path in paths:
            _hidden(path, tag).unlink(missing_ok=True)
        raise
    for path in replaced:
        path.unlink()
    return paths


def _is_ledger(name: str) -> bool:
    """Whether a file named `name` is one `report` reads: `ledger_*.csv`."""
    return name.startswith("ledger_") and name.endswith(".csv")


def _replace_outputs(out: Path, names: list[str], tag: str) -> list[Path]:
    """Rename the `_hidden` file of each of `names` in `out` to its name, and
    remove every other `ledger_*.csv` file there.  Each file they replace or
    remove is first renamed to a hidden `.old` name, and those are returned;
    if a rename fails, every rename is undone, so `out` holds either this
    run's files or the ones it held."""
    present = os.listdir(out)
    stale = [name for name in present if _is_ledger(name) and name not in names]
    kept, placed = [], []
    try:
        for name in names + stale:
            if name in present and (out / name).is_file():  # a directory fails its rename
                os.replace(out / name, _hidden(out / name, f"{tag}.old"))
                kept.append(name)
        for name in names:
            os.replace(_hidden(out / name, tag), out / name)
            placed.append(name)
    except OSError:
        for name in placed:
            os.replace(out / name, _hidden(out / name, tag))
        for name in kept:
            os.replace(_hidden(out / name, f"{tag}.old"), out / name)
        raise
    return [_hidden(out / name, f"{tag}.old") for name in kept]


# --- ledger round-trip (used by the report CLI command) -------------------------


class _ReadWeights(Sequence):
    """A read ledger's `set_weights`: each set's `WeightVector`, built when first looked up."""

    def __init__(self, cells: list[tuple[str, tuple[float, ...]]]):
        self._cells, self._vectors = cells, [None] * len(cells)

    def __len__(self):
        return len(self._cells)

    def __getitem__(self, s):
        if isinstance(s, slice):
            return tuple(map(self.__getitem__, range(len(self))[s]))
        vector = self._vectors[s]
        if vector is None:
            ids, values = self._cells[s]
            vector = self._vectors[s] = WeightVector(tuple(ids.split(";")), values)
        return vector


def read_ledger_csv(path) -> BacktestLedger:
    """Rebuild a ledger from a CSV written by emit_outputs.  Rows get the
    input loaders' checks; a ParseError names the `path:line` of a row that
    does not parse, or the file when the rows break a ledger invariant.
    """
    method = Path(path).stem.removeprefix("ledger_")
    days, returns, values, usds, risks, set_of_day = [], [], [], [], [], []
    sets: dict[tuple[str, str], int] = {}  # (ids, weights) text -> set number
    cells, last = [], None  # a row repeating the text before skips hashing it
    for lineno, (date, ret, stable, usd, risk, ids, weights) in _read_rows(path, LEDGER_FIELDS):
        try:
            day = dt.date.fromisoformat(date)
            if (ids, weights) != last:
                last = ids, weights
                s = sets.get(last)
            if s is None:  # equal text parses to equal floats
                n, first = ids.count(";") + 1, weights.partition(";")[0]
                if len(weights) == n * len(first) + n - 1 and weights == ";".join([first] * n):
                    parsed = (float(first),) * n  # one weight, repeated
                else:
                    parsed = tuple(map(float, weights.split(";")))
                check_weights(n, parsed)
                cells.append((ids, parsed))
                s = sets[last] = len(sets)
            r, v, u, k = float(ret), float(stable), float(usd) if usd else None, float(risk)
            check_figures(day, r, v, u, k)
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
                              set_of_day, _ReadWeights(cells))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, None, str(exc)) from None
