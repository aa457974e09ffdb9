"""Independent check of the files one `backtest` and one `report` call write.

`Reference` recomputes every expected figure from the generator's raw
observations with NumPy alone; nothing here imports defiparity. The
checks compare the program's files against it within `RTOL` and also test
properties the method must have: weights sum to 1, ERC risk contributions
w_i^2 s_i are equal across the active set, and the report read back from
the ledgers equals `monthly_report.csv` exactly.

A figure `a` matches its reference `e` when |a - e| <= RTOL * max(|e|, scale),
where `scale` is the size of the operands a difference was taken from: 1 for
a monthly perf (growth - 1), the two values for a value difference, and
1 / avg_risk for a perf/risk ratio. Everything else uses scale 0, a plain
relative tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gen import GAP_FILL, Dataset

RTOL = 1e-9
SUM_TOL = 1e-12  # |sum(weights) - 1|
ERC_TOL = 1e-9  # spread of ERC risk contributions, relative to the largest
METHODS = ("erc", "ew", "tvl")  # the order the program writes them in
LEDGER_HEADER = ["date", "daily_return", "value_stable", "value_usd",
                 "portfolio_risk", "active_ids", "weights"]
MAX_ERRORS = 20


def _filled(observed: np.ndarray, values: np.ndarray):
    """Forward fill over at most GAP_FILL days; returns (active, filled)."""
    t = np.arange(observed.shape[0]).reshape((-1,) + (1,) * (observed.ndim - 1))
    last = np.maximum.accumulate(np.where(observed, t, -1), axis=0)
    active = (last >= 0) & (t - last <= GAP_FILL)
    filled = np.take_along_axis(values, np.maximum(last, 0), axis=0)
    return active, np.where(active, filled, np.nan)


class Reference:
    """Expected ledger, comparison and monthly figures of one dataset."""

    def __init__(self, ds: Dataset):
        window = slice(ds.workload.history_days - ds.workload.backtest_days, None)
        active, apy = _filled(ds.observed, ds.apy)
        fx_active, fx = _filled(ds.fx_observed, ds.fx)
        if not fx_active[window].all():
            raise ValueError("generated FX leaves a day without a rate")
        self.ids = np.asarray(ds.ids)
        self.dates = [d.isoformat() for d in ds.days[window]]
        self.active = active[window]
        self.scores = scores = ds.scores
        rates = np.where(self.active, np.expm1(np.log1p(apy[window]) / 365.0), 0.0)
        norm = np.sqrt((self.active * scores ** 2).sum(axis=1))
        base = {"ew": np.ones_like(scores), "tvl": ds.tvl, "erc": 1.0 / np.sqrt(scores)}
        self.weights, self.daily_return, self.risk = {}, {}, {}
        self.value, self.value_usd = {}, {}
        for m in METHODS:
            raw = np.where(self.active, base[m], 0.0)
            w = raw / raw.sum(axis=1, keepdims=True)
            self.weights[m] = w
            self.daily_return[m] = (w * rates).sum(axis=1)
            self.value[m] = np.cumprod(1.0 + self.daily_return[m])
            self.value_usd[m] = self.value[m] * fx[window]
            self.risk[m] = (w * scores).sum(axis=1) / norm
        self.months = {}  # method -> [(month_end, perf, avg_risk, ratio)]
        ends = [i for i in range(len(self.dates))
                if i + 1 == len(self.dates) or self.dates[i + 1][:7] != self.dates[i][:7]]
        for m in METHODS:
            rows, first = [], 0
            for last in ends:
                perf = float(np.prod(1.0 + self.daily_return[m][first:last + 1])) - 1.0
                avg = float(self.risk[m][first:last + 1].mean())
                rows.append((self.dates[last], perf, avg, perf / avg))
                first = last + 1
            self.months[m] = rows


class Mismatches:
    """Collects the first MAX_ERRORS failures, with their count."""

    def __init__(self):
        self.messages: list[str] = []
        self.count = 0

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < MAX_ERRORS:
            self.messages.append(message)

    def close(self, where: str, actual, expected, scale=0.0) -> None:
        a = np.asarray(actual, dtype=float)
        e = np.asarray(expected, dtype=float)
        if a.shape != e.shape:
            self.add(f"{where}: {a.shape[0] if a.ndim else 1} values, expected "
                     f"{e.shape[0] if e.ndim else 1}")
            return
        bad = ~(np.abs(a - e) <= RTOL * np.maximum(np.abs(e), scale))
        for i in np.flatnonzero(bad)[:3]:
            self.add(f"{where}[{i}]: {float(a.flat[i])!r} != reference {float(e.flat[i])!r}")
        if bad.sum() > 3:
            self.count += int(bad.sum()) - 3

    def equal(self, where: str, actual, expected) -> None:
        if actual != expected:
            self.add(f"{where}: {str(actual)[:120]} != {str(expected)[:120]}")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _floats(column) -> list[float]:
    return [float(v) if v else math.nan for v in column]


def _check_ledger(ref: Reference, method: str, path: Path, out: Mismatches) -> None:
    header, rows = _read_csv(path)
    out.equal(f"{path.name} header", header, LEDGER_HEADER)
    if header != LEDGER_HEADER:
        return
    out.equal(f"{path.name} dates", [r[0] for r in rows], ref.dates)
    if len(rows) != len(ref.dates):
        return
    cols = list(zip(*rows))
    expected = (ref.daily_return, ref.value, ref.value_usd, ref.risk)
    for i, figures in enumerate(expected, start=1):
        out.close(f"{path.name} {header[i]}", _floats(cols[i]), figures[method])
    for d, row in enumerate(rows):
        where = f"{path.name} {row[0]}"
        mask = ref.active[d]
        out.equal(f"{where} active_ids", row[5].split(";"), ref.ids[mask].tolist())
        w = np.asarray(_floats(row[6].split(";")))
        out.close(f"{where} weights", w, ref.weights[method][d][mask])
        if abs(math.fsum(w) - 1.0) > SUM_TOL:
            out.add(f"{where}: weights sum to {math.fsum(w)!r}")
        if method == "erc" and w.shape == (int(mask.sum()),):
            contrib = w * w * ref.scores[mask]
            if np.ptp(contrib) > ERC_TOL * contrib.max():
                out.add(f"{where}: ERC risk contributions spread {np.ptp(contrib)!r}")


def _check_comparison(ref: Reference, path: Path, out: Mismatches) -> None:
    header, rows = _read_csv(path)
    expected = ["date"]
    for m in METHODS:
        expected += [f"value_stable_{m}", f"value_usd_{m}", f"risk_{m}"]
    expected += [f"value_diff_{m}_vs_{METHODS[0]}" for m in METHODS[1:]]
    out.equal(f"{path.name} header", header, expected)
    if header != expected:
        return
    out.equal(f"{path.name} dates", [r[0] for r in rows], ref.dates)
    if len(rows) != len(ref.dates):
        return
    cols = dict(zip(header, zip(*rows)))
    for m in METHODS:
        out.close(f"{path.name} value_stable_{m}", _floats(cols[f"value_stable_{m}"]),
                  ref.value[m])
        out.close(f"{path.name} value_usd_{m}", _floats(cols[f"value_usd_{m}"]),
                  ref.value_usd[m])
        out.close(f"{path.name} risk_{m}", _floats(cols[f"risk_{m}"]), ref.risk[m])
    first = ref.value[METHODS[0]]
    for m in METHODS[1:]:
        out.close(f"{path.name} value_diff_{m}", _floats(cols[f"value_diff_{m}_vs_{METHODS[0]}"]),
                  ref.value[m] - first, scale=np.maximum(ref.value[m], first))


def _check_months(ref: Reference, where: str, rows: dict, out: Mismatches) -> None:
    """`rows` maps method -> [(month_end, perf, avg_risk, ratio)]."""
    out.equal(f"{where} methods", sorted(rows), list(METHODS))
    for m in METHODS:
        got, expected = rows.get(m, []), ref.months[m]
        out.equal(f"{where} {m} months", [r[0] for r in got], [r[0] for r in expected])
        if len(got) != len(expected):
            continue
        e = np.asarray([r[1:] for r in expected])
        a = np.asarray([r[1:] for r in got], dtype=float)
        out.close(f"{where} {m} perf", a[:, 0], e[:, 0], scale=1.0)
        out.close(f"{where} {m} avg_risk", a[:, 1], e[:, 1])
        out.close(f"{where} {m} ratio", a[:, 2], e[:, 2], scale=1.0 / e[:, 1])


def _monthly_csv_rows(path: Path, out: Mismatches) -> dict:
    header, rows = _read_csv(path)
    out.equal(f"{path.name} header", header, ["method", "month_end", "perf", "avg_risk", "ratio"])
    by_method: dict = {}
    for method, month_end, *figures in rows:
        by_method.setdefault(method, []).append((month_end, *map(float, figures)))
    return by_method


def _check_plot_data(ref: Reference, path: Path, out: Mismatches) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))["methods"]
    out.equal(f"{path.name} methods", sorted(data), list(METHODS))
    for m in METHODS:
        series = data.get(m, {})
        out.equal(f"{path.name} {m} dates", series.get("dates"), ref.dates)
        for key, expected in (("value_stable", ref.value), ("value_usd", ref.value_usd),
                              ("portfolio_risk", ref.risk)):
            out.close(f"{path.name} {m} {key}", series.get(key, []), expected[m])


def check_backtest(ref: Reference, out_dir) -> Mismatches:
    """Check every file `backtest --method ew,tvl,erc --fx ...` writes."""
    out_dir = Path(out_dir)
    found = Mismatches()
    expected_files = sorted([f"ledger_{m}.csv" for m in METHODS]
                            + ["comparison.csv", "monthly_report.csv", "plot_data.json"])
    present = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    found.equal("output files", present, expected_files)
    if present != expected_files:
        return found
    for m in METHODS:
        _check_ledger(ref, m, out_dir / f"ledger_{m}.csv", found)
    _check_comparison(ref, out_dir / "comparison.csv", found)
    _check_months(ref, "monthly_report.csv", _monthly_csv_rows(out_dir / "monthly_report.csv", found),
                  found)
    _check_plot_data(ref, out_dir / "plot_data.json", found)
    return found


def check_report(ref: Reference, report_json: str, out_dir) -> Mismatches:
    """Check the stdout of `report --format json` against the reference, and
    that it equals the `monthly_report.csv` the backtest wrote."""
    found = Mismatches()
    try:
        data = json.loads(report_json)
    except ValueError as exc:
        found.add(f"report output is not JSON: {exc}")
        return found
    rows = {m: [(r["month_end"], r["perf"], r["avg_risk"], r["ratio"]) for r in months]
            for m, months in data.items()}
    _check_months(ref, "report json", rows, found)
    written = _monthly_csv_rows(Path(out_dir) / "monthly_report.csv", Mismatches())
    found.equal("report json vs monthly_report.csv", rows, written)
    return found
