"""The per-row yields loader the columnar one replaced, kept as an oracle.

It reads the whole file into a list of `(lineno, cells)` rows with one
`csv.reader`, checking the field count of every row before it parses any,
then parses each row into a per-protocol dict of date -> APY.  That row
reader is also the oracle for `defiparity.rows._read_rows`.  It shares no parsing code with
`defiparity.ingest`, only the public value types and errors.
"""

from __future__ import annotations

import csv
import datetime as dt
import math

from defiparity.backtest import YieldPanel
from defiparity.domain import DatedSeries
from defiparity.errors import DuplicateObservation, InvalidApy, ParseError, UnknownProtocol

YIELDS_HEADER = ["date", "protocol_id", "apy"]


def _read_rows(path, expected_header):
    """Every non-blank row past the header as (the line it starts on,
    stripped cells), all read by one csv.reader; a csv.Error is a ParseError
    at its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(path, 1, "file is empty; a header row is required")
            if [h.strip() for h in header] != expected_header:
                raise ParseError(
                    path, 1, f"expected header {','.join(expected_header)!r}, got {header!r}"
                )
            rows, lineno = [], 2
            for row in reader:
                start, lineno = lineno, reader.line_num + 1  # the next row starts after
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(expected_header):
                    raise ParseError(
                        path, start, f"expected {len(expected_header)} fields, got {len(row)}"
                    )
                rows.append((start, [cell.strip() for cell in row]))
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, f"unreadable CSV: {exc}") from None
    return rows


def _parse_float(text, path, lineno, name, percent_ok=False):
    raw = text.strip()
    scale = 1.0
    if percent_ok and raw.endswith("%"):
        raw = raw[:-1].strip()
        scale = 0.01
    try:
        value = float(raw) * scale
    except ValueError:
        raise ParseError(path, lineno, f"cannot parse {name} from {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"{name} must be finite, got {text!r}")
    return value


def reference_load_yields(path, ids) -> YieldPanel:
    known = set(ids)
    observations: dict[str, dict[dt.date, float]] = {}
    for lineno, (date_text, pid, apy_text) in _read_rows(path, YIELDS_HEADER):
        try:
            date = dt.date.fromisoformat(date_text.strip())
        except ValueError:
            raise ParseError(path, lineno, f"cannot parse date from {date_text!r}") from None
        if pid not in known:
            raise UnknownProtocol(pid, f"{path}:{lineno}")
        apy = _parse_float(apy_text, path, lineno, "apy", percent_ok=True)
        if apy <= -1.0:
            raise InvalidApy(f"{path}:{lineno}: APY must be > -1, got {apy_text!r}")
        per_id = observations.setdefault(pid, {})
        if date in per_id:
            raise DuplicateObservation(
                f"{path}:{lineno}: duplicate observation for {pid!r} on {date}"
            )
        per_id[date] = apy
    series = {
        pid: DatedSeries.from_pairs(per_id.items())
        for pid, per_id in sorted(observations.items())
    }
    return YieldPanel(series=series)
