"""Load protocol scores, APY series, TVL and FX data from CSV files or a
remote yield API with on-disk caching.

File formats (headers required):
    scores: protocol_id,name,chain,score,tvl   (tvl may be empty)
    yields: date,protocol_id,apy               (long format, ISO dates)
    fx:     date,rate                          (USD per stablecoin unit)

APY values are fractions (0.05 = 5%); a trailing ``%`` is accepted and
divided by 100.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import datetime as dt
import hashlib
import itertools
import json
import math
import os
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .backtest import YieldPanel
from .domain import DatedSeries, ProtocolRecord, Universe, validate_universe
from .errors import (
    DefiParityError,
    DuplicateId,
    DuplicateObservation,
    InvalidApy,
    MappingError,
    NetworkError,
    NonPositiveRate,
    NonPositiveScore,
    ParseError,
    UnknownProtocol,
)

SCORES_HEADER = ["protocol_id", "name", "chain", "score", "tvl"]
YIELDS_HEADER = ["date", "protocol_id", "apy"]
FX_HEADER = ["date", "rate"]


@dataclass(frozen=True)
class DataBundle:
    universe: Universe
    panel: YieldPanel

    def __post_init__(self):
        known = set(self.universe.ids)
        for pid in self.panel.series:
            if pid not in known:
                raise UnknownProtocol(pid, "series id not in universe")


# --- CSV loading --------------------------------------------------------------


@contextlib.contextmanager
def _utf8_text(path):
    """`path` open as UTF-8 text with untranslated line ends; a byte that is
    not UTF-8 raises a ParseError at the first line that holds one."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()  # split where the text reader splits
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, lineno, f"not UTF-8: byte {raw[exc.start]:#04x} "
                                               f"at byte {exc.start + 1} ({exc.reason})") from None
        raise


def _csv_error(path, lineno: int, exc: csv.Error) -> ParseError:
    """A row the csv module rejects (an over-long field, a NUL byte), at its line."""
    return ParseError(path, lineno, f"unreadable CSV: {exc}")


def _split_rows(fh, path):
    """The rows `csv.reader(fh)` gives, with a csv.Error raised as a ParseError
    at its line.  A plain line (no quote or NUL, no CR but one before its
    final `\n`, no longer than the csv field size limit) is split on commas
    here; the first other line and the rest of `fh` go to one csv.reader."""
    limit, lines = csv.field_size_limit(), 0
    for line in fh:
        body = line
        if line.endswith("\n"):  # else the last line, or one ended by a lone CR
            body = line[:-2] if line.endswith("\r\n") else line[:-1]
        if '"' in body or "\r" in body or "\0" in body or len(body) > limit:
            break
        lines += 1
        yield body.split(",") if body else []
    else:
        return
    reader = csv.reader(itertools.chain((line,), fh))
    try:
        yield from reader
    except csv.Error as exc:
        raise _csv_error(path, lines + reader.line_num, exc) from None


def _checked_rows(rows, path, expected_header: list[str]):
    """`rows` past a header row that must equal `expected_header`."""
    header = next(rows, None)
    if header is None:
        raise ParseError(path, 1, "file is empty; a header row is required")
    if [h.strip() for h in header] != expected_header:
        raise ParseError(
            path, 1, f"expected header {','.join(expected_header)!r}, got {header!r}"
        )
    return rows


def _blank(row: list[str]) -> bool:
    return all(not cell.strip() for cell in row)


def _field_count_error(path, lineno: int, expected: int, got: int) -> ParseError:
    return ParseError(path, lineno, f"expected {expected} fields, got {got}")


def _read_rows(path, expected_header: list[str]):
    """Yield (line number, stripped cells) for each non-blank row, in file order."""
    width = len(expected_header)
    with _utf8_text(path) as fh:
        rows = _checked_rows(_split_rows(fh, path), path, expected_header)
        for lineno, row in enumerate(rows, start=2):
            if _blank(row):
                continue
            if len(row) != width:
                raise _field_count_error(path, lineno, width, len(row))
            yield lineno, [cell.strip() for cell in row]


def _parse_float(text: str, path, lineno: int, name: str, percent_ok: bool = False) -> float:
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


def _parse_date(text: str, path, lineno: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(path, lineno, f"cannot parse date from {text!r}") from None


def load_scores(path) -> Universe:
    """Read the scores CSV into a validated universe.

    `ProtocolRecord` checks each row's id, score and TVL; its errors are
    raised again naming the row's `path:line`.
    """
    records = []
    seen = set()
    for lineno, (pid, name, chain, score_text, tvl_text) in _read_rows(path, SCORES_HEADER):
        score = _parse_float(score_text, path, lineno, "score")
        tvl = _parse_float(tvl_text, path, lineno, "tvl") if tvl_text else None
        try:
            records.append(ProtocolRecord(pid, score, name=name, chain=chain, tvl=tvl))
        except NonPositiveScore:
            raise NonPositiveScore(pid, f"{path}:{lineno}") from None
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if pid in seen:
            raise DuplicateId(pid, f"{path}:{lineno}")
        seen.add(pid)
    return validate_universe(records)


# load_yields packs a (protocol, day) pair into one int: the protocol's index
# above the day ordinal, which stays below 2**22 (date.max is 3_652_059)
_DAY_BITS = 22


def _checked_yield_row(row, path, lineno: int, index, day_of) -> tuple[int, float]:
    """A non-blank yields row's packed key and APY, after every row check."""
    if len(row) != len(YIELDS_HEADER):
        raise _field_count_error(path, lineno, len(YIELDS_HEADER), len(row))
    date_text, pid, apy_text = (cell.strip() for cell in row)
    day = day_of.get(date_text)
    if day is None:
        day = day_of[date_text] = _parse_date(date_text, path, lineno).toordinal()
    if pid not in index:
        raise UnknownProtocol(pid, f"{path}:{lineno}")
    apy = _parse_float(apy_text, path, lineno, "apy", percent_ok=True)
    if apy <= -1.0:
        raise InvalidApy(f"{path}:{lineno}: APY must be > -1, got {apy_text!r}")
    return index[pid] | day, apy


def _sorted_keys(keys: array, blanks: list[int], path, order: list[str]):
    """The stable key order of the rows read so far, and the sorted keys.  The
    first repeat in file order raises; `blanks` (the row count at each blank
    line skipped) gives its line number."""
    packed = np.frombuffer(keys, dtype=np.int64)
    by_key = np.argsort(packed, kind="stable")
    packed = packed[by_key]
    repeats = by_key[1:][packed[1:] == packed[:-1]]
    if repeats.size:
        i = int(repeats.min())
        k, day = divmod(keys[i], 1 << _DAY_BITS)
        raise DuplicateObservation(
            f"{path}:{2 + i + bisect.bisect_right(blanks, i)}: duplicate observation "
            f"for {order[k]!r} on {dt.date.fromordinal(day)}"
        ) from None
    return by_key, packed


# the columnar pass reads a yields file in runs of whole lines of about this size
_RUN_BYTES = 1 << 16
_PLAIN_HEADER = (",".join(YIELDS_HEADER) + "\n").encode()
_PLAIN_SEPARATORS = np.frombuffer(b",,\n", dtype=np.uint8)


def _plain_yield_columns(path, index):
    """The packed keys and APYs of a plain yields file, in file order, and its
    (empty) list of blank lines; or None.

    A plain file is the exact header and then rows of three bare cells, each
    line ending in `\n` or `\r\n`: a known raw id, a date `date.fromisoformat`
    reads and an APY `float` reads into (-1, inf).  Each run of whole lines is
    checked and split a column at a time.  On anything else (a quote, a CR
    not before `\n`, a NUL, a blank line or cell, a padded date or id, a
    wrong field count, a line longer than a run, a byte that is not UTF-8)
    it returns None, and the row loop reads the file with every check and
    message.
    """
    day_of: dict[str, int] = {}
    keys, apys = array("q"), array("d")
    with open(path, "rb") as fh:
        if fh.readline(len(_PLAIN_HEADER) + 1).replace(b"\r\n", b"\n") != _PLAIN_HEADER:
            return None
        tail = b""
        while block := fh.read(_RUN_BYTES):
            run = tail + block
            end = run.rfind(b"\n") + 1
            if not end:
                return None
            run, tail = run[:end], run[end:]
            if b"\r" in run:  # CRLF line ends are read as LF
                run = run.replace(b"\r\n", b"\n")
            if b'"' in run or b"\r" in run or b"\0" in run:
                return None
            codes = np.frombuffer(run, dtype=np.uint8)
            separators = codes[(codes == ord(",")) | (codes == ord("\n"))]
            if separators.size % 3 or not (separators.reshape(-1, 3)
                                           == _PLAIN_SEPARATORS).all():
                return None
            try:
                cells = run.decode("utf-8").replace("\n", ",").split(",")
                dates, ids, values = cells[0:-1:3], cells[1::3], cells[2::3]
                for text in set(dates).difference(day_of):
                    day_of[text] = dt.date.fromisoformat(text).toordinal()
                n = len(ids)
                run_keys = np.fromiter(map(index.__getitem__, ids), np.int64, n)
                run_keys |= np.fromiter(map(day_of.__getitem__, dates), np.int64, n)
                run_apys = np.fromiter(map(float, values), np.float64, n)
            except (KeyError, ValueError):  # UnicodeDecodeError is a ValueError
                return None
            if not ((-1.0 < run_apys) & (run_apys < math.inf)).all():
                return None
            keys.frombytes(run_keys.tobytes())
            apys.frombytes(run_apys.tobytes())
    return None if tail else (keys, apys, [])


def _yield_rows(path, index, order):
    """The packed keys and APYs of every non-blank yields row in file order,
    and the row count at each blank line skipped; raises the first bad row's
    error, or a repeat read before it.

    A plain row (known raw date and id, APY in (-1, inf)) costs two lookups
    and one `float`; any other row is skipped if blank or takes the checked
    parse.
    """
    day_of: dict[str, int] = {}  # date text -> ordinal, parsed once per string
    keys, apys, blanks = array("q"), array("d"), []
    add_key, add_apy, inf = keys.append, apys.append, math.inf
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)  # short lines: faster than splitting them here
        try:
            for row in _checked_rows(reader, path, YIELDS_HEADER):
                try:
                    date_text, pid, apy_text = row
                    key, apy = index[pid] | day_of[date_text], float(apy_text)
                except (KeyError, ValueError):
                    apy = math.nan  # not a plain row
                if not -1.0 < apy < inf:
                    if _blank(row):
                        blanks.append(len(keys))
                        continue
                    lineno = 2 + len(keys) + len(blanks)
                    key, apy = _checked_yield_row(row, path, lineno, index, day_of)
                add_key(key)
                add_apy(apy)
        except (DefiParityError, ValueError, csv.Error) as exc:  # UnicodeDecodeError too
            _sorted_keys(keys, blanks, path, order)  # a repeat read before it wins
            if isinstance(exc, csv.Error):
                raise _csv_error(path, reader.line_num, exc) from None
            raise
    return keys, apys, blanks


def load_yields(path, ids: Iterable[str], fx_path=None) -> YieldPanel:
    """Read the long-format yields CSV into per-protocol series.

    Rows must name a protocol in `ids`; the same (protocol, date) pair may
    appear only once.  A plain file is read a column at a time; any other
    goes through the row loop, which raises every row error.  Both give
    typed columns (packed protocol/day key, APY) in file order.  Repeats are
    found on the sorted keys, each series is one slice of them, and the FX
    CSV at `fx_path`, if given, is read last and becomes the panel's overlay.
    """
    order = sorted(set(ids))
    # cells are looked up raw and stripped only on a miss; an id with outer
    # whitespace can never equal a stripped cell, so it gets no entry
    index = {pid: k << _DAY_BITS for k, pid in enumerate(order) if pid == pid.strip()}
    keys, apys, blanks = _plain_yield_columns(path, index) or _yield_rows(path, index, order)
    by_key, packed = _sorted_keys(keys, blanks, path, order)
    values = np.frombuffer(apys, dtype=np.float64)[by_key]
    del keys, apys, by_key
    bounds = np.searchsorted(packed, np.arange(len(order) + 1) << _DAY_BITS).tolist()
    days = packed & ((1 << _DAY_BITS) - 1)
    series = {pid: DatedSeries(days[lo:hi], values[lo:hi])
              for pid, lo, hi in zip(order, bounds, bounds[1:]) if lo < hi}
    return YieldPanel(series=series, fx=None if fx_path is None else load_fx(fx_path))


def load_fx(path) -> DatedSeries:
    """Read the FX CSV (USD per stablecoin unit); unsorted rows are sorted."""
    pairs = []
    seen = set()
    for lineno, (date_text, rate_text) in _read_rows(path, FX_HEADER):
        date = _parse_date(date_text, path, lineno)
        rate = _parse_float(rate_text, path, lineno, "rate")
        if rate <= 0:
            raise NonPositiveRate(f"{path}:{lineno}: rate must be > 0, got {rate_text!r}")
        if date in seen:
            raise DuplicateObservation(f"{path}:{lineno}: duplicate observation on {date}")
        seen.add(date)
        pairs.append((date, rate))
    return DatedSeries.from_pairs(pairs)


# --- CSV writing (round-trip counterparts) ------------------------------------


def write_scores(universe: Universe, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        for p in universe:
            tvl = "" if p.tvl is None else repr(p.tvl)
            writer.writerow([p.protocol_id, p.name, p.chain, repr(p.score), tvl])


def write_yields(panel: YieldPanel, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(YIELDS_HEADER)
        for pid in sorted(panel.series):
            for date, apy in panel.series[pid].entries:
                writer.writerow([date.isoformat(), pid, repr(apy)])


def write_fx(series: DatedSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FX_HEADER)
        for date, rate in series.entries:
            writer.writerow([date.isoformat(), repr(rate)])


def save_bundle(bundle: DataBundle, out_dir) -> list[Path]:
    """Write a bundle to scores/yields(/fx) CSVs; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    write_scores(bundle.universe, out / "scores.csv")
    written.append(out / "scores.csv")
    write_yields(bundle.panel, out / "yields.csv")
    written.append(out / "yields.csv")
    if bundle.panel.fx is not None:
        write_fx(bundle.panel.fx, out / "fx.csv")
        written.append(out / "fx.csv")
    return written


def load_bundle(in_dir) -> DataBundle:
    """Inverse of save_bundle; fx.csv is optional."""
    base = Path(in_dir)
    universe = load_scores(base / "scores.csv")
    fx_path = base / "fx.csv"
    panel = load_yields(base / "yields.csv", universe.ids,
                        fx_path if fx_path.exists() else None)
    return DataBundle(universe, panel)


# --- remote fetch with on-disk cache ------------------------------------------

@dataclass(frozen=True)
class FetchSpec:
    """Where to fetch each resource and how to cache and map the payloads.

    `endpoints` maps resource names ("scores", "yields", "fx") to path
    templates; the yields template may contain ``{protocol_id}``.
    `field_map` maps our field names to payload keys per resource, so
    provider-specific schemas stay in configuration; a field it does not
    name is read under its own name.
    """

    base_url: str
    endpoints: Mapping[str, str]
    cache_dir: Path
    cache_ttl: float = 3600.0
    field_map: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    max_retries: int = 3
    retry_backoff: float = 0.25
    timeout: float = 10.0

    def __post_init__(self):
        if self.cache_ttl < 0:
            raise ValueError("cache_ttl must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if "scores" not in self.endpoints or "yields" not in self.endpoints:
            raise ValueError("endpoints must define at least 'scores' and 'yields'")


# striped: cache paths share a fixed set of locks, picked by hash, so a
# long-lived fetcher holds no lock per path it has ever touched
_key_locks = tuple(threading.Lock() for _ in range(64))


def _lock_for(path: Path) -> threading.Lock:
    return _key_locks[hash(str(path)) % len(_key_locks)]


def _cache_paths(spec: FetchSpec, resource: str, key: str) -> tuple[Path, Path]:
    base = spec.cache_dir / resource
    return base / f"{key}.json", base / f"{key}.meta"


def _cache_read(spec: FetchSpec, resource: str, key: str):
    payload_path, meta_path = _cache_paths(spec, resource, key)
    with _lock_for(payload_path):
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
            age = time.time() - float(meta["fetched_at"])
            if not 0.0 <= age <= spec.cache_ttl:
                # a negative age means the clock stepped back since the write
                return None
            with open(payload_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError, KeyError):
            # absent, expired or corrupt cache entries are plain misses
            return None


def _cache_write(spec: FetchSpec, resource: str, key: str, payload, url: str) -> None:
    payload_path, meta_path = _cache_paths(spec, resource, key)
    payload_path.parent.mkdir(parents=True, exist_ok=True)
    with _lock_for(payload_path):
        # payload lands before meta, and both via atomic rename, so a reader
        # can never mistake a partial file for a hit
        tmp = payload_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, payload_path)
        tmp_meta = meta_path.with_suffix(".meta.tmp")
        tmp_meta.write_text(
            json.dumps({"fetched_at": time.time(), "url": url}, sort_keys=True),
            encoding="utf-8",
        )
        os.replace(tmp_meta, meta_path)


def _http_get(spec: FetchSpec, session, url: str, params: dict):
    import requests  # only fetching needs it; CSV-only commands skip the import

    last_error = None
    for attempt in range(spec.max_retries + 1):
        if attempt:
            time.sleep(spec.retry_backoff * (2 ** (attempt - 1)))
        try:
            response = session.get(url, params=params, timeout=spec.timeout)
        except requests.RequestException as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        status = getattr(response, "status_code", 200)
        if status >= 500:
            last_error = f"server error {status}"
            continue
        if status >= 400:
            raise NetworkError(f"GET {url} failed with status {status}")
        try:
            return response.json()
        except ValueError as exc:
            raise NetworkError(f"GET {url} returned invalid JSON: {exc}") from None
    raise NetworkError(
        f"GET {url} failed after {spec.max_retries + 1} attempts ({last_error})"
    )


def _fetch_rows(spec: FetchSpec, session, resource: str, key: str, path: str,
                params: dict, fields, build=lambda *values: values) -> list:
    """One resource's payload items, each built by `build` from its fields.

    `fields` lists (our field name, converter, required); a missing
    optional field is None, and a JSON boolean is never accepted.  A value
    the converter or `build` rejects raises a ParseError naming the request
    URL and the item's index (a NonPositiveScore keeps its type).
    """
    url = spec.base_url.rstrip("/") + "/" + path.lstrip("/")
    request = json.dumps([url, params], sort_keys=True).encode("utf-8")
    key = f"{key}_{hashlib.sha256(request).hexdigest()[:16]}"
    payload = _cache_read(spec, resource, key)
    if payload is None:
        payload = _http_get(spec, session, url, params)
        _cache_write(spec, resource, key, payload, url)
    if not isinstance(payload, list) or not all(isinstance(item, dict) for item in payload):
        raise ParseError(url, None, "payload must be a JSON list of objects")
    field_map = spec.field_map.get(resource, {})
    rows = []
    for index, item in enumerate(payload):
        row = []
        for name, convert, required in fields:
            source = field_map.get(name, name)
            value = item.get(source)
            if value is None:
                if required:
                    raise MappingError(resource, source)
                row.append(None)
                continue
            try:
                if isinstance(value, bool):
                    raise TypeError("JSON booleans are not accepted")
                row.append(convert(value))
            except (TypeError, ValueError) as exc:
                raise ParseError(url, None, f"item {index}: cannot convert {source!r} "
                                            f"from {value!r}: {exc}") from None
        try:
            rows.append(build(*row))
        except NonPositiveScore as exc:
            raise NonPositiveScore(exc.protocol_id, f"{url} item {index}") from None
        except ValueError as exc:
            raise ParseError(url, None, f"item {index}: {exc}") from None
    return rows


def _iso_date(value) -> dt.date:
    return dt.date.fromisoformat(str(value))


def fetch_remote(
    spec: FetchSpec,
    ids: Sequence[str],
    date_range: tuple[dt.date, dt.date],
    session=None,
) -> DataBundle:
    """Fetch scores, yields and (optionally) FX from the configured API.

    Raw JSON payloads are cached under ``cache_dir/<resource>/<key>.json``
    keyed by (resource, id, date_range) plus a hash of the request URL and
    parameters; a cache hit younger than the TTL skips the network entirely.
    Payloads pass through the same validation as the file loaders, so an
    equivalent local file produces an identical bundle.
    """
    if session is None:
        import requests

        session = requests.Session()
    start, end = date_range
    range_key = f"{start.isoformat()}_{end.isoformat()}"
    params = {"start": start.isoformat(), "end": end.isoformat()}

    universe = validate_universe(_fetch_rows(
        spec, session, "scores", f"all_{range_key}", spec.endpoints["scores"], params,
        [("protocol_id", str, True), ("score", float, True), ("name", str, False),
         ("chain", str, False), ("tvl", float, False)],
        lambda pid, score, name, chain, tvl: ProtocolRecord(
            pid, score, name=name or "", chain=chain or "", tvl=tvl),
    ))

    series: dict[str, DatedSeries] = {}
    for pid in sorted(ids):
        pairs = _fetch_rows(
            spec, session, "yields", f"{pid}_{range_key}",
            spec.endpoints["yields"].format(protocol_id=pid), params,
            [("date", _iso_date, True), ("apy", float, True)],
        )
        if pairs:
            series[pid] = DatedSeries.from_pairs(pairs)

    fx = None
    if "fx" in spec.endpoints:
        fx = DatedSeries.from_pairs(_fetch_rows(
            spec, session, "fx", f"all_{range_key}", spec.endpoints["fx"], params,
            [("date", _iso_date, True), ("rate", float, True)],
        ))

    return DataBundle(universe, YieldPanel(series=series, fx=fx))
