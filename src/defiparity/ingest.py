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

import csv
import datetime as dt
import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .backtest import YieldPanel
from .domain import DatedSeries, ProtocolRecord, Universe, validate_universe
from .errors import (
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


def _checked_reader(fh, path, expected_header: list[str]):
    """A csv reader over `fh`, past a header row that must equal `expected_header`."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(path, 1, "file is empty; a header row is required")
    if [h.strip() for h in header] != expected_header:
        raise ParseError(
            path, 1, f"expected header {','.join(expected_header)!r}, got {header!r}"
        )
    return reader


def _blank(row: list[str]) -> bool:
    return all(not cell.strip() for cell in row)


def _field_count_error(path, lineno: int, expected: int, got: int) -> ParseError:
    return ParseError(path, lineno, f"expected {expected} fields, got {got}")


def _read_rows(path, expected_header: list[str]):
    """Yield (line number, stripped cells) for each non-blank row, in file order."""
    width = len(expected_header)
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(_checked_reader(fh, path, expected_header), start=2):
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


def load_yields(path, ids: Iterable[str], fx_path=None) -> YieldPanel:
    """Read the long-format yields CSV into per-protocol series.

    Rows must name a protocol in `ids`; the same (protocol, date) pair may
    appear only once.  Rows are checked in file order and stream into flat
    columns (packed protocol/day key, APY); each protocol's series is then
    one slice of the columns sorted by key.  The FX CSV at `fx_path`, if
    given, is read after the yields rows and becomes the panel's overlay.
    """
    order = sorted(set(ids))
    # cells are looked up raw and stripped only on a miss; an id with outer
    # whitespace can never equal a stripped cell, so it gets no entry
    index = {pid: k for k, pid in enumerate(order) if pid == pid.strip()}
    day_of: dict[str, int] = {}  # raw date text -> ordinal, parsed once per string
    seen: set[int] = set()
    keys: list[int] = []
    apys: list[float] = []
    width = len(YIELDS_HEADER)
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(_checked_reader(fh, path, YIELDS_HEADER), start=2):
            if len(row) != width:
                if _blank(row):
                    continue
                raise _field_count_error(path, lineno, width, len(row))
            date_text, pid, apy_text = row
            day = day_of.get(date_text)
            if day is None:
                if _blank(row):
                    continue
                day = _parse_date(date_text.strip(), path, lineno).toordinal()
                day_of[date_text] = day
            k = index.get(pid)
            if k is None:
                pid = pid.strip()
                k = index.get(pid)
                if k is None:
                    raise UnknownProtocol(pid, f"{path}:{lineno}")
            try:
                apy = float(apy_text)  # float() itself ignores outer whitespace
            except ValueError:
                apy = _parse_float(apy_text.strip(), path, lineno, "apy", percent_ok=True)
            if not -1.0 < apy < math.inf:
                apy_text = apy_text.strip()
                if not math.isfinite(apy):
                    raise ParseError(path, lineno, f"apy must be finite, got {apy_text!r}")
                raise InvalidApy(f"{path}:{lineno}: APY must be > -1, got {apy_text!r}")
            key = k << _DAY_BITS | day
            if key in seen:
                raise DuplicateObservation(
                    f"{path}:{lineno}: duplicate observation for {order[k]!r} "
                    f"on {dt.date.fromordinal(day)}"
                )
            seen.add(key)
            keys.append(key)
            apys.append(apy)
    del seen  # the row-time structures go before the series are built
    packed = np.array(keys, dtype=np.int64)
    by_key = np.argsort(packed)
    packed = packed[by_key]
    values = np.array(apys, dtype=float)[by_key].tolist()
    del keys, apys
    bounds = np.searchsorted(packed, np.arange(len(order) + 1) << _DAY_BITS).tolist()
    date_of = {day: dt.date.fromordinal(day) for day in day_of.values()}
    dates = list(map(date_of.__getitem__, (packed & ((1 << _DAY_BITS) - 1)).tolist()))
    series = {
        pid: DatedSeries(tuple(zip(dates[lo:hi], values[lo:hi])))
        for pid, lo, hi in zip(order, bounds, bounds[1:])
        if lo < hi
    }
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

DEFAULT_FIELD_MAP: dict[str, dict[str, str]] = {
    "scores": {
        "protocol_id": "protocol_id",
        "name": "name",
        "chain": "chain",
        "score": "score",
        "tvl": "tvl",
    },
    "yields": {"date": "date", "apy": "apy"},
    "fx": {"date": "date", "rate": "rate"},
}


@dataclass(frozen=True)
class FetchSpec:
    """Where to fetch each resource and how to cache and map the payloads.

    `endpoints` maps resource names ("scores", "yields", "fx") to path
    templates; the yields template may contain ``{protocol_id}``.
    `field_map` renames payload keys to our field names per resource, so
    provider-specific schemas stay in configuration.
    """

    base_url: str
    endpoints: Mapping[str, str]
    cache_dir: Path
    cache_ttl: float = 3600.0
    field_map: Mapping[str, Mapping[str, str]] = field(
        default_factory=lambda: DEFAULT_FIELD_MAP
    )
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
                params: dict, fields) -> list[tuple]:
    """One resource's payload items, each as a tuple of converted fields.

    `fields` lists (our field name, converter, required); a missing
    optional field is None.  A value the converter rejects raises a
    ParseError naming the request URL and the item's index.
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
    field_map = spec.field_map.get(resource, DEFAULT_FIELD_MAP[resource])
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
                row.append(convert(value))
            except (TypeError, ValueError) as exc:
                raise ParseError(url, None, f"item {index}: cannot convert {source!r} "
                                            f"from {value!r}: {exc}") from None
        rows.append(tuple(row))
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

    rows = _fetch_rows(
        spec, session, "scores", f"all_{range_key}", spec.endpoints["scores"], params,
        [("protocol_id", str, True), ("score", float, True), ("name", str, False),
         ("chain", str, False), ("tvl", float, False)],
    )
    universe = validate_universe(
        ProtocolRecord(pid, score, name=name or "", chain=chain or "", tvl=tvl)
        for pid, score, name, chain, tvl in rows
    )

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
