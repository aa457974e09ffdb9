"""Fetch a data bundle from a remote yield API with an on-disk cache, for
`defiparity fetch`.  Payloads get the file loaders' record and series
checks, so an equivalent local file gives an identical bundle."""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .backtest import YieldPanel
from .domain import DatedSeries, ProtocolRecord, validate_universe
from .errors import MappingError, NetworkError, NonPositiveScore, ParseError
from .ingest import DataBundle


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
        if not self.cache_ttl >= 0:  # NaN too: it would make every read a miss
            raise ValueError(f"cache_ttl must be >= 0, got {self.cache_ttl!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 <= self.retry_backoff < math.inf:
            raise ValueError(f"retry_backoff must be finite and >= 0, got {self.retry_backoff!r}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout!r}")
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
    import hashlib  # only the fetch cache key needs it

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
