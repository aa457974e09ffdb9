"""Load protocol scores, APY series, TVL and FX data from CSV files or a
remote yield API with on-disk caching.

File formats (headers required):
    scores: protocol_id,name,chain,score,tvl   (tvl may be empty)
    yields: date,protocol_id,apy               (long format, ISO dates)
    fx:     date,rate                          (USD per stablecoin unit)

APY values are fractions (0.05 = 5%); a trailing ``%`` is accepted and
divided by 100.

Every CSV (the ledgers `report` reads too) is read by `_read_rows`: opened
once, in binary mode, as the header line and then runs of whole lines, each
decoded only as its rows are reached.  `_plain` decides once per run if it
needs the csv module; the first run that does and the rest of the file go to
one `csv.reader`.  The yields loader takes each run of plain rows a column at
a time.  So rows are checked in file order, the first bad row or byte is the
error raised, and a row is named by the line it starts on.  `defiparity
backtest` first decides whether to split a large plain yields file: if so,
two processes read its halves a column at a time (`_split_columns`) and
`_read_rows` resumes where those columns stopped; if not, the file is read
from its top, as a library call reads it.
"""

from __future__ import annotations

import bisect
import contextvars
import csv
import datetime as dt
import io
import itertools
import json
import math
import operator
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

# every CSV is read as bytes in runs of whole lines of about this size
_RUN_BYTES = 1 << 16


def _runs(fh, size=-1):
    """The next `size` bytes of the binary file `fh`, which end a line (by
    default the rest of the file), in runs of whole lines: `_RUN_BYTES` and
    the rest of the line they end in."""
    while run := fh.read(_RUN_BYTES if size < 0 else min(_RUN_BYTES, size)):
        if len(run) != size:
            run += fh.readline()
        size -= len(run)
        yield run


def _decoded(runs):
    """Each run decoded as UTF-8.  Of a run that is not UTF-8, the lines
    before the one that holds the first bad byte are handed on; then that
    line, decoded alone and without its end, raises its UnicodeDecodeError."""
    for run in runs:
        try:
            text = run.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bad line starts after the last `\n` or CR before the byte
            start = max(run.rfind(b"\n", 0, exc.start), run.rfind(b"\r", 0, exc.start)) + 1
            yield run[:start].decode("utf-8")
            text = run[start:].splitlines()[0].decode("utf-8")  # raises: it holds the byte
        yield text


def _plain(run: bytes) -> bytes | None:
    """`run` with each `\r\n` read as `\n`, or None if only the csv module
    can read it: it holds a quote, a NUL or another CR, or is longer than the
    csv field size limit (it may hold a field csv rejects)."""
    if len(run) > csv.field_size_limit():
        return None
    if b"\r" in run:  # a replace that finds nothing still costs a slow scan
        run = run.replace(b"\r\n", b"\n")
    return None if b'"' in run or b"\r" in run or b"\0" in run else run


def _split_rows(runs, path, take, lines=0):
    """(line number, cells) for each row `csv.reader` gives for the text of
    `runs`, named by the line it starts on: `lines` lines came before them,
    and with none the first run is a header line.  A csv.Error or a byte
    that is not UTF-8 is a ParseError at its line.  Each later run `_plain`
    accepts is first offered to `take(run, lines before)`, which returns its
    line count if it consumed it, else 0; a run not taken is split on `\n`
    and commas here.  The first run `_plain` refuses and the rest go to one
    csv.reader, a line at a time as a text file gives them."""
    runs, reader = iter(runs), None
    try:
        for run in runs:
            plain = _plain(run)
            if plain is None:
                break
            if lines and (taken := take(plain, lines)):
                lines += taken
                continue
            for text in _decoded((plain,)):
                split = text.split("\n")
                if not split[-1]:  # the text ends in `\n`
                    split.pop()
                yield from enumerate([line.split(",") if line else [] for line in split],
                                     start=lines + 1)
                lines += len(split)
        else:
            return
        rest = _decoded(itertools.chain((run,), runs))
        reader = csv.reader(line for text in rest for line in io.StringIO(text, newline=""))
        # zip takes each row's `line_num` before the row: the lines before it
        line_nums = map(operator.attrgetter("line_num"), itertools.repeat(reader))
        yield from zip(map((lines + 1).__add__, line_nums), reader)
    except csv.Error as exc:  # an over-long field, or a NUL byte before Python 3.11
        raise ParseError(path, lines + reader.line_num, f"unreadable CSV: {exc}") from None
    except UnicodeDecodeError as exc:  # of the line after the last one read
        lines += reader.line_num if reader else 0
        raise ParseError(path, lines + 1, f"not UTF-8: byte {exc.object[exc.start]:#04x} "
                                          f"at byte {exc.start + 1} ({exc.reason})") from None


def _read_rows(path, expected_header: list[str], take=lambda run, lines: 0,
               start=(0, 0)):
    """Yield (line number, stripped cells) for each non-blank row past the
    header, in file order.  The first line is a header that must equal
    `expected_header`.  `take`, `_split_rows`' hook, takes no run by default.
    `start`, a line start's byte offset and the lines before it, resumes a
    read whose header and earlier lines were read elsewhere."""
    width = len(expected_header)
    offset, lines = start
    with open(path, "rb") as fh:
        if lines:
            fh.seek(offset)  # only a regular file gets here: a pipe has no offsets
            runs = _runs(fh)
        else:
            runs = itertools.chain((fh.readline(),), _runs(fh))
        rows = _split_rows(runs, path, take, lines)
        if not lines:
            _, header = next(rows, (None, None))
            if header is None:
                raise ParseError(path, 1, "file is empty; a header row is required")
            if [h.strip() for h in header] != expected_header:
                raise ParseError(
                    path, 1, f"expected header {','.join(expected_header)!r}, got {header!r}"
                )
        for lineno, row in rows:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != width:
                raise ParseError(path, lineno, f"expected {width} fields, got {len(cells)}")
            yield lineno, cells


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
_PLAIN_SEPARATORS = np.frombuffer(b",,\n", dtype=np.uint8)


def _checked_yield_row(row, path, lineno: int, index, day_of) -> tuple[int, float]:
    """A yields row's packed key and APY, after every row check."""
    date_text, pid, apy_text = row
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
    first repeat in file order raises; `blanks` (the row count at each line
    that starts no row) gives the line its row starts on."""
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


def _plain_rows(run, index, day_of, keys, apys) -> bool:
    """Whether every line of `run`, a run `_plain` returned, is a plain yields
    row; if so, their packed keys and APYs are appended to `keys` and `apys`
    in file order.

    A plain row is three bare cells ending in `\n`: a known raw id, a date
    `date.fromisoformat` reads and an APY `float` reads into (-1, inf).  The
    run is checked and split a column at a time.  A blank line or cell, a
    padded date or id, a wrong field count, a missing final `\n` or a byte
    that is not UTF-8 make it not plain.
    """
    codes = np.frombuffer(run, dtype=np.uint8)
    separators = codes[(codes == ord(",")) | (codes == ord("\n"))]
    if separators.size % 3 or not (separators.reshape(-1, 3)
                                   == _PLAIN_SEPARATORS).all():
        return False
    try:
        cells = run.decode("utf-8").replace("\n", ",").split(",")
        dates, ids, values = cells[0:-1:3], cells[1::3], cells[2::3]
        # all or none: a partial fill would hang on set order, and so would
        # the dates the row path then parses again
        day_of.update({text: dt.date.fromisoformat(text).toordinal()
                       for text in set(dates).difference(day_of)})
        n = len(ids)
        run_keys = np.fromiter(map(index.__getitem__, ids), np.int64, n)
        run_keys |= np.fromiter(map(day_of.__getitem__, dates), np.int64, n)
        run_apys = np.fromiter(map(float, values), np.float64, n)
    except (KeyError, ValueError):  # UnicodeDecodeError is a ValueError
        return False
    if not ((-1.0 < run_apys) & (run_apys < math.inf)).all():
        return False
    keys.frombytes(run_keys.tobytes())
    apys.frombytes(run_apys.tobytes())
    return True


def _plain_columns(runs, index, day_of, keys, apys) -> int:
    """The size of the leading runs of `runs` that are plain yields rows,
    each taken a column at a time by `_plain_rows`."""
    taken = 0
    for run in runs:
        plain = _plain(run)
        if plain is None or not _plain_rows(plain, index, day_of, keys, apys):
            break
        taken += len(run)
    return taken


# the CLI's two-process helper while `defiparity backtest` reads its yields;
# a library call finds None, so it reads on one process and never forks
_two_processes = contextvars.ContextVar("two_processes", default=None)
_PLAIN_HEADERS = (b"date,protocol_id,apy\n", b"date,protocol_id,apy\r\n")


def _split_columns(path, two_processes, index, day_of, keys,
                   apys) -> tuple[tuple[int, int], int | None]:
    """Read yields file `path` a column at a time in two shares where
    `two_processes` forks: a child takes the lines from the first line start
    past the middle of the file and pipes back their keys and APYs as raw
    bytes, appended to `keys` and `apys` after those of the lines before it,
    read here.  Returns the byte offset of the first line not read and the
    lines before it, from which the row path reads the rest, and those lines
    again if this process refused the run there, else None.  This process's
    columns stop at its first run that is not plain rows (a child is then
    killed unread); a child whose share is not all plain rows, or that fails,
    leaves the rest from the middle line.  No run is read here for a file
    that is not regular (a pipe can be read only once), a header line that
    is not plain, or where `two_processes` declines: returns (0, 0), None."""
    if not os.path.isfile(path):
        return (0, 0), None
    with open(path, "rb") as fh:
        if fh.readline() not in _PLAIN_HEADERS:
            return (0, 0), None
        header, size = fh.tell(), os.fstat(fh.fileno()).st_size
        fh.seek(size // 2)
        fh.readline()
        middle = fh.tell()
        fh.seek(header)

        def theirs():
            their_keys, their_apys = array("q"), array("d")
            with open(path, "rb") as own:
                own.seek(middle)
                if _plain_columns(_runs(own), index, day_of,
                                  their_keys, their_apys) != size - middle:
                    return None
            return their_keys.tobytes() + their_apys.tobytes()

        with two_processes(size, theirs) as wait:
            if wait is None:
                return (0, 0), None
            reached = header + _plain_columns(_runs(fh, middle - header),
                                              index, day_of, keys, apys)
            sent = wait() if reached == middle else None
    lines = 1 + len(keys)
    if sent is None:
        return (reached, lines), lines if reached < middle else None
    half = len(sent) // 2
    keys.frombytes(memoryview(sent)[:half])
    apys.frombytes(memoryview(sent)[half:])
    return (size, 1 + len(keys)), None


def load_yields(path, ids: Iterable[str], fx_path=None) -> YieldPanel:
    """Read the long-format yields CSV into per-protocol series.

    Rows must name a protocol in `ids`; the same (protocol, date) pair may
    appear only once.  `_read_rows` offers `take` each run `_plain` accepts;
    a run of plain rows is read a column at a time, any other row by row: a
    plain row costs two lookups and one `float`, any other the checked parse.
    Both give typed columns (packed protocol/day key, APY) in file order.
    Under `defiparity backtest` a large plain file is first read a column at
    a time on two processes (`_split_columns`); the row path reads only what
    they leave, and `take` does not offer `_plain_rows` a run it refused
    there.  Repeats are found on the sorted keys, each series is one slice of
    them, and the FX CSV at `fx_path`, if given, is read last for the overlay.
    """
    order = sorted(set(ids))
    # the row path strips cells, so an id with outer whitespace could only
    # match a padded cell in the columnar pass; it gets no entry
    index = {pid: k << _DAY_BITS for k, pid in enumerate(order) if pid == pid.strip()}
    day_of: dict[str, int] = {}  # date text -> ordinal, parsed once per string
    # blanks: the row count at each line past the header that starts no row
    keys, apys, blanks = array("q"), array("d"), []
    add_key, add_apy, inf = keys.append, apys.append, math.inf

    def take(run, lines):  # `lines` lines, the header among them, came before `run`
        if lines == refused:  # `_split_columns` offered this run to `_plain_rows`
            return 0
        blanks.extend([len(keys)] * (lines - 1 - len(keys) - len(blanks)))
        before = len(keys)
        _plain_rows(run, index, day_of, keys, apys)  # appends one row a line, or none
        return len(keys) - before

    two_processes, start, refused = _two_processes.get(), (0, 0), None
    if two_processes is not None:
        start, refused = _split_columns(path, two_processes, index, day_of, keys, apys)
    try:
        for lineno, row in _read_rows(path, YIELDS_HEADER, take, start):
            if skipped := lineno - 2 - len(keys) - len(blanks):
                blanks += [len(keys)] * skipped
            date_text, pid, apy_text = row
            try:
                key, apy = index[pid] | day_of[date_text], float(apy_text)
            except (KeyError, ValueError):
                apy = math.nan  # not a plain row
            if not -1.0 < apy < inf:
                key, apy = _checked_yield_row(row, path, lineno, index, day_of)
            add_key(key)
            add_apy(apy)
    except DefiParityError:
        _sorted_keys(keys, blanks, path, order)  # a repeat read before it wins
        raise
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
