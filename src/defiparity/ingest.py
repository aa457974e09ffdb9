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
needs the csv module; csv reads such a run alone where no quoted field can
go on past it (`_quoted_rows`), else that run and the rest of the file go to
one `csv.reader`.  The yields loader takes each run of plain rows a column at
a time.  So rows are checked in file order, the first bad row or byte is the
error raised, and a row is named by the line it starts on.  `defiparity
backtest` may first read a large plain yields file's two halves a column at
a time on two processes, each half sorted by key, and the FX file beside the
child (`_split_columns`); a half with a run that is not plain rows or with a
repeat, a repeat across the halves, a bad FX file or a failed process leaves
the file to be read from its top, as a library call reads it, and the FX
file after it.
"""

from __future__ import annotations

import bisect
import contextvars
import csv
import datetime as dt
import functools
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


# every byte but a quote and `\n`: deleting them leaves each line's quotes
_NOT_QUOTES = bytes(b for b in range(256) if b not in b'"\n')


def _quoted_rows(run: bytes):
    """(line within `run`, cells) of each row of a run `_plain` refused, and
    its line count, where csv can read the run alone: it holds no NUL and no
    CR but before `\n`, is no longer than the field size limit, is UTF-8,
    has an even number of quotes on every line and ends outside a quoted
    field (a field open at its end would hold the run's last `\n`).  Else
    None: the run and the rest of the file go to one csv.reader."""
    if len(run) > csv.field_size_limit() or b"\0" in run:
        return None
    run = run.replace(b"\r\n", b"\n")
    if b"\r" in run or b'"' in run.translate(None, _NOT_QUOTES).replace(b'""', b""):
        return None
    try:
        text = run.decode("utf-8")
    except UnicodeDecodeError:
        return None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = list(zip(map(operator.attrgetter("line_num"), itertools.repeat(reader)), reader))
    # an even count still opens a field after a quote inside an unquoted one
    if rows and rows[-1][1] and rows[-1][1][-1].endswith("\n"):
        return None
    return rows, reader.line_num


def _split_rows(runs, path, take):
    """(line number, cells) for each row `csv.reader` gives for the text of
    `runs`, the first a header line, named by the line it starts on; a
    csv.Error or a byte that is not UTF-8 is a ParseError at its line.  Each
    later run `_plain` accepts is first offered to `take(run, lines before)`,
    which returns its line count if it consumed it, else 0; a run not taken is
    split on `\n` and commas here.  A run `_plain` refuses is read by csv
    alone where `_quoted_rows` can; the first that is not, and the rest, go
    to one csv.reader, a line at a time as a text file gives them."""
    runs, reader, lines = iter(runs), None, 0
    try:
        for run in runs:
            plain = _plain(run)
            if plain is None:
                quoted = _quoted_rows(run)
                if quoted is None:
                    break
                rows, count = quoted
                yield from ((lines + line_num + 1, row) for line_num, row in rows)
                lines += count
                continue
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


def _read_rows(path, expected_header: list[str], take=lambda run, lines: 0):
    """Yield (line number, stripped cells) for each non-blank row past the
    header, in file order.  The first line is a header that must equal
    `expected_header`.  `take`, `_split_rows`' hook, takes no run by default."""
    width = len(expected_header)
    with open(path, "rb") as fh:
        rows = _split_rows(itertools.chain((fh.readline(),), _runs(fh)), path, take)
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
_DAY_MASK = (1 << _DAY_BITS) - 1
# every byte but a comma and `\n`: deleting them leaves a plain run's separators
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


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
    separators = run.translate(None, _NOT_SEPARATORS)
    if separators != b",,\n" * (len(separators) // 3):
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


def _plain_columns(path, start, stop, index, day_of):
    """The packed keys and the APYs of the lines of yields file `path` in
    bytes [start, stop), which start and end lines, sorted by key; each run
    is taken a column at a time by `_plain_rows`.  Raises ValueError at the
    first run that is not plain rows, and where a key repeats (the read from
    the top names the repeat's line)."""
    keys, apys = array("q"), array("d")
    with open(path, "rb") as fh:
        fh.seek(start)
        for run in _runs(fh, stop - start):
            plain = _plain(run)
            if plain is None or not _plain_rows(plain, index, day_of, keys, apys):
                raise ValueError(f"{path}: not plain yields rows")
    packed = np.frombuffer(keys, dtype=np.int64)
    by_key = np.argsort(packed, kind="stable")  # timsort: fast on a file's sorted runs
    packed = packed[by_key]
    if (packed[1:] == packed[:-1]).any():
        raise ValueError(f"{path}: a repeated observation")
    return packed, np.frombuffer(apys, dtype=np.float64)[by_key]


def _joined_series(order, first, second) -> dict | None:
    """Each protocol's series from the sorted keys and APYs of two
    `_plain_columns` results: its rows of the first and then of the second,
    sorted by day where their days interleave.  None if a key is in both."""
    (keys1, apys1), (keys2, apys2) = first, second
    cuts = np.arange(len(order) + 1) << _DAY_BITS
    bounds1, bounds2 = (np.searchsorted(keys, cuts).tolist() for keys in (keys1, keys2))
    series = {}
    for pid, lo1, hi1, lo2, hi2 in zip(order, bounds1, bounds1[1:], bounds2, bounds2[1:]):
        if lo1 == hi1 and lo2 == hi2:
            continue
        keys = np.concatenate((keys1[lo1:hi1], keys2[lo2:hi2]))
        levels = np.concatenate((apys1[lo1:hi1], apys2[lo2:hi2]))
        if lo1 < hi1 and lo2 < hi2 and keys1[hi1 - 1] >= keys2[lo2]:
            by_key = np.argsort(keys, kind="stable")
            keys, levels = keys[by_key], levels[by_key]
            if (keys[1:] == keys[:-1]).any():
                return None
        series[pid] = DatedSeries(keys & _DAY_MASK, levels)
    return series


# `defiparity backtest` reads a plain yields file of at least this many bytes on
# two processes.  On a 2-vCPU VM, `window`'s yields cut to 1, 1.5, 2 and 3 MB made
# a 31-day backtest faster on two in 7/15, 13/20, 19/20 and 20/20 fresh-process
# pairs; `churn`'s 1.9 MB, whose 600-day backtest pays the fork's copy-on-write
# faults for longer, were faster in 4/20, 7/20 and 13/20 on three runs.
TWO_PROCESS_YIELDS_BYTES = 4 << 20
# the CLI's two-process runner (`cli._run_jobs`) while `defiparity backtest`
# reads its yields and writes its outputs; a library call finds None, so it
# never forks
_run_jobs = contextvars.ContextVar("run_jobs", default=None)
_PLAIN_HEADERS = (b"date,protocol_id,apy\n", b"date,protocol_id,apy\r\n")


def _split_columns(path, index, day_of, fx_path=None) -> list | None:
    """The columns (`_plain_columns`) of yields file `path` in two jobs that
    `_run_jobs` runs on two processes: the lines from the header to the first
    line start past the middle of the file, read here, and the rest, read
    by a child; then the FX series at `fx_path`, if given, read here after
    this process's half.  None, opening nothing, in a library call or where
    `path` is not a regular file (a pipe can be read only once); None where
    its header line is not plain, and where the runner declines or any job
    fails, as at a run that is not plain rows, a repeat within a half or a
    bad FX row."""
    run_jobs = _run_jobs.get()
    if run_jobs is None or not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        if fh.readline() not in _PLAIN_HEADERS:
            return None
        header, size = fh.tell(), os.fstat(fh.fileno()).st_size
        fh.seek(size // 2)
        fh.readline()
        middle = fh.tell()
    # the child takes the costliest job: costing the second half at the file's
    # size (what the floor bounds) and the rest at 0 leaves the first half,
    # and its first run, to this process, and the FX read after it: a
    # DatedSeries the child pickled back would lose its read-only arrays
    jobs = [(functools.partial(_plain_columns, path, header, middle, index, day_of), 0),
            (functools.partial(_plain_columns, path, middle, size, index, day_of), size)]
    if fx_path is not None:
        jobs.append((functools.partial(load_fx, fx_path), 0))
    return run_jobs(TWO_PROCESS_YIELDS_BYTES, jobs)


def load_yields(path, ids: Iterable[str], fx_path=None) -> YieldPanel:
    """Read the long-format yields CSV into per-protocol series.

    Rows must name a protocol in `ids`; the same (protocol, date) pair may
    appear only once.  `_read_rows` offers `take` each run `_plain` accepts;
    a run of plain rows is read a column at a time, any other row by row: a
    plain row costs two lookups and one `float`, any other the checked parse.
    Both give typed columns (packed protocol/day key, APY) in file order;
    repeats are found on the sorted keys and each series is one slice of
    them.  The FX CSV at `fx_path`, if given, is read last for the overlay.
    Under `defiparity backtest` a large plain file is first read on two
    processes (`_split_columns`): each half comes back sorted by key and
    checked for a repeat, and each series joins its rows of the two halves
    (`_joined_series`); this process reads the FX file while the child reads
    the second half.  A half that is not plain rows or holds a repeat, a
    repeat across the halves, a bad FX file or a failed process means the
    file is read here from its top, as a library call reads it, so an error
    names the same line.
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
        blanks.extend([len(keys)] * (lines - 1 - len(keys) - len(blanks)))
        before = len(keys)
        _plain_rows(run, index, day_of, keys, apys)  # appends one row a line, or none
        return len(keys) - before

    split = _split_columns(path, index, day_of, fx_path)
    series = None if split is None else _joined_series(order, split[0], split[1])
    if series is not None:
        return YieldPanel(series=series, fx=split[2] if fx_path is not None else None)
    try:  # a repeat the split found is raised here, at its line
        for lineno, row in _read_rows(path, YIELDS_HEADER, take):
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
    days = packed & _DAY_MASK
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
