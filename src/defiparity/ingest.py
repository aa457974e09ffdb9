"""Load protocol scores, APY series and FX data from CSV files, and write a
data bundle back to them.

File formats (headers required):
    scores: protocol_id,name,chain,score,tvl   (tvl may be empty)
    yields: date,protocol_id,apy               (long format, ISO dates)
    fx:     date,rate                          (USD per stablecoin unit)

APY values are fractions (0.05 = 5%); a trailing ``%`` is accepted and
divided by 100.  Every file is read by `rows._read_rows`, which names a bad
row by its `path:line`.  The remote fetch is in `fetch`, whose `FetchSpec`
and `fetch_remote` are still found here.
"""

from __future__ import annotations

import bisect
import contextvars
import csv
import datetime as dt
import functools
import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import rows
from .backtest import YieldPanel
from .domain import DatedSeries, ProtocolRecord, Universe, validate_universe
from .errors import (
    DefiParityError,
    DuplicateId,
    DuplicateObservation,
    InvalidApy,
    NonPositiveRate,
    NonPositiveScore,
    ParseError,
    UnknownProtocol,
)

SCORES_HEADER = ["protocol_id", "name", "chain", "score", "tvl"]
YIELDS_HEADER = ["date", "protocol_id", "apy"]
FX_HEADER = ["date", "rate"]


def __getattr__(name):  # `fetch`'s public names, found here before it had a module
    if name not in ("FetchSpec", "fetch_remote"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fetch
    return getattr(fetch, name)


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
    for lineno, (pid, name, chain, score_text, tvl_text) in rows._read_rows(path, SCORES_HEADER):
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


def _plain_rows(run, index, day_of, keys, apys) -> bool:
    """Whether every line of `run`, a run `rows._plain` returned, is a plain
    yields row; if so, their packed keys and APYs are appended to `keys` and
    `apys` in file order.

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


def _sorted(keys, apys):
    """The packed keys and APYs of rows in file order (`array`s), sorted by
    key with one stable argsort, and the file-order index of the first row
    whose key an earlier row holds, or -1."""
    packed = np.frombuffer(keys, dtype=np.int64)
    by_key = np.argsort(packed, kind="stable")  # timsort: fast on a file's sorted runs
    packed = packed[by_key]
    repeats = by_key[1:][packed[1:] == packed[:-1]]
    first = int(repeats.min()) if repeats.size else -1
    return packed, np.frombuffer(apys, dtype=np.float64)[by_key], first


def _plain_columns(path, start, stop, index, day_of):
    """The packed keys and the APYs of the lines of yields file `path` in
    bytes [start, stop), which start and end lines, sorted by key; each run
    is taken a column at a time by `_plain_rows`.  A ValueError at the first
    run that is not plain rows, and at a repeat (which a read names)."""
    keys, apys = array("q"), array("d")
    with open(path, "rb") as fh:
        fh.seek(start)
        for run in rows._runs(fh, stop - start):
            plain = rows._plain(run)
            if plain is None or not _plain_rows(plain, index, day_of, keys, apys):
                raise ValueError(f"{path}: not plain yields rows")
    packed, values, repeat = _sorted(keys, apys)
    if repeat >= 0:
        raise ValueError(f"{path}: a repeated observation")
    return packed, values


def _series(order, parts) -> dict | None:
    """Each protocol's series from `parts`, one or two (sorted keys, APYs)
    pairs: its rows of the first part and then of the second, sorted by day
    where they interleave.  None if a key is in both parts.  A lone part is
    joined with no rows, so its slices pass through as they are."""
    (keys1, apys1), (keys2, apys2) = [*parts, (np.empty(0, np.int64), np.empty(0))][:2]
    cuts = np.arange(len(order) + 1) << _DAY_BITS
    bounds1, bounds2 = (np.searchsorted(keys, cuts).tolist() for keys in (keys1, keys2))
    days1, days2 = keys1 & _DAY_MASK, keys2 & _DAY_MASK
    series = {}
    for pid, lo1, hi1, lo2, hi2 in zip(order, bounds1, bounds1[1:], bounds2, bounds2[1:]):
        if lo1 == hi1 and lo2 == hi2:
            continue
        days, levels = days1[lo1:hi1], apys1[lo1:hi1]
        if lo2 < hi2:
            days = np.concatenate((days, days2[lo2:hi2]))
            levels = np.concatenate((levels, apys2[lo2:hi2]))
            if lo1 < hi1 and days1[hi1 - 1] >= days2[lo2]:
                by_day = np.argsort(days, kind="stable")
                days, levels = days[by_day], levels[by_day]
                if (days[1:] == days[:-1]).any():
                    return None
        series[pid] = DatedSeries(days, levels)
    return series


# `defiparity backtest` reads a plain yields file of at least this many bytes on
# two processes.  On a 2-vCPU VM, `window`'s yields cut to 1, 1.5, 2 and 3 MB made
# a 31-day backtest faster on two in 7/15, 13/20, 19/20 and 20/20 fresh-process
# pairs; `churn`'s 1.9 MB, whose 600-day backtest pays the fork's copy-on-write
# faults for longer, were faster in 4/20, 7/20 and 13/20 on three runs.
TWO_PROCESS_YIELDS_BYTES = 4 << 20
# the CLI's two-process runner (`cli._run_jobs`) while `defiparity backtest`
# reads its yields; a library call finds None, so it never forks
_run_jobs = contextvars.ContextVar("run_jobs", default=None)
_PLAIN_HEADERS = (b"date,protocol_id,apy\n", b"date,protocol_id,apy\r\n")


def _split_columns(path, index, day_of, fx_path=None) -> list | None:
    """The columns (`_plain_columns`) of yields file `path` in two jobs that
    `_run_jobs` runs on two processes: the lines from the header to the first
    line start past the middle of the file, read here, and the rest, read by
    a child; then the FX series at `fx_path`, if given, read here after this
    process's half.  None, opening nothing, in a library call or where `path`
    is not a regular file (a pipe can be read only once); None where its
    header is not plain, the runner declines or a job fails."""
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
    appear only once.  A run of plain rows is read a column at a time
    (`take`), any other row by row.  The rows' packed (protocol, day) keys
    and APYs are sorted once (`_sorted`, which finds the first repeat) and
    cut into series (`_series`); the FX CSV at `fx_path`, if given, is read
    last.  Under `defiparity backtest` a large plain file may first be read
    on two processes (`_split_columns`); where that read fails, the file is
    read here from its top, as a library call reads it, so an error names
    the same line.
    """
    order = sorted(set(ids))
    # the row path strips cells, so an id with outer whitespace could only
    # match a padded cell in the columnar pass; it gets no entry
    index = {pid: k << _DAY_BITS for k, pid in enumerate(order) if pid == pid.strip()}
    day_of: dict[str, int] = {}  # date text -> ordinal, parsed once per string
    split = _split_columns(path, index, day_of, fx_path)
    series = None if split is None else _series(order, split[:2])
    if series is not None:
        return YieldPanel(series=series, fx=split[2] if fx_path is not None else None)
    # blanks: the row count at each line past the header that starts no row
    keys, apys, blanks = array("q"), array("d"), []
    add_key, add_apy, inf = keys.append, apys.append, math.inf

    def take(run, lines):  # `lines` lines, the header among them, came before `run`
        blanks.extend([len(keys)] * (lines - 1 - len(keys) - len(blanks)))
        before = len(keys)
        _plain_rows(run, index, day_of, keys, apys)  # appends one row a line, or none
        return len(keys) - before

    def sorted_rows():  # the first repeat in file order raises, naming its line
        packed, values, i = _sorted(keys, apys)
        if i >= 0:
            k, day = divmod(keys[i], 1 << _DAY_BITS)
            raise DuplicateObservation(
                f"{path}:{2 + i + bisect.bisect_right(blanks, i)}: duplicate observation "
                f"for {order[k]!r} on {dt.date.fromordinal(day)}")
        return packed, values

    try:  # a repeat the split found is raised here, at its line
        for lineno, row in rows._read_rows(path, YIELDS_HEADER, take):
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
        sorted_rows()  # a repeat read before it wins
        raise
    part = sorted_rows()
    del keys, apys, add_key, add_apy
    return YieldPanel(series=_series(order, [part]),
                      fx=None if fx_path is None else load_fx(fx_path))


def load_fx(path) -> DatedSeries:
    """Read the FX CSV (USD per stablecoin unit); unsorted rows are sorted."""
    pairs = []
    seen = set()
    for lineno, (date_text, rate_text) in rows._read_rows(path, FX_HEADER):
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


def _write_csv(path: Path, header: list[str], body) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
    return path


def save_bundle(bundle: DataBundle, out_dir) -> list[Path]:
    """Write a bundle to scores/yields(/fx) CSVs; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [_write_csv(out / "scores.csv", SCORES_HEADER, (
        [p.protocol_id, p.name, p.chain, repr(p.score), "" if p.tvl is None else repr(p.tvl)]
        for p in bundle.universe))]
    written.append(_write_csv(out / "yields.csv", YIELDS_HEADER, (
        [date.isoformat(), pid, repr(apy)]
        for pid, series in sorted(bundle.panel.series.items()) for date, apy in series.entries)))
    if bundle.panel.fx is not None:
        written.append(_write_csv(out / "fx.csv", FX_HEADER, (
            [date.isoformat(), repr(rate)] for date, rate in bundle.panel.fx.entries)))
    return written


def load_bundle(in_dir) -> DataBundle:
    """Inverse of save_bundle; fx.csv is optional."""
    base = Path(in_dir)
    universe = load_scores(base / "scores.csv")
    fx_path = base / "fx.csv"
    panel = load_yields(base / "yields.csv", universe.ids,
                        fx_path if fx_path.exists() else None)
    return DataBundle(universe, panel)
