"""The columnar yields loader against the per-row reference loader.

Valid files have shuffled rows, padding whitespace, `%` APYs, blank lines
and quoted cells that hold a line end; both loaders must give equal panels,
and name a row by the line it starts on.  A file with one corrupted row
must make both raise the same error for the same line.  With two corrupted
rows the earlier line wins.  The one known difference: the reference checks
every row's field count before it parses any row, so when the later bad row
has the wrong field count it names that row instead.

The same three checks run again on files of bare cells (no padding, no
`%`), most of whose rows the loader reads without its checked parse, so its
fast path and its sort-time duplicate check meet the reference too.  They
run a second time through the CLI's two-process read with its size floor at
0, so that every file is split at its middle line, a forked child reading
the lines past it.

The last section checks the columnar pass: plain files, of one row, of
several 64 KB runs or cut into runs of a few lines, with `\n` or `\r\n`
line ends, are taken a column at a time, every run after the header, with
no checked parse; a file with one irregular feature (a blank line, CRLF, a
quote, `%`, padding, no final newline, a 2-field line beside a 4-field one)
loads or fails exactly as the reference does.  Only the run that holds a
blank line, a `%` or padding is read by row; a quote sends the rest of the
file by row.  A byte that is not UTF-8 is the one declared difference: the
reference lets `UnicodeDecodeError` out, and `load_yields` raises a
ParseError naming the line that holds the byte.

Dates are plain YYYY-MM-DD, which `date.fromisoformat` reads the same way
on every supported Python version.
"""

import datetime as dt
import random
import re
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defiparity import cli, ingest
from defiparity import rows as row_reader
from defiparity.errors import (
    DefiParityError,
    DuplicateObservation,
    InvalidApy,
    ParseError,
    UnknownProtocol,
)
from defiparity.ingest import load_yields
from conftest import under_backtest
from reference_loader import reference_load_yields

IDS = ("aave", "comp", "curve", "yearn")
START = dt.date(2022, 1, 28)

# corruption kind -> the error both loaders raise for it
CORRUPTIONS = {
    "bad_date": ParseError,
    "unknown_id": UnknownProtocol,
    "nan": ParseError,
    "apy_floor": InvalidApy,
    "duplicate": DuplicateObservation,
    "field_count": ParseError,
}

pad = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def apy_texts(draw):
    k = draw(st.integers(-9_999, 5_000))  # APY in (-1, 0.5]
    if draw(st.booleans()):
        return f"{k / 100}{draw(pad)}%"
    return draw(st.sampled_from([str(k / 10_000), f"{k / 10_000:.6f}", f"{k}e-4"]))


@st.composite
def valid_rows(draw, apys=apy_texts()):
    """Data rows as (date, id, apy) text, each (id, date) at most once."""
    cells = set()
    for pid in draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True)):
        days = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
        cells.update((pid, day) for day in days)
    rows = [
        [(START + dt.timedelta(days=day)).isoformat(), pid, draw(apys)]
        for pid, day in sorted(cells)
    ]
    return draw(st.permutations(rows))


def write_file(path, rows, draw):
    """Write `rows` with padded cells, blank lines and now and then a last
    cell quoted with a line end in it; returns the line each row starts on."""
    lines, where, line_ends = ["date,protocol_id,apy"], [], 0  # line_ends: in quotes
    for row in rows:
        while draw(st.integers(0, 9)) == 9:
            lines.append(draw(st.sampled_from(["", ",,", " , ,\t"])))
        cells = [f"{draw(pad)}{cell}{draw(pad)}" for cell in row]
        where.append(len(lines) + line_ends + 1)
        if draw(st.integers(0, 19)) == 19:
            cells[-1] = f'"{cells[-1]}\n"'
            line_ends += 1
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return where


def corrupt(rows, i, kind):
    if kind == "bad_date":
        rows[i] = [rows[i][0].replace("-", "/"), *rows[i][1:]]
    elif kind == "unknown_id":
        rows[i] = [rows[i][0], "zz", rows[i][2]]
    elif kind == "nan":
        rows[i] = [*rows[i][:2], "nan"]
    elif kind == "apy_floor":
        rows[i] = [*rows[i][:2], "-100%"]
    elif kind == "duplicate":
        rows[i] = [*rows[i - 1][:2], "0.01"]  # repeats the row just before
    else:
        rows[i] = rows[i][:2]


def outcome(loader, path):
    try:
        return loader(path, IDS)
    except (ParseError, UnknownProtocol, InvalidApy, DuplicateObservation) as exc:
        return exc


def line_of(exc) -> int:
    if isinstance(exc, ParseError):
        return exc.line
    return int(re.search(r"yields\.csv:(\d+)", str(exc)).group(1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(), data=st.data())
def test_valid_files_load_equal(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("valid") / "yields.csv"
    write_file(path, rows, data.draw)
    got = load_yields(path, IDS)
    assert got == reference_load_yields(path, IDS)
    assert sum(len(s) for s in got.series.values()) == len(rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(), data=st.data())
def test_one_bad_row_same_error(tmp_path_factory, rows, data):
    kind = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
    if kind == "duplicate" and len(rows) < 2:
        kind = "nan"
    i = data.draw(st.integers(1 if kind == "duplicate" else 0, len(rows) - 1))
    rows = [list(r) for r in rows]
    corrupt(rows, i, kind)
    path = tmp_path_factory.mktemp("bad") / "yields.csv"
    where = write_file(path, rows, data.draw)
    got, want = outcome(load_yields, path), outcome(reference_load_yields, path)
    assert type(got) is CORRUPTIONS[kind]
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert line_of(got) == where[i]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows().filter(lambda r: len(r) >= 3), data=st.data())
def test_two_bad_rows_earlier_line_wins(tmp_path_factory, rows, data):
    i = data.draw(st.integers(1, len(rows) - 2))
    j = data.draw(st.integers(i + 1, len(rows) - 1))
    first = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
    second = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
    rows = [list(r) for r in rows]
    corrupt(rows, i, first)
    corrupt(rows, j, second)
    path = tmp_path_factory.mktemp("bad2") / "yields.csv"
    where = write_file(path, rows, data.draw)
    got, want = outcome(load_yields, path), outcome(reference_load_yields, path)
    assert type(got) is CORRUPTIONS[first]
    assert line_of(got) == where[i]
    if second == "field_count" and first != "field_count":
        assert line_of(want) == where[j]
    else:
        assert type(got) is type(want)
        assert str(got) == str(want)


@pytest.mark.parametrize("text", ["", "date,protocol_id\n", "day,protocol_id,apy\n"])
def test_bad_header_same_error(tmp_path, text):
    path = tmp_path / "yields.csv"
    path.write_text(text, encoding="utf-8")
    got, want = outcome(load_yields, path), outcome(reference_load_yields, path)
    assert isinstance(got, ParseError) and got.line == 1
    assert str(got) == str(want)


# --- bare cells: rows the loader reads without its checked parse ------------

plain_apys = st.integers(-9_999, 5_000).flatmap(  # APY in (-1, 0.5], no `%`
    lambda k: st.sampled_from([str(k / 10_000), f"{k / 10_000:.6f}", f"{k}e-4"]))


def write_plain(path, rows, draw):
    """Write `rows` with bare cells between blank lines; returns each row's line."""
    lines, where = ["date,protocol_id,apy"], []
    for row in rows:
        while draw(st.integers(0, 9)) == 9:
            lines.append(draw(st.sampled_from(["", ",,"])))
        lines.append(",".join(row))
        where.append(len(lines))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return where


def load_on_two_processes(path, ids):
    """The CLI's yields read with its size floor at 0 and two usable CPUs:
    the lines from the first line start past the middle of the file are
    read by a forked child."""
    with mock.patch.object(ingest, "TWO_PROCESS_YIELDS_BYTES", 0), \
            mock.patch.object(cli, "_usable_cpus", lambda: 2):
        return under_backtest(load_yields, path, ids, None)


def check_plain_valid_file(loader, tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("plain") / "yields.csv"
    where = write_plain(path, rows, data.draw)
    with mock.patch.object(ingest, "_checked_yield_row",
                           wraps=ingest._checked_yield_row) as spy:
        got = loader(path, IDS)
    assert got == reference_load_yields(path, IDS)
    # a file without blank lines is read a column at a time, with no checked
    # parse; in the row loop only the first row of each date text needs one
    # (on two processes, one that the columns before it did not hold)
    has_blank = where != list(range(2, len(rows) + 2))
    dates = len({row[0] for row in rows}) if has_blank else 0
    if loader is load_yields:
        assert spy.call_count == dates
    else:
        assert spy.call_count <= dates


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys), data=st.data())
def test_plain_valid_files_load_equal(tmp_path_factory, rows, data):
    check_plain_valid_file(load_yields, tmp_path_factory, rows, data)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys), data=st.data())
def test_plain_valid_files_load_equal_through_the_split(tmp_path_factory, rows, data):
    check_plain_valid_file(load_on_two_processes, tmp_path_factory, rows, data)


def check_plain_one_bad_row(loader, tmp_path_factory, kind, rows, data):
    i = data.draw(st.integers(1 if kind == "duplicate" else 0, len(rows) - 1))
    rows = [list(r) for r in rows]
    corrupt(rows, i, kind)
    path = tmp_path_factory.mktemp("plain_bad") / "yields.csv"
    where = write_plain(path, rows, data.draw)
    got, want = outcome(loader, path), outcome(reference_load_yields, path)
    assert type(got) is CORRUPTIONS[kind]
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert line_of(got) == where[i]


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys).filter(lambda r: len(r) >= 2), data=st.data())
def test_plain_one_bad_row_same_error(tmp_path_factory, kind, rows, data):
    check_plain_one_bad_row(load_yields, tmp_path_factory, kind, rows, data)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys).filter(lambda r: len(r) >= 2), data=st.data())
def test_plain_one_bad_row_same_error_through_the_split(tmp_path_factory, kind, rows, data):
    check_plain_one_bad_row(load_on_two_processes, tmp_path_factory, kind, rows, data)


def check_plain_two_bad_rows(loader, tmp_path_factory, first, rows, data):
    i = data.draw(st.integers(1, len(rows) - 2))
    j = data.draw(st.integers(i + 1, len(rows) - 1))
    second = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
    rows = [list(r) for r in rows]
    corrupt(rows, i, first)
    corrupt(rows, j, second)
    path = tmp_path_factory.mktemp("plain_bad2") / "yields.csv"
    where = write_plain(path, rows, data.draw)
    got, want = outcome(loader, path), outcome(reference_load_yields, path)
    assert type(got) is CORRUPTIONS[first]
    assert line_of(got) == where[i]
    if second == "field_count" and first != "field_count":
        assert line_of(want) == where[j]
    else:
        assert type(got) is type(want)
        assert str(got) == str(want)


@pytest.mark.parametrize("first", sorted(CORRUPTIONS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys).filter(lambda r: len(r) >= 3), data=st.data())
def test_plain_two_bad_rows_earlier_line_wins(tmp_path_factory, first, rows, data):
    check_plain_two_bad_rows(load_yields, tmp_path_factory, first, rows, data)


@pytest.mark.parametrize("first", sorted(CORRUPTIONS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys).filter(lambda r: len(r) >= 3), data=st.data())
def test_plain_two_bad_rows_earlier_line_wins_through_the_split(tmp_path_factory, first, rows,
                                                                data):
    check_plain_two_bad_rows(load_on_two_processes, tmp_path_factory, first, rows, data)


# --- the columnar pass: a plain file a column at a time, any other by row ---

HEADER = "date,protocol_id,apy"
PLAIN_APY_FORMATS = (lambda k: str(k / 10_000), lambda k: f"{k / 10_000:.6f}",
                     lambda k: f"{k}e-4")


@contextmanager
def row_loop_spy(path):
    """A spy on the columnar pass over `path`.  It yields a function that
    tells, after the load, whether some run after the header was not taken a
    column at a time: `_plain_rows` refused it, or it was never offered (a
    run `_plain` refuses goes to the csv module with the rest of the file)."""
    real_plain_rows, taken = ingest._plain_rows, []  # the lines of each run taken

    def plain_rows(run, *args):
        ok = real_plain_rows(run, *args)
        taken.append(run.count(b"\n") if ok else 0)
        return ok

    with mock.patch.object(ingest, "_plain_rows", plain_rows):
        yield lambda: sum(taken) < len(path.read_bytes().splitlines()) - 1


def short_runs(run_bytes):
    """Runs of `run_bytes`, so that a file of a few lines spans several."""
    return mock.patch.object(row_reader, "_RUN_BYTES", run_bytes)


def write_bare(path, rows):
    """Write `rows` as bare cells, one `\n`-ended line each."""
    path.write_text("".join(f"{line}\n" for line in [HEADER, *map(",".join, rows)]),
                    encoding="utf-8")


def assert_same_outcome(path, undecodable_line=None):
    """`load_yields` and the reference give equal panels, or the same error.
    Where the reference cannot decode the file, `load_yields` raises a
    ParseError naming `undecodable_line`, the line with the bad byte."""
    def outcome_of(loader):
        try:
            return loader(path, IDS)
        except (DefiParityError, ValueError) as exc:  # UnicodeDecodeError too
            return exc

    got, want = outcome_of(load_yields), outcome_of(reference_load_yields)
    if isinstance(want, UnicodeDecodeError):
        assert type(got) is ParseError and got.line == undecodable_line
        assert str(got).startswith(f"{path}:{undecodable_line}: not UTF-8: byte 0xff")
    elif isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


def big_rows(seed, shuffled):
    """About 10 000 rows of bare cells (several 64 KB runs), each (id, day) once."""
    rng = random.Random(seed)
    rows = [[(START + dt.timedelta(days=day)).isoformat(), pid,
             rng.choice(PLAIN_APY_FORMATS)(rng.randint(-9_999, 5_000))]
            for day in range(3_000) for pid in IDS if rng.random() < 0.85]
    if shuffled:
        rng.shuffle(rows)
    return rows


def first_row_after(rows, offset):
    """The index of the first row whose line starts `offset` bytes or more
    past the header, or len(rows)."""
    start = 0
    for i, row in enumerate(rows):
        if start >= offset:
            return i
        start += len(",".join(row)) + 1
    return len(rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys), run_bytes=st.integers(32, 160))
def test_plain_file_never_reaches_the_row_loop(tmp_path_factory, rows, run_bytes):
    path = tmp_path_factory.mktemp("columns") / "yields.csv"
    write_bare(path, rows)
    with short_runs(run_bytes), row_loop_spy(path) as read_by_row, mock.patch.object(
            ingest, "_checked_yield_row") as checked:
        got = load_yields(path, IDS)
    assert not read_by_row() and not checked.called
    assert got == reference_load_yields(path, IDS)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys))
def test_single_row_file_loads_equal(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("single") / "yields.csv"
    write_bare(path, rows[:1])
    with row_loop_spy(path) as read_by_row, mock.patch.object(
            ingest, "_checked_yield_row") as checked:
        got = load_yields(path, IDS)
    assert not read_by_row() and not checked.called
    assert got == reference_load_yields(path, IDS)
    assert sum(len(s) for s in got.series.values()) == 1


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), shuffled=st.booleans())
def test_large_plain_files_load_equal(tmp_path_factory, seed, shuffled):
    path = tmp_path_factory.mktemp("large") / "yields.csv"
    write_bare(path, big_rows(seed, shuffled))
    assert path.stat().st_size > 3 * row_reader._RUN_BYTES
    with row_loop_spy(path) as read_by_row, mock.patch.object(
            ingest, "_checked_yield_row") as checked:
        got = load_yields(path, IDS)
    assert not read_by_row() and not checked.called
    assert got == reference_load_yields(path, IDS)


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_crlf_and_lf_files_load_bit_equal(tmp_path_factory, seed):
    rows = big_rows(seed, shuffled=True)
    lf, crlf = (tmp_path_factory.mktemp("ends") / name for name in ("lf.csv", "crlf.csv"))
    lf.write_bytes(file_bytes(rows))
    crlf.write_bytes(file_bytes(rows, newline="\r\n", end="\r\n"))
    assert crlf.stat().st_size > 3 * row_reader._RUN_BYTES
    with row_loop_spy(crlf) as crlf_by_row, mock.patch.object(
            ingest, "_checked_yield_row") as checked:
        got = load_yields(crlf, IDS)
    assert not crlf_by_row() and not checked.called
    want = load_yields(lf, IDS)
    assert list(got.series) == list(want.series)
    for pid, series in want.series.items():
        assert got.series[pid].ordinals.tobytes() == series.ordinals.tobytes()
        assert got.series[pid].levels.tobytes() == series.levels.tobytes()


def non_utf8(rows, i):
    """Row i's id gains a byte that is not UTF-8."""
    return {i: f"{rows[i][0]},{rows[i][1]}\udcff,{rows[i][2]}"}


def duplicate_of(rows, i, j):
    """Row i repeats row j's id and date."""
    return {i: f"{rows[j][0]},{rows[j][1]},0.01"}


def file_bytes(rows, lines=None, newline="\n", end="\n"):
    """The file of `rows` as bare cells, with the lines in `lines` (row
    index -> text) instead of theirs; `\udcff` stands for the byte 0xff."""
    lines = lines or {}
    text = newline.join([HEADER, *(lines.get(i, ",".join(row)) for i, row in enumerate(rows))])
    return (text + end).encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("kind", ["non_utf8", "duplicate"])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_large_file_with_a_late_irregular_row(tmp_path_factory, kind, seed, data):
    """A bad byte, or a repeat of a row of the first run, in a later run."""
    rows = big_rows(seed, shuffled=True)
    later = first_row_after(rows, row_reader._RUN_BYTES)
    assert later < len(rows) // 2
    i = data.draw(st.integers(later, len(rows) - 1))
    if kind == "non_utf8":
        lines = non_utf8(rows, i)
    else:
        lines = duplicate_of(rows, i, data.draw(st.integers(0, later // 2)))
    path = tmp_path_factory.mktemp("late") / "yields.csv"
    path.write_bytes(file_bytes(rows, lines))
    assert_same_outcome(path, undecodable_line=i + 2)


@pytest.mark.parametrize("kind", ["quoted_id", "blank_line"])
def test_late_irregular_line_file_is_read_once(tmp_path, kind):
    """Past three runs of plain rows comes the file's one irregular line.
    The file is opened once; the plain runs are read a column at a time, so
    none of their rows takes the checked parse, and the rest by row."""
    rows = big_rows(11, shuffled=True)
    # a run is _RUN_BYTES and the rest of the line it ends in
    i = first_row_after(rows, 3 * row_reader._RUN_BYTES + 1_000)
    assert i < len(rows)
    date, pid, apy = rows[i]
    line = f'{date},"{pid}",{apy}' if kind == "quoted_id" else f"\n{date},{pid},{apy}"
    path = tmp_path / "yields.csv"
    path.write_bytes(file_bytes(rows, {i: line}))
    data = path.read_bytes()
    plain_lines = data.count(b"\n", 0, data.rfind(b"\n", 0, 3 * row_reader._RUN_BYTES) + 1)
    with mock.patch.object(row_reader, "open", wraps=open, create=True) as opens, \
            mock.patch.object(ingest, "_checked_yield_row",
                              wraps=ingest._checked_yield_row) as checked:
        got = load_yields(path, IDS)
    assert opens.call_count == 1
    assert checked.called
    assert min(call.args[2] for call in checked.call_args_list) > plain_lines
    assert got == reference_load_yields(path, IDS)


@pytest.mark.parametrize("kind", ["blank_line", "percent", "padded_id", "quoted_id"])
def test_early_irregular_line_is_read_by_row_alone(tmp_path, kind):
    """The file's one irregular line is in its first run.  A blank line, a
    `%` or a padded id sends that run alone through the row loop, so only its
    lines take the checked parse and every later run is read a column at a
    time.  A quoted cell that closes on its line sends that run alone to the
    csv module, so it is never offered a column at a time, and the same holds."""
    rows = big_rows(12, shuffled=True)
    date, pid, apy = rows[5]
    line = {"blank_line": f"\n{date},{pid},{apy}", "percent": f"{date},{pid},1.5%",
            "padded_id": f"{date}, {pid} ,{apy}", "quoted_id": f'{date},"{pid}",{apy}'}[kind]
    path = tmp_path / "yields.csv"
    path.write_bytes(file_bytes(rows, {5: line}))
    data = path.read_bytes()
    # the first run is _RUN_BYTES past the header and the rest of that line
    header_end = data.index(b"\n") + 1
    first_run_end = data.index(b"\n", header_end + row_reader._RUN_BYTES) + 1
    first_run_lines = data.count(b"\n", 0, first_run_end)
    real_plain_rows, columnar = ingest._plain_rows, []  # whether each run read as columns

    def plain_rows(*args):
        columnar.append(real_plain_rows(*args))
        return columnar[-1]

    with mock.patch.object(ingest, "_plain_rows", plain_rows), \
            mock.patch.object(ingest, "_checked_yield_row",
                              wraps=ingest._checked_yield_row) as checked:
        got = load_yields(path, IDS)
    assert got == reference_load_yields(path, IDS)
    checked_lines = [call.args[2] for call in checked.call_args_list]
    if kind == "quoted_id":
        assert len(columnar) > 1 and all(columnar)
    else:
        assert columnar[0] is False and len(columnar) > 1 and all(columnar[1:])
    assert all(lineno <= first_run_lines for lineno in checked_lines)


def test_blank_lines_that_end_a_run_count_before_a_later_repeat(tmp_path):
    """In runs of one byte and the rest of its line, two blank lines make a
    run of their own, read by row.  The runs after them are taken a column at
    a time, and a repeat there is named by its line, the blank lines counted."""
    rows = [[(START + dt.timedelta(days=day)).isoformat(), "aave", "0.01"] for day in range(4)]
    path = tmp_path / "yields.csv"
    path.write_bytes(file_bytes(rows, {1: "\n\n" + ",".join(rows[1]), 3: ",".join(rows[0])}))
    with short_runs(1), pytest.raises(DuplicateObservation, match=r"yields\.csv:7: "):
        load_yields(path, IDS)
    assert_same_outcome(path)


# kind -> whether some run after the header of the file it makes is not
# taken a column at a time
IRREGULAR = {
    "blank_line": True,
    "trailing_blank_line": True,
    "crlf": False,  # each `\r\n` is read as `\n`
    "quoted_id": True,
    "percent": True,
    "padded_date_or_id": True,
    "no_final_newline": True,
    "non_utf8_later_run": True,
    "two_then_four_fields": True,
    "four_then_two_fields": True,
    "duplicate_across_runs": False,  # found on the sorted keys either way
    "padded_apy": False,  # `float` reads it, as the row loop's plain rows do
}


@pytest.mark.parametrize("kind", sorted(IRREGULAR))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys).filter(lambda r: len(r) >= 8),
       run_bytes=st.integers(32, 64), data=st.data())
def test_one_irregular_feature_same_outcome(tmp_path_factory, kind, rows, run_bytes, data):
    """A file of bare cells but for one feature loads as the reference loads
    it, or fails with the same error at the same line.  Two adjacent lines
    of 2 and 4 fields that split into valid cells if the line ends are taken
    for commas are rejected at the first of them."""
    later = first_row_after(rows, run_bytes)  # rows from here start in a later run
    i = data.draw(st.integers(0, len(rows) - 2))
    date, pid, apy = rows[i]
    pad = data.draw(st.sampled_from([" ", "\t"]))
    kw, bad_row = {}, None
    if kind == "blank_line":
        kw["lines"] = {i: f"\n{date},{pid},{apy}"}
    elif kind == "trailing_blank_line":
        kw["end"] = "\n\n"
    elif kind == "crlf":
        kw["newline"] = kw["end"] = "\r\n"
    elif kind == "quoted_id":
        kw["lines"] = {i: f'{date},"{pid}",{apy}'}
    elif kind == "percent":
        kw["lines"] = {i: f"{date},{pid},{data.draw(st.integers(-99, 50))}%"}
    elif kind == "padded_date_or_id":
        kw["lines"] = {i: data.draw(st.sampled_from(
            [f"{pad}{date},{pid},{apy}", f"{date},{pid}{pad},{apy}"]))}
    elif kind == "padded_apy":
        kw["lines"] = {i: f"{date},{pid},{pad}{apy}{pad}"}
    elif kind == "no_final_newline":
        kw["end"] = ""
    elif kind == "non_utf8_later_run":
        bad_row = data.draw(st.integers(later, len(rows) - 1))
        kw["lines"] = non_utf8(rows, bad_row)
    elif kind == "duplicate_across_runs":
        j = data.draw(st.integers(0, later - 2))  # ends before the first run does
        kw["lines"] = duplicate_of(rows, data.draw(st.integers(later, len(rows) - 1)), j)
    elif kind == "two_then_four_fields":
        kw["lines"] = {i: f"{date},{pid}", i + 1: ",".join([apy, *rows[i + 1]])}
    else:
        kw["lines"] = {i: ",".join([*rows[i], rows[i + 1][0]]),
                       i + 1: ",".join(rows[i + 1][1:])}
    path = tmp_path_factory.mktemp("irregular") / "yields.csv"
    path.write_bytes(file_bytes(rows, **kw))
    with short_runs(run_bytes), row_loop_spy(path) as read_by_row:
        assert_same_outcome(path, None if bad_row is None else bad_row + 2)
    assert read_by_row() is IRREGULAR[kind]
