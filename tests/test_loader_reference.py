"""The columnar yields loader against the per-row reference loader.

Valid files have shuffled rows, padding whitespace, `%` APYs and blank
lines; both loaders must give equal panels.  A file with one corrupted row
must make both raise the same error for the same line.  With two corrupted
rows the earlier line wins.  The one known difference: the reference checks
every row's field count before it parses any row, so when the later bad row
has the wrong field count it names that row instead.

The same three checks run again on files of bare cells (no padding, no
`%`), most of whose rows the loader reads without its checked parse, so its
fast path and its sort-time duplicate check meet the reference too.

Dates are plain YYYY-MM-DD, which `date.fromisoformat` reads the same way
on every supported Python version.
"""

import datetime as dt
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defiparity import ingest
from defiparity.errors import (
    DuplicateObservation,
    InvalidApy,
    ParseError,
    UnknownProtocol,
)
from defiparity.ingest import load_yields
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
    """Write `rows` with padded cells and blank lines; returns each row's line."""
    lines, where = ["date,protocol_id,apy"], []
    for row in rows:
        while draw(st.integers(0, 9)) == 9:
            lines.append(draw(st.sampled_from(["", ",,", " , ,\t"])))
        lines.append(",".join(f"{draw(pad)}{cell}{draw(pad)}" for cell in row))
        where.append(len(lines))
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys), data=st.data())
def test_plain_valid_files_load_equal(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("plain") / "yields.csv"
    write_plain(path, rows, data.draw)
    with mock.patch.object(ingest, "_checked_yield_row",
                           wraps=ingest._checked_yield_row) as spy:
        got = load_yields(path, IDS)
    assert got == reference_load_yields(path, IDS)
    # only the first row of each date text needs the checked parse
    assert spy.call_count == len({row[0] for row in rows})


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys).filter(lambda r: len(r) >= 2), data=st.data())
def test_plain_one_bad_row_same_error(tmp_path_factory, kind, rows, data):
    i = data.draw(st.integers(1 if kind == "duplicate" else 0, len(rows) - 1))
    rows = [list(r) for r in rows]
    corrupt(rows, i, kind)
    path = tmp_path_factory.mktemp("plain_bad") / "yields.csv"
    where = write_plain(path, rows, data.draw)
    got, want = outcome(load_yields, path), outcome(reference_load_yields, path)
    assert type(got) is CORRUPTIONS[kind]
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert line_of(got) == where[i]


@pytest.mark.parametrize("first", sorted(CORRUPTIONS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=valid_rows(plain_apys).filter(lambda r: len(r) >= 3), data=st.data())
def test_plain_two_bad_rows_earlier_line_wins(tmp_path_factory, first, rows, data):
    i = data.draw(st.integers(1, len(rows) - 2))
    j = data.draw(st.integers(i + 1, len(rows) - 1))
    second = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
    rows = [list(r) for r in rows]
    corrupt(rows, i, first)
    corrupt(rows, j, second)
    path = tmp_path_factory.mktemp("plain_bad2") / "yields.csv"
    where = write_plain(path, rows, data.draw)
    got, want = outcome(load_yields, path), outcome(reference_load_yields, path)
    assert type(got) is CORRUPTIONS[first]
    assert line_of(got) == where[i]
    if second == "field_count" and first != "field_count":
        assert line_of(want) == where[j]
    else:
        assert type(got) is type(want)
        assert str(got) == str(want)
