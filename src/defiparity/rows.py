"""The row reader that every CSV goes through, the loaders' inputs and the
ledgers `report` reads; it imports no package module but `errors`.

A file is read as its header line and then runs of whole lines.  A run of
plain lines is split on `\n` and commas, or taken by the caller (`take`);
csv reads any other run alone where no quoted field can go on past it, else
that run and the rest of the file.  So the first bad row or byte is the
error raised, and a row is named by the line it starts on.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator

from .errors import ParseError

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
