"""`rows._read_rows` against the csv-only row reader of the reference loader.

`_read_rows` splits a plain run of lines on commas itself and hands the first
other run, with the rest of the file, to one `csv.reader`.  Each file here is
a prefix of plain lines, then one feature, then more plain lines; both readers
must give the same rows, or the same error type, message and line.  The
features that need the csv module (a quote, a lone CR, a NUL, a line longer
than the field size limit) must build a reader; no other may.  Where the
reference cannot decode a byte that is not UTF-8, `_read_rows` must raise a
ParseError at the line `bytes.splitlines` puts the byte on, a lone CR ending
a line, with the message of that line decoded alone.
"""

import ast
import csv
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defiparity import rows
from defiparity.errors import ParseError
from reference_loader import _read_rows as reference_read_rows

HEADER = ["a", "b", "c"]
NEEDS_CSV = {"quoted_comma", "quoted_newline", "quoted_header", "lone_cr", "nul", "long_field",
             "non_utf8_after_lone_cr"}
FEATURES = sorted(NEEDS_CSV | {
    "crlf", "blank", "whitespace", "field_count", "no_final_newline", "bad_header", "empty",
    "non_utf8",
})

# \v, \f, \x1c, \x85 and \u2028 end a line for str.splitlines, not for csv
cells = st.text(alphabet="xyz09.;-é \t\v\f\x1c\x85\u2028", max_size=6)
plain_lines = st.lists(cells, min_size=3, max_size=3).map(",".join)


@st.composite
def files(draw):
    """(feature, file text, csv field size limit or None for the default);
    a lone surrogate in the text, such as `\\udcff`, stands for a byte
    that is not UTF-8 (0xff)."""
    feature = draw(st.sampled_from(FEATURES))
    if feature == "empty":
        return feature, "", None
    header, middle, newline, end, limit = "a,b,c", [], "\n", "\n", None
    x, y, z = draw(plain_lines).split(",")
    if feature == "quoted_comma":
        middle = [f'{x},"{y},{z}",{x}']
    elif feature == "quoted_newline":
        middle = [f'{x},"{y}\n{z}",{x}']
    elif feature == "quoted_header":
        header = draw(st.sampled_from(['"a",b,c', 'a,"b",c', 'a,b," c "']))
    elif feature == "lone_cr":
        middle = [f"{x},{y},{z}\r{draw(plain_lines)}"]
    elif feature in ("non_utf8", "non_utf8_after_lone_cr"):
        # a stray continuation byte, or a lead byte without its continuation,
        # inside a cell or ending the line
        bad = draw(st.sampled_from(["\udcff", "\udc80", "\udcc3"]))
        middle = [draw(st.sampled_from([f"{x},{y}{bad},{z}", f"{x},{y},{z}{bad}"]))]
        if feature == "non_utf8_after_lone_cr":
            middle[:0] = [f"{x},{y},{z}\r{draw(plain_lines)}",
                          *draw(st.lists(plain_lines, max_size=2))]
    elif feature == "nul":
        middle = [f"{x},{y}\0,{z}"]
    elif feature == "long_field":
        limit = draw(st.integers(12, 24))
        middle = [f"{x},{'w' * draw(st.integers(limit - 1, limit + 1))},{z}"]
    elif feature == "crlf":
        newline = end = "\r\n"
    elif feature == "blank":
        middle = [""] * draw(st.integers(1, 3))
    elif feature == "whitespace":
        middle = [draw(st.sampled_from([" ", "\t", " , ,\t", ",,"]))]
    elif feature == "field_count":
        middle = [draw(st.sampled_from([f"{x},{y}", f"{x},{y},{z},{x}", x]))]
    elif feature == "no_final_newline":
        end = ""
    else:
        header = draw(st.sampled_from(["", "a,b", "a,b,d", "a,b,c,", "b,a,c"]))
    lines = [header, *draw(st.lists(plain_lines, max_size=6)), *middle,
             *draw(st.lists(plain_lines, max_size=4))]
    return feature, newline.join(lines) + end, limit


@contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def outcome(read_rows, path):
    try:
        return list(read_rows(path, HEADER))
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    except UnicodeDecodeError:  # the reference's: name the first line that holds one
        for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError, (f"{path}:{lineno}: not UTF-8: byte {line[exc.start]:#04x} "
                                    f"at byte {exc.start + 1} ({exc.reason})"), lineno
        raise


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(files())
def test_rows_and_errors_equal_the_csv_reader(tmp_path_factory, case):
    feature, text, limit = case
    path = tmp_path_factory.mktemp("rows") / "file.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with field_size_limit(limit):
        want = outcome(reference_read_rows, path)
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            got = outcome(rows._read_rows, path)
    assert got == want
    assert reader.called is (feature in NEEDS_CSV)


def test_hand_off_error_names_the_physical_line(tmp_path):
    # the quoted newline makes row 3 span lines 3 and 4; the NUL is in row 5,
    # on line 6: a row is named by the line it starts on, a csv error by the
    # line csv reads
    path = tmp_path / "file.csv"
    path.write_text('a,b,c\nx,y,z\nx,"y\nz",w\nx,y,z\nx,\0,z\n', encoding="utf-8")
    got = outcome(rows._read_rows, path)
    assert got == outcome(reference_read_rows, path)
    if isinstance(got, tuple):  # csv rejects NUL bytes before Python 3.11
        assert got[2] == 6
    else:
        assert [lineno for lineno, _ in got] == [2, 3, 5, 6]


def test_field_opened_after_a_literal_quote_goes_on_past_its_run(tmp_path, monkeypatch):
    """Line 2 holds two quotes, but the first is a literal one inside an
    unquoted field, so the second opens a field that line 3 closes.  The run
    that ends on line 2 is not read alone: it goes to csv with the rest."""
    path = tmp_path / "file.csv"
    path.write_bytes(b'a,b,c\nx"y,"z\nw",v\nx,y,z\n')
    monkeypatch.setattr(rows, "_RUN_BYTES", 1)  # a run is one line
    got = outcome(rows._read_rows, path)
    assert got == outcome(reference_read_rows, path)
    assert got == [(2, ['x"y', "z\nw", "v"]), (4, ["x", "y", "z"])]


@pytest.mark.parametrize("module, allowed", [("rows", {"errors"}), ("errors", set())])
def test_imports_only_the_standard_library(module, allowed):
    """`rows` and `errors` import no NumPy and no package module but
    `errors`, so a command that reads only CSV rows need not load NumPy or
    the rest of the package."""
    tree = ast.parse(Path(rows.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    outside, inside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            inside.update([node.module] if node.module else
                          [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.partition(".")[0])
    assert inside <= allowed
    assert outside <= sys.stdlib_module_names
