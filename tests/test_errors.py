"""The file boundary: every reader and writer turns bad files into DataError."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit.calibration import load_config
from cascadekit.errors import (
    DataError,
    non_negative_number,
    parse_json,
    parse_json_chunks,
    read_bytes,
    read_parsed,
    write_text,
)
from cascadekit.metering import load_report
from cascadekit.records import load_cost_profile, load_prediction_records

READERS = {
    "config": load_config,
    "report": load_report,
    "records": load_prediction_records,
    "cost_profile": load_cost_profile,
}

# file contents that no reader accepts; None means the path does not exist
BAD_FILES = {
    "missing": None,
    "directory": "dir",
    "non_utf8": b'{"x": "\xff\xfe"}\n',
    "invalid_json": b"{]\n",
    "huge_integer": b"[" + b"1" * 4400 + b"]\n",  # past CPython's int-string limit
    "deeply_nested": b'{"a":' * 100000 + b"[" * 200000 + b"\n",  # past the decoder's recursion limit
}


def bad_file(tmp_path, kind: str) -> str:
    """A path to the bad input ``kind`` of BAD_FILES."""
    path = tmp_path / "input.json"
    content = BAD_FILES[kind]
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("kind", sorted(BAD_FILES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_rejects_bad_files(tmp_path, reader, kind):
    with pytest.raises(DataError):
        READERS[reader](bad_file(tmp_path, kind))


def test_read_bytes_names_what_and_path(tmp_path):
    path = str(tmp_path / "missing.bin")
    with pytest.raises(DataError, match=f"^cannot read image {re.escape(path)}: "):
        read_bytes(path, "image")
    with pytest.raises(DataError, match=f"^cannot read image {re.escape(str(tmp_path))}: "):
        read_bytes(str(tmp_path), "image")


def test_write_text_into_missing_directory(tmp_path):
    path = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(DataError, match=f"^cannot write {re.escape(path)}: "):
        write_text(path, "x")


def test_write_text_round_trips_utf8(tmp_path):
    path = tmp_path / "out.txt"
    write_text(str(path), "λ=0.5\n")
    assert path.read_bytes() == "λ=0.5\n".encode()
    assert read_bytes(str(path), "text") == "λ=0.5\n".encode()


def parse_json_lines(data: bytes | str, what: str):
    """The chunk reader flattened: ``(line number, document)`` for each non-empty
    line, lazily, so the lines before a bad one come out before its error."""
    for numbers, docs in parse_json_chunks(data, what):
        yield from zip(numbers, docs, strict=True)


def test_parse_json_accepts_bytes_and_str():
    assert parse_json(b'{"a": [1, 2.5]}', "test") == {"a": [1, 2.5]}
    assert parse_json('{"a": null}', "test") == {"a": None}


@pytest.mark.parametrize(
    "data, message",
    [
        (b'"\xff"', "^test JSON is not valid UTF-8: "),
        ("{", "^invalid test JSON: "),
        (b"\xef\xbb\xbf{}", "^invalid test JSON: "),  # a UTF-8 byte-order mark
        ("1" * 4400, "^invalid test JSON: .*limit"),
        ('{"a":' * 100000, "^invalid test JSON: maximum recursion depth exceeded"),
        ("[" * 200000, "^invalid test JSON: maximum recursion depth exceeded"),
    ],
    ids=["non_utf8", "invalid", "bom", "huge_integer", "nested_objects", "nested_arrays"],
)
def test_parse_json_errors(data, message):
    with pytest.raises(DataError, match=message):
        parse_json(data, "test")


@pytest.mark.parametrize(
    "line",
    [
        '{"a": [1, 2.5]}', ' \t{"a":1}\r', "[]", '"x" ', "NaN", "-Infinity", "1e400",
        "", "   ", "\r", "\u00a0{}", "{}\u00a0", "{}\x0b", "\x0c{}", "{}\u2028",
        "\ufeff{}", "{} {}", "{}}", '{"a":1', "1" * 4400, "[" + "9" * 400 + "]",
    ],
)
def test_parse_json_lines_accepts_what_json_loads_accepts(line):
    for data in (line, line.encode("utf-8")):
        if not line:  # an empty line is skipped, not parsed
            assert list(parse_json_lines(data, "test")) == []
            continue
        try:
            want = json.loads(line)
        except ValueError:
            with pytest.raises(DataError, match="^malformed test at line 1: invalid JSON$"):
                list(parse_json_lines(data, "test"))
        else:
            got = list(parse_json_lines(data, "test"))
            assert repr(got) == repr([(1, want)])  # repr: NaN != NaN


def test_parse_json_lines_keeps_order_and_stops_at_a_bad_line():
    docs = list(parse_json_lines('1\n{"b": 2}\n[3.0]', "test"))
    assert docs == [(1, 1), (2, {"b": 2}), (3, [3.0])]
    docs = parse_json_lines("1\n{\n2", "test")
    assert next(docs) == (1, 1)
    with pytest.raises(DataError, match="^malformed test at line 2: invalid JSON$"):
        next(docs)


@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_parse_json_lines_numbers_lines_across_empty_lines_and_crlf(as_bytes):
    def parse(text: str) -> list:
        return list(parse_json_lines(text.encode() if as_bytes else text, "test"))

    assert parse("\n1\n\n[2.0]\n\n") == [(2, 1), (4, [2.0])]
    assert parse("1\r\n\n[2.0]\r\n") == [(1, 1), (3, [2.0])]
    # a CRLF blank line is "\r", a line that is not empty and holds no document
    for text, line_no in [("1\n\n{\n2\n", 3), ("1\r\n\n{\r\n2\r\n", 3), ("1\r\n\r\n2\r\n", 2)]:
        with pytest.raises(DataError, match=f"^malformed test at line {line_no}: invalid JSON$"):
            parse(text)


def split_parse_json_lines(data: bytes | str, what: str) -> list[tuple[int, object]]:
    """The line loop that split the whole stream on "\n" before reading it: the
    reference for the streaming reader, which must match it line for line."""
    decode = json.JSONDecoder().raw_decode
    newline = b"\n" if isinstance(data, bytes) else "\n"
    docs = []
    for line_no, line in enumerate(data.split(newline), start=1):
        if not line:
            continue
        try:
            doc = (line.decode("utf-8") if isinstance(line, bytes) else line).strip(" \t\n\r")
            obj, end = decode(doc)
            if end != len(doc):
                raise ValueError("extra data after the document")
        except ValueError:
            raise DataError(f"malformed {what} at line {line_no}: invalid JSON") from None
        docs.append((line_no, obj))
    return docs


def _lines_outcome(fn, data):
    try:
        return repr(list(fn(data, "test")))  # repr: NaN != NaN, and -0.0 shows
    except DataError as exc:
        return str(exc)


# line endings (a lone "\r" ends no line), JSON and non-JSON whitespace, a
# Unicode line separator (only "\n" ends a line), non-ASCII and documents
LINE_PIECES = [
    "\n", "\n", "\r\n", "\r", " ", "\t", "\u2028", "\x85", "\u00a0",
    "1", "[2.0, -0.0]", '{"a": "\u00e9"}', '"\u4e2d"', "NaN", "{", "}",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=12).map("".join))
def test_streamed_lines_match_the_split_reference(text):
    want = _lines_outcome(split_parse_json_lines, text)
    assert _lines_outcome(parse_json_lines, text) == want
    assert _lines_outcome(parse_json_lines, text.encode("utf-8")) == want


@pytest.mark.parametrize(
    "text, want",
    [
        ("\r", "malformed test at line 1: invalid JSON"),  # a lone "\r" is a line, not an end
        ("1\r2\n", "malformed test at line 1: invalid JSON"),
        ("[1, 2]\n{ }\n", "[(1, [1, 2]), (2, {})]"),  # " " inside a line
        ("1\r\n2\r\n", "[(1, 1), (2, 2)]"),  # CRLF
        ("1\n \n2\n", "malformed test at line 2: invalid JSON"),  # whitespace-only lines
        ("1\n\t\r\n", "malformed test at line 2: invalid JSON"),
        ("1\n\n2", "[(1, 1), (3, 2)]"),  # a last line without "\n"
        ("1\n2 3", "malformed test at line 2: invalid JSON"),
        ("", "[]"),
        ("\n\n", "[]"),
    ],
)
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_streamed_lines_edge_cases(text, want, as_bytes):
    data = text.encode("utf-8") if as_bytes else text
    assert _lines_outcome(parse_json_lines, data) == want
    assert _lines_outcome(split_parse_json_lines, data) == want


def test_read_json_prefixes_parse_errors_with_the_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"{")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: invalid test JSON: "):
        read_parsed(str(path), "test", lambda data: parse_json(data, "test"))
    path.write_text('{"ok": true}')
    assert read_parsed(str(path), "test", lambda data: parse_json(data, "test")) == {"ok": True}


def test_non_negative_number():
    assert non_negative_number(0, "x") == 0.0
    assert repr(non_negative_number(3, "x")) == "3.0"
    assert non_negative_number(2.5, "x") == 2.5
    for bad in (True, "1", None, [1]):
        with pytest.raises(DataError, match="^x must be a number$"):
            non_negative_number(bad, "x")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DataError, match="^x must be finite$"):
            non_negative_number(bad, "x")
    for bad in (10**400, -(10**400)):
        with pytest.raises(DataError, match="^x is out of float range$"):
            non_negative_number(bad, "x")
    with pytest.raises(DataError, match="^x must be >= 0$"):
        non_negative_number(-1e-9, "x")
