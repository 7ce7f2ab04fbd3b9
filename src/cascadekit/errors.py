"""Error types shared across the package, and its one file boundary.

Files are opened here only: every read, write and JSON parse of outside
input goes through ``read_bytes``, ``write_text``, ``parse_json``,
``parse_json_lines`` (a JSON Lines stream, one line-numbered document at a
time) and ``read_parsed`` (a file through any parser, its errors prefixed
with the path), so an unreadable or unwritable path, non-UTF-8 bytes,
malformed JSON and an integer literal past CPython's int-string limit each
become a DataError in one place, and every input file loads one way.
``non_negative_number`` is the one check that a parsed JSON value is a
finite, non-negative number.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable, Iterator
from typing import TypeVar

T = TypeVar("T")


class DataError(ValueError):
    """Invalid or inconsistent input data (files, records, images, profiles).

    The CLI maps this to exit code 1; usage errors are argparse's exit 2.
    """


def read_bytes(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def parse_json(data: bytes | str, what: str) -> object:
    """Decode UTF-8 bytes (a str passes through) and parse one JSON document.

    ``ValueError`` covers ``JSONDecodeError``, ``UnicodeDecodeError`` and the
    int-string limit that a literal of over 4300 digits hits.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} JSON is not valid UTF-8: {exc}") from None
    except ValueError as exc:
        raise DataError(f"invalid {what} JSON: {exc}") from None


_DECODER = json.JSONDecoder()


def parse_json_lines(data: bytes | str, what: str) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, document)`` for each non-empty line of a JSON Lines
    stream, accepting exactly what ``json.loads`` accepts for that line.

    Lines end at ``"\n"`` only and are numbered from 1, empty ones included;
    they are read one at a time, so a bytes stream is never copied whole. A
    bytes line is decoded as UTF-8. Only JSON's whitespace (space, tab, CR,
    LF) may surround a document; ``str.strip()`` would also drop Unicode
    spaces that JSON rejects. The first line that is not one document raises
    ``DataError("malformed <what> at line N: invalid JSON")``.
    """
    decode = _DECODER.raw_decode
    newline = b"\n" if isinstance(data, bytes) else "\n"
    lines = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data, newline="\n")
    for line_no, line in enumerate(lines, start=1):
        if line == newline:  # an empty line
            continue
        try:
            doc = (line.decode("utf-8") if isinstance(line, bytes) else line).strip(" \t\n\r")
            obj, end = decode(doc)
            if end != len(doc):
                raise ValueError("extra data after the document")
        except ValueError:  # also UnicodeDecodeError, JSONDecodeError and the int-string limit
            raise DataError(f"malformed {what} at line {line_no}: invalid JSON") from None
        yield line_no, obj


def read_parsed(path: str, what: str, parse: Callable[[bytes], T]) -> T:
    """``parse`` of the file's bytes; its DataError is re-raised as ``"{path}: {message}"``."""
    data = read_bytes(path, what)
    try:
        return parse(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def non_negative_number(value: object, what: str) -> float:
    """A parsed JSON number as a finite float >= 0 (bools are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise DataError(f"{what} is out of float range") from None
    if not math.isfinite(number):
        raise DataError(f"{what} must be finite")
    if number < 0:
        raise DataError(f"{what} must be >= 0")
    return number
