"""Error types shared across the package, and its one file boundary.

Files are opened here only: every read, write and JSON parse of outside
input goes through ``read_bytes``, ``write_text``, ``parse_json``,
``parse_json_chunks`` (a JSON Lines stream, its line-numbered documents 64
lines at a time) and ``read_parsed`` (a file through any parser, its errors
prefixed with the path), so an unreadable or unwritable path, non-UTF-8
bytes, malformed or too deeply nested JSON and an integer literal past
CPython's int-string limit each become a DataError in one place, and every
input file loads one way.
``non_negative_number`` is the one check that a parsed JSON value is a
finite, non-negative number, and ``csv_name`` the one quoting of a name
written into a CSV field.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable, Iterator
from contextlib import suppress
from itertools import islice, repeat
from operator import itemgetter
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


def csv_name(name: str) -> str:
    """A name as one CSV field: quoted, its quotes doubled, if it holds a comma, a
    double quote, CR or LF (RFC 4180); otherwise as it is."""
    return '"' + name.replace('"', '""') + '"' if set(name) & set(',"\r\n') else name


def parse_json(data: bytes | str, what: str) -> object:
    """Decode UTF-8 bytes (a str passes through) and parse one JSON document.

    ``ValueError`` covers ``JSONDecodeError``, ``UnicodeDecodeError`` and the int-string
    limit that a literal of over 4300 digits hits; ``RecursionError``, too deep a nesting.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} JSON is not valid UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise DataError(f"invalid {what} JSON: {exc}") from None


_DECODER = json.JSONDecoder()
CHUNK_LINES = 64  # lines read, decoded and scanned at a time


def parse_json_chunks(data: bytes | str, what: str) -> Iterator[tuple[list[int], list[object]]]:
    """Yield ``(line numbers, documents)`` for the non-empty lines of a JSON Lines
    stream, up to CHUNK_LINES lines at a time, accepting exactly what ``json.loads``
    accepts for each line.

    Lines end at ``"\n"`` only and are numbered from 1, empty ones included; a
    bytes stream is read a chunk at a time, never copied whole, and its lines
    are decoded as UTF-8. Only JSON's whitespace (space, tab, CR, LF) may
    surround a document; ``str.strip()`` would also drop Unicode spaces that
    JSON rejects. A chunk is decoded and scanned in one pass each; at the first
    line that is not one document, the documents before it are yielded and
    ``DataError("malformed <what> at line N: invalid JSON")`` is raised, so no
    line is scanned twice.
    """
    scan, is_bytes = _DECODER.scan_once, isinstance(data, bytes)
    newline = b"\n" if is_bytes else "\n"
    lines = io.BytesIO(data) if is_bytes else io.StringIO(data, newline="\n")
    start = 1
    while chunk := list(islice(lines, CHUNK_LINES)):
        numbers = [n for n, line in enumerate(chunk, start) if line != newline]
        start += len(chunk)
        docs, scanned = [], []  # each extend keeps what it made before a bad line stopped it
        kept = filter(newline.__ne__, chunk)
        with suppress(ValueError):  # UnicodeDecodeError
            docs.extend(map(str.strip, map(bytes.decode, kept) if is_bytes else kept, repeat(" \t\n\r")))
        with suppress(ValueError, RecursionError):  # JSONDecodeError, the int-string limit, deep nesting
            scanned.extend(map(scan, docs, repeat(0)))  # a line that starts no document ends it short
        good, ends = len(scanned), list(map(len, docs))
        if list(map(itemgetter(1), scanned)) != ends[:good]:  # a document that ends before its line
            good = next(i for i, ((_, end), n) in enumerate(zip(scanned, ends)) if end != n)
        objs = list(map(itemgetter(0), scanned[:good]))
        del chunk, docs, scanned  # this, the del below and the caller's hold one chunk at a time
        yield numbers[:good], objs
        del objs
        if good < len(numbers):
            raise DataError(f"malformed {what} at line {numbers[good]}: invalid JSON")


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
