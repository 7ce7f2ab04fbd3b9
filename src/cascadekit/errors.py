"""Error types shared across the package, and its one file boundary.

Files are opened here only: every read, write and JSON parse of outside
input goes through ``read_bytes``, ``write_text``, ``parse_json``,
``parse_json_lines`` and ``read_json``, so an unreadable or unwritable path,
non-UTF-8 bytes, malformed JSON and an integer literal past CPython's
int-string limit each become a DataError in one place.
``non_negative_number`` is the one check that a parsed JSON value is a
finite, non-negative number.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable


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


def parse_json_lines(lines: Iterable[str], what: str) -> list[object]:
    """Parse each line as one JSON document, accepting exactly what ``json.loads``
    accepts for that line.

    Only JSON's whitespace (space, tab, CR, LF) may surround a document;
    ``str.strip()`` would also drop Unicode spaces that JSON rejects. The first
    line that is not one document raises a DataError.
    """
    decode = _DECODER.raw_decode
    docs = []
    for line in lines:
        doc = line.strip(" \t\n\r")
        try:
            obj, end = decode(doc)
        except ValueError as exc:  # JSONDecodeError, or the int-string limit
            raise DataError(f"invalid {what} JSON: {exc}") from None
        if end != len(doc):
            raise DataError(f"invalid {what} JSON: extra data after the document")
        docs.append(obj)
    return docs


def read_json(path: str, what: str) -> object:
    data = read_bytes(path, what)
    try:
        return parse_json(data, what)
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
