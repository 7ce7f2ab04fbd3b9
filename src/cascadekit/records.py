"""Prediction-record ingestion, pairwise alignment, and cost-profile loading.

Record files are JSON Lines: one object per line with exactly the keys
``id`` (string without lone surrogates), ``label`` (0-based class index),
and ``logits`` (array of finite numbers). All records in one file must
share the same logits length. A file parses into one columnar
``RecordTable``; ``align_rows`` checks that two tables hold the same
samples, and ``align_records`` joins them on id into a ``PairedDataset``
with one logits matrix per model.

A file is parsed in one pass, ``CHUNK_LINES`` (64) lines at a time: a chunk's
lines are JSON-scanned together, and C-level column checks let its records
extend the columns in one step. A chunk they decline goes through the record
check one record at a time, so the first bad line raises a line-numbered
``DataError``. All floats go into one float64 buffer, the table's logits, so no
per-row list outlives its chunk. A hand-built ``RecordTable`` goes through the
same build, so it refuses what the parse refuses, without line numbers.

This module imports no numpy: numpy is first loaded when a table's ``labels``
or ``logits`` array is first read, which ``align_records`` does.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from array import array
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter
from types import MappingProxyType, SimpleNamespace
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import CHUNK_LINES, DataError, non_negative_number, parse_json, parse_json_chunks, read_parsed

if TYPE_CHECKING:
    import numpy as np

STAGES = ("memory_lookup", "memory_insert", "model_a", "model_b")


class RecordTable:
    """One model's records, one column each: ids (tuple of unique str), labels
    (int64, N) and logits (float64, N x K), plus ``index``, a read-only map from
    each id to its row, in row order. The labels and the logits, row after row,
    are kept in plain Python arrays; the numpy arrays over them are made on first
    read and are read-only. The logits are the table's own buffer, never a caller's
    array: the parse's, or one filled from a hand-built table's rows. A hand-built
    table needs one label and one logits row per id; numpy arrays and scalars count
    as the Python values they hold. A table is frozen and compares by identity."""

    def __init__(self, ids: Sequence[str], labels: Sequence[int], logits: Sequence[Sequence[float]]) -> None:
        numpy = sys.modules.get("numpy")  # while numpy is not loaded, no value is a numpy object
        kinds = (numpy.ndarray, numpy.generic) if numpy else ()
        ids, labels, rows = (_plain(column, kinds) for column in (ids, labels, logits))
        if not len(ids) == len(labels) == len(rows):
            raise DataError(f"{len(ids)} ids but {len(labels)} labels and {len(rows)} logits rows")
        records = ({"id": i, "label": y, "logits": r} for i, y, r in zip(ids, labels, rows))
        self._set_columns(*_build(iter(lambda: (None, list(islice(records, CHUNK_LINES))), (None, []))))

    def _set_columns(self, index: dict[str, int], labels: array, values: array, k: int) -> None:
        # _labels ("q"): one label per row; _values ("d"): every row's logits, row after row
        for name, value in (("ids", tuple(index)), ("index", MappingProxyType(index)), ("_labels", labels),
                            ("_values", values), ("_k", k)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen RecordTable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def labels(self) -> np.ndarray:
        import numpy as np

        labels = np.frombuffer(self._labels, dtype=np.int64)
        labels.setflags(write=False)
        return labels

    @cached_property
    def logits(self) -> np.ndarray:
        import numpy as np

        logits = np.frombuffer(self._values).reshape(len(self.ids), self._k)
        logits.setflags(write=False)
        return logits

    def predictions(self) -> list[int]:
        """Each row's predicted label: the index of its largest logit, the lowest
        on ties, as ``logits.argmax(axis=1)`` picks it, computed in plain Python."""
        values, k = self._values, self._k
        rows = (values[start:start + k] for start in range(0, len(values), k or 1))
        return [row.index(max(row)) for row in rows]


class PairedDataset:
    """Two models' logits over the same samples, ordered by ascending id (code-point
    order, which is UTF-8 byte order). It holds no derived state: calibration builds
    its score table from these arrays on each call. It compares by identity."""

    def __init__(self, ids: tuple[str, ...], labels: np.ndarray, logits_a: np.ndarray, logits_b: np.ndarray,
                 name_a: str = "model_a", name_b: str = "model_b") -> None:
        self.ids = ids
        self.labels = labels      # int64, N
        self.logits_a = logits_a  # float64, N x K
        self.logits_b = logits_b  # float64, N x K
        self.name_a, self.name_b = name_a, name_b

    def __len__(self) -> int:
        return len(self.ids)

    def swapped(self) -> "PairedDataset":
        """The same arrays with the A/B roles (and names) exchanged."""
        return PairedDataset(self.ids, self.labels, self.logits_b, self.logits_a, self.name_b, self.name_a)

    @property
    def samples(self) -> list[SimpleNamespace]:
        """Rows of Python values (``id``, ``label``, ``logits_a``, ``logits_b``)
        for code that walks samples one at a time; cascadekit reads the arrays."""
        rows = zip(self.ids, self.labels.tolist(), self.logits_a.tolist(), self.logits_b.tolist())
        return [SimpleNamespace(id=i, label=y, logits_a=a, logits_b=b) for i, y, a, b in rows]


class StageCost(NamedTuple):
    energy_wh: float
    latency_ms: float
    current_mah: float | None = None


class CostProfile:
    """Per-invocation energy and latency for each pipeline stage."""

    def __init__(self, stages: dict[str, StageCost] | None = None) -> None:
        self.stages = {} if stages is None else stages

    def energy(self, stage: str) -> float:
        return self.stages[stage].energy_wh

    def latency(self, stage: str) -> float:
        return self.stages[stage].latency_ms


def _shown(rid: str) -> str:
    """An id as messages show it: its repr unless printable, so no id can split an error line."""
    return rid if rid.isprintable() else repr(rid)


def _plain(value: object, numpy_kinds: tuple[type, ...]) -> object:
    """A value of one of ``numpy_kinds`` (numpy's array and scalar types, or none)
    as the Python value it holds, at any depth; lists and tuples become lists."""
    if isinstance(value, numpy_kinds):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v, numpy_kinds) for v in value]
    return value


def _record_from_obj(obj: object, expected_k: int | None) -> tuple[str, int, list]:
    """The one record check: a record's id, label and logits as floats, or a
    DataError naming its first problem."""
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    if obj.keys() != {"id", "label", "logits"}:
        raise DataError("expected exactly keys id, label, logits")
    rid, label, logits = obj["id"], obj["label"], obj["logits"]
    if not isinstance(rid, str):
        raise DataError("id must be a string")
    try:
        rid.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate escape such as "\ud800"
        raise DataError("id is not valid Unicode") from None
    if isinstance(label, bool) or not isinstance(label, int):
        raise DataError("label must be an integer")
    if not isinstance(logits, list) or len(logits) < 2:
        raise DataError("logits must be an array of length >= 2")
    values = logits  # all floats, and a finite sum means every one is finite
    if set(map(type, logits)) != {float} or not math.isfinite(sum(logits)):
        values = []
        for v in logits:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DataError("non-numeric logit")
            try:
                f = float(v)
            except OverflowError:  # an integer literal beyond the float range
                raise DataError("logit out of float range") from None
            if not math.isfinite(f):
                raise DataError("non-finite logit")
            values.append(f)
    if expected_k is not None and len(values) != expected_k:
        raise DataError("inconsistent logits length")
    if not 0 <= label < len(values):
        raise DataError("label out of range")
    return rid, label, values


# problems that a line number follows; a line with any other is a malformed record
_AT_LINE = ("logit out of float range", "non-finite logit", "inconsistent logits length",
            "label out of range", "duplicate id")


def _extend_columns(objs: list, index: dict[str, int], labels: array, logits: array, k: int | None) -> int | None:
    """Add a chunk of records to the columns in one step and return their K when
    C-level column checks show that each passes the record check; else None."""
    if set(map(type, objs)) != {dict} or set(map(len, objs)) != {3}:
        return None
    try:  # with len 3, exactly the three keys; one width for every row
        ids, chunk_labels, rows = zip(*map(itemgetter("id", "label", "logits"), objs))
        "".join(ids).encode("utf-8")
        (width,) = set(map(len, rows))
    except (KeyError, TypeError, ValueError):  # ValueError: an id that is not Unicode, or several widths
        return None
    flat = list(chain.from_iterable(rows))
    if (set(map(type, ids)) != {str} or set(map(type, chunk_labels)) != {int} or set(map(type, rows)) != {list}
            or width < 2 or k not in (None, width) or min(chunk_labels) < 0 or max(chunk_labels) >= width
            or not set(map(type, flat)) <= {int, float} or len(set(ids)) != len(ids)
            or not index.keys().isdisjoint(ids)):
        return None
    try:  # an int past the float range overflows here; the record check names its line
        if not (math.isfinite(sum(flat)) or all(map(math.isfinite, flat))):
            return None
        packed = struct.pack(f"{len(flat)}d", *flat)  # the floats' own bits, faster than extend
    except (OverflowError, struct.error):
        return None
    index.update(zip(ids, range(len(labels), len(labels) + len(ids))))
    labels.extend(chunk_labels)
    logits.frombytes(packed)
    return width


def _build(chunks: Iterable[tuple[Sequence[int] | None, list]]) -> tuple[dict[str, int], array, array, int]:
    """Check each chunk of (line numbers or None, records) in order and return a
    table's columns: each id's row, the int64 labels, every row's logits in one
    float64 buffer, and K (0 with no records). A chunk ``_extend_columns`` declines
    goes through the record check one record at a time: the first bad one raises."""
    index: dict[str, int] = {}  # each id's row, in record order
    labels = array("q")
    logits = array("d")  # every row's floats, row after row
    expected_k: int | None = None
    for numbers, objs in chunks:
        if k := _extend_columns(objs, index, labels, logits, expected_k):
            expected_k = k
        else:
            for line_no, obj in zip(numbers or repeat(None), objs):
                try:
                    rid, label, values = _record_from_obj(obj, expected_k)
                    if rid in index:
                        raise DataError(f"duplicate id {_shown(rid)}")
                except DataError as exc:
                    if line_no is None:
                        raise
                    at_line = f"{exc} at line {line_no}" if str(exc).startswith(_AT_LINE) else (
                        f"malformed record at line {line_no}: {exc}")
                    raise DataError(at_line) from None
                index[rid] = len(labels)
                expected_k = len(values)
                labels.append(label)
                logits.extend(values)
        del objs  # before the next chunk is read, so the parse holds one chunk at a time
    return index, labels, logits, expected_k or 0


def parse_prediction_records(data: bytes | str) -> RecordTable:
    """Parse a UTF-8 JSON Lines stream into a validated record table.

    Enforces one record per non-empty line, a consistent logits length
    across the file, labels within range, finite logits, and unique ids;
    the first bad line raises its line-numbered DataError.
    """
    table = object.__new__(RecordTable)  # over the parse's own columns, not copies
    table._set_columns(*_build(parse_json_chunks(data, "record")))
    return table


def format_prediction_records(table: RecordTable) -> str:
    """Render a table back to JSON Lines; re-parsing yields an identical table."""
    lines = [
        json.dumps({"id": rid, "label": label, "logits": row}, separators=(",", ":"))
        for rid, label, row in zip(table.ids, table.labels.tolist(), table.logits.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def load_prediction_records(path: str) -> RecordTable:
    return read_parsed(path, "record file", parse_prediction_records)


def align_rows(
    a: RecordTable, b: RecordTable
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The alignment check, in plain Python: every id must appear in both tables
    with the same label and logits length. Returns the ids in ascending order
    (code-point order, which is byte-lexicographic on UTF-8), their labels, and
    each id's row in ``a`` and in ``b``."""
    if not len(a) or not len(b):
        raise DataError("cannot align empty record lists")
    if a._k != b._k:
        raise DataError(f"logits length mismatch between files: {a._k} vs {b._k}")
    index_a, index_b = a.index, b.index
    if index_a.keys() != index_b.keys():
        for rid in (*index_a, *index_b):
            if rid not in index_a or rid not in index_b:
                raise DataError(f"unmatched id {_shown(rid)}")
    ids = tuple(sorted(index_a))
    rows_a, rows_b = _pick(index_a, ids), _pick(index_b, ids)
    labels, labels_b = _pick(a._labels, rows_a), _pick(b._labels, rows_b)
    if labels != labels_b:
        rid = next(rid for rid, y, z in zip(ids, labels, labels_b) if y != z)
        raise DataError(f"label disagreement for {_shown(rid)}")
    return ids, labels, rows_a, rows_b


def _pick(items, keys: Sequence) -> tuple:
    """``items[key]`` for each key, in one C-level pass (``itemgetter`` of one key returns the bare item)."""
    return itemgetter(*keys)(items) if len(keys) != 1 else (items[keys[0]],)


def align_records(
    a: RecordTable,
    b: RecordTable,
    name_a: str = "model_a",
    name_b: str = "model_b",
) -> PairedDataset:
    """Join two models' record tables on sample id: the ``align_rows`` check,
    then each table's rows gathered into new arrays in ascending id order."""
    import numpy as np

    ids, _, rows_a, rows_b = align_rows(a, b)
    rows_a, rows_b = (np.fromiter(rows, np.intp, len(ids)) for rows in (rows_a, rows_b))
    return PairedDataset(ids, a.labels[rows_a], a.logits[rows_a], b.logits[rows_b], name_a, name_b)


def parse_cost_profile(data: bytes | str) -> CostProfile:
    """Parse a cost-profile JSON document.

    Schema: ``{"stages": {<stage>: {"energy_wh": f, "latency_ms": f}}}`` with
    all four stages present and finite, non-negative values. A per-stage
    ``current_mah`` and a top-level ``comments`` field are optional.
    """
    obj = parse_json(data, "cost-profile")
    if not isinstance(obj, dict) or "stages" not in obj:
        raise DataError("cost profile must be an object with a 'stages' key")
    stages_obj = obj["stages"]
    if not isinstance(stages_obj, dict):
        raise DataError("'stages' must be an object")
    unknown = set(stages_obj) - set(STAGES)
    if unknown:
        raise DataError(f"unknown stage(s) in cost profile: {', '.join(sorted(unknown))}")
    missing = set(STAGES) - set(stages_obj)
    if missing:
        raise DataError(f"missing stage(s) in cost profile: {', '.join(sorted(missing))}")
    stages: dict[str, StageCost] = {}
    for name in STAGES:
        entry = stages_obj[name]
        if not isinstance(entry, dict):
            raise DataError(f"stage {name} must be an object")
        for key in ("energy_wh", "latency_ms"):
            if key not in entry:
                raise DataError(f"stage {name} missing {key}")
        current = entry.get("current_mah")
        stages[name] = StageCost(
            non_negative_number(entry["energy_wh"], f"stage {name} energy_wh"),
            non_negative_number(entry["latency_ms"], f"stage {name} latency_ms"),
            None if current is None else non_negative_number(current, f"stage {name} current_mah"),
        )
    return CostProfile(stages)


def load_cost_profile(path: str) -> CostProfile:
    return read_parsed(path, "cost profile", parse_cost_profile)
