"""Prediction-record ingestion, pairwise alignment, and cost-profile loading.

Record files are JSON Lines: one object per line with exactly the keys
``id`` (string without lone surrogates), ``label`` (0-based class index),
and ``logits`` (array of finite numbers). All records in one file must
share the same logits length. A file parses into one columnar
``RecordTable``; ``align_records`` joins two tables on id into a
``PairedDataset`` with one logits matrix per model.

A file is parsed in one pass: each non-empty line is JSON-parsed once and
checked as one record, and the first bad line raises a line-numbered
``DataError``. Each row's floats are appended to one float64 buffer, so no
per-line list outlives its line, and the table's logits are that buffer, not a
copy of it.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .errors import DataError, non_negative_number, parse_json, parse_json_lines, read_parsed

STAGES = ("memory_lookup", "memory_insert", "model_a", "model_b")


@dataclass(frozen=True, eq=False)
class RecordTable:
    """One model's records, one column each: ids (tuple of unique str), labels
    (int64, N) and logits (float64, N x K), plus ``index``, a read-only map from
    each id to its row, in row order. The arrays are read-only copies; a parsed
    table's logits are the parse's own buffer, which nothing else holds. A
    hand-built table gets a parsed table's checks, without line numbers: unique
    ids, one label and one logits row per id, then the parse's value checks."""

    ids: tuple[str, ...]
    labels: np.ndarray
    logits: np.ndarray
    index: MappingProxyType[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for row, rid in enumerate(self.ids):
            if index.setdefault(rid, row) != row:
                raise DataError(f"duplicate id {_shown(rid)}")
        labels, n = np.array(self.labels, dtype=object), len(index)  # keeps each label's type: no bool becomes 1
        try:
            logits = np.array(self.logits)
        except ValueError:  # ragged rows; a short row is named before a length mismatch
            short = any(not hasattr(row, "__len__") or len(row) < 2 for row in self.logits)
            problem = "logits must be an array of length >= 2" if short else "inconsistent logits length"
            raise DataError(problem) from None
        if logits.shape == (0,):  # no rows
            logits = logits.reshape(0, 0)
        if labels.shape != (n,) or logits.ndim != 2 or len(logits) != n:
            raise DataError(f"{n} ids but labels of shape {labels.shape} and logits of shape {logits.shape}")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in labels):
            raise DataError("label must be an integer")
        if n and logits.shape[1] < 2:
            raise DataError("logits must be an array of length >= 2")
        if logits.dtype.kind not in "iuf" or not isinstance(self.logits, np.ndarray):
            # each value as given, as the parse sees it: numpy would read a bool among floats as 1.0
            for v in np.array(self.logits, dtype=object).flat:
                if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, float, np.integer, np.floating)):
                    raise DataError("non-numeric logit")
                try:
                    float(v)
                except OverflowError:  # an integer beyond the float range
                    raise DataError("logit out of float range") from None
        logits = logits.astype(np.float64, copy=False)
        if not np.isfinite(logits).all():
            raise DataError("non-finite logit")
        if not all(0 <= v < logits.shape[1] for v in labels):
            raise DataError("label out of range")
        self._set_columns(index, labels.astype(np.int64), logits)

    @classmethod
    def _adopt(cls, index: dict[str, int], labels, logits: np.ndarray) -> RecordTable:
        """A table over ``index`` (id to row, in row order) and ``logits`` itself
        (float64, N x K), not copies of them."""
        table = object.__new__(cls)
        table._set_columns(index, np.array(labels, dtype=np.int64), logits)
        return table

    def _set_columns(self, index: dict[str, int], labels: np.ndarray, logits: np.ndarray) -> None:
        for column in (labels, logits):
            column.setflags(write=False)
        object.__setattr__(self, "ids", tuple(index))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "index", MappingProxyType(index))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(eq=False)
class PairedDataset:
    """Two models' logits over the same samples, ordered by ascending id (code-point
    order, which is UTF-8 byte order). It holds no derived state: calibration builds
    its score table from these arrays on each call."""

    ids: tuple[str, ...]
    labels: np.ndarray    # int64, N
    logits_a: np.ndarray  # float64, N x K
    logits_b: np.ndarray  # float64, N x K
    name_a: str = "model_a"
    name_b: str = "model_b"

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


@dataclass(frozen=True)
class StageCost:
    energy_wh: float
    latency_ms: float
    current_mah: float | None = None


@dataclass
class CostProfile:
    """Per-invocation energy and latency for each pipeline stage."""

    stages: dict[str, StageCost] = field(default_factory=dict)

    def energy(self, stage: str) -> float:
        return self.stages[stage].energy_wh

    def latency(self, stage: str) -> float:
        return self.stages[stage].latency_ms


def _shown(rid: str) -> str:
    """An id as messages show it: its repr unless printable, so no id can split an error line."""
    return rid if rid.isprintable() else repr(rid)


def _record_from_obj(obj: object, line_no: int, expected_k: int | None) -> tuple[str, int, list]:
    if not isinstance(obj, dict):
        raise DataError(f"malformed record at line {line_no}: expected a JSON object")
    if obj.keys() != {"id", "label", "logits"}:
        raise DataError(
            f"malformed record at line {line_no}: "
            f"expected exactly keys id, label, logits"
        )
    rid = obj["id"]
    label = obj["label"]
    logits = obj["logits"]
    if not isinstance(rid, str):
        raise DataError(f"malformed record at line {line_no}: id must be a string")
    try:
        rid.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate escape such as "\ud800"
        raise DataError(f"malformed record at line {line_no}: id is not valid Unicode") from None
    if isinstance(label, bool) or not isinstance(label, int):
        raise DataError(f"malformed record at line {line_no}: label must be an integer")
    if not isinstance(logits, list) or len(logits) < 2:
        raise DataError(
            f"malformed record at line {line_no}: logits must be an array of length >= 2"
        )
    values = logits  # all floats, and a finite sum means every one is finite
    if set(map(type, logits)) != {float} or not math.isfinite(sum(logits)):
        values = []
        for v in logits:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DataError(f"malformed record at line {line_no}: non-numeric logit")
            try:
                f = float(v)
            except OverflowError:  # an integer literal beyond the float range
                raise DataError(f"logit out of float range at line {line_no}") from None
            if not math.isfinite(f):
                raise DataError(f"non-finite logit at line {line_no}")
            values.append(f)
    if expected_k is not None and len(values) != expected_k:
        raise DataError(f"inconsistent logits length at line {line_no}")
    if not 0 <= label < len(values):
        raise DataError(f"label out of range at line {line_no}")
    return rid, label, values


def parse_prediction_records(data: bytes | str) -> RecordTable:
    """Parse a UTF-8 JSON Lines stream into a validated record table.

    Enforces one record per non-empty line, a consistent logits length
    across the file, labels within range, finite logits, and unique ids;
    the first bad line raises its line-numbered DataError.
    """
    seen: dict[str, int] = {}  # each id's row, in file order
    labels: list[int] = []
    logits = array("d")  # every row's floats, row after row
    expected_k: int | None = None
    for line_no, obj in parse_json_lines(data, "record"):
        rid, label, values = _record_from_obj(obj, line_no, expected_k)
        if rid in seen:
            raise DataError(f"duplicate id {_shown(rid)} at line {line_no}")
        seen[rid] = len(labels)
        expected_k = len(values)
        labels.append(label)
        logits.extend(values)
    return RecordTable._adopt(seen, labels, np.frombuffer(logits).reshape(len(seen), expected_k or 0))


def format_prediction_records(table: RecordTable) -> str:
    """Render a table back to JSON Lines; re-parsing yields an identical table."""
    lines = [
        json.dumps({"id": rid, "label": label, "logits": row}, separators=(",", ":"))
        for rid, label, row in zip(table.ids, table.labels.tolist(), table.logits.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def load_prediction_records(path: str) -> RecordTable:
    return read_parsed(path, "record file", parse_prediction_records)


def align_records(
    a: RecordTable,
    b: RecordTable,
    name_a: str = "model_a",
    name_b: str = "model_b",
) -> PairedDataset:
    """Join two models' record tables on sample id.

    Every id must appear in both tables with the same label and logits
    length; the output is sorted by ascending id (code-point order, which
    is byte-lexicographic on UTF-8).
    """
    if not len(a) or not len(b):
        raise DataError("cannot align empty record lists")
    k_a, k_b = a.logits.shape[1], b.logits.shape[1]
    if k_a != k_b:
        raise DataError(f"logits length mismatch between files: {k_a} vs {k_b}")
    index_a, index_b = a.index, b.index
    if index_a.keys() != index_b.keys():
        for rid in (*index_a, *index_b):
            if rid not in index_a or rid not in index_b:
                raise DataError(f"unmatched id {_shown(rid)}")
    ids = tuple(sorted(index_a))
    rows_a = np.fromiter(map(index_a.__getitem__, ids), np.intp, len(ids))
    rows_b = np.fromiter(map(index_b.__getitem__, ids), np.intp, len(ids))
    labels = a.labels[rows_a]
    disagree = np.flatnonzero(labels != b.labels[rows_b])
    if disagree.size:
        raise DataError(f"label disagreement for {_shown(ids[disagree[0]])}")
    return PairedDataset(ids, labels, a.logits[rows_a], b.logits[rows_b], name_a, name_b)


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
