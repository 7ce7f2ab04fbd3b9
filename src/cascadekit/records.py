"""Prediction-record ingestion, pairwise alignment, and cost-profile loading.

Record files are JSON Lines: one object per line with exactly the keys
``id`` (string), ``label`` (0-based class index), and ``logits`` (array of
finite numbers). All records in one file must share the same logits length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import DataError, non_negative_number, parse_json, read_bytes

STAGES = ("memory_lookup", "memory_insert", "model_a", "model_b")


@dataclass(frozen=True)
class PredictionRecord:
    """One sample's id, true label, and a model's raw logits."""

    id: str
    label: int
    logits: tuple[float, ...]


@dataclass(frozen=True)
class PairedSample:
    id: str
    label: int
    logits_a: tuple[float, ...]
    logits_b: tuple[float, ...]


@dataclass
class PairedDataset:
    """Id-aligned records of two models over the same samples.

    Samples are ordered by ascending id (byte-lexicographic on UTF-8).
    """

    samples: list[PairedSample]
    num_classes: int
    name_a: str = "model_a"
    name_b: str = "model_b"
    # (A, B) per-model arrays that calibration caches; samples must not change after
    columns: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.samples)

    def swapped(self) -> "PairedDataset":
        """Same samples with the A/B columns (and names) exchanged."""
        swapped = [
            PairedSample(s.id, s.label, s.logits_b, s.logits_a) for s in self.samples
        ]
        result = PairedDataset(swapped, self.num_classes, self.name_b, self.name_a)
        result.columns = None if self.columns is None else self.columns[::-1]
        return result


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


def _record_from_obj(obj: object, line_no: int, expected_k: int | None) -> PredictionRecord:
    if not isinstance(obj, dict):
        raise DataError(f"malformed record at line {line_no}: expected a JSON object")
    extra = set(obj) - {"id", "label", "logits"}
    missing = {"id", "label", "logits"} - set(obj)
    if extra or missing:
        raise DataError(
            f"malformed record at line {line_no}: "
            f"expected exactly keys id, label, logits"
        )
    rid = obj["id"]
    label = obj["label"]
    logits = obj["logits"]
    if not isinstance(rid, str):
        raise DataError(f"malformed record at line {line_no}: id must be a string")
    if isinstance(label, bool) or not isinstance(label, int):
        raise DataError(f"malformed record at line {line_no}: label must be an integer")
    if not isinstance(logits, list) or len(logits) < 2:
        raise DataError(
            f"malformed record at line {line_no}: logits must be an array of length >= 2"
        )
    values: list[float] = []
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
    return PredictionRecord(rid, label, tuple(values))


def parse_prediction_records(data: bytes | str) -> list[PredictionRecord]:
    """Parse a UTF-8 JSON Lines stream into validated records.

    Enforces one record per non-empty line, a consistent logits length
    across the file, labels within range, finite logits, and unique ids.
    """
    records: list[PredictionRecord] = []
    seen: set[str] = set()
    expected_k: int | None = None
    newline = b"\n" if isinstance(data, bytes) else "\n"
    for line_no, line in enumerate(data.split(newline), start=1):
        if not line:
            continue
        try:
            obj = parse_json(line, "record")
        except DataError:
            raise DataError(f"malformed record at line {line_no}: invalid JSON") from None
        record = _record_from_obj(obj, line_no, expected_k)
        if record.id in seen:
            raise DataError(f"duplicate id {record.id} at line {line_no}")
        seen.add(record.id)
        expected_k = len(record.logits)
        records.append(record)
    return records


def format_prediction_records(records: list[PredictionRecord]) -> str:
    """Render records back to JSON Lines; re-parsing yields an identical list."""
    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {"id": r.id, "label": r.label, "logits": list(r.logits)},
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_prediction_records(path: str) -> list[PredictionRecord]:
    data = read_bytes(path, "record file")
    try:
        return parse_prediction_records(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def align_records(
    a: list[PredictionRecord],
    b: list[PredictionRecord],
    name_a: str = "model_a",
    name_b: str = "model_b",
) -> PairedDataset:
    """Join two models' record lists on sample id.

    Every id must appear in both lists with the same label and logits
    length; the output is sorted by ascending id (byte-lexicographic).
    """
    if not a or not b:
        raise DataError("cannot align empty record lists")
    if len(a[0].logits) != len(b[0].logits):
        raise DataError(
            f"logits length mismatch between files: "
            f"{len(a[0].logits)} vs {len(b[0].logits)}"
        )
    by_id_a: dict[str, PredictionRecord] = {}
    for r in a:
        if r.id in by_id_a:
            raise DataError(f"duplicate id {r.id}")
        by_id_a[r.id] = r
    by_id_b: dict[str, PredictionRecord] = {}
    for r in b:
        if r.id in by_id_b:
            raise DataError(f"duplicate id {r.id}")
        by_id_b[r.id] = r
    for rid in by_id_a:
        if rid not in by_id_b:
            raise DataError(f"unmatched id {rid}")
    for rid in by_id_b:
        if rid not in by_id_a:
            raise DataError(f"unmatched id {rid}")
    samples: list[PairedSample] = []
    for rid in sorted(by_id_a, key=lambda s: s.encode("utf-8")):
        ra = by_id_a[rid]
        rb = by_id_b[rid]
        if ra.label != rb.label:
            raise DataError(f"label disagreement for {rid}")
        samples.append(PairedSample(rid, ra.label, ra.logits, rb.logits))
    return PairedDataset(samples, len(a[0].logits), name_a, name_b)


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
    data = read_bytes(path, "cost profile")
    try:
        return parse_cost_profile(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
