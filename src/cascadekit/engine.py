"""Runtime cascade engine: memory lookup, then the cascade rule over two classifiers.

The rule itself (threshold test, model B on escalation, post-check) is
``calibration.decide``, the batch form of the rule calibration sweeps; the
engine adds the memory around it and traces every sample. Each StageTrace
names the path taken and the exact stages executed, which is what the
metering module prices. With memory enabled the engine fingerprints the
(grayscaled) image first and skips both models on a hit; the predicted
label of every non-hit sample is inserted afterwards, so hits replay
earlier cascade decisions, mistakes included. A fingerprint is a function
of the pixels alone, so an engine grayscales and hashes each distinct
image once and keeps the result (or the hash error's message) while the
caller keeps that image alive; ``clear_memory`` empties the label memory
but keeps those. A replayed row is the record table's own read-only
float64 row, not a copy; SampleRef and StageTrace are immutable
NamedTuples.
"""

from __future__ import annotations

import json
import weakref
from collections import Counter
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .calibration import CascadeConfig, decide
from .confidence import add_in_order
from .errors import DataError
from .images import ImageBuffer, to_grayscale
from .phash import FINGERPRINTS, Fingerprint, MemoStore
from .records import RecordTable

PATH_MEMORY_HIT = "memory_hit"
PATH_MODEL_A_ONLY = "model_a_only"
PATH_MODEL_AB = "model_ab"
PATHS = (PATH_MEMORY_HIT, PATH_MODEL_A_ONLY, PATH_MODEL_AB)


class Classifier(Protocol):
    name: str

    def infer(self, sample_id: str) -> Sequence[float]: ...


class ReplayClassifier:
    """Classifier backed by a record table; ``infer`` returns the table's row, not a copy."""

    def __init__(self, name: str, records: RecordTable):
        self.name = name
        self._logits = records.logits
        self._rows = records.index

    def infer(self, sample_id: str) -> np.ndarray:
        try:
            return self._logits[self._rows[sample_id]]
        except KeyError:
            raise DataError(f"{self.name}: unknown sample id {sample_id!r}") from None


class SampleRef(NamedTuple):
    """One input sample: id for the classifiers, optional image and label."""

    id: str
    image: ImageBuffer | None = None
    label: int | None = None


class StageTrace(NamedTuple):
    sample_id: str
    path: str                 # one of PATHS
    chosen: str               # "memory", "a" or "b"
    predicted: int
    label: int | None
    score_a: float | None
    score_b: float | None
    stages: tuple[str, ...]
    hash_error: str | None = None


class CascadeEngine:
    """Wires a CascadeConfig to two classifiers; with memory on, to a fresh memo store."""

    def __init__(self, config: CascadeConfig, classifier_a: Classifier, classifier_b: Classifier):
        self.config = config
        self.classifier_a = classifier_a
        self.classifier_b = classifier_b
        # per distinct image: its fingerprint, or the message of the DataError hashing it raised;
        # weak keys, so an entry goes when the caller frees its image
        self._fingerprints: weakref.WeakKeyDictionary[ImageBuffer, Fingerprint | str] = weakref.WeakKeyDictionary()
        self.clear_memory()

    def clear_memory(self) -> None:
        """Start the label memory cold; the fingerprints already computed are kept."""
        self.store = None if self.config.memory == "none" else MemoStore()

    def _fingerprint(self, image: ImageBuffer) -> Fingerprint | str:
        """The image's fingerprint, or its hash error's message; each distinct image is hashed once."""
        result = self._fingerprints.get(image)
        if result is None:
            try:
                result = FINGERPRINTS[self.config.memory](to_grayscale(image))
            except DataError as exc:
                result = str(exc)
            self._fingerprints[image] = result
        return result

    def run(self, samples: Sequence[SampleRef]) -> list[StageTrace]:
        """Classify samples in stream order and trace every stage.

        Pass 1 asks model A for every memory miss; a sample hits if its
        fingerprint is in the store or is an earlier miss's, so no hit waits
        on a decision. One ``decide`` over the misses then asks model B for
        the escalated ones. A hash failure (say, an all-black image under
        moments) degrades the sample to the no-memory path and is recorded on
        the trace. The first bad sample in stream order raises, after the
        samples before it are decided.
        """
        plan = []  # (sample, fingerprint, hash error, hit) per sample
        fresh: set[Fingerprint] = set()  # fingerprints of this batch's misses
        rows_a: list[Sequence[float]] = []
        error: DataError | None = None
        try:
            for sample in samples:
                fp = hash_error = None
                if self.store is not None:
                    if sample.image is None:
                        raise DataError(f"sample {sample.id!r}: image required when memory={self.config.memory}")
                    fp = self._fingerprint(sample.image)
                    if isinstance(fp, str):
                        fp, hash_error = None, fp
                hit = fp is not None and (fp in fresh or self.store.lookup(fp) is not None)
                if not hit:
                    row = self.classifier_a.infer(sample.id)
                    if rows_a and len(row) != len(rows_a[0]):
                        raise DataError("logits length mismatch between samples")
                    rows_a.append(row)
                    if fp is not None:
                        fresh.add(fp)
                plan.append((sample, fp, hash_error, hit))
        except DataError as exc:
            error = exc
        decisions = iter(())
        if rows_a:
            miss_ids = [sample.id for sample, _, _, hit in plan if not hit]
            decisions = zip(*decide(self.config, np.array(rows_a, dtype=np.float64), lambda rows: (
                self.classifier_b.infer(miss_ids[r]) for r in rows.tolist()
            )))
        traces = []
        for sample, fp, hash_error, hit in plan:
            if hit:  # first seen before this batch or earlier in this loop
                traces.append(StageTrace(sample.id, PATH_MEMORY_HIT, "memory", self.store.lookup(fp),
                                         sample.label, None, None, ("memory_lookup",)))
                continue
            predicted, chosen_a, score_a, score_b = next(decisions)
            stages = ("model_a",) if score_b is None else ("model_a", "model_b")
            if fp is not None:
                stages = ("memory_lookup", *stages, "memory_insert")
                self.store.insert(fp, predicted)
            path = PATH_MODEL_A_ONLY if score_b is None else PATH_MODEL_AB
            traces.append(StageTrace(sample.id, path, "a" if chosen_a else "b", predicted, sample.label,
                                     score_a, score_b, stages, hash_error))
        if error is not None:
            raise error
        return traces


class MacroMetrics(NamedTuple):
    """Accuracy plus precision/recall/F1 macro-averaged over observed classes."""

    accuracy: float
    precision: float
    recall: float
    f1: float


def macro_metrics(labels: Sequence[int], predictions: Sequence[int]) -> MacroMetrics:
    """Macro metrics over the classes that appear in the labels.

    A class never predicted gets precision 0; classes absent from the
    labels are excluded from the macro means entirely (no 0/0 terms).
    """
    if len(labels) != len(predictions):
        raise DataError("labels and predictions differ in length")
    if not labels:
        raise DataError("no labeled samples")
    label_counts = Counter(labels)  # tp + fn per class
    predicted_counts = Counter(predictions)  # tp + fp per class
    hits = Counter(y for y, p in zip(labels, predictions) if y == p)  # tp per class
    per_class = []
    for cls in sorted(label_counts):
        tp = hits[cls]
        precision = tp / predicted_counts[cls] if predicted_counts[cls] else 0.0
        recall = tp / label_counts[cls]
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    precisions, recalls, f1s = zip(*per_class)
    k = len(per_class)
    return MacroMetrics(
        accuracy=sum(hits.values()) / len(labels),
        precision=add_in_order(precisions) / k,
        recall=add_in_order(recalls) / k,
        f1=add_in_order(f1s) / k,
    )


class BatchSummary(NamedTuple):
    sample_count: int
    path_counts: dict[str, int]
    second_model_usage: float


def run_batch(engine: CascadeEngine, samples: Sequence[SampleRef]) -> tuple[list[StageTrace], BatchSummary]:
    """Classify samples in input order with ``CascadeEngine.run``.

    Order matters when memory is enabled: an earlier sample's insert is a
    later duplicate's hit. Accuracy and macro metrics come from
    ``metering.aggregate``.
    """
    if not samples:
        raise DataError("empty batch")
    traces = engine.run(samples)
    paths = Counter(t.path for t in traces)  # model B runs exactly on the model_ab path
    return traces, BatchSummary(len(traces), {p: paths[p] for p in PATHS}, paths[PATH_MODEL_AB] / len(traces))


# encode() writes a str with the C string encoder directly; ints and finite
# floats (scores always are) are written as their repr, as the encoder does
_TRACE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def format_traces_jsonl(traces: Sequence[StageTrace]) -> str:
    """One compact JSON object per trace: id, path, chosen, predicted, label,
    stages, scores ({"a", "b"} or null on a memory hit) and hash_error."""
    enc = _TRACE_ENCODER.encode
    stage_lists: dict[tuple[str, ...], str] = {}  # JSON text per distinct stages tuple
    lines = []
    for sample_id, path, chosen, predicted, label, score_a, score_b, stages, hash_error in traces:
        if stages not in stage_lists:
            stage_lists[stages] = enc(list(stages))
        scores = "null" if score_a is None and score_b is None else (
            f'{{"a":{"null" if score_a is None else float.__repr__(score_a)},'
            f'"b":{"null" if score_b is None else float.__repr__(score_b)}}}')
        lines.append(
            f'{{"id":{enc(sample_id)},"path":{enc(path)},"chosen":{enc(chosen)},'
            f'"predicted":{int.__repr__(predicted)},"label":{"null" if label is None else int.__repr__(label)},'
            f'"stages":{stage_lists[stages]},"scores":{scores},'
            f'"hash_error":{"null" if hash_error is None else enc(hash_error)}}}'
        )
    return "\n".join(lines) + "\n"
