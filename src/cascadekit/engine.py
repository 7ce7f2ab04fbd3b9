"""Runtime cascade engine: memory lookup, then the cascade rule over two classifiers.

The rule itself (threshold test, model B on escalation, post-check) is
``calibration.decide``, the batch form of the rule calibration sweeps;
the engine adds the memory around it and traces every sample. Each
StageTrace names the path taken and the exact stages executed, which is
what the metering module prices. A batch makes one call to model A, for
all its memory misses in stream order, and at most one to model B, for
the escalated ones; each answer is one (n, K) float64 array whose shape
is checked once. A batch that raises leaves the label memory as it was.
With memory enabled the engine fingerprints the (grayscaled) image first
and skips both models on a hit; the predicted label of every non-hit
sample is inserted afterwards, so hits replay earlier cascade decisions,
mistakes included. A fingerprint is a function of the pixels alone, so
an engine hashes each distinct image once, together with the batch's
other new images of its shape, and keeps the result (or the hash error's
message) while the caller keeps that image alive; ``clear_memory``
empties the label memory but keeps those. A replayed answer is a
gathered copy of the record table's rows; SampleRef and StageTrace are
immutable NamedTuples.
"""

from __future__ import annotations

import json
import weakref
from collections import Counter
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .calibration import CascadeConfig, checked_logits, decide
from .confidence import add_in_order
from .errors import DataError
from .images import ImageBuffer
from .phash import Fingerprint, MemoStore, fingerprint_images
from .records import RecordTable

PATH_MEMORY_HIT = "memory_hit"
PATH_MODEL_A_ONLY = "model_a_only"
PATH_MODEL_AB = "model_ab"
PATHS = (PATH_MEMORY_HIT, PATH_MODEL_A_ONLY, PATH_MODEL_AB)


class Classifier(Protocol):
    name: str

    def infer(self, sample_ids: Sequence[str]) -> np.ndarray: ...


class ReplayClassifier:
    """Classifier backed by a record table; ``infer`` gathers the ids' rows into one new array."""

    def __init__(self, name: str, records: RecordTable):
        self.name = name
        self._logits = records.logits
        self._rows = records.index

    def infer(self, sample_ids: Sequence[str]) -> np.ndarray:
        if isinstance(sample_ids, str):  # else each of its characters would be read as an id
            raise DataError(f"{self.name}: sample ids must be a sequence of ids, not a str")
        try:
            rows = list(map(self._rows.__getitem__, sample_ids))
        except KeyError as exc:
            raise DataError(f"{self.name}: unknown sample id {exc.args[0]!r}") from None
        return self._logits.take(rows, axis=0)


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

    def _memo_entries(self, samples: Sequence[SampleRef]) -> dict[int, Fingerprint | str]:
        """Each sample image's fingerprint or hash error message, keyed by the image's id().

        The batch's images with no memo entry yet are hashed together first."""
        images = {id(s.image): s.image for s in samples if s.image is not None}  # alive for the call
        new = list({image: None for image in images.values() if image not in self._fingerprints})
        self._fingerprints.update(zip(new, fingerprint_images(self.config.memory, new)))
        return {key: self._fingerprints[image] for key, image in images.items()}

    def run(self, samples: Sequence[SampleRef]) -> list[StageTrace]:
        """Classify samples in stream order and trace every stage.

        With memory on, the batch's new images are fingerprinted first. Pass 1
        then finds the memory misses: a sample hits if its fingerprint is in the
        store or is an earlier miss's, so no hit waits on a decision. Model A is
        asked once for every miss, and one ``decide`` over them asks model B once
        for the escalated ones. A hash failure (say, an all-black image under
        moments) degrades the sample to the no-memory path and is recorded on
        the trace. A batch that raises leaves the label memory as it was: a
        sample without an image (memory on) raises before any model is asked,
        then model A's error, then model B's.
        """
        plan = []  # (sample, fingerprint, hash error, hit) per sample
        fresh: set[Fingerprint] = set()  # fingerprints of this batch's misses
        miss_ids: list[str] = []
        entries = {} if self.store is None else self._memo_entries(samples)
        for sample in samples:
            fp = hash_error = None
            if self.store is not None:
                if sample.image is None:
                    raise DataError(f"sample {sample.id!r}: image required when memory={self.config.memory}")
                fp = entries[id(sample.image)]
                if isinstance(fp, str):
                    fp, hash_error = None, fp
            hit = fp is not None and (fp in fresh or self.store.lookup(fp) is not None)
            if not hit:
                miss_ids.append(sample.id)
                if fp is not None:
                    fresh.add(fp)
            plan.append((sample, fp, hash_error, hit))
        decisions = iter(())
        if miss_ids:
            logits_a = checked_logits(self.config.first_model, self.classifier_a.infer(miss_ids), len(miss_ids))
            decisions = zip(*decide(self.config, logits_a, lambda rows: self.classifier_b.infer(
                [miss_ids[r] for r in rows.tolist()])))
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
