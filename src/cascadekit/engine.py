"""Runtime cascade engine: memory lookup, then the cascade rule over two classifiers.

The rule itself (threshold test, model B on escalation, post-check) is
``calibration.decide``, the batch form of the rule calibration sweeps;
the engine adds the memory around it and traces every sample. A batch's
traces come back as one ``Traces``, a list per StageTrace field; each row
names the path taken and the exact stages executed, which is what the
metering module prices, and a StageTrace row is made only when a caller
iterates or indexes. A batch makes one call to model A, for all its
memory misses in stream order, and at most one to model B, for the
escalated ones; each answer is one (n, K) float64 array whose shape is
checked once. With memory off a batch is decided as columns, with no
per-sample step but list comprehensions. A batch that raises leaves the
label memory as it was. With memory enabled the engine fingerprints the
(grayscaled) image first and skips both models on a hit; the predicted
label of every non-hit sample is inserted afterwards, so hits replay
earlier cascade decisions, mistakes included. A fingerprint is a
function of the pixels alone, so an engine hashes each distinct image
once, together with the batch's other new images of its shape, and keeps
the result (or the hash error's message) while the caller keeps that
image alive; ``clear_memory`` empties the label memory but keeps those.
``phash`` (and with it ``images``) is imported only by an engine with
memory on. A replayed answer is a gathered copy of the record table's
rows; SampleRef and StageTrace are immutable NamedTuples. The trace
writer reads the columns too, and writes each distinct path, label,
stages tuple and hash error as JSON once.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import attrgetter, eq
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from .calibration import CascadeConfig, checked_logits, decide
from .confidence import add_in_order
from .errors import DataError
from .records import RecordTable

if TYPE_CHECKING:
    from .images import ImageBuffer
    from .phash import Fingerprint

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


class Traces:
    """A batch's traces as columns: one list per StageTrace field, under the field's name.

    ``len``, iteration and indexing give StageTrace rows; ``from_rows`` turns
    rows into columns.
    """

    __slots__ = StageTrace._fields

    def __init__(self, *columns: list) -> None:
        if len(columns) != len(self.__slots__) or len(set(map(len, columns))) > 1:
            raise DataError(f"traces need {len(self.__slots__)} columns of one length")
        for name, column in zip(self.__slots__, columns):
            setattr(self, name, column)

    @classmethod
    def from_rows(cls, rows: Iterable[StageTrace]) -> Traces:
        columns = [list(column) for column in zip(*rows)]
        return cls(*columns) if columns else cls(*([] for _ in cls.__slots__))

    def __len__(self) -> int:
        return len(self.sample_id)

    def __iter__(self) -> Iterator[StageTrace]:
        return map(StageTrace, *_columns(self))

    def __getitem__(self, i: int) -> StageTrace:
        return StageTrace(*(column[i] for column in _columns(self)))


_columns = attrgetter(*Traces.__slots__)

# stages per decided path; a sample with a fingerprint also looks it up first and inserts its answer last
_STAGES = {PATH_MODEL_A_ONLY: ("model_a",), PATH_MODEL_AB: ("model_a", "model_b")}
_MEMO_STAGES = {stages: ("memory_lookup", *stages, "memory_insert") for stages in _STAGES.values()}


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
        if self.config.memory == "none":
            self.store = None
        else:
            from .phash import MemoStore

            self.store = MemoStore()

    def _memo_entries(self, samples: Sequence[SampleRef]) -> dict[int, Fingerprint | str]:
        """Each sample image's fingerprint or hash error message, keyed by the image's id().

        The batch's images with no memo entry yet are hashed together first."""
        from .phash import fingerprint_images

        images = {id(s.image): s.image for s in samples if s.image is not None}  # alive for the call
        new = list({image: None for image in images.values() if image not in self._fingerprints})
        self._fingerprints.update(zip(new, fingerprint_images(self.config.memory, new)))
        return {key: self._fingerprints[image] for key, image in images.items()}

    def _decided(self, ids: list[str], labels: list[int | None], fps: list[Fingerprint | None] | None = None,
                 hash_errors: list[str | None] | None = None) -> Traces:
        """The traces of samples no memory answers: model A asked once for all ids, then one
        ``decide``. ``fps`` (memory on) holds each sample's fingerprint, None after a hash error."""
        predicted = chosen_a = scores_a = scores_b = []
        if ids:
            logits_a = checked_logits(self.config.first_model, self.classifier_a.infer(ids), len(ids))
            predicted, chosen_a, scores_a, scores_b = decide(
                self.config, logits_a, lambda rows: self.classifier_b.infer(list(map(ids.__getitem__, rows.tolist()))))
        paths = [PATH_MODEL_A_ONLY if b is None else PATH_MODEL_AB for b in scores_b]
        stages = list(map(_STAGES.__getitem__, paths))
        if fps is not None:
            stages = [s if fp is None else _MEMO_STAGES[s] for s, fp in zip(stages, fps)]
        return Traces(ids, paths, ["a" if a else "b" for a in chosen_a], predicted, labels, scores_a, scores_b,
                      stages, hash_errors or [None] * len(ids))

    def run(self, samples: Sequence[SampleRef]) -> Traces:
        """Classify samples in stream order and trace every stage.

        With memory off, model A is asked once for the whole batch, and one
        ``decide`` asks model B once for the escalated samples. With memory on,
        the batch's new images are fingerprinted first. Pass 1 then finds the
        memory misses: a sample hits if its fingerprint is in the store or is an
        earlier miss's, so no hit waits on a decision. The misses are decided as
        above and their answers stored; the hits read theirs, and both sets of
        columns are merged back into stream order. A hash failure (say, an
        all-black image under moments) degrades the sample to the no-memory path
        and is recorded on the trace. A batch that raises leaves the label memory
        as it was: a sample without an image (memory on) raises before any model
        is asked, then model A's error, then model B's.
        """
        if self.store is None:
            return self._decided([s.id for s in samples], [s.label for s in samples])
        fresh: set[Fingerprint] = set()  # fingerprints of this batch's misses
        miss_at: list[int] = []  # stream positions
        hit_at: list[int] = []
        miss_fps: list[Fingerprint | None] = []
        hash_errors: list[str | None] = []
        entries = self._memo_entries(samples)
        for at, sample in enumerate(samples):
            if sample.image is None:
                raise DataError(f"sample {sample.id!r}: image required when memory={self.config.memory}")
            fp, hash_error = entries[id(sample.image)], None
            if isinstance(fp, str):
                fp, hash_error = None, fp
            if fp is not None and (fp in fresh or self.store.lookup(fp) is not None):
                hit_at.append(at)
                continue
            miss_at.append(at)
            miss_fps.append(fp)
            hash_errors.append(hash_error)
            if fp is not None:
                fresh.add(fp)
        misses, hits = ([samples[at] for at in positions] for positions in (miss_at, hit_at))
        decided = self._decided([s.id for s in misses], [s.label for s in misses], miss_fps, hash_errors)
        for fp, predicted in zip(miss_fps, decided.predicted):
            if fp is not None:
                self.store.insert(fp, predicted)
        n = len(hits)
        remembered = Traces([s.id for s in hits], [PATH_MEMORY_HIT] * n, ["memory"] * n,
                            [self.store.lookup(entries[id(s.image)]) for s in hits], [s.label for s in hits],
                            [None] * n, [None] * n, [("memory_lookup",)] * n, [None] * n)
        order = sorted(range(len(samples)), key=(miss_at + hit_at).__getitem__)  # into misses + hits
        return Traces(*(list(map((m + h).__getitem__, order)) for m, h in zip(_columns(decided), _columns(remembered))))


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
    hits = Counter(compress(labels, map(eq, labels, predictions)))  # tp per class
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


def run_batch(engine: CascadeEngine, samples: Sequence[SampleRef]) -> tuple[Traces, BatchSummary]:
    """Classify samples in input order with ``CascadeEngine.run``.

    Order matters when memory is enabled: an earlier sample's insert is a
    later duplicate's hit. Accuracy and macro metrics come from
    ``metering.aggregate``.
    """
    if not samples:
        raise DataError("empty batch")
    traces = engine.run(samples)
    paths = Counter(traces.path)  # model B runs exactly on the model_ab path
    return traces, BatchSummary(len(traces), {p: paths[p] for p in PATHS}, paths[PATH_MODEL_AB] / len(traces))


_NULL = "null"


def _distinct_texts(column: Sequence, text: Callable[[object], str]) -> Iterator[str]:
    """Each value's JSON text, written once per distinct value."""
    texts = {value: text(value) for value in set(column)}
    return map(texts.__getitem__, column)


def _string(value: str | None) -> str:
    return _NULL if value is None else encode_basestring_ascii(value)


def format_traces_jsonl(traces: Traces | Sequence[StageTrace]) -> str:
    """One compact JSON object per trace: id, path, chosen, predicted, label,
    stages, scores ({"a", "b"} or null when neither model ran) and hash_error.
    A list of rows is read through ``Traces.from_rows``."""
    if not isinstance(traces, Traces):
        traces = Traces.from_rows(traces)
    score_a, score_b = ([_NULL if v is None else float.__repr__(v) for v in column]
                        for column in (traces.score_a, traces.score_b))
    rows = zip(
        map(encode_basestring_ascii, traces.sample_id),
        _distinct_texts(traces.path, _string),
        _distinct_texts(traces.chosen, _string),
        map(int.__repr__, traces.predicted),
        _distinct_texts(traces.label, lambda y: _NULL if y is None else int.__repr__(y)),
        _distinct_texts(traces.stages, lambda stages: "[%s]" % ",".join(map(encode_basestring_ascii, stages))),
        [_NULL if a == b == _NULL else f'{{"a":{a},"b":{b}}}' for a, b in zip(score_a, score_b)],
        _distinct_texts(traces.hash_error, _string),
    )
    # one f-string per line: the column texts are already JSON
    return "".join([f'{{"id":{i},"path":{path},"chosen":{chosen},"predicted":{predicted},"label":{label},'
                    f'"stages":{stages},"scores":{scores},"hash_error":{error}}}\n'
                    for i, path, chosen, predicted, label, stages, scores, error in rows])
