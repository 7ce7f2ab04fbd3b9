"""Runtime cascade engine: memory lookup, then the cascade rule over two classifiers.

The rule itself (threshold test, model B on escalation, post-check) is
``calibration.decide``, the batch form of the rule calibration sweeps. A
batch's traces come back as one ``Traces``, a list per StageTrace field;
each row names the path taken and the exact stages executed, which is what
the metering module prices, and a StageTrace row is made only when a caller
iterates or indexes. A batch makes one call to model A, for all its memory
misses in stream order, and at most one to model B, for the escalated ones;
each answer is one (n, K) float64 array whose shape is checked once. With
memory enabled, the memory is one filter in front of that decided path: the
engine fingerprints each (grayscaled) image, a hit skips both models, and
the misses' decided columns are written into stream order in place. The
predicted label of every miss is inserted afterwards, so hits replay earlier
cascade decisions, mistakes included; a batch that raises leaves the label
memory as it was. An engine hashes each distinct image once, together with
the batch's other new images of its shape, and keeps the fingerprint (or the
hash error's message) while the caller keeps that image alive;
``clear_memory`` empties the label memory but keeps those. ``phash`` (and
with it ``images``) is imported only by an engine with memory on. A replayed
answer is a gathered copy of the record table's rows; SampleRef and
StageTrace are immutable NamedTuples. The trace writer reads the columns,
writing each distinct path, label, stages tuple and hash error as JSON once.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import attrgetter, eq, index
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
        i = index(i)  # a slice, or any other index that is not an integer, is a TypeError
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

    def _keys(self, samples: Sequence[SampleRef]) -> list[Fingerprint | str]:
        """Each sample's fingerprint or hash error message, in stream order. A sample without
        an image is refused before the batch's images with no memo entry yet are hashed together."""
        from .phash import fingerprint_images

        for s in samples:
            if s.image is None:
                raise DataError(f"sample {s.id!r}: image required when memory={self.config.memory}")
        images = [s.image for s in samples]  # alive for the call
        new = list({image: None for image in images if image not in self._fingerprints})
        self._fingerprints.update(zip(new, fingerprint_images(self.config.memory, new)))
        return list(map(self._fingerprints.__getitem__, images))

    def _decided(self, ids: list[str], labels: list[int | None], keys: list[Fingerprint | str] | None = None) -> Traces:
        """The traces of samples no memory answers: model A asked once for all ids, then one
        ``decide``. ``keys`` (memory on) holds each sample's ``_keys`` entry."""
        predicted = chosen_a = scores_a = scores_b = []
        if ids:
            logits_a = checked_logits(self.config.first_model, self.classifier_a.infer(ids), len(ids))
            predicted, chosen_a, scores_a, scores_b = decide(
                self.config, logits_a, lambda rows: self.classifier_b.infer(list(map(ids.__getitem__, rows.tolist()))))
        paths = [PATH_MODEL_A_ONLY if b is None else PATH_MODEL_AB for b in scores_b]
        stages = list(map(_STAGES.__getitem__, paths))
        hash_errors = [None] * len(ids)
        if keys is not None:  # a hash error skips the memory stages
            hash_errors = [key if isinstance(key, str) else None for key in keys]
            stages = [_MEMO_STAGES[s] if e is None else s for s, e in zip(stages, hash_errors)]
        return Traces(ids, paths, ["a" if a else "b" for a in chosen_a], predicted, labels, scores_a, scores_b,
                      stages, hash_errors)

    def run(self, samples: Sequence[SampleRef]) -> Traces:
        """Classify samples in stream order and trace every stage.

        With memory off, model A is asked once for the whole batch, and one
        ``decide`` asks model B once for the escalated samples. With memory on,
        one pass over the ``_keys`` finds the misses: a hash error (say, an
        all-black image under moments) always misses and is recorded on the
        trace; a fingerprint misses unless the store or an earlier miss holds it,
        so no hit waits on a decision. The misses are decided as above and their
        answers stored; then every sample is traced as a hit, its label read from
        the store, and the misses' columns are written over their positions. A
        batch that raises leaves the label memory as it was: a sample without an
        image (memory on) raises before anything is hashed, then model A's
        error, then model B's.
        """
        if self.store is None:
            return self._decided([s.id for s in samples], [s.label for s in samples])
        keys = self._keys(samples)
        fresh: set[Fingerprint | str] = set()  # keys of this batch's misses
        miss_at: list[int] = []  # stream positions
        for at, key in enumerate(keys):  # a hash error message always misses
            if isinstance(key, str) or key not in fresh and self.store.lookup(key) is None:
                miss_at.append(at)
                fresh.add(key)
        miss_keys = [keys[at] for at in miss_at]
        decided = self._decided([samples[at].id for at in miss_at], [samples[at].label for at in miss_at], miss_keys)
        for key, predicted in zip(miss_keys, decided.predicted):
            if not isinstance(key, str):
                self.store.insert(key, predicted)
        n = len(samples)
        traces = Traces([s.id for s in samples], [PATH_MEMORY_HIT] * n, ["memory"] * n,
                        list(map(self.store.lookup, keys)), [s.label for s in samples], [None] * n, [None] * n,
                        [("memory_lookup",)] * n, [None] * n)
        for column, values in zip(_columns(traces), _columns(decided)):
            for at, value in zip(miss_at, values):
                column[at] = value
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
