"""Differential tests: the batch engine against the per-sample engine it replaced.

``oracle_classify`` is the former ``CascadeEngine.classify`` body and
``oracle_decide_one`` the former scalar ``calibration.decide`` it called,
kept unchanged apart from their names (``self`` became the ``engine``
argument), the fingerprint and the classifier calls: ``oracle_classify``
computes the fingerprint from the pixels itself with the per-image
functions, so the engine's stacked hashing and per-image fingerprint memo
are checked, not reused, and it asks each classifier for one id at a time
through the batch protocol. Driven one sample at a time on a fresh engine,
they must give the traces ``run_batch`` gives, field for field and type for
type, leave the same memo store, and ask each classifier for the same ids
in the same order. The engine asks model A once per batch and model B at
most once. A faulty batch raises in a fixed order of checks, not the
oracle's stream order: a sample without an image (memory on), then model
A's first error, then model B's; and it leaves the memo store as it was.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit.calibration import CascadeConfig
from cascadekit.confidence import ScoreFunction
from cascadekit.engine import (
    PATH_MEMORY_HIT,
    PATH_MODEL_A_ONLY,
    PATH_MODEL_AB,
    CascadeEngine,
    SampleRef,
    StageTrace,
    run_batch,
)
from cascadekit.errors import DataError
from cascadekit.images import TRANSFORMS, ImageBuffer, to_grayscale
from cascadekit.phash import Fingerprint, dhash_fingerprint, moments_fingerprint
from cascadekit.synthetic import synthetic_image
from test_calibration_oracles import (
    better_score,
    logit_rows,
    oracle_score,
    oracle_softmax,
    passes_threshold,
    predicted_label,
)


# the per-image fingerprint of each memory method
PER_IMAGE = {"dhash": dhash_fingerprint, "moments": moments_fingerprint}


def oracle_decide_one(
    config: CascadeConfig, logits_a: Sequence[float], infer_b: Callable[[], Sequence[float]]
) -> tuple[int, str, float, float | None]:
    """Apply the cascade rule to one sample.

    Returns (predicted label, chosen, score_a, score_b) with chosen in
    {"a", "b"}. ``infer_b`` yields model B's logits and is called only when
    A's score misses the threshold; score_b is None when it was not called.
    """
    score_fn = config.score_fn
    score_a = oracle_score(oracle_softmax(logits_a), score_fn)
    if passes_threshold(score_a, config.threshold, score_fn):
        return predicted_label(logits_a), "a", score_a, None
    logits_b = infer_b()
    if len(logits_b) != len(logits_a):
        raise DataError("logits length mismatch between models")
    score_b = oracle_score(oracle_softmax(logits_b), score_fn)
    chosen = better_score(score_a, score_b, score_fn) if config.post_check else "b"
    return predicted_label(logits_a if chosen == "a" else logits_b), chosen, score_a, score_b


def oracle_classify(engine: CascadeEngine, sample: SampleRef) -> StageTrace:
    """Run one sample through the pipeline and trace every stage.

    A hash failure (for instance an all-black image under the moments
    method) does not abort the sample: it degrades to the no-memory
    path and is recorded on the trace.
    """
    stages: list[str] = []
    fp: Fingerprint | None = None
    hash_error: str | None = None
    if engine.store is not None:
        if sample.image is None:
            raise DataError(
                f"sample {sample.id!r}: image required when memory={engine.config.memory}"
            )
        try:
            fp = PER_IMAGE[engine.config.memory](to_grayscale(sample.image))
        except DataError as exc:
            hash_error = str(exc)
        if fp is not None:
            stages.append("memory_lookup")
            hit = engine.store.lookup(fp)
            if hit is not None:
                return StageTrace(
                    sample_id=sample.id,
                    path=PATH_MEMORY_HIT,
                    chosen="memory",
                    predicted=hit,
                    label=sample.label,
                    score_a=None,
                    score_b=None,
                    stages=tuple(stages),
                )

    stages.append("model_a")
    logits_a = engine.classifier_a.infer([sample.id])[0]
    predicted, chosen, score_a, score_b = oracle_decide_one(
        engine.config, logits_a, lambda: engine.classifier_b.infer([sample.id])[0]
    )
    path = PATH_MODEL_A_ONLY if score_b is None else PATH_MODEL_AB
    if score_b is not None:
        stages.append("model_b")

    if fp is not None:
        stages.append("memory_insert")
        assert engine.store is not None
        engine.store.insert(fp, predicted)
    return StageTrace(
        sample_id=sample.id,
        path=path,
        chosen=chosen,
        predicted=predicted,
        label=sample.label,
        score_a=score_a,
        score_b=score_b,
        stages=tuple(stages),
        hash_error=hash_error,
    )


class LoggedClassifier:
    """Replays logits from a dict and logs each call's ids. Rows may differ in
    length: an answer is zero-padded to its longest row, so one long row widens
    the whole answer."""

    def __init__(self, name: str, rows: dict[str, Sequence[float]]):
        self.name = name
        self.rows = rows
        self.calls: list[list[str]] = []

    @property
    def asked(self) -> list[str]:
        return [sample_id for call in self.calls for sample_id in call]

    def infer(self, sample_ids: Sequence[str]) -> np.ndarray:
        self.calls.append(list(sample_ids))
        try:
            rows = [list(self.rows[sample_id]) for sample_id in sample_ids]
        except KeyError as exc:
            raise DataError(f"{self.name}: unknown sample id {exc.args[0]!r}") from None
        width = max(map(len, rows), default=0)
        return np.array([row + [0.0] * (width - len(row)) for row in rows], dtype=np.float64).reshape(len(rows), width)


def _engines(config: CascadeConfig, rows_a: dict, rows_b: dict) -> tuple[CascadeEngine, CascadeEngine]:
    """Two engines over separate logs of the same logits: one for the batch path, one for the oracle."""
    return tuple(
        CascadeEngine(config, LoggedClassifier("model_a", rows_a), LoggedClassifier("model_b", rows_b))
        for _ in range(2)
    )


def _first_error(steps) -> str | None:
    try:
        for step in steps:
            step()
    except DataError as exc:
        return str(exc)
    return None


@st.composite
def streams(draw, ids: list[str]) -> list[SampleRef]:
    """Samples over a few distinct images: exact repeats, rotated and mirrored
    copies, and blank frames (a hash error under moments, a repeat under dhash)."""
    pool = [
        synthetic_image(draw(st.integers(8, 14)), draw(st.integers(8, 14)), seed, draw(st.sampled_from((1, 3))))
        for seed in range(draw(st.integers(1, 4)))
    ]
    pool.append(ImageBuffer(9, 7, 1, bytes(63)))
    stream = []
    for _ in range(draw(st.integers(1, 24))):
        image = TRANSFORMS[draw(st.sampled_from(sorted(TRANSFORMS)))](draw(st.sampled_from(pool)))
        label = draw(st.none() | st.integers(0, 1))
        stream.append(SampleRef(draw(st.sampled_from(ids)), image, label))
    return stream


@st.composite
def configs(draw, scores: Sequence[float]) -> CascadeConfig:
    fn = draw(st.sampled_from(list(ScoreFunction)))
    # every exact model-A score is a >= / <= boundary; the threshold domain is [0, 1]
    boundaries = sorted({0.0, 1.0, *(s for s in scores if 0.0 <= s <= 1.0)})
    threshold = draw(st.sampled_from(boundaries) | st.floats(0.0, 1.0))
    memory = draw(st.sampled_from(("none", "dhash", "moments")))
    return CascadeConfig("model_a", "model_b", fn, threshold, draw(st.booleans()), memory)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6), st.data())
def test_batches_match_per_sample_oracle(n, k, data):
    ids = [f"s{i}" for i in range(n)]
    rows_a = dict(zip(ids, data.draw(logit_rows(n, k))))
    rows_b = dict(zip(ids, data.draw(logit_rows(n, k))))
    config = data.draw(configs([oracle_score(oracle_softmax(row), fn) for row in rows_a.values() for fn in ScoreFunction]))
    stream = data.draw(streams(ids))
    cuts = sorted(data.draw(st.lists(st.integers(1, len(stream)), max_size=2)))
    engine, oracle = _engines(config, rows_a, rows_b)

    got = []
    for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):  # repeats may span batches
        if lo < hi:
            calls_a, calls_b = len(engine.classifier_a.calls), len(engine.classifier_b.calls)
            traces = list(run_batch(engine, stream[lo:hi])[0])
            misses = sum(t.path != PATH_MEMORY_HIT for t in traces)
            assert len(engine.classifier_a.calls) - calls_a == (misses > 0)  # once, or not at all
            assert len(engine.classifier_b.calls) - calls_b == any(t.path == PATH_MODEL_AB for t in traces)
            got += traces
    want = [oracle_classify(oracle, s) for s in stream]

    assert got == want
    assert repr(got) == repr(want)  # also tells 0.0 from -0.0 and numpy scalars from floats
    for trace in got:
        assert type(trace.predicted) is int
        assert trace.score_a is None or type(trace.score_a) is float
        assert trace.score_b is None or type(trace.score_b) is float
    assert engine.classifier_a.asked == oracle.classifier_a.asked
    assert engine.classifier_b.asked == oracle.classifier_b.asked
    if config.memory != "none":
        assert list(engine.store._entries.items()) == list(oracle.store._entries.items())


# model B answers a batch at once, so the oracle's per-sample length error becomes a shape error
B_SHAPE = re.compile(r"model_b: logits of shape \((\d+), (\d+)\) for \1 samples, want \(\1, (\d+)\)")

# faults a stream can carry: a sample without an image, one unknown to model A
A_FAULTS = [SampleRef("s0", None), SampleRef("ghost-a", synthetic_image(8, 8, 90))]
# faults of escalated samples: one unknown to model B, one whose B logits are too long
B_FAULTS = [SampleRef("ghost-b", synthetic_image(8, 8, 91)), SampleRef("short-b", synthetic_image(8, 8, 92))]


def _rows_for_faults(data, n: int, k: int) -> tuple[list[str], dict, dict]:
    """Ids s0.. and both models' logits for them and for the faults' ids."""
    ids = [f"s{i}" for i in range(n)]
    rows_a = dict(zip(ids, data.draw(logit_rows(n, k))))
    rows_b = dict(zip(ids, data.draw(logit_rows(n, k))))
    # a flat row scores diff 0, so these two always escalate to model B at a threshold above 0
    rows_a["ghost-b"] = rows_a["short-b"] = [0.0] * k
    rows_b["short-b"] = [0.0] * (k + 1)
    return ids, rows_a, rows_b


def _insert_faults(data, stream: list[SampleRef], faults: list[SampleRef]) -> None:
    for fault in data.draw(st.lists(st.sampled_from(faults), min_size=1, max_size=4)):
        stream.insert(data.draw(st.integers(0, len(stream))), fault)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.data())
def test_first_error_is_the_oracles(n, k, data):
    ids, rows_a, rows_b = _rows_for_faults(data, n, k)
    threshold = data.draw(st.floats(0.05, 1.0))
    memory = data.draw(st.sampled_from(("none", "dhash", "moments")))
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, threshold, True, memory)
    stream = data.draw(streams(ids))
    # model B's answer covers every escalated sample, so a stream gets one kind of B fault
    _insert_faults(data, stream, [*A_FAULTS, data.draw(st.sampled_from(B_FAULTS))])
    engine, oracle = _engines(config, rows_a, rows_b)
    # the oracle over a model B that answers any one id: model A's first error, if any
    oracle_a = CascadeEngine(config, LoggedClassifier("model_a", rows_a), Answers("model_b", np.zeros((1, k))))

    missing = [s for s in stream if s.image is None]
    if memory != "none" and missing:  # before any model is asked
        want = f"sample {missing[0].id!r}: image required when memory={memory}"
    else:
        want = (_first_error(lambda s=s: oracle_classify(oracle_a, s) for s in stream)
                or _first_error(lambda s=s: oracle_classify(oracle, s) for s in stream))
    got = _first_error([lambda: run_batch(engine, stream)])
    if want is None:  # the missing image is harmless only without memory
        assert memory == "none" and got is None
    elif want == "logits length mismatch between models":
        match = B_SHAPE.fullmatch(got)
        assert match and (int(match[2]), int(match[3])) == (k + 1, k)
    else:
        assert got == want
    if want is not None and memory != "none":
        assert list(engine.store._entries.items()) == []
    assert len(engine.classifier_a.calls) == (0 if want is not None and want.startswith("sample ") else 1)
    assert len(engine.classifier_b.calls) <= 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.data())
def test_a_batch_that_raises_leaves_the_memory_as_it_was(n, k, data):
    ids, rows_a, rows_b = _rows_for_faults(data, n, k)
    threshold = data.draw(st.floats(0.05, 1.0))
    memory = data.draw(st.sampled_from(("dhash", "moments")))
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, threshold, data.draw(st.booleans()), memory)
    engine, _ = _engines(config, rows_a, rows_b)
    run_batch(engine, data.draw(streams(ids)))  # a clean batch warms the memory
    before = list(engine.store._entries.items())
    calls_a, calls_b = len(engine.classifier_a.calls), len(engine.classifier_b.calls)
    stream = data.draw(streams(ids))
    _insert_faults(data, stream, [*A_FAULTS, *B_FAULTS])
    with pytest.raises(DataError):
        run_batch(engine, stream)
    assert list(engine.store._entries.items()) == before
    assert len(engine.classifier_a.calls) - calls_a <= 1
    assert len(engine.classifier_b.calls) - calls_b <= 1


def test_classifiers_are_asked_only_for_misses_and_escalations():
    flat, sure = [0.0, 0.0, 0.0], [9.0, 0.0, 0.0]
    rows_a = {"x": sure, "y": flat, "z": flat}
    rows_b = {"x": sure, "y": sure, "z": sure}
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, 0.5, True, "dhash")
    engine, _ = _engines(config, rows_a, rows_b)
    img_x, img_y, img_z = (synthetic_image(12, 12, seed) for seed in (1, 2, 3))
    first = [SampleRef("x", img_x), SampleRef("y", img_y), SampleRef("x", img_x), SampleRef("y", img_y)]
    second = [SampleRef("y", img_y), SampleRef("z", img_z), SampleRef("x", img_x)]
    third = [SampleRef("z", img_z), SampleRef("x", img_x)]
    paths = [t.path for batch in (first, second, third) for t in run_batch(engine, batch)[0]]
    assert paths == [
        PATH_MODEL_A_ONLY, PATH_MODEL_AB, PATH_MEMORY_HIT, PATH_MEMORY_HIT,
        PATH_MEMORY_HIT, PATH_MODEL_AB, PATH_MEMORY_HIT,
        PATH_MEMORY_HIT, PATH_MEMORY_HIT,
    ]
    assert engine.classifier_a.calls == [["x", "y"], ["z"]]  # none for the all-hit batch
    assert engine.classifier_b.calls == [["y"], ["z"]]


def test_unknown_model_a_id_mid_stream():
    """Model A refuses the batch, naming the first unknown id it was asked for;
    that error is raised as it is, model B is not asked, nothing is remembered."""
    rows = {"x": [9.0, 0.0], "y": [0.0, 9.0]}
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, 0.5, True, "dhash")
    engine, oracle = _engines(config, rows, rows)
    img_x, img_y, img_g, img_h = (synthetic_image(9, 8, seed) for seed in (1, 2, 3, 4))
    stream = [SampleRef("x", img_x), SampleRef("x", img_x), SampleRef("y", img_y),
              SampleRef("ghost", img_g), SampleRef("phantom", img_h)]
    with pytest.raises(DataError, match="^model_a: unknown sample id 'ghost'$"):
        run_batch(engine, stream)
    with pytest.raises(DataError, match="^model_a: unknown sample id 'ghost'$"):
        for sample in stream:
            oracle_classify(oracle, sample)
    assert list(engine.store._entries.items()) == []
    assert engine.classifier_a.calls == [["x", "y", "ghost", "phantom"]]
    assert engine.classifier_b.calls == []


class Answers:
    """A classifier that gives one fixed answer, whatever it is asked."""

    def __init__(self, name: str, answer: object):
        self.name = name
        self.answer = answer

    def infer(self, sample_ids: Sequence[str]) -> object:
        return self.answer


@pytest.mark.parametrize("answer, shape", [
    (np.zeros((1, 2)), "(1, 2)"),
    (np.zeros(2), "(2,)"),
    (np.zeros((2, 0)), "(2, 0)"),
    (np.zeros((2, 1, 2)), "(2, 1, 2)"),
    ([[1.0, 0.0], [1.0]], "(0,)"),  # not an array at all
    ([[10**400, 0.0], [0.0, 0.0]], "(0,)"),  # an int past the float range: float64 overflows
], ids=["row-short", "one-row", "no-classes", "3-d", "ragged", "past-float-range"])
def test_wrong_shaped_answers_are_a_data_error(answer, shape):
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, 0.5, True)
    rows = {"x": [0.0, 0.0], "y": [0.0, 0.0]}  # flat: both escalate
    samples = [SampleRef("x"), SampleRef("y")]
    engine = CascadeEngine(config, Answers("model_a", answer), LoggedClassifier("model_b", rows))
    with pytest.raises(DataError, match=rf"^model_a: logits of shape {re.escape(shape)} for 2 samples, want \(2, K\)$"):
        run_batch(engine, samples)
    engine = CascadeEngine(config, LoggedClassifier("model_a", rows), Answers("model_b", answer))
    with pytest.raises(DataError, match=rf"^model_b: logits of shape {re.escape(shape)} for 2 samples, want \(2, 2\)$"):
        run_batch(engine, samples)
