"""Differential tests: the run tail (trace writer, aggregation, macro metrics)
and the duplication experiment against the code they replaced.

``oracle_trace_to_dict`` is the former ``engine.trace_to_dict``, which
``format_traces_jsonl`` fed one dict per trace to ``json``;
``oracle_macro_metrics`` is the former ``macro_metrics`` body (three
counting passes per class) and ``oracle_aggregate`` the former ``aggregate``
(every stage of every trace checked and priced in turn).
``oracle_duplication_experiment`` is the former ``duplication_experiment``,
which built a fresh engine, and so hashed every image again, at every
ratio. ``oracle_format_report_json`` is the former ``format_report_json``,
one indented ``json.dumps`` of the whole report. They are kept unchanged
apart from their names and their float sums, which add left to right as
3.11's ``sum()`` did and as the code under test does on every Python version. The new code must write the same bytes, give
the same floats, and raise the same first error.
"""

from __future__ import annotations

import gc
import json
import math
import random
from collections import Counter
from typing import Callable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit import phash
from cascadekit.calibration import CascadeConfig
from cascadekit.confidence import ScoreFunction
from cascadekit.engine import (
    PATH_MEMORY_HIT,
    PATHS,
    CascadeEngine,
    MacroMetrics,
    ReplayClassifier,
    SampleRef,
    StageTrace,
    Traces,
    format_traces_jsonl,
    macro_metrics,
    run_batch,
)
from cascadekit.errors import DataError
from cascadekit.images import ImageBuffer, grayscale_stack
from cascadekit.metering import (
    RANDOM_TRANSFORM,
    DuplicationCurve,
    RunReport,
    aggregate,
    build_duplicated_stream,
    duplication_experiment,
    format_report_json,
    nearest_rank,
)
from cascadekit.phash import FINGERPRINTS
from cascadekit.records import STAGES, CostProfile, RecordTable, StageCost
from cascadekit.synthetic import synthetic_image


def _left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_trace_to_dict(trace: StageTrace) -> dict:
    if trace.score_a is None and trace.score_b is None:
        scores = None
    else:
        scores = {"a": trace.score_a, "b": trace.score_b}
    return {
        "id": trace.sample_id,
        "path": trace.path,
        "chosen": trace.chosen,
        "predicted": trace.predicted,
        "label": trace.label,
        "stages": list(trace.stages),
        "scores": scores,
        "hash_error": trace.hash_error,
    }


def oracle_macro_metrics(labels: Sequence[int], predictions: Sequence[int]) -> MacroMetrics:
    """Macro metrics over the classes that appear in the labels.

    A class never predicted gets precision 0; classes absent from the
    labels are excluded from the macro means entirely (no 0/0 terms).
    """
    if len(labels) != len(predictions):
        raise DataError("labels and predictions differ in length")
    if not labels:
        raise DataError("no labeled samples")
    observed = sorted(set(labels))
    correct = sum(1 for y, p in zip(labels, predictions) if y == p)
    precisions = []
    recalls = []
    f1s = []
    for cls in observed:
        tp = sum(1 for y, p in zip(labels, predictions) if y == cls and p == cls)
        fp = sum(1 for y, p in zip(labels, predictions) if y != cls and p == cls)
        fn = sum(1 for y, p in zip(labels, predictions) if y == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    k = len(observed)
    return MacroMetrics(
        accuracy=correct / len(labels),
        precision=_left_to_right(precisions) / k,
        recall=_left_to_right(recalls) / k,
        f1=_left_to_right(f1s) / k,
    )


def oracle_aggregate(
    traces: Sequence[StageTrace],
    costs: CostProfile,
    config: CascadeConfig | None = None,
) -> RunReport:
    """Sum a trace list into a RunReport against one cost profile."""
    if not traces:
        raise DataError("no traces to aggregate")
    for stage in STAGES:
        if stage not in costs.stages:
            raise DataError(f"cost profile missing stage {stage!r}")
    path_counts = {p: 0 for p in PATHS}
    stage_counts = {s: 0 for s in STAGES}
    latencies = []
    for t in traces:
        if t.path not in path_counts:
            raise DataError(f"unknown path {t.path!r} in trace {t.sample_id!r}")
        path_counts[t.path] += 1
        latency = 0.0
        for stage in t.stages:
            if stage not in stage_counts:
                raise DataError(f"unknown stage {stage!r} in trace {t.sample_id!r}")
            stage_counts[stage] += 1
            latency += costs.latency(stage)
        latencies.append(latency)
    total_energy = _left_to_right(count * costs.energy(s) for s, count in stage_counts.items())
    currents = [costs.stages[s].current_mah for s in STAGES]
    total_current = None
    if all(c is not None for c in currents):
        total_current = _left_to_right(count * costs.stages[s].current_mah for s, count in stage_counts.items())
    metrics = None
    if all(t.label is not None for t in traces):
        metrics = oracle_macro_metrics([t.label for t in traces], [t.predicted for t in traces])
    return RunReport(
        sample_count=len(traces),
        path_counts=path_counts,
        stage_counts=stage_counts,
        total_energy_wh=total_energy,
        total_current_mah=total_current,
        latencies_ms=latencies,
        mean_latency_ms=_left_to_right(latencies) / len(latencies),
        p95_latency_ms=nearest_rank(latencies, 95),
        p99_latency_ms=nearest_rank(latencies, 99),
        metrics=metrics,
        config=config,
    )


def oracle_duplication_experiment(
    samples: Sequence[SampleRef],
    ratios: Sequence[float],
    transform_name: str,
    engines: Sequence[tuple[str, Callable[[], CascadeEngine]]],
    costs: CostProfile,
    seed: int = 0,
) -> list[DuplicationCurve]:
    """Run every engine over the same duplicated streams, one per ratio.

    Each engine instance is built fresh per ratio so its memory starts
    cold. Streams are built once per ratio and shared across engines for a
    fair comparison; the seed only matters for transform "random_of_these".
    """
    if not samples:
        raise DataError("no samples")
    if not ratios:
        raise DataError("no ratios")
    ordered_ratios = sorted(ratios)
    rng = random.Random(seed)
    streams = [build_duplicated_stream(samples, r, transform_name, rng) for r in ordered_ratios]
    curves = []
    for name, factory in engines:
        points = []
        for ratio, stream in zip(ordered_ratios, streams):
            engine = factory()
            traces, _ = run_batch(engine, stream)
            report = aggregate(traces, costs)
            points.append((ratio, report.total_energy_wh, report.path_counts[PATH_MEMORY_HIT]))
        curves.append(DuplicationCurve(name, points))
    return curves


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return DataError, str(exc)


# JSON-escaped, control, line-separator, non-ASCII and astral-plane characters;
# "Z" becomes a lone surrogate, which the encoder writes as a \ud800 escape
TEXT_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u00a0", "\u00e9",
              "\u4e2d", "\ufeff", "\U0001f600", "\U0010fffd", "a", "Z"]
text_st = st.one_of(
    st.text(alphabet=st.sampled_from(TEXT_CHARS), max_size=6).map(lambda s: s.replace("Z", "\ud800")),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
score_st = st.one_of(
    st.none(),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.0, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)
name_st = st.one_of(st.sampled_from([*PATHS, "memory", "a", "b"]), text_st)
stages_st = st.lists(st.one_of(st.sampled_from(STAGES), text_st), max_size=4).map(tuple)


@st.composite
def traces_st(draw) -> list[StageTrace]:
    stage_pool = draw(st.lists(stages_st, min_size=1, max_size=4))  # tuples repeat across traces
    return [
        StageTrace(
            draw(text_st),
            draw(name_st),
            draw(name_st),
            draw(st.integers()),
            draw(st.one_of(st.none(), st.integers())),
            draw(score_st),
            draw(score_st),
            draw(st.sampled_from(stage_pool)),
            draw(st.one_of(st.none(), text_st)),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]


@settings(max_examples=300, deadline=None)
@given(traces_st())
def test_trace_lines_match_json_dumps_oracle(traces):
    text = format_traces_jsonl(traces)
    assert text.endswith("\n")
    assert text[:-1].split("\n") == [
        json.dumps(oracle_trace_to_dict(t), separators=(",", ":")) for t in traces
    ]


@st.composite
def label_pairs(draw) -> tuple[list[int], list[int]]:
    """Labels from one range of up to 1000 classes, possibly negative or a
    single class; predictions from a wider range, so some classes are
    predicted but never labelled."""
    low = draw(st.integers(-1000, 5))
    classes = draw(st.sampled_from([1, 2, 10, 1000]))
    n = draw(st.integers(1, 150))
    labels = draw(st.lists(st.integers(low, low + classes - 1), min_size=n, max_size=n))
    predictions = draw(st.lists(st.integers(low - 2, low + classes + 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # mostly right, as a classifier is
        predictions = [y if draw(st.integers(0, 3)) else p for y, p in zip(labels, predictions)]
    return labels, predictions


def _exactly(m: MacroMetrics) -> tuple[float, ...]:
    return m.accuracy, m.precision, m.recall, m.f1


@settings(max_examples=300, deadline=None)
@given(label_pairs())
def test_macro_metrics_match_per_class_oracle(pair):
    labels, predictions = pair
    assert _exactly(macro_metrics(labels, predictions)) == _exactly(oracle_macro_metrics(labels, predictions))


def test_macro_metrics_match_oracle_wide_k():
    """ImageNet-sized label space: N = 2000, C = 1000, one seeded draw."""
    rng = random.Random(1000)
    labels = [rng.randrange(1000) for _ in range(2000)]
    predictions = [y if rng.random() < 0.7 else rng.randrange(1000) for y in labels]
    got = macro_metrics(labels, predictions)
    assert _exactly(got) == _exactly(oracle_macro_metrics(labels, predictions))
    assert len(set(labels)) > 800


def test_macro_metrics_errors_match_oracle():
    for labels, predictions in (([0], [0, 1]), ([], [])):
        assert _outcome(macro_metrics, labels, predictions) == _outcome(oracle_macro_metrics, labels, predictions)


latency_st = st.one_of(st.floats(0, 1e3), st.sampled_from([0.1, 0.2, 0.7, 1e-300, 1e16]))
# mostly valid, now and then an unknown path or stage
path_st = st.one_of(st.sampled_from(PATHS), st.sampled_from(PATHS), st.just("bogus"))
agg_stages_st = st.lists(st.sampled_from([*STAGES, *STAGES, *STAGES, "model_c"]), max_size=4).map(tuple)


@st.composite
def priced_traces(draw) -> tuple[list[StageTrace], CostProfile]:
    costs = CostProfile({
        s: StageCost(draw(latency_st), draw(latency_st), draw(st.one_of(st.none(), latency_st))) for s in STAGES
    })
    stage_pool = draw(st.lists(agg_stages_st, min_size=1, max_size=5))
    labelled = draw(st.booleans())
    traces = [
        StageTrace(
            f"s{i}",
            draw(path_st),
            "a",
            draw(st.integers(0, 3)),
            draw(st.integers(0, 3)) if labelled else None,
            0.5,
            None,
            draw(st.sampled_from(stage_pool)),
        )
        for i in range(draw(st.integers(1, 30)))
    ]
    return traces, costs


def _report_or_error(fn, traces, costs):
    """A report as its JSON text, so -0.0 against 0.0 or an int against a float differs; else the error."""
    got = _outcome(fn, traces, costs)
    return format_report_json(got) if isinstance(got, RunReport) else got


@settings(max_examples=300, deadline=None)
@given(priced_traces())
def test_aggregate_matches_per_trace_oracle(case):
    traces, costs = case
    assert _report_or_error(aggregate, traces, costs) == _report_or_error(oracle_aggregate, traces, costs)


def oracle_format_report_json(report: RunReport) -> str:
    """The former ``format_report_json``: json's indented dump of the whole report."""
    return json.dumps(report.to_dict(), indent=2) + "\n"


# repeats, subnormals, the largest floats, inf, -0.0 and 0.1's shortest repr
report_latency_st = st.one_of(
    st.floats(0, 1e6),
    st.sampled_from([0.0, -0.0, 0.1, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(report_latency_st, max_size=12), st.booleans(), st.booleans())
def test_report_json_matches_indented_dumps_oracle(latencies, metrics, config):
    report = RunReport(
        len(latencies), {p: 0 for p in PATHS}, {s: 1 for s in STAGES}, 0.5, None, latencies, 1.0, 2.0, 3.0,
        MacroMetrics(0.5, 0.25, 1.0, 1e-320) if metrics else None,
        CascadeConfig("latencies_ms", "b", ScoreFunction.DIFFERENCE, 0.5, True) if config else None,
    )
    assert format_report_json(report) == oracle_format_report_json(report)


def test_report_json_of_one_latency():
    report = RunReport(1, {p: 0 for p in PATHS}, {s: 0 for s in STAGES}, 0.0, None, [5e-324], 0.0, 0.0, 0.0)
    assert '"latencies_ms": [\n    5e-324\n  ],' in format_report_json(report)
    assert format_report_json(report) == oracle_format_report_json(report)


def test_aggregate_bad_trace_after_cached_tuple_raises_oracle_error():
    costs = CostProfile({s: StageCost(0.1, 0.3) for s in STAGES})
    good = StageTrace("g", PATHS[1], "a", 0, 0, 0.5, None, ("model_a",))
    bad_path = good._replace(sample_id="p", path="bogus")
    bad_stage = good._replace(sample_id="s", stages=("model_a", "model_c"))
    for traces in ([good, good, bad_path, bad_stage], [good, bad_stage, good, bad_path],
                   [good, bad_stage, bad_stage._replace(sample_id="t")]):
        want = _outcome(oracle_aggregate, traces, costs)
        assert isinstance(want, tuple)
        assert _outcome(aggregate, traces, costs) == want




# the rows an engine writes: a hit, an A-only or A+B decision with or without
# the memory's lookup and insert, and a degraded sample with its hash error
ROW_SHAPES = [
    (PATH_MEMORY_HIT, "memory", ("memory_lookup",), False),
    (PATHS[1], "a", ("model_a",), False),
    (PATHS[2], "b", ("model_a", "model_b"), False),
    (PATHS[2], "a", ("model_a", "model_b"), False),
    (PATHS[1], "a", ("memory_lookup", "model_a", "memory_insert"), False),
    (PATHS[2], "b", ("memory_lookup", "model_a", "model_b", "memory_insert"), False),
    (PATHS[1], "a", ("model_a",), True),
    (PATHS[2], "a", ("model_a", "model_b"), True),
]


@st.composite
def batch_rows(draw) -> tuple[list[StageTrace], CostProfile]:
    """A batch of engine-shaped rows with unusual ids, labels that may all be
    set or not, and now and then an unknown path or stage on any row."""
    costs = CostProfile({
        s: StageCost(draw(latency_st), draw(latency_st), draw(st.one_of(st.none(), latency_st))) for s in STAGES
    })
    labels = draw(st.sampled_from(["all", "none", "some"]))
    errors = st.one_of(st.sampled_from(["zero total intensity", "image is 0x0"]), text_st)
    rows = []
    for i in range(draw(st.integers(1, 12))):
        path, chosen, stages, degraded = draw(st.sampled_from(ROW_SHAPES))
        score_a = None if path == PATH_MEMORY_HIT else draw(score_st.filter(lambda v: v is not None))
        score_b = draw(score_st.filter(lambda v: v is not None)) if path == PATHS[2] else None
        label = draw(st.integers(-2, 12)) if labels == "all" or labels == "some" and draw(st.booleans()) else None
        rows.append(StageTrace(draw(text_st) + str(i), path, chosen, draw(st.integers(-2, 12)), label, score_a, score_b,
                               stages, draw(errors) if degraded else None))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):  # bad rows, now and then
        at = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[at] = rows[at]._replace(path=draw(st.sampled_from(["bogus", "memory", "", "Model_AB"])))
        else:
            stages = list(rows[at].stages)
            stages.insert(draw(st.integers(0, len(stages))), draw(st.sampled_from(["model_c", "", "MODEL_A"])))
            rows[at] = rows[at]._replace(stages=tuple(stages))
    return rows, costs


@settings(max_examples=300, deadline=None)
@given(batch_rows())
def test_columns_aggregate_and_write_as_the_per_trace_oracles(case):
    rows, costs = case
    traces = Traces.from_rows(rows)
    assert list(traces) == rows
    want = _outcome(oracle_aggregate, rows, costs)
    assert repr(_outcome(aggregate, traces, costs)) == repr(want)  # bit for bit
    if want[0] is DataError:  # the first bad row, in order, is the one named
        bad = next(t for t in rows if t.path not in PATHS or not set(t.stages) <= set(STAGES))
        assert want[1].endswith(f" in trace {bad.sample_id!r}")
    assert format_traces_jsonl(traces) == "".join(
        json.dumps(oracle_trace_to_dict(t), separators=(",", ":")) + "\n" for t in rows)


@pytest.mark.parametrize("n", [19, 20, 99, 100])
def test_each_percentile_reads_its_own_rank(n):
    """One A+B sample among A-only ones is the top latency: p95 reads it up to 19 samples, p99 up to 99."""
    rows = [StageTrace(f"s{i}", PATHS[1], "a", 0, 0, 0.5, None, ("model_a",)) for i in range(n - 1)]
    rows.append(StageTrace("last", PATHS[2], "b", 1, 0, 0.25, 0.75, ("model_a", "model_b")))
    costs = CostProfile({s: StageCost(0.1, 10.0) for s in STAGES})
    report = aggregate(Traces.from_rows(rows), costs)
    assert repr(report) == repr(oracle_aggregate(rows, costs))
    assert (report.p95_latency_ms, report.p99_latency_ms) == (20.0 if n < 20 else 10.0, 20.0 if n < 100 else 10.0)


def test_zero_traces_write_an_empty_file():
    assert format_traces_jsonl(Traces.from_rows([])) == ""
    assert format_traces_jsonl([]) == ""


DUP_COSTS = CostProfile({
    "memory_lookup": StageCost(0.001, 1.0),
    "memory_insert": StageCost(0.002, 1.0),
    "model_a": StageCost(0.1, 10.0),
    "model_b": StageCost(0.3, 20.0),
})


def _entries(config: CascadeConfig, records_a: RecordTable, records_b: RecordTable, memories: Sequence[str]):
    """One (name, engine factory) entry per memory method, over one config and one pair of tables."""
    def factory(memory: str) -> Callable[[], CascadeEngine]:
        variant = CascadeConfig(config.first_model, config.second_model, config.score_fn, config.threshold,
                                config.post_check, memory)
        return lambda: CascadeEngine(variant, ReplayClassifier("model_a", records_a),
                                     ReplayClassifier("model_b", records_b))
    return [(f"{i}:{memory}", factory(memory)) for i, memory in enumerate(memories)]


@st.composite
def duplication_cases(draw):
    """Samples over a small image pool (a blank frame, repeats, 1 and 3
    channels), logits that put some samples on each path, and ratios in any
    order, repeats included."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 4))
    w, h = draw(st.integers(9, 14)), draw(st.integers(8, 14))
    pool = [synthetic_image(w, h, seed, draw(st.sampled_from((1, 3)))) for seed in range(draw(st.integers(1, 4)))]
    pool.append(ImageBuffer(w, h, 1, bytes(w * h)))  # hash error under moments, a repeat under dhash
    ids = [f"s{i}" for i in range(n)]
    labels = [draw(st.integers(0, k - 1)) for _ in ids]
    logit_st = st.lists(st.lists(st.floats(-4, 4), min_size=k, max_size=k), min_size=n, max_size=n)
    records_a = RecordTable(ids, labels, draw(logit_st))
    records_b = RecordTable(ids, labels, draw(logit_st))
    samples = [SampleRef(rid, draw(st.sampled_from(pool)), label) for rid, label in zip(ids, labels)]
    ratios = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=4))
    config = CascadeConfig("model_a", "model_b", draw(st.sampled_from(list(ScoreFunction))),
                           draw(st.floats(0.0, 1.0)), draw(st.booleans()))
    memories = draw(st.sampled_from([["none"], ["dhash"], ["moments"], ["dhash", "moments"],
                                     ["none", "dhash", "moments", "moments"]]))
    transform = draw(st.sampled_from(["identity", "rot90", RANDOM_TRANSFORM]))
    return samples, ratios, transform, _entries(config, records_a, records_b, memories), draw(st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(duplication_cases())
def test_duplication_experiment_matches_fresh_engine_oracle(case):
    samples, ratios, transform, entries, seed = case
    got = duplication_experiment(samples, ratios, transform, entries, DUP_COSTS, seed=seed)
    want = oracle_duplication_experiment(samples, ratios, transform, entries, DUP_COSTS, seed=seed)
    assert got == want
    assert repr(got) == repr(want)  # bit for bit, -0.0 and int types included


def test_each_distinct_image_is_fingerprinted_once_per_engine(monkeypatch):
    """The calib-10k duplication slice: 512 distinct 32x32 RGB images and
    identity duplicates at ratios 0, 0.5 and 1 are 2304 samples, which the
    engines grayscale and fingerprint 512 times each, in stacks of
    CHUNK_PIXELS; one blank frame is tried once under moments and degrades
    every sample it appears in."""
    count = 512
    ids = [f"s{i:03d}" for i in range(count)]
    images = [synthetic_image(32, 32, seed, 3) for seed in range(count - 1)]
    images.append(ImageBuffer(32, 32, 3, bytes(32 * 32 * 3)))
    samples = [SampleRef(rid, image) for rid, image in zip(ids, images)]
    records = RecordTable(ids, [0] * count, [[1.0, 0.0, 0.5]] * count)
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, 0.5, True)
    grayscaled = Counter()
    fingerprinted = {method: Counter() for method in FINGERPRINTS}
    stacks = []

    def counted_grayscale(chunk):
        grayscaled.update(chunk)
        stacks.append(len(chunk))
        return grayscale_stack(chunk)

    def counted(counter, kernel):
        def wrapper(planes):
            counter.update(plane.tobytes() for plane in planes)
            return kernel(planes)
        return wrapper

    monkeypatch.setattr(phash, "grayscale_stack", counted_grayscale)
    for method, kernel in list(FINGERPRINTS.items()):
        monkeypatch.setitem(FINGERPRINTS, method, counted(fingerprinted[method], kernel))
    curves = duplication_experiment(samples, [0, 0.5, 1], "identity",
                                    _entries(config, records, records, ["dhash", "moments"]), DUP_COSTS)

    assert sum(len(build_duplicated_stream(samples, r, "identity", random.Random(0))) for r in (0, 0.5, 1)) == 2304
    assert sorted(grayscaled.values()) == [2] * count  # once per engine entry
    assert stacks == [phash.CHUNK_PIXELS // (32 * 32)] * (2 * count * 32 * 32 // phash.CHUNK_PIXELS)
    for method in FINGERPRINTS:
        assert len(fingerprinted[method]) == count
        assert set(fingerprinted[method].values()) == {1}
    dhash_curve, moments_curve = curves
    assert [hits for _, _, hits in dhash_curve.points] == [0, 256, 512]
    assert [hits for _, _, hits in moments_curve.points] == [0, 256, 511]  # the blank never hits


def test_hash_error_message_is_reused_not_reraised():
    blank = ImageBuffer(9, 8, 1, bytes(72))
    records = RecordTable(["x", "y"], [0, 0], [[1.0, 0.0], [1.0, 0.0]])
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, 0.5, True, "moments")
    engine = CascadeEngine(config, ReplayClassifier("model_a", records), ReplayClassifier("model_b", records))
    first = run_batch(engine, [SampleRef("x", blank), SampleRef("y", ImageBuffer(9, 8, 1, bytearray(72)))])[0]
    engine.clear_memory()
    again = run_batch(engine, [SampleRef("x", blank)])[0]
    assert [t.hash_error for t in [*first, *again]] == ["zero total intensity"] * 3
    assert len(engine._fingerprints) == 1 and len(engine.store) == 0


def test_a_freed_image_leaves_the_fingerprint_memo():
    """The memo holds its images weakly: a long-lived engine keeps no pixels the caller has let go."""
    records = RecordTable(["x", "y"], [0, 0], [[1.0, 0.0], [1.0, 0.0]])
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, 0.5, True, "dhash")
    engine = CascadeEngine(config, ReplayClassifier("model_a", records), ReplayClassifier("model_b", records))
    kept, freed = synthetic_image(9, 8, 1, 1), synthetic_image(9, 8, 2, 1)
    traces, _ = run_batch(engine, [SampleRef("x", kept), SampleRef("y", freed)])
    assert len(engine._fingerprints) == 2
    del freed
    gc.collect()
    assert list(engine._fingerprints.keys()) == [kept]
    again, _ = run_batch(engine, [SampleRef("y", kept)])  # an image still alive is not hashed again
    assert len(engine._fingerprints) == 1 and again[0].path == "memory_hit"
