"""Differential tests: the run tail (trace writer, aggregation, macro metrics)
against the per-trace and per-class code it replaced.

``oracle_trace_to_dict`` is the former ``engine.trace_to_dict``, which
``format_traces_jsonl`` fed one dict per trace to ``json``;
``oracle_macro_metrics`` is the former ``macro_metrics`` body (three
counting passes per class) and ``oracle_aggregate`` the former ``aggregate``
(every stage of every trace checked and priced in turn). They are kept
unchanged apart from their names. The new code must write the same bytes,
give the same floats, and raise the same first error.
"""

from __future__ import annotations

import json
import random
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit.calibration import CascadeConfig
from cascadekit.engine import (
    PATHS,
    MacroMetrics,
    StageTrace,
    format_traces_jsonl,
    macro_metrics,
)
from cascadekit.errors import DataError
from cascadekit.metering import RunReport, aggregate, format_report_json, nearest_rank
from cascadekit.records import STAGES, CostProfile, StageCost


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
        precision=sum(precisions) / k,
        recall=sum(recalls) / k,
        f1=sum(f1s) / k,
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
    total_energy = sum(count * costs.energy(s) for s, count in stage_counts.items())
    currents = [costs.stages[s].current_mah for s in STAGES]
    total_current = None
    if all(c is not None for c in currents):
        total_current = sum(count * costs.stages[s].current_mah for s, count in stage_counts.items())
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
        mean_latency_ms=sum(latencies) / len(latencies),
        p95_latency_ms=nearest_rank(latencies, 95),
        p99_latency_ms=nearest_rank(latencies, 99),
        metrics=metrics,
        config=config,
    )


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
    got = _outcome(fn, traces, costs)
    return got if isinstance(got, tuple) else format_report_json(got)


@settings(max_examples=300, deadline=None)
@given(priced_traces())
def test_aggregate_matches_per_trace_oracle(case):
    traces, costs = case
    assert _report_or_error(aggregate, traces, costs) == _report_or_error(oracle_aggregate, traces, costs)


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
