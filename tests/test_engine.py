from __future__ import annotations

import json

import numpy as np
import pytest

from cascadekit import engine as engine_module
from cascadekit.calibration import CascadeConfig, accuracy_at
from cascadekit.confidence import ScoreFunction
from cascadekit.engine import (
    PATH_MEMORY_HIT,
    PATH_MODEL_A_ONLY,
    PATH_MODEL_AB,
    CascadeEngine,
    ReplayClassifier,
    SampleRef,
    StageTrace,
    Traces,
    format_traces_jsonl,
    macro_metrics,
    run_batch,
)
from cascadekit.errors import DataError
from cascadekit.images import ImageBuffer, rotate90
from cascadekit.metering import aggregate
from cascadekit.phash import dhash_fingerprint
from cascadekit.records import RecordTable, align_records, load_cost_profile, load_prediction_records
from cascadekit.synthetic import synthetic_image
from test_calibration_oracles import oracle_decide
from test_metering_oracles import oracle_trace_to_dict as trace_to_dict

DIFF = ScoreFunction.DIFFERENCE


def _engine(
    threshold=0.5, post_check=True, memory="none", a_rows=None, b_rows=None
) -> CascadeEngine:
    # default fixture: A confident and right on x1, hesitant and wrong on
    # x2 where B answers confidently, hesitant and right on x3 where B is
    # wrong but even less sure
    a_rows = a_rows or [
        ("x1", 0, (6.0, 0.0, 0.0)),
        ("x2", 1, (0.6, 0.0, 0.4)),
        ("x3", 2, (0.0, 0.2, 0.7)),
    ]
    b_rows = b_rows or [
        ("x1", 0, (0.0, 3.0, 0.0)),
        ("x2", 1, (0.0, 5.0, 0.0)),
        ("x3", 2, (0.1, 0.2, 0.0)),
    ]
    config = CascadeConfig("model_a", "model_b", DIFF, threshold, post_check, memory)
    return CascadeEngine(
        config,
        ReplayClassifier("model_a", _table(a_rows)),
        ReplayClassifier("model_b", _table(b_rows)),
    )


def _table(rows) -> RecordTable:
    """(id, label, logits) rows as one record table."""
    ids, labels, logits = zip(*rows)
    return RecordTable(ids, labels, logits)


class TestReplayClassifier:
    def test_replays_logits(self):
        table = _table([("a", 0, (1.0, 2.0)), ("b", 1, (3.0, 4.0))])
        clf = ReplayClassifier("m", table)
        assert clf.infer(["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert clf.infer(["b", "a", "b"]).tolist() == [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]
        rows = clf.infer(["b"])
        assert rows.dtype == np.float64 and rows.shape == (1, 2)
        assert not np.shares_memory(rows, table.logits)  # one gather, a copy
        assert clf.infer([]).shape == (0, 2)

    def test_unknown_id(self):
        clf = ReplayClassifier("small", _table([("a", 0, (1.0, 2.0))]))
        with pytest.raises(DataError, match="^small: unknown sample id 'b'$"):
            clf.infer(["a", "b", "c"])

    @pytest.mark.parametrize("ids", ["a", "ab"])
    def test_a_str_is_not_a_sequence_of_ids(self, ids):
        clf = ReplayClassifier("model_a", _table([("a", 0, (1.0, 2.0)), ("b", 1, (3.0, 4.0))]))
        with pytest.raises(DataError, match="^model_a: sample ids must be a sequence of ids, not a str$"):
            clf.infer(ids)


class TestClassify:
    def test_confident_sample_stops_at_model_a(self):
        trace = _engine().run([SampleRef("x1", label=0)])[0]
        assert trace.path == PATH_MODEL_A_ONLY
        assert trace.chosen == "a"
        assert trace.predicted == 0
        assert trace.stages == ("model_a",)
        assert trace.score_b is None
        assert trace.score_a is not None
        assert trace.hash_error is None

    def test_hesitant_sample_escalates_and_b_wins(self):
        trace = _engine().run([SampleRef("x2", label=1)])[0]
        assert trace.path == PATH_MODEL_AB
        assert trace.stages == ("model_a", "model_b")
        assert trace.chosen == "b"
        assert trace.predicted == 1
        assert trace.score_b is not None

    def test_post_check_keeps_model_a_when_b_is_worse(self):
        trace = _engine().run([SampleRef("x3", label=2)])[0]
        assert trace.path == PATH_MODEL_AB
        assert trace.chosen == "a"
        assert trace.predicted == 2

    def test_without_post_check_b_always_answers(self):
        trace = _engine(post_check=False).run([SampleRef("x3", label=2)])[0]
        assert trace.chosen == "b"
        assert trace.predicted == 1

    def test_model_b_runs_only_on_escalation(self):
        class Unreachable:
            name = "model_b"

            def infer(self, sample_ids):
                raise AssertionError(f"model B invoked for {sample_ids}")

        config = CascadeConfig("model_a", "model_b", DIFF, 0.5, True)
        a = ReplayClassifier("model_a", _table([("x1", 0, (6.0, 0.0, 0.0))]))
        trace = CascadeEngine(config, a, Unreachable()).run([SampleRef("x1")])[0]
        assert trace.path == PATH_MODEL_A_ONLY
        assert trace.stages == ("model_a",)

    def test_model_b_logits_length_mismatch(self):
        engine = _engine(b_rows=[("x2", 1, (0.0, 5.0))])
        with pytest.raises(DataError, match=r"^model_b: logits of shape \(1, 2\) for 1 samples, want \(1, 3\)$"):
            engine.run([SampleRef("x2")])

    def test_label_is_passed_through(self):
        assert _engine().run([SampleRef("x1")])[0].label is None
        assert _engine().run([SampleRef("x1", label=2)])[0].label == 2

    def test_matches_offline_decisions(self, bundled_paired):
        records_a = RecordTable(bundled_paired.ids, bundled_paired.labels, bundled_paired.logits_a)
        records_b = RecordTable(bundled_paired.ids, bundled_paired.labels, bundled_paired.logits_b)
        config = CascadeConfig("model_a", "model_b", DIFF, 0.62, True, "none")
        engine = CascadeEngine(
            config,
            ReplayClassifier("model_a", records_a),
            ReplayClassifier("model_b", records_b),
        )
        used = 0
        for s in bundled_paired.samples:
            trace = engine.run([SampleRef(s.id, label=s.label)])[0]
            predicted, used_second, chosen = oracle_decide(
                s.logits_a, s.logits_b, DIFF, 0.62, True
            )
            assert trace.predicted == predicted
            assert trace.chosen == chosen
            assert (trace.path == PATH_MODEL_AB) == used_second
            used += used_second
        accuracy, usage = accuracy_at(bundled_paired, DIFF, 0.62, True)
        assert usage == used / len(bundled_paired)


class TestMemory:
    def test_first_sight_runs_models_and_inserts(self):
        engine = _engine(memory="dhash")
        img = synthetic_image(16, 16, seed=3)
        trace = engine.run([SampleRef("x1", image=img, label=0)])[0]
        assert trace.path == PATH_MODEL_A_ONLY
        assert trace.stages == ("memory_lookup", "model_a", "memory_insert")
        assert len(engine.store) == 1
        assert engine.store.lookup(dhash_fingerprint(img)) == 0

    def test_second_sight_is_a_hit(self):
        engine = _engine(memory="dhash")
        img = synthetic_image(16, 16, seed=3)
        engine.run([SampleRef("x2", image=img, label=1)])
        trace = engine.run([SampleRef("x2", image=img, label=1)])[0]
        assert trace.path == PATH_MEMORY_HIT
        assert trace.chosen == "memory"
        assert trace.stages == ("memory_lookup",)
        assert trace.predicted == 1
        assert trace.score_a is None and trace.score_b is None

    def test_hit_replays_earlier_mistake(self):
        # model A is confidently wrong on this sample; the memo store
        # caches the cascade's answer, not the truth
        engine = _engine(
            memory="dhash",
            a_rows=[("x1", 0, (0.0, 9.0, 0.0))],
            b_rows=[("x1", 0, (5.0, 0.0, 0.0))],
        )
        img = synthetic_image(12, 12, seed=4)
        first = engine.run([SampleRef("x1", image=img, label=0)])[0]
        assert first.predicted == 1
        hit = engine.run([SampleRef("x1", image=img, label=0)])[0]
        assert hit.path == PATH_MEMORY_HIT
        assert hit.predicted == 1
        assert hit.label == 0

    def test_hit_skips_the_classifiers_entirely(self):
        # the second ref's id is unknown to both classifiers, so anything
        # but a memory hit would blow up
        engine = _engine(memory="moments")
        img = synthetic_image(20, 20, seed=6)
        engine.run([SampleRef("x1", image=img, label=0)])
        trace = engine.run([SampleRef("never-inferred", image=rotate90(img))])[0]
        assert trace.path == PATH_MEMORY_HIT
        assert trace.predicted == 0

    def test_dhash_misses_on_rotation(self):
        img = synthetic_image(16, 16, seed=7)
        turned = rotate90(img)
        assert dhash_fingerprint(img) != dhash_fingerprint(turned)
        engine = _engine(memory="dhash")
        engine.run([SampleRef("x1", image=img)])
        trace = engine.run([SampleRef("x1", image=turned)])[0]
        assert trace.path == PATH_MODEL_A_ONLY
        assert len(engine.store) == 2

    def test_moments_match_rotated_rgb_image(self):
        engine = _engine(memory="moments")
        img = synthetic_image(18, 14, seed=9, channels=3)
        engine.run([SampleRef("x1", image=img, label=0)])
        trace = engine.run([SampleRef("x1", image=rotate90(img))])[0]
        assert trace.path == PATH_MEMORY_HIT

    def test_image_required_when_memory_enabled(self):
        engine = _engine(memory="dhash")
        with pytest.raises(DataError, match="image required when memory=dhash"):
            engine.run([SampleRef("x1", label=0)])
        image = synthetic_image(8, 8, seed=1)  # kept alive: the fingerprint memo holds images weakly
        with pytest.raises(DataError, match="'x2': image required"):
            engine.run([SampleRef("x1", image=image), SampleRef("x2")])
        assert len(engine._fingerprints) == 0  # refused before anything is hashed

    def test_hash_failure_degrades_to_plain_cascade(self):
        engine = _engine(memory="moments")
        black = ImageBuffer(8, 8, 1, bytes(64))
        trace = engine.run([SampleRef("x1", image=black, label=0)])[0]
        assert trace.path == PATH_MODEL_A_ONLY
        assert trace.predicted == 0
        assert trace.hash_error == "zero total intensity"
        assert "memory_lookup" not in trace.stages
        assert "memory_insert" not in trace.stages
        assert len(engine.store) == 0

    def test_two_blank_frames_in_one_batch_both_take_the_decided_path(self):
        engine = _engine(memory="moments")
        samples = [SampleRef(i, image=ImageBuffer(8, 8, 1, bytes(64)), label=l) for i, l in (("x1", 0), ("x2", 1))]
        traces = engine.run(samples)
        assert traces.path == [PATH_MODEL_A_ONLY, PATH_MODEL_AB]  # the second blank is no hit of the first
        assert traces.stages == [("model_a",), ("model_a", "model_b")]
        assert traces.hash_error == ["zero total intensity"] * 2
        assert len(engine.store) == 0

    def test_no_store_when_memory_disabled(self):
        assert _engine().store is None
        assert _engine(memory="dhash").store is not None


class TestRunBatch:
    def test_counts_and_usage(self, costs_dir):
        engine = _engine()
        samples = [SampleRef(i, label=l) for i, l in (("x1", 0), ("x2", 1), ("x3", 2))]
        traces, summary = run_batch(engine, samples)
        assert [t.sample_id for t in traces] == ["x1", "x2", "x3"]
        assert summary.sample_count == 3
        assert summary.path_counts == {
            PATH_MEMORY_HIT: 0, PATH_MODEL_A_ONLY: 1, PATH_MODEL_AB: 2,
        }
        assert summary.second_model_usage == pytest.approx(2 / 3)
        report = aggregate(traces, load_cost_profile(str(costs_dir / "cifar10.json")))
        assert report.metrics is not None
        assert report.metrics.accuracy == 1.0

    def test_a_memory_off_batch_builds_no_trace_row(self, monkeypatch, data_dir, costs_dir):
        """run_batch, aggregate and the trace writer keep a batch in columns: no StageTrace is
        made, neither by its constructor nor by ``tuple.__new__`` through a module's name for it."""
        tables = [load_prediction_records(str(data_dir / f"{name}.jsonl")) for name in ("model_a", "model_b")]
        config = CascadeConfig("model_a", "model_b", DIFF, 0.5, True)
        engine = CascadeEngine(config, *map(ReplayClassifier, ("model_a", "model_b"), tables))
        samples = [SampleRef(i, label=y) for i, y in zip(tables[0].ids, tables[0].labels.tolist())]
        costs = load_cost_profile(str(costs_dir / "cifar10.json"))

        def refuse(*args, **kwargs):
            raise AssertionError("a StageTrace row was built")

        monkeypatch.setattr(StageTrace, "__new__", refuse)
        monkeypatch.setattr(StageTrace, "_make", classmethod(refuse))
        monkeypatch.setattr(engine_module, "StageTrace", None)
        traces, summary = run_batch(engine, samples)
        report = aggregate(traces, costs)
        text = format_traces_jsonl(traces)
        monkeypatch.undo()
        assert text.count("\n") == report.sample_count == len(traces) == 500
        assert 0 < summary.path_counts[PATH_MODEL_AB] < 500
        assert text == format_traces_jsonl(Traces.from_rows(list(traces)))

    def test_order_matters_for_memory(self):
        img = synthetic_image(16, 16, seed=5)
        samples = [
            SampleRef("x1", image=img, label=0),
            SampleRef("x1", image=img, label=0),
        ]
        _, summary = run_batch(_engine(memory="dhash"), samples)
        assert summary.path_counts[PATH_MEMORY_HIT] == 1
        assert summary.path_counts[PATH_MODEL_A_ONLY] == 1

    def test_metrics_need_every_label(self, costs_dir):
        engine = _engine()
        samples = [SampleRef("x1", label=0), SampleRef("x2")]
        traces, summary = run_batch(engine, samples)
        assert aggregate(traces, load_cost_profile(str(costs_dir / "cifar10.json"))).metrics is None
        assert summary.second_model_usage == 0.5

    def test_empty_batch(self):
        with pytest.raises(DataError, match="empty batch"):
            run_batch(_engine(), [])


class TestMacroMetrics:
    def test_perfect(self):
        m = macro_metrics([0, 1, 2], [0, 1, 2])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed_two_class(self):
        m = macro_metrics([0, 0, 1, 1], [0, 1, 1, 1])
        assert m.accuracy == 0.75
        assert m.precision == pytest.approx(5 / 6)
        assert m.recall == pytest.approx(0.75)
        assert m.f1 == pytest.approx((2 / 3 + 0.8) / 2)

    def test_class_only_in_predictions_is_ignored(self):
        m = macro_metrics([0, 0], [0, 1])
        assert m.precision == 1.0
        assert m.recall == 0.5

    def test_never_predicted_class_gets_zero_precision(self):
        m = macro_metrics([0, 1], [0, 0])
        assert m.precision == pytest.approx(0.25)
        assert m.recall == pytest.approx(0.5)
        assert m.f1 == pytest.approx(1 / 3)

    def test_single_class(self):
        m = macro_metrics([3, 3], [3, 3])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_errors(self):
        with pytest.raises(DataError, match="differ in length"):
            macro_metrics([0], [0, 1])
        with pytest.raises(DataError, match="no labeled samples"):
            macro_metrics([], [])


class TestRecordTypes:
    """SampleRef and StageTrace keep their fields, order and defaults, and stay immutable."""

    def test_sample_ref(self):
        img = synthetic_image(2, 2, 0)
        assert SampleRef._fields == ("id", "image", "label")
        assert SampleRef("x") == SampleRef(id="x") == SampleRef("x", None, None)
        ref = SampleRef("x", img, 3)
        assert ref == SampleRef(id="x", image=img, label=3)
        assert (ref.id, ref.image, ref.label) == ("x", img, 3)
        with pytest.raises(AttributeError):
            ref.label = 4

    def test_stage_trace(self):
        assert StageTrace._fields == (
            "sample_id", "path", "chosen", "predicted", "label", "score_a", "score_b", "stages", "hash_error",
        )
        args = ("x", PATH_MODEL_AB, "b", 1, 2, 0.25, 0.5, ("model_a", "model_b"))
        trace = StageTrace(*args)
        assert trace.hash_error is None
        assert trace == StageTrace(
            sample_id="x", path=PATH_MODEL_AB, chosen="b", predicted=1, label=2,
            score_a=0.25, score_b=0.5, stages=("model_a", "model_b"), hash_error=None,
        )
        assert StageTrace(*args, "blank").hash_error == "blank"
        with pytest.raises(AttributeError):
            trace.predicted = 0

    def test_traces_index_by_integer_only(self):
        rows = [StageTrace(i, PATH_MODEL_A_ONLY, "a", 0, None, 0.5, None, ("model_a",)) for i in ("x", "y", "z")]
        traces = Traces.from_rows(rows)
        assert traces[np.int64(1)] == traces[-2] == rows[1]
        for i in (slice(0, 2), 1.0, "1", None):
            with pytest.raises(TypeError):
                traces[i]
        with pytest.raises(IndexError):
            traces[3]


class TestTraceSerialization:
    def test_dict_shape_for_model_path(self):
        trace = _engine().run([SampleRef("x2", label=1)])[0]
        obj = trace_to_dict(trace)
        assert set(obj) == {
            "id", "path", "chosen", "predicted", "label", "stages", "scores",
            "hash_error",
        }
        assert obj["id"] == "x2"
        assert obj["stages"] == ["model_a", "model_b"]
        assert obj["scores"] == {"a": trace.score_a, "b": trace.score_b}
        assert obj["hash_error"] is None

    def test_scores_null_on_memory_hit(self):
        hit = StageTrace("x", PATH_MEMORY_HIT, "memory", 4, 4, None, None,
                         ("memory_lookup",))
        assert trace_to_dict(hit)["scores"] is None

    def test_scores_present_when_only_a_ran(self):
        trace = _engine().run([SampleRef("x1", label=0)])[0]
        obj = trace_to_dict(trace)
        assert obj["scores"] == {"a": trace.score_a, "b": None}

    def test_jsonl_round_trip(self):
        engine = _engine()
        traces, _ = run_batch(
            engine, [SampleRef("x1", label=0), SampleRef("x2", label=1)]
        )
        text = format_traces_jsonl(traces)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["id"] == "x1"
        assert first["path"] == PATH_MODEL_A_ONLY
        assert ": " not in lines[0]
        assert lines == [json.dumps(trace_to_dict(t), separators=(",", ":")) for t in traces]


class TestArgmaxOnLogits:
    # exp(-1e-20) rounds to 1.0, so an argmax over softmax output sees a tie
    # and picks class 0; the logits themselves favour class 1
    LOGITS = (0.0, 1e-20)

    def test_engine_offline_rule_and_calibration_agree(self):
        records = _table([("x", 1, self.LOGITS)])
        for threshold in (0.0, 1.0):  # model A alone, then escalation to B
            config = CascadeConfig("model_a", "model_b", DIFF, threshold, True)
            engine = CascadeEngine(
                config, ReplayClassifier("model_a", records), ReplayClassifier("model_b", records)
            )
            assert engine.run([SampleRef("x")])[0].predicted == 1
            assert oracle_decide(self.LOGITS, self.LOGITS, DIFF, threshold, True)[0] == 1
            paired = align_records(records, records)
            assert accuracy_at(paired, DIFF, threshold, post_check=True)[0] == 1.0
