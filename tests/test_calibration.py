from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from cascadekit import calibration
from cascadekit.calibration import (
    CascadeConfig,
    accuracy_at,
    auto_select,
    candidate_lambdas,
    decide,
    find_lambda_star,
    format_curve_csv,
    load_config,
    save_config,
)
from cascadekit.confidence import ScoreFunction, softmax_rows
from cascadekit.errors import DataError
from cascadekit.records import PairedDataset, RecordTable, align_records, load_prediction_records
from test_calibration_oracles import better_score, oracle_score, oracle_softmax

DIFF = ScoreFunction.DIFFERENCE
MAX = ScoreFunction.MAX_PROBABILITY
ENTROPY = ScoreFunction.ENTROPY_NORMALIZED


def _paired(rows, name_a="model_a", name_b="model_b") -> PairedDataset:
    """(label, logits_a, logits_b) rows as a dataset with ids s000, s001, ..."""
    labels, logits_a, logits_b = zip(*rows)
    return PairedDataset(
        tuple(f"s{i:03d}" for i in range(len(rows))),
        np.array(labels, dtype=np.int64),
        np.array(logits_a, dtype=np.float64),
        np.array(logits_b, dtype=np.float64),
        name_a,
        name_b,
    )


def _three_sample_set() -> PairedDataset:
    # A is right and confident on the first two; the third needs B, which
    # answers with much higher confidence than A's hesitant miss.
    return _paired(
        [
            (0, (6.0, 0.0, 0.0), (0.0, 0.0, 0.2)),
            (1, (0.0, 4.0, 0.0), (0.3, 0.0, 0.0)),
            (2, (0.5, 0.0, 0.2), (0.0, 0.0, 5.0)),
        ]
    )


class TestCascadeConfig:
    def _config(self, **overrides):
        base = dict(
            first_model="small",
            second_model="big",
            score_fn=DIFF,
            threshold=0.5,
            post_check=True,
            memory="none",
        )
        base.update(overrides)
        return CascadeConfig(**base)

    def test_round_trip(self, tmp_path):
        config = self._config(threshold=0.8724, memory="dhash")
        path = tmp_path / "config.json"
        save_config(config, str(path))
        assert load_config(str(path)) == config
        on_disk = json.loads(path.read_text())
        assert on_disk["lambda"] == 0.8724
        assert on_disk["score_fn"] == "diff"

    def test_threshold_range(self):
        with pytest.raises(DataError, match=r"^threshold 1\.5 outside \[0, 1\]$"):
            self._config(threshold=1.5)
        with pytest.raises(DataError, match=r"^threshold -0\.1 outside \[0, 1\]$"):
            self._config(threshold=-0.1)

    def test_models_must_differ(self):
        with pytest.raises(DataError, match="^first and second model must differ$"):
            self._config(second_model="small")

    def test_memory_values(self):
        for memory in ("none", "dhash", "moments"):
            assert self._config(memory=memory).memory == memory
        with pytest.raises(DataError, match="^unknown memory method 'md5'$"):
            self._config(memory="md5")

    def test_compares_by_value(self):
        config = self._config()
        assert config == self._config() and not config != self._config()
        for change in ({"first_model": "tiny"}, {"second_model": "huge"}, {"score_fn": ScoreFunction.ENTROPY_NORMALIZED},
                       {"threshold": 0.25}, {"post_check": False}, {"memory": "dhash"}):
            assert config != self._config(**change)
        assert config != config.to_dict()
        with pytest.raises(TypeError):
            hash(config)
        assert repr(config) == ("CascadeConfig(first_model='small', second_model='big', "
                                "score_fn=<ScoreFunction.DIFFERENCE: 'diff'>, threshold=0.5, post_check=True, memory='none')")

    def test_from_dict_requires_exact_keys(self):
        obj = self._config().to_dict()
        obj["extra"] = 1
        with pytest.raises(DataError, match="exactly keys"):
            CascadeConfig.from_dict(obj)

    def test_from_dict_bool_post_check(self):
        obj = self._config().to_dict()
        obj["post_check"] = 1
        with pytest.raises(DataError, match="post_check must be a boolean"):
            CascadeConfig.from_dict(obj)

    def test_from_dict_lambda_must_be_a_number(self):
        for bad in ("abc", "0.5", [0.5], None, True, False):
            obj = self._config().to_dict()
            obj["lambda"] = bad
            with pytest.raises(DataError, match="lambda must be a number"):
                CascadeConfig.from_dict(obj)
        for out_of_range in (1.5, -1, 10**400, float("nan")):
            obj = self._config().to_dict()
            obj["lambda"] = out_of_range
            with pytest.raises(DataError, match=r"^lambda must be within \[0, 1\]$"):
                CascadeConfig.from_dict(obj)
        obj = self._config().to_dict()
        obj["lambda"] = 1
        assert repr(CascadeConfig.from_dict(obj).threshold) == "1.0"

    def test_from_dict_names_must_be_strings(self):
        for key in ("first_model", "second_model", "memory"):
            for bad in (None, 1, ["small"], {"name": "small"}, True):
                obj = self._config().to_dict()
                obj[key] = bad
                with pytest.raises(DataError, match=f"^{key} must be a string$"):
                    CascadeConfig.from_dict(obj)

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataError, match="cannot read config"):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(DataError, match="invalid config JSON"):
            load_config(str(bad))

    def test_save_into_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot write"):
            save_config(self._config(), str(tmp_path / "missing" / "config.json"))


def _b_never_called(rows):
    raise AssertionError("model B must not run when model A passes")


def _rows(*logits) -> np.ndarray:
    return np.array(logits, dtype=np.float64)


class TestDecideOffline:
    """``decide`` on fixed logits, as an offline replay calls it."""

    def test_pass_keeps_first_model(self):
        config = CascadeConfig("a", "b", DIFF, 0.5, True)
        predicted, chosen_a, score_a, score_b = decide(config, _rows((6.0, 0.0, 0.0)), _b_never_called)
        assert (predicted, chosen_a, score_b) == ([0], [True], [None])
        assert score_a == [oracle_score(oracle_softmax((6.0, 0.0, 0.0)), DIFF)]

    def test_fail_without_post_check_takes_second(self):
        config = CascadeConfig("a", "b", DIFF, 0.9, False)
        asked = []

        def infer_b(rows):
            asked.append(rows.tolist())
            return [(0.0, 5.0, 0.0)]

        predicted, chosen_a, _, score_b = decide(
            config, _rows((9.0, 0.0, 0.0), (0.5, 0.0, 0.2)), infer_b
        )
        assert asked == [[1]]  # once, for the escalated row only
        assert (predicted, chosen_a) == ([0, 1], [True, False])
        assert score_b == [None, oracle_score(oracle_softmax((0.0, 5.0, 0.0)), DIFF)]

    def test_fail_with_post_check_can_keep_first(self):
        # A misses the threshold but still outscores B
        logits_a = (2.0, 0.0, 0.0)
        logits_b = (0.2, 0.1, 0.0)
        s_a = oracle_score(oracle_softmax(logits_a), DIFF)
        s_b = oracle_score(oracle_softmax(logits_b), DIFF)
        assert s_b < s_a < 0.99
        config = CascadeConfig("a", "b", DIFF, 0.99, True)
        got = decide(config, _rows(logits_a), lambda rows: [logits_b])
        assert got == ([0], [True], [s_a], [s_b])
        assert type(got[0][0]) is int and type(got[2][0]) is float

    def test_length_mismatch(self):
        # model B's whole answer is checked once: rows x model A's K, named after model B
        config = CascadeConfig("a", "b", DIFF, 0.5, True)
        for answer, shape in (([(1.0, 0.0, 0.0)], "(1, 3)"), ([(1.0, 0.0)] * 2, "(2, 2)"),
                              ([1.0, 0.0], "(2,)"), ([(1.0, 0.0), (1.0,)], "(0,)")):
            with pytest.raises(DataError, match=rf"^b: logits of shape {re.escape(shape)} for 1 samples, want \(1, 2\)$"):
                decide(config, _rows((1.0, 0.0)), lambda rows: answer)


class TestAccuracyAt:
    def test_lambda_zero_diff_is_model_a_alone(self, bundled_paired):
        accuracy, usage = accuracy_at(bundled_paired, DIFF, 0.0, True)
        standalone = sum(
            1
            for s in bundled_paired.samples
            if max(range(10), key=lambda i: s.logits_a[i]) == s.label
        ) / len(bundled_paired)
        assert usage == 0.0
        assert accuracy == standalone

    def test_lambda_one_diff_usage_is_fraction_below_one(self, bundled_paired):
        _, usage = accuracy_at(bundled_paired, DIFF, 1.0, True)
        below = sum(
            1
            for s in bundled_paired.samples
            if oracle_score(oracle_softmax(s.logits_a), DIFF) < 1.0
        )
        assert usage == below / len(bundled_paired)

    def test_three_sample_set_reaches_perfect_accuracy(self):
        paired = _three_sample_set()
        accuracy, usage = accuracy_at(paired, DIFF, 0.5, True)
        assert accuracy == 1.0
        assert usage == pytest.approx(1 / 3)

    def test_empty_dataset(self):
        with pytest.raises(DataError, match="empty"):
            empty = np.zeros((0, 3))
            accuracy_at(PairedDataset((), np.zeros(0, np.int64), empty, empty), DIFF, 0.5, True)

    def test_matches_per_sample_decisions(self, bundled_paired):
        # decide and the sweep are the rule's two forms; both must count alike
        for kind in (DIFF, ENTROPY):
            for lam in (0.3, 0.7):
                accuracy, usage = accuracy_at(bundled_paired, kind, lam, True)
                config = CascadeConfig("model_a", "model_b", kind, lam, True)
                predicted, _, _, score_b = decide(
                    config, bundled_paired.logits_a, lambda rows: bundled_paired.logits_b[rows]
                )
                correct = sum(p == y for p, y in zip(predicted, bundled_paired.labels.tolist()))
                used = sum(s is not None for s in score_b)
                n = len(bundled_paired)
                assert accuracy == correct / n
                assert usage == used / n


class TestCandidateLambdas:
    def test_one_midpoint(self):
        paired = _paired([(0, (3.0, 0.0, 0.0), (3.0, 0.0, 0.0)),
                          (0, (0.5, 0.0, 0.0), (3.0, 0.0, 0.0))])
        scores = sorted(oracle_score(oracle_softmax(s.logits_a), DIFF) for s in paired.samples)
        mid = (scores[0] + scores[1]) / 2
        assert candidate_lambdas(paired, DIFF) == [0.0, mid, 1.0]

    def test_identical_scores_give_endpoints_only(self):
        paired = _paired([(0, (3.0, 0.0, 0.0), (3.0, 0.0, 0.0))] * 4)
        assert candidate_lambdas(paired, DIFF) == [0.0, 1.0]

    def test_three_distinct_scores_two_midpoints(self):
        paired = _paired([
            (0, (0.2, 0.0, 0.0), (1.0, 0.0, 0.0)),
            (0, (1.5, 0.0, 0.0), (1.0, 0.0, 0.0)),
            (0, (4.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ])
        scores = sorted(oracle_score(oracle_softmax(s.logits_a), DIFF) for s in paired.samples)
        expected = [0.0, (scores[0] + scores[1]) / 2, (scores[1] + scores[2]) / 2, 1.0]
        assert candidate_lambdas(paired, DIFF) == expected

    def test_entropy_candidates_clamped_to_unit_interval(self):
        # for K=2 near-uniform vectors the entropy score exceeds 1, so the
        # midpoints between such scores fall outside the threshold domain
        paired = _paired([(0, (0.02, 0.0), (1.0, 0.0)), (0, (0.05, 0.0), (1.0, 0.0))])
        high = [oracle_score(oracle_softmax(s.logits_a), ENTROPY) for s in paired.samples]
        assert all(v > 1.0 for v in high)
        assert candidate_lambdas(paired, ENTROPY) == [0.0, 1.0]

    def test_sorted_and_deduplicated(self, bundled_paired):
        for kind in (MAX, DIFF, ENTROPY):
            cands = candidate_lambdas(bundled_paired, kind)
            assert cands == sorted(set(cands))
            assert cands[0] == 0.0 and cands[-1] == 1.0


class TestFindLambdaStar:
    def test_degenerate_optimum_is_zero(self):
        paired = _paired([
            (0, (5.0, 0.0, 0.0), (0.0, 5.0, 0.0)),
            (1, (0.0, 5.0, 0.0), (5.0, 0.0, 0.0)),
        ])
        result = find_lambda_star(paired, DIFF)
        assert result.config.threshold == 0.0
        assert result.accuracy == 1.0
        assert result.second_model_usage == 0.0

    def test_entropy_degenerate_optimum_is_one(self):
        paired = _paired([
            (0, (5.0, 0.0, 0.0), (0.0, 5.0, 0.0)),
            (1, (0.0, 3.0, 0.0), (5.0, 0.0, 0.0)),
        ])
        result = find_lambda_star(paired, ENTROPY)
        assert result.config.threshold == 1.0
        assert result.second_model_usage == 0.0

    def test_three_sample_set_picks_separating_midpoint(self):
        paired = _three_sample_set()
        scores = sorted(oracle_score(oracle_softmax(s.logits_a), DIFF) for s in paired.samples)
        result = find_lambda_star(paired, DIFF)
        assert result.accuracy == 1.0
        assert result.config.threshold == (scores[0] + scores[1]) / 2
        assert result.second_model_usage == pytest.approx(1 / 3)

    def test_accuracy_is_curve_maximum(self, bundled_paired):
        for kind in (MAX, DIFF, ENTROPY):
            result = find_lambda_star(bundled_paired, kind)
            assert result.accuracy == max(acc for _, acc, _ in result.curve)
            lams = [lam for lam, _, _ in result.curve]
            assert lams == sorted(lams)

    def test_usage_monotone_in_lambda(self, bundled_paired):
        for kind in (MAX, DIFF):
            curve = find_lambda_star(bundled_paired, kind).curve
            usages = [u for _, _, u in curve]
            assert all(a <= b for a, b in zip(usages, usages[1:]))
        curve = find_lambda_star(bundled_paired, ENTROPY).curve
        usages = [u for _, _, u in curve]
        assert all(a >= b for a, b in zip(usages, usages[1:]))

    def test_dense_grid_cannot_beat_candidates(self, bundled_paired):
        # coarse oracle here; the acceptance suite runs the 1e-4 grid
        p = bundled_paired
        small = PairedDataset(p.ids[:80], p.labels[:80], p.logits_a[:80], p.logits_b[:80])
        for kind in (MAX, DIFF, ENTROPY):
            result = find_lambda_star(small, kind)
            grid_best = max(
                accuracy_at(small, kind, i / 500, True)[0] for i in range(501)
            )
            assert result.accuracy >= grid_best

    def test_post_check_at_full_escalation_matches_better_score(self, bundled_paired):
        accuracy, usage = accuracy_at(bundled_paired, DIFF, 1.0, True)
        assert usage == 1.0
        correct = 0
        for s in bundled_paired.samples:
            probs_a, probs_b = oracle_softmax(s.logits_a), oracle_softmax(s.logits_b)
            s_a, s_b = oracle_score(probs_a, DIFF), oracle_score(probs_b, DIFF)
            probs = probs_a if better_score(s_a, s_b, DIFF) == "a" else probs_b
            predicted = max(range(10), key=lambda i: probs[i])
            correct += predicted == s.label
        assert accuracy == correct / len(bundled_paired)

    def test_deterministic(self, bundled_paired):
        first = find_lambda_star(bundled_paired, DIFF)
        second = find_lambda_star(bundled_paired, DIFF)
        assert first == second


class TestAutoSelect:
    def test_symmetric_pair_keeps_standalone_accuracy(self):
        records = RecordTable(
            ["a", "b", "c", "d"],
            [0, 1, 2, 0],
            [(5.0, 0.0, 0.0), (0.0, 5.0, 0.0), (0.0, 0.0, 5.0), (0.0, 4.0, 0.0)],
        )
        paired = align_records(records, records)
        result = auto_select(paired)
        assert result.accuracy == 0.75
        assert result.second_model_usage == 0.0

    def test_swapped_ordering_wins_when_better(self):
        # A is confidently wrong on half the samples, so no threshold saves
        # the A-first ordering; B standalone is perfect.
        rows = []
        for i in range(10):
            logits_a = (8.0, 0.0, 0.0) if i < 5 else (0.0, 8.0, 0.0)
            rows.append((0, logits_a, (5.0, 0.0, 0.0)))
        paired = _paired(rows, name_a="small", name_b="big")
        result = auto_select(paired)
        assert result.accuracy == 1.0
        assert result.config.first_model == "big"
        assert result.config.second_model == "small"

    def test_always_calibrates_with_post_check(self, bundled_paired):
        result = auto_select(bundled_paired)
        assert result.config.post_check is True

    def test_beats_or_matches_every_single_choice(self, bundled_paired):
        best = auto_select(bundled_paired)
        for kind in (MAX, DIFF, ENTROPY):
            for dataset in (bundled_paired, bundled_paired.swapped()):
                result = find_lambda_star(dataset, kind)
                assert best.accuracy >= result.accuracy


class TestColumnarKernel:
    def test_auto_select_computes_each_models_softmax_once(self, monkeypatch):
        calls = []

        def counting(logits):
            calls.append(logits.shape)
            return softmax_rows(logits)

        monkeypatch.setattr(calibration, "softmax_rows", counting)
        paired = _three_sample_set()
        auto_select(paired)  # 3 score functions x 2 model orders
        assert calls == [(3, 3), (3, 3)]
        calls.clear()
        candidate_lambdas(paired.swapped(), MAX)
        accuracy_at(paired, ENTROPY, 0.5, post_check=False)
        find_lambda_star(paired, DIFF)
        assert calls == [(3, 3)] * 6  # each public call computes its own table, one softmax per model


STALE_PAIR_CALLS = {
    "accuracy_at": lambda paired: accuracy_at(paired, MAX, 0.5, True),
    "candidate_lambdas": lambda paired: candidate_lambdas(paired, MAX),
    "find_lambda_star": lambda paired: find_lambda_star(paired, DIFF),
}


@pytest.mark.parametrize("call", STALE_PAIR_CALLS.values(), ids=STALE_PAIR_CALLS.keys())
def test_call_after_in_place_edit_matches_a_fresh_pair(call, data_dir):
    def aligned():
        a, b = (load_prediction_records(str(data_dir / name)) for name in ("model_a.jsonl", "model_b.jsonl"))
        return align_records(a, b)

    paired, fresh = aligned(), aligned()
    before = call(paired)
    for dataset in (paired, fresh):
        dataset.logits_a[:] = dataset.logits_b
    assert call(fresh) != before
    assert call(paired) == call(fresh)


def _non_finite(value):
    return _paired([(0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (1, (0.0, 1.0, 0.0), (1.0, value, 0.0))])


KERNEL_ENTRY_POINTS = {
    "find_lambda_star": lambda paired: find_lambda_star(paired, DIFF),
    "accuracy_at": lambda paired: accuracy_at(paired, MAX, 0.5, True),
    "candidate_lambdas": lambda paired: candidate_lambdas(paired, ENTROPY),
    "auto_select": auto_select,
}


@pytest.mark.parametrize("entry", KERNEL_ENTRY_POINTS.values(), ids=KERNEL_ENTRY_POINTS.keys())
class TestKernelRejectsBadLogits:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_logit(self, entry, value):
        with pytest.raises(DataError, match="non-finite logit"):
            entry(_non_finite(value))


class TestCurveCsv:
    def test_header_and_rows(self):
        text = format_curve_csv([(0.0, 0.5, 0.0), (1.0, 0.75, 0.25)])
        lines = text.splitlines()
        assert lines[0] == "lambda,accuracy,usage"
        assert lines[1] == "0.0,0.5,0.0"
        assert lines[2] == "1.0,0.75,0.25"
        assert text.endswith("\n")

    def test_round_trip_floats(self):
        lam = 1 / 3
        text = format_curve_csv([(lam, 2 / 3, 1 / 7)])
        cells = text.splitlines()[1].split(",")
        assert float(cells[0]) == lam
        assert float(cells[2]) == 1 / 7
