"""Differential tests: the columnar calibration kernel against the
per-sample, per-candidate loop it replaced, and the engine's replay against
both.

The oracles below are that loop and the per-sample decision function with
its scalar helpers (the per-element softmax and score loops, the threshold
test, the post-check comparator and the argmax of the logits), and the
candidate set as two ``np.unique`` calls, which the search used before it
read its candidates off its one sort; all are kept unchanged apart from
their names. The other test modules take their per-sample scores from
``oracle_softmax`` / ``oracle_score`` too, so no test checks the row
kernels against their own one-row calls. The kernel reproduces their
arithmetic (``math.exp``/``math.log`` per element, sums left to right), so
curves, configs, accuracy and usage must be equal, and the per-sample
scores equal bit for bit.

``oracle_complementarity`` over ``oracle_correct_rows`` is the numpy pair path
of the complementarity score that ``complementarity_matrix`` replaced; the
matrix must equal it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cascadekit.calibration import (
    CalibrationResult,
    CascadeConfig,
    _table,
    accuracy_at,
    auto_select,
    candidate_lambdas,
    find_lambda_star,
)
from cascadekit.complementarity import complementarity_of_vectors
from cascadekit.confidence import ScoreFunction, add_in_order, entropy_denominator, score_rows, softmax_rows
from cascadekit.engine import PATH_MODEL_AB, CascadeEngine, ReplayClassifier, SampleRef, run_batch
from cascadekit.errors import DataError
from cascadekit.records import PairedDataset, RecordTable


def oracle_softmax(logits: Sequence[float]) -> list[float]:
    """Numerically stable softmax: the max logit is subtracted before
    exponentiation, so arbitrarily large logits cannot overflow."""
    if len(logits) < 2:
        raise DataError("softmax needs at least 2 logits")
    for v in logits:
        if not math.isfinite(v):
            raise DataError("non-finite logit")
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    total = add_in_order(exps)
    return [e / total for e in exps]


def oracle_top_two(probs: Sequence[float]) -> tuple[float, float]:
    first = second = -math.inf
    for p in probs:
        if p > first:
            first, second = p, first
        elif p > second:
            second = p
    return first, second


def oracle_score(probs: Sequence[float], kind: ScoreFunction) -> float:
    """Confidence score of a probability vector under the given function.

    max: largest entry. diff: largest minus second largest (by position, so
    a repeated maximum scores 0). entropy: -sum p ln p over the K-dependent
    normalization, with the 0 ln 0 = 0 convention.
    """
    if kind is ScoreFunction.MAX_PROBABILITY:
        return max(probs)
    if kind is ScoreFunction.DIFFERENCE:
        first, second = oracle_top_two(probs)
        return first - second
    entropy = -add_in_order(p * math.log(p) for p in probs if p > 0.0)
    return entropy / entropy_denominator(len(probs))


def predicted_label(logits: Sequence[float]) -> int:
    """Index of the maximum logit; ties resolve to the lowest index."""
    best = 0
    for i in range(1, len(logits)):
        if logits[i] > logits[best]:
            best = i
    return best


def oracle_correct_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Whether each row's predicted label (the argmax of the logits, lowest
    index on ties, as ``calibration.decide`` picks it) equals its label."""
    return logits.argmax(axis=1) == labels


def oracle_complementarity(paired: PairedDataset) -> float:
    """Complementarity score of an aligned model pair."""
    return complementarity_of_vectors(
        oracle_correct_rows(paired.logits_a, paired.labels), oracle_correct_rows(paired.logits_b, paired.labels)
    )


def passes_threshold(s: float, threshold: float, kind: ScoreFunction) -> bool:
    """True iff the first model's answer is accepted (second model not
    invoked). Equality accepts, minimizing second-model usage."""
    return kind.oriented(s) >= kind.oriented(threshold)


def better_score(score_a: float, score_b: float, kind: ScoreFunction) -> str:
    """Post-check comparator: returns "a" or "b"; ties favor "a"."""
    return "a" if passes_threshold(score_a, score_b, kind) else "b"


def oracle_decide(
    logits_a: Sequence[float],
    logits_b: Sequence[float],
    score_fn: ScoreFunction,
    threshold: float,
    post_check: bool,
) -> tuple[int, bool, str]:
    """Decide one sample from both models' logits.

    Returns (predicted label, used_second, chosen) with chosen in {"a", "b"}.
    Model B's score is only consulted when the threshold test fails.
    """
    if len(logits_a) != len(logits_b):
        raise DataError("logits length mismatch between models")
    probs_a = oracle_softmax(logits_a)
    score_a = oracle_score(probs_a, score_fn)
    if passes_threshold(score_a, threshold, score_fn):
        return predicted_label(logits_a), False, "a"
    probs_b = oracle_softmax(logits_b)
    if post_check:
        chosen = better_score(score_a, oracle_score(probs_b, score_fn), score_fn)
    else:
        chosen = "b"
    predicted = predicted_label(logits_a if chosen == "a" else logits_b)
    return predicted, True, chosen


@dataclass
class OracleReplayTable:
    """Per-sample quantities that do not depend on the threshold."""

    scores_a: np.ndarray       # float64
    correct_pass: np.ndarray   # bool: A's prediction correct
    correct_esc: np.ndarray    # bool: escalated decision correct

    @property
    def size(self) -> int:
        return int(self.scores_a.shape[0])


def oracle_build_table(paired: PairedDataset, score_fn: ScoreFunction, post_check: bool) -> OracleReplayTable:
    n = len(paired)
    scores_a = np.empty(n, dtype=np.float64)
    correct_pass = np.empty(n, dtype=bool)
    correct_esc = np.empty(n, dtype=bool)
    for i, s in enumerate(paired.samples):
        probs_a = oracle_softmax(s.logits_a)
        probs_b = oracle_softmax(s.logits_b)
        score_a = oracle_score(probs_a, score_fn)
        scores_a[i] = score_a
        correct_pass[i] = predicted_label(s.logits_a) == s.label
        if post_check:
            chosen = better_score(score_a, oracle_score(probs_b, score_fn), score_fn)
        else:
            chosen = "b"
        predicted = predicted_label(s.logits_a if chosen == "a" else s.logits_b)
        correct_esc[i] = predicted == s.label
    return OracleReplayTable(scores_a, correct_pass, correct_esc)


def oracle_evaluate(table: OracleReplayTable, threshold: float, score_fn: ScoreFunction) -> tuple[float, float]:
    if score_fn.lower_is_better:
        passed = table.scores_a <= threshold
    else:
        passed = table.scores_a >= threshold
    correct = int(np.count_nonzero(np.where(passed, table.correct_pass, table.correct_esc)))
    escalated = table.size - int(np.count_nonzero(passed))
    return correct / table.size, escalated / table.size


def oracle_accuracy_at(
    paired: PairedDataset,
    score_fn: ScoreFunction,
    threshold: float,
    post_check: bool,
) -> tuple[float, float]:
    """(accuracy, second-model usage fraction) at a fixed threshold."""
    if len(paired) == 0:
        raise DataError("empty dataset")
    table = oracle_build_table(paired, score_fn, post_check)
    return oracle_evaluate(table, threshold, score_fn)


def oracle_candidate_lambdas(paired: PairedDataset, score_fn: ScoreFunction) -> list[float]:
    """Decision-complete threshold candidates within [0, 1].

    Midpoints between consecutive distinct model-A scores, plus 0 and 1;
    midpoints outside [0, 1] are dropped because the threshold domain is
    [0, 1] (this only happens for the entropy score with K < 10).
    """
    if len(paired) == 0:
        raise DataError("empty dataset")
    scores_a = sorted({oracle_score(oracle_softmax(s.logits_a), score_fn) for s in paired.samples})
    candidates = {0.0, 1.0}
    for lo, hi in zip(scores_a, scores_a[1:]):
        mid = (lo + hi) / 2.0
        if 0.0 <= mid <= 1.0:
            candidates.add(mid)
    return sorted(candidates)


def unique_candidates(table: tuple, score_fn: ScoreFunction) -> np.ndarray:
    distinct = np.unique(table[0][1][score_fn])
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.unique(np.concatenate(([0.0, 1.0], mids[(0.0 <= mids) & (mids <= 1.0)])))


def oracle_find_lambda_star(
    paired: PairedDataset,
    score_fn: ScoreFunction,
    post_check: bool = True,
) -> CalibrationResult:
    """Exhaustive-optimal threshold search over the candidate set.

    Among accuracy-maximizing candidates the one with the lowest
    second-model usage wins (the smallest threshold for max/diff, the
    largest for entropy).
    """
    if len(paired) == 0:
        raise DataError("empty dataset")
    table = oracle_build_table(paired, score_fn, post_check)
    candidates = oracle_candidate_lambdas(paired, score_fn)
    curve = []
    for lam in candidates:
        acc, usage = oracle_evaluate(table, lam, score_fn)
        curve.append((lam, acc, usage))
    # usage grows with the threshold for max/diff and shrinks for entropy;
    # scanning in the low-usage direction makes strict improvement the only
    # replacement rule needed.
    ordered = curve if not score_fn.lower_is_better else list(reversed(curve))
    best_lam, best_acc, best_usage = ordered[0]
    for lam, acc, usage in ordered[1:]:
        if acc > best_acc or (acc == best_acc and usage < best_usage):
            best_lam, best_acc, best_usage = lam, acc, usage
    config = CascadeConfig(
        first_model=paired.name_a,
        second_model=paired.name_b,
        score_fn=score_fn,
        threshold=best_lam,
        post_check=post_check,
    )
    return CalibrationResult(config, best_acc, best_usage, curve)


def oracle_auto_select(paired: PairedDataset) -> CalibrationResult:
    if len(paired) == 0:
        raise DataError("empty dataset")
    best: CalibrationResult | None = None
    order = (ScoreFunction.DIFFERENCE, ScoreFunction.MAX_PROBABILITY, ScoreFunction.ENTROPY_NORMALIZED)
    for score_fn in order:
        for dataset in (paired, paired.swapped()):
            result = oracle_find_lambda_star(dataset, score_fn, post_check=True)
            if best is None or result.accuracy > best.accuracy or (
                result.accuracy == best.accuracy
                and result.second_model_usage < best.second_model_usage
            ):
                best = result
    assert best is not None
    return best


# A small value set makes score ties and repeated maxima (diff = 0) common;
# narrow floats give many distinct probabilities, where numpy's exp and log
# would differ from math's; wide floats push probabilities to 0, where entropy
# skips the 0 ln 0 term; extreme floats span the whole finite range, where
# v - max overflows to -inf.
SMALL_LOGITS = st.sampled_from((-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0))
NARROW_LOGITS = st.floats(-6.0, 6.0, allow_nan=False)
WIDE_LOGITS = st.floats(-800.0, 800.0, allow_nan=False)
EXTREME_LOGITS = st.floats(allow_nan=False, allow_infinity=False)
LOGITS = (SMALL_LOGITS, NARROW_LOGITS, WIDE_LOGITS)


@st.composite
def logit_rows(draw, n: int, k: int, kinds=LOGITS) -> list[tuple[float, ...]]:
    values = draw(st.sampled_from(kinds))
    return [tuple(row) for row in draw(arrays(np.float64, (n, k), elements=values)).tolist()]


@st.composite
def kernel_shapes(draw) -> tuple[int, int]:
    """N x K with K = 2..1000 (mostly small) and at most 4000 entries, so the per-element loops stay quick."""
    k = draw(st.one_of(st.integers(2, 12), st.integers(2, 1000)))
    return draw(st.integers(1, min(60, 4000 // k))), k


@st.composite
def pairs(draw, classes=st.integers(2, 12)) -> PairedDataset:
    n = draw(st.integers(1, 60))
    k = draw(classes)
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rows_a = draw(logit_rows(n, k))
    rows_b = draw(logit_rows(n, k))
    ids = tuple(f"s{i:03d}" for i in range(n))
    return PairedDataset(ids, np.array(labels, dtype=np.int64), np.array(rows_a), np.array(rows_b))


def _ordered(paired: PairedDataset, order: str) -> PairedDataset:
    """The pair as given, swapped, or swapped after an earlier call on the pair."""
    if order == "cached-swap":
        candidate_lambdas(paired, ScoreFunction.MAX_PROBABILITY)
    return paired if order == "as-given" else paired.swapped()


def _assert_same_result(got: CalibrationResult, want: CalibrationResult) -> None:
    # repr also tells 0.0 from -0.0 and Python floats from numpy scalars
    assert repr(got.curve) == repr(want.curve)
    assert got.curve == want.curve
    assert got.config.to_dict() == want.config.to_dict()
    assert repr((got.accuracy, got.second_model_usage)) == repr((want.accuracy, want.second_model_usage))


@st.composite
def kernel_rows(draw) -> list[tuple[float, ...]]:
    return draw(logit_rows(*draw(kernel_shapes()), kinds=(*LOGITS, EXTREME_LOGITS)))


def sum_order_rows(n: int, k: int, step: int) -> list[tuple[float, ...]]:
    """n rows of k logits in sixteenths up to 6, each row a different walk mod 97. For the
    (n, k, step) of the examples below, pair-summing the exps of some row (``np.sum`` along
    axis 1, or ``np.add.reduce`` over axis 0 of the transpose) changes its total, and so does
    pair-summing its p ln p terms."""
    return [tuple(((i * step + r * 31 + 5) % 97) / 16 for i in range(k)) for r in range(n)]


@settings(max_examples=300, deadline=None)
@given(kernel_rows())
@example(sum_order_rows(1, 8, 6))
@example(sum_order_rows(3, 8, 5))
@example(sum_order_rows(1, 17, 5))
@example(sum_order_rows(3, 17, 5))
@example(sum_order_rows(1, 1000, 1))
@example(sum_order_rows(3, 1000, 1))
def test_row_softmax_and_scores_bitwise_equal_per_sample(rows):
    probs = softmax_rows(np.array(rows))
    assert probs.tobytes() == np.array([oracle_softmax(row) for row in rows]).tobytes()
    for fn in ScoreFunction:
        want = np.array([oracle_score(oracle_softmax(row), fn) for row in rows])
        assert score_rows(probs, fn).tobytes() == want.tobytes()


# any probability entries, not only softmax outputs, whatever their sum: ties, zeros (0 ln 0) and
# subnormals; -0.0 is left out, since which of two signed zeros is the larger is an order of the
# loop, not of the score
PROBABILITIES = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(kernel_shapes(), st.data())
def test_score_rows_match_the_per_element_loop_on_any_probabilities(shape, data):
    rows = data.draw(arrays(np.float64, shape, elements=PROBABILITIES))
    for fn in ScoreFunction:
        want = np.array([oracle_score(row, fn) for row in rows.tolist()])
        assert score_rows(rows, fn).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    pairs(),
    st.sampled_from(list(ScoreFunction)),
    st.booleans(),
    st.sampled_from(("as-given", "swapped", "cached-swap")),
)
def test_sweep_matches_per_candidate_loop(paired, fn, post_check, order):
    dataset = _ordered(paired, order)
    _assert_same_result(
        find_lambda_star(dataset, fn, post_check), oracle_find_lambda_star(dataset, fn, post_check)
    )
    candidates = candidate_lambdas(dataset, fn)
    assert repr(candidates) == repr(oracle_candidate_lambdas(dataset, fn))
    table = oracle_build_table(dataset, fn, post_check)
    # every candidate, every model-A score (the >= / <= boundary) and points outside [0, 1]
    for lam in [*candidates, *set(table.scores_a.tolist()), -0.5, 1.5]:
        got = accuracy_at(dataset, fn, lam, post_check)
        assert repr(got) == repr(oracle_evaluate(table, lam, fn))


@settings(max_examples=100, deadline=None)
@given(pairs(classes=st.sampled_from((2, 3))), st.booleans())
def test_entropy_above_one_drops_the_same_midpoints(paired, post_check):
    # for K < 10 normalized entropy can exceed 1, so midpoints above 1 are dropped
    fn = ScoreFunction.ENTROPY_NORMALIZED
    _assert_same_result(
        find_lambda_star(paired, fn, post_check), oracle_find_lambda_star(paired, fn, post_check)
    )


def _rows_pair(rows: list[list[float]]) -> PairedDataset:
    """Model A's rows as given, model B's in reverse order."""
    logits = np.array(rows, dtype=np.float64)
    ids = tuple(f"s{i}" for i in range(len(rows)))
    return PairedDataset(ids, np.zeros(len(rows), dtype=np.int64), logits, logits[::-1].copy())


@settings(max_examples=200, deadline=None)
@given(pairs())
# one-hot rows: every entropy score is -0.0 and every max and diff score 1.0
@example(_rows_pair([[800.0, 0.0, 0.0], [0.0, 0.0, 800.0], [0.0, 800.0, 0.0]]))
@example(_rows_pair([[0.5, 2.0, -1.0]] * 4))  # every row identical
@example(_rows_pair([[1.0, 3.0]]))  # N = 1
# near-uniform rows at K = 2 and 3 score entropy above 1, so midpoints are dropped
@example(_rows_pair([[0.0, 0.0], [0.0, 0.1], [0.0, 0.4], [0.0, 1.5], [3.0, 0.0]]))
@example(_rows_pair([[0.0, 0.0, 0.0], [0.0, 0.2, 0.1], [0.3, 0.0, 0.6], [0.0, 4.0, 0.0]]))
# tied scores on distinct rows
@example(_rows_pair([[2.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 1.0, 2.0], [3.0, 0.0, 0.0], [0.0, 0.0, 3.0]]))
def test_candidates_match_two_unique_calls(paired):
    table = _table(paired)
    for fn in ScoreFunction:
        for dataset, ordered_table in ((paired, table), (paired.swapped(), table[::-1])):
            assert repr(candidate_lambdas(dataset, fn)) == repr(unique_candidates(ordered_table, fn).tolist())


@pytest.mark.parametrize("rows", [[[800.0, 0.0, 0.0], [0.0, 800.0, 0.0]], [[0.5, 2.0, -1.0]] * 4, [[1.0, 3.0]]])
def test_one_distinct_score_leaves_the_endpoints(rows):
    for fn in ScoreFunction:
        assert repr(candidate_lambdas(_rows_pair(rows), fn)) == "[0.0, 1.0]"


def loop_auto_select(paired: PairedDataset) -> CalibrationResult:
    """``auto_select`` as six whole ``find_lambda_star`` results, each with its
    curve, the best kept by strict improvement: the loop it replaced."""
    best: CalibrationResult | None = None
    order = (ScoreFunction.DIFFERENCE, ScoreFunction.MAX_PROBABILITY, ScoreFunction.ENTROPY_NORMALIZED)
    for score_fn in order:
        for dataset in (paired, paired.swapped()):
            result = find_lambda_star(dataset, score_fn, post_check=True)
            if best is None or result.accuracy > best.accuracy or (
                result.accuracy == best.accuracy
                and result.second_model_usage < best.second_model_usage
            ):
                best = result
    assert best is not None
    return best


@st.composite
def tied_pairs(draw) -> PairedDataset:
    """Pairs on which searches tie exactly: at K = 2 diff and max rank the
    samples alike, and with B's logits equal to A's both orderings agree."""
    paired = draw(pairs(classes=st.sampled_from((2, 2, 3))))
    if draw(st.booleans()):
        paired = PairedDataset(paired.ids, paired.labels, paired.logits_a, paired.logits_a.copy())
    return paired


@settings(max_examples=200, deadline=None)
@given(st.one_of(pairs(), tied_pairs()))
def test_auto_select_matches_loop(paired):
    got = auto_select(paired)
    _assert_same_result(got, loop_auto_select(paired))
    _assert_same_result(got, oracle_auto_select(paired))


def test_auto_select_breaks_exact_ties_in_order():
    # K = 2 and identical logits: the diff and max searches tie in both orderings at
    # (0.6, 0.0), so diff in the original ordering wins
    rows = np.array([[2.0, 0.0], [0.0, 1.0], [0.5, 0.0], [1.0, 4.0], [0.0, 0.0]])
    paired = PairedDataset(tuple("abcde"), np.array([0, 0, 1, 1, 0]), rows, rows.copy(), "m1", "m2")
    got = auto_select(paired)
    assert (got.config.score_fn, got.config.first_model) == (ScoreFunction.DIFFERENCE, "m1")
    _assert_same_result(got, loop_auto_select(paired))
    _assert_same_result(got, oracle_auto_select(paired))


@settings(max_examples=100, deadline=None)
@given(
    pairs(),
    st.sampled_from(list(ScoreFunction)),
    st.booleans(),
    st.sampled_from(("as-given", "swapped")),
)
def test_engine_replay_matches_decide_oracle_and_sweep(paired, fn, post_check, order):
    dataset = _ordered(paired, order)
    engine_input = [SampleRef(s.id, label=s.label) for s in dataset.samples]
    classifier_a = ReplayClassifier(
        dataset.name_a, RecordTable(dataset.ids, dataset.labels, dataset.logits_a)
    )
    classifier_b = ReplayClassifier(
        dataset.name_b, RecordTable(dataset.ids, dataset.labels, dataset.logits_b)
    )
    scores_a = {oracle_score(oracle_softmax(s.logits_a), fn) for s in dataset.samples}
    # every exact model-A score is a >= / <= boundary; the threshold domain is [0, 1]
    for lam in sorted({0.0, 1.0, *(v for v in scores_a if 0.0 <= v <= 1.0)}):
        config = CascadeConfig(dataset.name_a, dataset.name_b, fn, lam, post_check)
        traces, summary = run_batch(CascadeEngine(config, classifier_a, classifier_b), engine_input)
        for trace, s in zip(traces, dataset.samples):
            predicted, used_second, chosen = oracle_decide(
                s.logits_a, s.logits_b, fn, lam, post_check
            )
            assert (trace.predicted, trace.chosen) == (predicted, chosen)
            assert (trace.path == PATH_MODEL_AB) == used_second == (trace.score_b is not None)
        accuracy = sum(t.predicted == t.label for t in traces) / len(traces)
        assert repr((accuracy, summary.second_model_usage)) == repr(
            accuracy_at(dataset, fn, lam, post_check)
        )
