from __future__ import annotations

import math
import random

import numpy as np
import pytest

from cascadekit.confidence import ScoreFunction, entropy_denominator, score, softmax
from cascadekit.errors import DataError
from test_calibration_oracles import better_score, oracle_score, oracle_softmax, passes_threshold


def _random_probs(rng: random.Random, k: int) -> list[float]:
    raw = [rng.random() + 1e-9 for _ in range(k)]
    total = sum(raw)
    return [v / total for v in raw]


class TestSoftmax:
    def test_known_value(self):
        probs = softmax([math.log(2.0), 0.0])
        assert probs == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_sums_to_one(self):
        rng = random.Random(0)
        for _ in range(100):
            k = rng.randrange(2, 12)
            probs = softmax([rng.uniform(-30, 30) for _ in range(k)])
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0 for p in probs)

    def test_shift_invariance(self):
        logits = [1.0, -2.0, 0.5]
        assert softmax(logits) == pytest.approx(softmax([v + 1000 for v in logits]), rel=1e-12)

    def test_huge_logits_do_not_overflow(self):
        # exp(1000) alone would overflow; max subtraction keeps this finite
        probs = softmax([1000.0, 998.0])
        assert probs[0] > probs[1] > 0.0
        assert sum(probs) == pytest.approx(1.0)
        assert softmax([1e308, 0.0])[0] == 1.0

    def test_too_few_logits(self):
        with pytest.raises(DataError, match="at least 2"):
            softmax([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            softmax([1.0, math.nan])


class TestEntropyDenominator:
    def test_k10_value(self):
        expected = -sum((i / 10) * math.log(i / 10) for i in range(1, 11))
        assert entropy_denominator(10) == expected
        assert entropy_denominator(10) == pytest.approx(2.4559, abs=1e-4)

    def test_not_log_k(self):
        # the normalization is not ln K, so near-uniform vectors can exceed 1
        assert entropy_denominator(10) != pytest.approx(math.log(10), abs=1e-3)

    def test_k2_uniform_exceeds_one(self):
        # denominator for K=2 is 0.5*ln 2; uniform entropy is ln 2 -> score 2
        assert score([0.5, 0.5], ScoreFunction.ENTROPY_NORMALIZED) == pytest.approx(2.0)


class TestScore:
    def test_max(self):
        assert score([0.2, 0.7, 0.1], ScoreFunction.MAX_PROBABILITY) == 0.7

    def test_diff_top_two(self):
        assert score([0.7, 0.2, 0.1], ScoreFunction.DIFFERENCE) == pytest.approx(0.5)

    def test_diff_repeated_max_is_zero(self):
        assert score([0.4, 0.4, 0.2], ScoreFunction.DIFFERENCE) == 0.0

    def test_entropy_one_hot_is_zero(self):
        assert score([1.0, 0.0, 0.0], ScoreFunction.ENTROPY_NORMALIZED) == 0.0

    def test_uniform_k10(self):
        probs = [0.1] * 10
        got = score(probs, ScoreFunction.ENTROPY_NORMALIZED)
        assert got == pytest.approx(0.9376, abs=1e-3)

    def test_diff_never_exceeds_max(self):
        rng = random.Random(1)
        for _ in range(500):
            probs = _random_probs(rng, rng.randrange(2, 11))
            d = score(probs, ScoreFunction.DIFFERENCE)
            m = score(probs, ScoreFunction.MAX_PROBABILITY)
            assert 0.0 <= d <= m <= 1.0

    def test_needs_two_finite_entries(self):
        for probs in ([], [0.5], [0.5, math.nan], [math.inf, 0.1], [0.5, -math.inf]):
            for kind in ScoreFunction:
                with pytest.raises(DataError, match="at least 2 finite"):
                    score(probs, kind)

    def test_one_row_calls_match_the_per_element_loops(self):
        rng = random.Random(3)
        for _ in range(50):
            logits = [rng.uniform(-30, 30) for _ in range(rng.randrange(2, 12))]
            probs = softmax(logits)
            assert type(probs) is list and probs == oracle_softmax(logits)
            for kind in ScoreFunction:
                got = score(probs, kind)
                assert type(got) is float and got == oracle_score(probs, kind)
        assert type(score([0, 1], ScoreFunction.MAX_PROBABILITY)) is float

    def test_parse_names(self):
        assert ScoreFunction.parse("max") is ScoreFunction.MAX_PROBABILITY
        assert ScoreFunction.parse("diff") is ScoreFunction.DIFFERENCE
        assert ScoreFunction.parse("entropy") is ScoreFunction.ENTROPY_NORMALIZED
        with pytest.raises(DataError, match="unknown score function"):
            ScoreFunction.parse("gini")


class TestThresholdAndComparison:
    def test_equality_accepts_for_higher_is_better(self):
        assert passes_threshold(0.5, 0.5, ScoreFunction.DIFFERENCE)
        assert passes_threshold(0.5, 0.5, ScoreFunction.MAX_PROBABILITY)
        assert not passes_threshold(0.49, 0.5, ScoreFunction.DIFFERENCE)

    def test_equality_accepts_for_entropy(self):
        assert passes_threshold(0.5, 0.5, ScoreFunction.ENTROPY_NORMALIZED)
        assert passes_threshold(0.2, 0.5, ScoreFunction.ENTROPY_NORMALIZED)
        assert not passes_threshold(0.51, 0.5, ScoreFunction.ENTROPY_NORMALIZED)

    def test_better_score_direction(self):
        assert better_score(0.9, 0.3, ScoreFunction.DIFFERENCE) == "a"
        assert better_score(0.3, 0.9, ScoreFunction.DIFFERENCE) == "b"
        assert better_score(0.2, 0.8, ScoreFunction.ENTROPY_NORMALIZED) == "a"
        assert better_score(0.8, 0.2, ScoreFunction.ENTROPY_NORMALIZED) == "b"

    def test_better_score_ties_favor_a(self):
        for kind in ScoreFunction:
            assert better_score(0.5, 0.5, kind) == "a"

    def test_oriented_turns_entropy_around(self):
        assert ScoreFunction.ENTROPY_NORMALIZED.oriented(0.25) == -0.25
        assert ScoreFunction.DIFFERENCE.oriented(0.25) == 0.25
        assert ScoreFunction.MAX_PROBABILITY.oriented(0.25) == 0.25
        scores = np.array([0.0, 0.25, 1.5])
        assert ScoreFunction.ENTROPY_NORMALIZED.oriented(scores).tolist() == [-0.0, -0.25, -1.5]
        assert ScoreFunction.MAX_PROBABILITY.oriented(scores).tolist() == [0.0, 0.25, 1.5]

    def test_lower_is_better_flag(self):
        assert ScoreFunction.ENTROPY_NORMALIZED.lower_is_better
        assert not ScoreFunction.DIFFERENCE.lower_is_better
        assert not ScoreFunction.MAX_PROBABILITY.lower_is_better


class TestLeftToRightSums:
    """The per-sample sums add left to right, as the numpy row paths do.

    ``sum()`` of floats is compensated from Python 3.12; on these inputs a
    compensated (or exact) sum differs from the left-to-right one.
    """

    @staticmethod
    def _left_to_right(values):
        total = 0.0
        for v in values:
            total += v
        return total

    def test_softmax_total(self):
        # 200 terms of exp(-40) vanish one by one against 1.0 but not all at once
        logits = [0.0] + [-40.0] * 200
        exps = [math.exp(v) for v in logits]
        assert self._left_to_right(exps) == 1.0 != math.fsum(exps)
        assert softmax(logits)[0] == 1.0

    def test_entropy_sum(self):
        probs = [0.5] + [0.5 / 400] * 400
        terms = [p * math.log(p) for p in probs]
        assert self._left_to_right(terms) != math.fsum(terms)
        want = -self._left_to_right(terms) / entropy_denominator(len(probs))
        assert score(probs, ScoreFunction.ENTROPY_NORMALIZED) == want

    def test_entropy_denominator(self):
        k = 1000
        terms = [(i / k) * math.log(i / k) for i in range(1, k + 1)]
        assert self._left_to_right(terms) != math.fsum(terms)
        assert entropy_denominator(k) == -self._left_to_right(terms)
