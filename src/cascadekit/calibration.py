"""Offline replay of the cascade decision rule and threshold calibration.

The decision rule for one sample: score model A's softmax output; if the
score passes the threshold, A's prediction stands and model B is never
invoked. Otherwise B runs too, and either B wins unconditionally or, with
post-check enabled, the better-scoring model wins.

Calibration replays this rule over an aligned validation pair for every
candidate threshold and keeps the accuracy-maximizing one. The candidate set
(midpoints between consecutive distinct model-A scores, plus the endpoints
0 and 1) realizes every achievable threshold behavior, so the search is
exactly optimal without a grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .complementarity import predicted_label
from .confidence import ScoreFunction, better_score, passes_threshold, score, softmax
from .errors import DataError
from .phash import FINGERPRINTS
from .records import PairedDataset

MEMORY_METHODS = ("none", *FINGERPRINTS)


@dataclass
class CascadeConfig:
    """Runtime configuration of a calibrated cascade."""

    first_model: str
    second_model: str
    score_fn: ScoreFunction
    threshold: float
    post_check: bool
    memory: str = "none"

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise DataError(f"threshold {self.threshold} outside [0, 1]")
        if self.first_model == self.second_model:
            raise DataError("first and second model must differ")
        if self.memory not in MEMORY_METHODS:
            raise DataError(f"unknown memory method {self.memory!r}")

    def to_dict(self) -> dict:
        return {
            "first_model": self.first_model,
            "second_model": self.second_model,
            "score_fn": self.score_fn.value,
            "lambda": self.threshold,
            "post_check": self.post_check,
            "memory": self.memory,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "CascadeConfig":
        expected = {"first_model", "second_model", "score_fn", "lambda", "post_check", "memory"}
        if not isinstance(obj, dict) or set(obj) != expected:
            raise DataError(f"config must have exactly keys: {', '.join(sorted(expected))}")
        if not isinstance(obj["post_check"], bool):
            raise DataError("post_check must be a boolean")
        return cls(
            first_model=str(obj["first_model"]),
            second_model=str(obj["second_model"]),
            score_fn=ScoreFunction.parse(obj["score_fn"]),
            threshold=float(obj["lambda"]),
            post_check=obj["post_check"],
            memory=str(obj["memory"]),
        )


def save_config(config: CascadeConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


def load_config(path: str) -> CascadeConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid config JSON in {path}: {exc}") from None
    return CascadeConfig.from_dict(obj)


def cascade_decide_offline(
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
    probs_a = softmax(logits_a)
    score_a = score(probs_a, score_fn)
    if passes_threshold(score_a, threshold, score_fn):
        return predicted_label(logits_a), False, "a"
    probs_b = softmax(logits_b)
    if post_check:
        chosen = better_score(score_a, score(probs_b, score_fn), score_fn)
    else:
        chosen = "b"
    predicted = predicted_label(logits_a if chosen == "a" else logits_b)
    return predicted, True, chosen


@dataclass
class _ReplayTable:
    """Per-sample quantities that do not depend on the threshold."""

    scores_a: np.ndarray       # float64
    correct_pass: np.ndarray   # bool: A's prediction correct
    correct_esc: np.ndarray    # bool: escalated decision correct

    @property
    def size(self) -> int:
        return int(self.scores_a.shape[0])


def _build_table(paired: PairedDataset, score_fn: ScoreFunction, post_check: bool) -> _ReplayTable:
    n = len(paired)
    scores_a = np.empty(n, dtype=np.float64)
    correct_pass = np.empty(n, dtype=bool)
    correct_esc = np.empty(n, dtype=bool)
    for i, s in enumerate(paired.samples):
        probs_a = softmax(s.logits_a)
        probs_b = softmax(s.logits_b)
        score_a = score(probs_a, score_fn)
        scores_a[i] = score_a
        correct_pass[i] = predicted_label(s.logits_a) == s.label
        if post_check:
            chosen = better_score(score_a, score(probs_b, score_fn), score_fn)
        else:
            chosen = "b"
        predicted = predicted_label(s.logits_a if chosen == "a" else s.logits_b)
        correct_esc[i] = predicted == s.label
    return _ReplayTable(scores_a, correct_pass, correct_esc)


def _evaluate(table: _ReplayTable, threshold: float, score_fn: ScoreFunction) -> tuple[float, float]:
    if score_fn.lower_is_better:
        passed = table.scores_a <= threshold
    else:
        passed = table.scores_a >= threshold
    correct = int(np.count_nonzero(np.where(passed, table.correct_pass, table.correct_esc)))
    escalated = table.size - int(np.count_nonzero(passed))
    return correct / table.size, escalated / table.size


def accuracy_at(
    paired: PairedDataset,
    score_fn: ScoreFunction,
    threshold: float,
    post_check: bool,
) -> tuple[float, float]:
    """(accuracy, second-model usage fraction) at a fixed threshold."""
    if len(paired) == 0:
        raise DataError("empty dataset")
    table = _build_table(paired, score_fn, post_check)
    return _evaluate(table, threshold, score_fn)


def candidate_lambdas(paired: PairedDataset, score_fn: ScoreFunction) -> list[float]:
    """Decision-complete threshold candidates within [0, 1].

    Midpoints between consecutive distinct model-A scores, plus 0 and 1;
    midpoints outside [0, 1] are dropped because the threshold domain is
    [0, 1] (this only happens for the entropy score with K < 10).
    """
    if len(paired) == 0:
        raise DataError("empty dataset")
    scores_a = sorted({score(softmax(s.logits_a), score_fn) for s in paired.samples})
    candidates = {0.0, 1.0}
    for lo, hi in zip(scores_a, scores_a[1:]):
        mid = (lo + hi) / 2.0
        if 0.0 <= mid <= 1.0:
            candidates.add(mid)
    return sorted(candidates)


@dataclass
class CalibrationResult:
    """Winning configuration plus the full threshold sweep behind it."""

    config: CascadeConfig
    accuracy: float
    second_model_usage: float
    curve: list[tuple[float, float, float]] = field(default_factory=list)  # (lambda, acc, usage)


def find_lambda_star(
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
    table = _build_table(paired, score_fn, post_check)
    candidates = candidate_lambdas(paired, score_fn)
    curve = []
    for lam in candidates:
        acc, usage = _evaluate(table, lam, score_fn)
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


def auto_select(paired: PairedDataset) -> CalibrationResult:
    """Best of all three score functions x both model orderings.

    Always calibrates with post-check on. Ties break to lower second-model
    usage, then to the score-function order diff, max, entropy, then to the
    original model ordering.
    """
    if len(paired) == 0:
        raise DataError("empty dataset")
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


def format_curve_csv(curve: list[tuple[float, float, float]]) -> str:
    lines = ["lambda,accuracy,usage"]
    for lam, acc, usage in curve:
        lines.append(f"{lam!r},{acc!r},{usage!r}")
    return "\n".join(lines) + "\n"
