"""The cascade decision rule and threshold calibration.

The rule: score model A's softmax output; if the score passes the threshold,
A's prediction stands and model B is never invoked. Otherwise B runs too, and
either B wins or, with post-check enabled, the better-scoring model does (A
on a tie). It lives here only, in two forms over the same row kernels:
``decide`` applies it to a batch at one threshold for the runtime engine, and
``_sweep`` to a whole validation pair at every threshold at once.

Calibration searches thresholds. The candidate set (midpoints between
consecutive distinct model-A scores, plus the endpoints 0 and 1) realizes
every achievable threshold behavior, so each search is exactly optimal without
a grid; one sort yields candidates and prefix sums, O(N log N). Each public
call builds its own score table from the pair's arrays, holding only the score
functions it searches; nothing derived from the pair is stored on it.
``_searches`` turns the table into a list of searches, one per score function
and model order, and ``_select`` picks the winner by the selection rule and
builds the curve of the winner only. numpy is imported by the functions that
compute, so loading a config (or a run report, through ``metering``) loads none.

The selection rule: the most accurate candidate wins. Ties go to the lower
second-model usage, then to the earlier search (``auto_select`` searches diff,
max, entropy, each in the pair's order before its swap), then to the low-usage
end of the threshold range: the smallest threshold for max and diff, the
largest for entropy.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, NamedTuple

from .confidence import ScoreFunction, score_rows, softmax_rows
from .errors import DataError, parse_json, read_parsed, write_text
from .records import PairedDataset

if TYPE_CHECKING:
    import numpy as np

# "none" plus phash.FINGERPRINTS, spelled out so that calibrating loads no image module
MEMORY_METHODS = ("none", "dhash", "moments")


def _typed(kind: type, what: str) -> Callable[[object, str], object]:
    def read(value: object, key: str) -> object:
        if not isinstance(value, kind):
            raise DataError(f"{key} must be {what}")
        return value
    return read


def _threshold(value: object, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{key} must be a number")
    if not 0 <= value <= 1:  # before float(), which overflows on a huge integer
        raise DataError(f"{key} must be within [0, 1]")
    return float(value)


# each config file key, in CascadeConfig.__init__'s argument order, with its reader (value, key) -> checked value
_CONFIG_READERS = {
    "first_model": _typed(str, "a string"),
    "second_model": _typed(str, "a string"),
    "score_fn": lambda value, key: ScoreFunction.parse(value),
    "lambda": _threshold,
    "post_check": _typed(bool, "a boolean"),
    "memory": _typed(str, "a string"),
}


class CascadeConfig:
    """Runtime configuration of a calibrated cascade; it compares by value."""

    def __init__(self, first_model: str, second_model: str, score_fn: ScoreFunction, threshold: float,
                 post_check: bool, memory: str = "none") -> None:
        if not 0.0 <= threshold <= 1.0:
            raise DataError(f"threshold {threshold} outside [0, 1]")
        if first_model == second_model:
            raise DataError("first and second model must differ")
        if memory not in MEMORY_METHODS:
            raise DataError(f"unknown memory method {memory!r}")
        self.first_model, self.second_model, self.score_fn = first_model, second_model, score_fn
        self.threshold, self.post_check, self.memory = threshold, post_check, memory

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"CascadeConfig({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"

    def to_dict(self) -> dict:
        return dict(zip(_CONFIG_READERS, vars(self).values()), score_fn=self.score_fn.value)

    @classmethod
    def from_dict(cls, obj: dict) -> "CascadeConfig":
        if not isinstance(obj, dict) or obj.keys() != _CONFIG_READERS.keys():
            raise DataError(f"config must have exactly keys: {', '.join(sorted(_CONFIG_READERS))}")
        return cls(*(read(obj[key], key) for key, read in _CONFIG_READERS.items()))


def save_config(config: CascadeConfig, path: str) -> None:
    write_text(path, json.dumps(config.to_dict(), indent=2) + "\n")


def load_config(path: str) -> CascadeConfig:
    return read_parsed(path, "config", lambda data: CascadeConfig.from_dict(parse_json(data, "config")))


def checked_logits(name: str, logits: object, rows: int, k: int | None = None) -> np.ndarray:
    """A model's answer as a float64 array; a DataError naming the model unless
    it is rows x k (k None: rows x K for any K >= 1)."""
    import numpy as np

    try:
        array = np.asarray(logits, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged rows, not numbers, or an int past the float range
        array = np.empty(0)
    if array.ndim != 2 or len(array) != rows or not array.shape[1] or k not in (None, array.shape[1]):
        raise DataError(f"{name}: logits of shape {array.shape} for {rows} samples, "
                        f"want ({rows}, {'K' if k is None else k})")
    return array


def decide(
    config: CascadeConfig, logits_a: np.ndarray, infer_b: Callable[[np.ndarray], object]
) -> tuple[list[int], list[bool], list[float], list[float | None]]:
    """Apply the cascade rule to each row of an N x K matrix of model-A logits.

    Returns per-row lists (predicted label, A chosen, score_a, score_b), with
    score_b None where A passed. ``infer_b`` is called once, only if some rows
    miss the threshold, with their indices; it returns model B's logits for
    them as one array, whose shape is checked once.
    """
    import numpy as np

    score_fn = config.score_fn
    scores_a = score_rows(softmax_rows(logits_a), score_fn)
    key_a = score_fn.oriented(scores_a)
    escalated = np.flatnonzero(key_a < score_fn.oriented(config.threshold))  # equality passes
    predicted = logits_a.argmax(axis=1)  # lowest index on ties
    chosen_a = np.ones(len(logits_a), dtype=bool)
    scores_b = np.full(len(logits_a), None)  # stays None where A passes
    if escalated.size:
        logits_b = checked_logits(config.second_model, infer_b(escalated), escalated.size, logits_a.shape[1])
        escalated_b = score_rows(softmax_rows(logits_b), score_fn)
        keep_a = (key_a[escalated] >= score_fn.oriented(escalated_b)) & config.post_check  # ties keep A
        chosen_a[escalated] = keep_a
        predicted[escalated] = np.where(keep_a, predicted[escalated], logits_b.argmax(axis=1))
        scores_b[escalated] = escalated_b
    return predicted.tolist(), chosen_a.tolist(), scores_a.tolist(), scores_b.tolist()


def _model_columns(logits: np.ndarray, labels: np.ndarray, score_fns: tuple = tuple(ScoreFunction)) -> tuple:
    """One model's (predicted label == label, {score function: scores}) for ``score_fns``; the
    predicted label is the argmax of the logits, lowest index on ties, as ``decide`` picks it."""
    probs = softmax_rows(logits)
    return logits.argmax(axis=1) == labels, {fn: score_rows(probs, fn) for fn in score_fns}


def _table(paired: PairedDataset, score_fns: tuple = tuple(ScoreFunction)) -> tuple:
    """Both models' ``_model_columns`` for ``score_fns``, model A's first: the score table one call searches."""
    if len(paired) == 0:
        raise DataError("empty dataset")
    return tuple(_model_columns(logits, paired.labels, score_fns) for logits in (paired.logits_a, paired.logits_b))


def _ranked(table: tuple, score_fn: ScoreFunction) -> tuple:
    """Both models' (correct, scores) columns, ordered by one stable sort of model A's oriented scores."""
    import numpy as np

    order = np.argsort(score_fn.oriented(table[0][1][score_fn]), kind="stable")
    return tuple((correct[order], scores[score_fn][order]) for correct, scores in table)


def _sweep(
    ranked: tuple, score_fn: ScoreFunction, post_check: bool, lambdas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(accuracy, usage) arrays over the thresholds: prefix sums, one binary search each."""
    import numpy as np

    (correct_a, scores_a), (correct_b, scores_b) = ranked
    key_a, key_b = score_fn.oriented(scores_a), score_fn.oriented(scores_b)
    correct_esc = np.where((key_a >= key_b) & post_check, correct_a, correct_b)  # ties keep A
    pass_before = np.concatenate(([0], np.cumsum(correct_a)))
    esc_before = np.concatenate(([0], np.cumsum(correct_esc)))
    cut = np.searchsorted(key_a, score_fn.oriented(lambdas), side="left")  # escalated count
    return (esc_before[cut] + pass_before[-1] - pass_before[cut]) / len(key_a), cut / len(key_a)


def accuracy_at(
    paired: PairedDataset,
    score_fn: ScoreFunction,
    threshold: float,
    post_check: bool,
) -> tuple[float, float]:
    """(accuracy, second-model usage fraction) at a fixed threshold."""
    import numpy as np

    ranked = _ranked(_table(paired, (score_fn,)), score_fn)
    accuracy, usage = _sweep(ranked, score_fn, post_check, np.array([threshold]))
    return float(accuracy[0]), float(usage[0])


def _candidates(ranked: tuple, score_fn: ScoreFunction) -> np.ndarray:
    import numpy as np

    scores = ranked[0][1][::-1] if score_fn.lower_is_better else ranked[0][1]  # ascending
    mids = ((scores[:-1] + scores[1:]) / 2.0)[scores[:-1] != scores[1:]]  # distinct neighbours only
    lambdas = np.concatenate(([0.0], mids[(0.0 <= mids) & (mids <= 1.0)], [1.0]))
    return lambdas[np.concatenate(([True], lambdas[1:] != lambdas[:-1]))]  # midpoints can round equal


def candidate_lambdas(paired: PairedDataset, score_fn: ScoreFunction) -> list[float]:
    """Decision-complete threshold candidates within [0, 1].

    Midpoints between consecutive distinct model-A scores, plus 0 and 1;
    midpoints outside [0, 1] are dropped because the threshold domain is
    [0, 1] (this only happens for the entropy score with K < 10).
    """
    return _candidates(_ranked(_table(paired, (score_fn,)), score_fn), score_fn).tolist()


class CalibrationResult(NamedTuple):
    """Winning configuration plus the full threshold sweep behind it."""

    config: CascadeConfig
    accuracy: float
    second_model_usage: float
    curve: list[tuple[float, float, float]]  # (lambda, acc, usage)


def _searches(table: tuple, names: tuple[str, str], post_check: bool, swap: bool) -> list[tuple]:
    """One (names, score function, lambdas, accuracy, usage) search per column of the table, in
    the table's column order, each in the table's model order and then, with ``swap``, swapped."""
    orders = [(names, table), (names[::-1], table[::-1])] if swap else [(names, table)]
    searches = []
    for score_fn in table[0][1]:
        for ordered_names, ordered_table in orders:
            ranked = _ranked(ordered_table, score_fn)
            lambdas = _candidates(ranked, score_fn)
            searches.append((ordered_names, score_fn, lambdas, *_sweep(ranked, score_fn, post_check, lambdas)))
    return searches


def _select(searches: list[tuple], post_check: bool) -> CalibrationResult:
    """The selection rule's one implementation: the winning candidate as a config, with its
    search's whole sweep as the curve."""
    import numpy as np

    best = []  # each search's winner: usage grows with the threshold for max/diff, shrinks for entropy
    for _, score_fn, _, accuracy, usage in searches:
        ties = np.flatnonzero(accuracy == accuracy.max())
        ties = ties[usage[ties] == usage[ties].min()]
        best.append(ties[-1] if score_fn.lower_is_better else ties[0])
    keys = [(accuracy[i], -usage[i]) for (*_, accuracy, usage), i in zip(searches, best)]
    pick = keys.index(max(keys))  # the earliest of equal keys
    names, score_fn, lambdas, accuracy, usage = searches[pick]
    curve = list(zip(lambdas.tolist(), accuracy.tolist(), usage.tolist()))
    config = CascadeConfig(*names, score_fn, curve[best[pick]][0], post_check)
    return CalibrationResult(config, *curve[best[pick]][1:], curve)


def find_lambda_star(
    paired: PairedDataset,
    score_fn: ScoreFunction,
    post_check: bool = True,
) -> CalibrationResult:
    """Exhaustive-optimal threshold search over the candidate set: one search, in the pair's order.

    The selection rule: the most accurate candidate wins. Ties go to the lower
    second-model usage, then to the earlier search (``auto_select`` searches
    diff, max, entropy, each in the pair's order before its swap), then to the
    low-usage end of the threshold range: the smallest threshold for max and
    diff, the largest for entropy.
    """
    names = paired.name_a, paired.name_b
    return _select(_searches(_table(paired, (score_fn,)), names, post_check, swap=False), post_check)


def auto_select(paired: PairedDataset) -> CalibrationResult:
    """Best of all three score functions x both model orderings, with post-check on: six
    searches over one table.

    The selection rule: the most accurate candidate wins. Ties go to the lower
    second-model usage, then to the earlier search (``auto_select`` searches
    diff, max, entropy, each in the pair's order before its swap), then to the
    low-usage end of the threshold range: the smallest threshold for max and
    diff, the largest for entropy.
    """
    order = (ScoreFunction.DIFFERENCE, ScoreFunction.MAX_PROBABILITY, ScoreFunction.ENTROPY_NORMALIZED)
    return _select(_searches(_table(paired, order), (paired.name_a, paired.name_b), True, swap=True), True)


def format_curve_csv(curve: list[tuple[float, float, float]]) -> str:
    lines = ["lambda,accuracy,usage"]
    for lam, acc, usage in curve:
        lines.append(f"{lam!r},{acc!r},{usage!r}")
    return "\n".join(lines) + "\n"
