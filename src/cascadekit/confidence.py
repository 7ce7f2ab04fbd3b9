"""Softmax and confidence scoring of probability vectors.

Three score functions are supported; for ``max`` and ``diff`` a higher score
means higher confidence, for ``entropy`` a lower score does.
``ScoreFunction.oriented`` is the one place that direction is applied: the
cascade rule in ``calibration`` compares oriented scores of the row kernels
``softmax_rows`` / ``score_rows``. They are the one implementation of each
computation; ``softmax`` / ``score`` are one-row calls of them. The
per-element loops they replaced are the oracle in
``tests/test_calibration_oracles.py``, which they match bit for bit.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache, reduce
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DataError

if TYPE_CHECKING:
    import numpy as np


class ScoreFunction(enum.Enum):
    """Confidence score kind; the value is the external config/CLI name."""

    MAX_PROBABILITY = "max"
    DIFFERENCE = "diff"
    ENTROPY_NORMALIZED = "entropy"

    @property
    def lower_is_better(self) -> bool:
        return self is ScoreFunction.ENTROPY_NORMALIZED

    def oriented(self, x):
        """A score (float or numpy array) turned so that higher is more
        confident: ``-x`` for entropy, ``x`` otherwise."""
        return -x if self.lower_is_better else x

    @classmethod
    def parse(cls, name: str) -> "ScoreFunction":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise DataError(f"unknown score function {name!r} (valid: {valid})") from None


def add_in_order(values: Iterable[float]) -> float:
    """Left-to-right float sum, as numpy's row adds in ``softmax_rows`` and
    ``score_rows`` and ``sum()`` before Python 3.12 (which compensates) add;
    report totals add this way, so they match on every Python version."""
    return reduce(add, values, 0.0)


def softmax(logits: Sequence[float]) -> list[float]:
    """``softmax_rows`` of one logit vector."""
    import numpy as np

    return softmax_rows(np.array([logits], dtype=np.float64)).tolist()[0]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of each row of an N x K float64 matrix: the
    row's max logit is subtracted before exponentiation, so arbitrarily large
    logits cannot overflow. One ``math.exp`` per element (numpy's exp can
    differ in the last bit; Python floats map faster than numpy scalars) and
    ``sum`` over the columns, which adds them left to right."""
    import numpy as np

    if logits.shape[1] < 2:
        raise DataError("softmax needs at least 2 logits")
    if not np.isfinite(logits).all():
        raise DataError("non-finite logit")
    with np.errstate(over="ignore"):  # v - max past the float range is -inf, whose exp is 0
        shifted = (logits - logits.max(axis=1, keepdims=True)).ravel()
    exps = np.fromiter(map(math.exp, shifted.tolist()), np.float64, shifted.size).reshape(logits.shape)
    return exps / sum(exps.T)[:, None]


@lru_cache(maxsize=None)
def entropy_denominator(num_classes: int) -> float:
    """Normalization constant -sum_{i=1..K} (i/K) ln(i/K).

    Note this is not the max-entropy bound ln K; for K < 10 the normalized
    entropy of a near-uniform vector exceeds 1. Implemented as defined, no
    clamping.
    """
    k = num_classes
    return -add_in_order((i / k) * math.log(i / k) for i in range(1, k + 1))


def score(probs: Sequence[float], kind: ScoreFunction) -> float:
    """``score_rows`` of one vector of at least two finite numbers."""
    import numpy as np

    row = np.array([probs], dtype=np.float64)
    if row.shape[1] < 2 or not np.isfinite(row).all():
        raise DataError("score needs at least 2 finite probabilities")
    return score_rows(row, kind).tolist()[0]


def score_rows(probs: np.ndarray, kind: ScoreFunction) -> np.ndarray:
    """Confidence score of each row of an N x K probability matrix under the given function.

    max: largest entry. diff: largest minus second largest (a repeated
    maximum scores 0). entropy: -sum p ln p over the K-dependent
    normalization, with the 0 ln 0 = 0 convention.
    """
    import numpy as np

    if kind is ScoreFunction.MAX_PROBABILITY:
        return probs.max(axis=1)
    if kind is ScoreFunction.DIFFERENCE:
        top = np.partition(probs, -2, axis=1)
        return top[:, -1] - top[:, -2]
    positive = np.where(probs > 0.0, probs, 1.0).ravel()  # p = 0 takes ln 1: 0 ln 0 = 0
    logs = np.fromiter(map(math.log, positive.tolist()), np.float64, positive.size).reshape(probs.shape)
    return -sum((probs * logs).T) / entropy_denominator(probs.shape[1])
