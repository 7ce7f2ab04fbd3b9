"""Pairwise complementarity of model correctness sets and the all-pairs matrix.

complementarity(a, b) = (n(a or b) - n(a and b) - |n(a) - n(b)|) / N over the
N samples of an id-aligned pair: high when the two models are correct on
mostly disjoint, similarly sized parts of the dataset.

This module imports no numpy, and ``complementarity_matrix`` runs in plain
Python, so the ``complementarity`` command never loads numpy; ``correct_rows``
and ``complementarity`` take a ``PairedDataset``'s numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import and_
from typing import TYPE_CHECKING, Sequence

from .errors import DataError
from .records import PairedDataset, RecordTable, align_rows

if TYPE_CHECKING:
    import numpy as np


def correct_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Whether each row's predicted label (the argmax of the logits, lowest
    index on ties, as ``calibration.decide`` picks it) equals its label."""
    return logits.argmax(axis=1) == labels


def complementarity_of_vectors(correct_a: Sequence[bool], correct_b: Sequence[bool]) -> float:
    """Complementarity from two correctness vectors of equal length.

    The numerator is computed in exact integer arithmetic; the single
    division by N happens last.
    """
    if len(correct_a) != len(correct_b):
        raise DataError("correctness vectors must have equal length")
    n = len(correct_a)
    if n == 0:
        raise DataError("complementarity of an empty dataset is undefined")
    a, b = list(map(bool, correct_a)), list(map(bool, correct_b))
    n_a, n_b, n_inter = sum(a), sum(b), sum(map(and_, a, b))
    n_union = n_a + n_b - n_inter
    return (n_union - n_inter - abs(n_a - n_b)) / n


def complementarity(paired: PairedDataset) -> float:
    """Complementarity score of an aligned model pair."""
    return complementarity_of_vectors(
        correct_rows(paired.logits_a, paired.labels), correct_rows(paired.logits_b, paired.labels)
    )


@dataclass
class ComplementarityMatrix:
    """Symmetric all-pairs complementarity; diagonal is exactly 0."""

    names: list[str]
    values: list[list[float]]

    def best_pair(self) -> tuple[int, int]:
        """Indices (i, j), i < j, of the maximum off-diagonal entry; ties
        break to the lexicographically smallest name pair, then to the first (i, j)."""
        if len(self.names) < 2:
            raise DataError("need at least 2 models to pick a pair")
        names, values = self.names, self.values
        return min(
            combinations(range(len(names)), 2),
            key=lambda ij: (-values[ij[0]][ij[1]], sorted(names[k] for k in ij)),
        )


def complementarity_matrix(
    models: list[RecordTable], names: list[str] | None = None
) -> ComplementarityMatrix:
    """All-pairs complementarity over >= 2 models' record tables.

    Alignment failures are reported with the offending pair's names.
    """
    if len(models) < 2:
        raise DataError("need at least 2 models")
    if names is None:
        names = [f"model_{i}" for i in range(len(models))]
    if len(names) != len(models):
        raise DataError("names and models must have equal length")
    m = len(models)
    values = [[0.0] * m for _ in range(m)]
    predicted = [table.predictions() for table in models]
    for i in range(m):
        for j in range(i + 1, m):
            try:
                _, labels, rows_i, rows_j = align_rows(models[i], models[j])
            except DataError as exc:
                raise DataError(f"pair ({names[i]}, {names[j]}): {exc}") from None
            value = complementarity_of_vectors(
                [predicted[i][r] == y for r, y in zip(rows_i, labels)],
                [predicted[j][r] == y for r, y in zip(rows_j, labels)],
            )
            values[i][j] = value
            values[j][i] = value
    return ComplementarityMatrix(list(names), values)


def csv_name(name: str) -> str:
    """A model name as one CSV field: quoted, its quotes doubled, if it holds a comma, a
    double quote, CR or LF (RFC 4180); otherwise as it is."""
    return '"' + name.replace('"', '""') + '"' if set(name) & set(',"\r\n') else name


def format_matrix_csv(matrix: ComplementarityMatrix) -> str:
    """CSV with a header row of model names (``csv_name``) and unscaled 6-decimal values."""
    names = [csv_name(n) for n in matrix.names]
    lines = ["model," + ",".join(names)]
    for name, row in zip(names, matrix.values):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
