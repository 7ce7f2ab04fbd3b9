"""Seeded generators for replay records and images.

The bundled validation pair under data/ is produced by write_bundled_pair
with BUNDLED_SEED; regenerating it yields byte-identical files. Model A is
right more often, model B is deliberately anti-correlated with A's
mistakes so the pair has something to gain from escalation, and confidence
gaps overlap between correct and wrong predictions so no threshold is
trivially perfect.
"""

from __future__ import annotations

import random

from .errors import write_text
from .images import ImageBuffer
from .records import RecordTable, format_prediction_records

BUNDLED_SEED = 7
BUNDLED_COUNT = 500
BUNDLED_CLASSES = 10


def _logits(rng: random.Random, label: int, num_classes: int, correct: bool) -> list[float]:
    pred = label if correct else (label + rng.randrange(1, num_classes)) % num_classes
    logits = [rng.gauss(0.0, 1.0) for _ in range(num_classes)]
    gap = rng.uniform(0.3, 8.0) if correct else rng.uniform(0.05, 3.0)
    logits[pred] = max(logits) + gap
    return logits


def synthetic_pair(count: int, num_classes: int, seed: int) -> tuple[RecordTable, RecordTable]:
    """Two record tables over the same ids with complementary error patterns."""
    rng = random.Random(seed)
    width = len(str(count - 1)) if count > 1 else 1
    ids = [f"s{i:0{width}d}" for i in range(count)]
    labels: list[int] = []
    rows_a: list[list[float]] = []
    rows_b: list[list[float]] = []
    for _ in ids:
        label = rng.randrange(num_classes)
        a_ok = rng.random() < 0.78
        b_ok = rng.random() < (0.85 if not a_ok else 0.72)
        labels.append(label)
        rows_a.append(_logits(rng, label, num_classes, a_ok))
        rows_b.append(_logits(rng, label, num_classes, b_ok))
    return RecordTable(ids, labels, rows_a), RecordTable(ids, labels, rows_b)


def synthetic_image(width: int, height: int, seed: int, channels: int = 1) -> ImageBuffer:
    rng = random.Random(seed)
    pixels = bytes(rng.randrange(256) for _ in range(width * height * channels))
    return ImageBuffer(width, height, channels, pixels)


def write_bundled_pair(path_a: str, path_b: str) -> None:
    records_a, records_b = synthetic_pair(BUNDLED_COUNT, BUNDLED_CLASSES, BUNDLED_SEED)
    write_text(path_a, format_prediction_records(records_a))
    write_text(path_b, format_prediction_records(records_b))
