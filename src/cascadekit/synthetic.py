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
from .records import PredictionRecord, format_prediction_records

BUNDLED_SEED = 7
BUNDLED_COUNT = 500
BUNDLED_CLASSES = 10


def _record(
    rng: random.Random,
    sample_id: str,
    label: int,
    num_classes: int,
    correct: bool,
) -> PredictionRecord:
    pred = label if correct else (label + rng.randrange(1, num_classes)) % num_classes
    logits = [rng.gauss(0.0, 1.0) for _ in range(num_classes)]
    gap = rng.uniform(0.3, 8.0) if correct else rng.uniform(0.05, 3.0)
    logits[pred] = max(logits) + gap
    return PredictionRecord(sample_id, label, tuple(logits))


def synthetic_pair(
    count: int,
    num_classes: int,
    seed: int,
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Two aligned record lists with complementary error patterns."""
    rng = random.Random(seed)
    width = len(str(count - 1)) if count > 1 else 1
    records_a = []
    records_b = []
    for i in range(count):
        sample_id = f"s{i:0{width}d}"
        label = rng.randrange(num_classes)
        a_ok = rng.random() < 0.78
        b_ok = rng.random() < (0.85 if not a_ok else 0.72)
        records_a.append(_record(rng, sample_id, label, num_classes, a_ok))
        records_b.append(_record(rng, sample_id, label, num_classes, b_ok))
    return records_a, records_b


def synthetic_image(width: int, height: int, seed: int, channels: int = 1) -> ImageBuffer:
    rng = random.Random(seed)
    pixels = bytes(rng.randrange(256) for _ in range(width * height * channels))
    return ImageBuffer(width, height, channels, pixels)


def write_bundled_pair(path_a: str, path_b: str) -> None:
    records_a, records_b = synthetic_pair(BUNDLED_COUNT, BUNDLED_CLASSES, BUNDLED_SEED)
    write_text(path_a, format_prediction_records(records_a))
    write_text(path_b, format_prediction_records(records_b))
