from __future__ import annotations

import random

from cascadekit.complementarity import complementarity_matrix
from cascadekit.records import (
    RecordTable,
    align_records,
    format_prediction_records,
    parse_prediction_records,
)
from cascadekit.synthetic import (
    BUNDLED_CLASSES,
    BUNDLED_COUNT,
    _logits,
    synthetic_image,
    synthetic_pair,
    write_bundled_pair,
)


def synthetic_model(
    ids: list[str],
    labels: list[int],
    num_classes: int,
    accuracy: float,
    seed: int,
) -> RecordTable:
    """Records for one extra model over an existing id/label assignment."""
    rng = random.Random(seed)
    rows = [_logits(rng, label, num_classes, rng.random() < accuracy) for label in labels]
    return RecordTable(ids, labels, rows)


def _accuracy(records: RecordTable) -> float:
    rows, labels = records.logits.tolist(), records.labels.tolist()
    right = sum(1 for row, label in zip(rows, labels) if row.index(max(row)) == label)
    return right / len(records)


def _text(pair: tuple[RecordTable, RecordTable]) -> tuple[str, str]:
    return format_prediction_records(pair[0]), format_prediction_records(pair[1])


class TestSyntheticPair:
    def test_deterministic(self):
        one = _text(synthetic_pair(50, 10, seed=3))
        assert _text(synthetic_pair(50, 10, seed=3)) == one
        assert _text(synthetic_pair(50, 10, seed=4)) != one

    def test_shape(self):
        records_a, records_b = synthetic_pair(12, 5, seed=1)
        assert records_a.ids == tuple(f"s{i:02d}" for i in range(12))
        assert records_a.ids == records_b.ids
        assert records_a.labels.tolist() == records_b.labels.tolist()
        assert records_a.logits.shape == records_b.logits.shape == (12, 5)
        assert all(0 <= label < 5 for label in records_a.labels.tolist())

    def test_ids_sort_like_integers(self):
        records_a, _ = synthetic_pair(120, 4, seed=2)
        assert list(records_a.ids) == sorted(records_a.ids)

    def test_models_are_decent_but_imperfect(self):
        records_a, records_b = synthetic_pair(400, 10, seed=5)
        for records in (records_a, records_b):
            assert 0.6 < _accuracy(records) < 0.95

    def test_pair_is_complementary(self):
        records_a, records_b = synthetic_pair(400, 10, seed=5)
        value = complementarity_matrix([records_a, records_b]).values[0][1]
        assert 0.1 < value < 0.9


class TestSyntheticModel:
    def test_accuracy_extremes(self):
        ids = [f"s{i}" for i in range(40)]
        labels = [i % 4 for i in range(40)]
        perfect = synthetic_model(ids, labels, 4, accuracy=1.0, seed=9)
        hopeless = synthetic_model(ids, labels, 4, accuracy=0.0, seed=9)
        assert _accuracy(perfect) == 1.0
        assert _accuracy(hopeless) == 0.0

    def test_keeps_ids_and_labels(self):
        ids = ["x", "y", "z"]
        labels = [2, 0, 1]
        records = synthetic_model(ids, labels, 3, accuracy=0.5, seed=1)
        assert list(records.ids) == ids
        assert records.labels.tolist() == labels


class TestSyntheticImage:
    def test_deterministic(self):
        assert synthetic_image(8, 6, seed=2) == synthetic_image(8, 6, seed=2)
        assert synthetic_image(8, 6, seed=2) != synthetic_image(8, 6, seed=3)

    def test_dimensions_and_channels(self):
        gray = synthetic_image(8, 6, seed=2)
        assert (gray.width, gray.height, gray.channels) == (8, 6, 1)
        assert len(gray.pixels) == 48
        rgb = synthetic_image(8, 6, seed=2, channels=3)
        assert rgb.channels == 3
        assert len(rgb.pixels) == 144


class TestBundledData:
    def test_files_match_the_generator(self, tmp_path, data_dir):
        write_bundled_pair(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
        assert (tmp_path / "a.jsonl").read_bytes() == (data_dir / "model_a.jsonl").read_bytes()
        assert (tmp_path / "b.jsonl").read_bytes() == (data_dir / "model_b.jsonl").read_bytes()

    def test_files_parse_and_align(self, data_dir):
        records_a = parse_prediction_records((data_dir / "model_a.jsonl").read_bytes())
        records_b = parse_prediction_records((data_dir / "model_b.jsonl").read_bytes())
        assert len(records_a) == BUNDLED_COUNT
        paired = align_records(records_a, records_b)
        assert paired.logits_a.shape == paired.logits_b.shape == (BUNDLED_COUNT, BUNDLED_CLASSES)
