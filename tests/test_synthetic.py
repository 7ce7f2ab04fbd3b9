from __future__ import annotations

import random

from cascadekit.complementarity import complementarity
from cascadekit.records import PredictionRecord, align_records, parse_prediction_records
from cascadekit.synthetic import (
    BUNDLED_CLASSES,
    BUNDLED_COUNT,
    _record,
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
) -> list[PredictionRecord]:
    """Records for one extra model over an existing id/label assignment."""
    rng = random.Random(seed)
    return [
        _record(rng, sample_id, label, num_classes, rng.random() < accuracy)
        for sample_id, label in zip(ids, labels)
    ]


def _accuracy(records) -> float:
    right = sum(
        1
        for r in records
        if max(range(len(r.logits)), key=lambda i: r.logits[i]) == r.label
    )
    return right / len(records)


class TestSyntheticPair:
    def test_deterministic(self):
        one = synthetic_pair(50, 10, seed=3)
        two = synthetic_pair(50, 10, seed=3)
        assert one == two
        assert synthetic_pair(50, 10, seed=4) != one

    def test_shape(self):
        records_a, records_b = synthetic_pair(12, 5, seed=1)
        assert [r.id for r in records_a] == [f"s{i:02d}" for i in range(12)]
        assert [r.id for r in records_a] == [r.id for r in records_b]
        assert all(r.label == b.label for r, b in zip(records_a, records_b))
        assert all(len(r.logits) == 5 for r in records_a + records_b)
        assert all(0 <= r.label < 5 for r in records_a)

    def test_ids_sort_like_integers(self):
        records_a, _ = synthetic_pair(120, 4, seed=2)
        ids = [r.id for r in records_a]
        assert ids == sorted(ids)

    def test_models_are_decent_but_imperfect(self):
        records_a, records_b = synthetic_pair(400, 10, seed=5)
        for records in (records_a, records_b):
            assert 0.6 < _accuracy(records) < 0.95

    def test_pair_is_complementary(self):
        records_a, records_b = synthetic_pair(400, 10, seed=5)
        value = complementarity(align_records(records_a, records_b))
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
        assert [r.id for r in records] == ids
        assert [r.label for r in records] == labels


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
        assert paired.num_classes == BUNDLED_CLASSES
