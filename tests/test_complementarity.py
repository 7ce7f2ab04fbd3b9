from __future__ import annotations

import csv
import io
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadekit.complementarity import (
    ComplementarityMatrix,
    complementarity,
    complementarity_matrix,
    complementarity_of_vectors,
    correct_rows,
    format_matrix_csv,
)
from cascadekit.errors import DataError
from cascadekit.records import (
    RecordTable,
    align_records,
    format_prediction_records,
    load_prediction_records,
    parse_prediction_records,
)
from cascadekit.synthetic import synthetic_pair
from test_calibration_oracles import predicted_label
from test_synthetic import synthetic_model


def _oracle(correct_a, correct_b) -> float:
    """Set-arithmetic restatement: symmetric difference minus size disparity."""
    a = {i for i, c in enumerate(correct_a) if c}
    b = {i for i, c in enumerate(correct_b) if c}
    return (len(a | b) - len(a & b) - abs(len(a) - len(b))) / len(correct_a)


def oracle_best_pair(matrix: ComplementarityMatrix) -> tuple[int, int]:
    """The loop ``best_pair`` replaced: scan i < j, keep a strictly larger
    value, or an equal value with a strictly smaller sorted name pair."""
    best = None
    best_value = float("-inf")
    best_names = None
    for i in range(len(matrix.names)):
        for j in range(i + 1, len(matrix.names)):
            value = matrix.values[i][j]
            pair_names = tuple(sorted((matrix.names[i], matrix.names[j])))
            if best is None or value > best_value or (value == best_value and pair_names < best_names):
                best = (i, j)
                best_value = value
                best_names = pair_names
    return best


@st.composite
def matrices(draw) -> ComplementarityMatrix:
    """2-6 models with repeated names and finite values, repeated values among them."""
    m = draw(st.integers(2, 6))
    names = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=m, max_size=m))
    value = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(allow_nan=False, allow_infinity=False))
    values = [draw(st.lists(value, min_size=m, max_size=m)) for _ in range(m)]
    return ComplementarityMatrix(names, values)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_best_pair_matches_loop_oracle(matrix):
    assert matrix.best_pair() == oracle_best_pair(matrix)


class TestPredictedLabel:
    def test_argmax(self):
        assert predicted_label([0.1, 3.0, -1.0]) == 1

    def test_ties_take_lowest_index(self):
        assert predicted_label([2.0, 2.0, 1.0]) == 0
        assert predicted_label([1.0, 2.0, 2.0]) == 1


class TestComplementarityValue:
    def test_identical_models_score_zero(self):
        assert complementarity_of_vectors([True, False, True], [True, False, True]) == 0.0

    def test_disjoint_equal_halves_score_one(self):
        assert complementarity_of_vectors([True, True, False, False],
                                          [False, False, True, True]) == 1.0

    def test_nested_sets_score_zero(self):
        # one model's correct set contains the other's: disparity eats the difference
        assert complementarity_of_vectors([True, True, True, False],
                                          [True, False, False, False]) == 0.0

    def test_both_wrong_everywhere(self):
        assert complementarity_of_vectors([False, False], [False, False]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            complementarity_of_vectors([], [])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            complementarity_of_vectors([True], [True, False])

    def test_matches_set_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 51)
            a = [rng.random() < 0.6 for _ in range(n)]
            b = [rng.random() < 0.6 for _ in range(n)]
            got = complementarity_of_vectors(a, b)
            assert got == _oracle(a, b)
            assert got == complementarity_of_vectors(b, a)
            assert 0.0 <= got <= 1.0
            assert complementarity_of_vectors(a, a) == 0.0
            from_arrays = complementarity_of_vectors(np.array(a), np.array(b))
            assert type(from_arrays) is float and from_arrays == got


class TestCorrectnessVectors:
    def test_from_aligned_records(self):
        a = RecordTable(["x", "y"], [0, 1], [(5.0, 0.0), (5.0, 0.0)])  # right, wrong
        b = RecordTable(["x", "y"], [0, 1], [(0.0, 5.0), (0.0, 5.0)])  # wrong, right
        paired = align_records(a, b)
        correct_a = correct_rows(paired.logits_a, paired.labels)
        correct_b = correct_rows(paired.logits_b, paired.labels)
        assert correct_a.tolist() == [True, False]
        assert correct_b.tolist() == [False, True]
        assert complementarity(paired) == 1.0

    def test_ties_resolve_like_predicted_label(self, bundled_paired):
        logits = np.array([(1.0, 1.0, 0.0), (0.0, 2.0, 2.0), (3.0, 3.0, 3.0)])
        table = RecordTable(["t0", "t1", "t2"], [0, 1, 1], logits)
        paired = align_records(table, table)
        correct_a = correct_rows(paired.logits_a, paired.labels)
        assert correct_a.tolist() == [True, True, False]
        expected_a = [predicted_label(s.logits_a) == s.label for s in bundled_paired.samples]
        expected_b = [predicted_label(s.logits_b) == s.label for s in bundled_paired.samples]
        correct_a = correct_rows(bundled_paired.logits_a, bundled_paired.labels)
        correct_b = correct_rows(bundled_paired.logits_b, bundled_paired.labels)
        assert correct_a.tolist() == expected_a and correct_b.tolist() == expected_b


class TestMatrix:
    def _three_models(self):
        rng = random.Random(5)
        ids = [f"s{i:03d}" for i in range(120)]
        labels = [rng.randrange(4) for _ in ids]
        m1 = synthetic_model(ids, labels, 4, accuracy=0.9, seed=101)
        m2 = synthetic_model(ids, labels, 4, accuracy=0.7, seed=202)
        m3 = synthetic_model(ids, labels, 4, accuracy=0.5, seed=303)
        return [m1, m2, m3]

    def test_matrix_is_symmetric_with_zero_diagonal(self):
        matrix = complementarity_matrix(self._three_models(), ["m1", "m2", "m3"])
        for i in range(3):
            assert matrix.values[i][i] == 0.0
            for j in range(3):
                assert matrix.values[i][j] == matrix.values[j][i]

    def test_default_names(self):
        matrix = complementarity_matrix(self._three_models())
        assert matrix.names == ["model_0", "model_1", "model_2"]

    def test_best_pair_matches_max_entry(self):
        matrix = complementarity_matrix(self._three_models(), ["m1", "m2", "m3"])
        i, j = matrix.best_pair()
        best = matrix.values[i][j]
        for x in range(3):
            for y in range(x + 1, 3):
                assert matrix.values[x][y] <= best

    def test_best_pair_tie_breaks_on_names(self):
        matrix = ComplementarityMatrix(
            names=["zeta", "beta", "alpha"],
            values=[[0.0, 0.4, 0.4], [0.4, 0.0, 0.4], [0.4, 0.4, 0.0]],
        )
        i, j = matrix.best_pair()
        assert sorted((matrix.names[i], matrix.names[j])) == ["alpha", "beta"]

    def test_fewer_than_two_models_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            complementarity_matrix([RecordTable(["a"], [0], [(1.0, 0.0)])])

    def test_alignment_error_names_pair(self):
        a = RecordTable(["a"], [0], [(1.0, 0.0)])
        b = RecordTable(["b"], [0], [(1.0, 0.0)])
        with pytest.raises(DataError, match=r"pair \(m1, m2\): unmatched id"):
            complementarity_matrix([a, b], ["m1", "m2"])

    def test_csv_format(self):
        matrix = ComplementarityMatrix(
            names=["m1", "m2"], values=[[0.0, 0.123456789], [0.123456789, 0.0]]
        )
        assert format_matrix_csv(matrix) == (
            "model,m1,m2\n"
            "m1,0.000000,0.123457\n"
            "m2,0.123457,0.000000\n"
        )

    @pytest.mark.parametrize(
        "name, cell",
        [
            ("a,b", '"a,b"'),
            ('say "hi"', '"say ""hi"""'),
            ("cr\rname", '"cr\rname"'),
            ("lf\nname", '"lf\nname"'),
            ("tab\t é;'x'", "tab\t é;'x'"),  # other bytes stay as they are
        ],
        ids=["comma", "quote", "cr", "lf", "plain"],
    )
    def test_names_with_separators_are_quoted(self, name, cell):
        matrix = ComplementarityMatrix(names=[name, "m2"], values=[[0.0, 0.5], [0.5, 0.0]])
        text = format_matrix_csv(matrix)
        assert text == f"model,{cell},m2\n{cell},0.000000,0.500000\nm2,0.500000,0.000000\n"
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows == [["model", name, "m2"], [name, "0.000000", "0.500000"], ["m2", "0.500000", "0.000000"]]


class TestOnBundledPair:
    def test_bundled_dataset_is_complementary(self, bundled_paired):
        value = complementarity(bundled_paired)
        assert 0.0 < value <= 1.0

    def test_generator_pair_alignment(self):
        records_a, records_b = synthetic_pair(50, 10, seed=3)
        paired = align_records(records_a, records_b)
        assert len(paired) == 50


# ties among these, -0.0 against 0.0 among them, and the extremes of the float range
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.7e308, -1.7e308]


@st.composite
def tied_rows(draw) -> tuple[int, list[int], list[list[float]]]:
    """K, labels and logits rows whose values come from a pool of at most 4, so
    that most rows hold their maximum more than once."""
    k = draw(st.sampled_from([2, 3, 10, 1000]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.sampled_from(TIE_VALUES) | finite, min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 6))
    return k, [rng.randrange(k) for _ in range(n)], [[rng.choice(pool) for _ in range(k)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(tied_rows())
@example((2, [0, 1, 1], [[-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0]]))
@example((1000, [0, 999], [[-0.0] + [0.0] * 999, [-5.0] * 998 + [0.0, -0.0]]))
def test_predictions_are_numpy_argmax(case):
    k, labels, rows = case
    want = np.array(rows, dtype=np.float64).reshape(len(rows), k).argmax(axis=1).tolist()
    table = RecordTable([f"s{i}" for i in range(len(rows))], labels, rows)
    parsed = parse_prediction_records(format_prediction_records(table))
    assert table.predictions() == parsed.predictions() == want
    assert all(type(p) is int for p in want)


def _tied_pair(n: int, k: int, seed: int) -> tuple[RecordTable, RecordTable]:
    """Two tables over the same ids, b's rows in another order, with tied logits in most rows."""
    rng = random.Random(seed)
    ids = [f"t{i}" for i in range(n)]
    labels = [rng.randrange(k) for _ in ids]
    rows = [[[rng.choice([0.0, -0.0, 1.0]) for _ in range(k)] for _ in ids] for _ in "ab"]
    order = rng.sample(range(n), n)
    a = RecordTable(ids, labels, rows[0])
    b = RecordTable([ids[i] for i in order], [labels[i] for i in order], [rows[1][i] for i in order])
    return a, b


@pytest.mark.parametrize(
    "pair",
    [
        lambda: synthetic_pair(10000, 10, seed=1),  # calib-10k's shape
        lambda: synthetic_pair(16, 1000, seed=2),  # memo-224's shape
        lambda: _tied_pair(300, 10, seed=3),
        lambda: _tied_pair(16, 1000, seed=4),
    ],
    ids=["calib_10k_shape", "memo_224_shape", "tied", "tied_k1000"],
)
def test_matrix_matches_the_aligned_pair_path(pair):
    a, b = pair()
    matrix = complementarity_matrix([a, b, a], ["a", "b", "a2"])
    assert matrix.values[0][1] == complementarity(align_records(a, b))
    assert matrix.values[1][2] == complementarity(align_records(b, a))
    assert matrix.values[0][2] == complementarity(align_records(a, a)) == 0.0


def test_matrix_on_the_bundled_pair_matches_the_aligned_pair_path(data_dir, bundled_paired):
    tables = [load_prediction_records(str(data_dir / name)) for name in ("model_a.jsonl", "model_b.jsonl")]
    assert complementarity_matrix(tables).values[0][1] == complementarity(bundled_paired)


def _pair_with(fault: str) -> tuple[RecordTable, RecordTable]:
    a = RecordTable(["x", "y", "z"], [0, 1, 0], [[1.0, 0.0]] * 3)
    if fault == "empty":
        return a, RecordTable([], [], [])
    if fault == "logits_length":
        return a, RecordTable(["x", "y", "z"], [0, 1, 0], [[1.0, 0.0, 0.0]] * 3)
    if fault == "unmatched_id":
        return a, RecordTable(["z", "w", "x"], [0, 1, 0], [[1.0, 0.0]] * 3)
    return a, RecordTable(["z", "y", "x"], [1, 0, 0], [[1.0, 0.0]] * 3)  # label disagreements at y and z


@pytest.mark.parametrize(
    "fault, message",
    [
        ("empty", "cannot align empty record lists"),
        ("logits_length", "logits length mismatch between files: 2 vs 3"),
        ("unmatched_id", "unmatched id y"),
        ("label", "label disagreement for y"),
    ],
)
def test_each_alignment_error_has_one_message(fault, message):
    a, b = _pair_with(fault)
    with pytest.raises(DataError) as aligned:
        align_records(a, b)
    assert str(aligned.value) == message
    with pytest.raises(DataError) as matrix:
        complementarity_matrix([a, b], ["m1", "m2"])
    assert str(matrix.value) == f"pair (m1, m2): {message}"
