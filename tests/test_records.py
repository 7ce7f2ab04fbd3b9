from __future__ import annotations

import gc
import json
import math
import random
import re

import numpy as np
import pytest

from cascadekit import errors, records
from cascadekit.errors import DataError
from cascadekit.records import (
    RecordTable,
    align_records,
    format_prediction_records,
    load_cost_profile,
    parse_cost_profile,
    parse_prediction_records,
)


def _line(sample_id: str, label: int, logits: list[float]) -> str:
    return json.dumps({"id": sample_id, "label": label, "logits": logits})


class TestParseRecords:
    def test_happy_path(self):
        text = _line("a", 0, [1.5, -0.5]) + "\n" + _line("b", 1, [0.0, 2.0]) + "\n"
        table = parse_prediction_records(text)
        assert len(table) == 2
        assert table.ids == ("a", "b")
        assert table.labels.dtype == np.int64 and table.labels.tolist() == [0, 1]
        assert table.logits.dtype == np.float64
        assert table.logits.tolist() == [[1.5, -0.5], [0.0, 2.0]]

    def test_columns_are_read_only(self):
        table = parse_prediction_records(_line("a", 1, [0.0, 1.0]))
        with pytest.raises(ValueError):
            table.logits[0, 0] = 9.0
        with pytest.raises(ValueError):
            table.labels[0] = 0

    def test_accepts_bytes(self):
        table = parse_prediction_records(_line("a", 1, [0.0, 1.0]).encode())
        assert table.labels.tolist() == [1]

    def test_skips_empty_lines(self):
        text = "\n" + _line("a", 0, [1.0, 0.0]) + "\n\n" + _line("b", 0, [1.0, 0.0]) + "\n\n"
        assert len(parse_prediction_records(text)) == 2

    def test_empty_input(self):
        table = parse_prediction_records("")
        assert len(table) == 0 and table.logits.shape == (0, 0)

    def test_invalid_json_names_line(self):
        text = _line("a", 0, [1.0, 0.0]) + "\n{oops\n"
        with pytest.raises(DataError, match="malformed record at line 2"):
            parse_prediction_records(text)

    def test_missing_key(self):
        with pytest.raises(DataError, match="line 1.*exactly keys"):
            parse_prediction_records('{"id":"a","label":0}\n')

    def test_extra_key(self):
        for logits in ("[1,0]", "[1.0,0.0]"):
            with pytest.raises(DataError, match="exactly keys id, label, logits"):
                parse_prediction_records('{"id":"a","label":0,"logits":%s,"x":1}\n' % logits)

    def test_bool_label_rejected(self):
        for logits in ("[1,0]", "[1.0,0.0]"):
            with pytest.raises(DataError, match="label must be an integer"):
                parse_prediction_records('{"id":"a","label":true,"logits":%s}\n' % logits)

    def test_bool_logit_rejected(self):
        with pytest.raises(DataError, match="non-numeric logit"):
            parse_prediction_records('{"id":"a","label":0,"logits":[true,0]}\n')

    def test_single_logit_rejected(self):
        with pytest.raises(DataError, match="length >= 2"):
            parse_prediction_records('{"id":"a","label":0,"logits":[1.0]}\n')

    def test_inconsistent_length(self):
        text = _line("a", 0, [1.0, 0.0]) + "\n" + _line("b", 0, [1.0, 0.0, 0.0]) + "\n"
        with pytest.raises(DataError, match="inconsistent logits length at line 2"):
            parse_prediction_records(text)

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match="label out of range at line 1"):
            parse_prediction_records(_line("a", 2, [1.0, 0.0]))
        with pytest.raises(DataError, match="label out of range"):
            parse_prediction_records(_line("a", -1, [1.0, 0.0]))

    def test_non_finite_logit(self):
        with pytest.raises(DataError, match="non-finite logit at line 1"):
            parse_prediction_records('{"id":"a","label":0,"logits":[1.0,NaN]}\n')
        with pytest.raises(DataError, match="non-finite logit"):
            parse_prediction_records('{"id":"a","label":0,"logits":[1.0,Infinity]}\n')

    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_logit_beyond_float_range(self, sign):
        # a 401-digit JSON integer has no float value
        with pytest.raises(DataError, match="logit out of float range at line 1"):
            parse_prediction_records(_line("a", 0, [sign * 10**400, 0.0]))

    @pytest.mark.parametrize("logits", [[10**400, -10**400], [1, 10**400], [10**400, 1, -10**400]])
    def test_integer_logits_beyond_float_range_in_an_int_row(self, logits):
        # the row's sum may be finite, or an int itself: each value still needs a float
        with pytest.raises(DataError, match="^logit out of float range at line 1$"):
            parse_prediction_records(_line("a", 0, logits))

    def test_integer_logit_beyond_float_range_in_a_later_chunk(self):
        lines = [_line(f"s{i}", 0, [i, 0]) for i in range(69)] + [_line("big", 0, [10**400, -10**400])]
        with pytest.raises(DataError, match="^logit out of float range at line 70$"):
            parse_prediction_records("\n".join(lines) + "\n")

    def test_integer_logits_pass_the_chunk_check(self, monkeypatch):
        # 200 lines span four chunks; each chunk of ints is taken whole, with no one-record check
        rows = [[(i * 7 + j) % 13 - 6 for j in range(10)] for i in range(200)]
        floats = parse_prediction_records("".join(
            _line(f"s{i}", i % 10, [float(v) for v in row]) + "\n" for i, row in enumerate(rows)))

        def no_record_check(*args):
            raise AssertionError("a record of a valid chunk went through the one-record check")

        monkeypatch.setattr(records, "_record_from_obj", no_record_check)
        ints = parse_prediction_records("".join(_line(f"s{i}", i % 10, row) + "\n" for i, row in enumerate(rows)))
        assert ints.logits.tobytes() == floats.logits.tobytes()
        assert ints.labels.tolist() == floats.labels.tolist() and ints.ids == floats.ids

    def test_duplicate_id(self):
        text = _line("a", 0, [1.0, 0.0]) + "\n" + _line("a", 1, [0.0, 1.0]) + "\n"
        with pytest.raises(DataError, match="duplicate id a at line 2"):
            parse_prediction_records(text)

    def test_lone_surrogate_id_rejected(self):
        text = _line("a", 0, [1.0, 0.0]) + "\n" + _line("\ud800", 0, [1.0, 0.0]) + "\n"
        with pytest.raises(DataError, match="line 2: id is not valid Unicode"):
            parse_prediction_records(text)

    @pytest.mark.parametrize("label", [10**30, -(10**30), 10**399])
    def test_label_past_int64_out_of_range(self, label):
        text = _line("a", 0, [1.0, 0.0]) + "\n" + _line("b", label, [1.0, 0.0]) + "\n"
        with pytest.raises(DataError, match="^label out of range at line 2$"):
            parse_prediction_records(text)

    def test_bool_logit_in_float_file_rejected(self):
        text = _line("a", 0, [1.0, 0.0]) + "\n" + '{"id":"b","label":0,"logits":[0.5,true]}\n'
        with pytest.raises(DataError, match="line 2: non-numeric logit"):
            parse_prediction_records(text)

    def test_crlf_and_padded_lines_parse_like_lf(self):
        lines = [_line("a", 0, [1.5, -0.5]), _line("b", 1, [0.0, 2.0])]
        want = parse_prediction_records("\n".join(lines) + "\n")
        for text in (
            "\r\n".join(lines) + "\r\n",
            "\n".join(f" \t{line}  \r" for line in lines),
        ):
            for data in (text, text.encode()):
                got = parse_prediction_records(data)
                assert got.ids == want.ids
                assert got.labels.tolist() == want.labels.tolist()
                assert got.logits.tobytes() == want.logits.tobytes()

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_byte_order_mark_is_invalid_json(self, as_bytes):
        text = "\ufeff" + _line("a", 0, [1.0, 0.0]) + "\n"
        with pytest.raises(DataError, match="^malformed record at line 1: invalid JSON$"):
            parse_prediction_records(text.encode() if as_bytes else text)

    @pytest.mark.parametrize(
        "lines",
        [
            # joined with "," these two lines form two valid records
            ['{"id":"x","label":0,"logits":[1.0,2.0]},{"id":"y"',
             '"label":0,"logits":[1.0,2.0]}'],
            # wrapped as [[L1],[L2]] the string in line 1 swallows the separator
            ['{"id":"a',
             '","label":0,"logits":[1.0,2.0]}],[{"id":"b","label":0,"logits":[1.0,2.0]}'],
        ],
    )
    def test_record_split_across_lines_is_invalid_json(self, lines):
        with pytest.raises(DataError, match="^malformed record at line 1: invalid JSON$"):
            parse_prediction_records("\n".join(lines) + "\n")

    # only JSON's whitespace (space, tab, CR) may pad a record, and a line of it is no record
    @pytest.mark.parametrize(
        "line",
        ["   ", " \t \r", "\u00a0", "\x0c", "\u00a0" + _line("b", 0, [1.0, 0.0]),
         _line("b", 0, [1.0, 0.0]) + "\u00a0", _line("b", 0, [1.0, 0.0]) + " {}"],
    )
    def test_blank_or_oddly_padded_line_is_invalid_json(self, line):
        text = _line("a", 0, [1.0, 0.0]) + "\n" + line + "\n" + _line("c", 0, [1.0, 0.0])
        with pytest.raises(DataError, match="^malformed record at line 2: invalid JSON$"):
            parse_prediction_records(text)

    def test_float_files_parse_bit_exact(self, data_dir):
        bundled = parse_prediction_records((data_dir / "model_a.jsonl").read_bytes())
        assert len(bundled) == 500 and bundled.logits.shape == (500, 10)
        rng = random.Random(5)
        table = RecordTable(
            [f"id{i}" for i in range(2000)],
            [rng.randrange(4) for _ in range(2000)],
            [[rng.uniform(-9, 9) for _ in range(4)] for _ in range(2000)],
        )
        again = parse_prediction_records(format_prediction_records(table).encode())
        assert again.ids == table.ids
        assert again.labels.tolist() == table.labels.tolist()
        assert again.logits.tobytes() == table.logits.tobytes()

    @pytest.mark.parametrize(
        "last, error",
        [('{"id":"c","label":1,"logits":[3,4]}', None),
         ('{"id":"c","label":9,"logits":[3.0,4.0]}', "^label out of range at line 4$"),
         ('{"id":"c","label":1,"logits":[3.0,4.0]', "^malformed record at line 4: invalid JSON$")],
        ids=["int_logits", "bad_last_line", "bad_json_last_line"],
    )
    def test_each_line_is_json_parsed_once(self, monkeypatch, last, error):
        scanned = []
        scan_once = errors._DECODER.scan_once

        def counted(doc, idx):
            scanned.append(doc)
            return scan_once(doc, idx)

        def no_second_parser(*args):
            raise AssertionError("a record line was parsed outside parse_json_chunks")

        monkeypatch.setattr(errors._DECODER, "scan_once", counted)
        monkeypatch.setattr(records, "parse_json", no_second_parser)
        lines = [_line("a", 0, [1, 2]), "", _line("b", 1, [2.5, 0]), last]
        text = "\n".join(lines) + "\n"
        if error is None:
            assert parse_prediction_records(text).logits.tolist() == [[1, 2], [2.5, 0], [3, 4]]
        else:
            with pytest.raises(DataError, match=error):
                parse_prediction_records(text)
        assert scanned == [lines[0], lines[2], lines[3]]

    def test_no_per_row_object_outlives_its_line(self):
        # 5000 rows each kept as a Python list until the parse ends would be 5000
        # live GC-tracked objects, enough to set off generation-0 collections (the
        # control shows this interpreter does); a parse that frees each line's
        # objects before the next sets off none
        def gen0_collections(fn):
            gc.collect()  # resets the allocation counts
            before = gc.get_stats()[0]["collections"]
            result = fn()
            return gc.get_stats()[0]["collections"] - before, result

        data = "".join(
            _line(f"s{i}", i % 10, [(i * 7 + j) % 13 / 4 for j in range(10)]) + "\n" for i in range(5000)
        ).encode("utf-8")
        assert gc.isenabled()
        kept, _ = gen0_collections(lambda: [[0.5, 1.5] for _ in range(5000)])
        assert kept > 0
        collections, table = gen0_collections(lambda: parse_prediction_records(data))
        assert table.logits.shape == (5000, 10)
        assert collections == 0


class TestRecordTable:
    def test_parsed_logits_are_the_parse_buffer(self):
        # the parse's own float64 buffer, which nothing else holds, is kept without a copy
        table = parse_prediction_records(_line("a", 0, [1.0, 0.0]) + "\n" + _line("b", 1, [0.5, 2.0]))
        assert not table.logits.flags.owndata
        assert not table.logits.flags.writeable
        assert table.logits.tolist() == [[1.0, 0.0], [0.5, 2.0]]

    @pytest.mark.parametrize("read_only_view", [False, True], ids=["writable", "read_only_view"])
    def test_a_callers_array_is_copied(self, read_only_view):
        logits = np.array([[1.0, 0.0], [0.5, 2.0]])
        handed = logits
        if read_only_view:
            handed = logits.view()
            handed.setflags(write=False)
        table = RecordTable(("a", "b"), np.array([0, 1]), handed)
        logits[0, 0] = 9.0
        assert table.logits.tolist() == [[1.0, 0.0], [0.5, 2.0]]
        assert not np.shares_memory(table.logits, handed) and not table.logits.flags.writeable

    def test_index_maps_each_id_to_its_row(self):
        parsed = parse_prediction_records(_line("b", 0, [1.0, 0.0]) + "\n" + _line("a", 1, [0.5, 2.0]))
        for table in (parsed, RecordTable(["b", "a"], [0, 1], [[1.0, 0.0], [0.5, 2.0]])):
            assert dict(table.index) == {"b": 0, "a": 1}
            assert tuple(table.index) == table.ids == ("b", "a")
            with pytest.raises(TypeError):
                table.index["c"] = 2
            with pytest.raises(AttributeError):
                table.index = {}
        assert dict(RecordTable([], [], []).index) == {}

    @pytest.mark.parametrize("parsed", [False, True], ids=["hand_built", "parsed"])
    def test_a_repeated_id_raises_at_construction(self, parsed):
        ids, rows = ["b", "a", "b"], [[1.0, 0.0]] * 3
        if parsed:
            text = "\n".join(_line(rid, 0, row) for rid, row in zip(ids, rows))
            with pytest.raises(DataError, match="^duplicate id b at line 3$"):
                parse_prediction_records(text)
        else:
            with pytest.raises(DataError, match="^duplicate id b$"):
                RecordTable(ids, [0] * 3, rows)

    @pytest.mark.parametrize(
        "ids, labels, logits, message",
        [
            (["a", "b"], [0], [[1.0, 0.0]], "2 ids but 1 labels and 1 logits rows"),
            (["a", "b"], [0, 1], [[1.0, 0.0]], "2 ids but 2 labels and 1 logits rows"),
            (["a"], [0], [1.0, 2.0], "1 ids but 1 labels and 2 logits rows"),
            (["a"], [0], [], "1 ids but 1 labels and 0 logits rows"),
            # one of each per id: the record check names the row's problem
            (["a"], [[0]], [[1.0, 0.0]], "label must be an integer"),
            (["a"], [0], [[[1.0, 0.0]]], "logits must be an array of length >= 2"),
        ],
        ids=["one_label_one_row", "one_row", "flat_logits", "no_logits", "nested_labels", "3d_logits"],
    )
    def test_a_hand_built_table_has_one_label_and_row_per_id(self, ids, labels, logits, message):
        with pytest.raises(DataError) as err:
            RecordTable(ids, labels, logits)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "labels, logits, message",
        [
            ([0], [[math.nan, 0.0]], "non-finite logit"),
            ([0], [[1.0, -math.inf]], "non-finite logit"),
            ([5], [[1.0, 0.0]], "label out of range"),
            ([-1], [[1.0, 0.0]], "label out of range"),
            ([1.7], [[1.0, 0.0]], "label must be an integer"),
            ([True], [[1.0, 0.0]], "label must be an integer"),
            ([0, True], [[1.0, 0.0], [0.0, 1.0]], "label must be an integer"),
            (["x"], [[1.0, 0.0]], "label must be an integer"),
            ([0], [[1.0]], "logits must be an array of length >= 2"),
            ([0, 0], [[1.0, 0.0], [1.0]], "logits must be an array of length >= 2"),
            ([0, 0], [[1.0, 0.0], [1.0, 0.0, 2.0]], "inconsistent logits length"),
            ([0], [["1.5", 0.0]], "non-numeric logit"),
            ([0], [[True, False]], "non-numeric logit"),
            ([0], [[1.0, True]], "non-numeric logit"),
            ([0], [[1.0, 10**400]], "logit out of float range"),
            ([0], [[-10**400, 0]], "logit out of float range"),
        ],
        ids=[
            "nan", "inf", "label_past_k", "negative_label", "float_label", "bool_label",
            "bool_among_int_labels", "str_label", "one_logit", "ragged_short_row", "ragged_long_row",
            "str_logit", "bool_logit", "bool_among_float_logits", "huge_int_logit", "huge_negative_int_logit",
        ],
    )
    def test_a_hand_built_table_gets_the_parse_value_checks(self, labels, logits, message):
        ids = [f"s{i}" for i in range(len(labels))]
        with pytest.raises(DataError) as err:
            RecordTable(ids, labels, logits)
        assert str(err.value) == message
        # the parse of the same rows says the same, with a line number
        text = "\n".join(_line(rid, label, row) for rid, label, row in zip(ids, labels, logits))
        with pytest.raises(DataError) as parsed:
            parse_prediction_records(text)
        assert re.sub(r"^malformed record at line \d+: | at line \d+$", "", str(parsed.value)) == message

    def test_numpy_columns_get_the_value_checks(self):
        with pytest.raises(DataError, match="^label must be an integer$"):
            RecordTable(["a"], np.array([1.0]), np.array([[1.0, 0.0]]))
        with pytest.raises(DataError, match="^non-finite logit$"):
            RecordTable(["a"], np.array([0]), np.array([[np.nan, 0.0]]))
        table = RecordTable(["a", "b"], np.array([1, 0], dtype=np.uint8), np.array([[1, 2], [3, 4]]))
        assert table.labels.dtype == np.int64 and table.labels.tolist() == [1, 0]
        assert table.logits.dtype == np.float64 and table.logits.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "ids, labels, logits, message",
        [
            ([1, 2], [0, 0], [[1.0, 0.0]] * 2, "id must be a string"),
            (["a\ud800"], [0], [[1.0, 0.0]], "id is not valid Unicode"),
            ([1, 1], [0, 0], [[1.0, 0.0]] * 2, "id must be a string"),
            (["a"], [0], [[np.float64(1.0), True]], "non-numeric logit"),
            (["a"], [0], [[np.float64(1.0), np.True_]], "non-numeric logit"),
            # the first bad row's first problem, as the parse names it
            (["a", "b"], [0, True], [[math.nan, 0.0], [1.0, 0.0]], "non-finite logit"),
            (["a", "a"], [0, 5], [[1.0, 0.0]] * 2, "label out of range"),
        ],
        ids=["int_id", "lone_surrogate_id", "repeated_int_id", "bool_among_numpy_floats",
             "numpy_bool_among_numpy_floats", "first_bad_row", "bad_row_before_its_repeated_id"],
    )
    def test_a_hand_built_table_runs_the_record_check(self, ids, labels, logits, message):
        with pytest.raises(DataError) as err:
            RecordTable(ids, labels, logits)
        assert str(err.value) == message
        plain = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in logits]
        text = "\n".join(json.dumps({"id": i, "label": y, "logits": r}) for i, y, r in zip(ids, labels, plain))
        with pytest.raises(DataError) as parsed:
            parse_prediction_records(text)
        assert re.sub(r"^malformed record at line \d+: | at line \d+$", "", str(parsed.value)) == message

    def test_numpy_scalars_count_as_the_values_they_hold(self):
        table = RecordTable(
            np.array(["a", "b"]), [np.int64(1), np.uint8(0)], [[np.int64(3), np.int64(1)], (np.float32(0.5), 2)]
        )
        assert table.ids == ("a", "b") and all(type(rid) is str for rid in table.ids)
        assert table.labels.tolist() == [1, 0]
        assert table.logits.dtype == np.float64 and table.logits.tolist() == [[3.0, 1.0], [0.5, 2.0]]


class TestFormatRecords:
    def test_round_trip_exact(self):
        rng = random.Random(3)
        table = RecordTable(
            [f"id{i}" for i in range(25)],
            [i % 4 for i in range(25)],
            [[rng.uniform(-9, 9) for _ in range(4)] for _ in range(25)],
        )
        again = parse_prediction_records(format_prediction_records(table))
        assert again.ids == table.ids
        assert again.labels.tolist() == table.labels.tolist()
        assert again.logits.tobytes() == table.logits.tobytes()

    def test_trailing_newline(self):
        out = format_prediction_records(RecordTable(["a"], [0], [[1.0, 2.0]]))
        assert out == '{"id":"a","label":0,"logits":[1.0,2.0]}\n'

    def test_empty_list(self):
        assert format_prediction_records(RecordTable([], [], [])) == ""


class TestAlignRecords:
    def _recs(self, ids, label=0):
        return RecordTable(ids, [label] * len(ids), [[1.0, 0.0]] * len(ids))

    def test_sorted_by_utf8_bytes(self):
        a = self._recs(["s2", "s10", "a"])
        b = self._recs(["s10", "a", "s2"])
        paired = align_records(a, b)
        assert paired.ids == ("a", "s10", "s2")
        assert paired.logits_a.shape == paired.logits_b.shape == (3, 2)

    def test_rows_follow_their_ids(self):
        a = RecordTable(["y", "x"], [1, 0], [[0.0, 2.0], [3.0, 0.0]])
        b = RecordTable(["x", "y"], [0, 1], [[4.0, 0.0], [0.0, 5.0]])
        paired = align_records(a, b)
        assert paired.ids == ("x", "y")
        assert paired.labels.tolist() == [0, 1]
        assert paired.logits_a.tolist() == [[3.0, 0.0], [0.0, 2.0]]
        assert paired.logits_b.tolist() == [[4.0, 0.0], [0.0, 5.0]]

    def test_unmatched_id(self):
        with pytest.raises(DataError, match="unmatched id b"):
            align_records(self._recs(["a", "b"]), self._recs(["a", "c"]))
        with pytest.raises(DataError, match="unmatched id c"):
            align_records(self._recs(["a"]), self._recs(["c", "a"]))

    def test_empty_table(self):
        with pytest.raises(DataError, match="cannot align empty record lists"):
            align_records(self._recs([]), self._recs(["a"]))

    def test_label_disagreement(self):
        a = RecordTable(["a", "b", "c"], [0, 1, 0], [[1.0, 0.0]] * 3)
        b = RecordTable(["c", "b", "a"], [1, 0, 0], [[1.0, 0.0]] * 3)
        with pytest.raises(DataError, match="label disagreement for b"):
            align_records(a, b)

    def test_logits_length_mismatch(self):
        a = RecordTable(["a"], [0], [[1.0, 0.0]])
        b = RecordTable(["a"], [0], [[1.0, 0.0, 0.0]])
        with pytest.raises(DataError, match="logits length mismatch between files: 2 vs 3"):
            align_records(a, b)

    def test_swapped_flips_columns_and_names(self):
        a = RecordTable(["a"], [0], [[5.0, 0.0]])
        b = RecordTable(["a"], [0], [[0.0, 5.0]])
        paired = align_records(a, b, "small", "big")
        flipped = paired.swapped()
        assert flipped.name_a == "big" and flipped.name_b == "small"
        assert flipped.samples[0].logits_a == [0.0, 5.0]
        assert flipped.samples[0].logits_b == [5.0, 0.0]

    def test_samples_follow_in_place_edits(self):
        a = RecordTable(["x", "y"], [0, 1], [[5.0, 0.0], [0.0, 1.0]])
        b = RecordTable(["x", "y"], [0, 1], [[0.0, 5.0], [2.0, 0.0]])
        paired = align_records(a, b)
        assert paired.samples[0].logits_a == [5.0, 0.0]
        paired.logits_a[:] = paired.logits_b
        paired.labels[:] = [1, 0]
        assert [s.logits_a for s in paired.samples] == [[0.0, 5.0], [2.0, 0.0]]
        assert [s.label for s in paired.samples] == [1, 0]

    def test_swapped_exchanges_references(self, bundled_paired):
        flipped = bundled_paired.swapped()
        assert flipped.logits_a is bundled_paired.logits_b
        assert flipped.logits_b is bundled_paired.logits_a
        assert flipped.ids is bundled_paired.ids and flipped.labels is bundled_paired.labels
        assert flipped.swapped().logits_a is bundled_paired.logits_a


def _profile_dict():
    return {
        "stages": {
            "model_a": {"energy_wh": 1e-5, "latency_ms": 20.0},
            "model_b": {"energy_wh": 2e-5, "latency_ms": 40.0},
            "memory_lookup": {"energy_wh": 1e-7, "latency_ms": 0.1},
            "memory_insert": {"energy_wh": 1e-7, "latency_ms": 0.1},
        }
    }


class TestCostProfile:
    def test_happy_path(self):
        profile = parse_cost_profile(json.dumps(_profile_dict()))
        assert profile.energy("model_a") == 1e-5
        assert profile.latency("model_b") == 40.0
        assert profile.stages["model_a"].current_mah is None

    def test_comments_tolerated(self):
        obj = _profile_dict()
        obj["comments"] = "per-sample values"
        parse_cost_profile(json.dumps(obj))

    def test_current_mah_optional(self):
        obj = _profile_dict()
        obj["stages"]["model_a"]["current_mah"] = 3.5
        profile = parse_cost_profile(json.dumps(obj))
        assert profile.stages["model_a"].current_mah == 3.5

    def test_missing_stage(self):
        obj = _profile_dict()
        del obj["stages"]["model_b"]
        with pytest.raises(DataError, match="missing stage.*model_b"):
            parse_cost_profile(json.dumps(obj))

    def test_unknown_stage(self):
        obj = _profile_dict()
        obj["stages"]["model_c"] = {"energy_wh": 0.0, "latency_ms": 0.0}
        with pytest.raises(DataError, match="unknown stage.*model_c"):
            parse_cost_profile(json.dumps(obj))

    def test_negative_energy(self):
        obj = _profile_dict()
        obj["stages"]["model_a"]["energy_wh"] = -1.0
        with pytest.raises(DataError, match="model_a energy_wh must be >= 0"):
            parse_cost_profile(json.dumps(obj))

    def test_bool_value_rejected(self):
        obj = _profile_dict()
        obj["stages"]["model_a"]["latency_ms"] = True
        with pytest.raises(DataError, match="latency_ms must be a number"):
            parse_cost_profile(json.dumps(obj))

    def test_invalid_json(self):
        with pytest.raises(DataError, match="invalid cost-profile JSON"):
            parse_cost_profile("{")

    @pytest.mark.parametrize("key", ["energy_wh", "latency_ms", "current_mah"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, key, value):
        obj = _profile_dict()
        obj["stages"]["model_b"][key] = float(value)  # dumped as NaN, Infinity, -Infinity
        with pytest.raises(DataError, match=f"model_b {key} must be finite"):
            parse_cost_profile(json.dumps(obj))

    @pytest.mark.parametrize("key", ["energy_wh", "latency_ms", "current_mah"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_beyond_float_range_rejected(self, key, sign):
        obj = _profile_dict()
        obj["stages"]["model_a"][key] = sign * 10**400
        with pytest.raises(DataError, match=f"model_a {key} is out of float range"):
            parse_cost_profile(json.dumps(obj))

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(DataError, match="not valid UTF-8"):
            parse_cost_profile(b'{"stages": "\xff"}')

    def test_shipped_profiles_load(self, costs_dir):
        for name in ("cifar10.json", "cifar10_single_large.json", "imagenet.json"):
            profile = load_cost_profile(str(costs_dir / name))
            assert set(profile.stages) == {"model_a", "model_b", "memory_lookup", "memory_insert"}

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read cost profile"):
            load_cost_profile(str(tmp_path / "nope.json"))
