"""Reference object path for record parsing and alignment, checked against
the columnar path.

``oracle_parse`` and ``oracle_align`` are the per-record implementation the
columnar ``RecordTable`` / ``PairedDataset`` replaced: one ``PredictionRecord``
per line, and a dict join sorted on the UTF-8 bytes of each id. Hypothesis
feeds both paths random record files (empty lines, duplicate ids,
inconsistent logits lengths, ids missing on either side, label
disagreements, non-ASCII, astral-plane, lone-surrogate and line-break ids)
and asserts the same id order, the same labels, bit-identical logits and the
same first ``DataError`` message; an id that is not printable appears in that
message as its ``repr``, so the message stays on one line. Half the files hold
only float logits, the rows that take the record check's fast branch unless
their sum overflows.

The parser is also fed files broken in the ways record files break, and
files whose size or faults sit on the edges of its ``CHUNK_LINES``-line
chunks: it must raise the oracle's first message, or return the oracle's
table bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit import cli
from cascadekit.calibration import CascadeConfig
from cascadekit.confidence import ScoreFunction
from cascadekit.engine import ReplayClassifier, run_batch
from cascadekit.errors import CHUNK_LINES, DataError, parse_json
from cascadekit.records import RecordTable, align_records, parse_prediction_records


@dataclass(frozen=True)
class PredictionRecord:
    """One sample's id, true label, and a model's raw logits."""

    id: str
    label: int
    logits: tuple[float, ...]


def _oracle_record(obj: object, line_no: int, expected_k: int | None) -> PredictionRecord:
    if not isinstance(obj, dict):
        raise DataError(f"malformed record at line {line_no}: expected a JSON object")
    if set(obj) != {"id", "label", "logits"}:
        raise DataError(
            f"malformed record at line {line_no}: expected exactly keys id, label, logits"
        )
    rid, label, logits = obj["id"], obj["label"], obj["logits"]
    if not isinstance(rid, str):
        raise DataError(f"malformed record at line {line_no}: id must be a string")
    if any(0xD800 <= ord(c) <= 0xDFFF for c in rid):
        raise DataError(f"malformed record at line {line_no}: id is not valid Unicode")
    if isinstance(label, bool) or not isinstance(label, int):
        raise DataError(f"malformed record at line {line_no}: label must be an integer")
    if not isinstance(logits, list) or len(logits) < 2:
        raise DataError(
            f"malformed record at line {line_no}: logits must be an array of length >= 2"
        )
    values = []
    for v in logits:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DataError(f"malformed record at line {line_no}: non-numeric logit")
        try:
            f = float(v)
        except OverflowError:
            raise DataError(f"logit out of float range at line {line_no}") from None
        if not math.isfinite(f):
            raise DataError(f"non-finite logit at line {line_no}")
        values.append(f)
    if expected_k is not None and len(values) != expected_k:
        raise DataError(f"inconsistent logits length at line {line_no}")
    if not 0 <= label < len(values):
        raise DataError(f"label out of range at line {line_no}")
    return PredictionRecord(rid, label, tuple(values))


def _as_shown(rid: str) -> str:
    return rid if rid.isprintable() else repr(rid)


def oracle_parse(data: bytes | str) -> list[PredictionRecord]:
    records: list[PredictionRecord] = []
    seen: set[str] = set()
    newline = b"\n" if isinstance(data, bytes) else "\n"
    for line_no, line in enumerate(data.split(newline), start=1):
        if not line:
            continue
        try:
            obj = parse_json(line, "record")
        except DataError:
            raise DataError(f"malformed record at line {line_no}: invalid JSON") from None
        record = _oracle_record(obj, line_no, len(records[-1].logits) if records else None)
        if record.id in seen:
            raise DataError(f"duplicate id {_as_shown(record.id)} at line {line_no}")
        seen.add(record.id)
        records.append(record)
    return records


def oracle_align(
    a: list[PredictionRecord], b: list[PredictionRecord]
) -> list[tuple[str, int, tuple[float, ...], tuple[float, ...]]]:
    """(id, label, logits_a, logits_b) per sample, sorted on UTF-8 bytes."""
    if not a or not b:
        raise DataError("cannot align empty record lists")
    if len(a[0].logits) != len(b[0].logits):
        raise DataError(
            f"logits length mismatch between files: {len(a[0].logits)} vs {len(b[0].logits)}"
        )
    by_id_a: dict[str, PredictionRecord] = {}
    by_id_b: dict[str, PredictionRecord] = {}
    for records, by_id in ((a, by_id_a), (b, by_id_b)):
        for r in records:
            if r.id in by_id:
                raise DataError(f"duplicate id {_as_shown(r.id)}")
            by_id[r.id] = r
    for rid in [*by_id_a, *by_id_b]:
        if rid not in by_id_a or rid not in by_id_b:
            raise DataError(f"unmatched id {_as_shown(rid)}")
    rows = []
    for rid in sorted(by_id_a, key=lambda s: s.encode("utf-8")):
        ra, rb = by_id_a[rid], by_id_b[rid]
        if ra.label != rb.label:
            raise DataError(f"label disagreement for {_as_shown(rid)}")
        rows.append((rid, ra.label, ra.logits, rb.logits))
    return rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return DataError, str(exc)


def _bits(rows) -> bytes:
    return np.array(rows, dtype=np.float64).tobytes()


def assert_table_matches(table: RecordTable, records: list[PredictionRecord]) -> None:
    assert table.ids == tuple(r.id for r in records)
    assert table.labels.dtype == np.int64 and table.logits.dtype == np.float64
    assert table.labels.tolist() == [r.label for r in records]
    assert table.logits.shape[0] == len(records)
    if records:
        assert table.logits.tobytes() == _bits([r.logits for r in records])


def assert_parse_matches_oracle(data: bytes | str) -> None:
    want = _outcome(oracle_parse, data)
    got = _outcome(parse_prediction_records, data)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_table_matches(got, want)


# Ids from a small pool so that files share, repeat and miss ids; the pool
# mixes ASCII, Latin-1, BMP and astral-plane characters whose UTF-16 and
# UTF-8 orders differ, and now and then a lone surrogate.
ID_CHARS = ["a", "b", "Z", "é", "ÿ", "中", "\uffff", "😀", "\U0010fffd", "\n"]
ids_st = st.text(alphabet=st.sampled_from(ID_CHARS), min_size=1, max_size=3).map(
    lambda rid: rid + "\ud800" if rid == "Z" else rid
)
# +-1.7e308 make some valid rows' sums overflow; ints past 2**53 round in float()
float_logit_st = st.one_of(
    st.floats(-50, 50, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, 1.7e308, -1.7e308]),
)
mixed_logit_st = st.one_of(
    float_logit_st,
    st.integers(-5, 5),
    st.integers(2**53 + 1, 2**60),
    st.integers(-(2**60), -(2**53 + 1)),
)


@st.composite
def record_line(draw, rid: str, label: int, k: int, logit_st) -> str:
    if draw(st.integers(0, 9)) == 0:
        label = draw(st.integers(-1, k))  # a disagreement, or out of range
    if draw(st.integers(0, 19)) == 0:
        k = draw(st.sampled_from([k - 1, k + 1]))  # inconsistent length (or < 2)
    logits = draw(st.lists(logit_st, min_size=k, max_size=k))
    record = {"id": rid, "label": label, "logits": logits}
    return json.dumps(record, ensure_ascii=draw(st.booleans()))


@st.composite
def record_file(draw, chosen: list[str], labels: dict[str, int], k: int) -> str:
    # half the files hold only float logits, as every writer emits them
    logit_st = draw(st.sampled_from([float_logit_st, mixed_logit_st]))
    lines = []
    for rid in chosen:
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
        lines.append(draw(record_line(rid, labels[rid], k, logit_st)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def record_file_pair(draw) -> tuple[str, str]:
    pool = draw(st.lists(ids_st, min_size=1, max_size=6, unique=True))
    k = draw(st.integers(2, 4))
    labels = {rid: draw(st.integers(0, k - 1)) for rid in pool}
    ids = st.lists(
        st.sampled_from(pool),
        min_size=0 if draw(st.integers(0, 9)) == 0 else 1,
        max_size=8,
        unique=draw(st.integers(0, 9)) > 0,
    )
    chosen_a = draw(ids)
    # mostly the same ids in another order; else an independent draw
    chosen_b = draw(st.permutations(chosen_a) if draw(st.integers(0, 3)) else ids)
    k_b = k if draw(st.integers(0, 9)) else k + 1
    return draw(record_file(chosen_a, labels, k)), draw(record_file(chosen_b, labels, k_b))


@given(record_file_pair(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_columnar_parse_and_align_match_object_oracle(texts, as_bytes):
    # a raw lone surrogate encodes to bytes that are not UTF-8
    data = [t.encode("utf-8", "surrogatepass") if as_bytes else t for t in texts]
    parsed = [_outcome(parse_prediction_records, d) for d in data]
    expected = [_outcome(oracle_parse, d) for d in data]
    for got, want in zip(parsed, expected):
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_table_matches(got, want)
    if any(isinstance(want, tuple) for want in expected):
        return
    table_a, table_b = parsed
    paired = _outcome(align_records, table_a, table_b)
    rows = _outcome(oracle_align, *expected)
    if isinstance(rows, tuple):
        assert paired == rows
        return
    assert paired.ids == tuple(r[0] for r in rows)
    assert paired.labels.dtype == np.int64
    assert paired.labels.tolist() == [r[1] for r in rows]
    assert paired.logits_a.tobytes() == _bits([r[2] for r in rows])
    assert paired.logits_b.tobytes() == _bits([r[3] for r in rows])
    replay = ReplayClassifier("m", table_a)
    gathered = replay.infer([r.id for r in expected[0]][::-1])  # one gather, in the order asked
    assert gathered.dtype == np.float64 and gathered.shape == table_a.logits.shape
    assert gathered.tobytes() == _bits([r.logits for r in expected[0]][::-1])
    assert not np.shares_memory(gathered, table_a.logits)


# Values that JSON parses but a record rejects, or that only the per-value
# logit loop accepts (an int); each is spliced into a line as raw JSON text.
ODD_LOGITS = ["true", "false", "null", '"1.5"', "[1.0]", "NaN", "Infinity", "-Infinity",
              "1e400", "3", "-0", "9" * 400, "-" + "9" * 400]
ODD_LABELS = ["true", "null", "1.0", "-1", "7", str(10**30), str(-(10**30)), "9" * 400, '"0"']
NOT_RECORDS = ["[1.0,2.0]", "3", '"s"', "null", "{}", "{", "}", "", " ", "\ufeff{}", "\r"]
# JSON whitespace, and spaces str.strip() would drop but JSON rejects
PADDING = st.text(st.sampled_from([" ", "\t", "\r", "\x0b", "\x0c", "\u00a0", "\u2028"]))


FAULTS = 10


@st.composite
def odd_record_lines(draw, rid: str, label: int, k: int, logit_st, fault: int | None) -> list[str]:
    """One record as JSON text; a fault (0 to FAULTS - 1) breaks, reorders,
    pads or splits it."""
    fields = {
        "id": json.dumps(rid, ensure_ascii=draw(st.booleans())),
        "label": str(label),
        "logits": [json.dumps(v) for v in draw(st.lists(logit_st, min_size=k, max_size=k))],
    }
    if fault == 0:
        fields["logits"][draw(st.integers(0, k - 1))] = draw(st.sampled_from(ODD_LOGITS))
    elif fault == 1:
        fields["label"] = draw(st.sampled_from(ODD_LABELS))
    elif fault == 2:
        del fields[draw(st.sampled_from(sorted(fields)))]
    elif fault == 3:
        fields["extra"] = "1"
    elif fault == 4:  # too short for a record, or unlike the other lines
        fields["logits"] = (fields["logits"] + ["0.5"])[: draw(st.sampled_from([0, 1, k - 1, k + 1]))]
    keys = draw(st.permutations(list(fields))) if fault == 5 else list(fields)
    line = "{" + ",".join(
        f'"{key}":' + (f"[{','.join(fields[key])}]" if key == "logits" else fields[key])
        for key in keys
    ) + "}"
    if fault == 6:
        return [draw(st.sampled_from(NOT_RECORDS))]
    if fault == 7:  # a record split across two lines
        cut = draw(st.integers(1, len(line) - 1))
        return [line[:cut], line[cut:]]
    if fault == 8:
        return [draw(PADDING) + line + draw(PADDING)]
    if fault == 9:
        return [line + "\r"]
    return [line]


@st.composite
def odd_record_file(draw) -> str:
    """A record file that is valid, or valid but for one fault, or faulty on
    many lines. Faults: wrong types and values, missing or extra keys,
    non-object lines, split records, CRLF and padded lines; the ids may
    repeat."""
    pool = draw(st.lists(ids_st, min_size=1, max_size=6, unique=True))
    k = draw(st.integers(2, 4))
    unique = draw(st.integers(0, 3)) > 0
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=unique))
    logit_st = draw(st.sampled_from([float_logit_st, float_logit_st, mixed_logit_st]))
    mode = draw(st.sampled_from(["clean", "one fault", "one fault", "many faults"]))
    faulty = draw(st.integers(0, max(len(chosen) - 1, 0)))
    lines = []
    for i, rid in enumerate(chosen):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
        if mode == "many faults" and draw(st.booleans()) or mode == "one fault" and i == faulty:
            fault = draw(st.integers(0, FAULTS - 1))
        else:
            fault = None
        label = draw(st.integers(0, k - 1))
        lines.extend(draw(odd_record_lines(rid, label, k, logit_st, fault)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))


@given(odd_record_file(), st.booleans())
@settings(max_examples=1000, deadline=None)
def test_parse_matches_oracle_on_odd_files(text, as_bytes):
    assert_parse_matches_oracle(text.encode("utf-8", "surrogatepass") if as_bytes else text)


# Values no record accepts as a logit or as a label; in the parse's file each
# is its JSON text (NaN and Infinity as Python's json writes them).
BAD_LOGITS = [True, False, "1.5", None, math.nan, math.inf, -math.inf, 10**400, -(10**400)]
BAD_LABELS = [True, "0", 1.0, None, -1, 10**30]


@st.composite
def hand_built_columns(draw) -> tuple[list, list, list]:
    """Columns of one label and one logits row per id: clean, bad in one row,
    or bad in many (a bad value, label or length, a repeated, int or
    lone-surrogate id); good values may come as numpy arrays or scalars."""
    pool = draw(st.lists(ids_st, min_size=1, max_size=6, unique=True))
    k = draw(st.integers(2, 4))
    unique = draw(st.integers(0, 3)) > 0
    ids = draw(st.lists(st.sampled_from(pool), min_size=0 if draw(st.integers(0, 9)) == 0 else 1,
                        max_size=6, unique=unique))
    logit_st = draw(st.sampled_from([float_logit_st, float_logit_st, mixed_logit_st]))
    mode = draw(st.sampled_from(["clean", "one fault", "one fault", "many faults"]))
    faulty = draw(st.integers(0, max(len(ids) - 1, 0)))
    labels, rows = [], []
    for i in range(len(ids)):
        label, width = draw(st.integers(0, k - 1)), k
        fault = None
        if mode == "many faults" and draw(st.booleans()) or mode == "one fault" and i == faulty:
            fault = draw(st.integers(0, 3))
        if fault == 0:
            ids[i] = draw(st.integers(0, 3))
        elif fault == 1:
            label = draw(st.sampled_from(BAD_LABELS))
        elif fault == 2:
            width = draw(st.sampled_from([0, 1, k - 1, k + 1]))
        row = draw(st.lists(logit_st, min_size=width, max_size=width))
        if fault == 3:
            row[draw(st.integers(0, k - 1))] = draw(st.sampled_from(BAD_LOGITS))
        labels.append(label)
        rows.append(row)
    form = draw(st.sampled_from(["lists", "tuples", "numpy scalars", "numpy arrays"]))
    if form == "tuples":
        rows = [tuple(row) for row in rows]
    elif form == "numpy scalars":  # each int or float as the numpy scalar of its kind
        def scalar(v):
            if type(v) is float:
                return np.float64(v)
            return np.int64(v) if type(v) is int and -(2**63) <= v < 2**63 else v
        labels = [scalar(y) for y in labels]
        rows = [[scalar(v) for v in row] for row in rows]
    elif form == "numpy arrays":  # only where numpy keeps every value as it is
        if all(type(y) is int and 0 <= y < 2**63 for y in labels):
            labels = np.array(labels, dtype=np.int64)
        if all(type(v) is float for row in rows for v in row) and len({len(row) for row in rows}) == 1:
            rows = np.array(rows, dtype=np.float64)
    return ids, labels, rows


def _as_record_file(ids, labels, rows) -> str:
    """The same records as a JSON Lines file, each value as the Python value it holds."""
    plain = [c.tolist() if isinstance(c, np.ndarray) else c for c in (labels, rows)]
    return "".join(
        json.dumps({"id": rid, "label": label, "logits": list(row)}, default=lambda v: v.item()) + "\n"
        for rid, label, row in zip(ids, *plain)
    )


@given(hand_built_columns())
@settings(max_examples=600, deadline=None)
def test_a_hand_built_table_is_the_parse_of_its_records(columns):
    ids, labels, rows = columns
    want = _outcome(parse_prediction_records, _as_record_file(ids, labels, rows))
    got = _outcome(RecordTable, ids, labels, rows)
    if isinstance(want, tuple):
        kind, message = want
        assert got == (kind, re.sub(r"^malformed record at line \d+: | at line \d+$", "", message))
        return
    assert isinstance(got, RecordTable), got
    assert got.ids == want.ids and got.labels.dtype == want.labels.dtype
    assert got.labels.tolist() == want.labels.tolist()
    assert got.logits.shape == want.logits.shape and got.logits.tobytes() == want.logits.tobytes()


def _wide_logit(rng: random.Random, kind: str, extreme: bool) -> float | int:
    if kind == "mixed":
        kind = rng.choice(["float", "int"])
    if kind == "int":  # past 2**53 an int rounds in float()
        return rng.choice([0, -3, 2**53 + 1, -(2**60), rng.randrange(-(10**6), 10**6)])
    if extreme:  # two of 1.7e308 overflow the row sum, which sends the row down the per-value loop
        return rng.choice([0.0, -0.0, 5e-324, 1.7e308, -1.7e308, rng.gauss(0.0, 10.0)])
    return rng.gauss(0.0, 10.0)


@pytest.mark.parametrize("k", [2, 1000])
@pytest.mark.parametrize("kind", ["float", "int", "mixed", "empty"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_buffered_logits_match_oracle_bit_for_bit(k, kind, as_bytes):
    # every row's floats go through one float64 buffer; at K = 1000 each row is one long run
    rng = random.Random(f"{k}-{kind}")
    n = 0 if kind == "empty" else 12
    lines = [
        json.dumps({"id": f"s{i}", "label": i % k, "logits": [_wide_logit(rng, kind, i % 2 == 0) for _ in range(k)]})
        for i in range(n)
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    data = text.encode("utf-8") if as_bytes else text
    table = parse_prediction_records(data)
    assert table.logits.shape == ((n, k) if n else (0, 0))
    assert_table_matches(table, oracle_parse(data))


def _chunk_file(n: int, faults: dict[int, bytes] | None = None, float_logits: bool = True) -> bytes:
    """n record lines, each line number's own id and K = 2, with lines swapped
    for ``faults`` (line number -> raw line); int logits send a chunk down
    the record-by-record loop."""
    faults = faults or {}
    logits = "[%d.5,-0.25]" if float_logits else "[%d,0]"
    return b"".join(
        faults.get(i, b'{"id":"s%d","label":%d,"logits":%s}' % (i, i % 2, (logits % i).encode())) + b"\n"
        for i in range(1, n + 1)
    )


@pytest.mark.parametrize("n", [0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1, 3 * CHUNK_LINES + 5])
@pytest.mark.parametrize("float_logits", [True, False], ids=["floats", "ints"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_files_around_chunk_sizes_match_oracle(n, float_logits, as_bytes):
    data = _chunk_file(n, float_logits=float_logits)
    for data in (data, data.rstrip(b"\n")):  # with and without a last newline
        table = parse_prediction_records(data if as_bytes else data.decode())
        assert len(table) == n
        assert_parse_matches_oracle(data if as_bytes else data.decode())


@pytest.mark.parametrize("last, want", [
    (None, None),
    (b'{"id":"t","label":5,"logits":[1.0,2.0]}', "^label out of range at line 148$"),
    (b"{", "^malformed record at line 148: invalid JSON$"),
], ids=["clean", "record_fault", "json_fault"])
def test_a_chunk_of_empty_lines_keeps_line_numbers(last, want):
    # lines 11-138 are empty: the second chunk holds no record
    lines = _chunk_file(10).split(b"\n")[:-1] + [b""] * (2 * CHUNK_LINES) + _chunk_file(20).split(b"\n")[10:-1]
    assert len(lines) == 148 and CHUNK_LINES == 64
    if last is not None:
        lines[-1] = last
    data = b"\n".join(lines) + b"\n"
    assert_parse_matches_oracle(data)
    if want is None:
        assert parse_prediction_records(data).ids == tuple(f"s{i}" for i in range(1, 21))
    else:
        with pytest.raises(DataError, match=want):
            parse_prediction_records(data)


# one line for each fault the oracle names; "s2" repeats line 2's id (at line 1, line 2 repeats it)
CHUNK_FAULTS = {
    "not an object": b"[1.0,2.0]",
    "missing key": b'{"id":"x","label":0}',
    "extra key": b'{"id":"x","label":0,"logits":[1.0,2.0],"y":1}',
    "int id": b'{"id":1,"label":0,"logits":[1.0,2.0]}',
    "lone surrogate id": b'{"id":"\\ud800","label":0,"logits":[1.0,2.0]}',
    "bool label": b'{"id":"x","label":true,"logits":[1.0,2.0]}',
    "one logit": b'{"id":"x","label":0,"logits":[1.0]}',
    "null logit": b'{"id":"x","label":0,"logits":[1.0,null]}',
    "logit past float range": b'{"id":"x","label":0,"logits":[1.0,%s]}' % (b"9" * 400),
    "NaN logit": b'{"id":"x","label":0,"logits":[1.0,NaN]}',
    "three logits": b'{"id":"x","label":0,"logits":[1.0,2.0,3.0]}',
    "label out of range": b'{"id":"x","label":2,"logits":[1.0,2.0]}',
    "duplicate id": b'{"id":"s2","label":0,"logits":[1.0,2.0]}',
    "invalid JSON": b'{"id":"x","label":0,"logits":[1.0,2.0]',
    "trailing data": b'{"id":"x","label":0,"logits":[1.0,2.0]} 1',
    "no document": b"\t ",
    "bad UTF-8 byte": b'{"id":"\xff","label":0,"logits":[1.0,2.0]}',
    "deeply nested": b"[" * 100000,
}


@pytest.mark.parametrize("line", [1, CHUNK_LINES, CHUNK_LINES + 1, 2 * CHUNK_LINES],
                         ids=["first_of_first", "last_of_first", "first_of_second", "last_of_second"])
@pytest.mark.parametrize("fault", sorted(CHUNK_FAULTS))
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_a_fault_at_a_chunk_edge_matches_oracle(fault, line, as_bytes):
    data = _chunk_file(3 * CHUNK_LINES + 5, {line: CHUNK_FAULTS[fault]})
    data = data if as_bytes else data.decode("utf-8", "surrogateescape")  # \xff: a lone surrogate
    assert_parse_matches_oracle(data)
    with pytest.raises(DataError):
        parse_prediction_records(data)


@pytest.mark.parametrize(
    "record_line, json_line, want",
    [(CHUNK_LINES + 3, CHUNK_LINES + 10, f"^label out of range at line {CHUNK_LINES + 3}$"),
     (CHUNK_LINES + 10, CHUNK_LINES + 3, f"^malformed record at line {CHUNK_LINES + 3}: invalid JSON$"),
     (2 * CHUNK_LINES - 1, 2 * CHUNK_LINES, f"^label out of range at line {2 * CHUNK_LINES - 1}$")],
    ids=["record_fault_first", "json_fault_first", "last_two_lines"],
)
def test_the_first_fault_in_a_chunk_wins(record_line, json_line, want):
    data = _chunk_file(3 * CHUNK_LINES, {record_line: CHUNK_FAULTS["label out of range"],
                                         json_line: CHUNK_FAULTS["invalid JSON"]})
    assert_parse_matches_oracle(data)
    with pytest.raises(DataError, match=want):
        parse_prediction_records(data)


def test_sorted_ids_follow_utf8_byte_order():
    # UTF-16 order would put the astral character before U+FFFF
    ids = ["￿", "😀", "é", "a", "\U0010fffd", "中"]
    table = RecordTable(ids, [0] * len(ids), [[1.0, 0.0]] * len(ids))
    paired = align_records(table, table)
    assert list(paired.ids) == sorted(ids, key=lambda s: s.encode("utf-8"))


def test_trace_and_sample_labels_are_python_ints(data_dir, costs_dir):
    config = CascadeConfig("model_a", "model_b", ScoreFunction.DIFFERENCE, 0.5, True)
    args = argparse.Namespace(
        records_a=str(data_dir / "model_a.jsonl"),
        records_b=str(data_dir / "model_b.jsonl"),
        costs=str(costs_dir / "cifar10.json"),
        images=None,
    )
    _, engine, samples = cli._load_replay(args, config, with_images=False, with_labels=True)
    traces, _ = run_batch(engine, samples)
    assert all(type(t.label) is int and type(t.predicted) is int for t in traces)
    paired = align_records(
        parse_prediction_records((data_dir / "model_a.jsonl").read_bytes()),
        parse_prediction_records((data_dir / "model_b.jsonl").read_bytes()),
    )
    assert all(type(s.label) is int and type(s.logits_a[0]) is float for s in paired.samples)
