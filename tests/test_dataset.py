"""Corpus loading, patchify, and the line-delimited record envelope."""

import base64
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from codechain import records
from codechain import dataset as ds
from codechain.errors import ConfigError, DataError, ParseError


def make_dataset(ids, values, labels=None, n_classes=2, role="source"):
    labels = [ds.UNLABELED] * len(ids) if labels is None else labels
    return ds.DomainDataset(values=values, ids=ids, labels=labels, n_classes=n_classes, role=role)


def tiny_dataset(role="source", n=3, d=2, t=8, n_classes=2):
    rng = np.random.default_rng(7)
    labels = [k % n_classes if role == "source" else ds.UNLABELED for k in range(n)]
    return make_dataset([f"i{k}" for k in range(n)], rng.normal(size=(n, d, t)), labels, n_classes, role)


def encode(values) -> str:
    """A corpus record's channels field: base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def write_corpus(path, recs, **header):
    """A hand-written target corpus of one channel of length 2.

    Header entries given override the defaults; an entry of ``...`` drops its key.
    """
    full = {"kind": "corpus", "role": "target", "n_channels": 1, "length": 2, "n_classes": 2,
            "n_instances": len(recs), "channels_encoding": ds.CHANNELS_ENCODING}
    full.update(header)
    records.write_record_file(path, {k: v for k, v in full.items() if v is not ...}, recs)


# ---------------------------------------------------------------- records

def test_dump_line_is_sorted_and_compact():
    line = records.dump_line({"b": 1, "a": [1.5, 2]})
    assert line == '{"a":[1.5,2],"b":1}'


def test_dump_line_floats_round_trip_exactly():
    values = [0.1, 1 / 3, 1e-300, 2.5e17, -0.0]
    out = json.loads(records.dump_line({"v": values}))["v"]
    assert all(a == b for a, b in zip(out, values))


def test_dump_line_rejects_nan():
    with pytest.raises(ValueError):
        records.dump_line({"v": float("nan")})


def test_record_file_round_trip(tmp_path):
    path = tmp_path / "r.jsonl"
    header = {"kind": "corpus", "config": {"x": 1}}
    recs = [{"id": "a", "v": 1.25}, {"id": "b", "v": -3.0}]
    records.write_record_file(path, header, recs)
    got_header, got_recs = records.read_record_file(path, expected_kind="corpus")
    assert got_header["kind"] == "corpus"
    assert got_header["format"] == records.FORMAT
    assert list(got_recs) == recs


def test_record_file_kind_mismatch(tmp_path):
    path = tmp_path / "r.jsonl"
    records.write_record_file(path, {"kind": "corpus"}, [])
    with pytest.raises(ParseError):
        records.read_record_file(path, expected_kind="quantizer")


def test_record_file_reports_bad_line_number(tmp_path):
    path = tmp_path / "r.jsonl"
    records.write_record_file(path, {"kind": "corpus"}, [{"id": "a"}])
    with open(path, "a") as f:
        f.write("{not json\n")
    _, recs = records.read_record_file(path, expected_kind="corpus")
    with pytest.raises(ParseError) as exc:
        list(recs)
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "text, line_no, reason",
    [
        ("", 1, "missing header line"),
        ("\n" + '{"id":"a"}\n', 1, "missing header line"),
        ('{"format":"codechain.v0","kind":"corpus"}\n', 1, "unrecognized format 'codechain.v0'"),
        ('{"kind":"corpus"}\n', 1, "unrecognized format None"),
        ("[1, 2]\n", 1, "each line must be a JSON object"),
        ('{"format":"codechain.v1","kind":"corpus"}\n"a"\n', 2, "each line must be a JSON object"),
    ],
    ids=["empty", "blank-first-line", "unknown-format", "no-format", "header-a-list", "record-a-string"],
)
def test_record_file_refuses_a_bad_envelope_with_its_line_number(tmp_path, text, line_no, reason):
    path = tmp_path / "r.jsonl"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        list(records.read_record_file(path, "corpus")[1])
    assert (exc.value.line_no, exc.value.reason) == (line_no, reason)


@pytest.mark.parametrize("n_records", [0, 2])
def test_a_bundle_must_hold_exactly_one_record(tmp_path, n_records):
    path = tmp_path / "q.jsonl"
    records.write_record_file(path, {"kind": "quantizer"}, [{"x": i} for i in range(n_records)])
    with pytest.raises(DataError, match="quantizer bundle must hold exactly one record"):
        records.read_one(path, "quantizer")


def test_record_file_reads_through_a_pipe(tmp_path):
    source = tmp_path / "c.jsonl"
    ds.save_corpus(source, tiny_dataset())
    fifo = tmp_path / "c.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as out:
            out.write(source.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        back = ds.load_corpus(fifo)
    finally:
        writer.join(timeout=10)
    assert_array_equal(back.values, tiny_dataset().values)
    assert back.ids.tolist() == ["i0", "i1", "i2"]


def test_a_record_writer_that_fails_midway_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "r.jsonl"
    records.write_record_file(path, {"kind": "corpus"}, [{"id": "old"}])
    before = path.read_bytes()

    def failing():
        yield {"id": "new"}
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError, match="writer died"):
        records.write_record_file(path, {"kind": "corpus", "n": 2}, failing())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["r.jsonl"]


def test_a_record_file_replaces_its_symlink_target_and_keeps_the_link(tmp_path):
    target, link = tmp_path / "r.jsonl", tmp_path / "link.jsonl"
    records.write_record_file(target, {"kind": "corpus"}, [])
    link.symlink_to(target)
    records.write_record_file(link, {"kind": "corpus"}, [{"id": "a"}])
    assert link.is_symlink()
    assert list(records.read_record_file(target)[1]) == [{"id": "a"}]
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "r.jsonl"]


def test_a_record_file_is_written_in_place_into_a_pipe(tmp_path):
    fifo = tmp_path / "r.fifo"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        records.write_record_file(fifo, {"kind": "corpus"}, [{"id": "a"}])
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b'{"format":"codechain.v1","kind":"corpus"}\n{"id":"a"}\n']
    assert os.listdir(tmp_path) == ["r.fifo"]


# ---------------------------------------------------------------- types

def test_instance_requires_2d_finite():
    with pytest.raises(DataError):
        make_dataset(["a"], [[1.0, 2.0]], [0])
    with pytest.raises(DataError):
        make_dataset(["a"], [[[1.0, np.nan]]], [0])


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(DataError) as exc:
        make_dataset(["a", "b"], np.zeros((2, 2, 8)), [0])
    assert "align" in str(exc.value)


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(DataError):
        make_dataset(["a", "a"], np.zeros((2, 1, 4)), [0, 1])


def test_source_requires_labels():
    with pytest.raises(DataError):
        make_dataset(["a"], np.zeros((1, 1, 4)))


def test_label_out_of_range():
    with pytest.raises(DataError):
        make_dataset(["a"], np.zeros((1, 1, 4)), [5])


def test_role_validated():
    with pytest.raises(DataError):
        make_dataset(["a"], np.zeros((1, 1, 4)), [0], role="validation")


# ---------------------------------------------------------------- patchify

def test_patchify_128_by_8():
    patches = ds.patchify(np.arange(3 * 128, dtype=np.float64).reshape(3, 128), 8)
    assert patches.shape[-2] == 16
    assert patches.shape == (3, 16, 8)


def test_patchify_300_by_15():
    assert ds.patchify(np.zeros((1, 300)), 15).shape[-2] == 20


def test_patchify_drops_trailing_remainder():
    patches = ds.patchify(np.arange(10, dtype=np.float64)[None, :], 8)
    assert patches.shape[-2] == 1
    assert_array_equal(patches[0, 0], np.arange(8, dtype=np.float64))


def test_patchify_lossless_up_to_truncation():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, 23))
    patches = ds.patchify(values, 5)
    for d in range(2):
        assert_array_equal(patches[d].reshape(-1), values[d, :20])


def test_patchify_rejects_small_m():
    with pytest.raises(ConfigError):
        ds.patchify(np.zeros((1, 8)), 1)


def test_patchify_rejects_m_longer_than_series():
    with pytest.raises(DataError):
        ds.patchify(np.zeros((1, 4)), 8)


# ---------------------------------------------------------------- corpus io

def test_minimal_corpus_round_trip(tmp_path):
    data = make_dataset(["only"], np.array([[[1.0, 2.0, 3.0, 4.0]]]), [0], n_classes=1)
    path = tmp_path / "c.jsonl"
    ds.save_corpus(path, data)
    back = ds.load_corpus(path)
    assert len(back) == 1
    assert back.n_channels == 1 and back.length == 4
    assert back.labels[0] == 0


def test_corpus_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(2, 12)) * np.array([[1e-7], [1e9]])
    vals[0, 0] = 1 / 3
    vals[1, 0] = -0.0
    data = make_dataset(["x"], vals[None], [1])
    path = tmp_path / "c.jsonl"
    ds.save_corpus(path, data)
    back = ds.load_corpus(path)
    assert back.values[0].tobytes() == vals.tobytes()


def test_save_load_save_is_byte_stable(tmp_path):
    data = tiny_dataset()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ds.save_corpus(p1, data, config={"seed": 0})
    ds.save_corpus(p2, ds.load_corpus(p1), config={"seed": 0})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_corpus_dimension_mismatch_names_id(tmp_path):
    path = tmp_path / "c.jsonl"
    recs = [
        {"id": "ok", "label": 0, "channels": encode([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])},
        {"id": "short", "label": 0, "channels": encode([[1.0, 2.0, 3.0]])},
    ]
    write_corpus(path, recs, role="source", n_channels=2, length=3, n_classes=1)
    with pytest.raises(DataError, match="'short': channels hold 24 bytes, expected 48"):
        ds.load_corpus(path)


@pytest.mark.parametrize("label", [-1, -5, 2, 2**63, 2.7, 1.0, "3", True, False])
def test_load_corpus_rejects_a_negative_label_on_file(tmp_path, label):
    # the header holds 2 classes, so 2 is the least label out of range
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": label, "channels": encode([[0.0, 1.0]])}])
    expected = "out of range" if type(label) is int else "is not an integer"
    with pytest.raises(DataError, match=expected):
        ds.load_corpus(path)


@pytest.mark.parametrize("key", ["n_channels", "length", "n_classes", "n_instances"])
@pytest.mark.parametrize("value", [1.9, 2.0, "2", True, None, [2], 0, -3, ...])
def test_load_corpus_rejects_a_header_size_that_is_not_a_positive_integer(tmp_path, key, value):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": None, "channels": encode([[0.0, 1.0]])}], **{key: value})
    with pytest.raises(DataError, match=f"{key} .* is not a positive integer"):
        ds.load_corpus(path)


@pytest.mark.parametrize("encoding", [..., None, "json", "base64-float64be", "base64-float32le", 1])
def test_load_corpus_requires_the_channels_encoding(tmp_path, encoding):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": None, "channels": encode([[0.0, 1.0]])}],
                 channels_encoding=encoding)
    with pytest.raises(DataError, match="channels_encoding .* is not 'base64-float64le'"):
        ds.load_corpus(path)


# the JSON lists of older corpus files, with cells that are not numbers
@pytest.mark.parametrize(
    "channels",
    [[["1.5", 2.0]], [[1.5, True]], [[False, 2.0]], [["a", "b"]], [[1.0, None]], [[10**400, 1.0]]],
)
def test_load_corpus_rejects_channel_values_that_are_not_numbers(tmp_path, channels):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": None, "channels": channels}])
    with pytest.raises(DataError, match="'a'"):
        ds.load_corpus(path)


@pytest.mark.parametrize("channels", [[[0.0, 1.0]], [], 0.0, 3, None, True, False, {}])
def test_load_corpus_rejects_channels_that_are_not_a_string(tmp_path, channels):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": None, "channels": channels}])
    with pytest.raises(DataError, match="instance 'a' channels is not a base64 string"):
        ds.load_corpus(path)


GOOD = encode([[0.0, 1.0]])  # 16 bytes: 22 characters and "=="


@pytest.mark.parametrize(
    "channels",
    [
        GOOD[:5] + "*" + GOOD[6:],  # outside the alphabet
        GOOD.replace("A", "-"),  # the URL-safe alphabet
        GOOD[:5] + "é" + GOOD[6:],  # not ASCII
        GOOD[:-1],  # one padding character short
        GOOD[:-2],  # no padding
        GOOD + "=",  # too much padding
        GOOD[:8] + "=" + GOOD[8:],  # padding inside
        GOOD[:12] + "\n" + GOOD[12:],  # an embedded newline
        " " + GOOD,
        GOOD + "\n",
    ],
)
def test_load_corpus_rejects_channels_that_are_not_strict_base64(tmp_path, channels):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": None, "channels": channels}])
    with pytest.raises(DataError, match="instance 'a' channels is not a base64 string"):
        ds.load_corpus(path)


RAW = np.asarray([[0.0, 1.0]], "<f8").tobytes()


@pytest.mark.parametrize("raw", [RAW[:-1], RAW + b"\0", RAW[:8], RAW * 2, b""])
def test_load_corpus_rejects_channels_of_the_wrong_byte_count(tmp_path, raw):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": None, "channels": base64.b64encode(raw).decode("ascii")}])
    with pytest.raises(DataError, match=f"'a': channels hold {len(raw)} bytes, expected 16"):
        ds.load_corpus(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_corpus_rejects_encoded_non_finite_values(tmp_path, bad):
    path = tmp_path / "c.jsonl"
    recs = [{"id": "ok", "label": None, "channels": encode([[0.0, 1.0]])},
            {"id": "a", "label": None, "channels": encode([[0.5, bad]])}]
    write_corpus(path, recs)
    with pytest.raises(DataError, match="instance 'a': non-finite values"):
        ds.load_corpus(path)


@pytest.mark.parametrize("count", [None, "three", -4, 0, 10**12, 2, 4])
def test_load_corpus_does_not_trust_the_header_instance_count(tmp_path, count):
    # the 3 records are counted: a header count that is no count or another one
    # (2 and 4 find one record too many and one too few) is refused
    data = tiny_dataset()
    path = tmp_path / "c.jsonl"
    ds.save_corpus(path, data)
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["n_instances"] = count
    path.write_text(records.dump_line(header) + "\n" + "".join(lines[1:]))
    expected = (
        f"{path.name}: corpus header n_instances is {count}, the file holds 3 records"
        if type(count) is int and count > 0 else f"n_instances {count!r} is not a positive integer"
    )
    with pytest.raises(DataError, match=expected):
        ds.load_corpus(path)


def test_load_corpus_holds_the_values_once(tmp_path):
    data = tiny_dataset(n=64, d=4, t=1024)
    path = tmp_path / "c.jsonl"
    ds.save_corpus(path, data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = ds.load_corpus(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == data.values.tobytes()
    # one buffer grown as the records are read: its slack and the finiteness mask, no second copy
    assert peak <= 1.5 * back.values.nbytes


def test_load_corpus_missing_label_for_source(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [{"id": "a", "label": None, "channels": encode([[0.0, 1.0]])}],
                 role="source", n_classes=1)
    with pytest.raises(DataError):
        ds.load_corpus(path)


def test_strip_labels():
    data = tiny_dataset(role="target")
    labeled = make_dataset(data.ids, data.values, [0] * len(data), role="target")
    stripped = ds.strip_labels(labeled)
    assert all(label == ds.UNLABELED for label in stripped.labels)
    assert stripped.role == "target"


def test_load_truth_rejects_a_boolean_label(tmp_path):
    path = tmp_path / "truth.jsonl"
    records.write_record_file(path, {"kind": "truth", "n_classes": 2}, [{"id": "a", "label": True}])
    with pytest.raises(DataError, match="must be an integer"):
        ds.load_truth(path)


@pytest.mark.parametrize("label", [-1, 2, 10**30])
def test_load_truth_rejects_a_label_out_of_range_naming_its_record(tmp_path, label):
    path = tmp_path / "truth.jsonl"
    records.write_record_file(path, {"kind": "truth", "n_classes": 2}, [{"id": "a", "label": label}])
    with pytest.raises(DataError, match=rf"truth record 'a': label {label} out of range \[0, 2\)"):
        ds.load_truth(path)


@pytest.mark.parametrize("n_classes", [2.7, 2.0, "3", True, None, 0, -1])
def test_load_truth_rejects_a_class_count_that_is_not_a_positive_integer(tmp_path, n_classes):
    path = tmp_path / "truth.jsonl"
    records.write_record_file(path, {"kind": "truth", "n_classes": n_classes}, [{"id": "a", "label": 0}])
    with pytest.raises(DataError, match="n_classes .* is not a positive integer"):
        ds.load_truth(path)


def test_load_truth_rejects_a_duplicate_id(tmp_path):
    path = tmp_path / "truth.jsonl"
    records.write_record_file(
        path, {"kind": "truth", "n_classes": 2}, [{"id": "a", "label": 0}, {"id": "a", "label": 1}]
    )
    with pytest.raises(DataError, match="duplicate truth id 'a'"):
        ds.load_truth(path)


@pytest.mark.parametrize("count", [..., True, 0], ids=["missing", "bool", "zero"])
def test_load_truth_requires_a_positive_integer_instance_count(tmp_path, count):
    path = tmp_path / "truth.jsonl"
    header = {"kind": "truth", "n_classes": 2, "n_instances": count}
    records.write_record_file(path, {k: v for k, v in header.items() if v is not ...}, [{"id": "a", "label": 0}])
    shown = None if count is ... else count
    with pytest.raises(DataError, match=f"truth header n_instances {shown!r} is not a positive integer"):
        ds.load_truth(path)


def test_truth_round_trip(tmp_path):
    data = make_dataset(
        [f"t{k}" for k in range(5)], np.zeros((5, 1, 4)), [k % 3 for k in range(5)], 3, "target"
    )
    path = tmp_path / "truth.jsonl"
    ds.save_truth(path, data)
    mapping, n_classes = ds.load_truth(path)
    assert n_classes == 3
    assert mapping == {f"t{k}": k % 3 for k in range(5)}
