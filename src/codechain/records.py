"""Line-delimited record files with a self-describing header line.

Every artifact on disk (corpus, quantizer bundle, transition bundle,
pseudo-label file, truth file, selection file, metrics file) shares one
envelope: UTF-8 text, one JSON object per line. The first line is a
header carrying at least ``{"format": "codechain.v1", "kind": ...}``
plus shape fields and a configuration echo; every following line is one
record.

Serialization is deterministic: keys are sorted, separators are fixed,
and floats go through json's repr-based encoder, which round-trips
IEEE doubles exactly. Nothing time- or host-dependent is ever written,
so identical inputs produce byte-identical files. A file is written
under a temporary name and renamed into place, so it is never seen
half-written.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
from itertools import chain
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError, ParseError

FORMAT = "codechain.v1"
JSON_NUMBERS = frozenset((int, float))
# json.dumps with these options builds a new encoder per call; one serves every line
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_line(obj: Any) -> str:
    return _ENCODER.encode(obj)


def libm(fn, values) -> np.ndarray:
    """fn (math.exp or math.log) of every entry of a float array, in its shape. numpy's
    AVX-512 exp and log round some results unlike its other SIMD targets; the C library
    rounds alike on every x86-64 host with FMA, so an artifact keeps its bytes."""
    values = np.asarray(values, dtype=np.float64)
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size).reshape(values.shape)


def require_finite(config) -> None:
    """ConfigError naming the first field of a config dataclass that holds a
    NaN, an infinity or an int too large for a float, alone or in a vector
    (configs are echoed into record headers, which hold finite numbers only)."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        try:
            finite = np.isfinite(np.asarray(value, dtype=np.float64)).all()
        except OverflowError:
            finite = False
        except (TypeError, ValueError):  # not numbers: the field's own rule judges it
            finite = True
        if not (finite or value is None or isinstance(value, str)):
            raise ConfigError(f"{field.name} must be finite")


def whole_number(path, field: str, value, least: int = 1) -> int:
    """value when it is a JSON integer (never a bool) >= least, else DataError."""
    if type(value) is not int or value < least:
        sign = "positive" if least == 1 else "non-negative"
        raise DataError(f"{path}: {field} {value!r} is not a {sign} integer")
    return value


def require_count(path, header: dict, key: str, held: int, what: str = "records") -> None:
    """DataError unless header[key] is a positive JSON integer equal to
    held, the number of what the file holds."""
    field = f"{header['kind']} header {key}"
    if whole_number(path, field, header.get(key)) != held:
        raise DataError(f"{path}: {field} is {header[key]}, the file holds {held} {what}")


def number(path, field: str, value) -> float:
    """value as a float when it is a finite JSON number (never a bool)."""
    # False for NaN, the infinities and ints too large for a float
    if not (type(value) in JSON_NUMBERS and abs(value) <= sys.float_info.max):
        raise DataError(f"{path}: {field} {value!r} is not a finite number")
    return float(value)


def numbers(path, field: str, value, ndim: int) -> np.ndarray:
    """value as a float64 array of ndim axes when it nests JSON numbers
    (never a bool, string or null) in a regular shape, else DataError."""
    try:
        array = np.asarray(value, dtype=np.float64)
        cells = value
        for _ in range(ndim - 1):
            cells = chain.from_iterable(cells)
        # asarray also reads strings and bools as numbers, so check each cell's type
        if array.ndim == ndim and JSON_NUMBERS.issuperset(map(type, cells)):
            return array
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(f"{path}: {field} is not a {ndim}-D array of JSON numbers")


def identifier(path, field: str, value) -> str:
    """value when it is a non-empty JSON string, else DataError."""
    if type(value) is not str or not value:
        raise DataError(f"{path}: {field} {value!r} is not a non-empty string")
    return value


def write_record_file(path, header: dict, records: Iterable[dict]) -> None:
    """Write a header line followed by record lines.

    The header must carry a "kind"; the format marker is added here.
    """
    if "kind" not in header:
        raise DataError("record file header needs a 'kind'")
    full = dict(header)
    full["format"] = FORMAT
    with replacing(path) as fh:
        fh.write(dump_line(full) + "\n")
        for rec in records:
            fh.write(dump_line(rec) + "\n")


@contextlib.contextmanager
def replacing(path):
    """A text handle whose bytes replace the file at path only once the block ends cleanly.

    It writes a temporary file beside path and renames it over path with
    os.replace, so a writer that fails midway leaves the old file whole
    and no temporary file behind. A path that exists but is not a
    regular file, such as a pipe or /dev/stdout, is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    path = os.path.realpath(path)  # a symlinked destination keeps its link
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def read_record_file(path, expected_kind: str | None = None) -> tuple[dict, Iterator[dict]]:
    """Read the header now and the records lazily, one line at a time.

    Returns (header, records). The records iterator reads on from the
    same open file, so a pipe works too; the file closes when the
    iterator is exhausted or discarded. Both raise ParseError with a
    1-based line number.
    """
    lines = _read(path, expected_kind)
    return next(lines), lines


def read_one(path, kind: str) -> tuple[dict, dict]:
    """(header, record) of a bundle of the given kind that holds exactly one record."""
    header, recs = read_record_file(path, kind)
    found = list(recs)
    if len(found) != 1:
        raise DataError(f"{path}: {kind} bundle must hold exactly one record")
    return header, found[0]


def _read(path, expected_kind: str | None) -> Iterator[dict]:
    """Yield the checked header, then every record. Text is decoded a chunk ahead
    of the lines read, so a byte that is not UTF-8 lies at or after the next line."""
    no = 0  # lines read
    with open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
            no = 1
            if not first.strip():
                raise ParseError(path, 1, "missing header line")
            header = _parse(path, 1, first)
            if header.get("format") != FORMAT:
                raise ParseError(path, 1, f"unrecognized format {header.get('format')!r}")
            if expected_kind is not None and header.get("kind") != expected_kind:
                raise ParseError(path, 1, f"expected kind {expected_kind!r}, got {header.get('kind')!r}")
            yield header
            for no, line in enumerate(fh, start=2):
                if line.strip():
                    yield _parse(path, no, line)
        except UnicodeDecodeError as exc:
            raise ParseError(path, no + 1, f"not UTF-8 text at or after line {no + 1}") from exc


def _parse(path, no: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, no, f"bad JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(path, no, "JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ParseError(path, no, "each line must be a JSON object")
    return obj
