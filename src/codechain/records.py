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
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from itertools import chain
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError, ParseError

FORMAT = "codechain.v1"
JSON_NUMBERS = frozenset((int, float))


def dump_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


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


def number(path, field: str, value, positive: bool = False) -> float:
    """value as a float when it is a finite JSON number (never a bool), > 0 if positive."""
    # False for NaN, the infinities and ints too large for a float
    finite = type(value) in JSON_NUMBERS and abs(value) <= sys.float_info.max
    if not finite or (positive and not value > 0):
        kind = "positive finite number" if positive else "finite number"
        raise DataError(f"{path}: {field} {value!r} is not a {kind}")
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_line(full) + "\n")
        for rec in records:
            fh.write(dump_line(rec) + "\n")


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
    """Yield the checked header, then every record."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
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


def _parse(path, no: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, no, f"bad JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(path, no, "each line must be a JSON object")
    return obj
