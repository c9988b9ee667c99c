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

import json
from typing import Any, Iterable, Iterator

from .errors import DataError, ParseError

FORMAT = "codechain.v1"


def dump_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def whole_number(path, field: str, value, least: int = 1) -> int:
    """value when it is a JSON integer (never a bool) >= least, else DataError."""
    if type(value) is not int or value < least:
        sign = "positive" if least == 1 else "non-negative"
        raise DataError(f"{path}: {field} {value!r} is not a {sign} integer")
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
