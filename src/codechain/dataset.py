"""Corpora as arrays, corpus files, and patchification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import records
from .errors import ConfigError, DataError
# bound by name: a traced run (perfbench/spans.py) keeps these per-record reads in load_corpus
from .records import identifier, numbers, whole_number

ROLES = ("source", "target")
UNLABELED = -1


@dataclass(frozen=True)
class DomainDataset:
    """One domain's corpus: an (N, channels, time) float array plus side arrays.

    ids holds N distinct non-empty strings; labels holds N class indices,
    UNLABELED (-1) where an instance carries none. Source instances must
    all be labeled. Target labels are only ever read by evaluation,
    never by labeling.
    """

    values: np.ndarray
    ids: np.ndarray
    labels: np.ndarray
    n_classes: int
    role: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        # an object array keeps each id as written; a str array drops trailing NULs
        ids = np.asarray(self.ids, dtype=object)
        labels = np.asarray(self.labels, dtype=np.int64)
        if self.role not in ROLES:
            raise DataError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.n_classes < 1:
            raise DataError("n_classes must be >= 1")
        if values.ndim != 3:
            raise DataError(f"values must be 3-D (instances, channels, time), got shape {values.shape}")
        if ids.shape != values.shape[:1] or labels.shape != values.shape[:1]:
            raise DataError("ids and labels must be 1-D and align with the instances")
        finite = np.isfinite(values).all(axis=(1, 2))
        if not finite.all():
            raise DataError(f"instance {ids[np.argmin(finite)]!r}: non-finite values")
        if not all(isinstance(i, str) and i for i in ids):
            raise DataError("instance ids must be non-empty strings")
        unique, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise DataError(f"duplicate instance id {unique[np.argmax(counts)]!r}")
        unlabeled = labels == UNLABELED
        if self.role == "source" and unlabeled.any():
            raise DataError(f"source instance {ids[np.argmax(unlabeled)]!r} is unlabeled")
        bad = ~unlabeled & ((labels < 0) | (labels >= self.n_classes))
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(
                f"instance {ids[i]!r}: label {labels[i]} out of range [0, {self.n_classes})"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @property
    def length(self) -> int:
        return self.values.shape[2]


def _n_patches(length: int, patch_length: int) -> int:
    """Patches per channel of a series; the trailing remainder is dropped."""
    m = int(patch_length)
    if m < 2:
        raise ConfigError(f"patch_length must be >= 2, got {m}")
    if m > length:
        raise DataError(f"patch_length {m} exceeds series length {length}: empty patch grid")
    return length // m


def require_transitions(dataset: DomainDataset, patch_length: int) -> None:
    """Fail unless every channel holds >= 2 patches, the least with a code transition."""
    if _n_patches(dataset.length, patch_length) < 2:
        raise DataError(
            f"series of length {dataset.length} hold one patch of length {patch_length}; "
            "code transitions need at least 2 patches per channel"
        )


def patchify(values: np.ndarray, patch_length: int) -> np.ndarray:
    """Split the last (time) axis into consecutive non-overlapping windows.

    (..., length) becomes (..., n_patches, patch_length). The trailing
    ``length mod patch_length`` steps are dropped, so all channels share
    the same patch boundaries.
    """
    values = np.asarray(values, dtype=np.float64)
    m = int(patch_length)
    n = _n_patches(values.shape[-1], m)
    return values[..., : n * m].reshape(*values.shape[:-1], n, m)


def save_corpus(path, dataset: DomainDataset, config: dict | None = None) -> None:
    header = {
        "kind": "corpus",
        "role": dataset.role,
        "n_channels": dataset.n_channels,
        "length": dataset.length,
        "n_classes": dataset.n_classes,
        "n_instances": len(dataset),
        "config": config,
    }
    recs = (
        {
            "id": str(rid),
            "label": None if label == UNLABELED else int(label),
            "channels": values.tolist(),
        }
        for rid, label, values in zip(dataset.ids, dataset.labels, dataset.values)
    )
    records.write_record_file(path, header, recs)


def load_corpus(path) -> DomainDataset:
    """Load a corpus file into one array, parsing one record at a time.

    The header's n_channels, length and n_classes are positive JSON
    integers. Every record's channels are JSON numbers (no strings or
    bools) in the header's shape. A label on file is null
    ("unlabeled") or a JSON integer, never a float, string or bool; a
    negative one is out of range.
    """
    header, recs = records.read_record_file(path, expected_kind="corpus")
    n_channels, length, n_classes = (
        whole_number(path, f"corpus header {key}", header.get(key))
        for key in ("n_channels", "length", "n_classes")
    )
    shape = (n_channels, length)
    rows: list[np.ndarray] = []
    ids: list[str] = []
    labels: list[int] = []
    for rec in recs:
        rid = identifier(path, "corpus id", rec.get("id"))
        label = rec.get("label")
        if label is not None and type(label) is not int:
            raise DataError(f"instance {rid!r}: label {label!r} is not an integer")
        if label is not None and label < 0:
            raise DataError(f"instance {rid!r}: label {label} out of range [0, {n_classes})")
        row = numbers(path, f"instance {rid!r} channels", rec.get("channels"), 2)
        if row.shape != shape:
            raise DataError(f"instance {rid!r}: channels of shape {row.shape}, expected {shape}")
        rows.append(row)
        ids.append(rid)
        labels.append(UNLABELED if label is None else label)
    return DomainDataset(
        values=np.stack(rows) if rows else np.empty((0, *shape)),
        ids=ids,
        labels=labels,
        n_classes=n_classes,
        role=header.get("role"),
    )


def strip_labels(dataset: DomainDataset) -> DomainDataset:
    """Copy of the dataset with all labels removed (role forced to target)."""
    return replace(dataset, labels=np.full(len(dataset), UNLABELED), role="target")


def save_truth(path, dataset: DomainDataset, config: dict | None = None) -> None:
    """Write id -> label pairs for sealed evaluation use."""
    missing = dataset.ids[dataset.labels == UNLABELED]
    if missing.size:
        raise DataError(f"cannot write truth for unlabeled instances: {missing[:3].tolist()}")
    header = {
        "kind": "truth",
        "n_classes": dataset.n_classes,
        "n_instances": len(dataset),
        "config": config,
    }
    records.write_record_file(
        path,
        header,
        ({"id": str(rid), "label": int(label)} for rid, label in zip(dataset.ids, dataset.labels)),
    )


def load_truth(path) -> tuple[dict[str, int], int]:
    """Read a truth file; returns (id -> label, n_classes).

    n_classes is a positive JSON integer and every label a JSON integer.
    """
    header, recs = records.read_record_file(path, expected_kind="truth")
    out: dict[str, int] = {}
    for rec in recs:
        rid = identifier(path, "truth id", rec.get("id"))
        if rid in out:
            raise DataError(f"{path}: duplicate truth id {rid!r}")
        if type(rec.get("label")) is not int:
            raise DataError(f"truth record {rid!r}: label must be an integer")
        out[rid] = rec["label"]
    return out, whole_number(path, "truth header n_classes", header.get("n_classes"))
