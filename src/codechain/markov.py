"""Coarse-code transition matrices, smoothing, and the transitions bundle.

Transition probabilities are row-normalized bigram counts over code
sequences. Codes never observed as a departure state get a uniform row.
Matrices are estimated separately per (class, channel) on labeled data,
as one (n_classes, n_channels, n_codes, n_codes) array, and pooled per
channel across all instances of a domain, as one (n_channels, n_codes,
n_codes) array. Any stack of matrices is an array whose last two axes
are (from, to).
"""

from __future__ import annotations

import numpy as np

from . import records
from .errors import ConfigError, DataError

_ROW_TOL = 1e-9


def _row_normalize(counts: np.ndarray) -> np.ndarray:
    """Counts (..., n, n) to probabilities; rows with no counts become uniform."""
    totals = counts.sum(axis=-1, keepdims=True)
    return np.where(totals > 0, counts / np.maximum(totals, 1), 1.0 / counts.shape[-1])


def build_class_tm(
    codes: np.ndarray, labels: np.ndarray, n_classes: int, n_codes: int
) -> np.ndarray:
    """(n_classes, n_channels, n_codes, n_codes) matrices from labeled codes.

    codes is (n_instances, n_channels, n_patches) coarse indices; all
    transitions are counted with one bincount over the flat cell index
    ((class * n_channels + channel) * n_codes + from) * n_codes + to.
    A class with no instances gets uniform matrices.
    """
    codes = np.asarray(codes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if n_codes < 2:
        raise ConfigError("n_codes must be >= 2")
    if codes.ndim != 3 or codes.shape[2] < 2:
        raise DataError("codes must be (instances, channels, patches) with >= 2 patches")
    if labels.shape != codes.shape[:1]:
        raise DataError("codes and labels must align")
    if codes.shape[0] == 0:
        raise DataError("no codes given")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"label out of range [0, {n_classes})")
    if codes.min() < 0 or codes.max() >= n_codes:
        raise DataError(f"code out of range [0, {n_codes})")
    n_channels = codes.shape[1]
    group = labels[:, None, None] * n_channels + np.arange(n_channels)[None, :, None]
    cells = (group * n_codes + codes[:, :, :-1]) * n_codes + codes[:, :, 1:]
    counts = np.bincount(cells.ravel(), minlength=n_classes * n_channels * n_codes * n_codes)
    return _row_normalize(counts.reshape(n_classes, n_channels, n_codes, n_codes))


def build_channel_tm(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """(n_channels, n_codes, n_codes) matrices pooled over every instance of a domain."""
    codes = np.asarray(codes, dtype=np.int64)
    return build_class_tm(codes, np.zeros(codes.shape[:1], dtype=np.int64), 1, n_codes)[0]


def smooth(probs: np.ndarray, epsilon: float) -> np.ndarray:
    """(p + eps) / (1 + n*eps) per row of a (..., n, n) stack: strictly positive, still stochastic."""
    if not epsilon > 0.0:
        raise ConfigError("epsilon must be > 0")
    probs = np.asarray(probs, dtype=np.float64)
    total = 1.0 + probs.shape[-1] * float(epsilon)
    if not np.isfinite(total):
        raise ConfigError(f"epsilon = {epsilon} is too large: 1 + n * epsilon overflows")
    return (probs + epsilon) / total


def save_transitions(
    path,
    class_tm: np.ndarray,
    channel_src: np.ndarray,
    config: dict | None = None,
) -> None:
    """Bundle of raw (unsmoothed) matrices; label smooths them with its own epsilon."""
    if class_tm.shape[1:] != channel_src.shape:
        raise DataError(
            f"class matrices {class_tm.shape} and channel matrices {channel_src.shape} "
            "disagree on channels or codes"
        )
    header = {
        "kind": "transitions",
        "n_classes": class_tm.shape[0],
        "n_channels": class_tm.shape[1],
        "n_coarse": class_tm.shape[2],
        "config": config,
    }
    rec = {"class_tms": class_tm.tolist(), "channel_tms_source": channel_src.tolist()}
    records.write_record_file(path, header, [rec])


def load_transitions(path) -> tuple[np.ndarray, np.ndarray]:
    """(class matrices, source channel matrices), all JSON numbers, rows stochastic.

    The header's n_classes, n_channels and n_coarse must be the matrices'
    counts. The epsilon key that older bundles carry is ignored."""
    header, rec = records.read_one(path, "transitions")

    def matrices(field: str, ndim: int) -> np.ndarray:
        probs = records.numbers(path, f"transitions {field}", rec.get(field), ndim)
        name = f"{path}: {field}"
        if probs.shape[-1] != probs.shape[-2]:
            raise DataError(f"{name} must be stacks of square matrices, got shape {probs.shape}")
        if probs.shape[-1] < 2:
            raise DataError(f"{name} need at least 2 states")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise DataError(f"{name} must be finite and non-negative")
        if np.max(np.abs(probs.sum(axis=-1) - 1.0)) > _ROW_TOL:
            raise DataError(f"{name} rows must sum to 1")
        return probs

    class_tm, channel_src = matrices("class_tms", 4), matrices("channel_tms_source", 3)
    if class_tm.shape[1:] != channel_src.shape:
        raise DataError(f"{path}: class and channel matrices disagree on channels or codes")
    for key, held, what in zip(("n_classes", "n_channels", "n_coarse"), class_tm.shape, ("classes", "channels", "codes")):
        records.require_count(path, header, key, held, what)
    return class_tm, channel_src
