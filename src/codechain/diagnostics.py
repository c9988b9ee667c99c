"""Evaluation metrics and ordinal-complexity diagnostics."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .rvq import ResidualQuantizer


def accuracy_mf1(pred: Sequence[int], truth: Sequence[int], n_classes: int) -> dict:
    """The metrics record that eval writes: n, accuracy, macro_f1, and
    per_class_f1 as a list of n_classes floats.

    A class with zero precision+recall contributes an F1 of 0, and
    classes absent from both pred and truth still count in the macro
    average.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DataError("pred and truth must be 1-D with matching length")
    if pred.size == 0:
        raise DataError("cannot score an empty prediction set")
    if n_classes < 2:
        raise ConfigError("n_classes must be >= 2")
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError(f"{name} labels out of range [0, {n_classes})")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)
    tp = np.diag(confusion).astype(np.float64)
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)  # 2 tp + fp + fn
    f1 = np.divide(2.0 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
    return {
        "n": int(pred.size),
        "accuracy": float(tp.sum() / pred.size),
        "macro_f1": float(f1.mean()),
        "per_class_f1": f1.tolist(),
    }


def permutation_entropy(series: np.ndarray, order: int = 3, delay: int = 1) -> float:
    """Normalized permutation entropy in [0, 1].

    Each window of `order` samples spaced `delay` apart is reduced to
    its ordinal pattern via a stable argsort, so ties rank the earlier
    index first. The Shannon entropy of the pattern distribution is
    divided by ln(order!).
    """
    if order < 2:
        raise ConfigError("order must be >= 2")
    if delay < 1:
        raise ConfigError("delay must be >= 1")
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise DataError("series must be 1-D")
    if not np.all(np.isfinite(series)):
        raise DataError("series must be finite")
    span = (order - 1) * delay
    if series.size < order * delay + 1:
        raise DataError(
            f"series of length {series.size} too short for order={order}, delay={delay}"
        )
    n_windows = series.size - span
    idx = np.arange(n_windows)[:, None] + np.arange(order)[None, :] * delay
    patterns = np.argsort(series[idx], axis=1, kind="stable")
    # encode each pattern as a single integer for counting
    base = order ** np.arange(order)
    codes = patterns @ base
    _, counts = np.unique(codes, return_counts=True)
    probs = counts / counts.sum()
    entropy = float(-(probs * np.log(probs)).sum())
    return entropy / math.log(math.factorial(order))


def pe_report(
    quantizer: ResidualQuantizer,
    coarse_idx: np.ndarray,
    fine_idx: np.ndarray,
    order: int = 3,
    delay: int = 1,
) -> tuple[float, float]:
    """Mean permutation entropy of coarse vs fine code-vector traces.

    coarse_idx and fine_idx are (n_instances, n_channels, n_patches).
    For every instance and channel, the sequence of assigned raw
    codewords is flattened into one series (patch after patch), once
    with coarse vectors and once with fine vectors, and scored with
    permutation_entropy. Returns (mean coarse PE, mean fine PE).
    """
    coarse_idx = np.asarray(coarse_idx, dtype=np.int64)
    fine_idx = np.asarray(fine_idx, dtype=np.int64)
    if coarse_idx.ndim != 3 or coarse_idx.shape != fine_idx.shape:
        raise DataError("coarse and fine indices must share an (instances, channels, patches) shape")
    if coarse_idx.size == 0:
        raise DataError("no codes given")
    n_series = coarse_idx.shape[0] * coarse_idx.shape[1]
    coarse_series = quantizer.coarse[coarse_idx].reshape(n_series, -1)
    fine_series = quantizer.fine[fine_idx].reshape(n_series, -1)
    coarse_pe = [permutation_entropy(x, order, delay) for x in coarse_series]
    fine_pe = [permutation_entropy(x, order, delay) for x in fine_series]
    return float(np.mean(coarse_pe)), float(np.mean(fine_pe))
