"""Bayesian pseudo-labels from code transitions, and confident selection.

label_dataset scores each channel's coarse-code sequence under every
class's transition matrix, adds a label prior tempered by tau, and takes
a softmax over classes as the channel posterior. The posteriors are
averaged with the alignment weights and reported as-is (not
renormalized), so confidence reflects both class preference and how
much total weight the channels carried. Nothing downstream reads the
channel posteriors, so neither a result nor a label record keeps them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import records
from .errors import ConfigError, DataError
from .records import libm


def log_prior(probs, tau: float) -> np.ndarray:
    """The (n_classes,) prior term log(p / p.sum()) / tau of every posterior.

    probs holds at least 2 finite, non-negative entries summing to 1
    within 1e-9, floored at 1e-12 before the log; tau must be > 0 and
    large enough that every term stays finite. Anything else is a
    ConfigError.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ConfigError("prior must be a 1-D vector with >= 2 classes")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ConfigError("prior entries must be finite and non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ConfigError("prior must sum to 1 within 1e-9")
    if not tau > 0.0:
        raise ConfigError("tau must be > 0")
    p = np.maximum(p, 1e-12)
    with np.errstate(over="ignore"):
        terms = libm(math.log, p / p.sum()) / tau
    if not np.isfinite(terms).all():
        raise ConfigError(f"tau = {tau} is too small: a prior term log(p) / tau overflows")
    return terms


class PseudoLabels(NamedTuple):
    """Pseudo-labels of N instances as aligned arrays, row n for instance n."""

    ids: np.ndarray  # (N,) instance ids
    label: np.ndarray  # (N,) argmax class
    confidence: np.ndarray  # (N,) score of that class
    scores: np.ndarray  # (N, n_classes) weighted class scores


def label_dataset(
    codes: np.ndarray, model: np.ndarray, weights: np.ndarray, prior: np.ndarray, ids: Sequence[str]
) -> PseudoLabels:
    """Pseudo-label every instance from its coarse codes, in one batch.

    codes is (n_instances, n_channels, n_patches >= 2); model holds the
    smoothed, finite and positive (n_classes, n_channels, n_codes,
    n_codes) class matrices; weights has one entry per channel, prior is
    the log_prior vector and ids name the instances. A channel's
    log-likelihood under a class is sum_t ln p(s[t+1] | s[t]) / n_patches,
    summed over t in time order; its posterior is the softmax
    over classes of log-likelihood + prior. Scores are sum_d w_d *
    posterior_d / n_channels, not renormalized, so a channel of weight 0
    drops out; the label is the argmax score, ties to the lowest class.
    The channel posteriors themselves (_posteriors) are not returned.
    """
    model = np.asarray(model, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    # an object array keeps each id as written; a str array drops trailing NULs
    ids = np.asarray(ids, dtype=object)
    if model.ndim != 4 or np.shape(prior) != model.shape[:1]:
        raise DataError("model and prior disagree on the class count")
    n_channels = model.shape[1]
    if codes.ndim != 3 or codes.shape[1] != n_channels or codes.shape[2] < 2:
        raise DataError(f"codes of shape {codes.shape} are not (instances, {n_channels} channels, >= 2 patches)")
    if weights.shape != (n_channels,):
        raise DataError(f"{weights.size} weights do not match the {n_channels} channels")
    if ids.shape != codes.shape[:1]:
        raise DataError(f"{ids.size} ids do not match the {len(codes)} instances")
    if codes.size and (codes.min() < 0 or codes.max() >= model.shape[-1]):
        raise DataError(f"code out of range [0, {model.shape[-1]})")
    if not (np.isfinite(model) & (model > 0.0)).all():
        raise DataError("model must be finite and above 0; smooth it first")
    scores = (weights[None, :, None] * _posteriors(codes, model, prior)).sum(axis=1) / n_channels
    labels = np.argmax(scores, axis=1)
    confidence = scores[np.arange(len(scores)), labels]
    return PseudoLabels(ids, labels, confidence, scores)


def _posteriors(codes: np.ndarray, model: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """The (n_instances, n_channels, n_classes) channel posteriors that
    label_dataset votes over, from its checked int64 codes and float64 model."""
    log_probs = np.moveaxis(libm(math.log, model), 0, -1)  # (channels, from, to, classes)
    channel = np.arange(model.shape[1])[None, :]
    # one (instances, channels, classes) gather per step, added in time order as a sum over steps adds
    total = log_probs[channel, codes[:, :, 0], codes[:, :, 1]]
    for t in range(1, codes.shape[2] - 1):
        total += log_probs[channel, codes[:, :, t], codes[:, :, t + 1]]
    logits = total / codes.shape[2] + prior
    logits = logits - logits.max(axis=-1, keepdims=True)
    e = libm(math.exp, logits)
    return e / e.sum(axis=-1, keepdims=True)


def top_r_select(confidence: np.ndarray, r_top: float) -> np.ndarray:
    """Indices of the ceil(r_top * n) highest confidences, ascending.

    Confidence ties resolve to the lower index; the count is guarded
    against float artifacts in r_top * n.
    """
    if not 0.0 < r_top <= 1.0:
        raise ConfigError(f"r_top must lie in (0, 1], got {r_top}")
    n = len(confidence)
    if n == 0:
        raise DataError("no labels to select from")
    k = int(math.ceil(r_top * n - 1e-9))
    k = max(1, min(k, n))
    order = np.argsort(-np.asarray(confidence, dtype=np.float64), kind="stable")
    return np.sort(order[:k])


def save_labels(path, labels: PseudoLabels, weights: np.ndarray, config: dict | None = None) -> None:
    header = {
        "kind": "pseudo_labels",
        "n_instances": len(labels.ids),
        "n_classes": labels.scores.shape[1] if len(labels.ids) else 0,
        "channel_weights": np.asarray(weights, dtype=np.float64).tolist(),
        "config": config,
    }
    rows = zip(labels.ids.tolist(), labels.label.tolist(), labels.confidence.tolist(), labels.scores.tolist())
    recs = ({"id": i, "label": k, "confidence": c, "scores": s} for i, k, c, s in rows)
    records.write_record_file(path, header, recs)


def load_labels(path) -> tuple[PseudoLabels, dict]:
    """Pseudo-labels from a file of at least one record: id a non-empty
    JSON string that no other record repeats, label a non-negative JSON
    integer below the score count, confidence a finite JSON number
    (never a bool) and scores a vector of JSON numbers, of one length
    across the records; older files' per_channel_posteriors are ignored.
    The header's n_instances is the record count and n_classes the score count."""
    header, recs = records.read_record_file(path, expected_kind="pseudo_labels")
    rows = [
        (
            records.identifier(path, "pseudo-label id", rec.get("id")),
            records.whole_number(path, "pseudo-label label", rec.get("label"), least=0),
            records.number(path, "pseudo-label confidence", rec.get("confidence")),
            records.numbers(path, "pseudo-label scores", rec.get("scores"), 1),
        )
        for rec in recs
    ]
    if not rows:
        raise DataError(f"{path}: label file holds no records")
    ids, label, confidence, scores = zip(*rows)
    # an object array keeps each id as written; a str array drops trailing NULs
    ids = np.array(ids, dtype=object)
    unique, counts = np.unique(ids, return_counts=True)
    if (counts > 1).any():
        raise DataError(f"{path}: duplicate pseudo-label id {unique[np.argmax(counts)]!r}")
    if len({s.shape for s in scores}) > 1:
        raise DataError(f"{path}: pseudo-label scores differ in shape between records")
    records.require_count(path, header, "n_instances", len(rows))
    records.require_count(path, header, "n_classes", len(scores[0]), "scores per record")
    if max(label) >= len(scores[0]):
        raise DataError(f"{path}: pseudo-label label {max(label)} is not below its {len(scores[0])} scores")
    return PseudoLabels(ids, np.array(label, dtype=np.int64), np.array(confidence), np.stack(scores)), header


def save_selection(path, labels: PseudoLabels, indices: np.ndarray, r_top: float, config: dict | None = None) -> None:
    header = {"kind": "selection", "r_top": r_top, "n_selected": int(len(indices)), "config": config}
    recs = (
        {
            "index": int(i),
            "id": str(labels.ids[i]),
            "label": int(labels.label[i]),
            "confidence": float(labels.confidence[i]),
        }
        for i in indices
    )
    records.write_record_file(path, header, recs)


def load_selection(path) -> tuple[list[dict], dict]:
    """Selection records: id a non-empty JSON string, index a non-negative
    JSON integer that no other record repeats; the header's n_selected is
    the record count."""
    header, recs = records.read_record_file(path, expected_kind="selection")
    recs = list(recs)
    seen: set[int] = set()
    for rec in recs:
        records.identifier(path, "selection id", rec.get("id"))
        index = records.whole_number(path, "selection index", rec.get("index"), least=0)
        if index in seen:
            raise DataError(f"{path}: duplicate selection index {index}")
        seen.add(index)
    records.require_count(path, header, "n_selected", len(recs))
    return recs, header
