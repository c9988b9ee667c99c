"""Channel-wise Bayesian posteriors and weighted pseudo-label aggregation.

Each channel scores every class by the likelihood of its coarse-code
sequence under that class's transition matrix, combined with a label
prior whose influence is tempered by tau. Channel posteriors are then
averaged with the alignment weights; the aggregate scores are reported
as-is (not renormalized), so confidence reflects both class preference
and how much total weight the channels carried.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import records
from .dataset import DomainDataset
from .errors import ConfigError, DataError


def log_prior(probs, tau: float) -> np.ndarray:
    """The (n_classes,) prior term log(p / p.sum()) / tau of every posterior.

    probs holds at least 2 finite, non-negative entries summing to 1
    within 1e-9, floored at 1e-12 before the log; tau must be > 0.
    Anything else is a ConfigError.
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
    return np.log(p / p.sum()) / tau


def channel_posterior(logliks: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """softmax over the last (class) axis of loglik + prior.

    logliks is (..., n_classes) and prior the log_prior vector; every
    class vector of the result sums to 1.
    """
    logliks = np.asarray(logliks, dtype=np.float64)
    if logliks.ndim < 1 or logliks.shape[-1:] != np.shape(prior):
        raise DataError("log-likelihoods do not match the prior's class count")
    if not np.all(np.isfinite(logliks)):
        raise DataError("log-likelihoods must be finite")
    logits = logliks + prior
    logits = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=-1, keepdims=True)


class PseudoLabels(NamedTuple):
    """Pseudo-labels of N instances as aligned arrays, row n for instance n."""

    ids: np.ndarray  # (N,) instance ids
    label: np.ndarray  # (N,) argmax class
    confidence: np.ndarray  # (N,) score of that class
    scores: np.ndarray  # (N, n_classes) weighted class scores
    per_channel_posteriors: np.ndarray  # (N, n_channels, n_classes)


def aggregate(
    posteriors: np.ndarray, weights: np.ndarray, ids: Sequence[str] | None = None
) -> PseudoLabels:
    """Weight-averaged class scores per instance; argmax label, ties to the lowest index.

    posteriors is (n_instances, n_channels, n_classes); weights is one
    weight per channel, and a channel of weight 0 drops out of the vote.
    Scores are sum_d w_d * posterior_d / n_channels, deliberately not
    renormalized. ids name the instances in order (empty strings when
    not given).
    """
    post = np.asarray(posteriors, dtype=np.float64)
    if post.ndim != 3:
        raise DataError("posteriors must be 3-D (instances, channels, classes)")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (post.shape[1],):
        raise DataError("weights do not match the posterior channel count")
    # an object array keeps each id as written; a str array drops trailing NULs
    ids = np.full(len(post), "", dtype=object) if ids is None else np.asarray(ids, dtype=object)
    if ids.shape != (len(post),):
        raise DataError("ids do not match the posterior instance count")
    scores = (w[None, :, None] * post).sum(axis=1) / post.shape[1]
    labels = np.argmax(scores, axis=1)
    confidence = scores[np.arange(len(scores)), labels]
    return PseudoLabels(ids, labels, confidence, scores, post)


def label_dataset(
    target: DomainDataset,
    codes: np.ndarray,
    model: np.ndarray,
    weights: np.ndarray,
    prior: np.ndarray,
) -> PseudoLabels:
    """Pseudo-label every target instance from its coarse codes, in one batch.

    codes is (n_instances, n_channels, n_patches); model holds the
    smoothed (strictly positive) (n_classes, n_channels, n_codes,
    n_codes) class matrices; weights holds one weight per channel and
    prior is the log_prior vector. One gather takes log p(to | from) of
    every transition under every class; the (n_instances, n_channels,
    n_classes) log-likelihoods are sum_t ln p(s[t+1] | s[t]) / n_patches,
    the log probability of each code sequence normalised by its length.
    Those become per-channel posteriors, then weighted scores. Rows are
    ordered like the dataset.
    """
    if target.role != "target":
        raise DataError(f"labeling expects a target dataset, got role {target.role!r}")
    model = np.asarray(model, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.int64)
    if model.ndim != 4 or model.shape[0] != len(prior):
        raise DataError("model and prior disagree on the class count")
    if model.shape[1] != target.n_channels:
        raise DataError("model and dataset disagree on the channel count")
    if np.shape(weights) != (target.n_channels,):
        raise DataError("weights and dataset disagree on the channel count")
    if codes.ndim != 3 or codes.shape[:2] != (len(target), target.n_channels) or codes.shape[2] < 2:
        raise DataError(
            f"codes of shape {codes.shape} are not (instances, channels, >= 2 patches) of the dataset"
        )
    if codes.size and (codes.min() < 0 or codes.max() >= model.shape[-1]):
        raise DataError(f"code out of range [0, {model.shape[-1]})")
    if np.any(model <= 0.0):
        raise DataError("model has zero transition probabilities; smooth it first")
    log_probs = np.moveaxis(np.log(model), 0, -1)  # (channels, from, to, classes)
    channel = np.arange(target.n_channels)[None, :, None]
    gathered = log_probs[channel, codes[:, :, :-1], codes[:, :, 1:]]
    logliks = gathered.sum(axis=2) / codes.shape[2]
    return aggregate(channel_posterior(logliks, prior), weights, target.ids)


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
    rows = zip(
        labels.ids.tolist(), labels.label.tolist(), labels.confidence.tolist(),
        labels.scores, labels.per_channel_posteriors,
    )
    # one row at a time: a whole-array tolist would hold every posterior as Python floats
    recs = (
        {"id": i, "label": k, "confidence": c, "scores": s.tolist(), "per_channel_posteriors": p.tolist()}
        for i, k, c, s, p in rows
    )
    records.write_record_file(path, header, recs)


def load_labels(path) -> tuple[PseudoLabels, dict]:
    """Pseudo-labels from a file of at least one record: id a non-empty
    JSON string, label a non-negative JSON integer below the score
    count, confidence a finite JSON number (never a bool), scores a
    vector and per_channel_posteriors a matrix of JSON numbers, each of
    one shape across the records."""
    header, recs = records.read_record_file(path, expected_kind="pseudo_labels")
    rows = [
        (
            records.identifier(path, "pseudo-label id", rec.get("id")),
            records.whole_number(path, "pseudo-label label", rec.get("label"), least=0),
            records.number(path, "pseudo-label confidence", rec.get("confidence")),
            records.numbers(path, "pseudo-label scores", rec.get("scores"), 1),
            records.numbers(
                path, "pseudo-label scores per channel", rec.get("per_channel_posteriors"), 2
            ),
        )
        for rec in recs
    ]
    if not rows:
        raise DataError(f"{path}: label file holds no records")
    ids, label, confidence, scores, posteriors = zip(*rows)
    if len({s.shape for s in scores}) > 1 or len({p.shape for p in posteriors}) > 1:
        raise DataError(f"{path}: pseudo-label scores differ in shape between records")
    if max(label) >= len(scores[0]):
        raise DataError(f"{path}: pseudo-label label {max(label)} is not below its {len(scores[0])} scores")
    stacked = (np.array(label, dtype=np.int64), np.array(confidence), np.stack(scores), np.stack(posteriors))
    return PseudoLabels(np.array(ids, dtype=object), *stacked), header


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
    """Selection records: id a non-empty JSON string, index a non-negative JSON integer."""
    header, recs = records.read_record_file(path, expected_kind="selection")
    recs = list(recs)
    for rec in recs:
        records.identifier(path, "selection id", rec.get("id"))
        records.whole_number(path, "selection index", rec.get("index"), least=0)
    return recs, header
